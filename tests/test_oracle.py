"""Reference implementations: planarity, rotation validity, decomposition."""
from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest

import dynplanar
from dynplanar.oracle import (
    OracleBudgetError,
    dump_decomposition,
    static_decomposition,
    static_planar,
    tree_path,
    spqr_nodes_and_edges,
    validate_rotation,
)
from dynplanar.oracle._planar import blocks_by_dfs

K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
K5 = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
K33 = [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)]
PETERSEN = [
    (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
]
BOWTIE = [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]
K4_MINUS = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
GLUED_K4S = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
             (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]


# ---------------------------------------------------------------- planarity

def test_static_planar_classics():
    assert not static_planar(6, K5)
    assert not static_planar(7, K33)
    assert static_planar(5, K4)
    assert not static_planar(10, PETERSEN)


def test_static_planar_trees_cycles_empty():
    assert static_planar(5, [])
    assert static_planar(6, [(0, 1), (1, 2), (1, 3), (3, 4)])
    assert static_planar(8, [(i, (i + 1) % 8) for i in range(8)])


def test_static_planar_budget():
    star = [(0, i) for i in range(1, 16)]
    with pytest.raises(OracleBudgetError):
        static_planar(16, star)


def test_static_planar_relabel_invariance():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(2, 9)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        perm = list(range(n))
        rng.shuffle(perm)
        mapped = [(perm[u], perm[v]) for u, v in edges]
        assert static_planar(n, edges) == static_planar(n, mapped)


def test_static_planar_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(2, 10)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        assert static_planar(n, edges) == nx.check_planarity(g)[0]


# ------------------------------------------------------------------- blocks

def test_blocks_by_dfs_bowtie():
    blocks = blocks_by_dfs(sorted(BOWTIE))
    assert sorted(map(sorted, blocks)) == [
        [(1, 2), (1, 3), (2, 3)],
        [(3, 4), (3, 5), (4, 5)],
    ]


def test_blocks_by_dfs_path_gives_bridges():
    blocks = blocks_by_dfs([(0, 1), (1, 2)])
    assert sorted(map(sorted, blocks)) == [[(0, 1)], [(1, 2)]]


# -------------------------------------------------------- rotation validity

def test_validate_rotation_cycle_both_orientations():
    edges = [(1, 2), (2, 3), (3, 4), (1, 4)]
    rot = {1: (2, 4), 2: (3, 1), 3: (4, 2), 4: (1, 3)}
    assert validate_rotation(edges, rot)
    flipped = {v: tuple(reversed(r)) for v, r in rot.items()}
    assert validate_rotation(edges, flipped)


K4_ROT = {1: (2, 3, 4), 2: (1, 4, 3), 3: (1, 2, 4), 4: (1, 3, 2)}


def test_validate_rotation_k4():
    assert validate_rotation(K4, K4_ROT)


def test_validate_rotation_detects_one_swapped_vertex():
    bad = dict(K4_ROT)
    bad[2] = (1, 3, 4)
    assert not validate_rotation(K4, bad)


def test_validate_rotation_single_edge():
    assert validate_rotation([(1, 2)], {1: (2,), 2: (1,)})


def test_validate_rotation_rejects_malformed_input():
    with pytest.raises(ValueError):
        validate_rotation([(1, 2)], {1: (2,), 2: ()})
    with pytest.raises(ValueError):
        validate_rotation([(1, 2)], {1: (2, 2), 2: (1,)})
    with pytest.raises(ValueError):
        validate_rotation([(1, 2)], {1: (2,), 2: (1,), 9: (1,)})


def test_validate_rotation_explains():
    ok, msg = validate_rotation(K4, K4_ROT, explain=True)
    assert ok and msg == ""
    bad = dict(K4_ROT)
    bad[2] = (1, 3, 4)
    ok, msg = validate_rotation(K4, bad, explain=True)
    assert not ok and "V-E+F" in msg


# ------------------------------------------------------------ decomposition

BOWTIE_DUMP = """\
bc-tree
node B(1,2)
node B(3,4)
node C(3)
edge B(1,2) C(3)
edge B(3,4) C(3)
spqr-tree B(1,2)
node S(1,2,3)
spqr-tree B(3,4)
node S(3,4,5)"""

K4_MINUS_DUMP = """\
bc-tree
node B(1,2)
spqr-tree B(1,2)
node P(3,4)
node S(1,3,4)
node S(2,3,4)
edge P(3,4) S(1,3,4)
edge P(3,4) S(2,3,4)"""

K4_DUMP = """\
bc-tree
node B(1,2)
spqr-tree B(1,2)
node R(1,2,3)"""

GLUED_K4S_DUMP = """\
bc-tree
node B(1,2)
spqr-tree B(1,2)
node P(3,4)
node R(1,2,3)
node R(3,4,5)
edge P(3,4) R(1,2,3)
edge P(3,4) R(3,4,5)"""


def test_decomposition_dumps_are_frozen():
    assert dump_decomposition(static_decomposition(6, BOWTIE)) == BOWTIE_DUMP
    assert dump_decomposition(static_decomposition(5, K4_MINUS)) == K4_MINUS_DUMP
    assert dump_decomposition(static_decomposition(5, K4)) == K4_DUMP
    assert dump_decomposition(static_decomposition(7, GLUED_K4S)) == GLUED_K4S_DUMP


def test_decomposition_facts():
    dec = static_decomposition(6, BOWTIE)
    assert dec.cut_vertices == {3}
    assert [b.name for b in dec.blocks] == [(1, 2), (3, 4)]
    dec = static_decomposition(5, K4_MINUS)
    (block,) = dec.blocks
    assert block.pairs == {(3, 4)}
    assert sorted((c.name, c.kind) for c in block.comps) == [
        ((1, 3, 4), "S"), ((2, 3, 4), "S")]
    dec = static_decomposition(5, K4)
    (block,) = dec.blocks
    assert block.pairs == frozenset()
    assert [(c.name, c.kind) for c in block.comps] == [((1, 2, 3), "R")]


def test_decomposition_budget():
    path = [(i, i + 1) for i in range(21)]
    with pytest.raises(OracleBudgetError):
        static_decomposition(22, path)


def test_decomposition_idempotent_and_equivariant():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 9)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        dec1 = static_decomposition(n, edges)
        dec2 = static_decomposition(n, edges)
        assert dump_decomposition(dec1) == dump_decomposition(dec2)
        perm = list(range(n))
        rng.shuffle(perm)
        mapped = [(perm[u], perm[v]) for u, v in edges]
        dm = static_decomposition(n, mapped)
        want_blocks = {frozenset(perm[v] for v in b.vertices)
                       for b in dec1.blocks}
        assert {frozenset(b.vertices) for b in dm.blocks} == want_blocks
        assert {perm[v] for v in dec1.cut_vertices} == set(dm.cut_vertices)
        want_comps = {(frozenset(perm[v] for v in c.vertices), c.kind)
                      for b in dec1.blocks for c in b.comps}
        got_comps = {(frozenset(c.vertices), c.kind)
                     for b in dm.blocks for c in b.comps}
        assert got_comps == want_comps


def test_tree_path_helper():
    dec = static_decomposition(7, GLUED_K4S)
    (block,) = dec.blocks
    nodes, edges = spqr_nodes_and_edges(block)
    a, b = ("R", (1, 2, 3)), ("R", (3, 4, 5))
    assert tree_path(nodes, edges, a, b) == [a, ("P", (3, 4)), b]
    assert tree_path(nodes, edges, a, a) == [a]


# ------------------------------------------------------------- independence


def imported_names(path: Path, package: str) -> set[str]:
    """Dotted names a module's imports name, relative ones resolved
    against its package; `from m import x` names both m and m.x."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            base = parts[:len(parts) + 1 - node.level] if node.level else []
            mod = ".".join(base + ([node.module] if node.module else []))
            names.add(mod)
            names |= {f"{mod}.{alias.name}" for alias in node.names}
    return names


def within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def test_only_the_cli_imports_the_oracle():
    """The oracle is the independent check: no engine module may import
    it, and it imports nothing of the package outside itself."""
    src = Path(dynplanar.__file__).parent
    importers = {
        p.name for p in src.glob("*.py")
        if any(within(n, "dynplanar.oracle")
               for n in imported_names(p, "dynplanar"))}
    assert importers <= {"cli.py"}
    leaks = {
        p.name: sorted(n for n in imported_names(p, "dynplanar.oracle")
                       if within(n, "dynplanar")
                       and not within(n, "dynplanar.oracle"))
        for p in (src / "oracle").glob("*.py")}
    assert not any(leaks.values()), leaks
