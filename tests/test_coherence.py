from __future__ import annotations

import itertools
import random

import pytest

from block_chain import triangulated_grid
from dynplanar import coherence, decomposition
from dynplanar.coherence import (
    CoherentPath,
    build_block_paths,
    is_coherent,
    node_label,
    update_colouring,
)
from dynplanar.decomposition import DecompositionState
from dynplanar.engine import Engine, _block_sections
from dynplanar.graph_core import ACCEPTED, GraphError
from dynplanar.rotation import Embedding
from reference_coherence import colour_path

K4_ROT = {1: (2, 3, 4), 2: (1, 4, 3), 3: (1, 2, 4), 4: (1, 3, 2)}


def wheel_edges(hub, rim):
    es = [(hub, r) for r in rim]
    es += [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    return es


def wheel_emb(hub, rim):
    rot = {hub: tuple(rim)}
    k = len(rim)
    for i, v in enumerate(rim):
        rot[v] = (rim[(i + 1) % k], hub, rim[(i - 1) % k])
    return Embedding(rot)


# three wheels glued along rim edges {3,4} and {6,7}
def chained_wheels():
    edges = (wheel_edges(0, [1, 2, 3, 4]) + wheel_edges(5, [3, 6, 7, 4])
             + wheel_edges(8, [6, 9, 10, 7]))
    decomp = DecompositionState.from_edges(11, edges)
    embs = {
        ("R", (0, 1, 2)): wheel_emb(0, [1, 2, 3, 4]),
        ("R", (3, 4, 5)): wheel_emb(5, [3, 6, 7, 4]),
        ("R", (6, 7, 8)): wheel_emb(8, [6, 9, 10, 7]),
    }
    return decomp, embs


CHAIN_PATH = (("R", (0, 1, 2)), ("P", (3, 4)), ("R", (3, 4, 5)),
              ("P", (6, 7)), ("R", (6, 7, 8)))


# K4 in the middle, triangles hanging off {1,2} and {3,4}
def k4_between_triangles():
    edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
             (1, 8), (2, 8), (3, 9), (4, 9)]
    decomp = DecompositionState.from_edges(10, edges)
    embs = {("R", (1, 2, 3)): Embedding(K4_ROT)}
    return decomp, embs


# two K4s sharing vertex 1, joined through triangle (1,2,3)
def pinched_k4s():
    edges = [(1, 2), (1, 4), (1, 5), (2, 4), (2, 5), (4, 5),
             (1, 3), (1, 6), (1, 7), (3, 6), (3, 7), (6, 7), (2, 3)]
    decomp = DecompositionState.from_edges(8, edges)
    embs = {("S", (1, 2, 3)): Embedding({1: (2, 3), 2: (3, 1), 3: (1, 2)})}
    return decomp, embs


PINCH_PATH = (("R", (1, 2, 4)), ("P", (1, 2)), ("S", (1, 2, 3)),
              ("P", (1, 3)), ("R", (1, 3, 6)))


# wheel with rim (1,2,3,4), K4s glued on rim edges {1,2} and {3,4}
def rim_wheel_between_k4s():
    edges = (wheel_edges(5, [1, 2, 3, 4])
             + [(1, 6), (1, 7), (2, 6), (2, 7), (6, 7)]
             + [(3, 8), (3, 9), (4, 8), (4, 9), (8, 9)])
    decomp = DecompositionState.from_edges(10, edges)
    embs = {("R", (1, 2, 3)): wheel_emb(5, [1, 2, 3, 4])}
    return decomp, embs


# ------------------------------------------------------------- is_coherent


def test_node_label() -> None:
    assert node_label(("P", (1, 2))) == "P(1,2)"
    assert node_label(("R", (0, 1, 2))) == "R(0,1,2)"


def test_wheel_chain_is_coherent() -> None:
    decomp, embs = chained_wheels()
    assert is_coherent(decomp, embs, CHAIN_PATH) is True
    assert is_coherent(decomp, embs, CHAIN_PATH[:3]) is True


def test_k4_window_is_incoherent() -> None:
    decomp, embs = k4_between_triangles()
    full = [("S", (1, 2, 8)), ("P", (1, 2)), ("R", (1, 2, 3)),
            ("P", (3, 4)), ("S", (3, 4, 9))]
    assert is_coherent(decomp, embs, full) is False
    assert is_coherent(decomp, embs, full[:3]) is True


def test_single_node_paths_are_coherent() -> None:
    decomp = DecompositionState.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert is_coherent(decomp, {}, [("S", (1, 2, 3))]) is True
    decomp2, embs2 = pinched_k4s()
    assert is_coherent(decomp2, embs2, [("P", (1, 2))]) is True


def test_is_coherent_rejects_invalid_paths() -> None:
    decomp, embs = pinched_k4s()
    with pytest.raises(GraphError):
        is_coherent(decomp, embs, [])
    with pytest.raises(GraphError):
        is_coherent(decomp, embs, [("S", (9, 9, 9))])
    with pytest.raises(GraphError):
        is_coherent(decomp, embs, [("R", (1, 2, 4)), ("S", (1, 2, 3))])
    with pytest.raises(GraphError):
        is_coherent(decomp, embs, [("R", (1, 2, 4)), ("P", (1, 3))])


# --------------------------------------------------------------- colouring


def test_wheel_chain_colours() -> None:
    _, embs = chained_wheels()
    assert colour_path(embs, CHAIN_PATH) == {3: 0, 4: 1, 6: 0, 7: 1}


def test_rim_face_partition() -> None:
    # rim cyclic order 1,2,3,4 with pairs {1,2} and {3,4}: the future edge
    # across the wheel puts 1,4 on one new face and 2,3 on the other
    decomp, embs = rim_wheel_between_k4s()
    blk = decomp.blocks[0]
    assert sorted(blk.pairs) == [(1, 2), (3, 4)]
    path = (("R", (1, 2, 6)), ("P", (1, 2)), ("R", (1, 2, 3)),
            ("P", (3, 4)), ("R", (3, 4, 8)))
    assert is_coherent(decomp, embs, path) is True
    cols = colour_path(embs, path)
    assert cols == {1: 0, 2: 1, 3: 1, 4: 0}


def test_pinch_colours() -> None:
    _, embs = pinched_k4s()
    cols = colour_path(embs, PINCH_PATH)
    assert cols == {1: 0, 2: 1, 3: 1}


def test_colours_anchor_least_pair_vertex() -> None:
    _, embs = chained_wheels()
    for nodes in (CHAIN_PATH, CHAIN_PATH[::-1]):
        cols = colour_path(embs, nodes)
        assert cols[3] == 0
        assert all(cols[s] != cols[t] for s, t in [(3, 4), (6, 7)])


# ------------------------------------------------------------ stored paths


def test_chain_stored_paths() -> None:
    decomp, embs = chained_wheels()
    paths = build_block_paths(embs, decomp.blocks[0])
    assert len(paths) == 1
    assert paths[0].nodes == CHAIN_PATH
    assert paths[0].colours == ((3, 0), (4, 1), (6, 0), (7, 1))
    assert (paths[0].nodes[0], paths[0].nodes[-1]) == (
        ("R", (0, 1, 2)), ("R", (6, 7, 8)))
    assert paths[0].pair_nodes() == (("P", (3, 4)), ("P", (6, 7)))
    assert paths[0].colour_of(6) == 0
    with pytest.raises(GraphError):
        paths[0].colour_of(5)


def test_incoherent_window_splits_stored_paths() -> None:
    decomp, embs = k4_between_triangles()
    paths = build_block_paths(embs, decomp.blocks[0])
    assert [p.dump_line() for p in paths] == [
        "path R(1,2,3) P(1,2) S(1,2,8) : 1=0 2=1",
        "path R(1,2,3) P(3,4) S(3,4,9) : 3=0 4=1",
    ]


def test_pinch_stored_path() -> None:
    decomp, embs = pinched_k4s()
    paths = build_block_paths(embs, decomp.blocks[0])
    assert len(paths) == 1
    assert paths[0].dump_line() == \
        "path R(1,2,4) P(1,2) S(1,2,3) P(1,3) R(1,3,6) : 1=0 2=1 3=1"


PATH_CASES = ("3+ pairs", "P with 3+ components", "pinch vertex", "R end",
              "S end")


def _check_stored(decomp, embs, blk, stored, seen) -> None:
    """`stored` holds the maximal coherent paths of blk by brute force
    (the coherent `spqr_path` between every two components, less those
    inside another), each coloured as the reference colours it alone;
    `seen` counts the stored paths of each of PATH_CASES."""
    comp_nodes = sorted((c.kind, c.name) for c in blk.comps)
    coherent = []
    for i, x in enumerate(comp_nodes):
        for y in comp_nodes[i + 1:]:
            path = tuple(decomp.spqr_path(x, y))
            if is_coherent(decomp, embs, path):
                coherent.append(path)
    # tree paths: one holds another exactly when it holds its nodes
    sets = [frozenset(p) for p in coherent]
    maximal = [p for p, nodes in zip(coherent, sets)
               if not any(nodes < other for other in sets)]
    assert [p.nodes for p in stored] == sorted(maximal)
    for p in stored:
        assert dict(p.colours) == colour_path(embs, p.nodes)
        pairs = p.pair_nodes()
        ends = {p.nodes[0][0], p.nodes[-1][0]}
        seen["3+ pairs"] += len(pairs) >= 3
        seen["P with 3+ components"] += any(len(blk.tree[q]) >= 3
                                            for q in pairs)
        seen["pinch vertex"] += any(set(q[1]) & set(r[1])
                                    for q, r in zip(pairs, pairs[1:]))
        seen["R end"] += "R" in ends
        seen["S end"] += "S" in ends


@pytest.mark.parametrize("make", [chained_wheels, k4_between_triangles,
                                  pinched_k4s, rim_wheel_between_k4s])
def test_stored_paths_are_exactly_the_maximal_coherent_ones(make) -> None:
    decomp, embs = make()
    blk = decomp.blocks[0]
    stored = build_block_paths(embs, blk)
    assert stored
    _check_stored(decomp, embs, blk, stored, dict.fromkeys(PATH_CASES, 0))


def k4_ring(m: int) -> Engine:
    """A ring of m K4 gadgets, gadget i on 4i..4i+3 and its vertex 4i+1
    linked to the next gadget's 4(i+1), built edge by edge."""
    eng = Engine(4 * m)
    for i in range(m):
        for a, b in itertools.combinations(range(4), 2):
            eng.insert_edge(4 * i + a, 4 * i + b)
        eng.insert_edge(4 * i + 1, 4 * (i + 1) % (4 * m))
    return eng


def _toggle(eng: Engine, a: int, b: int) -> None:
    if eng.graph.has_edge(a, b):
        eng.delete_edge(a, b)
    else:
        eng.insert_edge(a, b)


def _churned_engines(rng):
    """Engines stepped at random, yielded after each step: the corpus
    rule (delete a present edge with probability 0.45, else insert an
    absent pair) at domains 8, 16 and 24; K4 rings of 4 and 8 gadgets
    built whole, then toggling chords between gadgets and gadget edges;
    and triangulated grids losing random edges one by one."""
    for n, runs, steps in ((8, 20, 150), (16, 6, 200), (24, 4, 200)):
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(runs):
            eng = Engine(n)
            for _ in range(steps):
                edges = sorted(eng.graph.edges)
                if edges and rng.random() < 0.45:
                    eng.delete_edge(*rng.choice(edges))
                else:
                    eng.insert_edge(*rng.choice(
                        [e for e in pairs if e not in eng.graph.edges]))
                yield eng
    for m in (4, 8):
        eng = k4_ring(m)
        yield eng
        for _ in range(100):
            i, j = rng.sample(range(m), 2)
            if rng.random() < 0.7:
                _toggle(eng, 4 * i + rng.randrange(4),
                        4 * j + rng.randrange(4))
            else:
                _toggle(eng, 4 * i + 2, 4 * i + 3)
            yield eng
    for _ in range(20):
        rows, cols = rng.randint(3, 5), rng.randint(3, 6)
        grid = triangulated_grid(rows, cols)
        eng = Engine(rows * cols)
        for e in grid:
            eng.insert_edge(*e)
        for e in rng.sample(grid, len(grid) // 2):
            eng.delete_edge(*e)
            yield eng


def test_stored_paths_are_exactly_the_maximal_coherent_ones_under_churn():
    """After every step of seeded engine runs, each block's stored paths
    are the brute-force maximal coherent paths, coloured as the
    reference colours each alone; a colouring is checked when it is a
    new object. The runs must store at least 50 paths of each of
    PATH_CASES."""
    seen = dict.fromkeys(PATH_CASES, 0)
    checked: dict = {}
    for eng in _churned_engines(random.Random(22)):
        for blk in eng.decomp.blocks:
            stored = eng.colourings.get(blk.name)
            if blk.pairs and checked.get(blk.name) is not stored:
                checked[blk.name] = stored
                _check_stored(eng.decomp, eng.comp_embs, blk, stored, seen)
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("m", [8, 16])
def test_ring_paths_decide_each_link_once(m, monkeypatch) -> None:
    """A ring of m K4 gadgets is one block: a cycle component holding
    each gadget's pair, and a rigid leaf per gadget. Its m(m-1)/2
    stored paths are built with no `_tree_path` search and at most one
    `common_face` call per ordered link (component, pair, pair); so are
    the paths once a chord joins two opposite gadgets, which puts rigid
    components inside paths."""
    asked: dict = {}
    real = Embedding.common_face

    def spy(emb, vertex_set):
        key = (id(emb), frozenset(vertex_set))
        asked[key] = asked.get(key, 0) + 1
        return real(emb, vertex_set)

    def no_search(*args):
        raise AssertionError("tree path search")

    def built(eng):
        (blk,) = eng.decomp.blocks
        asked.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Embedding, "common_face", spy)
            for module in (decomposition, coherence):
                patch.setattr(module, "_tree_path", no_search, raising=False)
            paths = build_block_paths(eng.comp_embs, blk)
        links: dict = {}
        for c in blk.comps:
            emb = eng.comp_embs[(c.kind, c.name)]
            for p, q in itertools.permutations(c.pairs, 2):
                key = (id(emb), frozenset((*p, *q)))
                links[key] = links.get(key, 0) + 1
        assert asked and all(n <= links.get(key, 0)
                             for key, n in asked.items())
        return paths

    eng = k4_ring(m)
    assert len(built(eng)) == m * (m - 1) // 2
    assert eng.insert_edge(2, 4 * (m // 2) + 2).status == ACCEPTED
    assert built(eng) == eng.colourings[eng.decomp.blocks[0].name]


# ----------------------------------------------------------- update + dump


def test_update_colouring_skips_pairless_blocks() -> None:
    decomp = DecompositionState.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert update_colouring({}, decomp, {}, set()) == {}


def test_update_colouring_carries_untouched_blocks() -> None:
    decomp, embs = k4_between_triangles()
    old = update_colouring({}, decomp, embs, set())
    blk = decomp.blocks[0].name
    assert old == {blk: build_block_paths(embs, decomp.blocks[0])}
    carried = update_colouring(old, decomp, embs, affected=set())
    assert carried[blk] is old[blk]
    rebuilt = update_colouring(old, decomp, embs, affected={blk})
    assert rebuilt[blk] == old[blk]
    assert rebuilt[blk] is not old[blk]


def test_dump_colourings_frozen() -> None:
    decomp, embs = chained_wheels()
    (blk,) = decomp.blocks
    paths = update_colouring({}, decomp, embs, set())[blk.name]
    sections = _block_sections(
        blk, {}, paths, *(embs[(c.kind, c.name)] for c in blk.comps))
    assert sections[3].split("\n") == [
        "colourings B(0,1)",
        "path R(0,1,2) P(3,4) R(3,4,5) P(6,7) R(6,7,8) : 3=0 4=1 6=0 7=1",
    ]


def test_coherent_path_is_hashable_value() -> None:
    decomp, embs = pinched_k4s()
    a = build_block_paths(embs, decomp.blocks[0])
    b = build_block_paths(embs, decomp.blocks[0])
    assert a == b
    assert {a[0]} == {b[0]}
    assert isinstance(a[0], CoherentPath)
