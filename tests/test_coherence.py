from __future__ import annotations

import itertools
import random
from operator import is_

import pytest

from block_chain import triangulated_grid
from dynplanar import coherence, decomposition
from dynplanar import engine as engine_module
from dynplanar.coherence import (
    CoherentPath,
    build_block_paths,
    is_coherent,
    node_label,
    pair_faces,
    update_colouring,
)
from dynplanar.decomposition import DecompositionState
from dynplanar.engine import Engine, _colouring_section
from dynplanar.graph_core import (
    ACCEPTED,
    NOOP_ABSENT,
    NOOP_DUPLICATE,
    REJECTED_NONPLANAR,
    GraphError,
)
from dynplanar.rotation import Embedding
from reference_coherence import colour_path

K4_ROT = {1: (2, 3, 4), 2: (1, 4, 3), 3: (1, 2, 4), 4: (1, 3, 2)}


def k4_emb(a, b, c, d):
    """K4_ROT with a, b, c, d in place of 1, 2, 3, 4."""
    new = dict(zip((1, 2, 3, 4), (a, b, c, d)))
    return Embedding({new[v]: tuple(new[w] for w in seq)
                      for v, seq in K4_ROT.items()})


def triangle_emb(a, b, c):
    return Embedding({a: (b, c), b: (c, a), c: (a, b)})


def stored(embs, blk):
    """The pair-face entries of blk's components with two or more pairs,
    decided from their embeddings `embs`."""
    return {(c.kind, c.name): pair_faces(embs[(c.kind, c.name)], c.pairs)
            for c in blk.comps if len(c.pairs) >= 2}


def listed(embs, blk):
    """blk's maximal coherent paths, listed from `stored` entries."""
    return build_block_paths(stored(embs, blk), blk)


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
    embs = {("R", (1, 2, 3)): Embedding(K4_ROT),
            ("S", (1, 2, 8)): triangle_emb(1, 2, 8),
            ("S", (3, 4, 9)): triangle_emb(3, 4, 9)}
    return decomp, embs


# two K4s sharing vertex 1, joined through triangle (1,2,3)
def pinched_k4s():
    edges = [(1, 2), (1, 4), (1, 5), (2, 4), (2, 5), (4, 5),
             (1, 3), (1, 6), (1, 7), (3, 6), (3, 7), (6, 7), (2, 3)]
    decomp = DecompositionState.from_edges(8, edges)
    embs = {("S", (1, 2, 3)): triangle_emb(1, 2, 3),
            ("R", (1, 2, 4)): k4_emb(1, 2, 4, 5),
            ("R", (1, 3, 6)): k4_emb(1, 3, 6, 7)}
    return decomp, embs


PINCH_PATH = (("R", (1, 2, 4)), ("P", (1, 2)), ("S", (1, 2, 3)),
              ("P", (1, 3)), ("R", (1, 3, 6)))


# wheel with rim (1,2,3,4), K4s glued on rim edges {1,2} and {3,4}
def rim_wheel_between_k4s():
    edges = (wheel_edges(5, [1, 2, 3, 4])
             + [(1, 6), (1, 7), (2, 6), (2, 7), (6, 7)]
             + [(3, 8), (3, 9), (4, 8), (4, 9), (8, 9)])
    decomp = DecompositionState.from_edges(10, edges)
    embs = {("R", (1, 2, 3)): wheel_emb(5, [1, 2, 3, 4]),
            ("R", (1, 2, 6)): k4_emb(1, 2, 6, 7),
            ("R", (3, 4, 8)): k4_emb(3, 4, 8, 9)}
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
    paths = listed(embs, decomp.blocks[0])
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
    paths = listed(embs, decomp.blocks[0])
    assert [p.dump_line() for p in paths] == [
        "path R(1,2,3) P(1,2) S(1,2,8) : 1=0 2=1",
        "path R(1,2,3) P(3,4) S(3,4,9) : 3=0 4=1",
    ]


def test_pinch_stored_path() -> None:
    decomp, embs = pinched_k4s()
    paths = listed(embs, decomp.blocks[0])
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
    paths = build_block_paths(stored(embs, blk), blk)
    assert paths
    _check_stored(decomp, embs, blk, paths, dict.fromkeys(PATH_CASES, 0))


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
    """After every step of seeded engine runs, each block's paths listed
    from the stored entries are the brute-force maximal coherent paths,
    coloured as the reference colours each alone; a block is checked
    when its tree, its components' embeddings or their stored entries
    are new objects. The runs must list at least 50 paths of each of
    PATH_CASES."""
    seen = dict.fromkeys(PATH_CASES, 0)
    checked: dict = {}
    for eng in _churned_engines(random.Random(22)):
        for blk in eng.decomp.blocks:
            if not blk.pairs:
                continue
            entries = eng.pair_faces[blk.name]
            key = (blk.tree, entries, *(eng.comp_embs[(c.kind, c.name)]
                                        for c in blk.comps))
            old = checked.get(blk.name)
            if old is None or not all(map(is_, old, key)):
                checked[blk.name] = key
                paths = build_block_paths(entries, blk)
                _check_stored(eng.decomp, eng.comp_embs, blk, paths, seen)
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("m", [8, 16])
def test_ring_paths_decide_each_link_once(m, monkeypatch) -> None:
    """A ring of m K4 gadgets is one block: a cycle component holding
    each gadget's pair, and a rigid leaf per gadget. Its m(m-1)/2
    maximal paths are listed from the stored pair-face entries alone,
    with no `_tree_path` search and no face looked up or traced in an
    embedding, and each link (component, pair, pair) is decided once: a
    component's entries are read once per pair they hold. So are the
    paths once a chord joins two opposite gadgets, which puts rigid
    components inside paths, and they equal the paths of entries decided
    afresh."""
    reads: dict = {}

    class Counted(dict):
        def __getitem__(self, node):
            reads[node] = reads.get(node, 0) + 1
            return dict.__getitem__(self, node)

    def no_search(*args):
        raise AssertionError("search outside the stored entries")

    def built(eng):
        (blk,) = eng.decomp.blocks
        reads.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Embedding, "common_face", no_search)
            for module in (decomposition, coherence):
                patch.setattr(module, "_tree_path", no_search, raising=False)
            patch.setattr(coherence, "_orbit", no_search)
            paths = build_block_paths(Counted(eng.pair_faces[blk.name]), blk)
        assert reads and all(n <= len(blk.tree[nd])
                             for nd, n in reads.items())
        assert paths == listed(eng.comp_embs, blk)
        return paths

    eng = k4_ring(m)
    assert len(built(eng)) == m * (m - 1) // 2
    assert eng.insert_edge(2, 4 * (m // 2) + 2).status == ACCEPTED
    built(eng)


# ----------------------------------------------------- entries a change writes


def _written(old: dict, new: dict) -> int:
    """The (pair, face) entries the store `new` holds that the store
    `old` does not: two for each pair whose faces are not the object
    `old` holds for it in any block."""
    was = {node: entries for block in old.values()
           for node, entries in block.items()}
    count = 0
    for name, block in new.items():
        if block is old.get(name):
            continue
        for node, entries in block.items():
            prev = was.get(node, {})
            count += sum(2 for p, faces in entries.items()
                         if prev.get(p) is not faces)
    return count


@pytest.mark.parametrize("m", [16, 64])
def test_a_change_writes_the_entries_of_the_components_it_embedded(m):
    """On a ring of m K4 gadgets, chords between opposite gadgets are
    inserted and deleted and gadget edges deleted and re-inserted. Each
    change writes exactly the (pair, face) entries of the components
    with two or more pairs whose embedding it wrote, and carries every
    other entry; a component with one pair has none."""
    eng = k4_ring(m)
    half = 4 * (m // 2)
    for i in (0, 3, m // 2 - 1):
        for a, b in ((4 * i + 2, 4 * i + half + 2), (4 * i + 2, 4 * i + 3)):
            for change in (eng.insert_edge, eng.delete_edge)[::(
                    -1 if eng.graph.has_edge(a, b) else 1)]:
                embs, entries = eng.comp_embs, eng.pair_faces
                assert change(a, b).status == ACCEPTED
                comps = {(c.kind, c.name): c for blk in eng.decomp.blocks
                         for c in blk.comps}
                embedded = [nd for nd, emb in eng.comp_embs.items()
                            if emb is not embs.get(nd)]
                assert embedded
                assert _written(entries, eng.pair_faces) == sum(
                    2 * len(comps[nd].pairs) for nd in embedded
                    if len(comps[nd].pairs) >= 2)
                assert eng.pair_faces == {
                    blk.name: stored(eng.comp_embs, blk)
                    for blk in eng.decomp.blocks if blk.pairs}


def test_a_derived_grid_change_writes_no_entry_and_walks_no_path(
        monkeypatch) -> None:
    """Changes inside the rigid component of a 6x6 triangulated grid that
    touch none of its faces with pairs write no entry, list no path, and
    leave the next dump's colourings section as the memo holds it; one
    that touches such a face writes the entries of the pairs on it.
    Rejections, no-ops and queries write nothing."""
    calls: list = []
    real = build_block_paths

    def spy(store, blk):
        calls.append(blk.name)
        return real(store, blk)

    eng = Engine(36)
    for e in triangulated_grid(6, 6):
        assert eng.insert_edge(*e).status == ACCEPTED
    (blk,) = eng.decomp.blocks
    assert sorted(blk.pairs) == [(4, 11), (24, 31)]
    eng.dump()
    monkeypatch.setattr(engine_module, "build_block_paths", spy)
    for e in ((14, 21), (15, 21), (20, 21)):
        for change in (eng.delete_edge, eng.insert_edge):
            entries, memo = eng.pair_faces, eng._dumped[blk.name]
            assert change(*e).status == ACCEPTED
            assert eng.decomp.derived is not None
            assert eng.pair_faces == entries
            assert eng.pair_faces[blk.name] is entries[blk.name]
            eng.dump()
            assert eng._dumped[blk.name][2] is memo[2]  # colourings
    assert calls == []

    # a chord across the outer face, which borders both pairs, rewrites
    # the rigid component's entries and keeps the triangles'
    rigid = ("R", (0, 1, 2))
    for change in (eng.insert_edge, eng.delete_edge):
        entries = eng.pair_faces
        assert change(0, 2).status == ACCEPTED
        assert eng.decomp.derived is not None
        assert _written(entries, eng.pair_faces) == 4
        new = eng.pair_faces[blk.name]
        assert all(new[nd] is was for nd, was in entries[blk.name].items()
                   if nd != rigid)
        eng.dump()
    assert calls == [blk.name, blk.name]

    entries = eng.pair_faces
    assert eng.insert_edge(15, 20).status == REJECTED_NONPLANAR
    assert eng.insert_edge(14, 21).status == NOOP_DUPLICATE
    assert eng.delete_edge(0, 35).status == NOOP_ABSENT
    eng.graph_rotation_query(14, 8, 15, 21)
    eng.graph_face_query(14, 15, 21)
    eng.decomp.is_separating_pair(4, 11)
    assert eng.pair_faces is entries
    eng.dump()
    assert calls == [blk.name, blk.name]


# ----------------------------------------------------------- update + dump


def test_update_colouring_skips_pairless_blocks() -> None:
    decomp = DecompositionState.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert update_colouring({}, decomp, {}, {}) == {}


def test_update_colouring_carries_untouched_blocks() -> None:
    """A block rebuilt from its own edges replaces and recreates it.
    Entries are carried when a component keeps its embedding and its
    pairs; decided afresh from a new embedding, they keep each old
    object they equal: all of them for a copy, the triangle's for a
    mirror image, which only a rigid component's faces tell apart. The
    block is a K4 between triangles on {1,2} and {3,4}, with a second
    K4 on the first triangle's edge {2,8}; only the middle K4 and that
    triangle have two pairs, and only they have entries."""
    decomp, embs = k4_between_triangles()
    edges = decomp.edges | {(2, 10), (2, 11), (8, 10), (8, 11), (10, 11)}
    decomp = DecompositionState.from_edges(12, edges)
    embs[("R", (2, 8, 10))] = k4_emb(2, 8, 10, 11)
    (blk,) = decomp.blocks
    old = update_colouring({}, decomp, embs, {})
    assert old == {blk.name: stored(embs, blk)}
    assert sorted(old[blk.name]) == [("R", (1, 2, 3)), ("S", (1, 2, 8))]
    again = DecompositionState.from_edges(12, decomp.edges, decomp)
    assert again.replaced == (blk,) and again.created[0] is not blk
    assert update_colouring(old, again, embs, embs)[blk.name] \
        is old[blk.name]
    copies = {nd: Embedding(emb.rot) for nd, emb in embs.items()}
    assert update_colouring(old, again, copies, embs)[blk.name] \
        is old[blk.name]
    mirrors = {nd: emb.flipped() for nd, emb in embs.items()}
    new = update_colouring(old, again, mirrors, embs)[blk.name]
    was = old[blk.name]
    assert new == stored(mirrors, blk) != was
    rigid = ("R", (1, 2, 3))
    assert all(new[nd] is was[nd] for nd in was if nd != rigid)
    assert all(new[rigid][p] is not was[rigid][p] for p in was[rigid])


def test_dump_colourings_frozen() -> None:
    decomp, embs = chained_wheels()
    (blk,) = decomp.blocks
    store = update_colouring({}, decomp, embs, {})
    assert _colouring_section(blk, store).split("\n") == [
        "colourings B(0,1)",
        "path R(0,1,2) P(3,4) R(3,4,5) P(6,7) R(6,7,8) : 3=0 4=1 6=0 7=1",
    ]


def test_coherent_path_is_hashable_value() -> None:
    decomp, embs = pinched_k4s()
    a = listed(embs, decomp.blocks[0])
    b = listed(embs, decomp.blocks[0])
    assert a == b
    assert {a[0]} == {b[0]}
    assert isinstance(a[0], CoherentPath)
