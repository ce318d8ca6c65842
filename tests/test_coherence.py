from __future__ import annotations

import pytest

from dynplanar.coherence import (
    CoherentPath,
    build_block_paths,
    colour_path,
    dump_colourings,
    is_coherent,
    maximal_coherent_paths,
    node_label,
    update_colouring,
)
from dynplanar.decomposition import DecompositionState
from dynplanar.graph_core import GraphError
from dynplanar.rotation import Embedding

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


def _contains(big: tuple, small: tuple) -> bool:
    for cand in (big, big[::-1]):
        for i in range(len(cand) - len(small) + 1):
            if cand[i:i + len(small)] == small:
                return True
    return False


@pytest.mark.parametrize("make", [chained_wheels, k4_between_triangles,
                                  pinched_k4s, rim_wheel_between_k4s])
def test_stored_paths_are_exactly_the_maximal_coherent_ones(make) -> None:
    decomp, embs = make()
    blk = decomp.blocks[0]
    comp_nodes = sorted((c.kind, c.name) for c in blk.comps)
    coherent = []
    for i, x in enumerate(comp_nodes):
        for y in comp_nodes[i + 1:]:
            path = tuple(decomp.spqr_path(x, y))
            if is_coherent(decomp, embs, path):
                coherent.append(path)
    maximal = [p for p in coherent
               if not any(q != p and _contains(q, p) for q in coherent)]
    stored = maximal_coherent_paths(embs, blk)
    assert sorted(stored) == sorted(maximal)
    for p in stored:
        assert any(nd[0] == "P" for nd in p)


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
    assert dump_colourings(update_colouring({}, decomp, embs, set())) == [
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
