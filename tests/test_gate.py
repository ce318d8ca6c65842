from __future__ import annotations

import itertools
import random

import pytest

from dynplanar.decomposition import DecompositionState
from dynplanar.gate import insert_ok, window_path
from dynplanar.graph_core import GraphError
from dynplanar.oracle import static_planar
from dynplanar.rotation import Embedding

nx = pytest.importorskip("networkx")


def comp_embedding(comp) -> Embedding:
    g = nx.Graph()
    g.add_nodes_from(sorted(comp.vertices))
    g.add_edges_from(sorted(comp.real_edges | comp.pairs))
    ok, pe = nx.check_planarity(g)
    assert ok
    rot = {v: tuple(pe.neighbors_cw_order(v)) for v in sorted(g.nodes)}
    return Embedding(rot)


def rigid_embeddings(decomp) -> dict:
    return {(c.kind, c.name): comp_embedding(c)
            for blk in decomp.blocks for c in blk.comps if c.kind == "R"}


def verdict(n: int, edges, a: int, b: int) -> bool:
    edges = frozenset(tuple(sorted(e)) for e in edges)
    decomp = DecompositionState.from_edges(n, edges)
    return insert_ok(decomp, rigid_embeddings(decomp), a, b) is not None


def sweep(n: int, edges) -> list:
    edges = frozenset(tuple(sorted(e)) for e in edges)
    decomp = DecompositionState.from_edges(n, edges)
    embs = rigid_embeddings(decomp)
    bad = []
    for a, b in itertools.combinations(range(n), 2):
        if (a, b) in edges:
            continue
        got = insert_ok(decomp, embs, a, b) is not None
        want = static_planar(n, edges | {(a, b)})
        if got != want:
            bad.append((a, b, got, want))
    return bad


K4_TRI = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
          (1, 8), (2, 8), (3, 9), (4, 9)]


def wheel_edges(hub, rim):
    es = [(hub, r) for r in rim]
    es += [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    return es


CHAIN_WHEELS = (wheel_edges(0, [1, 2, 3, 4]) + wheel_edges(5, [3, 6, 7, 4])
                + wheel_edges(8, [6, 9, 10, 7]))


# ---------------------------------------------------------------- classics


def test_k5_final_edge_rejected() -> None:
    edges = [e for e in itertools.combinations(range(5), 2) if e != (0, 1)]
    assert verdict(5, edges, 0, 1) is False


def test_k4_final_edge_admitted() -> None:
    assert verdict(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], 2, 3) is True


def test_k33_final_edge_rejected() -> None:
    edges = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5) if (a, b) != (0, 3)]
    assert verdict(6, edges, 0, 3) is False


def test_joining_components_admitted() -> None:
    tri2 = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    assert verdict(6, tri2, 1, 4) is True


def test_closing_a_path_admitted() -> None:
    assert verdict(6, [(i, i + 1) for i in range(5)], 0, 5) is True


def test_classic_graphs_full_sweep() -> None:
    k5e = [e for e in itertools.combinations(range(5), 2) if e != (0, 1)]
    assert sweep(5, k5e) == []
    k33e = [(a, b) for a in (0, 1, 2) for b in (3, 4, 5) if (a, b) != (0, 3)]
    assert sweep(6, k33e) == []
    assert sweep(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]) == []
    assert sweep(11, CHAIN_WHEELS) == []
    assert sweep(10, K4_TRI) == []


# --------------------------------------------------------- window mechanics


def test_rigid_window_rejects_across_k4() -> None:
    # joining the two triangle tips needs a face of the K4 showing both
    # its pairs, and K4 has only triangular faces
    assert verdict(10, K4_TRI, 8, 9) is False


def test_rigid_windows_admit_across_wheel_chain() -> None:
    assert verdict(11, CHAIN_WHEELS, 1, 10) is True


def test_window_path_endpoints_are_components() -> None:
    decomp = DecompositionState.from_edges(11, CHAIN_WHEELS)
    blk = decomp.blocks[0]
    assert window_path(blk, 1, 10) == [
        ("R", (0, 1, 2)), ("P", (3, 4)), ("R", (3, 4, 5)),
        ("P", (6, 7)), ("R", (6, 7, 8)),
    ]
    # 3 sits in a pair; the path still starts at a component
    assert window_path(blk, 3, 8) == [
        ("R", (3, 4, 5)), ("P", (6, 7)), ("R", (6, 7, 8)),
    ]
    assert window_path(blk, 0, 2) == [("R", (0, 1, 2))]
    with pytest.raises(GraphError):
        window_path(blk, 0, 99)


def reference_window(block, a: int, b: int) -> list:
    """Shortest path, in the component-pair incidence graph built from
    block.comps, between the components holding a and those holding b."""
    g = nx.Graph()
    for c in block.comps:
        g.add_node((c.kind, c.name))
        g.add_edges_from(((c.kind, c.name), ("P", p)) for p in c.pairs)
    ends_a = [(c.kind, c.name) for c in block.comps if a in c.vertices]
    ends_b = [(c.kind, c.name) for c in block.comps if b in c.vertices]
    paths = [nx.shortest_path(g, x, y) for x in ends_a for y in ends_b]
    least = min(len(p) for p in paths)
    (path,) = {tuple(p) for p in paths if len(p) == least}
    return list(path)


def test_window_path_matches_incidence_graph_reference() -> None:
    rng = random.Random(17)
    checked = 0
    for _ in range(60):
        n = rng.randrange(6, 13)
        g = nx.Graph()
        for _ in range(rng.randrange(n, 3 * n)):
            u, v = rng.sample(range(n), 2)
            g.add_edge(u, v)
            if not nx.check_planarity(g)[0]:
                g.remove_edge(u, v)
        decomp = DecompositionState.from_edges(n, list(g.edges))
        for blk in decomp.blocks:
            if blk.is_bridge:
                continue
            for a, b in itertools.permutations(sorted(blk.vertices), 2):
                if tuple(sorted((a, b))) in blk.pairs:
                    continue
                path = window_path(blk, a, b)
                assert path == reference_window(blk, a, b), (blk.name, a, b)
                assert path[0][0] != "P" and path[-1][0] != "P"
                checked += len(path) > 1
    assert checked > 200


def test_cross_block_conjunction_rejects() -> None:
    # bridge into a near-K5 block: the bad block alone forces rejection
    k5e = [e for e in itertools.combinations(range(5), 2) if e != (0, 1)]
    edges = k5e + [(0, 9)]
    assert verdict(10, edges, 9, 1) is False
    assert verdict(10, edges, 9, 2) is True


def test_bridge_blocks_always_pass() -> None:
    decomp = DecompositionState.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    for a, b in [(0, 2), (0, 3), (1, 3)]:
        assert insert_ok(decomp, {}, a, b) == []


def test_insert_ok_returns_the_windows_surgery_builds() -> None:
    decomp = DecompositionState.from_edges(11, CHAIN_WHEELS)
    embs = rigid_embeddings(decomp)
    blk = decomp.blocks[0]
    # across the chain: one corridor along the whole window path
    assert insert_ok(decomp, embs, 1, 10) == [
        (blk, 1, 10, window_path(blk, 1, 10))]
    # inside one wheel: a face split, whose window path is that wheel
    assert insert_ok(decomp, embs, 1, 3) == [(blk, 1, 3, [("R", (0, 1, 2))])]
    # an edge at a virtual pair joins its bundle, and a chord of a cycle
    # needs no surgery
    glued = DecompositionState.from_edges(
        7, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
            (1, 5), (1, 6), (2, 5), (2, 6), (5, 6)])
    assert (1, 2) in glued.blocks[0].pairs
    assert insert_ok(glued, rigid_embeddings(glued), 1, 2) == []
    cycle = DecompositionState.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert insert_ok(cycle, {}, 0, 2) == []


# ------------------------------------------------------------------ guards


def test_insert_ok_guards() -> None:
    edges = [(0, 1), (1, 2), (0, 2)]
    decomp = DecompositionState.from_edges(4, edges)
    embs = {}
    with pytest.raises(GraphError):
        insert_ok(decomp, embs, 1, 1)
    with pytest.raises(GraphError):
        insert_ok(decomp, embs, 0, 1)
    with pytest.raises(GraphError):
        insert_ok(decomp, embs, 1, 0)
    assert insert_ok(decomp, embs, 0, 3) == []


# ------------------------------------------------------------ differential


def test_gate_matches_static_oracle_on_random_planar_states() -> None:
    rng = random.Random(31)
    states = 0
    for _ in range(40):
        n = rng.randrange(5, 9)
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        acc: set = set()
        for e in pairs:
            if static_planar(n, acc | {e}):
                acc.add(e)
            if rng.random() < 0.25 and len(acc) >= 2:
                assert sweep(n, acc) == []
                states += 1
    assert states > 60
