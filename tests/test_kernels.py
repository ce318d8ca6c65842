"""Connectivity kernels: the engine's queries and the oracle's union-find
kernel must describe the same components, the table kernel holds past
64 vertices, and the reference builder's cut-vertex search agrees with
the lowpoint search that collects blocks."""
from __future__ import annotations

import random

from dynplanar.connectivity import ConnTables
from dynplanar.decomposition import DecompositionState, _adjacency, _lowpoint
from dynplanar.oracle import _orakern_py
from reference_blocks import cut_vertices


def _random_graph(rng, n):
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = rng.randint(0, len(pool))
    return rng.sample(pool, m)


def test_conn_tables_fall_back_above_64_vertices():
    """Bitmasks are Python ints, so the tables hold past one machine
    word of vertices."""
    t = ConnTables.from_edges(70, [(0, 69), (65, 69)])
    assert t.connected(0, 65)
    assert not t.connected_avoiding(0, 65, 69)


def test_engine_and_oracle_kernels_express_the_same_components():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randint(2, 10)
        edges = sorted(_random_graph(rng, n))
        d = DecompositionState.from_edges(n, edges)
        lab0, _, _ = _orakern_py.pair_labels(n, edges)
        for u in range(n):
            for v in range(u + 1, n):
                assert d.connected(u, v) == (lab0[u] == lab0[v])


def test_cut_vertex_search_agrees_with_the_lowpoint_search():
    """Same cut set and DFS-tree count as `_lowpoint`, with each vertex
    left out in turn and with an induced vertex subset left whole."""
    rng = random.Random(9)
    for _ in range(2000):
        n = rng.randint(2, 14)
        vertices = frozenset(range(n))
        adj = _adjacency(vertices, _random_graph(rng, n))
        for x in vertices:
            assert cut_vertices(adj, vertices, x) == \
                _lowpoint(adj, vertices - {x})[1:]
        part = frozenset(rng.sample(sorted(vertices), rng.randint(1, n)))
        assert cut_vertices(adj, part, None) == _lowpoint(adj, part)[1:]
