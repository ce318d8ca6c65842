"""Avoidance-connectivity relations against hand-worked cases and a reference BFS.

`ConnTables` backs the benchmark's per-layer wrappers; the engine asks
`DecompositionState.connected` instead, and the reference search checks
both.
"""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynplanar.connectivity import ConnTables
from dynplanar.decomposition import DecompositionState
from dynplanar.graph_core import DomainError

PATH = [(1, 2), (2, 3)]
TRIANGLE = [(1, 2), (2, 3), (1, 3)]
K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
C4 = [(1, 2), (2, 3), (3, 4), (1, 4)]
C5 = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
K4_MINUS = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
TWO_TRIANGLES = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]


def tables(n, edges):
    return ConnTables.from_edges(n, edges)


def test_connected_examples():
    assert tables(4, PATH).connected(1, 3)
    assert tables(4, PATH).connected(1, 1)
    assert not tables(7, TWO_TRIANGLES).connected(1, 4)


def test_connected_avoiding_examples():
    assert not tables(4, PATH).connected_avoiding(1, 3, 2)
    assert tables(4, TRIANGLE).connected_avoiding(1, 3, 2)
    assert tables(5, K4).connected_avoiding(1, 2, 4)


def test_connected_avoiding_pair_examples():
    assert not tables(5, C4).connected_avoiding_pair(2, 4, 1, 3)
    assert tables(5, K4).connected_avoiding_pair(1, 2, 3, 4)
    assert not tables(6, C5).connected_avoiding_pair(1, 3, 2, 5)


def test_three_connected_pair_examples():
    assert tables(5, K4).three_connected_pair(1, 2)
    assert not tables(5, C4).three_connected_pair(1, 3)
    assert tables(5, K4_MINUS).three_connected_pair(3, 4)


def test_avoided_vertex_must_differ_from_endpoints():
    t = ConnTables.from_edges(4, PATH)
    with pytest.raises(DomainError):
        t.connected_avoiding(1, 3, 1)
    with pytest.raises(DomainError):
        t.connected_avoiding(1, 3, 3)


def test_avoided_pair_must_be_disjoint_and_distinct():
    t = ConnTables.from_edges(5, C4)
    with pytest.raises(DomainError):
        t.connected_avoiding_pair(1, 3, 3, 4)
    with pytest.raises(DomainError):
        t.connected_avoiding_pair(1, 3, 2, 2)


def test_three_connected_pair_needs_distinct_vertices():
    t = ConnTables.from_edges(5, K4)
    with pytest.raises(DomainError):
        t.three_connected_pair(2, 2)


def test_out_of_domain_vertex_rejected():
    t = ConnTables.from_edges(4, PATH)
    with pytest.raises(DomainError):
        t.connected(1, 9)


def _bfs_connected(n, edges, u, v, banned=()):
    if u in banned or v in banned:
        return False
    adj = {x: set() for x in range(n)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {u}
    stack = [u]
    while stack:
        x = stack.pop()
        if x == v:
            return True
        for y in adj[x]:
            if y not in seen and y not in banned:
                seen.add(y)
                stack.append(y)
    return u == v


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    return n, edges


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_relations_match_reference_search(case):
    n, edges = case
    t = ConnTables.from_edges(n, edges)
    d = DecompositionState.from_edges(n, edges)
    for u in range(n):
        for v in range(n):
            want = _bfs_connected(n, edges, u, v)
            assert t.connected(u, v) == want
            assert d.connected(u, v) == want
            for x in range(n):
                if x in (u, v):
                    continue
                got = t.connected_avoiding(u, v, x)
                assert got == _bfs_connected(n, edges, u, v, (x,))
                if got:
                    assert t.connected(u, v)
                for y in range(x + 1, n):
                    if y in (u, v):
                        continue
                    both = t.connected_avoiding_pair(u, v, x, y)
                    assert both == _bfs_connected(n, edges, u, v, (x, y))
                    if both:
                        assert t.connected_avoiding(u, v, x)
                        assert t.connected_avoiding(u, v, y)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_connected_is_equivalence(case):
    n, edges = case
    t = ConnTables.from_edges(n, edges)
    for u in range(n):
        assert t.connected(u, u)
        for v in range(n):
            assert t.connected(u, v) == t.connected(v, u)


@settings(max_examples=40, deadline=None)
@given(small_graphs())
def test_three_connected_pair_matches_definition(case):
    n, edges = case
    t = ConnTables.from_edges(n, edges)
    for s in range(n):
        for u in range(s + 1, n):
            want = all(
                _bfs_connected(n, edges, s, u, (x, y))
                for x in range(n)
                for y in range(x + 1, n)
                if not {x, y} & {s, u}
            )
            assert t.three_connected_pair(s, u) == want
