from __future__ import annotations

import random
import time

import pytest

from dynplanar.engine import Engine
from dynplanar.graph_core import (
    ACCEPTED,
    NOOP_ABSENT,
    NOOP_DUPLICATE,
    REJECTED_NONPLANAR,
    DomainError,
    GraphError,
)
from dynplanar.oracle import (
    dump_decomposition,
    static_decomposition,
    static_planar,
    validate_rotation,
)

K4_ORDER = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def build(n: int, edges) -> Engine:
    eng = Engine(n)
    for a, b in edges:
        out = eng.insert_edge(a, b)
        assert out.status == ACCEPTED
    return eng


# ----------------------------------------------------------- change statuses

def test_insert_levels_and_statuses():
    eng = Engine(8)
    levels = []
    for a, b in K4_ORDER:
        out = eng.insert_edge(a, b)
        assert out.status == ACCEPTED
        c = out.change_type
        levels.append((c.before_level, c.after_level))
    assert levels == [(0, 1), (0, 1), (0, 1), (1, 2), (1, 2), (2, 3)]

    out = eng.insert_edge(1, 2)
    assert out.status == NOOP_DUPLICATE and out.change_type is None
    out = eng.delete_edge(5, 6)
    assert out.status == NOOP_ABSENT and out.change_type is None


def test_domain_and_degenerate_errors():
    for bad in (0, -3, "8", 2.0, True):
        with pytest.raises(DomainError):
            Engine(bad)
    eng = Engine(4)
    with pytest.raises(DomainError):
        eng.insert_edge(1, 1)
    with pytest.raises(DomainError):
        eng.insert_edge(0, 4)
    with pytest.raises(DomainError):
        eng.delete_edge(-1, 2)


# -------------------------------------------------------- frozen K4 journey

def test_k4_rigid_embedding_frozen():
    eng = build(8, K4_ORDER)
    assert sorted(eng.comp_embs) == [("R", (1, 2, 3))]
    emb = eng.comp_embs[("R", (1, 2, 3))]
    assert emb.serialize() == "1:2,3,4;2:1,4,3;3:1,2,4;4:1,3,2"


def test_k4_delete_dissolves_to_cycle_pair():
    eng = build(8, K4_ORDER)
    whole = eng.dump()
    out = eng.delete_edge(1, 2)
    assert out.status == ACCEPTED
    assert (out.change_type.before_level, out.change_type.after_level) \
        == (3, 2)
    assert sorted(eng.comp_embs) == [("S", (1, 3, 4)), ("S", (2, 3, 4))]
    lines = [p.dump_line()
             for paths in eng.colourings.values() for p in paths]
    assert lines == ["path S(1,3,4) P(3,4) S(2,3,4) : 3=0 4=1"]

    out = eng.insert_edge(1, 2)
    assert out.status == ACCEPTED
    assert eng.dump() == whole


def test_k4_any_insertion_order():
    base = build(8, K4_ORDER).dump()
    rng = random.Random(7)
    for _ in range(6):
        order = K4_ORDER[:]
        rng.shuffle(order)
        assert build(8, order).dump() == base


# -------------------------------------------------- deletion cascade depths

def test_delete_unfurls_nested_blocks():
    edges = [(0, 1), (1, 2), (2, 3), (0, 6), (0, 7), (3, 6), (3, 7), (6, 7)]
    eng = build(8, edges)
    before = eng.dump()
    out = eng.delete_edge(1, 2)
    assert out.status == ACCEPTED
    assert sorted(b.name for b in eng.decomp.blocks) \
        == [(0, 1), (0, 3), (2, 3)]
    assert sorted(eng.comp_embs) == [("S", (0, 6, 7)), ("S", (3, 6, 7))]
    out = eng.insert_edge(1, 2)
    assert out.status == ACCEPTED
    assert eng.dump() == before


def test_bridge_delete_disconnects():
    eng = build(4, [(0, 1), (1, 2)])
    out = eng.delete_edge(0, 1)
    assert out.status == ACCEPTED
    assert (out.change_type.before_level, out.change_type.after_level) \
        == (1, 0)
    assert not eng.decomp.connected(0, 1)


# ------------------------------------------------------------ change purity

def test_rejection_leaves_state_untouched():
    order = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    eng = build(8, order[:-1])
    before = eng.dump()
    out = eng.insert_edge(*order[-1])
    assert out.status == REJECTED_NONPLANAR and out.change_type is None
    assert eng.dump() == before
    assert not eng.graph.has_edge(*order[-1])


def test_noops_leave_state_untouched():
    eng = build(8, K4_ORDER)
    before = eng.dump()
    assert eng.insert_edge(3, 4).status == NOOP_DUPLICATE
    assert eng.delete_edge(5, 7).status == NOOP_ABSENT
    assert eng.dump() == before


# ------------------------------------------------- state is replay-invariant

def test_state_depends_only_on_edge_set():
    rng = random.Random(40)
    eng = Engine(7)
    for _ in range(120):
        a = rng.randrange(7)
        b = rng.randrange(7)
        if a == b:
            continue
        if eng.graph.has_edge(a, b) and rng.random() < 0.4:
            eng.delete_edge(a, b)
        else:
            eng.insert_edge(a, b)
        replay = build(7, sorted(eng.graph.edges))
        assert replay.dump() == eng.dump()


def test_subupdate_order_is_immaterial():
    # one insertion merging three blocks: path of three triangles
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4),
             (4, 5), (5, 6), (4, 6)]
    base = None
    rng = random.Random(9)
    for trial in range(6):
        eng = build(8, edges)
        if trial:
            eng._subupdate_order = lambda ts: rng.sample(ts, len(ts))
        out = eng.insert_edge(0, 6)
        assert out.status == ACCEPTED
        assert (out.change_type.before_level, out.change_type.after_level) \
            == (1, 2)
        if base is None:
            base = eng.dump()
        assert eng.dump() == base


# -------------------------------------------------------------- oracle sync

def test_trajectory_matches_static_oracles():
    rng = random.Random(5)
    eng = Engine(6)
    steps = 0
    while steps < 80:
        a = rng.randrange(6)
        b = rng.randrange(6)
        if a == b:
            continue
        steps += 1
        if eng.graph.has_edge(a, b):
            if rng.random() < 0.55:
                eng.delete_edge(a, b)
        else:
            want = static_planar(6, eng.graph.edges | {tuple(sorted((a, b)))})
            got = eng.insert_edge(a, b).status == ACCEPTED
            assert got == want
        assert eng.dump_decomposition() == dump_decomposition(
            static_decomposition(6, eng.graph.edges))
        for emb in eng.comp_embs.values():
            assert validate_rotation(emb.edge_set(), emb.rot)
        assert validate_rotation(eng.graph.edges, eng.graph_rot)


# ------------------------------------------------------------ graph queries

def bowtie() -> Engine:
    return build(8, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])


def test_rotation_query_spans_blocks():
    eng = bowtie()
    assert eng.graph_rotation_query(3, 1, 2, 4) is True
    assert eng.graph_rotation_query(3, 1, 4, 2) is False
    assert eng.graph_rotation_query(3, 2, 1, 4) is False
    assert eng.graph_rotation_query(3, 1, 2, 5) is True
    assert eng.graph_rotation_query(3, 2, 4, 5) is True


def test_face_query_triangle_and_cross_block():
    eng = bowtie()
    assert eng.graph_face_query(1, 2, 3) is True
    assert eng.graph_face_query(1, 3, 2) is True
    assert eng.graph_face_query(1, 2, 4) is False


def test_query_error_guards():
    eng = bowtie()
    with pytest.raises(GraphError):
        eng.graph_rotation_query(3, 1, 2, 7)
    with pytest.raises(GraphError):
        eng.graph_rotation_query(3, 1, 2, 2)
    with pytest.raises(GraphError):
        eng.graph_face_query(1, 2, 2)
    with pytest.raises(DomainError):
        eng.graph_face_query(1, 2, 9)


# --------------------------------------------------------------- cost bound


def test_change_cost_follows_the_graph_not_the_domain():
    """A change touches the vertices in blocks, not the whole domain:
    a 20-edge path in a domain of a million vertices builds in well
    under the ~20 s a per-change sweep of the domain costs."""
    eng = Engine(10**6)
    t0 = time.perf_counter()
    for v in range(20):
        assert eng.insert_edge(v, v + 1).status == ACCEPTED
    assert time.perf_counter() - t0 < 2.0
    assert sorted(eng.graph_rot) == list(range(21))
