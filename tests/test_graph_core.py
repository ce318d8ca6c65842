"""Edge bookkeeping: canonical storage and the change-type taxonomy."""
from __future__ import annotations

import random

import pytest

from dynplanar.engine import Engine
from dynplanar.graph_core import (
    ACCEPTED,
    DELETE,
    IMPOSSIBLE_TYPES,
    INSERT,
    NOOP_ABSENT,
    NOOP_DUPLICATE,
    DomainError,
    EdgeChangeType,
    canonical_edge,
)


def test_canonical_edge_orders_endpoints():
    assert canonical_edge(5, 2) == (2, 5)
    assert canonical_edge(2, 5) == (2, 5)


def test_canonical_edge_rejects_self_loop():
    with pytest.raises(DomainError):
        canonical_edge(3, 3)


def test_vertex_domain_checks():
    eng = Engine(4)
    with pytest.raises(DomainError):
        eng.insert_edge(1, 7)
    with pytest.raises(DomainError):
        eng.delete_edge(-1, 2)
    with pytest.raises(DomainError):
        eng.insert_edge(True, 2)
    with pytest.raises(DomainError):
        eng.graph.check_vertex("1")
    assert eng.graph.edges == frozenset()


def test_insert_then_present_delete_then_absent():
    eng = Engine(4)
    assert eng.insert_edge(1, 2).status == ACCEPTED
    assert eng.graph.has_edge(2, 1)
    assert eng.delete_edge(2, 1).status == ACCEPTED
    assert not eng.graph.has_edge(1, 2)
    assert eng.graph.edges == frozenset()


def test_duplicate_insert_and_absent_delete_are_distinct_errors():
    eng = Engine(4)
    eng.insert_edge(1, 2)
    assert eng.insert_edge(2, 1).status == NOOP_DUPLICATE
    assert eng.delete_edge(0, 3).status == NOOP_ABSENT
    assert eng.graph.edges == {(1, 2)}


def test_edge_set_equals_fold_of_log():
    rng = random.Random(3)
    eng = Engine(7)
    log = []
    for _ in range(200):
        u, v = rng.randrange(7), rng.randrange(7)
        if u == v:
            continue
        e = canonical_edge(u, v)
        if e in eng.graph.edges:
            out = eng.delete_edge(u, v)
        else:
            out = eng.insert_edge(u, v)
        if out.status == ACCEPTED:
            log.append((out.change_type.direction, e))
    replay: set = set()
    for direction, e in log:
        if direction == INSERT:
            replay.add(e)
        else:
            replay.remove(e)
    assert replay == eng.graph.edges


def test_change_type_formatting_and_reversal():
    t = EdgeChangeType(INSERT, 2, 3)
    assert str(t) == "insert 2->3"
    back = EdgeChangeType(DELETE, t.after_level, t.before_level)
    assert str(back) == "delete 3->2"
    assert back != t


def test_impossible_type_table():
    assert (INSERT, 0, 2) in IMPOSSIBLE_TYPES
    assert (DELETE, 2, 0) in IMPOSSIBLE_TYPES
    assert (INSERT, 2, 3) not in IMPOSSIBLE_TYPES
    assert len(IMPOSSIBLE_TYPES) == 6


def engine_with(n, edges) -> Engine:
    eng = Engine(n)
    for e in edges:
        assert eng.insert_edge(*e).status == ACCEPTED
    return eng


def test_classify_isolated_insert_is_zero_to_one():
    out = Engine(6).insert_edge(1, 2)
    assert str(out.change_type) == "insert 0->1"


def test_classify_missing_k4_edge_is_two_to_three():
    eng = engine_with(6, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    assert str(eng.insert_edge(1, 2).change_type) == "insert 2->3"


def test_classify_cycle_chord_is_two_to_two():
    eng = engine_with(6, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert str(eng.insert_edge(1, 3).change_type) == "insert 2->2"


def test_classify_rejects_duplicate_and_absent_without_mutation():
    eng = engine_with(4, [(1, 2)])
    before = eng.dump()
    assert eng.insert_edge(2, 1).status == NOOP_DUPLICATE
    assert eng.delete_edge(0, 3).status == NOOP_ABSENT
    assert eng.insert_edge(2, 1).change_type is None
    assert eng.graph.edges == {(1, 2)}
    assert eng.dump() == before


def test_classification_reverses_and_never_hits_impossible_types():
    rng = random.Random(11)
    seen: set = set()
    for _ in range(25):
        n = rng.randint(3, 8)
        eng = Engine(n)
        for _ in range(30):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            present = eng.graph.has_edge(u, v)
            forward = eng.delete_edge if present else eng.insert_edge
            backward = eng.insert_edge if present else eng.delete_edge
            out = forward(u, v)
            if out.status != ACCEPTED:
                continue
            ct = out.change_type
            seen.add((ct.direction, ct.before_level, ct.after_level))
            back = DELETE if ct.direction == INSERT else INSERT
            assert backward(u, v).change_type == EdgeChangeType(
                back, ct.after_level, ct.before_level)
            assert forward(u, v).change_type == ct
    assert not (seen & IMPOSSIBLE_TYPES)
