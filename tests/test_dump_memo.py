"""The dump memo: a dump formats only the blocks and vertices whose
objects changed since the last dump, and the checks that compare dumps
across a change format the state cold, so that a stored object changed
in place cannot hide behind a memo entry."""
from __future__ import annotations

import pytest

import test_acceptance
import test_engine
from block_chain import block_chain, triangulated_grid
from dynplanar import engine as engine_module
from dynplanar.cli import fuzz
from dynplanar.engine import Engine
from dynplanar.graph_core import (
    ACCEPTED,
    NOOP_ABSENT,
    NOOP_DUPLICATE,
    REJECTED_NONPLANAR,
)


def chain_engine() -> tuple[Engine, list]:
    edges, spokes = block_chain()
    eng = Engine(42)
    for e in edges:
        assert eng.insert_edge(*e).status == ACCEPTED
    return eng, spokes


@pytest.fixture
def formatted(monkeypatch) -> list:
    """The names of the blocks the per-block formatter is called for."""
    names: list = []
    real = engine_module._block_sections

    def spy(blk, *args):
        names.append(blk.name)
        return real(blk, *args)

    monkeypatch.setattr(engine_module, "_block_sections", spy)
    return names


def test_a_dump_formats_only_the_blocks_a_change_created(formatted):
    eng, spokes = chain_engine()
    eng.dump()
    assert len(formatted) == 7  # every block but the three bridges
    for e in spokes:
        for change in (eng.delete_edge, eng.insert_edge):
            assert change(*e).status == ACCEPTED
            created = {blk.name for blk in eng.decomp.created}
            formatted.clear()
            eng.dump()
            assert formatted == [eng.decomp.block_of(*e).name]
            assert set(formatted) == created


def test_refusals_queries_and_repeated_dumps_format_nothing(formatted):
    eng, _ = chain_engine()
    before = eng.dump()
    formatted.clear()
    # a rim chord of the first wheel, then one crossing it
    assert eng.insert_edge(1, 3).status == ACCEPTED
    assert eng.insert_edge(2, 4).status == REJECTED_NONPLANAR
    assert eng.insert_edge(1, 3).status == NOOP_DUPLICATE
    assert eng.delete_edge(1, 4).status == NOOP_ABSENT
    eng.dump()
    assert formatted == [(0, 1)]
    formatted.clear()
    assert eng.insert_edge(2, 4).status == REJECTED_NONPLANAR
    assert eng.insert_edge(3, 1).status == NOOP_DUPLICATE
    assert eng.delete_edge(1, 4).status == NOOP_ABSENT
    eng.graph_rotation_query(0, 1, 2, 3)
    eng.graph_face_query(0, 1, 2)
    eng.decomp.same_block(0, 8)
    eng.decomp.is_cut_vertex(6)
    eng.decomp.is_separating_pair(11, 12)
    eng.dump()
    eng.dump()
    assert formatted == []
    assert eng.delete_edge(1, 3).status == ACCEPTED
    assert eng.dump() == before


def test_the_memo_holds_only_the_current_state():
    eng, _ = chain_engine()
    eng.dump()
    assert len(eng._dumped) == 1 + 7 + len(eng.graph_rot)
    assert eng._dumped["bc-tree"][0] is eng.decomp._blocks_of_vertex
    for e in sorted(eng.graph.edges):
        eng.delete_edge(*e)
    assert eng.dump() == Engine(42).dump()
    assert eng._dumped == {"bc-tree": ({}, "bc-tree")}


def test_the_bc_tree_is_formatted_when_its_index_changes(monkeypatch):
    """The bc-tree section is reused while the decomposition's vertex
    index of block names is the same object: deleting and re-inserting
    edges inside the grid's one block formats it never, a bridge to a
    new vertex once."""
    calls: list = []
    real = engine_module.bc_section

    def spy(at):
        calls.append(at)
        return real(at)

    monkeypatch.setattr(engine_module, "bc_section", spy)
    eng = Engine(31)
    for e in triangulated_grid(5, 6):
        assert eng.insert_edge(*e).status == ACCEPTED
    eng.dump()
    calls.clear()
    for e in ((7, 14), (8, 15), (13, 14), (0, 1)):
        for change in (eng.delete_edge, eng.insert_edge):
            assert change(*e).status == ACCEPTED
            eng.dump()
    assert calls == []
    assert eng.insert_edge(29, 30).status == ACCEPTED
    eng.dump()
    assert calls == [eng.decomp._blocks_of_vertex]


# --------------------------------------------------------- injected faults

def mirror_rotation(emb) -> None:
    """Reverse every entry of the embedding's rotation, in place."""
    for x, seq in emb.rot.items():
        emb.rot[x] = seq[::-1]


def reverse_faces(emb) -> None:
    """Replace the embedding's faces tuple by its reverse."""
    emb.faces = emb.faces[::-1]


def corrupting(fault):
    """An engine class whose refused changes (rejections and no-ops)
    apply `fault`, an involution, to its first stored rigid embedding,
    as a faulty change path could; the next change applies it again
    first, so a run goes on and each check between sees it."""

    class Corrupting(Engine):
        def __init__(self, n: int):
            super().__init__(n)
            self._undo = None

        def _refusing(self, change, a, b):
            if self._undo is not None:
                fault(self._undo)
                self._undo = None
            out = change(a, b)
            rigid = [emb for (kind, _), emb in sorted(self.comp_embs.items())
                     if kind == "R"]
            if out.status != ACCEPTED and rigid:
                fault(rigid[0])
                self._undo = rigid[0]
            return out

        def insert_edge(self, a, b):
            return self._refusing(super().insert_edge, a, b)

        def delete_edge(self, a, b):
            return self._refusing(super().delete_edge, a, b)

    return Corrupting


@pytest.mark.parametrize("fault", [mirror_rotation, reverse_faces])
def test_purity_checks_see_a_stored_embedding_changed_in_place(
        fault, monkeypatch):
    engine_cls = corrupting(fault)
    eng = engine_cls(8)
    for e in test_engine.K4_ORDER:
        eng.insert_edge(*e)
    before = eng.dump()
    assert eng.insert_edge(1, 2).status == NOOP_DUPLICATE
    # the memo alone would hide it: every object a section reads is kept
    assert eng.dump() == before
    assert eng._dump({})[0] != before

    monkeypatch.setattr(test_engine, "Engine", engine_cls)
    for check in (test_engine.test_rejection_leaves_state_untouched,
                  test_engine.test_noops_leave_state_untouched):
        with pytest.raises(AssertionError):
            check()
    stats = test_acceptance.run_corpus(range(2), engine_cls)
    assert stats["purity_failures"] > 0
    report, _ = fuzz(0, 8, 150, strict=True, engine_factory=engine_cls)
    assert "rejected insertion mutated the state" in report
