from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import dynplanar
from block_chain import block_chain, chain_toggles
from dynplanar.cli import check_state, fuzz, main, run_trace
from dynplanar.decomposition import DecompositionState
from dynplanar.engine import Engine
from dynplanar.graph_core import (
    ACCEPTED,
    REJECTED_NONPLANAR,
    ChangeOutcome,
    DomainError,
)
from dynplanar.oracle import PLANARITY_BUDGET, OracleBudgetError
from dynplanar.rotation import Embedding

K5_TRACE = [
    "add 0 1", "add 0 2", "add 0 3", "add 0 4", "add 1 2",
    "add 1 3", "add 1 4", "add 2 3", "add 2 4", "add 3 4",
]


class LyingGate(Engine):
    """Broken build for the harness sanity check: accepts everything."""

    def insert_edge(self, a, b):
        out = Engine.insert_edge(self, a, b)
        if out.status == REJECTED_NONPLANAR:
            return ChangeOutcome(ACCEPTED, None)
        return out


# -------------------------------------------------------------------- traces

def test_first_insert_and_duplicate():
    out, code = run_trace(["add 1 2", "add 1 2"], 8)
    assert out == ["accepted 0->1", "noop duplicate"]
    assert code == 0


def test_k5_final_edge_rejected():
    out, code = run_trace(K5_TRACE, 8)
    assert out[-1] == "rejected nonplanar"
    assert all(ln.startswith("accepted") for ln in out[:-1])
    assert code == 0


def test_delete_and_noop_absent():
    out, _ = run_trace(["add 1 2", "del 1 2", "del 1 2"], 8)
    assert out == ["accepted 0->1", "accepted 1->0", "noop absent"]


def test_queries_answer_true_false():
    trace = ["add 1 2", "add 2 3", "add 1 3",
             "block? 1 3", "block? 1 4", "cut? 2",
             "pair? 1 2", "oracle planar"]
    out, code = run_trace(trace, 8)
    assert out[3:] == ["true", "false", "false", "false", "true"]
    assert code == 0


def test_dump_is_terminated_by_dot():
    out, _ = run_trace(["add 1 2", "dump"], 8)
    assert out[-1] == "."
    assert "bc-tree" in out
    assert any(ln.startswith("graph-embedding") for ln in out)


def test_parse_errors_carry_line_numbers_and_continue():
    trace = ["add 1 2", "frobnicate", "add 1", "add x y",
             "rot? 9 1 2 3", "", "# note", "add 2 3",
             "add 1_0 2", "add \u0663 4", "add +5 6", "add -1 6"]
    out, code = run_trace(trace, 12)
    assert out[0] == "accepted 0->1"
    assert out[1].startswith("error line 2:")
    assert out[2].startswith("error line 3:")
    assert out[3].startswith("error line 4:")
    assert out[4].startswith("error line 5:")
    assert out[5] == "accepted 0->1"
    for i, no in enumerate((9, 10, 11), start=6):
        assert out[i] == f"error line {no}: vertex tokens must be decimal " \
            "integers"
    assert out[9].startswith("error line 12:")
    assert "decimal" not in out[9]
    assert len(out) == 10
    assert code == 1


def test_trace_output_is_deterministic():
    trace = K5_TRACE + ["dump", "del 0 1", "dump"]
    first = run_trace(trace, 8)
    second = run_trace(trace, 8)
    assert first == second


def test_oracle_planar_past_its_budget_answers_error():
    path = [f"add {v} {v + 1}" for v in range(PLANARITY_BUDGET)]
    trace = path + ["dump", "oracle planar", "dump", "block? 0 1"]
    out, code = run_trace(trace, 16)
    cut = len(path)
    first_dump = out[cut:out.index(".", cut) + 1]
    error = out[cut + len(first_dump)]
    assert error.startswith(f"error line {cut + 2}:")
    rest = out[cut + len(first_dump) + 1:]
    assert rest == first_dump + ["true"]
    assert code == 1


def test_internal_assert_answers_error_and_keeps_state(monkeypatch):
    """A failing engine assert answers an internal error line; it fires
    before the change commits, so the next dump equals the one before."""
    assemble = Engine._assemble_graph

    def failing(decomp, *rots):
        if len(decomp.edges) >= 3:
            raise AssertionError("injected fault")
        return assemble(decomp, *rots)

    monkeypatch.setattr(Engine, "_assemble_graph", staticmethod(failing))
    trace = ["add 1 2", "add 2 3", "dump", "add 1 3", "dump"]
    out, code = run_trace(trace, 8)
    end = out.index(".")
    first_dump = out[2:end + 1]
    assert out[end + 1] == "error line 4: internal error: injected fault"
    assert out[end + 2:] == first_dump
    assert code == 1


def test_main_reads_trace_file(tmp_path, capsys):
    p = tmp_path / "t.txt"
    p.write_text("add 1 2\nadd 1 2\n", encoding="utf-8")
    assert main(["--domain", "8", "--trace", str(p)]) == 0
    assert capsys.readouterr().out == "accepted 0->1\nnoop duplicate\n"


def test_main_exit_nonzero_on_malformed(tmp_path, capsys):
    p = tmp_path / "t.txt"
    p.write_text("nonsense\n", encoding="utf-8")
    assert main(["--trace", str(p)]) == 1
    assert capsys.readouterr().out.startswith("error line 1:")


# --------------------------------------------------------------- check_state

def test_check_state_healthy():
    eng = Engine(8)
    for ln in K5_TRACE[:-1]:
        _, a, b = ln.split()
        eng.insert_edge(int(a), int(b))
    assert check_state(eng) == []


def test_check_state_flags_corrupt_rotation():
    eng = Engine(8)
    for ab in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
        eng.insert_edge(*ab)
    # reflecting a single degree-3 vertex of K4 leaves the sphere
    eng.graph_rot[1] = tuple(reversed(eng.graph_rot[1]))
    assert any("graph rotation" in v for v in check_state(eng))


def test_check_state_flags_a_block_rotation_unlike_its_rebuild():
    """Two entries swapped at one vertex of a 30-vertex grid's block
    rotation differ from the rotation assembled afresh from the
    component embeddings, and swapped in the graph rotation, from the
    graph rotation assembled from the block rotations."""
    eng = Engine(30)
    for i in range(5):
        for j in range(6):
            for di, dj in ((0, 1), (1, 0), (1, 1)):
                if i + di < 5 and j + dj < 6:
                    eng.insert_edge(i * 6 + j, (i + di) * 6 + j + dj)
    assert check_state(eng) == []
    (blk,) = eng.decomp.blocks
    block_rots, graph_rot = eng.block_rots, eng.graph_rot
    rot = block_rots[blk.name]
    a, b, *rest = rot[8]
    eng.block_rots = {**block_rots, blk.name: {**rot, 8: (b, a, *rest)}}
    assert f"block {blk.name}: block rotation differs from a rebuild" \
        in check_state(eng)
    eng.block_rots = block_rots
    a, b, *rest = graph_rot[8]
    eng.graph_rot = {**graph_rot, 8: (b, a, *rest)}
    assert "graph rotation differs from a rebuild" in check_state(eng)
    eng.graph_rot = graph_rot
    assert check_state(eng) == []


def test_check_state_flags_stored_faces_unlike_a_whole_trace():
    """A component embedding whose faces or outer face are not those a
    whole trace of its rotation gives is flagged; the rotation itself is
    valid, so only the face check can see it."""
    eng = Engine(30)
    for a, b in [(i * 6 + j, (i + di) * 6 + j + dj) for i in range(5)
                 for j in range(6) for di, dj in ((0, 1), (1, 0), (1, 1))
                 if i + di < 5 and j + dj < 6]:
        eng.insert_edge(a, b)
    assert check_state(eng) == []
    (node, emb), = [(nd, e) for nd, e in eng.comp_embs.items()
                    if nd[0] == "R"]
    comp_embs = eng.comp_embs
    for faces, outer in ((emb.faces[1:], emb.outer),
                         (emb.faces, emb.faces[-1])):
        eng.comp_embs = {**comp_embs,
                         node: Embedding._made(emb.rot, faces, outer)}
        assert f"component {node}: stored faces differ from a whole " \
            "trace" in check_state(eng)
    eng.comp_embs = comp_embs
    assert check_state(eng) == []


# two K4s less 3-4 glued at the pair 3-4: one block, R(1,2,3) P(3,4) R(3,4,5)
# three K4s less an edge, chained at the pairs {3,4} and {5,6}: only the
# middle one, R(3,4,5), has two pairs and so stored entries
CHAINED_K4S = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (3, 6),
               (4, 5), (4, 6), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8)]


def chained_k4s() -> Engine:
    eng = Engine(9)
    for e in CHAINED_K4S:
        assert eng.insert_edge(*e).status == ACCEPTED
    assert check_state(eng) == []
    return eng


def test_check_state_flags_stored_colours_unlike_their_rebuild():
    """A stored entry whose pair 3-4 has its two faces swapped, which
    swaps the pair's colours, still lists a coherent, two-coloured path,
    but differs from the entry decided from the component's embedding."""
    eng = chained_k4s()
    ((name, entries),) = eng.pair_faces.items()
    node = ("R", (3, 4, 5))
    swapped = {**entries[node], (3, 4): entries[node][(3, 4)][::-1]}
    assert swapped != entries[node]
    eng.pair_faces = {name: {**entries, node: swapped}}
    assert check_state(eng) == ["pair faces of R(3,4,5) differ from a rebuild"]


def test_check_state_flags_a_block_without_its_stored_paths():
    """A block with pairs and no stored entries is flagged, component by
    component with two or more pairs, and its colourings cannot be
    listed for a dump; so are entries under a name that is no block with
    pairs, an entry for a node that is no component of its block, and an
    entry for a component with one pair."""
    eng = chained_k4s()
    ((name, entries),) = eng.pair_faces.items()
    assert list(entries) == [("R", (3, 4, 5))]
    eng.pair_faces = {}
    missing = [f"dump cannot be formatted: KeyError({name!r})",
               "pair faces missing for R(3,4,5)"]
    assert check_state(eng) == missing
    eng.pair_faces = {(5, 6): entries}
    assert check_state(eng) == missing[:1] + [
        "pair faces kept for block (5, 6), which is no block with pairs",
        *missing[1:]]
    eng.pair_faces = {name: {**entries, ("S", (5, 6, 7)): {}}}
    assert check_state(eng) == [
        f"pair faces kept for S(5,6,7), which is no component of block "
        f"{name}"]
    eng.pair_faces = {name: {**entries, ("R", (1, 2, 3)): {}}}
    assert check_state(eng) == [
        "pair faces kept for R(1,2,3), which has one pair"]


def test_check_state_flags_decomposition_desync():
    eng = Engine(8)
    for ab in [(1, 2), (2, 3), (1, 3)]:
        eng.insert_edge(*ab)
    # the path's edge set, carrying the triangle's blocks and cut vertices
    tri = eng.decomp
    path = DecompositionState.from_edges(8, [(2, 3), (1, 3)])
    eng.decomp = DecompositionState(8, path.edges, tri.blocks, path._comp_of)
    assert any("decomposition" in v for v in check_state(eng))


def test_check_state_checks_the_decomposition_past_the_oracle_budget():
    """Past the static oracle's 20 vertices, check_state still compares
    the decomposition with a rebuild, checks that every edge lies in one
    block and that the cut vertices are the vertices in two or more
    blocks, and certifies it: a vertex index that disagrees with the
    blocks, an S/R kind swap, two components merged and an edge in no
    component are each caught."""
    eng = Engine(30)
    for v in range(29):
        eng.insert_edge(v, v + 1)
    eng.insert_edge(0, 2)
    assert check_state(eng) == []
    good = eng.decomp
    eng.decomp = DecompositionState(30, good.edges | {(0, 29)}, good.blocks,
                                    good._comp_of)
    msgs = check_state(eng)
    assert "decomposition differs from a rebuild" in msgs
    assert "edge (0, 29) lies in 0 blocks of the decomposition" in msgs
    assert "certificate: block B(0,1) is no block of the graph" in msgs
    # a vertex index that lists vertex 5 in one of its two blocks, and
    # one that lists it in a third block, which does not hold it
    eng.decomp = DecompositionState.from_edges(30, good.edges)
    at = eng.decomp._blocks_of_vertex
    eng.decomp._blocks_of_vertex = {**at, 5: at[5][:1]}
    assert check_state(eng) == [
        "decomposition differs from a rebuild",
        "decomposition cut vertices are not the vertices in two or more "
        "blocks",
        "certificate: cut vertices " + str(sorted(good.cut_vertices - {5}))
        + " are not the DFS's " + str(sorted(good.cut_vertices)),
        "graph rotation cannot be rebuilt: "
        "AssertionError('graph rotation misses an edge')"]
    eng.decomp._blocks_of_vertex = {**at, 5: [(0, 1), *at[5]]}
    assert check_state(eng) == [
        "decomposition differs from a rebuild",
        "certificate: the dump does not list the certified parts",
        "graph rotation cannot be rebuilt: KeyError(5)"]

    # two K4s less 3-4 glued at the pair 3-4, then a 4-cycle, then a path
    eng = Engine(30)
    for e in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (3, 6),
              (4, 5), (4, 6), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10),
              (7, 10)] + [(v, v + 1) for v in range(10, 29)]:
        assert eng.insert_edge(*e).status == ACCEPTED
    assert check_state(eng) == []
    good = eng.decomp
    glued, ring = good.block((1, 2)), good.block((7, 8))
    r1, r2 = glued.comps
    (s1,) = ring.comps

    def corrupt(*blocks):
        names = {b.name for b in blocks}
        eng.decomp = DecompositionState(
            30, good.edges,
            tuple(b for b in good.blocks if b.name not in names) + blocks,
            good._comp_of)
        return check_state(eng)

    msgs = corrupt(replace(glued, comps=(replace(r1, kind="S"), r2)),
                   replace(ring, comps=(replace(s1, kind="R"),)))
    assert "certificate: S(1,2,3) of block B(1,2) is not a cycle" in msgs
    assert "certificate: R(7,8,9) of block B(7,8) is not triconnected" \
        in msgs
    merged = replace(r1, vertices=r1.vertices | r2.vertices,
                     real_edges=r1.real_edges | r2.real_edges,
                     pairs=frozenset())
    msgs = corrupt(replace(glued, pairs=frozenset(), comps=(merged,),
                           tree={("R", merged.name): ()}))
    assert "certificate: R(1,2,3) of block B(1,2) is not triconnected" \
        in msgs
    msgs = corrupt(replace(glued, comps=(
        replace(r1, real_edges=r1.real_edges - {(1, 2)}), r2)))
    assert "certificate: real edge (1, 2) lies in 0 components of block " \
        "B(1,2)" in msgs


# --------------------------------------------------------------------- fuzz

def test_fuzz_clean_run_no_violations():
    """A clean run reports no violation, and tallies every accepted
    change under the rule that built its block."""
    report, violations = fuzz(3, 8, 80)
    assert violations == 0
    lines = report.splitlines()
    assert lines[-1] == "violations 0"
    counts = lines[-3].split()
    tally = dict(zip(counts[::2], map(int, counts[1::2])))
    words = lines[-2].split()
    assert words[0] == "rules"
    rules = dict(zip(words[1::2], map(int, words[2::2])))
    assert list(rules) == ["bundle", "merge", "split", "rigid", "resplit",
                           "fusion", "rebuilt"]
    assert sum(rules.values()) == tally["accepted"] + tally["deleted"]
    assert rules["resplit"] and rules["fusion"] and rules["rebuilt"]


def test_fuzz_reports_are_byte_identical():
    assert fuzz(11, 8, 50) == fuzz(11, 8, 50)


def test_fuzz_catches_broken_engine():
    report, violations = fuzz(1, 6, 120, engine_factory=LyingGate)
    assert violations > 0
    lines = report.splitlines()
    assert any(ln.startswith("violation step=") for ln in lines)
    # each violation comes with a minimized reproducer trace
    assert "reproducer:" in lines
    start = lines.index("reproducer:")
    end = lines.index(".", start)
    body = lines[start + 1:end]
    assert body, "empty reproducer"
    assert all(ln.split()[0] in ("add", "del") for ln in body)


def test_fuzz_strict_stops_at_first_violation():
    lax, nlax = fuzz(1, 6, 120, engine_factory=LyingGate)
    strict, nstrict = fuzz(1, 6, 120, strict=True, engine_factory=LyingGate)
    assert 0 < nstrict <= nlax
    assert len(strict) <= len(lax)


def test_fuzz_domain_past_oracle_budget_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--fuzz", "--domain", str(PLANARITY_BUDGET + 1)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "Traceback" not in err


def test_fuzz_refuses_domain_past_oracle_budget_before_stepping():
    built = []

    def factory(n):
        built.append(n)
        return Engine(n)

    with pytest.raises(OracleBudgetError):
        fuzz(3, PLANARITY_BUDGET + 1, 1, engine_factory=factory)
    assert built == []


@pytest.mark.parametrize("argv", [
    ["--domain", "0"],
    ["--fuzz", "--domain", "0"],
    ["--fuzz", "--domain", "1"],
    ["--trace", "/nonexistent/trace.txt"],
])
def test_bad_domain_or_trace_file_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "Traceback" not in err


def test_negative_fuzz_steps_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--fuzz", "--steps", "-3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "steps" in err
    assert "Traceback" not in err
    assert main(["--fuzz", "--domain", "6", "--steps", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("fuzz seed=0 domain=6 steps=0")
    assert out.rstrip().endswith("violations 0")


def test_fuzz_refuses_domain_below_two_before_building():
    built = []

    def factory(n):
        built.append(n)
        return Engine(n)

    for domain in (0, 1):
        with pytest.raises(DomainError):
            fuzz(3, domain, 1, engine_factory=factory)
    assert built == []


def test_fuzz_default_domain_is_oracle_budget(capsys):
    assert main(["--fuzz", "--steps", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"fuzz seed=0 domain={PLANARITY_BUDGET} steps=2")


def test_fuzz_via_main(capsys):
    assert main(["--fuzz", "--seed", "4", "--domain", "6",
                 "--steps", "30"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("fuzz seed=4 domain=6 steps=30")
    assert out.rstrip().endswith("violations 0")


# ------------------------------------------------------------ python -O


def test_optimised_interpreter_answers_identically(tmp_path):
    """Stripping asserts (python -O) must not change any answer: on
    random churn, on a triangulated 5x5 grid whose square diagonals
    are each flipped and flipped back, and on a ring of six K4 gadgets
    whose chords and gadget edges are toggled. The grid's changes delete
    and re-insert edges off the rim and at the vertices of its corner
    pairs, and most patch the stored rotations in place of rebuilding
    them; the ring's chords cross corridors over several pairs and
    recolour the ring, which is dumped after each toggle. On the block
    chain, the glued pairs' shared edges (bundle edges) and the cycles'
    chords are toggled, each change dumped: local rules build those
    blocks, splitting and merging cycles. Then each wheel spoke and rim
    edge, and each cycle edge, is deleted and re-inserted, each change
    dumped: the wheels' rigid components break into pieces and fuse back
    by local rules. The first two traces ask every
    kind of query; a rotation query names three neighbours of a vertex,
    which an engine run alongside the churn supplies."""
    rng = random.Random(5)
    ask = random.Random(6)
    shadow = Engine(9)
    present: list = []
    lines = []
    for i in range(400):
        if present and rng.random() < 0.4:
            a, b = present.pop(rng.randrange(len(present)))
            lines.append(f"del {a} {b}")
            shadow.delete_edge(a, b)
        else:
            a, b = sorted(rng.sample(range(9), 2))
            present.append((a, b))
            lines.append(f"add {a} {b}")
            shadow.insert_edge(a, b)
        if i % 9 == 0:
            lines.append("pair? %d %d" % tuple(rng.sample(range(9), 2)))
            lines += ["cut? %d" % ask.randrange(9),
                      "block? %d %d" % tuple(ask.sample(range(9), 2)),
                      "face? %d %d %d" % tuple(ask.sample(range(9), 3))]
            hubs = sorted(v for v, seq in shadow.graph_rot.items()
                          if len(seq) >= 3)
            if hubs:
                v = ask.choice(hubs)
                lines.append("rot? %d %d %d %d" % (
                    v, *ask.sample(shadow.graph_rot[v], 3)))
        if i % 40 == 0:
            lines.append("dump")
    grid = [(i * 5 + j, (i + di) * 5 + j + dj)
            for i in range(5) for j in range(5)
            for di, dj in ((0, 1), (1, 0), (1, 1))
            if i + di < 5 and j + dj < 5]
    grid_lines = [f"add {a} {b}" for a, b in grid] + ["dump"]
    # flip the diagonal of every square and back: the other diagonal of
    # a square at a corner pair ({3, 9} or {15, 21}) ends on the pair
    for i in range(4):
        for j in range(4):
            a, b, c, d = i * 5 + j, i * 5 + j + 1, i * 5 + j + 5, \
                i * 5 + j + 6
            grid_lines += [f"del {a} {d}", f"add {b} {c}", "dump",
                           "rot? 12 7 13 17", "rot? 12 17 13 7",
                           f"face? {a} {b} {c}", f"face? {b} {d} {c}",
                           f"cut? {a}", f"block? {a} {d}",
                           f"del {b} {c}", f"add {a} {d}", "dump"]
    m = 6
    ring = [(4 * i + a, 4 * i + b) for i in range(m)
            for a in range(4) for b in range(a + 1, 4)]
    ring += [(4 * i + 1, 4 * (i + 1) % (4 * m)) for i in range(m)]
    ring_lines = [f"add {a} {b}" for a, b in ring] + ["dump"]
    toggles = random.Random(7)
    shadow = Engine(4 * m)
    for e in ring:
        shadow.insert_edge(*e)
    for _ in range(40):
        i, j = toggles.sample(range(m), 2)
        a, b = (4 * i + 2, 4 * j + toggles.choice((2, 3))) \
            if toggles.random() < 0.7 else (4 * i + 2, 4 * i + 3)
        if shadow.graph.has_edge(a, b):
            ring_lines.append(f"del {a} {b}")
            shadow.delete_edge(a, b)
        else:
            ring_lines.append(f"add {a} {b}")
            shadow.insert_edge(a, b)
        ring_lines.append("dump")
    chain, _ = block_chain()
    chain_lines = [f"add {a} {b}" for a, b in chain] + ["dump"]
    kinds = chain_toggles()
    toggles = kinds["shared"] + kinds["chord"]
    flips = random.Random(8)
    shadow = Engine(42)
    for e in chain:
        shadow.insert_edge(*e)
    for _ in range(60):
        a, b = flips.choice(toggles)
        if shadow.graph.has_edge(a, b):
            chain_lines.append(f"del {a} {b}")
            shadow.delete_edge(a, b)
        else:
            chain_lines.append(f"add {a} {b}")
            shadow.insert_edge(a, b)
        chain_lines.append("dump")
    breaks = kinds["spoke"] + kinds["rim"]
    for a, b in breaks:
        chain_lines += [f"del {a} {b}", "dump", f"add {a} {b}", "dump"]
    src = str(Path(dynplanar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    outs = []
    for name, trace_lines, domain in (("churn", lines, 9),
                                      ("grid", grid_lines, 25),
                                      ("ring", ring_lines, 4 * m),
                                      ("chain", chain_lines, 42)):
        trace = tmp_path / f"{name}.txt"
        trace.write_text("\n".join(trace_lines) + "\n")
        runs = []
        for flags in ([], ["-O"]):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "dynplanar.cli", "--domain",
                 str(domain), "--trace", str(trace)],
                capture_output=True, env=env, timeout=60, check=False)
            runs.append(proc)
        assert runs[0].stdout == runs[1].stdout, name
        outs.append(runs[0])
    churn_run, grid_run, ring_run, chain_run = outs
    for proc in outs:
        assert proc.returncode == 0, proc.stderr.decode()
    text = churn_run.stdout.decode()
    assert "rejected nonplanar" in text and "\ntrue\n" in text
    assert grid_run.stdout.decode().count("accepted") == len(grid) + 64
    ring_text = ring_run.stdout.decode()
    assert "rejected nonplanar" in ring_text
    assert any(line.startswith("path") and line.count("P(") >= 3
               for line in ring_text.splitlines())
    assert chain_run.stdout.decode().count("accepted") == \
        len(chain) + 60 + 2 * len(breaks)
