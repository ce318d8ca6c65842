from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dynplanar
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
             "rot? 9 1 2 3", "", "# note", "add 2 3"]
    out, code = run_trace(trace, 8)
    assert out[0] == "accepted 0->1"
    assert out[1].startswith("error line 2:")
    assert out[2].startswith("error line 3:")
    assert out[3].startswith("error line 4:")
    assert out[4].startswith("error line 5:")
    assert out[5] == "accepted 0->1"
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


def test_check_state_flags_decomposition_desync():
    eng = Engine(8)
    for ab in [(1, 2), (2, 3), (1, 3)]:
        eng.insert_edge(*ab)
    # the path's edge set, carrying the triangle's blocks and cut vertices
    tri = eng.decomp
    path = DecompositionState.from_edges(8, [(2, 3), (1, 3)])
    eng.decomp = DecompositionState(8, path.edges, tri.blocks,
                                    tri.cut_vertices, path._comp_of,
                                    path._adj)
    assert any("decomposition" in v for v in check_state(eng))


# --------------------------------------------------------------------- fuzz

def test_fuzz_clean_run_no_violations():
    report, violations = fuzz(3, 8, 80)
    assert violations == 0
    assert report.splitlines()[-1] == "violations 0"


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
    """Stripping asserts (python -O) must not change any answer."""
    rng = random.Random(5)
    present: list = []
    lines = []
    for i in range(400):
        if present and rng.random() < 0.4:
            a, b = present.pop(rng.randrange(len(present)))
            lines.append(f"del {a} {b}")
        else:
            a, b = sorted(rng.sample(range(9), 2))
            present.append((a, b))
            lines.append(f"add {a} {b}")
        if i % 9 == 0:
            lines.append("pair? %d %d" % tuple(rng.sample(range(9), 2)))
        if i % 40 == 0:
            lines.append("dump")
    trace = tmp_path / "trace.txt"
    trace.write_text("\n".join(lines) + "\n")
    src = str(Path(dynplanar.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "dynplanar.cli", "--domain", "9",
             "--trace", str(trace)],
            capture_output=True, env=env, timeout=60, check=False)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    text = outs[0].decode()
    assert "rejected nonplanar" in text and "\ntrue\n" in text
