"""Sanity tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/tests

A deliberately broken engine must make a run report failed operations,
a reduced-length form of the command must run every workload to its end,
and a checkout without the engine's sources must fail without a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from dynplanar import ACCEPTED, REJECTED_NONPLANAR, ChangeOutcome  # noqa: E402
from dynplanar import Engine  # noqa: E402


class AcceptsOneNonplanar(Engine):
    """Answers the first non-planar insert as accepted, changing nothing."""

    lied = False

    def insert_edge(self, a, b):
        out = super().insert_edge(a, b)
        if out.status == REJECTED_NONPLANAR and not self.lied:
            self.lied = True
            return ChangeOutcome(ACCEPTED)
        return out


class SwapsRotationEntries(Engine):
    """After every accepted change, swaps the first two entries of the
    whole-graph rotation at its busiest vertex."""

    def _swap(self, out):
        if out.status == ACCEPTED and self.graph_rot:
            v = max(sorted(self.graph_rot),
                    key=lambda x: len(self.graph_rot[x]))
            seq = self.graph_rot[v]
            if len(seq) >= 3:
                self.graph_rot[v] = (seq[1], seq[0]) + seq[2:]
        return out

    def insert_edge(self, a, b):
        return self._swap(super().insert_edge(a, b))

    def delete_edge(self, a, b):
        return self._swap(super().delete_edge(a, b))


def test_nonplanar_insert_reported_as_accepted_is_caught():
    res = run.run_workload("churn-d8", 5, 0.5, False, AcceptsOneNonplanar)
    assert res["failed"] >= 1
    assert any("networkx planar=False" in m for m in res["messages"])


def test_swapped_rotation_entries_are_caught():
    res = run.run_workload("churn-d8", 5, 0.5, False, SwapsRotationEntries)
    assert res["failed"] >= 1


def test_traced_run_reports_every_layer_metric():
    res = run.run_workload("churn-d8", 5, 0.5, True)
    assert res["failed"] == 0
    assert set(res["metrics"]) == {name for name, _, _ in spans.METRICS}


def test_timings_are_scaled_by_the_local_reference_speed():
    """The machine runs at nominal speed during set-up, then at half
    speed, then at nominal speed again: each timing is scaled by the
    reference speed around it."""
    runner = run.Runner(run.WORKLOADS["churn-d8"](5), run.Engine, False)
    nominal, slow = speed.NOMINAL_NS, 2 * speed.NOMINAL_NS
    runner.setup_times = [[(-1, 200_000_000), (1, 300_000_000)]]
    runner.setup_speed.samples = [nominal] * 20
    runner.setup_speed.stamps = list(range(-10, 10))
    runner.speed.samples = [slow] * 20 + [nominal] * 20
    runner.speed.stamps = list(range(100, 140))
    # 100 changes in the slow period, 100 in the nominal one
    runner.samples = {
        "change": [(105, 4_000_000)] * 100 + [(135, 2_000_000)] * 100,
        "reject": [(110, 100_000)], "dump": [(130, 100_000)],
        "query": [(101, 8_000), (139, 1_000)]}
    runner.query_kinds = {"rot": [(101, 8_000)], "cut": [(139, 1_000)]}
    m = runner.end_to_end()
    assert m["setup_s"] == 0.5
    assert m["change_p50_ms"] == m["change_p90_ms"] == 2.0
    assert m["reject_p50_ms"] == 0.05 and m["dump_p50_ms"] == 0.1
    assert abs(m["query_p50_us"] - 2.0) < 1e-9  # geometric mean of 4 and 1
    assert abs(m["ops_per_s"] - 204 / 0.400155) < 1e-6


def test_reduced_command_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", "3", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    for name in run.WORKLOADS:
        for metric in ("setup_s", "change_p50_ms", "reject_p50_ms",
                       "query_p50_us", "dump_p50_ms", "ops_per_s",
                       "peak_rss_mib"):
            assert last["metrics"][f"{name}.{metric}"]["value"] > 0


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn-d8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
