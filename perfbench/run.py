#!/usr/bin/env python3
"""Seeded, checked benchmark of the dynplanar engine.

    python3 perfbench/run.py --workload grid-d30 --seed 1 --seconds 25 \
        --trace 0

One caller on one thread drives the public `Engine` API in a closed
loop: each operation is sent after the previous one returned. Every call
is timed from outside by the process's CPU time, and every answer is
checked, outside the timed calls, against computations made apart from
the engine (see checks.py). The run builds its engines several times
(set-up), plays one untimed warm-up round, then plays whole rounds until
`--seconds` of wall time have passed and 100 accepted changes have been
timed. Between operations it plays a fixed reference loop, and every
timing it reports is scaled by the reference loop's speed around the
time it was taken (see speed.py), so that the machine's drift does not
read as the engine's.

`--trace 0` prints the end-to-end metrics; `--trace 1` wraps each
layer's entry points (see spans.py) and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--workload all` runs
every workload, each in a process of its own, and prints their metrics
prefixed by the workload name. The exit code is 0 only when every
operation passed its checks.
"""
from __future__ import annotations

import argparse
from array import array
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # the engine under test is this checkout's

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import dynplanar  # noqa: E402
from dynplanar import ACCEPTED, REJECTED_NONPLANAR, Engine  # noqa: E402
from workloads import WORKLOADS, planar  # noqa: E402

UNITS = {
    "setup_s": "s", "change_p50_ms": "ms", "change_p90_ms": "ms",
    "reject_p50_ms": "ms", "query_p50_us": "us", "dump_p50_ms": "ms",
    "ops_per_s": "ops/s", "peak_rss_mib": "MiB",
}

# Samples the 90th percentile needs, so that 10 lie beyond it.
P90_SAMPLES = 100

CALLS = {
    "ins": lambda eng, a: eng.insert_edge(*a),
    "del": lambda eng, a: eng.delete_edge(*a),
    "rot": lambda eng, a: eng.graph_rotation_query(*a),
    "face": lambda eng, a: eng.graph_face_query(*a),
    "block": lambda eng, a: eng.decomp.same_block(*a),
    "cut": lambda eng, a: eng.decomp.is_cut_vertex(*a),
    "pair": lambda eng, a: eng.decomp.is_separating_pair(*a),
    "dump": lambda eng, a: eng.dump(),
}


class Samples:
    """(wall-clock stamp, CPU ns) of each timed call, in two int arrays,
    so that their memory stays small however many calls a run makes."""

    def __init__(self):
        self.stamps = array("q")
        self.times = array("q")

    def append(self, stamp: int, dt: int) -> None:
        self.stamps.append(stamp)
        self.times.append(dt)

    def __iter__(self):
        return zip(self.stamps, self.times)

    def __len__(self) -> int:
        return len(self.times)


class Runner:
    """Set-up, rounds, checks and samples of one workload run."""

    def __init__(self, workload, engine_cls, trace: bool):
        self.wl = workload
        self.engine_cls = engine_cls
        self.n = workload.domain
        self.models = [set(s) for s in workload.starts]
        self.refs = [checks.Reference(self.n, m) for m in self.models]
        self.ledgers = [checks.Ledger() for _ in workload.starts]
        self.engines: list = []
        # timed calls by category and, for queries, by kind
        self.samples = {cat: Samples()
                        for cat in ("change", "reject", "query", "dump")}
        self.query_kinds: dict[str, Samples] = {}
        # (wall-clock stamp, CPU ns) of each engine call, per set-up
        self.setup_times: list[list[tuple[int, int]]] = []
        self.setup_speed = speed.Meter()
        self.speed = speed.Meter()
        self.attempted = self.failed = 0
        self.messages: list[str] = []
        self.rounds = 0
        self.rec = spans.Recorder() if trace else None

    # -------------------------------------------------------------- outcome

    def _record(self, where: str, msgs: list[str]) -> None:
        self.attempted += 1
        if msgs:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{where}: {'; '.join(msgs)}")

    def _resync(self, k: int) -> None:
        """After a failure, follow the engine so later checks stay useful."""
        self.models[k].clear()
        self.models[k].update(self.engines[k].graph.edges)
        self.refs[k] = checks.Reference(self.n, self.models[k])

    # --------------------------------------------------------------- set-up

    def setup(self) -> None:
        """Build every start engine several times, each time inserting the
        start edges in another order; all builds must dump alike. The
        orders depend on the set-up's index only, so that setup_s does
        not vary with the seed beyond the start graphs themselves."""
        for rep in range(self.wl.setups):
            rng = random.Random(f"setup/{rep}")
            gc.collect()
            self.setup_speed.sample(speed.SETUP_REFERENCES)
            calls: list[tuple[int, int]] = []

            def timed(f):
                t0 = speed.clock()
                res = f()
                calls.append((perf_counter_ns(), speed.clock() - t0))
                self.setup_speed.tick()
                return res

            built = [checks.reload_shuffled(self.engine_cls, self.n,
                                            start, rng, timed)
                     for start in self.wl.starts]
            self.setup_times.append(calls)
            for k, (eng, statuses) in enumerate(built):
                self._check_load(k, eng, statuses, f"set-up {rep} engine {k}")
            self.engines = [eng for eng, _ in built]
        self.setup_speed.sample(speed.SETUP_REFERENCES)

    def _check_load(self, k: int, eng, statuses, where: str) -> None:
        """A fresh engine loaded with engine k's edges must accept them
        all and dump like every earlier state with those edges."""
        msgs = [] if all(s == ACCEPTED for s in statuses) \
            else ["an edge of a planar edge set was not accepted"]
        msgs += checks.check_state(
            eng, self.models[k], self.refs[k], self.ledgers[k])
        self._record(where, msgs)

    # --------------------------------------------------------------- rounds

    def measure(self, seconds: float) -> None:
        self._play(0, timed=False)  # warm-up
        gc.collect()
        self.speed.sample()
        start = perf_counter()
        r = 1
        while True:
            self._play(r, timed=True)
            r += 1
            # On a host slowed far below its usual speed, rounds go on past
            # `seconds` until change_p90_ms has its samples.
            if perf_counter() - start >= seconds \
                    and len(self.samples["change"]) >= P90_SAMPLES:
                break
        self.rounds = r - 1

    def _play(self, r: int, timed: bool) -> None:
        for op in self.wl.round(r, self.models):
            if op[1] == "checkpoint":
                self._checkpoint(op[0], r)
            else:
                self._execute(op, timed)
            if timed:
                self.speed.tick()

    def _checkpoint(self, k: int, r: int) -> None:
        rng = random.Random(f"{self.wl.seed}/checkpoint/{r}")
        eng, statuses = checks.reload_shuffled(
            self.engine_cls, self.n, self.models[k], rng)
        self._check_load(k, eng, statuses, f"round {r} checkpoint")

    def _execute(self, op: tuple, timed: bool) -> None:
        k, kind, args = op[0], op[1], op[2:]
        eng, model = self.engines[k], self.models[k]
        e = tuple(sorted(args)) if kind in ("ins", "del") else None
        want = planar(model | {e}) if kind == "ins" else None
        rec = self.rec if timed else None
        old_keys = spans.content_keys(eng) \
            if rec is not None and e is not None else None
        call = CALLS[kind]
        root = rec.begin("engine") if rec is not None else None
        try:
            if rec is not None:
                rec.on = True
            t0 = speed.clock()
            res = call(eng, args)
            dt = speed.clock() - t0
        except Exception as exc:  # a broken engine must still be reported
            if not self.messages:
                traceback.print_exc(file=sys.stderr)
            self._record(f"round op {op}", [f"raised {exc!r}"])
            self._resync(k)
            return
        finally:
            if rec is not None:
                rec.on = False
                rec.end(root)

        msgs: list[str] = []
        cat = None
        if kind == "ins":
            if res.status == ACCEPTED:
                model.add(e)
                cat = "change"
            elif res.status == REJECTED_NONPLANAR:
                cat = "reject"
            if (res.status == ACCEPTED) != want:
                msgs.append(f"insert {e} answered {res.status}, "
                            f"networkx planar={want}")
        elif kind == "del":
            if res.status == ACCEPTED:
                model.discard(e)
                cat = "change"
            else:
                msgs.append(f"delete {e} answered {res.status}")
        elif kind == "dump":
            cat = "dump"
            msgs += self.ledgers[k].check(model, res)
        else:
            cat = "query"
            want = checks.expected_answer(op, self.refs[k], eng.graph_rot)
            if want is not None and res != want:
                msgs.append(f"{kind}? {args} answered {res}, expected {want}")
        if e is not None:
            if cat == "change":
                self.refs[k] = checks.Reference(self.n, model)
            msgs += checks.check_state(eng, model, self.refs[k],
                                       self.ledgers[k])
        if timed and cat is not None:
            stamp = perf_counter_ns()
            self.samples[cat].append(stamp, dt)
            if cat == "query":
                if kind not in self.query_kinds:
                    self.query_kinds[kind] = Samples()
                self.query_kinds[kind].append(stamp, dt)
        if root is not None:
            rec.tags[root] = cat or ""
            if cat == "change" and old_keys is not None:
                new_keys = spans.content_keys(eng)
                rec.add("decomposition.changed", len(new_keys - old_keys),
                        root)
                rec.add("decomposition.produced", len(new_keys), root)
        self._record(f"round op {op}", msgs)
        if msgs:
            self._resync(k)

    # -------------------------------------------------------------- metrics

    def scaled(self, xs) -> list[float]:
        """CPU ns of timed calls at the reference loop's nominal speed,
        each scaled by the loop's speed around its own stamp."""
        return [dt * self.speed.scale_at(t) for t, dt in xs]

    def end_to_end(self) -> dict[str, float]:
        # read first: the lists below are the run's largest late objects
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        s = {cat: self.scaled(xs) for cat, xs in self.samples.items()}
        timed = [x for xs in s.values() for x in xs]
        setup = [sum(dt * self.setup_speed.scale_at(t) for t, dt in calls)
                 for calls in self.setup_times]
        out = {
            "setup_s": statistics.median(setup) / 1e9,
            "change_p50_ms": _median(s["change"], 1e6),
            "change_p90_ms": _p90(s["change"], 1e6),
            "reject_p50_ms": _median(s["reject"], 1e6),
            "query_p50_us": _geomean([_median(self.scaled(xs), 1e3)
                                      for xs in self.query_kinds.values()]),
            "dump_p50_ms": _median(s["dump"], 1e6),
            "ops_per_s": len(timed) / (sum(timed) / 1e9) if timed else None,
            "peak_rss_mib": rss,
        }
        return {k: v for k, v in out.items() if v is not None}


def _median(xs: list[float], scale: float) -> float | None:
    return statistics.median(xs) / scale if xs else None


def _geomean(xs: list[float]) -> float | None:
    return statistics.geometric_mean(xs) if xs else None


def _p90(xs: list[float], scale: float) -> float | None:
    """90th percentile; reported only with 10 or more samples beyond it."""
    if len(xs) < P90_SAMPLES:
        return None
    return statistics.quantiles(xs, n=10, method="inclusive")[8] / scale


def kernels_compiled():
    """The compiled-kernel flag, read with a default because it is due
    for deletion."""
    try:
        from dynplanar import connectivity
    except ImportError:
        return None
    return getattr(connectivity, "KERNEL_COMPILED", None)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 engine_cls=None) -> dict:
    """Run one workload in this process; returns the result record."""
    wl = WORKLOADS[name](seed)
    runner = Runner(wl, engine_cls or Engine, trace)
    runner.setup()
    restore = None
    if trace:
        installed, restore = spans.install(runner.rec)
    try:
        runner.measure(seconds)
    finally:
        if restore is not None:
            restore()
    if trace:
        changes = runner.scaled(runner.samples["change"])
        change_p50 = _median(changes, 1e6)
        values = spans.layer_metrics(runner.rec, installed, change_p50,
                                     runner.speed.scale())
        units = {k: v["unit"] for k, v in values.items()}
        values = {k: v["value"] for k, v in values.items()}
        runner.rec.write(ROOT / ".perfbench" / f"spans-{name}-{seed}.csv.gz")
    else:
        values = runner.end_to_end()
        units = {k: UNITS[k] for k in values}
    s = runner.samples
    return {
        "workload": name, "seed": seed, "trace": trace,
        "rounds": runner.rounds, "messages": runner.messages,
        "samples": {k: len(v) for k, v in s.items()},
        "reference_ms": {"setup": runner.setup_speed.median_ms(),
                         "measure": runner.speed.median_ms()},
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in values},
    }


# ------------------------------------------------------------------ output

def environment() -> str:
    return (f"env python={platform.python_version()} "
            f"cores={os.cpu_count()} kernels_compiled={kernels_compiled()}")


def report(res: dict) -> None:
    """Text lines for a person; the JSON line is printed by the caller."""
    print(f"workload={res['workload']} seed={res['seed']} "
          f"trace={int(res['trace'])} rounds={res['rounds']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    print("samples " + " ".join(f"{k}={v}"
                                for k, v in res["samples"].items()))
    ref = res["reference_ms"]
    print(f"reference loop median {ref['setup']:.4f} ms in set-up, "
          f"{ref['measure']:.4f} ms while measuring; nominal "
          f"{speed.NOMINAL_NS / 1e6:g} ms")
    for name, m in res["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    for msg in res["messages"]:
        print(f"  FAILED {msg}")


def summary(correct: bool, attempted: int, failed: int, metrics) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload={name} printed no result "
                  f"(exit {proc.returncode})")
            correct = False
            continue
        print("\n".join(lines[:-1]))
        correct = correct and last["correct"] and proc.returncode == 0
        attempted += last["attempted"]
        failed += last["failed"]
        for k, v in last["metrics"].items():
            metrics[f"{name}.{k}"] = v
    print(summary(correct, max(attempted, 1), failed, metrics))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not __debug__:
        print("perfbench: run without -O; the engine's asserts are part "
              "of what is measured", file=sys.stderr)
        return 2
    if not Path(dynplanar.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: dynplanar was not imported from {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    res = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    correct = res["failed"] == 0
    print(f"perfbench {environment()}")
    report(res)
    print(summary(correct, res["attempted"], res["failed"], res["metrics"]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
