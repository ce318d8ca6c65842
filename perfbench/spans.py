"""Span recorder and the per-layer metrics of a traced run.

The recorder keeps spans (name, start, end, parent) in memory, in
nanoseconds of `speed.clock` (the process's CPU time), and writes them
out when the run ends. The wrappers that feed it are installed from
here, at each layer's entry point, where the engine binds it:
`insert_ok`, `update_colouring` and `euler_per_component` are looked up
on `dynplanar.engine`, `trace_orbits` on `dynplanar.rotation`,
`build_block_paths` on `dynplanar.coherence`, and class methods on their
classes. An entry point that no longer exists is skipped, and the
metrics that need it are reported absent.

The benchmark opens one root span per timed engine call and tags it
after the call with what the call turned out to be ("change" for an
accepted insert or delete, "reject" for a rejected insert). Per-layer
figures are sums over spans under "change" roots divided by the number
of accepted changes, except where a metric says otherwise. A span's
self time is its duration minus that of its direct children.
"""
from __future__ import annotations

import gzip
import importlib
from speed import clock

# (metric, unit, entry points it needs)
METRICS = (
    ("connectivity.tables_ms", "ms", ("tables",)),
    ("connectivity.table_entries", "count", ("tables",)),
    ("connectivity.pair_tests", "count", ("pair_test",)),
    ("decomposition.self_ms", "ms", ("rebuild",)),
    ("decomposition.rebuilds", "count", ("rebuild",)),
    ("decomposition.changed_ratio", "ratio", ()),
    ("gate.ms", "ms", ("gate",)),
    ("rotation.canonical_ms", "ms", ("canonical",)),
    ("rotation.canonical_calls", "count", ("canonical",)),
    ("rotation.canonical_useful_ratio", "ratio", ("canonical",)),
    ("rotation.face_traces", "count", ("trace",)),
    ("rotation.trace_ms", "ms", ("trace",)),
    ("rotation.euler_checks", "count", ("euler",)),
    ("coherence.update_ms", "ms", ("colouring",)),
    ("coherence.blocks_recoloured", "count", ("block_paths",)),
    ("engine.self_ms", "ms", ()),
    ("trace.change_p50_ms", "ms", ()),
)


class Recorder:
    """In-memory spans plus counts, each attached to its root span."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.tags: dict[int, str] = {}  # root span -> what the call was
        self.counts: dict[tuple[str, int], int] = {}
        self.on = False
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(i)
        self.starts.append(clock())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = clock()
        self._stack.pop()

    def add(self, name: str, n: int = 1, root: int | None = None) -> None:
        if root is None:
            root = self._stack[0]
        key = (name, root)
        self.counts[key] = self.counts.get(key, 0) + n

    def write(self, path) -> None:
        """Gzipped CSV, one line per span; a churn-d8 run holds ~10^5."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_ns,end_ns,parent,root_tag\n")
            for i, name in enumerate(self.names):
                tag = self.tags.get(i, "")
                fh.write(f"{i},{name},{self.starts[i]},{self.ends[i]},"
                         f"{self.parents[i]},{tag}\n")


# ------------------------------------------------------------- the wrappers

def _traced(rec: Recorder, fn, span: str | None, count: str | None,
            after=None):
    def wrapper(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        if count:
            rec.add(count)
        if span is None:
            return fn(*args, **kwargs)
        i = rec.begin(span)
        try:
            res = fn(*args, **kwargs)
        finally:
            rec.end(i)
        if after is not None:
            after(rec, args, res)
        return res
    wrapper.__wrapped__ = fn
    return wrapper


def _table_entries(rec, args, tables):
    rec.add("connectivity.table_entries",
            len(tables.comp) + len(tables.comp1) + len(tables.comp2))


def _canonical_useful(rec, args, res):
    src = args[0]
    if res.rot != src.rot or res.outer != src.outer:
        rec.add("rotation.canonical_useful")


# entry point: (module, owner class or None, attribute, span, count, after)
ENTRY_POINTS = {
    "tables": ("dynplanar.connectivity", "ConnTables", "from_edges",
               "connectivity.tables", None, _table_entries),
    "pair_test": ("dynplanar.connectivity", "ConnTables",
                  "three_connected_pair", None, "connectivity.pair_tests",
                  None),
    "rebuild": ("dynplanar.decomposition", "DecompositionState",
                "from_edges", "decomposition.from_edges", None, None),
    "gate": ("dynplanar.engine", None, "insert_ok", "gate.insert_ok", None,
             None),
    "canonical": ("dynplanar.rotation", "Embedding", "canonical",
                  "rotation.canonical", None, _canonical_useful),
    "trace": ("dynplanar.rotation", None, "trace_orbits",
              "rotation.trace_orbits", None, None),
    "euler": ("dynplanar.engine", None, "euler_per_component",
              "rotation.euler", None, None),
    "colouring": ("dynplanar.engine", None, "update_colouring",
                  "coherence.update", None, None),
    "block_paths": ("dynplanar.coherence", None, "build_block_paths", None,
                    "coherence.build_block_paths", None),
}


def install(rec: Recorder):
    """Wrap every entry point that exists; returns (installed, restore)."""
    undo = []
    installed = set()
    for key, (mod_name, cls_name, attr, span, count, after) in \
            ENTRY_POINTS.items():
        try:
            owner = importlib.import_module(mod_name)
        except ImportError:
            continue
        if cls_name is not None:
            owner = getattr(owner, cls_name, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            new = classmethod(_traced(rec, raw.__func__, span, count, after))
        else:
            new = _traced(rec, raw, span, count, after)
        setattr(owner, attr, new)
        undo.append((owner, attr, raw))
        installed.add(key)

    def restore():
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
    return installed, restore


def content_keys(eng) -> set | None:
    """Content keys of the engine's triconnected components, read from
    outside; None when the engine no longer exposes them."""
    try:
        return {c.content_key() for b in eng.decomp.blocks for c in b.comps}
    except AttributeError:
        return None


# ------------------------------------------------------------ aggregation

def layer_metrics(rec: Recorder, installed: set, change_p50_ms: float,
                  scale: float) -> dict[str, dict]:
    """Per-layer figures from the spans and counts under tagged roots.
    Span times are multiplied by `scale`, the run's reference-speed
    factor; `change_p50_ms` comes scaled already."""
    n = len(rec.names)
    root = [0] * n
    child_ns = [0] * n
    for i in range(n):
        p = rec.parents[i]
        root[i] = i if p < 0 else root[p]
        if p >= 0:
            child_ns[p] += rec.ends[i] - rec.starts[i]
    tag = rec.tags
    changes = sum(1 for t in tag.values() if t == "change")

    total_ns: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    gate_ns = gate_calls = 0
    for i in range(n):
        name = rec.names[i]
        dur = rec.ends[i] - rec.starts[i]
        if name == "gate.insert_ok":
            gate_ns += dur
            gate_calls += 1
        if tag.get(root[i]) != "change":
            continue
        total_ns[name] = total_ns.get(name, 0) + dur
        self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i]
        calls[name] = calls.get(name, 0) + 1
    counted: dict[str, int] = {}
    for (name, r), k in rec.counts.items():
        if tag.get(r) == "change":
            counted[name] = counted.get(name, 0) + k

    per = max(changes, 1)

    def ms(ns: int) -> float:
        return ns * scale / 1e6 / per

    def ratio(a: int, b: int) -> float | None:
        return a / b if b else None

    canon = calls.get("rotation.canonical", 0)
    values = {
        "connectivity.tables_ms": ms(total_ns.get("connectivity.tables", 0)),
        "connectivity.table_entries":
            counted.get("connectivity.table_entries", 0) / per,
        "connectivity.pair_tests":
            counted.get("connectivity.pair_tests", 0) / per,
        "decomposition.self_ms":
            ms(self_ns.get("decomposition.from_edges", 0)),
        "decomposition.rebuilds":
            calls.get("decomposition.from_edges", 0) / per,
        "decomposition.changed_ratio": ratio(
            counted.get("decomposition.changed", 0),
            counted.get("decomposition.produced", 0)),
        "gate.ms": gate_ns * scale / 1e6 / gate_calls if gate_calls
        else None,
        "rotation.canonical_ms": ms(total_ns.get("rotation.canonical", 0)),
        "rotation.canonical_calls": canon / per,
        "rotation.canonical_useful_ratio": ratio(
            counted.get("rotation.canonical_useful", 0), canon),
        "rotation.face_traces":
            calls.get("rotation.trace_orbits", 0) / per,
        "rotation.trace_ms": ms(total_ns.get("rotation.trace_orbits", 0)),
        "rotation.euler_checks": calls.get("rotation.euler", 0) / per,
        "coherence.update_ms": ms(total_ns.get("coherence.update", 0)),
        "coherence.blocks_recoloured":
            counted.get("coherence.build_block_paths", 0) / per,
        "engine.self_ms": ms(self_ns.get("engine", 0)),
        "trace.change_p50_ms": change_p50_ms,
    }
    out = {}
    for name, unit, needs in METRICS:
        if values[name] is None or not set(needs) <= installed:
            continue
        out[name] = {"value": values[name], "unit": unit}
    return out
