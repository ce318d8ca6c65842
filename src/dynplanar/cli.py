"""Trace processor and fuzz driver.

The trace protocol is line-oriented: one command in, one answer out
(dumps are multi-line and end with a lone dot). Traces double as
regression fixtures, so every answer is deterministic.

The fuzz driver replays seeded random changes, choosing uniformly among
the change kinds that are currently legal (so rare level transitions get
exercised), and checks the full invariant suite against the brute-force
oracles after every step. Violations are reported with greedily
minimized reproducer traces; identical seeds give byte-identical
reports.
"""
from __future__ import annotations

import argparse
import random
import sys

from .coherence import is_coherent
from .engine import Engine
from .graph_core import (
    ACCEPTED,
    DELETE,
    INSERT,
    NOOP_ABSENT,
    NOOP_DUPLICATE,
    REJECTED_NONPLANAR,
    DomainError,
    GraphError,
    canonical_edge,
)
from .oracle import (
    PLANARITY_BUDGET,
    OracleBudgetError,
    dump_decomposition,
    static_decomposition,
    static_planar,
    validate_rotation,
)

DEFAULT_DOMAIN = 16


# ------------------------------------------------------- invariant checking

def check_state(eng: Engine) -> list[str]:
    """Violation descriptions for the engine state, empty when healthy.

    Covers embedding validity of every component, block, and the whole
    graph; bit-exact decomposition equivalence against the static
    oracle; and coherence plus opposite pair colours of every stored
    path.
    """
    out: list[str] = []
    n, edges = eng.graph.n, eng.graph.edges

    got = eng.dump_decomposition()
    want = dump_decomposition(static_decomposition(n, edges))
    if got != want:
        out.append("decomposition differs from static oracle")

    for node, emb in sorted(eng.comp_embs.items()):
        try:
            ok = validate_rotation(emb.edge_set(), emb.rot)
        except ValueError as exc:
            ok = False
            out.append(f"component {node}: {exc}")
        if not ok:
            out.append(f"component {node} fails rotation validation")
    for name, rot in sorted(eng.block_rots.items()):
        blk = eng.decomp.block(name)
        try:
            ok = validate_rotation(blk.edges | blk.pairs, rot)
        except ValueError as exc:
            ok = False
            out.append(f"block {name}: {exc}")
        if not ok:
            out.append(f"block {name} fails rotation validation")
    try:
        ok = validate_rotation(edges, eng.graph_rot)
    except ValueError as exc:
        ok = False
        out.append(f"graph rotation: {exc}")
    if not ok:
        out.append("graph rotation fails validation")

    for bname, paths in sorted(eng.colourings.items()):
        for p in paths:
            if not is_coherent(eng.decomp, eng.comp_embs, p.nodes):
                out.append(f"stored path in block {bname} is not coherent")
            for node in p.pair_nodes():
                s, t = node[1]
                if p.colour_of(s) == p.colour_of(t):
                    out.append(
                        f"pair {node[1]} in block {bname} is monochrome")
    return out


# ---------------------------------------------------------- trace processor

def _answer_change(eng: Engine, op: str, a: int, b: int) -> str:
    out = eng.insert_edge(a, b) if op == "add" else eng.delete_edge(a, b)
    if out.status == ACCEPTED:
        c = out.change_type
        return f"accepted {c.before_level}->{c.after_level}"
    if out.status == REJECTED_NONPLANAR:
        return "rejected nonplanar"
    if out.status == NOOP_DUPLICATE:
        return "noop duplicate"
    assert out.status == NOOP_ABSENT
    return "noop absent"


def _run_command(eng: Engine, words: list[str]) -> list[str]:
    op, args = words[0], words[1:]
    arity = {"add": 2, "del": 2, "rot?": 4, "face?": 3, "block?": 2,
             "cut?": 1, "pair?": 2, "dump": 0, "oracle": 1}
    if op not in arity:
        raise GraphError(f"unknown command {op!r}")
    if op == "oracle":
        if args != ["planar"]:
            raise GraphError("the only oracle query is 'oracle planar'")
        verdict = static_planar(eng.graph.n, eng.graph.edges)
        return ["true" if verdict else "false"]
    if len(args) != arity[op]:
        raise GraphError(f"{op} takes {arity[op]} arguments")
    try:
        vals = [int(x) for x in args]
    except ValueError:
        raise GraphError("vertex tokens must be decimal integers") from None

    if op in ("add", "del"):
        return [_answer_change(eng, op, *vals)]
    if op == "dump":
        return eng.dump().split("\n") + ["."]
    if op == "rot?":
        res = eng.graph_rotation_query(*vals)
    elif op == "face?":
        res = eng.graph_face_query(*vals)
    elif op == "block?":
        res = eng.decomp.same_block(*vals)
    elif op == "cut?":
        res = eng.decomp.is_cut_vertex(*vals)
    else:
        res = eng.decomp.is_separating_pair(*vals)
    return ["true" if res else "false"]


def run_trace(lines, domain: int) -> tuple[list[str], int]:
    """Process trace lines; returns (output lines, exit code)."""
    eng = Engine(domain)
    out: list[str] = []
    failed = False
    for no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out += _run_command(eng, line.split())
        except (GraphError, OracleBudgetError) as exc:
            out.append(f"error line {no}: {exc}")
            failed = True
    return out, 1 if failed else 0


# ---------------------------------------------------------------- fuzz mode

def _legal_moves(eng: Engine):
    """Candidate changes grouped by change kind (direction, levels)."""
    kinds: dict[tuple, list[tuple]] = {}
    d = eng.decomp
    n = eng.graph.n
    for u in range(n):
        for v in range(u + 1, n):
            e = (u, v)
            if e in eng.graph.edges:
                kind = (DELETE, d.level_between(u, v),
                        d.predict_delete_level(u, v))
            else:
                kind = (INSERT, d.level_between(u, v),
                        d.predict_insert_level(u, v))
            kinds.setdefault(kind, []).append(e)
    return kinds


def _violates(domain: int, ops: list[tuple], factory) -> bool:
    """Does replaying ops end in a violation or a verdict mismatch?"""
    eng = factory(domain)
    for (op, a, b) in ops[:-1]:
        (eng.insert_edge if op == "add" else eng.delete_edge)(a, b)
    op, a, b = ops[-1]
    if op == "add":
        fresh = not eng.graph.has_edge(a, b)
        want = static_planar(domain, eng.graph.edges | {canonical_edge(a, b)})
        got = eng.insert_edge(a, b).status == ACCEPTED
        if fresh and got != want:
            return True
    else:
        eng.delete_edge(a, b)
    return bool(check_state(eng))


def _minimize(domain: int, ops: list[tuple], factory) -> list[tuple]:
    """Greedy shrink: drop every earlier op that keeps the failure."""
    keep = list(ops)
    i = 0
    while i < len(keep) - 1:
        trial = keep[:i] + keep[i + 1:]
        try:
            bad = _violates(domain, trial, factory)
        except Exception:
            bad = True
        if bad:
            keep = trial
        else:
            i += 1
    return keep


def fuzz(seed: int, domain: int, steps: int, strict: bool = False,
         engine_factory=Engine) -> tuple[str, int]:
    """Seeded random differential run; returns (report, violation count).

    engine_factory exists as a mutation-testing hook: handing in a
    deliberately broken engine must produce violations, which sanity
    checks this harness. A domain below 2 (no legal change) is refused
    with DomainError, and one past the planarity oracle's budget with
    OracleBudgetError, before any engine is built.
    """
    if domain < 2:
        raise DomainError(f"fuzz needs a domain of at least 2, got {domain}")
    if domain > PLANARITY_BUDGET:
        raise OracleBudgetError(
            f"fuzz needs a domain of at most {PLANARITY_BUDGET}, the "
            "planarity oracle's budget")
    rng = random.Random(seed)
    eng = engine_factory(domain)
    ops: list[tuple] = []
    lines = [f"fuzz seed={seed} domain={domain} steps={steps}"]
    violations = 0
    tally = {"accepted": 0, "rejected": 0, "deleted": 0}
    for step in range(1, steps + 1):
        kinds = _legal_moves(eng)
        kind = rng.choice(sorted(kinds))
        a, b = rng.choice(sorted(kinds[kind]))
        op = "add" if kind[0] == INSERT else "del"
        ops.append((op, a, b))

        problems: list[str] = []
        before = eng.dump()
        if op == "add":
            want = static_planar(domain, eng.graph.edges | {(a, b)})
            outcome = eng.insert_edge(a, b)
            got = outcome.status == ACCEPTED
            tally["accepted" if got else "rejected"] += 1
            if got != want:
                problems.append(
                    f"verdict {outcome.status} but oracle says "
                    f"planar={want}")
            if outcome.status == REJECTED_NONPLANAR and eng.dump() != before:
                problems.append("rejected insertion mutated the state")
        else:
            eng.delete_edge(a, b)
            tally["deleted"] += 1
        problems += check_state(eng)

        for p in problems:
            violations += 1
            lines.append(f"violation step={step} op={op} {a} {b}: {p}")
        if problems:
            small = _minimize(domain, ops, engine_factory)
            lines.append("reproducer:")
            lines += [f"{o} {x} {y}" for (o, x, y) in small]
            lines.append(".")
            if strict:
                break
    lines.append("accepted {accepted} rejected {rejected} "
                 "deleted {deleted}".format(**tally))
    lines.append(f"violations {violations}")
    return "\n".join(lines), violations


# --------------------------------------------------------------- entry point

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="dynplanar",
        description="dynamic planarity engine: trace processor and fuzzer")
    ap.add_argument("--domain", type=int,
                    help="vertex domain size n (vertices are 0..n-1); "
                         f"default {DEFAULT_DOMAIN}, or {PLANARITY_BUDGET} "
                         "with --fuzz, whose planarity oracle allows at "
                         f"most {PLANARITY_BUDGET}")
    ap.add_argument("--trace", metavar="FILE",
                    help="trace file to replay (default: stdin)")
    ap.add_argument("--fuzz", action="store_true",
                    help="run the seeded differential fuzzer instead")
    ap.add_argument("--seed", type=int, default=0, help="fuzz seed")
    ap.add_argument("--steps", type=int, default=200, help="fuzz steps")
    ap.add_argument("--strict", action="store_true",
                    help="fuzz: stop at the first violation")
    ns = ap.parse_args(argv)

    domain = ns.domain
    if domain is None:
        domain = PLANARITY_BUDGET if ns.fuzz else DEFAULT_DOMAIN
    if domain <= 0:
        ap.error(f"domain size must be a positive int, got {domain}")

    if ns.fuzz:
        try:
            report, violations = fuzz(ns.seed, domain, ns.steps,
                                      strict=ns.strict)
        except (DomainError, OracleBudgetError) as exc:
            ap.error(str(exc))
        print(report)
        return 1 if violations else 0

    if ns.trace is not None:
        try:
            with open(ns.trace, encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as exc:
            ap.error(f"cannot read trace file: {exc}")
    else:
        lines = sys.stdin.readlines()
    out, code = run_trace(lines, domain)
    for ln in out:
        print(ln)
    return code


if __name__ == "__main__":
    sys.exit(main())
