"""Trace processor and fuzz driver.

The trace protocol is line-oriented: one command in, one answer out
(dumps are multi-line and end with a lone dot). Traces double as
regression fixtures, so every answer is deterministic.

The fuzz driver replays seeded random changes, choosing uniformly among
the change types that are currently legal (so rare level transitions get
exercised), and checks the full invariant suite against the brute-force
oracles after every step. Violations are reported with greedily
minimized reproducer traces. The report ends with counts: the accepted,
rejected and deleted changes, and the accepted ones by the local rule
that built their block, or `rebuilt`. It holds no timings, so identical
seeds give byte-identical reports.
"""
from __future__ import annotations

import argparse
import random
import re
import sys
from collections import Counter

from .coherence import build_block_paths, is_coherent, node_label, pair_faces
from .decomposition import DecompositionState
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
    DECOMPOSITION_BUDGET,
    PLANARITY_BUDGET,
    OracleBudgetError,
    certify_decomposition,
    dump_decomposition,
    static_decomposition,
    static_planar,
    validate_rotation,
)
from .rotation import Embedding, opened_at_least

DEFAULT_DOMAIN = 16


# ------------------------------------------------------- invariant checking

def check_state(eng: Engine) -> list[str]:
    """Violation descriptions for the engine state, empty when healthy.

    Covers the decomposition against a rebuild from the edge set, the
    blocks partitioning the edges and the cut vertices being the
    vertices in two or more blocks, at any size, and bit-exact
    equivalence with the static oracle within its budget or the
    oracle's certificate past it; embedding validity of every component,
    block, and the whole graph; every component's faces and outer face,
    which changes derive from their predecessors', against a whole trace
    of its rotation; every block rotation against a rebuild from the
    component embeddings, and the graph rotation against a rebuild from
    the block rotations; the stored pair-face entries,
    which surgery reads, against a rebuild from each component's
    embedding, none missing and none for a component that is gone or
    has one pair;
    coherence plus opposite pair colours of every maximal path listed
    from them; and the dump formatted with the engine's memo against a
    cold formatting (`Engine._dump({})`).
    """
    out: list[str] = []
    decomp = eng.decomp
    n, edges = decomp.n, decomp.edges

    got = eng.dump_decomposition()
    if got != DecompositionState.from_edges(n, edges).dump():
        out.append("decomposition differs from a rebuild")
    try:
        if eng.dump() != eng._dump({})[0]:
            out.append("dump differs from a cold formatting of the state")
    except KeyError as exc:  # a block whose parts are not stored
        out.append(f"dump cannot be formatted: {exc!r}")
    holders = Counter(e for blk in decomp.blocks for e in blk.edges)
    for e in sorted(holders.keys() | edges):
        if e not in edges or holders[e] != 1:
            out.append(f"edge {e} lies in {holders[e]} blocks of the "
                       "decomposition" + ("" if e in edges else
                                          " but not in the graph"))
    members = Counter(x for blk in decomp.blocks for x in blk.vertices)
    if decomp.cut_vertices != {x for x, k in members.items() if k >= 2}:
        out.append("decomposition cut vertices are not the vertices in "
                   "two or more blocks")
    if len({x for e in edges for x in e}) <= DECOMPOSITION_BUDGET:
        want = dump_decomposition(static_decomposition(n, edges))
        if got != want:
            out.append("decomposition differs from static oracle")
    else:
        out += certify_decomposition(n, edges, decomp)

    for node, emb in sorted(eng.comp_embs.items()):
        try:
            ok = validate_rotation(emb.edge_set(), emb.rot)
        except ValueError as exc:
            ok = False
            out.append(f"component {node}: {exc}")
        if not ok:
            out.append(f"component {node} fails rotation validation")
            continue
        try:
            traced = Embedding(emb.rot)
        except GraphError as exc:
            out.append(f"component {node} cannot be traced: {exc}")
            continue
        if (emb.faces, emb.outer) != (traced.faces, traced.outer):
            out.append(f"component {node}: stored faces differ from a "
                       "whole trace")
    for name, rot in sorted(eng.block_rots.items()):
        blk = eng.decomp.block(name)
        try:
            ok = validate_rotation(blk.edges | blk.pairs, rot)
        except ValueError as exc:
            ok = False
            out.append(f"block {name}: {exc}")
        if not ok:
            out.append(f"block {name} fails rotation validation")
    for blk in decomp.blocks:
        if blk.is_bridge:
            continue
        try:
            rebuilt = Engine._assemble_block(eng.comp_embs, blk)
        except (AssertionError, KeyError, ValueError) as exc:
            out.append(f"block {blk.name} cannot be rebuilt: {exc!r}")
            continue
        rot = eng.block_rots.get(blk.name, {})
        if rot.keys() != rebuilt.keys() or any(
                opened_at_least(rot[x]) != opened_at_least(seq)
                for x, seq in rebuilt.items()):
            out.append(f"block {blk.name}: block rotation differs from "
                       "a rebuild")
    try:
        ok = validate_rotation(edges, eng.graph_rot)
    except ValueError as exc:
        ok = False
        out.append(f"graph rotation: {exc}")
    if not ok:
        out.append("graph rotation fails validation")
    try:
        rebuilt = Engine._assemble_graph(decomp, eng.block_rots)
    except (AssertionError, KeyError) as exc:
        out.append(f"graph rotation cannot be rebuilt: {exc!r}")
    else:
        if rebuilt != eng.graph_rot:
            out.append("graph rotation differs from a rebuild")

    with_pairs = {blk.name: blk for blk in decomp.blocks if blk.pairs}
    for bname in sorted(eng.pair_faces.keys() - with_pairs.keys()):
        out.append(f"pair faces kept for block {bname}, which is no block "
                   "with pairs")
    for bname, blk in with_pairs.items():
        stored = eng.pair_faces.get(bname, {})
        comps = {(c.kind, c.name): c for c in blk.comps}
        linked = {nd for nd, c in comps.items() if len(c.pairs) >= 2}
        for node in sorted(stored.keys() | linked):
            label = node_label(node)
            if node not in comps:
                out.append(f"pair faces kept for {label}, which is no "
                           f"component of block {bname}")
                continue
            if node not in linked:
                out.append(f"pair faces kept for {label}, which has one "
                           "pair")
                continue
            if node not in stored:
                out.append(f"pair faces missing for {label}")
                continue
            try:
                fresh = pair_faces(eng.comp_embs[node], comps[node].pairs)
            except (GraphError, KeyError, ValueError) as exc:
                out.append(f"pair faces of {label} cannot be decided: "
                           f"{exc!r}")
                continue
            if stored[node] != fresh:
                out.append(f"pair faces of {label} differ from a rebuild")
        if stored.keys() != linked:
            continue
        try:
            paths = build_block_paths(stored, blk)
        except (AssertionError, KeyError) as exc:
            out.append(f"stored paths of block {bname} cannot be listed: "
                       f"{exc!r}")
            continue
        for p in paths:
            try:
                ok = is_coherent(eng.decomp, eng.comp_embs, p.nodes)
            except GraphError as exc:
                ok = False
                out.append(f"stored path in block {bname}: {exc}")
            if not ok:
                out.append(f"stored path in block {bname} is not coherent")
            for node in p.pair_nodes():
                s, t = node[1]
                if p.colour_of(s) == p.colour_of(t):
                    out.append(f"pair {node[1]} in block {bname} is "
                               "monochrome")
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
    # int() also takes "+5", "1_0" and non-ASCII digits
    if not all(re.fullmatch("-?[0-9]+", x) for x in args):
        raise GraphError("vertex tokens must be decimal integers")
    vals = [int(x) for x in args]

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
        except AssertionError as exc:
            # every engine assert fires before a change is committed
            msg = str(exc) or "assertion failed"
            out.append(f"error line {no}: internal error: {msg}")
            failed = True
    return out, 1 if failed else 0


# ---------------------------------------------------------------- fuzz mode

# the level after an insert that the level before decides: joining two
# components makes a bridge, a cycle through two or more blocks puts its
# ends in no rigid component, and a rigid component stays rigid
_INSERT_AFTER = {0: 1, 1: 2, 3: 3}
# the local rules of `decomposition._local_block`, then the blocks built
# from their edges
_RULES = ("bundle", "merge", "split", "rigid", "resplit", "fusion",
          "rebuilt")


def _legal_moves(eng: Engine):
    """Candidate changes grouped by change kind (direction, levels). Only
    an insert at level 2 and a delete at level 2 or 3 build the state
    after the change; a bridge delete goes from level 1 to 0."""
    moves: dict[tuple, list[tuple]] = {}
    d = eng.decomp
    for u in range(d.n):
        for v in range(u + 1, d.n):
            before = d.level_between(u, v)
            if (u, v) in d.edges:
                after = 0 if before == 1 else \
                    eng._without(u, v).level_between(u, v)
                kind = (DELETE, before, after)
            else:
                after = _INSERT_AFTER.get(before)
                if after is None:
                    after = d.with_edge(u, v).level_between(u, v)
                kind = (INSERT, before, after)
            moves.setdefault(kind, []).append((u, v))
    return moves


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
    # accepted changes by the local rule that built their block
    rules = dict.fromkeys(_RULES, 0)
    for step in range(1, steps + 1):
        moves = _legal_moves(eng)
        kind = rng.choice(sorted(moves))
        a, b = rng.choice(sorted(moves[kind]))
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
            if outcome.status == REJECTED_NONPLANAR and \
                    eng._dump({})[0] != before:
                problems.append("rejected insertion mutated the state")
        else:
            eng.delete_edge(a, b)
            tally["deleted"] += 1
            got = True
        if got:
            local = eng.decomp.derived
            rules["rebuilt" if local is None else local.rule] += 1
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
    lines.append("rules " + " ".join(f"{k} {n}" for k, n in rules.items()))
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
    if ns.steps < 0:
        ap.error(f"fuzz steps must be a non-negative int, got {ns.steps}")

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
