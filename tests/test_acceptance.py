from __future__ import annotations

import itertools
import random
import time

import pytest

from dynplanar.cli import check_state
from dynplanar.engine import Engine
from dynplanar.graph_core import ACCEPTED, REJECTED_NONPLANAR
from dynplanar.oracle import static_planar

SEQUENCES = 500
STEPS = 150
DOMAIN = 8
DELETE_BIAS = 0.45
PAIRS = list(itertools.combinations(range(DOMAIN), 2))


def classify(msg: str) -> str:
    if "decomposition" in msg:
        return "decomp"
    if msg.startswith("stored path") or msg.startswith("pair"):
        return "colour"
    return "rotation"


# ---------------------------------------------------------- shared corpus
# One pass over the randomized change corpus feeds criteria 1, 2, 3, 4, 6:
# every insertion verdict is compared against the static oracle, and the
# full invariant suite runs after every change.

@pytest.fixture(scope="session")
def corpus():
    return run_corpus(range(SEQUENCES))


def run_corpus(seeds, engine_cls=Engine) -> dict:
    """The corpus walk from each seed on an engine of `engine_cls`, with
    every check the criteria read; returns the tally."""
    stats = {
        "sequences": 0, "steps": 0, "inserts": 0, "accepted": 0,
        "rejected": 0, "deletes": 0, "decide_seconds": 0.0,
        "verdict_mismatches": 0, "rotation_failures": 0,
        "decomp_mismatches": 0, "colour_failures": 0,
        "purity_failures": 0, "examples": [],
    }

    def flag(kind: str, seed: int, step: int, msg: str) -> None:
        stats[kind] += 1
        if len(stats["examples"]) < 10:
            stats["examples"].append(f"seed={seed} step={step}: {msg}")

    for seed in seeds:
        rng = random.Random(seed)
        eng = engine_cls(DOMAIN)
        stats["sequences"] += 1
        for step in range(STEPS):
            stats["steps"] += 1
            edges = sorted(eng.graph.edges)
            if edges and rng.random() < DELETE_BIAS:
                a, b = edges[rng.randrange(len(edges))]
                t0 = time.perf_counter()
                out = eng.delete_edge(a, b)
                stats["decide_seconds"] += time.perf_counter() - t0
                assert out.status == ACCEPTED
                stats["deletes"] += 1
            else:
                absent = [p for p in PAIRS if p not in eng.graph.edges]
                a, b = absent[rng.randrange(len(absent))]
                stats["inserts"] += 1
                t0 = time.perf_counter()
                want = static_planar(DOMAIN, eng.graph.edges | {(a, b)})
                stats["decide_seconds"] += time.perf_counter() - t0
                pre = None if want else eng.dump()
                t0 = time.perf_counter()
                out = eng.insert_edge(a, b)
                stats["decide_seconds"] += time.perf_counter() - t0
                got = out.status == ACCEPTED
                stats["accepted" if got else "rejected"] += 1
                if got != want:
                    flag("verdict_mismatches", seed, step,
                         f"insert {a} {b}: engine {out.status}, "
                         f"oracle planar={want}")
                # formatted cold, so that no memo entry stands in for a
                # stored object changed in place
                if out.status == REJECTED_NONPLANAR and pre is not None \
                        and eng._dump({})[0] != pre:
                    flag("purity_failures", seed, step,
                         f"rejected insert {a} {b} mutated state")
            for msg in check_state(eng):
                kind = classify(msg)
                flag({"decomp": "decomp_mismatches",
                      "colour": "colour_failures",
                      "rotation": "rotation_failures"}[kind],
                     seed, step, msg)
    return stats


def test_criterion_1_gate_exactness(corpus, record):
    ok = corpus["verdict_mismatches"] == 0 \
        and corpus["decide_seconds"] < 60.0
    record(1, ok,
           f"{corpus['inserts']} verdicts over {corpus['sequences']} "
           f"sequences, {corpus['rejected']} rejections, decision path "
           f"{corpus['decide_seconds']:.1f}s")
    assert corpus["verdict_mismatches"] == 0, corpus["examples"]
    assert corpus["decide_seconds"] < 60.0


def test_criterion_2_embedding_validity(corpus, record):
    record(2, corpus["rotation_failures"] == 0,
           f"{corpus['steps']} post-change validations")
    assert corpus["rotation_failures"] == 0, corpus["examples"]


def test_criterion_3_decomposition_equivalence(corpus, record):
    record(3, corpus["decomp_mismatches"] == 0,
           f"{corpus['steps']} dump comparisons")
    assert corpus["decomp_mismatches"] == 0, corpus["examples"]


def test_criterion_4_two_colouring_soundness(corpus, record):
    record(4, corpus["colour_failures"] == 0,
           f"{corpus['steps']} coherence checks")
    assert corpus["colour_failures"] == 0, corpus["examples"]


def test_criterion_6_rejection_purity(corpus, record):
    record(6, corpus["purity_failures"] == 0,
           f"{corpus['rejected']} rejected insertions compared")
    assert corpus["purity_failures"] == 0, corpus["examples"]


# ------------------------------------------------------------- criterion 5

def test_criterion_5_round_trip(record):
    target, done, failures = 200, 0, []
    for case in range(25):
        rng = random.Random(2000 + case)
        eng = Engine(DOMAIN)
        for _ in range(30):
            _policy_step(rng, eng)
        injected, rounds = 0, 0
        while injected < 8 and rounds < 50:
            rounds += 1
            for _ in range(5):
                _policy_step(rng, eng)
            pre = eng.dump()
            absent = [p for p in PAIRS if p not in eng.graph.edges]
            rng.shuffle(absent)
            for a, b in absent:
                if eng.insert_edge(a, b).status != ACCEPTED:
                    continue
                eng.delete_edge(a, b)
                done += 1
                injected += 1
                if eng.dump() != pre:
                    failures.append(f"case {case} pair ({a},{b})")
                break
    record(5, done >= target and not failures,
           f"{done} insert/delete pairs restored")
    assert done >= target
    assert failures == []


def _policy_step(rng, eng) -> None:
    edges = sorted(eng.graph.edges)
    if edges and rng.random() < DELETE_BIAS:
        eng.delete_edge(*edges[rng.randrange(len(edges))])
    else:
        absent = [p for p in PAIRS if p not in eng.graph.edges]
        eng.insert_edge(*absent[rng.randrange(len(absent))])


# ------------------------------------------------------------- criterion 7

K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
K5 = list(itertools.combinations(range(5), 2))
K33 = [(a, b) for a in range(3) for b in range(3, 6)]


def _all_accepted(n, order) -> bool:
    eng = Engine(n)
    return all(eng.insert_edge(a, b).status == ACCEPTED for a, b in order)


def _final_rejected(n, order) -> bool:
    eng = Engine(n)
    for a, b in order[:-1]:
        if eng.insert_edge(a, b).status != ACCEPTED:
            return False
    return eng.insert_edge(*order[-1]).status == REJECTED_NONPLANAR


def test_criterion_7_classic_families(record):
    t0 = time.perf_counter()
    bad = []
    for order in itertools.permutations(K4):
        if not _all_accepted(4, order):
            bad.append(("K4", order))
    rng = random.Random(77)
    for kind, edges in (("K5", K5), ("K3,3", K33)):
        for _ in range(20):
            order = edges[:]
            rng.shuffle(order)
            if not _final_rejected(6, order):
                bad.append((kind, tuple(order)))
    for k in range(3, 9):
        rim = [(i, i % k + 1) for i in range(1, k + 1)]
        spokes = [(0, i) for i in range(1, k + 1)]
        order = rim + spokes
        rng.shuffle(order)
        if not _all_accepted(k + 1, order):
            bad.append((f"W{k}", tuple(order)))
    elapsed = time.perf_counter() - t0
    record(7, not bad and elapsed < 5.0,
           f"720 K4 orders, 20+20 K5/K3,3 orders, W3..W8, "
           f"{elapsed:.2f}s")
    assert bad == []
    assert elapsed < 5.0


# ------------------------------------------------------------- criterion 8

GADGETS = {
    "triangle": ([(0, 1), (1, 2), (2, 0)], 3),
    "square": ([(0, 1), (1, 2), (2, 3), (3, 0)], 4),
    "diamond": ([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)], 4),
    "k4": ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4),
}


def _build_chain(rng):
    """A path of blocks joined at cut vertices; two rigid blocks at least.

    Returns (edge list, far endpoints u and v whose connecting insertion
    merges every block on the chain).
    """
    kinds = [rng.choice(sorted(GADGETS)) for _ in range(rng.choice((3, 4)))]
    while sum(k == "k4" for k in kinds) < 2:
        kinds[rng.randrange(len(kinds))] = "k4"
    edges, entry, fresh = [], 0, 1
    for kind in kinds:
        local_edges, size = GADGETS[kind]
        names = {0: entry}
        for i in range(1, size):
            names[i] = fresh
            fresh += 1
        edges += [(names[x], names[y]) for x, y in local_edges]
        entry = rng.choice([names[i] for i in range(1, size)])
    return edges, 0, entry


def _chain_engine(edges, order_rng=None) -> Engine:
    eng = Engine(16)
    if order_rng is not None:
        eng._subupdate_order = \
            lambda ts: order_rng.sample(ts, len(ts))
    for a, b in edges:
        assert eng.insert_edge(a, b).status == ACCEPTED
    return eng


def test_criterion_8_subupdate_commutativity(record):
    cases = mismatches = 0
    for case in range(25):
        rng = random.Random(4000 + case)
        edges, u, v = _build_chain(rng)

        base = _chain_engine(edges)
        blocks, _ = base.decomp.bc_path_blocks(u, v)
        assert len(blocks) >= 3
        before = base.dump()
        out = base.insert_edge(u, v)
        assert out.status == ACCEPTED
        assert (out.change_type.before_level,
                out.change_type.after_level) == (1, 2)
        merged = base.dump()
        base.delete_edge(u, v)
        split = base.dump()
        assert split == before

        cases += 2
        for trial in range(5):
            order_rng = random.Random(1000 * case + trial)
            eng = _chain_engine(edges, order_rng)
            eng.insert_edge(u, v)
            if eng.dump() != merged:
                mismatches += 1
            eng.delete_edge(u, v)
            if eng.dump() != split:
                mismatches += 1
    record(8, cases == 50 and mismatches == 0,
           f"{cases} multi-block changes x 5 orders")
    assert cases == 50
    assert mismatches == 0
