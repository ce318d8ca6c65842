"""The decomposition certificate: it accepts the engine's states at any
size, agrees with the static oracle where that can run, and rejects
decompositions the static oracle would not give."""
from __future__ import annotations

import random
from dataclasses import replace

import networkx as nx

from dynplanar.decomposition import DecompositionState
from dynplanar.engine import Engine
from dynplanar.graph_core import ACCEPTED, REJECTED_NONPLANAR
from dynplanar.oracle import (
    certify_decomposition,
    dump_decomposition,
    static_decomposition,
    validate_rotation,
)


def test_certificate_and_networkx_check_every_change_at_domains_30_to_60():
    """Seeded churn, mostly between nearby vertices so that rigid
    components, cycles and pairs form: every insert verdict equals
    networkx's planarity test, and every state is certified and has a
    valid graph rotation."""
    seen = {"R": 0, "S": 0, "P": 0, "rejected": 0}
    for n in (30, 40, 50, 60):
        rng = random.Random(n)
        eng = Engine(n)
        for _ in range(400):
            edges = eng.graph.edges
            if len(edges) > 5 * n // 2 or (edges and rng.random() < 0.3):
                e = rng.choice(sorted(edges))
                assert eng.delete_edge(*e).status == ACCEPTED
            else:
                u = rng.randrange(n)
                v = (u + rng.randint(1, 4)) % n if rng.random() < 0.8 \
                    else rng.randrange(n)
                if u == v or eng.graph.has_edge(u, v):
                    continue
                planar, _ = nx.check_planarity(
                    nx.Graph(list(edges) + [(u, v)]))
                status = eng.insert_edge(u, v).status
                assert status == (ACCEPTED if planar
                                  else REJECTED_NONPLANAR), (n, u, v)
                seen["rejected"] += not planar
            edges = eng.graph.edges
            assert certify_decomposition(n, edges, eng.decomp) == []
            assert validate_rotation(edges, eng.graph_rot)
            for blk in eng.decomp.blocks:
                seen["P"] += len(blk.pairs)
                for c in blk.comps:
                    seen[c.kind] += 1
    assert min(seen.values()) >= 50, seen


def _mutants(st: DecompositionState):
    """Decompositions over st's edge set with one part changed: a
    component's kind swapped, or two components merged at a pair that
    holds no real edge."""
    for blk in st.blocks:
        for i, c in enumerate(blk.comps):
            comps = list(blk.comps)
            comps[i] = replace(c, kind="S" if c.kind == "R" else "R")
            yield blk, replace(blk, comps=tuple(comps))
        for p in blk.pairs - st.edges:
            held = [c for c in blk.comps if p in c.pairs]
            if len(held) != 2:
                continue
            a, b = held
            merged = replace(a, name=min(a.name, b.name),
                             vertices=a.vertices | b.vertices,
                             real_edges=a.real_edges | b.real_edges,
                             pairs=(a.pairs | b.pairs) - {p})
            rest = [c for c in blk.comps if c not in held]
            yield blk, replace(blk, pairs=blk.pairs - {p},
                               comps=tuple(sorted(rest + [merged],
                                                  key=lambda c: c.name)))


def test_certificate_agrees_with_the_static_oracle_on_small_states():
    """On random small graphs the engine's decomposition is certified
    and dumps as the static oracle's, and every mutant that dumps
    otherwise is rejected."""
    rng = random.Random(5)
    rejected = 0
    for _ in range(150):
        n = rng.randint(4, 9)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        st = DecompositionState.from_edges(
            n, rng.sample(pool, rng.randint(n - 1, min(len(pool), 2 * n))))
        want = dump_decomposition(static_decomposition(n, st.edges))
        assert st.dump() == want
        assert certify_decomposition(n, st.edges, st) == []
        for old, new in _mutants(st):
            blocks = tuple(new if b is old else b for b in st.blocks)
            bad = DecompositionState(n, st.edges, blocks, st._comp_of)
            if bad.dump() != want:
                assert certify_decomposition(n, st.edges, bad), bad.dump()
                rejected += 1
    assert rejected >= 200, rejected
