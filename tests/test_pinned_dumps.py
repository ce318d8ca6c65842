"""Dumps pinned across commits.

A SHA-256 digest of the status, change type and full `Engine.dump()`
after every step of seeded change sequences. The sequences follow the
criterion-1 corpus rule (delete a present edge with probability 0.45,
else insert an absent pair), so the first are that corpus's seeds; one
more churns rings of K4 gadgets, whose corridors cross up to four
separating pairs. One dumps at seeded points only, so that a dump
follows none, one or many changes and reuses more or less of the memo
the dump before it left. The last deletes and re-inserts, one at a
time, edges whose deletion breaks a rigid component into pieces. A
change to rotations, colourings or names anywhere along them changes
the digest; update it only for a change that means to alter dumps.
"""
from __future__ import annotations

import hashlib
import itertools
import random

from block_chain import block_chain, chain_toggles, triangulated_grid
from dynplanar.engine import Engine

PINNED = {
    "corpus seeds 0-49, domain 8, 150 steps": (
        range(50), 8, 150,
        "e6dcd9a5db5f0930899da6b9eced1cbc4dd555914b149a918d7d9389b6e0b330"),
    "seeds 0-4, domain 16, 200 steps": (
        range(5), 16, 200,
        "75cc1e2a0b274a98da5b4a2f7962dc535168133b4f9227e58644e3a8f10240b2"),
}


K4_RING_CHURN = (
    (6, 8), 60,
    "38253d364d006d2f3ffd790985d23fccfb861d41ef5971521af916a955437b78")

SPARSE_DUMP_CHURN = (
    300,
    "b9c277ea7720769b23a381c313326ce240987a65722c0acea38053f4e329934d")

# the interior edges of the triangulated 5x6 grid that end at a vertex of
# degree three in its rigid component: at the corners 0 and 29, and at
# the vertices of the corner pairs {4, 11} and {18, 25}
GRID_DEGREE_THREE = ((0, 7), (22, 29), (4, 10), (4, 11), (10, 11),
                     (18, 19), (18, 25), (19, 25))

RIGID_RESPLITS = \
    "3039f2e98a5128c830a2b4e1e4ab036ec905e6fee33055a42c1cc18e89ac88ef"


def _record(h, out, eng: Engine) -> None:
    h.update(f"{out.status} {out.change_type}\n".encode())
    h.update(eng.dump().encode())


def _digest(seeds, n: int, steps: int) -> str:
    h = hashlib.sha256()
    pairs = list(itertools.combinations(range(n), 2))
    for seed in seeds:
        rng = random.Random(seed)
        eng = Engine(n)
        for _ in range(steps):
            edges = sorted(eng.graph.edges)
            if edges and rng.random() < 0.45:
                out = eng.delete_edge(*edges[rng.randrange(len(edges))])
            else:
                absent = [p for p in pairs if p not in eng.graph.edges]
                out = eng.insert_edge(*absent[rng.randrange(len(absent))])
            _record(h, out, eng)
    return h.hexdigest()


def _k4_ring_digest(ms, steps: int) -> str:
    """A ring of m K4 gadgets, gadget i on 4i..4i+3 and its vertex 4i+1
    linked to the next gadget's 4(i+1), built edge by edge; then each
    seeded step toggles the chord 4i+2 - 4j+2 between two gadgets and
    the gadget edge 4i+2 - 4i+3, deleting an edge the graph holds and
    inserting one it lacks."""
    h = hashlib.sha256()
    for m in ms:
        eng = Engine(4 * m)
        ring = [(4 * i + a, 4 * i + b) for i in range(m)
                for a in range(4) for b in range(a + 1, 4)]
        ring += [(4 * i + 1, 4 * (i + 1) % (4 * m)) for i in range(m)]
        for e in ring:
            _record(h, eng.insert_edge(*e), eng)
        rng = random.Random(m)
        for _ in range(steps):
            i, j = rng.sample(range(m), 2)
            for e in ((4 * i + 2, 4 * j + 2), (4 * i + 2, 4 * i + 3)):
                out = eng.delete_edge(*e) if eng.graph.has_edge(*e) \
                    else eng.insert_edge(*e)
                _record(h, out, eng)
    return h.hexdigest()


def _sparse_dump_digest(steps: int) -> str:
    """The block chain and a triangulated 5x6 grid, built edge by edge;
    then each seeded step toggles an edge of the start graph, or one
    time in five any pair, and is followed by a dump three times in
    ten."""
    h = hashlib.sha256()
    for n, start in ((42, block_chain()[0]), (30, triangulated_grid(5, 6))):
        eng = Engine(n)
        for e in start:
            h.update(f"{eng.insert_edge(*e).status}\n".encode())
        rng = random.Random(n)
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(steps):
            e = rng.choice(start) if rng.random() < 0.8 else rng.choice(pairs)
            out = eng.delete_edge(*e) if eng.graph.has_edge(*e) \
                else eng.insert_edge(*e)
            h.update(f"{out.status} {out.change_type}\n".encode())
            if rng.random() < 0.3:
                h.update(eng.dump().encode())
    return h.hexdigest()


def _resplit_digest() -> str:
    """The block chain with each wheel spoke and each rim or cycle edge,
    and the triangulated 5x6 grid with each edge of GRID_DEGREE_THREE,
    deleted and re-inserted in turn: deletes that break a rigid
    component into pieces and inserts that fuse them back."""
    h = hashlib.sha256()
    toggles = chain_toggles()
    for n, start, edges in (
            (42, block_chain()[0], toggles["spoke"] + toggles["rim"]),
            (30, triangulated_grid(5, 6), GRID_DEGREE_THREE)):
        eng = Engine(n)
        for e in start:
            eng.insert_edge(*e)
        for e in edges:
            _record(h, eng.delete_edge(*e), eng)
            _record(h, eng.insert_edge(*e), eng)
    return h.hexdigest()


def test_dumps_match_pinned_digests():
    got = {name: _digest(*spec[:3]) for name, spec in PINNED.items()}
    assert got == {name: spec[3] for name, spec in PINNED.items()}


def test_k4_ring_churn_matches_pinned_digest():
    assert _k4_ring_digest(*K4_RING_CHURN[:2]) == K4_RING_CHURN[2]


def test_sparse_dumps_match_pinned_digest():
    assert _sparse_dump_digest(SPARSE_DUMP_CHURN[0]) == SPARSE_DUMP_CHURN[1]


def test_rigid_resplits_and_fusions_match_pinned_digest():
    assert _resplit_digest() == RIGID_RESPLITS
