"""Dumps pinned across commits.

A SHA-256 digest of the status, change type and full `Engine.dump()`
after every step of seeded change sequences. The sequences follow the
criterion-1 corpus rule (delete a present edge with probability 0.45,
else insert an absent pair), so the first are that corpus's seeds. A
change to rotations, colourings or names anywhere along them changes
the digest; update it only for a change that means to alter dumps.
"""
from __future__ import annotations

import hashlib
import itertools
import random

from dynplanar.engine import Engine

PINNED = {
    "corpus seeds 0-49, domain 8, 150 steps": (
        range(50), 8, 150,
        "e6dcd9a5db5f0930899da6b9eced1cbc4dd555914b149a918d7d9389b6e0b330"),
    "seeds 0-4, domain 16, 200 steps": (
        range(5), 16, 200,
        "75cc1e2a0b274a98da5b4a2f7962dc535168133b4f9227e58644e3a8f10240b2"),
}


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
            h.update(f"{out.status} {out.change_type}\n".encode())
            h.update(eng.dump().encode())
    return h.hexdigest()


def test_dumps_match_pinned_digests():
    got = {name: _digest(*spec[:3]) for name, spec in PINNED.items()}
    assert got == {name: spec[3] for name, spec in PINNED.items()}
