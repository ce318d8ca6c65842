"""Checks made apart from the engine, outside the timed calls.

Every verdict and answer is compared with a computation that shares no
code with the engine: networkx for planarity, blocks and cut vertices,
`dynplanar.oracle` for rotation validity (Euler) and, within its vertex
budget, for the decomposition dump. Two properties of the method are
checked on the engine's own output: the state is a pure function of
the edge set (so equal edge sets dump byte-identically, whatever order
or rejected inserts led there), and a fresh engine that loads the same
edges in another order dumps the same.
"""
from __future__ import annotations

import hashlib
import random

import networkx as nx
from dynplanar.oracle import (
    DECOMPOSITION_BUDGET,
    dump_decomposition,
    static_decomposition,
    validate_rotation,
)

from workloads import Edge

LEDGER_SIZE = 256


class Reference:
    """networkx and oracle structure of one edge set, computed lazily."""

    def __init__(self, n: int, edges: set[Edge]):
        self.n = n
        self.key = frozenset(edges)
        self.within_budget = \
            len({v for e in edges for v in e}) <= DECOMPOSITION_BUDGET
        self._blocks = self._cuts = self._oracle = None

    def blocks(self) -> list[set[int]]:
        if self._blocks is None:
            g = nx.Graph(list(self.key))
            self._blocks = [set(b) for b in nx.biconnected_components(g)]
            self._cuts = set(nx.articulation_points(g))
        return self._blocks

    def cuts(self) -> set[int]:
        self.blocks()
        return self._cuts

    def oracle(self):
        if self._oracle is None:
            self._oracle = static_decomposition(self.n, self.key)
        return self._oracle


class Ledger:
    """Dump last seen for each recent edge set; equal sets must agree.
    It forgets everything after LEDGER_SIZE edge sets, and keeps digests
    of the edge sets and dumps rather than the sets and dumps themselves,
    so that the process's peak memory does not grow with the number of
    operations a run gets through."""

    def __init__(self):
        self.dumps: dict[bytes, bytes] = {}

    def check(self, edges: set[Edge], dump: str) -> list[str]:
        key = _digest(repr(sorted(edges)))
        seen = self.dumps.get(key)
        dump = _digest(dump)
        if seen is None:
            if len(self.dumps) >= LEDGER_SIZE:
                self.dumps.clear()
            self.dumps[key] = dump
            return []
        if seen != dump:
            return ["dump differs from an earlier dump of the same edge set"]
        return []


def _digest(text: str) -> bytes:
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


def cyclic_before(seq, a, b, c) -> bool:
    """b comes before c when seq is read cyclically from a."""
    k = len(seq)
    ia = seq.index(a)
    return (seq.index(b) - ia) % k < (seq.index(c) - ia) % k


def expected_answer(op: tuple, ref: Reference, graph_rot):
    """Independent answer to a query, or None where no reference exists."""
    kind, args = op[1], op[2:]
    if kind == "block":
        u, v = args
        return any(u in b and v in b for b in ref.blocks())
    if kind == "cut":
        return args[0] in ref.cuts()
    if kind == "rot":
        v, a, b, c = args
        return cyclic_before(tuple(graph_rot.get(v, ())), a, b, c)
    if kind == "pair" and ref.within_budget:
        pair = tuple(sorted(args))
        return any(pair in blk.pairs for blk in ref.oracle().blocks)
    return None


def check_state(eng, edges: set[Edge], ref: Reference,
                ledger: Ledger) -> list[str]:
    """After a change or a rejection: edge set, rotation, decomposition,
    and the dump against every earlier dump of the same edge set."""
    out = []
    if eng.graph.edges != edges:
        out.append("engine edge set differs from the inputs accepted")
    try:
        if not validate_rotation(edges, eng.graph_rot):
            out.append("graph rotation fails Euler's formula")
    except ValueError as exc:
        out.append(f"graph rotation is malformed: {exc}")
    if ref.within_budget:
        want = dump_decomposition(ref.oracle())
        if eng.dump_decomposition() != want:
            out.append("decomposition dump differs from the static oracle")
    return out + ledger.check(edges, eng.dump())


def reload_shuffled(engine_cls, n: int, edges: set[Edge],
                    rng: random.Random, call=lambda f: f()):
    """A fresh engine loaded with the edges in a seeded shuffled order;
    returns it with the statuses of its inserts. Each engine call goes
    through `call`, which may time it."""
    order = sorted(edges)
    rng.shuffle(order)
    eng = call(lambda: engine_cls(n))
    return eng, [call(lambda: eng.insert_edge(*e)).status for e in order]
