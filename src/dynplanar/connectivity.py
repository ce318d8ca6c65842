"""Connectivity under vertex avoidance, recomputed per graph version.

Each query family reduces to a table lookup against component tables of
G, G-{x}, and G-{x,y}, rebuilt from scratch for the current edge set
(no caching across versions). The engine builds no such tables; they
remain for the benchmark's per-layer wrappers and their tests.
"""
from __future__ import annotations

from .graph_core import DomainError


def _component_masks(n: int, adj: list[int], allowed: int) -> list[int]:
    """Component bitmask for every vertex inside `allowed` (0 outside)."""
    out = [0] * n
    rem = allowed
    while rem:
        low = rem & -rem
        comp = low
        frontier = low
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= adj[b.bit_length() - 1]
            frontier = nxt & allowed & ~comp
            comp |= frontier
        m = comp
        while m:
            b = m & -m
            m ^= b
            out[b.bit_length() - 1] = comp
        rem &= ~comp
    return out


def component_tables(n: int, adj: list[int]) -> tuple[list[int], list[int], list[int]]:
    """Tables of component bitmasks for G, G-{x}, and G-{x,y} (x < y).

    comp[v]              component of v in G
    comp1[x*n + v]       component of v in G-{x}        (0 when v == x)
    comp2[(x*n+y)*n + v] component of v in G-{x,y}, x<y (0 when v in {x,y})

    Removing an isolated vertex leaves every other component as it is,
    so its rows are copies of rows already built, with its own entry 0.
    """
    full = (1 << n) - 1
    comp = _component_masks(n, adj, full)
    comp1 = [0] * (n * n)
    for x in range(n):
        if adj[x]:
            row = _component_masks(n, adj, full & ~(1 << x))
        else:
            row = comp[:]
            row[x] = 0
        comp1[x * n:(x + 1) * n] = row
    comp2 = [0] * (n * n * n)
    for x in range(n):
        for y in range(x + 1, n):
            base = (x * n + y) * n
            if adj[x] and adj[y]:
                row = _component_masks(n, adj, full & ~(1 << x) & ~(1 << y))
            else:
                lone, other = (x, y) if not adj[x] else (y, x)
                row = comp1[other * n:(other + 1) * n]
                row[lone] = 0
            comp2[base:base + n] = row
    return comp, comp1, comp2


class ConnTables:
    """Avoidance-connectivity tables for one fixed edge set."""

    __slots__ = ("n", "comp", "comp1", "comp2")

    def __init__(self, n: int, adj: list[int]):
        self.n = n
        self.comp, self.comp1, self.comp2 = component_tables(n, adj)

    @classmethod
    def from_edges(cls, n: int, edges) -> ConnTables:
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj)

    def _check(self, *vs: int) -> None:
        n = self.n
        for v in vs:
            if not 0 <= v < n:
                raise DomainError(f"vertex {v!r} outside domain [0,{n})")

    def connected(self, u: int, v: int) -> bool:
        """True iff u and v are in the same component (u == u counts)."""
        self._check(u, v)
        return bool(self.comp[u] >> v & 1) or u == v

    def connected_avoiding(self, u: int, v: int, x: int) -> bool:
        """True iff u reaches v in G - {x}; u,v must differ from x."""
        self._check(u, v, x)
        if x == u or x == v:
            raise DomainError(f"avoided vertex {x} coincides with an endpoint")
        return u == v or bool(self.comp1[x * self.n + u] >> v & 1)

    def connected_avoiding_pair(self, u: int, v: int, x: int, y: int) -> bool:
        """True iff u reaches v in G - {x,y}; {u,v} and {x,y} must be disjoint."""
        self._check(u, v, x, y)
        if x == y:
            raise DomainError("avoided pair must be two distinct vertices")
        if {u, v} & {x, y}:
            raise DomainError("avoided pair overlaps the endpoints")
        if x > y:
            x, y = y, x
        return u == v or bool(self.comp2[(x * self.n + y) * self.n + u] >> v & 1)

    def three_connected_pair(self, s: int, t: int) -> bool:
        """True iff s reaches t in G - {u,v} for every pair u,v outside {s,t}."""
        self._check(s, t)
        if s == t:
            raise DomainError("three_connected_pair needs two distinct vertices")
        n = self.n
        comp2 = self.comp2
        for x in range(n):
            if x == s or x == t:
                continue
            for y in range(x + 1, n):
                if y == s or y == t:
                    continue
                if not (comp2[(x * n + y) * n + s] >> t & 1):
                    return False
        return True
