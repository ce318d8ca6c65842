"""Oracle kernel: component labels by union-find.

Written independently of the engine's connectivity code (different
algorithm and representation) to preserve differential-testing
independence.
"""
from __future__ import annotations


def _labels(n: int, edges: list[tuple[int, int]], avoid: tuple[int, ...]) -> list[int]:
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        if u in avoid or v in avoid:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
    out = [find(v) for v in range(n)]
    for a in avoid:
        out[a] = -1
    return out


def pair_labels(n: int, edges: list[tuple[int, int]]):
    """Component labels for G, G-{x}, and G-{x,y} with x < y.

    lab0[v], lab1[x*n + v], lab2[(x*n+y)*n + v]; avoided slots hold -1.
    Two vertices are connected iff their labels are equal and not -1.
    """
    lab0 = _labels(n, edges, ())
    lab1 = [0] * (n * n)
    for x in range(n):
        lab1[x * n:(x + 1) * n] = _labels(n, edges, (x,))
    lab2 = [0] * (n * n * n)
    for x in range(n):
        for y in range(x + 1, n):
            base = (x * n + y) * n
            lab2[base:base + n] = _labels(n, edges, (x, y))
    return lab0, lab1, lab2
