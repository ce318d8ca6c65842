"""Two graphs that dump tests churn: a chain of small blocks and a
triangulated grid.

The chain has seven blocks over 0..41: a wheel with a rim of 6, a cycle
of 5, two wheels with rims of 4 glued along a rim edge, a wheel with a
rim of 5, a cycle of 6, another glued pair and a cycle of 5. Block i
hangs off block i-1 by a bridge when i is odd and at a shared cut
vertex when i is even, so a change inside one block leaves six others,
and the glued pairs hold a separating pair and a stored coherent path.
"""
from __future__ import annotations

Edge = tuple[int, int]


def wheel(hub: int, rim: list[int]) -> list[Edge]:
    return [(hub, r) for r in rim] + \
        [(r, rim[(i + 1) % len(rim)]) for i, r in enumerate(rim)]


def cycle(k: int) -> list[Edge]:
    return [(i, (i + 1) % k) for i in range(k)]


def glued(k: int) -> list[Edge]:
    """Wheels on hubs k and k+1 whose rims of k share the edge 0-1."""
    return wheel(k, list(range(k))) + \
        wheel(k + 1, [0, 1] + list(range(k + 2, 2 * k)))


# each block's edges and one spoke of each wheel it holds, which no other
# block meets
SHAPES = ((wheel(0, list(range(1, 7))), [(0, 3)]), (cycle(5), []),
          (glued(4), [(4, 2), (5, 6)]),
          (wheel(0, list(range(1, 6))), [(0, 3)]), (cycle(6), []),
          (glued(4), [(4, 2), (5, 6)]), (cycle(5), []))


def _labelled():
    """Each block's shape, local spokes and names (local vertex to chain
    vertex), and the bridges between blocks. Local vertex 1 of each
    block is where it meets the block before it; the last local vertex
    is where the next block meets it."""
    blocks = []
    bridges: list[Edge] = []
    fresh, anchor = 0, None
    for i, (shape, local_spokes) in enumerate(SHAPES):
        size = 1 + max(x for e in shape for x in e)
        names = {}
        for x in range(size):
            if i % 2 == 0 and i > 0 and x == 1:
                names[x] = anchor
            else:
                names[x], fresh = fresh, fresh + 1
        blocks.append((shape, local_spokes, names))
        if i % 2 == 1:
            bridges.append((anchor, names[1]))
        anchor = names[size - 1]
    assert fresh == 42, fresh
    return blocks, bridges


def block_chain() -> tuple[list[Edge], list[Edge]]:
    """The chain's edges and its wheels' spokes."""
    edges: list[Edge] = []
    spokes: list[Edge] = []
    blocks, bridges = _labelled()
    for i, (shape, local_spokes, names) in enumerate(blocks):
        edges += sorted({tuple(sorted((names[u], names[v])))
                         for u, v in shape})
        spokes += [(names[u], names[v]) for u, v in local_spokes]
        if i % 2 == 1:
            edges.append(bridges[i // 2])
    return edges, spokes


def chain_toggles() -> dict[str, list[Edge]]:
    """Edges whose delete and re-insert, or insert and delete, churn one
    block of the chain, by kind: the wheels' spokes; their rim edges and
    the cycles' edges; the glued pairs' shared edges, each a real edge
    at a separating pair (a bundle edge); and the chords of the cycles,
    each of which splits its cycle component in two."""
    out: dict[str, list[Edge]] = {"spoke": [], "rim": [], "shared": [],
                                  "chord": []}
    for shape, local_spokes, names in _labelled()[0]:
        def named(u, v):
            return tuple(sorted((names[u], names[v])))
        out["spoke"] += [named(u, v) for u, v in local_spokes]
        if not local_spokes:  # a cycle of k vertices, 0..k-1
            k = len(shape)
            out["rim"] += [named(u, v) for u, v in shape]
            out["chord"] += [named(u, v) for u in range(k)
                             for v in range(u + 2, k) if (u, v) != (0, k - 1)]
            continue
        hubs = {u for u, _ in local_spokes}
        out["rim"] += [named(u, v) for u, v in shape
                       if u not in hubs and v not in hubs and {u, v} != {0, 1}]
        if len(hubs) == 2:
            out["shared"].append(named(0, 1))
    return out


def triangulated_grid(rows: int, cols: int) -> list[Edge]:
    """A rows x cols grid, vertex i*cols+j at row i and column j, with
    (+1, +1) diagonals."""
    return [(i * cols + j, (i + di) * cols + j + dj)
            for i in range(rows) for j in range(cols)
            for di, dj in ((0, 1), (1, 0), (1, 1))
            if i + di < rows and j + dj < cols]
