"""Certificate of a BC/SPQR decomposition, at any size.

The split into triconnected components is unique once every S
component is a cycle, every R component is triconnected and no two S
components share a virtual edge that nothing else holds (Hopcroft and
Tarjan 1973). A decomposition whose parts pass the checks below is
therefore the graph's one decomposition, and its dump is pinned, with
no budget on the graph's size (McConnell, Mehlhorn, Naeher and
Schweitzer, "Certifying algorithms", 2011). The checks:

  - the blocks and cut vertices are those of a lowpoint DFS;
  - every S component is a cycle;
  - every R component has four or more vertices and stays connected
    without any two of them;
  - every real edge of a block lies in exactly one of its components,
    or is a pair and lies in none;
  - the component-pair graph is a tree, and the nodes holding any one
    vertex form a subtree of it, so the components 2-sum back into
    the block;
  - every pair is held by two or more components, and a pair that two
    cycles alone hold is also a real edge;
  - the names are the least vertices, and the dump lists these parts.

It reads the state's parts as plain data and shares no code with the
engine.
"""
from __future__ import annotations

from collections import Counter

from ._decomp import dump_decomposition


def _adjacency(edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def _dfs(adj, skip=None):
    """Blocks (edge sets), cut vertices and tree count of the graph adj,
    less the vertex `skip`, from one lowpoint search."""
    order: dict[int, int] = {}
    low: dict[int, int] = {}
    blocks: list[set] = []
    cuts: set[int] = set()
    trees = 0
    for root in sorted(adj):
        if root == skip or root in order:
            continue
        trees += 1
        order[root] = low[root] = len(order)
        kids = 0
        pending: list[tuple[int, int]] = []
        stack = [(root, None, iter(sorted(adj[root])))]
        while stack:
            x, parent, rest = stack[-1]
            child = None
            for y in rest:
                if y == skip or y == parent:
                    continue
                if y in order:
                    if order[y] < order[x]:
                        pending.append((x, y))
                        low[x] = min(low[x], order[y])
                    continue
                child = y
                break
            if child is not None:
                order[child] = low[child] = len(order)
                pending.append((x, child))
                stack.append((child, x, iter(sorted(adj[child]))))
                continue
            stack.pop()
            if parent is None:
                continue
            low[parent] = min(low[parent], low[x])
            if low[x] >= order[parent]:
                blk = set()
                while True:
                    u, v = pending.pop()
                    blk.add((min(u, v), max(u, v)))
                    if (u, v) == (parent, x):
                        break
                blocks.append(blk)
                if parent == root:
                    kids += 1
                else:
                    cuts.add(parent)
        if kids >= 2:
            cuts.add(root)
    return blocks, cuts, trees


def _is_cycle(vertices, edges) -> bool:
    adj = _adjacency(edges)
    return len(edges) == len(vertices) >= 3 and \
        all(len(ws) == 2 for ws in adj.values()) and _dfs(adj)[2] == 1


def _is_triconnected(vertices, edges) -> bool:
    """Four or more vertices, and connected less any two: no vertex
    leaves a cut vertex behind or disconnects the rest."""
    if len(vertices) < 4:
        return False
    adj = _adjacency(edges)
    for x in sorted(vertices):
        _, cuts, trees = _dfs(adj, skip=x)
        if cuts or trees != 1:
            return False
    return True


def _connected(nodes, links) -> bool:
    """Is the graph on `nodes` with edges `links` connected?"""
    nodes = set(nodes)
    if not nodes:
        return True
    adj = {nd: [] for nd in nodes}
    for a, b in links:
        adj[a].append(b)
        adj[b].append(a)
    start = next(iter(nodes))
    seen, stack = {start}, [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen == nodes


def _certify_block(blk, edges, out: list[str]) -> None:
    label = f"block B({blk.name[0]},{blk.name[1]})"
    verts = {x for e in blk.edges for x in e}
    if set(blk.vertices) != verts or \
            tuple(blk.name) != tuple(sorted(verts)[:2]):
        out.append(f"certificate: {label} has other vertices or name "
                   "than its edges give")
    if len(verts) == 2:
        if blk.comps or blk.pairs:
            out.append(f"certificate: bridge {label} holds components")
        return
    comps = list(blk.comps)
    if not comps:
        out.append(f"certificate: {label} holds no component")
        return

    holders: Counter = Counter()
    for c in comps:
        clabel = f"{c.kind}({','.join(map(str, c.name))}) of {label}"
        cedges = set(c.real_edges) | set(c.pairs)
        cverts = {x for e in cedges for x in e}
        holders.update(c.real_edges)
        if set(c.vertices) != cverts or \
                tuple(c.name) != tuple(sorted(cverts)[:3]):
            out.append(f"certificate: {clabel} has other vertices or name "
                       "than its edges give")
        if set(c.real_edges) & set(c.pairs) or \
                not set(c.pairs) <= set(blk.pairs):
            out.append(f"certificate: {clabel} holds a pair that is no "
                       "virtual edge of its block")
        if c.kind == "S":
            if not _is_cycle(cverts, cedges):
                out.append(f"certificate: {clabel} is not a cycle")
        elif c.kind == "R":
            if not _is_triconnected(cverts, cedges):
                out.append(f"certificate: {clabel} is not triconnected")
        else:
            out.append(f"certificate: {clabel} is neither S nor R")

    for e in sorted(set(blk.edges) | set(holders)):
        want = 0 if e in blk.pairs else 1
        if e not in blk.edges or holders[e] != want:
            out.append(f"certificate: real edge {e} lies in {holders[e]} "
                       f"components of {label}")
    for p in sorted(blk.pairs):
        held = [c for c in comps if p in c.pairs]
        if len(held) < 2:
            out.append(f"certificate: pair {p} of {label} is held by "
                       f"{len(held)} components")
        elif len(held) == 2 and p not in edges and \
                all(c.kind == "S" for c in held):
            out.append(f"certificate: pair {p} of {label} joins two "
                       "cycles alone")

    nodes = [("C", c.name) for c in comps] + [("P", p) for p in blk.pairs]
    links = [(("C", c.name), ("P", p)) for c in comps for p in c.pairs
             if p in blk.pairs]
    if len(set(nodes)) != len(nodes) or len(links) != len(nodes) - 1 or \
            not _connected(nodes, links):
        out.append(f"certificate: the components and pairs of {label} "
                   "form no tree")
        return
    for x in sorted(verts):
        here = {("C", c.name) for c in comps if x in c.vertices} | \
            {("P", p) for p in blk.pairs if x in p}
        if not here or not _connected(
                here, [lk for lk in links if lk[0] in here and lk[1] in here]):
            out.append(f"certificate: the nodes of {label} holding {x} "
                       "form no subtree")


def certify_decomposition(n: int, edges, state) -> list[str]:
    """Faults found in the decomposition `state` of the graph on 0..n-1
    with `edges`; an empty list certifies it.

    `state` is read as data: `blocks` (each with `name`, `vertices`,
    `edges`, `pairs` and `comps`, each of those with `name`, `kind`,
    `vertices`, `real_edges` and `pairs`), `cut_vertices` and `dump()`.
    """
    edges = {(u, v) if u < v else (v, u) for u, v in edges}
    out: list[str] = []
    if any(not 0 <= x < n for e in edges for x in e):
        out.append(f"certificate: an edge leaves the domain 0..{n - 1}")
    dfs_blocks, dfs_cuts, _ = _dfs(_adjacency(edges))
    want = {frozenset(b) for b in dfs_blocks}
    got = [frozenset(blk.edges) for blk in state.blocks]
    for blk in state.blocks:
        if frozenset(blk.edges) not in want:
            out.append(f"certificate: block B({blk.name[0]},{blk.name[1]})"
                       " is no block of the graph")
    for b in sorted(want - set(got), key=sorted):
        out.append(f"certificate: no block holds the block {sorted(b)}")
    if len(got) != len(set(got)):
        out.append("certificate: a block is listed twice")
    if set(state.cut_vertices) != dfs_cuts:
        out.append(f"certificate: cut vertices {sorted(state.cut_vertices)} "
                   f"are not the DFS's {sorted(dfs_cuts)}")
    for blk in state.blocks:
        _certify_block(blk, edges, out)
    if state.dump() != dump_decomposition(state):
        out.append("certificate: the dump does not list the certified parts")
    return out
