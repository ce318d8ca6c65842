"""The quadratic block builder that the linear path search replaced, kept
as the reference the tests compare the engine's builder with.

A separating pair {s,t} of a block is found as t being a cut vertex of
the block less s, and kept when no two other vertices separate it (s and
t adjacent, three or more pieces, or a piece with two disjoint s-t
paths). Splitting the vertex set at every pair leaves the triconnected
components' vertex sets, each a cycle (S) exactly when it has as many
edges, real and virtual, as vertices, and rigid (R) otherwise.
"""
from __future__ import annotations

from dynplanar.decomposition import (
    Block,
    TriComp,
    _adjacency,
    _components,
    _spqr_tree,
)


def cut_vertices(adj, vertices, x):
    """Cut vertices and DFS-tree count of the graph adj induces on
    `vertices` less x (x need not be a vertex).

    A lowpoint search that keeps no edge stack; x is marked seen at a
    number no lowpoint can take, so no copy of `vertices` leaves it out.
    Nor does it skip the edge to a vertex's DFS parent p: that edge
    lowers the lowpoint to p's number at most, which still marks p as a
    cut vertex.
    """
    disc: dict = {x: len(vertices)}
    low: dict = {}
    cuts: set = set()
    trees = count = 0
    for root in vertices:
        if root in disc:
            continue
        trees += 1
        disc[root] = low[root] = count
        count += 1
        root_kids = 0
        stack = [(root, iter(adj[root]))]
        while stack:
            v, nbrs = stack[-1]
            for w in nbrs:
                if w not in disc:
                    if w in vertices:
                        disc[w] = low[w] = count
                        count += 1
                        stack.append((w, iter(adj[w])))
                        break
                elif disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if not stack:
                    continue
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    if p == root:
                        root_kids += 1
                    else:
                        cuts.add(p)
        if root_kids >= 2:
            cuts.add(root)
    return cuts, trees


def block_pairs(vertices, edges, adj) -> dict:
    """Separating pairs of a block, each with the vertex sets of the
    pieces its removal leaves. A pair needs three disjoint s-t paths or
    an edge s-t plus two pieces, so both its vertices have degree three
    or more in the block."""
    found: dict = {}
    branch = sorted(v for v in vertices if len(adj[v]) >= 3)
    for i, s in enumerate(branch[:-1]):
        cuts, _ = cut_vertices(adj, vertices, s)
        for t in branch[i + 1:]:
            if t not in cuts:
                continue
            parts = _components(adj, vertices, (s, t))
            if (s, t) in edges or len(parts) >= 3 or any(
                    not cut_vertices(adj, part | {s, t}, None)[0]
                    for part in parts):
                found[(s, t)] = parts
    return found


def reference_block(edges: frozenset) -> Block:
    """The block of a biconnected edge set, built by splitting its vertex
    set at every separating pair."""
    vset = frozenset(x for e in edges for x in e)
    svs = sorted(vset)
    name = (svs[0], svs[1])
    if len(svs) < 3:
        return Block(name, vset, edges, frozenset(), (), {})
    adj = _adjacency(vset, edges)
    found = block_pairs(vset, edges, adj)
    pairs = frozenset(found)
    sets = [vset]
    for (s, t), parts in found.items():
        nxt = []
        for w in sets:
            if s in w and t in w:
                groups = [part & w for part in parts if part & w]
                if len(groups) >= 2:
                    nxt += [frozenset(g | {s, t}) for g in groups]
                    continue
            nxt.append(w)
        sets = nxt
    comps = []
    for w in sets:
        cpairs = frozenset(p for p in pairs if p[0] in w and p[1] in w)
        creal = frozenset(e for e in edges if e[0] in w and e[1] in w
                          and e not in pairs)
        kind = "S" if len(creal) + len(cpairs) == len(w) else "R"
        comps.append(TriComp(tuple(sorted(w)[:3]), kind, w, creal, cpairs))
    comps.sort(key=lambda c: c.name)
    return Block(name, vset, edges, pairs, tuple(comps), _spqr_tree(comps))

