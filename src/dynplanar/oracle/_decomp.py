"""Static BC/SPQR decomposition from the definitional formulas.

Independent of the engine's incremental module: blocks come from a
DFS-lowpoint pass, connectivity from the union-find kernel, component
vertex sets from a one-shot closure of each qualifying triple. Used for
differential testing and the CLI oracle subcommand.
"""
from __future__ import annotations

from dataclasses import dataclass

from ._orakern_py import pair_labels
from ._planar import OracleBudgetError, blocks_by_dfs

DECOMPOSITION_BUDGET = 20


@dataclass(frozen=True)
class OracleComp:
    name: tuple[int, int, int]
    kind: str  # "R" | "S"
    vertices: frozenset[int]
    real_edges: frozenset[tuple[int, int]]
    pairs: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class OracleBlock:
    name: tuple[int, int]
    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]
    pairs: frozenset[tuple[int, int]]
    comps: tuple[OracleComp, ...]


@dataclass(frozen=True)
class OracleDecomposition:
    n: int
    blocks: tuple[OracleBlock, ...]
    cut_vertices: frozenset[int]


class _Conn:
    """Connectivity lookups over the union-find label tables."""

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        self.n = n
        self.lab0, self.lab1, self.lab2 = pair_labels(n, edges)

    def conn(self, u: int, v: int) -> bool:
        return u == v or self.lab0[u] == self.lab0[v]

    def conn1(self, u: int, v: int, x: int) -> bool:
        n = self.n
        return u == v or self.lab1[x * n + u] == self.lab1[x * n + v]

    def conn2(self, u: int, v: int, x: int, y: int) -> bool:
        if x > y:
            x, y = y, x
        base = (x * self.n + y) * self.n
        return u == v or self.lab2[base + u] == self.lab2[base + v]


def _own_components(vertices: frozenset[int], edges, banned: frozenset[int]):
    """Connected components of the induced graph minus `banned` (local BFS)."""
    adj: dict[int, list[int]] = {v: [] for v in vertices if v not in banned}
    for u, v in edges:
        if u in adj and v in adj:
            adj[u].append(v)
            adj[v].append(u)
    seen: set[int] = set()
    comps = []
    for s in sorted(adj):
        if s in seen:
            continue
        comp = {s}
        queue = [s]
        while queue:
            x = queue.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        comps.append(comp)
    return comps


def _three_connected_graph(vertices: frozenset[int], edges) -> bool:
    """3-connectedness of a small graph given explicitly (definitional)."""
    if len(vertices) < 4:
        return False
    if len(_own_components(vertices, edges, frozenset())) != 1:
        return False
    for x in sorted(vertices):
        if len(_own_components(vertices, edges, frozenset((x,)))) != 1:
            return False
        for y in sorted(vertices):
            if y <= x:
                continue
            if len(_own_components(vertices, edges, frozenset((x, y)))) != 1:
                return False
    return True


def _is_cycle_graph(vertices: frozenset[int], edges) -> bool:
    deg: dict[int, int] = {v: 0 for v in vertices}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return (all(d == 2 for d in deg.values())
            and len(edges) == len(vertices)
            and len(_own_components(vertices, edges, frozenset())) == 1)


def static_decomposition(n: int, edges) -> OracleDecomposition:
    """Cut vertices, blocks, separating pairs, and triconnected components."""
    edges = sorted({(min(u, v), max(u, v)) for (u, v) in edges})
    active = {v for e in edges for v in e}
    if len(active) > DECOMPOSITION_BUDGET:
        raise OracleBudgetError(
            f"{len(active)} active vertices exceed the oracle budget "
            f"({DECOMPOSITION_BUDGET})")
    conn = _Conn(n, edges)

    block_edge_lists = blocks_by_dfs(edges)
    block_vertex_sets = [frozenset(v for e in blk for v in e)
                         for blk in block_edge_lists]
    in_blocks: dict[int, int] = {}
    for vs in block_vertex_sets:
        for v in vs:
            in_blocks[v] = in_blocks.get(v, 0) + 1
    cut_vertices = frozenset(v for v, k in in_blocks.items() if k >= 2)

    # 3-connected separating pairs (definitional Menger form + witness)
    all_pairs: list[tuple[int, int]] = []
    others = sorted(active)
    for vs in block_vertex_sets:
        for s in sorted(vs):
            for t in sorted(vs):
                if t <= s:
                    continue
                three = True
                for i, x in enumerate(others):
                    if x in (s, t) or not three:
                        continue
                    for y in others[i + 1:]:
                        if y in (s, t):
                            continue
                        if not conn.conn2(s, t, x, y):
                            three = False
                            break
                if not three:
                    continue
                witness = False
                for i, u in enumerate(others):
                    if u in (s, t) or witness:
                        continue
                    for v in others[i + 1:]:
                        if v in (s, t):
                            continue
                        if (conn.conn(u, v) and conn.conn1(u, v, s)
                                and conn.conn1(u, v, t)
                                and not conn.conn2(u, v, s, t)):
                            witness = True
                            break
                if witness:
                    all_pairs.append((s, t))

    pair_set = set(all_pairs)

    def triple_passes(a: int, b: int, c: int) -> bool:
        for s, t in all_pairs:
            survivors = [w for w in (a, b, c) if w != s and w != t]
            for i in range(len(survivors)):
                for j in range(i + 1, len(survivors)):
                    if not conn.conn2(survivors[i], survivors[j], s, t):
                        return False
        return True

    blocks = []
    for blk_edges, vs in zip(block_edge_lists, block_vertex_sets):
        bname = tuple(sorted(vs)[:2])
        bpairs = frozenset(p for p in all_pairs if p[0] in vs and p[1] in vs)
        comps: list[OracleComp] = []
        comp_sets: list[frozenset[int]] = []
        svs = sorted(vs)
        passing: list[tuple[int, int, int]] = []
        for i, a in enumerate(svs):
            for j in range(i + 1, len(svs)):
                for k in range(j + 1, len(svs)):
                    b, c = svs[j], svs[k]
                    if triple_passes(a, b, c):
                        passing.append((a, b, c))
        for tri in passing:
            if any(set(tri) <= w for w in comp_sets):
                continue
            a, b, c = tri
            w = set(tri)
            for x in svs:
                if x in w:
                    continue
                if (triple_passes(a, b, x) and triple_passes(a, c, x)
                        and triple_passes(b, c, x)):
                    w.add(x)
            sw = sorted(w)
            for i in range(len(sw)):
                for j in range(i + 1, len(sw)):
                    for k in range(j + 1, len(sw)):
                        assert triple_passes(sw[i], sw[j], sw[k]), \
                            f"closure of {tri} is not triple-closed"
            comp_sets.append(frozenset(w))
        for tri in passing:
            assert sum(1 for w in comp_sets if set(tri) <= w) == 1, \
                f"triple {tri} not in exactly one component"
        for w in comp_sets:
            cpairs = frozenset(p for p in bpairs if p[0] in w and p[1] in w)
            creal = frozenset(e for e in blk_edges
                              if e[0] in w and e[1] in w and e not in pair_set)
            cedges = set(creal) | set(cpairs)
            if _three_connected_graph(w, cedges):
                kind = "R"
            else:
                assert _is_cycle_graph(w, cedges), \
                    f"component {sorted(w)} neither 3-connected nor a cycle"
                kind = "S"
            comps.append(OracleComp(tuple(sorted(w)[:3]), kind, w, creal, cpairs))
        if len(vs) >= 3:
            assert set().union(*(c.vertices for c in comps)) == set(vs)
        comps.sort(key=lambda c: c.name)
        blocks.append(OracleBlock(bname, vs, frozenset(blk_edges), bpairs,
                                  tuple(comps)))
    blocks.sort(key=lambda b: b.name)
    return OracleDecomposition(n, tuple(blocks), cut_vertices)


# ---------------------------------------------------------------------------
# canonical dump (format twin of the engine's; no shared code)

def dump_decomposition(dec: OracleDecomposition) -> str:
    lines = ["bc-tree"]
    node_lines = [f"node B({b.name[0]},{b.name[1]})" for b in dec.blocks]
    node_lines += [f"node C({v})" for v in dec.cut_vertices]
    lines += sorted(node_lines)
    edge_lines = []
    for b in dec.blocks:
        for v in dec.cut_vertices:
            if v in b.vertices:
                edge_lines.append(f"edge B({b.name[0]},{b.name[1]}) C({v})")
    lines += sorted(edge_lines)
    sections = []
    for b in dec.blocks:
        if not b.comps:
            continue
        sec = [f"spqr-tree B({b.name[0]},{b.name[1]})"]
        node_lines = [f"node P({s},{t})" for (s, t) in b.pairs]
        node_lines += [f"node {c.kind}({c.name[0]},{c.name[1]},{c.name[2]})"
                       for c in b.comps]
        sec += sorted(node_lines)
        edge_lines = []
        for c in b.comps:
            for (s, t) in c.pairs:
                edge_lines.append(
                    f"edge P({s},{t}) {c.kind}({c.name[0]},{c.name[1]},{c.name[2]})")
        sec += sorted(edge_lines)
        sections.append(sec)
    sections.sort(key=lambda sec: sec[0])
    for sec in sections:
        lines += sec
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# tree-path helpers (for differential tests of betweenness/paths)

def spqr_nodes_and_edges(block: OracleBlock):
    nodes = [("P", p) for p in sorted(block.pairs)]
    nodes += [(c.kind, c.name) for c in block.comps]
    edges = []
    for c in block.comps:
        for p in sorted(c.pairs):
            edges.append((("P", p), (c.kind, c.name)))
    return nodes, edges


def tree_path(nodes, edges, a, b):
    """Unique path between nodes a and b of a tree; None if disconnected."""
    adj: dict = {x: [] for x in nodes}
    for x, y in edges:
        adj[x].append(y)
        adj[y].append(x)
    prev = {a: None}
    queue = [a]
    while queue:
        nxt = []
        for x in queue:
            for y in adj[x]:
                if y not in prev:
                    prev[y] = x
                    nxt.append(y)
        queue = nxt
    if b not in prev:
        return None
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    path.reverse()
    return path
