"""BC-tree and SPQR-tree state, a pure function of the current edge set.

Blocks and cut vertices come from one Hopcroft-Tarjan lowpoint search.
Inside a block, a separating pair is a vertex pair {s,t} whose removal
disconnects the block and that no two other vertices separate (s and t
adjacent, or three vertex-disjoint s-t paths): exactly the vertex pairs
of the virtual edges of the block's SPQR tree. Splitting the block's
vertex set at every such pair leaves its triconnected components, each
checked to be a cycle (S) or triconnected (R). Canonical names make the
dump byte-stable, so two states over the same edge set dump identically.

A block's pairs and components depend only on the block's own edges, so
a state built from a predecessor takes every block whose edge set is
unchanged from it as it is, and the kind of every component whose
content is unchanged. When the two edge sets differ in one edge that
lies inside one rigid component of its block and is no pair there, the
new block is derived from the old one: an edge inside one rigid
skeleton leaves the SPQR tree's shape alone (Di Battista and Tamassia),
so only that component gains or loses the edge, a deletion provided the
component stays triconnected. Every other new block is built from its
edges. Cut vertices alone come from a lowpoint search that collects no
blocks.

Node references used by the path operations:

    BC   nodes: ("B", (a, b))  block   /  ("C", v)      cut vertex
    SPQR nodes: ("P", (s, t))  pair    /  ("S"|"R", (x, y, z)) component
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .graph_core import DomainError, Edge, GraphError, Vertex, canonical_edge

BlockName = tuple[int, int]
TriName = tuple[int, int, int]
BCNode = tuple  # ("B", BlockName) | ("C", Vertex)
SpqrNode = tuple  # ("P", Edge) | (kind, TriName)


# ---------------------------------------------------------------- node data

@dataclass(frozen=True)
class TriComp:
    """One triconnected component of a block."""

    name: TriName
    kind: str  # "R" (rigid) or "S" (cycle)
    vertices: frozenset[Vertex]
    real_edges: frozenset[Edge]
    pairs: frozenset[Edge]

    def content_key(self) -> tuple:
        return (self.vertices, self.real_edges, self.pairs)


@dataclass(frozen=True)
class Block:
    """One biconnected component (a bridge counts as its own block).

    `tree` is the block's SPQR tree: each node maps to its neighbours,
    P-nodes to the components holding their pair and components to the
    P-nodes of their pairs, both in node order. A bridge has no tree.
    """

    name: BlockName
    vertices: frozenset[Vertex]
    edges: frozenset[Edge]
    pairs: frozenset[Edge]
    comps: tuple[TriComp, ...]
    tree: dict[SpqrNode, tuple[SpqrNode, ...]] = field(
        compare=False, repr=False)

    @property
    def is_bridge(self) -> bool:
        return len(self.vertices) == 2


# ---------------------------------------------------------- local searches

def _lowpoint(adj, allowed):
    """Blocks and cut vertices of the graph adj induces on `allowed`.

    One Hopcroft-Tarjan lowpoint DFS. Returns (blocks, cuts, trees):
    each block is the list of its edges as DFS-oriented pairs, cuts is
    the set of cut vertices and trees the number of DFS trees, so the
    induced graph is connected exactly when trees == 1.
    """
    disc: dict[Vertex, int] = {}
    low: dict[Vertex, int] = {}
    blocks: list[list[Edge]] = []
    cuts: set[Vertex] = set()
    trees = 0
    for root in allowed:
        if root in disc:
            continue
        trees += 1
        disc[root] = low[root] = len(disc)
        root_kids = 0
        edge_stack: list[Edge] = []
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, nbrs = stack[-1]
            for w in nbrs:
                if w not in allowed:
                    continue
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    edge_stack.append((v, w))
                    stack.append((w, v, iter(adj[w])))
                    break
                if w != parent and disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if not stack:
                    continue
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    blk = []
                    while True:
                        e = edge_stack.pop()
                        blk.append(e)
                        if e == (p, v):
                            break
                    blocks.append(blk)
                    if p == root:
                        root_kids += 1
                    else:
                        cuts.add(p)
        if root_kids >= 2:
            cuts.add(root)
    return blocks, cuts, trees


def _cut_vertices(adj, vertices, x):
    """Cut vertices and DFS-tree count of the graph adj induces on
    `vertices` less x (x need not be a vertex).

    `_lowpoint`'s search for callers that read no blocks: it keeps no
    edge stack, and x is marked seen at a number no lowpoint can take,
    so no copy of `vertices` leaves it out. Nor does it skip the edge to
    a vertex's DFS parent p: that edge lowers the lowpoint to p's
    number at most, which still marks p as a cut vertex.
    """
    disc: dict = {x: len(vertices)}
    low: dict[Vertex, int] = {}
    cuts: set[Vertex] = set()
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


def _components(adj, vertices, banned=()):
    """Vertex sets of the components adj induces on vertices - banned."""
    seen = set(banned)
    out: list[set[Vertex]] = []
    for s in vertices:
        if s in seen:
            continue
        seen.add(s)
        comp = {s}
        stack = [s]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        out.append(comp)
    return out


def _adjacency(vertices, edges) -> dict[Vertex, set[Vertex]]:
    adj: dict[Vertex, set[Vertex]] = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _graph_three_connected(vertices, adj) -> bool:
    """Four or more vertices, and no one or two of them separate the rest."""
    if len(vertices) < 4:
        return False
    for x in vertices:
        cuts, trees = _cut_vertices(adj, vertices, x)
        if cuts or trees != 1:
            return False
    return True


def _graph_is_cycle(vertices, edges, adj) -> bool:
    return (len(edges) == len(vertices)
            and all(len(adj[v]) == 2 for v in vertices)
            and len(_components(adj, vertices)) == 1)


def _block_pairs(vertices, edges, adj) -> dict[Edge, list[set[Vertex]]]:
    """Separating pairs of a block, each with the vertex sets of the
    pieces its removal leaves.

    {s,t} separates the block when t is a cut vertex of the block minus
    s. Each piece attaches to both s and t, and together with s, t and a
    virtual edge s-t forms a biconnected graph, so a piece carries two
    disjoint s-t paths exactly when it has no cut vertex with s and t.
    A pair needs three disjoint s-t paths or an edge s-t plus two pieces,
    so both its vertices have degree three or more in the block.
    """
    found: dict[Edge, list[set[Vertex]]] = {}
    branch = sorted(v for v in vertices if len(adj[v]) >= 3)
    for i, s in enumerate(branch[:-1]):
        cuts, _ = _cut_vertices(adj, vertices, s)
        for t in branch[i + 1:]:
            if t not in cuts:
                continue
            parts = _components(adj, vertices, (s, t))
            if (s, t) in edges or len(parts) >= 3 or any(
                    not _cut_vertices(adj, part | {s, t}, None)[0]
                    for part in parts):
                found[(s, t)] = parts
    return found


def _make_block(edges: frozenset[Edge], kinds: dict) -> Block:
    """One block from its edge set; `kinds` maps component content keys
    to kinds already known, which are taken as they are."""
    vset = frozenset(x for e in edges for x in e)
    svs = sorted(vset)
    name = (svs[0], svs[1])
    if len(svs) < 3:
        return Block(name, vset, edges, frozenset(), (), {})
    adj = _adjacency(vset, edges)
    found = _block_pairs(vset, edges, adj)
    pairs = frozenset(found)

    # split the vertex set at every pair into the components' vertex sets
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

    comps: list[TriComp] = []
    for w in sets:
        cpairs = frozenset(p for p in pairs if p[0] in w and p[1] in w)
        creal = frozenset(e for e in edges if e[0] in w and e[1] in w
                          and e not in pairs)
        kind = kinds.get((w, creal, cpairs))
        if kind is None:
            cedges = creal | cpairs
            cadj = _adjacency(w, cedges)
            if _graph_is_cycle(w, cedges, cadj):
                kind = "S"
            else:
                assert _graph_three_connected(w, cadj), \
                    f"component {sorted(w)} neither rigid nor a cycle"
                kind = "R"
        comps.append(TriComp(tuple(sorted(w)[:3]), kind, w, creal, cpairs))
    comps.sort(key=lambda c: c.name)
    return Block(name, vset, edges, pairs, tuple(comps), _spqr_tree(comps))


def _derived_block(old: DecompositionState, eset: frozenset[Edge]
                   ) -> Block | None:
    """The block of `eset` that holds the one edge by which `eset` and
    `old.edges` differ, derived from its predecessor B; None when they
    differ in other than one edge or B's SPQR tree may change shape.

    The edge u-v must lie inside one rigid component C of B and be no
    pair of B. An insertion then keeps every pair (an edge inside one
    rigid skeleton leaves the SPQR tree's shape alone), and so does a
    deletion after which C stays triconnected; C alone gains or loses
    the edge, and B's name, pairs, other components and tree are kept.
    """
    diff = eset ^ old.edges
    if len(diff) != 1:
        return None
    (e,) = diff
    u, v = e
    blk = old._shared_block(u, v)
    if blk is None or e in blk.pairs:
        return None
    comp = next((c for c in blk.comps if c.kind == "R"
                 and u in c.vertices and v in c.vertices), None)
    if comp is None:
        return None
    assert e in eset or e in comp.real_edges, "deleted edge is not real"
    real = comp.real_edges ^ diff
    # an added edge cannot lower C's connectivity, so only a deletion asks
    if e not in eset and not _graph_three_connected(
            comp.vertices, _adjacency(comp.vertices, real | comp.pairs)):
        return None
    comps = tuple(TriComp(c.name, "R", c.vertices, real, c.pairs)
                  if c is comp else c for c in blk.comps)
    return Block(blk.name, blk.vertices, blk.edges ^ diff, blk.pairs, comps,
                 blk.tree)


def _spqr_tree(comps) -> dict[SpqrNode, tuple[SpqrNode, ...]]:
    """Adjacency of the SPQR tree whose components are `comps`."""
    tree: dict[SpqrNode, list[SpqrNode]] = {}
    for c in sorted(comps, key=lambda c: (c.kind, c.name)):
        cn: SpqrNode = (c.kind, c.name)
        tree[cn] = [("P", p) for p in sorted(c.pairs)]
        for pn in tree[cn]:
            tree.setdefault(pn, []).append(cn)
    return {nd: tuple(nbrs) for nd, nbrs in tree.items()}


# ------------------------------------------------------------- tree walking

def _tree_path(adj: dict, a, b):
    """Unique path a..b in a forest given by adjacency; None if separated."""
    if a not in adj or b not in adj:
        return None
    prev = {a: None}
    frontier = [a]
    while frontier and b not in prev:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in prev:
                    prev[y] = x
                    nxt.append(y)
        frontier = nxt
    if b not in prev:
        return None
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    path.reverse()
    return path


# --------------------------------------------------------------- main state

class DecompositionState:
    """Snapshot of blocks, cut vertices, pairs, and triconnected comps."""

    __slots__ = (
        "n", "edges", "blocks", "cut_vertices", "_comp_of",
        "_block_by_name", "_blocks_of_vertex", "_bc_adj", "_pairs",
    )

    def __init__(self, n: int, edges: frozenset[Edge],
                 blocks: tuple[Block, ...], cut_vertices: frozenset[Vertex],
                 comp_of: dict[Vertex, int]):
        self.n = n
        self.edges = edges
        self.blocks = blocks
        self.cut_vertices = cut_vertices
        self._comp_of = comp_of
        self._block_by_name = {b.name: b for b in blocks}
        self._blocks_of_vertex: dict[Vertex, list[Block]] = {}
        for b in blocks:
            for v in b.vertices:
                self._blocks_of_vertex.setdefault(v, []).append(b)
        self._bc_adj: dict[BCNode, list[BCNode]] = {}
        for b in blocks:
            bn: BCNode = ("B", b.name)
            self._bc_adj.setdefault(bn, [])
            for v in sorted(b.vertices & cut_vertices):
                cn: BCNode = ("C", v)
                self._bc_adj.setdefault(cn, [])
                self._bc_adj[bn].append(cn)
                self._bc_adj[cn].append(bn)
        self._pairs = frozenset().union(*(b.pairs for b in blocks))

    # ---------------------------------------------------------- construction

    @classmethod
    def from_edges(cls, n: int, edges,
                   carry_from: DecompositionState | None = None
                   ) -> DecompositionState:
        """State of an edge set. Blocks whose edge set `carry_from` holds
        are taken from it, and so are the kinds of components whose
        content it holds; everything else is built here."""
        eset = frozenset(canonical_edge(u, v) for (u, v) in edges)
        active = sorted({v for e in eset for v in e})
        adj = _adjacency(active, eset)
        comp_of = {v: i for i, c in enumerate(_components(adj, active))
                   for v in c}
        raw_blocks, cuts, _ = _lowpoint(adj, adj)

        known = {b.edges: b for b in carry_from.blocks} if carry_from else {}
        block_edges = [frozenset((u, v) if u < v else (v, u) for u, v in raw)
                       for raw in raw_blocks]
        kept = set(block_edges)
        derived = _derived_block(carry_from, eset) if carry_from else None
        if derived is not None:
            assert derived.edges in kept, "derived block is no block"
            known[derived.edges] = derived
        # a component lies in one block, so only a replaced block can
        # hold the content of a component built here
        kinds = {c.content_key(): c.kind
                 for bedges, b in known.items() if bedges not in kept
                 for c in b.comps}
        blocks = [known.get(bedges) or _make_block(bedges, kinds)
                  for bedges in block_edges]
        blocks.sort(key=lambda b: b.name)
        state = cls(n, eset, tuple(blocks), frozenset(cuts), comp_of)

        if __debug__:
            by_membership = {v for v in active
                             if len(state._blocks_of_vertex.get(v, [])) >= 2}
            assert by_membership == set(cuts), \
                "cut vertices disagree with block membership counts"
            for u, v in eset:
                inside = [b for b in state._blocks_of_vertex[u]
                          if v in b.vertices]
                assert len(inside) == 1 and (u, v) in inside[0].edges, \
                    f"edge {(u, v)} lies in other than exactly one block"
        return state

    def with_edge(self, u: Vertex, v: Vertex) -> DecompositionState:
        return DecompositionState.from_edges(
            self.n, self.edges | {canonical_edge(u, v)}, self)

    def without_edge(self, u: Vertex, v: Vertex) -> DecompositionState:
        return DecompositionState.from_edges(
            self.n, self.edges - {canonical_edge(u, v)}, self)

    def connected(self, u: Vertex, v: Vertex) -> bool:
        """True iff u and v lie in one component (u == u counts)."""
        self.check_vertex(u, v)
        cu = self._comp_of.get(u)
        return u == v or (cu is not None and cu == self._comp_of.get(v))

    # ------------------------------------------------------------ vertex ops

    def check_vertex(self, *vs: Vertex) -> None:
        for v in vs:
            if not isinstance(v, int) or isinstance(v, bool) \
                    or not 0 <= v < self.n:
                raise DomainError(f"vertex {v!r} outside domain [0,{self.n})")

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return canonical_edge(u, v) in self.edges

    def is_cut_vertex(self, w: Vertex) -> bool:
        self.check_vertex(w)
        return w in self.cut_vertices

    def _shared_block(self, u: Vertex, v: Vertex) -> Block | None:
        """The block holding both u and v (two blocks share at most one
        vertex), None when no block does."""
        for blk in self._blocks_of_vertex.get(u, ()):
            if v in blk.vertices:
                return blk
        return None

    def same_block(self, u: Vertex, v: Vertex) -> bool:
        self.check_vertex(u, v)
        if u == v:
            raise GraphError("same_block needs two distinct vertices")
        return self._shared_block(u, v) is not None

    def block_of(self, u: Vertex, v: Vertex) -> Block:
        self.check_vertex(u, v)
        blk = self._shared_block(u, v) if u != v else None
        if blk is None:
            raise GraphError(f"vertices {u} and {v} share no block")
        return blk

    def block(self, name: BlockName) -> Block:
        try:
            return self._block_by_name[name]
        except KeyError:
            raise GraphError(f"no block named {name}") from None

    # ------------------------------------------------------------- BC walks

    def bc_path_blocks(self, a: Vertex, b: Vertex):
        """Blocks B_0..B_r and chain vertices w_0=a,..,w_{r+1}=b between
        two connected vertices: consecutive chain vertices share B_i."""
        self.check_vertex(a, b)
        if a == b or not self.connected(a, b):
            raise GraphError(f"vertices {a} and {b} must differ and connect")
        start: BCNode = ("C", a) if a in self.cut_vertices \
            else ("B", self._blocks_of_vertex[a][0].name)
        goal: BCNode = ("C", b) if b in self.cut_vertices \
            else ("B", self._blocks_of_vertex[b][0].name)
        path = _tree_path(self._bc_adj, start, goal)
        assert path is not None, "connected vertices share a BC tree"
        blocks = [self._block_by_name[x[1]] for x in path if x[0] == "B"]
        chain = [a] + [x[1] for x in path if x[0] == "C" and x[1] not in (a, b)]
        chain.append(b)
        assert len(chain) == len(blocks) + 1
        for i, blk in enumerate(blocks):
            assert chain[i] in blk.vertices and chain[i + 1] in blk.vertices
        return blocks, chain

    # ------------------------------------------------------------ SPQR walks

    def is_separating_pair(self, s: Vertex, t: Vertex) -> bool:
        self.check_vertex(s, t)
        if s == t:
            raise GraphError("is_separating_pair needs two distinct vertices")
        p = (s, t) if s < t else (t, s)
        return p in self._pairs

    def same_tricomp(self, a: Vertex, b: Vertex, c: Vertex):
        """Canonical (name, kind) of the common component, else None."""
        self.check_vertex(a, b, c)
        if len({a, b, c}) != 3:
            raise GraphError("same_tricomp needs three distinct vertices")
        blk = self._shared_block(a, b)
        if blk is not None:
            for comp in blk.comps:
                if a in comp.vertices and b in comp.vertices \
                        and c in comp.vertices:
                    return (comp.name, comp.kind)
        return None

    def spqr_path(self, w1: SpqrNode, w2: SpqrNode) -> list[SpqrNode]:
        """Path w1..w2 in the SPQR tree of the block holding both."""
        for blk in self.blocks:
            if w1 in blk.tree:
                if w2 not in blk.tree:
                    raise GraphError("SPQR-tree nodes lie in different blocks")
                return _tree_path(blk.tree, w1, w2)
        raise GraphError(f"no SPQR-tree node {w1!r}")

    # ---------------------------------------------------------------- levels

    def level_between(self, u: Vertex, v: Vertex) -> int:
        self.check_vertex(u, v)
        if u == v:
            raise GraphError("level_between needs two distinct vertices")
        if not self.connected(u, v):
            return 0
        blk = self._shared_block(u, v)
        if blk is None or blk.is_bridge:
            return 1
        for comp in blk.comps:
            if comp.kind == "R" and u in comp.vertices and v in comp.vertices:
                return 3
        return 2

    def predict_insert_level(self, u: Vertex, v: Vertex) -> int:
        return self.with_edge(u, v).level_between(u, v)

    def predict_delete_level(self, u: Vertex, v: Vertex) -> int:
        return self.without_edge(u, v).level_between(u, v)

    # ------------------------------------------------------------------ dump

    def dump(self) -> str:
        lines = ["bc-tree"]
        node_lines = [f"node B({b.name[0]},{b.name[1]})" for b in self.blocks]
        node_lines += [f"node C({v})" for v in self.cut_vertices]
        lines += sorted(node_lines)
        edge_lines = [f"edge B({bn[1][0]},{bn[1][1]}) C({cn[1]})"
                      for bn, nbrs in self._bc_adj.items() if bn[0] == "B"
                      for cn in nbrs]
        lines += sorted(edge_lines)
        sections = []
        for b in self.blocks:
            if not b.comps:
                continue
            sec = [f"spqr-tree B({b.name[0]},{b.name[1]})"]
            node_lines = [f"node P({s},{t})" for (s, t) in b.pairs]
            node_lines += [
                f"node {c.kind}({c.name[0]},{c.name[1]},{c.name[2]})"
                for c in b.comps]
            sec += sorted(node_lines)
            edge_lines = []
            for c in b.comps:
                for (s, t) in c.pairs:
                    edge_lines.append(
                        f"edge P({s},{t}) "
                        f"{c.kind}({c.name[0]},{c.name[1]},{c.name[2]})")
            sec += sorted(edge_lines)
            sections.append(sec)
        sections.sort(key=lambda sec: sec[0])
        for sec in sections:
            lines += sec
        return "\n".join(lines)
