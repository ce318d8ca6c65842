"""BC-tree and SPQR-tree state, a pure function of the current edge set.

Blocks and cut vertices come from Hopcroft-Tarjan lowpoint searches.
A block's triconnected components come from Hopcroft and Tarjan's path
search, as corrected by Gutwenger and Mutzel, in time linear in the
block: it cuts the block at its separation pairs into bonds, triangles
and triconnected graphs, joined by virtual edges, and merging bonds
with bonds and polygons with polygons leaves the triconnected
components. Polygons are the cycle (S) components, triconnected graphs
the rigid (R) ones, and each bond is the P-node of its pair. The vertex
pairs of the virtual edges that remain are the block's separating
pairs: the pairs {s,t} whose removal disconnects the block and that no
two other vertices separate (s and t adjacent, or three vertex-disjoint
s-t paths). Canonical names depend only on vertex sets and make the
dump byte-stable, so two states over the same edge set dump
identically.

A state stores two block indices, blocks by name and block names by
vertex, with the component labels and the set of separating pairs. The
block list, the cut vertices (the vertices in two or more blocks) and
the BC forest are read off the two indices. A state is its predecessor
patched: a change replaces only the blocks it touches and writes only
their entries. The vertex index holds block names, so a block replaced
by one of its name and vertices writes no vertex entry; the other
replaced and created blocks rewrite those of their vertices. A deleted
edge touches its block; an inserted edge touches the blocks on the BC
path between its ends, which it merges into one, and none when it joins
two components. The lowpoint search runs on the touched blocks' edges
alone, and not at all when they provably form one block. Components are
labelled; when an insert joins two or a bridge delete splits one, the
smaller side, found by walking both sides in turn, takes the other label
or a fresh one. Building a state from scratch is the same patch of the
empty state with every edge touched.

A block's pairs and components depend only on the block's own edges.
A block with as many edges as vertices is a cycle, one S component
with no pairs; any other block built from its edges goes through the
path search. That each R component is triconnected is checked by the
oracle's certificate, not here.

When one edge changes in the one block it touches, local rules derive
the new block and its SPQR tree from the old ones (Di Battista and
Tamassia), and the path search is kept for the blocks they leave:
- bundle: an edge at a pair of the block changes the block's edges
  alone;
- merge: a bundle deletion that leaves the pair's P-node with two cycle
  components merges them into one;
- split: a chord of one cycle component splits it into two cycles,
  joined by the new pair, whose P-node holds the edge;
- rigid: an edge inside one rigid component leaves the tree's shape
  alone, a deletion provided the component stays triconnected;
- resplit: a deletion that leaves a rigid component with separating
  pairs replaces it with the chain of pieces between them;
- fusion: an insert across the components of a window path fuses them
  into one rigid component, and each arc a cycle on the path bypasses
  becomes a cycle of its own.
The caller that holds the rigid component's embedding reads a deletion's
separating pairs off the two faces at the edge and passes them in, and
an insert brings the gate's window; without them the block is rebuilt.
The tree is patched at the nodes a rule touches, each adjacency tuple
in the order the builder gives it. The state names what the rule
changed: the rule, the edge, the new block and the components it
replaced. Every other new block is built from its edges, among them a
deletion from a cycle component, which breaks its block, and an insert
across blocks.

SPQR-tree nodes, as the path operations name them:

    ("P", (s, t))  pair    /  ("S"|"R", (x, y, z)) component
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from types import SimpleNamespace
from typing import NamedTuple

from .graph_core import DomainError, Edge, GraphError, Vertex, canonical_edge

BlockName = tuple[int, int]
TriName = tuple[int, int, int]
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


class LocalChange(NamedTuple):
    """What a local rule changed (`_local_block`): the rule's name, the
    edge, the new block, and the components of the old block it dropped
    and those it made in their place. A bundle edge drops and makes
    none."""

    rule: str
    edge: Edge
    block: Block
    gone: tuple[TriComp, ...]
    made: tuple[TriComp, ...]


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


def _walk(state: DecompositionState, x: Vertex):
    """The vertices of x's component in `state`, x first, reached block
    by block through the BC forest."""
    yield x
    seen, done, stack = {x}, set(), [x]
    while stack:
        for name in state._blocks_of_vertex.get(stack.pop(), ()):
            if name in done:
                continue
            done.add(name)
            for w in state._block_by_name[name].vertices:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
                    yield w


def _smaller_side(state: DecompositionState, a: Vertex, b: Vertex):
    """The end whose component in `state` has fewer vertices, a or b
    (in two components), and that component's vertices. Both are walked
    in turn, so the cost is twice the smaller one's size."""
    walks = ((a, _walk(state, a), []), (b, _walk(state, b), []))
    while True:
        for end, walk, side in walks:
            x = next(walk, None)
            if x is None:
                return end, side
            side.append(x)


_name = attrgetter("name")
_labels = itertools.count()  # component labels, fresh across all states
# the block indices of a state without blocks, which every build patches
_NO_BLOCKS = SimpleNamespace(
    _block_by_name={}, _blocks_of_vertex={}, _pairs=frozenset())


_BOND, _POLYGON, _RIGID = 0, 1, 2  # kinds of split components
_EOS = (0, -1, 0)  # TSTACK's end of segment marker


def _triconnected_components(vset, svs, edges) -> list[TriComp]:
    """The S and R components of the biconnected block on the vertex set
    `vset`, sorted as `svs`, with the simple edge set `edges`, which is
    no cycle.

    Hopcroft and Tarjan's path search (1973), as corrected by Gutwenger
    and Mutzel (2000), in linear time and without recursion:

    1. A palm-tree DFS from the least vertex orients every edge, tree
       arcs down and fronds up, and gives each vertex its DFS number,
       lowpt1, lowpt2, descendant count ND and tree arc.
    2. Each vertex's arcs are ordered by phi (3 lowpt1 of a tree arc's
       head, plus 2 when its lowpt2 is no lower than the tail; 3 times
       the number of a frond's head, plus 1), and a second DFS in that
       order renumbers the vertices so that a first child's subtree
       takes the highest numbers. It lists, per vertex, the tails of
       the fronds into it in visit order (its high points). The search
       runs on these numbers.
    3. The path search keeps the arcs it has passed on ESTACK and the
       candidate type-2 pairs, as (highest vertex, a, b) triples, on
       TSTACK. After each tree arc v -> w it splits off, while one is
       found, a type-2 pair {v, b} (or the triangle v, w, x through a
       w of degree two), then a type-1 pair {lowpt1(w), v}; each split
       moves the ESTACK arcs of one side into a new split component,
       closes it with a virtual edge and puts a twin virtual edge in
       its place. A split that meets a real or virtual edge on the same
       pair makes a bond of the two and a third virtual edge.
    4. Split components are bonds, triangles and triconnected graphs.
       Merging the polygons that share a virtual edge, and likewise the
       bonds, leaves the triconnected components; the virtual edges
       that remain are the SPQR tree's. A P-node is known by its pair
       alone, so bonds are not merged but dropped.

    Polygons are S components and triconnected parts R. A component's
    real edges and pairs are its edges, real and virtual. Edges are
    numbered, the real ones 0..m-1 in the order of `edges` and the
    virtual ones from m on. A search that splits nothing returns the
    whole block as one R component.
    """
    n = len(svs)
    at = {x: i for i, x in enumerate(svs)}
    el = list(edges)
    m = len(el)
    adj: list[list] = [[] for _ in range(n)]
    for e, (x, y) in enumerate(el):
        i, j = at[x], at[y]
        adj[i].append((j, e))
        adj[j].append((i, e))

    # 1. the palm tree; phi of each arc, and the fronds into each vertex
    num = [0] * n
    low1 = [0] * n
    low2 = [0] * n
    nd = [1] * n
    tarc = [0] * n
    into = [0] * n
    tail = [0] * m
    head = [0] * m
    phi = [0] * m
    num[0] = low1[0] = low2[0] = count = 1
    stack = [(0, iter(adj[0]))]
    while stack:
        v, it = stack[-1]
        nv, up = num[v], tarc[v]
        for w, e in it:
            nw = num[w]
            if not nw:
                count += 1
                num[w] = low1[w] = low2[w] = count
                tarc[w] = e
                tail[e] = v
                head[e] = w
                stack.append((w, iter(adj[w])))
                break
            if nw < nv and e != up:  # a frond, seen from below
                tail[e] = v
                head[e] = w
                phi[e] = 3 * nw + 1
                into[w] += 1
                l1 = low1[v]
                if nw < l1:
                    low2[v] = l1
                    low1[v] = nw
                elif l1 < nw < low2[v]:
                    low2[v] = nw
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                lw, lp = low1[v], low1[p]
                phi[tarc[v]] = 3 * lw if low2[v] < num[p] else 3 * lw + 2
                if lw < lp:
                    low2[p] = min(lp, low2[v])
                    low1[p] = lw
                elif lw == lp:
                    if low2[v] < low2[p]:
                        low2[p] = low2[v]
                elif lw < low2[p]:
                    low2[p] = lw
                nd[p] += nd[v]

    # 2. arcs in phi order with their slots; the path finder numbers
    # vertex w as k and files its data under k. A high-point list fills
    # from its end, so that its front, the first frond visited, is last
    arcs: list[list[int]] = [[] for _ in range(n)]
    slot = [0] * (3 * m)
    for e in sorted(range(m), key=phi.__getitem__):
        out = arcs[tail[e]]
        slot[e] = len(out)
        out.append(e)
    size = n + 1
    newnum = [0] * n
    o2n = [0] * size
    L1 = [0] * size
    L2 = [0] * size
    ND = [0] * size
    FA = [0] * size
    TA = [0] * size
    DEG = [0] * size
    A: list = [None] * size
    HP: list = [None] * size
    fill = [0] * size
    orig = [0] * size
    hpos = [-1] * (3 * m)
    count = n
    k = newnum[0] = o2n[1] = L1[1] = L2[1] = 1
    ND[1], DEG[1], A[1], orig[1] = n, len(adj[0]), arcs[0], svs[0]
    fill[1] = into[0]
    HP[1] = [0] * into[0]
    stack = [(0, 1, iter(arcs[0]))]
    while stack:
        v, kv, it = stack[-1]
        nv = num[v]
        for e in it:
            w = head[e]
            if num[w] > nv:
                k = count - nd[w] + 1
                newnum[w] = o2n[num[w]] = k
                L1[k] = o2n[low1[w]]
                L2[k] = o2n[low2[w]]
                ND[k] = nd[w]
                FA[k] = kv
                TA[k] = e
                DEG[k] = len(adj[w])
                A[k] = arcs[w]
                fill[k] = f = into[w]
                HP[k] = [0] * f
                orig[k] = svs[w]
                stack.append((w, k, iter(arcs[w])))
                break
            kw = newnum[w]
            p = hpos[e] = fill[kw] = fill[kw] - 1
            HP[kw][p] = kv
        else:
            stack.pop()
            if stack:
                count -= 1
    # real edges, then room for the virtual ones, fewer than m in all
    src = [newnum[v] for v in tail] + [0] * (2 * m)
    tgt = [newnum[w] for w in head] + [0] * (2 * m)
    top = m

    # 3. the path search; TSTACK holds (h, a, b) triples, and its end of
    # segment marker has a = -1. Every path ends in a frond, so each arc
    # starts a path but the first out of a vertex other than the root
    ts = [_EOS]
    es: list[int] = []
    comps: list = []
    v = 1
    adjv = A[1]
    i = 0
    na = outv = len(adjv)
    frames: list = []
    while True:
        if i < na:
            e = adjv[i]
            w = tgt[e]
            if w > v:  # tree arc
                if i or v == 1:  # the arc starts a path
                    lw = L1[w]
                    if ts[-1][1] > lw:
                        y = 0
                        while ts[-1][1] > lw:
                            h, _, b = ts.pop()
                            if h > y:
                                y = h
                        ts.append((y, lw, b))
                    else:
                        ts.append((w + ND[w] - 1, lw, v))
                    ts.append(_EOS)
                frames.append((v, adjv, na, i, outv))
                v = w
                adjv = A[w]
                i = 0
                na = outv = len(adjv)
                continue
            if i:  # a frond that starts a path
                if ts[-1][1] > w:
                    y = 0
                    while ts[-1][1] > w:
                        h, _, b = ts.pop()
                        if h > y:
                            y = h
                    ts.append((y, w, b))
                else:
                    ts.append((v, w, v))
            es.append(e)
            i += 1
            continue
        if not frames:
            break
        w = v
        v, adjv, na, i, outv = frames.pop()
        es.append(TA[w])

        # type-2 pairs: a TSTACK triple (h, v, b), or a child w of degree
        # two whose other arc is a tree arc
        while v != 1:
            h, a, b = ts[-1]
            deg2 = False
            if DEG[w] == 2:
                for f in A[w]:
                    if f >= 0:
                        break
                deg2 = tgt[f] > w
            if a != v and not deg2:
                break
            if a == v and FA[b] == v:  # b is v's child: no pair
                ts.pop()
                continue
            e_ab = -1
            if deg2:
                e1 = es.pop()
                e2 = es.pop()
                A[w][slot[e2]] = -1
                x = tgt[e2]
                ev = top
                top += 1
                src[ev] = v
                tgt[ev] = x
                DEG[x] -= 1
                DEG[v] -= 1
                comps.append((_POLYGON, [e1, e2, ev]))
                if es:
                    f = es[-1]
                    if src[f] == x and tgt[f] == v:
                        e_ab = es.pop()
                        A[x][slot[e_ab]] = -1
                        p = hpos[e_ab]
                        if p >= 0:
                            HP[v][p] = 0
                            hpos[e_ab] = -1
            else:
                ts.pop()
                comp = []
                while es:
                    f = es[-1]
                    x, y = src[f], tgt[f]
                    if not (a <= x <= h and a <= y <= h):
                        break
                    es.pop()
                    if (x == a and y == b) or (x == b and y == a):
                        e_ab = f
                    else:
                        comp.append(f)
                        DEG[x] -= 1
                        DEG[y] -= 1
                        if x == v and slot[f] == i:
                            continue  # the slot the virtual edge takes
                    A[x][slot[f]] = -1
                    p = hpos[f]
                    if p >= 0:
                        HP[y][p] = 0
                        hpos[f] = -1
                ev = top
                top += 1
                src[ev] = a
                tgt[ev] = b
                comp.append(ev)
                comps.append((_RIGID if len(comp) >= 4 else _POLYGON, comp))
                x = b
            if e_ab >= 0:
                ev2 = top
                top += 1
                src[ev2] = v
                tgt[ev2] = x
                comps.append((_BOND, [e_ab, ev, ev2]))
                ev = ev2
                DEG[x] -= 1
                DEG[v] -= 1
            es.append(ev)
            adjv[i] = ev
            slot[ev] = i
            DEG[x] += 1
            DEG[v] += 1
            FA[x] = v
            TA[x] = ev
            w = x

        # a type-1 pair {lowpt1(w), v}; below a root's child v, only
        # while v has arcs left besides this one
        lw = L1[w]
        if L2[w] >= v and lw < v and (FA[v] != 1 or outv >= 2):
            comp = []
            hi = w + ND[w]
            while es:
                f = es[-1]
                x, y = src[f], tgt[f]
                if not (w <= x < hi or w <= y < hi):
                    break
                es.pop()
                comp.append(f)
                p = hpos[f]
                if p >= 0:
                    HP[y][p] = 0
                    hpos[f] = -1
                DEG[x] -= 1
                DEG[y] -= 1
            ev = top
            top += 1
            src[ev] = v
            tgt[ev] = lw
            comp.append(ev)
            comps.append((_RIGID if len(comp) >= 4 else _POLYGON, comp))
            if es:
                f = es[-1]
                x, y = src[f], tgt[f]
                if (x == v and y == lw) or (x == lw and y == v):
                    es.pop()
                    if not (x == v and slot[f] == i):
                        A[x][slot[f]] = -1
                    ev2 = top
                    top += 1
                    src[ev2] = v
                    tgt[ev2] = lw
                    hpos[ev2] = hpos[f]
                    comps.append((_BOND, [f, ev, ev2]))
                    ev = ev2
                    DEG[v] -= 1
                    DEG[lw] -= 1
            if lw != FA[v]:
                es.append(ev)
                adjv[i] = ev
                slot[ev] = i
                if hpos[ev] < 0:
                    hl = HP[lw]
                    while hl and not hl[-1]:
                        hl.pop()
                    if not hl or hl[-1] < v:
                        hpos[ev] = len(hl)
                        hl.append(v)
                DEG[v] += 1
                DEG[lw] += 1
            else:
                adjv[i] = -1
                ev3 = top
                top += 1
                src[ev3] = lw
                tgt[ev3] = v
                f = TA[v]
                comps.append((_BOND, [ev, ev3, f]))
                TA[v] = ev3
                j = slot[f]
                A[lw][j] = ev3
                slot[ev3] = j

        if i or v == 1:
            while ts.pop()[1] != -1:
                pass
        hl = HP[v]
        while hl and not hl[-1]:
            hl.pop()
        hv = hl[-1] if hl else 0
        while True:
            h, a, b = ts[-1]
            if a == -1 or b == v or h >= hv:
                break
            ts.pop()
        outv -= 1
        i += 1
    if not comps:  # one triconnected component: the whole block
        return [TriComp(tuple(svs[:3]), "R", vset, edges, frozenset())]
    comps.append((_RIGID if len(es) >= 4 else _POLYGON, es))

    # 4. merge polygons that share a virtual edge. Bonds would merge
    # likewise, but a P-node is known by its pair alone. The polygons
    # holding virtual edge f are home[2(f - m)] and home[2(f - m) + 1]
    home = [-1] * (2 * (top - m))
    for c, (kind, part) in enumerate(comps):
        if kind == _POLYGON:
            for f in part:
                if f >= m:
                    f = 2 * (f - m)
                    home[f + (home[f] >= 0)] = c
    done = [False] * len(comps)
    out = []
    for c, (kind, part) in enumerate(comps):
        if kind == _BOND or done[c]:
            continue
        if kind == _POLYGON:
            done[c] = True
            kept = []
            for f in part:
                if f >= m:
                    g = 2 * (f - m)
                    d = home[g + 1] if done[home[g]] else home[g]
                    if d >= 0 and not done[d]:
                        done[d] = True
                        part.extend(h for h in comps[d][1] if h != f)
                        continue
                kept.append(f)
            part = kept
        real = [el[f] for f in part if f < m]
        pairs = []
        for f in part:
            if f >= m:
                x, y = orig[src[f]], orig[tgt[f]]
                pairs.append((x, y) if x < y else (y, x))
        w = frozenset([x for e in real for x in e] +
                      [x for e in pairs for x in e])
        out.append(TriComp(tuple(sorted(w)[:3]),
                           "S" if kind == _POLYGON else "R", w,
                           frozenset(real), frozenset(pairs)))
    return out


def _make_block(edges: frozenset[Edge]) -> Block:
    """One block from its edge set: a bridge, a cycle (as many edges as
    vertices) or the S and R components of `_triconnected_components`,
    whose pairs are the block's."""
    vset = frozenset(x for e in edges for x in e)
    svs = sorted(vset)
    name = (svs[0], svs[1])
    if len(svs) < 3:
        return Block(name, vset, edges, frozenset(), (), {})
    if len(edges) == len(svs):
        comps = [TriComp(tuple(svs[:3]), "S", vset, edges, frozenset())]
    else:
        comps = _triconnected_components(vset, svs, edges)
        comps.sort(key=_name)
    pairs = frozenset().union(*(c.pairs for c in comps))
    return Block(name, vset, edges, pairs, tuple(comps), _spqr_tree(comps))


def _local_block(blk: Block, e: Edge, deleted: bool, pairs=None,
                 window=None) -> LocalChange | None:
    """The block B with the edge e = u-v inserted or `deleted`, built from
    B by a local rule (Di Battista and Tamassia); None when no rule
    applies and the block is built from its edges. B is the one block
    the change touches, and it holds u and v.

    - bundle: u-v at a pair of B changes B's edges alone: the P-node
      gains or loses its real edge.
    - merge: a bundle deletion that leaves the P-node with two cycle
      components merges them into one.
    - split: a chord u-v of one cycle component S splits S into the
      cycles u..v + (u, v), joined by the new pair, whose P-node holds
      u-v.
    - rigid: an edge inside one rigid component C that is no pair leaves
      the tree's shape alone: C alone gains or loses the edge, a deletion
      provided C stays triconnected, which `pairs`, the separating pairs
      C has without the edge, says when empty.
    - resplit: a deletion from C that `pairs` names pairs for replaces C
      with the pieces C - e splits into (`_resplit`).
    - fusion: an insert across the components of the gate's `window`
      (its block, ends and SPQR path) fuses the path into one rigid
      component (`_fuse`).

    A deletion handed no `pairs`, a deleted edge of a cycle and an insert
    across components without its window are not derived.
    """
    u, v = e
    edges = blk.edges - {e} if deleted else blk.edges | {e}
    if e in blk.pairs:
        around = blk.tree[("P", e)]
        if not (deleted and len(around) == 2
                and around[0][0] == around[1][0] == "S"):
            return LocalChange("bundle", e, Block(
                blk.name, blk.vertices, edges, blk.pairs, blk.comps,
                blk.tree), (), ())
        gone = tuple(_comp(blk, nd) for nd in around)
        made = (_merged(*gone, e),)
        return _replaced("merge", blk, e, edges, blk.pairs - {e}, gone, made)
    if window is not None and len(window[3]) > 1:
        return _fuse(blk, e, edges, *window[1:])
    # two components share vertices only at a pair, so at most one holds
    # both ends of an edge that is no pair
    comp = next((c for c in blk.comps
                 if u in c.vertices and v in c.vertices), None)
    if comp is None:
        return None
    if comp.kind == "S":
        if deleted:
            return None
        return _replaced("split", blk, e, edges, blk.pairs | {e}, (comp,),
                         _split_cycle(comp, e))
    assert not deleted or e in comp.real_edges, "deleted edge is not real"
    # an added edge cannot lower C's connectivity, so only a deletion asks
    if deleted:
        if pairs is None:
            return None
        if pairs:
            return _resplit(blk, comp, e, edges, pairs)
    real = comp.real_edges - {e} if deleted else comp.real_edges | {e}
    made = (TriComp(comp.name, "R", comp.vertices, real, comp.pairs),)
    return LocalChange("rigid", e, Block(
        blk.name, blk.vertices, edges, blk.pairs,
        tuple(made[0] if c is comp else c for c in blk.comps),
        blk.tree), (comp,), made)


def _comp(blk: Block, node: SpqrNode) -> TriComp:
    """The component of the block at an S or R node. The components are
    in name order, and names are unique."""
    return blk.comps[bisect_left(blk.comps, node[1], key=_name)]


def _replaced(rule, blk, e, edges, pairs, gone, made) -> LocalChange:
    """The change by `rule` that gives the block `edges` and `pairs` and
    replaces its components `gone` by `made`, the tree patched to
    match."""
    comps = sorted([c for c in blk.comps if c not in gone] + list(made),
                   key=_name)
    return LocalChange(rule, e, Block(blk.name, blk.vertices, edges, pairs,
                                      tuple(comps),
                                      _patched_tree(blk.tree, gone, made)),
                       gone, made)


def _cycle(vs, real, pairs) -> TriComp:
    """The cycle component on the vertices `vs` with these edges."""
    vs = frozenset(vs)
    return TriComp(tuple(sorted(vs)[:3]), "S", vs, frozenset(real),
                   frozenset(pairs))


def _merged(a: TriComp, b: TriComp, p: Edge) -> TriComp:
    """The one cycle of two cycle components joined at their pair p."""
    return _cycle(a.vertices | b.vertices, a.real_edges | b.real_edges,
                  (a.pairs | b.pairs) - {p})


def _resplit(blk: Block, comp: TriComp, e: Edge, edges, pairs
             ) -> LocalChange:
    """The block less e = u-v, a real edge of its rigid component C that
    leaves C with the separating `pairs`, in order from u's side to v's.

    The pairs nest, so C - e is a chain of pieces, piece i between pairs
    i - 1 and i, u in the first and v in the last. A vertex of pairs j..k
    lies in pieces j..k + 1. Each other vertex lies in one piece, found
    by walking C's skeleton through the vertices on no pair: the piece
    of u, of v, or the one piece the pair vertices the walk meets share.
    An edge of the skeleton goes to the one piece both its ends lie in,
    unless it is one of the pairs: a real edge there stays at the new
    P-node, and a virtual one is a pair of C, whose P-node the new one
    joins. A piece whose edges are as many as its vertices is a cycle,
    the others are rigid. A cycle piece merges with an old cycle
    component beyond one of C's pairs when their P-node is left with the
    two of them and no real edge. Two pieces never merge: the pairs
    cross none, and a new pair with a cycle on each side and no edge of
    its own would be crossed by a pair of one vertex from each cycle."""
    u, v = e
    k = len(pairs)
    at: dict[Vertex, tuple[int, int]] = {}  # vertex -> its first, last piece
    for i, p in enumerate(pairs):
        for x in p:
            at[x] = (at[x][0] if x in at else i, i + 1)
    on_pair = set(at)
    real = comp.real_edges - {e}
    nbrs: dict[Vertex, list[Vertex]] = {}
    for x, y in itertools.chain(real, comp.pairs):
        nbrs.setdefault(x, []).append(y)
        nbrs.setdefault(y, []).append(x)
    for s in nbrs:
        if s in at:
            continue
        group, seen, a, b = [s], {s}, 0, k
        for x in group:  # the group grows as the walk reaches vertices
            for y in nbrs[x]:
                if y in on_pair:
                    a, b = max(a, at[y][0]), min(b, at[y][1])
                elif y not in seen:
                    seen.add(y)
                    group.append(y)
        i = 0 if u in seen else k if v in seen else a
        assert i in (0, k) or a == b, "pieces do not nest"
        for x in group:
            at[x] = (i, i)
    new = set(pairs)
    parts: list = [([], []) for _ in range(k + 1)]
    for i, p in enumerate(pairs):
        parts[i][1].append(p)
        parts[i + 1][1].append(p)
    for d, group in enumerate((real, comp.pairs)):
        for f in group:
            if f not in new:
                x, y = f
                i = max(at[x][0], at[y][0])
                assert i == min(at[x][1], at[y][1]), "edge across pieces"
                parts[i][d].append(f)
    node = (comp.kind, comp.name)
    gone, made, lost = [comp], [], set()
    for i, (r, ps) in enumerate(parts):
        vs = frozenset(x for f in itertools.chain(r, ps) for x in f)
        if len(r) + len(ps) != len(vs):
            made.append(TriComp(tuple(sorted(vs)[:3]), "R", vs,
                                frozenset(r), frozenset(ps)))
            continue
        c = _cycle(vs, r, ps)
        for q in ps:
            around = blk.tree.get(("P", q), ())
            if len(around) == 2 and q not in new and q not in edges:
                d = _comp(blk, around[around[0] == node])
                if d.kind == "S":
                    c = _merged(c, d, q)
                    gone.append(d)
                    lost.add(q)
        assert not (i and made[-1].kind == "S" and pairs[i - 1] not in
                    blk.pairs and pairs[i - 1] not in edges), \
            "two cycle pieces meet at a bare new pair"
        made.append(c)
    return _replaced("resplit", blk, e, edges, (blk.pairs | new) - lost,
                     tuple(gone), tuple(made))


def _fuse(blk: Block, e: Edge, edges, a: Vertex, b: Vertex, path
          ) -> LocalChange:
    """The block plus e, inserted across the SPQR `path` from a component
    that holds a to one that holds b, which it fuses into one rigid
    component R. A pair of the path whose P-node has no third component
    dissolves, its real edge, if any, becoming one of R; the others stay
    pairs, of R. A rigid component on the path joins R whole. A cycle
    keeps in R only the cycle through its anchors (a or its left pair,
    and b or its right pair): an arc between two anchors that is one
    edge joins R, and each longer one becomes a cycle component of its
    own, closed by a new pair, which R shares."""
    gone = tuple(_comp(blk, nd) for nd in path[::2])
    window = {nd[1] for nd in path[1::2]}
    kept = {p for p in window if len(blk.tree[("P", p)]) > 2}
    real = {e} | {p for p in window - kept if p in edges}
    pairs = set(kept)
    vs: set[Vertex] = set()
    arcs = []
    for i, c in enumerate(gone):
        if c.kind == "R":
            vs |= c.vertices
            real |= c.real_edges
            pairs |= c.pairs - window
            continue
        anchors = set(path[2 * i - 1][1]) if i else {a}
        anchors |= set(path[2 * i + 1][1]) if 2 * i + 1 < len(path) else {b}
        vs |= anchors
        for arc, r, ps in _arcs(c, anchors):
            if len(arc) == 2:
                real.update(r)
                pairs.update(p for p in ps if p not in window)
                continue
            x, y = arc[0], arc[-1]
            p = (x, y) if x < y else (y, x)
            pairs.add(p)
            arcs.append(_cycle(arc, r, ps + [p]))
    vs = frozenset(vs)
    fused = TriComp(tuple(sorted(vs)[:3]), "R", vs, frozenset(real),
                    frozenset(pairs))
    arcs.sort(key=_name)
    return _replaced("fusion", blk, e, edges,
                     (blk.pairs - window | kept).union(
                         *(c.pairs for c in arcs)),
                     gone, (fused, *arcs))


def _arcs(comp: TriComp, anchors):
    """The arcs of the cycle component `comp` between its `anchors`
    around it, from the least anchor on: each as its vertices, anchor to
    anchor, and its real and its virtual edges."""
    nbrs: dict[Vertex, list[Vertex]] = {}
    for x, y in itertools.chain(comp.real_edges, comp.pairs):
        nbrs.setdefault(x, []).append(y)
        nbrs.setdefault(y, []).append(x)
    start = min(anchors)
    out = []
    vs, real, virtual = [start], [], []
    prev, x = start, nbrs[start][0]
    while True:
        f = (prev, x) if prev < x else (x, prev)
        (real if f in comp.real_edges else virtual).append(f)
        vs.append(x)
        if x in anchors:
            out.append((vs, real, virtual))
            if x == start:
                return out
            vs, real, virtual = [x], [], []
        p, q = nbrs[x]
        prev, x = x, q if p == prev else p


def _split_cycle(comp: TriComp, e: Edge) -> tuple[TriComp, ...]:
    """The two cycles a chord e = u-v splits the cycle component `comp`
    into, in name order: each arc u..v of comp closed by the virtual
    edge u-v, which is a new pair."""
    return tuple(sorted((_cycle(vs, r, ps + [e])
                         for vs, r, ps in _arcs(comp, e)), key=_name))


def _patched_tree(tree, gone, made) -> dict[SpqrNode, tuple[SpqrNode, ...]]:
    """`tree` with the nodes of the components `gone` replaced by those of
    the components `made`, written only at those nodes and at the P-nodes
    of their pairs; a P-node left without components goes. Each
    adjacency tuple is sorted, as `_spqr_tree` builds it."""
    new = dict(tree)
    at: dict[SpqrNode, list[SpqrNode]] = {}  # the patched P-nodes
    for c in gone:
        node = (c.kind, c.name)
        del new[node]
        for p in c.pairs:
            pn = ("P", p)
            if pn not in at:
                at[pn] = list(tree[pn])
            at[pn].remove(node)
    for c in made:
        node = (c.kind, c.name)
        new[node] = tuple(("P", p) for p in sorted(c.pairs))
        for p in c.pairs:
            pn = ("P", p)
            if pn not in at:
                at[pn] = list(tree.get(pn, ()))
            at[pn].append(node)
    for pn, nbrs in at.items():
        if nbrs:
            new[pn] = tuple(sorted(nbrs))
        else:
            del new[pn]
    return new


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
    """The unique path a..b in a tree, given by adjacency, holding both."""
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
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    path.reverse()
    return path


# --------------------------------------------------------------- main state

class DecompositionState:
    """Snapshot of blocks, cut vertices, pairs, and triconnected comps.
    `derived` is the `LocalChange` a local rule built the one changed
    block by, else None."""

    __slots__ = (
        "n", "edges", "_comp_of", "_block_by_name", "_blocks_of_vertex",
        "_pairs", "replaced", "created", "derived",
    )

    def __init__(self, n: int, edges: frozenset[Edge],
                 blocks: tuple[Block, ...], comp_of: dict[Vertex, int]):
        """A state of the given parts, indexed as the patch of no blocks
        that adds every block."""
        self.n = n
        self.edges = edges
        self._comp_of = comp_of
        self._index(_NO_BLOCKS, (), blocks)
        self.derived = None

    @property
    def blocks(self) -> tuple[Block, ...]:
        """The blocks in name order."""
        by_name = self._block_by_name
        return tuple(by_name[name] for name in sorted(by_name))

    @property
    def cut_vertices(self) -> frozenset[Vertex]:
        """The vertices in two or more blocks."""
        return frozenset(x for x, names in self._blocks_of_vertex.items()
                         if len(names) >= 2)

    def _index(self, base, removed, added) -> None:
        """Set the block indices to base's less the `removed` blocks plus
        the `added` ones, and note both as the blocks this state replaced
        and created. Only the entries of those blocks and of their
        vertices are written.

        The vertex index holds block names, so a block replaced by one
        of its name and vertices (a change inside a block that stays
        one) writes its `_block_by_name` entry alone, and the vertex
        index is shared with base when every added block is such a one.
        """
        by_name = dict(base._block_by_name)
        for b in removed:
            del by_name[b.name]
        by_name.update((b.name, b) for b in added)
        old = base._block_by_name
        # a derived block holds its predecessor's vertex set itself
        kept = {b.name for b in added if b.name in old and (
            old[b.name].vertices is b.vertices
            or old[b.name].vertices == b.vertices)}
        out = [b for b in removed if b.name not in kept]
        into = [b for b in added if b.name not in kept]
        at = base._blocks_of_vertex
        if out or into:
            gone = {b.name for b in out}
            verts = {x for b in (*out, *into) for x in b.vertices}
            at = dict(at)
            for x in verts:
                at[x] = [name for name in at.get(x, ()) if name not in gone]
            for b in into:
                for x in b.vertices:
                    at[x].append(b.name)
            for x in verts:
                if not at[x]:
                    del at[x]
                else:
                    at[x].sort()

        lost = frozenset().union(*(b.pairs for b in removed))
        got = frozenset().union(*(b.pairs for b in added))
        self._block_by_name = by_name
        self._blocks_of_vertex = at
        self._pairs = base._pairs if lost == got \
            else (base._pairs - lost) | got
        self.replaced = tuple(removed)
        self.created = tuple(added)

    # ---------------------------------------------------------- construction

    @classmethod
    def from_edges(cls, n: int, edges,
                   carry_from: DecompositionState | None = None,
                   edge: Edge | None = None, pairs=None,
                   window=None) -> DecompositionState:
        """State of an edge set, patched from `carry_from` or else from
        the empty state. A caller that knows the one canonical `edge` by
        which `edges` differs from `carry_from`'s passes it, and `edges`
        as a frozenset of canonical edges, so neither set is compared.
        When that edge is a deleted real edge of a rigid component,
        `pairs` are the separating pairs the component has without it,
        in order from the edge's lesser end, and none when it stays
        rigid; None rebuilds the edge's block. An inserted edge may come
        with the gate's `window` in its block.

        The patch replaces the blocks the change touches (every block
        unless the edge sets differ in one edge) by the blocks of their
        edges with the change applied. When one edge changes in the one
        block it touches, a local rule may build the new block from the
        old one (`_local_block`), and the state names it in `derived`.
        Otherwise the new blocks are built from their edges: one block
        after an insert, and after a deletion those a lowpoint search
        over the touched edges finds. Every other block is kept.
        """
        base = carry_from if carry_from is not None \
            else cls(n, frozenset(), (), {})
        if edge is None:
            eset = frozenset(canonical_edge(u, v) for (u, v) in edges)
            diff = eset ^ base.edges
        else:
            eset, diff = edges, frozenset((edge,))
        removed = base._touched_by(diff)
        derived = None
        if len(diff) == 1 and len(removed) == 1:
            (e,) = diff
            derived = _local_block(removed[0], e, e in base.edges, pairs,
                                   window)
        adj = lowpoint_cuts = None
        if derived is not None:
            added = [derived.block]
        else:
            touched = frozenset().union(*(b.edges for b in removed)) ^ diff
            if len(diff) == 1 and diff <= eset:
                parts = [touched]  # an insert closes a cycle through them
            else:
                adj = _adjacency(sorted({x for e in touched for x in e}),
                                 touched)
                raw_blocks, lowpoint_cuts, _ = _lowpoint(adj, adj)
                parts = [frozenset((u, v) if u < v else (v, u)
                                   for u, v in raw) for raw in raw_blocks]
            added = [_make_block(p) for p in parts]
        state = cls.__new__(cls)
        state.n = n
        state.edges = eset
        state._index(base, removed, added)
        state.derived = derived
        state._comp_of = base._relabel(state, diff, eset, adj)

        if __debug__ and derived is None:
            # the new blocks partition the touched edges, and share at
            # most one vertex with any other block; the predecessor's
            # blocks passed the same, so every edge lies in one block.
            # A local block is its predecessor with the one edge added or
            # removed, on the same vertices, so it passes as that did
            assert sum(len(b.edges) for b in added) == len(touched) and \
                frozenset().union(*(b.edges for b in added)) == touched, \
                "an edge lies in other than exactly one block"
            for blk in state.created:
                for x in blk.vertices:
                    for name in state._blocks_of_vertex[x]:
                        assert name == blk.name or len(
                            state._block_by_name[name].vertices
                            & blk.vertices) == 1, \
                            f"blocks {name} and {blk.name} share " \
                            "two vertices"
            if lowpoint_cuts is not None:
                hits = Counter(x for b in added for x in b.vertices)
                assert lowpoint_cuts == {x for x, k in hits.items()
                                         if k >= 2}, \
                    "cut vertices disagree with block membership counts"
        return state

    def _touched_by(self, diff: frozenset[Edge]) -> list[Block]:
        """The blocks a change of the edges in `diff` replaces: a deleted
        edge's block, the blocks on the BC path between an inserted
        edge's ends (none when they lie in two components), and every
        block for any other change."""
        if len(diff) != 1:
            return list(self.blocks)
        (u, v), = diff
        blk = self._shared_block(u, v)
        if blk is not None:
            return [blk]
        cu = self._comp_of.get(u)
        if cu is None or cu != self._comp_of.get(v):
            return []
        return self.bc_path_blocks(u, v)[0]

    def _relabel(self, state: DecompositionState, diff, eset, adj):
        """Component labels for `state`, patched from this state.

        An insert that joins two components gives the smaller side the
        other side's label (a fresh one when both ends are new), and a
        bridge delete gives the smaller side a fresh label, or none when
        that side is one vertex left without edges. A change of other
        than one edge labels the components of `adj`, the adjacency of
        every edge, afresh; any other change keeps every label.
        """
        if len(diff) != 1:
            return {v: label for comp in _components(adj, adj)
                    for label in (next(_labels),) for v in comp}
        (u, v), = diff
        comp_of = self._comp_of
        if diff <= eset:
            label = comp_of.get(u)
            if label is not None and label == comp_of.get(v):
                return comp_of
            end, side = _smaller_side(self, u, v)
            other = v if end == u else u
            comp_of = dict(comp_of)
            label = comp_of.get(other)
            if label is None:  # both ends are new
                label = comp_of[other] = next(_labels)
        else:
            if len(state.replaced) != 1 or not state.replaced[0].is_bridge:
                return comp_of
            _, side = _smaller_side(state, u, v)
            comp_of = dict(comp_of)
            for x in (u, v):
                if x not in state._blocks_of_vertex:
                    del comp_of[x]
            if len(side) == 1:
                return comp_of
            label = next(_labels)
        for x in side:
            comp_of[x] = label
        return comp_of

    def with_edge(self, u: Vertex, v: Vertex,
                  window=None) -> DecompositionState:
        """The state plus u-v; this state when it holds u-v already. The
        gate's `window` for the insert, if it has one in u and v's
        block, lets a local rule fuse the components it crosses."""
        e = canonical_edge(u, v)
        if e in self.edges:
            return self
        return DecompositionState.from_edges(
            self.n, self.edges | {e}, self, e, window=window)

    def without_edge(self, u: Vertex, v: Vertex,
                     pairs=None) -> DecompositionState:
        """The state less u-v; this state when it lacks u-v. When u-v is
        a real edge of a rigid component, `pairs` are the separating
        pairs that component has without it, in order from the lesser
        of u and v (`rotation.pairs_without`); None rebuilds the edge's
        block."""
        e = canonical_edge(u, v)
        if e not in self.edges:
            return self
        return DecompositionState.from_edges(
            self.n, self.edges - {e}, self, e, pairs)

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
        return len(self._blocks_of_vertex.get(w, ())) >= 2

    def blocks_at(self, v: Vertex) -> list[Block]:
        """The blocks holding v, in name order."""
        by_name = self._block_by_name
        return [by_name[name] for name in self._blocks_of_vertex.get(v, ())]

    def _shared_block(self, u: Vertex, v: Vertex) -> Block | None:
        """The block holding both u and v (two blocks share at most one
        vertex), None when no block does."""
        for name in self._blocks_of_vertex.get(u, ()):
            blk = self._block_by_name[name]
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
        two connected vertices: consecutive chain vertices share B_i.

        The walk goes breadth first from the blocks at a, block to block
        through the cut vertices, and stops at the first block holding
        b. The BC forest is a tree on each component, so every other
        block at b lies beyond that one, and the cut vertex through which
        each block on the path was first reached is the chain vertex
        before it."""
        self.check_vertex(a, b)
        if a == b or not self.connected(a, b):
            raise GraphError(f"vertices {a} and {b} must differ and connect")
        at, by_name = self._blocks_of_vertex, self._block_by_name
        queue = list(at[a])
        came = dict.fromkeys(queue)  # block -> (block before, cut vertex)
        for name in queue:  # the queue grows as the walk reaches blocks
            blk = by_name[name]
            if b in blk.vertices:
                break
            for w in blk.vertices:
                if len(at[w]) >= 2:
                    for nxt in at[w]:
                        if nxt not in came:
                            came[nxt] = (name, w)
                            queue.append(nxt)
        else:
            raise AssertionError("connected vertices share a BC tree")
        blocks, chain = [blk], [b]
        while came[name] is not None:
            name, w = came[name]
            blocks.append(by_name[name])
            chain.append(w)
        chain.append(a)
        blocks.reverse()
        chain.reverse()
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
        """Path w1..w2 in the SPQR tree of the block holding both, the
        block that holds the first two vertices of w1's name."""
        blk = self._shared_block(*w1[1][:2])
        if blk is None or w1 not in blk.tree:
            raise GraphError(f"no SPQR-tree node {w1!r}")
        if w2 not in blk.tree:
            raise GraphError("SPQR-tree nodes lie in different blocks")
        return _tree_path(blk.tree, w1, w2)

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

    # ------------------------------------------------------------------ dump

    def dump(self) -> str:
        """The BC forest and each block's SPQR tree (`spqr_section`),
        every part sorted as text, so the order in which blocks are read
        does not show."""
        blocks = sorted(self._block_by_name.values(),
                        key=lambda b: block_label(b.name))
        return "\n".join([bc_section(self._blocks_of_vertex), *(
            spqr_section(b) for b in blocks if b.comps)])


def block_label(name: BlockName) -> str:
    """A block's name as dumps print it; sections are in this order."""
    return f"B({name[0]},{name[1]})"


def bc_section(blocks_of_vertex) -> str:
    """The `bc-tree` section of a vertex index of block names: block and
    cut-vertex nodes, then the edges between them, each part sorted as
    text. Every block holds vertices, so the index names every block."""
    cuts = [(v, names) for v, names in blocks_of_vertex.items()
            if len(names) >= 2]
    node_lines = [f"node B({x},{y})" for x, y in
                  {name for names in blocks_of_vertex.values()
                   for name in names}]
    node_lines += [f"node C({v})" for v, _ in cuts]
    return "\n".join(["bc-tree", *sorted(node_lines), *sorted(
        f"edge B({x},{y}) C({v})" for v, names in cuts for (x, y) in names)])


def spqr_section(b: Block) -> str:
    """The `spqr-tree` section of a block with components: its nodes,
    then its tree edges, each part sorted as text."""
    sec = [f"spqr-tree {block_label(b.name)}"]
    sec += sorted([f"node P({s},{t})" for (s, t) in b.pairs] + [
        f"node {c.kind}({c.name[0]},{c.name[1]},{c.name[2]})"
        for c in b.comps])
    sec += sorted(f"edge P({s},{t}) "
                  f"{c.kind}({c.name[0]},{c.name[1]},{c.name[2]})"
                  for c in b.comps for (s, t) in c.pairs)
    return "\n".join(sec)
