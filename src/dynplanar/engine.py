"""Dynamic planarity engine with test-and-reject edge changes.

The engine owns five relations and keeps them consistent after every
accepted change:

  1. the block/SPQR decomposition (the blocks a change touches are
     replaced, the others carried),
  2. one embedding per triconnected component,
  3. the two-colouring, as the faces that hold each pair of each S/R
     component and the pair's direction on them (`coherence.pair_faces`),
     per block with pairs,
  4. one rotation scheme per non-bridge block,
  5. the whole-graph rotation scheme: at each vertex, the entries of
     its blocks' rotations there less their virtual entries, the blocks
     in name order; a bridge gives the edge's other end.

Each is the previous one patched. A change is the components it dropped
and made, each with its block: those a local rule names
(`DecompositionState.derived`), or else those of the replaced and
created blocks whose content key the other side lacks. `Engine._commit`
walks that one list, and each relation follows one rule:
- components: every other component keeps its embedding; a made cycle
  derives its own, and a made rigid component is built by surgery from
  its one source;
- block rotations: a created block that dropped and made nothing and
  kept its pairs (a bundle edge at a pair) keeps its rotation; one whose
  one made rigid component replaces a dropped one of the same node and
  pairs (an edge inside a rigid component), unless `canonical()`
  mirrors the edit, is patched at the edge's two ends; every other one
  is assembled by splicing its components' rotations, and a block of
  one component has its component's rotation;
- graph rotation: when every created block keeps the name and vertices
  of a replaced one, it is rewritten at the edge's two ends and at the
  vertices whose block rotation entry moved, else at every vertex of the
  replaced and created blocks.

Planarity holds by construction: every component embedding is planar
(a built one passed V - E + F = 2 on its kept and traced faces, and an
edit adds or removes one face with its edge), a 2-sum of planar
schemes is planar, and genus adds over blocks. Euler's formula is
walked only where blocks of two or more components are spliced;
`cli.check_state` and the benchmark validate every rotation after every
change.

A made rigid component is built by surgery and canonicalised. An insert
builds it by merging the corridor of the one window whose two endpoints
it holds; a delete projects the one dropped rigid component whose vertex
set contains it (a deletion merges only cycles). A corridor merge is the
splice that assembles blocks, applied along the window path to rotation
schemes once the stored two-colouring has fixed each one's flip: the
colours are read off the pair-face entries of the components along the
path, which also name each inner component's window face. A face split
is the corridor of one rigid component, which has no pairs and so no
flip. A projection reads the far side of each new pair off the new
block's SPQR tree. The gate returns the windows, so deciding, deriving
the new tree and building walk the state once. Each component's
embedding is canonical, and a component keeps its embedding only while
its content key is unchanged, so the whole state is a pure function of
the edge set, which the decomposition state holds.

A change inside one rigid component is decided and applied on the faces
at its edge. The separating pairs the component has without a deleted
real edge are read off the two faces at the edge, in `Engine._without`,
the one place a deletion's successor state is decided, and handed to the
decomposition state, which re-splits the component along them, or
otherwise rebuilds the edge's block. A face split, or a deletion that
leaves the component rigid, edits the stored embedding, retracing only
the faces at the edge. A re-split's rigid piece and a fusion's fused
component keep the faces of the old components that avoid the vertices
whose rotation changed, and trace only the faces through those, so no
change traces a whole embedding.

A dump is formatted by value. Each block's four sections (spqr-tree,
sr-embeddings, colourings, block-embedding) are kept as text: the
colourings keyed by the block's SPQR tree and the dict of its
components' pair-face entries, whose maximal coherent paths it lists,
the others by the `Block`, its block rotation and its components'
`Embedding`s. A change inside one rigid component keeps the tree, and
the dict while every entry is kept, so its block's paths are walked
again only when an entry changed. Each vertex's
graph-embedding line is keyed by its `graph_rot` tuple, and the bc-tree
section by the decomposition's vertex index of block names, which a
change inside a block shares. A dump reuses an entry only while every
key is the object (`is`) the state holds, so it formats only what the
changes since the last dump created. Only `Engine.dump` writes this
memo, and it rebuilds it from the current blocks and vertices, so a
change pays nothing for it and it holds no more than the graph. The
same formatter given an empty memo gives a cold dump, which the checks
that compare dumps across a change use: an object changed in place
keeps its key.
"""
from __future__ import annotations

from operator import is_

from .coherence import (
    build_block_paths,
    node_label,
    shared_face,
    update_colouring,
)
from .decomposition import (
    Block,
    DecompositionState,
    SpqrNode,
    TriComp,
    bc_section,
    block_label,
    spqr_section,
)
from .gate import insert_ok
from .graph_core import (
    ACCEPTED,
    DELETE,
    INSERT,
    IMPOSSIBLE_TYPES,
    NOOP_ABSENT,
    NOOP_DUPLICATE,
    REJECTED_NONPLANAR,
    ChangeOutcome,
    DomainError,
    Edge,
    EdgeChangeType,
    GraphError,
    Vertex,
    canonical_edge,
)
from .rotation import (
    Embedding,
    _orbit,
    at_corner,
    crossing,
    cyclic_triple_query,
    euler_per_component,
    face_name,
    opened_at,
    opened_at_least,
    pairs_without,
)

ContentKey = tuple  # (frozenset of vertices, frozenset of edges)


# ----------------------------------------------------- derived cycle schemes

def _cycle_embedding(comp: TriComp) -> Embedding:
    """The unique rotation scheme of a cycle component. Its two faces are
    the cycle walked each way from its least vertex, so one walk gives
    both, with no face trace."""
    nbrs: dict[Vertex, list[Vertex]] = {}
    for u, v in comp.real_edges | comp.pairs:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    assert all(len(ws) == 2 for ws in nbrs.values()), \
        f"component {comp.name} is not a cycle"
    rot = {x: tuple(ws) for x, ws in nbrs.items()}
    first = min(rot)
    walk = [first]
    prev, x = first, rot[first][0]
    while x != first:
        walk.append(x)
        a, b = rot[x]
        prev, x = x, b if a == prev else a
    assert len(walk) == len(rot), f"component {comp.name} is not one cycle"
    ahead, back = tuple(walk), (first, *walk[:0:-1])
    faces = (ahead, back) if ahead < back else (back, ahead)
    return Embedding._made(rot, faces, min(faces, key=face_name))


def _content_key(comp: TriComp) -> ContentKey:
    return (comp.vertices, frozenset(comp.real_edges | comp.pairs))


def _embedding_key(emb: Embedding) -> ContentKey:
    return (emb.vertices, emb.edge_set())


def _dropped_and_made(decomp: DecompositionState) -> tuple[list, list]:
    """The components the change to `decomp` dropped and made, each with
    its block: those the local rule names (`decomp.derived`), or, when
    the blocks were built from their edges, the components of the
    replaced and created blocks whose content key the other side lacks.
    A component has three or more vertices and blocks share at most one,
    so a content key of a replaced block is found only there."""
    local = decomp.derived
    if local is not None:
        (old,) = decomp.replaced
        return [(old, c) for c in local.gone], \
            [(local.block, c) for c in local.made]
    was = {_content_key(c): (blk, c)
           for blk in decomp.replaced for c in blk.comps}
    now = {_content_key(c): (blk, c)
           for blk in decomp.created for c in blk.comps}
    return [bc for key, bc in was.items() if key not in now], \
        [bc for key, bc in now.items() if key not in was]


def _partner(pair: Edge, x: Vertex) -> Vertex:
    assert x in pair
    return pair[1] if pair[0] == x else pair[0]


def _splice_entry(seq: list, cseq, x: Vertex, s: Vertex, t: Vertex) -> None:
    """The 2-sum step at x, one vertex of the virtual edge s-t: the
    child's entries at x, opened at the pair's other vertex, go into the
    parent's entries `seq` before its bundle entry t at s, after its
    bundle entry s at t."""
    if x == s:
        i = seq.index(t)
        seq[i:i] = opened_at(cseq, t)[1:]
    else:
        j = seq.index(s)
        seq[j + 1:j + 1] = opened_at(cseq, s)[1:]


def _splice(rot: dict, crot: dict, s: Vertex, t: Vertex) -> None:
    """2-sum the rotation scheme crot into rot along their virtual edge s-t.

    The child is opened at the shared pair and inserted against the
    parent's bundle entry: before it at s, after it at t, so it lands in
    the parent's face that traverses t -> s. The bundle entry survives.
    """
    _splice_entry(rot[s], crot[s], s, s, t)
    _splice_entry(rot[t], crot[t], t, s, t)
    for w, seq in crot.items():
        if w != s and w != t:
            assert w not in rot, "spliced components overlap off the pair"
            rot[w] = list(seq)


def _splices(block: Block):
    """The root of the block's assembly, its least component, and then
    each (child, s, t) it splices: the SPQR tree walked breadth first
    from the root, each child at its pair, smaller vertex first."""
    root = min((c.kind, c.name) for c in block.comps)
    yield root
    seen = {root}
    queue = [root]
    while queue:
        parent = queue.pop(0)
        for pnode in block.tree[parent]:
            s, t = pnode[1]
            for child in block.tree[pnode]:
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
                    yield child, s, t


def _real_entries(block: Block, block_rots: dict, x: Vertex) -> tuple:
    """The block's rotation at x less its virtual entries, opened at the
    least; a block without pairs has none, and a bridge's one entry is
    its other end."""
    if block.is_bridge:
        (u, v), = block.edges
        return (v,) if x == u else (u,)
    seq = block_rots[block.name][x]
    if block.pairs:
        seq = tuple(w for w in seq
                    if ((x, w) if x < w else (w, x)) in block.edges)
    assert seq, "block holds a vertex with no real edge"
    return opened_at_least(seq)


def _far_sides(block: Block, comp: TriComp, pairs) -> dict[Edge, set]:
    """For each pair of comp, the vertices off the pair in the components
    beyond its P-node in the block's SPQR tree."""
    verts = {(c.kind, c.name): c.vertices for c in block.comps}
    out: dict[Edge, set] = {}
    for pair in pairs:
        seen = {(comp.kind, comp.name)}
        stack = [("P", pair)]
        far: set[Vertex] = set()
        while stack:
            nd = stack.pop()
            seen.add(nd)
            far |= verts.get(nd, set())
            stack += [m for m in block.tree[nd] if m not in seen]
        out[pair] = far - set(pair)
    return out


def _block_sections(blk: Block, rot: dict, *embs: Embedding):
    """The dump text of a block with components: its label and its
    `spqr-tree`, `sr-embeddings` and `block-embedding` sections. It
    reads nothing but its arguments: the block, its rotation and its
    components' embeddings in `blk.comps` order. A block rotation entry
    that is no real edge of the block is virtual, marked `*`."""
    label = block_label(blk.name)
    sr = [f"sr-embeddings {label}"]
    for c, emb in sorted(zip(blk.comps, embs),
                         key=lambda ce: (ce[0].kind, ce[0].name)):
        sr += [f"comp {node_label((c.kind, c.name))}", *emb.dump_lines()]
    be = [f"block-embedding {label}"]
    for v in sorted(rot):
        be.append(f"rot {v}: " + " ".join(
            str(w) if canonical_edge(v, w) in blk.edges else f"{w}*"
            for w in opened_at_least(rot[v])))
    return label, spqr_section(blk), "\n".join(sr), "\n".join(be)


def _colouring_section(blk: Block, store: dict) -> str | None:
    """The `colourings` section of a block: its maximal coherent paths,
    found from its components' pair-face entries in `store`, by block
    name; None without pairs."""
    if not blk.pairs:
        return None
    return "\n".join([f"colourings {block_label(blk.name)}", *(
        p.dump_line() for p in build_block_paths(store[blk.name], blk))])


# ------------------------------------------------------------------- engine

class Engine:
    """Fully dynamic planarity and embedding maintenance."""

    def __init__(self, n: int):
        if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
            raise DomainError(f"domain size must be a positive int, got {n!r}")
        self.decomp = DecompositionState.from_edges(n, ())
        self.comp_embs: dict[SpqrNode, Embedding] = {}
        # block name -> node -> its `coherence.pair_faces` entries
        self.pair_faces: dict = {}
        self.block_rots: dict = {}
        self.graph_rot: dict[Vertex, tuple] = {}
        # Test hook: permutes the order of independent sub-updates.
        self._subupdate_order = None
        self._dumped: dict = {}  # written by dump() alone

    # ------------------------------------------------------------- changes

    @property
    def graph(self) -> DecompositionState:
        """The current state, which owns the domain size and edge set."""
        return self.decomp

    def insert_edge(self, a: Vertex, b: Vertex) -> ChangeOutcome:
        self.decomp.check_vertex(a, b)
        if self.decomp.has_edge(a, b):
            return ChangeOutcome(NOOP_DUPLICATE)
        windows = insert_ok(self.decomp, self.comp_embs, a, b)
        if windows is None:
            return ChangeOutcome(REJECTED_NONPLANAR)
        new_decomp = self.decomp.with_edge(
            a, b, windows[0] if len(windows) == 1 else None)
        change = EdgeChangeType(
            INSERT,
            self.decomp.level_between(a, b),
            new_decomp.level_between(a, b),
        )
        assert (INSERT, change.before_level, change.after_level) \
            not in IMPOSSIBLE_TYPES, change
        self._commit(new_decomp, canonical_edge(a, b), windows)
        return ChangeOutcome(ACCEPTED, change)

    def delete_edge(self, a: Vertex, b: Vertex) -> ChangeOutcome:
        self.decomp.check_vertex(a, b)
        if not self.decomp.has_edge(a, b):
            return ChangeOutcome(NOOP_ABSENT)
        new_decomp = self._without(a, b)
        change = EdgeChangeType(
            DELETE,
            self.decomp.level_between(a, b),
            new_decomp.level_between(a, b),
        )
        assert (DELETE, change.before_level, change.after_level) \
            not in IMPOSSIBLE_TYPES, change
        self._commit(new_decomp, canonical_edge(a, b))
        return ChangeOutcome(ACCEPTED, change)

    def _without(self, a: Vertex, b: Vertex) -> DecompositionState:
        """The state less the edge a-b. When a-b is a real edge of a rigid
        component, the separating pairs that component has without it
        are read off the two faces at the edge in its embedding."""
        e = canonical_edge(a, b)
        rigid = next((c for c in self.decomp.block_of(a, b).comps
                      if c.kind == "R" and e in c.real_edges), None)
        pairs = None if rigid is None else pairs_without(
            self.comp_embs[("R", rigid.name)], *e)
        return self.decomp.without_edge(a, b, pairs)

    def _ordered(self, tasks: list) -> list:
        if self._subupdate_order is not None:
            out = self._subupdate_order(list(tasks))
            assert sorted(map(repr, out)) == sorted(map(repr, tasks))
            return out
        return list(tasks)

    # ---------------------------------------------------- insertion surgery

    def _merge_corridor(self, block: Block, u: Vertex, v: Vertex,
                        path: list[SpqrNode]) -> Embedding:
        """Fuse the components along the window path with the edge u-v.

        Each component gives a rotation scheme and its window face, the
        face holding its anchors (u or v, and its flanking pairs): a rigid
        component its stored rotation and the one such face, which for a
        component between two pairs is the face their stored pair-face
        entries share, a cycle the cycle through its anchors in their
        order around it (the arcs it bypasses are derived from content
        after the change). The pair colours are the parities of those
        entries along the path, from 0 at the first pair's lesser vertex.
        A scheme whose window face crosses its seam the wrong way is
        mirrored, so every window face traverses its left seam pair top to
        bottom and its right one bottom to top, top the vertex of colour
        0. Each is spliced into the rotation built so far at its left
        pair, as blocks are assembled, which lands it in the window face,
        and pairs the corridor dissolves lose their virtual entries. The
        splices make the window faces one face, across which u-v is drawn,
        at u's corner on the first window face and v's on the last. Only
        then does the fused rotation become an embedding, which keeps the
        faces of its rigid components off the window pairs and u and v and
        traces the faces through them. A path of one rigid component has
        no pairs and so no flip: a face split, which draws u-v across the
        stored window face and retraces only the two faces it makes.
        """
        comps = path[::2]
        pairs = [nd[1] for nd in path[1::2]]
        colours = dict(zip(pairs[0], (0, 1))) if pairs else {}
        inner = {}  # the window face of each component between two pairs
        for i in range(1, len(pairs)):
            p, q = pairs[i - 1], pairs[i]
            entries = self.pair_faces[block.name][comps[i]]
            link = shared_face(entries[p], entries[q])
            assert link is not None, "window pairs share no face"
            inner[i], flip = link
            c = colours[p[0]] ^ flip
            for x, cx in zip(q, (c, c ^ 1)):
                assert colours.get(x, cx) == cx, \
                    "colour conflict at shared vertex"
                colours[x] = cx
        pair_verts = {x for p in pairs for x in p}
        assert u not in pair_verts and v not in pair_verts

        def top(p: Edge) -> Vertex:
            return p[0] if colours[p[0]] == 0 else p[1]

        def bottom(p: Edge) -> Vertex:
            return _partner(p, top(p))

        window_verts: set[Vertex] = set()
        sources = []  # the rigid schemes spliced, each with its flip
        for i, nd in enumerate(comps):
            anchors = (set(pairs[i - 1]) if i > 0 else {u}) | \
                (set(pairs[i]) if i < len(pairs) else {v})
            emb = self.comp_embs[nd]
            if nd[0] == "S":
                bd = tuple(x for x in emb.outer if x in anchors)
                k = len(bd)
                assert k == len(anchors) >= 3
                crot = {bd[j]: (bd[(j + 1) % k], bd[j - 1]) for j in range(k)}
            else:
                crot = emb.rot
                bd = inner.get(i) or emb.common_face(anchors)
            window_verts |= set(bd)
            if pairs:
                want = (bottom(pairs[0]), top(pairs[0])) if i == 0 \
                    else (top(pairs[i - 1]), bottom(pairs[i - 1]))
                flip = crossing(bd, want) != want
                if flip:
                    crot = {x: seq[::-1] for x, seq in crot.items()}
                    bd = bd[::-1]
                if nd[0] == "R":
                    sources.append((emb, flip))
                assert crossing(bd, want) == want, \
                    "window face lost its seam orientation"
                if 0 < i < len(comps) - 1:
                    assert crossing(bd, pairs[i]) == \
                        (bottom(pairs[i]), top(pairs[i])), \
                        "right seam disagrees with the colouring"
            if i > 0:
                _splice(rot, crot, *want)
            elif pairs:
                rot = {x: list(seq) for x, seq in crot.items()}
                rot[u] = at_corner(crot[u], u, v, bd)
        if pairs:
            rot[v] = at_corner(crot[v], v, u, bd)  # on the last window face
            for p in pairs:
                if p not in self.decomp.edges and \
                        len(block.tree[("P", p)]) == 2:
                    s, t = p
                    rot[s].remove(t)
                    rot[t].remove(s)
            emb = Embedding._derived(
                {x: tuple(seq) for x, seq in rot.items()},
                pair_verts | {u, v}, sources)
        else:
            emb = self.comp_embs[comps[0]].with_edge(u, v, bd)
        if __debug__:
            # the two faces at u-v, each simple, so the edge borders two
            # faces
            f1, f2 = _orbit(emb.rot, u, v), _orbit(emb.rot, v, u)
            side_a, side_b = set(f1), set(f2)
            assert len(side_a) == len(f1) and len(side_b) == len(f2), \
                "the new edge must border two faces"
            assert side_a | side_b == window_verts and \
                side_a & side_b == {u, v}, \
                "the new edge must split the window faces into two arcs"
            tops = {x for x in pair_verts if colours[x] == 0}
            bots = pair_verts - tops
            assert (tops <= side_a and bots <= side_b) or \
                (tops <= side_b and bots <= side_a), \
                "colour classes must split across the new edge"
        return emb

    # ----------------------------------------------------- deletion surgery

    def _project_rigid(self, source: TriComp, comp: TriComp, block: Block,
                       deleted: Edge) -> Embedding:
        """Project the embedding of the old rigid component `source` onto
        the new rigid component `comp` of `block`, which it contains.

        A deletion never merges rigid components, so `source` is the one
        old rigid component whose vertex set holds comp's. Entries for the
        deleted edge vanish; entries whose edge survives in comp stay;
        every other entry collapses into the bundle entry of the new pair
        whose far side it points at, read off the block's SPQR tree. When
        comp has the source's vertices and pairs, it is the source less
        the deleted edge, whose two faces merge. Otherwise only the
        deleted edge's ends and the old and new pairs' vertices change
        their rotation, and only the faces through them are traced.
        """
        old = self.comp_embs[(source.kind, source.name)]
        if comp.vertices == source.vertices and comp.pairs == source.pairs:
            return old.without_edge(*deleted)
        da, db = deleted
        ew = comp.real_edges | comp.pairs
        far = _far_sides(block, comp, comp.pairs - source.pairs)
        # an entry that is no edge of comp is the deleted edge's, a real
        # edge's that a new pair's bundle entry takes, or an old pair's
        at = comp.vertices & {da, db, *(x for p in comp.pairs | source.pairs
                                        for x in p)}
        rot = {x: old.rot[x] for x in comp.vertices}
        for x in at:
            # a bundle entry stands for a run of entries; it is the only
            # entry that can repeat, so runs merge on repeats
            entries = []
            for w in old.rot[x]:
                if {x, w} == {da, db}:
                    continue
                if canonical_edge(x, w) in ew:
                    hits = [w]
                else:
                    hits = [_partner(p, x) for p, side in far.items()
                            if x in p and w in side]
                    assert len(hits) <= 1, \
                        f"entry {w} at {x} matches two far sides"
                if hits and (not entries or entries[-1] != hits[0]):
                    entries.append(hits[0])
            if len(entries) > 1 and entries[0] == entries[-1]:
                entries.pop()
            assert len(set(entries)) == len(entries), \
                f"bundle segment split at vertex {x}"
            rot[x] = tuple(entries)
        return Embedding._derived(rot, at, [(old, False)])

    # --------------------------------------------------------------- commit

    def _commit(self, new_decomp: DecompositionState, edge: Edge,
                windows=None) -> None:
        """Install `new_decomp`, this state with `edge` inserted across
        the gate's `windows`, or deleted when `windows` is None.

        The change is the components it dropped and made, each with its
        block (`_dropped_and_made`); every other component keeps its
        embedding. A made cycle derives its embedding from content. A
        made rigid component is built by surgery from its one source and
        canonicalised: the window whose two ends it holds, or the dropped
        rigid component that contains it. Only components given a new
        embedding or new pairs get new pair-face entries.

        A created block keeps its rotation when it dropped and made
        nothing and kept its pairs. It is patched at the edge's two ends
        when its one made rigid component replaces a dropped one of the
        same node and pairs and `canonical()` kept the edit; otherwise it
        is assembled. When every created block keeps the name and
        vertices of a replaced one, the graph rotation is written at the
        edge's ends and at the vertices whose block rotation entry moved;
        otherwise at every vertex of the replaced and created blocks."""
        gone, made = _dropped_and_made(new_decomp)
        comp_embs = dict(self.comp_embs)
        for _, c in gone:
            del comp_embs[c.kind, c.name]
        rigid = []
        for blk, c in made:
            if c.kind == "S":
                # canonical as derived: at degree 2 a flip serialises the
                # same
                comp_embs[c.kind, c.name] = _cycle_embedding(c)
            else:
                rigid.append((blk, c))
        assert windows is None or len(rigid) == len(windows), \
            "a window fused other than one component"
        edits = set()  # the made rigid components `canonical()` kept
        for blk, c in self._ordered(rigid):
            if windows is not None:
                found = [w for w in windows if {w[1], w[2]} <= c.vertices]
            else:
                found = [s for _, s in gone
                         if s.kind == "R" and c.vertices <= s.vertices]
            assert len(found) == 1, f"no one source for component {c.name}"
            emb = self._project_rigid(found[0], c, blk, edge) \
                if windows is None else self._merge_corridor(*found[0])
            assert _embedding_key(emb) == _content_key(c), \
                f"surgery built another component than {c.name}"
            comp_embs[c.kind, c.name] = canon = emb.canonical()
            if canon is emb:
                edits.add(c.name)
        # a change that dropped and made nothing gives no component a new
        # embedding or new pairs
        pair_faces = update_colouring(
            self.pair_faces, new_decomp, comp_embs, self.comp_embs) \
            if gone or made else self.pair_faces

        old = {blk.name: blk for blk in new_decomp.replaced}
        at = set(edge) if all(
            blk.name in old and old[blk.name].vertices == blk.vertices
            for blk in new_decomp.created) else None
        block_rots = dict(self.block_rots)
        for blk in new_decomp.replaced:
            block_rots.pop(blk.name, None)
        for blk in new_decomp.created:
            if blk.is_bridge:
                continue
            was, base = old.get(blk.name), self.block_rots.get(blk.name)
            dropped = [c for b, c in gone if b.name == blk.name]
            making = [c for b, c in made if b is blk]
            if was is not None and not dropped and not making \
                    and was.pairs == blk.pairs:
                rot = base
            elif len(dropped) == len(making) == 1 and \
                    making[0].name in edits and \
                    (dropped[0].kind, dropped[0].name, dropped[0].pairs) == \
                    (making[0].kind, making[0].name, making[0].pairs):
                rot = self._assemble_block(comp_embs, blk, base, edge)
            else:
                rot = self._assemble_block(comp_embs, blk)
                if at is not None:
                    at.update(x for x in blk.vertices if rot[x] != base[x])
            block_rots[blk.name] = rot
        graph_rot = self._assemble_graph(new_decomp, block_rots,
                                         self.graph_rot, at)
        step = 1 if windows is not None else -1
        assert at is None or all(
            len(graph_rot.get(x, ())) == len(self.graph_rot[x])
            + (step if x in edge else 0) for x in at), \
            "patched rotation misses an edge"

        self.decomp = new_decomp
        self.comp_embs = comp_embs
        self.pair_faces = pair_faces
        self.block_rots = block_rots
        self.graph_rot = graph_rot

    # ------------------------------------------------------------- assembly

    @staticmethod
    def _assemble_block(comp_embs: dict, block: Block, base=None,
                        at=()) -> dict[Vertex, tuple]:
        """Splice the component embeddings into one block rotation, in
        the order `_splices` gives. A block of one component has its
        component's rotation, shared, not copied. Given the vertices
        `at`, the ends of the edge that the block's one made rigid
        component gained or lost against the dropped one it replaces, of
        the same node and pairs, it is `base`, the replaced block's
        rotation, rewritten there by `_block_entry`.

        Every component rotation is an `Embedding`'s, which is planar:
        a traced one passed V - E + F = 2, and an edit keeps it (a face
        split adds one face and one edge, a merge removes one of each, a
        mirror keeps every count). A 2-sum of planar schemes is planar,
        so the walk below only guards the splice itself, and a block of
        one component, which has no splice, is not walked.
        """
        if len(block.comps) == 1:
            c, = block.comps
            return comp_embs[(c.kind, c.name)].rot
        if at:
            rot = dict(base)
            for x in at:
                rot[x] = Engine._block_entry(comp_embs, block, x)
            return rot
        order = _splices(block)
        rot = {x: list(seq) for x, seq in comp_embs[next(order)].rot.items()}
        spliced = 1
        for child, s, t in order:
            _splice(rot, comp_embs[child].rot, s, t)
            spliced += 1
        assert spliced == len(block.comps), \
            "SPQR tree of the block is disconnected"
        out = {x: tuple(seq) for x, seq in rot.items()}
        assert euler_per_component(out), "block rotation lost planarity"
        return out

    @staticmethod
    def _block_entry(comp_embs: dict, block: Block, x: Vertex) -> tuple:
        """The entry at x of `_assemble_block`'s rotation, built alone by
        the same splices, of which only those at pairs through x write
        it. The components holding x form a subtree of the SPQR tree,
        and the first one the walk reaches gives x's entry before any
        splice at x. A vertex on no pair lies in one component, which
        gives its entry as it is."""
        if not any(x in p for p in block.pairs):
            c = next(c for c in block.comps if x in c.vertices)
            return comp_embs[(c.kind, c.name)].rot[x]
        order = _splices(block)
        rot = comp_embs[next(order)].rot
        seq = list(rot[x]) if x in rot else None
        for child, s, t in order:
            crot = comp_embs[child].rot
            if x == s or x == t:
                _splice_entry(seq, crot[x], x, s, t)
            elif x in crot:
                assert seq is None, "spliced components overlap off the pair"
                seq = list(crot[x])
        return tuple(seq)

    @staticmethod
    def _assemble_graph(decomp: DecompositionState, block_rots: dict,
                        base: dict | None = None, at=None
                        ) -> dict[Vertex, tuple]:
        """The graph rotation: at each vertex that lies in a block, the
        real entries of its blocks' rotations there (`_real_entries`),
        concatenated in block-name order; the others have none. Given
        `base`, the rotation of the state `decomp` was patched from, it
        is a copy of `base` written only at the vertices `at`: when every
        created block keeps the name and vertices of a replaced one, the
        changed edge's ends and the vertices whose block rotation entry
        moved, and by default every vertex of the blocks `decomp`
        replaced or created. Without `base`, it is written at every
        vertex.

        Each block read at all its vertices (every block without `base`,
        the created ones with it and no `at`) must give two entries per
        edge of the block. Every block rotation holds each entry's
        reverse and no repeated entry (an embedding's rotation does, and
        Euler's walk checks a spliced one), so that is a degree check at
        each vertex of the block. The other blocks passed when they were
        created, and `_commit` checks the degree at each vertex of a
        given `at`, so every written vertex has as many entries as
        edges.
        Euler's formula holds for the whole rotation because it holds
        for each block rotation and genus adds over blocks, so it is not
        checked here."""
        if base is None:
            rot: dict[Vertex, tuple] = {}
            fresh = decomp.blocks
            at = {x for blk in fresh for x in blk.vertices}
        else:
            rot = dict(base)
            fresh = decomp.created if at is None else ()
            if at is None:
                at = {x for blk in (*decomp.replaced, *fresh)
                      for x in blk.vertices}
        read = dict.fromkeys((blk.name for blk in fresh), 0)
        for x in at:
            blocks = decomp.blocks_at(x)
            parts = [_real_entries(blk, block_rots, x) for blk in blocks]
            for blk, part in zip(blocks, parts):
                if blk.name in read:
                    read[blk.name] += len(part)
            if not parts:
                rot.pop(x, None)
            elif len(parts) == 1:
                rot[x] = parts[0]
            else:
                rot[x] = tuple(w for part in parts for w in part)
        assert all(read[blk.name] == 2 * len(blk.edges) for blk in fresh), \
            "graph rotation misses an edge"
        return rot

    # -------------------------------------------------------------- queries

    def graph_rotation_query(self, v: Vertex, a: Vertex, b: Vertex,
                             c: Vertex) -> bool:
        """Is b between a and c clockwise around v in the whole graph?"""
        self.decomp.check_vertex(v)
        seq = self.graph_rot.get(v, ())
        for x in (a, b, c):
            if x not in seq:
                raise GraphError(f"{x} is not a neighbour of {v}")
        return cyclic_triple_query(seq, a, b, c)

    def graph_face_query(self, a: Vertex, b: Vertex, c: Vertex) -> bool:
        """Do a, b, c lie clockwise on a common component face?"""
        hit = self.decomp.same_tricomp(a, b, c)
        if hit is None:
            return False
        name, kind = hit
        return self.comp_embs[(kind, name)].face_query(a, b, c)

    # ---------------------------------------------------------------- dumps

    def dump_decomposition(self) -> str:
        return self.decomp.dump()

    def dump(self) -> str:
        """The five structures as canonical text, formatted with the memo
        the previous dump left (`_dump`)."""
        text, self._dumped = self._dump(self._dumped)
        return text

    def _dump(self, memo: dict) -> tuple[str, dict]:
        """The dump and the memo it was formatted with. `memo` maps each
        block name to its key, what `_block_sections` returned and its
        colourings section: the key is the tree and pair-face entries the
        colourings were listed from, then the arguments `_block_sections`
        last got. It maps each vertex to its graph rotation entry and its
        line, and "bc-tree" to the vertex index `bc_section` last got and
        its section. An entry is reused only while each of them is the
        object (`is`) the state holds now. Given {}, it formats every
        section: a cold dump."""
        new: dict = {}
        for blk in self.decomp.blocks:
            if blk.is_bridge:
                continue
            key = (blk.tree, self.pair_faces.get(blk.name), blk,
                   self.block_rots[blk.name],
                   *(self.comp_embs[(c.kind, c.name)] for c in blk.comps))
            old = memo.get(blk.name)
            if not old or not all(map(is_, old[0], key)):
                secs = old[1] if old and all(map(is_, old[0][2:], key[2:])) \
                    else _block_sections(*key[2:])
                col = old[2] if old and all(map(is_, old[0][:2], key[:2])) \
                    else _colouring_section(blk, self.pair_faces)
                old = (key, secs, col)
            new[blk.name] = old
        order = sorted(new.values(), key=lambda e: e[1][0])  # label order
        at, old = self.decomp._blocks_of_vertex, memo.get("bc-tree")
        if not old or old[0] is not at:
            old = (at, bc_section(at))
        new["bc-tree"] = old
        parts = [old[1]]
        parts += [e[1][1] for e in order]  # spqr-tree
        parts += [e[1][2] for e in order]  # sr-embeddings
        parts += [e[2] for e in order if e[2] is not None]  # colourings
        parts += [e[1][3] for e in order]  # block-embedding
        parts.append("graph-embedding")
        for v in sorted(self.graph_rot):
            seq, old = self.graph_rot[v], memo.get(v)
            if not old or old[0] is not seq:
                old = (seq, f"rot {v}: " +
                       " ".join(map(str, opened_at_least(seq))))
            new[v] = old
            parts.append(old[1])
        return "\n".join(parts), new
