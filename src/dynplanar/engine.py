"""Dynamic planarity engine with test-and-reject edge changes.

The engine owns five relations and keeps them consistent after every
accepted change:

  1. the block/SPQR decomposition (blocks a change leaves alone are
     carried, the others rebuilt),
  2. one embedding per triconnected component,
  3. the coherent-path two-colourings per block,
  4. one rotation scheme per non-bridge block,
  5. the whole-graph rotation scheme, concatenated at each vertex from
     per-block real-edge rotations (the block rotation less its virtual
     entries). A block the change keeps carries its real-edge rotation;
     every other block derives its own once.

One rule, in `Engine._commit`, decides each new component's embedding:
a component whose block the change kept or whose content key is
unchanged carries it; a new cycle derives its unique rotation scheme
from content; a rigid component whose content key the predecessor lacks
is built by surgery and canonicalised. An insert builds it by merging
the corridor of the one window whose two endpoints it holds; a delete
projects the one old rigid component whose vertex set contains it (a
deletion merges only cycles). A corridor merge is the splice that
assembles blocks, applied along the window path to rotation schemes
once the two-colouring has fixed each one's flip. A face split is the
corridor of one rigid component, which has no pairs and so no flip. A
projection reads the far side of each new pair off the new block's SPQR
tree. The gate returns the windows, so deciding and building walk the
state once. Carrying by content key makes the whole state a pure
function of the edge set, which the decomposition state holds.
"""
from __future__ import annotations

from .coherence import (
    colour_path,
    dump_colourings,
    node_label,
    update_colouring,
)
from .decomposition import Block, DecompositionState, SpqrNode, TriComp
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
    crossing,
    cyclic_triple_query,
    euler_per_component,
    opened_at,
    opened_at_least,
)

ContentKey = tuple  # (frozenset of vertices, frozenset of edges)


# ----------------------------------------------------- derived cycle schemes

def _cycle_embedding(comp: TriComp) -> Embedding:
    """The unique rotation scheme of a cycle component."""
    nbrs: dict[Vertex, list[Vertex]] = {}
    for u, v in comp.real_edges | comp.pairs:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    assert all(len(ws) == 2 for ws in nbrs.values()), \
        f"component {comp.name} is not a cycle"
    return Embedding(nbrs)


def _content_key(comp: TriComp) -> ContentKey:
    return (comp.vertices, frozenset(comp.real_edges | comp.pairs))


def _embedding_key(emb: Embedding) -> ContentKey:
    return (emb.vertices, emb.edge_set())


def _partner(pair: Edge, x: Vertex) -> Vertex:
    assert x in pair
    return pair[1] if pair[0] == x else pair[0]


def _splice(rot: dict, crot: dict, s: Vertex, t: Vertex) -> None:
    """2-sum the rotation scheme crot into rot along their virtual edge s-t.

    The child is opened at the shared pair and inserted against the
    parent's bundle entry: before it at s, after it at t, so it lands in
    the parent's face that traverses t -> s. The bundle entry survives.
    """
    i = rot[s].index(t)
    rot[s][i:i] = opened_at(crot[s], t)[1:]
    j = rot[t].index(s)
    rot[t][j + 1:j + 1] = opened_at(crot[t], s)[1:]
    for w, seq in crot.items():
        if w != s and w != t:
            assert w not in rot, "spliced components overlap off the pair"
            rot[w] = list(seq)


def _real_rotation(block: Block, block_rot: dict | None
                   ) -> dict[Vertex, tuple]:
    """The block's rotation filtered to its real edges, each vertex's
    entries opened at the least one; a bridge has one at each end."""
    if block.is_bridge:
        (u, v), = block.edges
        return {u: (v,), v: (u,)}
    out: dict[Vertex, tuple] = {}
    for x, seq in block_rot.items():
        entries = tuple(w for w in seq
                        if ((x, w) if x < w else (w, x)) in block.edges)
        assert entries, "block holds a vertex with no real edge"
        out[x] = opened_at_least(entries)
    return out


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


# ------------------------------------------------------------------- engine

class Engine:
    """Fully dynamic planarity and embedding maintenance."""

    def __init__(self, n: int):
        if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
            raise DomainError(f"domain size must be a positive int, got {n!r}")
        self.decomp = DecompositionState.from_edges(n, ())
        self.comp_embs: dict[SpqrNode, Embedding] = {}
        self.colourings: dict = {}
        self.block_rots: dict = {}
        self.real_rots: dict = {}
        self.graph_rot: dict[Vertex, tuple] = {}
        # Test hook: permutes the order of independent sub-updates.
        self._subupdate_order = None

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
        new_decomp = self.decomp.with_edge(a, b)
        change = EdgeChangeType(
            INSERT,
            self.decomp.level_between(a, b),
            new_decomp.level_between(a, b),
        )
        assert (INSERT, change.before_level, change.after_level) \
            not in IMPOSSIBLE_TYPES, change
        self._commit(new_decomp, windows)
        return ChangeOutcome(ACCEPTED, change)

    def delete_edge(self, a: Vertex, b: Vertex) -> ChangeOutcome:
        self.decomp.check_vertex(a, b)
        if not self.decomp.has_edge(a, b):
            return ChangeOutcome(NOOP_ABSENT)
        new_decomp = self.decomp.without_edge(a, b)
        change = EdgeChangeType(
            DELETE,
            self.decomp.level_between(a, b),
            new_decomp.level_between(a, b),
        )
        assert (DELETE, change.before_level, change.after_level) \
            not in IMPOSSIBLE_TYPES, change
        self._commit(new_decomp, deleted=canonical_edge(a, b))
        return ChangeOutcome(ACCEPTED, change)

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
        component its stored rotation and the one such face, a cycle the
        cycle through its anchors in their order around it (the arcs it
        bypasses are derived from content after the change). A scheme
        whose window face crosses its seam the wrong way is mirrored, so
        every window face traverses its left seam pair top to bottom and
        its right one bottom to top. Each is spliced into the rotation
        built so far at its left pair, as blocks are assembled, which
        lands it in the window face; pairs the corridor dissolves lose
        their virtual entries, and u-v goes in at the window-face corners
        of u and v. Only the fused rotation becomes an embedding. A path
        of one rigid component has no pairs and so no flip: a face split.
        """
        comps = path[::2]
        pairs = [nd[1] for nd in path[1::2]]
        colours = colour_path(self.comp_embs, path) if pairs else {}
        pair_verts = {x for p in pairs for x in p}
        assert u not in pair_verts and v not in pair_verts

        def top(p: Edge) -> Vertex:
            return p[0] if colours[p[0]] == 0 else p[1]

        def bottom(p: Edge) -> Vertex:
            return _partner(p, top(p))

        window_verts: set[Vertex] = set()
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
                bd = emb.common_face(anchors)
            window_verts |= set(bd)
            if pairs:
                want = (bottom(pairs[0]), top(pairs[0])) if i == 0 \
                    else (top(pairs[i - 1]), bottom(pairs[i - 1]))
                if crossing(bd, want) != want:
                    crot = {x: seq[::-1] for x, seq in crot.items()}
                    bd = bd[::-1]
                assert crossing(bd, want) == want, \
                    "window face lost its seam orientation"
                if 0 < i < len(comps) - 1:
                    assert crossing(bd, pairs[i]) == \
                        (bottom(pairs[i]), top(pairs[i])), \
                        "right seam disagrees with the colouring"
            if i == 0:
                rot = {x: list(seq) for x, seq in crot.items()}
                first_bd = bd
            else:
                _splice(rot, crot, *want)

        for p in pairs:
            if p not in self.decomp.edges and len(block.tree[("P", p)]) == 2:
                s, t = p
                rot[s].remove(t)
                rot[t].remove(s)
        for x, other, bd in ((u, v, first_bd), (v, u, bd)):
            k = bd.index(x)
            seq = rot[x]
            j = seq.index(bd[(k + 1) % len(bd)])
            assert seq[(j + 1) % len(seq)] == bd[k - 1], \
                "corner disagrees with rotation"
            seq.insert(j + 1, other)

        emb = Embedding(rot)
        sides = [set(bd) for bd in emb.faces if crossing(bd, (u, v))]
        assert len(sides) == 2, "the new edge must border two faces"
        side_a, side_b = sides
        assert side_a | side_b == window_verts and side_a & side_b == {u, v}, \
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
        whose far side it points at, read off the block's SPQR tree.
        """
        old = self.comp_embs[(source.kind, source.name)]
        da, db = deleted
        ew = comp.real_edges | comp.pairs
        far = _far_sides(block, comp, comp.pairs - source.pairs)
        rot: dict[Vertex, list] = {}
        for x in sorted(comp.vertices):
            # a bundle entry stands for a run of entries; it is the only
            # entry that can repeat, so runs merge on repeats
            entries = rot[x] = []
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
        return Embedding(rot)

    # --------------------------------------------------------------- commit

    def _commit(self, new_decomp: DecompositionState, windows=(),
                deleted: Edge | None = None) -> None:
        """Install the new state, deciding where each component's
        embedding comes from: carried when its block is kept or its
        content key is unchanged, derived from content for a new cycle,
        and for a rigid component the predecessor lacks, built by surgery
        from its one source and canonicalised. That source is the window
        whose two endpoints it holds, or the old rigid component that
        contains it. Only blocks whose shape changed get new colourings
        and rotations."""
        # a component has three or more vertices and blocks share at most
        # one, so a component of a replaced block is found only there
        kept = {blk.name: blk for blk in new_decomp.blocks}
        carried = {
            _content_key(c): self.comp_embs[(c.kind, c.name)]
            for blk in self.decomp.blocks if kept.get(blk.name) is not blk
            for c in blk.comps
        }
        old_blocks = {blk.name: blk for blk in self.decomp.blocks}
        comp_embs: dict[SpqrNode, Embedding] = {}
        created: list[tuple[Block, TriComp]] = []
        affected = set()
        for blk in new_decomp.blocks:
            old = old_blocks.get(blk.name)
            if old is blk:
                for c in blk.comps:
                    node = (c.kind, c.name)
                    comp_embs[node] = self.comp_embs[node]
                continue
            if old is None or old.pairs != blk.pairs or \
                    {c.content_key() for c in old.comps} != \
                    {c.content_key() for c in blk.comps}:
                affected.add(blk.name)
            for c in blk.comps:
                key = _content_key(c)
                if key in carried:
                    comp_embs[(c.kind, c.name)] = carried[key]
                elif c.kind == "S":
                    # canonical as derived: at degree 2 a flip serialises
                    # the same
                    comp_embs[(c.kind, c.name)] = _cycle_embedding(c)
                else:
                    created.append((blk, c))

        if deleted is None:
            assert len(created) == len(windows), \
                "a window fused other than one component"
        else:  # only the deleted edge's block is replaced
            rigid = [c for c in self.decomp.block_of(*deleted).comps
                     if c.kind == "R"]
        for blk, c in self._ordered(created):
            if deleted is None:
                found = [w for w in windows if {w[1], w[2]} <= c.vertices]
            else:
                found = [s for s in rigid if c.vertices <= s.vertices]
            assert len(found) == 1, f"no one source for component {c.name}"
            emb = self._merge_corridor(*found[0]) if deleted is None \
                else self._project_rigid(found[0], c, blk, deleted)
            assert _embedding_key(emb) == _content_key(c), \
                f"surgery built another component than {c.name}"
            comp_embs[(c.kind, c.name)] = emb.canonical()
        colourings = update_colouring(
            self.colourings, new_decomp, comp_embs, affected)

        block_rots = {
            blk.name: self._assemble_block(comp_embs, blk)
            if blk.name in affected else self.block_rots[blk.name]
            for blk in new_decomp.blocks if not blk.is_bridge
        }
        real_rots = {
            blk.name: self.real_rots[blk.name]
            if old_blocks.get(blk.name) is blk
            else _real_rotation(blk, block_rots.get(blk.name))
            for blk in new_decomp.blocks
        }
        graph_rot = self._assemble_graph(new_decomp, real_rots)

        self.decomp = new_decomp
        self.comp_embs = comp_embs
        self.colourings = colourings
        self.block_rots = block_rots
        self.real_rots = real_rots
        self.graph_rot = graph_rot

    # ------------------------------------------------------------- assembly

    @staticmethod
    def _assemble_block(comp_embs: dict, block: Block) -> dict[Vertex, tuple]:
        """Splice the component embeddings into one block rotation.

        The block's SPQR tree is walked breadth first from its least
        component, and each child is spliced in at its pair, smaller
        vertex first.
        """
        root = min((c.kind, c.name) for c in block.comps)
        rot = {x: list(seq) for x, seq in comp_embs[root].rot.items()}
        seen = {root}
        queue = [root]
        while queue:
            parent = queue.pop(0)
            for pnode in block.tree[parent]:
                s, t = pnode[1]
                for child in block.tree[pnode]:
                    if child in seen:
                        continue
                    _splice(rot, comp_embs[child].rot, s, t)
                    seen.add(child)
                    queue.append(child)
        assert len(seen) == len(block.comps), \
            "SPQR tree of the block is disconnected"
        out = {x: tuple(seq) for x, seq in rot.items()}
        assert euler_per_component(out), "block rotation lost planarity"
        return out

    @staticmethod
    def _assemble_graph(decomp: DecompositionState,
                        real_rots: dict) -> dict[Vertex, tuple]:
        """Concatenate the per-block real-edge rotations at every vertex
        that lies in a block, in block-name order; the others have no
        rotation. The parts are stored per block, so an edit of a past
        graph rotation never reaches a later one."""
        rot: dict[Vertex, tuple] = {}
        for blk in decomp.blocks:  # in name order
            for v, part in real_rots[blk.name].items():
                rot[v] = rot[v] + part if v in rot else part
        assert sum(map(len, rot.values())) == 2 * len(decomp.edges), \
            "graph rotation misses an edge"
        assert euler_per_component(rot), "graph rotation lost planarity"
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

    def dump_sr_embeddings(self) -> str:
        sections = []
        for blk in self.decomp.blocks:
            if not blk.comps:
                continue
            sec = [f"sr-embeddings B({blk.name[0]},{blk.name[1]})"]
            for node in sorted((c.kind, c.name) for c in blk.comps):
                sec.append(f"comp {node_label(node)}")
                sec += self.comp_embs[node].dump_lines()
            sections.append(sec)
        sections.sort(key=lambda sec: sec[0])
        return "\n".join(ln for sec in sections for ln in sec)

    def dump_colourings(self) -> str:
        return "\n".join(dump_colourings(self.colourings))

    def dump_block_embeddings(self) -> str:
        sections = []
        for blk in self.decomp.blocks:
            if blk.is_bridge:
                continue
            sec = [f"block-embedding B({blk.name[0]},{blk.name[1]})"]
            rot = self.block_rots[blk.name]
            for v in sorted(rot):
                words = []
                for w in opened_at_least(rot[v]):
                    ce = canonical_edge(v, w)
                    virtual = ce in blk.pairs and ce not in self.decomp.edges
                    words.append(f"{w}*" if virtual else f"{w}")
                sec.append(f"rot {v}: " + " ".join(words))
            sections.append(sec)
        sections.sort(key=lambda sec: sec[0])
        return "\n".join(ln for sec in sections for ln in sec)

    def dump_graph_embedding(self) -> str:
        lines = ["graph-embedding"]
        for v in sorted(self.graph_rot):
            seq = opened_at_least(self.graph_rot[v])
            lines.append(f"rot {v}: " + " ".join(str(x) for x in seq))
        return "\n".join(lines)

    def dump(self) -> str:
        parts = [
            self.dump_decomposition(),
            self.dump_sr_embeddings(),
            self.dump_colourings(),
            self.dump_block_embeddings(),
            self.dump_graph_embedding(),
        ]
        return "\n".join(p for p in parts if p)
