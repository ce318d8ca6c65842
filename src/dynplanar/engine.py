"""Dynamic planarity engine with test-and-reject edge changes.

The engine owns five relations and keeps them consistent after every
accepted change:

  1. the block/SPQR decomposition (blocks a change leaves alone are
     carried, the others rebuilt),
  2. one embedding per triconnected component,
  3. the coherent-path two-colourings per block,
  4. one rotation scheme per non-bridge block,
  5. the whole-graph rotation scheme.

Cycle components have a unique rotation scheme, so a new cycle's
embedding is derived from content. Rigid components are the only ones that
need surgery: face splits for insertions inside one component, a
corridor merge when an insertion fuses a path of components, and entry
projection when a deletion unfurls a component. Insertion surgery builds
from the windows the gate returns, so deciding and building walk the
state once. Everything a change does not touch is carried over by
content key, which makes the whole state a pure function of the edge
set, and the decomposition state holds that edge set.
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
    start = min(nbrs)
    order = [start, min(nbrs[start])]
    while len(order) < len(nbrs):
        w1, w2 = nbrs[order[-1]]
        order.append(w2 if w1 == order[-2] else w1)
    return Embedding.from_cycle(order)


def _content_key(comp: TriComp) -> ContentKey:
    return (comp.vertices, frozenset(comp.real_edges | comp.pairs))


def _embedding_key(emb: Embedding) -> ContentKey:
    return (emb.vertices, emb.edge_set())


def _partner(pair: Edge, x: Vertex) -> Vertex:
    assert x in pair
    return pair[1] if pair[0] == x else pair[0]


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
        built = [self._window_built(*w) for w in self._ordered(windows)]
        self._commit(new_decomp, built)
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
        built = self._delete_built(canonical_edge(a, b), new_decomp)
        self._commit(new_decomp, built)
        return ChangeOutcome(ACCEPTED, change)

    def _ordered(self, tasks: list) -> list:
        if self._subupdate_order is not None:
            out = self._subupdate_order(list(tasks))
            assert sorted(map(repr, out)) == sorted(map(repr, tasks))
            return out
        return list(tasks)

    # ---------------------------------------------------- insertion surgery

    def _window_built(self, block: Block, u: Vertex, v: Vertex,
                      path: list[SpqrNode], face) -> Embedding:
        """The rigid embedding a gate window's real or virtual edge u-v
        builds: a split of `face` inside one component, else the merged
        corridor along `path`."""
        if face is None:
            return self._merge_corridor(block, path, u, v)
        emb = self.comp_embs[path[0]].copy()
        emb.split_face(face, u, v)
        return emb

    def _surrogate_cycle(self, emb: Embedding, anchors: set) -> Embedding:
        """Cycle through the anchors in their order around a cycle comp.

        Bypassed arcs become cycle components of their own; those are
        derived from content after the change, so only the shortcut
        cycle is needed here.
        """
        bd = emb.boundary(min(emb.faces))
        order = [x for x in bd if x in anchors]
        assert len(order) == len(anchors) >= 3
        return Embedding.from_cycle(order)

    def _oriented_glue_boundary(self, emb: Embedding, anchors: set,
                                want: tuple[Vertex, Vertex]) -> tuple:
        """Boundary of the face consumed by the corridor, oriented so the
        seam pair is traversed want[0] -> want[1]; flips emb if needed."""

        def scan():
            for _, bdy in sorted(emb.faces.items()):
                if anchors <= set(bdy):
                    i = bdy.index(want[0])
                    if bdy[(i + 1) % len(bdy)] == want[1]:
                        return bdy
            return None

        bd = scan()
        if bd is None:
            emb.flip()
            bd = scan()
        assert bd is not None, "window face lost its seam orientation"
        return bd

    def _merge_corridor(self, block: Block, path: list[SpqrNode], u: Vertex,
                        v: Vertex) -> Embedding:
        """Fuse the components along the window path with the edge u-v.

        Components are oriented so every window face traverses its left
        seam pair top to bottom; then each shared vertex concatenates its
        per-component rotation runs, colour-0 vertices in reverse path
        order and colour-1 vertices in path order, with the surviving
        bundle entry between adjacent runs.
        """
        comps = path[::2]
        pairs = [nd[1] for nd in path[1::2]]
        colours = colour_path(self.comp_embs, path)
        pair_verts = {x for p in pairs for x in p}
        assert u not in pair_verts and v not in pair_verts

        def top(p: Edge) -> Vertex:
            return p[0] if colours[p[0]] == 0 else p[1]

        def bottom(p: Edge) -> Vertex:
            return _partner(p, top(p))

        work: list[Embedding] = []
        glue: list[tuple] = []
        for i, nd in enumerate(comps):
            left = set(pairs[i - 1]) if i > 0 else {u}
            right = set(pairs[i]) if i < len(pairs) else {v}
            emb = self.comp_embs[nd]
            emb = self._surrogate_cycle(emb, left | right) \
                if nd[0] == "S" else emb.copy()
            want = (bottom(pairs[0]), top(pairs[0])) if i == 0 \
                else (top(pairs[i - 1]), bottom(pairs[i - 1]))
            bd = self._oriented_glue_boundary(emb, left | right, want)
            if 0 < i < len(comps) - 1:
                j = bd.index(bottom(pairs[i]))
                assert bd[(j + 1) % len(bd)] == top(pairs[i]), \
                    "right seam disagrees with the colouring"
            work.append(emb)
            glue.append(bd)

        merged: dict[Vertex, list[Vertex]] = {}
        for i, emb in enumerate(work):
            for x, seq in emb.rot.items():
                if x in pair_verts or x in (u, v):
                    continue
                assert x not in merged, "corridor comps overlap off the pairs"
                merged[x] = list(seq)

        for x in pair_verts:
            at = [i for i, p in enumerate(pairs) if x in p]
            lo, hi = at[0], at[-1]
            assert at == list(range(lo, hi + 1)), "pair run not contiguous"
            runs = []
            for ci in range(lo, hi + 2):
                consumed = []
                if ci > lo:
                    consumed.append(_partner(pairs[ci - 1], x))
                if ci <= hi:
                    consumed.append(_partner(pairs[ci], x))
                runs.append(self._run_without(work[ci].rot[x], consumed))
            rem = []
            for p in pairs[lo:hi + 1]:
                keep = p in self.decomp.edges or len(block.tree[("P", p)]) > 2
                rem.append(_partner(p, x) if keep else None)
            out: list[Vertex] = []
            if colours[x] == 0:
                for ci in range(hi + 1, lo - 1, -1):
                    out += runs[ci - lo]
                    if ci > lo and rem[ci - 1 - lo] is not None:
                        out.append(rem[ci - 1 - lo])
            else:
                for ci in range(lo, hi + 2):
                    out += runs[ci - lo]
                    if ci <= hi and rem[ci - lo] is not None:
                        out.append(rem[ci - lo])
            merged[x] = out

        for x, other, bd in ((u, v, glue[0]), (v, u, glue[-1])):
            pred, succ = bd[bd.index(x) - 1], bd[(bd.index(x) + 1) % len(bd)]
            seq = list(work[0 if x == u else -1].rot[x])
            j = seq.index(succ)
            assert seq[(j + 1) % len(seq)] == pred, \
                "corner disagrees with rotation"
            seq.insert(j + 1, other)
            merged[x] = seq

        emb = Embedding(merged)
        f_uv = emb.face_with_dart(u, v)
        f_vu = emb.face_with_dart(v, u)
        assert f_uv != f_vu
        side_uv = set(emb.boundary(f_uv))
        side_vu = set(emb.boundary(f_vu))
        tops = {x for x in pair_verts if colours[x] == 0}
        bots = pair_verts - tops
        assert (tops <= side_uv and bots <= side_vu) or \
            (tops <= side_vu and bots <= side_uv), \
            "colour classes must split across the new edge"
        return emb

    @staticmethod
    def _run_without(seq: tuple, consumed: list[Vertex]) -> list[Vertex]:
        """Linear run left when the consumed entries leave the cyclic order."""
        if len(consumed) == 1:
            return list(opened_at(seq, consumed[0])[1:])
        c0, c1 = consumed
        k = len(seq)
        i0, i1 = seq.index(c0), seq.index(c1)
        if (i0 + 1) % k == i1:
            first = c0
        else:
            assert (i1 + 1) % k == i0, "pinch entries must sit side by side"
            first = c1
        return list(opened_at(seq, first)[2:])

    # ----------------------------------------------------- deletion surgery

    def _delete_built(self, edge: Edge,
                      new_decomp: DecompositionState) -> list[Embedding]:
        a, b = edge
        d = self.decomp
        if d.is_separating_pair(a, b):
            return []  # the bundle loses its real edge; cycles re-derive
        block = d.block_of(a, b)
        if block.is_bridge:
            return []
        built: list[Embedding] = []
        comps = sorted(block.comps, key=lambda c: (c.kind, c.name))
        for comp in self._ordered(comps):
            if comp.kind == "R":
                built += self._project_rigid(comp, edge, new_decomp)
        return built

    def _project_rigid(self, comp: TriComp, deleted: Edge,
                       new_decomp: DecompositionState) -> list[Embedding]:
        """Project a rigid component's embedding onto its successors.

        Entries for the deleted edge vanish; entries whose edge survives
        in the successor stay; every other entry collapses into the
        bundle entry of the successor pair whose far side it points at.
        """
        old = self.comp_embs[(comp.kind, comp.name)]
        da, db = deleted
        out: list[Embedding] = []
        cands = [W for blk in new_decomp.blocks for W in blk.comps
                 if W.kind == "R" and W.vertices <= comp.vertices]
        for W in cands:
            ew = frozenset(W.real_edges | W.pairs)
            newpairs = W.pairs - comp.pairs
            rot: dict[Vertex, tuple] = {}
            for x in sorted(W.vertices):
                toks: list[tuple] = []
                for w in old.rot[x]:
                    if {x, w} == {da, db}:
                        continue
                    ce = canonical_edge(x, w)
                    if ce in newpairs:
                        toks.append(("bundle", _partner(ce, x)))
                    elif ce in ew:
                        toks.append(("keep", w))
                    else:
                        y = self._far_pair(x, w, W, newpairs, new_decomp)
                        if y is not None:
                            toks.append(("bundle", y))
                kept: list[tuple] = []
                for t in toks:
                    if t[0] == "bundle" and kept and kept[-1] == t:
                        continue
                    kept.append(t)
                if len(kept) > 1 and kept[0][0] == "bundle" \
                        and kept[0] == kept[-1]:
                    kept.pop()
                entries = tuple(w for _, w in kept)
                assert len(set(entries)) == len(entries), \
                    f"bundle segment split at vertex {x}"
                rot[x] = entries
            emb = Embedding(rot)
            assert emb.vertices == W.vertices and emb.edge_set() == ew, \
                f"projection of {comp.name} misses component {W.name}"
            out.append(emb)
        return out

    @staticmethod
    def _far_pair(x: Vertex, w: Vertex, W: TriComp, newpairs,
                  new_decomp: DecompositionState) -> Vertex | None:
        """Partner of the new pair at x whose far side holds w, if any."""
        hits = []
        for p in sorted(newpairs):
            if x not in p:
                continue
            z = min(W.vertices - set(p))
            if not new_decomp.connected_avoiding(w, z, p):
                hits.append(_partner(p, x))
        assert len(hits) <= 1, f"entry {w} at {x} matches two far sides"
        return hits[0] if hits else None

    # --------------------------------------------------------------- commit

    def _commit(self, new_decomp: DecompositionState,
                built: list[Embedding]) -> None:
        """Install the new state. Surgery's embeddings are canonicalised;
        every other component takes its carried embedding (canonical
        already) or, for a new cycle, the one derived from content. Only
        blocks whose shape changed get new colourings and rotations."""
        built_by_key: dict[ContentKey, Embedding] = {}
        for emb in built:
            key = _embedding_key(emb)
            assert key not in built_by_key, "duplicate built embedding"
            built_by_key[key] = emb
        carried = {
            _content_key(c): self.comp_embs[(c.kind, c.name)]
            for blk in self.decomp.blocks for c in blk.comps
        }
        old_blocks = {blk.name: blk for blk in self.decomp.blocks}
        comp_embs: dict[SpqrNode, Embedding] = {}
        used = set()
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
                if c.kind == "R" and key in built_by_key:
                    emb = built_by_key[key].canonical()
                    used.add(key)
                elif key in carried:
                    emb = carried[key]
                else:
                    assert c.kind == "S", \
                        f"no embedding built or carried for {c.name}"
                    # canonical as derived: at degree 2 a flip serialises
                    # the same
                    emb = _cycle_embedding(c)
                comp_embs[(c.kind, c.name)] = emb
        assert used == set(built_by_key), "surgery built an orphan embedding"
        colourings = update_colouring(
            self.colourings, new_decomp, comp_embs, affected)

        block_rots = {
            blk.name: self._assemble_block(comp_embs, blk)
            if blk.name in affected else self.block_rots[blk.name]
            for blk in new_decomp.blocks if not blk.is_bridge
        }
        graph_rot = self._assemble_graph(new_decomp, block_rots)

        self.decomp = new_decomp
        self.comp_embs = comp_embs
        self.colourings = colourings
        self.block_rots = block_rots
        self.graph_rot = graph_rot

    # ------------------------------------------------------------- assembly

    @staticmethod
    def _assemble_block(comp_embs: dict, block: Block) -> dict[Vertex, tuple]:
        """Splice the component embeddings into one block rotation.

        The block's SPQR tree is walked breadth first from its least
        component. Children are opened at the shared pair and inserted
        against the parent's bundle entry: before it at the smaller pair
        vertex, after it at the larger one. The bundle entry itself
        survives.
        """
        root = min((c.kind, c.name) for c in block.comps)
        rot = {x: list(seq) for x, seq in comp_embs[root].rot.items()}
        seen = {root}
        queue = [root]
        while queue:
            parent = queue.pop(0)
            for pnode in block.tree[parent]:
                s, t = pair = pnode[1]
                for child in block.tree[pnode]:
                    if child in seen:
                        continue
                    crot = comp_embs[child].rot
                    i = rot[s].index(t)
                    rot[s][i:i] = opened_at(crot[s], t)[1:]
                    j = rot[t].index(s)
                    rot[t][j + 1:j + 1] = opened_at(crot[t], s)[1:]
                    for w, seq in crot.items():
                        if w not in pair:
                            assert w not in rot
                            rot[w] = list(seq)
                    seen.add(child)
                    queue.append(child)
        assert len(seen) == len(block.comps), \
            "SPQR tree of the block is disconnected"
        out = {x: tuple(seq) for x, seq in rot.items()}
        assert euler_per_component(out), "block rotation lost planarity"
        return out

    @staticmethod
    def _assemble_graph(decomp: DecompositionState,
                        block_rots: dict) -> dict[Vertex, tuple]:
        """Concatenate per-block real-edge rotations at every vertex that
        lies in a block; the others have no rotation."""
        rot: dict[Vertex, tuple] = {}
        for v in sorted({x for blk in decomp.blocks for x in blk.vertices}):
            parts = []
            for blk in sorted(decomp.blocks_of_vertex(v),
                              key=lambda b: b.name):
                if blk.is_bridge:
                    parts.append((next(iter(blk.vertices - {v})),))
                    continue
                entries = tuple(w for w in block_rots[blk.name][v]
                                if canonical_edge(v, w) in decomp.edges)
                assert entries, "block holds a vertex with no real edge"
                parts.append(opened_at_least(entries))
            if parts:
                rot[v] = tuple(x for part in parts for x in part)
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
        res = self.comp_embs[(kind, name)].face_query(a, b, c)
        return res is not None and res[1]

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
