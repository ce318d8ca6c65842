"""Maximal coherent SPQR-tree paths and separating-pair two-colourings.

A path through a block's SPQR tree counts as coherent when every rigid
component on it has the vertices of its flanking on-path pairs together
on one face. Across such a path an edge can be inserted; the
two-colouring of the pair vertices predicts which of the two new faces
each vertex will border, so it fixes the flip of each component an
insertion fuses.

The two-colouring is kept as a local relation (`pair_faces`): for each
S/R component with two or more pairs and each of its pairs (s, t),
s < t, the face of the component that traverses s -> t and the face
that traverses t -> s. An edge of a rigid component borders two faces
and a cycle has two, so that is two entries per pair, and the relation
is linear in the pairs. A component with one pair links no pairs and is
never inside a corridor, so nothing would read its entries and it has
none.
Two pairs of a component that share a face are linked: a path may pass
the component from one to the other. Removing both pairs from that face
leaves two arcs whose ends share a colour, so the colours of any path
are the parity of the pairs' directions on the faces along it
(`shared_face`). Links are not stored; a cycle with k pairs has
k(k - 1) of them. A change decides entries only for the components it
gave a new embedding or new pairs (`update_colouring`), and the
corridor merge reads its colours off the entries along its window path,
so the stored entries must equal a rebuild.

Only maximal coherent paths holding at least one P-node are listed;
their endpoints are S/R nodes, and every coherent path lies in one.
`build_block_paths` finds and colours them from the entries, in one walk
from each end candidate, for dumps and checks. Colours are path-scoped:
a vertex shared by pairs of different paths may be coloured differently
per path.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .decomposition import Block, BlockName, DecompositionState, SpqrNode
from .graph_core import Edge, GraphError, Vertex
from .rotation import Embedding, _orbit


def node_label(node: SpqrNode) -> str:
    kind, name = node
    return f"{kind}({','.join(str(x) for x in name)})"


# ------------------------------------------------------------- window tests


def _windows_pass(embeddings, path, ends=((), ())) -> bool:
    """Every R-node has its two flanks on a common face: the on-path
    pairs beside it or, at an end of the path, the vertices `ends` gives
    for that end. An R-node with an empty flank is not tested."""
    for i, node in enumerate(path):
        if node[0] != "R":
            continue
        left = path[i - 1][1] if i > 0 else ends[0]
        right = path[i + 1][1] if i + 1 < len(path) else ends[1]
        if not left or not right:
            continue
        if embeddings[node].common_face({*left, *right}) is None:
            return False
    return True


def is_coherent(decomp: DecompositionState, embeddings, nodes) -> bool:
    """Public coherence test for any valid SPQR-tree path."""
    seq = [tuple(nd) for nd in nodes]
    if not seq:
        raise GraphError("empty SPQR-tree path")
    real = decomp.spqr_path(seq[0], seq[-1])
    if seq != real:
        raise GraphError("node sequence is not an SPQR-tree path")
    return _windows_pass(embeddings, seq)


# ----------------------------------------------------------- maximal paths


@dataclass(frozen=True)
class CoherentPath:
    """A maximal coherent path and its vertex colouring."""

    nodes: tuple[SpqrNode, ...]
    colours: tuple[tuple[Vertex, int], ...]

    def pair_nodes(self) -> tuple[SpqrNode, ...]:
        return tuple(nd for nd in self.nodes if nd[0] == "P")

    def colour_of(self, v: Vertex) -> int:
        for w, c in self.colours:
            if w == v:
                return c
        raise GraphError(f"vertex {v} carries no colour on this path")

    def dump_line(self) -> str:
        names = " ".join(node_label(nd) for nd in self.nodes)
        cols = " ".join(f"{v}={c}" for v, c in self.colours)
        return f"path {names} : {cols}"


# ------------------------------------------------------ the stored relation


def pair_faces(emb: Embedding, pairs) -> dict[Edge, tuple[tuple, tuple]]:
    """Each pair (s, t), s < t, of a component embedded by `emb`, with
    the face of `emb` that traverses s -> t and the one that traverses
    t -> s, as their stored boundaries. Each face that holds a pair is
    walked once, and every pair on it reads the one boundary."""
    rot = emb.rot
    out = {p: [None, None] for p in sorted(pairs)}
    for (s, t), faces in out.items():
        for d, (x, y) in enumerate(((s, t), (t, s))):
            if faces[d] is not None:
                continue
            cycle = _orbit(rot, x, y)
            i = cycle.index(min(cycle))
            faces[d] = bd = tuple(cycle[i:] + cycle[:i])
            if len(out) == 1:
                continue
            for a, b in zip(bd, bd[1:] + bd[:1]):
                on = out.get((a, b) if a < b else (b, a))
                if on is not None:
                    on[a > b] = bd
    return {p: tuple(faces) for p, faces in out.items()}


def shared_face(faces_p, faces_q):
    """The first face two pairs p and q of a component share, given
    their `pair_faces` entries, and the colour flip from p's lesser
    vertex to q's, 0 or 1; None when they share no face. Removing both
    pairs from the face leaves two arcs whose ends share a colour, so
    the lesser vertices differ in colour when the face runs both pairs
    the same way."""
    for dp, bd in enumerate(faces_p):
        if bd in faces_q:
            return bd, 1 ^ dp ^ faces_q.index(bd)
    return None


def build_block_paths(store, block: Block) -> tuple[CoherentPath, ...]:
    """The block's maximal coherent paths, coloured, in node order, read
    off `store`, the `pair_faces` entries of its components by node.

    A walk starts at each S/R node x and pair p that x links to no other
    of its pairs, with p's lesser vertex coloured 0, follows links
    outward, colouring as it goes, and stores x..y when y links its pair
    onward to none and y > x, flipped so that its least pair's lesser
    vertex gets colour 0.
    """
    tree = block.tree
    links: dict = {}

    def onward(c, p):
        """The links (c, p, q), as q and the colour flip from p's lesser
        vertex to q's: each pair q of c on a face that holds p. A
        component with one pair links none and has no entries."""
        out = links.get((c, p))
        if out is None:
            out = links[(c, p)] = []
            if len(tree[c]) == 1:
                return out
            entries = store[c]
            for q, faces in entries.items():
                link = q != p[1] and shared_face(entries[p[1]], faces)
                if link:
                    out.append((("P", q), link[1]))
        return out

    paths = []
    for x, pairs in tree.items():
        if x[0] == "P":
            continue
        for p in pairs:
            if onward(x, p):
                continue
            s, t = p[1]
            # each entry: enter z through q, whose colours are cq, after
            # path[:depth] and the first ncol colours
            path: list = [x]
            colours: dict = {}
            todo = [(z, p, ((s, 0), (t, 1)), 1, 0)
                    for z in tree[p] if z != x]
            while todo:
                z, q, cq, depth, ncol = todo.pop()
                del path[depth:]
                while len(colours) > ncol:
                    colours.popitem()
                for v, c in cq:
                    assert colours.get(v, c) == c, \
                        "colour conflict at shared vertex"
                    colours[v] = c
                path += q, z
                out = onward(z, q)
                if not out:
                    if z > x:
                        anchor = min(nd[1] for nd in path[1::2])[0]
                        flip = colours[anchor]
                        paths.append(CoherentPath(tuple(path), tuple(sorted(
                            (v, c ^ flip) for v, c in colours.items()))))
                    continue
                base = cq[0][1]  # the colour of q's lesser vertex
                for q2, flip in out:
                    c2 = base ^ flip
                    cq2 = ((q2[1][0], c2), (q2[1][1], c2 ^ 1))
                    todo += ((z2, q2, cq2, len(path), len(colours))
                             for z2 in tree[q2] if z2 != z)
    paths.sort(key=lambda p: p.nodes)
    return tuple(paths)


def _has_face(emb: Embedding, bd) -> bool:
    """Whether bd is a face of emb, whose faces are stored sorted."""
    i = bisect_left(emb.faces, bd)
    return i < len(emb.faces) and emb.faces[i] == bd


def update_colouring(old, decomp: DecompositionState, embeddings,
                     old_embeddings) -> dict[BlockName, dict]:
    """`old`, the `pair_faces` entries of the components of each block
    with pairs, by block name, patched to the change to `decomp` whose
    embeddings are `embeddings`, from `old_embeddings`. The replaced
    blocks' entries go, and each created block with pairs gets those of
    its components with two or more pairs. A pair keeps its old entry
    while its component keeps the pair and both faces of the entry are
    faces of the component's embedding, since each face the pair borders
    holds one of its two directions; the other pairs get theirs afresh
    from the embedding.
    A component whose every entry is kept keeps its old dict, and so
    does a created block whose every component does."""
    new = dict(old)
    carried: dict = {}
    for blk in decomp.replaced:
        carried.update(new.pop(blk.name, ()))
    for blk in decomp.created:
        if not blk.pairs:
            continue
        entries = {}
        for c in blk.comps:
            if len(c.pairs) == 1:
                continue
            node = (c.kind, c.name)
            emb, was = embeddings[node], carried.get(node, {})
            same = emb is old_embeddings.get(node)
            if same and was.keys() == c.pairs:
                entries[node] = was
                continue
            kept = {p: faces for p, faces in was.items() if p in c.pairs
                    and (same or _has_face(emb, faces[0])
                         and _has_face(emb, faces[1]))}
            if len(kept) == len(was) == len(c.pairs):
                entries[node] = was
            else:
                kept.update(pair_faces(emb, c.pairs - kept.keys()))
                entries[node] = kept
        prev = old.get(blk.name, {})
        new[blk.name] = prev if len(prev) == len(entries) and all(
            prev.get(nd) is e for nd, e in entries.items()) else entries
    return new
