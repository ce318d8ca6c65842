"""Maximal coherent SPQR-tree paths and separating-pair two-colourings.

A path through a block's SPQR tree counts as coherent when every rigid
component on it has the vertices of its flanking on-path pairs together
on one face. Across such a path an edge can be inserted; the
two-colouring of the pair vertices predicts which of the two new faces
each vertex will border, so it fixes the flip of each component an
insertion fuses.

Only maximal coherent paths holding at least one P-node are stored; their
endpoints are S/R nodes. Every coherent path lies in a stored one, and
the corridor merge reads its colours there (`path_colours`), so the
stored colourings must equal a rebuild. Colours are path-scoped: a
vertex shared by pairs of different paths may be coloured differently
per path.

`build_block_paths` finds and colours them in one walk from each end
candidate. A link (c, p, q), through which a path may pass component c
from its pair p to its pair q, is decided once, by the face of c that
holds both pairs; that face also carries the colours across c.
"""
from __future__ import annotations

from dataclasses import dataclass

from .decomposition import Block, BlockName, DecompositionState, SpqrNode
from .graph_core import GraphError, Vertex
from .rotation import crossing


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


# ------------------------------------------------------------ stored paths


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


def build_block_paths(embeddings, block: Block) -> tuple[CoherentPath, ...]:
    """The block's maximal coherent paths, coloured, in node order.

    A walk starts at each S/R node x and pair p that x links to no other
    of its pairs, with p's lesser vertex coloured 0, follows links
    outward, colouring as it goes, and stores x..y when y links its pair
    onward to none and y > x, flipped so that its least pair's lesser
    vertex gets colour 0.
    """
    tree = block.tree
    links: dict = {}

    def onward(c, p):
        """The links (c, p, q), as q and each vertex of q with its
        same-colour mate in p: removing both pairs from the face that
        holds them leaves two arcs, whose ends share a colour."""
        out = links.get((c, p))
        if out is None:
            out = links[(c, p)] = []
            for q in tree[c]:
                bd = q != p and embeddings[c].common_face({*p[1], *q[1]})
                if bd:
                    prev, nxt = crossing(bd, p[1]), crossing(bd, q[1])
                    assert prev and nxt, \
                        "a path pair is not a window boundary edge"
                    out.append((q, ((nxt[0], prev[1]), (nxt[1], prev[0]))))
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
                for q2, mates in out:
                    cq2 = tuple((v, colours[w]) for v, w in mates)
                    assert cq2[0][1] != cq2[1][1], \
                        "pair vertices must differ in colour"
                    todo += ((z2, q2, cq2, len(path), len(colours))
                             for z2 in tree[q2] if z2 != z)
    paths.sort(key=lambda p: p.nodes)
    return tuple(paths)


def path_colours(paths, first: SpqrNode, last: SpqrNode
                 ) -> dict[Vertex, int]:
    """The colours of the stored path in `paths` through the P-nodes
    `first` and `last`, and so through every node between them."""
    for p in paths:
        if first in p.nodes and last in p.nodes:
            return dict(p.colours)
    raise AssertionError(f"no stored path holds {first} and {last}")


def update_colouring(old, decomp: DecompositionState, embeddings,
                     affected) -> dict[BlockName, tuple[CoherentPath, ...]]:
    """`old` patched to the blocks `decomp` replaced and created: a
    created block with pairs is coloured afresh when it is affected or
    new by name, and otherwise carries the colouring of the replaced
    block of its name bitwise; every other entry is carried."""
    new = dict(old)
    for block in decomp.replaced:
        new.pop(block.name, None)
    for block in decomp.created:
        if not block.pairs:
            continue
        if block.name in affected or block.name not in old:
            new[block.name] = build_block_paths(embeddings, block)
        else:
            new[block.name] = old[block.name]
    return new

