"""Maximal coherent SPQR-tree paths and separating-pair two-colourings.

A path through a block's SPQR tree is coherent when every rigid component
on it has the vertices of its flanking on-path pairs together on one face.
Across such a path an edge can be inserted; the two-colouring of the pair
vertices predicts which of the two new faces each vertex will border, so
it drives the flip decisions of the insertion handlers.

Only maximal coherent paths holding at least one P-node are stored; their
endpoints are S/R nodes. Colours are path-scoped: a vertex shared by pairs
of different paths may be coloured differently per path.
"""
from __future__ import annotations

from dataclasses import dataclass

from .decomposition import (
    Block,
    BlockName,
    DecompositionState,
    SpqrNode,
    _tree_path,
)
from .graph_core import Edge, GraphError, Vertex
from .rotation import Embedding, crossing


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


# ---------------------------------------------------------------- colouring


def _mates(emb: Embedding, pair_prev: Edge, pair_next: Edge) -> dict:
    """Same-colour partner in pair_prev for each vertex of pair_next.

    Both pair edges lie on the boundary of the window face; removing them
    splits the boundary into two arcs, and the endpoints of each arc share
    a colour. A vertex shared by both pairs is its own singleton arc.
    """
    bd = emb.common_face(set(pair_prev) | set(pair_next))
    assert bd is not None, "window face missing during colouring"
    prev, nxt = crossing(bd, pair_prev), crossing(bd, pair_next)
    assert prev and nxt, "a path pair is not a window boundary edge"
    assert set(prev) != set(nxt), "path pairs must be distinct"
    mates = {nxt[0]: prev[1], nxt[1]: prev[0]}
    assert set(mates) == set(pair_next)
    assert set(mates.values()) == set(pair_prev)
    for v, w in mates.items():
        assert v == w or v not in pair_prev, "pinch vertex must self-map"
    return mates


def colour_path(embeddings, nodes) -> dict[Vertex, int]:
    """Two-colouring of the pair vertices along a coherent path.

    Propagates arc-mate equalities left to right, then flips if needed so
    the least pair's lesser vertex gets colour 0.
    """
    path = [tuple(nd) for nd in nodes]
    pair_pos = [i for i, nd in enumerate(path) if nd[0] == "P"]
    assert pair_pos, "colouring needs at least one P-node"
    assert all(j - i == 2 for i, j in zip(pair_pos, pair_pos[1:]))
    s0, t0 = path[pair_pos[0]][1]
    colours = {s0: 0, t0: 1}
    for i, j in zip(pair_pos, pair_pos[1:]):
        window = path[i + 1]
        mates = _mates(embeddings[window], path[i][1], path[j][1])
        for v, w in mates.items():
            c = colours[w]
            assert colours.get(v, c) == c, "colour conflict at shared vertex"
            colours[v] = c
    for i in pair_pos:
        s, t = path[i][1]
        assert colours[s] != colours[t], "pair vertices must differ in colour"
    anchor = min(path[i][1] for i in pair_pos)[0]
    if colours[anchor] == 1:
        colours = {v: 1 - c for v, c in colours.items()}
    return colours


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


def _end_extendable(embeddings, tree, comp_node: SpqrNode,
                    pair_in: SpqrNode) -> bool:
    for pn in tree[comp_node]:
        if pn == pair_in:
            continue
        if comp_node[0] == "S":
            return True
        verts = set(pair_in[1]) | set(pn[1])
        if embeddings[comp_node].common_face(verts) is not None:
            return True
    return False


def maximal_coherent_paths(embeddings, block: Block):
    """All maximal coherent paths of the block with at least one P-node."""
    tree = block.tree
    nodes = sorted((c.kind, c.name) for c in block.comps)
    out = []
    for i, x in enumerate(nodes):
        for y in nodes[i + 1:]:
            path = tuple(_tree_path(tree, x, y))
            if not _windows_pass(embeddings, path):
                continue
            if _end_extendable(embeddings, tree, path[0], path[1]):
                continue
            if _end_extendable(embeddings, tree, path[-1], path[-2]):
                continue
            out.append(path)
    return out


def build_block_paths(embeddings, block: Block) -> tuple[CoherentPath, ...]:
    paths = []
    for nd in maximal_coherent_paths(embeddings, block):
        colours = colour_path(embeddings, nd)
        paths.append(CoherentPath(nd, tuple(sorted(colours.items()))))
    paths.sort(key=lambda p: p.nodes)
    return tuple(paths)


def update_colouring(old, decomp: DecompositionState, embeddings,
                     affected) -> dict[BlockName, tuple[CoherentPath, ...]]:
    """Rebuild the colourings of affected blocks, carry the rest bitwise."""
    new = {}
    for block in decomp.blocks:
        if not block.pairs:
            continue
        if block.name in affected or block.name not in old:
            new[block.name] = build_block_paths(embeddings, block)
        else:
            new[block.name] = old[block.name]
    return new


def dump_colourings(by_block) -> list[str]:
    sections = []
    for name in by_block:
        sec = [f"colourings B({name[0]},{name[1]})"]
        sec += [p.dump_line() for p in by_block[name]]
        sections.append(sec)
    sections.sort(key=lambda sec: sec[0])
    return [ln for sec in sections for ln in sec]
