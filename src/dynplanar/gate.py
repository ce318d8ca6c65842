"""Insertion admissibility, and the windows the admitted insert crosses.

An insertion is admitted exactly when the graph stays planar. Joining
components or trees is always safe, a chord or bundle edge inside one
component is always safe, and the two remaining cases reduce to face
queries: endpoints sharing a rigid component need a common face, and
endpoints linked across several components need every rigid component
on the connecting SPQR path to expose its two flanking windows on one
face. Cross-block insertions conjoin the per-block tests, which are
independent because the blocks only meet in cut vertices.

The walk that decides is the walk surgery follows: an admitted insert
comes back as the windows it crosses, each a block, the endpoints in it
and the SPQR path between them, and the engine builds its new rigid
embeddings from those alone. A face split is the window whose path is
one rigid component.
"""
from __future__ import annotations

from .coherence import _windows_pass
from .decomposition import Block, DecompositionState, SpqrNode, _tree_path
from .graph_core import GraphError, Vertex, canonical_edge


# ------------------------------------------------------------ SPQR windows


def window_path(block: Block, a: Vertex, b: Vertex) -> list[SpqrNode]:
    """Minimal SPQR path from the nodes holding a to the nodes holding b.

    The nodes holding a vertex form a subtree, so the tree path between
    the least components holding a and b leaves a's subtree once and
    enters b's once; trimmed to those crossings, both its ends are S/R
    components and its flanking pairs exclude a and b.
    """
    holds = {(c.kind, c.name): c.vertices for c in block.comps}
    with_a = sorted(nd for nd, vs in holds.items() if a in vs)
    with_b = sorted(nd for nd, vs in holds.items() if b in vs)
    if not with_a or not with_b:
        raise GraphError(f"{a} and {b} do not span block {block.name}")
    both = [nd for nd in with_a if b in holds[nd]]
    if both:
        return both[:1]
    path = _tree_path(block.tree, with_a[0], with_b[0])
    comps = range(0, len(path), 2)
    start = max(i for i in comps if a in holds[path[i]])
    end = min(i for i in comps if b in holds[path[i]])
    return path[start:end + 1]


def _block_windows(block: Block, embeddings, u: Vertex, v: Vertex):
    """Windows a (virtual) edge u-v crosses in one block, None if it
    breaks the block's planarity.

    No window is needed in a bridge, next to a real edge or pair (the
    edge joins the bundle at {u,v}) or across a cycle component (a
    chord). Otherwise the one window is (block, u, v, path): the SPQR
    path surgery fuses, which for a face split is one rigid component.
    Every rigid component on the path must hold its flanking windows on
    one face: the path is coherent, with u and v as its end windows.
    """
    if block.is_bridge:
        return []
    e = canonical_edge(u, v)
    if e in block.edges or e in block.pairs:
        return []
    path = window_path(block, u, v)
    if len(path) == 1 and path[0][0] == "S":
        return []
    if not _windows_pass(embeddings, path, ({u}, {v})):
        return None
    return [(block, u, v, path)]


# ------------------------------------------------------------- entry point


def insert_ok(decomp: DecompositionState, embeddings, a: Vertex,
              b: Vertex):
    """Gate verdict for inserting edge {a,b}, from the current state alone.

    None when the insert breaks planarity; otherwise the list of windows
    it crosses, one per block that needs surgery, which is empty (and so
    falsy) for inserts that need none.
    """
    if a == b:
        raise GraphError("self-loops are not supported")
    if canonical_edge(a, b) in decomp.edges:
        raise GraphError(f"edge {canonical_edge(a, b)} is already present")
    before = decomp.level_between(a, b)
    if before == 0:
        return []
    if before == 1:
        blocks, chain = decomp.bc_path_blocks(a, b)
        hops = [(blk, chain[i], chain[i + 1]) for i, blk in enumerate(blocks)]
    else:
        hops = [(decomp.block_of(a, b), a, b)]
    windows = []
    for blk, u, v in hops:
        found = _block_windows(blk, embeddings, u, v)
        if found is None:
            return None
        windows += found
    return windows
