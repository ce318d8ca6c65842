"""Insertion admissibility: the test half of test-and-reject.

An insertion is admitted exactly when the graph stays planar. Joining
components or trees is always safe, a chord or bundle edge inside one
component is always safe, and the two remaining cases reduce to face
queries: endpoints sharing a rigid component need a common face, and
endpoints linked across several components need every rigid component
on the connecting SPQR path to expose its two flanking windows on one
face. Cross-block insertions conjoin the per-block tests, which are
independent because the blocks only meet in cut vertices.
"""
from __future__ import annotations

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


def _rigid_windows(path, u: Vertex, v: Vertex):
    """(comp node, window vertex set) for each R-node on the path."""
    comps = path[::2]
    pairs = [set(nd[1]) for nd in path[1::2]]
    for i, nd in enumerate(comps):
        if nd[0] != "R":
            continue
        left = pairs[i - 1] if i > 0 else {u}
        right = pairs[i] if i < len(pairs) else {v}
        yield nd, left | right


def block_insert_ok(block: Block, embeddings, u: Vertex, v: Vertex) -> bool:
    """Would a (virtual) edge u-v keep this block's embedding planar?"""
    if block.is_bridge:
        return True
    e = canonical_edge(u, v)
    if e in block.edges or e in block.pairs:
        return True
    path = window_path(block, u, v)
    for nd, window in _rigid_windows(path, u, v):
        if embeddings[nd].common_face(window) is None:
            return False
    return True


# ------------------------------------------------------------- entry point


def insert_ok(decomp: DecompositionState, embeddings, a: Vertex,
              b: Vertex) -> bool:
    """Gate verdict for inserting edge {a,b}, from the current state alone."""
    if a == b:
        raise GraphError("self-loops are not supported")
    if canonical_edge(a, b) in decomp.edges:
        raise GraphError(f"edge {canonical_edge(a, b)} is already present")
    before = decomp.level_between(a, b)
    if before == 0:
        return True
    if before == 1:
        blocks, chain = decomp.bc_path_blocks(a, b)
        return all(
            block_insert_ok(blk, embeddings, chain[i], chain[i + 1])
            for i, blk in enumerate(blocks)
        )
    return block_insert_ok(decomp.block_of(a, b), embeddings, a, b)

