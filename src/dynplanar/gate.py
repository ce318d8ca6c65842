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

from .decomposition import Block, DecompositionState, SpqrNode
from .graph_core import GraphError, Vertex, canonical_edge


# ------------------------------------------------------------ SPQR windows


def _block_adjacency(block: Block) -> dict:
    adj: dict[SpqrNode, list[SpqrNode]] = {}
    for c in block.comps:
        cn: SpqrNode = (c.kind, c.name)
        adj.setdefault(cn, [])
        for p in sorted(c.pairs):
            pn: SpqrNode = ("P", p)
            adj.setdefault(pn, [])
            adj[cn].append(pn)
            adj[pn].append(cn)
    return adj


def window_path(block: Block, a: Vertex, b: Vertex) -> list[SpqrNode]:
    """Minimal SPQR path from the nodes holding a to the nodes holding b.

    Built by a BFS from every node containing a; because nodes containing
    a vertex form a subtree, the hit end of the path is always an S/R
    component, never a P-node, and the flanking pairs exclude a and b.
    """
    verts = {(c.kind, c.name): c.vertices for c in block.comps}
    adj = _block_adjacency(block)
    for nd in adj:
        if nd[0] == "P":
            verts[nd] = frozenset(nd[1])
    sources = sorted(nd for nd in adj if a in verts[nd])
    if not sources or not any(b in verts[nd] for nd in adj):
        raise GraphError(f"{a} and {b} do not span block {block.name}")
    prev: dict[SpqrNode, SpqrNode | None] = {nd: None for nd in sources}
    frontier = sources
    hit = next((nd for nd in sources if b in verts[nd]), None)
    while frontier and hit is None:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y in prev:
                    continue
                prev[y] = x
                if b in verts[y]:
                    hit = y
                    break
                nxt.append(y)
            if hit is not None:
                break
        frontier = nxt
    assert hit is not None, "vertices in one block must be SPQR-connected"
    path = [hit]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    path.reverse()
    assert path[0][0] != "P" and path[-1][0] != "P"
    return path


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

