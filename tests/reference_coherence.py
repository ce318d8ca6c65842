"""The path-at-a-time colouring that `build_block_paths`' one walk
replaced, kept as the reference the tests compare its colours with.

`colour_path` colours one coherent path on its own: it finds the window
face of every component between two on-path pairs again and carries the
colours across it pair by pair.
"""
from __future__ import annotations

from dynplanar.graph_core import Edge, Vertex
from dynplanar.rotation import Embedding, crossing


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
