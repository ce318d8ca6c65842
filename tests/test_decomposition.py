"""Engine-side BC/SPQR state: ops, levels, and the oracle differential."""
from __future__ import annotations

import random
import sys
import time

import networkx as nx
import pytest

from dynplanar import decomposition
from dynplanar.cli import _legal_moves
from dynplanar.decomposition import DecompositionState, _make_block
from dynplanar.engine import Engine
from dynplanar.graph_core import (
    ACCEPTED,
    DELETE,
    INSERT,
    DomainError,
    GraphError,
)
from dynplanar.oracle import (
    dump_decomposition,
    spqr_nodes_and_edges,
    static_decomposition,
    tree_path,
)
from block_chain import block_chain, chain_toggles
from block_chain import triangulated_grid as chain_grid
from reference_blocks import reference_block

BOWTIE = [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]
K4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
K4_MINUS = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
C4 = [(1, 2), (2, 3), (3, 4), (1, 4)]
GLUED_K4S = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
             (3, 5), (3, 6), (4, 5), (4, 6), (5, 6)]
TRIANGLE_CHAIN = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5),
                  (5, 6), (6, 7), (5, 7)]


def state(n, edges):
    return DecompositionState.from_edges(n, edges)


# ----------------------------------------------------------------- cut/block

def test_cut_vertex_examples():
    bow = state(6, BOWTIE)
    assert bow.is_cut_vertex(3)
    assert not bow.is_cut_vertex(1)
    tri = state(4, [(1, 2), (2, 3), (1, 3)])
    assert not tri.is_cut_vertex(2)


def test_same_block_examples():
    bow = state(6, BOWTIE)
    assert bow.same_block(1, 2)
    assert not bow.same_block(1, 4)
    assert state(3, [(1, 2)]).same_block(1, 2)


def test_block_name_examples():
    bow = state(6, BOWTIE)
    assert bow.block_of(2, 3).name == (1, 2)
    assert bow.block_of(4, 5).name == (3, 4)
    assert state(10, [(5, 7), (7, 9), (5, 9)]).block_of(7, 9).name == (5, 7)


def test_block_name_requires_shared_block():
    bow = state(6, BOWTIE)
    with pytest.raises(GraphError):
        bow.block_of(1, 4).name


def test_bc_path_on_triangle_chain():
    chain = state(8, TRIANGLE_CHAIN)
    blocks, cuts = chain.bc_path_blocks(2, 7)
    assert [b.name for b in blocks] == [(1, 2), (3, 4), (5, 6)]
    assert cuts == [2, 3, 5, 7]
    blocks, cuts = chain.bc_path_blocks(1, 4)
    assert [b.name for b in blocks] == [(1, 2), (3, 4)]
    assert cuts == [1, 3, 4]


def test_bc_path_blocks_rejects_unknown_and_split_vertices():
    bow = state(6, BOWTIE)
    with pytest.raises(GraphError):
        bow.bc_path_blocks(1, 9)
    with pytest.raises(GraphError):
        bow.bc_path_blocks(1, 1)
    two = state(6, [(0, 1), (3, 4)])
    with pytest.raises(GraphError):
        two.bc_path_blocks(0, 3)


def test_bc_path_blocks():
    bow = state(6, BOWTIE)
    blocks, chain = bow.bc_path_blocks(1, 5)
    assert [b.name for b in blocks] == [(1, 2), (3, 4)]
    assert chain == [1, 3, 5]
    blocks, chain = bow.bc_path_blocks(1, 2)
    assert [b.name for b in blocks] == [(1, 2)]
    assert chain == [1, 2]
    blocks, chain = bow.bc_path_blocks(3, 5)
    assert [b.name for b in blocks] == [(3, 4)]
    assert chain == [3, 5]


def _block_forest(rng):
    """A seeded forest of cycles, K4s and bridges, relabelled at random:
    each piece is glued at one vertex to what is built, or starts a new
    tree. The first three pieces are glued at one hub, a cut vertex of
    three blocks. Returns the domain size, the edges and the hub."""
    edges, n = [], 1
    for k in range(rng.randint(8, 16)):
        if k < 3:
            root = 0
        elif rng.random() < 0.15:
            root, n = n, n + 1
        else:
            root = rng.randrange(n)
        kind = rng.choice(("cycle", "k4", "bridge"))
        size = {"cycle": rng.randint(3, 6), "k4": 4, "bridge": 2}[kind]
        vs = [root, *range(n, n + size - 1)]
        n += size - 1
        if kind == "k4":
            edges += [(x, y) for i, x in enumerate(vs) for y in vs[i + 1:]]
        elif kind == "cycle":
            edges += [(vs[i - 1], vs[i]) for i in range(size)]
        else:
            edges.append(tuple(vs))
    label = list(range(n))
    rng.shuffle(label)
    return n, [(label[x], label[y]) for x, y in edges], label[0]


def _networkx_bc_paths(g: nx.Graph):
    """A function of a and b that gives the vertex sets of the blocks,
    and the chain vertices, on the path from a to b in networkx's
    block-cut tree of g."""
    blocks = [frozenset(c) for c in nx.biconnected_components(g)]
    cuts = set(nx.articulation_points(g))
    tree = nx.Graph()
    node = {}
    for i, blk in enumerate(blocks):
        tree.add_node(("B", i))
        tree.add_edges_from((("B", i), ("C", x)) for x in blk & cuts)
        node.update((x, ("C", x) if x in cuts else ("B", i)) for x in blk)

    def path(a, b):
        nodes = nx.shortest_path(tree, node[a], node[b])
        chain = [x for kind, x in nodes if kind == "C" and x not in (a, b)]
        return [blocks[i] for kind, i in nodes if kind == "B"], [a, *chain, b]
    return path


def test_bc_paths_are_networkx_block_cut_tree_paths():
    """On seeded forests of cycles, K4s and bridges, for every pair of
    connected vertices, the blocks and chain vertices of
    `bc_path_blocks` are those on the path in networkx's block-cut tree;
    a pair in two trees is refused. Some paths end at a cut vertex of
    three blocks."""
    hub_ends = 0
    for seed in range(12):
        rng = random.Random(900 + seed)
        n, edges, hub = _block_forest(rng)
        st = state(n, edges)
        assert len(st.blocks_at(hub)) >= 3
        g = nx.Graph(edges)
        want = _networkx_bc_paths(g)
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                if not nx.has_path(g, a, b):
                    with pytest.raises(GraphError):
                        st.bc_path_blocks(a, b)
                    continue
                blocks, chain = st.bc_path_blocks(a, b)
                assert ([blk.vertices for blk in blocks], chain) == \
                    want(a, b), (seed, a, b)
                hub_ends += hub in (a, b) and len(blocks) > 1
    assert hub_ends >= 100, hub_ends


# ----------------------------------------------------------------- SPQR ops

def test_separating_pair_examples():
    assert state(5, K4_MINUS).is_separating_pair(3, 4)
    assert not state(5, C4).is_separating_pair(1, 3)
    assert not state(5, K4).is_separating_pair(1, 2)


def test_same_tricomp_examples():
    assert state(5, K4_MINUS).same_tricomp(1, 3, 4) == ((1, 3, 4), "S")
    assert state(5, K4).same_tricomp(1, 2, 3) == ((1, 2, 3), "R")
    assert state(5, K4_MINUS).same_tricomp(1, 2, 3) is None


def test_spqr_path_on_glued_k4s():
    glued = state(7, GLUED_K4S)
    r1, r2, p = ("R", (1, 2, 3)), ("R", (3, 4, 5)), ("P", (3, 4))
    assert glued.spqr_path(r1, r2) == [r1, p, r2]
    assert glued.spqr_path(r1, p) == [r1, p]
    assert glued.spqr_path(r2, r1) == [r2, p, r1]


def test_spqr_path_single_node():
    k4 = state(5, K4)
    r = ("R", (1, 2, 3))
    assert k4.spqr_path(r, r) == [r]


def test_spqr_nodes_must_share_a_block():
    bow = state(6, BOWTIE)
    with pytest.raises(GraphError):
        bow.spqr_path(("S", (1, 2, 3)), ("S", (3, 4, 5)))
    with pytest.raises(GraphError):
        bow.spqr_path(("R", (1, 2, 3)), ("S", (3, 4, 5)))


def _wheel(hub, rim):
    edges = [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    edges += [(hub, r) for r in rim]
    return edges


def test_chained_wheels_match_oracle_tree():
    edges = sorted({(min(u, v), max(u, v)) for (u, v) in
                    _wheel(0, [1, 2, 3, 4]) + _wheel(5, [3, 6, 7, 4])
                    + _wheel(8, [6, 9, 10, 7])})
    st = state(11, edges)
    dec = static_decomposition(11, edges)
    assert st.dump() == dump_decomposition(dec)
    (block,) = dec.blocks
    nodes, tedges = spqr_nodes_and_edges(block)
    rs = sorted(name for kind, name in nodes if kind == "R")
    r_outer1, r_mid, r_outer2 = ("R", rs[0]), ("R", rs[1]), ("R", rs[2])
    oracle_path = tree_path(nodes, tedges, r_outer1, r_outer2)
    assert len(oracle_path) == 5 and oracle_path[2] == r_mid
    assert st.spqr_path(r_outer1, r_outer2) == oracle_path


# -------------------------------------------------------------------- levels

def test_levels():
    assert state(4, []).level_between(0, 1) == 0
    assert state(4, [(0, 1)]).level_between(0, 1) == 1
    assert state(4, [(0, 1), (1, 2)]).level_between(0, 2) == 1
    assert state(5, C4).level_between(1, 3) == 2
    assert state(5, K4).level_between(1, 2) == 3
    assert state(5, K4_MINUS).level_between(1, 2) == 2
    assert state(5, K4_MINUS).level_between(3, 4) == 2
    assert state(6, BOWTIE).level_between(1, 4) == 1
    with pytest.raises(GraphError):
        state(4, []).level_between(1, 1)
    with pytest.raises(DomainError):
        state(4, []).level_between(0, 9)


def test_predicted_levels():
    """The fuzzer files each change under the levels the engine then
    reports for it."""
    for edges, op, e, kind in [(K4_MINUS, INSERT, (1, 2), (2, 3)),
                               (K4_MINUS, DELETE, (3, 4), (2, 2)),
                               (C4, DELETE, (1, 2), (2, 1))]:
        eng = Engine(5)
        for f in edges:
            eng.insert_edge(*f)
        assert e in _legal_moves(eng)[(op, *kind)]
        out = (eng.insert_edge if op == INSERT else eng.delete_edge)(*e)
        assert out.status == ACCEPTED
        assert (out.change_type.before_level,
                out.change_type.after_level) == kind


# -------------------------------------------------------------- differential

def test_dump_matches_oracle_on_fixed_cases():
    for n, edges in [(6, BOWTIE), (5, K4), (5, K4_MINUS), (5, C4),
                     (7, GLUED_K4S), (8, TRIANGLE_CHAIN), (4, []),
                     (3, [(0, 2)]), (5, [(0, 1), (1, 2), (2, 3)])]:
        assert state(n, edges).dump() == \
            dump_decomposition(static_decomposition(n, edges))


def test_dump_matches_oracle_on_random_graphs():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 9)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        assert state(n, edges).dump() == \
            dump_decomposition(static_decomposition(n, edges)), sorted(edges)


def test_changes_carry_the_blocks_they_leave_alone():
    chain = state(8, TRIANGLE_CHAIN)
    for after in (chain.with_edge(0, 1), chain.without_edge(6, 7)):
        for name in [(1, 2), (3, 4)]:
            assert after.block(name) is chain.block(name)
    assert [b.name for b in chain.without_edge(6, 7).blocks] == \
        [(1, 2), (3, 4), (5, 6), (5, 7)]


def test_dump_is_a_function_of_the_edge_set():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 8)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        shuffled = list(edges)
        rng.shuffle(shuffled)
        assert state(n, edges).dump() == state(n, shuffled).dump()
        assert state(n, edges).with_edge(*pool[0]).dump() == \
            state(n, set(edges) | {pool[0]}).dump()
        assert state(n, edges).without_edge(*pool[0]).dump() == \
            state(n, set(edges) - {pool[0]}).dump()


# ------------------------------------------------------------ derived blocks

def triangulated_grid(rows, cols):
    """A rows x cols grid, vertex i*cols+j at row i and column j, with
    (+1, +1) diagonals: its edges and its interior (off-rim) edges."""
    edges, interior = [], []
    for i in range(rows):
        for j in range(cols):
            for di, dj in ((0, 1), (1, 0), (1, 1)):
                if i + di >= rows or j + dj >= cols:
                    continue
                e = (i * cols + j, (i + di) * cols + j + dj)
                edges.append(e)
                if not ((di == 0 and i in (0, rows - 1))
                        or (dj == 0 and j in (0, cols - 1))):
                    interior.append(e)
    return edges, interior


def test_a_present_insert_or_an_absent_delete_returns_the_state(
        monkeypatch):
    """Adding an edge the state holds, or removing one it lacks, returns
    the state itself and builds no block, on the triangulated 5x6 grid
    whose one block holds 69 edges."""
    edges, _ = triangulated_grid(5, 6)
    st = state(30, edges)
    builds = []
    monkeypatch.setattr(decomposition, "_make_block",
                        lambda *args: builds.append(args))
    for u, v in edges:
        assert st.with_edge(u, v) is st and st.with_edge(v, u) is st
    for u in range(30):
        for v in range(u + 1, 30):
            if (u, v) not in st.edges:
                assert st.without_edge(u, v) is st
                assert st.without_edge(v, u, ()) is st
    assert builds == []


def test_derived_blocks_equal_blocks_built_from_scratch(monkeypatch):
    """Every block derived from its predecessor by an edge inside one
    rigid component equals the block built from its edge set alone, SPQR
    tree included, and the component it names as changed is a component
    of that block. Changes go through the engine, whose deletions hand
    the face rule's verdict in."""
    derived = {"ins": 0, "del": 0}
    real = decomposition._local_block

    def checked(blk, e, deleted, pairs=None, window=None):
        got = real(blk, e, deleted, pairs, window)
        if got is not None and got.rule == "rigid":
            derived["del" if deleted else "ins"] += 1
            fresh = _make_block(got.block.edges)
            assert got.block == fresh and got.block.tree == fresh.tree, \
                sorted(got.block.edges)
            assert got.made[0] in fresh.comps, sorted(got.block.edges)
        return got

    def change(eng, e):
        out = eng.delete_edge(*e) if eng.graph.has_edge(*e) \
            else eng.insert_edge(*e)
        if out.status == ACCEPTED:
            assert eng.decomp.blocks == state(eng.graph.n,
                                              eng.graph.edges).blocks

    monkeypatch.setattr(decomposition, "_local_block", checked)
    for n in (8, 12, 16, 20, 24):
        rng = random.Random(n)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        eng = Engine(n)
        for e in rng.sample(pool, 3 * n):
            eng.insert_edge(*e)
        for _ in range(60):
            edges = eng.graph.edges
            e = rng.choice(sorted(edges)) \
                if len(edges) > 2 * n or rng.random() < 0.4 \
                else rng.choice([p for p in pool if p not in edges])
            change(eng, e)
    edges, interior = triangulated_grid(5, 6)
    eng = Engine(30)
    for e in edges:
        eng.insert_edge(*e)
    for e in interior:
        change(eng, e)
        change(eng, e)
    assert derived["ins"] >= 50 and derived["del"] >= 50, derived


def _ring_toggles(m):
    """Edges to toggle on a ring of m K4 gadgets: chords of the ring's
    cycle component, the real edge at each gadget's pair, an edge inside
    each gadget and chords between gadgets."""
    out = []
    for i in range(m):
        out += [(4 * i, 4 * i + 1), (4 * i + 2, 4 * i + 3)]
        for j in range(i + 1, m):
            out += [(4 * i + 2, 4 * j + 2), (4 * i, 4 * j)]
            if j != i + 1:
                out.append((4 * i + 1, 4 * j))
    return out


def test_local_blocks_equal_blocks_built_from_scratch():
    """After every accepted step, the block a local rule built equals the
    block the path search builds from its edges: the same components,
    pairs and SPQR tree, each adjacency tuple in the same order. The
    steps are seeded churn by the acceptance corpus's rule at domains 8
    and 16, spoke, rim, shared-edge and chord toggles on the block
    chain, toggles of ring chords, gadget edges and chords between
    gadgets on rings of 4 and 8 K4 gadgets, and edge toggles on a
    triangulated 6x6 grid. Each of the six rules, named on the state's
    `derived`, builds at least 20 blocks."""
    seen = dict.fromkeys(
        ("bundle", "merge", "split", "rigid", "resplit", "fusion"), 0)

    def step(eng, e):
        change = eng.delete_edge if eng.graph.has_edge(*e) \
            else eng.insert_edge
        if change(*e).status != ACCEPTED or eng.decomp.derived is None:
            return
        local = eng.decomp.derived
        seen[local.rule] += 1
        fresh = _make_block(local.block.edges)
        # dicts compare each adjacency tuple, and tuples their order
        assert local.block == fresh and local.block.tree == fresh.tree, \
            (local.rule, sorted(local.block.edges))

    for n in (8, 16):
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for seed in range(8):
            rng = random.Random(100 * n + seed)
            eng = Engine(n)
            for _ in range(150):
                edges = sorted(eng.graph.edges)
                if edges and rng.random() < 0.45:
                    step(eng, rng.choice(edges))
                else:
                    step(eng, rng.choice([p for p in pool
                                          if p not in eng.graph.edges]))
    rng = random.Random(24)
    chain = [e for kind in chain_toggles().values() for e in kind]
    ring_edges = {m: _k4_ring(rng, m, 0) for m in (4, 8)}
    for n, start, toggles in (
            (42, block_chain()[0], chain),
            (16, ring_edges[4], _ring_toggles(4)),
            (32, ring_edges[8], _ring_toggles(8)),
            (36, chain_grid(6, 6), chain_grid(6, 6))):
        eng = Engine(n)
        for e in start:
            assert eng.insert_edge(*e).status == ACCEPTED
        for _ in range(300):
            step(eng, rng.choice(toggles))
    assert min(seen.values()) >= 20, seen


def test_grid_changes_inside_the_rigid_component_search_no_pairs(
        monkeypatch):
    """On a triangulated 5x6 grid, deleting and re-inserting an interior
    edge away from the corners keeps the one rigid component rigid, so
    no path search for the block's components runs. Deleting 0-7 drops
    vertex 0 to degree two, which makes {1, 6} a pair: the component
    re-splits into a triangle and the rest, and re-inserting 0-7 fuses
    them back, both by local rules, so no search runs either. Each time
    the engine ends as a fresh engine loaded with its edges."""
    calls = []
    search = decomposition._triconnected_components

    def counted(*args):
        calls.append(args)
        return search(*args)

    edges, _ = triangulated_grid(5, 6)
    eng = Engine(30)
    for e in edges:
        assert eng.insert_edge(*e).status == ACCEPTED
    monkeypatch.setattr(decomposition, "_triconnected_components", counted)

    def searches(*changes):
        calls.clear()
        for change, u, v in changes:
            assert change(u, v).status == ACCEPTED
        made = len(calls)
        fresh = Engine(30)
        for e in sorted(eng.graph.edges):
            fresh.insert_edge(*e)
        assert eng.dump() == fresh.dump()
        return made

    assert searches((eng.delete_edge, 8, 15), (eng.insert_edge, 8, 15)) == 0
    assert searches((eng.delete_edge, 0, 7)) == 0
    assert eng.decomp.derived.rule == "resplit"
    assert eng.graph.is_separating_pair(1, 6)
    assert searches((eng.insert_edge, 0, 7)) == 0
    assert eng.decomp.derived.rule == "fusion"
    assert not eng.graph.is_separating_pair(1, 6)


# ------------------------------------------------------- the block builder

def _stacked_planar(rng, n, keep):
    """A random planar graph on 0..n-1: a stacked triangulation (each new
    vertex joined to the three corners of a random face) with each edge
    kept at rate `keep`."""
    faces = [(0, 1, 2), (0, 2, 1)]
    edges = [(0, 1), (0, 2), (1, 2)]
    for x in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        faces += [(a, b, x), (b, c, x), (c, a, x)]
        edges += [(a, x), (b, x), (c, x)]
    return [e for e in edges if rng.random() < keep]


def _series_parallel(rng, steps):
    """A random series-parallel graph: the edge 0-1 with each step either
    subdividing an edge or adding a two-edge path beside it."""
    edges = [(0, 1)]
    for x in range(2, steps + 2):
        i = rng.randrange(len(edges))
        u, v = edges[i]
        if rng.random() < 0.5:
            edges[i] = (u, x)
        else:
            edges.append((u, x))
        edges.append((x, v))
    return edges


def _k4_ring(rng, m, chords):
    """m K4 gadgets on 4i..4i+3, gadget i's vertex 4i+1 linked to the
    next gadget's 4(i+1), plus random chords between gadgets."""
    edges = [(4 * i + a, 4 * i + b) for i in range(m)
             for a in range(4) for b in range(a + 1, 4)]
    edges += [(4 * i + 1, 4 * (i + 1) % (4 * m)) for i in range(m)]
    for _ in range(chords):
        i, j = rng.sample(range(m), 2)
        edges.append((4 * i + rng.randrange(4), 4 * j + rng.randrange(4)))
    return edges


def test_path_search_blocks_equal_the_reference_builder():
    """`_make_block`'s linear path search builds the same block, SPQR
    tree included, as the quadratic builder that splits the vertex set
    at every pair a cut-vertex search of B - s finds. Seeded random
    planar graphs at 3-14 and 10-30 vertices, series-parallel graphs,
    triangulated grids less random edges and K4 rings with chords, each
    relabelled at random; every block of three or more vertices is
    built both ways. The cases must hold blocks with three or more
    pairs, P-nodes holding a real edge, and R components adjacent to an
    R and to an S component."""
    rng = random.Random(18)
    seen = {"3+ pairs": 0, "P with real edge": 0, "R-R": 0, "S-R": 0}
    graphs = []
    for _ in range(250):
        graphs.append(_stacked_planar(rng, rng.randint(3, 14),
                                      rng.uniform(0.5, 0.95)))
    for _ in range(60):
        graphs.append(_stacked_planar(rng, rng.randint(10, 30),
                                      rng.uniform(0.6, 0.95)))
    for _ in range(150):
        graphs.append(_series_parallel(rng, rng.randint(2, 25)))
    for _ in range(60):
        edges, _ = triangulated_grid(rng.randint(2, 6), rng.randint(2, 6))
        graphs.append([e for e in edges if rng.random() < 0.8])
    for _ in range(60):
        graphs.append([e for e in _k4_ring(rng, rng.randint(2, 6),
                                           rng.randint(0, 3))
                       if rng.random() < 0.9])
    for edges in graphs:
        labels = rng.sample(range(200), 200)
        edges = {(labels[u], labels[v]) for u, v in edges if u != v}
        for blk in state(200, edges).blocks:
            if blk.is_bridge:
                continue
            got, want = _make_block(blk.edges), reference_block(blk.edges)
            assert got == want and got.tree == want.tree, sorted(blk.edges)
            seen["3+ pairs"] += len(got.pairs) >= 3
            seen["P with real edge"] += any(p in got.edges
                                            for p in got.pairs)
            for nd, nbrs in got.tree.items():
                if nd[0] == "P":
                    kinds = [c[0] for c in nbrs]
                    seen["R-R"] += kinds.count("R") >= 2
                    seen["S-R"] += "R" in kinds and "S" in kinds
    assert seen["3+ pairs"] >= 100 and seen["P with real edge"] >= 100 \
        and seen["R-R"] >= 20 and seen["S-R"] >= 100, seen


def test_deep_blocks_build_without_recursion():
    """A 2 x 2000 ladder (1998 pairs, its 1999 squares each an S
    component) and a wheel of 3000 rim vertices (one R component, no
    pairs) build under a recursion limit below their DFS depth, in
    under two seconds of CPU time together."""
    assert sys.getrecursionlimit() < 2000
    start = time.process_time()
    k = 2000
    ladder = [(i, i + 1) for i in range(k - 1)] + \
        [(k + i, k + i + 1) for i in range(k - 1)] + \
        [(i, k + i) for i in range(k)]
    (blk,) = state(2 * k, ladder).blocks
    assert len(blk.pairs) == k - 2 and len(blk.comps) == k - 1
    assert all(c.kind == "S" and len(c.vertices) == 4 for c in blk.comps)
    (blk,) = state(3001, _wheel(0, range(1, 3001))).blocks
    assert not blk.pairs and [c.kind for c in blk.comps] == ["R"]
    assert time.process_time() - start < 2.0
