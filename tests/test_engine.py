from __future__ import annotations

import itertools
import random
import time

import pytest

from dynplanar import decomposition, engine, rotation
from dynplanar.coherence import build_block_paths
from dynplanar.decomposition import TriComp
from dynplanar.engine import Engine, insert_ok
from dynplanar.graph_core import (
    ACCEPTED,
    NOOP_ABSENT,
    NOOP_DUPLICATE,
    REJECTED_NONPLANAR,
    DomainError,
    GraphError,
    canonical_edge,
)
from dynplanar.oracle import (
    dump_decomposition,
    static_decomposition,
    static_planar,
    validate_rotation,
)
from dynplanar.rotation import Embedding, euler_per_component
from block_chain import block_chain, chain_toggles
from reference_blocks import cut_vertices, reference_block

K4_ORDER = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
K4_ORDER_0 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def build(n: int, edges) -> Engine:
    eng = Engine(n)
    for a, b in edges:
        out = eng.insert_edge(a, b)
        assert out.status == ACCEPTED
    return eng


# ----------------------------------------------------------- change statuses

def test_insert_levels_and_statuses():
    eng = Engine(8)
    levels = []
    for a, b in K4_ORDER:
        out = eng.insert_edge(a, b)
        assert out.status == ACCEPTED
        c = out.change_type
        levels.append((c.before_level, c.after_level))
    assert levels == [(0, 1), (0, 1), (0, 1), (1, 2), (1, 2), (2, 3)]

    out = eng.insert_edge(1, 2)
    assert out.status == NOOP_DUPLICATE and out.change_type is None
    out = eng.delete_edge(5, 6)
    assert out.status == NOOP_ABSENT and out.change_type is None


def test_domain_and_degenerate_errors():
    for bad in (0, -3, "8", 2.0, True):
        with pytest.raises(DomainError):
            Engine(bad)
    eng = Engine(4)
    with pytest.raises(DomainError):
        eng.insert_edge(1, 1)
    with pytest.raises(DomainError):
        eng.insert_edge(0, 4)
    with pytest.raises(DomainError):
        eng.delete_edge(-1, 2)


# -------------------------------------------------------- frozen K4 journey

def test_k4_rigid_embedding_frozen():
    eng = build(8, K4_ORDER)
    assert sorted(eng.comp_embs) == [("R", (1, 2, 3))]
    emb = eng.comp_embs[("R", (1, 2, 3))]
    assert emb.serialize() == "1:2,3,4;2:1,4,3;3:1,2,4;4:1,3,2"


def test_k4_delete_dissolves_to_cycle_pair():
    eng = build(8, K4_ORDER)
    whole = eng.dump()
    out = eng.delete_edge(1, 2)
    assert out.status == ACCEPTED
    assert (out.change_type.before_level, out.change_type.after_level) \
        == (3, 2)
    assert sorted(eng.comp_embs) == [("S", (1, 3, 4)), ("S", (2, 3, 4))]
    (blk,) = eng.decomp.blocks
    paths = build_block_paths(eng.pair_faces[blk.name], blk)
    lines = [p.dump_line() for p in paths]
    assert lines == ["path S(1,3,4) P(3,4) S(2,3,4) : 3=0 4=1"]

    out = eng.insert_edge(1, 2)
    assert out.status == ACCEPTED
    assert eng.dump() == whole


def test_k4_any_insertion_order():
    base = build(8, K4_ORDER).dump()
    rng = random.Random(7)
    for _ in range(6):
        order = K4_ORDER[:]
        rng.shuffle(order)
        assert build(8, order).dump() == base


# -------------------------------------------------- deletion cascade depths

def test_delete_unfurls_nested_blocks():
    edges = [(0, 1), (1, 2), (2, 3), (0, 6), (0, 7), (3, 6), (3, 7), (6, 7)]
    eng = build(8, edges)
    before = eng.dump()
    out = eng.delete_edge(1, 2)
    assert out.status == ACCEPTED
    assert sorted(b.name for b in eng.decomp.blocks) \
        == [(0, 1), (0, 3), (2, 3)]
    assert sorted(eng.comp_embs) == [("S", (0, 6, 7)), ("S", (3, 6, 7))]
    out = eng.insert_edge(1, 2)
    assert out.status == ACCEPTED
    assert eng.dump() == before


def test_bridge_delete_disconnects():
    eng = build(4, [(0, 1), (1, 2)])
    out = eng.delete_edge(0, 1)
    assert out.status == ACCEPTED
    assert (out.change_type.before_level, out.change_type.after_level) \
        == (1, 0)
    assert not eng.decomp.connected(0, 1)


# ------------------------------------------------------------ change purity

def test_rejection_leaves_state_untouched():
    order = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    eng = build(8, order[:-1])
    before = eng.dump()
    out = eng.insert_edge(*order[-1])
    assert out.status == REJECTED_NONPLANAR and out.change_type is None
    assert eng._dump({})[0] == before
    assert not eng.graph.has_edge(*order[-1])


def test_noops_leave_state_untouched():
    eng = build(8, K4_ORDER)
    before = eng.dump()
    assert eng.insert_edge(3, 4).status == NOOP_DUPLICATE
    assert eng.delete_edge(5, 7).status == NOOP_ABSENT
    assert eng._dump({})[0] == before


# ------------------------------------------------- state is replay-invariant

def test_state_depends_only_on_edge_set():
    rng = random.Random(40)
    eng = Engine(7)
    for _ in range(120):
        a = rng.randrange(7)
        b = rng.randrange(7)
        if a == b:
            continue
        if eng.graph.has_edge(a, b) and rng.random() < 0.4:
            eng.delete_edge(a, b)
        else:
            eng.insert_edge(a, b)
        replay = build(7, sorted(eng.graph.edges))
        assert replay.dump() == eng.dump()


def test_subupdate_order_is_immaterial():
    # one insertion merging three blocks: path of three triangles
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4),
             (4, 5), (5, 6), (4, 6)]
    base = None
    rng = random.Random(9)
    for trial in range(6):
        eng = build(8, edges)
        if trial:
            eng._subupdate_order = lambda ts: rng.sample(ts, len(ts))
        out = eng.insert_edge(0, 6)
        assert out.status == ACCEPTED
        assert (out.change_type.before_level, out.change_type.after_level) \
            == (1, 2)
        if base is None:
            base = eng.dump()
        assert eng.dump() == base


def test_two_insertion_windows_commute():
    """One insert crossing a rigid corridor in one block and splitting a
    rigid face in the next builds, in either order of its two windows,
    the state a fresh engine builds from the final edge set."""
    k4s = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
           (1, 5), (1, 6), (2, 5), (2, 6), (5, 6)]
    wheel = [(0, r) for r in range(6, 11)] + \
        [(6, 7), (7, 8), (8, 9), (9, 10), (6, 10)]
    base = build(11, k4s + wheel)
    windows = insert_ok(base.decomp, base.comp_embs, 3, 8)
    assert [w[3] for w in windows] == [
        [("R", (1, 2, 3)), ("P", (1, 2)), ("R", (1, 2, 5))],
        [("R", (0, 6, 7))],
    ]
    want = build(11, sorted(base.graph.edges | {(3, 8)})).dump()
    for perm in itertools.permutations(range(len(windows))):
        eng = build(11, k4s + wheel)
        eng._subupdate_order = lambda ts, perm=perm: [ts[i] for i in perm]
        assert eng.insert_edge(3, 8).status == ACCEPTED
        assert eng.dump() == want


def test_corridor_insert_reads_the_stored_colouring():
    """The corridor merge takes each window component's flip from the
    stored two-colouring. In a ring of four K4 gadgets the chord 2-10
    crosses R(0,1,2) P(0,1) S P(8,9) R(8,10,11); with the direction of
    8-9 on the cycle's faces swapped in the cycle's stored pair-face
    entry, which swaps the colours of 8 and 9, the insert fails an
    assert and leaves the state as it was, and with the entry intact it
    goes through."""
    ring = [(4 * i + a, 4 * i + b) for i in range(4)
            for a in range(4) for b in range(a + 1, 4)]
    ring += [(4 * i + 1, 4 * (i + 1) % 16) for i in range(4)]
    eng = build(16, ring)
    (blk, _, _, path), = insert_ok(eng.decomp, eng.comp_embs, 2, 10)
    pairs = path[1::2]
    assert pairs == [("P", (0, 1)), ("P", (8, 9))]
    cyc = path[2]
    assert cyc[0] == "S"
    intact = eng.pair_faces
    entries = intact[blk.name]
    swapped = {**entries[cyc], (8, 9): entries[cyc][(8, 9)][::-1]}
    eng.pair_faces = {**intact, blk.name: {**entries, cyc: swapped}}
    before = eng.dump()
    with pytest.raises(AssertionError):
        eng.insert_edge(2, 10)
    assert eng.dump() == before
    eng.pair_faces = intact
    assert eng.insert_edge(2, 10).status == ACCEPTED


def _wheel(hub: int, rim: list[int]) -> list[tuple[int, int]]:
    return [(hub, r) for r in rim] + \
        [(r, rim[(i + 1) % len(rim)]) for i, r in enumerate(rim)]


def test_two_deletion_projections_commute():
    """Two 5-wheels joined in a ring by 3-7 and 1-9 form one block: each
    wheel is a rigid component with a virtual chord, 1-3 or 7-9, on the
    ring's cycle. Deleting 3-7 creates two rigid components, the wheels
    without their chords, and neither holds both 3 and 7. In either
    order of the two projections the engine ends as a fresh engine."""
    ring = _wheel(0, [1, 2, 3, 4, 5]) + _wheel(6, [7, 8, 9, 10, 11]) + \
        [(3, 7), (1, 9)]
    want = build(12, sorted(set(ring) - {(3, 7)})).dump()
    for perm in ((0, 1), (1, 0)):
        eng = build(12, ring)
        tasks = []

        def order(ts, perm=perm):
            tasks.append(ts)
            return [ts[i] for i in perm]

        eng._subupdate_order = order
        assert eng.delete_edge(3, 7).status == ACCEPTED
        (created,) = tasks
        assert len(created) == 2
        assert all(not {3, 7} <= c.vertices and c.kind == "R"
                   for _, c in created)
        assert eng.dump() == want


def _rigid_keys(eng: Engine) -> set:
    return {(c.vertices, c.real_edges | c.pairs)
            for blk in eng.decomp.blocks for c in blk.comps if c.kind == "R"}


def test_delete_projects_only_the_rigid_components_it_creates(monkeypatch):
    """A delete builds one embedding per rigid component whose content
    the state before it lacks, and carries every other one. On the glued
    wheels below, deleting the spoke 0-3 re-splits the first wheel into
    a K4 and a cycle and leaves the second wheel as it was: one
    projection. Over seeded churn the count per delete is the number of
    new rigid content keys."""
    projections = 0
    project = Engine._project_rigid

    def counting(self, *args):
        nonlocal projections
        projections += 1
        return project(self, *args)

    monkeypatch.setattr(Engine, "_project_rigid", counting)
    wheels = [(0, 1), (0, 2), (0, 3), (0, 4), (2, 3), (3, 4), (1, 4),
              (5, 1), (5, 2), (5, 6), (5, 7), (2, 6), (6, 7), (1, 7),
              (1, 2)]
    eng = build(8, wheels)
    assert eng.delete_edge(0, 3).status == ACCEPTED
    assert projections == 1
    assert eng.dump() == build(8, sorted(eng.graph.edges)).dump()

    deletes = created = 0
    for seed in range(20):
        rng = random.Random(8000 + seed)
        eng = Engine(12)
        for _ in range(150):
            edges = sorted(eng.graph.edges)
            if not edges or rng.random() >= 0.3:
                a = rng.randrange(12)
                b = (a + rng.randint(1, 5)) % 12
                if not eng.graph.has_edge(a, b):
                    eng.insert_edge(a, b)
                continue
            before = _rigid_keys(eng)
            projections = 0
            assert eng.delete_edge(*rng.choice(edges)).status == ACCEPTED
            new = len(_rigid_keys(eng) - before)
            assert projections == new
            deletes += 1
            created += new
    assert deletes >= 200 and created >= 50, (deletes, created)


def test_rim_chord_splits_the_wheel_face_into_its_two_arcs():
    """A face split is the corridor of one rigid component: a rim chord
    of a wheel leaves the two rim arcs, each closed by the chord, as
    faces of the wheel's R component."""
    rim = [(r, r % 6 + 1) for r in range(1, 7)]
    eng = build(7, [(0, r) for r in range(1, 7)] + rim)
    (node,) = eng.comp_embs
    assert [w[3] for w in insert_ok(eng.decomp, eng.comp_embs, 1, 4)] \
        == [[node]]
    assert eng.insert_edge(1, 4).status == ACCEPTED
    (emb,) = eng.comp_embs.values()
    assert len(emb.faces) == 8
    assert {frozenset(bd) for bd in emb.faces if len(bd) > 3} \
        == {frozenset({1, 2, 3, 4}), frozenset({1, 4, 5, 6})}


def test_shared_rim_edge_change_rebuilds_the_graph_rotation():
    """Two wheels glued along the rim edge 1-2, plus a bridge 3-8. The
    shared edge is a real edge and a separating pair; deleting or
    re-inserting it keeps the block's components and pairs but changes
    its real edges, so the graph rotation at 1 and 2 must change."""
    wheels = [(0, 1), (0, 2), (0, 3), (0, 4), (2, 3), (3, 4), (1, 4),
              (5, 1), (5, 2), (5, 6), (5, 7), (2, 6), (6, 7), (1, 7),
              (1, 2), (3, 8)]
    eng = build(9, wheels)

    def shape(blk):
        return blk.pairs, {c.content_key() for c in blk.comps}

    for change in (eng.delete_edge, eng.insert_edge):
        before = eng.decomp.block_of(1, 3)
        assert change(1, 2).status == ACCEPTED
        after = eng.decomp.block_of(1, 3)
        assert after.edges != before.edges
        assert shape(after) == shape(before)
        fresh = build(9, sorted(eng.graph.edges))
        assert eng.graph_rot == fresh.graph_rot
        assert validate_rotation(eng.graph.edges, eng.graph_rot)


def test_graph_assembly_catches_a_missing_edge():
    """K4 plus a pendant edge, with both entries of 0-1 left out of the
    K4 block's rotation: what is left is still a planar rotation scheme,
    so only the edge count can tell."""
    eng = build(5, K4_ORDER_0 + [(3, 4)])
    block_rots = dict(eng.block_rots)
    short = block_rots[(0, 1)] = {
        x: tuple(w for w in seq if {x, w} != {0, 1})
        for x, seq in block_rots[(0, 1)].items()}
    assert euler_per_component({**short, 3: short[3] + (4,), 4: (3,)})
    assert Engine._assemble_graph(eng.decomp, eng.block_rots) \
        == eng.graph_rot
    with pytest.raises(AssertionError, match="misses an edge"):
        Engine._assemble_graph(eng.decomp, block_rots)


# -------------------------------------------------------------- oracle sync

def test_trajectory_matches_static_oracles():
    rng = random.Random(5)
    eng = Engine(6)
    steps = 0
    while steps < 80:
        a = rng.randrange(6)
        b = rng.randrange(6)
        if a == b:
            continue
        steps += 1
        if eng.graph.has_edge(a, b):
            if rng.random() < 0.55:
                eng.delete_edge(a, b)
        else:
            want = static_planar(6, eng.graph.edges | {tuple(sorted((a, b)))})
            got = eng.insert_edge(a, b).status == ACCEPTED
            assert got == want
        assert eng.dump_decomposition() == dump_decomposition(
            static_decomposition(6, eng.graph.edges))
        for emb in eng.comp_embs.values():
            assert validate_rotation(emb.edge_set(), emb.rot)
        assert validate_rotation(eng.graph.edges, eng.graph_rot)


def churn_step(eng: Engine, rng: random.Random) -> None:
    """One seeded change: delete a present edge, or insert one between
    vertices at most five apart around the domain."""
    edges = sorted(eng.graph.edges)
    if edges and rng.random() < 0.3:
        eng.delete_edge(*edges[rng.randrange(len(edges))])
    else:
        a = rng.randrange(eng.graph.n)
        b = (a + rng.randint(1, 5)) % eng.graph.n
        if not eng.graph.has_edge(a, b):
            eng.insert_edge(a, b)


class CorridorCounting(Engine):
    """Engine that records how many pairs each corridor merge fuses."""

    def __init__(self, n: int):
        super().__init__(n)
        self.corridor_pairs: list[int] = []

    def _merge_corridor(self, block, u, v, path):
        self.corridor_pairs.append(len(path) // 2)
        return super()._merge_corridor(block, u, v, path)


def test_rigid_embeddings_match_networkx_at_every_size(capsys):
    """A rigid skeleton has one embedding up to mirror, so after every
    change each R component's embedding is networkx's embedding of its
    skeleton (real and virtual edges), canonicalised; no size budget."""
    nx = pytest.importorskip("networkx")
    want: dict = {}
    checks = mismatches = 0
    corridors: list[int] = []
    for seed in range(20):
        rng = random.Random(7000 + seed)
        n = rng.randint(20, 45)
        eng = CorridorCounting(n)
        for _ in range(200):
            churn_step(eng, rng)
            for blk in eng.decomp.blocks:
                for c in blk.comps:
                    if c.kind != "R":
                        continue
                    skeleton = c.real_edges | c.pairs
                    key = (c.vertices, skeleton)
                    if key not in want:
                        ok, pe = nx.check_planarity(nx.Graph(sorted(skeleton)))
                        assert ok
                        rot = {x: pe.neighbors_cw_order(x) for x in pe}
                        want[key] = Embedding(rot).canonical().serialize()
                    checks += 1
                    got = eng.comp_embs[(c.kind, c.name)].serialize()
                    mismatches += got != want[key]
        corridors += eng.corridor_pairs
    splits = corridors.count(0)
    multi = sum(k >= 2 for k in corridors)
    with capsys.disabled():
        print(f"\nrigid embeddings: {checks} checks of {len(want)} "
              f"skeletons, {mismatches} mismatches; {splits} face splits, "
              f"{len(corridors) - splits} corridors, {multi} with two or "
              f"more pairs")
    assert mismatches == 0
    assert multi >= 20


def test_surgery_builds_one_embedding_per_window(monkeypatch):
    """A corridor merge works on rotation schemes: cycle components and
    mirrored components enter as rotations, and the fused embedding keeps
    the faces of the rigid components off the window pairs and the new
    edge, so no corridor traces a whole embedding; a face split edits
    the stored embedding and traces none either."""
    traces = through_cycle = multi = 0
    per_window: list[tuple[bool, int]] = []
    trace = rotation.trace_orbits
    merge = Engine._merge_corridor

    def counting_trace(rot):
        nonlocal traces
        traces += 1
        return trace(rot)

    def counting_merge(self, block, u, v, path):
        nonlocal through_cycle, multi
        before = traces
        emb = merge(self, block, u, v, path)
        per_window.append((len(path) > 1, traces - before))
        through_cycle += any(nd[0] == "S" for nd in path)
        multi += len(path) // 2 >= 2
        return emb

    monkeypatch.setattr(rotation, "trace_orbits", counting_trace)
    monkeypatch.setattr(Engine, "_merge_corridor", counting_merge)
    for seed in range(30):
        rng = random.Random(9000 + seed)
        eng = Engine(12)
        for _ in range(150):
            churn_step(eng, rng)
    assert set(per_window) == {(False, 0), (True, 0)}
    assert through_cycle >= 20 and multi >= 20


# ------------------------------------------------------------ graph queries

def bowtie() -> Engine:
    return build(8, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])


def test_rotation_query_spans_blocks():
    eng = bowtie()
    assert eng.graph_rotation_query(3, 1, 2, 4) is True
    assert eng.graph_rotation_query(3, 1, 4, 2) is False
    assert eng.graph_rotation_query(3, 2, 1, 4) is False
    assert eng.graph_rotation_query(3, 1, 2, 5) is True
    assert eng.graph_rotation_query(3, 2, 4, 5) is True


def test_face_query_triangle_and_cross_block():
    eng = bowtie()
    assert eng.graph_face_query(1, 2, 3) is True
    assert eng.graph_face_query(1, 3, 2) is True
    assert eng.graph_face_query(1, 2, 4) is False


def test_query_error_guards():
    eng = bowtie()
    with pytest.raises(GraphError):
        eng.graph_rotation_query(3, 1, 2, 7)
    with pytest.raises(GraphError):
        eng.graph_rotation_query(3, 1, 2, 2)
    with pytest.raises(GraphError):
        eng.graph_face_query(1, 2, 2)
    with pytest.raises(DomainError):
        eng.graph_face_query(1, 2, 9)


# ------------------------------------------------------------ stored faces

def grid_edges(rows: int, cols: int) -> list:
    """A rows x cols grid, vertex i*cols+j at row i and column j, with
    (+1, +1) diagonals."""
    return [(i * cols + j, (i + di) * cols + j + dj)
            for i in range(rows) for j in range(cols)
            for di, dj in ((0, 1), (1, 0), (1, 1))
            if i + di < rows and j + dj < cols]


def test_stored_faces_are_the_traced_boundaries_in_order():
    """Every stored embedding keeps its traced boundaries as they come,
    which is sorted order, and its least-named face as outer. No two
    faces of a rigid component share three vertices, and exactly one
    face of a cycle carries three of its vertices in a given order, so
    the first face holding a set or a triple is the only one that can."""
    checked: dict[int, Embedding] = {}
    kinds = {"R": 0, "S": 0}

    def check(eng: Engine) -> None:
        for node, emb in eng.comp_embs.items():
            if id(emb) in checked:
                continue
            checked[id(emb)] = emb
            kinds[node[0]] += 1
            traced = tuple(rotation.trace_orbits(emb.rot))
            assert emb.faces == traced == tuple(sorted(traced)), node
            assert emb.outer == min(emb.faces, key=rotation.face_name)
            if node[0] == "R":
                for f, g in itertools.combinations(emb.faces, 2):
                    assert len(set(f) & set(g)) < 3, (node, f, g)
            else:
                for t in itertools.permutations(emb.rot, 3):
                    assert sum(rotation.cyclic_triple_query(bd, *t)
                               for bd in emb.faces) == 1, (node, t)

    pairs = list(itertools.combinations(range(8), 2))
    for seed in range(40):
        rng = random.Random(seed)
        eng = Engine(8)
        for _ in range(150):
            edges = sorted(eng.graph.edges)
            if edges and rng.random() < 0.45:
                eng.delete_edge(*edges[rng.randrange(len(edges))])
            else:
                absent = [p for p in pairs if p not in eng.graph.edges]
                eng.insert_edge(*absent[rng.randrange(len(absent))])
            check(eng)
    order = grid_edges(5, 6)
    random.Random(1).shuffle(order)
    eng = Engine(30)
    for a, b in order:
        assert eng.insert_edge(a, b).status == ACCEPTED
        check(eng)
    assert min(kinds.values()) >= 1000, kinds
    # grid churn: each edge deleted is re-inserted later, so the graph
    # stays planar, and re-splits and fusions derive their faces
    rules = {"resplit": 0, "fusion": 0}
    rng = random.Random(2)
    gone: list = []
    for _ in range(300):
        if gone and (len(gone) >= 6 or rng.random() < 0.4):
            e = gone.pop(rng.randrange(len(gone)))
            assert eng.insert_edge(*e).status == ACCEPTED
        else:
            edges = sorted(eng.graph.edges)
            e = edges[rng.randrange(len(edges))]
            assert eng.delete_edge(*e).status == ACCEPTED
            gone.append(e)
        derived = eng.decomp.derived
        if derived is not None and derived.rule in rules:
            rules[derived.rule] += 1
        check(eng)
    assert min(rules.values()) >= 20, rules


def test_resplits_and_fusions_trace_no_embedding(monkeypatch):
    """On the triangulated 5x6 grid, deleting an edge at a corner of
    degree three (0 or 29) re-splits the rigid component, leaving the
    corner on a triangle at a new pair, and re-inserting it fuses them
    back. The new rigid component keeps the faces of the old ones off
    the vertices whose rotation changes, so neither change traces a
    whole embedding; the block is reassembled, and the graph rotation
    is written at no more than four vertices: the edge's two ends and
    the pair's. After each change the engine dumps as a fresh engine
    loaded with its edges. No other change of the grid, deleting and
    re-inserting each edge, traces a whole embedding either."""
    edges = grid_edges(5, 6)
    eng = build(30, edges)
    traces = 0
    trace = rotation.trace_orbits

    def counting(rot):
        nonlocal traces
        traces += 1
        return trace(rot)

    def written(before):
        after = eng.graph_rot
        return sum(after[x] is not before.get(x) for x in after) + \
            sum(x not in after for x in before)

    corner = [e for e in edges if 0 in e or 29 in e]
    assert len(corner) == 6
    made = {"resplit": 0, "fusion": 0}
    for e in edges:
        for change, rule in ((eng.delete_edge, "resplit"),
                             (eng.insert_edge, "fusion")):
            before = eng.graph_rot
            with monkeypatch.context() as patch:
                patch.setattr(rotation, "trace_orbits", counting)
                assert change(*e).status == ACCEPTED
            assert traces == 0, e
            derived = eng.decomp.derived
            if derived is None or derived.rule != rule:
                assert e not in corner, e
                continue
            made[rule] += 1
            if e in corner:
                assert written(before) <= 4, (rule, e)
                assert eng.dump() == build(30, sorted(eng.graph.edges)).dump()
    assert made == {"resplit": 14, "fusion": 14}, made


# ------------------------------------------------- face-local rigid changes

def rigid_change_runs() -> None:
    """Seeded churn at domains 8 to 24, then random edges of shuffled
    triangulated 4x4 to 6x6 grids deleted and re-inserted."""
    for n in (8, 12, 16, 20, 24):
        for seed in range(8):
            rng = random.Random(100 * n + seed)
            eng = Engine(n)
            for _ in range(200):
                churn_step(eng, rng)
    for k in (4, 5, 6):
        rng = random.Random(k)
        order = grid_edges(k, k)
        rng.shuffle(order)
        eng = build(k * k, order)
        for _ in range(250):
            edges = sorted(eng.graph.edges)
            e = edges[rng.randrange(len(edges))]
            assert eng.delete_edge(*e).status == ACCEPTED
            assert eng.insert_edge(*e).status == ACCEPTED


def _graph_three_connected(vertices, adj) -> bool:
    """Four or more vertices, and no one or two of them separate the rest."""
    if len(vertices) < 4:
        return False
    for x in vertices:
        cuts, trees = cut_vertices(adj, vertices, x)
        if cuts or trees != 1:
            return False
    return True


def test_face_rule_agrees_with_the_connectivity_search(monkeypatch):
    """A rigid component less a real edge stays triconnected exactly
    when no third face holds a vertex of each face at the edge other
    than its ends: the verdict the engine reads off the stored faces
    equals a cut-vertex search of the component less the edge. The
    pairs the faces give are those the reference builder finds in the
    component's skeleton less the edge, in order from the edge's lesser
    end: the side of each pair that holds that end grows along them."""
    verdicts = {True: 0, False: 0}
    rule = engine.pairs_without

    def u_side(adj, u, pair):
        seen, stack = {u, *pair}, [u]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen)

    def checked(emb, u, v):
        got = rule(emb, u, v)
        adj = {x: set(seq) for x, seq in emb.rot.items()}
        adj[u].discard(v)
        adj[v].discard(u)
        stays = _graph_three_connected(set(adj), adj)
        assert (not got) == stays, (emb, u, v)
        if got:
            skeleton = frozenset(canonical_edge(x, y) for x in adj
                                 for y in adj[x])
            assert set(got) == reference_block(skeleton).pairs, (emb, u, v)
            sides = [u_side(adj, u, p) for p in got]
            assert sides == sorted(set(sides)), (emb, u, v, got)
        verdicts[stays] += 1
        return got

    monkeypatch.setattr(engine, "pairs_without", checked)
    rigid_change_runs()
    assert min(verdicts.values()) >= 500, verdicts


def test_cycle_embeddings_equal_traced_ones():
    """A cycle component's embedding, derived by walking the cycle once,
    has the rotation, faces and outer face of the embedding traced from
    the same rotation scheme, for cycles of 3 to 40 vertices under
    shuffled labels and any split of their edges into real and virtual."""
    rng = random.Random(18)
    for k in range(3, 41):
        for _ in range(5):
            ring = rng.sample(range(100), k)
            edges = [canonical_edge(ring[i - 1], ring[i]) for i in range(k)]
            rng.shuffle(edges)
            cut = rng.randint(0, k)
            comp = TriComp(tuple(sorted(ring)[:3]), "S", frozenset(ring),
                           frozenset(edges[:cut]), frozenset(edges[cut:]))
            nbrs: dict = {}
            for u, v in comp.real_edges | comp.pairs:
                nbrs.setdefault(u, []).append(v)
                nbrs.setdefault(v, []).append(u)
            emb, fresh = engine._cycle_embedding(comp), Embedding(nbrs)
            assert (emb.rot, emb.faces, emb.outer) == \
                (fresh.rot, fresh.faces, fresh.outer), comp


def test_edited_embeddings_equal_embeddings_built_from_scratch(monkeypatch):
    """Every embedding the engine derives from another's faces, by
    adding or deleting an edge or by mirroring, has the rotation, faces
    and outer face of the embedding traced from its rotation scheme."""
    made = {"with_edge": 0, "without_edge": 0, "flipped": 0}

    def checking(name):
        derive = getattr(Embedding, name)

        def checked(self, *args):
            emb = derive(self, *args)
            fresh = Embedding(emb.rot)
            assert (emb.rot, emb.faces, emb.outer) == \
                (fresh.rot, fresh.faces, fresh.outer), (name, self, args)
            made[name] += 1
            return emb
        return checked

    for name in made:
        monkeypatch.setattr(Embedding, name, checking(name))
    rigid_change_runs()
    assert min(made.values()) >= 200, made


@pytest.mark.parametrize("k", [6, 10])
def test_rigid_changes_off_the_rim_search_no_cuts_and_trace_nothing(
        monkeypatch, k):
    """On a triangulated k x k grid, deleting an edge whose ends are both
    off the rim leaves the one rigid component rigid, and re-inserting
    it splits the merged face. Both changes are decided and applied on
    the faces at the edge, so neither builds a block's components or
    traces a whole embedding, however large the grid; and the engine
    dumps as a fresh engine loaded with its edges.

    Each change also writes, by identity against the predecessor's, no
    entry of the vertex index of blocks and the entries at the edge's
    two ends alone of the block rotation and the graph rotation, at
    every k. The rigid component's least vertex is a
    corner, whose rotation these changes keep, so `canonical()` never
    mirrors it here."""
    edges = grid_edges(k, k)
    inner = [e for e in edges
             if all(0 < x // k < k - 1 and 0 < x % k < k - 1 for x in e)]
    eng = build(k * k, edges)
    start = eng.dump()
    less_first = build(k * k, [e for e in edges if e != inner[0]]).dump()
    calls = {"block builds": 0, "traces": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    def indices():
        (blk,) = eng.decomp.blocks
        return {"_blocks_of_vertex": eng.decomp._blocks_of_vertex,
                "block_rots": eng.block_rots[blk.name],
                "graph_rot": eng.graph_rot}

    def written(after, before):
        return {key: sum(new[x] is not before[key].get(x) for x in new)
                + sum(x not in new for x in before[key])
                for key, new in after.items()}

    monkeypatch.setattr(
        decomposition, "_triconnected_components",
        counting("block builds", decomposition._triconnected_components))
    monkeypatch.setattr(rotation, "trace_orbits",
                        counting("traces", rotation.trace_orbits))
    two_ends = {"_blocks_of_vertex": 0, "block_rots": 2, "graph_rot": 2}
    for e in inner:
        before = indices()
        assert eng.delete_edge(*e).status == ACCEPTED
        assert calls == {"block builds": 0, "traces": 0}, ("delete", e)
        assert written(indices(), before) == two_ends, ("delete", e)
        if e == inner[0]:
            assert eng.dump() == less_first
        before = indices()
        assert eng.insert_edge(*e).status == ACCEPTED
        assert calls == {"block builds": 0, "traces": 0}, ("insert", e)
        assert written(indices(), before) == two_ends, ("insert", e)
        assert eng.dump() == start, e


def test_bundle_edges_and_cycle_chords_run_no_path_search(monkeypatch):
    """On the block chain, deleting and re-inserting each glued pair's
    shared edge, a real edge at a separating pair (a bundle edge), and
    inserting and deleting each chord of a cycle block, which splits the
    cycle in two and merges it back, build their blocks by local rules:
    no path search runs. A bundle change keeps its block's rotation and
    every graph rotation entry off the pair's two ends, by identity, and
    writes those two. After each change the engine dumps as a fresh one
    loaded with its edges."""
    calls = []
    search = decomposition._triconnected_components

    def counted(*args):
        calls.append(args)
        return search(*args)

    edges, _ = block_chain()
    eng = build(42, edges)
    toggles = chain_toggles()
    monkeypatch.setattr(decomposition, "_triconnected_components", counted)
    made = {"bundle": 0, "split": 0, "merge": 0}
    for kind, e in [("shared", e) for e in toggles["shared"]] + \
            [("chord", e) for e in toggles["chord"]]:
        for change in (eng.delete_edge, eng.insert_edge)[::(
                1 if eng.graph.has_edge(*e) else -1)]:
            name = eng.decomp.block_of(*e).name
            rot, graph_rot = eng.block_rots[name], eng.graph_rot
            assert change(*e).status == ACCEPTED
            local = eng.decomp.derived
            assert calls == [] and local is not None, (kind, e)
            if kind == "shared":
                made["bundle"] += 1
                assert local.rule == "bundle"
                assert local.gone == local.made == ()
                assert eng.block_rots[name] is rot
                assert sorted(x for x, seq in eng.graph_rot.items()
                              if seq is not graph_rot.get(x)) == list(e)
                assert eng.graph_rot.keys() == graph_rot.keys()
            else:
                made[local.rule] += 1
            with monkeypatch.context() as patch:
                patch.setattr(decomposition, "_triconnected_components",
                              search)
                assert eng.dump() == build(42, sorted(eng.graph.edges)).dump()
    assert made == {"bundle": 4, "split": 19, "merge": 19}, made


def test_wheel_spokes_and_rims_run_no_path_search(monkeypatch):
    """On the block chain, deleting each wheel spoke and each rim edge
    of a wheel breaks a rigid component into pieces, and re-inserting it
    fuses them back: the resplit and fusion rules build those blocks,
    so neither the path search nor the lowpoint search runs. After each
    change the engine dumps as a fresh one loaded with its edges. The
    cycles' edges, the other rim toggles, break their blocks, which are
    built from their edges."""
    calls = []

    def counting(name, fn):
        def counted(*args):
            calls.append(name)
            return fn(*args)
        return counted

    search = decomposition._triconnected_components
    lowpoint = decomposition._lowpoint
    eng = build(42, block_chain()[0])
    toggles = chain_toggles()
    wheels = [e for e in toggles["spoke"] + toggles["rim"]
              if eng.graph.level_between(*e) == 3]
    monkeypatch.setattr(decomposition, "_triconnected_components",
                        counting("search", search))
    monkeypatch.setattr(decomposition, "_lowpoint",
                        counting("lowpoint", lowpoint))
    made = {"resplit": 0, "fusion": 0}
    for e in wheels:
        for change, rule in ((eng.delete_edge, "resplit"),
                             (eng.insert_edge, "fusion")):
            calls.clear()
            assert change(*e).status == ACCEPTED
            assert calls == [] and eng.decomp.derived.rule == rule, e
            made[rule] += 1
            with monkeypatch.context() as patch:
                patch.setattr(decomposition, "_triconnected_components",
                              search)
                patch.setattr(decomposition, "_lowpoint", lowpoint)
                assert eng.dump() == build(42, sorted(eng.graph.edges)).dump()
    assert made == {"resplit": 29, "fusion": 29}, made


def test_patched_block_rotations_equal_rebuilt_ones(monkeypatch):
    """Seeded churn at domains 12 to 30, then random edges of triangulated
    5x5 to 7x7 grids, relabelled and inserted in shuffled order, deleted
    and re-inserted, a third of them at vertex 0. After every change
    each block rotation, and the graph rotation, equal the ones
    assembled from scratch from the component embeddings. The runs patch
    off-pair face splits and derived deletes, patch changes with an end
    on a pair vertex of the block, and rebuild the derived blocks whose
    component `canonical()` mirrors; each case must occur. A commit's
    graph assembly after a derived change tells the cases apart: it
    writes the edge's two ends, or more after a mirror."""
    cases = {"off pair": 0, "pair vertex": 0, "flip": 0}
    assemble_graph = Engine._assemble_graph

    def spied(decomp, block_rots, base=None, at=None):
        local = decomp.derived
        if base is not None and local is not None and local.rule == "rigid":
            if at is None or len(at) > 2:
                cases["flip"] += 1
            else:
                comp = local.made[0]
                on_pair = any(x in p for x in at for p in comp.pairs)
                cases["pair vertex" if on_pair else "off pair"] += 1
        return assemble_graph(decomp, block_rots, base, at)

    def check(eng: Engine) -> None:
        rebuilt = {blk.name: Engine._assemble_block(eng.comp_embs, blk)
                   for blk in eng.decomp.blocks if not blk.is_bridge}
        assert eng.block_rots == rebuilt
        assert eng.graph_rot == Engine._assemble_graph(eng.decomp, rebuilt)

    monkeypatch.setattr(Engine, "_assemble_graph", staticmethod(spied))
    for n in (12, 16, 20, 24, 30):
        for seed in range(4):
            rng = random.Random(300 * n + seed)
            eng = Engine(n)
            for _ in range(200):
                churn_step(eng, rng)
                check(eng)
    for k in (5, 6, 7):
        rng = random.Random(70 + k)
        label = list(range(k * k))
        rng.shuffle(label)
        order = [(label[a], label[b]) for a, b in grid_edges(k, k)]
        rng.shuffle(order)
        eng = build(k * k, order)
        for _ in range(120):
            edges = sorted(eng.graph.edges)
            if rng.random() < 0.3:
                # the least vertex decides `canonical()`'s mirror
                edges = [e for e in edges if 0 in e]
            e = edges[rng.randrange(len(edges))]
            assert eng.delete_edge(*e).status == ACCEPTED
            check(eng)
            assert eng.insert_edge(*e).status == ACCEPTED
            check(eng)
    assert min(cases.values()) >= 40, cases



def test_graph_rotation_is_written_where_a_block_rotation_moved():
    """Seeded churn at domains 12 to 30. Every change that keeps each
    block's name and vertices replaces `graph_rot` entries, by identity,
    only at the edge's two ends and at the vertices whose block rotation
    entry changed by value: a mirrored rigid edit writes where its
    component's rotation reversed, not across the whole block."""
    kept = mirrored = 0
    for n in (12, 16, 20, 24, 30):
        for seed in range(4):
            rng = random.Random(300 * n + seed)
            eng = Engine(n)
            for _ in range(200):
                decomp, graph_rot = eng.decomp, eng.graph_rot
                block_rots = eng.block_rots
                churn_step(eng, rng)
                new = eng.decomp
                if new is decomp:
                    continue  # rejected, or no change
                was = {blk.name: blk.vertices for blk in new.replaced}
                if any(was.get(blk.name) != blk.vertices
                       for blk in new.created):
                    continue
                (e,) = decomp.edges ^ new.edges
                moved = {x for blk in new.created for x in blk.vertices
                         if eng.block_rots[blk.name][x]
                         != block_rots[blk.name][x]}
                written = {x for x in graph_rot.keys() | eng.graph_rot.keys()
                           if eng.graph_rot.get(x) is not graph_rot.get(x)}
                assert written <= set(e) | moved, (n, seed, e)
                kept += 1
                mirrored += new.derived is not None and \
                    new.derived.rule == "rigid" and not written <= set(e)
    assert kept >= 1000 and mirrored >= 10, (kept, mirrored)


def test_blocks_built_from_their_edges_commit_as_derived_ones(monkeypatch):
    """The same seeded churn on two engines, the second of which builds
    every block from its edges (`decomposition._local_block` answers
    None), so that its commit finds what each change dropped and made
    by content key. After every step both give the same status and
    change type, and their `dump()` and `graph_rot` are equal; each of
    the six local rules builds blocks in the first."""
    rules = dict.fromkeys(
        ("bundle", "merge", "split", "rigid", "resplit", "fusion"), 0)
    for n in (10, 14, 20):
        for seed in range(3):
            rng = random.Random(2700 * n + seed)
            derived, built = Engine(n), Engine(n)
            for _ in range(150):
                edges = sorted(derived.graph.edges)
                if edges and rng.random() < 0.3:
                    change, e = "delete_edge", edges[rng.randrange(len(edges))]
                else:
                    a = rng.randrange(n)
                    e = (a, (a + rng.randint(1, 5)) % n)
                    if derived.graph.has_edge(*e):
                        continue
                    change = "insert_edge"
                out = getattr(derived, change)(*e)
                with monkeypatch.context() as patch:
                    patch.setattr(decomposition, "_local_block",
                                  lambda *args: None)
                    assert getattr(built, change)(*e) == out, (n, seed, e)
                    assert built.decomp.derived is None
                assert built.dump() == derived.dump(), (n, seed, e)
                assert built.graph_rot == derived.graph_rot
                local = derived.decomp.derived
                if out.status == ACCEPTED and local is not None:
                    rules[local.rule] += 1
    assert min(rules.values()) >= 5, rules

# --------------------------------------------------------------- cost bound


def test_change_cost_follows_the_graph_not_the_domain():
    """A change touches the vertices in blocks, not the whole domain:
    a 20-edge path in a domain of a million vertices builds in well
    under the ~20 s a per-change sweep of the domain costs."""
    eng = Engine(10**6)
    t0 = time.perf_counter()
    for v in range(20):
        assert eng.insert_edge(v, v + 1).status == ACCEPTED
    assert time.perf_counter() - t0 < 2.0
    assert sorted(eng.graph_rot) == list(range(21))


def test_change_work_at_the_end_of_a_long_path_is_that_of_a_short_one(
        monkeypatch):
    """Changes at one end of a 2000-vertex path in Engine(2000) do what
    the same changes at the end of a 10-vertex path do, counted, not
    timed: the lowpoint and component searches visit as many vertices,
    the graph rotation is rewritten at as many vertices, and Euler's
    formula is checked on rotations of the same sizes, never on the
    whole graph's. Each state dumps as a fresh engine loaded with its
    edges."""
    counts: list = []

    def counting(name, fn, size):
        def counted(*args):
            res = fn(*args)
            counts.append((name, size(args, res)))
            return res
        return counted

    def walk_counting(fn):
        def counted(state, x):
            for v in fn(state, x):
                counts.append(("walk", 1))
                yield v
        return counted

    monkeypatch.setattr(decomposition, "_lowpoint", counting(
        "lowpoint", decomposition._lowpoint, lambda a, res: len(a[1])))
    monkeypatch.setattr(decomposition, "_components", counting(
        "components", decomposition._components,
        lambda a, res: sum(map(len, res))))
    monkeypatch.setattr(decomposition, "_walk",
                        walk_counting(decomposition._walk))
    monkeypatch.setattr(engine, "euler_per_component", counting(
        "euler", engine.euler_per_component, lambda a, res: len(a[0])))

    def work(k: int):
        eng = build(k, [(v, v + 1) for v in range(k - 1)])
        a, b, c = k - 3, k - 2, k - 1
        steps = [(eng.delete_edge, b, c), (eng.insert_edge, b, c),
                 (eng.insert_edge, a, c), (eng.delete_edge, b, c),
                 (eng.insert_edge, b, c), (eng.delete_edge, a, c),
                 (eng.delete_edge, a, b), (eng.insert_edge, a, b)]
        fresh: dict = {}
        out = []
        for change, u, v in steps:
            before = eng.graph_rot
            counts.clear()
            assert change(u, v).status == ACCEPTED
            after = eng.graph_rot
            rewritten = sum(after[x] is not before.get(x) for x in after) \
                + sum(x not in after for x in before)
            euler = [n for name, n in counts if name == "euler"]
            assert all(n < len(after) for n in euler)
            out.append((sorted(counts), rewritten))
            key = eng.graph.edges
            if key not in fresh:
                fresh[key] = build(k, sorted(key)).dump()
            assert eng.dump() == fresh[key], (u, v)
        return out

    short, long = work(10), work(2000)
    assert short == long
    assert sum(n for step, _ in long for name, n in step
               if name == "walk") > 0


def test_patched_states_equal_states_built_from_scratch():
    """Seeded churn at domains 8 to 60. After every accepted change and
    every rejection the patched state equals the state built from its
    edge set alone: the dump, the blocks, the cut vertices and the block
    indices, and for every pair of active vertices connectivity, the
    separating-pair and cut-vertex answers and the BC path; and the
    graph rotation equals the one assembled from every block rotation,
    and at checkpoints a fresh engine's. The
    churn includes bridge deletes that split a component, level-0
    inserts that join two, level-1 inserts that merge a BC path and
    cycle deletes that break a block into bridges."""
    cases = dict.fromkeys(("split", "join", "merge", "unravel", "reject"), 0)

    def bc_path(st, u, v):
        blocks, chain = st.bc_path_blocks(u, v)
        return [b.name for b in blocks], chain

    def check(eng: Engine) -> None:
        st = eng.decomp
        ref = decomposition.DecompositionState.from_edges(st.n, st.edges)
        assert st.dump() == ref.dump()
        assert st.blocks == ref.blocks
        assert st.cut_vertices == ref.cut_vertices
        assert st._block_by_name == ref._block_by_name
        assert st._blocks_of_vertex == ref._blocks_of_vertex
        active = sorted({x for e in st.edges for x in e})
        for i, u in enumerate(active):
            assert st.is_cut_vertex(u) == ref.is_cut_vertex(u), u
            for v in active[i + 1:]:
                assert st.connected(u, v) == ref.connected(u, v), (u, v)
                assert st.is_separating_pair(u, v) == \
                    ref.is_separating_pair(u, v), (u, v)
                if ref.connected(u, v):
                    assert bc_path(st, u, v) == bc_path(ref, u, v), (u, v)
        assert eng.graph_rot == Engine._assemble_graph(st, eng.block_rots)

    for n in (8, 12, 20, 30, 45, 60):
        rng = random.Random(1500 + n)
        eng = Engine(n)
        for step in range(240):
            edges = sorted(eng.graph.edges)
            if edges and rng.random() < (0.6 if len(edges) > 2 * n else 0.25):
                u, v = rng.choice(edges)
                blk = eng.decomp.block_of(u, v)
                cycle = len(blk.comps) == 1 and blk.comps[0].kind == "S"
                assert eng.delete_edge(u, v).status == ACCEPTED
                cases["split"] += blk.is_bridge
                cases["unravel"] += cycle
            else:
                u = rng.randrange(n)
                near = [y for x in eng.graph_rot.get(u, ())
                        for y in eng.graph_rot[x] if y != u]
                v = rng.choice(near) if near and rng.random() < 0.5 \
                    else rng.randrange(n)
                if u == v or eng.graph.has_edge(u, v):
                    continue
                level = eng.decomp.level_between(u, v)
                out = eng.insert_edge(u, v)
                cases["reject"] += out.status == REJECTED_NONPLANAR
                if out.status == ACCEPTED:
                    cases["join"] += level == 0
                    cases["merge"] += level == 1
            check(eng)
            if step % 40 == 39:
                fresh = build(n, sorted(eng.graph.edges))
                assert eng.graph_rot == fresh.graph_rot
    assert min(cases.values()) >= 10, cases
