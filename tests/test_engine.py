from __future__ import annotations

import itertools
import random
import time

import pytest

from dynplanar import rotation
from dynplanar.engine import Engine, insert_ok
from dynplanar.graph_core import (
    ACCEPTED,
    NOOP_ABSENT,
    NOOP_DUPLICATE,
    REJECTED_NONPLANAR,
    DomainError,
    GraphError,
)
from dynplanar.oracle import (
    dump_decomposition,
    static_decomposition,
    static_planar,
    validate_rotation,
)
from dynplanar.rotation import Embedding, euler_per_component

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
    lines = [p.dump_line()
             for paths in eng.colourings.values() for p in paths]
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
    assert eng.dump() == before
    assert not eng.graph.has_edge(*order[-1])


def test_noops_leave_state_untouched():
    eng = build(8, K4_ORDER)
    before = eng.dump()
    assert eng.insert_edge(3, 4).status == NOOP_DUPLICATE
    assert eng.delete_edge(5, 7).status == NOOP_ABSENT
    assert eng.dump() == before


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
    K4 block's real-edge rotation: what is left is still a planar
    rotation scheme, so only the edge count can tell."""
    eng = build(5, K4_ORDER_0 + [(3, 4)])
    real_rots = dict(eng.real_rots)
    real_rots[(0, 1)] = {
        x: tuple(w for w in seq if {x, w} != {0, 1})
        for x, seq in real_rots[(0, 1)].items()}
    short = {x: seq + real_rots[(3, 4)].get(x, ())
             for x, seq in real_rots[(0, 1)].items()}
    short[4] = real_rots[(3, 4)][4]
    assert euler_per_component(short)
    assert Engine._assemble_graph(eng.decomp, eng.real_rots) == eng.graph_rot
    with pytest.raises(AssertionError, match="misses an edge"):
        Engine._assemble_graph(eng.decomp, real_rots)


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
    mirrored components enter as rotations, so it traces faces once,
    for the fused embedding it returns."""
    traces = through_cycle = multi = 0
    per_window: list[int] = []
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
        per_window.append(traces - before)
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
    assert set(per_window) == {1}
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
