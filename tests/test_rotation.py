from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynplanar.graph_core import GraphError
from dynplanar.oracle import validate_rotation
from dynplanar.rotation import (
    Embedding,
    _serialize,
    at_corner,
    cyclic_triple_query,
    euler_per_component,
    face_name,
    least_rotation,
    opened_at,
    opened_at_least,
    trace_orbits,
)

K4_ROT = {1: (2, 3, 4), 2: (1, 4, 3), 3: (1, 2, 4), 4: (1, 3, 2)}
K4_FACES = [(1, 2, 3), (1, 3, 4), (1, 4, 2), (2, 4, 3)]


def from_cycle(vertices) -> Embedding:
    """The embedding of the cycle through vertices, in that order."""
    vs = tuple(vertices)
    k = len(vs)
    return Embedding({vs[i]: (vs[(i + 1) % k], vs[i - 1]) for i in range(k)})


def wheel_rot(k: int) -> dict:
    rim = list(range(1, k + 1))
    rot = {0: tuple(rim)}
    for i, v in enumerate(rim):
        rot[v] = (rim[(i + 1) % k], 0, rim[(i - 1) % k])
    return rot


# ------------------------------------------------------------ cyclic helpers


def test_least_rotation_and_opened_at() -> None:
    assert least_rotation((3, 1, 2)) == (1, 2, 3)
    assert least_rotation((1, 2, 3)) == (1, 2, 3)
    assert opened_at((3, 1, 2), 2) == (2, 3, 1)
    assert opened_at_least((3, 1, 2)) == (1, 2, 3)
    with pytest.raises(GraphError):
        opened_at((1, 2, 3), 9)


def test_cyclic_triple_query_examples() -> None:
    assert cyclic_triple_query((1, 2, 3, 4), 1, 2, 4)
    assert not cyclic_triple_query((1, 2, 3, 4), 1, 4, 2)
    assert cyclic_triple_query((2, 3, 1), 1, 2, 3)
    with pytest.raises(GraphError):
        cyclic_triple_query((1, 2, 3), 1, 2, 2)
    with pytest.raises(GraphError):
        cyclic_triple_query((1, 2, 3), 1, 2, 9)


def test_face_name() -> None:
    assert face_name((1, 2, 3)) == (1, 2, 3)
    assert face_name((2, 3, 1)) == (1, 2, 3)
    assert face_name((1, 5, 2, 4)) == (1, 2, 4)
    assert face_name((2, 7, 3, 9, 4)) == (2, 3, 4)
    with pytest.raises(GraphError):
        face_name((1, 2))
    with pytest.raises(GraphError):
        face_name((1, 2, 1, 3))


# ------------------------------------------------------------- orbit tracing


def test_trace_orbits_k4() -> None:
    orbits = trace_orbits(K4_ROT)
    assert sorted(orbits) == [(1, 2, 3), (1, 3, 4), (1, 4, 2), (2, 4, 3)]


def test_trace_orbits_rejects_malformed() -> None:
    with pytest.raises(GraphError):
        trace_orbits({1: (2, 2), 2: (1, 1)})
    with pytest.raises(GraphError):
        trace_orbits({1: (1, 2), 2: (1,)})
    with pytest.raises(GraphError):
        trace_orbits({1: (2,), 2: (3,), 3: (2,)})


def test_euler_per_component() -> None:
    assert euler_per_component(K4_ROT)
    k5 = {v: tuple(sorted(set(range(5)) - {v})) for v in range(5)}
    assert not euler_per_component(k5)


MALFORMED = [
    {1: (2, 2), 2: (1, 1)},
    {1: (1, 2), 2: (1,)},
    {1: (2,), 2: (3,), 3: (2,)},
]


@pytest.mark.parametrize("rot", MALFORMED)
def test_euler_per_component_rejects_malformed(rot) -> None:
    with pytest.raises(GraphError):
        euler_per_component(rot)


def random_scheme(rng: random.Random, parts: int) -> tuple[set, dict]:
    """Edges and a rotation scheme of `parts` disjoint components,
    each a wheel kept planar or shuffled, or a random connected graph
    with shuffled rotations."""
    edges: set = set()
    rot: dict = {}
    base = 0
    for _ in range(parts):
        if rng.random() < 0.5:
            k = rng.randint(3, 6)
            part = {v: list(ns) for v, ns in wheel_rot(k).items()}
            if rng.random() < 0.5:
                for ns in part.values():
                    rng.shuffle(ns)
        else:
            n = rng.randint(2, 7)
            part = {v: [] for v in range(n)}
            pairs = [(u, v) for v in range(1, n) for u in range(v)]
            chosen = {(rng.randrange(v), v) for v in range(1, n)}
            chosen |= set(rng.sample(pairs, rng.randint(0, len(pairs))))
            for u, v in chosen:
                part[u].append(v)
                part[v].append(u)
            for ns in part.values():
                rng.shuffle(ns)
        for v, ns in part.items():
            rot[base + v] = tuple(base + w for w in ns)
            edges |= {(base + v, base + w) for w in ns if v < w}
        base += len(part)
    return edges, rot


def test_euler_per_component_agrees_with_the_oracle() -> None:
    verdicts = {(True, False): 0, (True, True): 0,
                (False, False): 0, (False, True): 0}
    for seed in range(400):
        parts = 1 + seed % 3
        edges, rot = random_scheme(random.Random(seed), parts)
        got = euler_per_component(rot)
        assert got == validate_rotation(edges, rot), (seed, rot)
        verdicts[got, parts > 1] += 1
    assert min(verdicts.values()) >= 20, verdicts


# ------------------------------------------------------- embedding structure


def test_k4_embedding_frozen() -> None:
    emb = Embedding(K4_ROT)
    assert emb.faces == tuple(K4_FACES)
    assert emb.outer == (1, 2, 3)
    assert (2, 4, 3) in emb.faces


def test_embedding_rejects_nonplanar_rotation() -> None:
    k5 = {v: tuple(sorted(set(range(5)) - {v})) for v in range(5)}
    with pytest.raises(GraphError):
        Embedding(k5)


def test_embedding_rejects_disconnected() -> None:
    rot = {1: (2,), 2: (1,), 3: (4,), 4: (3,)}
    with pytest.raises(GraphError):
        Embedding(rot)


def test_single_edge_embedding() -> None:
    emb = Embedding({1: (2,), 2: (1,)})
    assert emb.faces == ()
    assert emb.outer is None


def test_from_cycle() -> None:
    c4 = from_cycle([1, 2, 3, 4])
    assert c4.faces == ((1, 2, 3, 4), (1, 4, 3, 2))
    assert [face_name(bd) for bd in c4.faces] == [(1, 2, 3), (1, 3, 2)]
    assert c4.outer == (1, 2, 3, 4)
    # Faces keep boundary order, the dump's; the least-named face is
    # outer even where it does not come first.
    c5 = from_cycle([0, 5, 1, 3, 2])
    assert c5.faces == ((0, 2, 3, 1, 5), (0, 5, 1, 3, 2))
    assert [face_name(bd) for bd in c5.faces] == [(0, 1, 5), (0, 1, 2)]
    assert c5.outer == (0, 5, 1, 3, 2)
    assert c5.dump_lines()[-2:] == ["face 0 2 3 1 5",
                                    "face 0 5 1 3 2 outer"]


def test_derived_embedding_keeps_the_faces_off_the_changed_vertices(
) -> None:
    """The 5-wheel with the rim chord 1-3 drawn across its rim face,
    derived from the wheel or from its mirror marked mirrored, changes
    the rotation at 1 and 3 alone: it keeps the faces that avoid them,
    traces the others and equals the embedding traced in full. A derived
    scheme that is not planar, not connected or has a dart without its
    reverse raises, as a traced one does."""
    w5 = Embedding(wheel_rot(5))
    rim = w5.common_face({1, 2, 3, 4, 5})
    rot = dict(w5.rot)
    rot[1] = at_corner(rot[1], 1, 3, rim)
    rot[3] = at_corner(rot[3], 3, 1, rim)
    fresh = Embedding(rot)
    for source in ((w5, False), (w5.flipped(), True)):
        emb = Embedding._derived(rot, {1, 3}, [source])
        assert (emb.rot, emb.faces, emb.outer) == \
            (fresh.rot, fresh.faces, fresh.outer)
        assert {bd for bd in emb.faces if 1 not in bd and 3 not in bd} \
            == {bd for bd in w5.faces if 1 not in bd and 3 not in bd}
    bad = [{**rot, 1: rot[1][::-1]},  # one vertex mirrored: genus 1
           {**rot, 6: (7,), 7: (6,)},
           {**rot, 3: tuple(w for w in rot[3] if w != 1)}]
    for scheme in bad:
        with pytest.raises(GraphError):
            Embedding._derived(scheme, {1, 3}, [(w5, False)])


# ---------------------------------------------------------------- queries


def test_rotation_query() -> None:
    emb = Embedding(K4_ROT)
    assert cyclic_triple_query(emb.rot[1], 2, 3, 4) is True
    assert cyclic_triple_query(emb.rot[1], 2, 4, 3) is False
    tri = from_cycle([1, 2, 3])
    with pytest.raises(GraphError):
        cyclic_triple_query(tri.rot[1], 2, 3, 4)


def test_face_query() -> None:
    emb = Embedding(K4_ROT)
    assert emb.face_query(1, 2, 3) is True
    assert emb.face_query(2, 3, 4) is False
    assert emb.face_query(2, 4, 3) is True
    c4 = from_cycle([1, 2, 3, 4])
    assert c4.face_query(1, 2, 3) is True
    assert c4.face_query(3, 2, 1) is True
    with pytest.raises(GraphError):
        emb.face_query(1, 2, 2)


def test_common_face() -> None:
    w4 = Embedding(wheel_rot(4))
    rim = w4.common_face({1, 2, 3, 4})
    assert rim == (1, 4, 3, 2)
    assert face_name(rim) == (1, 3, 2)
    assert w4.common_face({0, 1, 2}) == (0, 1, 2)
    assert Embedding(K4_ROT).common_face({1, 2, 3, 4}) is None


# --------------------------------------------------------------------- flip


def test_flip_involution() -> None:
    emb = Embedding(K4_ROT)
    mirror = emb.flipped()
    assert emb.rot == K4_ROT
    assert list(emb.faces) == K4_FACES
    assert cyclic_triple_query(mirror.rot[1], 4, 3, 2)
    assert euler_per_component(mirror.rot)
    assert mirror.faces == tuple(sorted(
        least_rotation(bd[::-1]) for bd in emb.faces))
    back = mirror.flipped()
    assert back.rot == K4_ROT
    assert back.outer == (1, 2, 3)


# ------------------------------------------------------ canonical/serialize


def test_canonical_flip_invariant() -> None:
    a = Embedding(K4_ROT).canonical()
    b = Embedding(K4_ROT).flipped().canonical()
    assert a.rot == b.rot
    assert a.outer == b.outer
    assert a.canonical() is a


def test_canonical_outer_is_least_face() -> None:
    emb = Embedding(K4_ROT).flipped().canonical()
    assert emb.outer == min(emb.faces, key=face_name)


def whole_scheme_rule(emb: Embedding) -> dict:
    """The scheme or its mirror, whichever serialises to the lesser string."""
    mirror = {v: seq[::-1] for v, seq in emb.rot.items()}
    return emb.rot if _serialize(emb.rot) <= _serialize(mirror) else mirror


def numeric_canonical(emb: Embedding) -> Embedding:
    """canonical() deciding at the same vertex, but by label value."""
    branch = [v for v, seq in emb.rot.items() if len(seq) >= 3]
    if not branch:
        return emb
    seq = emb.rot[min(branch)]
    if opened_at_least(seq) <= opened_at_least(seq[::-1]):
        return emb
    return emb.flipped()


def connected_planar_schemes(count: int, seed: int) -> list[dict]:
    """networkx embeddings of seeded random connected planar graphs
    (a random tree plus random edges) over labels 0..119."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(3, 14)
        labels = rng.sample(range(120), k)
        g = nx.Graph()
        g.add_edges_from((labels[i], labels[rng.randrange(i)])
                         for i in range(1, k))
        extra = rng.randint(0, k)
        g.add_edges_from(rng.sample(labels, 2) for _ in range(extra))
        ok, pe = nx.check_planarity(g)
        if ok:
            out.append({x: tuple(pe.neighbors_cw_order(x)) for x in pe})
    return out


def test_canonical_matches_the_whole_scheme_rule() -> None:
    """Deciding at one vertex picks what comparing both whole
    serialisations picks, labels compared as strings (10 before 9)."""
    embs = [e for rot in connected_planar_schemes(2000, seed=10)
            for e in (Embedding(rot), Embedding(rot).flipped())]

    def mismatches(canon) -> int:
        return sum(canon(e).rot != whole_scheme_rule(e) for e in embs)

    assert mismatches(Embedding.canonical) == 0
    assert mismatches(numeric_canonical) > 0


def test_serialize_format() -> None:
    assert Embedding(K4_ROT).serialize() == "1:2,3,4;2:1,4,3;3:1,2,4;4:1,3,2"


def test_dump_lines_k4() -> None:
    emb = Embedding(K4_ROT)
    assert emb.dump_lines() == [
        "rot 1: 2 3 4",
        "rot 2: 1 4 3",
        "rot 3: 1 2 4",
        "rot 4: 1 3 2",
        "face 1 2 3 outer",
        "face 1 3 4",
        "face 1 4 2",
        "face 2 4 3",
    ]


# ----------------------------------------------------------------- wheels


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_wheel_embeddings(k: int) -> None:
    emb = Embedding(wheel_rot(k))
    assert len(emb.faces) == k + 1
    rim = emb.common_face(set(range(1, k + 1)))
    assert rim is not None
    assert set(rim) == set(range(1, k + 1))
    mirror = emb.flipped()
    assert euler_per_component(mirror.rot)
    assert len(mirror.faces) == k + 1


# -------------------------------------------------------------- properties


@st.composite
def tree_rotations(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    nbrs: dict[int, list[int]] = {v: [] for v in range(n)}
    for v in range(1, n):
        parent = rng.randrange(v)
        nbrs[v].append(parent)
        nbrs[parent].append(v)
    for v in nbrs:
        rng.shuffle(nbrs[v])
    return {v: tuple(ns) for v, ns in nbrs.items()}


@given(tree_rotations())
@settings(max_examples=60, deadline=None)
def test_any_tree_rotation_is_planar(rot) -> None:
    emb = Embedding(rot)
    assert emb.faces == ()
    assert emb.outer is None
    assert euler_per_component(emb.rot)
    assert emb.flipped().flipped().rot == emb.rot


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_shuffled_wheel_rotation_is_planar_or_rejected(seed: int) -> None:
    rng = random.Random(seed)
    rot = {v: list(ns) for v, ns in wheel_rot(5).items()}
    for v in rot:
        rng.shuffle(rot[v])
    frozen = {v: tuple(ns) for v, ns in rot.items()}
    try:
        emb = Embedding(frozen)
    except GraphError:
        return
    assert euler_per_component(emb.rot)
    assert sum(len(bd) for bd in emb.faces) <= 2 * 10
