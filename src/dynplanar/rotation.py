"""Extended planar embeddings: vertex rotations plus traced faces.

An embedding stores one clockwise neighbour cycle per vertex. Faces are
never stored independently: they are the orbits of the successor rule

    next(u -> v) = (v, clockwise-predecessor of u at v)

traced once when the embedding is built. An embedding is a value: no
method changes it, and a changed rotation scheme is a new embedding,
so the face scheme can never drift from the rotation scheme. Each face
keeps its orbit orientation; the outer face is the one with the least
name.

Face names are the lexicographically least ordered vertex triple that
occurs on the face boundary in orbit order. Of an embedding and its
mirror, the canonical one serialises to the lesser string, which one
vertex decides.
"""
from __future__ import annotations

from .graph_core import Edge, GraphError, Vertex, canonical_edge

FaceId = tuple[int, int, int]


# ------------------------------------------------------------ cyclic helpers

def least_rotation(cycle):
    """Lexicographically least rotation of a sequence (as a tuple)."""
    tup = tuple(cycle)
    if not tup:
        return tup
    first = min(tup)
    return min(tup[i:] + tup[:i] for i, x in enumerate(tup) if x == first)


def opened_at(seq, x):
    """Rotate a cyclic sequence to start at element x."""
    tup = tuple(seq)
    try:
        i = tup.index(x)
    except ValueError:
        raise GraphError(f"{x} is not in the cyclic sequence") from None
    return tup[i:] + tup[:i]


def opened_at_least(seq):
    tup = tuple(seq)
    return opened_at(tup, min(tup)) if tup else tup


def cyclic_triple_query(seq, a, b, c) -> bool:
    """True iff a, b, c occur in this cyclic order in seq."""
    tup = tuple(seq)
    if len({a, b, c}) != 3:
        raise GraphError("triple query needs three distinct vertices")
    try:
        ia, ib, ic = tup.index(a), tup.index(b), tup.index(c)
    except ValueError:
        raise GraphError("triple query argument is not in the cycle") from None
    k = len(tup)
    return (ib - ia) % k < (ic - ia) % k


# ---------------------------------------------------------------- face trace

def _predecessors(rot):
    """Per vertex, each neighbour's clockwise predecessor; GraphError on
    a repeated entry or a loop."""
    prev: dict[Vertex, dict[Vertex, Vertex]] = {}
    for v, seq in rot.items():
        tup = tuple(seq)
        if len(tup) != len(set(tup)) or v in tup:
            raise GraphError(f"malformed rotation at vertex {v}")
        prev[v] = dict(zip(tup, tup[-1:] + tup[:-1]))
    return prev


def trace_orbits(rot):
    """Face orbits of a rotation scheme, as normalized boundary tuples:
    the vertex cycle of each orbit in trace orientation (least rotation).
    """
    prev = _predecessors(rot)
    darts = sorted((u, v) for u, seq in rot.items() for v in seq)
    for u, v in darts:
        if v not in prev or u not in prev[v]:
            raise GraphError(f"dart ({u},{v}) has no reverse incidence")
    orbits: list[tuple] = []
    seen: set[tuple] = set()
    for u0, v0 in darts:
        if (u0, v0) in seen:
            continue
        cycle = []
        u, v = u0, v0
        while True:
            cycle.append(u)
            seen.add((u, v))
            u, v = v, prev[v][u]
            if (u, v) == (u0, v0):
                break
        orbits.append(least_rotation(cycle))
    return orbits


def face_name(boundary) -> FaceId:
    """Least ordered vertex triple occurring in boundary (orbit) order."""
    b = least_rotation(tuple(boundary))
    m = len(b)
    if m < 3 or len(set(b)) != m:
        raise GraphError(f"face boundary {b} has no canonical triple name")
    if m == 3:
        return b
    y = min(b[1:m - 1])
    iy = b.index(y)
    z = min(b[iy + 1:])
    return (b[0], y, z)


def euler_per_component(rot) -> bool:
    """V - E + F = 2 for every connected component of the rotation scheme.

    Faces are only counted: each component's darts are walked once with
    a visited set, and every dart is checked for its reverse on the way.
    """
    prev = _predecessors(rot)
    placed: set[Vertex] = set()
    seen: set[tuple] = set()
    ok = True
    for s in rot:
        if s in placed:
            continue
        placed.add(s)
        stack = [s]
        vs = darts = fs = 0
        while stack:
            x = stack.pop()
            vs += 1
            for y in rot[x]:
                darts += 1
                if y not in placed:
                    placed.add(y)
                    stack.append(y)
                if (x, y) in seen:
                    continue
                fs += 1
                u, v = x, y
                while True:
                    seen.add((u, v))
                    try:
                        u, v = v, prev[v][u]
                    except KeyError:
                        raise GraphError(
                            f"dart ({u},{v}) has no reverse incidence") \
                            from None
                    if u == x and v == y:
                        break
        ok = ok and vs - darts // 2 + fs == 2
    return ok


def _serialize(rot) -> str:
    return ";".join(
        f"{v}:" + ",".join(str(x) for x in opened_at_least(rot[v]))
        for v in sorted(rot))


# ------------------------------------------------------------- the embedding

class Embedding:
    """Rotation scheme of one connected component plus traced faces."""

    __slots__ = ("rot", "faces")

    def __init__(self, rot):
        rot = self.rot = {v: tuple(seq) for v, seq in rot.items()}
        if not rot:
            raise GraphError("embedding needs at least one edge")
        seen = set()
        stack = [next(iter(rot))]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(rot[x])
        if seen != set(rot):
            raise GraphError("embedding rotation scheme is not connected")
        orbits = trace_orbits(rot)
        vs = len(rot)
        es = sum(len(seq) for seq in rot.values()) // 2
        if vs - es + len(orbits) != 2:
            raise GraphError(
                f"rotation scheme is not planar: V-E+F = "
                f"{vs}-{es}+{len(orbits)}")
        self.faces = {}
        for b in orbits:
            if len(b) >= 3 and len(set(b)) == len(b):
                name = face_name(b)
                if name in self.faces:
                    raise GraphError(f"face name collision at {name}")
                self.faces[name] = b

    # ------------------------------------------------------------ structure

    @classmethod
    def from_cycle(cls, vertices) -> Embedding:
        vs = tuple(vertices)
        if len(vs) < 3 or len(set(vs)) != len(vs):
            raise GraphError(f"cycle {vs} needs three or more distinct vertices")
        k = len(vs)
        rot = {vs[i]: (vs[(i + 1) % k], vs[(i - 1) % k]) for i in range(k)}
        return cls(rot)

    @property
    def outer(self) -> FaceId | None:
        """The face with the least name; None for a tree."""
        return min(self.faces) if self.faces else None

    @property
    def vertices(self) -> frozenset[Vertex]:
        return frozenset(self.rot)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(canonical_edge(u, v)
                         for u, seq in self.rot.items() for v in seq)

    def boundary(self, f: FaceId) -> tuple:
        try:
            return self.faces[f]
        except KeyError:
            raise GraphError(f"unknown face {f}") from None

    # -------------------------------------------------------------- queries

    def face_query(self, a: Vertex, b: Vertex, c: Vertex):
        """Unique face carrying {a,b,c} plus whether (a,b,c) is its orbit
        order; for a cycle both faces carry them and the oriented one wins."""
        if len({a, b, c}) != 3:
            raise GraphError("face query needs three distinct vertices")
        hits = [f for f, bd in sorted(self.faces.items())
                if a in bd and b in bd and c in bd]
        if not hits:
            return None
        if len(hits) == 1:
            return hits[0], cyclic_triple_query(self.faces[hits[0]], a, b, c)
        oriented = [f for f in hits
                    if cyclic_triple_query(self.faces[f], a, b, c)]
        if len(oriented) != 1:
            raise GraphError(f"face query ({a},{b},{c}) is ambiguous")
        return oriented[0], True

    def common_face(self, vertex_set):
        """Least face whose boundary contains every vertex of the set."""
        want = set(vertex_set)
        for f, bd in sorted(self.faces.items()):
            if want <= set(bd):
                return f
        return None

    # ----------------------------------------------------------- operations

    def flipped(self) -> Embedding:
        """The mirror image: every rotation and face orbit reversed."""
        return Embedding({v: tuple(reversed(seq))
                          for v, seq in self.rot.items()})

    # ------------------------------------------------------- canonical form

    def serialize(self) -> str:
        return _serialize(self.rot)

    def canonical(self) -> Embedding:
        """The one of the reflection pair that serialises to the lesser
        string. Rotations of one or two entries read alike both ways, so
        the pair's serialisations first differ, at equal lengths, in the
        segment of the least vertex of degree three or more."""
        rot = self.rot
        w = min((v for v, seq in rot.items() if len(seq) >= 3), default=None)
        if w is not None and \
                _serialize({w: rot[w]}) > _serialize({w: rot[w][::-1]}):
            return self.flipped()
        return self

    def __repr__(self) -> str:
        return f"Embedding({self.serialize()!r})"

    # ----------------------------------------------------------------- dump

    def dump_lines(self) -> list[str]:
        lines = []
        for v in sorted(self.rot):
            seq = opened_at_least(self.rot[v])
            lines.append(f"rot {v}: " + " ".join(str(x) for x in seq))
        outer = self.outer
        for bd in sorted(self.faces.values()):
            mark = " outer" if face_name(bd) == outer else ""
            lines.append("face " + " ".join(str(x) for x in bd) + mark)
        return lines
