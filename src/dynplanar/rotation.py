"""Extended planar embeddings: vertex rotations plus traced faces.

An embedding stores one clockwise neighbour cycle per vertex. Faces are
the orbits of the successor rule

    next(u -> v) = (v, clockwise-predecessor of u at v)

kept as one tuple of boundaries, each in orbit orientation and least
rotation, in sorted order, the order in which dumps list faces. Only
simple faces are kept; a tree has none. An embedding built from a
rotation scheme alone traces every face. One built from the rotations
of other embeddings, changed at some vertices (`Embedding._derived`),
keeps their faces that avoid those vertices, since an orbit steps by
the rotation it arrives at, and traces only the orbits through them; a
whole trace is the same routine with every vertex changed and no faces
kept. An embedding is a value: no method changes it. Its edits return a
new embedding and retrace only the faces at the edge: deleting an edge
merges its two faces, drawing one across a face splits that face, and
the other boundaries are kept and the new ones inserted in order. A
mirror image reverses every boundary.

A face's name is the lexicographically least ordered vertex triple that
occurs on its boundary in orbit order. Names order faces only to pick
the outer face, the one with the least name, which is decided once per
embedding. Every other reader takes boundaries as stored: no two faces
of a rigid component share three vertices, and of a cycle's two faces
exactly one carries three given vertices in a given order. Of an
embedding and its mirror, the canonical one serialises to the lesser
string, which one vertex decides.

The faces at an edge also give the separating pairs that a
triconnected graph has without the edge (`pairs_without`).
"""
from __future__ import annotations

from bisect import bisect_left, insort

from .graph_core import Edge, GraphError, Vertex

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


def crossing(bd, pair):
    """How the simple face boundary bd crosses the pair: (x, y) when bd
    steps from x straight to y, None when the pair is no edge of bd."""
    x, y = pair
    try:
        i = bd.index(x)
    except ValueError:
        return None
    if bd[(i + 1) % len(bd)] == y:
        return x, y
    if bd[i - 1] == y:
        return y, x
    return None


# ---------------------------------------------------------------- face trace

def _predecessors(seq, v) -> dict[Vertex, Vertex]:
    """Each neighbour's clockwise predecessor in v's rotation seq;
    GraphError on a repeated entry or a loop."""
    tup = tuple(seq)
    if len(tup) != len(set(tup)) or v in tup:
        raise GraphError(f"malformed rotation at vertex {v}")
    return dict(zip(tup, tup[-1:] + tup[:-1]))


def trace_orbits(rot):
    """Face orbits of a rotation scheme, as normalized boundary tuples:
    the vertex cycle of each orbit in trace orientation (least rotation).
    Darts are taken in sorted order, so a simple orbit starts at its
    least dart and the simple orbits come out sorted.
    """
    return _orbits(rot, rot)


def _orbits(rot, at):
    """The face orbits through the darts at the vertices `at`, each
    once, normalized as `trace_orbits` gives them, in the order of their
    least dart at `at`. GraphError on a repeated entry or a loop at a
    vertex an orbit enters, or on a dart of an orbit with no reverse."""
    prev: dict[Vertex, dict[Vertex, Vertex]] = {}
    orbits: list[tuple] = []
    seen: set[tuple] = set()
    for u0, v0 in sorted((u, v) for u in at for v in rot[u]):
        if (u0, v0) in seen:
            continue
        cycle = []
        u, v = u0, v0
        while True:
            cycle.append(u)
            seen.add((u, v))
            before = prev.get(v)
            try:
                if before is None:
                    before = prev[v] = _predecessors(rot[v], v)
                u, v = v, before[u]
            except KeyError:
                raise GraphError(
                    f"dart ({u},{v}) has no reverse incidence") from None
            if u == u0 and v == v0:
                break
        orbits.append(least_rotation(cycle))
    return orbits


def at_corner(seq, x, w, bd) -> tuple:
    """x's rotation seq, a tuple, with the entry w entered at x's corner
    on the face bd, which holds x: between the entries of its neighbours
    on bd. GraphError when they are not adjacent in seq."""
    i = bd.index(x)
    j = seq.index(bd[(i + 1) % len(bd)])
    if seq[(j + 1) % len(seq)] != bd[i - 1]:
        raise GraphError(f"corner of {x} on {bd} disagrees with its rotation")
    return seq[:j + 1] + (w,) + seq[j + 1:]


def _orbit(rot, u, v) -> list:
    """Vertex cycle of the face orbit through the dart u -> v, from u."""
    cycle = []
    x, y = u, v
    while True:
        cycle.append(x)
        seq = rot[y]
        x, y = y, seq[seq.index(x) - 1]
        if x == u and y == v:
            return cycle


def pairs_without(emb, u, v) -> tuple[Edge, ...]:
    """The separating pairs of the triconnected graph that emb embeds,
    less its edge u-v, in order from u's side to v's; none when it stays
    triconnected.

    Let f1 and f2 be the two faces at u-v; f1 - {u,v} and f2 - {u,v} are
    disjoint. The vertex pairs that separate the graph less u-v are the
    pairs {x, y}, x on f1 - {u,v} and y on f2 - {u,v}, that some third
    face holds (Di Battista and Tamassia), so only the faces at the
    vertices of the shorter of f1, f2 are traced. Each such pair parts u
    from v. Number each face's vertices by their distance from u along
    it: a pair that another separates, one of whose ends comes before
    and the other after the pair's own, is inside a cycle and no pair of
    the SPQR tree. The others nest, in the order of those numbers.
    """
    rot = emb.rot
    f1, f2 = _orbit(rot, u, v), _orbit(rot, v, u)
    # f1 runs u, v, ... and f2 runs v, u, ...
    face, other = (f1, f2) if len(f1) <= len(f2) else (f2, f1)
    far = set(other[2:])
    k = len(face)
    hits = []
    for i in range(2, k):
        x, on_face = face[i], face[(i + 1) % k]
        for w in rot[x]:
            # the dart x -> face[i + 1] lies on the face itself
            if w != on_face:
                orbit = _orbit(rot, x, w)
                if not far.isdisjoint(orbit):
                    hits.append((x, orbit))
    if not hits:
        return ()
    # each face's vertices numbered by their distance from u along it
    at1 = {x: i for i, x in enumerate(reversed(f1[2:]), 1)}
    at2 = {y: i for i, y in enumerate(f2[2:], 1)}
    cuts = sorted({(at1[x], at2[y], x, y) if face is f1
                   else (at1[y], at2[x], y, x)
                   for x, orbit in hits for y in orbit if y in far})
    # the greatest second number before each first number, and the least
    # after it
    before, after = {}, {}
    top = 0
    for i, j, _, _ in cuts:
        before.setdefault(i, top)
        top = max(top, j)
    low = len(at2) + 1
    for i, j, _, _ in reversed(cuts):
        after.setdefault(i, low)
        low = min(low, j)
    return tuple((x, y) if x < y else (y, x) for i, j, x, y in cuts
                 if before[i] <= j <= after[i])


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


def _least_named(faces):
    """The least-named of sorted simple boundaries, None for none. A
    boundary starts at its least vertex, as its name does, so only those
    through the first one's least vertex are named."""
    if not faces:
        return None
    return min(faces[:bisect_left(faces, (faces[0][0] + 1,))], key=face_name)


def euler_per_component(rot) -> bool:
    """V - E + F = 2 for every connected component of the rotation scheme.

    Faces are only counted: each component's darts are walked once with
    a visited set, and every dart is checked for its reverse on the way.
    """
    prev = {v: _predecessors(seq, v) for v, seq in rot.items()}
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

    __slots__ = ("rot", "faces", "outer")

    def __init__(self, rot):
        """The embedding of a rotation scheme, every face traced."""
        self._fill({v: tuple(seq) for v, seq in rot.items()}, None, ())

    @classmethod
    def _derived(cls, rot, at, sources=()) -> Embedding:
        """The embedding of the rotation scheme rot, a dict of tuples,
        whose rotations equal those of each (embedding, mirrored) pair
        of `sources`, a mirrored one reversed, except at the vertices
        `at`. An orbit steps by the rotation it arrives at, so a source
        face that avoids `at` and whose vertices rot holds is a face of
        rot, reversed for a mirrored source; only the orbits through the
        darts at `at` are traced."""
        emb = object.__new__(cls)
        emb._fill(rot, at, sources)
        return emb

    def _fill(self, rot, at, sources) -> None:
        """Set the slots for rot, tracing the orbits through the darts at
        `at` (every orbit, by `trace_orbits`, when it is None) and keeping
        the faces off `at` of the sources, as `_derived` says; the outer
        face is the least-named one. GraphError unless rot is connected,
        V - E + F = 2 on the kept and traced faces, and the traced
        vertices have no repeated entry, no loop and no dart without its
        reverse."""
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
        if seen != rot.keys():
            raise GraphError("embedding rotation scheme is not connected")
        orbits = trace_orbits(rot) if at is None else _orbits(rot, at)
        kept = []
        off = rot.keys() - at if sources else ()
        for src, mirrored in sources:
            faces = [bd for bd in src.faces if off.issuperset(bd)]
            kept += [least_rotation(bd[::-1]) for bd in faces] \
                if mirrored else faces
        vs = len(rot)
        es = sum(len(seq) for seq in rot.values()) // 2
        fs = len(orbits) + len(kept)
        if vs - es + fs != 2:
            raise GraphError(
                f"rotation scheme is not planar: V-E+F = {vs}-{es}+{fs}")
        faces = kept + [b for b in orbits
                        if len(b) >= 3 and len(set(b)) == len(b)]
        self.rot = rot
        self.faces = tuple(faces if at is None else sorted(faces))
        self.outer = _least_named(self.faces)

    @classmethod
    def _made(cls, rot, faces, outer) -> Embedding:
        """An embedding whose faces the caller derived from another's."""
        emb = object.__new__(cls)
        emb.rot, emb.faces, emb.outer = rot, faces, outer
        return emb

    # ------------------------------------------------------------ structure

    @property
    def vertices(self) -> frozenset[Vertex]:
        return frozenset(self.rot)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset((u, v) if u < v else (v, u)
                         for u, seq in self.rot.items() for v in seq)

    # -------------------------------------------------------------- queries

    def face_query(self, a: Vertex, b: Vertex, c: Vertex) -> bool:
        """Does some face carry a, b, c in its orbit order? At most one
        face of a rigid component holds three vertices, and exactly one
        face of a cycle carries them in a given order."""
        if len({a, b, c}) != 3:
            raise GraphError("face query needs three distinct vertices")
        return any(a in bd and b in bd and c in bd
                   and cyclic_triple_query(bd, a, b, c) for bd in self.faces)

    def common_face(self, vertex_set):
        """First face boundary that holds every vertex of the set, which
        is not empty. One vertex is looked up in each boundary first,
        which builds no set."""
        want = set(vertex_set)
        one = min(want)
        return next((bd for bd in self.faces
                     if one in bd and want.issubset(bd)), None)

    # ----------------------------------------------------------- operations

    def flipped(self) -> Embedding:
        """The mirror image: every rotation and face orbit reversed."""
        faces = tuple(sorted(least_rotation(bd[::-1]) for bd in self.faces))
        return Embedding._made(
            {v: seq[::-1] for v, seq in self.rot.items()}, faces,
            _least_named(faces))

    def without_edge(self, u: Vertex, v: Vertex) -> Embedding:
        """This embedding less its edge u-v, which must border two simple
        faces; they merge into one face, the only one traced."""
        if v not in self.rot.get(u, ()):
            raise GraphError(f"no edge {u}-{v} in the embedding")
        old = self.rot
        f1, f2 = _orbit(old, u, v), _orbit(old, v, u)
        if any(len(f) < 3 or len(set(f)) != len(f) for f in (f1, f2)):
            raise GraphError(f"edge {u}-{v} does not border two simple faces")
        rot = dict(old)
        rot[u] = tuple(w for w in old[u] if w != v)
        rot[v] = tuple(w for w in old[v] if w != u)
        # f1 runs on from u -> v along v -> (u's predecessor at v), a dart
        # the merged face keeps
        i = old[v].index(u)
        merged = _orbit(rot, v, old[v][i - 1])
        return self._replaced(rot, (least_rotation(f1), least_rotation(f2)),
                              (least_rotation(merged),))

    def with_edge(self, u: Vertex, v: Vertex, bd) -> Embedding:
        """This embedding plus the edge u-v drawn across its face bd,
        which holds u and v: the edge enters the rotations of u and v at
        their corners on bd, and bd splits into the two faces traced."""
        if u == v or v in self.rot.get(u, ()):
            raise GraphError(f"edge {u}-{v} cannot be added")
        if u not in bd or v not in bd:
            raise GraphError(f"face {bd} does not hold {u} and {v}")
        rot = dict(self.rot)
        rot[u] = at_corner(rot[u], u, v, bd)
        rot[v] = at_corner(rot[v], v, u, bd)
        return self._replaced(rot, (bd,), (least_rotation(_orbit(rot, u, v)),
                                           least_rotation(_orbit(rot, v, u))))

    def _replaced(self, rot, old, new) -> Embedding:
        """The embedding of rot, whose faces are this embedding's with the
        boundaries `old` swapped for the simple ones among `new`."""
        faces = list(self.faces)
        for bd in old:
            i = bisect_left(faces, bd)
            if i == len(faces) or faces[i] != bd:
                raise GraphError(f"{bd} is no face of the embedding")
            del faces[i]
        new = [bd for bd in new if len(set(bd)) == len(bd)]
        for bd in new:
            insort(faces, bd)
        outer = min(faces, key=face_name, default=None) \
            if self.outer in old \
            else min((self.outer, *new), key=face_name)
        return Embedding._made(rot, tuple(faces), outer)

    # ------------------------------------------------------- canonical form

    def serialize(self) -> str:
        return _serialize(self.rot)

    def canonical(self) -> Embedding:
        """The one of the reflection pair that serialises to the lesser
        string, this embedding itself unless it is the mirror. Rotations
        of one or two entries read alike both ways, so the pair's
        serialisations first differ, at equal lengths, in the segment of
        the least vertex of degree three or more, in a rigid component
        its least vertex."""
        rot = self.rot
        w = min(rot)
        if len(rot[w]) < 3:
            w = min((v for v, seq in rot.items() if len(seq) >= 3),
                    default=None)
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
            lines.append(f"rot {v}: " + " ".join(map(str, seq)))
        for bd in self.faces:
            mark = " outer" if bd == self.outer else ""
            lines.append("face " + " ".join(map(str, bd)) + mark)
        return lines
