"""The three seeded workloads: start graphs and rounds of operations.

A workload is a list of start edge sets (one per engine a set-up builds)
and a generator of rounds. A round yields operations one at a time, so
a step may depend on the edge set the previous steps left behind. Each
operation is a tuple whose first field is the index of the engine it
targets and whose second field is its kind:

    (k, "ins", a, b)           insert_edge
    (k, "del", a, b)           delete_edge
    (k, "rot", v, a, b, c)     graph_rotation_query       (CLI rot?)
    (k, "face", a, b, c)       graph_face_query           (CLI face?)
    (k, "block", u, v)         decomp.same_block          (CLI block?)
    (k, "cut", v)              decomp.is_cut_vertex       (CLI cut?)
    (k, "pair", s, t)          decomp.is_separating_pair  (CLI pair?)
    (k, "dump",)               Engine.dump
    (k, "checkpoint",)         untimed: reload the edge set, shuffled

The generators read the benchmark's own model of each engine's edge set,
never the engine, so the engine receives only the generated edges.
"""
from __future__ import annotations

import itertools
import random

import networkx as nx

Edge = tuple[int, int]


def _edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def planar(edges) -> bool:
    """networkx verdict (Brandes' left-right test), apart from the engine."""
    return nx.check_planarity(nx.Graph(list(edges)))[0]


def queries(rng: random.Random, k: int, edges: set[Edge]):
    """One query of each CLI kind, with arguments drawn from the edges."""
    adj: dict[int, list[int]] = {}
    for u, v in sorted(edges):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    verts = sorted(adj)
    if len(verts) < 3:
        return
    hubs = [v for v in verts if len(adj[v]) >= 3]
    if hubs:
        v = rng.choice(hubs)
        yield (k, "rot", v, *rng.sample(adj[v], 3))
    paths = [v for v in verts if len(adj[v]) >= 2]
    if paths:
        v = rng.choice(paths)
        yield (k, "face", v, *rng.sample(adj[v], 2))
    yield (k, "block", *rng.sample(verts, 2))
    yield (k, "cut", rng.choice(verts))
    yield (k, "pair", *rng.choice(sorted(edges)))


class Workload:
    """Base: subclasses set name, domain, starts and checkpoint_every."""

    name = ""
    domain = 0
    # Set-ups per run; setup_s is their median. Cheap set-ups repeat more
    # often, so that their median is not one scheduler hiccup.
    setups = 3
    # Shuffled reloads cost a whole set-up, so they run only on rounds
    # r with r % checkpoint_every == 0.
    checkpoint_every = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.starts: list[list[Edge]] = []

    def round(self, r: int, models: list[set[Edge]]):
        raise NotImplementedError


# ------------------------------------------------------------------ churn-d8

class ChurnD8(Workload):
    """The acceptance corpus's step rule over domain 8, from planar starts.

    Each engine starts from the graph the corpus walk (networkx deciding
    the inserts) holds at its first 14-edge state after 150 steps, so
    measuring begins in the walk's steady state rather than on an empty,
    cheap graph, and every seed's set-up inserts the same number of
    edges.
    """

    name = "churn-d8"
    domain = 8
    engines = 16
    start_edges = 14
    setups = 15
    steps = 12
    delete_bias = 0.45
    checkpoint_every = 4
    pairs = list(itertools.combinations(range(domain), 2))

    def __init__(self, seed: int):
        super().__init__(seed)
        for k in range(self.engines):
            rng = random.Random(f"{seed}/start/{k}")
            edges: set[Edge] = set()
            steps = 0
            while steps < 150 or len(edges) != self.start_edges:
                op = self._step(rng, edges)
                steps += 1
                if op[0] == "del":
                    edges.discard(op[1])
                elif planar(edges | {op[1]}):
                    edges.add(op[1])
            self.starts.append(sorted(edges))

    def _step(self, rng: random.Random, edges: set[Edge]):
        present = sorted(edges)
        if present and rng.random() < self.delete_bias:
            return ("del", present[rng.randrange(len(present))])
        absent = [p for p in self.pairs if p not in edges]
        return ("ins", absent[rng.randrange(len(absent))])

    def round(self, r: int, models: list[set[Edge]]):
        rng = random.Random(f"{self.seed}/round/{r}")
        k = r % self.engines
        yield (k, "dump")
        for i in range(self.steps):
            kind, e = self._step(rng, models[k])
            yield (k, kind, *e)
            if i % 6 == 5:
                yield from queries(rng, k, models[k])
        yield (k, "dump")
        if r % self.checkpoint_every == 0:
            yield (k, "checkpoint")


# ------------------------------------------------------------------ grid-d30

class GridD30(Workload):
    """A triangulated 5x6 grid churned on its interior edges.

    Vertex i*6+j sits at row i, column j. The labels stay fixed because
    the cost of a change depends on them (the separating-pair search
    exits early in label order); the seed orders the churn, the rejected
    pairs and the queries. Round r deletes and re-inserts the r-th edge
    of a seeded cycle through all interior edges, so every run touches
    each of them about equally. Rejected inserts join interior vertices
    at grid distance 3 or more: one deleted edge only merges two
    triangles, so no face holds both ends.
    """

    name = "grid-d30"
    domain = 30
    rows, cols = 5, 6
    checkpoint_every = 1_000_000  # round 0 only

    def __init__(self, seed: int):
        super().__init__(seed)
        edges, interior = [], []
        for i in range(self.rows):
            for j in range(self.cols):
                for di, dj in ((0, 1), (1, 0), (1, 1)):
                    if i + di >= self.rows or j + dj >= self.cols:
                        continue
                    e = _edge(i * self.cols + j, (i + di) * self.cols + j + dj)
                    edges.append(e)
                    on_rim = (di == 0 and i in (0, self.rows - 1)) or \
                        (dj == 0 and j in (0, self.cols - 1))
                    if not on_rim:
                        interior.append(e)
        self.starts.append(sorted(edges))
        inner = [(i, j) for i in range(1, self.rows - 1)
                 for j in range(1, self.cols - 1)]
        far = [_edge(p[0] * self.cols + p[1], q[0] * self.cols + q[1])
               for p, q in itertools.combinations(inner, 2)
               if self._distance(p, q) >= 3]
        rng = random.Random(f"{seed}/order")
        self.interior = rng.sample(sorted(interior), len(interior))
        self.far_pairs = rng.sample(sorted(far), len(far))

    @staticmethod
    def _distance(p, q) -> int:
        """Hop distance in a grid triangulated along (+1, +1) diagonals."""
        di, dj = q[0] - p[0], q[1] - p[1]
        if di * dj > 0:
            return max(abs(di), abs(dj))
        return abs(di) + abs(dj)

    def round(self, r: int, models: list[set[Edge]]):
        rng = random.Random(f"{self.seed}/round/{r}")
        e = self.interior[r % len(self.interior)]
        far = self.far_pairs
        yield (0, "dump")
        yield (0, "del", *e)
        if r % self.checkpoint_every == 0:
            yield (0, "checkpoint")
        for i in range(2):
            yield from queries(rng, 0, models[0])
            yield (0, "ins", *far[(4 * r + i) % len(far)])
        yield (0, "dump")
        yield (0, "ins", *e)
        for i in range(2, 4):
            yield from queries(rng, 0, models[0])
            yield (0, "ins", *far[(4 * r + i) % len(far)])
        yield (0, "dump")


# ---------------------------------------------------------------- blocks-d42

def _wheel(rim: int):
    return {"kind": "wheel", "hub": 0, "rim": list(range(1, rim + 1))}


def _cycle(k: int):
    return {"kind": "cycle", "rim": list(range(k))}


def _glued(rim: int):
    """Two wheels sharing the rim edge s-t: a separating pair, a P-node
    and one stored coherent path with its colouring."""
    a = [0, 1] + list(range(3, rim + 1))
    b = [0, 1] + list(range(rim + 2, 2 * rim))
    return {"kind": "glued", "hub": 2, "hub2": rim + 1, "rim": a, "rim2": b}


def _block_edges(blk) -> list[Edge]:
    def ring(vs):
        return [_edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]
    out = ring(blk["rim"])
    if "hub" in blk:
        out += [_edge(blk["hub"], x) for x in blk["rim"]]
    if "hub2" in blk:
        out += ring(blk["rim2"]) + [_edge(blk["hub2"], x)
                                    for x in blk["rim2"]]
    return sorted(set(out))


class BlocksD42(Workload):
    """A chain of wheels, cycles and glued wheel pairs over domain 42.

    Consecutive blocks meet alternately at a bridge and at a cut vertex.
    The chain and its labels are fixed, as on grid-d30; the seed drives
    the churn. A round visits every block once, in a seeded order, and
    churns only inside it: spoke, rim and shared-edge deletes with their
    re-inserts, then a rim chord that is accepted, every chord crossing
    it, each rejected once in each argument order (wheels only; a cycle
    with two crossing chords stays planar), and the chord's delete.
    """

    name = "blocks-d42"
    domain = 42
    shapes = (_wheel(6), _cycle(5), _glued(4), _wheel(5), _cycle(6),
              _glued(4), _cycle(5))
    checkpoint_every = 1_000_000  # round 0 only

    def __init__(self, seed: int):
        super().__init__(seed)
        self.blocks = []
        edges: list[Edge] = []
        nxt = 0
        prev_anchor = -1
        for i, shape in enumerate(self.shapes):
            local = sorted({x for e in _block_edges(shape) for x in e})
            glue = i > 0 and i % 2 == 0  # otherwise a bridge joins them
            names = {}
            for x in local:
                if glue and x == shape["rim"][-1]:
                    names[x] = prev_anchor
                else:
                    names[x] = nxt
                    nxt += 1
            blk = {key: (names[val] if isinstance(val, int)
                         else [names[x] for x in val])
                   for key, val in shape.items() if key != "kind"}
            blk["kind"] = shape["kind"]
            edges += [_edge(names[u], names[v])
                      for u, v in _block_edges(shape)]
            if i > 0 and not glue:
                edges.append(_edge(prev_anchor, blk["rim"][-1]))
            prev_anchor = blk["rim"][len(blk["rim"]) // 2]
            self.blocks.append(blk)
        assert nxt == self.domain, nxt
        self.starts.append(sorted(edges))

    def round(self, r: int, models: list[set[Edge]]):
        rng = random.Random(f"{self.seed}/round/{r}")
        order = list(range(len(self.blocks)))
        rng.shuffle(order)
        for i in order:
            blk = self.blocks[i]
            rim = blk["rim"]
            yield (0, "dump")
            toggles = []
            if blk["kind"] == "cycle":
                j = rng.randrange(len(rim))
                toggles.append(_edge(rim[j], rim[(j + 1) % len(rim)]))
            else:
                toggles.append(_edge(blk["hub"], rng.choice(rim)))
                ring = blk.get("rim2", rim)
                j = rng.randrange(1 if "rim2" in blk else 0, len(ring))
                toggles.append(_edge(ring[j], ring[(j + 1) % len(ring)]))
                if "rim2" in blk:
                    toggles.append(_edge(rim[0], rim[1]))
            for e in toggles:
                yield (0, "del", *e)
                yield from queries(rng, 0, models[0])
                yield (0, "ins", *e)
            a = rng.randrange(len(rim))
            chord = _edge(rim[a], rim[(a + 2) % len(rim)])
            yield (0, "ins", *chord)
            if r % self.checkpoint_every == 0 and i == order[0]:
                yield (0, "checkpoint")
            if blk["kind"] != "cycle":
                for c in range(3, len(rim)):
                    u, v = rim[(a + 1) % len(rim)], rim[(a + c) % len(rim)]
                    yield (0, "ins", u, v)
                    yield (0, "ins", v, u)
            yield from queries(rng, 0, models[0])
            yield (0, "dump")
            yield (0, "del", *chord)


WORKLOADS = {w.name: w for w in (ChurnD8, GridD30, BlocksD42)}
