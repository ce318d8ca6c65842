"""Dynamic undirected simple graph over a fixed vertex domain.

Vertices are the integers [0, n). Edges are canonical ordered pairs
(u, v) with u < v. Every edge change is classified into a connectivity
level transition (insert i->j / delete i->j) before it is applied; the
level of a vertex pair is

    0  not connected
    1  connected, but not in a common non-bridge block
    2  common block, but no common rigid triconnected component
    3  common rigid triconnected component.

Level computation is delegated to the decomposition state; this module
owns the taxonomy and the raw edge-set mutation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

Vertex = int
Edge = tuple[Vertex, Vertex]

INSERT = "insert"
DELETE = "delete"

ACCEPTED = "accepted"
REJECTED_NONPLANAR = "rejected_nonplanar"
NOOP_DUPLICATE = "noop_duplicate"
NOOP_ABSENT = "noop_absent"


class GraphError(ValueError):
    """Base for all graph-core errors."""


class DomainError(GraphError):
    """Vertex outside [0, n) or degenerate (self-loop) edge."""


class DuplicateEdgeError(GraphError):
    """Insertion of an edge that is already present."""


class AbsentEdgeError(GraphError):
    """Deletion of an edge that is not present."""


def canonical_edge(u: Vertex, v: Vertex) -> Edge:
    if u == v:
        raise DomainError(f"self-loop ({u},{v}) is not a valid edge")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class EdgeChangeType:
    direction: str  # INSERT or DELETE
    before_level: int
    after_level: int

    def __str__(self) -> str:
        return f"{self.direction} {self.before_level}->{self.after_level}"


@dataclass(frozen=True)
class ChangeOutcome:
    status: str  # ACCEPTED / REJECTED_NONPLANAR / NOOP_DUPLICATE / NOOP_ABSENT
    change_type: EdgeChangeType | None = None


# Transitions that can never occur for a single edge change.
IMPOSSIBLE_TYPES = frozenset(
    {
        (INSERT, 0, 2),
        (INSERT, 0, 3),
        (INSERT, 1, 3),
        (DELETE, 3, 0),
        (DELETE, 3, 1),
        (DELETE, 2, 0),
    }
)


@dataclass
class DynamicGraph:
    """Edge set over the vertex domain [0, n)."""

    n: int
    edges: set[Edge] = field(default_factory=set)

    def check_vertex(self, v: Vertex) -> None:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < self.n:
            raise DomainError(f"vertex {v!r} outside domain [0,{self.n})")

    def check_edge_vertices(self, u: Vertex, v: Vertex) -> Edge:
        self.check_vertex(u)
        self.check_vertex(v)
        return canonical_edge(u, v)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return canonical_edge(u, v) in self.edges

    def apply_raw(self, edge: Edge, direction: str) -> None:
        """Mutate the edge set without any planarity involvement."""
        edge = self.check_edge_vertices(*edge)
        if direction == INSERT:
            if edge in self.edges:
                raise DuplicateEdgeError(f"edge {edge} already present")
            self.edges.add(edge)
        elif direction == DELETE:
            if edge not in self.edges:
                raise AbsentEdgeError(f"edge {edge} not present")
            self.edges.remove(edge)
        else:
            raise GraphError(f"unknown direction {direction!r}")
