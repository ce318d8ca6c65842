"""Vertices, edges and the change taxonomy of the dynamic graph.

Vertices are the integers [0, n). Edges are canonical ordered pairs
(u, v) with u < v. Every edge change is classified into a connectivity
level transition (insert i->j / delete i->j) before it is applied; the
level of a vertex pair is

    0  not connected
    1  connected, but not in a common non-bridge block
    2  common block, but no common rigid triconnected component
    3  common rigid triconnected component.

Level computation and the edge set itself belong to the decomposition
state; this module owns the vocabulary and the taxonomy.
"""
from __future__ import annotations

from dataclasses import dataclass

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
