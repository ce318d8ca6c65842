"""Brute-force reference implementations for differential testing.

This subpackage never imports from the engine modules; everything here
is computed from scratch per call. The static oracles have a budget on
the graph's size; the decomposition certificate has none.
"""
from ._certify import certify_decomposition
from ._decomp import (
    DECOMPOSITION_BUDGET,
    OracleBlock,
    OracleComp,
    OracleDecomposition,
    dump_decomposition,
    spqr_nodes_and_edges,
    static_decomposition,
    tree_path,
)
from ._planar import OracleBudgetError, PLANARITY_BUDGET, static_planar
from ._validate import validate_rotation

__all__ = [
    "DECOMPOSITION_BUDGET",
    "OracleBlock",
    "OracleBudgetError",
    "OracleComp",
    "OracleDecomposition",
    "PLANARITY_BUDGET",
    "certify_decomposition",
    "dump_decomposition",
    "spqr_nodes_and_edges",
    "static_decomposition",
    "static_planar",
    "tree_path",
    "validate_rotation",
]
