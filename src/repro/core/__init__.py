"""The paper's primary contribution: DGGT and its optimizations."""

from repro.core.cgt import CGT
from repro.core.dggt import DggtConfig, DggtEngine
from repro.core.dynamic_graph import VIRTUAL
from repro.core.expression import (
    Expr,
    cgt_to_expression,
    direct_api_children,
    normalize_codelet,
    parse_expression,
    validate_expression,
)
from repro.core.orphan import candidate_governors, relocation_variants

__all__ = [
    "CGT",
    "DggtEngine",
    "DggtConfig",
    "VIRTUAL",
    "Expr",
    "cgt_to_expression",
    "parse_expression",
    "normalize_codelet",
    "validate_expression",
    "direct_api_children",
    "relocation_variants",
    "candidate_governors",
]
