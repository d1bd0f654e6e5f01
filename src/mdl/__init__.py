"""Exact covering numbers, stacks and density reductions for small matroids."""

from .errors import CapExceeded, InputError, PremiseError, UniformMinorDetected
from .gf import FiniteField, Matrix, field, matrix_rank
from .core import (
    Matroid,
    UniformMatroid,
    LinearMatroid,
    MinorMatroid,
    DirectSumMatroid,
    direct_sum,
    parallel_extension,
    validate_rank_axioms,
)

__all__ = [
    "CapExceeded",
    "InputError",
    "PremiseError",
    "UniformMinorDetected",
    "FiniteField",
    "Matrix",
    "field",
    "matrix_rank",
    "Matroid",
    "UniformMatroid",
    "LinearMatroid",
    "MinorMatroid",
    "DirectSumMatroid",
    "direct_sum",
    "parallel_extension",
    "validate_rank_axioms",
]
