"""Exact arithmetic for Riordan matrices.

The package works with truncated formal power series over exact
rationals (:class:`~riordan.series.Series`), assembles them into
Riordan matrices (:class:`~riordan.core.RiordanMatrix`), and builds
the structures those matrices generate: A- and B-sequences, matrix
logarithms and fractional powers of Bell-subgroup matrices,
composition-polynomial triangles, and partition expansions of series
powers.  Everything is computed and compared exactly -- no floats.

Quick start::

    >>> from riordan import RiordanMatrix, geometric
    >>> pascal = RiordanMatrix(geometric(6), geometric(6))
    >>> pascal.triangle().rows[4]
    (Fraction(1, 1), Fraction(4, 1), Fraction(6, 1), Fraction(4, 1), Fraction(1, 1))
"""

from ._backend import backend_name
from .bexpansion import (
    BCOMP_ROWS_LIMIT,
    PARTITION_N_LIMIT,
    BCompMatrix,
    OddPartition,
    a_expand,
    b_expand,
    b_expand_symbolic,
    bcomp_entry_catalan,
    bcomp_entry_one_plus_x,
    bcomp_matrix,
    bcomp_row_from_convolutions,
    binomial_series,
    catalan_number,
    convolution_rows,
    dissection_matrix,
    dissection_poly,
    exp_lagrange_diagonal,
    generalized_binomial,
    is_appell_type,
    narayana,
    narayana_triangle,
    odd_partitions,
    power_poly,
    rna_series,
    rna_row_closed,
)
from .core import (
    EXPONENTIAL,
    ORDINARY,
    FactorizationError,
    NoBSequenceError,
    RiordanError,
    RiordanMatrix,
    from_a_sequence,
    from_b_sequence,
)
from .matrixlog import (
    CompositionMatrix,
    bell_log,
    bell_power,
    composition_matrix,
    composition_sum,
    log_generator,
)
from .rings import ParamPoly, Rational, binomial, falling_factorial, format_rational
from .series import (
    Series,
    catalan,
    constant_series,
    exp_series,
    from_coeffs,
    geometric,
    one_series,
    x_series,
    zeros,
)
from .suites import CheckResult, run_all, run_suite
from .triangle import Triangle

__version__ = "0.1.0"

__all__ = [
    "BCOMP_ROWS_LIMIT",
    "BCompMatrix",
    "CheckResult",
    "CompositionMatrix",
    "EXPONENTIAL",
    "FactorizationError",
    "NoBSequenceError",
    "ORDINARY",
    "OddPartition",
    "PARTITION_N_LIMIT",
    "ParamPoly",
    "Rational",
    "RiordanError",
    "RiordanMatrix",
    "Series",
    "Triangle",
    "__version__",
    "a_expand",
    "b_expand",
    "b_expand_symbolic",
    "backend_name",
    "bcomp_entry_catalan",
    "bcomp_entry_one_plus_x",
    "bcomp_matrix",
    "bcomp_row_from_convolutions",
    "bell_log",
    "bell_power",
    "binomial",
    "binomial_series",
    "catalan",
    "catalan_number",
    "composition_matrix",
    "composition_sum",
    "constant_series",
    "convolution_rows",
    "dissection_matrix",
    "dissection_poly",
    "exp_lagrange_diagonal",
    "exp_series",
    "falling_factorial",
    "from_coeffs",
    "format_rational",
    "from_a_sequence",
    "from_b_sequence",
    "generalized_binomial",
    "geometric",
    "is_appell_type",
    "log_generator",
    "narayana",
    "narayana_triangle",
    "odd_partitions",
    "one_series",
    "power_poly",
    "rna_row_closed",
    "rna_series",
    "run_all",
    "run_suite",
    "x_series",
    "zeros",
]
