"""Exactly rounded addition of binary floats with independent precisions.

Each value carries its own precision; `add_positive` returns the sum of two
positive values rounded to a caller-chosen target precision, together with
the ternary comparison of the rounded result against the exact sum.  The
`oracle` module computes the same answer through plain big integers and is
used for differential testing.  `__all__` is the library's surface; the
command line's special tokens and fixture lines live in `xadd.cli`.
"""

from .core import (
    DEFAULT_CONTEXT,
    DEFAULT_EMAX,
    DEFAULT_EMIN,
    DEFAULT_MAX_PRECISION,
    Context,
    ExponentOutOfRange,
    Float,
    FloatValueError,
    InvalidPrecision,
    NotNormalized,
    make_float,
    make_float_from_int,
)
from .engine import AddOutcome, ScanStats, add_positive
from .oracle import ExactSum, exact_add, exact_add_round
from .rounding import Overflow, RoundingMode, round_to_prec
from .textio import ParseError, format_float, parse_float

__version__ = "0.1.0"

__all__ = [
    "AddOutcome",
    "Context",
    "DEFAULT_CONTEXT",
    "DEFAULT_EMAX",
    "DEFAULT_EMIN",
    "DEFAULT_MAX_PRECISION",
    "ExactSum",
    "ExponentOutOfRange",
    "Float",
    "FloatValueError",
    "InvalidPrecision",
    "NotNormalized",
    "Overflow",
    "ParseError",
    "RoundingMode",
    "ScanStats",
    "add_positive",
    "exact_add",
    "exact_add_round",
    "format_float",
    "make_float",
    "make_float_from_int",
    "parse_float",
    "round_to_prec",
]
