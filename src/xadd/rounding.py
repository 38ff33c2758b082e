"""Directed and nearest-even rounding from a (rounding bit, sticky bit) pair.

Once the exact result of an operation is reduced to a truncated p-bit
mantissa plus the bit of weight 2**-(p+1) (rounding bit r) and the logical
OR of everything below it (sticky bit s), the rounded mantissa and the
ternary value follow from a fixed table:

    (r, s) = (0, 0): exact in every mode, ternary 0
    (r, s) = (0, 1): truncate in Down/TowardZero/NearestEven, increment in Up
    (r, s) = (1, 0): halfway case; NearestEven increments iff the lowest
                     kept mantissa bit is 1
    (r, s) = (1, 1): increment in Up and NearestEven, truncate otherwise

The ternary value is the sign of (rounded - exact): -1 after a truncation
of an inexact value, +1 after an increment, 0 when exact.  TowardZero
coincides with Down because every value handled here is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import DEFAULT_CONTEXT, Context, Float, _quote, check_precision, float_from_mantissa


class RoundingMode(Enum):
    """The four supported modes; values double as the command-line spellings."""

    DOWN = "down"
    UP = "up"
    TOWARD_ZERO = "zero"
    NEAREST_EVEN = "nearest"


# The members as globals: `decide_round` reads them faster than as class attributes.
UP, NEAREST_EVEN = RoundingMode.UP, RoundingMode.NEAREST_EVEN


@dataclass(frozen=True)
class Overflow:
    """The rounded result's exponent would exceed the context maximum.

    No substitute value (infinity or largest-finite) is produced; callers
    receive this record instead of a Float.  `ternary` is the ternary value
    the rounding decision produced before the range check, which keeps the
    report deterministic and reproducible by the reference path.
    """

    mode: RoundingMode
    sign: int
    ternary: int


def check_mode(mode: RoundingMode) -> None:
    """Reject a mode that is not a RoundingMode; the table would read it as Down."""
    if not isinstance(mode, RoundingMode):
        raise ValueError(f"not a rounding mode: {_quote(mode)}")


def decide_round(mode: RoundingMode, r: int, s: int, last_bit: int) -> int:
    """Apply the rounding table to a truncated positive mantissa and return
    the ternary value; the mantissa is incremented exactly when it is +1.

    `last_bit` is the lowest kept mantissa bit (weight 2**-p), consulted only
    to break the NearestEven halfway case.  `s` is read only as a truth
    value, so the bits below r may be passed as they are.
    """
    if not (r or s):
        return 0
    if mode is UP:
        return 1
    if mode is NEAREST_EVEN and r and (s or last_bit):
        return 1
    return -1


def round_magnitude(magnitude: int, precision: int, mode: RoundingMode) -> tuple[int, int, int]:
    """Round a positive integer to its leading `precision` bits.

    Returns (mantissa, exponent_carry, ternary): `mantissa` has exactly
    `precision` bits, and `exponent_carry` is 1 when the increment carried
    out of the leading bit and the mantissa was renormalized to 0.100..0.
    A magnitude of at most `precision` bits is padded with zeros, exactly.
    """
    drop = magnitude.bit_length() - precision
    if drop <= 0:
        return magnitude << -drop, 0, 0
    mantissa = magnitude >> drop
    r = (magnitude >> (drop - 1)) & 1
    s = magnitude & ((1 << (drop - 1)) - 1)  # decide_round reads only its truth
    ternary = decide_round(mode, r, s, mantissa & 1)
    if ternary == 1:
        mantissa += 1
        if mantissa >> precision:
            return mantissa >> 1, 1, ternary
    return mantissa, 0, ternary


def round_to_prec(
    x: Float,
    precision: int,
    mode: RoundingMode,
    *,
    ctx: Context = DEFAULT_CONTEXT,
) -> tuple[Float, int] | Overflow:
    """Round a positive value to a (usually smaller) precision.

    Widening or equal precision pads with zeros, is always exact and keeps
    x's exponent without checking it against ctx.emax.
    """
    if x.sign < 0:
        raise ValueError("round_to_prec handles positive values only")
    check_precision(precision)
    check_mode(mode)
    # The storage bits past x.precision are zeros: round_magnitude drops or
    # pads them exactly, so the mantissa is passed as stored.
    mantissa, carry, ternary = round_magnitude(x.mantissa_int(), precision, mode)
    exponent = x.exponent + carry
    if precision < x.precision and exponent > ctx.emax:
        return Overflow(mode, x.sign, ternary)
    return float_from_mantissa(x.sign, exponent, precision, mantissa, x.limb_width), ternary
