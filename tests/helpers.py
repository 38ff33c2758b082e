"""Shared test utilities: an exact rational reference for rounding.

`frac_round` rounds a positive rational to p bits straight from the mode
definitions (floor, ceiling, nearest-ties-to-even), without touching the
package's rounding-bit/sticky-bit tables.  Tests use it as a third path:
the engine and the big-integer oracle must both agree with it.
"""

from __future__ import annotations

from fractions import Fraction

from xadd import Float, RoundingMode, make_float_from_int


def ordered(x: Float, y: Float) -> tuple[Float, Float]:
    """x and y with the larger (exponent, precision) first, the order in
    which `add_positive` hands them to `_settle`."""
    if (x.exponent, x.precision) >= (y.exponent, y.precision):
        return x, y
    return y, x


def float_value(x: Float) -> Fraction:
    """The exact rational value of x."""
    return x.sign * x.mantissa_int() * pow2(x.exponent - len(x.limbs) * x.limb_width)


def pow2(e: int) -> Fraction:
    return Fraction(2) ** e


def frac_round(value: Fraction, precision: int, mode: RoundingMode) -> tuple[int, int, int]:
    """Round an exact positive rational to `precision` bits.

    Returns (mantissa_int, exponent, ternary) with the mantissa as an
    integer of exactly `precision` bits, so value ~ mantissa * 2**(e-p).
    """
    assert value > 0
    e = value.numerator.bit_length() - value.denominator.bit_length()
    if pow2(e) <= value:
        e += 1
    assert pow2(e - 1) <= value < pow2(e)

    scaled = value * pow2(precision - e)  # in [2**(p-1), 2**p)
    floor_m = scaled.numerator // scaled.denominator
    remainder = scaled - floor_m
    if remainder == 0:
        mantissa = floor_m
    elif mode in (RoundingMode.DOWN, RoundingMode.TOWARD_ZERO):
        mantissa = floor_m
    elif mode is RoundingMode.UP:
        mantissa = floor_m + 1
    else:
        half = Fraction(1, 2)
        if remainder > half or (remainder == half and floor_m & 1):
            mantissa = floor_m + 1
        else:
            mantissa = floor_m
    if mantissa == 1 << precision:
        mantissa >>= 1
        e += 1
    rounded = mantissa * pow2(e - precision)
    ternary = (rounded > value) - (rounded < value)
    return mantissa, e, ternary


def frac_to_float(mantissa: int, exponent: int, precision: int, **kwargs) -> Float:
    return make_float_from_int(1, exponent, precision, mantissa, **kwargs)
