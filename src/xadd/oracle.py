"""Reference addition path: exact integer sum, then one rounding step.

This module exists to check the limb engine by a second route to the sum:
both operands are expanded into a single unbounded integer each, added
exactly, and the sum is rounded by `round_magnitude`, which extracts the
rounding bit and a full OR over every lower bit.  Besides the value type
in `core`, the engine shares only that rounding, which it applies to its
window and error class; the tests' `Fraction` rounding checks
`round_magnitude` on its own.  Clarity wins over speed throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import DEFAULT_CONTEXT, Context, Float, check_precision, float_from_mantissa
from .engine import AddOutcome, ScanStats
from .rounding import Overflow, RoundingMode, check_mode, round_magnitude


@dataclass(frozen=True)
class ExactSum:
    """A positive value magnitude * 2**exponent2 with an odd magnitude.

    Keeping the magnitude odd makes the representation canonical, so two
    equal sums always compare equal field by field.
    """

    magnitude: int
    exponent2: int

    @property
    def exponent(self) -> int:
        """Normalized-form exponent e with value = 0.1... * 2**e."""
        return self.exponent2 + self.magnitude.bit_length()


def exact_add(x: Float, y: Float) -> ExactSum:
    """The exact sum of two positive values as one canonical integer."""
    if x.sign < 0 or y.sign < 0:
        raise ValueError("exact_add handles positive operands only")
    mx = x.mantissa_int()
    my = y.mantissa_int()
    ex = x.exponent - len(x.limb_bytes) * 8
    ey = y.exponent - len(y.limb_bytes) * 8
    low = min(ex, ey)
    total = (mx << (ex - low)) + (my << (ey - low))
    strip = (total & -total).bit_length() - 1
    return ExactSum(total >> strip, low + strip)


def exact_add_round(
    x: Float,
    y: Float,
    precision: int,
    mode: RoundingMode,
    *,
    ctx: Context = DEFAULT_CONTEXT,
) -> AddOutcome | Overflow:
    """Round x + y through the exact integer sum; bit-identical contract to
    the engine's add_positive, including the ternary value and the overflow
    report.  The outcome's scan statistics are zero: this path reads all
    input unconditionally and never scans."""
    if x.limb_width != y.limb_width:
        raise ValueError("operands must share a limb width")
    check_precision(precision)
    check_mode(mode)
    total = exact_add(x, y)
    mantissa, carry, ternary = round_magnitude(total.magnitude, precision, mode)
    exponent = total.exponent + carry
    if exponent > ctx.emax:
        return Overflow(mode, 1, ternary)
    result = float_from_mantissa(1, exponent, precision, mantissa, x.limb_width)
    return AddOutcome(result, ternary, ScanStats())
