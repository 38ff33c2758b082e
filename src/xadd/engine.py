"""Exactly rounded addition of two positive floats with independent precisions.

The sum of x (larger exponent) and y is split into a main term and an error
term.  The main term is the exact sum of the first p+2 bits of x and the
overlapping bits of y: p mantissa bits, a temporary rounding bit rb of
weight 2**-(p+1) and a following bit fb of weight 2**-(p+2), all relative
to the result exponent.  The error term eps collects every remaining input
bit and satisfies 0 <= eps < 2u where u is fb's weight.

The rounding then depends only on the window and on how eps compares with
0 and u: `add_positive` appends that class to the window as one more digit
in units of u/2 and rounds the tail with `rounding.round_magnitude`, the
rounding of the integer path.  `_settle` reads each operand once, most
significant first, in slices of its limb buffer (``Float.limb_bytes``): a
first slice, the window's blocks plus four more, and then slices that
double.  Each slice is joined into one integer per operand by one
``int.from_bytes``, at any length and whatever its limbs hold; `_settle`
cuts the window sum from the first two integers and goes on from the same
two to settle eps.  A machine-size add's first slice holds each operand
whole, so its join takes the buffers themselves; most such adds settle
there, and their cost is mostly bookkeeping, which `add_positive` keeps
inline.  One loop tests slices with one XNOR or OR; with fb = 1, equal ones
only settle eps >= u and the test goes on for a later 1 in the same slice.
The doubling takes at most about twice the limbs that the walk to the
settling position covers, and `_settle` counts what it read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .core import DEFAULT_CONTEXT, DEFAULT_MAX_PRECISION, Context, Float, check_precision
from .core import float_from_mantissa
from .rounding import Overflow, RoundingMode, check_mode, round_magnitude


class ErrorClass(IntEnum):
    """Resolved relation of the error term to 0 and to the following bit's
    weight u; the value is the term in units of u/2, made odd when inexact.

    With fb = 0 only the comparison against 0 matters and GT_ZERO_LT_U means
    "nonzero" (the term may reach past u, never rb).  With fb = 1 only the
    comparison against u matters and GT_ZERO_LT_U means "below u" (possibly
    zero, as fb already makes the sum inexact).
    """

    EQ_ZERO = 0
    GT_ZERO_LT_U = 1
    EQ_U = 2
    GT_U = 3


# The members as globals: `_settle` reads them faster than as class attributes.
EQ_ZERO, GT_ZERO_LT_U, EQ_U, GT_U = ErrorClass


@dataclass(slots=True)
class ScanStats:
    """How much input the engine consulted.

    The limb counters are prefix counts over each operand's limb array
    (limbs 0 .. count-1 were consulted, anything at or beyond the count was
    never read).  `trailing_bits_examined` counts the trailing positions the
    error scan had to look at before the classification was settled;
    `q_found_at` is the position (1-based in the result's mantissa frame)
    where the fb = 1 scan found the first pair of equal bits, when it did.
    `limbs_touched` counts the limbs actually taken from storage, the
    highest index sliced from each operand plus one, summed.  The first
    slice spans the window and four blocks past it, and later slices double,
    so per operand it runs ahead of the read count by at most the blocks
    scanned plus a few, even when the window alone settles the class.  An
    operand that ends inside the first slice counts its whole limb array.
    """

    x_limbs_read: int = 0
    y_limbs_read: int = 0
    trailing_bits_examined: int = 0
    q_found_at: int | None = None
    limbs_touched: int = 0


@dataclass(slots=True)
class AddOutcome:
    """A rounded sum, its ternary value and what the engine read for it."""

    result: Float
    ternary: int
    stats: ScanStats


# Limb blocks past the window's last whole block in a pass's first slice;
# each further slice doubles, so a pass slices at most about twice the blocks
# the limb-at-a-time walk visits.
_FIRST_SLICE = 4


# Looked up once: every slice of every add joins through it.
_from_bytes = int.from_bytes


def _join(xs: bytes, ys: bytes, yd: int, top: int) -> tuple[int, int]:
    """A run of x's limb bytes and a run of y's, each joined into one int on
    x's grid.  Positions count from the start of x's run: y's run starts at
    yd, and the bit at position top gets weight 1, so y's bits past it drop."""
    shift = top - yd - len(ys) * 8
    xv, yv = _from_bytes(xs, "big") << (top - len(xs) * 8), _from_bytes(ys, "big")
    return xv, yv << shift if shift >= 0 else yv >> -shift


def _settle(
    x: Float, y: Float, precision: int, d: int
) -> tuple[int, int, int | None, ErrorClass, ScanStats]:
    """Read x and y once, most significant first: cut the window sum, then
    compare the error term against 0 and the following bit's weight u.

    x has the larger exponent and d >= 0 is the exponent difference.
    Returns (window, exponent, shifted_out, error_class, stats): the window
    sum as a (p + 2)-bit int, whose last two bits are rb and fb, its
    exponent, and the sum bit a window carry displaced (else None).  That
    bit belongs to the error term one position before p + 3, the first
    position the window did not consume, and moves reported positions into
    the result's mantissa frame, one below x's.

    A displaced bit unequal to fb settles the class unread, and so does,
    with fb = 0, y lying wholly below the window, or, with fb = 1, y
    starting past x's last bit, where no digit sum reaches 2.  Otherwise
    the bits from p + 3 on settle it (missing bits read as 0).  With fb = 0
    any 1 up to the longer operand's end makes the term positive.  With
    fb = 1 the digit sums x_i + y_(i-d) are all 1 exactly while the
    comparison with u stays open; the first two equal bits settle it, zeros
    below u and ones at or above, and then any 1 after them puts it above.
    Past the end of either mantissa no digit 2 can form, so the search for
    equal bits stops at the shorter operand's end.

    The first slice spans the window's blocks and _FIRST_SLICE more, and
    each later slice starts at the next block and at the y limb holding its
    first position; `_join` joins what each slice takes from x and y.  One
    loop tests each slice with one XNOR or OR, and after equal ones goes on
    with OR in the same slice.  The stats charge what a walk one block at a
    time would consult up to the settling position, the window's limbs at
    least.
    """
    w = x.limb_width
    b = w >> 3  # bytes per limb
    xl, yl = x.limb_bytes, y.limb_bytes
    m, n = x.precision, y.precision
    window = precision + 2
    ls = d // w
    hi = window // w + _FIRST_SLICE
    top = hi * w
    yb = hi - ls if hi > ls else 0  # y's limbs up to the slice's end
    xv, yv = _join(xl[: hi * b], yl[: yb * b], d, top)
    total = (xv >> (top - window)) + (yv >> (top - window))
    exponent = x.exponent
    shifted_out = None
    if total >> window:
        shifted_out = total & 1
        total >>= 1
        exponent += 1
    fb = total & 1

    # The window reads x's blocks up to its last one and, when y overlaps
    # it, y's limbs reaching them.  A scan moves `block` on, never back, and
    # an overlapping y reaches every block it scans.
    block = (window - 1) // w
    y_seen = d < window
    examined, q_found, cls = 0, None, None
    if shifted_out is not None:
        examined = 1
        if shifted_out != fb:
            # With fb = 0 a displaced 1 makes the term positive.  With fb = 1
            # a displaced 0 is a digit 0 ahead of every remaining input bit:
            # nothing below can close the gap up to u.
            cls = GT_ZERO_LT_U
            if fb:
                q_found = window + 1
    elif fb == 0 and d >= window:
        # y lies wholly below the window; its leading 1 makes the error term
        # positive without any of its bits being read.
        cls = GT_ZERO_LT_U
    elif fb and d >= m:
        # y starts past x's last bit, so every digit sum is at most 1: no
        # two equal ones can lift the error term to u, and none is read.
        cls = GT_ZERO_LT_U
    if cls is None:
        # With fb = 0 every scanned position now lies inside at least one
        # operand: y overlaps the window, so no empty gap between them is
        # crossed.
        y_end = d + n
        agree = fb == 1
        if agree:
            end = m if m < y_end else y_end
        else:
            end = m if m > y_end else y_end
        pos, bits = window + 1, 0
        if pos <= end:
            size = _FIRST_SLICE
            while True:
                low = end if end < top else top
                mask = (1 << (low - pos + 1)) - 1
                bits = (~(xv ^ yv) if agree else xv | yv) >> (top - low) & mask
                if bits and agree:
                    q = low + 1 - bits.bit_length()
                    q_found = q + (shifted_out is not None)  # into the result frame
                    if xv >> (top - q) & 1:
                        # Equal ones at q: test the rest of this slice for a 1;
                        # the next slice takes _FIRST_SLICE blocks again (size
                        # doubles below).
                        agree, pos, size = False, q + 1, _FIRST_SLICE // 2
                        end = m if m > y_end else y_end
                        continue
                if bits or low == end:
                    break
                pos, j, size = top + 1, hi, 2 * size
                stop = (end - 1) // w + 1
                hi = j + size if j + size < stop else stop
                top = hi * w
                yb = hi - ls if hi > ls else 0
                ya = (pos - 1 - d) // w  # the y limb holding position pos, or y's first
                ya = ya if ya > 0 else 0
                xv, yv = _join(xl[j * b : hi * b], yl[ya * b : yb * b], d + (ya - j) * w, top - j * w)
            settled = low + 1 - bits.bit_length() if bits else end
            examined += settled - window
            block = (settled - 1) // w
            y_seen = block >= ls
        if not fb:
            cls = GT_ZERO_LT_U if bits else EQ_ZERO
        elif agree:  # equal zeros at q, or no agreeing pair at all
            cls = GT_ZERO_LT_U
        else:
            cls = GT_U if bits else EQ_U

    # Slices only move forward, so the last one's clamped ends are each
    # operand's high-water mark.
    nx, ny = len(xl) // b, len(yl) // b
    return total, exponent, shifted_out, cls, ScanStats(
        block + 1 if block < nx else nx,
        (block - ls + 1 if block - ls < ny else ny) if y_seen else 0,
        examined,
        q_found,
        (hi if hi < nx else nx) + (yb if yb < ny else ny),
    )


def add_positive(
    x: Float,
    y: Float,
    precision: int,
    mode: RoundingMode,
    *,
    ctx: Context = DEFAULT_CONTEXT,
) -> AddOutcome | Overflow:
    """Round x + y to `precision` bits, exactly as if the sum were computed
    with unbounded precision first, and report the ternary value.

    Both operands must be positive and share a limb width.  Returns an
    Overflow record instead of an outcome when the rounded result's exponent
    would exceed ctx.emax.

    An int precision in range and a RoundingMode pass plain `type` and range
    tests; `check_precision` and `check_mode` run only on what those refuse,
    so each refusal keeps its exception and message.
    """
    if x.sign < 0 or y.sign < 0:
        raise ValueError("add_positive handles positive operands only")
    if x.limb_width != y.limb_width:
        raise ValueError("operands must share a limb width")
    if not (type(precision) is int and 2 <= precision <= DEFAULT_MAX_PRECISION):
        check_precision(precision)
    if type(mode) is not RoundingMode:
        check_mode(mode)

    # x takes the larger (exponent, precision).  Symmetric in the operands,
    # so that addition commutes exactly, statistics included: operands tied
    # on both have the same limb count and are read at the same limb indices.
    d = x.exponent - y.exponent
    if d < 0 or d == 0 and x.precision < y.precision:
        x, y, d = y, x, -d
    window, exponent, _, error_class, stats = _settle(x, y, precision, d)
    # tail >> 2 is the exact sum's floor in units of 2u (rb's weight) and
    # tail & 3 is nonzero iff anything lies below it: round_magnitude drops at
    # least three digits and reads nothing else.  An error term of u or more
    # can carry the all-ones window up a digit.
    tail = (window << 1) + error_class
    mantissa, carry, ternary = round_magnitude(tail, precision, mode)
    exponent += carry + (tail >> (precision + 3))
    if exponent > ctx.emax:
        return Overflow(mode, 1, ternary)

    result = float_from_mantissa(1, exponent, precision, mantissa, x.limb_width)
    return AddOutcome(result, ternary, stats)
