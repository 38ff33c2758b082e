"""Exactly rounded addition of two positive floats with independent precisions.

The sum of x (larger exponent) and y is split into a main term and an error
term.  The main term is the exact sum of the first p+2 bits of x and the
overlapping bits of y: p mantissa bits, a temporary rounding bit rb of
weight 2**-(p+1) and a following bit fb of weight 2**-(p+2), all relative
to the result exponent.  The error term eps collects every remaining input
bit and satisfies 0 <= eps < 2u where u is fb's weight.

The final (rounding, sticky) pair then depends only on rb, fb and how eps
compares with 0 and u, and that comparison is decided by scanning trailing
bits from the most significant end, stopping at the first position that
settles it.  The scan joins slices of limbs into one integer per operand,
shifts y's onto x's limb grid and tests a whole slice with one OR or XNOR;
slices double in length from four limbs, so it takes at most about twice
the limbs that the walk to the settling position covers.  Statistics about how much was read are reported
with the outcome so callers can audit the short-circuit behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .core import DEFAULT_CONTEXT, Context, Float, float_from_mantissa, get_bit, int_from_limbs
from .rounding import Overflow, RoundingMode, decide_round


class InvalidCombination(Exception):
    """An (rb, fb, error class) triple that no input can produce; engine bug."""


class ErrorClass(Enum):
    """Resolved relation of the error term to 0 and to the following bit's weight u.

    With fb = 0 only the comparison against 0 matters and GT_ZERO_LT_U means
    "nonzero" (the term may reach past u).  With fb = 1 only the comparison
    against u matters and GT_ZERO_LT_U means "below u" (possibly zero).
    """

    EQ_ZERO = "eq0"
    GT_ZERO_LT_U = "gt0"
    EQ_U = "eq_u"
    GT_U = "gt_u"


@dataclass
class ScanStats:
    """How much input the engine consulted.

    The limb counters are prefix counts over each operand's limb array
    (limbs 0 .. count-1 were consulted, anything at or beyond the count was
    never read).  `trailing_bits_examined` counts the trailing positions the
    error scan had to look at before the classification was settled;
    `q_found_at` is the position (1-based in the result's mantissa frame)
    where the fb = 1 scan found the first pair of equal bits, when it did.
    `limbs_touched` counts the limbs actually taken from storage, the
    highest index sliced from each operand plus one, summed: the scan takes
    whole slices, so per operand it runs ahead of the read count by at most
    the blocks it scanned plus a few.
    """

    x_limbs_read: int = 0
    y_limbs_read: int = 0
    trailing_bits_examined: int = 0
    q_found_at: int | None = None
    limbs_touched: int = 0


class MainTerm(NamedTuple):
    """The truncated top window of the sum.

    `mantissa` holds the first p result bits as a p-bit int, `rb` and `fb`
    the two bits that follow.  When the window addition carried,
    the window was shifted right by one, `exponent` is one above x's, and
    `shifted_out` records the displaced sum bit, which now belongs to the
    error term one position above the first untested input position.
    """

    mantissa: int
    exponent: int
    rb: int
    fb: int
    carried: bool
    shifted_out: int | None
    x_limbs_read: int
    y_limbs_read: int


@dataclass(frozen=True)
class AddOutcome:
    result: Float
    ternary: int
    stats: ScanStats


def compute_main_term(x: Float, y: Float, precision: int, d: int) -> MainTerm:
    """Exact sum of the first p+2 bits of x and the overlapping bits of y.

    x must be the operand with the larger exponent and d >= 0 the exponent
    difference.  Only the limbs that hold window bits are read: those of x
    covering positions 1..p+2, and those of y reaching them after the shift
    by d.  A carry out of the leading bit bumps the exponent and shifts the
    window right, displacing its lowest bit into the error term.
    """
    w = x.limb_width
    window = precision + 2
    nlimbs = -(-window // w)
    xs = x.limbs[:nlimbs]
    ys = y.limbs[: nlimbs - d // w] if d < window else ()

    # Each slice as an integer, scaled so that its bit at window position
    # `window` has weight 1; bits past the window fall off the right end.
    total = 0
    for limbs, shift in ((xs, window - len(xs) * w), (ys, window - d - len(ys) * w)):
        value = int_from_limbs(limbs, w)
        total += value << shift if shift >= 0 else value >> -shift

    exponent = x.exponent
    carried = total >> window != 0
    shifted_out = None
    if carried:
        shifted_out = total & 1
        total >>= 1
        exponent += 1
    return MainTerm(
        total >> 2, exponent, (total >> 1) & 1, total & 1, carried, shifted_out, len(xs), len(ys)
    )


# Limb blocks in a scan's first slice; each further slice doubles, so a scan
# slices at most about twice the blocks the limb-at-a-time walk visits.
_FIRST_SLICE = 4


def _scan(
    x: Float, y: Float, d: int, pos: int, end: int, agree: bool, stats: ScanStats
) -> int | None:
    """First x-frame position in [pos, end] where x or aligned y holds a 1,
    or with `agree` where their bits are equal (missing bits read as 0);
    None when there is none.

    Each round joins a slice of x's limb blocks, and the y limbs that reach
    them, into one int per operand, shifts y's onto x's grid and tests the
    whole slice with one OR or XNOR.  `stats` is charged exactly what a walk
    one block at a time would consult up to the answer: the positions from
    `pos` on, and the limbs of every block up to the one that settles it.
    """
    if pos > end:
        return None
    w = x.limb_width
    xl, yl = x.limbs, y.limbs
    ls, bs = divmod(d, w)
    lead = ls + (bs > 0)  # block j takes y's limbs from j - lead on
    first = j = (pos - 1) // w
    stop = (end - 1) // w + 1
    start, size, hit = pos, _FIRST_SLICE, None
    while True:
        hi = j + size if j + size < stop else stop
        top = hi * w  # slice ints hold the bit at position top at weight 1
        xs = xl[j:hi]
        ya = j - lead if j > lead else 0
        yb = hi - ls if hi > ls else 0
        ys = yl[ya:yb]
        xv = int_from_limbs(xs, w) << (top - (j + len(xs)) * w)
        yv = int_from_limbs(ys, w)
        shift = top - d - (ya + len(ys)) * w
        yv = yv << shift if shift >= 0 else yv >> -shift
        low = end if end < top else top
        bits = (~(xv ^ yv) if agree else xv | yv) >> (top - low) & ((1 << (low - pos + 1)) - 1)
        if bits:
            hit = low + 1 - bits.bit_length()
            break
        if low == end:
            break
        pos, j, size = top + 1, hi, 2 * size

    # Each operand's slices run on from where the window or the previous
    # slice stopped, so a clamped stop is a high-water mark even when its
    # slice is empty; both stops grow with hi, so the largest sum taken is
    # the sum of the two operands' high-water marks.
    touched = (hi if hi < len(xl) else len(xl)) + (yb if yb < len(yl) else len(yl))
    if touched > stats.limbs_touched:
        stats.limbs_touched = touched
    settled = end if hit is None else hit
    stats.trailing_bits_examined += settled - start + 1
    # The walk reads x's limbs first..block and y's first-lead..block-ls,
    # each clipped to the stored range.
    block = (settled - 1) // w
    if first < len(xl) and block >= stats.x_limbs_read:
        stats.x_limbs_read = block + 1 if block < len(xl) else len(xl)
    y_last = block - ls if block - ls < len(yl) else len(yl) - 1
    if y_last >= max(0, first - lead, stats.y_limbs_read):
        stats.y_limbs_read = y_last + 1
    return hit


def classify_error(
    x: Float,
    y: Float,
    d: int,
    fb: int,
    start_pos: int,
    shifted_out: int | None = None,
) -> tuple[ErrorClass, ScanStats]:
    """Compare the error term against 0 and the following bit's weight u.

    `start_pos` is the first x-frame bit position the main term did not
    consume (p + 3).  `shifted_out`, when given, is the sum bit displaced by
    the carry renormalization; its weight puts it one position before
    `start_pos` in the scan order, and it shifts reported positions into the
    result's mantissa frame (one below the x frame).

    With fb = 0 the scan looks for any trailing 1; with fb = 1 it walks the
    per-position digit sums x_i + y_(i-d), which are all 1 exactly while the
    comparison with u stays open, and is settled by the first position where
    the two bits agree: equal zeros put the term below u, equal ones at or
    above it, with equality iff nothing but zeros follows.  Past the end of
    either mantissa no digit 2 can form, so the scan never outlives the
    shorter operand.
    """
    m = x.precision
    y_end = d + y.precision
    stats = ScanStats()

    if fb == 0:
        if shifted_out is not None:
            stats.trailing_bits_examined += 1
            if shifted_out:
                return ErrorClass.GT_ZERO_LT_U, stats
        elif d >= start_pos - 1:
            # y lies wholly below the consumed window; its leading 1 makes
            # the error term positive without any of its bits being read.
            return ErrorClass.GT_ZERO_LT_U, stats
        # Every scanned position now lies inside at least one operand: y
        # overlaps the window, so no empty gap between them is crossed.
        hit = _scan(x, y, d, start_pos, max(m, y_end), False, stats)
        return (ErrorClass.EQ_ZERO if hit is None else ErrorClass.GT_ZERO_LT_U), stats

    if shifted_out is not None:
        stats.trailing_bits_examined += 1
        if shifted_out == 0:
            # A digit 0 ahead of every remaining input bit: nothing below
            # can close the gap up to u.
            stats.q_found_at = start_pos
            return ErrorClass.GT_ZERO_LT_U, stats
    q = _scan(x, y, d, start_pos, min(m, y_end), True, stats)
    if q is None:
        return ErrorClass.GT_ZERO_LT_U, stats
    stats.q_found_at = q + (shifted_out is not None)  # into the result frame
    if not get_bit(x, q):
        return ErrorClass.GT_ZERO_LT_U, stats
    trailing_one = _scan(x, y, d, q + 1, max(m, y_end), False, stats)
    return (ErrorClass.EQ_U if trailing_one is None else ErrorClass.GT_U), stats


# Rows: (rb, fb, error class) -> (r, s, carry into the p-bit mantissa).
# With fb = 1 an error term at or above u closes the gap to the next
# multiple of rb's weight, so rb flips; when rb was already 1 the carry
# moves on into the mantissa itself.
_COMBINE = {
    (0, 0, ErrorClass.EQ_ZERO): (0, 0, False),
    (0, 0, ErrorClass.GT_ZERO_LT_U): (0, 1, False),
    (0, 1, ErrorClass.GT_ZERO_LT_U): (0, 1, False),
    (0, 1, ErrorClass.EQ_U): (1, 0, False),
    (0, 1, ErrorClass.GT_U): (1, 1, False),
    (1, 0, ErrorClass.EQ_ZERO): (1, 0, False),
    (1, 0, ErrorClass.GT_ZERO_LT_U): (1, 1, False),
    (1, 1, ErrorClass.GT_ZERO_LT_U): (1, 1, False),
    (1, 1, ErrorClass.EQ_U): (0, 0, True),
    (1, 1, ErrorClass.GT_U): (0, 1, True),
}


def combine_rfe(rb: int, fb: int, error_class: ErrorClass) -> tuple[int, int, bool]:
    """Fold the following bit and the error class into the final (r, s, carry).

    `carry` asks the caller to add one ulp to the truncated mantissa before
    rounding; the (r, s) pair stays valid afterwards even if that carry
    renormalizes the mantissa, because the leftover error is far below the
    new ulp.
    """
    try:
        return _COMBINE[(rb, fb, error_class)]
    except KeyError:
        raise InvalidCombination(
            f"no input can produce rb={rb}, fb={fb}, {error_class}"
        ) from None


def _ordered(x: Float, y: Float) -> tuple[Float, Float]:
    # Symmetric in its arguments so that addition commutes exactly,
    # statistics included: operands tied on exponent and precision have the
    # same limb count and are read at the same limb indices.
    if (x.exponent, x.precision) >= (y.exponent, y.precision):
        return x, y
    return y, x


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
    """
    if x.sign < 0 or y.sign < 0:
        raise ValueError("add_positive handles positive operands only")
    if x.limb_width != y.limb_width:
        raise ValueError("operands must share a limb width")
    ctx.check_precision(precision)

    a, b = _ordered(x, y)
    d = a.exponent - b.exponent
    term = compute_main_term(a, b, precision, d)
    error_class, stats = classify_error(a, b, d, term.fb, precision + 3, term.shifted_out)
    r, s, carry = combine_rfe(term.rb, term.fb, error_class)

    mantissa, exponent = term.mantissa + carry, term.exponent
    if mantissa >> precision:  # 0.11..1 + ulp wrapped around
        mantissa >>= 1
        exponent += 1
    ternary = decide_round(mode, r, s, mantissa & 1)
    if ternary == 1:
        mantissa += 1
        if mantissa >> precision:
            mantissa >>= 1
            exponent += 1
    if exponent > ctx.emax:
        return Overflow(mode, 1, ternary)

    stats.x_limbs_read = max(term.x_limbs_read, stats.x_limbs_read)
    stats.y_limbs_read = max(term.y_limbs_read, stats.y_limbs_read)
    stats.limbs_touched = max(term.x_limbs_read + term.y_limbs_read, stats.limbs_touched)
    result = float_from_mantissa(1, exponent, precision, mantissa, a.limb_width)
    return AddOutcome(result, ternary, stats)
