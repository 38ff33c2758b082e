"""Exactly rounded addition of two positive floats with independent precisions.

The sum of x (larger exponent) and y is split into a main term and an error
term.  The main term is the exact sum of the first p+2 bits of x and the
overlapping bits of y: p mantissa bits, a temporary rounding bit rb of
weight 2**-(p+1) and a following bit fb of weight 2**-(p+2), all relative
to the result exponent.  The error term eps collects every remaining input
bit and satisfies 0 <= eps < 2u where u is fb's weight.

The final (rounding, sticky) pair then depends only on rb, fb and how eps
compares with 0 and u.  `classify_error` settles that in one pass over the
trailing bits, most significant first; with fb = 1, equal ones only settle
eps >= u and the pass goes on for a later 1.  It tests slices of limbs,
joined into one integer per operand, with one XNOR or OR; slices double from
four limbs, so it takes at most about twice the limbs that the walk to the
settling position covers, and it counts what it read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .core import DEFAULT_CONTEXT, Context, Float, float_from_mantissa, int_from_limbs
from .rounding import Overflow, RoundingMode, check_mode, decide_round


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


def classify_error(
    x: Float,
    y: Float,
    d: int,
    fb: int,
    start_pos: int,
    shifted_out: int | None = None,
) -> tuple[ErrorClass, ScanStats]:
    """Compare the error term against 0 and the following bit's weight u,
    and report what the comparison read.

    `start_pos` is the first x-frame bit position the main term did not
    consume (p + 3).  `shifted_out`, when given, is the sum bit displaced by
    the carry renormalization; its weight puts it one position before
    `start_pos` in the scan order, and it shifts reported positions into the
    result's mantissa frame (one below the x frame).  A displaced bit
    unequal to fb settles the class unread, and so does, with fb = 0, y
    lying wholly below the window.

    Otherwise the trailing bits from `start_pos` on settle it (missing bits
    read as 0).  With fb = 0 any 1 up to the longer operand's end makes the
    term positive.  With fb = 1 the digit sums x_i + y_(i-d) are all 1
    exactly while the comparison with u stays open; the first two equal bits
    settle it, zeros below u and ones at or above, and then any 1 after
    them puts it above.  Past the end of either mantissa no digit 2 can
    form, so the search for equal bits stops at the shorter operand's end.

    Each round joins a slice of x's limb blocks, and the y limbs reaching
    them, into one int per operand on x's grid and tests it with one XNOR or
    OR, going on with OR in the same slice after equal ones.  The stats
    charge what a walk one block at a time would consult up to the settling
    position.
    """
    stats = ScanStats()
    if shifted_out is not None:
        stats.trailing_bits_examined += 1
        if shifted_out != fb:
            # With fb = 0 a displaced 1 makes the term positive.  With fb = 1
            # a displaced 0 is a digit 0 ahead of every remaining input bit:
            # nothing below can close the gap up to u.
            if fb:
                stats.q_found_at = start_pos
            return ErrorClass.GT_ZERO_LT_U, stats
    elif fb == 0 and d >= start_pos - 1:
        # y lies wholly below the consumed window; its leading 1 makes
        # the error term positive without any of its bits being read.
        return ErrorClass.GT_ZERO_LT_U, stats
    # With fb = 0 every scanned position now lies inside at least one
    # operand: y overlaps the window, so no empty gap between them is crossed.
    m, y_end = x.precision, d + y.precision
    agree = fb == 1
    end = min(m, y_end) if agree else max(m, y_end)
    if start_pos > end:
        return (ErrorClass.GT_ZERO_LT_U if agree else ErrorClass.EQ_ZERO), stats
    w = x.limb_width
    xl, yl = x.limbs, y.limbs
    ls, bs = divmod(d, w)
    lead = ls + (bs > 0)  # block j takes y's limbs from j - lead on
    first = j = (start_pos - 1) // w
    stop = (end - 1) // w + 1
    pos, size = start_pos, _FIRST_SLICE
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
        while True:
            low = end if end < top else top
            bits = (~(xv ^ yv) if agree else xv | yv) >> (top - low) & ((1 << (low - pos + 1)) - 1)
            if not bits or not agree:
                break
            q = low + 1 - bits.bit_length()
            stats.q_found_at = q + (shifted_out is not None)  # into the result frame
            if not xv >> (top - q) & 1:
                break
            # Equal ones at q: test the rest of this slice for a 1; the next
            # slice takes _FIRST_SLICE blocks again (size doubles below).
            agree, pos, end, size = False, q + 1, max(m, y_end), _FIRST_SLICE // 2
            stop = (end - 1) // w + 1
        if bits or low == end:
            break
        pos, j, size = top + 1, hi, 2 * size

    # Slices only move forward and both stops grow with hi, so the last
    # slice's clamped stops are each operand's high-water mark.
    stats.limbs_touched = (hi if hi < len(xl) else len(xl)) + (yb if yb < len(yl) else len(yl))
    settled = low + 1 - bits.bit_length() if bits else end
    stats.trailing_bits_examined += settled - start_pos + 1
    # The walk reads x's limbs first..block and y's first-lead..block-ls,
    # each clipped to the stored range.
    block = (settled - 1) // w
    if first < len(xl):
        stats.x_limbs_read = block + 1 if block < len(xl) else len(xl)
    y_last = block - ls if block - ls < len(yl) else len(yl) - 1
    if y_last >= (first - lead if first > lead else 0):
        stats.y_limbs_read = y_last + 1
    if not fb:
        return (ErrorClass.GT_ZERO_LT_U if bits else ErrorClass.EQ_ZERO), stats
    if agree:  # equal zeros at q, or no agreeing pair at all
        return ErrorClass.GT_ZERO_LT_U, stats
    return (ErrorClass.GT_U if bits else ErrorClass.EQ_U), stats


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
    check_mode(mode)

    a, b = _ordered(x, y)
    d = a.exponent - b.exponent
    term = compute_main_term(a, b, precision, d)
    error_class, stats = classify_error(a, b, d, term.fb, precision + 3, term.shifted_out)
    r, s, carry = combine_rfe(term.rb, term.fb, error_class)

    mantissa, exponent = term.mantissa + carry, term.exponent
    ternary = decide_round(mode, r, s, mantissa & 1)
    if ternary == 1:
        mantissa += 1
    # A wrap past 0.11..1 leaves 2**p, whose last bit is 0 as at 2**(p-1).
    # The + 1 keeps an increment that followed a carry wrap (2**p + 1 becomes
    # 2**(p-1) + 1); a lone wrap still halves to 2**(p-1).
    if mantissa >> precision:
        mantissa = (mantissa + 1) >> 1
        exponent += 1
    if exponent > ctx.emax:
        return Overflow(mode, 1, ternary)

    stats.x_limbs_read = max(term.x_limbs_read, stats.x_limbs_read)
    stats.y_limbs_read = max(term.y_limbs_read, stats.y_limbs_read)
    stats.limbs_touched = max(term.x_limbs_read + term.y_limbs_read, stats.limbs_touched)
    result = float_from_mantissa(1, exponent, precision, mantissa, a.limb_width)
    return AddOutcome(result, ternary, stats)
