"""Engine internals: main-term window, error-term scan, the rounding tail.

Expected values in this file were computed ahead of time by direct window
arithmetic and exact rational evaluation; the checks in
`test_window_matches_direct_recomputation` re-derive them from scratch for
random inputs.
"""

import random
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xadd.engine
from xadd import Context, RoundingMode, add_positive, exact_add_round, make_float, make_float_from_int
from xadd.engine import _FIRST_SLICE, ErrorClass, ScanStats, _join, _settle

from .helpers import ordered, pow2


def align_for(x, y):
    return x.exponent - y.exponent


# `_settle`'s result with the window split into its p-bit mantissa, rb and fb.
Settled = namedtuple("Settled", "mantissa exponent rb fb shifted_out cls stats")


def settled(x, y, p, d):
    window, exponent, shifted_out, cls, stats = _settle(x, y, p, d)
    return Settled(window >> 2, exponent, window >> 1 & 1, window & 1, shifted_out, cls, stats)


def settle(x, y, p):
    return settled(x, y, p, align_for(x, y))


def reads(x, y, p):
    s = add_positive(x, y, p, RoundingMode.NEAREST_EVEN).stats
    return s.x_limbs_read, s.y_limbs_read


# --- the window -----------------------------------------------------------


def test_window_carry_displaces_low_bit():
    # 0.1010 + 0.1001 = 1.0011: the window carries, the exponent moves up,
    # and the displaced window bit joins the error term.
    x = make_float(1, 0, 4, "1010")
    y = make_float(1, 0, 4, "1001")
    t = settle(x, y, 2)
    assert format(t.mantissa, "02b") == "10"
    assert (t.rb, t.fb) == (0, 1)
    assert t.shifted_out == 1
    assert t.exponent == 1


def test_window_with_y_fully_below():
    x = make_float(1, 0, 2, "11")
    y = make_float(1, -10, 2, "11")
    t = settle(x, y, 2)
    assert format(t.mantissa, "02b") == "11"
    assert (t.rb, t.fb) == (0, 0)
    assert t.shifted_out is None
    assert t.exponent == 0
    assert reads(x, y, 2)[1] == 0


def test_window_carry_with_exact_tail():
    x = make_float(1, 0, 4, "1111")
    t = settle(x, x, 4)
    assert format(t.mantissa, "04b") == "1111"
    assert (t.rb, t.fb) == (0, 0)
    assert t.shifted_out == 0
    assert t.exponent == 1


def test_window_spanning_limbs():
    # p + 2 crosses the first limb boundary; y's leading bit lands on the
    # window's last position, split-shifted across the limb seam.
    x = make_float(1, 0, 70, "1" + "0" * 68 + "1")
    y = make_float(1, -65, 2, "11")
    t = settle(x, y, 64)
    assert (t.rb, t.fb) == (0, 1)
    assert format(t.mantissa, "064b") == "1" + "0" * 63
    assert reads(x, y, 64) == (2, 1)


# --- the error class ------------------------------------------------------


def test_error_zero_when_no_trailing_bits():
    x = make_float(1, 0, 2, "10")
    y = make_float(1, -1, 2, "10")
    t = settle(x, y, 2)
    assert (t.rb, t.fb) == (0, 0)
    cls, stats = t.cls, t.stats
    assert cls is ErrorClass.EQ_ZERO
    assert stats.trailing_bits_examined == 0


def test_error_positive_without_reading_y():
    # y lies wholly below the window: its leading 1 settles the question.
    x = make_float(1, 0, 2, "11")
    y = make_float(1, -10, 2, "11")
    t = settle(x, y, 2)
    cls, stats = t.cls, t.stats
    assert cls is ErrorClass.GT_ZERO_LT_U
    assert stats.y_limbs_read == 0
    assert stats.trailing_bits_examined == 0


def test_pair_scan_stops_at_equal_zeros():
    # Trailing digit sums 1, 1, 0: the first agreeing pair is two zeros, so
    # the error term stays below u.
    x = make_float(1, 0, 7, "1000100")
    y = make_float(1, -3, 4, "1010")
    t = settle(x, y, 2)
    assert (t.rb, t.fb) == (0, 1) and t.shifted_out is None
    cls, stats = t.cls, t.stats
    assert cls is ErrorClass.GT_ZERO_LT_U
    assert stats.q_found_at == 7
    assert stats.trailing_bits_examined == 3


def test_pair_scan_equal_ones_with_empty_tail_is_exactly_u():
    x = make_float(1, 0, 5, "10001")
    y = make_float(1, -3, 2, "11")
    t = settle(x, y, 2)
    assert (t.rb, t.fb) == (0, 1) and t.shifted_out is None
    cls, stats = t.cls, t.stats
    assert cls is ErrorClass.EQ_U
    assert stats.q_found_at == 5
    assert stats.trailing_bits_examined == 1


def test_pair_scan_exhaustion_means_below_u():
    # No agreeing pair before the shorter mantissa runs out: no carry can
    # form from one mantissa alone.
    x = make_float(1, 0, 12, "101111100101")
    y = make_float(1, -7, 5, "11010")
    t = settle(x, y, 2)
    assert (t.rb, t.fb) == (1, 1)
    cls, stats = t.cls, t.stats
    assert cls is ErrorClass.GT_ZERO_LT_U
    assert stats.q_found_at is None
    assert stats.trailing_bits_examined == 8


def test_displaced_one_keeps_the_scan_going():
    # Carry case: the displaced bit is 1, the next pair agrees on ones and
    # nothing follows, so the error equals u exactly.
    x = make_float(1, 0, 5, "10111")
    y = make_float(1, 0, 5, "10001")
    t = settle(x, y, 2)
    assert t.shifted_out == 1 and (t.rb, t.fb) == (0, 1)
    cls, stats = t.cls, t.stats
    assert cls is ErrorClass.EQ_U
    assert stats.q_found_at == 6  # reported in the shifted result frame
    assert stats.trailing_bits_examined == 2


def test_displaced_zero_settles_below_u():
    x = make_float(1, 0, 5, "10011")
    t = settle(x, x, 2)
    assert t.shifted_out == 0 and (t.rb, t.fb) == (0, 1)
    cls, stats = t.cls, t.stats
    assert cls is ErrorClass.GT_ZERO_LT_U
    assert stats.q_found_at == 5
    assert stats.trailing_bits_examined == 1


# --- window + classification against direct recomputation ----------------


def reference_window(xbits: str, ybits: str, d: int, p: int):
    """The window sum, bit extraction and error classification computed the
    obvious slow way on bit strings and exact rationals."""
    win = p + 2
    xw = int(xbits[:win].ljust(win, "0"), 2)
    yw = 0
    for k, bit in enumerate(ybits, start=1):
        if bit == "1" and 1 <= d + k <= win:
            yw |= 1 << (win - d - k)
    t_full = xw + yw
    carried = t_full >> win != 0
    shifted_out = t_full & 1 if carried else None
    exponent = int(carried)
    if carried:
        t_full >>= 1
    wbits = format(t_full, f"0{win}b")
    x_val = Fraction(int(xbits, 2), 1 << len(xbits))
    y_val = Fraction(int(ybits, 2), 1 << len(ybits)) * pow2(-d)
    eps = x_val + y_val - Fraction(t_full, 1 << win) * pow2(exponent)
    u = pow2(exponent - win)
    assert 0 <= eps < 2 * u
    if wbits[p + 1] == "0":
        cls = ErrorClass.EQ_ZERO if eps == 0 else ErrorClass.GT_ZERO_LT_U
    elif eps < u:
        cls = ErrorClass.GT_ZERO_LT_U
    else:
        cls = ErrorClass.EQ_U if eps == u else ErrorClass.GT_U
    return wbits[:p], int(wbits[p]), int(wbits[p + 1]), carried, shifted_out, exponent, cls


def test_window_two_whole_limbs_plus_two_bits_below():
    # d = 130 at w = 64 splits into two whole limbs and two bits: y's first
    # window limb straddles x's limb seam, and only y's leading limb reaches
    # the p + 2 = 192-bit window.
    xbits = "1" + "01" * 99 + "1"
    ybits = "11" + "0" * 60 + "1" * 38
    x = make_float(1, 0, len(xbits), xbits)
    y = make_float(1, -130, len(ybits), ybits)
    t = settled(x, y, 190, 130)
    mant, rb, fb, carried, shifted_out, exponent, cls = reference_window(xbits, ybits, 130, 190)
    assert format(t.mantissa, "0190b") == mant
    assert (t.rb, t.fb, t.shifted_out is not None, t.shifted_out, t.exponent) == (
        rb,
        fb,
        carried,
        shifted_out,
        exponent,
    )
    assert t.cls is cls
    # The window reads x's limbs 0..2 and y's leading limb; the error class
    # settles at position 193, the first bit of x's fourth limb, which y's
    # second limb reaches too.
    assert t.stats.trailing_bits_examined == 1
    assert reads(x, y, 190) == (4, 2)


@settings(max_examples=400)
@given(
    m=st.integers(2, 150),
    n=st.integers(2, 150),
    d=st.integers(0, 160),
    p=st.integers(2, 80),
    data=st.data(),
)
def test_window_matches_direct_recomputation(m, n, d, p, data):
    mx = data.draw(st.integers(1 << (m - 1), (1 << m) - 1))
    my = data.draw(st.integers(1 << (n - 1), (1 << n) - 1))
    xbits, ybits = format(mx, f"0{m}b"), format(my, f"0{n}b")
    x = make_float(1, 0, m, xbits)
    y = make_float(1, -d, n, ybits)
    align = align_for(x, y)
    t = settled(x, y, p, align)
    mant, rb, fb, carried, shifted_out, exponent, cls = reference_window(xbits, ybits, d, p)
    assert format(t.mantissa, f"0{p}b") == mant
    assert (t.rb, t.fb, t.shifted_out is not None, t.shifted_out, t.exponent) == (
        rb,
        fb,
        carried,
        shifted_out,
        exponent,
    )
    assert t.cls is cls
    assert t.stats.trailing_bits_examined <= m + n


# --- the one join --------------------------------------------------------


@pytest.fixture
def joins(monkeypatch):
    """Each `_join` call that `_settle` makes, one per slice, as (xs, ys,
    top, xv, yv, yd)."""
    calls = []

    def recording(xs, ys, yd, top):
        xv, yv = _join(xs, ys, yd, top)
        calls.append((xs, ys, top, xv, yv, yd))
        return xv, yv

    monkeypatch.setattr(xadd.engine, "_join", recording)
    return calls


def _on_grid(mantissa: int, width: int, start: int, end: int) -> int:
    """A `width`-bit mantissa int whose first bit sits at x-frame position
    start + 1, shifted so that position `end` has weight 1."""
    shift = end - start - width
    return mantissa << shift if shift >= 0 else mantissa >> -shift


def _assert_joins_hold_the_mantissas(x, y, p, d, calls) -> int:
    """Settle x + y over recording buffers and check every slice `_settle`
    took: x's runs follow one another from its first limb, and y's run
    starts at the limb holding the slice's first position, or later, and
    its last limb starts inside the slice.  `_join` joins each slice: on
    each position of the slice x's int holds x's mantissa bit and y's int
    holds y's (0 where an operand has no bit), both aligned on x's grid;
    y's int may carry bits above the slice.  No slice after the first runs
    past the longer operand's last block.  Returns the number of slices."""
    from .test_scan import _recorded

    calls.clear()
    (rx, xs), (ry, ys) = _recorded(x), _recorded(y)
    _settle(rx, ry, p, d)
    w = x.limb_width
    size = w // 8
    xm, ym = x.mantissa_int(), y.mantissa_int()
    assert len(xs.slices) == len(ys.slices) == len(calls)
    end = 0
    for (xa, xb), (ya, yb), (_, _, top, xv, yv, yd) in zip(xs.slices, ys.slices, calls):
        assert xa == end  # slices run on from one another
        end = xb
        assert top == (xb - xa) * 8  # the slice's length in bits
        assert yd == d + (ya - xa) * 8  # where y's run starts, from the slice's start
        y_limbs = len(y.limb_bytes[ya:yb]) // size
        assert not y_limbs or (yd > -w and yd + (y_limbs - 1) * w < top)
        mask = (1 << top) - 1
        assert xv == _on_grid(xm, len(x.limb_bytes) * 8, 0, end * 8) & mask
        assert yv & mask == _on_grid(ym, len(y.limb_bytes) * 8, d, end * 8) & mask
    first = ((p + 2) // w + _FIRST_SLICE) * w
    assert end * 8 <= max(first, -(-max(x.precision, d + y.precision) // w) * w)
    return len(xs.slices)


@pytest.mark.parametrize("w", [32, 64])
def test_join_holds_the_mantissas_over_the_small_domain(w, joins):
    # Every (m, n, d, p) shape of acceptance check 3's exhaustive domain
    # settles in the first slice.
    ctx = Context(limb_width=w)
    rng = random.Random(w)
    for m in range(2, 7):
        for n in range(2, 7):
            for d in range(17):
                x = make_float_from_int(1, 0, m, 1 << (m - 1) | rng.getrandbits(m - 1), ctx=ctx)
                y = make_float_from_int(1, -d, n, 1 << (n - 1) | rng.getrandbits(n - 1), ctx=ctx)
                for p in range(2, 9):
                    assert _assert_joins_hold_the_mantissas(x, y, p, d, joins) == 1


@pytest.mark.parametrize("w", [32, 64])
def test_join_holds_the_mantissas_on_later_slices(w, joins):
    # Long tails keep the class open past the first slice, so later slices
    # start y at the limb holding the slice's first position; with d % w == 0
    # that limb starts exactly there.
    from .test_scan import _long_tail_case

    ctx = Context(limb_width=w)
    rng = random.Random(5 * w)
    later = aligned = 0
    for _ in range(1000):
        x, y, p = _long_tail_case(rng, ctx)
        d = x.exponent - y.exponent
        slices = _assert_joins_hold_the_mantissas(x, y, p, d, joins)
        later += slices > 1
        aligned += slices > 1 and d % w == 0
    assert later > 150 and aligned > 20

    # fb = 1 from x's ones, which run on past y's start with a single 0
    # facing y's leading 1, and y's tail complements x's: the pair scan
    # crosses the gap to y without settling, so later slices start inside
    # y's first few limbs, or y starts inside a later slice.
    gap_later = 0
    for d in range(8, 14 * w, 5):
        m, n = d + 3 * w, 4 * w
        tail = rng.getrandbits(m - d - 1)
        xm = ((1 << d) - 1) << (m - d) | tail
        ym = 1 << (n - 1) | (~tail & ((1 << (m - d - 1)) - 1)) << (n - m + d)
        x = make_float_from_int(1, 0, m, xm, ctx=ctx)
        y = make_float_from_int(1, -d, n, ym, ctx=ctx)
        gap_later += _assert_joins_hold_the_mantissas(x, y, 5, d, joins) > 1
        got = add_positive(x, y, 5, RoundingMode.NEAREST_EVEN, ctx=ctx)
        want = exact_add_round(x, y, 5, RoundingMode.NEAREST_EVEN, ctx=ctx)
        assert (got.result, got.ternary) == (want.result, want.ternary)
    assert gap_later > 50


@pytest.mark.parametrize("w", [32, 64])
def test_join_holds_the_mantissas_after_equal_ones(w, joins):
    # fb = 1 pairs whose first agreeing pair is two ones at q, after which
    # the scan looks for a 1 up to the longer operand's end: that end falls
    # one bit before, at and one bit past a block boundary, so the slice
    # that reaches it is cut at the end's own block.
    from .test_scan import _equal_ones_case

    q = w + 1
    for k in range(5, 40, 3):
        for end in (k * w - 1, k * w, k * w + 1):
            for x_end, y_end in ((end, q + 3), (q + 3, end)):
                for one_at in (None, end):
                    x, y, ctx = _equal_ones_case(w, q, x_end, y_end, one_at)
                    assert _assert_joins_hold_the_mantissas(x, y, 5, 7, joins) > 1
                    mode = RoundingMode.NEAREST_EVEN
                    got = add_positive(x, y, 5, mode, ctx=ctx)
                    want = exact_add_round(x, y, 5, mode, ctx=ctx)
                    assert (got.result, got.ternary) == (want.result, want.ternary)
                    assert got.stats.q_found_at == q


@pytest.mark.parametrize("w", [32, 64])
@pytest.mark.parametrize("p", [2, 29, 30, 31, 53, 62, 63, 64, 126])
def test_whole_operand_join_at_the_branch_edge(w, p, joins):
    # y ends one bit before, at or one bit past the first slice's end, and x
    # ends at or one bit past it.  When both end inside the slice, `_join`
    # gets each operand's buffer itself (slicing bytes whole returns them);
    # on every side the join holds both mantissas and the add agrees with
    # the oracle.
    ctx = Context(limb_width=w)
    top = ((p + 2) // w + _FIRST_SLICE) * w
    rng = random.Random(p * w)
    gaps = sorted({0, 1, p, p + 2, p + 3, w - 1, w, w + 1, top - 3})
    inside = 0
    for m in (top, top + 1):
        for y_end in (top - 1, top, top + 1):
            for d in gaps:
                n = y_end - d
                x = make_float_from_int(1, 0, m, 1 << (m - 1) | rng.getrandbits(m - 1), ctx=ctx)
                y = make_float_from_int(1, -d, n, 1 << (n - 1) | rng.getrandbits(n - 1), ctx=ctx)
                _assert_joins_hold_the_mantissas(x, y, p, d, joins)
                if m <= top and y_end <= top:
                    joins.clear()
                    _settle(x, y, p, d)
                    assert joins[0][0] is x.limb_bytes and joins[0][1] is y.limb_bytes
                    inside += 1
                for mode in RoundingMode:
                    got = add_positive(x, y, p, mode, ctx=ctx)
                    want = exact_add_round(x, y, p, mode, ctx=ctx)
                    assert (got.result, got.ternary) == (want.result, want.ternary)
    assert inside == 2 * len(gaps)  # m = top with y ending at top - 1 or top


def test_settle_returns_error_class_members():
    # _settle assigns its class from module globals bound to the members; they
    # must stay ErrorClass members, not bare ints.
    from .test_scan import _golden_cases

    for x, y, p, _, _ in _golden_cases():
        a, b = ordered(x, y)
        assert type(_settle(a, b, p, a.exponent - b.exponent)[3]) is ErrorClass


def test_scan_stats_keeps_its_defaults_and_stays_assignable():
    s = ScanStats()
    assert s == ScanStats(0, 0, 0, None, 0)
    assert not hasattr(s, "__dict__")  # slotted
    s.q_found_at = 7
    s.limbs_touched += 2
    assert s == ScanStats(q_found_at=7, limbs_touched=2)
    assert repr(s) == (
        "ScanStats(x_limbs_read=0, y_limbs_read=0, trailing_bits_examined=0, q_found_at=7, limbs_touched=2)"
    )


def test_add_outcome_compares_by_fields_and_stays_unhashable():
    x = make_float(1, 0, 18, "101010000010010001")
    y = make_float(1, -9, 5, "10001")
    out = add_positive(x, y, 4, RoundingMode.NEAREST_EVEN)
    assert out == add_positive(y, x, 4, RoundingMode.NEAREST_EVEN)
    assert out != exact_add_round(x, y, 4, RoundingMode.NEAREST_EVEN)  # stats differ
    assert not hasattr(out, "__dict__")  # slotted
    assert repr(out) == (
        "AddOutcome(result=Float(sign=1, exponent=0, precision=4, limbs=(12682136550675316736,), "
        "limb_width=64), ternary=1, stats=ScanStats(x_limbs_read=1, y_limbs_read=0, "
        "trailing_bits_examined=0, q_found_at=None, limbs_touched=2))"
    )
    # The record holds an assignable ScanStats, so it cannot be a dict key.
    with pytest.raises(TypeError, match="unhashable"):
        hash(out)


# --- the (rb, fb, error class) rows ---------------------------------------

EQ0, GT0, EQU, GTU = (
    ErrorClass.EQ_ZERO,
    ErrorClass.GT_ZERO_LT_U,
    ErrorClass.EQ_U,
    ErrorClass.GT_U,
)

COMBINE_ROWS = [
    (0, 0, EQ0, 0, 0, False),
    (0, 0, GT0, 0, 1, False),
    (1, 0, EQ0, 1, 0, False),
    (1, 0, GT0, 1, 1, False),
    (0, 1, GT0, 0, 1, False),
    (0, 1, EQU, 1, 0, False),
    (0, 1, GTU, 1, 1, False),
    (1, 1, GT0, 1, 1, False),
    (1, 1, EQU, 0, 0, True),
    (1, 1, GTU, 0, 1, True),
]


# Each id names the class: an IntEnum member alone would print as its value.
@pytest.mark.parametrize(
    "rb,fb,cls,r,s,carry",
    COMBINE_ROWS,
    ids=lambda v: f"ErrorClass.{v.name}" if isinstance(v, ErrorClass) else None,
)
def test_combine_rows(rb, fb, cls, r, s, carry):
    # The last three window digits and the class, in units of u/2: the
    # carry into the mantissa, the final rounding bit and the sticky bit.
    v = 4 * rb + 2 * fb + cls
    assert (v >> 3, v >> 2 & 1, v & 3 != 0) == (carry, r, s)
