"""The trailing-bit scan: pinned logical counts, physical reads, worst case.

`test_scan_outcomes_match_golden_digest` hashes engine outcomes, read
counters included, over a fixed seeded set whose operand tails keep the
error class open for up to about 4400 bits: complement tails (the fb = 1
pair scan), identical tails and zero tails (the trailing-one scan).  The
digest was recorded from the limb-at-a-time scan and recorded again when
fb = 1 with y starting past x's end came to settle unread (52 of its 6400
outcomes read less, none more), and again when `limbs_touched`, the count
that the slice schedule sets, joined the key.  So any change to a result, a
ternary, a logical count or the limbs taken from storage fails it.
`test_equal_ones_switch_boundaries` pins fb = 1 cases whose first agreeing
pair is two ones, where the scan turns into the trailing-one test: at a
slice's end, at an operand's end, and with the trailing 1 near or far.
`test_reads_equal_the_least_prefix_*` hold the three read counters to
`_least_prefix`, which finds the fewest trailing bits that settle the class
from the whole mantissas, with no reference to how the engine scans.
`test_zero_tails_*` and `test_exact_sum_at_the_cap_*` add 53-bit values
stored at many times their precision, whose zero tails the fb = 0 scan
reads to the end when the sum is exact.
"""

import hashlib
import random
import time

import pytest

from xadd import (
    DEFAULT_MAX_PRECISION,
    Context,
    Float,
    Overflow,
    RoundingMode,
    add_positive,
    exact_add_round,
    make_float,
    make_float_from_int,
    round_to_prec,
)
from xadd.cli import _random_case, _random_exponent, _random_mantissa
from xadd.core import mantissa_is_normalized
from xadd.engine import ErrorClass, _settle

from .helpers import float_value, frac_round, frac_to_float, ordered

ALL_MODES = list(RoundingMode)
GOLDEN_DIGEST = "e5a856683a85e633f0eafc6f0c469f826c587265f0a8304b9a6dc3f904ce964f"


def _long_tail_case(rng: random.Random, ctx: Context):
    """x and y whose bits below a p+2-bit window complement each other,
    coincide, or are zero, for a random length of up to about 4400 bits."""
    w = ctx.limb_width
    p = rng.randint(2, 160)
    m = p + 2 + rng.randint(0, 4400)
    d = rng.choice(
        (
            rng.randint(1, p + 2),
            rng.randint(1, 6) * w,
            rng.randint(1, 6) * w + rng.randint(1, w - 1),
        )
    )
    d = min(d, m - 1)
    n = max(2, m - d + rng.randint(-2 * w, 2 * w))
    over = min(m, d + n) - d  # y bits facing stored x bits
    kind = rng.randrange(3)

    x = rng.getrandbits(m) | (1 << (m - 1))
    cut = m - p - 2  # x bits below the window
    if kind and cut:  # sparse tail: zeros, perhaps a 1 right below the window or far below
        x = x >> cut << cut
        x |= rng.randrange(2) << (cut - 1) | rng.randrange(2) << rng.randrange(cut)
    lead = 1 << (m - d - 1)  # x's bit facing y's leading bit
    if kind == 0:
        x &= ~lead
    elif kind == 1:
        x |= lead
    face = (x >> (m - d - over)) & ((1 << over) - 1)

    if kind == 0:  # complement, perhaps broken once by an agreeing pair
        y = (~face & ((1 << over) - 1)) << (n - over) | rng.getrandbits(n - over)
        if over > 1 and rng.randrange(2):
            y ^= 1 << (n - rng.randint(2, over))
    elif kind == 1:  # identical
        y = face << (n - over)
    else:  # a lone leading 1, perhaps with one more far below
        y = 1 << (n - 1)
        if rng.randrange(2):
            y |= 1 << rng.randrange(n - 1)
    e = rng.randint(-50, 50)
    xf = make_float_from_int(1, e, m, x, ctx=ctx)
    yf = make_float_from_int(1, e - d, n, y, ctx=ctx)
    return xf, yf, p


def _outcome_key(out) -> tuple:
    if isinstance(out, Overflow):
        return ("overflow", out.mode.name, out.sign, out.ternary)
    s = out.stats
    return (
        out.result.limbs,
        out.result.exponent,
        out.ternary,
        s.x_limbs_read,
        s.y_limbs_read,
        s.trailing_bits_examined,
        s.q_found_at,
        s.limbs_touched,
    )


def _golden_cases():
    for w in (32, 64):
        for ctx in (Context(limb_width=w), Context(limb_width=w, emax=40)):
            rng = random.Random(3 * w + ctx.emax % 7)
            for _ in range(300):
                yield (*_random_case(rng, 256, ctx), rng.choice(ALL_MODES), ctx)
        ctx = Context(limb_width=w)
        rng = random.Random(w)
        for _ in range(1000):
            yield (*_long_tail_case(rng, ctx), rng.choice(ALL_MODES), ctx)


def test_scan_outcomes_match_golden_digest():
    h = hashlib.sha256()
    for x, y, p, mode, ctx in _golden_cases():
        for a, b in ((x, y), (y, x)):
            h.update(repr(_outcome_key(add_positive(a, b, p, mode, ctx=ctx))).encode())
    assert h.hexdigest() == GOLDEN_DIGEST


def _assert_well_formed(x, precision: int) -> None:
    assert (x.precision, x.sign) == (precision, 1)
    assert mantissa_is_normalized(x.limbs, precision, x.limb_width)


def test_results_are_normalized_without_the_constructor_check():
    # float_from_mantissa skips Float's per-limb validation on the hot path;
    # this holds its results to the same invariant.
    for x, y, p, mode, ctx in _golden_cases():
        for a, b in ((x, y), (y, x)):
            for add in (add_positive, exact_add_round):
                out = add(a, b, p, mode, ctx=ctx)
                if not isinstance(out, Overflow):
                    _assert_well_formed(out.result, p)
    for w in (32, 64):
        for ctx in (Context(limb_width=w), Context(limb_width=w, emax=40)):
            rng = random.Random(7 * w + ctx.emax % 7)
            for _ in range(1000):
                m = rng.randint(2, 5 * w)
                e = min(_random_exponent(rng, ctx), ctx.emax)
                x = make_float_from_int(1, e, m, _random_mantissa(rng, m), ctx=ctx)
                p = rng.randint(2, 5 * w)
                out = round_to_prec(x, p, rng.choice(ALL_MODES), ctx=ctx)
                if not isinstance(out, Overflow):
                    _assert_well_formed(out[0], p)


def _gap_case():
    # fb = 1 with y far below the window: the pair scan crosses 12 blocks
    # where y is absent before y's leading 1 agrees with x's 1, so its last
    # slice takes 15 blocks of y past the one limb the walk needs.
    ctx = Context(limb_width=32)
    x = make_float_from_int(1, 0, 1192, (1 << 1192) - 1, ctx=ctx)
    y = make_float_from_int(1, -485, 1037, 1 << 1036, ctx=ctx)
    return x, y, 103, RoundingMode.NEAREST_EVEN, ctx


def test_limbs_touched_stays_within_the_scan_span():
    # A slice at most doubles the blocks scanned before it, so each operand
    # is sliced at most the scanned blocks plus a few past its logical read.
    # A bound in the read counts alone, such as 2 * read + 8, fails: in the
    # gap case y's read count stays 1.
    gap = _gap_case()
    for x, y, p, mode, ctx in [gap, *_golden_cases()]:
        out = add_positive(x, y, p, mode, ctx=ctx)
        if isinstance(out, Overflow):
            continue
        s = out.stats
        read = s.x_limbs_read + s.y_limbs_read
        assert read <= s.limbs_touched <= read + 2 * (s.trailing_bits_examined // x.limb_width) + 8
        assert s.limbs_touched <= len(x.limbs) + len(y.limbs)
    s = add_positive(*gap[:4], ctx=gap[4]).stats
    assert (s.x_limbs_read, s.y_limbs_read, s.trailing_bits_examined, s.limbs_touched) == (16, 1, 382, 47)


@pytest.mark.parametrize("w", [32, 64])
def test_complement_scan_runs_to_the_last_bit_at_the_precision_cap(w):
    # y starts right below the p+2-bit window, so fb is x's bit p + 2, set
    # here, and y complements x's tail to the end: the fb = 1 pair scan
    # finds no agreeing pair and reads every limb of x, its slice doubling
    # about 17 times on the way.
    ctx = Context(limb_width=w)
    m, p = DEFAULT_MAX_PRECISION, 53
    d = p + 2
    n = m - d
    rng = random.Random(w)
    xm = rng.getrandbits(m) | 1 << (m - 1) | 1 << (m - d)
    xm &= ~(1 << (m - d - 1))  # y's leading bit faces a 0
    x = make_float_from_int(1, 0, m, xm, ctx=ctx)
    y = make_float_from_int(1, -d, n, ~xm & ((1 << n) - 1), ctx=ctx)
    t0 = time.perf_counter()
    for mode in ALL_MODES:
        got = add_positive(x, y, p, mode, ctx=ctx)
        want = exact_add_round(x, y, p, mode, ctx=ctx)
        assert (got.result, got.ternary) == (want.result, want.ternary)
        assert got.stats.x_limbs_read == len(x.limbs)
        assert got.stats.trailing_bits_examined >= m - p - 3
        assert got.stats.q_found_at is None
    assert time.perf_counter() - t0 < 20.0


@pytest.mark.parametrize("w", [32, 64])
def test_y_past_x_end_settles_unread_at_the_precision_cap(w):
    # fb = 1 from x's all-ones tail, and y starts five bits past x's end, so
    # no digit sum can reach 2: the class is "below u" with no trailing bit
    # read, where a scan for equal bits would walk all of x's 2^24 ones.
    ctx = Context(limb_width=w)
    m, p = DEFAULT_MAX_PRECISION, 53
    d = m + 5
    x = make_float_from_int(1, 0, m, (1 << m) - 1, ctx=ctx)
    y = make_float_from_int(1, -d, 2, 0b11, ctx=ctx)
    times = []
    for a, b in ((x, y), (y, x)):
        for mode in ALL_MODES:
            t0 = time.perf_counter()
            got = add_positive(a, b, p, mode, ctx=ctx)
            times.append(time.perf_counter() - t0)
            want = exact_add_round(a, b, p, mode, ctx=ctx)
            assert (got.result, got.ternary) == (want.result, want.ternary)
            s = got.stats
            assert (s.y_limbs_read, s.trailing_bits_examined, s.q_found_at) == (0, 0, None)
            assert s.x_limbs_read == 54 // w + 1  # the window's limbs
    # The scan took about 23 ms per add; the settled add takes about 0.1 ms.
    assert min(times) < 0.005


def _equal_ones_case(w: int, q: int, x_end: int, y_end: int, one_at: int | None):
    """fb = 1 at p = 5 with y starting right below the 7-bit window: y
    complements x from position 8 on, both hold a 1 at q (the first agreeing
    pair), and below q both are zero but for a single 1 at `one_at`, in x
    where x reaches it and in y otherwise.  Positions are in x's frame."""
    rng = random.Random(q)
    d = 7
    xb = [1] + [rng.getrandbits(1) for _ in range(5)] + [1, 0] + [0] * (x_end - 8)
    yb = [0] * (y_end - d)
    yb[0] = 1
    for i in range(9, q):
        xb[i - 1] = rng.getrandbits(1)
        yb[i - 1 - d] = 1 - xb[i - 1]
    xb[q - 1] = yb[q - 1 - d] = 1
    if one_at is not None:
        if one_at <= x_end:
            xb[one_at - 1] = 1
        else:
            yb[one_at - 1 - d] = 1
    ctx = Context(limb_width=w)
    x = make_float_from_int(1, 0, x_end, int("".join(map(str, xb)), 2), ctx=ctx)
    y = make_float_from_int(1, -d, y_end - d, int("".join(map(str, yb)), 2), ctx=ctx)
    return x, y, ctx


def _equal_ones_cases(w: int):
    # name -> (q, x_end, y_end, one_at); the first slice holds blocks 0..3.
    return {
        # q closes the first slice, so the trailing-one test starts on the next.
        "q_ends_a_slice": (4 * w, 6 * w, 6 * w, 5 * w + 3),
        # q is the last bit of both operands: nothing is left to test.
        "q_ends_both": (3 * w + 5, 3 * w + 5, 3 * w + 5, None),
        # q is y's last bit; x runs on with zeros only.
        "q_ends_y": (2 * w + 9, 5 * w, 2 * w + 9, None),
        # The trailing 1 sits in q's own slice.
        "one_in_q_slice": (2 * w + 3, 5 * w, 5 * w, 2 * w + 8),
        # The trailing 1 sits several slices past q's, in y.
        "one_slices_later": (w + 1, 10 * w, 40 * w, 31 * w + 17),
    }


# Recorded from the scan that classified equal ones with a second call:
# (mantissa bits, exponent, ternary) in nearest, then x_limbs_read,
# y_limbs_read, trailing_bits_examined and q_found_at.
_EQUAL_ONES_PINNED = {
    (32, "q_ends_a_slice"): ("11101", 0, -1, 6, 6, 156, 128),
    (32, "q_ends_both"): ("11110", 0, 0, 4, 3, 94, 101),
    (32, "q_ends_y"): ("10011", 0, 0, 5, 3, 153, 73),
    (32, "one_in_q_slice"): ("10011", 0, -1, 3, 3, 65, 67),
    (32, "one_slices_later"): ("11011", 0, -1, 10, 32, 1002, 33),
    (64, "q_ends_a_slice"): ("10001", 0, 1, 6, 6, 316, 256),
    (64, "q_ends_both"): ("11000", 0, -1, 4, 3, 190, 197),
    (64, "q_ends_y"): ("10001", 0, 0, 5, 3, 313, 137),
    (64, "one_in_q_slice"): ("10100", 0, 1, 3, 3, 129, 131),
    (64, "one_slices_later"): ("10010", 0, -1, 10, 32, 1994, 65),
}


@pytest.mark.parametrize("w,name", list(_EQUAL_ONES_PINNED))
def test_equal_ones_switch_boundaries(w, name):
    x, y, ctx = _equal_ones_case(w, *_equal_ones_cases(w)[name])
    for a, b in ((x, y), (y, x)):
        for mode in ALL_MODES:
            got = add_positive(a, b, 5, mode, ctx=ctx)
            want = exact_add_round(a, b, 5, mode, ctx=ctx)
            assert (got.result, got.ternary) == (want.result, want.ternary)
        out = add_positive(a, b, 5, RoundingMode.NEAREST_EVEN, ctx=ctx)
        s = out.stats
        assert (
            out.result.mantissa_bits(),
            out.result.exponent,
            out.ternary,
            s.x_limbs_read,
            s.y_limbs_read,
            s.trailing_bits_examined,
            s.q_found_at,
        ) == _EQUAL_ONES_PINNED[w, name]
        read = s.x_limbs_read + s.y_limbs_read
        assert read <= s.limbs_touched <= read + 2 * (s.trailing_bits_examined // w) + 8


@pytest.mark.parametrize("w", [32, 64])
def test_one_join_per_operand_when_the_first_slice_settles(w, monkeypatch):
    # Both 53-bit operands lie inside the first slice, so _settle's one _join
    # call gets each operand's buffer itself (slicing bytes whole returns
    # them) and joins each with one int.from_bytes, at w = 32 as at w = 64.
    # The window and the scan read the same two ints.  An add whose operands
    # reach past the first slice joins each later slice too.
    import xadd.engine

    reads, joins = [], []
    from_bytes, slice_join = xadd.engine._from_bytes, xadd.engine._join
    monkeypatch.setattr(xadd.engine, "_from_bytes", lambda run, order: reads.append(run) or from_bytes(run, order))
    monkeypatch.setattr(xadd.engine, "_join", lambda *args: joins.append(args) or slice_join(*args))
    ctx = Context(limb_width=w)
    rng = random.Random(53)
    x = make_float_from_int(1, 0, 53, rng.getrandbits(52) | 1 << 52, ctx=ctx)
    y = make_float_from_int(1, -20, 53, rng.getrandbits(52) | 1 << 52, ctx=ctx)
    (rx, xs), (ry, ys) = _recorded(x), _recorded(y)
    out = add_positive(rx, ry, 53, RoundingMode.NEAREST_EVEN, ctx=ctx)
    want = exact_add_round(x, y, 53, RoundingMode.NEAREST_EVEN, ctx=ctx)
    assert (out.result, out.ternary) == (want.result, want.ternary)
    # fb = 0, and y's tail below the window settles the class at bit 6.
    assert out.stats.trailing_bits_examined == 6
    first = (55 // w + 4) * w // 8  # the first slice's end, in bytes
    assert xs.slices == [(0, first)] and ys.slices == [(0, first)]
    assert first >= len(xs) and first >= len(ys)  # each slice holds its operand whole
    assert reads == [x.limb_bytes, y.limb_bytes]
    assert len(joins) == 1
    joins.clear()
    add_positive(x, y, 53, RoundingMode.NEAREST_EVEN, ctx=ctx)
    assert joins[0][0] is x.limb_bytes and joins[0][1] is y.limb_bytes

    reads.clear()
    joins.clear()
    m = 1 << 14
    xm = rng.getrandbits(m) | 1 << (m - 1)
    lx = make_float_from_int(1, 0, m, xm, ctx=ctx)
    ly = make_float_from_int(1, -1, m - 1, ~xm & ((1 << (m - 1)) - 1) | 1 << (m - 2), ctx=ctx)
    (rx, xs), (ry, ys) = _recorded(lx), _recorded(ly)
    out = add_positive(rx, ry, 53, RoundingMode.NEAREST_EVEN, ctx=ctx)
    want = exact_add_round(lx, ly, 53, RoundingMode.NEAREST_EVEN, ctx=ctx)
    assert (out.result, out.ternary) == (want.result, want.ternary)
    assert out.stats.trailing_bits_examined > m - 100
    assert len(joins) > 2 and len(reads) == 2 * len(joins)
    assert xs.slices[0] == ys.slices[0] == (0, first)
    # The second slice, 2 * 4 blocks: x from the first slice's end, and y
    # from its limb that holds the slice's first position, which y, one bit
    # down, starts a limb earlier.
    assert joins[1][2:] == (1 - w, 8 * w)
    assert xs.slices[1] == (first, first + w) and ys.slices[1][0] == first - w // 8


@pytest.mark.parametrize("w", [32, 64])
def test_machine_size_add_packs_no_struct(w, monkeypatch):
    # No add packs a struct: a 53-bit add joins its operands by from_bytes
    # and stores its result by to_bytes, and a scan-sized add joins its long
    # slices the same way.  _limb_struct serves only Float(...) and the
    # limbs view, so add_positive calls it at no operand size.
    import xadd.core

    calls = []
    compile_struct = xadd.core._limb_struct
    monkeypatch.setattr(
        xadd.core, "_limb_struct", lambda count, width: calls.append(count) or compile_struct(count, width)
    )
    ctx = Context(limb_width=w)
    rng = random.Random(53)
    x = make_float_from_int(1, 0, 53, rng.getrandbits(52) | 1 << 52, ctx=ctx)
    y = make_float_from_int(1, -20, 53, rng.getrandbits(52) | 1 << 52, ctx=ctx)
    m = 1 << 14
    xm = rng.getrandbits(m) | 1 << (m - 1)
    lx = make_float_from_int(1, 0, m, xm, ctx=ctx)
    ly = make_float_from_int(1, -1, m - 1, ~xm & ((1 << (m - 1)) - 1) | 1 << (m - 2), ctx=ctx)
    calls.clear()
    out = add_positive(x, y, 53, RoundingMode.NEAREST_EVEN, ctx=ctx)
    assert calls == []
    want = exact_add_round(x, y, 53, RoundingMode.NEAREST_EVEN, ctx=ctx)
    assert (out.result, out.ternary) == (want.result, want.ternary)
    out = add_positive(lx, ly, 53, RoundingMode.NEAREST_EVEN, ctx=ctx)
    assert out.stats.trailing_bits_examined > m - 100
    assert calls == []


class _Recording(bytes):
    """A limb buffer that records each slice taken from it, as the (start,
    stop) the slice asked for, and the highest byte index taken, plus one."""

    def __init__(self, data):
        self.slices = []
        self.reach = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.slices.append((key.start or 0, key.stop))
            start, stop, _ = key.indices(len(self))
            reach = stop if stop > start else 0
        else:
            reach = range(len(self))[key] + 1
        self.reach = max(self.reach, reach)
        return super().__getitem__(key)

    def __iter__(self):
        self.reach = len(self)
        return super().__iter__()


def _recorded(x):
    """x with its limb buffer swapped for a `_Recording` of the same bytes."""
    buffer = _Recording(x.limb_bytes)
    rx = Float(x.sign, x.exponent, x.precision, x.limbs, x.limb_width)
    object.__setattr__(rx, "limb_bytes", buffer)  # past the frozen __setattr__
    return rx, buffer


def test_limbs_touched_counts_every_limb_the_engine_takes():
    # Each operand's buffer records the bytes actually taken: in limbs, their
    # sum is limbs_touched, and the logical read counts never exceed it.
    def cases():
        yield from _golden_cases()
        rng = random.Random(2005)
        for w in (32, 64):
            ctx = Context(limb_width=w)
            for _ in range(1500):
                yield (*_random_case(rng, 300, ctx), rng.choice(ALL_MODES), ctx)

    checked = 0
    for x, y, p, mode, ctx in cases():
        (rx, xs), (ry, ys) = _recorded(x), _recorded(y)
        for a, b in ((rx, ry), (ry, rx)):
            xs.reach = ys.reach = 0
            out = add_positive(a, b, p, mode, ctx=ctx)
            if isinstance(out, Overflow):
                continue
            s = out.stats
            assert (xs.reach + ys.reach) // (x.limb_width // 8) == s.limbs_touched
            assert s.limbs_touched >= s.x_limbs_read + s.y_limbs_read
            checked += 1
    assert checked > 9000


@pytest.mark.parametrize("w", [32, 64])
def test_limbs_touched_when_y_lies_below_the_window(w):
    # fb = 0 with y wholly below the 55-bit window settles unread, yet the
    # first slice has already taken the window's blocks plus four more from
    # each operand's storage: 7 limbs at both widths, where the window alone
    # took 2 (w = 32) or 1 (w = 64).
    ctx = Context(limb_width=w)
    xm = (1 << 299 | random.Random(1).getrandbits(299)) & ~(1 << (300 - 55))
    x = make_float_from_int(1, 0, 300, xm, ctx=ctx)
    y = make_float_from_int(1, -100, 300, 1 << 299 | random.Random(2).getrandbits(299), ctx=ctx)
    s = add_positive(x, y, 53, RoundingMode.NEAREST_EVEN, ctx=ctx).stats
    assert (s.x_limbs_read, s.y_limbs_read, s.trailing_bits_examined) == (64 // w, 0, 0)
    assert s.limbs_touched == 7


def _least_prefix(x, y, p):
    """(trailing_bits_examined, x_limbs_read, y_limbs_read) of the least read
    that settles the error class, worked out from the whole mantissas.

    The reference knows each operand's length and leading 1 and no other
    bit it has not read.  Reading k trailing positions means knowing every
    bit up to x-frame position p + 2 + k, one fewer after a window carry,
    whose displaced bit is the first of the k.  The class is settled once
    the least and the greatest completion of the unread bits give the same
    class; both ends move inward as k grows, so the least such k is found
    by bisection.  The limb counts follow from the last known position P by
    a walk one block at a time: x's blocks up to P's, and the y limbs that
    reach them once the walk has met y, in the window or past it.
    """
    if (x.exponent, x.precision) < (y.exponent, y.precision):
        x, y = y, x
    w, m, n = x.limb_width, x.precision, y.precision
    d = x.exponent - y.exponent
    window = p + 2
    top = max(m, d + n, window) + 1  # the x-frame position of weight 1
    xv = x.mantissa_int() >> (len(x.limbs) * w - m) << (top - m)
    yv = y.mantissa_int() >> (len(y.limbs) * w - n) << (top - d - n)
    s = top - window  # the window's last position, fb, has weight 2**s
    total = (xv >> s) + (yv >> s)
    carry = total >> window
    fb = total >> carry & 1
    displaced = (total & carry) << s
    u, low_mask = 1 << (s + carry), (1 << s) - 1

    def cls(eps):
        return (eps > u) - (eps < u) if fb else eps > 0

    def settled(last):  # every bit up to x-frame position `last` is known
        xu = ((1 << (m - last)) - 1) << (top - m) if last < m else 0
        lead = max(last, d + 1)  # y's leading 1 is always known
        yu = ((1 << (d + n - lead)) - 1) << (top - d - n) if lead < d + n else 0
        least = (xv & ~xu & low_mask) + (yv & ~yu & low_mask) + displaced
        most = ((xv | xu) & low_mask) + ((yv | yu) & low_mask) + displaced
        return cls(least) == cls(most)

    lo, hi = carry, max(m, d + n, window) - window + carry
    while lo < hi:
        mid = (lo + hi) // 2
        if settled(window + mid - carry):
            hi = mid
        else:
            lo = mid + 1
    last = window + lo - carry
    block, ls = (last - 1) // w, d // w
    met_y = d < window or last > window
    y_read = min(max(block - ls + 1, 0), len(y.limbs)) if met_y else 0
    return lo, min(block + 1, len(x.limbs)), y_read


def _assert_reads_the_least_prefix(x, y, p, ctx):
    want = _least_prefix(x, y, p)
    for a, b in ((x, y), (y, x)):
        out = add_positive(a, b, p, RoundingMode.NEAREST_EVEN, ctx=ctx)
        if not isinstance(out, Overflow):
            s = out.stats
            assert (s.trailing_bits_examined, s.x_limbs_read, s.y_limbs_read) == want


@pytest.mark.parametrize("w", [32, 64])
def test_reads_equal_the_least_prefix_over_the_small_domain(w):
    # Every mantissa of 2 to 6 bits for x and for y, d in 0..11, p in 2..7.
    # The counters do not depend on the rounding mode.
    ctx = Context(limb_width=w)

    def mantissas(exponent):
        return [
            make_float_from_int(1, exponent, m, 1 << (m - 1) | tail, ctx=ctx)
            for m in range(2, 7)
            for tail in range(1 << (m - 1))
        ]

    xs = mantissas(0)
    for d in range(12):
        ys = mantissas(-d)
        for x in xs:
            for y in ys:
                for p in range(2, 8):
                    _assert_reads_the_least_prefix(x, y, p, ctx)


@pytest.mark.parametrize("w", [32, 64])
def test_reads_equal_the_least_prefix_on_random_cases(w):
    # Up to 1200 bits, so that the settling position crosses limb seams.
    ctx = Context(limb_width=w)
    rng = random.Random(1200 + w)
    for _ in range(20000):
        x, y, p = _random_case(rng, 1200, ctx)
        if abs(x.exponent - y.exponent) > 4096:
            continue  # the reference's integers grow with the gap; _random_case's stay under 2410
        _assert_reads_the_least_prefix(x, y, p, ctx)


def _zero_tail_cases():
    """fb = 0 adds of 53-bit values stored at 2^14 bits, so that both tails
    are zero past bit 53: (x, y, p, ctx, eq_zero).  x sits at exponent 0
    and y d bits lower; the window is the exact sum's top p + 2 bits, and
    eq_zero tells whether every sum bit below it is 0."""
    m = 1 << 14
    for w in (32, 64):
        ctx = Context(limb_width=w)
        rng = random.Random(14 + w)
        for p in (24, 53, 64, 113):
            for d in (0, 1, 29, 52, 53, 61, 64, 100):
                for _ in range(4):
                    xv, yv = rng.getrandbits(52) | 1 << 52, rng.getrandbits(52) | 1 << 52
                    s = (xv << d) + yv
                    cut = max(s.bit_length() - p - 2, 0)  # sum bits below the window
                    if s.bit_length() >= p + 2 and s >> cut & 1:
                        continue  # fb = 1
                    x = make_float_from_int(1, 0, m, xv << (m - 53), ctx=ctx)
                    y = make_float_from_int(1, -d, m, yv << (m - 53), ctx=ctx)
                    yield x, y, p, ctx, s & ((1 << cut) - 1) == 0


def test_zero_tails_add_like_the_oracle_and_read_the_least_prefix():
    # With EQ_ZERO the scan reads both zero tails to the longer operand's
    # end; with GT_ZERO_LT_U it settles on a 1 near the top.  Either way the
    # result, the ternary and the read counters stay those of the oracle and
    # of the least-prefix reference.
    eq_zero = gt_zero = 0
    for x, y, p, ctx, is_zero in _zero_tail_cases():
        for a, b in ((x, y), (y, x)):
            for mode in ALL_MODES:
                got = add_positive(a, b, p, mode, ctx=ctx)
                want = exact_add_round(a, b, p, mode, ctx=ctx)
                assert (got.result, got.ternary) == (want.result, want.ternary)
                assert got.ternary or is_zero  # a positive error term is inexact
        _assert_reads_the_least_prefix(x, y, p, ctx)
        if is_zero:
            assert add_positive(x, y, p, RoundingMode.NEAREST_EVEN, ctx=ctx).stats.x_limbs_read == len(x.limbs)
        eq_zero += is_zero
        gt_zero += not is_zero
    assert eq_zero >= 40 and gt_zero >= 40


@pytest.mark.parametrize("w", [32, 64])
def test_exact_sum_at_the_cap_packs_only_the_first_slice(w, monkeypatch):
    # Two binary64 values stored at 2^24 bits, at p = 113: the sum is exact,
    # so the fb = 0 scan reads every limb of both operands.  The first slice
    # holds all their significant bits; each later slice is all zeros and
    # joins to 0.  No add compiles a struct, where packing the zeros once
    # compiled one per doubling slice, and the slices take each buffer once
    # over, up to its end.
    import xadd.core
    import xadd.engine

    ctx = Context(limb_width=w)
    m, p, d = DEFAULT_MAX_PRECISION, 113, 7
    rng = random.Random(w)
    xv, yv = rng.getrandbits(52) | 1 << 52, rng.getrandbits(52) | 1 << 52
    x = make_float_from_int(1, 0, m, xv << (m - 53), ctx=ctx)
    y = make_float_from_int(1, -d, m, yv << (m - 53), ctx=ctx)
    reads = _least_prefix(x, y, p)
    assert reads[1:] == (len(x.limbs), len(y.limbs))
    (rx, xs), (ry, ys) = _recorded(x), _recorded(y)
    calls, joins = [], []
    compile_struct, slice_join = xadd.core._limb_struct, xadd.engine._join
    monkeypatch.setattr(
        xadd.core, "_limb_struct", lambda count, width: calls.append(count) or compile_struct(count, width)
    )
    monkeypatch.setattr(xadd.engine, "_join", lambda *args: joins.append(slice_join(*args)) or joins[-1])
    for a, b in ((rx, ry), (ry, rx)):
        for mode in ALL_MODES:
            joins.clear()
            xs.slices.clear()
            got = add_positive(a, b, p, mode, ctx=ctx)
            assert calls == []
            assert joins[0] != (0, 0) and set(joins[1:]) == {(0, 0)}
            starts, stops = zip(*xs.slices)  # x's slices run on from one another to its end
            assert starts == (0, *stops[:-1]) and stops[-2] < len(xs) <= stops[-1]
            want = exact_add_round(x, y, p, mode, ctx=ctx)
            assert (got.result, got.ternary) == (want.result, want.ternary)
            assert got.ternary == 0
            s = got.stats
            assert (s.trailing_bits_examined, s.x_limbs_read, s.y_limbs_read) == reads


_ROWS = [
    (rb, fb, cls)
    for rb in (0, 1)
    for fb, cls in (
        (0, ErrorClass.EQ_ZERO),
        (0, ErrorClass.GT_ZERO_LT_U),
        (1, ErrorClass.GT_ZERO_LT_U),
        (1, ErrorClass.EQ_U),
        (1, ErrorClass.GT_U),
    )
]


def _row_case(p, rb, fb, cls, gap, ctx):
    """x + y whose split lands on the row (rb, fb, cls).  x's window reads
    1 0...0 rb fb, and y, one binade lower, adds only a 1 at its second
    position, so nothing carries.  Past the window come `gap` positions that
    leave the class open, complementary bits with fb = 1 and zeros with
    fb = 0, then the positions that settle it: with fb = 1, equal zeros
    (below u), or equal ones followed by zeros (u) or by a later 1 (above)."""
    if fb:
        run = ("10" * gap)[:gap]
        tails = {
            ErrorClass.GT_ZERO_LT_U: ("01", "01"),
            ErrorClass.EQ_U: ("100", "100"),
            ErrorClass.GT_U: ("101", "100"),
        }[cls]
        xt, yt = run + tails[0], run.translate(str.maketrans("01", "10")) + tails[1]
    else:
        xt = yt = "0" * (gap + 1)
        if cls == ErrorClass.GT_ZERO_LT_U:
            yt = yt[:-1] + "1"
    x_bits = "1" + "0" * (p - 1) + f"{rb}{fb}" + xt
    y_bits = "1" + "0" * p + yt
    return make_float(1, 0, len(x_bits), x_bits, ctx=ctx), make_float(1, -1, len(y_bits), y_bits, ctx=ctx)


@pytest.mark.parametrize("w", [32, 64])
@pytest.mark.parametrize("p", [24, 53, 64, 113])
def test_every_row_at_machine_size(w, p):
    # Check 3 reaches the EQ_U rows only at 2- to 6-bit mantissas, and random
    # cases hardly ever do.  Here each of the 10 rows is built at a machine
    # precision, settled just past the window, across a limb seam and in a
    # later slice, and held to the oracle, to the rational rounding and to
    # the least read that settles it.
    ctx = Context(limb_width=w)
    assert len(set(_ROWS)) == 10
    for rb, fb, cls in _ROWS:
        for gap in (0, 1, w - 1, 5 * w):
            x, y = _row_case(p, rb, fb, cls, gap, ctx)
            a, b = ordered(x, y)
            window, _, _, seen, _ = _settle(a, b, p, a.exponent - b.exponent)
            assert (window >> 1 & 1, window & 1, seen) == (rb, fb, cls)
            exact = float_value(x) + float_value(y)
            for a, b in ((x, y), (y, x)):
                for mode in ALL_MODES:
                    got = add_positive(a, b, p, mode, ctx=ctx)
                    want = exact_add_round(a, b, p, mode, ctx=ctx)
                    assert (got.result, got.ternary) == (want.result, want.ternary)
                    mantissa, e, ternary = frac_round(exact, p, mode)
                    assert (got.result, got.ternary) == (frac_to_float(mantissa, e, p, ctx=ctx), ternary)
            _assert_reads_the_least_prefix(x, y, p, ctx)
