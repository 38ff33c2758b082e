"""The trailing-bit scan: pinned logical counts, physical reads, worst case.

`test_scan_outcomes_match_golden_digest` hashes engine outcomes, read
counters included, over a fixed seeded set whose operand tails keep the
error class open for up to about 4400 bits: complement tails (the fb = 1
pair scan), identical tails and zero tails (the trailing-one scan).  The
digest was recorded from the limb-at-a-time scan, so any change to a
result, a ternary or a logical count fails it.
"""

import hashlib
import random
import time

import pytest

from xadd import (
    DEFAULT_MAX_PRECISION,
    Context,
    Overflow,
    RoundingMode,
    add_positive,
    exact_add_round,
    make_float_from_int,
)
from xadd.cli import _random_case

ALL_MODES = list(RoundingMode)
GOLDEN_DIGEST = "4ee41fe4f9ba97e00198a6c5baecc41210492b78d540aee16413373ca09d9e28"


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
