"""End-to-end addition: frozen cases, engine vs oracle vs rational reference."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xadd import (
    DEFAULT_CONTEXT,
    DEFAULT_MAX_PRECISION,
    Context,
    Overflow,
    RoundingMode,
    add_positive,
    exact_add_round,
    make_float,
    make_float_from_int,
    parse_float,
    round_to_prec,
)
from xadd.cli import _random_case

from .helpers import float_value, frac_round

ALL_MODES = list(RoundingMode)
D, U, Z, N = (
    RoundingMode.DOWN,
    RoundingMode.UP,
    RoundingMode.TOWARD_ZERO,
    RoundingMode.NEAREST_EVEN,
)


def add(xs: str, ys: str, p: int, mode: RoundingMode):
    return add_positive(parse_float(xs), parse_float(ys), p, mode)


def test_exact_doubling():
    for mode in ALL_MODES:
        out = add("0.10", "0.10", 2, mode)
        assert out.result == make_float(1, 1, 2, "10")
        assert out.ternary == 0


# The two classic worked examples, frozen in every mode.
WORKED_EXAMPLES = [
    ("0.101010000010010001", "0.10001e-9", 4, D, "0.1010e0", -1),
    ("0.101010000010010001", "0.10001e-9", 4, U, "0.1011e0", 1),
    ("0.101010000010010001", "0.10001e-9", 4, Z, "0.1010e0", -1),
    ("0.101010000010010001", "0.10001e-9", 4, N, "0.1011e0", 1),
    ("0.101111100101", "0.11010e-7", 2, D, "0.10e0", -1),
    ("0.101111100101", "0.11010e-7", 2, U, "0.11e0", 1),
    ("0.101111100101", "0.11010e-7", 2, Z, "0.10e0", -1),
    ("0.101111100101", "0.11010e-7", 2, N, "0.11e0", 1),
]


@pytest.mark.parametrize("xs,ys,p,mode,want,ternary", WORKED_EXAMPLES)
def test_worked_examples(xs, ys, p, mode, want, ternary):
    out = add(xs, ys, p, mode)
    assert out.result == parse_float(want)
    assert out.ternary == ternary
    mirror = exact_add_round(parse_float(xs), parse_float(ys), p, mode)
    assert mirror.result == out.result and mirror.ternary == out.ternary


def test_first_example_reads_nothing_from_y():
    # d = 9 puts y entirely below the 6-bit window; x's rounding bit is set
    # and y's mere existence proves the error term positive.
    out = add("0.101010000010010001", "0.10001e-9", 4, N)
    assert out.stats.y_limbs_read == 0
    assert out.stats.trailing_bits_examined == 0
    assert out.stats.x_limbs_read == 1


def test_second_example_scans_both_tails_to_the_end():
    out = add("0.101111100101", "0.11010e-7", 2, N)
    assert out.stats.trailing_bits_examined == 8
    assert out.stats.q_found_at is None
    assert out.stats.x_limbs_read == 1 and out.stats.y_limbs_read == 1


def test_hole_case_rounds_up_across_the_gap():
    # 38 zero bits separate the mantissas; Up must still notice y.
    out = add("0.11", "0.11e-40", 2, U)
    assert out.result == make_float(1, 1, 2, "10")
    assert out.ternary == 1
    for mode in (D, Z, N):
        low = add("0.11", "0.11e-40", 2, mode)
        assert low.result == make_float(1, 0, 2, "11")
        assert low.ternary == -1


def test_commutes_including_stats():
    pairs = [
        ("0.101111100101", "0.11010e-7", 2),
        ("0.1010", "0.1001", 2),
        ("0.10001", "0.11e-3", 2),
        ("0.11", "0.11e-40", 2),
        ("0.10", "0.10", 4),
    ]
    for xs, ys, p in pairs:
        for mode in ALL_MODES:
            x, y = parse_float(xs), parse_float(ys)
            assert add_positive(x, y, p, mode) == add_positive(y, x, p, mode)


def test_rejects_negative_operand():
    x = make_float(-1, 0, 2, "10")
    y = make_float(1, 0, 2, "10")
    for a, b in ((x, y), (y, x), (x, x)):
        with pytest.raises(ValueError, match="positive operands only"):
            add_positive(a, b, 2, D)


def test_rejects_mixed_limb_width():
    x = make_float(1, 0, 2, "10")
    y = make_float(1, 0, 2, "10", ctx=Context(limb_width=32))
    with pytest.raises(ValueError):
        add_positive(x, y, 2, D)


def test_rejects_precision_below_two():
    x = make_float(1, 0, 2, "10")
    from xadd import InvalidPrecision

    with pytest.raises(InvalidPrecision):
        add_positive(x, x, 1, D)


@pytest.mark.parametrize(
    "precision, message",
    [
        (53.0, "precision must be an int, got 53.0"),
        (True, "precision must be an int, got True"),
        ("53", "precision must be an int, got '53'"),
        (None, "precision must be an int, got None"),
        (1, f"precision must lie in [2, {DEFAULT_MAX_PRECISION}], got 1"),
        (DEFAULT_MAX_PRECISION + 1, f"precision must lie in [2, {DEFAULT_MAX_PRECISION}], got {DEFAULT_MAX_PRECISION + 1}"),
    ],
)
def test_add_positive_refuses_a_precision_as_check_precision_does(precision, message):
    # add_positive tests the type and range inline and calls check_precision
    # only when they fail, so each refusal keeps check_precision's words.
    from xadd import InvalidPrecision

    x = make_float(1, 0, 2, "11")
    with pytest.raises(InvalidPrecision) as err:
        add_positive(x, x, precision, D)
    assert str(err.value) == message


def test_add_positive_takes_an_int_subclass_precision_and_the_bounds():
    class Bits(int):
        pass

    x, y = make_float(1, 0, 3, "111"), make_float(1, -2, 2, "11")
    for p in (2, 53, DEFAULT_MAX_PRECISION):
        for mode in ALL_MODES:
            got, want = add_positive(x, y, Bits(p), mode), exact_add_round(x, y, p, mode)
            assert got == add_positive(x, y, p, mode)
            assert (got.result, got.ternary) == (want.result, want.ternary)


# At p = 4, 0.1011 + 0.10e-5 and 0.10111 round inexactly; 0.1011 + 0.10e-3
# and 0.1011 are exact.
_MODE_ENTRY_POINTS = {
    "add_positive-inexact": lambda mode: add("0.1011", "0.10e-5", 4, mode),
    "add_positive-exact": lambda mode: add("0.1011", "0.10e-3", 4, mode),
    "exact_add_round-inexact": lambda mode: exact_add_round(
        parse_float("0.1011"), parse_float("0.10e-5"), 4, mode
    ),
    "exact_add_round-exact": lambda mode: exact_add_round(
        parse_float("0.1011"), parse_float("0.10e-3"), 4, mode
    ),
    "round_to_prec-inexact": lambda mode: round_to_prec(parse_float("0.10111"), 4, mode),
    "round_to_prec-exact": lambda mode: round_to_prec(parse_float("0.1011"), 4, mode),
}


@pytest.mark.parametrize("mode", ["up", None])
@pytest.mark.parametrize("entry", sorted(_MODE_ENTRY_POINTS))
def test_rejects_a_mode_that_is_not_a_rounding_mode(entry, mode):
    # The rounding table reads anything but Up or NearestEven as Down, so an
    # unchecked "up" would truncate silently.
    with pytest.raises(ValueError, match="not a rounding mode"):
        _MODE_ENTRY_POINTS[entry](mode)


# --- overflow -------------------------------------------------------------


def test_overflow_from_window_carry_hits_all_modes():
    emax = DEFAULT_CONTEXT.emax
    x = make_float(1, emax, 2, "10")
    for mode in ALL_MODES:
        out = add_positive(x, x, 2, mode)
        assert out == Overflow(mode, 1, 0)
        assert out == exact_add_round(x, x, 2, mode)


def test_overflow_from_rounding_increment_only_in_raising_modes():
    # Exact sum 0.11111...(1 far below) * 2**emax: rounding bit set, sticky
    # set by y alone, so Up and Nearest increment past emax while the
    # truncating modes stay put.
    emax = DEFAULT_CONTEXT.emax
    x = make_float(1, emax, 5, "11111")
    y = make_float(1, emax - 70, 2, "10")
    for mode in ALL_MODES:
        got = add_positive(x, y, 4, mode)
        want = exact_add_round(x, y, 4, mode)
        if mode in (U, N):
            assert got == Overflow(mode, 1, 1)
            assert got == want
        else:
            assert got.result == make_float(1, emax, 4, "1111") and got.ternary == -1
            assert (got.result, got.ternary) == (want.result, want.ternary)


def test_near_overflow_stays_finite():
    emax = DEFAULT_CONTEXT.emax
    x = make_float(1, emax - 1, 2, "10")
    out = add_positive(x, x, 2, U)
    assert out.result == make_float(1, emax, 2, "10")


# --- randomized agreement with both references -----------------------------


@settings(max_examples=600, deadline=None)
@given(
    m=st.integers(2, 200),
    n=st.integers(2, 200),
    d=st.integers(0, 220),
    p=st.integers(2, 128),
    e=st.integers(-40, 40),
    mode=st.sampled_from(ALL_MODES),
    data=st.data(),
)
def test_engine_equals_oracle_and_rational(m, n, d, p, e, mode, data):
    mx = data.draw(st.integers(1 << (m - 1), (1 << m) - 1))
    my = data.draw(st.integers(1 << (n - 1), (1 << n) - 1))
    x = make_float(1, e, m, format(mx, f"0{m}b"))
    y = make_float(1, e - d, n, format(my, f"0{n}b"))
    got = add_positive(x, y, p, mode)
    want = exact_add_round(x, y, p, mode)
    assert got.result == want.result and got.ternary == want.ternary
    mant, res_e, ternary = frac_round(float_value(x) + float_value(y), p, mode)
    assert int(got.result.mantissa_bits(), 2) == mant
    assert got.result.exponent == res_e
    assert got.ternary == ternary
    assert got.stats.trailing_bits_examined <= m + n


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(2, 100),
    n=st.integers(2, 100),
    d=st.integers(0, 120),
    p=st.integers(2, 64),
    mode=st.sampled_from(ALL_MODES),
    data=st.data(),
)
def test_commutativity_random(m, n, d, p, mode, data):
    mx = data.draw(st.integers(1 << (m - 1), (1 << m) - 1))
    my = data.draw(st.integers(1 << (n - 1), (1 << n) - 1))
    x = make_float(1, 3, m, format(mx, f"0{m}b"))
    y = make_float(1, 3 - d, n, format(my, f"0{n}b"))
    assert add_positive(x, y, p, mode) == add_positive(y, x, p, mode)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(2, 100),
    n=st.integers(2, 100),
    d=st.integers(0, 60),
    p=st.integers(2, 64),
    data=st.data(),
)
def test_directed_modes_sandwich_the_exact_sum(m, n, d, p, data):
    mx = data.draw(st.integers(1 << (m - 1), (1 << m) - 1))
    my = data.draw(st.integers(1 << (n - 1), (1 << n) - 1))
    x = make_float(1, 0, m, format(mx, f"0{m}b"))
    y = make_float(1, -d, n, format(my, f"0{n}b"))
    exact = float_value(x) + float_value(y)
    down = float_value(add_positive(x, y, p, D).result)
    up = float_value(add_positive(x, y, p, U).result)
    assert down <= exact <= up
    assert up - down <= Fraction(2) ** (exact.numerator.bit_length() - exact.denominator.bit_length() + 1 - p)


def test_precision_cap_in_near_linear_time():
    # Operands at the default precision cap, summed at half of it: the limb
    # conversions, the window and the oracle must all stay near-linear, as
    # one quadratic step at this size takes minutes.
    rng = random.Random(24)
    m = DEFAULT_MAX_PRECISION
    top = 1 << (m - 1)
    t0 = time.perf_counter()
    x = make_float_from_int(1, 0, m, top | rng.getrandbits(m - 1))
    y = make_float_from_int(1, -3, m, top | rng.getrandbits(m - 1))
    for mode in ALL_MODES:
        got = add_positive(x, y, m // 2, mode)
        want = exact_add_round(x, y, m // 2, mode)
        assert (got.result, got.ternary) == (want.result, want.ternary)
    assert time.perf_counter() - t0 < 20.0


def test_engine_matches_mpmath():
    # A reference this package did not write.  The sum is formed exactly
    # and then rounded by mpf_pos: mpmath 1.3.0's direct
    # mpf_add(X, Y, p, rnd) returns a value below the exact directed
    # rounding on some inputs with an exponent gap above p (84 of the
    # 19,888 outcomes of the first 4,972 cases drawn below).
    libmp = pytest.importorskip("mpmath.libmp")
    rnd = {D: "f", Z: "d", U: "c", N: "n"}

    def mpf(f):
        return libmp.from_man_exp(f.mantissa_int(), f.exponent - len(f.limbs) * f.limb_width)

    rng = random.Random(3)
    for _ in range(2000):
        x, y, p = _random_case(rng, 256, DEFAULT_CONTEXT)
        exact = libmp.mpf_add(mpf(x), mpf(y), 0)
        for mode in ALL_MODES:
            want = libmp.mpf_pos(exact, p, rnd[mode])
            got = add_positive(x, y, p, mode)
            assert got.ternary == libmp.mpf_cmp(want, exact)
            if isinstance(got, Overflow):
                _, _, exp, bc = want
                assert exp + bc > DEFAULT_CONTEXT.emax
            else:
                assert mpf(got.result) == want
