"""The big-integer reference path, checked against rational arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xadd import (
    DEFAULT_CONTEXT,
    ExactSum,
    Overflow,
    RoundingMode,
    exact_add,
    exact_add_round,
    make_float,
)

from .helpers import float_value, frac_round, pow2


def test_exact_add_one():
    half = make_float(1, 0, 2, "10")
    assert exact_add(half, half) == ExactSum(1, 0)


def test_exact_add_fifteen_sixteenths():
    x = make_float(1, 0, 2, "11")
    y = make_float(1, -2, 2, "11")
    total = exact_add(x, y)
    assert total == ExactSum(15, -4)
    assert Fraction(total.magnitude) * pow2(total.exponent2) == Fraction(15, 16)


def test_exact_add_ten():
    five = make_float(1, 3, 3, "101")
    assert exact_add(five, five) == ExactSum(5, 1)


def test_exact_add_magnitude_is_odd():
    x = make_float(1, 0, 4, "1010")
    y = make_float(1, -1, 4, "1010")
    total = exact_add(x, y)
    assert total.magnitude & 1
    assert total.exponent == 0  # value 15/16 has leading bit at 2**-1


def test_exact_add_rejects_negative():
    x = make_float(-1, 0, 2, "10")
    y = make_float(1, 0, 2, "10")
    for a, b in ((x, x), (x, y), (y, x)):
        with pytest.raises(ValueError, match="positive operands only"):
            exact_add(a, b)
        with pytest.raises(ValueError, match="positive operands only"):
            exact_add_round(a, b, 2, RoundingMode.NEAREST_EVEN)


@given(
    m=st.integers(2, 120),
    n=st.integers(2, 120),
    d=st.integers(0, 140),
    e=st.integers(-30, 30),
    data=st.data(),
)
def test_exact_add_matches_rational_sum(m, n, d, e, data):
    mx = data.draw(st.integers(1 << (m - 1), (1 << m) - 1))
    my = data.draw(st.integers(1 << (n - 1), (1 << n) - 1))
    x = make_float(1, e, m, format(mx, f"0{m}b"))
    y = make_float(1, e - d, n, format(my, f"0{n}b"))
    total = exact_add(x, y)
    assert Fraction(total.magnitude) * pow2(total.exponent2) == float_value(x) + float_value(y)
    assert total.magnitude & 1 or total.exponent2 == min(
        x.exponent - x.precision, y.exponent - y.precision
    )


def test_exact_add_round_exact_case():
    x = make_float(1, 0, 2, "10")
    y = make_float(1, -1, 2, "10")
    for mode in RoundingMode:
        out = exact_add_round(x, y, 3, mode)
        assert out.result == make_float(1, 0, 3, "110")
        assert out.ternary == 0


def test_exact_add_round_overflow_on_doubling():
    emax = DEFAULT_CONTEXT.emax
    x = make_float(1, emax, 2, "11")
    out = exact_add_round(x, x, 2, RoundingMode.UP)
    assert out == Overflow(RoundingMode.UP, 1, 0)


def test_exact_add_round_stats_are_empty():
    x = make_float(1, 0, 4, "1011")
    out = exact_add_round(x, x, 4, RoundingMode.DOWN)
    assert (out.stats.x_limbs_read, out.stats.y_limbs_read) == (0, 0)
    assert out.stats.trailing_bits_examined == 0
    assert out.stats.limbs_touched == 0


@given(
    m=st.integers(2, 120),
    n=st.integers(2, 120),
    d=st.integers(0, 140),
    p=st.integers(2, 100),
    e=st.integers(-30, 30),
    mode=st.sampled_from(list(RoundingMode)),
    data=st.data(),
)
def test_exact_add_round_matches_rational_reference(m, n, d, p, e, mode, data):
    mx = data.draw(st.integers(1 << (m - 1), (1 << m) - 1))
    my = data.draw(st.integers(1 << (n - 1), (1 << n) - 1))
    x = make_float(1, e, m, format(mx, f"0{m}b"))
    y = make_float(1, e - d, n, format(my, f"0{n}b"))
    out = exact_add_round(x, y, p, mode)
    want_mant, want_e, want_ternary = frac_round(
        float_value(x) + float_value(y), p, mode
    )
    assert int(out.result.mantissa_bits(), 2) == want_mant
    assert out.result.exponent == want_e
    assert out.ternary == want_ternary
