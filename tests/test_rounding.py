"""Rounding decisions, integer rounding with carry, single-value precision change."""

from enum import Enum
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xadd import DEFAULT_CONTEXT, Context, Overflow, RoundingMode, make_float, round_to_prec
from xadd.rounding import decide_round, round_magnitude

from .helpers import float_value, frac_round

D, U, Z, N = (
    RoundingMode.DOWN,
    RoundingMode.UP,
    RoundingMode.TOWARD_ZERO,
    RoundingMode.NEAREST_EVEN,
)


class RoundAction(Enum):
    """The table's action column: increment exactly when the ternary is +1."""

    TRUNCATE = "truncate"
    INCREMENT = "increment"


TRUNC, INC = RoundAction.TRUNCATE, RoundAction.INCREMENT

# All 32 cells: mode, r, s, last kept bit -> action, ternary.  Directed
# modes ignore the last bit; nearest consults it only on the r=1, s=0 tie.
DECISION_TABLE = [
    (D, 0, 0, 0, TRUNC, 0),
    (D, 0, 0, 1, TRUNC, 0),
    (D, 0, 1, 0, TRUNC, -1),
    (D, 0, 1, 1, TRUNC, -1),
    (D, 1, 0, 0, TRUNC, -1),
    (D, 1, 0, 1, TRUNC, -1),
    (D, 1, 1, 0, TRUNC, -1),
    (D, 1, 1, 1, TRUNC, -1),
    (U, 0, 0, 0, TRUNC, 0),
    (U, 0, 0, 1, TRUNC, 0),
    (U, 0, 1, 0, INC, 1),
    (U, 0, 1, 1, INC, 1),
    (U, 1, 0, 0, INC, 1),
    (U, 1, 0, 1, INC, 1),
    (U, 1, 1, 0, INC, 1),
    (U, 1, 1, 1, INC, 1),
    (Z, 0, 0, 0, TRUNC, 0),
    (Z, 0, 0, 1, TRUNC, 0),
    (Z, 0, 1, 0, TRUNC, -1),
    (Z, 0, 1, 1, TRUNC, -1),
    (Z, 1, 0, 0, TRUNC, -1),
    (Z, 1, 0, 1, TRUNC, -1),
    (Z, 1, 1, 0, TRUNC, -1),
    (Z, 1, 1, 1, TRUNC, -1),
    (N, 0, 0, 0, TRUNC, 0),
    (N, 0, 0, 1, TRUNC, 0),
    (N, 0, 1, 0, TRUNC, -1),
    (N, 0, 1, 1, TRUNC, -1),
    (N, 1, 0, 0, TRUNC, -1),  # tie, even mantissa stays
    (N, 1, 0, 1, INC, 1),  # tie, odd mantissa rounds up
    (N, 1, 1, 0, INC, 1),
    (N, 1, 1, 1, INC, 1),
]


@pytest.mark.parametrize("mode,r,s,last_bit,action,ternary", DECISION_TABLE)
def test_decide_round_table(mode, r, s, last_bit, action, ternary):
    assert decide_round(mode, r, s, last_bit) == ternary
    assert (action == INC) == (ternary == 1)


def test_decide_round_exact_iff_both_bits_clear():
    for mode, r, s, last_bit, _, ternary in DECISION_TABLE:
        assert (ternary == 0) == (r == 0 and s == 0)


def test_round_magnitude_simple_increment():
    assert round_magnitude(0b10101, 4, RoundingMode.UP) == (0b1011, 0, 1)


def test_round_magnitude_full_carry_renormalizes():
    assert round_magnitude(0b11111, 4, RoundingMode.UP) == (0b1000, 1, 1)


def test_round_magnitude_matches_rational_reference_exhaustively():
    # The engine, the oracle and round_to_prec all round through
    # round_magnitude, so their agreement cannot catch a fault in it; the
    # rational reference shares no code with it.  Magnitudes no longer than
    # the precision are padded exactly.
    for mode in RoundingMode:
        for p in range(2, 11):
            for magnitude in range(1, 1 << 11):
                mantissa, carry, ternary = round_magnitude(magnitude, p, mode)
                exponent = magnitude.bit_length() + carry
                assert (mantissa, exponent, ternary) == frac_round(Fraction(magnitude), p, mode)


def test_round_to_prec_increment_overflows_at_emax():
    ctx = Context(emax=40)
    x = make_float(1, 40, 3, "111", ctx=ctx)
    assert round_to_prec(x, 2, RoundingMode.UP, ctx=ctx) == Overflow(RoundingMode.UP, 1, 1)
    assert round_to_prec(x, 2, RoundingMode.NEAREST_EVEN, ctx=ctx) == Overflow(
        RoundingMode.NEAREST_EVEN, 1, 1
    )
    assert round_to_prec(x, 2, RoundingMode.DOWN, ctx=ctx) == (make_float(1, 40, 2, "11"), -1)


def test_round_to_prec_carry_crosses_limb_boundary():
    # p = 33 at 32-bit limbs: the increment carries from the lone bit of the
    # second limb into the first.
    ctx32 = Context(limb_width=32)
    x = make_float(1, 0, 34, "1" + "0" * 31 + "11", ctx=ctx32)
    rounded, ternary = round_to_prec(x, 33, RoundingMode.UP, ctx=ctx32)
    assert rounded.limbs == (0x80000001, 0) and rounded.exponent == 0 and ternary == 1
    assert rounded.mantissa_bits() == "1" + "0" * 30 + "10"

    y = make_float(1, 0, 34, "1" * 34, ctx=ctx32)
    rounded, ternary = round_to_prec(y, 33, RoundingMode.UP, ctx=ctx32)
    assert rounded.limbs == (0x80000000, 0) and rounded.exponent == 1 and ternary == 1


def test_round_to_prec_identity_at_same_precision():
    # Exact, so x's exponent is kept even above the context's emax.
    x = make_float(1, 0, 3, "101")
    for mode in RoundingMode:
        assert round_to_prec(x, 3, mode) == (x, 0)
        assert round_to_prec(x, 3, mode, ctx=Context(emax=-1)) == (x, 0)


def test_round_to_prec_widening_pads_zeros():
    x = make_float(1, 2, 3, "101")
    rounded, ternary = round_to_prec(x, 7, RoundingMode.DOWN)
    assert rounded.mantissa_bits() == "1010000"
    assert rounded.exponent == 2 and ternary == 0
    assert float_value(rounded) == float_value(x)
    assert round_to_prec(x, 7, RoundingMode.DOWN, ctx=Context(emax=1)) == (rounded, 0)


def test_round_to_prec_truncates_down():
    x = make_float(1, 0, 4, "1011")
    assert round_to_prec(x, 2, RoundingMode.DOWN) == (make_float(1, 0, 2, "10"), -1)


def test_round_to_prec_nearest_increments():
    x = make_float(1, 0, 4, "1011")
    assert round_to_prec(x, 2, RoundingMode.NEAREST_EVEN) == (make_float(1, 0, 2, "11"), 1)


def test_round_to_prec_carry_bumps_exponent():
    x = make_float(1, 0, 4, "1111")
    assert round_to_prec(x, 2, RoundingMode.UP) == (make_float(1, 1, 2, "10"), 1)


def test_round_to_prec_overflow():
    emax = DEFAULT_CONTEXT.emax
    x = make_float(1, emax, 4, "1111")
    assert round_to_prec(x, 2, RoundingMode.UP) == Overflow(RoundingMode.UP, 1, 1)
    assert round_to_prec(x, 2, RoundingMode.DOWN) == (make_float(1, emax, 2, "11"), -1)


def test_round_to_prec_rejects_negative():
    x = make_float(-1, 0, 2, "10")
    with pytest.raises(ValueError):
        round_to_prec(x, 2, RoundingMode.DOWN)


@given(
    p_in=st.integers(2, 90),
    p_out=st.integers(2, 90),
    mode=st.sampled_from(list(RoundingMode)),
    exponent=st.integers(-50, 50),
    data=st.data(),
)
def test_round_to_prec_matches_rational_reference(p_in, p_out, mode, exponent, data):
    mant = data.draw(st.integers(1 << (p_in - 1), (1 << p_in) - 1))
    bits = format(mant, f"0{p_in}b")
    x = make_float(1, exponent, p_in, bits)
    got = round_to_prec(x, p_out, mode)
    assert not isinstance(got, Overflow)
    rounded, ternary = got
    want_mant, want_e, want_ternary = frac_round(float_value(x), p_out, mode)
    assert int(rounded.mantissa_bits(), 2) == want_mant
    assert rounded.exponent == want_e
    assert ternary == want_ternary


@given(
    p_out=st.integers(2, 40),
    exponent=st.integers(-20, 20),
    data=st.data(),
)
def test_round_to_prec_directed_sandwich(p_out, exponent, data):
    p_in = data.draw(st.integers(2, 80))
    mant = data.draw(st.integers(1 << (p_in - 1), (1 << p_in) - 1))
    x = make_float(1, exponent, p_in, format(mant, f"0{p_in}b"))
    down, _ = round_to_prec(x, p_out, RoundingMode.DOWN)
    up, _ = round_to_prec(x, p_out, RoundingMode.UP)
    assert float_value(down) <= float_value(x) <= float_value(up)
    # The nearest result is within half an ulp of the pre-carry exponent.
    near, _ = round_to_prec(x, p_out, RoundingMode.NEAREST_EVEN)
    assert abs(float_value(near) - float_value(x)) <= Fraction(2) ** (x.exponent - p_out - 1)
    # Toward-zero coincides with down on positive values.
    assert round_to_prec(x, p_out, RoundingMode.TOWARD_ZERO) == (
        down,
        round_to_prec(x, p_out, RoundingMode.DOWN)[1],
    )
