"""Value representation: construction, validation, limb storage."""

import random
import re
import struct
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xadd import (
    Context,
    ExponentOutOfRange,
    Float,
    FloatValueError,
    InvalidPrecision,
    NotNormalized,
    RoundingMode,
    add_positive,
    make_float,
    make_float_from_int,
    round_to_prec,
)
from xadd.core import DEFAULT_EMIN, DEFAULT_MAX_PRECISION, _clip
from xadd.core import _limb_struct, float_from_mantissa, limb_count, mantissa_is_normalized
from xadd.cli import format_ternary
from xadd.engine import _join

from .helpers import float_value


def test_make_float_half():
    x = make_float(1, 0, 2, "10")
    assert float_value(x) == Fraction(1, 2)
    assert x.sign == 1 and x.exponent == 0 and x.precision == 2


def test_make_float_five():
    assert float_value(make_float(1, 3, 3, "101")) == 5


def test_make_float_rejects_leading_zero():
    with pytest.raises(NotNormalized):
        make_float(1, 0, 2, "01")


def test_make_float_rejects_short_precision():
    with pytest.raises(InvalidPrecision):
        make_float(1, 0, 1, "1")


def test_make_float_rejects_bit_count_mismatch():
    with pytest.raises(InvalidPrecision):
        make_float(1, 0, 3, "10")


def test_make_float_rejects_bad_characters():
    # int(bits, 2) takes all but "1x": a non-ASCII digit, an underscore, a
    # sign, a 0b prefix and surrounding whitespace (\x1c counts as whitespace).
    for bits in ("1x", "1\u0661", "1_", "+1", "1 ", "1\n", "\x1c1", "1\x1c", "0b1", "0B1", "1\u06610"):
        with pytest.raises(FloatValueError):
            make_float(1, 0, len(bits), bits)


@pytest.mark.parametrize("sign", [0, 2, -2, 1.0, -1.0, True])
def test_public_builders_reject_a_sign_other_than_plus_or_minus_one(sign):
    # 1.0 and True compare equal to 1, so an equality test alone lets them in.
    with pytest.raises(FloatValueError, match="sign must be"):
        make_float(sign, 0, 2, "10")
    with pytest.raises(FloatValueError, match="sign must be"):
        make_float_from_int(sign, 0, 2, 0b10)
    with pytest.raises(FloatValueError, match="sign must be"):
        Float(sign, 0, 2, (1 << 63,), 64)
    with pytest.raises(NotNormalized):  # the leading bit is checked first
        make_float_from_int(sign, 0, 2, 0b01)
    assert make_float(-1, 0, 2, "10") == make_float_from_int(-1, 0, 2, 0b10)


@pytest.mark.parametrize("exponent", [2.5, 2.0, True, "2", None])
def test_float_rejects_an_exponent_that_is_not_an_int(exponent):
    # A float exponent would format as 0.10e2.5, which does not parse back.
    with pytest.raises(ExponentOutOfRange, match="exponent must be an int"):
        Float(1, exponent, 2, (1 << 63,), 64)


def test_exponent_bounds_checked():
    ctx = Context()
    make_float(1, ctx.emax, 2, "10")
    make_float(1, DEFAULT_EMIN, 2, "10")
    with pytest.raises(ExponentOutOfRange):
        make_float(1, ctx.emax + 1, 2, "10")
    with pytest.raises(ExponentOutOfRange):
        make_float(1, DEFAULT_EMIN - 1, 2, "10")


def test_context_emax_may_not_fall_below_emin():
    assert Context(emax=DEFAULT_EMIN).emax == DEFAULT_EMIN
    with pytest.raises(ValueError, match="emin must not exceed emax"):
        Context(emax=DEFAULT_EMIN - 1)


@pytest.mark.parametrize("width", [64.0, 32.0, 64 + 0j])
def test_context_refuses_a_limb_width_that_is_not_an_int(width):
    # 64.0 in (32, 64) holds, and every value built would then shift by a float.
    with pytest.raises(ValueError, match=r"limb_width must be one of \(32, 64\)"):
        Context(limb_width=width)


@pytest.mark.parametrize("emax", [1.5, True, "7", None, 2.0**30])
def test_context_refuses_an_emax_that_is_not_an_int(emax):
    with pytest.raises(ValueError, match=rf"emax must be an int, got {re.escape(repr(emax))}$"):
        Context(emax=emax)


def test_range_error_quotes_an_emax_too_long_for_decimal():
    ctx = Context(emax=1 << 20000)
    with pytest.raises(ExponentOutOfRange, match=r"outside \[-1073741823, an int of 20001 bits\]"):
        make_float(1, 1 << 20001, 2, "10", ctx=ctx)


def test_precision_cap_checked():
    p = DEFAULT_MAX_PRECISION + 1
    with pytest.raises(InvalidPrecision):
        make_float_from_int(1, 0, p, 1 << (p - 1))
    with pytest.raises(InvalidPrecision):
        Float(1, 0, p, (1 << 63,) + (0,) * (limb_count(p, 64) - 1), 64)


def test_clip_quotes_up_to_80_characters_whole():
    assert _clip("x" * 80) == "x" * 80
    assert _clip("x" * 81) == "x" * 80 + "... (81 characters)"


_LONG = 1 << 20
_NINES = int("9" * 4000)
_TWO = make_float(1, 2, 2, "10")


@pytest.mark.parametrize(
    "build, error, prefix",
    [
        (lambda: make_float(1, 0, _LONG, "1" * (_LONG - 1) + "x"), FloatValueError,
         "mantissa may contain only 0 and 1: '111"),
        (lambda: make_float(1, 0, _LONG, "0" + "1" * (_LONG - 1)), NotNormalized,
         "leading mantissa bit must be 1: '011"),
        (lambda: Float(1, 0, 64 * 16384, (0,) * 16384, 64), NotNormalized, "mantissa (0, 0, "),
        (lambda: make_float_from_int(1, 0, 2, 1 << _LONG), NotNormalized, "mantissa 0x100"),
        (lambda: make_float_from_int(1, 0, _NINES, 1), InvalidPrecision,
         f"precision must lie in [2, {DEFAULT_MAX_PRECISION}], got 999"),
        (lambda: make_float_from_int(1, -_NINES, 2, 2), ExponentOutOfRange, "exponent -999"),
        (lambda: add_positive(_TWO, _TWO, 2, "x" * 10**6), ValueError, "not a rounding mode: 'xxx"),
        (lambda: round_to_prec(_TWO, 2, "y" * 10**6), ValueError, "not a rounding mode: 'yyy"),
        (lambda: format_ternary("z" * 10**6), ValueError, "ternary must be -1, 0 or +1, got 'zzz"),
    ],
    ids=[
        "digits", "leading-bit", "limbs", "mantissa-int", "precision", "exponent",
        "add-mode", "round-mode", "ternary",
    ],
)
def test_messages_quote_a_long_input_by_its_prefix_and_length(build, error, prefix):
    with pytest.raises(error) as raised:
        build()
    message = str(raised.value)
    assert message.startswith(prefix) and "characters)" in message and len(message) < 200


_HUGE = 10**5000  # more decimal digits than CPython writes by default
_HALF = (1 << 63,)


@pytest.mark.parametrize(
    "build, error, prefix",
    [
        (lambda: make_float_from_int(1, 0, _HUGE, 1), InvalidPrecision,
         f"precision must lie in [2, {DEFAULT_MAX_PRECISION}], got an int of"),
        (lambda: Float(1, 0, _HUGE, _HALF, 64), InvalidPrecision,
         f"precision must lie in [2, {DEFAULT_MAX_PRECISION}], got an int of"),
        (lambda: make_float_from_int(1, _HUGE, 2, 2), ExponentOutOfRange, "exponent an int of"),
        (lambda: Float(1, "x" * 10**6, 2, _HALF, 64), ExponentOutOfRange,
         "exponent must be an int, got 'xxx"),
        (lambda: make_float("x" * 10**6, 0, 2, "10"), FloatValueError, "sign must be +1 or -1, got 'xxx"),
        (lambda: Float(_HUGE, 0, 2, _HALF, 64), FloatValueError, "sign must be +1 or -1, got an int of"),
        (lambda: Float(1, 0, 2, _HALF, _HUGE), NotNormalized, "mantissa (9223372036854775808,)"),
    ],
    ids=["precision", "float-precision", "exponent", "exponent-type", "sign-type", "sign", "limb-width"],
)
def test_messages_stay_short_for_a_huge_int_or_a_long_non_int(build, error, prefix):
    with pytest.raises(error) as raised:
        build()
    message = str(raised.value)
    assert message.startswith(prefix) and len(message) < 200


def test_negative_sign_is_representable():
    x = make_float(-1, 0, 2, "10")
    assert float_value(x) == Fraction(-1, 2)


@pytest.mark.parametrize("width", [32, 64])
def test_round_trip_across_limb_boundaries(width):
    # Every precision up to a few limbs, catching each boundary alignment.
    ctx = Context(limb_width=width)
    for p in range(2, 4 * width + 4):
        bits = "1" + "10" * ((p - 1) // 2) + "0" * ((p - 1) % 2)
        bits = bits[:p]
        x = make_float(1, 5, p, bits, ctx=ctx)
        assert x.mantissa_bits() == bits
        assert x.precision == p
        assert x.exponent == 5
        assert len(x.limbs) == limb_count(p, width)
        assert mantissa_is_normalized(x.limbs, p, width)


@given(
    p=st.integers(2, 200),
    data=st.data(),
    width=st.sampled_from([32, 64]),
)
def test_round_trip_random_mantissas(p, data, width):
    mant = data.draw(st.integers(1 << (p - 1), (1 << p) - 1))
    ctx = Context(limb_width=width)
    x = make_float_from_int(1, -7, p, mant, ctx=ctx)
    assert int(x.mantissa_bits(), 2) == mant
    assert float_value(x) == Fraction(mant, 1 << p) * Fraction(2) ** -7


def test_validator_rejects_dirty_storage_bits():
    # Bits below the precision inside the last limb must stay zero.
    good = make_float(1, 0, 2, "11")
    assert mantissa_is_normalized(good.limbs, 2, 64)
    dirty = (good.limbs[0] | 1,)
    assert not mantissa_is_normalized(dirty, 2, 64)
    with pytest.raises(NotNormalized):
        Float(1, 0, 2, dirty, 64)


def test_validator_rejects_cleared_top_bit():
    assert not mantissa_is_normalized((1 << 62,), 2, 64)


@pytest.mark.parametrize("fill", ["zeros", "ones", "random"])
@pytest.mark.parametrize("count", range(10))
@pytest.mark.parametrize("width", [32, 64])
def test_limbs_from_int_msb_first(width, count, fill):
    # Named for the split that the buffer replaced.  A mantissa's limbs are
    # its big-endian bytes, `limb_width // 8` per limb, and the codec reads
    # them back with one struct call.  Every run, zero limbs
    # included, must give what one big-endian struct call over it gives, and
    # a normalized one must be stored so by float_from_mantissa's to_bytes.
    code = f">{count}{'I' if width == 32 else 'Q'}"
    rng = random.Random(width * 100 + count)
    draw = {"zeros": lambda: 0, "ones": lambda: (1 << width) - 1}.get(fill, lambda: rng.getrandbits(width))
    want = tuple(draw() for _ in range(count))
    value = int.from_bytes(struct.pack(code, *want), "big")
    buffer = value.to_bytes(count * width // 8, "big")
    limbs = _limb_struct(count, width).unpack(buffer)
    assert limbs == struct.unpack(code, buffer) == want
    assert type(limbs) is tuple and all(type(limb) is int for limb in limbs)
    assert _limb_struct(count, width).pack(*limbs) == buffer
    assert int.from_bytes(buffer, "big") == value
    if count and want[0] >> (width - 1):  # a normalized mantissa of count * width bits
        x = float_from_mantissa(1, 0, count * width, value, width)
        assert type(x.limb_bytes) is bytes and x.limb_bytes == buffer
        assert x.limbs == want and x.mantissa_int() == value


def test_float_equality_is_structural():
    assert make_float(1, 0, 4, "1010") == make_float(1, 0, 4, "1010")
    assert make_float(1, 0, 4, "1010") != make_float(1, 0, 4, "1011")
    assert make_float(1, 0, 2, "10") != make_float(1, 1, 2, "10")


def _shaped_run(shape: str, count: int, width: int, rng: random.Random) -> tuple[int, ...]:
    """A run of `count` limbs of the named shape; shapes a run too short for
    fall back to what fits (a zero-led run with a later zero needs 3 limbs)."""
    nonzero = lambda: rng.randrange(1, 1 << width)
    if shape == "zeros" or count == 0:
        return (0,) * count
    if shape == "leading_zeros":
        lead = rng.randint(1, count)
        return (0,) * lead + tuple(nonzero() for _ in range(count - lead))
    if shape == "scattered":  # a nonzero first limb, zeros anywhere after it
        return (nonzero(),) + tuple(rng.choice((0, nonzero())) for _ in range(count - 1))
    # zero_led_later_zero: zeros lead, a nonzero limb follows, then a zero
    # somewhere after it, possibly the last limb.
    if count < 3:
        return (0,) * (count - 1) + (nonzero(),)
    lead = rng.randint(1, count - 2)
    rest = [nonzero() for _ in range(count - lead)]
    rest[rng.randint(1, len(rest) - 1)] = 0
    return (0,) * lead + tuple(rest)


def _shift_join(limbs: tuple[int, ...], width: int) -> int:
    value = 0
    for limb in limbs:
        value = value << width | limb
    return value


@pytest.mark.parametrize("shape", ["zeros", "leading_zeros", "scattered", "zero_led_later_zero"])
@pytest.mark.parametrize("width", [32, 64])
def test_int_from_limbs_matches_one_struct_call_on_shaped_runs(width, shape):
    # Named for the join that `_join`'s int.from_bytes replaced.  A run of
    # limbs is a slice of the buffer that Float(...) packed, and `_join`
    # reads it with one int.from_bytes at any length, zero-led or not.  Runs of 0..40 limbs,
    # stored behind a leading limb, must each join to what one big-endian
    # struct call gives, as x's run and as y's run at an offset.
    rng = random.Random(f"{width}-{shape}")
    size = width // 8
    for count in range(41):
        for _ in range(8):
            limbs = _shaped_run(shape, count, width, rng)
            assert len(limbs) == count
            code = f">{count}{'I' if width == 32 else 'Q'}"
            want = int.from_bytes(struct.pack(code, *limbs), "big")
            assert want == _shift_join(limbs, width)
            x = Float(1, 0, (count + 1) * width, (1 << (width - 1),) + limbs, width)
            run = x.limb_bytes[size:]
            assert len(run) == count * size
            top = count * width + 3
            assert _join(run, b"", 0, top) == (want << 3, 0)
            for yd in (0, 5, width):
                shift = top - yd - count * width
                got = want << shift if shift >= 0 else want >> -shift
                assert _join(b"", run, yd, top) == (0, got)
                assert type(got) is int


@pytest.mark.parametrize(
    "limbs, precision",
    [
        ([1 << 63], 2),
        ([1 << 63, 0], 128),
        ((1.5,), 2),
        (("a",), 2),
        ((1 << 63, True), 128),
        ((float(1 << 63),), 2),
        (bytearray(b"\x80"), 2),
    ],
    ids=["list", "long-list", "float", "str", "bool", "whole-float", "bytearray"],
)
def test_float_refuses_limbs_that_are_not_a_tuple_of_ints(limbs, precision):
    # A list is mutable and unhashable; a float, str or bool limb is no
    # machine word (the True here would pass as a last limb of 1).  Each is
    # a FloatValueError with the input quoted, never a TypeError.
    with pytest.raises(NotNormalized, match=r"^limbs must be a tuple of ints, got "):
        Float(1, 0, precision, limbs, 64)


def test_float_refuses_a_limb_width_that_is_not_an_int():
    # 64.0 == 64, so a membership test alone lets it through to the shifts.
    with pytest.raises(NotNormalized):
        Float(1, 0, 2, (1 << 63,), 64.0)


def test_float_accepts_a_tuple_subclass_and_stays_hashable():
    class Limbs(tuple):
        pass

    x = Float(1, 0, 2, Limbs((1 << 63,)), 64)
    assert hash(x) == hash(Float(1, 0, 2, (1 << 63,), 64))
    assert x == make_float(1, 0, 2, "10")


# --- the storage contract: a limb tuple in, one bytes buffer kept ---------


class _Limbs(tuple):
    pass


@st.composite
def _mantissas(draw):
    """(width, precision, mantissa, limbs) of a normalized mantissa."""
    width = draw(st.sampled_from([32, 64]))
    precision = draw(st.integers(2, 6 * width + 1))
    mantissa = draw(st.integers(1 << (precision - 1), (1 << precision) - 1))
    count = limb_count(precision, width)
    padded = mantissa << (count * width - precision)
    limbs = tuple(padded >> (width * (count - 1 - i)) & ((1 << width) - 1) for i in range(count))
    return width, precision, mantissa, limbs


@given(_mantissas(), st.integers(-1000, 1000), st.sampled_from([1, -1]))
def test_constructor_and_trusted_builder_store_the_same_value(case, exponent, sign):
    width, precision, mantissa, limbs = case
    built = float_from_mantissa(sign, exponent, precision, mantissa, width)
    for given_limbs in (limbs, _Limbs(limbs)):
        x = Float(sign, exponent, precision, given_limbs, width)
        assert x == built and hash(x) == hash(built)
        assert type(x.limb_bytes) is bytes and x.limb_bytes == built.limb_bytes
    # The hash is the one of the fields with the limbs as a tuple, as before
    # the buffer: the same in every process, whatever the hash seed.
    assert hash(built) == hash((sign, exponent, precision, limbs, width))


@given(_mantissas(), st.integers(-1000, 1000))
def test_limbs_view_round_trips_through_the_buffer(case, exponent):
    width, precision, mantissa, limbs = case
    x = Float(1, exponent, precision, limbs, width)
    assert len(x.limb_bytes) == len(limbs) * width // 8
    assert x.limb_bytes == b"".join(limb.to_bytes(width // 8, "big") for limb in limbs)
    assert x.limbs == limbs and type(x.limbs) is tuple
    assert all(type(limb) is int for limb in x.limbs)
    assert Float(1, exponent, precision, x.limbs, width) == x
    assert x.mantissa_int() >> (len(limbs) * width - precision) == mantissa
    assert x.mantissa_bits() == format(mantissa, "b")


@given(_mantissas(), st.integers(-1000, 1000))
def test_repr_spells_the_limbs_as_a_tuple(case, exponent):
    width, precision, _, limbs = case
    x = Float(-1, exponent, precision, _Limbs(limbs), width)
    assert repr(x) == (
        f"Float(sign=-1, exponent={exponent}, precision={precision}, limbs={limbs!r}, limb_width={width})"
    )


@given(_mantissas(), st.integers(-1000, 1000))
def test_positional_match_binds_the_limbs_tuple(case, exponent):
    # A positional class pattern binds the limbs as a tuple, not the buffer.
    width, precision, mantissa, limbs = case
    match float_from_mantissa(-1, exponent, precision, mantissa, width):
        case Float(sign, e, p, got, w):
            assert (sign, e, p, got, w) == (-1, exponent, precision, limbs, width)
            assert type(got) is tuple
        case _:
            pytest.fail("a Float did not match its class pattern")


def test_repr_of_a_known_value():
    assert repr(make_float(1, 3, 65, "1" + "0" * 63 + "1", ctx=Context(limb_width=32))) == (
        "Float(sign=1, exponent=3, precision=65, limbs=(2147483648, 0, 2147483648), limb_width=32)"
    )


@given(_mantissas())
def test_constructor_refuses_with_the_messages_of_the_tuple_storage(case):
    width, precision, _, limbs = case
    with pytest.raises(NotNormalized, match=r"^limbs must be a tuple of ints, got \[") as refused:
        Float(1, 0, precision, list(limbs), width)
    assert str(refused.value) == f"limbs must be a tuple of ints, got {_clip(repr(list(limbs)))}"
    flagged = limbs[:-1] + (True,)
    with pytest.raises(NotNormalized, match=r"^limbs must be a tuple of ints, got "):
        Float(1, 0, precision, flagged, width)
    unnormalized = (limbs[0] >> 1,) + limbs[1:]  # the leading bit cleared
    with pytest.raises(NotNormalized) as refused:
        Float(1, 0, precision, unnormalized, width)
    assert str(refused.value) == (
        f"mantissa {_clip(repr(unnormalized))} is not a normalized {precision}-bit value at width {width}"
    )


def test_frozen_value_refuses_assignment():
    x = make_float(1, 0, 2, "11")
    for name in ("sign", "exponent", "precision", "limb_bytes", "limb_width"):
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, getattr(x, name))
    # The view is no field, and the frozen __setattr__ of a slotted
    # dataclass refuses other names with an AttributeError or, on CPython
    # 3.11, a TypeError.  Either way the value keeps its limbs.
    with pytest.raises((AttributeError, TypeError)):
        x.limbs = (1 << 63,)
    assert x.limbs == (3 << 62,)


def test_int_from_limbs_packs_only_what_shifts_and_counts_cannot_join(monkeypatch):
    # Named for the join that `_join`'s int.from_bytes replaced.  No join
    # packs a struct: `_join` reads runs of 0..12 limbs, led by any
    # number of zeros, with one int.from_bytes per operand and no struct
    # call.  Only Float(...) and the limbs view compile one, a pack or an
    # unpack of the whole mantissa.
    import xadd.core

    calls = []
    compile_struct = xadd.core._limb_struct
    monkeypatch.setattr(
        xadd.core, "_limb_struct", lambda count, width: calls.append(count) or compile_struct(count, width)
    )
    rng = random.Random(14)
    for width in (32, 64):
        big = lambda: rng.randrange(2, 1 << width)
        for count in range(13):
            for lead in range(count + 1):
                limbs = (0,) * lead + tuple(big() for _ in range(count - lead))
                code = f">{count}{'I' if width == 32 else 'Q'}"
                run = struct.pack(code, *limbs)
                calls.clear()
                got = _join(run, run, 0, count * width)
                assert calls == []
                assert got == (_shift_join(limbs, width),) * 2
        x = Float(1, 0, 3 * width, (1 << (width - 1), 0, big()), width)
        assert calls == [3]
        assert x.limbs[0] == 1 << (width - 1) and calls == [3, 3]
