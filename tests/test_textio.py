"""Text grammar: parsing, formatting, fixture lines."""

import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xadd import (
    Context,
    ExponentOutOfRange,
    FloatValueError,
    InvalidPrecision,
    NotNormalized,
    Overflow,
    ParseError,
    RoundingMode,
    format_float,
    make_float,
    make_float_from_int,
    parse_float,
)
from xadd.cli import (
    FixtureCase,
    SpecialValue,
    format_fixture_line,
    format_special,
    format_ternary,
    parse_fixture_line,
    parse_mode,
    parse_ternary,
    parse_token,
)
from xadd.core import DEFAULT_CONTEXT, DEFAULT_MAX_PRECISION
from xadd.textio import parse_int


def test_parse_with_exponent():
    x = parse_float("0.101e3")
    assert (x.sign, x.exponent, x.precision, x.mantissa_bits()) == (1, 3, 3, "101")


def test_parse_default_exponent():
    x = parse_float("0.10")
    assert (x.exponent, x.precision, x.mantissa_bits()) == (0, 2, "10")


def test_parse_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        parse_float("0.011e1")


def test_parse_rejects_single_bit():
    from xadd import InvalidPrecision

    with pytest.raises(InvalidPrecision):
        parse_float("0.1")


def test_parse_names_a_token_past_the_precision_cap():
    bits = DEFAULT_MAX_PRECISION + 1
    with pytest.raises(InvalidPrecision, match=rf"mantissa bits, '0\.111.*\.\.\. \(\d+ characters\) has {bits}$"):
        parse_float("0." + "1" * bits)


def test_parse_rejects_out_of_range_exponent():
    with pytest.raises(ExponentOutOfRange):
        parse_float(f"0.10e{DEFAULT_CONTEXT.emax + 1}")


@pytest.mark.parametrize(
    "bad",
    [
        "", "0.", "1.01", "0.102", "0.10e", "0.10e1.5", "0.10 e1", ".10", "0.10f2", "0,10",
        "0.10e\u0661", "0.10e1\u0662", "0.10e1_0",
        "0.0b1", "0.0B1", "0.1_0", "0.+1", "0.-1", "0. 1", "0.1 ", "0.1\n", "0.1\x1c", "0.\u06611", "0.1\u06610",
    ],
)
def test_parse_rejects_bad_syntax(bad):
    with pytest.raises(ParseError):
        parse_float(bad)


# The grammar as a regex, and a reference parser on it: int(bits, 2) takes
# more than [01]+, so these pin what the parsers must still refuse.
_FLOAT_GRAMMAR = re.compile(r"0\.([01]+)(?:e([+-]?[0-9]+))?\Z")
# Every character int() treats leniently, beside the grammar's own.
_LENIENT = "01eE.+-_bBx \t\n\x0b\x1c\u0661\u0662"
_SMALL_CTX = Context(emax=40)


@st.composite
def _near_miss(draw, valid):
    """A valid text with up to three characters from _LENIENT (or a 0b
    prefix) inserted or replaced, or text drawn from _LENIENT alone."""
    if draw(st.booleans()):
        return draw(st.text(_LENIENT, max_size=12))
    text = list(draw(valid))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        text[i : i + draw(st.integers(0, 1))] = draw(st.sampled_from([*_LENIENT, "0b", "0B"]))
    return "".join(text)


def _outcome(build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except Exception as err:  # compared by type and message
        return type(err), str(err)


def _parse_float_reference(token, ctx):
    match = _FLOAT_GRAMMAR.match(token)
    if match is None:
        raise ParseError(f"not a binary float token: {token!r}")
    bits, digits = match.group(1), match.group(2) or "0"
    try:
        exponent = int(digits)
    except ValueError:
        raise ParseError(f"exponent has too many digits ({len(digits)})") from None
    if not 2 <= len(bits) <= DEFAULT_MAX_PRECISION:
        raise InvalidPrecision(
            f"a value needs 2 to {DEFAULT_MAX_PRECISION} mantissa bits, {token!r} has {len(bits)}"
        )
    return make_float(1, exponent, len(bits), bits, ctx=ctx)


def _make_float_reference(bits):
    if re.fullmatch("[01]*", bits) is None:
        raise FloatValueError(f"mantissa may contain only 0 and 1: {bits!r}")
    if bits[0] != "1":
        raise NotNormalized(f"leading mantissa bit must be 1: {bits!r}")
    return make_float_from_int(1, 0, len(bits), int(bits, 2))


@settings(max_examples=1000, deadline=None)
@given(
    token=_near_miss(st.from_regex(r"0\.[01]{1,10}(e[+-]?[0-9]{1,3})?", fullmatch=True)),
    ctx=st.sampled_from([DEFAULT_CONTEXT, _SMALL_CTX]),
)
def test_parse_float_matches_the_grammar_regex(token, ctx):
    assert _outcome(parse_float, token, ctx=ctx) == _outcome(_parse_float_reference, token, ctx)


@settings(max_examples=1000, deadline=None)
@given(bits=_near_miss(st.text("01", min_size=2, max_size=10)).filter(lambda bits: len(bits) >= 2))
def test_make_float_matches_the_digit_regex(bits):
    assert _outcome(make_float, 1, 0, len(bits), bits) == _outcome(_make_float_reference, bits)


@pytest.mark.parametrize("limb_width", [32, 64])
def test_text_round_trip_at_the_precision_cap(limb_width):
    # A 2**24-bit token through parse and format: one quadratic step at this
    # size takes minutes.
    m = DEFAULT_MAX_PRECISION
    bits = format(1 << (m - 1) | random.Random(limb_width).getrandbits(m - 1), "b")
    token = f"0.{bits}e-5"
    ctx = Context(limb_width=limb_width)
    t0 = time.perf_counter()
    x = parse_float(token, ctx=ctx)
    assert format_float(x) == token
    assert x == make_float(1, -5, m, bits, ctx=ctx)
    assert time.perf_counter() - t0 < 20.0


def test_format_examples():
    assert format_float(make_float(1, 0, 4, "1011")) == "0.1011e0"
    assert format_float(make_float(1, -9, 2, "10")) == "0.10e-9"
    assert format_float(make_float(1, 30, 5, "10001")) == "0.10001e30"


def test_format_rejects_negative():
    with pytest.raises(ValueError):
        format_float(make_float(-1, 0, 2, "10"))


@given(
    p=st.integers(2, 90),
    e=st.integers(-200, 200),
    data=st.data(),
)
def test_round_trip_parse_format(p, e, data):
    mant = data.draw(st.integers(1 << (p - 1), (1 << p) - 1))
    x = make_float(1, e, p, format(mant, f"0{p}b"))
    assert parse_float(format_float(x)) == x


@pytest.mark.parametrize(
    "token,kind,sign",
    [
        ("nan", "nan", 1),
        ("inf(+)", "inf", 1),
        ("inf(-)", "inf", -1),
        ("zero(+)", "zero", 1),
        ("zero(-)", "zero", -1),
        ("overflow(+)", "overflow", 1),
        ("overflow(-)", "overflow", -1),
    ],
)
def test_special_tokens_round_trip(token, kind, sign):
    value = parse_token(token)
    assert value == SpecialValue(kind, sign)
    assert format_special(value) == token


def test_special_tokens_need_their_sign_rules():
    with pytest.raises(ParseError):
        parse_token("inf")
    with pytest.raises(ParseError):
        parse_token("nan(+)")


def test_parse_token_falls_back_to_float():
    assert parse_token("0.110e-2") == make_float(1, -2, 3, "110")


def test_ternary_tokens():
    assert [format_ternary(t) for t in (-1, 0, 1)] == ["-1", "0", "+1"]
    assert [parse_ternary(s) for s in ("-1", "0", "+1")] == [-1, 0, 1]
    with pytest.raises(ParseError):
        parse_ternary("1")
    with pytest.raises(ValueError):
        format_ternary(2)


def test_parse_mode_names():
    assert parse_mode("down") is RoundingMode.DOWN
    assert parse_mode("up") is RoundingMode.UP
    assert parse_mode("zero") is RoundingMode.TOWARD_ZERO
    assert parse_mode("nearest") is RoundingMode.NEAREST_EVEN
    with pytest.raises(ParseError):
        parse_mode("floor")


def test_fixture_line_round_trip():
    x = make_float(1, 0, 12, "101111100101")
    y = make_float(1, -7, 5, "11010")
    result = make_float(1, 0, 2, "11")
    line = format_fixture_line(x, y, 2, RoundingMode.NEAREST_EVEN, result, 1)
    assert line == "0.101111100101e0 0.11010e-7 2 nearest -> 0.11e0 +1"
    case = parse_fixture_line(line)
    assert case == FixtureCase(x, y, 2, RoundingMode.NEAREST_EVEN, result, 1)


def test_fixture_line_overflow_result():
    x = make_float(1, 0, 2, "11")
    line = format_fixture_line(x, x, 2, RoundingMode.UP, Overflow(RoundingMode.UP, 1, 1), 1)
    assert line.endswith("-> overflow(+) +1")
    case = parse_fixture_line(line)
    assert case.expected == SpecialValue("overflow", 1)
    assert case.ternary == 1


def test_fixture_comments_and_blanks_skipped():
    assert parse_fixture_line("") is None
    assert parse_fixture_line("   # just a comment") is None
    case = parse_fixture_line("0.10 0.10 2 down -> 0.10e1 0  # trailing note")
    assert case is not None and case.precision == 2


@pytest.mark.parametrize(
    "line",
    [
        "0.10 0.10 2 down 0.10e1 0",  # missing arrow
        "0.10 0.10 x down -> 0.10e1 0",  # bad precision
        "0.10 0.10 2 floor -> 0.10e1 0",  # bad mode
        "0.10 0.10 2 down -> 0.10e1",  # missing ternary
        "0.10 0.10 2 down -> nan 0",  # nan is not a result
        "0.10 0.01 2 down -> 0.10e1 0",  # unnormalized operand
        "0.11e0 0.10e0 0 nearest -> 0.10e0 0",  # precision below 2
        "0.11e0 0.10e0 99999999999 nearest -> 0.10e0 0",  # precision above the cap
        "0.11e0 0.10e0 \u0662 nearest -> 0.10e0 0",  # a digit that is not ASCII
        "0.11e0 0.10e0 1_0 nearest -> 0.10e0 0",  # int() would read 10
    ],
)
def test_fixture_line_rejects_malformed(line):
    with pytest.raises(ParseError):
        parse_fixture_line(line)


def test_parse_int_refuses_more_digits_than_int_converts():
    # CPython converts at most 4300 decimal digits by default.
    with pytest.raises(ParseError, match=r"integer has too many digits \(5000\)"):
        parse_int("9" * 5000)


_LONG_BITS = "1" * (1 << 20)


@pytest.mark.parametrize(
    "parse, text, error, prefix",
    [
        (parse_float, f"0.{_LONG_BITS}x", ParseError, "not a binary float token: '0.111"),
        (parse_float, f"0.0{_LONG_BITS}", NotNormalized, "leading mantissa bit must be 1: '011"),
        (parse_int, "x" * 10**6, ParseError, "not an integer: 'xxx"),
        (parse_ternary, "+" * 10**6, ParseError, "not a ternary token: '+++"),
        (parse_mode, "d" * 10**6, ParseError, "not a rounding mode: 'ddd"),
        (parse_fixture_line, "0.10 " * 10**5, ParseError,
         "fixture line must read 'x y p mode -> result ternary', got: 0.10 0.10"),
        (parse_fixture_line, f"0.10 0.10 {'9' * 5000} down -> 0.10e1 0", ParseError,
         "not a precision: '999"),
        (parse_fixture_line, f"0.10 0.10 2 down -> 0.0{_LONG_BITS} 0", ParseError,
         "leading mantissa bit must be 1: '011"),
    ],
    ids=["token", "leading-bit", "int", "ternary", "mode", "line", "precision", "result"],
)
def test_messages_quote_a_long_input_by_its_prefix_and_length(parse, text, error, prefix):
    with pytest.raises(error) as raised:
        parse(text)
    message = str(raised.value)
    assert message.startswith(prefix) and "characters)" in message and len(message) < 200
