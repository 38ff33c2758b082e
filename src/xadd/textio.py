"""Text form of values, results and test-fixture lines.

Grammar for a finite value:

    float := "0." bit+ ("e" int)?

The bit count sets the precision (so trailing zeros are significant), the
first bit must be 1, and a missing exponent means 0.  The canonical output
form always spells the exponent: ``0.1011e0``.  A token is split with string
operations and its mantissa digits are read once, by the guarded
``int(bits, 2)`` that `make_float` uses too (``core._bits_int``); only the
exponent goes through a regex.

Special values are written as tagged tokens: ``nan``, ``inf(+)``,
``inf(-)``, ``zero(+)``, ``zero(-)``, and ``overflow(+)`` / ``overflow(-)``
for a reported overflow.  They exist only at this layer; the arithmetic
core works on finite positive values and rejects them.

A fixture line records one addition:

    x y p mode -> result ternary

with ``#`` starting a comment and blank lines ignored, e.g.

    0.101111100101 0.11010e-7 2 nearest -> 0.11e0 +1
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import DEFAULT_CONTEXT, DEFAULT_MAX_PRECISION, Context, Float, FloatValueError
from .core import InvalidPrecision, NotNormalized, _bits_int, _clip, _quote, check_precision
from .core import make_float_from_int
from .rounding import Overflow, RoundingMode


class ParseError(ValueError):
    """Input does not match the value grammar or the fixture line format."""


# [0-9], not \d: \d and int() also take other scripts' decimal digits, and
# int() takes underscores and surrounding whitespace.
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_SPECIAL_RE = re.compile(r"(?P<kind>nan|inf|zero|overflow)(?:\((?P<sign>[+-])\))?\Z")
_TERNARY = {"-1": -1, "0": 0, "+1": 1}


@dataclass(frozen=True)
class SpecialValue:
    """A tagged non-finite token; `sign` is +1 or -1 (nan carries +1)."""

    kind: str  # "nan" | "inf" | "zero" | "overflow"
    sign: int


def parse_float(token: str, *, ctx: Context = DEFAULT_CONTEXT) -> Float:
    """Parse a finite positive value; raises ParseError on bad syntax and
    the construction errors (NotNormalized and friends) on bad content."""
    mark = token.find("e", 2)
    bits, digits = (token[2:], "0") if mark < 0 else (token[2:mark], token[mark + 1 :])
    mantissa = _bits_int(bits) if token.startswith("0.") and _INT_RE.match(digits) else None
    if mantissa is None:
        raise ParseError(f"not a binary float token: {_clip(repr(token))}")
    try:
        exponent = int(digits)
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(f"exponent has too many digits ({len(digits)})") from None
    if not 2 <= len(bits) <= DEFAULT_MAX_PRECISION:  # in the token's words, not a -p option's
        raise InvalidPrecision(
            f"a value needs 2 to {DEFAULT_MAX_PRECISION} mantissa bits, "
            f"{_clip(repr(token))} has {len(bits)}"
        )
    try:
        return make_float_from_int(1, exponent, len(bits), mantissa, ctx=ctx)
    except NotNormalized:  # after the precision and exponent checks, in make_float's words
        raise NotNormalized(f"leading mantissa bit must be 1: {_clip(repr(bits))}") from None


def parse_int(token: str) -> int:
    """An optionally signed run of ASCII decimal digits."""
    if _INT_RE.match(token) is None:
        raise ParseError(f"not an integer: {_clip(repr(token))}")
    try:
        return int(token)
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(f"integer has too many digits ({len(token)})") from None


def parse_token(token: str) -> Float | SpecialValue:
    """Parse either a finite value or one of the special tagged tokens."""
    special = _SPECIAL_RE.match(token)
    if special is not None:
        kind = special.group("kind")
        sign = special.group("sign")
        if kind == "nan" and sign is not None:
            raise ParseError("nan does not take a sign tag")
        if kind != "nan" and sign is None:
            raise ParseError(f"{kind} needs a sign tag, e.g. {kind}(+)")
        return SpecialValue(kind, -1 if sign == "-" else 1)
    return parse_float(token)


def format_float(x: Float) -> str:
    if x.sign < 0:
        raise ValueError("only positive finite values have a text form")
    return f"0.{x.mantissa_bits()}e{x.exponent}"


def format_special(value: SpecialValue) -> str:
    if value.kind == "nan":
        return "nan"
    return f"{value.kind}({'+' if value.sign > 0 else '-'})"


def format_ternary(ternary: int) -> str:
    if ternary not in (-1, 0, 1):
        raise ValueError(f"ternary must be -1, 0 or +1, got {_quote(ternary)}")
    return {-1: "-1", 0: "0", 1: "+1"}[ternary]


def format_outcome(result: Float | Overflow, ternary: int) -> str:
    """A rounded value, or the overflow token for an Overflow, and the ternary."""
    if isinstance(result, Overflow):
        token = format_special(SpecialValue("overflow", result.sign))
    else:
        token = format_float(result)
    return f"{token} {format_ternary(ternary)}"


def parse_ternary(token: str) -> int:
    try:
        return _TERNARY[token]
    except KeyError:
        raise ParseError(f"not a ternary token: {_clip(repr(token))}") from None


def parse_mode(token: str) -> RoundingMode:
    try:
        return RoundingMode(token)
    except ValueError:
        raise ParseError(f"not a rounding mode: {_clip(repr(token))}") from None


@dataclass(frozen=True)
class FixtureCase:
    """One recorded addition; `expected` is a Float or an overflow token."""

    x: Float
    y: Float
    precision: int
    mode: RoundingMode
    expected: Float | SpecialValue
    ternary: int


def parse_fixture_line(line: str) -> FixtureCase | None:
    """Parse one fixture line; returns None for blanks and comments."""
    text = line.split("#", 1)[0].strip()
    if not text:
        return None
    fields = text.split()
    if len(fields) != 7 or fields[4] != "->":
        raise ParseError(
            "fixture line must read 'x y p mode -> result ternary', got: " + _clip(text)
        )
    try:
        precision = parse_int(fields[2])
    except ParseError:
        raise ParseError(f"not a precision: {_clip(repr(fields[2]))}") from None
    try:
        check_precision(precision)
        x = parse_float(fields[0])
        y = parse_float(fields[1])
        expected = parse_token(fields[5])
    except FloatValueError as err:
        raise ParseError(str(err)) from None
    if isinstance(expected, SpecialValue) and expected.kind != "overflow":
        raise ParseError(f"recorded result must be a value or overflow: {fields[5]!r}")
    return FixtureCase(
        x, y, precision, parse_mode(fields[3]), expected, parse_ternary(fields[6])
    )


def format_fixture_line(
    x: Float,
    y: Float,
    precision: int,
    mode: RoundingMode,
    result: Float | Overflow,
    ternary: int,
) -> str:
    """Render one addition as a fixture line."""
    return (
        f"{format_float(x)} {format_float(y)} {precision} {mode.value}"
        f" -> {format_outcome(result, ternary)}"
    )
