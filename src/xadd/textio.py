"""Text form of finite values.

Grammar for a finite value:

    float := "0." bit+ ("e" int)?

The bit count sets the precision (so trailing zeros are significant), the
first bit must be 1, and a missing exponent means 0.  The canonical output
form always spells the exponent: ``0.1011e0``.  A token is split with string
operations and its mantissa digits are read once, by the guarded
``int(bits, 2)`` that `make_float` uses too (``core._bits_int``); only the
exponent goes through a regex.
"""

from __future__ import annotations

import re

from .core import DEFAULT_CONTEXT, DEFAULT_MAX_PRECISION, Context, Float, InvalidPrecision
from .core import NotNormalized, _bits_int, _clip, make_float_from_int


class ParseError(ValueError):
    """Input does not match the value grammar or the fixture line format."""


# [0-9], not \d: \d and int() also take other scripts' decimal digits, and
# int() takes underscores and surrounding whitespace.
_INT_RE = re.compile(r"[+-]?[0-9]+\Z")


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


def format_float(x: Float) -> str:
    if x.sign < 0:
        raise ValueError("only positive finite values have a text form")
    return f"0.{x.mantissa_bits()}e{x.exponent}"
