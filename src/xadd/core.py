"""Binary floating-point values with an independent precision per value.

A value is ``sign * 0.b1 b2 ... bp * 2**exponent`` with ``b1 = 1``: the
mantissa is a pure fraction in [1/2, 1), there is no hidden bit and there
are no subnormals.  Mantissa bits are stored as an array of machine-word
limbs, most significant limb first, held in one big-endian ``bytes``
buffer, `Float.limb_bytes`, of ``limb_width // 8`` bytes per limb; bits of
the lowest limb that lie below the precision are kept at zero so that two
equal values always have equal storage.  A run of limbs is one slice of
the buffer and joins into an int with one ``int.from_bytes``, at any
length, so a k-limb prefix costs O(k) to read: a single-int mantissa, whose
every shift costs O(n), would give that up.  `float_from_mantissa` stores a
mantissa with one ``to_bytes``.  Only the limb tuple that ``Float(...)``
takes and the `Float.limbs` view go through a struct (`_limb_struct`), one
pack or unpack per call.

Values are immutable.  The precision cap `DEFAULT_MAX_PRECISION` and the
least exponent `DEFAULT_EMIN` are constants: a sum of positive values is
never below its larger operand, so only the largest exponent can change a
result, and it belongs to a :class:`Context` with the limb width.

Each value is validated once, by whoever builds it:

- ``Float(...)`` is the validating constructor for storage given from
  outside: it checks the sign, the precision, the exponent's type, that the
  limbs are a tuple of ints (not bools) and, limb by limb, that the
  mantissa is normalized, and then packs the limbs into the buffer.
- `make_float` and `make_float_from_int` check the precision range, the
  exponent range, the digits or the leading bit, and the sign.
  A mantissa written out is read once: `_bits_int` guards one
  ``int(bits, 2)``, and `make_float` and ``textio.parse_float`` share it.
- `float_from_mantissa` is the one trusted builder of the values the
  library computes.  It checks only the mantissa's leading bit and fills the
  slots directly, skipping ``Float.__init__``'s checks, because it produces
  the buffer itself.  Tests check its results with `mantissa_is_normalized`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

DEFAULT_EMIN = 1 - 2**30
DEFAULT_EMAX = 2**30 - 1
# Cap chosen so that bit positions and limb counts stay comfortably inside
# machine integers on any host; large enough for any realistic use.
DEFAULT_MAX_PRECISION = 2**24

# Limb width -> big-endian struct code of one limb.
_LIMB_CODES = {32: "I", 64: "Q"}
_LIMB_WIDTHS = tuple(_LIMB_CODES)


class FloatValueError(ValueError):
    """A floating-point value violates a construction invariant."""


class InvalidPrecision(FloatValueError):
    """Precision is not an int in [2, DEFAULT_MAX_PRECISION] or disagrees with the bits given."""


class NotNormalized(FloatValueError):
    """Leading mantissa bit is not 1, or non-significant storage bits are not 0."""


class ExponentOutOfRange(FloatValueError):
    """Exponent lies outside [DEFAULT_EMIN, emax] of the context."""


@dataclass(frozen=True)
class Context:
    """Construction-time settings: the limb width and the largest exponent."""

    limb_width: int = 64
    emax: int = DEFAULT_EMAX

    def __post_init__(self) -> None:
        # 64.0 would pass the membership test and 1.5 or True the range
        # test, and then break the int arithmetic of every value built.
        width, emax = self.limb_width, self.emax
        if not isinstance(width, int) or isinstance(width, bool) or width not in _LIMB_WIDTHS:
            raise ValueError(f"limb_width must be one of {_LIMB_WIDTHS}")
        if not isinstance(emax, int) or isinstance(emax, bool):
            raise ValueError(f"emax must be an int, got {_quote(emax)}")
        if emax < DEFAULT_EMIN:
            raise ValueError("emin must not exceed emax")

    def check_exponent(self, exponent: int) -> None:
        _check_exponent_type(exponent)
        if not DEFAULT_EMIN <= exponent <= self.emax:
            raise ExponentOutOfRange(
                f"exponent {_quote(exponent)} outside [{DEFAULT_EMIN}, {_quote(self.emax)}]"
            )


DEFAULT_CONTEXT = Context()


# Longest quoted input an error message carries whole.
_QUOTE_LIMIT = 80


def _clip(text: str) -> str:
    """`text`, the quoted form of some input, for an error message: whole up
    to _QUOTE_LIMIT characters, else its first _QUOTE_LIMIT and its length,
    so that a message stays short whatever the size of the input."""
    if len(text) <= _QUOTE_LIMIT:
        return text
    return f"{text[:_QUOTE_LIMIT]}... ({len(text)} characters)"


def _quote(value: object) -> str:
    """repr(value) through `_clip`, for an error message.  An int too long
    for CPython to write in decimal is given by its bit length instead."""
    try:
        return _clip(repr(value))
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        return f"an int of {value.bit_length()} bits"


def check_precision(precision: int) -> None:
    """Refuse a precision that is not an int in [2, DEFAULT_MAX_PRECISION]."""
    if not isinstance(precision, int) or isinstance(precision, bool):
        raise InvalidPrecision(f"precision must be an int, got {_quote(precision)}")
    if precision < 2 or precision > DEFAULT_MAX_PRECISION:
        raise InvalidPrecision(
            f"precision must lie in [2, {DEFAULT_MAX_PRECISION}], got {_quote(precision)}"
        )


def _check_exponent_type(exponent: object) -> None:
    if not isinstance(exponent, int) or isinstance(exponent, bool):
        raise ExponentOutOfRange(f"exponent must be an int, got {_quote(exponent)}")


def _check_sign(sign: object) -> None:
    # An int test as for the exponent: 1.0 and True compare equal to 1.
    if not isinstance(sign, int) or isinstance(sign, bool) or sign not in (1, -1):
        raise FloatValueError(f"sign must be +1 or -1, got {_quote(sign)}")


def _bits_int(bits: str) -> int | None:
    """``int(bits, 2)`` when `bits` is a non-empty run of ASCII 0s and 1s, else None.

    int() alone is no check: it also takes other scripts' digits, underscores,
    a sign, a 0b prefix and whitespace around the digits.  The guards shut each
    of those out in constant time or at memchr speed, so that int() is the one
    pass over the digits.
    """
    if (
        bits[:1] in ("0", "1")  # not empty, no sign, no leading whitespace
        and bits[-1:] in ("0", "1")  # no trailing whitespace
        and bits[1:2] not in ("b", "B")  # no 0b prefix
        and bits.isascii()
        and "_" not in bits
    ):
        try:
            return int(bits, 2)
        except ValueError:  # some other character inside the run
            pass
    return None


def limb_count(precision: int, limb_width: int) -> int:
    return -(-precision // limb_width)


def mantissa_is_normalized(limbs: tuple[int, ...], precision: int, limb_width: int) -> bool:
    """True iff `limbs` is a valid normalized p-bit mantissa: correct length,
    every limb inside the word range, top bit 1, and all storage bits below
    the precision zero."""
    if precision < 2 or not isinstance(limb_width, int) or limb_width not in _LIMB_WIDTHS:
        return False
    if len(limbs) != limb_count(precision, limb_width):
        return False
    if any(limb < 0 or limb >> limb_width for limb in limbs):
        return False
    if not limbs[0] >> (limb_width - 1) & 1:
        return False
    spare = len(limbs) * limb_width - precision
    return spare == 0 or not limbs[-1] & ((1 << spare) - 1)


@lru_cache(maxsize=256)
def _limb_struct(count: int, limb_width: int) -> struct.Struct:
    # The codec between a limb tuple and the buffer, compiled once per
    # length: only ``Float(...)`` and `Float.limbs` use it, never an add.
    return struct.Struct(f">{count}{_LIMB_CODES[limb_width]}")


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Float:
    """An immutable normalized value ``sign * 0.b1..bp * 2**exponent``.

    ``Float(sign, exponent, precision, limbs, limb_width)`` takes the
    mantissa as a tuple of limbs, most significant first: bit i (1-based, bit
    1 is the leading 1) lives in ``limbs[(i-1) // limb_width]``.  It is
    stored as ``limb_bytes``, those limbs big-endian in one buffer of
    ``limb_width // 8`` bytes each, and ``limbs`` unpacks them again.  Values
    compare by their fields, and the hash and repr are those of the fields
    with the limbs as a tuple.
    """

    sign: int
    exponent: int
    precision: int
    limb_bytes: bytes
    limb_width: int

    # A positional ``case Float(s, e, p, limbs, w)`` binds the public limb
    # tuple, not the stored buffer.
    __match_args__ = ("sign", "exponent", "precision", "limbs", "limb_width")

    def __init__(
        self, sign: int, exponent: int, precision: int, limbs: tuple[int, ...], limb_width: int
    ) -> None:
        _check_sign(sign)
        check_precision(precision)
        # A list would make the value mutable and unhashable, and a float,
        # str or bool limb would reach the word-range test as a TypeError or
        # as a bit pattern; a tuple subclass stays allowed.
        if not isinstance(limbs, tuple) or not all(
            isinstance(limb, int) and not isinstance(limb, bool) for limb in limbs
        ):
            raise NotNormalized(f"limbs must be a tuple of ints, got {_quote(limbs)}")
        if not mantissa_is_normalized(limbs, precision, limb_width):
            raise NotNormalized(
                f"mantissa {_quote(limbs)} is not a normalized "
                f"{precision}-bit value at width {_quote(limb_width)}"
            )
        # The range belongs to the context; the type is checked here so that
        # no value can carry an exponent that formats as text parse rejects.
        _check_exponent_type(exponent)
        buffer = _limb_struct(len(limbs), limb_width).pack(*limbs)
        for store, value in zip(_SLOT_SETTERS, (sign, exponent, precision, buffer, limb_width)):
            store(self, value)

    @property
    def limbs(self) -> tuple[int, ...]:
        """The mantissa's limbs, most significant first, as a tuple of ints."""
        buffer, width = self.limb_bytes, self.limb_width
        return _limb_struct(len(buffer) // (width >> 3), width).unpack(buffer)

    def __hash__(self) -> int:
        return hash((self.sign, self.exponent, self.precision, self.limbs, self.limb_width))

    def __repr__(self) -> str:
        return (
            f"Float(sign={self.sign!r}, exponent={self.exponent!r}, precision={self.precision!r}, "
            f"limbs={self.limbs!r}, limb_width={self.limb_width!r})"
        )

    def mantissa_int(self) -> int:
        """The mantissa as one integer of len(limbs)*limb_width bits."""
        return int.from_bytes(self.limb_bytes, "big")

    def mantissa_bits(self) -> str:
        """The p significant mantissa bits as a '0'/'1' string."""
        return format(self.mantissa_int(), f"0{len(self.limb_bytes) * 8}b")[: self.precision]


def make_float(
    sign: int,
    exponent: int,
    precision: int,
    bits: str,
    *,
    ctx: Context = DEFAULT_CONTEXT,
) -> Float:
    """Build a Float from its mantissa written out as a bit string.

    `bits` must contain exactly `precision` characters from {'0', '1'} and
    start with '1' (normalization).  The exponent is checked against `ctx`.
    """
    check_precision(precision)
    ctx.check_exponent(exponent)
    if len(bits) != precision:
        raise InvalidPrecision(
            f"got {len(bits)} mantissa bits for precision {precision}"
        )
    mantissa = _bits_int(bits)
    if mantissa is None:
        raise FloatValueError(f"mantissa may contain only 0 and 1: {_quote(bits)}")
    if bits[0] != "1":
        raise NotNormalized(f"leading mantissa bit must be 1: {_quote(bits)}")
    return make_float_from_int(sign, exponent, precision, mantissa, ctx=ctx)


def make_float_from_int(
    sign: int,
    exponent: int,
    precision: int,
    mantissa: int,
    *,
    ctx: Context = DEFAULT_CONTEXT,
) -> Float:
    """Build a Float from the mantissa packed into an int of `precision` bits."""
    check_precision(precision)
    ctx.check_exponent(exponent)
    x = float_from_mantissa(sign, exponent, precision, mantissa, ctx.limb_width)
    # Checked after the leading bit: an input with both faults raises NotNormalized.
    _check_sign(sign)
    return x


# Each slot's setter, looked up once.  A frozen Float refuses assignment, so
# its builders store through the slot descriptors: the store that
# object.__setattr__ makes after finding the descriptor by name, at half the cost.
_SLOT_SETTERS = tuple(getattr(Float, name).__set__ for name in Float.__slots__)


def float_from_mantissa(
    sign: int, exponent: int, precision: int, mantissa: int, limb_width: int
) -> Float:
    """The trusted builder: a Float from a `precision`-bit mantissa int.

    Raises NotNormalized unless the mantissa has exactly `precision` bits
    with a leading 1, and checks nothing else.  The buffer is then normalized
    by construction, so ``Float.__init__``'s checks are skipped: pass only
    values the library computed, never input from outside.
    """
    if mantissa >> (precision - 1) != 1:
        raise NotNormalized(
            f"mantissa {_clip(format(mantissa, '#x'))} does not have exactly"
            f" {precision} bits with a leading 1"
        )
    pad = -precision % limb_width  # zeros below the precision in the last limb
    x = object.__new__(Float)
    set_sign, set_exponent, set_precision, set_bytes, set_width = _SLOT_SETTERS
    set_sign(x, sign)
    set_exponent(x, exponent)
    set_precision(x, precision)
    set_bytes(x, (mantissa << pad).to_bytes((precision + pad) >> 3, "big"))
    set_width(x, limb_width)
    return x
