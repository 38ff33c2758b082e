"""Command-line front end.

Three subcommands:

* ``xadd add -p P -m MODE X Y`` prints ``result ternary`` for one addition
  (append ``# bits_examined=N`` with ``--stats``).
* ``xadd verify`` generates pseudo-random cases from a seed and cross-checks
  the limb engine against the big-integer oracle in all four modes.
* ``xadd check FILE`` replays a fixture file and compares recorded results.

Exit codes: 0 ok, 1 usage or bad input, 2 overflow, 3 mismatch.

Finite values use the grammar of `textio`.  Special values are written as
tagged tokens: ``nan``, ``inf(+)``, ``inf(-)``, ``zero(+)``, ``zero(-)``,
and ``overflow(+)`` / ``overflow(-)`` for a reported overflow.  They exist
only at this layer; the arithmetic core works on finite positive values and
rejects them.

A fixture line records one addition:

    x y p mode -> result ternary

with ``#`` starting a comment and blank lines ignored, e.g.

    0.101111100101 0.11010e-7 2 nearest -> 0.11e0 +1
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .core import DEFAULT_CONTEXT, DEFAULT_EMIN, DEFAULT_MAX_PRECISION, Context, Float
from .core import FloatValueError, _clip, _quote, check_precision, make_float_from_int
from .engine import AddOutcome, add_positive
from .oracle import exact_add_round
from .rounding import Overflow, RoundingMode, round_to_prec
from .textio import ParseError, format_float, parse_float, parse_int

_SPECIAL_RE = re.compile(r"(?P<kind>nan|inf|zero|overflow)(?:\((?P<sign>[+-])\))?\Z")
_TERNARY = {"-1": -1, "0": 0, "+1": 1}


@dataclass(frozen=True)
class SpecialValue:
    """A tagged non-finite token; `sign` is +1 or -1 (nan carries +1)."""

    kind: str  # "nan" | "inf" | "zero" | "overflow"
    sign: int


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


def format_special(value: SpecialValue | Overflow) -> str:
    """The tagged token of a special value; an Overflow is an overflow token."""
    kind = "overflow" if isinstance(value, Overflow) else value.kind
    if kind == "nan":
        return "nan"
    return f"{kind}({'+' if value.sign > 0 else '-'})"


def format_ternary(ternary: int) -> str:
    if ternary not in (-1, 0, 1):
        raise ValueError(f"ternary must be -1, 0 or +1, got {_quote(ternary)}")
    return {-1: "-1", 0: "0", 1: "+1"}[ternary]


def format_outcome(result: Float | Overflow | SpecialValue, ternary: int) -> str:
    """A value, or the token of an Overflow or special value, and the ternary."""
    token = format_float(result) if isinstance(result, Float) else format_special(result)
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


_MODE_NAMES = [mode.value for mode in RoundingMode]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Report flag problems through our exit-code contract instead of
    # argparse's default SystemExit(2).
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _int_option(text: str) -> int:
    try:
        return parse_int(text)
    except ParseError:  # worded as argparse words a failed type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {_clip(repr(text))}") from None


def _result_of(outcome: AddOutcome | Overflow) -> tuple[Float | Overflow, int]:
    """The rounded value, or the Overflow itself, and the ternary."""
    return (outcome if isinstance(outcome, Overflow) else outcome.result), outcome.ternary


def _parse_operand(token: str) -> Float | SpecialValue:
    """Accept a finite value or a signed zero; reject the other specials."""
    value = parse_token(token)
    if isinstance(value, Float) or value.kind == "zero":
        return value
    raise ParseError(f"{token} is not a valid addend")


def cmd_add(
    x_token: str, y_token: str | None, precision: int, mode: RoundingMode, stats: bool
) -> int:
    try:
        operands = [_parse_operand(token) for token in (x_token, y_token) if token is not None]
        check_precision(precision)
        finite = [value for value in operands if isinstance(value, Float)]
        if not finite:
            # A sum of zeros needs no rounding.  Its sign follows IEEE 754
            # section 6.3: -0 when both zeros are -0, and for zeros of unlike
            # sign -0 under roundTowardNegative (down) only.
            signs = [zero.sign for zero in operands]
            sign = min(signs) if mode is RoundingMode.DOWN else max(signs)
            print(format_outcome(SpecialValue("zero", sign), 0))
            return 0
        if len(finite) == 1:
            rounded = round_to_prec(finite[0], precision, mode)
        else:
            rounded = add_positive(*finite, precision, mode)
    except (ParseError, FloatValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if isinstance(rounded, Overflow):
        print(format_outcome(rounded, rounded.ternary))
        return 2
    if len(finite) == 1:
        line, bits_examined = format_outcome(*rounded), 0
    else:
        line = format_outcome(rounded.result, rounded.ternary)
        bits_examined = rounded.stats.trailing_bits_examined
    if stats:
        line += f" # bits_examined={bits_examined}"
    print(line)
    return 0


def _random_mantissa(rng: random.Random, bits: int) -> int:
    """Normalized mantissa with the shapes that historically break adders:
    powers of two, all-ones carry chains, sparse bits, one-runs, uniform."""
    top = 1 << (bits - 1)
    style = rng.randrange(6)
    if style == 0:
        return top
    if style == 1:
        return (1 << bits) - 1
    if style == 2:
        # The bits are set in a buffer and converted once: OR-ing each into
        # a bits-wide int copies it every time, quadratic in `bits`.
        buf = bytearray((bits + 7) // 8)
        for _ in range(1 + bits // 8):
            i = rng.randrange(bits)
            buf[i >> 3] |= 1 << (i & 7)
        return top | int.from_bytes(buf, "little")
    if style == 3:
        run = rng.randint(1, bits)
        return ((1 << run) - 1) << (bits - run)
    return top | rng.getrandbits(bits - 1)


def _random_exponent(rng: random.Random, ctx: Context) -> int:
    roll = rng.randrange(16)
    if roll == 0:
        return ctx.emax - rng.randint(0, 2)
    if roll == 1:
        return DEFAULT_EMIN + rng.randint(0, 64)
    return rng.randint(-(1 << 12), 1 << 12)


def _random_case(rng: random.Random, max_prec: int, ctx: Context) -> tuple[Float, Float, int]:
    p = rng.randint(2, max_prec)
    w = ctx.limb_width
    kind = rng.randrange(10)
    if kind == 0:
        # Exact tie: x representable at p, y a lone half-ulp below it.
        m = rng.randint(2, p)
        d = p
        mantissas = (_random_mantissa(rng, m), 0b10)
        sizes = (m, 2)
    else:
        m = rng.randint(2, max_prec)
        n = rng.randint(2, max_prec)
        if kind <= 3:
            d = rng.randint(0, 3)
        elif kind == 4:
            d = max(0, p + rng.randint(-2, 2))
        elif kind == 5:
            d = max(0, rng.choice((w, 2 * w, 3 * w)) + rng.randint(-1, 1))
        elif kind == 6:
            d = p + 2 + rng.randint(1, 2 * w)
        elif kind == 7:
            d = rng.randint(0, max(m, n) + 2)
        else:
            d = rng.randint(0, p + max(m, n) + 4)
        mantissas = (_random_mantissa(rng, m), _random_mantissa(rng, n))
        sizes = (m, n)
    e = min(max(_random_exponent(rng, ctx), DEFAULT_EMIN + d), ctx.emax)
    x = make_float_from_int(1, e, sizes[0], mantissas[0], ctx=ctx)
    y = make_float_from_int(1, e - d, sizes[1], mantissas[1], ctx=ctx)
    return x, y, p


def cmd_verify(seed: int, count: int, max_prec: int) -> int:
    rng = random.Random(seed)
    for _ in range(count):
        x, y, p = _random_case(rng, max_prec, DEFAULT_CONTEXT)
        for mode in RoundingMode:
            got = add_positive(x, y, p, mode)
            want = exact_add_round(x, y, p, mode)
            if _result_of(got) != _result_of(want):
                line = format_fixture_line(x, y, p, mode, *_result_of(want))
                print(f"{line} # engine: {format_outcome(*_result_of(got))}")
                return 3
    print(f"PASS n={count}")
    return 0


def cmd_check(path: str) -> int:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    count = 0
    mismatches = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        try:
            case = parse_fixture_line(line)
        except ParseError as err:
            print(f"error: line {lineno}: {err}", file=sys.stderr)
            return 1
        if case is None:
            continue
        count += 1
        outcome = add_positive(case.x, case.y, case.precision, case.mode)
        got = format_outcome(*_result_of(outcome))
        if got == format_outcome(case.expected, case.ternary):
            print(f"ok   line {lineno}")
        else:
            mismatches += 1
            print(f"FAIL line {lineno}: got {got}")
    if mismatches:
        print(f"FAIL n={count} mismatches={mismatches}")
        return 3
    print(f"PASS n={count}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="xadd", description="Exactly rounded addition at mixed precisions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_add = sub.add_parser("add", help="add two positive values and print result + ternary")
    p_add.add_argument("-p", "--prec", type=_int_option, required=True, help="target precision in bits")
    p_add.add_argument("-m", "--mode", choices=_MODE_NAMES, default="nearest")
    p_add.add_argument("--stats", action="store_true", help="append # bits_examined=N")
    p_add.add_argument("x")
    p_add.add_argument("y", nargs="?", default=None, help="second addend (omit or pass zero(+) to round x alone)")

    p_verify = sub.add_parser("verify", help="differential-test the engine against the oracle")
    p_verify.add_argument("--seed", type=_int_option, default=None, help="PRNG seed (default: random, printed)")
    p_verify.add_argument("--count", type=_int_option, default=1000, help="number of cases (default 1000)")
    p_verify.add_argument("--max-prec", type=_int_option, default=64, help="precision bound (default 64)")

    p_check = sub.add_parser("check", help="replay a fixture file")
    p_check.add_argument("fixture_path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as done:  # --help has printed its text
        return done.code

    if args.command == "add":
        return cmd_add(args.x, args.y, args.prec, RoundingMode(args.mode), args.stats)

    if args.command == "verify":
        if args.count < 1:
            print("error: --count must be at least 1", file=sys.stderr)
            return 1
        if not 2 <= args.max_prec <= DEFAULT_MAX_PRECISION:
            print(f"error: --max-prec must be in [2, {DEFAULT_MAX_PRECISION}]", file=sys.stderr)
            return 1
        seed = args.seed
        if seed is None:
            seed = random.getrandbits(64)
            print(f"# seed={seed}")
        return cmd_verify(seed, args.count, args.max_prec)

    return cmd_check(args.fixture_path)


if __name__ == "__main__":
    sys.exit(main())
