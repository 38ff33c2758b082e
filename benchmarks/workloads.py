"""Workload generators, ops and reference checks for the xadd benchmark.

Each workload turns a seeded ``random.Random`` into a pool of specs (plain
ints and strings, made by the benchmark itself), builds the operands the
timed ops need through the library (set-up), and supplies the op and the
check of its output.  Every categorical property of a case (kind, limb
width, rounding mode, precision source) is dealt in exact proportions, and
on `scan` and `wide`, where cost grows with operand size, each case owns one
stratum of the log-uniform size range, takes the stratum's midpoint as its
size, and the properties that set its cost (limb width, kind) follow from
the stratum's index.  Two seeds thus give pools of the same cost mix, down
to the slowest case: a seed changes the bits, not the amount of work.

The ops call only the public names listed in ``LAYERS`` plus ``Context``,
``RoundingMode`` and ``Overflow``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from random import Random

# Span name -> attribute of the xadd package.
LAYERS = {
    "core.make_float_from_int": "make_float_from_int",
    "textio.parse_float": "parse_float",
    "textio.format_float": "format_float",
    "engine.add_positive": "add_positive",
    "rounding.round_to_prec": "round_to_prec",
    "oracle.exact_add_round": "exact_add_round",
}

MODES = ("down", "up", "zero", "nearest")
COMMON_PRECISIONS = (24, 53, 64, 113)
# Exponent ceiling of the contexts used by the near-overflow cases of `small`.
NEAR_EMAX = 1024


def dealt(rng: Random, values, count: int) -> list:
    """`count` items cycling through `values` in order, then shuffled."""
    items = [values[i % len(values)] for i in range(count)]
    rng.shuffle(items)
    return items


def stratum_size(lo_log2: int, hi_log2: int, i: int, count: int) -> int:
    """The log-scale midpoint of stratum i of `count` equal strata of
    [2**lo_log2, 2**hi_log2]."""
    return int(2 ** (lo_log2 + (hi_log2 - lo_log2) * (i + 0.5) / count))


def limbs_of(mantissa: int, precision: int, width: int) -> tuple[int, ...]:
    """Limbs of a `precision`-bit mantissa, by a linear-time byte conversion."""
    count = -(-precision // width)
    raw = (mantissa << (count * width - precision)).to_bytes(count * width // 8, "big")
    return struct.unpack(f">{count}{'Q' if width == 64 else 'I'}", raw)


def bits_of(x) -> str:
    """The significant mantissa bits of a Float, by a linear-time conversion."""
    w = x.limb_width
    raw = struct.pack(f">{len(x.limbs)}{'Q' if w == 64 else 'I'}", *x.limbs)
    return format(int.from_bytes(raw, "big") >> (len(x.limbs) * w - x.precision), "b")


def text_of(x) -> str:
    return f"0.{bits_of(x)}e{x.exponent}"


def same_float(x, mantissa: int, exponent: int, precision: int, width: int) -> bool:
    return (
        x.sign == 1
        and x.exponent == exponent
        and x.precision == precision
        and x.limb_width == width
        and x.limbs == limbs_of(mantissa, precision, width)
    )


def check_add(api, x, y, out, ref) -> bool:
    """An add_positive outcome against exact_add_round's, plus the bounds on
    the scan statistics: limbs read <= limbs stored and trailing bits
    examined <= m + n."""
    if isinstance(ref, api.Overflow) or isinstance(out, api.Overflow):
        return out == ref
    if out.result != ref.result or out.ternary != ref.ternary:
        return False
    s = out.stats
    return (
        0 <= s.x_limbs_read
        and 0 <= s.y_limbs_read
        and s.x_limbs_read + s.y_limbs_read <= len(x.limbs) + len(y.limbs)
        and 0 <= s.trailing_bits_examined <= x.precision + y.precision
    )


@dataclass
class AddSpec:
    """One addition: mantissas as ints of m and n bits, exponents, target."""

    x: int
    m: int
    ex: int
    y: int
    n: int
    ey: int
    p: int
    mode: str
    width: int
    emax: int | None = None  # None: the default context's exponent range


def draw_mantissa(rng: Random, bits: int, shape: str) -> int:
    top = 1 << (bits - 1)
    if shape == "pow2":
        return top
    if shape == "ones":
        return (1 << bits) - 1
    if shape == "sparse":
        value = top
        for _ in range(rng.randint(1, 3)):
            value |= 1 << rng.randrange(bits)
        return value
    if shape == "runs":
        value, pos, bit = 0, bits, 1
        while pos > 0:
            run = min(pos, rng.randint(1, max(1, bits // 3)))
            pos -= run
            if bit:
                value |= ((1 << run) - 1) << pos
            bit ^= 1
        return value
    return top | rng.getrandbits(bits - 1)


class AddWorkload:
    """Shared set-up, op and check for workloads whose op is one add_positive."""

    def build(self, api, specs):
        contexts = {}
        make = api.make_float_from_int
        cases = []
        for s in specs:
            key = (s.width, s.emax)
            ctx = contexts.get(key)
            if ctx is None:
                ctx = contexts[key] = (
                    api.Context(limb_width=s.width)
                    if s.emax is None
                    else api.Context(limb_width=s.width, emax=s.emax)
                )
            x = make(1, s.ex, s.m, s.x, ctx=ctx)
            y = make(1, s.ey, s.n, s.y, ctx=ctx)
            cases.append((x, y, s.p, api.RoundingMode(s.mode), ctx))
        return cases

    @staticmethod
    def make_op(api):
        add = api.add_positive

        def op(case):
            return add(case[0], case[1], case[2], case[3], ctx=case[4])

        return op

    @staticmethod
    def reference(api, spec, case, out):
        x, y, p, mode, ctx = case
        return api.exact_add_round(x, y, p, mode, ctx=ctx)

    @staticmethod
    def check(api, spec, case, out, ref) -> bool:
        return check_add(api, case[0], case[1], out, ref)

    @staticmethod
    def engine_outcomes(case, out):
        yield case[0], case[1], out


class Small(AddWorkload):
    """Machine-size additions covering every engine path."""

    pool = 4096
    batch = 256
    gap_kinds = ("carry", "edge", "limb", "below", "uniform")
    shapes = ("pow2", "ones", "sparse", "runs", "uniform")

    def generate(self, rng: Random) -> list[AddSpec]:
        n = self.pool
        columns = {
            "m_common": dealt(rng, (True, False), n),
            "n_common": dealt(rng, (True, False), n),
            "p_common": dealt(rng, (True, False), n),
            "gap": dealt(rng, self.gap_kinds, n),
            "x_shape": dealt(rng, self.shapes, n),
            "y_shape": dealt(rng, self.shapes, n),
            "mode": dealt(rng, MODES, n),
            "width": dealt(rng, (32, 64, 64, 64), n),
            "near_emax": dealt(rng, (True,) + (False,) * 15, n),
        }
        specs = []
        for i in range(n):
            c = {k: v[i] for k, v in columns.items()}
            m, nn, p = (
                rng.choice(COMMON_PRECISIONS) if c[k] else rng.randint(2, 128)
                for k in ("m_common", "n_common", "p_common")
            )
            w = c["width"]
            if c["near_emax"]:
                # x = 0.11..1 at the exponent ceiling, y close below: the
                # window carry or a rounding increment overflows, or not.
                x_shape, gap, ex, emax = "ones", "carry", NEAR_EMAX - rng.randint(0, 1), NEAR_EMAX
            else:
                x_shape, gap, ex, emax = c["x_shape"], c["gap"], rng.randint(-1000, 1000), None
            if gap == "carry":
                d = rng.randint(0, 3)
            elif gap == "edge":
                d = p + rng.randint(0, 2)
            elif gap == "limb":
                d = max(0, rng.randint(1, 3) * w + rng.randint(-1, 1))
            elif gap == "below":
                d = p + 2 + rng.randint(0, 2 * w)
            else:
                d = rng.randint(0, 256)
            specs.append(
                AddSpec(
                    draw_mantissa(rng, m, x_shape), m, ex,
                    draw_mantissa(rng, nn, c["y_shape"]), nn, ex - d,
                    p, c["mode"], w, emax,
                )
            )
        return specs


class Scan(AddWorkload):
    """Wide operands whose trailing bits keep the error class open to the end."""

    pool = 256
    batch = 16
    kinds = ("zero_tail", "complement", "tie")

    def generate(self, rng: Random) -> list[AddSpec]:
        n = self.pool
        targets = dealt(rng, (53, 64, 113, 256), n)
        modes = dealt(rng, MODES, n)
        specs = [
            self.one(
                rng, self.kinds[i // 2 % 3], stratum_size(14, 16, i, n),
                targets[i], modes[i], (32, 64)[i % 2],
            )
            for i in range(n)
        ]
        rng.shuffle(specs)
        return specs

    @staticmethod
    def one(rng: Random, kind: str, m: int, p: int, mode: str, width: int) -> AddSpec:
        """x has m bits; y starts d <= p + 1 positions lower (it overlaps the
        p + 2 bit window) and ends where x ends.  The window bits are drawn
        until its fb bit, and the bit a window carry shifts out, leave the
        error scan open; the tails below the window then keep it open:

        - zero_tail: fb = 0, both tails zero except x's last bit;
        - complement: fb = 1, y's tail is the complement of x's, so no
          position has two equal bits until (maybe) the last one;
        - tie: the exact sum lies halfway between two p-bit values, either
          as rb = 1, fb = 0 over zero tails, or as rb = 0, fb = 1 over
          complementary tails that end in two ones.
        """
        d = rng.randint(0, p + 1)
        window = p + 2
        tail = m - window
        variant = rng.choice(("fb0", "fb1")) if kind == "tie" else None
        want_fb = 1 if kind == "complement" or variant == "fb1" else 0
        want_rb = {"fb0": 1, "fb1": 0}.get(variant)
        while True:
            xw = (1 << (window - 1)) | rng.getrandbits(window - 1)
            yw = (1 << (window - d - 1)) | rng.getrandbits(window - d - 1)
            total = xw + yw
            carried = total >> window
            kept = total >> carried
            shifted = total & 1 if carried else want_fb
            if kept & 1 == want_fb and shifted == want_fb and want_rb in (None, kept >> 1 & 1):
                break
        if want_fb == 0:
            xt = 1 if kind == "zero_tail" else 0
            yt = 0
        else:
            mask = (1 << tail) - 1
            xt = rng.getrandbits(tail)
            yt = ~xt & mask
            end = "ones" if kind == "tie" else rng.choice(("open", "ones", "zeros"))
            if end == "ones":
                xt, yt = xt | 1, yt | 1
            elif end == "zeros":
                xt, yt = xt & ~1, yt & ~1
        ex = rng.randint(-1000, 1000)
        return AddSpec((xw << tail) | xt, m, ex, (yw << tail) | yt, m - d, ex - d, p, mode, width)


@dataclass
class WideSpec:
    """Text tokens for one parse -> add or round -> format op."""

    kind: str  # "add" | "round"
    x: int
    m: int
    ex: int
    y: int
    n: int
    ey: int
    p: int  # target precision of the add, or of the rounding
    mode: str
    width: int


class Wide:
    """Big values through text: parse, a short-circuited add or a rounding,
    then format."""

    pool = 64
    batch = 2

    def generate(self, rng: Random) -> list[WideSpec]:
        """Stratum i sets the size of x and, for an add, of y; every fourth
        stratum is a rounding to a half or a quarter of x's precision."""
        n = self.pool
        modes = dealt(rng, MODES, n)
        common = dealt(rng, (True, False), n)
        specs = []
        for i in range(n):
            m = stratum_size(14, 18, i, n)
            width = (32, 64)[i // 4 % 2]
            ex = rng.randint(-1000, 1000)
            x = (1 << (m - 1)) | rng.getrandbits(m - 1)
            if i % 4 == 3:
                q = m // (2, 4)[i // 8 % 2]
                specs.append(WideSpec("round", x, m, ex, 0, 0, 0, q, modes[i], width))
                continue
            p = rng.choice(COMMON_PRECISIONS) if common[i] else rng.randint(2, 128)
            d = rng.randint(0, p + 1)
            y = (1 << (m - 1)) | rng.getrandbits(m - 1)
            specs.append(WideSpec("add", x, m, ex, y, m, ex - d, p, modes[i], width))
        rng.shuffle(specs)
        return specs

    @staticmethod
    def build(api, specs):
        contexts = {w: api.Context(limb_width=w) for w in (32, 64)}
        cases = []
        for s in specs:
            tokens = (f"0.{s.x:b}e{s.ex}",)
            if s.kind == "add":
                tokens += (f"0.{s.y:b}e{s.ey}",)
            cases.append((tokens, s.p, api.RoundingMode(s.mode), contexts[s.width]))
        return cases

    @staticmethod
    def make_op(api):
        parse, fmt = api.parse_float, api.format_float
        add, rnd, overflow = api.add_positive, api.round_to_prec, api.Overflow

        def op(case):
            tokens, p, mode, ctx = case
            if len(tokens) == 2:
                x = parse(tokens[0], ctx=ctx)
                y = parse(tokens[1], ctx=ctx)
                out = add(x, y, p, mode, ctx=ctx)
                text = None if isinstance(out, overflow) else fmt(out.result)
                return (x, y), out, text
            x = parse(tokens[0], ctx=ctx)
            out = rnd(x, p, mode, ctx=ctx)
            text = None if isinstance(out, overflow) else fmt(out[0])
            return (x,), out, text

        return op

    @staticmethod
    def reference(api, spec, case, out):
        """The expected text of the result, and for an add the oracle's
        outcome; a rounding is checked against a direct integer rounding."""
        if spec.kind == "add":
            x, y = out[0]
            ref = api.exact_add_round(x, y, spec.p, case[2], ctx=case[3])
            return ref, None if isinstance(ref, api.Overflow) else text_of(ref.result)
        drop = spec.m - spec.p
        kept = spec.x >> drop
        r = spec.x >> (drop - 1) & 1
        s = spec.x & ((1 << (drop - 1)) - 1) != 0
        if spec.mode == "up":
            inc = bool(r or s)
        elif spec.mode == "nearest":
            inc = bool(r and (s or kept & 1))
        else:
            inc = False
        ternary = 0 if not (r or s) else (1 if inc else -1)
        exponent = spec.ex
        if inc:
            kept += 1
            if kept >> spec.p:
                kept >>= 1
                exponent += 1
        return (kept, exponent, ternary), f"0.{kept:b}e{exponent}"

    @staticmethod
    def check(api, spec, case, out, ref) -> bool:
        operands, result, text = out
        expected, expected_text = ref
        if text != expected_text or not same_float(operands[0], spec.x, spec.ex, spec.m, spec.width):
            return False
        if spec.kind == "add":
            return same_float(operands[1], spec.y, spec.ey, spec.n, spec.width) and check_add(
                api, operands[0], operands[1], result, expected
            )
        kept, exponent, ternary = expected
        return result[1] == ternary and same_float(result[0], kept, exponent, spec.p, spec.width)

    @staticmethod
    def engine_outcomes(case, out):
        if len(out[0]) == 2:
            yield out[0][0], out[0][1], out[1]


WORKLOADS = {"small": Small(), "scan": Scan(), "wide": Wide()}
