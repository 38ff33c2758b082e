"""End-to-end acceptance checks for the addition engine.

Run with `pytest -s tests/test_acceptance.py` to see one summary line per
check; each prints `ACCEPTANCE <n> <name>: PASS|FAIL (<detail>)` and fails
its test on any violation.  Randomized batches use frozen seeds.  Checks 6
and 8 aggregate counters collected by checks 3 and 4, so the file is meant
to run as a whole, in order.
"""

from __future__ import annotations

import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from xadd import (
    Float,
    Overflow,
    RoundingMode,
    add_positive,
    exact_add,
    exact_add_round,
    make_float,
    make_float_from_int,
)
from xadd.cli import _random_case, main as cli_main
from xadd.core import DEFAULT_CONTEXT
from xadd.engine import ErrorClass, _settle
from xadd.oracle import ExactSum
from xadd.rounding import decide_round
from xadd.cli import parse_fixture_line

from .helpers import ordered

DOWN = RoundingMode.DOWN
UP = RoundingMode.UP
ZERO = RoundingMode.TOWARD_ZERO
NEAREST = RoundingMode.NEAREST_EVEN
MODES = (DOWN, UP, ZERO, NEAREST)

EQ0 = ErrorClass.EQ_ZERO
GT0 = ErrorClass.GT_ZERO_LT_U
EQU = ErrorClass.EQ_U
GTU = ErrorClass.GT_U

# Counters shared across checks: 3 and 4 feed 6(a) and 8.
TALLY = {
    "sweep_done": False,
    "random_done": False,
    "trailing_checked": 0,
    "trailing_violations": 0,
    "invariant_cases": 0,
    "invariant_violations": [],
}


def bits_at(exponent: int, bits: str) -> Float:
    return make_float(1, exponent, len(bits), bits)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"acceptance check {num} {name}: {status}{suffix}"


def scaled(f: Float) -> tuple[int, int]:
    """(integer mantissa, base-2 exponent) with storage padding removed."""
    width = len(f.limbs) * f.limb_width
    return f.mantissa_int() >> (width - f.precision), f.exponent - f.precision


def cmp_to_exact(result: Float, exact: ExactSum) -> int:
    mant, e1 = scaled(result)
    s = e1 - exact.exponent2
    a, b = (mant << s, exact.magnitude) if s >= 0 else (mant, exact.magnitude << -s)
    return (a > b) - (a < b)


def same_outcome(got, want) -> bool:
    if isinstance(got, Overflow) or isinstance(want, Overflow):
        return got == want
    return got.result == want.result and got.ternary == want.ternary


def tally_trailing(out, x: Float, y: Float) -> None:
    TALLY["trailing_checked"] += 1
    if out.stats.trailing_bits_examined > x.precision + y.precision:
        TALLY["trailing_violations"] += 1


def check_invariants(outs: dict[RoundingMode, object], exact: ExactSum, p: int) -> None:
    """Collects violations of the mode-relation invariants for one case."""
    TALLY["invariant_cases"] += 1
    errs = []
    down, up, zero, near = outs[DOWN], outs[UP], outs[ZERO], outs[NEAREST]

    if isinstance(down, Overflow) or isinstance(zero, Overflow):
        ok = (
            isinstance(down, Overflow)
            and isinstance(zero, Overflow)
            and down.sign == zero.sign
            and down.ternary == zero.ternary
        )
        if not ok:
            errs.append("toward-zero != down")
    elif zero.result != down.result or zero.ternary != down.ternary:
        errs.append("toward-zero != down")

    for mode, out in outs.items():
        if isinstance(out, Overflow):
            continue
        if cmp_to_exact(out.result, exact) != out.ternary:
            errs.append(f"ternary inconsistent in {mode.value}")

    if not isinstance(down, Overflow) and cmp_to_exact(down.result, exact) > 0:
        errs.append("down above the exact sum")
    if not isinstance(up, Overflow) and cmp_to_exact(up.result, exact) < 0:
        errs.append("up below the exact sum")

    if not isinstance(near, Overflow):
        mant, e1 = scaled(near.result)
        ebound = near.result.exponent - p - 1
        lo = min(e1, exact.exponent2, ebound)
        a = mant << (e1 - lo)
        b = exact.magnitude << (exact.exponent2 - lo)
        if abs(a - b) > (1 << (ebound - lo)):
            errs.append("nearest farther than half an ulp")

    if errs and len(TALLY["invariant_violations"]) < 5:
        TALLY["invariant_violations"].append((errs, exact, p))


def test_01_decision_table() -> None:
    # Expected behaviour rebuilt from interval semantics: (r, s) locates the
    # discarded remainder rem within [0, 1) ulps, and each mode picks the
    # truncated (ternary -1, or 0 when exact) or incremented (+1) candidate
    # from rem's position alone.
    t0 = time.perf_counter()
    remainders = {
        (0, 0): Fraction(0),
        (0, 1): Fraction(1, 4),
        (1, 0): Fraction(1, 2),
        (1, 1): Fraction(3, 4),
    }
    half = Fraction(1, 2)
    wrong = []
    for mode in MODES:
        for (r, s), rem in remainders.items():
            for last_bit in (0, 1):
                if rem == 0:
                    want = 0
                elif mode in (DOWN, ZERO):
                    want = -1
                elif mode is UP:
                    want = 1
                elif rem < half:
                    want = -1
                elif rem > half:
                    want = 1
                elif last_bit == 0:
                    want = -1
                else:
                    want = 1
                if decide_round(mode, r, s, last_bit) != want:
                    wrong.append((mode.value, r, s, last_bit))
    dt = time.perf_counter() - t0
    detail = f"32 cells, {dt * 1000:.0f} ms"
    if wrong:
        detail += f", wrong: {wrong}"
    report(1, "decision-table", not wrong and dt < 1.0, detail)


# One witness per combine row: operands at p = 4 whose window and error scan
# land exactly on that (rb, fb, class) input, with the (r, s, carry) that the
# rounding tail encodes and the full four-mode results.  Mode order: down,
# up, zero, nearest.
COMBINE_WITNESSES = [
    # (rb, fb, cls, (r, s, carry), x_bits, y_bits, d, per-mode (bits, exp, ternary))
    (0, 0, EQ0, (0, 0, False), "10", "10", 0,
     [("1000", 1, 0)] * 4),
    (0, 0, GT0, (0, 1, False), "10", "10", 6,
     [("1000", 0, -1), ("1001", 0, 1), ("1000", 0, -1), ("1000", 0, -1)]),
    (0, 1, GT0, (0, 1, False), "10", "10", 5,
     [("1000", 0, -1), ("1001", 0, 1), ("1000", 0, -1), ("1000", 0, -1)]),
    (0, 1, EQU, (1, 0, False), "1000001", "11", 5,
     [("1000", 0, -1), ("1001", 0, 1), ("1000", 0, -1), ("1000", 0, -1)]),
    (0, 1, GTU, (1, 1, False), "1000011", "11", 6,
     [("1000", 0, -1), ("1001", 0, 1), ("1000", 0, -1), ("1001", 0, 1)]),
    (1, 0, EQ0, (1, 0, False), "10", "11", 3,
     [("1001", 0, -1), ("1010", 0, 1), ("1001", 0, -1), ("1010", 0, 1)]),
    (1, 0, GT0, (1, 1, False), "10", "101", 4,
     [("1000", 0, -1), ("1001", 0, 1), ("1000", 0, -1), ("1001", 0, 1)]),
    (1, 1, GT0, (1, 1, False), "10", "11", 4,
     [("1000", 0, -1), ("1001", 0, 1), ("1000", 0, -1), ("1001", 0, 1)]),
    (1, 1, EQU, (0, 0, True), "1000101", "11", 5,
     [("1001", 0, 0)] * 4),
    (1, 1, GTU, (0, 1, True), "1000111", "11", 6,
     [("1001", 0, -1), ("1010", 0, 1), ("1001", 0, -1), ("1001", 0, -1)]),
]


def test_02_combine_table_end_to_end() -> None:
    p = 4
    bad = []
    rows_hit = set()
    for rb, fb, cls, (er, es, ecarry), x_bits, y_bits, d, per_mode in COMBINE_WITNESSES:
        # The last three window digits and the class, in units of u/2.
        v = 4 * rb + 2 * fb + cls
        combined = (v >> 2 & 1, int(v & 3 != 0), v >> 3 == 1)
        if combined != (er, es, ecarry):
            bad.append(f"tail of ({rb},{fb},{cls.name}) encodes {combined}")
            continue

        x = bits_at(0, x_bits)
        y = bits_at(-d, y_bits)
        a, b = ordered(x, y)
        window, _, _, seen_cls, _ = _settle(a, b, p, d)
        seen_rb, seen_fb = window >> 1 & 1, window & 1
        if (seen_rb, seen_fb, seen_cls) != (rb, fb, cls):
            bad.append(
                f"witness for ({rb},{fb},{cls.name}) lands on "
                f"({seen_rb},{seen_fb},{seen_cls.name})"
            )
            continue
        rows_hit.add((rb, fb, cls))

        for mode, (bits, exp, ternary) in zip(MODES, per_mode):
            want = bits_at(exp, bits)
            got = add_positive(x, y, p, mode)
            oracle = exact_add_round(x, y, p, mode)
            if got.result != want or got.ternary != ternary:
                bad.append(f"({rb},{fb},{cls.name}) {mode.value}: got {got}")
            if not same_outcome(got, oracle):
                bad.append(f"({rb},{fb},{cls.name}) {mode.value}: oracle disagrees")
    detail = f"10 rows, each reached end-to-end; {len(rows_hit)} reached"
    if bad:
        detail += f"; problems: {bad[:3]}"
    report(2, "combine-table", not bad and len(rows_hit) == 10, detail)


def test_03_exhaustive_small_domain() -> None:
    t0 = time.perf_counter()

    def all_mantissas(exp: int) -> list[Float]:
        out = []
        for m in range(2, 7):
            for tail in range(1 << (m - 1)):
                out.append(make_float_from_int(1, exp, m, (1 << (m - 1)) | tail))
        return out

    xs = all_mantissas(0)
    ys = {d: all_mantissas(-d) for d in range(17)}
    comparisons = 0
    mismatches = 0
    first = None
    for x in xs:
        for d in range(17):
            for y in ys[d]:
                exact = exact_add(x, y)
                for p in range(2, 9):
                    outs = {}
                    for mode in MODES:
                        got = add_positive(x, y, p, mode)
                        want = exact_add_round(x, y, p, mode)
                        outs[mode] = got
                        comparisons += 1
                        if not same_outcome(got, want):
                            mismatches += 1
                            first = first or (x, y, p, mode)
                        tally_trailing(got, x, y)
                    check_invariants(outs, exact, p)
    dt = time.perf_counter() - t0
    TALLY["sweep_done"] = True
    detail = f"{comparisons} comparisons, {dt:.1f} s"
    if mismatches:
        detail += f", {mismatches} mismatches, first at {first}"
    report(3, "exhaustive-small-domain", mismatches == 0 and dt < 120.0, detail)


def test_04_randomized_differential() -> None:
    t0 = time.perf_counter()
    rng = random.Random(20260814)
    n = 1_000_000
    mismatches = 0
    first = None
    # Toward-zero is not compared against the oracle directly; the
    # toward-zero == down invariant pins it to the oracle-checked down run.
    oracle_modes = (DOWN, UP, NEAREST)
    for _ in range(n):
        x, y, p = _random_case(rng, 256, DEFAULT_CONTEXT)
        exact = exact_add(x, y)
        outs = {}
        for mode in MODES:
            got = add_positive(x, y, p, mode)
            outs[mode] = got
            if not isinstance(got, Overflow):
                tally_trailing(got, x, y)
        for mode in oracle_modes:
            if not same_outcome(outs[mode], exact_add_round(x, y, p, mode)):
                mismatches += 1
                first = first or (x, y, p, mode)
        check_invariants(outs, exact, p)
    dt = time.perf_counter() - t0
    TALLY["random_done"] = True
    detail = f"{n} cases, {dt:.0f} s"
    if mismatches:
        detail += f", {mismatches} mismatches, first at {first}"
    report(4, "randomized-differential", mismatches == 0 and dt < 300.0, detail)


def test_05_reference_fixtures() -> None:
    path = Path(__file__).parent / "fixtures" / "reference_sums.txt"
    replayed = 0
    bad = []
    for line in path.read_text().splitlines():
        case = parse_fixture_line(line)
        if case is None:
            continue
        replayed += 1
        got = add_positive(case.x, case.y, case.precision, case.mode)
        oracle = exact_add_round(case.x, case.y, case.precision, case.mode)
        if got.result != case.expected or got.ternary != case.ternary:
            bad.append(f"line {replayed}: engine got {got}")
        if not same_outcome(got, oracle):
            bad.append(f"line {replayed}: oracle disagrees")
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["check", str(path)])
    if code != 0:
        bad.append(f"check command exited {code}")
    ok = not bad and replayed == 8
    detail = f"{replayed} fixture lines, both worked examples in all four modes"
    if bad:
        detail += f"; problems: {bad[:3]}"
    report(5, "reference-fixtures", ok, detail)


def test_06_complexity_counters() -> None:
    # (a) the trailing-bit counter never exceeds m + n: tallied across the
    # sweeps above and re-checked on this batch.  (b) on uniform random
    # 1024-bit mantissas at equal exponents the counter's tail is
    # exponentially thin: fraction(examined >= k) <= 2**(3-k).
    rng = random.Random(2)
    m = 1024
    p = 64
    top = 1 << (m - 1)
    counts = []
    for _ in range(10_000):
        x = make_float_from_int(1, 0, m, top | rng.getrandbits(m - 1))
        y = make_float_from_int(1, 0, m, top | rng.getrandbits(m - 1))
        out = add_positive(x, y, p, NEAREST)
        counts.append(out.stats.trailing_bits_examined)
    bound_violations = sum(1 for c in counts if c > 2 * m)
    tail_bad = []
    for k in range(4, 17):
        frac = sum(1 for c in counts if c >= k) / len(counts)
        if frac > 2.0 ** (3 - k):
            tail_bad.append((k, frac))
    swept = TALLY["trailing_checked"]
    ok = (
        not tail_bad
        and bound_violations == 0
        and TALLY["trailing_violations"] == 0
        and swept > 0
    )
    if swept == 0:
        detail = "needs checks 3 and 4 to run first (run the whole file)"
    else:
        detail = (
            f"bound held on {swept + len(counts)} outcomes; "
            f"tail max examined {max(counts)} of {2 * m} allowed"
        )
        if tail_bad:
            detail += f"; tail too fat at k={tail_bad}"
        if TALLY["trailing_violations"]:
            detail += f"; {TALLY['trailing_violations']} sweep violations"
    report(6, "complexity-counters", ok, detail)


def flip_unread_limb(f: Float, j: int) -> Float | None:
    """Inverts every bit of limb j that may vary, or None if none may.

    The top bit of limb 0 stays set (normalization) and storage bits below
    the precision stay zero, so the flipped value is still well-formed.
    """
    w = f.limb_width
    used = min(w, f.precision - j * w)
    allowed = ((1 << used) - 1) << (w - used)
    if j == 0:
        allowed &= (1 << (w - 1)) - 1
    if allowed == 0:
        return None
    limbs = list(f.limbs)
    limbs[j] ^= allowed
    return Float(f.sign, f.exponent, f.precision, tuple(limbs), w)


def test_07_short_circuit_soundness() -> None:
    rng = random.Random(77)
    n = 10_000
    flips = 0
    violations = 0
    first = None
    for i in range(n):
        x, y, p = _random_case(rng, 256, DEFAULT_CONTEXT)
        mode = MODES[i % 4]
        a, b = ordered(x, y)
        base = add_positive(a, b, p, mode)
        if isinstance(base, Overflow):
            continue
        for which in (0, 1):
            f = (a, b)[which]
            read = (base.stats.x_limbs_read, base.stats.y_limbs_read)[which]
            for j in range(read, len(f.limbs)):
                g = flip_unread_limb(f, j)
                if g is None:
                    continue
                flips += 1
                redo = add_positive(g, b, p, mode) if which == 0 else add_positive(a, g, p, mode)
                if (
                    isinstance(redo, Overflow)
                    or redo.result != base.result
                    or redo.ternary != base.ternary
                ):
                    violations += 1
                    first = first or (a, b, p, mode, which, j)
    detail = f"{n} cases, {flips} unread-limb flips"
    if violations:
        detail += f", {violations} output changes, first at {first}"
    report(7, "short-circuit-soundness", violations == 0 and flips > 0, detail)


def test_08_rounding_invariants() -> None:
    complete = TALLY["sweep_done"] and TALLY["random_done"]
    ok = complete and not TALLY["invariant_violations"]
    if not complete:
        detail = "needs checks 3 and 4 to run first (run the whole file)"
    else:
        detail = (
            f"{TALLY['invariant_cases']} cases: toward-zero == down, "
            "down <= exact <= up, ternary signs, nearest within half an ulp"
        )
        if TALLY["invariant_violations"]:
            detail += f"; first violation: {TALLY['invariant_violations'][0]}"
    report(8, "rounding-invariants", ok, detail)


def test_09_overflow_detection() -> None:
    emax = DEFAULT_CONTEXT.emax
    bad = []

    def battery(x: Float, y: Float, p: int, expected: dict) -> None:
        for mode in MODES:
            got = add_positive(x, y, p, mode)
            oracle = exact_add_round(x, y, p, mode)
            if not same_outcome(got, oracle):
                bad.append(f"{mode.value}: engine {got} oracle {oracle}")
            want = expected[mode]
            if isinstance(want, Overflow):
                if got != want:
                    bad.append(f"{mode.value}: wanted {want}, got {got}")
            else:
                if isinstance(got, Overflow) or (got.result, got.ternary) != want:
                    bad.append(f"{mode.value}: wanted {want}, got {got}")
            if not isinstance(got, Overflow) and got.result.exponent > emax:
                bad.append(f"{mode.value}: wrapped past emax")

    # Doubling at emax carries out of the window in every mode; the doubled
    # value itself is exact, so the ternary is 0.
    top = bits_at(emax, "11")
    battery(top, top, 2, {m: Overflow(m, 1, 0) for m in MODES})

    # A sticky tail at emax: increment overflows in up/nearest only.
    x = bits_at(emax, "11111")
    y = bits_at(emax - 70, "10")
    fin = bits_at(emax, "1111")
    battery(x, y, 4, {
        DOWN: (fin, -1), ZERO: (fin, -1),
        UP: Overflow(UP, 1, 1), NEAREST: Overflow(NEAREST, 1, 1),
    })

    # A tie at emax: nearest picks the even (upper) candidate and overflows.
    x = bits_at(emax, "11")
    y = bits_at(emax - 2, "10")
    fin = bits_at(emax, "11")
    battery(x, y, 2, {
        DOWN: (fin, -1), ZERO: (fin, -1),
        UP: Overflow(UP, 1, 1), NEAREST: Overflow(NEAREST, 1, 1),
    })

    # One step below emax the doubled value is still representable.
    near = bits_at(emax - 1, "10")
    fin = bits_at(emax, "10")
    battery(near, near, 2, {m: (fin, 0) for m in MODES})

    # The command line reports overflow with exit code 2.
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(["add", "-p", "2", "-m", "up", f"0.11e{emax}", f"0.11e{emax}"])
    if code != 2 or buf.getvalue() != "overflow(+) 0\n":
        bad.append(f"cli gave exit {code}, output {buf.getvalue()!r}")

    detail = "window carry, increment, tie increment, near miss, cli exit code"
    if bad:
        detail += f"; problems: {bad[:3]}"
    report(9, "overflow-detection", not bad, detail)
