"""Command-line behaviour: output format, exit codes, determinism."""

import contextlib
import io
import os
import random
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xadd import DEFAULT_MAX_PRECISION, Overflow, RoundingMode, parse_float
from xadd.cli import main, parse_fixture_line, parse_ternary

FIXTURE = "tests/fixtures/reference_sums.txt"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_add_worked_example(capsys):
    code, out, _ = run(capsys, "add", "-p", "4", "-m", "nearest",
                       "0.101010000010010001", "0.10001e-9")
    assert code == 0
    assert out == "0.1011e0 +1\n"


def test_add_exact_doubling(capsys):
    code, out, _ = run(capsys, "add", "-p", "2", "-m", "down", "0.10", "0.10")
    assert code == 0
    assert out == "0.10e1 0\n"


def test_add_output_reparses(capsys):
    _, out, _ = run(capsys, "add", "-p", "2", "-m", "up", "0.101111100101", "0.11010e-7")
    result_token, ternary_token = out.split()
    assert parse_float(result_token).precision == 2
    assert parse_ternary(ternary_token) == 1


def test_add_stats_suffix(capsys):
    code, out, _ = run(capsys, "add", "--stats", "-p", "2", "-m", "nearest",
                       "0.101111100101", "0.11010e-7")
    assert code == 0
    assert out == "0.11e0 +1 # bits_examined=8\n"


def test_add_bad_token_fails(capsys):
    code, out, err = run(capsys, "add", "-p", "2", "-m", "up", "0.10", "0.x")
    assert code == 1
    assert out == "" and "0.x" in err


# An exponent longer than int() converts from decimal by default (4300 digits).
LONG_EXPONENT_TOKEN = "0.11e" + "9" * 5000


def test_add_overlong_exponent_is_input_error(capsys):
    code, out, err = run(capsys, "add", "-p", "4", LONG_EXPONENT_TOKEN, "0.1e0")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("token", ["nan", "inf(+)", "inf(-)", "overflow(+)"])
def test_add_rejects_non_addend_specials(capsys, token):
    code, _, err = run(capsys, "add", "-p", "2", token, "0.10")
    assert code == 1 and err


def test_add_single_operand_rounds_it(capsys):
    code, out, _ = run(capsys, "add", "-p", "3", "-m", "nearest", "0.1011")
    assert code == 0
    assert out == "0.110e0 +1\n"


def test_add_zero_operand_rounds_the_other(capsys):
    code, out, _ = run(capsys, "add", "-p", "3", "-m", "down", "zero(+)", "0.101110")
    assert code == 0
    assert out == "0.101e0 -1\n"


def test_add_two_zeros(capsys):
    code, out, _ = run(capsys, "add", "-p", "2", "zero(-)", "zero(+)")
    assert code == 0
    assert out == "zero(+) 0\n"


@pytest.mark.parametrize("mode", [mode.value for mode in RoundingMode])
@pytest.mark.parametrize(
    "zeros",
    [["zero(-)", "zero(-)"], ["zero(+)", "zero(-)"], ["zero(-)", "zero(+)"], ["zero(-)"], ["zero(+)"]],
)
def test_add_zeros_keeps_the_ieee_sign(capsys, mode, zeros):
    # IEEE 754 section 6.3: -0 + -0 is -0, and +0 + -0 is -0 under
    # roundTowardNegative (down) and +0 in every other mode.
    negative = set(zeros) == {"zero(-)"} or (len(set(zeros)) == 2 and mode == "down")
    assert run(capsys, "add", "-p", "2", "-m", mode, *zeros) == (
        0, f"zero({'-' if negative else '+'}) 0\n", ""
    )


@pytest.mark.parametrize("precision", ["0", "1", "-5", "99999999999"])
@pytest.mark.parametrize("zeros", [["zero(+)", "zero(-)"], ["zero(-)"]])
def test_add_checks_the_precision_of_a_sum_of_zeros(capsys, precision, zeros):
    assert run(capsys, "add", "-p", precision, *zeros) == (
        1, "", f"error: precision must lie in [2, 16777216], got {precision}\n"
    )


@pytest.mark.parametrize("tokens", [["0.1", "0.11"], ["0.11", "0.1e-3"]])
def test_add_names_a_one_bit_token_not_the_precision(capsys, tokens):
    one_bit = next(t for t in tokens if t.split("e")[0] == "0.1")
    assert run(capsys, "add", "-p", "53", *tokens) == (
        1, "", f"error: a value needs 2 to 16777216 mantissa bits, {one_bit!r} has 1\n"
    )


def test_check_names_a_one_bit_token(tmp_path, capsys):
    fixture = tmp_path / "one_bit.txt"
    fixture.write_text("0.11 0.1 53 nearest -> 0.111e0 0\n")
    assert run(capsys, "check", str(fixture)) == (
        1, "", "error: line 1: a value needs 2 to 16777216 mantissa bits, '0.1' has 1\n"
    )


def test_add_reports_a_bad_token_before_a_bad_precision(capsys):
    code, out, err = run(capsys, "add", "-p", "0", "zero(+)", "0.x")
    assert (code, out) == (1, "") and "0.x" in err and "precision" not in err


def test_add_overflow_exit_code(capsys):
    emax = 2**30 - 1
    code, out, _ = run(capsys, "add", "-p", "2", "-m", "up",
                       f"0.10e{emax}", f"0.10e{emax}")
    assert code == 2
    assert out == "overflow(+) 0\n"


def test_add_missing_precision_is_usage_error(capsys):
    code, _, err = run(capsys, "add", "0.10", "0.10")
    assert code == 1 and err


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "add", "-p", "2", "--frobnicate", "0.10", "0.10")
    assert code == 1 and err


def test_verify_pass_line(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "1", "--count", "1000",
                       "--max-prec", "64")
    assert code == 0
    assert out == "PASS n=1000\n"


def test_verify_deterministic_per_seed(capsys):
    args = ("verify", "--seed", "42", "--count", "300", "--max-prec", "96")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second == (0, "PASS n=300\n", "")


def test_verify_generated_seed_is_printed(capsys):
    code, out, _ = run(capsys, "verify", "--count", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# seed=") and lines[1] == "PASS n=5"


def test_verify_rejects_zero_count(capsys):
    code, _, err = run(capsys, "verify", "--count", "0")
    assert code == 1 and "count" in err


def test_verify_rejects_bad_max_prec(capsys):
    code, _, err = run(capsys, "verify", "--max-prec", "1")
    assert code == 1 and "max-prec" in err


def _or_loop_mantissa(rng, bits):
    """`cli._random_mantissa` with its sparse style written as a loop that
    ORs one bit at a time into the int: the same draws, in the same order."""
    top = 1 << (bits - 1)
    style = rng.randrange(6)
    if style == 0:
        return top
    if style == 1:
        return (1 << bits) - 1
    if style == 2:
        value = top
        for _ in range(1 + bits // 8):
            value |= 1 << rng.randrange(bits)
        return value
    if style == 3:
        run = rng.randint(1, bits)
        return ((1 << run) - 1) << (bits - run)
    return top | rng.getrandbits(bits - 1)


def test_random_mantissa_draws_what_the_or_loop_draws():
    from xadd.cli import _random_mantissa

    for seed in range(40):
        rng, ref = random.Random(seed), random.Random(seed)
        for bits in (2, 3, 7, 8, 9, 53, 64, 65, 200, 1031):
            assert _random_mantissa(rng, bits) == _or_loop_mantissa(ref, bits)
        assert rng.random() == ref.random()  # both consumed the same draws


def test_random_mantissa_sparse_draw_is_not_quadratic():
    # Seed 7's first style is the sparse one.  OR-ing its 2^19 bits one at a
    # time into a 2^22-bit int takes tens of seconds.
    from xadd.cli import _random_mantissa

    assert random.Random(7).randrange(6) == 2
    bits = 1 << 22
    t0 = time.perf_counter()
    value = _random_mantissa(random.Random(7), bits)
    assert time.perf_counter() - t0 < 10.0
    assert value.bit_length() == bits and 1 < bin(value).count("1") <= 2 + bits // 8


def test_verify_reports_counterexample_on_injected_fault(capsys, monkeypatch):
    import xadd.cli as cli

    real = cli.add_positive

    def broken(x, y, precision, mode, **kwargs):
        out = real(x, y, precision, mode, **kwargs)
        if isinstance(out, Overflow) or mode is not RoundingMode.DOWN:
            return out
        wrong = 1 if out.ternary <= 0 else -1
        return type(out)(out.result, wrong, out.stats)

    monkeypatch.setattr(cli, "add_positive", broken)
    code, out, _ = run(capsys, "verify", "--seed", "9", "--count", "50")
    assert code == 3
    # The counterexample is a single fixture-format line (plus a comment).
    case = parse_fixture_line(out.strip())
    assert case is not None and case.mode is RoundingMode.DOWN


def test_check_replays_committed_fixture(capsys):
    code, out, _ = run(capsys, "check", FIXTURE)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "PASS n=8"
    assert sum(1 for line in lines if line.startswith("ok")) == 8


def test_check_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n\n")
    code, out, _ = run(capsys, "check", str(empty))
    assert code == 0
    assert out == "PASS n=0\n"


def test_check_detects_wrong_ternary(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.10 0.10 2 down -> 0.10e1 +1\n")
    code, out, _ = run(capsys, "check", str(bad))
    assert code == 3
    assert "FAIL line 1" in out and "FAIL n=1 mismatches=1" in out


OVERFLOW_SUM = f"0.10e{2**30 - 1} 0.10e{2**30 - 1} 2 up"  # overflows at the default emax


@pytest.mark.parametrize(
    "recorded, code, out",
    [
        ("overflow(+) 0", 0, "ok   line 1\nPASS n=1\n"),
        ("overflow(+) +1", 3, "FAIL line 1: got overflow(+) 0\nFAIL n=1 mismatches=1\n"),
        ("overflow(-) 0", 3, "FAIL line 1: got overflow(+) 0\nFAIL n=1 mismatches=1\n"),
        ("0.10e1 0", 3, "FAIL line 1: got overflow(+) 0\nFAIL n=1 mismatches=1\n"),
    ],
    ids=["overflow", "overflow-wrong-ternary", "overflow-wrong-sign", "value-line-overflows"],
)
def test_check_overflow_lines(tmp_path, capsys, recorded, code, out):
    fixture = tmp_path / "overflow.txt"
    fixture.write_text(f"{OVERFLOW_SUM} -> {recorded}\n")
    assert run(capsys, "check", str(fixture)) == (code, out, "")


def test_check_malformed_line_is_input_error(tmp_path, capsys):
    bad = tmp_path / "malformed.txt"
    bad.write_text("0.10 0.10 2 down 0.10e1 0\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1 and "line 1" in err


def test_check_overlong_exponent_is_input_error(tmp_path, capsys):
    bad = tmp_path / "long.txt"
    bad.write_text(f"{LONG_EXPONENT_TOKEN} 0.1e0 4 nearest -> 0.1e0 0\n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1
    assert err.startswith("error: line 1") and "Traceback" not in err


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "no/such/file.txt")
    assert code == 1 and err


@pytest.mark.parametrize("precision", ["0", "-1", "99999999999"])
def test_check_out_of_range_precision_is_input_error(tmp_path, capsys, precision):
    bad = tmp_path / "prec.txt"
    bad.write_text(f"0.11e0 0.10e0 {precision} nearest -> 0.10e0 0\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error: line 1") and "Traceback" not in err


def test_check_precision_over_4300_digits_is_input_error(tmp_path, capsys):
    bad = tmp_path / "prec.txt"
    bad.write_text(f"0.11e0 0.10e0 {'9' * 5000} nearest -> 0.10e0 0\n")
    code, out, err = run(capsys, "check", str(bad))
    assert (code, out) == (1, "")
    assert err.startswith("error: line 1: not a precision: '999") and len(err) < 200


def test_long_option_value_is_quoted_by_its_prefix_and_length(capsys):
    code, out, err = run(capsys, "add", "-p", "x" * 10**6, "0.10", "0.10")
    assert (code, out) == (1, "")
    assert err.startswith("error: argument -p/--prec: invalid int value: 'xxx")
    assert "characters)" in err and len(err) < 200


def test_check_non_utf8_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "latin.txt"
    bad.write_bytes(b"\xff\xfe0.10 0.10 2 down -> 0.10e1 0\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_leading_zero_message(tmp_path, capsys):
    assert run(capsys, "add", "-p", "2", "0.01", "0.10") == (
        1, "", "error: leading mantissa bit must be 1: '01'\n"
    )
    fixture = tmp_path / "lead.txt"
    fixture.write_text("0.01 0.10 2 down -> 0.10e1 0\n")
    assert run(capsys, "check", str(fixture)) == (
        1, "", "error: line 1: leading mantissa bit must be 1: '01'\n"
    )


# Arabic-Indic one and two: int() and the regex class \d read them as 1 and 2.
ONE, TWO = "\u0661", "\u0662"


@pytest.mark.parametrize(
    "argv",
    [
        ["add", "-p", "2", f"0.11e{ONE}", "0.10e-5"],
        ["add", "-p", TWO, "0.11", "0.10"],
        ["add", "-p", "1_0", "0.11", "0.10"],
        ["verify", "--seed", ONE, "--count", "2"],
        ["verify", "--seed", "1", "--count", "1_0"],
        ["verify", "--seed", "1", "--max-prec", f"6{TWO}"],
    ],
    ids=["exponent", "precision", "precision-underscore", "seed", "count", "max-prec"],
)
def test_add_and_verify_reject_digits_that_are_not_ascii(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and err.startswith("error: ")


@pytest.mark.parametrize(
    "line",
    [
        f"0.11e{ONE} 0.10 2 down -> 0.10e1 0",
        f"0.11 0.10 {TWO} down -> 0.10e1 0",
        "0.11 0.10 1_0 down -> 0.10e1 0",
    ],
    ids=["exponent", "precision", "precision-underscore"],
)
def test_check_rejects_digits_that_are_not_ascii(tmp_path, capsys, line):
    fixture = tmp_path / "digits.txt"
    fixture.write_text(line + "\n")
    code, out, err = run(capsys, "check", str(fixture))
    assert (code, out) == (1, "") and err.startswith("error: line 1: ")


# --- fuzzing: any argv or fixture file gives an exit code, never a raise ----

_SPECIALS = ["nan", "inf(+)", "inf(-)", "zero(+)", "zero(-)", "overflow(+)", "overflow(-)"]
_TOKEN = st.one_of(
    st.text(f"01.e+-()_{ONE}{TWO}", max_size=12),
    st.builds("0.1{}e{}".format, st.text("01", max_size=8), st.integers(-(1 << 31), 1 << 31)),
    st.sampled_from(_SPECIALS),
    st.text(max_size=8),
)
# Precisions stay small enough to keep each example cheap, plus values
# just outside the accepted range and far outside it.
_PRECISION = st.one_of(
    st.integers(-2, 1 << 10).map(str),
    st.sampled_from([str(DEFAULT_MAX_PRECISION + 1), "99999999999"]),
    st.text(f"12 _{TWO}", max_size=4),
    st.text(max_size=4),
)
_MODE = st.one_of(st.sampled_from([mode.value for mode in RoundingMode]), st.text(max_size=8))
_ADD_ARGV = st.builds(
    lambda p, mode, stats, operands: ["add", "-p", p, "-m", mode, *stats, *operands],
    _PRECISION,
    _MODE,
    st.sampled_from([[], ["--stats"]]),
    st.lists(_TOKEN, max_size=3),
)
_FIXTURE_LINE = st.one_of(
    st.builds(
        "{} {} {} {} -> {} {}".format,
        _TOKEN,
        _TOKEN,
        _PRECISION,
        _MODE,
        _TOKEN,
        st.one_of(st.sampled_from(["-1", "0", "+1"]), st.text(max_size=3)),
    ),
    st.text(max_size=40),
)
_FIXTURE_FILE = st.one_of(
    st.lists(_FIXTURE_LINE, max_size=4).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=40),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(_ADD_ARGV, _FIXTURE_FILE))
@example(b"0.11e0 0.10e0 0 nearest -> 0.10e0 0\n")
@example(b"\xff\xfe0.10 0.10 2 down -> 0.10e1 0\n")
@example(["add", "--help"])
def test_cli_returns_an_exit_code_for_any_input(case):
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        err = stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        if isinstance(case, bytes):
            folder = stack.enter_context(tempfile.TemporaryDirectory())
            path = os.path.join(folder, "fixture.txt")
            with open(path, "wb") as f:
                f.write(case)
            code = main(["check", path])
        else:
            code = main(case)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
