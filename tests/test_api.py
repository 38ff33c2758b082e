"""The package's public surface: what `import xadd` exports and loads."""

import subprocess
import sys

import xadd
import xadd.textio
from xadd import Float

PUBLIC = [
    "AddOutcome",
    "Context",
    "DEFAULT_CONTEXT",
    "DEFAULT_EMAX",
    "DEFAULT_EMIN",
    "DEFAULT_MAX_PRECISION",
    "ExactSum",
    "ExponentOutOfRange",
    "Float",
    "FloatValueError",
    "InvalidPrecision",
    "NotNormalized",
    "Overflow",
    "ParseError",
    "RoundingMode",
    "ScanStats",
    "add_positive",
    "exact_add",
    "exact_add_round",
    "format_float",
    "make_float",
    "make_float_from_int",
    "parse_float",
    "round_to_prec",
]

# The command line's token and fixture-line grammar, which lives in `cli`.
CLI_GRAMMAR = [
    "FixtureCase",
    "SpecialValue",
    "format_fixture_line",
    "format_outcome",
    "format_special",
    "format_ternary",
    "parse_fixture_line",
    "parse_mode",
    "parse_ternary",
    "parse_token",
    "_SPECIAL_RE",
    "_TERNARY",
]


def test_all_names_the_library_surface():
    assert sorted(xadd.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(xadd, name) is not None


def test_star_import_binds_exactly_the_surface():
    namespace: dict = {}
    exec("from xadd import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(PUBLIC)


def test_textio_keeps_only_the_value_grammar():
    assert [name for name in CLI_GRAMMAR if hasattr(xadd.textio, name)] == []
    assert not hasattr(xadd.textio, "Overflow") and not hasattr(xadd.textio, "RoundingMode")


def test_float_has_no_fraction_view():
    assert not hasattr(Float, "as_fraction")


def test_import_loads_the_library_and_not_the_command_line():
    code = "import sys, xadd; print(' '.join(sorted(m for m in sys.modules if m.startswith('xadd'))))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert {"xadd", "xadd.core", "xadd.engine", "xadd.oracle", "xadd.rounding", "xadd.textio"} <= loaded
    assert "xadd.cli" not in loaded
