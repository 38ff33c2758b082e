"""Mutation analysis of the engine, the rounding, the value type's storage,
the value grammar and the oracle.

    python3 tools/mutants.py --sample 150 --seed 1 --jobs 2
    python3 tools/mutants.py --list
    python3 tools/mutants.py --only engine.py#041 core.py#007

Each mutant makes one small change to one site of ``src/xadd/engine.py``,
``src/xadd/rounding.py``, ``src/xadd/textio.py``, ``src/xadd/oracle.py`` or,
in ``src/xadd/core.py``, the value type and its limb buffer: `Float` (its
validating constructor, the `limbs` view, hash and repr), the trusted
builder `float_from_mantissa` and the struct codec `_limb_struct`:

- a comparison swapped with its neighbour or its negation (``<`` and
  ``<=``, ``==`` and ``!=``, ``in`` and ``not in``, ``is`` and ``is not``);
- an arithmetic, shift, bitwise or boolean operator swapped (``+`` and
  ``-``, ``<<`` and ``>>``, ``&`` and ``|``, ``^`` to ``|``, ``*`` and
  ``//``, ``and`` and ``or``);
- an int constant moved by one either way;
- a ``not``, ``~`` or unary minus dropped, and an ``if`` test negated.

String literals are not mutated, so messages and regexes are covered only
where a comparison guards them.  Docstrings, annotations, decorators, f-strings and ``raise`` statements are
left alone.  The mutated module is written with `ast.unparse` into a copy of
the tree in a temporary directory, and the kill suite (`KILL_SUITE`) runs
there with ``pytest -x``.  A mutant is killed when the suite fails or runs
three times as long as the clean run, 60 s at least (a hang), and survives
when the suite passes.  The unmutated modules, written the same way, must
pass first; ``--slow`` runs the survivors against `SLOW_SUITE` too.  A name
in `TARGETS` that its file does not define stops the tool with a non-zero
exit, ``--list`` included, so that a renamed target cannot drop out.

A mutant's id is its file and its index in the file's list of sites, which
``--list`` prints with the line and the source it changes; ids hold for
one tree only.  ``--sample N --seed S`` draws N mutants with a seeded
generator; without ``--sample`` every mutant runs.  Standard library only,
apart from the pytest the test suite needs; it is run by hand and is not
part of the test suite.

The surviving mutants, all equivalent to the original (ids and lines of
the tree this list was written for; ``--list`` prints them).  The last runs
killed 267 of ``engine.py``'s 289 mutants, all 26 of ``core.py``'s, 25 of
``textio.py``'s 31 and 33 of ``oracle.py``'s 38; the 22, 6 and 5 below
survive:

- ``engine.py#006`` (line 51) ``GT_U = 4``: GT_U only occurs with fb = 1,
  where ``(window << 1) + 3`` and ``+ 4`` agree above their two lowest
  bits and both leave those nonzero, so `round_magnitude` rounds and
  carries the same.
- ``engine.py#029``, ``#030`` (line 108) ``shift > 0``, ``shift >= 1``;
  ``#046``, ``#178`` (lines 152, 219) ``hi >= ls``; ``#105`` (line 193)
  ``m <= y_end``; ``#107``, ``#155`` (lines 195, 211) ``m >= y_end``;
  ``#116`` (line 200) ``end <= top``; ``#173`` (line 217)
  ``j + size <= stop``; ``#188``, ``#190`` (line 221) ``ya >= 0``,
  ``ya > -1``; ``#238``, ``#240`` (line 242) ``hi <= nx``, ``yb <= ny``:
  at the boundary both branches give the same value (a shift by 0, an
  empty slice, the same bound or the same clamp).
- ``engine.py#243``, ``#244``, ``#246``, ``#247`` (line 265),
  ``rounding.py#069``, ``#070`` (line 112), ``textio.py#028``, ``#029``
  (line 66) and ``oracle.py#003``, ``#004``, ``#006``, ``#007`` (line 40)
  ``sign <= 0``, ``sign < 1``: a sign is +1 or -1, so these agree with
  ``sign < 0``.
- ``engine.py#255``, ``#256``, ``#257`` (line 269) ``2 < precision``,
  ``precision < DEFAULT_MAX_PRECISION``, ``3 <= precision``: the precision
  at the bound fails the inline test and falls through to
  `check_precision`, which lets it pass.
- ``engine.py#271`` (line 278) ``x.precision <= y.precision``: it swaps
  only operands tied on exponent and precision, and `_settle` reads such a
  pair symmetrically, counters included.
- ``textio.py#000``, ``#001`` (line 35) ``token.find("e", 3)``,
  ``token.find("e", 1)``: a token that can parse starts with ``0.``, so
  index 1 is never an ``e``; when index 2 is, the original's mantissa is
  empty and the mutant's starts with ``e``, and `_bits_int` refuses both,
  with the same message.
- ``textio.py#003``, ``#004`` (line 36) ``mark <= 0``, ``mark < 1``: `find`
  from index 2 returns -1 or at least 2.
- ``oracle.py#023`` (line 48) ``total | -total``: for a positive int it is
  ``-(total & -total)``, whose bit length is the same.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "xadd"
# File -> the top-level names whose sites are mutated; None takes them all.
TARGETS = {
    "engine.py": None,
    "rounding.py": None,
    "core.py": {"_limb_struct", "Float", "float_from_mantissa"},
    "textio.py": None,
    "oracle.py": None,
}
# Fastest to fail first: pytest -x stops at the first failure.  The
# acceptance and CLI tests repeat these checks at much greater cost.
KILL_SUITE = (
    "tests/test_core.py",
    "tests/test_rounding.py",
    "tests/test_engine_units.py",
    "tests/test_oracle.py",
    "tests/test_add_differential.py",
    "tests/test_textio.py",
    "tests/test_scan.py",
)
# With --slow, the survivors of KILL_SUITE run again against the exhaustive
# and the randomized differential checks, about two minutes each.
SLOW_SUITE = (
    "tests/test_acceptance.py::test_03_exhaustive_small_domain",
    "tests/test_acceptance.py::test_04_randomized_differential",
)

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.And: ast.Or, ast.Or: ast.And,
}
# Subtrees that hold no behaviour worth mutating.
_SKIPPED_NODES = (ast.JoinedStr, ast.Raise)
_SKIPPED_FIELDS = {"annotation", "returns", "decorator_list"}


@dataclass(frozen=True)
class Mutant:
    file: str
    index: int
    line: int
    kind: str
    source: str

    @property
    def id(self) -> str:
        return f"{self.file}#{self.index:03d}"

    def __str__(self) -> str:
        return f"{self.id} L{self.line} {self.kind}: {self.source}"


def _kinds(node: ast.AST):
    """The mutations of `node` itself, by name."""
    if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in _SWAPS:
        yield f"{type(node.op).__name__}->{_SWAPS[type(node.op)].__name__}"
    elif isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _SWAPS:
                yield f"{type(op).__name__}->{_SWAPS[type(op)].__name__}@{i}"
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.Invert, ast.USub)):
        yield f"drop-{type(node.op).__name__}"
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield "+1"
        yield "-1"
    if isinstance(node, (ast.If, ast.IfExp)):
        yield "negate-test"


def _walk(node: ast.AST):
    """(node, kind) for every mutation in `node`'s subtree, in source order."""
    if isinstance(node, _SKIPPED_NODES):
        return
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return  # a docstring
    for kind in _kinds(node):
        yield node, kind
    for field, value in ast.iter_fields(node):
        if field in _SKIPPED_FIELDS:
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _walk(child)


def _defined_name(stmt: ast.stmt) -> str | None:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
        return stmt.targets[0].id
    return None


def _sites(tree: ast.Module, names: set[str] | None):
    for stmt in tree.body:
        if names is None or _defined_name(stmt) in names:
            yield from _walk(stmt)


def _parse(file: str) -> tuple[str, ast.Module]:
    text = (ROOT / PACKAGE / file).read_text()
    return text, ast.parse(text)


def _check_targets() -> None:
    """Refuse a file map that names what its file does not define, so that
    a renamed or deleted target cannot drop out of the run unnoticed."""
    for file, names in TARGETS.items():
        if names is None:
            continue
        defined = {_defined_name(stmt) for stmt in _parse(file)[1].body}
        missing = sorted(names - defined)
        if missing:
            raise SystemExit(f"{PACKAGE / file} defines no {', '.join(missing)}: update TARGETS")


def enumerate_mutants() -> list[Mutant]:
    _check_targets()
    mutants = []
    for file, names in TARGETS.items():
        text, tree = _parse(file)
        for index, (node, kind) in enumerate(_sites(tree, names)):
            source = " ".join((ast.get_source_segment(text, node) or "").split())
            mutants.append(Mutant(file, index, node.lineno, kind, source[:70]))
    return mutants


def _mutate(node: ast.AST, kind: str) -> None:
    if kind == "negate-test":
        node.test = ast.UnaryOp(op=ast.Not(), operand=node.test)
    elif kind in ("+1", "-1"):
        node.value += 1 if kind == "+1" else -1
    elif kind == "drop-Not":  # `not x` -> `not not x`, x's truth value
        node.operand = ast.UnaryOp(op=ast.Not(), operand=node.operand)
    elif kind.startswith("drop-"):  # `~x` or `-x` -> `+x`, x itself for an int
        node.op = ast.UAdd()
    elif "@" in kind:
        i = int(kind.rsplit("@", 1)[1])
        node.ops[i] = _SWAPS[type(node.ops[i])]()
    else:
        node.op = _SWAPS[type(node.op)]()


def mutated_source(file: str, mutant: Mutant | None) -> str:
    """`file` written back by ast.unparse, with `mutant` applied if given."""
    _, tree = _parse(file)
    if mutant is not None:
        node, kind = list(_sites(tree, TARGETS[file]))[mutant.index]
        assert kind == mutant.kind, (mutant, kind)
        _mutate(node, kind)
        ast.fix_missing_locations(tree)
    return ast.unparse(tree) + "\n"


def run_suite(mutant: Mutant | None, timeout: float, suite: tuple[str, ...] = KILL_SUITE) -> tuple[str, float]:
    """('passed' | 'failed' | 'timeout', seconds) of `suite` on a copy of
    the tree whose target modules are unparsed, one with the mutant."""
    with tempfile.TemporaryDirectory(prefix="xadd-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", work / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", work / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        for file in TARGETS:
            chosen = mutant if mutant is not None and mutant.file == file else None
            (work / PACKAGE / file).write_text(mutated_source(file, chosen))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(work / "src"))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *suite]
        start = time.perf_counter()
        try:
            done = subprocess.run(command, cwd=work, env=env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - start
        return ("passed" if done.returncode == 0 else "failed"), time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    parser.add_argument("--sample", type=int, help="run this many mutants, drawn with --seed")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--only", nargs="+", metavar="ID", help="run these mutant ids")
    parser.add_argument("--jobs", type=int, default=1, help="suites run at once")
    parser.add_argument("--slow", action="store_true", help="run the survivors against SLOW_SUITE too")
    args = parser.parse_args(argv)

    mutants = enumerate_mutants()
    if args.list:
        for mutant in mutants:
            print(mutant)
        print(f"{len(mutants)} mutants")
        return 0
    if args.only:
        by_id = {m.id: m for m in mutants}
        unknown = [i for i in args.only if i not in by_id]
        if unknown:
            parser.error(f"unknown mutant ids: {' '.join(unknown)}")
        chosen = [by_id[i] for i in args.only]
    elif args.sample is not None:
        chosen = sorted(random.Random(args.seed).sample(mutants, min(args.sample, len(mutants))), key=lambda m: (m.file, m.index))
    else:
        chosen = mutants

    status, seconds = run_suite(None, timeout=3600)
    print(f"# clean run {status} in {seconds:.1f} s; {len(chosen)} of {len(mutants)} mutants", flush=True)
    if status != "passed":
        print("# the unmutated tree must pass the kill suite first", file=sys.stderr)
        return 1
    timeout = max(60.0, 3 * seconds)  # a mutant that runs this long hangs

    def one(mutant: Mutant, suite: tuple[str, ...] = KILL_SUITE, limit: float = timeout) -> tuple[Mutant, str]:
        outcome, took = run_suite(mutant, limit, suite)
        print(f"{'survived' if outcome == 'passed' else 'killed  '} {mutant} ({outcome}, {took:.1f} s)", flush=True)
        return mutant, outcome

    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        survivors = [m for m, outcome in pool.map(one, chosen) if outcome == "passed"]
        killed = len(chosen) - len(survivors)
        print(f"# killed {killed} of {len(chosen)} ({killed / max(len(chosen), 1):.1%})", flush=True)
        if args.slow and survivors:
            print(f"# {len(survivors)} survivors against {' '.join(SLOW_SUITE)}", flush=True)
            slow = [m for m, outcome in pool.map(lambda m: one(m, SLOW_SUITE, 3600), survivors) if outcome == "passed"]
            print(f"# the slow checks killed {len(survivors) - len(slow)} more", flush=True)
            survivors = slow
    for mutant in survivors:
        print(f"# survived {mutant}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
