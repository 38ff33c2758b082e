"""Hash every `add_positive` outcome over a fixed input set, to show that two
trees of the library compute the same outcomes.

    python3 tools/outcome_digest.py --src src

imports ``xadd`` from the given ``src`` directory and prints, for each part
of the input set, the number of outcomes and two SHA-256 digests: ``all``
over every field (the result's sign, exponent, precision, limbs and limb
width, the ternary, an ``Overflow``'s mode, sign and ternary, and the five
``ScanStats`` fields) and ``results`` over the same without ``ScanStats``.
Run it once per tree and compare the lines.  ``tools/outcome_digest.txt``
holds the two result lines of the current tree, and CI diffs a fresh run
against it; a change that means to alter an outcome rewrites that file.

The input set, at limb widths 32 and 64, each pair added in both orders:

- ``exhaustive``: the exhaustive domain of acceptance check 3, every
  mantissa of 2 to 6 bits for x at exponent 0 and for y at exponent -d,
  d in 0..16, target precisions 2..8, all four modes;
- ``random``: `xadd.cli._random_case` batches of 2,000 pairs from fixed
  seeds, in the default context and with emax = 40, at maximum precisions
  8, 64, 256 and 1200, all four modes.

Standard library only; it takes a minute or two and is not part of the
test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import random
import sys
from pathlib import Path

WIDTHS = (32, 64)
RANDOM_BATCH = 2000
RANDOM_MAX_PRECISIONS = (8, 64, 256, 1200)


def _keys(out, overflow_type) -> tuple[tuple, tuple]:
    """(every field, every field but the ScanStats) of one outcome."""
    if isinstance(out, overflow_type):
        key = ("overflow", out.mode.name, out.sign, out.ternary)
        return key, key
    r, s = out.result, out.stats
    result = (r.sign, r.exponent, r.precision, r.limbs, r.limb_width, out.ternary)
    stats = (s.x_limbs_read, s.y_limbs_read, s.trailing_bits_examined, s.q_found_at, s.limbs_touched)
    return result + stats, result


def _exhaustive_cases(xadd):
    for w in WIDTHS:
        ctx = xadd.Context(limb_width=w)

        def mantissas(exponent: int) -> list:
            return [
                xadd.make_float_from_int(1, exponent, m, 1 << (m - 1) | tail, ctx=ctx)
                for m in range(2, 7)
                for tail in range(1 << (m - 1))
            ]

        xs = mantissas(0)
        ys = {d: mantissas(-d) for d in range(17)}
        for x in xs:
            for d in range(17):
                for y in ys[d]:
                    for p in range(2, 9):
                        yield x, y, p, ctx


def _random_cases(xadd, random_case):
    for w in WIDTHS:
        for emax in (xadd.DEFAULT_EMAX, 40):
            ctx = xadd.Context(limb_width=w, emax=emax)
            for max_prec in RANDOM_MAX_PRECISIONS:
                rng = random.Random(100_000 * w + 10 * max_prec + (emax == 40))
                for _ in range(RANDOM_BATCH):
                    yield (*random_case(rng, max_prec, ctx), ctx)


def _digest(xadd, cases) -> tuple[int, str, str]:
    add, modes, overflow = xadd.add_positive, list(xadd.RoundingMode), xadd.Overflow
    every, results, count = hashlib.sha256(), hashlib.sha256(), 0
    for x, y, p, ctx in cases:
        for a, b in ((x, y), (y, x)):
            for mode in modes:
                full, result = _keys(add(a, b, p, mode, ctx=ctx), overflow)
                every.update(repr(full).encode())
                results.update(repr(result).encode())
                count += 1
    return count, every.hexdigest(), results.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, required=True, help="directory that holds the xadd package")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    xadd = importlib.import_module("xadd")
    random_case = importlib.import_module("xadd.cli")._random_case
    print(f"# xadd from {Path(xadd.__file__).parent}")
    parts = (
        ("exhaustive", _exhaustive_cases(xadd)),
        ("random", _random_cases(xadd, random_case)),
    )
    for name, cases in parts:
        count, every, results = _digest(xadd, cases)
        print(f"{name} outcomes={count} all={every} results={results}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
