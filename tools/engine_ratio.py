"""Time `add_positive` against the `exact_add_round` oracle, at machine
precision and on scan-sized operands, for one or more trees of the library
in one process.

    python3 tools/engine_ratio.py --src src
    python3 tools/engine_ratio.py --src /tmp/parent/src --src src --rounds 21

Each ``--src`` directory holds an ``xadd`` package.  The package is copied
under its own name (``xadd_0``, ``xadd_1``, ...) into a temporary directory,
so that every tree loads beside the others; it imports only relatively.
Three sets are built in each tree from fixed seeds, rounded at nearest:

- ``u53``: 2,000 pairs of uniform 53-bit mantissas at p = 53, y 0 to 20
  binades below x;
- ``rc64``: 2,000 `xadd.cli._random_case` pairs of up to 64 bits;
- ``scan``: 200 pairs of 2^14 to 2^15 bits, at 32- and 64-bit limbs, whose
  tails keep the error class open to the last bits, drawn by the
  benchmark's ``scan`` workload (``benchmarks/workloads.py``) in its three
  kinds: a zero tail but for x's last bit (fb = 0), complementary tails
  (fb = 1) and ties.  The mantissas are drawn once, so every tree builds
  the same values, through the public `make_float_from_int` only.

A round times, for each tree in turn, one pass of `add_positive` and one
of `exact_add_round` over each set, with the garbage collector off as in
`timeit`.  The tree that goes first moves on by one each round, and the
engine and the oracle take turns to go first, so neither order is always
the same.  For each tree and set it prints the median per-call time of
each over the rounds and their ratio (engine / oracle).  Only times taken
in the same run compare.

Standard library only; it is run by hand and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from workloads import Scan, stratum_size  # noqa: E402  the benchmark's scan pairs

PAIRS = 2000
U53_SEED, RC64_SEED = 53, 64
SCAN_PAIRS, SCAN_SEED = 200, 14
SETS = ("u53", "rc64", "scan")


def _load(src: Path, name: str, into: Path):
    """The xadd package under `src`, copied to `into` / `name` and imported."""
    shutil.copytree(src / "xadd", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name), importlib.import_module(f"{name}.cli")


def _scan_specs() -> list:
    """The `scan` pairs as the benchmark's plain-int specs, one stratum of
    [2^14, 2^15] bits each, cycling through its three tail kinds."""
    rng = random.Random(SCAN_SEED)
    return [
        Scan.one(
            rng, Scan.kinds[i % 3], stratum_size(14, 15, i, SCAN_PAIRS),
            rng.choice((53, 64, 113, 256)), "nearest", (32, 64)[i // 3 % 2],
        )
        for i in range(SCAN_PAIRS)
    ]


def _sets(xadd, cli, scan_specs) -> dict[str, list]:
    """The `u53`, `rc64` and `scan` pairs as (x, y, p), built by this tree."""
    rng = random.Random(U53_SEED)
    u53 = []
    for _ in range(PAIRS):
        d = rng.randint(0, 20)
        x = xadd.make_float_from_int(1, 0, 53, 1 << 52 | rng.getrandbits(52))
        y = xadd.make_float_from_int(1, -d, 53, 1 << 52 | rng.getrandbits(52))
        u53.append((x, y, 53))
    rng = random.Random(RC64_SEED)
    rc64 = [cli._random_case(rng, 64, xadd.DEFAULT_CONTEXT) for _ in range(PAIRS)]
    contexts = {w: xadd.Context(limb_width=w) for w in (32, 64)}
    scan = [
        (
            xadd.make_float_from_int(1, s.ex, s.m, s.x, ctx=contexts[s.width]),
            xadd.make_float_from_int(1, s.ey, s.n, s.y, ctx=contexts[s.width]),
            s.p,
        )
        for s in scan_specs
    ]
    return {"u53": u53, "rc64": rc64, "scan": scan}


def _per_call_us(function, cases, mode) -> float:
    gc.disable()
    try:
        start = time.perf_counter_ns()
        for x, y, p in cases:
            function(x, y, p, mode)
        return (time.perf_counter_ns() - start) / len(cases) / 1000
    finally:
        gc.enable()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, action="append", required=True, help="directory that holds an xadd package")
    parser.add_argument("--rounds", type=int, default=21)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="xadd-ratio-") as tmp:
        sys.path.insert(0, tmp)
        trees = []
        scan_specs = _scan_specs()
        for i, src in enumerate(args.src):
            xadd, cli = _load(src.resolve(), f"xadd_{i}", Path(tmp))
            mode = xadd.RoundingMode.NEAREST_EVEN
            trees.append((str(src), xadd.add_positive, xadd.exact_add_round, mode, _sets(xadd, cli, scan_specs)))

        times = {(i, name, which): [] for i in range(len(trees)) for name in SETS for which in (0, 1)}
        for r in range(args.rounds):
            for k in range(len(trees)):
                i = (r + k) % len(trees)
                _, engine, oracle, mode, sets = trees[i]
                for name, cases in sets.items():
                    for which in (r % 2, 1 - r % 2):
                        function = oracle if which else engine
                        times[i, name, which].append(_per_call_us(function, cases, mode))

    print(f"# {args.rounds} rounds of {PAIRS}, {PAIRS} and {SCAN_PAIRS} pairs per set, median us per call")
    for i, (src, *_) in enumerate(trees):
        for name in SETS:
            engine = statistics.median(times[i, name, 0])
            oracle = statistics.median(times[i, name, 1])
            print(f"{src} {name} add_positive={engine:.3f} exact_add_round={oracle:.3f} ratio={engine / oracle:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
