"""Benchmark of the xadd library: one workload per run, closed loop, one caller.

Run from the repository root:

    python3 benchmarks/bench.py --workload small --seed 1 --seconds 10 --trace 0

The seed makes every input; the library receives only the generated values.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced batches of the same ops,
records a span around every call into a layer, writes the spans to
``benchmarks/out/spans-<workload>.csv`` and reports the per-layer metrics.
Every op's output is checked against a reference outside the timed region.
The last line of standard output is one JSON object; see ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import sys
import time
from array import array
from pathlib import Path

from spans import Tracer
from workloads import LAYERS, WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Set-up runs between SETUP_REPEATS[0] and SETUP_REPEATS[1] times, as many
# as fit in SETUP_SHARE of the run's --seconds at the first set-up's pace.
SETUP_REPEATS = (5, 25)
SETUP_SHARE = 0.05
# Each case runs once per pass, at least MIN_PASSES times.
MIN_PASSES = 4
OP_SPAN = "bench.op"
SETUP_SPAN = "bench.setup"


class Api:
    """The library's public names used by the benchmark, optionally traced."""

    def __init__(self, module, tracer: Tracer | None = None) -> None:
        self.Context = module.Context
        self.RoundingMode = module.RoundingMode
        self.Overflow = module.Overflow
        for span, attr in LAYERS.items():
            fn = getattr(module, attr)
            setattr(self, attr, fn if tracer is None else tracer.wrap(span, fn))


def import_xadd():
    """Import the package from this checkout's ``src``, afresh each call."""
    for name in [n for n in sys.modules if n == "xadd" or n.startswith("xadd.")]:
        del sys.modules[name]
    module = importlib.import_module("xadd")
    if Path(module.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"xadd imported from {module.__file__}, not from {SRC}")
    return module


def setup(workload, specs, tracer: Tracer | None = None):
    """Import the library afresh and build every operand; returns the module,
    the built cases and the seconds taken."""
    gc.collect()
    start = time.perf_counter()
    module = import_xadd()
    api = Api(module, tracer)
    if tracer:
        tracer.open(SETUP_SPAN)
    cases = workload.build(api, specs)
    if tracer:
        tracer.close()
    return module, cases, time.perf_counter() - start


class Checker:
    """Checks each op output against a reference computed once per case, and
    sums the engine counts over the first outcome of every case."""

    def __init__(self, workload, api, specs, cases) -> None:
        self.workload, self.api, self.specs, self.cases = workload, api, specs, cases
        self.refs: dict[int, object] = {}
        self.counts = dict.fromkeys(
            ("x_limbs_read", "y_limbs_read", "limbs_stored", "trailing_bits_examined", "overflows"), 0
        )

    def ok(self, index: int, out) -> bool:
        if isinstance(out, Exception):  # what a raising op leaves as its output
            print(f"# op on case {index} raised {out!r}", file=sys.stderr)
            return False
        w, spec, case = self.workload, self.specs[index], self.cases[index]
        try:
            if index not in self.refs:
                self.refs[index] = w.reference(self.api, spec, case, out)
                self.count(w.engine_outcomes(case, out))
            return w.check(self.api, spec, case, out, self.refs[index])
        except Exception as exc:  # a malformed output is a failed op, not a crash
            print(f"# check of case {index} raised {exc!r}", file=sys.stderr)
            return False

    def count(self, outcomes) -> None:
        c = self.counts
        for x, y, out in outcomes:
            if isinstance(out, self.api.Overflow):
                c["overflows"] += 1
                continue
            s = out.stats
            c["x_limbs_read"] += s.x_limbs_read
            c["y_limbs_read"] += s.y_limbs_read
            c["trailing_bits_examined"] += s.trailing_bits_examined
            c["limbs_stored"] += len(x.limbs) + len(y.limbs)


def run_batch(op, batch, latencies):
    outs = []
    append, record, clock = outs.append, latencies.append, time.perf_counter_ns
    begin = clock()
    for case in batch:
        start = clock()
        try:
            out = op(case)
        except Exception as exc:
            out = exc
        record(clock() - start)
        append(out)
    return outs, clock() - begin


def run_traced_batch(op, batch, first_id, tracer):
    outs = []
    clock = time.perf_counter_ns
    begin = clock()
    for op_id, case in enumerate(batch, first_id):
        tracer.open(OP_SPAN, op_id)
        try:
            out = op(case)
        except Exception as exc:
            out = exc
        tracer.close()
        outs.append(out)
    return outs, clock() - begin


class Measured:
    def __init__(self) -> None:
        self.latencies = array("q")  # untraced ops, in order, one pass after another
        self.pass_ns: list[int] = []  # untraced busy time of each pass
        self.traced_ns = 0
        self.ops = 0
        self.failed = 0
        self.peak_rss_mb = 0.0


def measure(workload, cases, checker, seconds, op, traced_op=None, tracer=None, between=None):
    """Closed loop over the pool in batches, in whole passes, until the timed
    batches add up to `seconds`; every case runs once per pass, so each pass
    has the pool's cost mix.  Each batch is checked after it is timed,
    outside the timed region.  With a tracer, every batch runs untraced and
    then traced.  `between(done)` runs between passes, `done` being the
    share of `seconds` used so far."""
    size = workload.batch
    batches = [(i, cases[i : i + size]) for i in range(0, len(cases), size)]
    m = Measured()
    pass_ns = 0
    k = 0
    while True:
        first, batch = batches[k % len(batches)]
        runs = [run_batch(op, batch, m.latencies)]
        if tracer:
            runs.append(run_traced_batch(traced_op, batch, m.ops + len(batch), tracer))
            m.traced_ns += runs[1][1]
        pass_ns += runs[0][1]
        for outs, _ in runs:
            m.ops += len(outs)
            m.failed += sum(not checker.ok(first + j, out) for j, out in enumerate(outs))
        k += 1
        if k % len(batches):
            continue
        m.pass_ns.append(pass_ns)
        pass_ns = 0
        if len(m.pass_ns) == 1:
            m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        done = (sum(m.pass_ns) + m.traced_ns) / (seconds * 1e9)
        if done >= 1 and len(m.pass_ns) >= MIN_PASSES:
            return m
        if between:
            between(done)


def percentile(sorted_values, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def end_to_end(m: Measured, pool: int, setup_times: list[float]) -> dict:
    """Each case's latency is the fastest of its runs, one per pass; the
    percentiles are taken over those per-case figures, and throughput is the
    pool size over their sum.  Set-up likewise reports its fastest repeat.
    See NOTES.md for why."""
    per_case = sorted(min(m.latencies[i::pool]) for i in range(pool))
    return {
        "ops_per_s": (pool / (sum(per_case) / 1e9), "1/s"),
        "op_us_p50": (percentile(per_case, 0.50) / 1e3, "us"),
        "op_us_p99": (percentile(per_case, 0.99) / 1e3, "us"),
        "setup_s": (min(setup_times), "s"),
        "peak_rss_mb": (m.peak_rss_mb, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    specs = workload.generate(random.Random(args.seed))
    sys.path.insert(0, str(SRC))
    tracer = Tracer((OP_SPAN, SETUP_SPAN, *LAYERS)) if args.trace else None
    try:
        module, cases, setup_s = setup(workload, specs, tracer)
    except ImportError as exc:
        print(f"cannot import xadd from {SRC}: {exc}", file=sys.stderr)
        return 2
    setup_times = [setup_s]
    lo, hi = SETUP_REPEATS
    repeats = max(lo, min(hi, int(SETUP_SHARE * args.seconds / setup_s)))

    def repeat_setup(done: float) -> None:
        # Set up again at even intervals through the run, so that the
        # repeats sample the machine at many moments, not one.
        if len(setup_times) < repeats and done >= len(setup_times) / repeats:
            setup_times.append(setup(workload, specs)[2])

    raw = Api(module)
    traced = Api(module, tracer) if tracer else None
    checker = Checker(workload, traced or raw, specs, cases)
    gc.collect()
    gc.freeze()  # the pool lives for the whole run; keep it out of collections
    if tracer:
        m = measure(workload, cases, checker, args.seconds, workload.make_op(raw),
                    workload.make_op(traced), tracer)
    else:
        m = measure(workload, cases, checker, args.seconds, workload.make_op(raw),
                    between=repeat_setup)
        while len(setup_times) < repeats:
            setup_times.append(setup(workload, specs)[2])

    widths = ",".join(str(w) for w in sorted({s.width for s in specs}))
    print(
        f"# workload={args.workload} seed={args.seed} python={platform.python_version()}"
        f" nproc={os.cpu_count()} limb_widths={widths} pool={len(cases)}"
        f" passes={len(m.pass_ns)} ops={m.ops} failed={m.failed}"
    )
    if tracer:
        metrics = trace_metrics(tracer, checker.counts, sum(m.pass_ns), m.traced_ns)
        tracer.write_csv(HERE / "out" / f"spans-{args.workload}.csv")
    else:
        metrics = end_to_end(m, len(cases), setup_times)
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.ops,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def trace_metrics(tracer: Tracer, counts: dict, busy_ns: int, traced_ns: int) -> dict:
    units = {"calls": "count", "busy_s": "s", "us_p50": "us"}
    metrics = {
        name: (value, units[name.rsplit(".", 1)[1]])
        for name, value in tracer.layer_summary(tuple(LAYERS)).items()
    }
    for name, value in counts.items():
        metrics[f"engine.{name}"] = (value, "count")
    read = counts["x_limbs_read"] + counts["y_limbs_read"]
    stored = counts["limbs_stored"]
    metrics["engine.limb_read_ratio"] = (read / stored if stored else 0.0, "ratio")
    metrics["bench.self_s"] = (tracer.self_ns(OP_SPAN) / 1e9, "s")
    metrics["trace.overhead_ratio"] = (traced_ns / busy_ns - 1, "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
