"""Benchmark for sp6q: end-to-end metrics, or per-layer metrics from a traced run.

    python3 benchmarks/run.py --workload {character,pairs,census} --seed N
                              --seconds S --trace {0,1} [--jobs J]

Run from anywhere; the package is imported from the `src` directory next
to this one, never from an installed copy.  The last line of stdout is a
JSON object {"correct", "attempted", "failed", "metrics"}; a readable
report goes to stderr.  Exit codes: 0 success, 1 an output check failed
(the JSON line is still printed), 2 bad arguments, a refused size, or no
package source.

--trace 0 sets the program up SETUP_REPEATS times, each from a fresh
import, and reports the median as setup_s.  It then runs rounds, each over
the workload's whole input, until S seconds have passed.  Every round
times the same items, and each item's time is the median over the rounds;
the item metrics come from these per-item times.  wall_s and check_s are
the medians of the round and check times.  Every time is divided by the
host's slowness measured around it (speed.py), so the figures read as if
the host ran at one fixed speed throughout: on a shared virtual machine
the same Python loop ran anywhere from 1.0x to 1.9x its best time, in
spells from a fraction of a second to minutes, longer than a run.

--trace 1 sets up once, then alternates rounds with every layer wrapped in
spans and rounds without, until S seconds have passed.  Its times are as
measured, without the slowness correction.  It checks that
both kinds produced the same output digests, reports per-layer metrics as
means per traced round, and the tracing overhead as the difference of the
two kinds' least per-item and per-check times.  Spans are written to
.bench_out/spans-<workload>.tsv.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from speed import Speedometer, Unmetered
from tracing import Tracer
from workloads import SRC, WORKLOADS, Census, swept_pairs

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
# The sweep materialises (L+1)^2 (M+1)^3 x 51 int64 values per slice, and
# --jobs slices at once; refuse a run whose slices exceed this together.
SWEEP_BUDGET_BYTES = 512 << 20
# Tail percentiles in tenths of a percent, highest first.
TAIL_PERMILLE = (999, 990, 900)
MODULES = ("cli", "census", "multiplicity", "partition", "qpoly", "weyl")

LAYER_METRICS = (
    "partition.kpf_q.calls", "partition.kpf_q.misses", "partition.kpf_q.hit_ratio",
    "partition.kpf_q.miss_self_s", "partition.kpf_q.hit_self_s",
    "partition.kpf_q_oracle.calls", "partition.kpf_q_oracle.self_s",
    "qpoly.add_signed.calls", "qpoly.add_signed.self_s",
    "multiplicity.alternation_set.self_s", "multiplicity.mult_q_direct.self_s",
    "multiplicity.coefficient_profile.self_s", "multiplicity.match_case.self_s",
    "multiplicity.mult_q_cases.self_s",
    "multiplicity.mult_freudenthal.calls", "multiplicity.mult_freudenthal.self_s",
    "census.filter_pipeline.self_s", "census.verify_census.self_s",
    "census.sweep_census.self_s", "census.sweep.pairs_per_s",
    "cli.main.self_s", "weyl.tables_s", "bench.self_s", "trace.wall_s", "trace.overhead_s",
)


class UsageError(Exception):
    pass


def tail_permille(n: int) -> int:
    """The highest tail percentile (in tenths of a percent) that leaves at
    least ten of n samples beyond it; 500, the median, when none does."""
    for p in TAIL_PERMILLE:
        if n * (1000 - p) >= 10 * 1000:
            return p
    return 500


def percentile(samples, permille: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    permille/1000 of all samples at or below it."""
    ordered = sorted(samples)
    rank = -(-permille * len(ordered) // 1000)  # ceil
    return ordered[max(rank, 1) - 1]


def least_per_position(runs) -> list[float]:
    """Elementwise minimum of equal-length sequences of times."""
    return [min(times) for times in zip(*runs)]


def sweep_slice_bytes(lam_max: int, mu_max: int) -> int:
    return (lam_max + 1) ** 2 * (mu_max + 1) ** 3 * 51 * 8


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--jobs", type=int, default=1, help="census sweep workers (default 1)")
    args = parser.parse_args(argv)
    nproc = os.cpu_count() or 1
    if not 1 <= args.jobs <= nproc:
        raise UsageError(f"--jobs must be between 1 and nproc = {nproc}, got {args.jobs}")
    if args.seconds <= 0:
        raise UsageError(f"--seconds must be positive, got {args.seconds}")
    need = args.jobs * sweep_slice_bytes(Census.LAM_MAX, Census.MU_MAX)
    if need > SWEEP_BUDGET_BYTES:
        raise UsageError(
            f"census sweep needs {need >> 20} MiB of int64 slices at --jobs {args.jobs}; "
            f"budget is {SWEEP_BUDGET_BYTES >> 20} MiB"
        )
    if not (SRC / "sp6q" / "__init__.py").is_file():
        raise UsageError(f"no package source at {SRC / 'sp6q'}")
    return args


def fresh_setup(workload, meter):
    """Import sp6q afresh, build the Weyl tables, then the workload's set-up.

    Returns (modules, set-up seconds, table seconds); the set-up time is
    divided by the host's slowness before and after it, the table time is not.
    """
    for name in [n for n in sys.modules if n == "sp6q" or n.startswith("sp6q.")]:
        del sys.modules[name]
    gc.collect()  # free the previous set-up here rather than inside the timing
    before = meter.factor()
    t0 = time.perf_counter()
    importlib.import_module("sp6q.cli")
    sp = SimpleNamespace(**{m: sys.modules["sp6q." + m] for m in MODULES})
    if Path(sys.modules["sp6q"].__file__).resolve().parent != SRC / "sp6q":
        raise UsageError(f"imported sp6q from {sys.modules['sp6q'].__file__}, not {SRC}")
    t1 = time.perf_counter()
    sp.weyl.enumerate_group()
    sp.multiplicity.symbolic_sigma_rows()
    tables_s = time.perf_counter() - t1
    workload.setup(sp)
    setup_s = time.perf_counter() - t0
    return sp, setup_s / ((before + meter.factor()) / 2), tables_s


def one_round(workload, sp, meter, check_meter, tracer=None):
    """Run the workload's round and its checks once; trace them if asked.

    meter corrects the item times, check_meter the check times.
    """
    with tracer.span("bench.round") if tracer else contextlib.nullcontext():
        rnd = workload.run_round(sp, meter)
    before = check_meter.factor()
    with tracer.span("bench.check") if tracer else contextlib.nullcontext():
        check_failed, steps = workload.check(sp, rnd)
    slow = (before + check_meter.factor()) / 2
    rnd.check_steps = [t / slow for t in steps]
    rnd.failed = min(len(rnd.item_s), rnd.failed + check_failed)
    rnd.outputs = None  # keep only what the metrics need
    return rnd


def best_round_s(rounds) -> float:
    """Items plus checks, each at its least time over the rounds."""
    return sum(least_per_position(r.item_s for r in rounds)) + sum(
        least_per_position(r.check_steps for r in rounds)
    )


def metric(value, unit):
    return {"value": value, "unit": unit}


def median_per_position(runs) -> list[float]:
    """Elementwise median of equal-length sequences of times."""
    return [statistics.median(times) for times in zip(*runs)]


def end_to_end(workload, seconds, report):
    # Set-up and checks run Python only; the round's own share is the workload's.
    python_meter = Speedometer(1.0)
    meter = Speedometer(workload.PYTHON_SHARE)
    setups = []
    for _ in range(SETUP_REPEATS):
        sp, setup_s, _tables_s = fresh_setup(workload, python_meter)
        setups.append(setup_s)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(one_round(workload, sp, meter, python_meter))
    item_s = median_per_position(r.item_s for r in rounds)
    tail = tail_permille(len(item_s))
    metrics = {
        "items_per_s": metric(len(item_s) / sum(item_s), "1/s"),
        "item_p50_ms": metric(statistics.median(item_s) * 1e3, "ms"),
        "item_tail_ms": metric(percentile(item_s, tail) * 1e3, "ms"),
        "wall_s": metric(statistics.median(r.wall_s for r in rounds), "s"),
        "check_s": metric(statistics.median(sum(r.check_steps) for r in rounds), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report.append(
        f"{len(rounds)} rounds of {len(item_s)} items; item_tail_ms is p{tail / 10:g}; "
        f"setup_s is the median of {SETUP_REPEATS} set-ups ({', '.join(f'{s:.3f}' for s in setups)} s)"
    )
    for name, m in (("items", meter), ("set-up and checks", python_meter)):
        q = statistics.quantiles(m.factors, n=4)
        report.append(
            f"host slowness for {name} (python share {m.python_share:g}), {len(m.factors)} readings: "
            f"min {min(m.factors):.2f}, quartiles {q[0]:.2f} {q[1]:.2f} {q[2]:.2f}, max {max(m.factors):.2f}"
        )
    return rounds, metrics


def per_layer(workload, seconds, report):
    unmetered = Unmetered()
    sp, _setup_s, tables_s = fresh_setup(workload, unmetered)
    tracer = Tracer()
    traced, plain = [], []
    start = time.perf_counter()
    # Traced and untraced rounds alternate, so both see the same host.
    while not traced or time.perf_counter() - start < seconds:
        tracer.current_round = len(traced)
        tracer.install()
        try:
            traced.append(one_round(workload, sp, unmetered, unmetered, tracer))
        finally:
            tracer.uninstall()
        plain.append(one_round(workload, sp, unmetered, unmetered))
    mismatched = 0
    for a, b in zip(traced, plain):
        if a.digest != b.digest:
            a.failed = len(a.item_s)
            mismatched += 1

    totals, counts = tracer.self_times()
    n = len(traced)
    kpf_hits, kpf_misses = counts.get("partition.kpf_q.hit", 0), counts.get("partition.kpf_q.miss", 0)
    sweep_time = sum(
        tracer.end[i] - tracer.start[i]
        for i, name in enumerate(tracer.span_names()) if name == "census.sweep_census"
    )
    traced_wall = sum(r.wall_s + sum(r.check_steps) for r in traced)
    values = {
        "partition.kpf_q.calls": (kpf_hits + kpf_misses) / n,
        "partition.kpf_q.misses": kpf_misses / n,
        "partition.kpf_q.hit_ratio": kpf_hits / (kpf_hits + kpf_misses) if kpf_hits + kpf_misses else 0.0,
        "partition.kpf_q.miss_self_s": totals.get("partition.kpf_q.miss", 0.0) / n,
        "partition.kpf_q.hit_self_s": totals.get("partition.kpf_q.hit", 0.0) / n,
        "census.sweep.pairs_per_s": (
            counts.get("census.sweep_census", 0) * swept_pairs(Census.LAM_MAX, Census.MU_MAX) / sweep_time
            if sweep_time else 0.0
        ),
        "weyl.tables_s": tables_s,
        "bench.self_s": (totals.get("bench.round", 0.0) + totals.get("bench.check", 0.0)) / n,
        "trace.wall_s": traced_wall / n,
        "trace.overhead_s": best_round_s(traced) - best_round_s(plain),
    }
    for name in LAYER_METRICS:
        if name not in values:
            layer, kind = name.rsplit(".", 1)
            values[name] = (counts if kind == "calls" else totals).get(layer, 0) / n

    layer_self = sum(t for name, t in totals.items() if not name.startswith("bench."))
    if layer_self > traced_wall:
        raise AssertionError(f"layer self time {layer_self:.3f} s exceeds traced wall {traced_wall:.3f} s")
    report.append(f"{n} traced rounds, each followed by an untraced one; {mismatched} digest mismatches")
    report.append(f"layer self time {layer_self:.3f} s of traced wall {traced_wall:.3f} s; shares:")
    for name, t in sorted(totals.items(), key=lambda kv: -kv[1]):
        report.append(f"  {name:<40} {t:9.4f} s  {t / traced_wall:6.1%}  calls {counts[name]}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload.name}.tsv"
    tracer.write(path)
    report.append(f"{len(tracer.start)} spans written to {path}")

    unit = {"calls": "count", "misses": "count", "hit_ratio": "ratio", "pairs_per_s": "1/s"}
    metrics = {name: metric(values[name], unit.get(name.rsplit(".", 1)[1], "s")) for name in LAYER_METRICS}
    return traced + plain, metrics


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        sys.path.insert(0, str(SRC))
        workload = WORKLOADS[args.workload](args.seed, args.jobs)
        report = [
            f"workload {args.workload}, seed {args.seed}, trace {args.trace}; nproc {os.cpu_count()}, "
            f"Python {platform.python_version()}, numpy {importlib.import_module('numpy').__version__}"
        ]
        run = per_layer if args.trace else end_to_end
        rounds, metrics = run(workload, args.seconds, report)
    except UsageError as exc:
        print(f"run.py: error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(len(r.item_s) for r in rounds)
    failed = sum(r.failed for r in rounds)
    report.append(f"fail_ratio {failed}/{attempted} = {failed / attempted:g}")
    for name, m in metrics.items():
        report.append(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print("\n".join(report), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
