"""Self-tests for the benchmark harness: python3 -m pytest benchmarks -q"""

import functools
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import percentile, tail_permille
from speed import Speedometer
from tracing import Tracer, self_times
from workloads import orbit_size, swept_pairs, timed_items, weyl_dimension

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("n, expected", [
    (1, 500), (99, 500), (100, 900), (802, 900), (999, 900),
    (1000, 990), (4000, 990), (9999, 990), (10000, 999),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_permille(n) == expected
    if expected != 500:
        assert n * (1000 - expected) >= 10 * 1000


def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))
    assert percentile(samples, 500) == 50
    assert percentile(samples, 900) == 90
    assert percentile(samples, 990) == 99
    assert percentile([7.0], 990) == 7.0


def test_self_time_subtracts_covered_part_of_children():
    # root [0,10] has children a [1,4], c [5,6] and d [5.5,7], which
    # overlaps c; a has child b [2,3]; e [9,12] runs past its parent.
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("c", 5.0, 6.0, 0),
        ("d", 5.5, 7.0, 0),
        ("e", 9.0, 12.0, 0),
    ]
    names, start, end, parent = zip(*spans)
    totals, counts = self_times(names, start, end, parent)
    assert totals == pytest.approx({"root": 10 - 3 - 2 - 1, "a": 2, "b": 1, "c": 1, "d": 1.5, "e": 3})
    assert counts == {name: 1 for name in names}


def test_tracer_records_nested_spans_and_cache_outcome():
    tracer = Tracer()

    @functools.lru_cache(maxsize=None)
    def leaf(x):
        return sum(range(1000 * x))

    cached = tracer.wrap_cached("leaf", leaf)
    outer = tracer.wrap("outer", lambda xs: [cached(x) for x in xs])
    with tracer.span("root"):
        outer([1, 2, 1, 1])
    totals, counts = tracer.self_times()
    assert counts == {"root": 1, "outer": 1, "leaf.miss": 2, "leaf.hit": 2}
    root = tracer.end[0] - tracer.start[0]
    assert 0 < sum(totals.values()) <= root + 1e-9
    assert list(tracer.parent) == [-1, 0, 1, 1, 1, 1]


class _ScriptedMeter:
    def __init__(self, factors):
        self.readings = iter(factors)

    def factor(self):
        return next(self.readings)


def test_timed_items_divides_each_chunk_by_mean_slowness_at_its_ends(monkeypatch):
    # Every item takes 1 s by a fake clock; readings 1, 3 and 2 bracket the
    # chunks [a, b] and [c].
    clock = itertools.count()
    monkeypatch.setattr("workloads.time.perf_counter", lambda: float(next(clock)))
    outputs, item_s, wall_s = timed_items(list("abc"), str.upper, _ScriptedMeter([1.0, 3.0, 2.0]), chunk=2)
    assert outputs == ["A", "B", "C"]
    assert item_s == [0.5, 0.5, 0.4]
    # A chunk's wall also spans the clock reads around its items: 5 ticks
    # for [a, b] and 3 for [c].
    assert wall_s == pytest.approx(5 / 2 + 3 / 2.5)


def test_speedometer_mixes_python_and_numpy_slowness():
    meter = Speedometer(0.35)
    slow = meter.factor()
    assert slow > 0 and meter.factors == [slow]
    with pytest.raises(ValueError):
        Speedometer(1.5)


def test_swept_pairs_counts_parity_box():
    for lam_max, mu_max in ((0, 0), (2, 3), (3, 1)):
        brute = sum(
            1
            for m, n, k in itertools.product(range(lam_max + 1), repeat=3)
            for x, y, z in itertools.product(range(mu_max + 1), repeat=3)
            if (m + k + x + z) % 2 == 0
        )
        assert swept_pairs(lam_max, mu_max) == brute


def test_weyl_dimension_and_orbits_of_small_weights():
    assert [weyl_dimension(w) for w in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))] == [1, 6, 14, 14, 512]
    assert [orbit_size(w) for w in ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1))] == [1, 6, 8, 48]


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "pairs", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no package source" in proc.stderr


@pytest.mark.parametrize("jobs", ["0", "99999"])
def test_refuses_jobs_outside_one_to_nproc(jobs):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "census", "--seed", "1", "--seconds", "1",
         "--trace", "0", "--jobs", jobs],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--jobs" in proc.stderr


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_reports_every_declared_metric(trace, section):
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "census", "--seed", "1", "--seconds", "0.1",
         "--trace", trace],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
