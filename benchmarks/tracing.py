"""In-memory span tracing for the benchmark, applied from outside the package.

A Tracer wraps public functions of sp6q: every module attribute bound to
the original function, in the defining module and in every module that
imported it, is replaced by a wrapper that records one span per call
(name, start, end, parent span, round).  Spans live in flat arrays until
the run ends; self time per layer is computed from them afterwards.

Tracing is single-threaded: every wrapped function is called on the
thread that drives the workload (the census sweep's worker threads call
none of them).
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# (module, attribute, span name).  kpf_q is memoised; its spans are named
# by whether the call missed the cache (".miss") or hit it (".hit").
TRACED = (
    ("sp6q.partition", "kpf_q", "partition.kpf_q"),
    ("sp6q.partition", "kpf_q_oracle", "partition.kpf_q_oracle"),
    ("sp6q.qpoly", "add_signed", "qpoly.add_signed"),
    ("sp6q.multiplicity", "alternation_set", "multiplicity.alternation_set"),
    ("sp6q.multiplicity", "mult_q_direct", "multiplicity.mult_q_direct"),
    ("sp6q.multiplicity", "coefficient_profile", "multiplicity.coefficient_profile"),
    ("sp6q.multiplicity", "match_case", "multiplicity.match_case"),
    ("sp6q.multiplicity", "mult_q_cases", "multiplicity.mult_q_cases"),
    ("sp6q.multiplicity", "mult_freudenthal", "multiplicity.mult_freudenthal"),
    ("sp6q.census", "filter_pipeline", "census.filter_pipeline"),
    ("sp6q.census", "verify_census", "census.verify_census"),
    ("sp6q.census", "sweep_census", "census.sweep_census"),
    ("sp6q.cli", "main", "cli.main"),
)
CACHED = {"partition.kpf_q"}


class Tracer:
    """Spans in parallel arrays: name id, start, end, parent index, round."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.round = array("l")
        self.current_round = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.round.append(self.current_round)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """Context manager recording one span around the block."""
        return _Span(self, self._name_id(name))

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def wrap_cached(self, name: str, fn):
        """Like wrap, for an lru_cache function: names the span by outcome."""
        hit_id = self._name_id(name + ".hit")
        miss_id = self._name_id(name + ".miss")

        def wrapper(*args, **kwargs):
            misses = fn.cache_info().misses
            idx = self._open(hit_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if fn.cache_info().misses != misses:
                    self.name[idx] = miss_id

        return wrapper

    def install(self):
        """Replace every binding of each TRACED function by its wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n == "sp6q" or n.startswith("sp6q.")]
        for module_name, attr, name in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = (self.wrap_cached if name in CACHED else self.wrap)(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def span_names(self) -> list[str]:
        return [self.names[i] for i in self.name]

    def self_times(self):
        return self_times(self.span_names(), self.start, self.end, self.parent)

    def write(self, path):
        """Write every span as tab-separated text, one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tround\tname\tstart_s\tend_s\n")
            for i, name in enumerate(self.span_names()):
                fh.write(f"{i}\t{self.parent[i]}\t{self.round[i]}\t{name}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n")


class _Span:
    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer, self.name_id = tracer, name_id

    def __enter__(self):
        self.idx = self.tracer._open(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False


def self_times(names, start, end, parent) -> tuple[dict[str, float], dict[str, int]]:
    """Total self time and span count per name.

    The four sequences describe one span per index, listed in order of
    start time; `parent` holds the index of the enclosing span, or -1 for
    a root.  A span's self time is its duration minus the part of its
    interval that its direct children cover (overlapping children count
    once).
    """
    n = len(start)
    covered = array("d", bytes(8 * n))
    reach = array("d", start)
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        c0, c1 = max(start[i], reach[p]), min(end[i], end[p])
        if c1 > c0:
            covered[p] += c1 - c0
            reach[p] = c1
    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for i in range(n):
        totals[names[i]] += (end[i] - start[i]) - covered[i]
        counts[names[i]] += 1
    return dict(totals), dict(counts)
