"""The three benchmark workloads.

Each workload makes its inputs and its check samples from the seed alone,
without the program.  One round runs the program once over the whole
input, item by item; every round repeats the same items, so each item is
timed once per round.  Items run in chunks with the host's slowness
measured between chunks (see speed.py), and each time is divided by the
slowness around its chunk.  A round returns one such time per item, the
round's time, a digest of the outputs, and the number of items whose own
check failed.  `check` then runs the same cross-checks after every round
and returns the number of items they found wrong and the raw time of each
check step.

  character  the q-character of lam = (6,6,6): mult_q_direct(lam, mu) for
             all 531 dominant mu <= lam, from a cold kpf_q cache.  One
             item is one mu; the seed orders them.  Nearly all the time is
             kpf_q cache misses on large vectors.
  pairs      4,000 seeded dominant pairs with coordinates in 0..4 and
             root-lattice parity.  One item is alternation_set,
             mult_q_direct and mult_q_cases of one pair.  The kpf_q cache
             is warmed in set-up, so every kpf_q call hits.
  census     `sp6q census verify --json` in-process on the default 10 x 10
             box.  One item is one verify run.  It never calls kpf_q.

Inputs are small enough that a run of a few seconds times every item
several times over; see run.py for why that matters.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


@dataclass
class Round:
    item_s: list[float]
    wall_s: float
    digest: str
    failed: int
    outputs: object
    check_steps: tuple = ()


def timed_items(items, run, meter, chunk: int):
    """Run `run` on each item, chunk items at a time, with the host's
    slowness measured before the first chunk and after each one.

    Returns the outputs, each item's time and the time of the whole loop,
    every time divided by the mean slowness at the ends of its chunk.
    """
    outputs, item_s, wall_s = [], [], 0.0
    before = meter.factor()
    for first in range(0, len(items), chunk):
        raw = []
        start = time.perf_counter()
        for item in items[first:first + chunk]:
            t0 = time.perf_counter()
            outputs.append(run(item))
            raw.append(time.perf_counter() - t0)
        chunk_s = time.perf_counter() - start
        after = meter.factor()
        slow = (before + after) / 2
        item_s.extend(t / slow for t in raw)
        wall_s += chunk_s / slow
        before = after
    return outputs, item_s, wall_s


class _Laps(list):
    """Seconds between successive lap() calls, starting at creation."""

    def __init__(self):
        super().__init__()
        self.last = time.perf_counter()

    def lap(self):
        now = time.perf_counter()
        self.append(now - self.last)
        self.last = now


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _alpha2(lam, mu):
    """Doubled simple-root coordinates of lam - mu (fundamental-weight inputs)."""
    (m, n, k), (x, y, z) = lam, mu
    return (
        2 * (m + n + k - x - y - z),
        2 * (m + 2 * n + 2 * k - x - 2 * y - 2 * z),
        m + 2 * n + 3 * k - x - 2 * y - 3 * z,
    )


def _eps(w):
    m, n, k = w
    return (m + n + k, n + k, k)


def dominant_weights_below(lam) -> list[tuple[int, int, int]]:
    """Dominant mu with lam - mu a nonnegative integer sum of simple roots."""
    out = []
    for mu in itertools.product(range(sum(lam) + 1), repeat=3):
        a = _alpha2(lam, mu)
        if min(a) >= 0 and a[2] % 2 == 0:
            out.append(mu)
    return out


def weyl_dimension(lam) -> int:
    """dim V(lam) = prod over positive roots a of <lam+rho, a> / <rho, a>."""
    rho = (3, 2, 1)
    lr = tuple(a + b for a, b in zip(_eps(lam), rho))
    dim = Fraction(1)
    for i in range(3):
        dim *= Fraction(lr[i], rho[i])
        for j in range(i + 1, 3):
            dim *= Fraction(lr[i] - lr[j], rho[i] - rho[j])
            dim *= Fraction(lr[i] + lr[j], rho[i] + rho[j])
    return int(dim)


def orbit_size(mu) -> int:
    """|W mu|: the distinct signed permutations of mu's ambient coordinates."""
    return len({
        tuple(s * c for s, c in zip(signs, perm))
        for perm in itertools.permutations(_eps(mu))
        for signs in itertools.product((1, -1), repeat=3)
    })


def _parity_ok(lam, mu) -> bool:
    return (lam[0] + lam[2] + mu[0] + mu[2]) % 2 == 0


class Character:
    name = "character"
    PYTHON_SHARE = 1.0
    CHUNK = 25
    LAM = (6, 6, 6)
    FREUDENTHAL_SAMPLES = 5
    # The oracle's cost grows steeply with the height of lam - mu; one
    # sample at each of these heights keeps the check cost about the same
    # for any seed.
    ORACLE_HEIGHTS = range(18, 24)

    def __init__(self, seed: int, jobs: int):
        rng = random.Random(seed)
        self.mus = dominant_weights_below(self.LAM)
        rng.shuffle(self.mus)
        self.dimension = weyl_dimension(self.LAM)
        self.orbits = [orbit_size(mu) for mu in self.mus]
        heights = [sum(_alpha2(self.LAM, mu)) // 2 for mu in self.mus]
        self.freudenthal_samples = rng.sample(range(len(self.mus)), self.FREUDENTHAL_SAMPLES)
        self.oracle_samples = [
            rng.choice([i for i, h in enumerate(heights) if h == height]) for height in self.ORACLE_HEIGHTS
        ]

    def setup(self, sp):
        self.cache_clear = sp.partition.kpf_q.cache_clear

    def run_round(self, sp, meter) -> Round:
        self.cache_clear()
        mult_q_direct = sp.multiplicity.mult_q_direct
        lam = self.LAM
        results, times, wall_s = timed_items(self.mus, lambda mu: mult_q_direct(lam, mu), meter, self.CHUNK)
        coeffs = [p.coeffs for p in results]
        return Round(times, wall_s, _digest(coeffs), 0, coeffs)

    def check(self, sp, rnd: Round):
        """Weyl's dimension formula over all mu; Freudenthal and the
        brute-force partition function on the seeded samples."""
        lam, mus = self.LAM, self.mus
        laps, bad = _Laps(), set()
        at_one = [sum(c) for c in rnd.outputs]
        if sum(o * m for o, m in zip(self.orbits, at_one)) != self.dimension:
            bad.update(range(len(mus)))
        laps.lap()
        for i in self.freudenthal_samples:
            if sp.multiplicity.mult_freudenthal(lam, mus[i]) != at_one[i]:
                bad.add(i)
            laps.lap()
        for i in self.oracle_samples:
            for el in sp.multiplicity.alternation_set(lam, mus[i]).elements():
                v = tuple(int(c) for c in sp.multiplicity.sigma_coeffs(el, lam, mus[i]).coeffs())
                if sp.partition.kpf_q_oracle(*v) != sp.partition.kpf_q(*v):
                    bad.add(i)
            laps.lap()
        return len(bad), laps


class Pairs:
    name = "pairs"
    PYTHON_SHARE = 1.0
    CHUNK = 400
    STREAM = 4_000
    COORD_MAX = 4

    def __init__(self, seed: int, jobs: int):
        rng = random.Random(seed)
        self.stream = []
        while len(self.stream) < self.STREAM:
            lam = tuple(rng.randint(0, self.COORD_MAX) for _ in range(3))
            mu = tuple(rng.randint(0, self.COORD_MAX) for _ in range(3))
            if _parity_ok(lam, mu):
                self.stream.append((lam, mu))
        # One seeded pair per distinct lam with mu a weight of lam: Freudenthal
        # works through the whole weight system of lam, so checking every lam
        # once makes the check cost nearly the same for any seed.
        by_lam = {}
        for i in rng.sample(range(self.STREAM), self.STREAM):
            lam, mu = self.stream[i]
            if min(_alpha2(lam, mu)) >= 0:
                by_lam.setdefault(lam, i)
        self.freudenthal_samples = sorted(by_lam.values())

    def setup(self, sp):
        mult_q_direct = sp.multiplicity.mult_q_direct
        for lam, mu in dict.fromkeys(self.stream):
            mult_q_direct(lam, mu)

    def run_round(self, sp, meter) -> Round:
        m = sp.multiplicity

        def run(pair):
            lam, mu = pair
            return m.alternation_set(lam, mu), m.mult_q_direct(lam, mu), m.mult_q_cases(lam, mu)

        results, times, wall_s = timed_items(self.stream, run, meter, self.CHUNK)
        rows, failed = [], 0
        for aset, direct, cases in results:
            if direct != cases or (direct and not len(aset)):
                failed += 1
            rows.append((sorted(aset.indices), direct.coeffs, cases.coeffs))
        return Round(times, wall_s, _digest(rows), failed, rows)

    def check(self, sp, rnd: Round):
        """Freudenthal's multiplicity against m_q at q = 1, one pair per lam."""
        laps, bad = _Laps(), 0
        for i in self.freudenthal_samples:
            lam, mu = self.stream[i]
            bad += sp.multiplicity.mult_freudenthal(lam, mu) != sum(rnd.outputs[i][1])
            laps.lap()
        return bad, laps


# result_digest of `census verify --json` on the 10 x 10 box when every
# check passes; it covers the result, not the timing.
CENSUS_DIGEST = "22f2859767850f15e4ee5decb48c2d7db27fabe7f96bbd521718dff69bd0ed9e"


def swept_pairs(lam_max: int, mu_max: int) -> int:
    """Weight pairs in the sweep box with m + k + x + z even."""
    def even_odd(top):
        even = top // 2 + 1
        return even, top + 1 - even

    le, lo = even_odd(lam_max)
    me, mo = even_odd(mu_max)
    lam_even, lam_odd = le * le + lo * lo, 2 * le * lo  # parity of m + k
    mu_even, mu_odd = me * me + mo * mo, 2 * me * mo    # parity of x + z
    return (lam_even * mu_even + lam_odd * mu_odd) * (lam_max + 1) * (mu_max + 1)


class Census:
    name = "census"
    # A verify run spends about a third of its time in the interpreter
    # (filter pipeline, witness rows) and the rest in numpy sweep passes.
    PYTHON_SHARE = 0.35
    CHUNK = 1
    LAM_MAX = MU_MAX = 10
    PAIR_SAMPLES = 600

    def __init__(self, seed: int, jobs: int):
        self.argv = [
            "census", "verify", "--json", "--lam-max", str(self.LAM_MAX),
            "--mu-max", str(self.MU_MAX), "--jobs", str(jobs),
        ]
        with open(SRC / "sp6q" / "data" / "alt_sets_final.json", encoding="utf-8") as fh:
            self.family = {frozenset(names) for names in json.load(fh)}
        rng = random.Random(seed)
        self.pair_samples = []
        while len(self.pair_samples) < self.PAIR_SAMPLES:
            lam = tuple(rng.randint(0, self.LAM_MAX) for _ in range(3))
            mu = tuple(rng.randint(0, self.MU_MAX) for _ in range(3))
            if _parity_ok(lam, mu):
                self.pair_samples.append((lam, mu))

    def setup(self, sp):
        pass

    def run_round(self, sp, meter) -> Round:
        def run(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = sp.cli.main(list(argv))
            return code, out.getvalue()

        [(code, text)], times, wall_s = timed_items([self.argv], run, meter, self.CHUNK)
        payload = json.loads(text)
        digest = payload["manifest"]["result_digest"]
        ok = code == 0 and payload["result"]["all_passed"] and digest == CENSUS_DIGEST
        return Round(times, wall_s, digest, 0 if ok else 1, payload)

    def check(self, sp, rnd: Round):
        """The manifest digest against the result it covers, and the
        pair-by-pair alternation set of each seeded box pair against the
        shipped final family."""
        laps = _Laps()
        canonical = json.dumps(rnd.outputs["result"], sort_keys=True, separators=(",", ":"))
        wrong = hashlib.sha256(canonical.encode()).hexdigest() != rnd.digest
        laps.lap()
        for lam, mu in self.pair_samples:
            wrong |= frozenset(sp.multiplicity.alternation_set(lam, mu).names()) not in self.family
            laps.lap()
        return int(wrong), laps


WORKLOADS = {w.name: w for w in (Character, Pairs, Census)}
