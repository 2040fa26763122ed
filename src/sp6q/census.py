"""Classification of the Weyl alternation sets of sp6(C).

Two independent routes establish the same family of 46 sets:

  1. A logical filter over candidate subsets of the 17 contributing group
     elements.  Membership of a term forces its three profile variables
     nonnegative; absence forces at least one of them negative.  Subsets
     whose combined constraints are contradictory can never arise.  The
     filter runs in three stages (direct clashes, one-step derived
     clashes, full closure under the contradiction catalog), shrinking
     2^17 = 131072 candidates to 1124, then 150, then 46.  Each stage is
     one array lookup, over the previous survivors, into a (pool, clash)
     table over the 2^14 forced sign patterns.  The catalog and the
     stage-2 rules, a subset of it, are spelled as the sign patterns of
     multiplicity.CASES are, as (nonnegative, negative) field strings, and
     compiled to mask pairs (pre nonnegative forces post nonnegative).

  2. An empirical sweep of alternation sets over a box of weight pairs,
     cut into fixed-size blocks that a thread pool queues.  Each profile
     variable is a lam part minus one of mu's three doubled alpha
     coordinates, so a block reads the sign patterns of its pairs from
     three small per-coordinate tables, and the first pair of each
     pattern from one linear pass.

Both routes read the same rule from multiplicity.covered_terms: the terms
whose three variables all lie in a set of nonnegative variables.

The shipped fixture files record the survivor families of each stage and
a witness weight pair for every final set; verify_census diffs both
routes against them.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from importlib import resources
from math import isqrt
from pathlib import Path
from typing import Iterable

import numpy as np

from . import weyl
from .multiplicity import (  # symbolic_sigma_rows is re-exported for callers of this module
    TERM_MASKS,
    TERMS,
    AlternationSet,
    alternation_set,
    covered_terms,
    field_mask,
    sigma_table,
    symbolic_sigma_rows,
)
from .root_system import WeightFW

# Catalog of the sign patterns of the profile variables that no pair of
# dominant integral weights realizes, spelled as the patterns of
# multiplicity.CASES are: (nonnegative, negative) field strings.  ("fh", "b")
# reads "f >= 0 and h >= 0 with b < 0 never happens", so f and h nonnegative
# force b nonnegative.  47 rules have two variables and 6 have three; the one
# rule with no negative variable, ("pr", ""), is a hard clash instead.
CONTRADICTION_RULES: tuple[tuple[str, str], ...] = (
    ("b", "a"), ("c", "a"), ("g", "a"), ("h", "a"),
    ("c", "b"), ("h", "b"), ("p", "b"),
    ("p", "c"),
    ("b", "d"), ("c", "d"), ("e", "d"), ("f", "d"), ("g", "d"), ("h", "d"),
    ("i", "d"), ("l", "d"), ("o", "d"), ("p", "d"), ("r", "d"),
    ("c", "e"), ("f", "e"), ("g", "e"), ("h", "e"), ("i", "e"), ("o", "e"), ("p", "e"), ("r", "e"),
    ("c", "f"), ("h", "f"), ("p", "f"),
    ("h", "g"), ("i", "g"), ("r", "g"),
    ("r", "i"),
    ("c", "j"), ("h", "j"), ("l", "j"), ("o", "j"), ("p", "j"), ("r", "j"),
    ("h", "l"), ("o", "l"), ("p", "l"), ("r", "l"),
    ("p", "o"), ("r", "o"),
    ("pr", ""),
    ("fh", "b"),
    ("af", "j"),
    ("bg", "l"), ("bi", "l"), ("fg", "l"),
    ("ci", "o"),
)

# The intermediate filter stage's rules: a subset of the catalog, in its
# spelling and order.  Stage 2 applies one step of them, not their closure,
# plus the catalog's hard clash on the forced set; this deliberate
# under-approximation reproduces the intermediate survivor family exactly.
_STAGE2_RULES: tuple[tuple[str, str], ...] = (
    ("b", "a"), ("c", "a"),
    ("c", "b"),
    ("p", "c"),
    ("e", "d"), ("f", "d"), ("g", "d"), ("h", "d"), ("i", "d"),
    ("f", "e"), ("g", "e"), ("h", "e"), ("i", "e"),
    ("c", "f"), ("h", "f"),
    ("h", "g"), ("i", "g"),
    ("r", "i"),
    ("l", "j"), ("o", "j"), ("p", "j"), ("r", "j"),
    ("o", "l"), ("p", "l"), ("r", "l"),
    ("p", "o"), ("r", "o"),
    ("af", "j"),
)

# Every catalog rule with a negative variable as a pair of masks (pre, post):
# the variables of pre being nonnegative force those of post nonnegative.
# The rule with none, p >= 0 with r >= 0, is a hard clash.
_CATALOG_RULES = tuple((field_mask(pos), field_mask(neg)) for pos, neg in CONTRADICTION_RULES if neg)
_HARD_BITS = tuple(field_mask(pos) for pos, neg in CONTRADICTION_RULES if not neg)


@lru_cache(maxsize=1)
def _forced_table() -> np.ndarray:
    """field_mask of the variables each of the 2^17 subsets of TERMS forces nonnegative, as uint16."""
    forced = np.zeros(1, np.uint16)
    for term in TERM_MASKS:  # the subsets with this term: those before it, each with it added
        forced = np.concatenate((forced, forced | term))
    forced.flags.writeable = False
    return forced


def _step(pool: np.ndarray, rules) -> np.ndarray:
    """For each sign pattern of pool, the union of post over the rules whose pre it contains."""
    out = np.zeros_like(pool)
    for pre, post in rules:
        out[pool & pre == pre] |= post
    return out


def _clash(pool: np.ndarray) -> np.ndarray:
    """Whether each sign pattern of pool holds all the variables of a hard clash."""
    return np.logical_or.reduce([pool & hard == hard for hard in _HARD_BITS])


@lru_cache(maxsize=1)
def _stage_tables() -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(pool, clash) of each filter stage over the 2^14 forced sign patterns, built once, read-only.

    pool[f] holds the variables the stage knows nonnegative when the members
    force f: stage 1 f itself; stage 2 one step from f, without f, of
    _STAGE2_RULES, a subset of the catalog; stage 3 the closure of f under
    the whole catalog.  clash[f] marks the catalog's hard clash: none in
    stage 1, in f in stage 2, in the closure in stage 3.
    """
    patterns = np.arange(1 << 14, dtype=np.uint16)
    closure = patterns
    while not np.array_equal(grown := closure | _step(closure, _CATALOG_RULES), closure):
        closure = grown
    tables = (
        (patterns, np.zeros(1 << 14, bool)),
        (_step(patterns, [(field_mask(pos), field_mask(neg)) for pos, neg in _STAGE2_RULES]), _clash(patterns)),
        (closure, _clash(closure)),
    )
    for table in tables:
        for array in table:
            array.flags.writeable = False
    return tables


def _passes(subsets: np.ndarray, pool: np.ndarray, clash: np.ndarray) -> np.ndarray:
    """Whether each subset passes one stage: its forced pattern f does not clash, and no term
    it leaves out (one of whose variables must be negative) has all three in pool[f]."""
    forced = _forced_table()[subsets]
    return ~clash[forced] & (covered_terms()[pool[forced]] & ~subsets == 0)


def _positions(subset: int) -> tuple[int, ...]:
    """The positions in TERMS of the members of a term mask, ascending."""
    return tuple(i for i in range(17) if subset >> i & 1)


def _letters(positions: Iterable[int]) -> frozenset[str]:
    return frozenset(TERMS[i].letter for i in positions)


@dataclass
class PipelineResult:
    stage1: list[frozenset[str]]
    stage2: list[frozenset[str]]
    final: list[frozenset[str]]

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.stage1), len(self.stage2), len(self.final))

    def final_alternation_sets(self) -> list[AlternationSet]:
        return [AlternationSet.from_letters(s) for s in self.final]


def filter_pipeline() -> PipelineResult:
    """Run the three filter stages over all 2^17 candidate subsets, each
    stage over the survivors of the one before."""
    subsets = np.arange(1 << 17, dtype=np.uint32)
    families = []
    for pool, clash in _stage_tables():
        subsets = subsets[_passes(subsets, pool, clash)]
        # the canonical family order: by size, then by the ascending positions of the members
        positions = sorted(map(_positions, subsets.tolist()), key=lambda p: (len(p), p))
        families.append([_letters(p) for p in positions])
    return PipelineResult(*families)


def type1_excluded() -> list[weyl.WeylElement]:
    """The 31 group elements that can never enter an alternation set.

    Detected symbolically: an element is excluded when some coordinate of
    sigma(lam+rho) - rho - mu, as an affine expression in the six
    nonnegative weight coordinates, has every variable coefficient <= 0
    and a negative constant term, hence is negative for all dominant
    integral weight pairs.  Only the lam part (cm, cn, ck, c1) of a row
    of sigma_table is read: its mu part is minus mu_alpha[i] . (x, y, z),
    and every entry of mu_alpha is nonnegative ((2,2,2), (2,4,4),
    (1,2,3)), so for dominant mu the mu part is never positive.
    """
    table = sigma_table()
    group = weyl.enumerate_group()
    return [
        group[idx]
        for idx, _sign, ids in table.elements
        if any(all(c <= 0 for c in table.rows[r][:3]) and table.rows[r][3] < 0 for r in ids)
    ]


# ---------------------------------------------------------------------------
# Empirical sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepEntry:
    altset: AlternationSet
    lam: WeightFW
    mu: WeightFW


# Pairs in one block; every sweep array is sized by this, never by the box.
# A block's per-coordinate sign table is lam side x (distinct values of
# alpha_i met), at most lam side x (max alpha_i + 1) and never more than
# the block's pairs; doubled alpha_i is at most 10 * mu_max.
SWEEP_BLOCK_PAIRS = 1 << 18
# Most (lam, mu) pairs a box may be charged, a bound on the time.  Each block
# counts as a full SWEEP_BLOCK_PAIRS block, since a block of a flat box, with
# few triples on one side, costs about as much as a full one: 20x20 is charged
# about 9.5e7 and 30x30 about 9.1e8; 40x40 and 999x0 are refused.
SWEEP_MAX_PAIRS = 10**9


def _block_steps(lam_max: int, mu_max: int) -> tuple[int, int, int, int]:
    """Triples (n_lam, n_mu) and block sides (lam_step, mu_step): square blocks,
    or where a side of the box is short, that side whole and the other up to 16 square sides."""
    n_lam, n_mu = (lam_max + 1) ** 3, (mu_max + 1) ** 3
    side = isqrt(SWEEP_BLOCK_PAIRS)
    mu_step = min(n_mu, 16 * side, max(side, SWEEP_BLOCK_PAIRS // n_lam))
    lam_step = min(16 * side, SWEEP_BLOCK_PAIRS // mu_step)
    return n_lam, n_mu, lam_step, mu_step


def _blocks(lam_max: int, mu_max: int):
    """Blocks (lam start, lam stop, mu start, mu stop) of lexicographic triple indices, one at a time."""
    n_lam, n_mu, lam_step, mu_step = _block_steps(lam_max, mu_max)
    for l in range(0, n_lam, lam_step):
        for u in range(0, n_mu, mu_step):
            yield l, min(l + lam_step, n_lam), u, min(u + mu_step, n_mu)


def check_sweep_box(lam_max: int, mu_max: int, jobs: int | None = None) -> int:
    """Threads to run; ValueError for a negative bound, jobs below 1 or a box charged over SWEEP_MAX_PAIRS."""
    if lam_max < 0 or mu_max < 0:
        raise ValueError(f"sweep bounds must be nonnegative, got {lam_max} and {mu_max}")
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    n_lam, n_mu, lam_step, mu_step = _block_steps(lam_max, mu_max)
    blocks = -(-n_lam // lam_step) * -(-n_mu // mu_step)
    if blocks * SWEEP_BLOCK_PAIRS > SWEEP_MAX_PAIRS:
        raise ValueError(f"a {lam_max}x{mu_max} sweep has {blocks} blocks, charged {blocks * SWEEP_BLOCK_PAIRS:.2e} pairs, "
                         f"over the bound of {SWEEP_MAX_PAIRS:.0e}")
    cores = os.cpu_count() or 1
    return min(jobs or cores, cores, blocks)


def _sweep_block(
    block: tuple[int, int, int, int],
    lam_max: int,
    mu_max: int,
    lam_rows: np.ndarray,
    coords: tuple[list[int], ...],
    mu_alpha: np.ndarray,
) -> list[tuple[int, tuple[int, ...]]]:
    """(term mask, witness (m, n, k, x, y, z)) of the first pair of each sign pattern and parity
    met in one block (l0, l1, u0, u1) of the box.

    A doubled profile variable is its lam part minus one doubled alpha
    coordinate of mu; coords lists the variables that read each coordinate.
    So, for each parity class, a block builds per coordinate a sign table
    over its lam triples and the distinct values the coordinate takes on
    its mu triples, and a pair's sign pattern is the OR of the three tables
    read at its mu's values.  The first pair of each pattern is the least
    flat (lam, mu) index holding it, found in one np.minimum.at pass.
    """
    l0, l1, u0, u1 = block
    lam = np.array(np.unravel_index(np.arange(l0, l1), (lam_max + 1,) * 3))  # columns (m, n, k)
    mu = np.array(np.unravel_index(np.arange(u0, u1), (mu_max + 1,) * 3))  # columns (x, y, z)
    lam_part = lam_rows[:, :3] @ lam + lam_rows[:, 3:]
    alpha = mu_alpha @ mu  # rows: the three doubled alpha coordinates of each mu
    found = []
    # m + k and x + z of one parity: every value is then even, so its sign alone decides
    for parity in (0, 1):
        li = np.flatnonzero((lam[0] + lam[2]) % 2 == parity)
        mi = np.flatnonzero((mu[0] + mu[2]) % 2 == parity)
        signs = np.zeros((len(li), len(mi)), np.uint16)  # field_mask of the nonnegative variables
        for fields, coord in zip(coords, alpha[:, mi]):
            values, at = np.unique(coord, return_inverse=True)
            table = np.zeros((len(li), len(values)), np.uint16)
            for f in fields:
                table |= np.left_shift(lam_part[f, li, None] >= values, f, dtype=np.uint16)
            signs |= table[:, at]
        first = np.full(1 << 14, signs.size)
        np.minimum.at(first, signs.ravel(), np.arange(signs.size))
        met = np.flatnonzero(first < signs.size)
        for terms, i in zip(covered_terms()[met].tolist(), first[met].tolist()):
            a, b = divmod(i, len(mi))
            found.append((terms, (*lam[:, li[a]].tolist(), *mu[:, mi[b]].tolist())))
    return found


def sweep_census(lam_max: int, mu_max: int, jobs: int | None = None) -> list[SweepEntry]:
    """Alternation sets over all weight pairs with lam coefficients in
    0..lam_max, mu coefficients in 0..mu_max, and m + k + x + z even.

    Returns each distinct set once, with its lexicographically first
    witness (ordering (m, n, k, x, y, z)); entries are listed in order of
    first appearance.  The thread pool queues the blocks of the box, each
    worker taking the next one when it is free; merging keeps the smallest
    witness, so the result does not depend on the blocks, the workers or
    the order they finish in.  check_sweep_box bounds the box and workers.
    """
    workers = check_sweep_box(lam_max, mu_max, jobs)
    table = sigma_table()
    rows = np.array(table.rows[:14], dtype=np.int64)  # (cm, cn, ck, c1, i) of each profile variable
    coords = tuple(np.flatnonzero(rows[:, 4] == i).tolist() for i in range(3))
    one_block = partial(_sweep_block, lam_max=lam_max, mu_max=mu_max, lam_rows=rows[:, :4], coords=coords,
                        mu_alpha=np.array(table.mu_alpha, dtype=np.int64))
    best: dict[int, tuple[int, ...]] = {}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # one worker runs here: a worker thread's own malloc arena would hold a second peak
        for found in (map if workers == 1 else pool.map)(one_block, _blocks(lam_max, mu_max)):
            for terms, witness in found:
                best[terms] = min(best.get(terms, witness), witness)
    return [
        SweepEntry(AlternationSet.from_letters(_letters(_positions(terms))), WeightFW(*w[:3]), WeightFW(*w[3:]))
        for terms, w in sorted(best.items(), key=lambda item: item[1])
    ]


# ---------------------------------------------------------------------------
# Fixtures and verification
# ---------------------------------------------------------------------------

_FIXTURE_FILES = {
    "stage1": "alt_sets_stage1.json",
    "stage2": "alt_sets_stage2.json",
    "final": "alt_sets_final.json",
    "witnesses": "witness_pairs.json",
}


class FixtureError(ValueError):
    """A fixture file is missing, unreadable or malformed."""


def _read_fixture(name: str, fixtures_dir: str | None, parse_row) -> list:
    """Parse each row of a fixture's JSON array, read from fixtures_dir or,
    when it is None, from the packaged data."""
    fname = _FIXTURE_FILES[name]
    directory = resources.files("sp6q").joinpath("data") if fixtures_dir is None else Path(fixtures_dir)
    try:
        rows = json.loads(directory.joinpath(fname).read_text("utf-8"))
    except (OSError, ValueError) as exc:
        raise FixtureError(f"cannot read fixture {fname}: {exc}") from None
    try:
        if type(rows) is not list:
            raise TypeError(f"expected an array, got {type(rows).__name__}")
        return [parse_row(row) for row in rows]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FixtureError(f"malformed fixture {fname}: {exc!r}") from None


def _fixture_set(names) -> AlternationSet:
    if type(names) is not list:  # a string would be read one character per word
        raise TypeError(f"expected an array of Weyl words, got {names!r}")
    return AlternationSet.from_names(names)


def _fixture_weight(coeffs) -> WeightFW:
    if len(coeffs) != 3 or not all(type(c) is int for c in coeffs):
        raise ValueError(f"expected three integers, got {coeffs!r}")
    return WeightFW(*coeffs)


def load_family_fixture(name: str, fixtures_dir: str | None = None) -> list[AlternationSet]:
    """A stage fixture: JSON array of arrays of canonical Weyl words."""
    return _read_fixture(name, fixtures_dir, _fixture_set)


def load_witness_fixture(fixtures_dir: str | None = None):
    """Witness rows: objects with a set of Weyl words and a weight pair."""
    return _read_fixture(
        "witnesses",
        fixtures_dir,
        lambda r: (_fixture_set(r["set"]), _fixture_weight(r["lam"]), _fixture_weight(r["mu"])),
    )


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class CensusReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str):
        self.checks.append(CheckResult(name, passed, detail))

    def add_family(self, name: str, got: list[AlternationSet], want: list[AlternationSet], detail: str):
        """Pass when got and want hold the same sets; else list up to five extra and missing ones."""
        gs, ws = set(a.indices for a in got), set(a.indices for a in want)
        extra = [str(AlternationSet(s)) for s in sorted(gs - ws, key=lambda x: (len(x), sorted(x)))]
        missing = [str(AlternationSet(s)) for s in sorted(ws - gs, key=lambda x: (len(x), sorted(x)))]
        diff = f"extra={extra[:5]} missing={missing[:5]}" if gs != ws else ""
        self.add(name, not diff and len(got) == len(want), diff or detail)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"all_passed": self.all_passed, "checks": [asdict(c) for c in self.checks]}


def verify_census(
    fixtures_dir: str | None = None,
    lam_max: int = 10,
    mu_max: int = 10,
    jobs: int | None = None,
) -> CensusReport:
    """Cross-check every classification artifact.

    (i) the filter pipeline's stage families against the three fixtures,
    (ii) every fixture witness pair against a recomputed alternation set,
    (iii) the sweep family against the final fixture and the pipeline.
    Any mismatch is reported with the offending sets, never dropped.  The
    box (check_sweep_box) and all four fixture files are checked first,
    so a bad one raises before any pipeline or sweep work.
    """
    check_sweep_box(lam_max, mu_max, jobs)
    families = {stage: load_family_fixture(stage, fixtures_dir) for stage in ("stage1", "stage2", "final")}
    witnesses = load_witness_fixture(fixtures_dir)
    report = CensusReport()

    pipeline = filter_pipeline()
    for stage, want in families.items():
        got = [AlternationSet.from_letters(s) for s in getattr(pipeline, stage)]
        report.add_family(f"pipeline-{stage}", got, want, f"{len(got)} sets")

    bad = []
    for want_set, lam, mu in witnesses:
        got = alternation_set(lam, mu)
        if got.indices != want_set.indices:
            bad.append(f"{lam.coeffs()},{mu.coeffs()}: got {got}, want {want_set}")
    report.add(
        "witness-rows",
        not bad,
        "; ".join(bad) if bad else f"{len(witnesses)} rows reproduced",
    )

    sweep_family = [e.altset for e in sweep_census(lam_max, mu_max, jobs=jobs)]
    report.add_family("sweep-family", sweep_family, families["final"],
                      f"{len(sweep_family)} sets from sweep({lam_max},{mu_max})")
    report.add_family("pipeline-vs-sweep", sweep_family, pipeline.final_alternation_sets(), "families agree")

    return report
