"""Classification of the Weyl alternation sets of sp6(C).

Two independent routes establish the same family of 46 sets:

  1. A logical filter over candidate subsets of the 17 contributing group
     elements.  Membership of a term forces its three profile variables
     nonnegative; absence forces at least one of them negative.  Subsets
     whose combined constraints are contradictory can never arise.  The
     filter runs in three stages (direct clashes, one-step derived
     clashes, full closure under the contradiction catalog), shrinking
     2^17 = 131072 candidates to 1124, then 150, then 46.

  2. An empirical sweep of alternation sets over a box of weight pairs.

The shipped fixture files record the survivor families of each stage and
a witness weight pair for every final set; verify_census diffs both
routes against them.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Iterable

import numpy as np

from . import weyl
from .multiplicity import (  # symbolic_sigma_rows is re-exported for callers of this module
    PROFILE_FIELDS,
    TERMS,
    AlternationSet,
    alternation_set,
    sigma_table,
    symbolic_sigma_rows,
)
from .root_system import WeightFW

LETTERS = "".join(t.letter for t in TERMS)
_LETTER_INDEX = {L: i for i, L in enumerate(LETTERS)}
_FIELD_INDEX = {f: i for i, f in enumerate(PROFILE_FIELDS)}
_TERM_FIELD_MASK = {
    t.letter: sum(1 << _FIELD_INDEX[f] for f in t.fields) for t in TERMS
}


# Catalog of variable-sign combinations that no pair of dominant integral
# weights can realize: 47 two-variable rules and 6 three-variable rules.
# Entries are conjunctions of (variable, is-negative) atoms.
CONTRADICTION_RULES: tuple[tuple[tuple[str, bool], ...], ...] = (
    (("a", True), ("b", False)),
    (("a", True), ("c", False)),
    (("a", True), ("g", False)),
    (("a", True), ("h", False)),
    (("b", True), ("c", False)),
    (("b", True), ("h", False)),
    (("b", True), ("p", False)),
    (("c", True), ("p", False)),
    (("d", True), ("b", False)),
    (("d", True), ("c", False)),
    (("d", True), ("e", False)),
    (("d", True), ("f", False)),
    (("d", True), ("g", False)),
    (("d", True), ("h", False)),
    (("d", True), ("i", False)),
    (("d", True), ("l", False)),
    (("d", True), ("o", False)),
    (("d", True), ("p", False)),
    (("d", True), ("r", False)),
    (("e", True), ("c", False)),
    (("e", True), ("f", False)),
    (("e", True), ("g", False)),
    (("e", True), ("h", False)),
    (("e", True), ("i", False)),
    (("e", True), ("o", False)),
    (("e", True), ("p", False)),
    (("e", True), ("r", False)),
    (("f", True), ("c", False)),
    (("f", True), ("h", False)),
    (("f", True), ("p", False)),
    (("g", True), ("h", False)),
    (("g", True), ("i", False)),
    (("g", True), ("r", False)),
    (("i", True), ("r", False)),
    (("j", True), ("c", False)),
    (("j", True), ("h", False)),
    (("j", True), ("l", False)),
    (("j", True), ("o", False)),
    (("j", True), ("p", False)),
    (("j", True), ("r", False)),
    (("l", True), ("h", False)),
    (("l", True), ("o", False)),
    (("l", True), ("p", False)),
    (("l", True), ("r", False)),
    (("o", True), ("p", False)),
    (("o", True), ("r", False)),
    (("p", False), ("r", False)),
    (("b", True), ("f", False), ("h", False)),
    (("j", True), ("a", False), ("f", False)),
    (("l", True), ("b", False), ("g", False)),
    (("l", True), ("b", False), ("i", False)),
    (("l", True), ("f", False), ("g", False)),
    (("o", True), ("c", False), ("i", False)),
)


# Derived views of the catalog used by the closure stage:
#   pair rule (x<0 and y>=0) impossible  <=>  y>=0 forces x>=0;
#   triple rule (x<0 and y>=0 and z>=0)  <=>  y,z>=0 force x>=0;
#   the one all-nonnegative pair (p>=0 and r>=0) is a hard clash.
def _catalog_views():
    implies = {v: set() for v in PROFILE_FIELDS}
    conj_rules = []
    hard = []
    for rule in CONTRADICTION_RULES:
        neg = [v for v, isneg in rule if isneg]
        pos = [v for v, isneg in rule if not isneg]
        if not neg:
            hard.append(frozenset(pos))
        elif len(rule) == 2:
            implies[pos[0]].add(neg[0])
        else:
            conj_rules.append((frozenset(pos), neg[0]))
    return implies, conj_rules, hard


_IMPLIES, _CONJ_RULES, _HARD_CLASHES = _catalog_views()

# One-step derivation map of the intermediate filter stage.  It is a
# deliberate under-approximation of the catalog closure (only the final
# stage applies the full catalog); together with the a&f conjunction rule
# and the p&r clash it reproduces the intermediate survivor family
# exactly.
_STAGE2_DERIVED = {
    "a": "", "b": "a", "c": "abf", "d": "", "e": "d", "f": "de",
    "g": "de", "h": "defg", "i": "deg", "j": "", "l": "j",
    "o": "jl", "p": "cjlo", "r": "ijlo",
}

_NVARS = len(PROFILE_FIELDS)
_PR_MASK = (1 << _FIELD_INDEX["p"]) | (1 << _FIELD_INDEX["r"])
_AF_MASK = (1 << _FIELD_INDEX["a"]) | (1 << _FIELD_INDEX["f"])
_J_BIT = 1 << _FIELD_INDEX["j"]
_STAGE2_MAP_BITS = {
    _FIELD_INDEX[v]: sum(1 << _FIELD_INDEX[w] for w in ws) for v, ws in _STAGE2_DERIVED.items()
}
_IMPLIES_BITS = {
    _FIELD_INDEX[v]: sum(1 << _FIELD_INDEX[w] for w in ws) for v, ws in _IMPLIES.items()
}
_CONJ_BITS = [
    (sum(1 << _FIELD_INDEX[v] for v in pre), 1 << _FIELD_INDEX[post])
    for pre, post in _CONJ_RULES
]
_HARD_BITS = [sum(1 << _FIELD_INDEX[v] for v in clash) for clash in _HARD_CLASHES]
_TERM_MASKS = [_TERM_FIELD_MASK[L] for L in LETTERS]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _forced_mask(subset: int) -> int:
    forced = 0
    for i in range(17):
        if subset >> i & 1:
            forced |= _TERM_MASKS[i]
    return forced


def _needs_absent_term(subset: int, pool: int) -> bool:
    for i in range(17):
        if not subset >> i & 1 and _TERM_MASKS[i] & ~pool == 0:
            return True
    return False


def _stage1_ok(subset: int) -> bool:
    # A direct clash: the members alone force every variable of an absent
    # term nonnegative, while its absence requires one of them negative.
    return not _needs_absent_term(subset, _forced_mask(subset))


@lru_cache(maxsize=None)
def _stage2_derived_mask(forced: int) -> int:
    derived = 0
    for b in _bits(forced):
        derived |= _STAGE2_MAP_BITS[b]
    if forced & _AF_MASK == _AF_MASK:
        derived |= _J_BIT
    return derived


def _stage2_ok(subset: int) -> bool:
    # Derived clash: variables forced nonnegative one implication step away
    # from the members cover an absent term; or p and r are both forced.
    forced = _forced_mask(subset)
    if forced & _PR_MASK == _PR_MASK:
        return False
    return not _needs_absent_term(subset, _stage2_derived_mask(forced))


@lru_cache(maxsize=None)
def _closure_mask(forced: int) -> int:
    out = forced
    while True:
        new = out
        for b in _bits(out):
            new |= _IMPLIES_BITS[b]
        for pre, post in _CONJ_BITS:
            if new & pre == pre:
                new |= post
        if new == out:
            return out
        out = new


def _stage3_ok(subset: int) -> bool:
    # Full catalog closure of the forced set, hard clashes included.
    forced = _closure_mask(_forced_mask(subset))
    for clash in _HARD_BITS:
        if forced & clash == clash:
            return False
    return not _needs_absent_term(subset, forced)


def _mask_to_letters(subset: int) -> frozenset[str]:
    return frozenset(LETTERS[i] for i in range(17) if subset >> i & 1)


def letters_sort_key(letters: Iterable[str]) -> tuple:
    idx = sorted(_LETTER_INDEX[L] for L in letters)
    return (len(idx), tuple(idx))


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
    """Run the three filter stages over all 2^17 candidate subsets."""
    stage1 = [s for s in range(1 << 17) if _stage1_ok(s)]
    stage2 = [s for s in stage1 if _stage2_ok(s)]
    final = [s for s in stage2 if _stage3_ok(s)]

    def as_letter_sets(masks):
        out = [_mask_to_letters(m) for m in masks]
        out.sort(key=letters_sort_key)
        return out

    return PipelineResult(as_letter_sets(stage1), as_letter_sets(stage2), as_letter_sets(final))


def type1_excluded() -> list[weyl.WeylElement]:
    """The 31 group elements that can never enter an alternation set.

    Detected symbolically: an element is excluded when some coordinate of
    sigma(lam+rho) - rho - mu, as an affine expression in the six
    nonnegative weight coordinates, has every variable coefficient <= 0
    and a negative constant term, hence is negative for all dominant
    integral weight pairs.
    """
    table = sigma_table()
    group = weyl.enumerate_group()
    return [
        group[idx]
        for idx, _sign, ids in table.elements
        if any(all(c <= 0 for c in table.rows[r][:6]) and table.rows[r][6] < 0 for r in ids)
    ]


def contributing_elements() -> list[weyl.WeylElement]:
    """Complement of type1_excluded within the group (17 elements)."""
    excluded = set(type1_excluded())
    return [el for el in weyl.enumerate_group() if el not in excluded]


# ---------------------------------------------------------------------------
# Empirical sweep
# ---------------------------------------------------------------------------

# Position of each term's three profile variables among PROFILE_FIELDS.
_TERM_FIELDS = np.array([[_FIELD_INDEX[f] for f in t.fields] for t in TERMS])


@dataclass(frozen=True)
class SweepEntry:
    altset: AlternationSet
    lam: WeightFW
    mu: WeightFW


def _sweep_one_m(m: int, lam_max: int, mu_max: int):
    axes = [np.arange(lam_max + 1)] * 2 + [np.arange(mu_max + 1)] * 3
    grid = np.meshgrid(*axes, indexing="ij")
    rest = np.stack([g.ravel() for g in grid], axis=1)  # (n, k, x, y, z)
    vars6 = np.concatenate(
        [np.full((rest.shape[0], 1), m, dtype=np.int64), rest], axis=1
    )
    parity = (vars6[:, 0] + vars6[:, 2] + vars6[:, 3] + vars6[:, 5]) % 2 == 0
    vars6 = vars6[parity]
    if vars6.size == 0:
        return {}
    table = sigma_table()
    rows = np.array([table.rows[r] for r in table.profile], dtype=np.int64)
    vals = vars6 @ rows[:, :6].T + rows[:, 6]  # doubled profile variables
    nonneg = (vals >= 0) & (vals % 2 == 0)
    member = nonneg[:, _TERM_FIELDS].all(axis=2)
    masks = (member.astype(np.int64) << np.arange(17, dtype=np.int64)).sum(axis=1)
    uniq, first = np.unique(masks, return_index=True)
    found = {}
    for u, i in zip(uniq, first):
        v = vars6[i]
        found[int(u)] = (int(v[0]), int(v[1]), int(v[2]), int(v[3]), int(v[4]), int(v[5]))
    return found


def sweep_census(lam_max: int, mu_max: int, jobs: int | None = None) -> list[SweepEntry]:
    """Alternation sets over all weight pairs with lam coefficients in
    0..lam_max, mu coefficients in 0..mu_max, and m + k + x + z even.

    Returns each distinct set once, with its lexicographically first
    witness (ordering (m, n, k, x, y, z)); entries are listed in order of
    first appearance.  Workers split the outer coordinate; merging keeps
    the lexicographically smallest witness, so the result is independent
    of the worker count.
    """
    if lam_max < 0 or mu_max < 0:
        raise ValueError("sweep bounds must be nonnegative")
    jobs = jobs or os.cpu_count() or 1
    merged: dict[int, tuple] = {}
    ms = list(range(lam_max + 1))
    if jobs > 1 and len(ms) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(lambda m: _sweep_one_m(m, lam_max, mu_max), ms))
    else:
        parts = [_sweep_one_m(m, lam_max, mu_max) for m in ms]
    for part in parts:
        for mask, witness in part.items():
            if mask not in merged or witness < merged[mask]:
                merged[mask] = witness
    entries = [
        SweepEntry(
            AlternationSet.from_letters(_mask_to_letters(mask)),
            WeightFW(*w[:3]),
            WeightFW(*w[3:]),
        )
        for mask, w in merged.items()
    ]
    entries.sort(key=lambda e: (e.lam.coeffs(), e.mu.coeffs()))
    return entries


# ---------------------------------------------------------------------------
# Fixtures and verification
# ---------------------------------------------------------------------------

FIXTURE_ENV_VAR = "SP6Q_FIXTURES"
_FIXTURE_FILES = {
    "stage1": "alt_sets_stage1.json",
    "stage2": "alt_sets_stage2.json",
    "final": "alt_sets_final.json",
    "witnesses": "witness_pairs.json",
}


class FixtureError(ValueError):
    """A fixture file is missing, unreadable or malformed."""


def _load_fixture(name: str, fixtures_dir: str | None = None):
    fname = _FIXTURE_FILES[name]
    directory = fixtures_dir or os.environ.get(FIXTURE_ENV_VAR)
    try:
        if directory:
            with open(os.path.join(directory, fname), encoding="utf-8") as fh:
                return json.load(fh)
        return json.loads(resources.files("sp6q").joinpath("data", fname).read_text("utf-8"))
    except (OSError, ValueError) as exc:
        raise FixtureError(f"cannot read fixture {fname}: {exc}") from None


def _parse_fixture(name: str, fixtures_dir: str | None, parse_row) -> list:
    rows = _load_fixture(name, fixtures_dir)
    try:
        return [parse_row(row) for row in rows]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FixtureError(f"malformed fixture {_FIXTURE_FILES[name]}: {exc!r}") from None


def _fixture_weight(coeffs) -> WeightFW:
    if len(coeffs) != 3 or not all(type(c) is int for c in coeffs):
        raise ValueError(f"expected three integers, got {coeffs!r}")
    return WeightFW(*coeffs)


def load_family_fixture(name: str, fixtures_dir: str | None = None) -> list[AlternationSet]:
    """A stage fixture: JSON array of arrays of canonical Weyl words."""
    return _parse_fixture(name, fixtures_dir, AlternationSet.from_names)


def load_witness_fixture(fixtures_dir: str | None = None):
    """Witness rows: objects with a set of Weyl words and a weight pair."""
    return _parse_fixture(
        "witnesses",
        fixtures_dir,
        lambda r: (AlternationSet.from_names(r["set"]), _fixture_weight(r["lam"]), _fixture_weight(r["mu"])),
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

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }


def _family_diff(got: list[AlternationSet], want: list[AlternationSet]) -> str:
    gs, ws = set(a.indices for a in got), set(a.indices for a in want)
    if gs == ws:
        return ""
    extra = [str(AlternationSet(s)) for s in sorted(gs - ws, key=lambda x: (len(x), sorted(x)))]
    missing = [str(AlternationSet(s)) for s in sorted(ws - gs, key=lambda x: (len(x), sorted(x)))]
    return f"extra={extra[:5]} missing={missing[:5]}"


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
    Any mismatch is reported with the offending sets, never dropped; a
    missing or malformed fixture file raises FixtureError.
    """
    report = CensusReport()

    pipeline = filter_pipeline()
    for stage, got_letters in (
        ("stage1", pipeline.stage1),
        ("stage2", pipeline.stage2),
        ("final", pipeline.final),
    ):
        want = load_family_fixture(stage, fixtures_dir)
        got = [AlternationSet.from_letters(s) for s in got_letters]
        diff = _family_diff(got, want)
        report.add(
            f"pipeline-{stage}",
            not diff and len(got) == len(want),
            diff or f"{len(got)} sets",
        )

    witnesses = load_witness_fixture(fixtures_dir)
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

    entries = sweep_census(lam_max, mu_max, jobs=jobs)
    sweep_family = [e.altset for e in entries]
    want_final = load_family_fixture("final", fixtures_dir)
    diff = _family_diff(sweep_family, want_final)
    report.add(
        "sweep-family",
        not diff and len(sweep_family) == len(want_final),
        diff or f"{len(sweep_family)} sets from sweep({lam_max},{mu_max})",
    )

    pipe_family = pipeline.final_alternation_sets()
    diff = _family_diff(sweep_family, pipe_family)
    report.add("pipeline-vs-sweep", not diff, diff or "families agree")

    return report
