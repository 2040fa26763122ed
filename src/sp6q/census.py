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
     The survivors stay term masks (bit i for TERMS[i]), put in family
     order in numpy; AlternationSet.from_mask turns one into a set, itself
     one int: an element mask, bit idx for canonical index idx.

  2. An empirical sweep of alternation sets over a box of weight pairs,
     cut into fixed-size blocks.  Each profile variable is a lam part
     minus one of mu's three doubled alpha coordinates, and every such
     coordinate of the box lies in 0..10 * mu_max.  So each lam block
     builds, once, three sign tables over its lam triples and that dense
     value axis, then walks its mu blocks, reading the sign patterns of
     their pairs from the tables at each mu's coordinates and lowering
     directly, in one np.minimum.at pass, the box's one int32 array of
     the least flat pair index of each sign pattern.

Both routes read the same rule from covered_terms: the terms whose three
variables all lie in a set of nonnegative variables.  This is the one
module of the package that uses numpy.

The shipped fixture files record the survivor families of each stage and
a witness weight pair for every final set; verify_census diffs both
routes against them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from importlib import resources
from itertools import groupby
from math import isqrt
from pathlib import Path

import numpy as np

from . import weyl
from .multiplicity import (  # symbolic_sigma_rows is re-exported for callers of this module
    TERMS,
    AlternationSet,
    alternation_set,
    field_mask,
    sigma_table,
    symbolic_sigma_rows,
)
from .root_system import WeightFW

TERM_MASKS = tuple(field_mask(t.fields) for t in TERMS)  # the three variables of each of TERMS


@lru_cache(maxsize=1)
def covered_terms() -> np.ndarray:
    """Term mask of every sign pattern, built once, as a read-only uint32 array.

    Entry s, for a 14-bit field_mask s, has bit i set exactly when all
    three variables of TERMS[i] lie in s: the terms that contribute when
    the variables of s are the nonnegative ones.
    """
    patterns = np.arange(1 << 14)
    covered = np.zeros(1 << 14, np.uint32)
    for i, term in enumerate(TERM_MASKS):
        covered[patterns & term == term] |= 1 << i
    covered.flags.writeable = False
    return covered

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


# bit i of a term mask weighs 2^(16 - i) in the reversed mask
_REVERSED_WEIGHTS = 1 << np.arange(len(TERMS) - 1, -1, -1)


def _family_order(subsets: np.ndarray) -> np.ndarray:
    """subsets in the canonical family order: by size, then by the ascending
    positions of the members.  Among sets of one size that is the descending
    order of the masks with their 17 bits reversed, where a smaller first
    differing position is a higher bit."""
    reversed_masks = (subsets[:, None] >> np.arange(len(TERMS)) & 1) @ _REVERSED_WEIGHTS
    return subsets[np.lexsort((-reversed_masks, np.bitwise_count(subsets)))]


@dataclass
class PipelineResult:
    """The survivors of the three filter stages as term masks (bit i for TERMS[i]), in family order."""

    masks: tuple[list[int], list[int], list[int]]

    def _spelled(self, stage: int) -> list[frozenset[str]]:
        return [frozenset(t.letter for i, t in enumerate(TERMS) if mask >> i & 1) for mask in self.masks[stage]]

    @property
    def stage1(self) -> list[frozenset[str]]:
        return self._spelled(0)

    @property
    def stage2(self) -> list[frozenset[str]]:
        return self._spelled(1)

    @property
    def final(self) -> list[frozenset[str]]:
        return self._spelled(2)

    @property
    def counts(self) -> tuple[int, int, int]:
        return tuple(map(len, self.masks))


def filter_pipeline() -> PipelineResult:
    """Run the three filter stages over all 2^17 candidate subsets, each
    stage over the survivors of the one before.  The stage-1 survivors are
    put in family order once; a later stage keeps a subsequence of them."""
    subsets = np.arange(1 << 17, dtype=np.uint32)
    masks = []
    for pool, clash in _stage_tables():
        subsets = subsets[_passes(subsets, pool, clash)]
        if not masks:
            subsets = _family_order(subsets)
        masks.append(subsets.tolist())
    return PipelineResult(tuple(masks))


def type1_excluded() -> list[weyl.WeylElement]:
    """The 31 group elements that can never enter an alternation set of a
    dominant pair: all but the TERMS elements of sigma_table().terms.

    Each has a coordinate of sigma(lam+rho) - rho - mu whose row has every
    lam coefficient <= 0 and a negative constant, so that it is negative at
    every dominant pair; sigma_table proves this rule once, when it builds
    the table.
    """
    contributing = {idx for idx, _sign, _ids in sigma_table().terms}
    return [el for idx, el in enumerate(weyl.enumerate_group()) if idx not in contributing]


# ---------------------------------------------------------------------------
# Empirical sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepEntry:
    altset: AlternationSet
    lam: WeightFW
    mu: WeightFW


# Pairs in one block; every sweep array but the sign tables and the one least
# flat index per sign pattern is sized by this, never by the box.  A lam block's
# sign table of coordinate i holds lam side x (max doubled alpha_i of the
# box + 1) uint16 entries, where the max is mu_alpha[i] . (1, 1, 1) * mu_max,
# at most 10 * mu_max.  Over every box that check_sweep_box accepts the
# widest table is 1.2 MiB and the three together 2.6 MiB, both at 7x123
# (512 lam triples, 1231 and 2709 values).
SWEEP_BLOCK_PAIRS = 1 << 18
# Most (lam, mu) pairs a box may be charged, a bound on the time.  Each block
# counts as a full SWEEP_BLOCK_PAIRS block, since a block of a flat box, with
# few triples on one side, costs about as much as a full one: 20x20 is charged
# about 9.5e7 and 30x30 about 9.1e8; 40x40 and 999x0 are refused.  A box
# holds at most its charge in pairs, so with this cap below 2^31 every flat
# pair index of an accepted box, and the one past them, is exact in int32.
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


def check_sweep_box(lam_max: int, mu_max: int) -> None:
    """ValueError for a negative bound or a box charged over SWEEP_MAX_PAIRS."""
    if lam_max < 0 or mu_max < 0:
        raise ValueError(f"sweep bounds must be nonnegative, got {lam_max} and {mu_max}")
    n_lam, n_mu, lam_step, mu_step = _block_steps(lam_max, mu_max)
    blocks = -(-n_lam // lam_step) * -(-n_mu // mu_step)
    if blocks * SWEEP_BLOCK_PAIRS > SWEEP_MAX_PAIRS:
        raise ValueError(f"a {lam_max}x{mu_max} sweep has {blocks} blocks, charged {blocks * SWEEP_BLOCK_PAIRS:.2e} pairs, "
                         f"over the bound of {SWEEP_MAX_PAIRS:.0e}")


def _sign_table(parts: np.ndarray, fields: list[int], top: int) -> np.ndarray:
    """Row v, column a: field_mask of the fields whose lam part at column a is at least v,
    for v in 0..top; parts[j] holds the lam parts of fields[j].

    Each field sets its bit on one row, its part clipped to top (a negative
    part lands on row top + 1, which is dropped), and every row then ORs in
    all the rows past it, in doubling steps.
    """
    table = np.zeros((top + 2, parts.shape[1]), np.uint16)
    bits = np.left_shift(1, np.array(fields, np.uint16))[:, None]
    np.bitwise_or.at(table, (np.clip(parts, -1, top), np.arange(parts.shape[1])), bits)
    table = table[:-1]
    step = 1
    while step <= top:
        table[:-step] |= table[step:]
        step *= 2
    return table


def sweep_census(lam_max: int, mu_max: int) -> list[SweepEntry]:
    """Alternation sets over all weight pairs with lam coefficients in
    0..lam_max, mu coefficients in 0..mu_max, and m + k + x + z even.

    Returns each distinct set once, with its lexicographically first
    witness (ordering (m, n, k, x, y, z)); entries are listed in order of
    first appearance.  check_sweep_box bounds the box.

    A doubled profile variable is its lam part minus one doubled alpha
    coordinate of mu, and every doubled alpha_i of the box lies in
    0..mu_alpha[i] . (1, 1, 1) * mu_max.  So each lam block of the box
    builds, once, one sign table per coordinate over its lam triples and
    that whole dense value axis.  For each parity class, each of its mu
    blocks reads its pairs' sign patterns as the OR of the three tables'
    rows at each mu's alpha coordinates.  One np.minimum.at pass then
    lowers directly, with each pair's flat index (lam index * n_mu + mu
    index, int32), the box's one array of the least flat index of a pair
    with each sign pattern.  The least index is the lexicographically
    first witness, so the result depends neither on the blocks nor on the
    order of the pairs inside one.  One pass then maps each pattern met to
    its term mask and keeps the least index of each mask.
    """
    check_sweep_box(lam_max, mu_max)
    table = sigma_table()
    rows = np.array(table.rows[:14], dtype=np.int64)  # (cm, cn, ck, c1, i) of each profile variable
    coords = tuple(np.flatnonzero(rows[:, 4] == i).tolist() for i in range(3))  # the variables reading each alpha_i
    mu_alpha = np.array(table.mu_alpha, dtype=np.int64)
    tops = mu_alpha.sum(axis=1) * mu_max
    n_mu = (mu_max + 1) ** 3
    unmet = (lam_max + 1) ** 3 * n_mu  # past every flat index of the box
    first = np.full(1 << 14, unmet, np.int32)
    for (l0, l1), blocks in groupby(_blocks(lam_max, mu_max), lambda block: block[:2]):
        lam = np.array(np.unravel_index(np.arange(l0, l1), (lam_max + 1,) * 3))  # columns (m, n, k)
        # m + k and x + z of one parity: every value is then even, so its sign alone decides.
        # The lam triples of each parity of m + k side by side, class p in columns cuts[p]:cuts[p + 1]
        lam_parity = (lam[0] + lam[2]) % 2
        by_parity = np.argsort(lam_parity)
        cuts = (0, np.count_nonzero(lam_parity == 0), len(by_parity))
        lam_index = ((l0 + by_parity) * n_mu).astype(np.int32)  # the lam half of each flat index
        lam_part = rows[:, :3] @ lam[:, by_parity] + rows[:, 3:4]
        t0, t1, t2 = (_sign_table(lam_part[fields], fields, top) for fields, top in zip(coords, tops))
        for _, _, u0, u1 in blocks:
            mu = np.array(np.unravel_index(np.arange(u0, u1), (mu_max + 1,) * 3))  # columns (x, y, z)
            alpha = mu_alpha @ mu  # rows: the three doubled alpha coordinates of each mu
            for parity in (0, 1):
                mi = np.flatnonzero((mu[0] + mu[2]) % 2 == parity)
                lams = slice(cuts[parity], cuts[parity + 1])
                a0, a1, a2 = alpha[:, mi]
                signs = t0[a0, lams]  # rows mu, columns lam
                signs |= t1[a1, lams]
                signs |= t2[a2, lams]
                flat = lam_index[lams] + (u0 + mi).astype(np.int32)[:, None]  # each pair's flat index
                # 1-D int32 arrays: np.minimum.at is several times slower on 2-D ones, and slower on int64
                np.minimum.at(first, signs.ravel(), flat.ravel())
    met = np.flatnonzero(first < unmet)
    best: dict[int, int] = {}  # term mask -> least flat index of a pair with that set, in order of first appearance
    for index, terms in sorted(zip(first[met].tolist(), covered_terms()[met].tolist())):
        best.setdefault(terms, index)
    witnesses = np.array(np.unravel_index(list(best.values()), (lam_max + 1,) * 3 + (mu_max + 1,) * 3)).T
    return [
        SweepEntry(AlternationSet.from_mask(terms), WeightFW(*w[:3]), WeightFW(*w[3:]))
        for terms, w in zip(best, witnesses.tolist())
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
        """Pass when got and want hold the same sets and as many entries; else say how they differ."""
        gs, ws = set(got), set(want)
        extra = [str(a) for a in sorted(gs - ws, key=lambda a: (len(a), sorted(a.indices)))]
        missing = [str(a) for a in sorted(ws - gs, key=lambda a: (len(a), sorted(a.indices)))]
        diff = f"extra={extra[:5]} missing={missing[:5]}" if gs != ws else f"got {len(got)} sets, want {len(want)}"
        passed = gs == ws and len(got) == len(want)
        self.add(name, passed, detail if passed else diff)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {"all_passed": self.all_passed, "checks": [asdict(c) for c in self.checks]}


def verify_census(
    fixtures_dir: str | None = None,
    lam_max: int = 10,
    mu_max: int = 10,
) -> CensusReport:
    """Cross-check every classification artifact.

    (i) the filter pipeline's stage families against the three fixtures,
    (ii) every fixture witness pair against a recomputed alternation set,
    (iii) the sweep family against the final fixture and the pipeline.
    Any mismatch is reported with the offending sets, never dropped.  The
    box (check_sweep_box) and all four fixture files are checked first,
    so a bad one raises before any pipeline or sweep work.
    """
    check_sweep_box(lam_max, mu_max)
    families = {stage: load_family_fixture(stage, fixtures_dir) for stage in ("stage1", "stage2", "final")}
    witnesses = load_witness_fixture(fixtures_dir)
    report = CensusReport()

    pipeline = [list(map(AlternationSet.from_mask, masks)) for masks in filter_pipeline().masks]
    for (stage, want), got in zip(families.items(), pipeline):
        report.add_family(f"pipeline-{stage}", got, want, f"{len(got)} sets")

    bad = []
    for want_set, lam, mu in witnesses:
        got = alternation_set(lam, mu)
        if got != want_set:
            bad.append(f"{lam.coeffs()},{mu.coeffs()}: got {got}, want {want_set}")
    report.add(
        "witness-rows",
        not bad,
        "; ".join(bad) if bad else f"{len(witnesses)} rows reproduced",
    )

    sweep_family = [e.altset for e in sweep_census(lam_max, mu_max)]
    report.add_family("sweep-family", sweep_family, families["final"],
                      f"{len(sweep_family)} sets from sweep({lam_max},{mu_max})")
    report.add_family("pipeline-vs-sweep", sweep_family, pipeline[-1], "families agree")

    return report
