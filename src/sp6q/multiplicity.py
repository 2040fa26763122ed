"""Weyl alternation sets and the weight q-multiplicity for sp6(C).

The q-multiplicity of mu in the irreducible representation of highest
weight lam is the alternating sum over the Weyl group

    m_q(lam, mu) = sum_sigma (-1)^len(sigma) * kpf_q(sigma(lam+rho) - rho - mu),

and the Weyl alternation set A(lam, mu) collects the sigma whose term is
nonzero.  For dominant integral weights only 17 of the 48 group elements
can ever contribute; their coefficient vectors are affine expressions in
the six weight coordinates (m, n, k) and (x, y, z), captured here by the
fourteen substitution variables a..i, j, l, o, p, r of CoefficientProfile.
Every such expression, for all 48 elements, is a row of one table,
sigma_table, derived once from the Weyl action.

Two independent evaluation routes are implemented:

  - mult_q_direct: the alternating sum itself;
  - mult_q_cases: a closed dispatch over 45 sign-pattern cases (plus a
    final zero case), each mapping to a fixed signed combination of the
    seventeen term polynomials A_q..Q_q.

A third route, mult_freudenthal, computes the plain multiplicity by the
Freudenthal recursion over the weight system and shares no code with the
partition-function path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from . import weyl
from .partition import kpf_q
from .qpoly import QPoly, add_signed, eval_at_one
from .root_system import AlphaVector, WeightFW, fw_to_alpha, rho_alpha

PROFILE_FIELDS = ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "l", "o", "p", "r")


class Term(NamedTuple):
    """One potentially contributing term of the alternating sum."""

    letter: str
    word: tuple[int, ...]
    fields: tuple[str, str, str]


# The 17 contributing group elements with the profile-variable triple of
# their coefficient vectors, in canonical group-listing order.
TERMS: tuple[Term, ...] = (
    Term("A", (), ("a", "d", "j")),
    Term("B", (1,), ("b", "d", "j")),
    Term("C", (2,), ("a", "e", "j")),
    Term("D", (3,), ("a", "d", "l")),
    Term("E", (1, 2), ("c", "e", "j")),
    Term("F", (2, 1), ("b", "f", "j")),
    Term("G", (2, 3), ("a", "g", "l")),
    Term("H", (3, 1), ("b", "d", "l")),
    Term("I", (3, 2), ("a", "e", "o")),
    Term("J", (1, 2, 1), ("c", "f", "j")),
    Term("K", (2, 3, 1), ("b", "h", "l")),
    Term("L", (2, 3, 2), ("a", "i", "o")),
    Term("M", (3, 2, 1), ("b", "f", "p")),
    Term("N", (3, 1, 2), ("c", "e", "o")),
    Term("O", (3, 2, 3), ("a", "g", "r")),
    Term("P", (3, 1, 2, 1), ("c", "f", "p")),
    Term("Q", (3, 2, 3, 2), ("a", "i", "r")),
)

TERM_BY_LETTER = {t.letter: t for t in TERMS}
TERM_SIGNS = {t.letter: (-1) ** len(t.word) for t in TERMS}


def _as_weight(w) -> WeightFW:
    return w if isinstance(w, WeightFW) else WeightFW(*w)


def root_lattice_parity(lam, mu) -> bool:
    """True iff sigma(lam) - mu lies in the root lattice for every sigma,
    which happens exactly when m + k + x + z is even."""
    lam, mu = _as_weight(lam), _as_weight(mu)
    return (lam.m + lam.k + mu.m + mu.k) % 2 == 0


def sigma_coeffs(s: weyl.WeylElement, lam, mu) -> AlphaVector:
    """Alpha coordinates of sigma(lam + rho) - rho - mu."""
    lam, mu = _as_weight(lam), _as_weight(mu)
    rho = rho_alpha()
    moved = weyl.apply(s, fw_to_alpha(lam) + rho)
    return moved - rho - fw_to_alpha(mu)


class SigmaTable(NamedTuple):
    """sigma(lam+rho) - rho - mu for all 48 elements, as doubled integers.

    Each row holds the coefficients of (m, n, k, x, y, z, 1) in one alpha
    coordinate, doubled so that every entry is an integer.  Elements share
    rows: 48 elements x 3 coordinates use 26 distinct rows, and the 17
    contributing elements use 14 of them, one per profile variable.
    """

    rows: tuple[tuple[int, ...], ...]
    # (canonical index, sign, row ids of the three alpha coordinates)
    elements: tuple[tuple[int, int, tuple[int, int, int]], ...]
    # row id of each profile variable, in PROFILE_FIELDS order
    profile: tuple[int, ...]


@lru_cache(maxsize=1)
def sigma_table() -> SigmaTable:
    """Derive the affine table once from the Weyl action."""
    fundamental = [fw_to_alpha(WeightFW(*unit)) for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    rho = rho_alpha()
    minus_mu = [-w for w in fundamental]
    row_ids: dict[tuple[int, ...], int] = {}
    elements = []
    for idx, el in enumerate(weyl.enumerate_group()):
        columns = [weyl.apply(el, w) for w in fundamental] + minus_mu + [weyl.apply(el, rho) - rho]
        ids = tuple(
            row_ids.setdefault(tuple(int(2 * col.coeffs()[i]) for col in columns), len(row_ids))
            for i in range(3)
        )
        elements.append((idx, weyl.sign(el), ids))
    profile: dict[str, int] = {}
    for term in TERMS:
        _idx, _sign, ids = elements[weyl.canonical_index(weyl.evaluate_word(term.word))]
        for field, row in zip(term.fields, ids):
            if profile.setdefault(field, row) != row:
                raise RuntimeError(f"profile variable {field} names two rows of the affine table")
    return SigmaTable(tuple(row_ids), tuple(elements), tuple(profile[f] for f in PROFILE_FIELDS))


@lru_cache(maxsize=1)
def symbolic_sigma_rows():
    """(element, 3x7 affine rows) for all 48 elements, canonical order.

    Each row holds the coefficients of (m, n, k, x, y, z, 1) in one alpha
    coordinate of sigma(lam+rho) - rho - mu, as exact rationals: the
    rows of sigma_table, halved.
    """
    table = sigma_table()
    group = weyl.enumerate_group()
    return tuple(
        (group[idx], tuple(tuple(Fraction(c, 2) for c in table.rows[r]) for r in ids))
        for idx, _sign, ids in table.elements
    )


def _doubled_rows(lam, mu, rows) -> list[int]:
    """Each doubled affine row evaluated at the weight pair."""
    lam, mu = _as_weight(lam), _as_weight(mu)
    m, n, k = lam.coeffs()
    x, y, z = mu.coeffs()
    return [
        cm * m + cn * n + ck * k + cx * x + cy * y + cz * z + c1
        for cm, cn, ck, cx, cy, cz, c1 in rows
    ]


@dataclass(frozen=True)
class CoefficientProfile:
    """The fourteen substitution variables evaluated at a weight pair.

    a..i are integers for any integer inputs; j, l, o, p, r are
    half-integers, integral exactly when m + k + x + z is even.
    """

    a: int
    b: int
    c: int
    d: int
    e: int
    f: int
    g: int
    h: int
    i: int
    j: Fraction
    l: Fraction
    o: Fraction
    p: Fraction
    r: Fraction

    def __post_init__(self):
        # Redundancy identities among the defining expressions: a-b and e-f
        # both equal m+1, d-e and b-c both equal n+1.  They hold for every
        # weight pair and catch construction mistakes.
        if self.a - self.b != self.e - self.f or self.d - self.e != self.b - self.c:
            raise ValueError("profile redundancy identities violated")

    def value(self, field: str):
        return getattr(self, field)

    def values(self) -> dict:
        return {f: getattr(self, f) for f in PROFILE_FIELDS}

    def triple(self, term: Term) -> tuple:
        return tuple(getattr(self, f) for f in term.fields)


def coefficient_profile(lam, mu) -> CoefficientProfile:
    """Evaluate the fourteen variables exactly: the profile rows of sigma_table."""
    table = sigma_table()
    doubled = _doubled_rows(lam, mu, [table.rows[r] for r in table.profile])
    return CoefficientProfile(**{
        field: d // 2 if field in "abcdefghi" else Fraction(d, 2)
        for field, d in zip(PROFILE_FIELDS, doubled)
    })


@dataclass(frozen=True)
class AlternationSet:
    """A subset of the Weyl group, stored as canonical listing indices."""

    indices: frozenset[int]

    @classmethod
    def from_letters(cls, letters: Iterable[str]) -> "AlternationSet":
        return cls(frozenset(weyl.canonical_index(weyl.evaluate_word(TERM_BY_LETTER[L].word)) for L in letters))

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "AlternationSet":
        return cls(frozenset(weyl.canonical_index(weyl.element_from_name(n)) for n in names))

    def elements(self) -> list[weyl.WeylElement]:
        group = weyl.enumerate_group()
        return [group[i] for i in sorted(self.indices)]

    def names(self) -> list[str]:
        return [weyl.name(e) for e in self.elements()]

    def sort_key(self) -> tuple:
        return (len(self.indices), tuple(sorted(self.indices)))

    def __contains__(self, el: weyl.WeylElement) -> bool:
        return weyl.canonical_index(el) in self.indices

    def __len__(self) -> int:
        return len(self.indices)

    def __str__(self) -> str:
        return "{" + ", ".join(self.names()) + "}"

    def to_json(self) -> list[str]:
        return self.names()


def _nonzero_terms(lam, mu) -> list[tuple[int, int, tuple[int, int, int]]]:
    """(canonical index, sign, alpha triple) of every sigma whose term is nonzero.

    A term is nonzero exactly when its coefficient vector is integral and
    coordinate-wise nonnegative, i.e. all three doubled coordinates are
    even and nonnegative.  All 48 elements are scanned for every pair.
    """
    table = sigma_table()
    half = [d // 2 if d >= 0 and d % 2 == 0 else None for d in _doubled_rows(lam, mu, table.rows)]
    out = []
    for idx, sign, (r1, r2, r3) in table.elements:
        v1, v2, v3 = half[r1], half[r2], half[r3]
        if v1 is not None and v2 is not None and v3 is not None:
            out.append((idx, sign, (v1, v2, v3)))
    return out


def alternation_set(lam, mu) -> AlternationSet:
    """All sigma with kpf_q(sigma(lam+rho) - rho - mu) nonzero.

    Membership needs the coefficient vector to be integral and
    coordinate-wise nonnegative.  All 48 elements are scanned for every
    pair; for dominant pairs only the 17 elements of TERMS ever qualify
    (the test suite checks this).
    """
    return AlternationSet(frozenset(idx for idx, _sign, _v in _nonzero_terms(lam, mu)))


def mult_q_direct(lam, mu) -> QPoly:
    """The alternating sum over the alternation set."""
    out = QPoly()
    for _idx, sign, v in _nonzero_terms(lam, mu):
        out = add_signed(out, sign, kpf_q(*v))
    return out


# Sign-pattern dispatch table.  Each entry is one case: a tuple of
# alternative (nonnegative-variables, negative-variables) patterns over
# the fourteen profile fields -- variables in neither string are
# unconstrained -- together with the letters of the contributing terms.
# Cases are tried in order and the first match wins; no match means the
# multiplicity is zero.  Term signs are (-1)^length of the associated
# group element.
CASES: tuple[tuple[tuple[tuple[str, str], ...], str], ...] = (
    ((("abcdefghijlor", "p"),), "ABCDEFGHIJKLNOQ"),
    ((("abcdefghijlop", "r"),), "ABCDEFGHIJKLMNP"),
    ((("abcdefgijlor", "hp"),), "ABCDEFGHIJLNOQ"),
    ((("abcdefgijlop", "hr"),), "ABCDEFGHIJLMNP"),
    ((("abcdefghjlop", "ir"),), "ABCDEFGHIJKMNP"),
    ((("abcdefgjlop", "hir"),), "ABCDEFGHIJMNP"),
    ((("abcdefghijlo", "pr"),), "ABCDEFGHIJKLN"),
    ((("abcdefgijlo", "hpr"),), "ABCDEFGHIJLN"),
    ((("abcdefjlop", "ghir"),), "ABCDEFHIJMNP"),
    ((("abcdefghjlo", "ipr"),), "ABCDEFGHIJKN"),
    ((("abdefghijlor", "cp"),), "ABCDFGHIKLOQ"),
    ((("abcdefgjlo", "hipr"),), "ABCDEFGHIJN"),
    ((("abdefgijlor", "chp"),), "ABCDFGHILOQ"),
    ((("abcdefghjl", "iopr"),), "ABCDEFGHJK"),
    ((("abcdefjlo", "ghipr"),), "ABCDEFHIJN"),
    ((("abdegijlor", "cfhp"),), "ABCDGHILOQ"),
    ((("abdefghijlo", "cpr"),), "ABCDFGHIKL"),
    ((("abcdefgjl", "hiopr"),), "ABCDEFGHJ"),
    ((("abdefgijlo", "chpr"),), "ABCDFGHIL"),
    ((("abdefghjlo", "cipr"),), "ABCDFGHIK"),
    ((("abcdefjl", "ghiopr"),), "ABCDEFHJ"),
    ((("abdefghjl", "copr"),), "ABCDFGHK"),
    ((("abdefgjlo", "chipr"),), "ABCDFGHI"),
    ((("abdegijlo", "cfhpr"),), "ABCDGHIL"),
    ((("adegijlor", "bchp"),), "ACDGILOQ"),
    ((("abdefgjl", "chopr"),), "ABCDFGH"),
    ((("abdefjlo", "cghipr"),), "ABCDFHI"),
    ((("abdegjlo", "cfhipr"),), "ABCDGHI"),
    ((("abcdefj", "ghilopr"),), "ABCEFJ"),
    ((("abdefjl", "cghiopr"),), "ABCDFH"),
    ((("abdegjl", "cfhopr"),), "ABCDGH"),
    ((("adegijlo", "bchpr"),), "ACDGIL"),
    ((("abdejlo", "cfghipr"),), "ABCDHI"),
    ((("abdejl", "cfghiopr"),), "ABCDH"),
    ((("adegjlo", "bchipr"),), "ACDGI"),
    ((("abdefj", "cghilopr"),), "ABCF"),
    ((("abdjl", "cefghiopr"),), "ABDH"),
    ((("adegjl", "bchiopr"),), "ACDG"),
    ((("adejlo", "bcghipr"),), "ACDI"),
    ((("abdej", "cfghilopr"),), "ABC"),
    ((("adejl", "bcghiopr"),), "ACD"),
    ((("abdj", "cefghilopr"),), "AB"),
    ((("adegj", "bcfhilopr"), ("adegij", "bcfhlopr"), ("adefj", "bcghilopr"), ("adej", "bcfghilopr")), "AC"),
    ((("adjl", "bcefghiopr"),), "AD"),
    ((("adj", "bcefghilopr"),), "A"),
)

OTHERWISE_CASE = len(CASES) + 1  # dispatch number reported when nothing matches


def matching_cases(profile: CoefficientProfile) -> list[int]:
    """1-based numbers of every case whose sign pattern the profile satisfies."""
    vals = profile.values()
    out = []
    for number, (patterns, _terms) in enumerate(CASES, start=1):
        for pos, neg in patterns:
            if all(vals[v] >= 0 for v in pos) and all(vals[v] < 0 for v in neg):
                out.append(number)
                break
    return out


def match_case(profile: CoefficientProfile) -> tuple[int, str]:
    """First matching case number and its term letters ('' for the zero case)."""
    matches = matching_cases(profile)
    if not matches:
        return (OTHERWISE_CASE, "")
    first = matches[0]
    return (first, CASES[first - 1][1])


def mult_q_cases(lam, mu) -> QPoly:
    """q-multiplicity via the closed sign-pattern dispatch.

    The case table is a theorem about dominant weight pairs; the function
    is total, but outside the dominant chamber only mult_q_direct carries
    the defining alternating sum (the two agree on every dominant pair,
    which the acceptance suite checks exhaustively).
    """
    if not root_lattice_parity(lam, mu):
        return QPoly()
    profile = coefficient_profile(lam, mu)
    _number, letters = match_case(profile)
    out = QPoly()
    for letter in letters:
        term = TERM_BY_LETTER[letter]
        triple = tuple(int(v) for v in profile.triple(term))
        out = add_signed(out, TERM_SIGNS[letter], kpf_q(*triple))
    return out


def mult(lam, mu) -> int:
    """The plain weight multiplicity: m_q evaluated at q = 1."""
    return eval_at_one(mult_q_direct(lam, mu))


# ---------------------------------------------------------------------------
# Independent oracle: Freudenthal's recursion over the weight system.
# Works entirely in ambient integer coordinates with the standard invariant
# form (the dot product), sharing only the root list with the code above.
# ---------------------------------------------------------------------------

def _fw_to_eps(w: WeightFW) -> tuple[int, int, int]:
    m, n, k = w.coeffs()
    return (m + n + k, n + k, k)


def _dot(u, v) -> int:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _dominant_conjugate(v) -> tuple[int, int, int]:
    # The hyperoctahedral orbit of v meets the dominant chamber
    # (v1 >= v2 >= v3 >= 0) in the sorted absolute values.
    return tuple(sorted((abs(v[0]), abs(v[1]), abs(v[2])), reverse=True))


_POSITIVE_EPS = (
    (1, -1, 0), (0, 1, -1), (0, 0, 2),
    (1, 0, -1), (0, 1, 1), (1, 0, 1),
    (1, 1, 0), (2, 0, 0), (0, 2, 0),
)
_RHO_EPS = (3, 2, 1)


def _dominant_weights_of(lam_eps):
    """Dominant weights nu <= lam (difference a nonnegative root sum)."""
    L1, L2, L3 = lam_eps
    out = []
    for v1 in range(L1 + 1):
        for v2 in range(v1 + 1):
            for v3 in range(v2 + 1):
                c1 = L1 - v1
                c2 = c1 + (L2 - v2)
                twice_c3 = c2 + (L3 - v3)
                if c2 < 0 or twice_c3 < 0 or twice_c3 % 2:
                    continue
                out.append(((v1, v2, v3), c1 + c2 + twice_c3 // 2))
    return out


def mult_freudenthal(lam, mu) -> int:
    """Multiplicity of mu in the irreducible of highest weight lam, by the
    Freudenthal recursion.  Requires lam dominant; mu may be any integral
    weight (its dominant conjugate is looked up)."""
    lam, mu = _as_weight(lam), _as_weight(mu)
    if not lam.is_dominant():
        raise ValueError(f"highest weight must be dominant, got {lam}")
    lam_eps = _fw_to_eps(lam)
    mu_eps = _dominant_conjugate(_fw_to_eps(mu))

    weights = _dominant_weights_of(lam_eps)
    if not any(w == mu_eps for w, _h in weights):
        return 0
    weights.sort(key=lambda wh: wh[1])  # ascending height of lam - nu

    lam_rho = tuple(a + b for a, b in zip(lam_eps, _RHO_EPS))
    norm_lam = _dot(lam_rho, lam_rho)
    mults: dict[tuple[int, int, int], int] = {}
    for nu, height in weights:
        if height == 0:
            mults[nu] = 1
            continue
        acc = 0
        for root in _POSITIVE_EPS:
            t = 1
            while True:
                up = (nu[0] + t * root[0], nu[1] + t * root[1], nu[2] + t * root[2])
                m_up = mults.get(_dominant_conjugate(up))
                if m_up is None:
                    break  # weight strings are unbroken, so the chain has ended
                acc += m_up * _dot(up, root)
                t += 1
        nu_rho = tuple(a + b for a, b in zip(nu, _RHO_EPS))
        denom = norm_lam - _dot(nu_rho, nu_rho)
        if 2 * acc % denom:
            raise ArithmeticError("Freudenthal numerator not divisible by denominator")
        mults[nu] = 2 * acc // denom
    return mults[mu_eps]
