"""Weyl alternation sets and the weight q-multiplicity for sp6(C).

The q-multiplicity of mu in the irreducible representation of highest
weight lam is the alternating sum over the Weyl group

    m_q(lam, mu) = sum_sigma (-1)^len(sigma) * kpf_q(sigma(lam+rho) - rho - mu),

and the Weyl alternation set A(lam, mu) collects the sigma whose term is
nonzero.  For dominant integral weights only 17 of the 48 group elements
can ever contribute; their coefficient vectors are affine expressions in
the six weight coordinates (m, n, k) and (x, y, z), captured here by the
fourteen substitution variables a..i, j, l, o, p, r of CoefficientProfile,
held doubled so that every value is an integer.
Every such expression, for all 48 elements, is a row of one table,
sigma_table, derived once from the Weyl action.  sigma moves lam + rho
and not mu, so each row is a lam part minus one doubled alpha coordinate
of mu; sigma_table checks this and stores every row in that one form,
the profile variables' rows first.  _lam_parts evaluates the lam parts of
all 26 rows once per lam and caches them, with each alpha coordinate's
parts sorted: a row's sign is one bisect per alpha coordinate.  So a
weight pair costs mu's three doubled alpha coordinates and three bisects
for one row mask (_row_mask): bit r is set when row r is >= 0, so the
sign pattern is the low 14 bits, and bit 26 + idx when all three rows of
element idx are.  The alternation set is those element bits, held as one
int (AlternationSet.mask, bit idx for canonical index idx).  Both q-routes
read the same row mask and evaluate the elements an element mask names in
one walk (_terms): a coefficient is computed, by one subtraction, only
where a kpf_q argument needs it.

One gate settles parity for the whole pair (root_lattice_parity): when
m + k + x + z is odd, lam - mu lies outside the root lattice and every
term is zero, for any lam.  When it is even, lam - mu, the identity's
vector, is integral, and sigma_table proves that every element's doubled
coordinate differs from the identity's by an even amount; so past the
gate only signs are read: the nonzero terms are exactly the elements
whose bits are set in the row mask, and each of the 17 terms is nonzero
exactly when its three variables are nonnegative.

sigma_table also proves two bounds, which the row mask applies with no
code of its own.  For lam >= 0 and any mu, no element's coordinate
exceeds the identity's, so where a coordinate of lam - mu is negative no
element is admitted.  And the 12 rows past the 14 profile rows are
negative at every dominant pair, and every element outside the 17 terms
reads one of them, so a dominant pair admits only TERMS elements, whose
rows are the profile rows: the case dispatch and the census rest on this.

A weight is a triple of Python ints: alternation_set, mult_q_direct,
mult_q_cases, coefficient_profile and the Freudenthal route raise
TypeError for a bool, float or numpy coordinate, whatever its value,
before any arithmetic, as kpf_q does.

Two evaluation routes are implemented:

  - mult_q_direct: the alternating sum itself;
  - mult_q_cases: a closed dispatch over 45 sign-pattern cases (plus a
    final zero case), each mapping to a fixed signed combination of the
    seventeen term polynomials A_q..Q_q.  case_table holds the one case
    each sign pattern matches, if any, so the dispatch is one lookup of
    the row mask's low 14 bits, and a case is the element mask of its terms.

They are not independent: both share the parity gate, _lam_parts,
_row_mask, _terms, kpf_q and qpoly.signed_sum, and differ only in the
element mask they walk, so comparing them checks the case lookup alone.
The independent checks are the Freudenthal route below, kpf_q_oracle
against kpf_q, and census verification of the alternation sets.

A third route computes the plain multiplicity by the Freudenthal
recursion over the weight system and shares no code with the
partition-function path.  One pass per highest weight yields the dominant
multiplicities in ascending height of lam - mu, on plain integers.  Each
weight keeps nine chain sums, one per positive root, and gets each from a
single step up the root and the sums of that step's dominant conjugate,
which lies higher and is already final.  Where a step lands and which
root it turns into depend only on the weight's wall class, its distances
to the walls of the dominant chamber capped at 2, so each step is read
from a table of the 27 classes built at first use.
dominant_multiplicities runs the whole pass; mult_freudenthal walks only
the dominant weights between mu's dominant conjugate and lam, which hold
every weight the recursion reads.

A sign pattern over the profile variables has one form, field_mask: the
case dispatch here (the row mask's low bits), CoefficientProfile.signs()
and the contradiction catalog, filter and sweep of census all use it.
Everything here is plain integer arithmetic, with no array library,
except symbolic_sigma_rows, which halves the rows of sigma_table into
exact fractions.Fraction.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, product
from operator import or_
from typing import Iterable, Iterator, NamedTuple

from . import weyl
from .partition import kpf_q
from .qpoly import QPoly, eval_at_one, signed_sum
from .root_system import FUNDAMENTAL_EPS, RHO_EPS, AlphaVector, doubled_alpha

PROFILE_FIELDS = ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "l", "o", "p", "r")
_BITS = tuple(1 << i for i in range(len(PROFILE_FIELDS)))  # bit i marks PROFILE_FIELDS[i]


def field_mask(fields: Iterable[str]) -> int:
    """Sign pattern as a 14-bit mask: bit i set for each named PROFILE_FIELDS[i]."""
    return sum(1 << PROFILE_FIELDS.index(f) for f in set(fields))


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

LETTER_INDEX = {t.letter: i for i, t in enumerate(TERMS)}  # position in TERMS; bit i of a term mask


def _check_weights(lam, mu=(0, 0, 0)) -> None:
    """Raise TypeError unless all six coordinates are Python ints; bool is not."""
    (m, n, k), (x, y, z) = lam, mu
    if not type(m) is type(n) is type(k) is type(x) is type(y) is type(z) is int:
        bad = next(v for v in (m, n, k, x, y, z) if type(v) is not int)
        raise TypeError(f"weight coordinates must be integers, got {bad!r}")


def root_lattice_parity(lam, mu) -> bool:
    """True iff sigma(lam) - mu lies in the root lattice for every sigma,
    which happens exactly when m + k + x + z is even: the one parity gate
    of the q-routes.  Raises TypeError unless every coordinate is an int."""
    _check_weights(lam, mu)
    (m, _n, k), (x, _y, z) = lam, mu
    return (m + k + x + z) % 2 == 0


def _weight_eps(w) -> tuple[int, int, int]:
    """Ambient coordinates of a weight, from FUNDAMENTAL_EPS."""
    m, n, k = w
    return tuple(m * a + n * b + k * c for a, b, c in zip(*FUNDAMENTAL_EPS))


def sigma_coeffs(s: weyl.WeylElement, lam, mu) -> AlphaVector:
    """Alpha coordinates of sigma(lam + rho) - rho - mu, computed in ambient
    integers and converted once; independent of sigma_table."""
    moved = weyl.apply(s, tuple(a + r for a, r in zip(_weight_eps(lam), RHO_EPS)))
    return AlphaVector(*doubled_alpha(tuple(a - r - b for a, r, b in zip(moved, RHO_EPS, _weight_eps(mu)))))


class SigmaTable(NamedTuple):
    """sigma(lam+rho) - rho - mu for all 48 elements, as doubled integers.

    sigma acts on lam + rho only, so alpha coordinate i of the map is a
    lam part minus the doubled i-th alpha coordinate of mu, the same mu
    part for every element.  Each row is stored once in that form,
    (cm, cn, ck, c1, i): its value at a pair is cm*m + cn*n + ck*k + c1
    minus mu_alpha[i] . (x, y, z).  The lam part is evaluated and indexed
    once per lam (_lam_parts), so a pair costs three dot products for
    alpha(mu) (_mu_parts) and three bisects for its row mask (_row_mask):
    bit r for row r >= 0, and bit 26 + idx for element idx, whose term is
    nonzero at an even pair exactly when its three rows are >= 0.  readers
    holds, per coordinate, the bits a negative row clears.  Elements
    share rows: 48 elements x 3 coordinates use 26 distinct rows, and the
    17 contributing elements use 14 of them, one per profile variable.
    rows[f] is the row of PROFILE_FIELDS[f] for f < 14; the other 12
    follow, each negative at every dominant pair.  sigma_table checks that
    the 12 rows are negative at every dominant pair; that the identity's
    rows are odd exactly in m, k, x and z of the third; and that in each
    coordinate every row differs from the identity's by even coefficients
    and, at lam >= 0, is at most the identity's: parity is then the pair's
    alone (root_lattice_parity), and signs alone decide the rest.
    """

    rows: tuple[tuple[int, int, int, int, int], ...]
    # (canonical index, sign, row ids of the three alpha coordinates); the
    # index equals the position, so bit 26 + idx of a row mask is elements[idx]
    elements: tuple[tuple[int, int, tuple[int, int, int]], ...]
    # the entries of elements for the TERMS, in TERMS order (canonical order):
    # the only elements a dominant pair can admit, and the only ones whose
    # rows are all profile rows
    terms: tuple[tuple[int, int, tuple[int, int, int]], ...]
    # doubled alpha coordinates of mu: row i holds the coefficients of (x, y, z)
    mu_alpha: tuple[tuple[int, int, int], ...]
    # per alpha coordinate i, (r, bits) for each row r of coordinate i, in row
    # order: bits is the row bit 1 << r and the bit 26 + idx of every element
    # idx whose coordinate-i row is r
    readers: tuple[tuple[tuple[int, int], ...], ...]


def _affine_rows():
    """The distinct doubled rows, over (m, n, k, x, y, z, 1), of sigma(lam+rho) - rho - mu
    and each element's (canonical index, sign, row ids), from the Weyl action on the
    fundamental weights."""
    minus_mu = [tuple(-c for c in doubled_alpha(w)) for w in FUNDAMENTAL_EPS]
    row_ids: dict[tuple[int, ...], int] = {}
    elements = []
    for idx, el in enumerate(weyl.enumerate_group()):
        moved_rho = tuple(a - r for a, r in zip(weyl.apply(el, RHO_EPS), RHO_EPS))
        columns = [doubled_alpha(weyl.apply(el, w)) for w in FUNDAMENTAL_EPS] + minus_mu + [doubled_alpha(moved_rho)]
        ids = tuple(row_ids.setdefault(row, len(row_ids)) for row in zip(*columns))
        elements.append((idx, weyl.sign(el), ids))
    return tuple(row_ids), tuple(elements)


@lru_cache(maxsize=1)
def sigma_table() -> SigmaTable:
    """Derive the affine table once from the Weyl action."""
    affine, elements = _affine_rows()
    # doubled alpha_i(mu) = mu_alpha[i] . (x, y, z); every row of coordinate i
    # must carry minus it as its mu part
    mu_alpha = tuple(zip(*map(doubled_alpha, FUNDAMENTAL_EPS)))
    if min(c for row in mu_alpha for c in row) < 0:
        raise RuntimeError(f"doubled alpha(mu) = {mu_alpha} . (x, y, z) has a negative coefficient")
    coordinate: dict[int, int] = {}
    for _idx, _sign, ids in elements:
        for i, row in enumerate(ids):
            if affine[row][3:6] != tuple(-c for c in mu_alpha[i]):
                raise RuntimeError(f"affine row {affine[row]} has a mu part other than minus doubled alpha_{i + 1}(mu)")
            coordinate[row] = i
    terms = tuple(weyl.canonical_index(weyl.evaluate_word(t.word)) for t in TERMS)
    profile: dict[str, int] = {}
    for term, idx in zip(TERMS, terms):
        _idx, _sign, ids = elements[idx]
        for field, row in zip(term.fields, ids):
            if profile.setdefault(field, row) != row:
                raise RuntimeError(f"profile variable {field} names two rows of the affine table")
    # Redundancy identities that hold for every weight pair: a-b and e-f
    # both equal m+1, d-e and b-c both equal n+1 (rows are doubled).
    diffs = [tuple(x - y for x, y in zip(affine[profile[u]], affine[profile[v]])) for u, v in ("ab", "ef", "de", "bc")]
    if diffs != [(2, 0, 0, 0, 0, 0, 2)] * 2 + [(0, 2, 0, 0, 0, 0, 2)] * 2:
        raise RuntimeError("profile rows violate a-b = e-f = m+1 or d-e = b-c = n+1")
    # renumber: the profile rows first, in PROFILE_FIELDS order, then the rest in order of first use
    order = [profile[f] for f in PROFILE_FIELDS]
    order += [row for row in range(len(affine)) if row not in order]
    new_id = {row: r for r, row in enumerate(order)}
    rows = tuple((*affine[row][:3], affine[row][6], coordinate[row]) for row in order)
    renumbered = [tuple(map(new_id.__getitem__, ids)) for _idx, _sign, ids in elements]
    elements = tuple((idx, sign, ids) for (idx, sign, _old), ids in zip(elements, renumbered))
    # The type-1 rule.  A row whose lam part has every coefficient <= 0 and a
    # negative constant is negative at every dominant pair: its mu part,
    # minus mu_alpha[i] . (x, y, z), is never positive for dominant mu, since
    # every entry of mu_alpha is >= 0 (checked above).  Exactly the rows past
    # the profile rows are of this type, and exactly the TERMS elements read
    # profile rows alone, so every other element has a coordinate negative
    # at every dominant pair, and a dominant pair needs only rows[:14] and
    # the TERMS elements.
    type1 = [max(cm, cn, ck) <= 0 and c1 < 0 for cm, cn, ck, c1, _i in rows]
    if type1 != [r >= 14 for r in range(len(rows))]:
        raise RuntimeError("the type-1 rows (lam part <= 0, constant < 0) are not exactly the rows past the profile rows")
    dominant = tuple(el for el in elements if max(el[2]) < 14)
    if tuple(idx for idx, _sign, _ids in dominant) != terms:
        raise RuntimeError("the elements that read profile rows alone are not the TERMS, in order")
    # The dominance bound.  For dominant lam, lam + rho - sigma(lam + rho) is a
    # sum of positive roots with nonnegative integer coefficients, so in each
    # coordinate an element's row minus the identity's (the first of the
    # TERMS) has every lam coefficient and the constant <= 0 and even, and
    # the same mu part.  At lam >= 0 and any mu, every element's coordinate
    # is then at most the identity's, with its parity: where a coordinate of
    # lam - mu, the identity's, is negative or odd, no term is nonzero.
    # The parity gate.  The identity's rows are lam - mu, doubled: its first
    # two have even coefficients and an even constant, and its third is odd
    # exactly in m, k, x and z, so lam - mu is integral exactly when
    # m + k + x + z is even (root_lattice_parity); the bound below carries
    # that parity to every element.
    parity = [tuple(c & 1 for c in (*rows[r][:3], *mu_alpha[i], rows[r][3])) for i, r in enumerate(dominant[0][2])]
    if parity != [(0,) * 7, (0,) * 7, (1, 0, 1, 1, 0, 1, 0)]:
        raise RuntimeError(f"the identity's rows have parities {parity} over (m, n, k, x, y, z, 1), "
                           "not odd exactly in m, k, x and z of the third")
    identity = [rows[r][:4] for r in dominant[0][2]]
    for _idx, _sign, ids in elements:
        for top, r in zip(identity, ids):
            if any(c > t or (c - t) & 1 for c, t in zip(rows[r][:4], top)):
                raise RuntimeError(f"row {rows[r]} lies above the identity's {top} or differs from it by an odd amount")
    bits = [1 << r | sum(1 << (26 + idx) for idx, _sign, ids in elements if r in ids) for r in range(len(rows))]
    readers = tuple(tuple((r, bits[r]) for r in range(len(rows)) if rows[r][4] == i) for i in range(3))
    return SigmaTable(rows, elements, dominant, mu_alpha, readers)


@lru_cache(maxsize=1)
def symbolic_sigma_rows():
    """(element, 3x7 affine rows) for all 48 elements, canonical order.

    Each row holds the coefficients of (m, n, k, x, y, z, 1) in one alpha
    coordinate of sigma(lam+rho) - rho - mu, as exact rationals: the
    rows of sigma_table, halved, with their mu part written out.
    """
    table = sigma_table()
    group = weyl.enumerate_group()
    affine = [
        tuple(Fraction(c, 2) for c in (cm, cn, ck, *(-c for c in table.mu_alpha[i]), c1))
        for cm, cn, ck, c1, i in table.rows
    ]
    return tuple((group[idx], tuple(affine[r] for r in ids)) for idx, _sign, ids in table.elements)


# maxsize 1024: an entry is 2.7 to 3.0 KB (the key, 26 lam parts, three
# sorted part tuples and three prefix-mask tuples of 74-bit ints) while
# every coordinate is below 2**30 in magnitude, so a full cache holds
# about 3 MB.
@lru_cache(maxsize=1 << 10)
def _lam_parts(m, n, k) -> tuple[tuple[int, ...], ...]:
    """(parts, v0, n0, v1, n1, v2, n2): the half of sigma(lam+rho) - rho - mu
    that sigma moves, and per alpha coordinate i the index that signs its
    rows and the elements that read them.

    parts[r] is the lam part cm*m + cn*n + ck*k + c1 of the row (cm, cn, ck,
    c1, i) of sigma_table, which has the value parts[r] - _mu_parts(mu)[i].
    vi holds the lam parts of coordinate i's rows in ascending order (ties
    by row id), and ni[j] the OR of sigma_table's readers bits over the rows
    at vi[:j]: each row's bit and the bit of every element that reads it in
    coordinate i.  So ni[bisect_left(vi, a)] marks coordinate i's rows that
    are negative where mu's coordinate is a, and every element that reads
    one of them.  Each row belongs to one coordinate, and an element is out
    if any one of its rows is negative, so the OR over the three coordinates
    marks exactly the negative rows and the elements that are out.
    The index pays only where lam repeats: an entry takes about 15 us to
    build, against 4 us for the 26 lam parts alone (2-core Xeon VM,
    Python 3.11).
    """
    table = sigma_table()
    parts = tuple(cm * m + cn * n + ck * k + c1 for cm, cn, ck, c1, _i in table.rows)
    index = []
    for readers in table.readers:
        values, _ids, bits = zip(*sorted([(parts[r], r, b) for r, b in readers]))
        index += values, tuple(accumulate(bits, or_, initial=0))
    return (parts, *index)


def _mu_parts(x, y, z) -> tuple[int, int, int]:
    """mu's three doubled alpha coordinates, mu_alpha[i] . (x, y, z): the mu
    half of sigma(lam+rho) - rho - mu, the same for every element."""
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = sigma_table().mu_alpha
    return c00 * x + c01 * y + c02 * z, c10 * x + c11 * y + c12 * z, c20 * x + c21 * y + c22 * z


def _row_mask(lam, mu) -> tuple[int, tuple[int, ...], tuple[int, int, int]]:
    """(ok, lam parts, mu parts) at a weight pair, read from _lam_parts' index
    at mu's three doubled alpha coordinates: bit r of ok is set exactly when
    row r of sigma_table is >= 0 there, and bit 26 + idx exactly when all
    three rows of element idx are.  Rows 0..13 are the profile variables in
    PROFILE_FIELDS order, so ok & 0x3FFF is the field_mask of the variables
    that are >= 0.
    """
    parts, v0, n0, v1, n1, v2, n2 = _lam_parts(*lam)
    alpha = a0, a1, a2 = _mu_parts(*mu)
    bad = n0[bisect_left(v0, a0)] | n1[bisect_left(v1, a1)] | n2[bisect_left(v2, a2)]
    return ((1 << 26 + 48) - 1) ^ bad, parts, alpha


class CoefficientProfile(NamedTuple("_Profile", [(f, int) for f in PROFILE_FIELDS])):
    """The fourteen substitution variables a..r at a weight pair, doubled to integers.

    a..i are even; j, l, o, p, r are even exactly when m + k + x + z is even.
    A term's kpf_q argument is its three values halved.
    """

    __slots__ = ()

    def signs(self) -> int:
        """field_mask of the variables that are >= 0."""
        mask = 0
        for bit, v in zip(_BITS, self):
            if v >= 0:
                mask |= bit
        return mask


def coefficient_profile(lam, mu) -> CoefficientProfile:
    """The profile rows of sigma_table, its first 14, evaluated at the pair, unhalved."""
    _check_weights(lam, mu)
    alpha = _mu_parts(*mu)
    return CoefficientProfile._make(
        [part - alpha[i] for part, (_cm, _cn, _ck, _c1, i) in zip(_lam_parts(*lam)[0], sigma_table().rows[:14])]
    )


def _set_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, ascending: the one walk over an
    element mask, for an AlternationSet and for _terms."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=1)
def _term_chunks() -> tuple[tuple[int, ...], ...]:
    """Element mask of the TERMS each 6-bit chunk of a term mask names:
    entry [c][v] has bit idx set for the canonical index idx of each set bit
    of v at positions 6c..6c+5."""
    terms = [idx for idx, _sign, _ids in sigma_table().terms]
    return tuple(
        tuple(sum(1 << terms[c + j] for j in range(6) if v >> j & 1 and c + j < len(terms)) for v in range(64))
        for c in range(0, len(terms), 6)
    )


@dataclass(frozen=True)
class AlternationSet:
    """A subset of the Weyl group as an element mask: bit idx set for the
    element of canonical index idx, the layout of the row mask's element
    bits (_row_mask) and of _CASE_ELEMENTS."""

    mask: int

    @classmethod
    def from_mask(cls, mask: int) -> "AlternationSet":
        """The set of the TERMS a term mask names (bit i for TERMS[i]), read 6 bits at a time."""
        low, mid, high = _term_chunks()
        return cls(low[mask & 63] | mid[mask >> 6 & 63] | high[mask >> 12])

    @classmethod
    def from_names(cls, names: Iterable[str]) -> "AlternationSet":
        return cls(reduce(or_, (1 << weyl.index_from_name(name) for name in names), 0))

    @property
    def indices(self) -> frozenset[int]:
        """The canonical indices of the members."""
        return frozenset(_set_bits(self.mask))

    def elements(self) -> list[weyl.WeylElement]:
        group = weyl.enumerate_group()
        return [group[i] for i in _set_bits(self.mask)]

    def names(self) -> list[str]:
        return [weyl.NAMES[i] for i in _set_bits(self.mask)]

    def __contains__(self, el: weyl.WeylElement) -> bool:
        return self.mask >> weyl.canonical_index(el) & 1 == 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __str__(self) -> str:
        return "{" + ", ".join(self.names()) + "}"

    def to_json(self) -> list[str]:
        return self.names()


def _terms(admitted: int, parts, alpha) -> list[tuple[int, tuple[int, int, int]]]:
    """(sign, alpha triple) of each element idx whose bit idx is set in
    admitted, in canonical order, from _row_mask's parts and alpha: each
    coordinate is a row's lam part minus mu's, halved (exact past the parity
    gate).  Both q-routes evaluate their terms here."""
    a0, a1, a2 = alpha
    elements = sigma_table().elements
    out = []
    for idx in _set_bits(admitted):
        _idx, sign, (r0, r1, r2) = elements[idx]
        out.append((sign, ((parts[r0] - a0) >> 1, (parts[r1] - a1) >> 1, (parts[r2] - a2) >> 1)))
    return out


def _nonzero_terms(lam, mu) -> list[tuple[int, tuple[int, int, int]]]:
    """(sign, alpha triple) of every sigma whose term is nonzero, in
    canonical order.

    A term is nonzero exactly when its coefficient vector is integral and
    coordinate-wise nonnegative.  One gate decides integrality for every
    element: an odd pair (root_lattice_parity) has no nonzero term, for any
    lam, and at an even pair every doubled coordinate is even (sigma_table),
    so past the gate only signs are read: the nonzero terms are the elements
    whose bits are set in the row mask (_row_mask), and _terms evaluates
    those alone.
    """
    if not root_lattice_parity(lam, mu):
        return []
    ok, parts, alpha = _row_mask(lam, mu)
    return _terms(ok >> 26, parts, alpha)


def alternation_set(lam, mu) -> AlternationSet:
    """All sigma with kpf_q(sigma(lam+rho) - rho - mu) nonzero: past the
    parity gate, the row mask's element bits, with no term evaluated.
    Raises TypeError unless every coordinate is an int."""
    if not root_lattice_parity(lam, mu):
        return AlternationSet(0)
    return AlternationSet(_row_mask(lam, mu)[0] >> 26)


def mult_q_direct(lam, mu) -> QPoly:
    """The alternating sum over the alternation set."""
    return signed_sum((sign, kpf_q(*v)) for sign, v in _nonzero_terms(lam, mu))


# Sign-pattern dispatch table.  Each entry is one case: a tuple of
# alternative (nonnegative-variables, negative-variables) patterns over
# the fourteen profile fields -- variables in neither string are
# unconstrained -- together with the letters of the contributing terms.
# The patterns are compiled once to field_mask pairs (_CASE_MASKS).
# The cases are disjoint (no pattern matches two); no match means the
# multiplicity is zero.  Term signs are (-1)^length of the associated
# group element.  Case 38 leaves i unconstrained, a deviation from the
# paper's table (see README): with i negative no case matches the sign
# pattern adegijl, which dominant pairs realize (first at lam = (8,0,0),
# mu = (0,0,2)) and whose terms are exactly A, C, D and G.
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
    ((("adegjl", "bchopr"),), "ACDG"),
    ((("adejlo", "bcghipr"),), "ACDI"),
    ((("abdej", "cfghilopr"),), "ABC"),
    ((("adejl", "bcghiopr"),), "ACD"),
    ((("abdj", "cefghilopr"),), "AB"),
    ((("adegj", "bcfhilopr"), ("adegij", "bcfhlopr"), ("adefj", "bcghilopr"), ("adej", "bcfghilopr")), "AC"),
    ((("adjl", "bcefghiopr"),), "AD"),
    ((("adj", "bcefghilopr"),), "A"),
)

OTHERWISE_CASE = len(CASES) + 1  # dispatch number reported when nothing matches

# (number, letters, ((constrained mask, nonnegative mask), ...)) per case
_CASE_MASKS = tuple(
    (number, letters, tuple((field_mask(pos + neg), field_mask(pos)) for pos, neg in patterns))
    for number, (patterns, letters) in enumerate(CASES, start=1)
)


def matching_cases(profile: CoefficientProfile) -> list[int]:
    """1-based numbers of every case whose sign pattern the profile satisfies."""
    signs = profile.signs()
    return [
        number for number, _letters, patterns in _CASE_MASKS if any(signs & care == nonneg for care, nonneg in patterns)
    ]


# term letters by case number; number 0 is unused and OTHERWISE_CASE has none
_CASE_LETTERS = ("", *(letters for _patterns, letters in CASES), "")
# element mask by case number, laid out as bits 26+ of the row mask: bit idx
# for the canonical index idx of each of the case's letters
_CASE_ELEMENTS = tuple(
    sum(1 << weyl.CANONICAL_WORDS.index(t.word) for t in TERMS if t.letter in letters) for letters in _CASE_LETTERS
)


@lru_cache(maxsize=1)
def case_table() -> bytes:
    """The matching case number of every sign pattern, built once, read-only.

    Byte s, for a 14-bit field_mask s, is the number of the one case whose
    sign pattern s satisfies, or OTHERWISE_CASE when none does.
    """
    table = bytearray([OTHERWISE_CASE]) * (1 << 14)
    for number, _letters, alternatives in _CASE_MASKS:
        for care, nonneg in alternatives:
            # the patterns s with s & care == nonneg: nonneg with each submask of the free bits
            free = sub = ~care & (1 << 14) - 1
            while True:
                table[nonneg | sub] = number
                if not sub:
                    break
                sub = sub - 1 & free
    return bytes(table)


def match_case(profile: CoefficientProfile) -> tuple[int, str]:
    """The matching case number and its term letters ('' for the zero case)."""
    number = case_table()[profile.signs()]
    return number, _CASE_LETTERS[number]


def mult_q_cases(lam, mu) -> QPoly:
    """q-multiplicity via the closed sign-pattern dispatch.

    The case table is a theorem about dominant weight pairs; the function
    is total, but outside the dominant chamber only mult_q_direct carries
    the defining alternating sum (the two agree on every dominant pair,
    which the acceptance suite checks exhaustively).  Past the parity
    gate a zero pair is settled by the case table.  The sign pattern is
    the low 14 bits of the row mask (_row_mask); the matched case is an
    element mask (_CASE_ELEMENTS), and _terms evaluates its terms alone.
    """
    if not root_lattice_parity(lam, mu):
        return QPoly()
    ok, parts, alpha = _row_mask(lam, mu)
    return signed_sum(
        (sign, kpf_q(*v)) for sign, v in _terms(_CASE_ELEMENTS[case_table()[ok & 0x3FFF]], parts, alpha)
    )


def mult(lam, mu) -> int:
    """The plain weight multiplicity: m_q evaluated at q = 1."""
    return eval_at_one(mult_q_direct(lam, mu))


# ---------------------------------------------------------------------------
# Independent oracle: Freudenthal's recursion over the weight system.
# Works entirely in ambient integer coordinates with the standard invariant
# form (the dot product), with its own list of the positive roots; it
# shares no code with the partition-function path above.
# ---------------------------------------------------------------------------

def _fw_to_eps(w) -> tuple[int, int, int]:
    m, n, k = w
    return (m + n + k, n + k, k)


def _lam_eps(lam) -> tuple[int, int, int]:
    if min(lam) < 0:
        raise ValueError(f"highest weight must be dominant, got {tuple(lam)}")
    return _fw_to_eps(lam)


# the positive roots beta_0, ..., beta_8 in ambient coordinates
_POSITIVE_EPS = (
    (1, -1, 0), (0, 1, -1), (0, 0, 2),
    (1, 0, -1), (0, 1, 1), (1, 0, 1),
    (1, 1, 0), (2, 0, 0), (0, 2, 0),
)
_ROOT_INDEX = {root: i for i, root in enumerate(_POSITIVE_EPS)}
# A pass packs a weight (v1, v2, v3) into one int key, v1 << 2 * bits |
# v2 << bits | v3; every coordinate it packs lies in [0, L1 + 2], L1 lam's
# first ambient coordinate.  bits is the fewest that hold L1 + 2, but at
# least _MIN_KEY_BITS: up to L1 = 1021 a key is below 2**30, one CPython
# digit, which adds and hashes fastest, and the step table is built once.
# A lam with L1 + 2 >= 2**_KEY_BITS is refused: it has about 4 * 10**12
# dominant weights or more (L1**3 / 72 at lam = (L1, 0, 0)), far beyond
# any pass that could finish; (60, 60, 60) has 399,771.
_MIN_KEY_BITS = 10
_KEY_BITS = 16
# every root coordinate lies in [-1, 2], so a step's conjugation is the
# same at every distance to a wall from 2 up
_WALL_CAP = 2


def _conjugate_step(nu, root) -> tuple[tuple[int, int, int], int]:
    """(u+, i) for a dominant nu and a positive root beta_j: the dominant
    conjugate u+ of u = nu + beta_j, and the index i of the root beta_i that
    the signed permutation taking u to u+ (W acts by signed permutations)
    takes beta_j to."""
    n1, n2, n3 = nu
    r1, r2, r3 = root
    # a >= 0, as n1 >= 0 (nu is dominant) and r1 >= 0 for every positive root
    a, b, c = n1 + r1, n2 + r2, n3 + r3
    if b < 0:
        b, r2 = -b, -r2
    if c < 0:
        c, r3 = -c, -r3
    if a < b:
        a, b, r1, r2 = b, a, r2, r1
    if b < c:
        b, c, r2, r3 = c, b, r3, r2
        if a < b:
            a, b, r1, r2 = b, a, r2, r1
    return (a, b, c), _ROOT_INDEX[r1, r2, r3]


@lru_cache(maxsize=1)
def _step_table(bits: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per wall class, the nine steps of a dominant weight nu of the class,
    one per positive root beta_j in order: (u+ - nu packed with bits bits
    per coordinate, i), from _conjugate_step at the class's least weight.

    The class of nu = (n1, n2, n3) is its distances (w1, w2, w3) to the
    walls n1 = n2, n2 = n3 and n3 = 0, each capped at _WALL_CAP; its index
    in the table reads them as the digits of a number in base _WALL_CAP + 1.
    """
    table = []
    for w1, w2, w3 in product(range(_WALL_CAP + 1), repeat=3):
        nu = (w1 + w2 + w3, w2 + w3, w3)
        steps = []
        for root in _POSITIVE_EPS:
            (a, b, c), i = _conjugate_step(nu, root)
            steps.append((((a - nu[0]) << 2 * bits) + ((b - nu[1]) << bits) + c - nu[2], i))
        table.append(tuple(steps))
    return tuple(table)


def _freudenthal_pass(lam_eps, floor):
    """(nu, m(lam, nu)) for every dominant weight nu of lam's coset of the
    root lattice with floor <= nu <= lam, in ambient coordinates, in
    ascending height of lam - nu.  floor is dominant; floor <= nu means
    nu - floor is a sum of simple roots with rational coefficients >= 0.

    Freudenthal's formula gives m(nu) from the nine chain sums
    S_j(nu) = sum over t >= 1 of m(nu + t*beta_j) <nu + t*beta_j, beta_j>,
    one per positive root beta_j: its numerator is 2 sum_j S_j(nu).  Each
    sum takes one step, to u = nu + beta_j.  If u is not a weight, S_j(nu)
    is 0, since root strings are unbroken.  Otherwise the sign flips and
    swaps w that take u to its dominant conjugate u+ (W acts by signed
    permutations) take beta_j to a root beta_i, and W-invariance turns the
    rest of the chain into the chain of u+ along beta_i:
    S_j(nu) = m(u+) <u, beta_j> + S_i(u+) = C_i(u+), the closed chain sum
    C_i(w) = S_i(w) + m(w) <w, beta_i>, summed from t = 0.  beta_i is
    positive, since <u+, beta_i> = <u, beta_j> = <nu, beta_j> + |beta_j|^2
    > 0 and u+ is dominant, so no chain is turned down a negative root.
    u+ lies above nu, so its sums are final before nu is reached; it lies
    above floor too, so the weights from floor up are closed under the step.

    The step itself is read from a table.  For nu = (n1, n2, n3), u+ is
    nu + delta, and (delta, i) depends only on nu's wall class
    (min(n1 - n2, 2), min(n2 - n3, 2), min(n3, 2)), one of 27: every root
    coordinate lies in [-1, 2], so adding beta_j can reorder two
    coordinates only where they lie less than 2 apart, and can make one
    negative only where it is 0.  _step_table conjugates once per class,
    at its least weight, and holds delta packed like a key, so that u+'s
    key is nu's key plus it.  The closed sums sit in one flat list, nine
    per weight in the order of _POSITIVE_EPS, at the offset the key maps
    to; offset 0 holds nine zeros, which a key that is no weight reads.
    """
    L1, L2, L3 = lam_eps
    if L1 + 2 >= 1 << _KEY_BITS:
        raise ValueError(f"highest weight too large: its first ambient coordinate {L1} + 2 "
                         f"does not fit a {_KEY_BITS}-bit key coordinate")
    bits = max(_MIN_KEY_BITS, (L1 + 2).bit_length())
    F1, F2, F3 = floor
    # lam - nu and nu - floor have nonnegative simple-root coordinates,
    # read off their partial sums c1, c2 and 2 c3; a weight is listed as
    # its key under its height, so the sort orders by height, then by key
    top = 3 * bits
    weights = []
    for v1 in range(F1, L1 + 1):
        c1 = L1 - v1
        for v2 in range(max(0, F1 + F2 - v1), min(v1, c1 + L2) + 1):
            c2 = c1 + L2 - v2
            # v3 <= v2, and 2 c3 = c2 + L3 - v3 is even and nonnegative
            low = max(0, F1 + F2 + F3 - v1 - v2)
            low += (low + c2 + L3) & 1
            high = v1 << 2 * bits | v2 << bits
            for v3 in range(low, min(v2, c2 + L3) + 1, 2):
                weights.append((c1 + c2 + (c2 + L3 - v3) // 2) << top | high | v3)
    weights.sort()
    steps = _step_table(bits)
    cap = _WALL_CAP
    radix = cap + 1
    norm_lam = (L1 + 3) ** 2 + (L2 + 2) ** 2 + (L3 + 1) ** 2  # |lam + rho|^2, rho = (3, 2, 1)
    key_mask, coordinate = (1 << top) - 1, (1 << bits) - 1
    closed = [0] * 9
    offset: dict[int, int] = {}
    get = offset.get
    for w in weights:
        key = w & key_mask
        n1, n2, n3 = key >> 2 * bits, key >> bits & coordinate, key & coordinate
        if w == key:  # height 0: nu is lam
            m = 1
            sums = (0,) * 9
        else:
            # nu's wall class, indexed as in _step_table
            d1, d2 = n1 - n2, n2 - n3
            wall = ((d1 if d1 < cap else cap) * radix + (d2 if d2 < cap else cap)) * radix + (n3 if n3 < cap else cap)
            # a loop: a list comprehension would cost a frame per weight
            sums = []
            for delta, i in steps[wall]:
                sums.append(closed[get(key + delta, 0) + i])
            acc = 2 * sum(sums)
            denom = norm_lam - (n1 + 3) ** 2 - (n2 + 2) ** 2 - (n3 + 1) ** 2
            if acc % denom:
                raise ArithmeticError("Freudenthal numerator not divisible by denominator")
            m = acc // denom
        offset[key] = len(closed)
        s0, s1, s2, s3, s4, s5, s6, s7, s8 = sums
        a, b, c = m * n1, m * n2, m * n3
        # C_j(nu) = S_j(nu) + <m nu, beta_j>, beta_j as in _POSITIVE_EPS
        closed += (a - b + s0, b - c + s1, 2 * c + s2, a - c + s3, b + c + s4,
                   a + c + s5, a + b + s6, 2 * a + s7, 2 * b + s8)
        yield (n1, n2, n3), m


def dominant_multiplicities(lam) -> dict[tuple[int, int, int], int]:
    """m(lam, mu) for every dominant weight mu of the irreducible of highest
    weight lam, keyed by mu's fundamental-weight triple, in ascending height
    of lam - mu: one Freudenthal pass.  Requires lam dominant."""
    _check_weights(lam)
    return {(a - b, b - c, c): m for (a, b, c), m in _freudenthal_pass(_lam_eps(lam), (0, 0, 0))}


def mult_freudenthal(lam, mu) -> int:
    """Multiplicity of mu in the irreducible of highest weight lam, by the
    Freudenthal recursion.  Requires lam dominant; mu may be any integral
    weight (its dominant conjugate mu+ is looked up).  The pass walks only
    the dominant weights between mu+ and lam: every weight the recursion
    reads for one of them lies higher and is one of them too.  If mu+ is
    not below lam the pass is empty and the multiplicity is 0; a mu+ in the
    other coset of the root lattice is answered 0 without walking it."""
    _check_weights(lam, mu)
    lam_eps = _lam_eps(lam)
    mu_eps = tuple(sorted(map(abs, _fw_to_eps(mu)), reverse=True))
    if (sum(lam_eps) - sum(mu_eps)) % 2:  # lam - mu+ is in the root lattice exactly when its ambient sum is even
        return 0
    return next((m for nu, m in _freudenthal_pass(lam_eps, mu_eps) if nu == mu_eps), 0)
