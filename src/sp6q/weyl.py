"""The Weyl group of sp6(C): signed permutations of three letters.

The group W is the hyperoctahedral group of order 2^3 * 3! = 48.  It acts
on the ambient basis by sigma(e_i) = signs[i] * e_{perm[i]}; the three
generators are

    s1: swap e1, e2        s2: swap e2, e3        s3: negate e3.

Group elements are identified by reduced words over the generators.  The
module carries a fixed canonical listing of all 48 reduced words; element
order and serialized names ("s3*s2*s3*s2", "1" for the identity) follow
that listing.  Words compose right-to-left: the word (1, 2) denotes
s1 o s2, i.e. s2 is applied first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .root_system import POSITIVE_ROOTS


@dataclass(frozen=True)
class WeylElement:
    """A signed permutation: sigma(e_i) = signs[i] * e_{perm[i]} (0-based)."""

    perm: tuple[int, int, int]
    signs: tuple[int, int, int]


IDENTITY = WeylElement((0, 1, 2), (1, 1, 1))

_GENERATORS = {
    1: WeylElement((1, 0, 2), (1, 1, 1)),
    2: WeylElement((0, 2, 1), (1, 1, 1)),
    3: WeylElement((0, 1, 2), (1, 1, -1)),
}


def generator(i: int) -> WeylElement:
    """The simple reflection s_i for i in {1, 2, 3}."""
    try:
        return _GENERATORS[i]
    except KeyError:
        raise ValueError(f"generator index must be 1, 2 or 3, got {i}") from None


def compose(s: WeylElement, t: WeylElement) -> WeylElement:
    """Group composition s o t (t acts first)."""
    perm = tuple(s.perm[t.perm[i]] for i in range(3))
    signs = tuple(t.signs[i] * s.signs[t.perm[i]] for i in range(3))
    return WeylElement(perm, signs)


def evaluate_word(letters) -> WeylElement:
    """Evaluate a word over the generators, leftmost letter outermost."""
    acc = IDENTITY
    for i in letters:
        acc = compose(acc, generator(i))
    return acc


def apply(s: WeylElement, v: tuple) -> tuple:
    """Linear action on an integer triple in the ambient basis."""
    out = [0, 0, 0]
    for i in range(3):
        out[s.perm[i]] += s.signs[i] * v[i]
    return tuple(out)


def matrix(s: WeylElement) -> tuple[tuple[int, int, int], ...]:
    """The 3x3 signed permutation matrix of s in the ambient basis (rows)."""
    rows = [[0, 0, 0] for _ in range(3)]
    for i in range(3):
        rows[s.perm[i]][i] = s.signs[i]
    return tuple(tuple(r) for r in rows)


# All 48 reduced words, in the canonical listing order used for element
# naming, stable serialization, and fixture diffs.
CANONICAL_WORDS: tuple[tuple[int, ...], ...] = (
    (), (1,), (2,), (3,), (1, 2), (2, 1),
    (2, 3), (3, 1), (3, 2), (1, 2, 1), (1, 2, 3), (2, 3, 1),
    (2, 3, 2), (3, 2, 1), (3, 1, 2), (3, 2, 3), (1, 2, 3, 1), (1, 2, 3, 2),
    (2, 3, 2, 1), (2, 3, 1, 2), (3, 1, 2, 1), (3, 2, 3, 1), (3, 2, 3, 2), (3, 1, 2, 3),
    (1, 2, 3, 2, 1), (1, 2, 3, 1, 2), (2, 3, 1, 2, 1), (2, 3, 1, 2, 3), (3, 1, 2, 3, 1), (3, 1, 2, 3, 2),
    (3, 2, 3, 2, 1), (3, 2, 3, 1, 2), (1, 2, 3, 1, 2, 1), (2, 3, 1, 2, 3, 1), (2, 3, 1, 2, 3, 2), (3, 1, 2, 3, 1, 2),
    (3, 1, 2, 3, 2, 1), (3, 2, 3, 1, 2, 1), (3, 2, 3, 1, 2, 3), (2, 3, 1, 2, 3, 2, 1), (2, 3, 1, 2, 3, 1, 2), (3, 2, 3, 1, 2, 3, 2),
    (3, 1, 2, 3, 1, 2, 1), (3, 2, 3, 1, 2, 3, 1), (2, 3, 1, 2, 3, 1, 2, 1), (3, 2, 3, 1, 2, 3, 2, 1), (3, 2, 3, 1, 2, 3, 1, 2), (3, 2, 3, 1, 2, 3, 1, 2, 1),
)


@lru_cache(maxsize=1)
def _tables():
    elements = []
    by_element: dict[WeylElement, int] = {}
    for w in CANONICAL_WORDS:
        el = evaluate_word(w)
        if el in by_element:
            raise RuntimeError(f"canonical word list is degenerate at {w}")
        by_element[el] = len(elements)
        elements.append(el)
    if len(elements) != 48:
        raise RuntimeError(f"expected 48 group elements, got {len(elements)}")
    return tuple(elements), by_element


def enumerate_group() -> list[WeylElement]:
    """All 48 elements, in canonical listing order."""
    return list(_tables()[0])


def canonical_index(s: WeylElement) -> int:
    """Position of s in the canonical listing (0..47)."""
    return _tables()[1][s]


def canonical_word(s: WeylElement) -> tuple[int, ...]:
    """The canonical reduced word for s."""
    return CANONICAL_WORDS[canonical_index(s)]


# Each element's serialized form, by canonical index: generators joined by '*', "1" for the identity.
NAMES: tuple[str, ...] = tuple("*".join(f"s{i}" for i in w) if w else "1" for w in CANONICAL_WORDS)


def name(s: WeylElement) -> str:
    """Serialized form of s: NAMES at its canonical index."""
    return NAMES[canonical_index(s)]


def element_from_name(text: str) -> WeylElement:
    """Inverse of name(); accepts any word in the s1/s2/s3 alphabet."""
    text = text.strip()
    if text == "1":
        return IDENTITY
    letters = []
    for tok in text.split("*"):
        tok = tok.strip()
        if len(tok) != 2 or tok[0] != "s" or tok[1] not in "123":
            raise ValueError(f"malformed Weyl word {text!r}")
        letters.append(int(tok[1]))
    return evaluate_word(letters)


@lru_cache(maxsize=1024)
def index_from_name(text: str) -> int:
    """canonical_index(element_from_name(text)), memoized for fixture words; a malformed word
    raises ValueError on every call, since a call that raises is not cached."""
    return canonical_index(element_from_name(text))


# the positive roots in the ambient basis: a1 = e1 - e2, a2 = e2 - e3, a3 = 2*e3
_POS_EPS = tuple((c1, c2 - c1, 2 * c3 - c2) for c1, c2, c3 in POSITIVE_ROOTS)
_NEG_EPS = frozenset(tuple(-c for c in e) for e in _POS_EPS)


def length(s: WeylElement) -> int:
    """Coxeter length: the number of positive roots sent to negative roots."""
    return sum(1 for e in _POS_EPS if apply(s, e) in _NEG_EPS)


def sign(s: WeylElement) -> int:
    """(-1)^length(s); equals the determinant of the matrix of s."""
    return -1 if length(s) % 2 else 1
