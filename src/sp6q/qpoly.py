"""Polynomials in q with arbitrary-precision integer coefficients.

This is the value domain of the q-partition function and the
q-multiplicity.  Only the ring operations the alternating sum needs are
provided: addition, subtraction, and evaluation at q = 1.  The
representation is dense (coefficient index = exponent) with trailing
zeros trimmed, so the zero polynomial is uniquely the empty tuple.

signed_sum adds any number of signed terms into one coefficient list and
builds one QPoly, so an alternating sum of n terms makes one polynomial,
not n; it serves QPoly arithmetic, whose coefficients are unbounded.

Inside the package a value of the q-partition function, and a signed sum
of such values, is held packed instead: one Python int, the value of the
polynomial at q = 2**PACK_BITS, the sum of c_j << PACK_BITS * j over its
coefficients c_j (Kronecker substitution).  Adding or subtracting two
packed values adds their coefficients, and a left shift by PACK_BITS
multiplies by q, so each of these is one big-int operation.  pack and
unpack are the only code that reads or writes the digits; other code only
adds, subtracts and shifts by PACK_BITS.  A packed value decodes
exactly while every coefficient of it is below 2**63 in magnitude: a
digit is a signed 64-bit word.  That holds for the package's sums: the six
non-simple positive roots have height >= 2 and, with their
multiplicities chosen, the simple roots' are forced, so a vector of
height H has at most comb(H // 2 + 6, 6) decompositions, and at
H = KPF_MAX_HEIGHT = 700 that is 2,710,026,901,296 < 2**42; a signed sum
of at most 48 such values, one per Weyl group element, stays below 2**48.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import add, sub
from typing import Iterable


@dataclass(frozen=True)
class QPoly:
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        c = self.coeffs
        if type(c) is tuple and (not c or c[-1] != 0):
            return  # already trimmed: keep it as it is
        c = tuple(c)
        end = len(c)
        while end and c[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", c[:end])

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        return add_signed(self, 1, other)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return add_signed(self, -1, other)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if e == 0:
                term = str(mag)
            elif mag == 1:
                term = "q" if e == 1 else f"q^{e}"
            else:
                term = f"{mag}*q" if e == 1 else f"{mag}*q^{e}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]


_SIGNED = {1: add, -1: sub}


def signed_sum(terms: Iterable[tuple[int, QPoly]]) -> QPoly:
    """The sum of s*r over the (s, r) pairs, each s = +1 or -1, as one QPoly."""
    out: list[int] = []
    for s, r in terms:
        op = _SIGNED.get(s)
        if op is None:
            raise ValueError(f"sign must be +1 or -1, got {s}")
        c = r.coeffs
        if not out and op is add:
            out = list(c)  # a copy, not a sum with zeros
            continue
        if len(c) > len(out):
            out += [0] * (len(c) - len(out))
        out[:len(c)] = map(op, out, c)
    return QPoly(tuple(out))


def add_signed(p: QPoly, s: int, r: QPoly) -> QPoly:
    """p + s*r for s = +1 or -1."""
    return signed_sum(((1, p), (s, r)))


def eval_at_one(p: QPoly) -> int:
    """Coefficient sum: the value of the polynomial at q = 1."""
    return sum(p.coeffs)


# bits per coefficient of a packed value: a coefficient is one signed 64-bit word
PACK_BITS = 64


def pack(coeffs: Iterable[int]) -> int:
    """The packed value of the coefficients: the sum of c_j << PACK_BITS * j.

    Each coefficient goes through array("q"), so one outside [-2**63, 2**63)
    raises OverflowError instead of wrapping.
    """
    words = array("q", coeffs)
    data = words.tobytes()
    x = int.from_bytes(data, "little")
    if not data[7::8].isascii():
        # read unsigned, a negative coefficient c counts as c + 2**64: take
        # the 2**64 back from the digit above
        x -= int.from_bytes(array("q", [0, *(c < 0 for c in words)]), "little")
    return x


def unpack(x: int) -> QPoly:
    """The QPoly whose packed value is x, reading signed 64-bit digits.

    When x > 0 and no digit reads negative, the digits are the coefficients
    as they are.  Otherwise each digit that reads negative has borrowed one
    from the digit above, so that digit's coefficient is one more than it
    reads.
    """
    if x > 0:
        data = x.to_bytes((x.bit_length() + 63) >> 6 << 3, "little")
        if data[7::8].isascii():
            return QPoly(tuple(array("q", data)))
    elif not x:
        return QPoly()
    # two's complement with a spare top digit, which reads 0 or -1 and so
    # holds the last borrow
    digits = array("q", x.to_bytes((x.bit_length() >> 6) + 1 << 3, "little", signed=True))
    return QPoly((digits[0], *(d + (below < 0) for below, d in zip(digits, digits[1:]))))
