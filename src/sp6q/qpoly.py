"""Polynomials in q with arbitrary-precision integer coefficients.

This is the value domain of the q-partition function and the
q-multiplicity.  Only the ring operations the alternating sum needs are
provided: addition, subtraction, and evaluation at q = 1.  The
representation is dense (coefficient index = exponent) with trailing
zeros trimmed, so the zero polynomial is uniquely the empty tuple.

signed_sum is the one summation loop: it adds any number of signed terms
into one coefficient list and builds one QPoly, so an alternating sum of
n terms makes one polynomial, not n.
"""

from __future__ import annotations

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
