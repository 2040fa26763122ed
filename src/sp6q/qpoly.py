"""Polynomials in q with arbitrary-precision integer coefficients.

This is the value domain of the q-partition function and the
q-multiplicity.  Only the ring operations the alternating sum needs are
provided: addition, subtraction, and evaluation at q = 1.  The
representation is dense (coefficient index = exponent) with trailing
zeros trimmed, so the zero polynomial is uniquely the empty tuple.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class QPoly:
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        c = tuple(self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        return add_signed(self, 1, other)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return add_signed(self, -1, other)

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, e: int) -> int:
        return self.coeffs[e] if 0 <= e < len(self.coeffs) else 0

    def support(self) -> list[int]:
        """Exponents with nonzero coefficient, ascending."""
        return [e for e, c in enumerate(self.coeffs) if c]

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

    @classmethod
    def from_json(cls, data) -> "QPoly":
        return cls(tuple(int(s) for s in data))


def add_signed(p: QPoly, s: int, r: QPoly) -> QPoly:
    """p + s*r for s = +1 or -1."""
    if s not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {s}")
    n = max(len(p.coeffs), len(r.coeffs))
    out = [0] * n
    for e, c in enumerate(p.coeffs):
        out[e] += c
    for e, c in enumerate(r.coeffs):
        out[e] += s * c
    return QPoly(tuple(out))


def eval_at_one(p: QPoly) -> int:
    """Coefficient sum: the value of the polynomial at q = 1."""
    return sum(p.coeffs)
