"""Exact root-system data for sp6(C), the rank-3 symplectic Lie algebra.

Three coordinate systems are used throughout the package:

  - fundamental-weight coordinates (m, n, k): integers, the natural
    parametrization of dominant integral weights;
  - simple-root (alpha) coordinates: rationals whose denominators divide 2,
    since w1 = a1 + a2 + (1/2)a3 is half-integral in a3;
  - ambient (epsilon) coordinates: the standard basis of R^3, in which
    a1 = e1 - e2, a2 = e2 - e3, a3 = 2*e3.  Every root and fundamental
    weight is integral here, which keeps the Weyl action integer-only.

All arithmetic is exact (fractions.Fraction); nothing in this package
touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

_TWO = Fraction(2)


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class WeightFW:
    """A weight written in fundamental-weight coordinates m*w1 + n*w2 + k*w3."""

    m: int
    n: int
    k: int

    def coeffs(self) -> tuple[int, int, int]:
        return (self.m, self.n, self.k)

    def is_dominant(self) -> bool:
        return self.m >= 0 and self.n >= 0 and self.k >= 0

    def __add__(self, other: "WeightFW") -> "WeightFW":
        return WeightFW(self.m + other.m, self.n + other.n, self.k + other.k)

    def __sub__(self, other: "WeightFW") -> "WeightFW":
        return WeightFW(self.m - other.m, self.n - other.n, self.k - other.k)


@dataclass(frozen=True)
class AlphaVector:
    """A lattice vector c1*a1 + c2*a2 + c3*a3 with denominators dividing 2."""

    c1: Fraction
    c2: Fraction
    c3: Fraction

    def __post_init__(self):
        for name in ("c1", "c2", "c3"):
            v = _rat(getattr(self, name))
            if _TWO % v.denominator != 0:
                raise ValueError(f"coordinate {name}={v} has denominator not dividing 2")
            object.__setattr__(self, name, v)

    def coeffs(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.c1, self.c2, self.c3)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs())

    def __add__(self, other: "AlphaVector") -> "AlphaVector":
        return AlphaVector(self.c1 + other.c1, self.c2 + other.c2, self.c3 + other.c3)

    def __sub__(self, other: "AlphaVector") -> "AlphaVector":
        return AlphaVector(self.c1 - other.c1, self.c2 - other.c2, self.c3 - other.c3)

    def __neg__(self) -> "AlphaVector":
        return AlphaVector(-self.c1, -self.c2, -self.c3)


@dataclass(frozen=True)
class EpsVector:
    """A vector in ambient coordinates e1, e2, e3."""

    e1: Fraction
    e2: Fraction
    e3: Fraction

    def __post_init__(self):
        for name in ("e1", "e2", "e3"):
            object.__setattr__(self, name, _rat(getattr(self, name)))

    def coeffs(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.e1, self.e2, self.e3)


# The nine positive roots, in the fixed canonical order used everywhere in
# this package (decomposition multiplicities, oracle, serialization):
#   a1, a2, a3, a1+a2, a2+a3, a1+a2+a3, a1+2a2+a3, 2a1+2a2+a3, 2a2+a3
_POSITIVE_ROOTS = (
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 0),
    (0, 1, 1),
    (1, 1, 1),
    (1, 2, 1),
    (2, 2, 1),
    (0, 2, 1),
)


def positive_roots() -> list[AlphaVector]:
    """The nine positive roots in canonical order; the last of coefficient
    sum 5 (2a1+2a2+a3) is the highest root."""
    return [AlphaVector(*map(Fraction, r)) for r in _POSITIVE_ROOTS]


def fw_to_alpha(w: WeightFW) -> AlphaVector:
    """Change of basis from fundamental weights to simple roots.

    m*w1 + n*w2 + k*w3 = (m+n+k)a1 + (m+2n+2k)a2 + (m/2 + n + 3k/2)a3.
    """
    m, n, k = w.coeffs()
    return AlphaVector(
        Fraction(m + n + k),
        Fraction(m + 2 * n + 2 * k),
        Fraction(m, 2) + n + Fraction(3 * k, 2),
    )


def rho_alpha() -> AlphaVector:
    """Half the sum of the positive roots: 3a1 + 5a2 + 3a3 = w1 + w2 + w3."""
    return AlphaVector(Fraction(3), Fraction(5), Fraction(3))


def alpha_to_eps(v: AlphaVector) -> EpsVector:
    """Exact linear map via a1 = e1 - e2, a2 = e2 - e3, a3 = 2*e3."""
    c1, c2, c3 = v.coeffs()
    return EpsVector(c1, c2 - c1, 2 * c3 - c2)


def eps_to_alpha(v: EpsVector) -> AlphaVector:
    """Inverse of alpha_to_eps; total on rational inputs."""
    e1, e2, e3 = v.coeffs()
    return AlphaVector(e1, e1 + e2, (e1 + e2 + e3) / 2)
