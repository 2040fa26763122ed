"""Exact root-system data for sp6(C), the rank-3 symplectic Lie algebra.

Three coordinate systems are used throughout the package:

  - fundamental-weight coordinates (m, n, k): integers, the natural
    parametrization of dominant integral weights;
  - ambient (epsilon) coordinates: the standard basis of R^3, in which
    a1 = e1 - e2, a2 = e2 - e3, a3 = 2*e3 and w1, w2, w3 = e1, e1 + e2,
    e1 + e2 + e3.  Every root and weight is an integer triple here, and
    the Weyl group acts by signed permutations, so its action is
    integer-only;
  - simple-root (alpha) coordinates: half-integers, since
    w1 = a1 + a2 + (1/2)a3 is half-integral in a3.  They are held
    doubled, as integers: doubled_alpha is the one conversion, from
    ambient coordinates.

All arithmetic is on integers; nothing in this package touches floating
point.  Two places halve into fractions.Fraction: AlphaVector.coeffs()
and multiplicity.symbolic_sigma_rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple


class WeightFW(NamedTuple):
    """A weight written in fundamental-weight coordinates m*w1 + n*w2 + k*w3, as the triple (m, n, k)."""

    m: int
    n: int
    k: int

    def coeffs(self) -> tuple[int, int, int]:
        return tuple(self)

    def is_dominant(self) -> bool:
        return min(self) >= 0


@dataclass(frozen=True)
class AlphaVector:
    """A vector c1*a1 + c2*a2 + c3*a3 of the weight lattice, held as the
    doubled integers d_i = 2*c_i."""

    d1: int
    d2: int
    d3: int

    def coeffs(self) -> tuple[Fraction, Fraction, Fraction]:
        """The true coordinates (c1, c2, c3), halved exactly."""
        return (Fraction(self.d1, 2), Fraction(self.d2, 2), Fraction(self.d3, 2))

    def is_integral(self) -> bool:
        return not (self.d1 | self.d2 | self.d3) & 1


# The nine positive roots in alpha coordinates, in the fixed canonical
# order used everywhere in this package (decomposition multiplicities,
# oracle, serialization):
#   a1, a2, a3, a1+a2, a2+a3, a1+a2+a3, a1+2a2+a3, 2a1+2a2+a3, 2a2+a3
# 2a1+2a2+a3, of coefficient sum 5, is the highest root.
POSITIVE_ROOTS = (
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

# w1, w2, w3 and rho = w1 + w2 + w3 in ambient coordinates
FUNDAMENTAL_EPS = ((1, 0, 0), (1, 1, 0), (1, 1, 1))
RHO_EPS = (3, 2, 1)


def doubled_alpha(e) -> tuple[int, int, int]:
    """Doubled alpha coordinates of the ambient triple e; the inverse of
    a1 = e1 - e2, a2 = e2 - e3, a3 = 2*e3, times two."""
    e1, e2, e3 = e
    return (2 * e1, 2 * (e1 + e2), e1 + e2 + e3)
