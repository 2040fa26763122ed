"""The q-analog of Kostant's partition function for sp6(C).

For mu = m*a1 + n*a2 + k*a3 with integer coordinates, the coefficient of
q^j in kpf_q(m, n, k) counts the ways to write mu as a sum of exactly j
positive roots.  Two independent implementations are provided:

  - kpf_q: a closed six-fold nested sum.  Every decomposition is
    determined by the multiplicities (d, e, f, g, h, i) of the six
    composite roots a1+a2, a2+a3, a1+a2+a3, a1+2a2+a3, 2a1+2a2+a3 and
    2a2+a3; the simple-root multiplicities are then forced, and the
    number of parts used is m+n+k - d - e - 2f - 3g - 4h - 2i.

  - kpf_q_oracle: exhaustive enumeration of all nine multiplicities,
    sharing nothing with kpf_q beyond the root list.  It is the
    ground-truth reference the formula is tested against.

Both are total: any negative coordinate gives the zero polynomial.
Half-integral vectors are rejected by the integer signature; callers
decide integrality beforehand (see multiplicity.root_lattice_parity).
"""

from __future__ import annotations

from functools import lru_cache

from .qpoly import QPoly
from .root_system import _POSITIVE_ROOTS

AlphaTriple = tuple[int, int, int]


def _check_int(*vals):
    # bool is a subclass of int, but True is not a coordinate
    for v in vals:
        if not isinstance(v, int) or isinstance(v, bool):
            raise TypeError(f"alpha coordinates must be integers, got {v!r}")


@lru_cache(maxsize=1 << 16, typed=True)
def kpf_q(m: int, n: int, k: int) -> QPoly:
    """q-analog of the partition function by the nested-sum formula.

    The loop bounds below make every admissible choice of composite-root
    multiplicities appear exactly once; an upper bound below the lower
    bound 0 simply contributes an empty sum.  Exponent tallies accumulate
    into a flat integer array rather than repeated polynomial addition.
    Values are memoized; the alternating sums evaluate the same small
    vectors over and over.
    """
    _check_int(m, n, k)
    if m < 0 or n < 0 or k < 0:
        return QPoly()
    total = m + n + k
    coeffs = [0] * (total + 1)
    for h in range(0, min(m // 2, n // 2, k) + 1):
        for g in range(0, min(m - 2 * h, (n - 2 * h) // 2, k - h) + 1):
            for f in range(0, min(m - 2 * h - g, n - 2 * h - 2 * g, k - h - g) + 1):
                for i in range(0, min((n - 2 * h - 2 * g - f) // 2, k - h - g - f) + 1):
                    for d in range(0, min(m - 2 * h - g - f, n - 2 * h - 2 * g - f - 2 * i) + 1):
                        e_max = min(n - 2 * h - 2 * g - f - 2 * i - d, k - h - g - f - i)
                        base = total - d - 2 * f - 3 * g - 4 * h - 2 * i
                        for e in range(0, e_max + 1):
                            coeffs[base - e] += 1
    return QPoly(tuple(coeffs))


# Enumeration order for the oracle: largest coefficient sum first, so that
# the remaining-vector bound prunes as early as possible.
_ORACLE_ROOTS = tuple(sorted(_POSITIVE_ROOTS, key=lambda r: -sum(r)))


def kpf_q_oracle(m: int, n: int, k: int) -> QPoly:
    """Reference value by brute force.

    Recursively chooses a multiplicity for each of the nine positive roots
    in turn, bounded coordinate-wise by what remains of (m, n, k), and
    tallies q^(number of parts) whenever the remainder reaches zero.
    """
    _check_int(m, n, k)
    if m < 0 or n < 0 or k < 0:
        return QPoly()
    coeffs = [0] * (m + n + k + 1)
    roots = _ORACLE_ROOTS
    last = len(roots) - 1

    def descend(idx: int, r1: int, r2: int, r3: int, parts: int):
        a1, a2, a3 = roots[idx]
        if idx == last:
            # The multiplicity of the final root is forced by the equality
            # constraint; it is admissible iff it consumes the remainder.
            if a1:
                c, rem = divmod(r1, a1)
            elif a2:
                c, rem = divmod(r2, a2)
            else:
                c, rem = divmod(r3, a3)
            if rem == 0 and r1 == c * a1 and r2 == c * a2 and r3 == c * a3:
                coeffs[parts + c] += 1
            return
        cap = r1 + r2 + r3
        if a1:
            cap = r1 // a1
        if a2:
            cap = min(cap, r2 // a2)
        if a3:
            cap = min(cap, r3 // a3)
        for c in range(cap + 1):
            descend(idx + 1, r1 - c * a1, r2 - c * a2, r3 - c * a3, parts + c)

    descend(0, m, n, k, 0)
    return QPoly(tuple(coeffs))


def kpf(m: int, n: int, k: int) -> int:
    """Kostant's partition function: kpf_q evaluated at q = 1."""
    return sum(kpf_q(m, n, k).coeffs)
