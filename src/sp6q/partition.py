"""The q-analog of Kostant's partition function for sp6(C).

For mu = m*a1 + n*a2 + k*a3 with integer coordinates, the coefficient of
q^j in kpf_q(m, n, k) counts the ways to write mu as a sum of exactly j
positive roots.  Two independent implementations are provided:

  - kpf_q: the nested-sum formula.  Every decomposition is determined
    by the multiplicities (d, e, f, g, h, i) of the six composite roots
    a1+a2, a2+a3, a1+a2+a3, a1+2a2+a3, 2a1+2a2+a3 and 2a2+a3; the
    simple-root multiplicities are then forced, and the number of parts
    used is m+n+k - d - e - 2f - 3g - 4h - 2i.  Three loops run over
    (g, f, i) with h = 0, and the d and e sums are done in closed form
    with difference arrays.  The decompositions with h >= 1 are q times
    those of mu minus the highest root 2a1+2a2+a3, which one cached
    recursive call supplies: K(v) = K_{h=0}(v) + q K(v - (2,2,1)).

  - kpf_q_oracle: exhaustive enumeration of all nine multiplicities,
    sharing nothing with kpf_q beyond the root list.  It is the
    ground-truth reference the formula is tested against.

Both are total: any negative coordinate gives the zero polynomial.
Half-integral vectors are rejected by the integer signature; callers
decide integrality beforehand (see multiplicity.root_lattice_parity).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import add

from .qpoly import QPoly
from .root_system import _POSITIVE_ROOTS

AlphaTriple = tuple[int, int, int]

# Largest m+n+k kpf_q accepts; its time grows as the fourth power.  Above
# 660, the identity term of m_q((60,60,60), 0); the slowest vectors of this
# height, such as (210, 315, 175), take about 21 s on a 2-core host.
KPF_MAX_HEIGHT = 700
# Largest m+n+k kpf_q_oracle accepts; its time grows about as the seventh
# power.  At this height (25, 25, 25) takes about 6 s and the slowest
# vectors, such as (30, 30, 15), about 17 s on a 2-core host.
KPF_ORACLE_MAX_HEIGHT = 75


def _check_int(*vals):
    # bool is a subclass of int, but True is not a coordinate
    for v in vals:
        if not isinstance(v, int) or isinstance(v, bool):
            raise TypeError(f"alpha coordinates must be integers, got {v!r}")


@lru_cache(maxsize=1 << 16, typed=True)
def kpf_q(m: int, n: int, k: int) -> QPoly:
    """q-analog of the partition function by the nested-sum formula.

    The decompositions that do not use the highest root (h = 0) come from
    three loops over the multiplicities (g, f, i); the loop bounds make
    every admissible choice appear exactly once.  With A = n-2g-f-2i,
    C = k-g-f-i and b0 = m+n+k-2f-3g-2i, the remaining d and e loops would
    add 1 to every exponent in [b0-d-min(A-d, C), b0-d] for
    d = 0..min(m-g-f, A).  Those intervals are summed in closed form:
    the upper ends form one contiguous run, the lower ends form one run
    while d <= A-C and stay at b0-A after that, so each (g, f, i) costs a
    few updates of a second-order and a first-order difference array, and
    two prefix sums give the coefficients.  The decompositions with h >= 1
    are one highest root plus any decomposition of the rest, so
    q * kpf_q(m-2, n-2, k-1) is added through the same cache.  Each link
    lowers the height by 5, so the recursion is at most
    KPF_MAX_HEIGHT // 5 = 140 calls deep.  A cold vector does the same
    loop work as a fourth loop over h would, and leaves every link of its
    chain cached.

    Values are memoized, and this cache is the only memo: cache_clear()
    makes every vector cold again.  The alternating sums evaluate the same
    vectors, and vectors one highest root apart, over and over.  Arguments
    must be Python ints: bool and numpy integers are rejected, since with
    typed=True an np.int64 key would be a separate cache entry for the
    same vector.  A nonnegative vector with m+n+k above KPF_MAX_HEIGHT
    raises ValueError.
    """
    _check_int(m, n, k)
    if m < 0 or n < 0 or k < 0:
        return QPoly()
    total = m + n + k
    if total > KPF_MAX_HEIGHT:
        raise ValueError(f"kpf_q height m+n+k = {total} exceeds the bound {KPF_MAX_HEIGHT}")
    # second-order and first-order differences of the coefficients
    diff2 = [0] * (total + 3)
    diff1 = [0] * (total + 1)
    for g in range(min(m, n // 2, k) + 1):
        mg, ng, kg, bg = m - g, n - 2 * g, k - g, total - 3 * g
        for f in range(min(mg, ng, kg) + 1):
            mf, nf, kf, bf = mg - f, ng - f, kg - f, bg - 2 * f
            for i in range(min(nf // 2, kf) + 1):
                a = nf - 2 * i
                c = kf - i
                b0 = bf - 2 * i
                dmax = mf if mf < a else a
                # upper ends b0-d, d = 0..dmax
                diff2[b0 + 1 - dmax] -= 1
                diff2[b0 + 2] += 1
                if a < c:
                    # every lower end is b0-a
                    diff1[b0 - a] += dmax + 1
                elif a - c >= dmax:
                    # every lower end is b0-c-d
                    diff2[b0 - c - dmax] += 1
                    diff2[b0 - c + 1] -= 1
                else:
                    # b0-c-d for d <= a-c, then b0-a for the rest
                    diff2[b0 - a] += 1
                    diff2[b0 - c + 1] -= 1
                    diff1[b0 - a] += dmax - a + c
    # map stops at the end of diff1, so exponents above total are dropped
    coeffs = list(accumulate(map(add, accumulate(diff2), diff1)))
    if m >= 2 and n >= 2 and k >= 1:
        # the decompositions with h >= 1: one 2a1+2a2+a3 plus any decomposition of the rest
        for e, c in enumerate(kpf_q(m - 2, n - 2, k - 1).coeffs, 1):
            coeffs[e] += c
    return QPoly(tuple(coeffs))


# Enumeration order for the oracle: largest coefficient sum first, so that
# the remaining-vector bound prunes as early as possible.
_ORACLE_ROOTS = tuple(sorted(_POSITIVE_ROOTS, key=lambda r: -sum(r)))


def kpf_q_oracle(m: int, n: int, k: int) -> QPoly:
    """Reference value by brute force.

    Recursively chooses a multiplicity for each of the nine positive roots
    in turn, bounded coordinate-wise by what remains of (m, n, k), and
    tallies q^(number of parts) whenever the remainder reaches zero.  A
    nonnegative vector with m+n+k above KPF_ORACLE_MAX_HEIGHT raises
    ValueError.
    """
    _check_int(m, n, k)
    if m < 0 or n < 0 or k < 0:
        return QPoly()
    if m + n + k > KPF_ORACLE_MAX_HEIGHT:
        raise ValueError(f"kpf_q_oracle height m+n+k = {m + n + k} exceeds the bound {KPF_ORACLE_MAX_HEIGHT}")
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
