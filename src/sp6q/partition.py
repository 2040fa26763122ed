"""The q-analog of Kostant's partition function for sp6(C).

For mu = m*a1 + n*a2 + k*a3 with integer coordinates, the coefficient of
q^j in kpf_q(m, n, k) counts the ways to write mu as a sum of exactly j
positive roots.  Two independent implementations are provided:

  - kpf_q: the nested-sum formula.  Every decomposition is determined
    by the multiplicities (d, e, f, g, h, i) of the six composite roots
    a1+a2, a2+a3, a1+a2+a3, a1+2a2+a3, 2a1+2a2+a3 and 2a2+a3; the
    simple-root multiplicities are then forced, and the number of parts
    used is m+n+k - d - e - 2f - 3g - 4h - 2i.  One loop over i, the other
    sums closed, counts those with g = h = 0, K_0.  Peeling the dominant
    roots gamma = a1+2a2+a3 and theta = 2a1+2a2+a3 from prod 1/(1 - q x^alpha)
    gives K(v) = K_0(v) + q K(v-gamma) + q K(v-theta) - q^2 K(v-gamma-theta).
    The kernel, kpf_packed, caches each value packed (qpoly.pack), as one
    int, so the identity's three peels are one big-int expression, and
    kpf_q unpacks its value.

  - kpf_q_oracle: exhaustive enumeration of the multiplicities of the
    six positive roots other than a1, a2, a3, which then take the
    remainder, sharing nothing with kpf_q beyond the root list.  It is
    the ground-truth reference the formula is tested against.

Both are total: any negative coordinate gives the zero polynomial.
Half-integral vectors are rejected by the integer signature; callers
decide integrality beforehand (see multiplicity.root_lattice_parity).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import add

from .qpoly import PACK_BITS, QPoly, pack, unpack
from .root_system import POSITIVE_ROOTS

# Largest m+n+k kpf_q accepts; its time grows about as the third power.  Above
# 660, the identity term of m_q((60,60,60), 0); the slowest vectors of this
# height, such as (210, 315, 175), take about 1 s and 60 MB on a 2-core host.
# Packed sums of kpf values decode exactly while 48 comb(KPF_MAX_HEIGHT // 2 + 6, 6)
# stays below 2**63 (qpoly), up to a height of about 4,500.
KPF_MAX_HEIGHT = 700
# Largest m+n+k kpf_q_oracle accepts; its time grows about as the fifth
# power.  At this height (25, 25, 25) takes about 0.08 s and the slowest
# vectors, such as (21, 33, 21), 0.14-0.18 s on a 2-core host.
KPF_ORACLE_MAX_HEIGHT = 75


def _check_int(*vals):
    # exactly int: bool is a subclass of int, but True is not a coordinate
    for v in vals:
        if type(v) is not int:
            raise TypeError(f"alpha coordinates must be integers, got {v!r}")


def kpf_q(m: int, n: int, k: int) -> QPoly:
    """q-analog of the partition function by the nested-sum formula:
    kpf_packed's value, unpacked; it raises what kpf_packed raises.  kpf_q
    keeps no cache of its own, so kpf_q.cache_clear and kpf_q.cache_info
    are the kernel's."""
    return unpack(kpf_packed(m, n, k))


@lru_cache(maxsize=1 << 16, typed=True)
def kpf_packed(m: int, n: int, k: int) -> int:
    """kpf_q(m, n, k) packed (qpoly.pack): the value at q = 2**PACK_BITS.

    With a0 = n-2i, c0 = k-i, d0 = min(m, a0) and b = m+n+k-2i, K_0 adds 1
    to each exponent in [b-2f-d-min(a0-f-d, c0-f), b-2f-d] for d = 0..d0-f,
    f = 0..min(d0, c0): lower ends b-c0-f-d for d <= a0-c0, m+k-f above, so
    f >= f* = d0-a0+c0 has only the first.  Each end is a run over f of
    stride 1 (third differences), stride 2 (all of the parity of m+n+k) or
    one position: a few updates per i, then prefix sums.  The other terms
    come through the same cache, at most KPF_MAX_HEIGHT // 4 = 175 deep.

    A whole q-character asks for no vector outside its own terms: if
    v = sigma(lam+rho) - rho - mu >= gamma, then v - gamma is the term of
    (lam, mu + gamma), and mu + gamma is dominant (gamma = omega2) and at
    most sigma(lam+rho) - rho <= lam; likewise for theta = 2 omega1.  A cold
    isolated vector instead caches every nonnegative v - j theta - l gamma.

    This cache is the only memo: cache_clear() makes every vector cold.
    It bounds entries, not bytes, and maxsize 65,536 is what measured
    traffic needs: from a cold cache, kpf_q(210, 315, 175) leaves 9,805
    entries (26 MB), and mult_q_direct((60, 60, 60), (0, 0, 0)), the m_q
    KPF_MAX_HEIGHT is sized for, leaves 36,421 (95 MB; both by tracemalloc).
    An entry at the height bound is one int of 701 64-bit digits, 6,000
    bytes (sys.getsizeof), so a full cache of such entries would hold about
    390 MB; with a tuple of 701 ints it was about 28 KB and 1.9 GB.
    Arguments must be Python ints, exactly: bool, float and numpy integers
    raise TypeError.  The check runs on a miss, and typed=True keys 1.0 or
    True apart from 1, so such an argument always misses.
    A nonnegative vector with m+n+k above KPF_MAX_HEIGHT raises ValueError.
    """
    _check_int(m, n, k)
    if m < 0 or n < 0 or k < 0:
        return 0
    total = m + n + k
    if total > KPF_MAX_HEIGHT:
        raise ValueError(f"kpf_q height m+n+k = {total} exceeds the bound {KPF_MAX_HEIGHT}")
    # third differences of the coefficients, which come out 0 past total, and
    # the stride-2 runs of the second; mk2 and mk3 collect updates at m+k+1
    d3, runs2 = [0] * (total + 3), [0] * (total + 5)
    mk, mk2, mk3 = m + k, 0, 0
    for i in range(min(n // 2, k) + 1):
        a0, c0, b = n - 2 * i, k - i, mk + n - 2 * i
        d0 = m if m < a0 else a0
        top = d0 if d0 < c0 else c0
        # upper ends: b+1-d0-f and b+2-2f open, f = 0..top
        d3[b + 1 - d0 - top] -= 1
        d3[b + 2 - d0] += 1
        runs2[b + 2 - 2 * top] += 1
        runs2[b + 4] -= 1
        if a0 < c0:
            # every lower end is m+k-f: the ramp d0+1-f of first differences
            d3[mk - top] += 1
            mk3 -= 1
            mk2 -= top + 1
        else:
            # b-c0+1-f closes; b-c0-d0 opens for f >= f*, m+k-f (ramp f*-f) below
            d3[b - c0 + 1 - top] -= 1
            d3[b - c0 + 2] += 1
            fs = d0 - a0 + c0
            if fs < 0:
                fs = 0
            d3[b - c0 - d0] += top + 1 - fs
            d3[b - c0 - d0 + 1] -= top + 1 - fs
            d3[mk + 1 - fs] += 2
            mk3 -= 2
            mk2 -= fs
    d3[mk + 1] += mk3 + mk2
    d3[mk + 2] -= mk2
    runs2[total & 1::2] = accumulate(runs2[total & 1::2])
    value = pack(list(accumulate(accumulate(map(add, accumulate(d3), runs2)))))
    # the decompositions with g + h >= 1, through the same cache; v - theta
    # and v - gamma - theta lie below v - gamma, and a negative one is 0
    # without a call, so that it takes no cache entry
    if m >= 1 and n >= 2 and k >= 1:
        theta = kpf_packed(m - 2, n - 2, k - 1) if m >= 2 else 0
        both = kpf_packed(m - 3, n - 4, k - 2) if m >= 3 and n >= 4 and k >= 2 else 0
        value += (kpf_packed(m - 1, n - 2, k - 1) + theta - (both << PACK_BITS)) << PACK_BITS
    return value


kpf_q.cache_clear = kpf_packed.cache_clear
kpf_q.cache_info = kpf_packed.cache_info


def kpf_q_oracle(m: int, n: int, k: int) -> QPoly:
    """Reference value by brute force.

    Recursively chooses a multiplicity for each of the six positive roots
    with coefficient sum above 1, bounded coordinate-wise by what remains
    of (m, n, k).  The simple roots a1, a2, a3 are a basis, so a remainder
    (r1, r2, r3) that is nonnegative in every coordinate is taken by them
    in exactly one way: each choice of p parts tallies q^(p + r1 + r2 + r3).
    A nonnegative vector with m+n+k above KPF_ORACLE_MAX_HEIGHT raises
    ValueError.
    """
    _check_int(m, n, k)
    if m < 0 or n < 0 or k < 0:
        return QPoly()
    if m + n + k > KPF_ORACLE_MAX_HEIGHT:
        raise ValueError(f"kpf_q_oracle height m+n+k = {m + n + k} exceeds the bound {KPF_ORACLE_MAX_HEIGHT}")
    coeffs = [0] * (m + n + k + 1)
    roots = [r for r in POSITIVE_ROOTS if sum(r) > 1]

    def descend(idx: int, r1: int, r2: int, r3: int, parts: int):
        if idx == len(roots):
            coeffs[parts + r1 + r2 + r3] += 1
            return
        a1, a2, a3 = roots[idx]
        while r1 >= 0 and r2 >= 0 and r3 >= 0:
            descend(idx + 1, r1, r2, r3, parts)
            r1, r2, r3, parts = r1 - a1, r2 - a2, r3 - a3, parts + 1

    descend(0, m, n, k, 0)
    return QPoly(tuple(coeffs))
