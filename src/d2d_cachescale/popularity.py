"""Zipf popularity model with exact tail-mass inversion.

The model is a truncated Zipf pmf over ranks 1..L with skewness tau.
Besides the pmf it exposes the popularity tail mass f(x): the probability
mass of all ranks at or beyond a (possibly fractional) rank x, linearly
interpolated between integer ranks. Every capacity constraint downstream
charges traffic through f, so both f and its inverse are computed exactly
(per-segment linear inversion) rather than approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError, SizeGuardError


# Ranks per chunk of the Zipf build: the scratch (two float64 and one
# extended-precision buffer of this length, about 1 MiB) stays in cache.
CHUNK_RANKS = 1 << 15

# Largest library the model is built for: at 16 bytes per rank, about 1.1 GB.
MAX_RANKS = 1 << 26


@dataclass(frozen=True)
class PopularityModel:
    """Truncated Zipf popularity over ranks 1..L.

    pmf[l] is the request probability of rank l (pmf[0] is unused and 0).
    suffix_mass[k] is the mass of ranks k+1..L, so 1 - suffix_mass[k] is
    the mass of ranks 1..k; suffix_mass[L] = 0 exactly. The model holds no
    per-rank prefix array: the simulator reads 1 - suffix_mass at the M
    level boundaries only. Arrays are read-only so instances can be shared
    between callers.
    """

    L: int
    tau: float
    z: float
    pmf: np.ndarray
    suffix_mass: np.ndarray


def zipf_pmf(L: int, tau: float) -> PopularityModel:
    """Build the Zipf model p_l = l^{-tau} / Z_tau(L) over ranks 1..L.

    Normalisation and suffix masses are accumulated in extended precision,
    summing from the tail (smallest terms first), so suffix masses stay
    within 1e-12 of exact for L up to 1e7.

    The build holds only the two returned float64 arrays plus one chunk of
    CHUNK_RANKS ranks of scratch. Pass 1 walks the chunks from the tail
    end, writes each chunk's weights into pmf, and accumulates them onto
    the carry (the extended-precision sum of all later ranks), recording
    the carry each chunk starts from; the last carry is Z. Pass 2
    re-accumulates each chunk from its recorded carry, divides by Z and
    writes suffix_mass, then divides the chunk's weights by Z in place.
    Extended-precision accumulation is strictly sequential, so seeding
    each chunk with its carry reproduces one cumulative sum over all L
    ranks term for term: the result is bit-identical to building every
    array at full length.

    Raises SizeGuardError, before allocating, when L exceeds MAX_RANKS,
    and DomainError when the probability of rank L rounds to 0.0 (large
    tau): the solvers invert the tail mass, which must decrease strictly
    over every rank.
    """
    if not isinstance(L, (int, np.integer)) or isinstance(L, bool) or L < 1:
        raise InvalidParameterError(f"file count must be a positive integer, got {L!r}")
    if not (isinstance(tau, (int, float)) and math.isfinite(tau)) or tau < 0:
        raise InvalidParameterError(f"skewness must be a finite real >= 0, got {tau!r}")
    L = int(L)
    if L > MAX_RANKS:
        raise SizeGuardError(f"{L} files exceed the Zipf model guard of {MAX_RANKS} ranks")
    pmf = np.empty(L + 1)
    suffix = np.empty(L + 1)
    pmf[0] = suffix[L] = 0.0
    acc = np.empty(min(L, CHUNK_RANKS) + 1, dtype=np.longdouble)
    # Chunk (lo, hi] holds ranks lo+1..hi: pmf[lo+1:hi+1] and suffix[lo:hi].
    chunks = []
    carry = np.longdouble(0.0)
    for hi in range(L, 0, -CHUNK_RANKS):
        lo = max(hi - CHUNK_RANKS, 0)
        ranks = np.arange(lo + 1, hi + 1, dtype=np.float64)
        pmf[lo + 1:hi + 1] = ranks ** (-float(tau))
        chunks.append((lo, hi, carry))
        carry = _accumulate(acc, carry, pmf, lo, hi)[-1]
    z = carry
    for lo, hi, carry in chunks:
        run = _accumulate(acc, carry, pmf, lo, hi)
        run /= z
        suffix[lo:hi] = run[::-1]
        scaled = acc[:hi - lo]
        scaled[:] = pmf[lo + 1:hi + 1]
        scaled /= z
        pmf[lo + 1:hi + 1] = scaled
    if pmf[L] == 0.0:
        raise DomainError(
            f"skewness {tau!r} leaves rank L = {L} with zero probability in double precision")
    pmf.setflags(write=False)
    suffix.setflags(write=False)
    return PopularityModel(L=L, tau=float(tau), z=float(z), pmf=pmf, suffix_mass=suffix)


def _accumulate(acc: np.ndarray, carry: np.longdouble, pmf: np.ndarray,
                lo: int, hi: int) -> np.ndarray:
    """Running tail sums of the chunk's weights, seeded with `carry`.

    Returns a view of `acc` whose entry j is the sum of the weights of
    ranks hi-j..L, for j = 0..hi-lo-1: the chunk's tail sums in reverse
    rank order.
    """
    run = acc[:hi - lo + 1]
    run[0] = carry
    run[1:] = pmf[hi:lo:-1]
    np.add.accumulate(run, out=run)
    return run[1:]


def tail_mass(model: PopularityModel, x: float) -> float:
    """Popularity tail mass f(x) for x in [1, L + 1].

    f is piecewise linear with breakpoints at integer ranks, strictly
    decreasing from f(1) = 1 to f(L + 1) = 0; at an integer k it equals
    the mass of ranks >= k.
    """
    L = model.L
    if not 1.0 <= x <= L + 1:
        raise DomainError(f"tail-mass argument must lie in [1, {L + 1}], got {x!r}")
    k = math.floor(x)
    if k == x:
        return float(model.suffix_mass[int(x) - 1])
    return (k + 1 - x) * float(model.pmf[k]) + float(model.suffix_mass[k])


def tail_inverse(model: PopularityModel, y: float) -> float:
    """Exact inverse of tail_mass, by binary search over integer breakpoints.

    Arguments y >= 1 clamp to rank 1: capacity-to-rate ratios above one
    mean the corresponding constraint is inactive, and the inverse is
    pinned at the left edge of its domain.
    """
    if y < 0:
        raise DomainError(f"tail mass must be >= 0, got {y!r}")
    return bracketed_tail_inverse(memoryview(model.suffix_mass), memoryview(model.pmf),
                                  y, 0, model.L)[0]


def bracketed_tail_inverse(suffix, pmf, y: float, lo: int, hi: int) -> tuple[float, int]:
    """tail_inverse of y >= 0 over the arrays of a model, and y's tail index.

    The search runs in [lo, hi], a bracket the caller vouches for as in
    tail_index; [0, L] always qualifies. A clamped y reports index 0
    (y >= 1) or L - 1 (y = 0), the ends of any later bracket.
    """
    if y >= 1.0:
        return 1.0, 0
    if y <= 0.0:
        L = len(suffix) - 1
        return float(L + 1), L - 1
    i = tail_index(suffix, y, lo, hi)
    k = i + 1
    x = (k + 1) - (y - suffix[k]) / pmf[k]
    return min(max(x, float(k)), float(k + 1)), i


def tail_index(suffix, y: float, lo: int, hi: int) -> int:
    """Largest i with suffix[i] >= y, by bisection inside [lo, hi].

    The caller vouches for the bracket: suffix[lo] >= y > suffix[hi]. For
    0 < y < 1 the full bracket [0, L] qualifies, since suffix[0] = 1 and
    suffix[L] = 0. Pass suffix as a memoryview: its reads are Python
    floats, without a NumPy scalar per probe.
    """
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if suffix[mid] >= y:
            lo = mid
        else:
            hi = mid
    return lo
