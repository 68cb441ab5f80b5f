"""Zipf popularity model with exact tail-mass inversion.

The model is a truncated Zipf pmf over ranks 1..L with skewness tau. The
popularity tail mass f(x) is the probability mass of all ranks at or
beyond a (possibly fractional) rank x, linearly interpolated between
integer ranks. Every capacity constraint downstream charges traffic
through f, so its inverse, tail_inverse, is computed exactly
(per-segment linear inversion) rather than approximated; at integer
ranks f is the suffix mass, which the solvers read directly. The model
stores one per-rank array, the suffix masses; a rank's probability is
computed from tau and the extended-precision normaliser in blocks of
ranks, each on its first read. The two integer searches over the suffix
mass also live here, each one standard-library bisect call with a C key
function: bracketed_tail_inverse's tail index for the relaxation and
threshold_indices for the exact solver.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DomainError, InvalidParameterError, SizeGuardError


# Ranks per chunk of the Zipf build: the scratch (one float64 and one
# extended-precision buffer of this length, about 1 MiB) stays in cache.
CHUNK_RANKS = 1 << 15

# Ranks per block of the probability table: block b holds p(k) for
# k = b * BLOCK_RANKS .. (b + 1) * BLOCK_RANKS - 1, 32 KiB of float64.
BLOCK_SHIFT = 12
BLOCK_RANKS = 1 << BLOCK_SHIFT
_BLOCK_MASK = BLOCK_RANKS - 1

# Largest library the model is built for: at 8 bytes per rank of suffix
# mass, plus the probability blocks read so far, about 0.5 GB.
MAX_RANKS = 1 << 26


@dataclass(frozen=True)
class PopularityModel:
    """Truncated Zipf popularity over ranks 1..L.

    suffix_mass[k] is the mass of ranks k+1..L, so 1 - suffix_mass[k] is
    the mass of ranks 1..k; suffix_mass[L] = 0 exactly. It is the only
    per-rank array: z is the normaliser Z_tau(L) in extended precision,
    and p(k) is k^{-tau} / z rounded to float64, computed a block of
    BLOCK_RANKS ranks at a time on the block's first read and kept. The
    block is computed with the build's own operations (a vectorised pow,
    an extended-precision division, a cast), so p(k) has the bits the
    build's weights divided by z would have. The array is read-only and
    filled blocks never change, so instances can be shared between
    callers.

    This module owns that storage: the solvers read it only through p(k),
    suffix(k) and the searches below. The point reads go through
    read-only memoryviews, so each returns a Python float (the entry's
    bits) without a NumPy scalar per read.
    """

    L: int
    tau: float
    z: np.longdouble
    suffix_mass: np.ndarray
    _suffix: memoryview = field(init=False, repr=False, compare=False)
    _blocks: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_suffix", memoryview(self.suffix_mass).toreadonly())
        object.__setattr__(self, "_blocks", [None] * ((self.L >> BLOCK_SHIFT) + 1))

    def p(self, k: int) -> float:
        """Request probability of rank k, for k = 1..L (0.0 at k = 0)."""
        block = self._blocks[k >> BLOCK_SHIFT]
        if block is None:
            block = self._fill_block(k >> BLOCK_SHIFT)
        return block[k & _BLOCK_MASK]

    def suffix(self, k: int) -> float:
        """Mass of ranks k+1..L, for k = 0..L: 1.0 at k = 0 and 0.0 at k = L."""
        return self._suffix[k]

    def _fill_block(self, b: int) -> memoryview:
        """Compute, keep and return block b of the probability table."""
        start = b << BLOCK_SHIFT
        stop = min(start + BLOCK_RANKS, self.L + 1)
        first = max(start, 1)  # rank 0 has no weight: p(0) = 0.0
        block = np.zeros(stop - start)
        weights = np.arange(first, stop, dtype=np.float64) ** (-self.tau)
        block[first - start:] = weights.astype(np.longdouble) / self.z
        view = memoryview(block).toreadonly()
        self._blocks[b] = view
        return view


def zipf_pmf(L: int, tau: float) -> PopularityModel:
    """Build the Zipf model p_l = l^{-tau} / Z_tau(L) over ranks 1..L.

    Normalisation and suffix masses are accumulated in extended precision,
    summing from the tail (smallest terms first), so suffix masses stay
    within 1e-12 of exact for L up to 1e7.

    The build holds only the returned float64 suffix array plus one chunk
    of CHUNK_RANKS ranks of scratch. Pass 1 walks the chunks from the tail
    end, writes rank j's weight j^{-tau} into suffix_mass[j-1], and
    accumulates each chunk's weights onto the carry (the extended-precision
    sum of all later ranks), recording the carry each chunk starts from;
    the last carry is Z. Pass 2 copies each chunk's weights into the
    extended-precision scratch, re-accumulates them from the recorded
    carry, divides by Z and writes the chunk's suffix masses over its
    weights. Extended-precision accumulation is strictly sequential, so
    seeding each chunk with its carry reproduces one cumulative sum over
    all L ranks term for term: the result is bit-identical to building
    every array at full length. The probabilities themselves are not
    stored; PopularityModel.p computes them from tau and Z.

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
    suffix = np.empty(L + 1)
    suffix[L] = 0.0
    acc = np.empty(min(L, CHUNK_RANKS) + 1, dtype=np.longdouble)
    # Chunk (lo, hi] holds ranks lo+1..hi: their weights, then their suffix
    # masses, in suffix[lo:hi].
    chunks = []
    carry = np.longdouble(0.0)
    for hi in range(L, 0, -CHUNK_RANKS):
        lo = max(hi - CHUNK_RANKS, 0)
        suffix[lo:hi] = np.arange(lo + 1, hi + 1, dtype=np.float64) ** (-float(tau))
        chunks.append((lo, hi, carry))
        carry = _accumulate(acc, carry, suffix[lo:hi])[-1]
    z = carry
    # p(L) as PopularityModel.p computes it, from rank L's weight in suffix[L-1]
    if float(np.longdouble(suffix[L - 1]) / z) == 0.0:
        raise DomainError(
            f"skewness {tau!r} leaves rank L = {L} with zero probability in double precision")
    for lo, hi, carry in chunks:
        run = _accumulate(acc, carry, suffix[lo:hi])
        run /= z
        suffix[lo:hi] = run[::-1]
    suffix.setflags(write=False)
    return PopularityModel(L=L, tau=float(tau), z=z, suffix_mass=suffix)


def _accumulate(acc: np.ndarray, carry: np.longdouble, weights: np.ndarray) -> np.ndarray:
    """Running tail sums of a chunk's weights (in rank order), seeded with `carry`.

    Copies the weights into `acc` and returns a view of it whose entry j
    is carry plus the chunk's last j+1 weights, for j = 0..len(weights)-1:
    the chunk's tail sums in reverse rank order.
    """
    run = acc[:len(weights) + 1]
    run[0] = carry
    run[1:] = weights[::-1]
    np.add.accumulate(run, out=run)
    return run[1:]


def tail_inverse(model: PopularityModel, y: float) -> float:
    """Exact inverse of the tail mass f, by binary search over integer breakpoints.

    Arguments y >= 1 clamp to rank 1: capacity-to-rate ratios above one
    mean the corresponding constraint is inactive, and the inverse is
    pinned at the left edge of its domain.
    """
    if not y >= 0:
        raise DomainError(f"tail mass must be >= 0, got {y!r}")
    return bracketed_tail_inverse(model, y, 0, model.L)[0]


def bracketed_tail_inverse(model: PopularityModel, y: float, lo: int,
                           hi: int) -> tuple[float, int]:
    """tail_inverse of y >= 0, and y's tail index: the largest i with
    suffix(i) >= y, found by bisection inside [lo, hi].

    For 0 < y < 1 the caller vouches for the bracket: suffix(lo) >= y >
    suffix(hi). The full bracket [0, L] always qualifies, since suffix(0)
    = 1 and suffix(L) = 0. A clamped y reports index 0 (y >= 1) or L - 1
    (y = 0), the ends of any later bracket.

    This is the relaxation's per-level hot path: bisect_right with the C
    key operator.neg (exact) finds the first i in (lo, hi) with
    suffix(i) < y, one past the tail index, and p(k) is read inline.
    """
    if y >= 1.0:
        return 1.0, 0
    if y <= 0.0:
        L = model.L
        return float(L + 1), L - 1
    suffix = model._suffix
    k = bisect_right(suffix, -y, lo + 1, hi, key=operator.neg)
    block = model._blocks[k >> BLOCK_SHIFT]
    if block is None:
        block = model._fill_block(k >> BLOCK_SHIFT)
    x = (k + 1) - (y - suffix[k]) / block[k & _BLOCK_MASK]
    return min(max(x, float(k)), float(k + 1)), k - 1


def threshold_indices(model: PopularityModel, r: float, caps: list[float],
                      t_lo: list[int], t_hi: list[int]) -> list[int]:
    """For each level m, the smallest t with suffix(t) * r <= caps[m].

    suffix is non-increasing and, for r >= 0, so is the rounded product
    suffix(t) * r, so the test is monotone in t. Level m is searched in
    [t_lo[m], t_hi[m]]: the caller vouches that t_hi[m] passes and no t
    below t_lo[m] does, as [0, L] always does (suffix(L) = 0). The C key
    (-r) * s is exactly -(s * r) under round-to-nearest, so bisect_left's
    first t with key >= -c is the first pass. The scan stops at the first
    level whose threshold is L; the later levels keep their t_hi entry.
    """
    suffix, L = model._suffix, model.L
    key = partial(operator.mul, -r)
    thresholds = list(t_hi)
    for m, c in enumerate(caps):
        t = thresholds[m] = bisect_left(suffix, -c, t_lo[m], t_hi[m], key=key)
        if t >= L:
            break
    return thresholds
