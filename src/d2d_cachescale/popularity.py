"""Zipf popularity model with exact tail-mass inversion.

The model is a truncated Zipf pmf over ranks 1..L with skewness tau. The
popularity tail mass f(x) is the probability mass of all ranks at or
beyond a (possibly fractional) rank x, linearly interpolated between
integer ranks. Every capacity constraint downstream charges traffic
through f, so its inverse, tail_inverse, is computed exactly
(per-segment linear inversion) rather than approximated; at integer
ranks f is the suffix mass, which the solvers read directly. The model
stores no per-rank array: the build samples its extended-precision
running sum every BLOCK_RANKS ranks, and one block table holds the
blocks of suffix masses and probabilities, each computed by one method
from the sample at its upper edge on the block's first read.
Reads outside ranks 0..L are refused. The two integer searches over the
suffix mass also live here, each a standard-library bisect call with a C
key function over one block, after one over the block edges when the
bracket spans blocks: tail_inverse, which returns the inverse with its
tail index for the relaxation, and threshold_indices for the exact
solver.
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

# Ranks per block of the model: block b holds p(k) and suffix(k) for
# k = b * BLOCK_RANKS .. (b + 1) * BLOCK_RANKS, 64 KiB of float64; the
# last entry repeats the first of block b + 1, so that a search whose
# answer sits on a block edge reads one block.
BLOCK_SHIFT = 12
BLOCK_RANKS = 1 << BLOCK_SHIFT
_BLOCK_MASK = BLOCK_RANKS - 1

# Largest library the model is built for: the build walks every rank once
# (about 2 s at 2^27 ranks), and keeps 24 B per block plus the blocks read.
MAX_RANKS = 1 << 27


@dataclass(frozen=True)
class PopularityModel:
    """Truncated Zipf popularity over ranks 1..L.

    suffix(k) is the mass of ranks k+1..L, so 1 - suffix(k) is the mass of
    ranks 1..k; suffix(L) = 0 exactly. z is the normaliser Z_tau(L) in
    extended precision, p(k) is k^{-tau} / z rounded to float64, and
    suffix(k) is the extended-precision sum of the weights of ranks L down
    to k+1, divided by z and rounded. The model stores no per-rank array:
    carries[b] is that running sum at rank b * BLOCK_RANKS (z at b = 0, and
    0 from L on), and the boundary masses carries / z, rounded, are the
    suffix masses at the block edges. Blocks of suffix and p live in one
    table, each pair filled only by _fill on the block's first read and
    kept: one vectorised pow over its ranks, the weights divided by z, and
    the weights added onto carries[b + 1] in the build's order. The
    extended-precision sum is one strictly sequential sum, so seeding it
    with a sampled carry reproduces every partial sum of the build term
    for term, and every entry has the bits the dense build would give it.
    Filled blocks never change, so instances can be shared between callers;
    (L, tau, z), which fix every bit, decide equality and the hash.

    This module owns that storage: the solvers read it only through p(k),
    suffix(k) and the searches below. Reads outside ranks 0..L raise
    DomainError, and a rank that is not an integer (a float, even a
    whole one) raises InvalidParameterError. The reads go through
    read-only memoryviews, so each returns a Python float (the entry's
    bits) without a NumPy scalar per read.
    """

    L: int
    tau: float
    z: np.longdouble
    carries: np.ndarray = field(compare=False)
    _edges: memoryview = field(init=False, repr=False, compare=False)
    _blocks: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        edges = (self.carries / self.z).astype(np.float64)
        object.__setattr__(self, "_edges", memoryview(edges).toreadonly())
        object.__setattr__(self, "_blocks", [None] * ((self.L >> BLOCK_SHIFT) + 1))

    def p(self, k: int) -> float:
        """Request probability of rank k, for k = 1..L (0.0 at k = 0)."""
        try:
            b, j = k >> BLOCK_SHIFT, k & _BLOCK_MASK
        except TypeError:
            raise _rank_error(k, self.L) from None
        if not 0 <= k <= self.L:
            raise _rank_error(k, self.L)
        return (self._blocks[b] or self._fill(b))[1][j]

    def suffix(self, k: int) -> float:
        """Mass of ranks k+1..L, for k = 0..L: 1.0 at k = 0 and 0.0 at k = L.
        A block edge is read from the edge masses and fills no block."""
        try:
            b, j = k >> BLOCK_SHIFT, k & _BLOCK_MASK
        except TypeError:
            raise _rank_error(k, self.L) from None
        if not 0 <= k <= self.L:
            raise _rank_error(k, self.L)
        if not j:
            return self._edges[b]
        return (self._blocks[b] or self._fill(b))[0][j]

    def _fill(self, b: int) -> tuple[memoryview, memoryview]:
        """Compute, keep and return block b's (suffix, p) pair: read-only
        memoryviews over ranks b * BLOCK_RANKS .. min((b + 1) * BLOCK_RANKS,
        L), from carries[b + 1]. The only code that computes a block."""
        L, z = self.L, self.z
        if not 0 <= b <= L >> BLOCK_SHIFT:
            raise DomainError(f"block must lie in 0..{L >> BLOCK_SHIFT}, got {b!r}")
        start = b << BLOCK_SHIFT
        stop = min(start + BLOCK_RANKS, L)  # the block's last rank
        first = max(start, 1)  # rank 0 has no weight: p(0) = 0.0
        weights = _weights(first, stop, self.tau)
        p = np.zeros(stop - start + 1)
        p[first - start:] = weights.astype(np.longdouble) / z
        # ranks stop down to start + 1 onto the mass of the ranks past stop
        run = _accumulate(np.empty(stop - start + 1, dtype=np.longdouble),
                          self.carries[b + 1], weights[start + 1 - first:])
        run /= z
        pair = self._blocks[b] = (memoryview(run[::-1].astype(np.float64)).toreadonly(),
                                  memoryview(p).toreadonly())
        return pair


def _rank_error(k, L: int) -> Exception:
    """The error for a rank the model cannot read: InvalidParameterError
    unless k is an integer (numpy integers are), else DomainError."""
    try:
        operator.index(k)
    except TypeError:
        return InvalidParameterError(f"rank must be an integer, got {k!r}")
    return DomainError(f"rank must lie in 0..{L}, got {k!r}")


def zipf_pmf(L: int, tau: float) -> PopularityModel:
    """Build the Zipf model p_l = l^{-tau} / Z_tau(L) over ranks 1..L.

    Normalisation and suffix masses are accumulated in extended precision,
    summing from the tail (smallest terms first), so suffix masses stay
    within 1e-12 of exact for L up to 1e7.

    The build walks the chunks of CHUNK_RANKS ranks from the tail end,
    computes each chunk's weights j^{-tau} and adds them onto the carry (the
    extended-precision sum of all later ranks), and samples the running sum
    at every multiple of BLOCK_RANKS; the last carry is Z. It keeps those
    samples, 16 B per block, and one chunk of scratch, and no per-rank
    array: PopularityModel computes a block of p and suffix from the sample
    at the block's upper edge when the block is first read, with the same
    operations, so every read has the bits of building each array at full
    length.

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
    # carries[b]: the sum of the weights of ranks b * BLOCK_RANKS + 1..L
    carries = np.zeros((L >> BLOCK_SHIFT) + 2, dtype=np.longdouble)
    acc = np.empty(min(L, CHUNK_RANKS) + 1, dtype=np.longdouble)
    carry = np.longdouble(0.0)
    for hi in range(L, 0, -CHUNK_RANKS):
        lo = max(hi - CHUNK_RANKS, 0)  # the chunk holds ranks lo+1..hi
        run = _accumulate(acc, carry, _weights(lo + 1, hi, float(tau)))
        if hi == L:
            w_last = run[1]  # 0 + rank L's weight
        # the block edges q in [lo, hi): the sum past q is run[hi - q]
        b_lo, b_hi = (lo + _BLOCK_MASK) >> BLOCK_SHIFT, (hi - 1) >> BLOCK_SHIFT
        if b_lo <= b_hi:
            carries[b_lo:b_hi + 1] = run[hi - (b_hi << BLOCK_SHIFT):
                                         hi - (b_lo << BLOCK_SHIFT) + 1:BLOCK_RANKS][::-1]
        carry = run[-1]
    z = carry
    # p(L) as PopularityModel.p computes it, from rank L's weight
    if float(w_last / z) == 0.0:
        raise DomainError(
            f"skewness {tau!r} leaves rank L = {L} with zero probability in double precision")
    carries.setflags(write=False)
    return PopularityModel(L=L, tau=float(tau), z=z, carries=carries)


def _weights(first: int, last: int, tau: float) -> np.ndarray:
    """The weights j^{-tau} of ranks first..last in float64. The pow runs in
    place, so a chunk's weights take one buffer; it gives the bits of
    `ranks ** -tau`."""
    weights = np.arange(first, last + 1, dtype=np.float64)
    weights **= -tau
    return weights


def _accumulate(acc: np.ndarray, carry: np.longdouble, weights: np.ndarray) -> np.ndarray:
    """Running tail sums of a run of weights (in rank order), seeded with `carry`.

    Copies the weights into `acc` and returns a view of it whose entry j
    is carry plus the run's last j weights, for j = 0..len(weights): the
    tail sums in reverse rank order, the carry first.
    """
    run = acc[:len(weights) + 1]
    run[0] = carry
    run[1:] = weights[::-1]
    np.add.accumulate(run, out=run)
    return run


def tail_inverse(model: PopularityModel, y: float, lo: int = 0,
                 hi: int | None = None) -> tuple[float, int]:
    """Exact inverse x of the tail mass f at y, and y's tail index: the
    largest i with suffix(i) >= y, found by bisection inside [lo, hi]
    (hi = L by default).

    A NaN or negative y raises DomainError. Arguments y >= 1 clamp to rank
    1: capacity-to-rate ratios above one mean the corresponding constraint
    is inactive, and the inverse is pinned at the left edge of its domain.
    A clamped y reports index 0 (y >= 1) or L - 1 (y = 0, inverse L + 1),
    the ends of any later bracket. For 0 < y < 1 the caller vouches for
    the bracket: suffix(lo) >= y > suffix(hi). The full bracket [0, L]
    always qualifies, since suffix(0) = 1 and suffix(L) = 0.

    This is the relaxation's per-level hot path: bisect_right with the C
    key operator.neg (exact) finds the first k in (lo, hi) with suffix(k)
    < y, one past the tail index, and p(k) is read inline. When the tail
    indices lo..hi-1 share a block, which is the usual case inside the
    relaxed rate's search, that is one bisect over the block; otherwise a
    bisect over the block edges first picks the block whose span
    (b * BLOCK_RANKS, (b + 1) * BLOCK_RANKS] holds k.
    """
    if y >= 1.0:
        return 1.0, 0
    if not y > 0.0:
        if y == 0.0:
            L = model.L
            return float(L + 1), L - 1
        raise DomainError(f"tail mass must be >= 0, got {y!r}")
    if hi is None:
        hi = model.L
    b, b_hi = lo >> BLOCK_SHIFT, (hi - 1) >> BLOCK_SHIFT
    if b != b_hi:
        b = bisect_right(model._edges, -y, b + 1, b_hi + 1, key=operator.neg) - 1
    base = b << BLOCK_SHIFT
    suffix, p = model._blocks[b] or model._fill(b)
    lo += 1 - base
    hi -= base
    j = bisect_right(suffix, -y, lo if lo > 1 else 1, hi if hi < BLOCK_RANKS else BLOCK_RANKS,
                     key=operator.neg)
    k = base + j
    x = (k + 1) - (y - suffix[j]) / p[j]
    return min(max(x, float(k)), float(k + 1)), k - 1


def threshold_indices(model: PopularityModel, r: float, caps: list[float],
                      t_lo: list[int], t_hi: list[int]) -> list[int]:
    """For each level m, the smallest t with suffix(t) * r <= caps[m].

    suffix is non-increasing and, for r >= 0, so is the rounded product
    suffix(t) * r, so the test is monotone in t. Level m is searched in
    [t_lo[m], t_hi[m]]: the caller vouches that t_hi[m] passes and no t
    below t_lo[m] does, as [0, L] always does (suffix(L) = 0). The C key
    (-r) * s is exactly -(s * r) under round-to-nearest, so bisect_left's
    first t with key >= -c is the first pass. A bracket inside one block
    is one bisect over the block; a wider one first bisects the block
    edges inside it, which leaves the span (b * BLOCK_RANKS,
    (b + 1) * BLOCK_RANKS] of one block b. The scan stops at the first
    level whose threshold is L; the later levels keep their t_hi entry.
    """
    L, blocks, edges = model.L, model._blocks, model._edges
    key = partial(operator.mul, -r)
    thresholds = list(t_hi)
    for m, c in enumerate(caps):
        t, hi = t_lo[m], thresholds[m]
        if t < hi:
            b, b_hi = t >> BLOCK_SHIFT, (hi - 1) >> BLOCK_SHIFT
            if b != b_hi:
                b = bisect_left(edges, -c, b + 1, b_hi + 1, key=key) - 1
            base = b << BLOCK_SHIFT
            t -= base
            hi -= base
            t = base + bisect_left((blocks[b] or model._fill(b))[0], -c, t if t > 0 else 0,
                                   hi if hi < BLOCK_RANKS else BLOCK_RANKS, key=key)
        thresholds[m] = t
        if t >= L:
            break
    return thresholds
