"""Zipf popularity model with exact tail-mass inversion.

The model is a truncated Zipf pmf over ranks 1..L with skewness tau.
Besides the pmf it exposes the popularity tail mass f(x): the probability
mass of all ranks at or beyond a (possibly fractional) rank x, linearly
interpolated between integer ranks. Every capacity constraint downstream
charges traffic through f, so both f and its inverse are computed exactly
(per-segment linear inversion) rather than approximated, and closed-form
analytic brackets of the inverse are provided for the bound formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidParameterError


@dataclass(frozen=True)
class PopularityModel:
    """Truncated Zipf popularity over ranks 1..L.

    pmf[l] is the request probability of rank l (pmf[0] is unused and 0).
    prefix_mass[k] is the mass of ranks 1..k, suffix_mass[k] the mass of
    ranks k+1..L; prefix_mass[0] = 0 and prefix_mass[L] = 1 exactly.
    Arrays are read-only so instances can be shared between callers.
    """

    L: int
    tau: float
    z: float
    pmf: np.ndarray
    prefix_mass: np.ndarray
    suffix_mass: np.ndarray


def zipf_pmf(L: int, tau: float) -> PopularityModel:
    """Build the Zipf model p_l = l^{-tau} / Z_tau(L) over ranks 1..L.

    Normalisation and cumulative masses are accumulated in extended
    precision, summing the largest terms first, so prefix/suffix masses
    stay within 1e-12 of exact for L up to 1e7.
    """
    if not isinstance(L, (int, np.integer)) or isinstance(L, bool) or L < 1:
        raise InvalidParameterError(f"file count must be a positive integer, got {L!r}")
    if not (isinstance(tau, (int, float)) and math.isfinite(tau)) or tau < 0:
        raise InvalidParameterError(f"skewness must be a finite real >= 0, got {tau!r}")
    ranks = np.arange(1, L + 1, dtype=np.float64)
    weights = ranks ** (-float(tau))
    w_ext = weights.astype(np.longdouble)
    tail = np.cumsum(w_ext[::-1])[::-1]  # tail[i] = sum of weights[i:]
    z = tail[0]
    pmf = np.zeros(L + 1)
    pmf[1:] = (w_ext / z).astype(np.float64)
    suffix = np.zeros(L + 1)
    suffix[:L] = (tail / z).astype(np.float64)
    prefix = 1.0 - suffix
    for arr in (pmf, prefix, suffix):
        arr.setflags(write=False)
    return PopularityModel(
        L=int(L), tau=float(tau), z=float(z),
        pmf=pmf, prefix_mass=prefix, suffix_mass=suffix,
    )


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
    if y >= 1.0:
        return 1.0
    L = model.L
    if y <= 0.0:
        return float(L + 1)
    suffix = model.suffix_mass
    lo, hi = 0, L  # invariant: suffix[lo] >= y > suffix[hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if suffix[mid] >= y:
            lo = mid
        else:
            hi = mid
    k = lo + 1
    x = (k + 1) - (y - float(suffix[k])) / float(model.pmf[k])
    return min(max(x, float(k)), float(k + 1))


def tail_inverse_bounds(model: PopularityModel, y: float) -> tuple[float, float]:
    """Closed-form bracket around the tail-mass inverse, by skewness regime.

    For tau < 1 the pair brackets the normalised inverse
    (tail_inverse(y) - 1) / L; for tau >= 1 it brackets tail_inverse(y)
    itself. For 1 < tau < 2 the lower-bound prefactor exponent must be
    1/(1 - tau) for the bracket to stay valid, so the exponent used is
    min(1 - tau, 1/(1 - tau)); the two coincide at tau = 2.
    """
    if not 0.0 < y <= 1.0:
        raise DomainError(f"bracket argument must lie in (0, 1], got {y!r}")
    L, tau = model.L, model.tau
    if tau < 1.0:
        lower = max(1.0 - y / (1.0 - tau), 0.0)
        upper = 1.0 - y
    elif tau == 1.0:
        lower = math.exp(-1.0) * L ** (1.0 - y)
        upper = math.e ** 2 * L
    else:
        ex = 1.0 / (1.0 - tau)
        lower = 2.0 ** min(1.0 - tau, ex) * min((y * tau) ** ex, L + 1.0)
        upper = min((y / tau) ** ex, L + 1.0) + 1.0
    return lower, upper
