"""Exact placement solvers: threshold feasibility, rate bisection, brute force.

For a fixed rate the placement problem is a zero-one feasibility question
with a staircase structure: a binary level-by-rank indicator matrix with
non-decreasing rows and non-increasing columns, equivalently a
non-decreasing integer threshold per level. Each level's capacity pins a
minimal threshold, and pushing any threshold higher only adds cache mass,
so the greedy lower envelope of thresholds decides feasibility exactly.
A bisection over the rate then finds the optimum for each candidate top
level. The brute-force enumerator is deliberately independent of all of
that machinery and serves as the oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleProblemError, InvariantViolationError, SizeGuardError
from .hierarchy import LevelCapacities, NetworkGrid
from .placement import PlacementVector, evaluate_throughput
from .popularity import PopularityModel


@dataclass(frozen=True)
class ThresholdForm:
    """Non-decreasing popularity thresholds theta[0..M+1].

    Level m caches ranks theta[m]+1 .. theta[m+1]; theta[0] = 0 and
    theta[M+1] = L. Row m of the implied indicator matrix is zeros up to
    rank theta[m], ones after.
    """

    theta: tuple[int, ...]

    def __post_init__(self) -> None:
        t = self.theta
        if len(t) < 2 or t[0] != 0:
            raise InvariantViolationError(f"thresholds must start at 0, got {t!r}")
        if any(a > b for a, b in zip(t, t[1:])):
            raise InvariantViolationError(f"thresholds must be non-decreasing, got {t!r}")


def to_threshold(x: PlacementVector) -> ThresholdForm:
    """Threshold form of a placement: theta[m] = files cached below level m."""
    theta = [0]
    for v in x.x:
        theta.append(theta[-1] + v)
    return ThresholdForm(tuple(theta))


def from_threshold(t: ThresholdForm) -> PlacementVector:
    """Placement of a threshold form: x_m = theta[m+1] - theta[m]."""
    return PlacementVector(tuple(b - a for a, b in zip(t.theta, t.theta[1:])))


def indicator_matrix(t: ThresholdForm, L: int) -> np.ndarray:
    """Materialise the (M+2) x L binary indicator matrix of a threshold form.

    Row m has entry 1 at rank l iff l > theta[m]; rows are non-decreasing
    left to right, columns non-increasing top to bottom. Test reference,
    not a production path.
    """
    if t.theta[-1] > L:
        raise InvariantViolationError(f"thresholds exceed the library size {L}")
    ranks = np.arange(1, L + 1)
    return (ranks[None, :] > np.asarray(t.theta)[:, None]).astype(np.int64)


def feasible_for_rate(r: float, m_b: int, caps: LevelCapacities,
                      pop: PopularityModel, l_c: float) -> PlacementVector | None:
    """Cheapest placement with top level exactly m_b that sustains rate r.

    Level m's constraint (tail past theta[m]) * r <= cbar[m] / m_b pins a
    minimal integer threshold; thresholds must also be non-decreasing.
    Raising any threshold only increases the weighted cache mass, so the
    greedy componentwise minimum is feasible iff anything is. Returns None
    when the budget is exceeded or level m_b would end up empty.
    """
    M, L = caps.M, pop.L
    suffix = pop.suffix_mass
    thetas = [0] * (M + 2)
    theta = 0
    for m in range(1, m_b + 1):
        c_m = caps.cbar[m] / m_b
        theta = max(theta, _min_threshold(suffix, r, c_m, L))
        thetas[m] = theta
    if theta >= L:
        return None  # rate constraints leave nothing for the top level
    for m in range(m_b + 1, M + 2):
        thetas[m] = L
    pv = from_threshold(ThresholdForm(tuple(thetas)))
    if pv.cache_load() > l_c + 1e-12:
        return None
    return pv


def _min_threshold(suffix: np.ndarray, r: float, c: float, L: int) -> int:
    """Smallest t in [0, L] with suffix[t] * r <= c (suffix is decreasing)."""
    if suffix[0] * r <= c:
        return 0
    lo, hi = 0, L  # invariant: suffix[lo] * r > c >= suffix[hi] * r
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if suffix[mid] * r <= c:
            hi = mid
        else:
            lo = mid
    return hi


def solve_exact(grid: NetworkGrid, caps: LevelCapacities, pop: PopularityModel,
                l_c: float) -> tuple[PlacementVector, float]:
    """Globally optimal integer placement by bisection over the rate.

    The absolute capacities depend on how many levels are active, so each
    candidate top level m_b runs its own bisection with capacities
    cbar[m] / m_b; a candidate whose returned placement does not actually
    top out at m_b is discarded. The winner's rate is re-evaluated from
    the placement itself, so the reported value is exact, not a bisection
    endpoint.
    """
    M, L = grid.M, pop.L
    if l_c < L * 4.0 ** (-M) - 1e-12:
        raise InfeasibleProblemError(
            f"cache budget {l_c} cannot hold the library: "
            f"needs at least {L * 4.0 ** (-M)} per node")
    best: tuple[float, PlacementVector] | None = None
    for m_b in range(1, M + 1):
        if L * 4.0 ** (-m_b) > l_c + 1e-12:
            continue  # even the top-heavy placement cannot fit
        lo = 0.0
        hi = caps.cbar[1] / (m_b * float(pop.pmf[L]))
        tol = 1e-12 * caps.cbar[1]
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if feasible_for_rate(mid, m_b, caps, pop, l_c) is not None:
                lo = mid
            else:
                hi = mid
        found = feasible_for_rate(lo, m_b, caps, pop, l_c)
        if found is None or found.m_b != m_b:
            continue
        rate = evaluate_throughput(found, caps, pop).rate
        if best is None or rate > best[0] or (rate == best[0] and found.x < best[1].x):
            best = (rate, found)
    if best is None:
        raise InfeasibleProblemError("no placement sustains a positive rate within the budget")
    return best[1], best[0]


def brute_force(grid: NetworkGrid, caps: LevelCapacities, pop: PopularityModel,
                l_c: float) -> tuple[PlacementVector, float]:
    """Exhaustive search over every integer placement; the reference oracle.

    Enumerates all compositions of L into M+1 levels in lexicographic
    order, keeps the cache-feasible ones, and returns the throughput
    argmax (ties resolve to the lexicographically smallest vector because
    enumeration is ordered and replacement requires strict improvement).
    """
    M, L = grid.M, pop.L
    count = math.comb(L + M, M)
    if count > 10 ** 7:
        raise SizeGuardError(
            f"{count} placements exceed the brute-force guard of 1e7")
    best: tuple[float, PlacementVector] | None = None
    for xs in _compositions(L, M + 1):
        pv = PlacementVector(xs)
        if pv.cache_load() > l_c + 1e-12:
            continue
        report = evaluate_throughput(pv, caps, pop)
        rate = report.rate
        if best is None or rate > best[0]:
            best = (rate, pv)
    if best is None:
        raise InfeasibleProblemError("no placement fits the cache budget")
    return best[1], best[0]


def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to `total`, in lex order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest
