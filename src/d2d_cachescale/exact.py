"""Exact placement solvers: threshold feasibility, rate bisection, brute force.

For a fixed rate the placement problem is a zero-one feasibility question
with a staircase structure: a binary level-by-rank indicator matrix with
non-decreasing rows and non-increasing columns, equivalently a
non-decreasing integer threshold per level. Each level's capacity pins a
minimal threshold, and pushing any threshold higher only adds cache mass,
so the greedy lower envelope of thresholds decides feasibility exactly.
A bisection over the rate then finds the optimum for each candidate top
level. Its steps search each level's threshold only between the
thresholds at the current ends of the rate bracket: a rounded product
suffix * r is non-decreasing in r, so each minimal threshold is too, and
the bracketed search returns what a search over all ranks would. The
brute-force enumerator is deliberately independent of all of that
machinery and serves as the oracle for it.
"""

from __future__ import annotations

import math
import sys
from itertools import combinations

from .errors import InfeasibleProblemError, InvalidParameterError, SizeGuardError
from .hierarchy import LevelCapacities, NetworkGrid
from .placement import (BUDGET_SLACK, PlacementVector, _load, _require_admissible,
                        _require_depth, _require_number, evaluate_throughput)
from .popularity import PopularityModel, threshold_indices


def feasible_for_rate(r: float, m_b: int, caps: LevelCapacities,
                      pop: PopularityModel, l_c: float) -> PlacementVector | None:
    """Cheapest placement with top level exactly m_b that sustains rate r.

    Level m's constraint (tail past theta[m]) * r <= cbar[m] / m_b pins a
    minimal integer threshold; thresholds must also be non-decreasing.
    Raising any threshold only increases the weighted cache mass, so the
    greedy componentwise minimum is feasible iff anything is. Returns None
    when the budget is exceeded (before any search when even all L files
    at level m_b exceed it) or level m_b would end up empty; the
    threshold scan stops at the first level whose threshold is L, because
    the top level is then empty whatever the later levels need.
    """
    _require_number("rate", r)
    if not 1 <= m_b <= caps.M:
        raise InvalidParameterError(f"top level must lie in 1..{caps.M}, got {m_b!r}")
    L = pop.L
    level_caps = _top_level_caps(caps, m_b, L, l_c)
    if level_caps is None:
        return None
    thresholds = threshold_indices(pop, r, level_caps, [0] * m_b, [L] * m_b)
    x = _staircase(thresholds, caps.M, L, l_c)
    return None if x is None else PlacementVector(x)


def _top_level_caps(caps: LevelCapacities, m_b: int, L: int, l_c: float) -> list[float] | None:
    """Level m's share cbar[m] / m_b of its capacity, m = 1..m_b, when m_b
    levels are active; None when even the top-heavy placement, all L files
    at level m_b, exceeds the budget l_c, so no placement topped out at m_b
    fits."""
    if L * 4.0 ** (-m_b) > l_c + BUDGET_SLACK:
        return None
    return [caps.cbar[m] / m_b for m in range(1, m_b + 1)]


def _staircase(thresholds: list[int], M: int, L: int, l_c: float) -> tuple[int, ...] | None:
    """Placement tuple of the running max of `thresholds`, topped out at level
    len(thresholds); None when that level is empty or the load exceeds l_c."""
    if max(thresholds) >= L:
        return None  # rate constraints leave nothing for the top level
    x = []
    theta = 0
    for t in thresholds:
        if t > theta:
            x.append(t - theta)
            theta = t
        else:
            x.append(0)
    x.append(L - theta)
    x.extend([0] * (M - len(thresholds)))
    x = tuple(x)
    if _load(x) > l_c + BUDGET_SLACK:
        return None
    return x


def solve_exact(grid: NetworkGrid, caps: LevelCapacities, pop: PopularityModel,
                l_c: float) -> tuple[PlacementVector, float]:
    """Globally optimal integer placement by bisection over the rate.

    The absolute capacities depend on how many levels are active, so each
    candidate top level m_b runs its own bisection with capacities
    cbar[m] / m_b. The winner's rate is re-evaluated from the placement
    itself, so the reported value is exact, not a bisection endpoint.

    Each bisection step decides feasibility as `feasible_for_rate` does,
    but searches every level's threshold only inside its bracket: the
    thresholds found at the current lo and hi. Rounded products s * r
    are non-decreasing in r for s >= 0, so a level's minimal threshold is
    non-decreasing in the rate and a rate in (lo, hi) has its threshold
    in [t(lo), t(hi)]. The brackets start at 0 and L (suffix(L) = 0).
    Every step therefore gives the same verdict as the full search, and
    the bisection visits the same rates and ends at the same lo.

    A budget within BUDGET_SLACK of L holds the all-local placement, whose
    rate is unbounded: it is returned at rate inf, as brute_force returns it.
    """
    _require_depth(grid, caps)
    M, L = caps.M, pop.L
    _require_admissible(L, M, l_c)
    if L <= l_c + BUDGET_SLACK:
        return PlacementVector((L,) + (0,) * M), math.inf
    best: tuple[float, PlacementVector] | None = None
    for m_b in range(1, M + 1):
        level_caps = _top_level_caps(caps, m_b, L, l_c)
        if level_caps is None:
            continue
        lo = 0.0
        # min: when p(L) is subnormal the quotient overflows to inf
        hi = min(caps.cbar[1] / (m_b * pop.p(L)), sys.float_info.max)
        tol = 1e-12 * caps.cbar[1]
        t_lo, t_hi = [0] * m_b, [L] * m_b
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            thresholds = threshold_indices(pop, mid, level_caps, t_lo, t_hi)
            if _staircase(thresholds, M, L, l_c) is not None:
                lo, t_lo = mid, thresholds
            else:
                hi, t_hi = mid, thresholds
        # Never None and tops out at m_b: lo is 0.0 or a rate whose thresholds
        # passed _staircase, the full search returns those same thresholds,
        # and _staircase never leaves level m_b empty.
        found = feasible_for_rate(lo, m_b, caps, pop, l_c)
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
    _require_depth(grid, caps)
    _require_number("cache budget", l_c)
    M, L = caps.M, pop.L
    count = math.comb(L + M, M)
    if count > 10 ** 7:
        raise SizeGuardError(
            f"{count} placements exceed the brute-force guard of 1e7")
    best: tuple[float, PlacementVector] | None = None
    for xs in _compositions(L, M + 1):
        pv = PlacementVector(xs)
        if pv.cache_load() > l_c + BUDGET_SLACK:
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
    for bars in combinations(range(total + parts - 1), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, total + parts - 1)))
