"""Reference forms that only tests use: the threshold form of a placement,
the relaxed rate of a fractional placement, the per-top-level relaxation
that brackets the exact optimum, and the memoryview searches the
popularity model's searches replaced.

The solvers never build these; tests use them to state what the exact
solver's staircase and the relaxation's optimum mean, and to check the
model's searches bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from d2d_cachescale import (
    InvariantViolationError,
    LevelCapacities,
    NetworkGrid,
    PlacementVector,
    evaluate_throughput,
    round_to_feasible,
    solve_relaxed,
    tail_mass,
)


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


def relaxed_rate(x_real, caps, pop) -> float:
    """Rate of a fractional placement under the relaxed capacities.

    No round-robin share here: the relaxation charges level m with its
    full cbar[m]. Used to check that no feasible fractional point beats
    the relaxed optimum.
    """
    best = math.inf
    p = 0.0
    for m in range(1, len(x_real)):
        p += x_real[m - 1]
        t = tail_mass(pop, min(p, float(pop.L)) + 1.0)
        if t > 0.0:
            best = min(best, caps.cbar[m] / t)
    return best


def per_top_level_relaxations(grid, caps, pop, l_c):
    """For each admissible top level m_b: the relaxed rate and the rounded
    placement of the relaxation that charges level m its share cbar[m] / m_b.

    The integer placements whose top level is m_b are feasible points of
    that relaxation, so the largest relaxed rate bounds the exact optimum
    from above; each rounded placement, padded with empty levels up to M
    and evaluated on the real capacities, bounds it from below. Returns
    (relaxed rate, rounded rate) pairs.
    """
    M, L = grid.M, pop.L
    out = []
    for m_b in range(1, M + 1):
        if L * 4.0 ** (-m_b) > l_c + 1e-12:
            continue  # even the top-heavy placement cannot fit
        sub_grid = NetworkGrid(m_b, grid.kappa, grid.alpha)
        sub_caps = LevelCapacities(
            M=m_b, cbar=(math.inf,) + tuple(caps.cbar[m] / m_b for m in range(1, m_b + 1)),
            rates=caps.rates[:m_b + 1])
        sol = solve_relaxed(sub_grid, sub_caps, pop, l_c)
        rounded = round_to_feasible(sol, sub_grid).x + (0,) * (M - m_b)
        out.append((sol.r_star, evaluate_throughput(PlacementVector(rounded), caps, pop).rate))
    return out


def memoryview_tail_index(suffix, y, lo, hi):
    """The relaxation's tail-index search as it read a memoryview of
    suffix_mass: the largest i with suffix[i] >= y, by bisection inside a
    bracket with suffix[lo] >= y > suffix[hi]."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if suffix[mid] >= y:
            lo = mid
        else:
            hi = mid
    return lo


def memoryview_raw_thresholds(suffix, r, level_caps, t_lo, t_hi, L):
    """The exact solver's threshold scan as it read a memoryview of
    suffix_mass: each level's smallest t with suffix[t] * r <= level_caps[m],
    by bisection in [t_lo[m], t_hi[m]], up to the first threshold L."""
    thresholds = list(t_hi)
    for m, c in enumerate(level_caps):
        lo = t_lo[m]
        if suffix[lo] * r <= c:
            thresholds[m] = lo
            continue
        hi = t_hi[m]
        while hi - lo > 1:  # invariant: suffix[lo] * r > c >= suffix[hi] * r
            mid = (lo + hi) // 2
            if suffix[mid] * r <= c:
                hi = mid
            else:
                lo = mid
        thresholds[m] = hi
        if hi >= L:
            break
    return thresholds
