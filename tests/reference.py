"""Reference forms that only tests use: the threshold form of a placement
and the relaxed rate of a fractional placement.

The solvers never build these; tests use them to state what the exact
solver's staircase and the relaxation's optimum mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from d2d_cachescale import InvariantViolationError, PlacementVector, tail_mass


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
