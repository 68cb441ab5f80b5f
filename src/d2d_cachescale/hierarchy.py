"""Quad-tree grid geometry, per-level edge capacities, and their power-law envelope.

The n = 4^M nodes sit on a regular square grid. Level m groups them into
4^{M-m} clusters of 4^m nodes each; nodes and clusters are indexed in
Z-order (Morton code), so a node's level-m cluster is `node >> 2m`.
A level-m tree edge connects a level-m cluster to one of its four level
(m-1) children and inherits its capacity from the best PHY rate of a
4^m-node cluster. The envelope coefficients bracket those capacities
between two c * 4^{-m gamma} power laws, which is what the closed-form
throughput bounds consume. Every rate in the network sees the same two
full-network interference sums (one per PHY mode), which depend only on
the grid, so the grid computes each on first use and keeps it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidParameterError, SizeGuardError
from .phy import (
    ClusterRate,
    PhyParams,
    _require_grid_alpha,
    cluster_rate,
    interference_power,
    rate_multihop,
)


# Deepest hierarchy accepted: each of the network's two interference sums
# runs over sqrt(n) = 2^M terms, about 1e6 at M = 20.
MAX_LEVELS = 20


@dataclass(frozen=True)
class NetworkGrid:
    """Regular grid of n = 4^M nodes with area n^kappa and path loss alpha.

    M is stored as a Python int; any integer type is accepted.
    """

    M: int
    kappa: float
    alpha: float

    def __post_init__(self) -> None:
        try:
            M = operator.index(self.M)
        except TypeError:
            M = 0
        if M < 1:
            raise InvalidParameterError(f"level count must be an integer >= 1, got {self.M!r}")
        if M > MAX_LEVELS:
            raise SizeGuardError(f"level count {M} exceeds the guard of {MAX_LEVELS}")
        object.__setattr__(self, "M", M)
        if not self.kappa >= 0:
            raise InvalidParameterError(f"area exponent must be >= 0, got {self.kappa!r}")
        if not self.alpha > 2:
            raise InvalidParameterError(f"path loss exponent must exceed 2, got {self.alpha!r}")

    @property
    def n(self) -> int:
        return 4 ** self.M

    @cached_property
    def interference_hcoop(self) -> float:
        """Worst-case interference power P_I of the cooperative mode over the whole grid."""
        p = PhyParams(self.alpha)
        return interference_power(self.n, p.snr_hcoop, p.t_r_hcoop, self.alpha)

    @cached_property
    def interference_multihop(self) -> float:
        """Worst-case interference power P_I of the multihop mode over the whole grid."""
        p = PhyParams(self.alpha)
        return interference_power(self.n, p.snr_multihop, p.t_r_multihop, self.alpha)


@dataclass(frozen=True)
class LevelCapacities:
    """Per-level tree-edge capacity constants.

    cbar[m] = 4/3 * (best per-node rate of a 4^m-node cluster) for
    m = 1..M; cbar[0] is +inf so the no-constraint convention at level
    zero falls out of the same array. The absolute edge capacity is
    cbar[m] 4^{m-1} / M_b: a 4^{m-1} concentration factor and a 1/M_b
    round-robin share over the M_b active levels. A level-m edge carries
    the traffic of 4^{m-1} nodes, so the solvers compare per-node traffic
    with cbar[m] / M_b.

    A level's cluster rate falls with the cluster size, so every table
    edge_capacities builds is +inf at level 0, then finite, > 0 and
    falling. Each solver reads cbar that way, and the table is the one
    place that checks it: a table whose cbar[0] is not +inf, or whose
    cbar[1..M] are not finite, > 0 and non-increasing (a NaN is none of
    these), raises InvalidParameterError where it is made, by a
    dataclasses.replace too.
    """

    cbar: tuple[float, ...]
    rates: tuple[ClusterRate | None, ...]

    def __post_init__(self) -> None:
        c = self.cbar
        # the pairs (c[1], c[2]), ..., (c[M], c[M]) test each level once
        if not (c and c[0] == math.inf
                and all(math.inf > hi >= lo > 0.0 for hi, lo in zip(c[1:], c[2:] + c[-1:]))):
            raise InvalidParameterError("level capacities must be +inf at level 0, then finite, "
                                        f"> 0 and not rising with the level, got {c!r}")

    @property
    def M(self) -> int:
        return len(self.cbar) - 1


def edge_capacities(grid: NetworkGrid, params: PhyParams, *,
                    multihop_only: bool = False) -> LevelCapacities:
    """Capacity constants 4 R_u(4^m) / 3 for every level of the tree.

    All M levels, and every other table built on the same grid, share the
    grid's pair of full-network interference sums. multihop_only=True
    rates every cluster by multihop alone (the baseline capacity profile).
    """
    if multihop_only:
        _require_grid_alpha(grid, params)
        rates = [ClusterRate(rate_multihop(4 ** m, params, grid.interference_multihop), None)
                 for m in range(1, grid.M + 1)]
    else:
        rates = [cluster_rate(4 ** m, grid, params) for m in range(1, grid.M + 1)]
    cbar = (math.inf,) + tuple(4.0 * r.rate / 3.0 for r in rates)
    return LevelCapacities(cbar=cbar, rates=(None, *rates))


@dataclass(frozen=True)
class CapacityEnvelope:
    """Power-law bracket c * 4^{-m gamma} around the per-level capacities.

    gamma_lower >= gamma_upper (the lower bound decays faster); s_m is the
    sqrt(M ln 4) stage-count scale that both exponents are built from.
    """

    c_lower: float
    gamma_lower: float
    c_upper: float
    gamma_upper: float
    s_m: float


def capacity_envelope(grid: NetworkGrid, params: PhyParams) -> CapacityEnvelope:
    """Envelope of the cooperative capacity profile.

    Exponents pick up (alpha kappa / 2 - 1)^+ from the area duty-cycle
    penalty and saturate at the multihop value 1/2; the constants come
    from the one-stage rate (upper) and the sqrt(M ln 4)-stage rate
    (lower) of the cooperative mode.
    """
    _require_grid_alpha(grid, params)
    s_m = math.sqrt(grid.M * math.log(4.0))
    p_i = grid.interference_hcoop
    log_term = math.log2(1.0 + params.snr_hcoop / (1.0 + p_i))
    r_c = params.rc_fraction * log_term
    t_r = params.t_r_hcoop
    area_term = max(params.alpha * grid.kappa / 2.0 - 1.0, 0.0)
    gamma_upper = min(1.0 / (2.0 * s_m + 1.0) + area_term, 0.5)
    c_upper = 2.0 / (t_r * 3.0 ** 1.25) * log_term
    gamma_lower = min(1.0 / (s_m + 1.0) + area_term, 0.5)
    c_lower = 4.0 * r_c / (
        3.0 * (1.0 + s_m) * t_r ** 2
        * (3.0 * 2.0 ** (s_m - 1.0)) ** (s_m / (2.0 * (s_m + 1.0))))
    return CapacityEnvelope(c_lower=c_lower, gamma_lower=gamma_lower,
                            c_upper=c_upper, gamma_upper=gamma_upper, s_m=s_m)

