"""Quad-tree grid geometry, per-level edge capacities, and their power-law envelope.

The n = 4^M nodes sit on a regular square grid. Level m groups them into
4^{M-m} clusters of 4^m nodes each; clusters are indexed in Z-order
(Morton code), so containment and ancestry are pure index arithmetic.
A level-m tree edge connects a level-m cluster to one of its four level
(m-1) children and inherits its capacity from the best PHY rate of a
4^m-node cluster. The envelope coefficients bracket those capacities
between two c * 4^{-m gamma} power laws, which is what the closed-form
throughput bounds consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvalidParameterError
from .phy import ClusterRate, PhyMode, PhyParams, cluster_rate, interference_power


@dataclass(frozen=True)
class NetworkGrid:
    """Regular grid of n = 4^M nodes with area n^kappa and path loss alpha."""

    M: int
    kappa: float
    alpha: float

    def __post_init__(self) -> None:
        if not (isinstance(self.M, int) and self.M >= 1):
            raise InvalidParameterError(f"level count must be an integer >= 1, got {self.M!r}")
        if self.kappa < 0:
            raise InvalidParameterError(f"area exponent must be >= 0, got {self.kappa!r}")
        if not self.alpha > 2:
            raise InvalidParameterError(f"path loss exponent must exceed 2, got {self.alpha!r}")

    @property
    def n(self) -> int:
        return 4 ** self.M

    def cluster_of(self, node: int, m: int) -> int:
        """Index of the level-m cluster containing a node (its Z-order ancestor).

        cluster_of(i, 0) = i and cluster_of(i, M) = 0 for every node i.
        """
        if not 0 <= node < self.n:
            raise DomainError(f"node index must lie in [0, {self.n}), got {node!r}")
        if not 0 <= m <= self.M:
            raise DomainError(f"level must lie in [0, {self.M}], got {m!r}")
        return node >> (2 * m)

    def node_coords(self, node: int) -> tuple[int, int]:
        """(row, col) grid position of a node; the node index is its Morton code."""
        if not 0 <= node < self.n:
            raise DomainError(f"node index must lie in [0, {self.n}), got {node!r}")
        row = col = 0
        bit = 0
        while node:
            col |= (node & 1) << bit
            row |= ((node >> 1) & 1) << bit
            node >>= 2
            bit += 1
        return row, col

    def node_at(self, row: int, col: int) -> int:
        """Inverse of node_coords: interleave (row, col) bits into the node index."""
        side = 2 ** self.M
        if not (0 <= row < side and 0 <= col < side):
            raise DomainError(f"grid position must lie in [0, {side})^2, got {(row, col)!r}")
        node = 0
        for bit in range(self.M):
            node |= ((col >> bit) & 1) << (2 * bit)
            node |= ((row >> bit) & 1) << (2 * bit + 1)
        return node

    def routing_path(self, node: int, source_level: int) -> list[tuple[int, int]]:
        """(level, cluster) hops from the source cluster down to the node.

        The path has source_level + 1 entries, levels descending to the
        leaf; an empty list for source_level 0 (local cache hit).
        """
        if not 0 <= source_level <= self.M:
            raise DomainError(f"level must lie in [0, {self.M}], got {source_level!r}")
        if source_level == 0:
            return []
        return [(lev, self.cluster_of(node, lev)) for lev in range(source_level, -1, -1)]


@dataclass(frozen=True)
class LevelCapacities:
    """Per-level tree-edge capacity constants.

    cbar[m] = 4/3 * (best per-node rate of a 4^m-node cluster) for
    m = 1..M; cbar[0] is +inf so the no-constraint convention at level
    zero falls out of the same array. The absolute edge capacity also
    carries a 4^{m-1} concentration factor and a 1/M_b round-robin share
    over the M_b active levels; cm() applies both.
    """

    M: int
    cbar: tuple[float, ...]
    modes: tuple[PhyMode | None, ...]
    rates: tuple[ClusterRate | None, ...]

    def cm(self, m: int, m_b: int) -> float:
        """Absolute level-m edge capacity with m_b active levels."""
        if not 1 <= m <= self.M:
            raise DomainError(f"level must lie in [1, {self.M}], got {m!r}")
        if m_b < 1:
            raise DomainError(f"active level count must be >= 1, got {m_b!r}")
        return self.cbar[m] * 4.0 ** (m - 1) / m_b


def edge_capacities(grid: NetworkGrid, params: PhyParams,
                    *, multihop_only: bool = False) -> LevelCapacities:
    """Capacity constants 4 R_u(4^m) / 3 for every level of the tree."""
    rates: list[ClusterRate | None] = [None]
    for m in range(1, grid.M + 1):
        rates.append(cluster_rate(4 ** m, grid, params, multihop_only=multihop_only))
    cbar = (math.inf,) + tuple(4.0 * r.rate / 3.0 for r in rates[1:])
    modes = (None,) + tuple(r.mode for r in rates[1:])
    return LevelCapacities(M=grid.M, cbar=cbar, modes=modes, rates=tuple(rates))


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
    s_m = math.sqrt(grid.M * math.log(4.0))
    p_i = interference_power(grid.n, params.snr_hcoop, params.t_r_hcoop, params.alpha)
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


def multihop_envelope(grid: NetworkGrid, params: PhyParams) -> CapacityEnvelope:
    """Envelope of the multihop-only capacity profile.

    The multihop rate is an exact power law in the cluster size, so both
    sides share gamma = 1/2 and the same constant.
    """
    s_m = math.sqrt(grid.M * math.log(4.0))
    p_i = interference_power(grid.n, params.snr_multihop, params.t_r_multihop, params.alpha)
    c = 4.0 / (3.0 * params.t_r_multihop ** 2) \
        * math.log2(1.0 + params.snr_multihop / (1.0 + p_i))
    return CapacityEnvelope(c_lower=c, gamma_lower=0.5, c_upper=c, gamma_upper=0.5, s_m=s_m)
