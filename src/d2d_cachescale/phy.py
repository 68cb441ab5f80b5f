"""Closed-form PHY rate model: cooperative and multihop per-node rates.

Two transmission modes drive every edge capacity in the tree. The
multi-stage cooperative mode serves a size-n cluster at a rate decaying
as n^{-1/(s+1)} in the cluster size (s = stage count); the classical
nearest-neighbour multihop mode decays as n^{-1/2}. Both are
interference-limited through a deterministic worst-case interference sum
over the whole network, which the caller computes once and passes in, and
a TDMA reuse factor derived from the path loss exponent. All rates
are spectral efficiencies in bit/s/Hz (base-2 logarithms throughout).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover
    from .hierarchy import NetworkGrid, NetworkInterference


class PhyMode(enum.Enum):
    """Transmission mode serving a cluster."""

    HIER_COOP = "hcoop"
    MULTIHOP = "multihop"


def reuse_factor(snr: float, alpha: float) -> int:
    """TDMA reuse factor ceil(SNR^{1/(2 alpha)} + 1).

    Chosen so that treating the residual inter-cluster interference as
    noise stays optimal; always >= 2 for alpha > 2.
    """
    return math.ceil(snr ** (1.0 / (2.0 * alpha)) + 1.0)


@dataclass(frozen=True)
class PhyParams:
    """Path-loss-derived constants shared by all rate formulas.

    snr_hcoop = 2^{2(3 + alpha/ln 2)} and snr_multihop = 2^{2(3 + alpha/ln 4)}
    are the effective receive SNRs of the two modes; t_r_* the matching
    reuse factors. rc_fraction scales the cooperative spectral efficiency
    below its log2(1 + SNR/(1 + P_I)) ceiling (1.0 uses the ceiling).
    """

    alpha: float
    rc_fraction: float = 1.0
    snr_hcoop: float = field(init=False)
    snr_multihop: float = field(init=False)
    t_r_hcoop: int = field(init=False)
    t_r_multihop: int = field(init=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.alpha, (int, float)) and self.alpha > 2):
            raise InvalidParameterError(f"path loss exponent must exceed 2, got {self.alpha!r}")
        if not 0.0 < self.rc_fraction <= 1.0:
            raise InvalidParameterError(f"rc_fraction must lie in (0, 1], got {self.rc_fraction!r}")
        try:
            snr_h = 2.0 ** (2.0 * (3.0 + self.alpha / math.log(2.0)))
            snr_m = 2.0 ** (2.0 * (3.0 + self.alpha / math.log(4.0)))
        except OverflowError:
            raise InvalidParameterError(
                f"path loss exponent {self.alpha!r} overflows the effective SNR "
                "2^(2(3 + alpha/ln 2))") from None
        object.__setattr__(self, "snr_hcoop", snr_h)
        object.__setattr__(self, "snr_multihop", snr_m)
        object.__setattr__(self, "t_r_hcoop", reuse_factor(snr_h, self.alpha))
        object.__setattr__(self, "t_r_multihop", reuse_factor(snr_m, self.alpha))


@dataclass(frozen=True)
class ClusterRate:
    """Winning per-node rate for one cluster size.

    stages is the cooperative stage count when the cooperative mode won,
    None for multihop; interference is the P_I value the winning rate used.
    """

    cluster_size: int
    rate: float
    mode: PhyMode
    stages: int | None
    interference: float


def interference_power(n: int, snr: float, t_r: int, alpha: float) -> float:
    """Worst-case aggregate interference sum_{i=1}^{sqrt(n)} 8 i SNR (T_r i - 1)^{-alpha}."""
    if t_r - 1 <= 0:
        raise InvalidParameterError(f"reuse factor must be >= 2, got {t_r!r}")
    root = math.isqrt(int(n))
    return math.fsum(8.0 * i * snr * (t_r * i - 1.0) ** (-alpha) for i in range(1, root + 1))


def rate_hcoop(n: int, s: int, params: PhyParams, p_i: float) -> float:
    """Per-node cooperative rate with s stages on a size-n cluster.

    p_i is the interference power the cluster sees; `cluster_rate` passes
    the full-network sum, whatever the cluster size.
    """
    if s < 1:
        raise InvalidParameterError(f"stage count must be >= 1, got {s!r}")
    log_term = math.log2(1.0 + params.snr_hcoop / (1.0 + p_i))
    t_r = params.t_r_hcoop
    if s == 1:
        return log_term * n ** -0.5 / (2.0 * math.sqrt(2.0) * t_r)
    r_c = params.rc_fraction * log_term
    denom = (1.0 + s) * t_r ** (2.0 * s / (s + 1.0)) \
        * (3.0 * 2.0 ** (s - 1)) ** (s / (2.0 * (s + 1.0)))
    return r_c * n ** (-1.0 / (s + 1.0)) / denom


def optimal_stages(n: int, params: PhyParams, p_i: float) -> int:
    """Stage count maximising rate_hcoop over s = 1..ceil(4 sqrt(ln n)).

    Exhaustive scan; ties break toward the smaller stage count.
    """
    if n < 4:
        raise InvalidParameterError(f"cluster size must be >= 4, got {n!r}")
    s_max = max(1, math.ceil(4.0 * math.sqrt(math.log(n))))
    best_s, best_rate = 1, rate_hcoop(n, 1, params, p_i)
    for s in range(2, s_max + 1):
        r = rate_hcoop(n, s, params, p_i)
        if r > best_rate:
            best_s, best_rate = s, r
    return best_s


def rate_multihop(n: int, params: PhyParams, p_i: float) -> float:
    """Per-node multihop rate on a size-n cluster: log2(1 + SNR/(1 + P_I)) n^{-1/2} / T_r^2."""
    return math.log2(1.0 + params.snr_multihop / (1.0 + p_i)) * n ** -0.5 \
        / params.t_r_multihop ** 2


def cluster_rate(N: int, grid: "NetworkGrid", params: PhyParams,
                 interference: "NetworkInterference", *,
                 multihop_only: bool = False) -> ClusterRate:
    """Best per-node rate for clusters of N = 4^m nodes inside the full grid.

    The cooperative candidate pays the average-power duty-cycle penalty
    min(N * A_c^{-alpha/2}, 1) for its cluster area A_c = N * n^{kappa-1}
    (node density is constant across the grid); the multihop candidate
    pays no area penalty. InvalidParameterError when A_c or the penalty
    overflows a float (kappa or alpha far outside the model's range).
    Interference is summed over the whole network, not just the cluster,
    so it does not depend on N: the caller computes it once per (grid,
    params) with `hierarchy.NetworkInterference` and passes the same sums
    for every level. multihop_only=True rates the cluster as a
    multihop-only system (the baseline capacity profile).
    """
    m = exact_log4(N)
    if m is None or m < 1 or N > grid.n:
        raise InvalidParameterError(
            f"cluster size must be a power of 4 in [4, {grid.n}], got {N!r}")
    p_i_m = interference.multihop
    r_m = rate_multihop(N, params, p_i_m)
    if multihop_only:
        return ClusterRate(N, r_m, PhyMode.MULTIHOP, None, p_i_m)
    p_i_h = interference.hcoop
    s_star = optimal_stages(N, params, p_i_h)
    try:
        area = N * grid.n ** (grid.kappa - 1.0)
        penalty = min(N * area ** (-params.alpha / 2.0), 1.0)
    except OverflowError:
        raise InvalidParameterError(
            f"kappa = {grid.kappa!r} and alpha = {params.alpha!r} overflow the duty-cycle "
            f"penalty N A_c^(-alpha/2) of a {N}-node cluster") from None
    r_h = penalty * rate_hcoop(N, s_star, params, p_i_h)
    if r_h >= r_m:
        return ClusterRate(N, r_h, PhyMode.HIER_COOP, s_star, p_i_h)
    return ClusterRate(N, r_m, PhyMode.MULTIHOP, None, p_i_m)


def exact_log4(N: int) -> int | None:
    """m with 4^m == N, or None when N is not a positive power of 4."""
    if N < 1:
        return None
    m = (N.bit_length() - 1) // 2
    return m if 4 ** m == N else None
