"""Closed-form throughput bounds and asymptotic scaling exponents.

The bounds sandwich the cooperative scheme's optimised per-node
throughput between two piecewise formulas in the skewness tau, each
built from its own coefficient pair of the power-law envelope of the
per-level capacities: the lower side divided by the rounding guarantee
factor floors what the integer solver achieves (while L_C <= L - 1), and
the upper side is meant to cap it (but see upper_bound). One scaling
law, achievable_exponent, gives the large-n power of the per-node
throughput as a function of the library and cache growth orders
(L ~ a1 n^beta1, L_C ~ a2 n^beta2): for the cooperative scheme at the
path loss exponent alpha, for the multihop baseline at alpha = 3
(cooperation gains only for alpha < 3), and for the
information-theoretic ceiling, which differs from the achievable law only
by an arbitrarily small epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvalidParameterError
from .hierarchy import CapacityEnvelope, NetworkGrid, capacity_envelope
from .phy import PhyParams
from .placement import _require_admissible, _require_below_library, guarantee_floor
from .popularity import PopularityModel


@dataclass(frozen=True)
class BoundsResult:
    """Throughput bracket for one instance.

    r_lower bounds the relaxed optimum from below; multiplying it by the
    guarantee factor 1 / (M (1 + 2^tau)) floors the integer solution.
    r_upper is None when its branch formula degenerates for small
    libraries (a non-positive denominator, or log L = 0 at tau = 1).
    Each side uses its own coefficient pair of the cooperative capacity
    envelope, recorded in `envelope`.
    """

    r_lower: float
    r_upper: float | None
    guarantee_factor: float
    lower_branch: str
    upper_branch: str
    envelope: CapacityEnvelope

    @property
    def floor(self) -> float:
        """Guaranteed lower bound on the integer solver's throughput."""
        return self.r_lower * self.guarantee_factor


def lower_bound(c: float, gamma: float, L: int, l_c: float, M: int,
                tau: float) -> tuple[float, str]:
    """Piecewise lower bound on the relaxed optimum, with its branch label."""
    if tau < 1.0:
        uncached = (1.0 - l_c / L) * (4.0 ** (gamma + 1) - 1.0)
        val = c * min(
            ((4.0 ** (gamma + 1) - 1.0) / (4.0 ** (gamma + 2) - 16.0) * (l_c / L)) ** gamma,
            3.0 / uncached if uncached else math.inf,  # L_C = L: the term's limit
        )
        return val, "tau<1"
    if tau == 1.0:
        e2l = math.e ** 2 * L
        val = c * (((e2l - L - 1.0) * 4.0 ** (-M) + l_c) / (4.0 * (e2l - 1.0))) ** gamma
        return val, "tau=1"
    if tau < gamma + 1.0:
        a = (1.0 + gamma - tau) / (tau - 1.0)
        try:
            ratio = (4.0 ** a - 1.0) / (4.0 ** ((gamma + tau - 1.0) / (tau - 1.0)) - 4.0)
        except OverflowError:
            # Near tau = 1+ both powers overflow. Their exponents differ by
            # exactly 2, so divide through by 4^a.
            ratio = (1.0 - 4.0 ** -a) / (16.0 - 4.0 ** (1.0 - a))
        val = ratio ** gamma * c * l_c ** gamma * L ** (tau - 1.0 - gamma) / tau
        return val, "1<tau<gamma+1"
    if tau == gamma + 1.0:
        val = (3.0 * math.log(L, 4.0) + 4.0) ** (-gamma) * (c / tau) * l_c ** (tau - 1.0)
        return val, "tau=gamma+1"
    q = 4.0 ** ((gamma + 1.0 - tau) / (tau - 1.0))
    try:
        spread = 4.0 * tau ** (1.0 / gamma)
    except OverflowError:
        spread = math.inf  # the bound then takes its limit, 0.0
    denom = 3.0 * tau ** (1.0 / (tau - 1.0)) * q / (1.0 - q) + spread
    try:
        val = c * l_c ** (tau - 1.0) / denom ** (tau - 1.0)
    except OverflowError:
        # For large tau the two powers overflow separately; their ratio does
        # not, unless L_C is far above the library (scaling does not check it).
        try:
            val = c * (l_c / denom) ** (tau - 1.0)
        except OverflowError:
            raise DomainError(
                f"lower bound at L_C = {l_c!r}, tau = {tau!r} overflows a float") from None
    return val, "tau>gamma+1"


def upper_bound(c: float, gamma: float, L: int, l_c: float, M: int,
                tau: float) -> tuple[float | None, str]:
    """Piecewise upper bound meant to cap the relaxed optimum, with its branch label.

    The 1 < tau < gamma+1 branch returns None when its denominator is
    non-positive (possible for small L, where the formula is vacuous), the
    tau >= gamma+1 branch when its denominator rounds to zero (L_C within
    rounding of L), and the tau = 1 branch when L = 1, where its 1/log L
    exponent is undefined.

    Known defect: the 1 < tau < gamma+1 branch can fall below the relaxed
    optimum (0.637 against 1.018 at M = 9, beta2 = 0.7, tau = 1.05), and
    other branches can when beta2 is within about 0.02 of beta1.

    Known gap: the tau < 1 branch's 1/(1 - tau) factor blows up near tau = 1:
    default place gives R_U 3.05 at tau = 1 but 2.97e5 at tau = 1 - 1e-6.
    """
    if tau < 1.0:
        val = c / (1.0 - tau) \
            * ((4.0 ** (gamma + 1) - 1.0) / (4.0 ** gamma - 1.0)) ** gamma \
            * (l_c / L) ** gamma
        return val, "tau<1"
    if tau == 1.0:
        if L == 1:
            return None, "tau=1"
        val = c * (4.0 * math.e * (4.0 ** M * l_c + L + 1.0)
                   / (3.0 * 4.0 ** M * L ** (1.0 - 1.0 / math.log(L)))) ** gamma \
            * math.log(L)
        return val, "tau=1"
    if tau < gamma + 1.0:
        inner = L ** ((1.0 + gamma - tau) / gamma) * (tau / c) ** (1.0 / gamma) \
            / 2.0 ** (tau - 1.0) - 4.0 * c ** (-1.0 / gamma)
        if inner <= 0.0:
            return None, "1<tau<gamma+1"
        return l_c ** gamma / inner ** gamma, "1<tau<gamma+1"
    denom = (l_c + 1.0) ** (1.0 - tau) - (L + 1.0) ** (1.0 - tau)
    if denom <= 0.0:
        return None, "tau>=gamma+1"
    return (tau - L ** (1.0 - tau)) * c * 4.0 ** (-gamma) / denom, "tau>=gamma+1"


def throughput_bounds(grid: NetworkGrid, params: PhyParams, pop: PopularityModel,
                      l_c: float) -> BoundsResult:
    """Throughput bracket for the cooperative scheme.

    Both bounds take their coefficients from the two-sided cooperative
    capacity envelope, and each selects its tau branch against its own
    gamma. A budget below L 4^{-M}, which cannot hold the library, or of
    L or more, which caches all of it at every node, is refused as the
    relaxation refuses it.
    """
    _require_admissible(pop.L, grid.M, l_c)
    _require_below_library(pop.L, l_c)
    env = capacity_envelope(grid, params)
    r_low, low_branch = lower_bound(env.c_lower, env.gamma_lower, pop.L, l_c,
                                    grid.M, pop.tau)
    r_up, up_branch = upper_bound(env.c_upper, env.gamma_upper, pop.L, l_c,
                                  grid.M, pop.tau)
    return BoundsResult(r_lower=r_low, r_upper=r_up,
                        guarantee_factor=guarantee_floor(1.0, grid.M, pop.tau),
                        lower_branch=low_branch, upper_branch=up_branch,
                        envelope=env)


@dataclass(frozen=True)
class ScalingExponent:
    """One branch of a throughput scaling law.

    exponent is the clean power of n; epsilon_term is the magnitude of the
    finite-size correction subtracted from it, zero where no correction
    applies or none was requested.
    """

    regime: str
    tau_case: str
    exponent: float
    epsilon_term: float


def classify_regime(beta1: float, beta2: float, a1: float, a2: float) -> str:
    """Cache-rich regime I (beta1 = beta2, a1 > a2) versus cache-scarce II."""
    if not (beta1 > 0 and a1 > 0 and a2 > 0):
        raise DomainError("growth orders and coefficients must be positive")
    if not 0.0 <= beta2 <= beta1:
        raise DomainError(f"need 0 <= beta2 <= beta1, got beta2={beta2}, beta1={beta1}")
    if beta1 - beta2 > 1.0:
        raise DomainError(
            f"beta1 - beta2 must not exceed 1, got {beta1 - beta2}")
    if beta1 == beta2:
        if a1 <= a2:
            raise DomainError("beta1 = beta2 with a1 <= a2 caches the whole library")
        return "I"
    if beta1 - beta2 == 1.0 and a1 > a2:
        raise DomainError("beta1 - beta2 = 1 requires a1 <= a2 to keep one library copy")
    return "II"


def achievable_exponent(beta1: float, beta2: float, a1: float, a2: float,
                        tau: float, alpha: float,
                        m_levels: int | None = None) -> ScalingExponent:
    """Scaling exponent achieved by the cooperative scheme.

    The clean exponent is exact for alpha >= 3; for 2 < alpha < 3 it
    carries a Theta(1/sqrt(log n)) correction, reported as 1/(s_M + 1)
    with s_M = sqrt(M ln 4) when m_levels is given (0.0 otherwise).
    At alpha = 3 it is the multihop/decode-and-forward baselines' law,
    whose branch point sits at 3/2 whatever the path loss. The converse
    ceiling is this law with the correction's sign flipped (an arbitrarily
    small +epsilon), so its clean exponent is this one.
    """
    regime = classify_regime(beta1, beta2, a1, a2)
    if regime == "I":
        if tau <= 1.0:
            return ScalingExponent("I", "tau<=1", 0.0, 0.0)
        return ScalingExponent("I", "tau>1", beta2 * (tau - 1.0), 0.0)
    h = min(3.0, alpha) / 2.0
    eps = 0.0
    if alpha < 3.0 and m_levels is not None:
        eps = 1.0 / (math.sqrt(m_levels * math.log(4.0)) + 1.0)
    if tau <= 1.0:
        return ScalingExponent("II", "tau<=1", (beta2 - beta1) * (h - 1.0), eps)
    if tau <= h:
        return ScalingExponent("II", "1<tau<=min(3,alpha)/2",
                               beta1 * (tau - h) + beta2 * (h - 1.0), eps)
    return ScalingExponent("II", "tau>min(3,alpha)/2", beta2 * (tau - 1.0), eps)


def critical_skewness(alpha: float) -> tuple[float, float]:
    """Skewness values where the scaling exponent changes branch: 1 and
    min(3, alpha)/2; the baselines' are critical_skewness(3.0)."""
    if not alpha > 2:
        raise InvalidParameterError(f"path loss exponent must exceed 2, got {alpha!r}")
    return 1.0, min(3.0, alpha) / 2.0
