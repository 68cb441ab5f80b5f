"""Reference forms that only tests use: the dense Zipf build, the two-pass
chunked build that kept every suffix mass (the checkpointed build replaced
it), a model over a given suffix array, the popularity tail mass f(x) that
tail_inverse inverts, the residuals of the relaxation's optimality system,
the relaxation's load in the form that took the lowest occupied level
m* and summed only the levels above it (the load now reads the rate
alone), the relaxed occupancies at a rate from one full tail_inverse
search per level (solve_relaxed takes them from its rate solve's own
inverses), the midpoint loop that the rate solve's secant pivots
replaced, the threshold form of a placement, the relaxed rate of a
fractional placement, the per-top-level relaxation that brackets the
exact optimum, the memoryview searches the popularity model's searches
replaced, the multihop baseline's scaling law that the achievable law
at alpha = 3 replaced, the recursive enumeration of compositions that
brute force's stars and bars replaced, the two-call PHY mode choice
(a stage-count scan, then the winner's rate evaluated again) that
cluster_rate's single scan replaced, and the simulator that drew every
node and searched every uniform's level with searchsorted, which the
streamed boundary counts replaced.

The solvers never build these; tests use them to state what the exact
solver's staircase and the relaxation's optimum mean, and to check the
model's build, point reads and searches bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from d2d_cachescale import (
    BracketError,
    DomainError,
    InvalidParameterError,
    InvariantViolationError,
    PlacementVector,
    evaluate_throughput,
)
from d2d_cachescale.analysis import ScalingExponent, classify_regime
from d2d_cachescale.delivery import EdgeLoadReport, SimConfig
from d2d_cachescale.hierarchy import LevelCapacities, NetworkGrid
from d2d_cachescale.phy import (
    ClusterRate,
    PhyParams,
    _require_grid_alpha,
    exact_log4,
    rate_hcoop,
    rate_multihop,
)
from d2d_cachescale.placement import (RelaxedSolution, _bracketed_load, _load, round_to_feasible,
                                      solve_relaxed)
from d2d_cachescale.popularity import (
    BLOCK_RANKS,
    BLOCK_SHIFT,
    CHUNK_RANKS,
    PopularityModel,
    _accumulate,
    tail_inverse,
)


def dense_zipf(L, tau):
    """The Zipf model with every array at full length and one cumulative sum.

    Returns (z, pmf, suffix_mass): z in extended precision, pmf[k] the
    probability of rank k (pmf[0] = 0) and suffix_mass[k] the mass of
    ranks k+1..L. zipf_pmf must reproduce z and suffix_mass, and the
    model's p(k) every pmf[k], bit for bit.
    """
    ranks = np.arange(1, L + 1, dtype=np.float64)
    weights = ranks ** (-float(tau))
    w_ext = weights.astype(np.longdouble)
    tail = np.cumsum(w_ext[::-1])[::-1]  # tail[i] = sum of weights[i:]
    z = tail[0]
    pmf = np.zeros(L + 1)
    pmf[1:] = (w_ext / z).astype(np.float64)
    suffix = np.zeros(L + 1)
    suffix[:L] = (tail / z).astype(np.float64)
    return z, pmf, suffix


@lru_cache(maxsize=16)
def dense_suffix(L, tau):
    """dense_zipf's suffix masses, read-only and kept for the reference
    searches that read them at every step."""
    suffix = dense_zipf(L, tau)[2]
    suffix.setflags(write=False)
    return suffix


def two_pass_zipf(L, tau):
    """The chunked build that kept the suffix mass of every rank: (z, suffix_mass).

    Pass 1 walks the chunks from the tail end, writes rank j's weight
    j^{-tau} into suffix_mass[j-1] and accumulates each chunk onto the carry
    of all later ranks, recording the carry each chunk starts from. Pass 2
    re-accumulates each chunk from its carry, divides by z and writes the
    chunk's suffix masses over its weights. zipf_pmf's suffix(k) must read
    every entry, bit for bit.
    """
    suffix = np.empty(L + 1)
    suffix[L] = 0.0
    acc = np.empty(min(L, CHUNK_RANKS) + 1, dtype=np.longdouble)
    chunks = []
    carry = np.longdouble(0.0)
    for hi in range(L, 0, -CHUNK_RANKS):
        lo = max(hi - CHUNK_RANKS, 0)
        suffix[lo:hi] = np.arange(lo + 1, hi + 1, dtype=np.float64) ** (-float(tau))
        chunks.append((lo, hi, carry))
        carry = _accumulate(acc, carry, suffix[lo:hi])[-1]
    z = carry
    for lo, hi, carry in chunks:
        run = _accumulate(acc, carry, suffix[lo:hi])[1:]
        run /= z
        suffix[lo:hi] = run[::-1]
    return z, suffix


def model_over(suffix) -> PopularityModel:
    """A model whose suffix(k) reads the given non-increasing array, for the
    threshold search only: its edge masses and every suffix block are the
    array's entries, and its blocks hold no probabilities."""
    L = len(suffix) - 1
    edges = np.append(np.asarray(suffix[::BLOCK_RANKS], dtype=np.longdouble), 0.0)
    pop = PopularityModel(L=L, tau=0.0, z=np.longdouble(1.0), carries=edges)
    for b in range(len(pop._blocks)):
        start = b << BLOCK_SHIFT
        pop._blocks[b] = (memoryview(
            np.array(suffix[start:start + BLOCK_RANKS + 1], dtype=np.float64)).toreadonly(), None)
    return pop


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
        return model.suffix(int(x) - 1)
    return (k + 1 - x) * model.p(k) + model.suffix(k)


def check_optimality(sol: RelaxedSolution, caps: LevelCapacities,
                     pop: PopularityModel, l_c: float) -> list[float]:
    """Relative residuals of the optimality system; all ~0 at a true optimum.

    Order: the per-level balance equalities for m = m*+1..M, the rate cap
    at level m*, the total-files equality, the cache-budget equality.
    """
    M, L = caps.M, pop.L
    res: list[float] = []
    prefix = 0.0
    for m in range(sol.m_star + 1, M + 1):
        prefix += sol.x_star[m - 1]
        t = tail_mass(pop, min(prefix, float(L)) + 1.0)
        res.append(abs(t * sol.r_star - caps.cbar[m]) / caps.cbar[m])
    cap = caps.cbar[sol.m_star]
    res.append(max(0.0, (sol.r_star - cap) / cap) if math.isfinite(cap) else 0.0)
    res.append(abs(math.fsum(sol.x_star) - L) / L)
    res.append(abs(_load(sol.x_star) - l_c) / l_c)
    return res


def lowest_level_load(m_star: int, r: float, caps: LevelCapacities,
                      pop: PopularityModel) -> float:
    """The relaxation's load at rate r in the form that took the lowest
    occupied level m_star in 0..M: the dyadic head (L + 1) 4^-M - 4^-m_star
    and the levels above m_star, each from one full tail_inverse search.
    For r in m_star's bracket [cbar[m_star+1], cbar[m_star]] every level
    up to m_star has ratio >= 1 and adds exactly 3 4^-m, so
    relaxed_cache_load(r) must return these bits."""
    M, L = caps.M, pop.L
    total = (L + 1.0) * 4.0 ** (-M) - 4.0 ** (-m_star)
    for m in range(m_star + 1, M + 1):
        total += 3.0 * tail_inverse(pop, caps.cbar[m] / r)[0] * 4.0 ** (-m)
    return total


def relaxed_solution_at(r: float, caps: LevelCapacities, pop: PopularityModel) -> list[float]:
    """Fractional placement solving the per-level balance equalities at rate r.

    Telescoping construction: level occupancies are successive differences
    of tail inverses, each from a search over the whole library, with the
    inverse 1.0 at level 0, so the total is exactly L by construction.
    solve_relaxed must return these bits at its r*.
    """
    M, L = caps.M, pop.L
    finv = [1.0] + [tail_inverse(pop, caps.cbar[m] / r)[0] for m in range(1, M + 1)]
    xs = [finv[m + 1] - finv[m] for m in range(M)] + [L - finv[M] + 1.0]
    for m, v in enumerate(xs):
        if v < 0.0:
            raise BracketError(f"negative occupancy x[{m}] = {v} at rate {r}")
    return xs


def midpoint_solve_rate(lo: float, hi: float, caps: LevelCapacities, pop: PopularityModel,
                        l_c: float) -> tuple[float, list[float], int]:
    """placement._solve_rate before its secant pivots: the same bracket and
    doubling, but every step evaluates the load at the midpoint 0.5 (lo +
    hi), until lo and hi are adjacent floats. Returns r*, the inverses at
    r* and the number of midpoint steps. Any pivot rule inside the bracket
    ends on the same least float, so _solve_rate must return these bits."""
    M, L = caps.M, pop.L
    i_lo, i_top = [0] * (M + 1), [L - 1] * (M + 1)
    segments = [None] * (M + 1)
    at_hi = None
    if not math.isfinite(hi):
        hi = max(lo, 1e-300)
        for _ in range(2100):
            hi *= 2.0
            at_hi = _bracketed_load(hi, caps, pop, i_lo, i_top, segments)
            if at_hi[0] >= l_c:
                break
        else:
            raise BracketError("cache load never reaches the budget")
    i_hi = i_top if at_hi is None else at_hi[2]
    steps = 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        steps += 1
        at_mid = _bracketed_load(mid, caps, pop, i_lo, i_hi, segments)
        if at_mid[0] < l_c:
            lo, i_lo = mid, at_mid[2]
        else:
            hi, i_hi, at_hi = mid, at_mid[2], at_mid
    if at_hi is None:
        at_hi = _bracketed_load(hi, caps, pop, i_lo, i_hi, segments)
    return hi, at_hi[1], steps


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


def per_top_level_relaxations(caps, pop, l_c):
    """For each admissible top level m_b: the relaxed rate and the rounded
    placement of the relaxation that charges level m its share cbar[m] / m_b.

    The integer placements whose top level is m_b are feasible points of
    that relaxation, so the largest relaxed rate bounds the exact optimum
    from above; each rounded placement, padded with empty levels up to M
    and evaluated on the real capacities, bounds it from below. Returns
    (relaxed rate, rounded rate) pairs.
    """
    M, L = caps.M, pop.L
    out = []
    for m_b in range(1, M + 1):
        if L * 4.0 ** (-m_b) > l_c + 1e-12:
            continue  # even the top-heavy placement cannot fit
        sub_caps = LevelCapacities(
            cbar=(math.inf,) + tuple(caps.cbar[m] / m_b for m in range(1, m_b + 1)),
            rates=caps.rates[:m_b + 1])
        sol = solve_relaxed(sub_caps, pop, l_c)
        rounded = round_to_feasible(sol, l_c).x + (0,) * (M - m_b)
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


def baseline_exponent(beta1, beta2, a1, a2, tau) -> ScalingExponent:
    """The multihop/decode-and-forward baselines' scaling law as its own
    function: the cooperative law in regime I, and in regime II a branch
    point at 3/2 whatever the path loss exponent, with no correction."""
    regime = classify_regime(beta1, beta2, a1, a2)
    if regime == "I":
        if tau <= 1.0:
            return ScalingExponent("I", "tau<=1", 0.0, 0.0)
        return ScalingExponent("I", "tau>1", beta2 * (tau - 1.0), 0.0)
    if tau <= 1.0:
        return ScalingExponent("II", "tau<=1", (beta2 - beta1) / 2.0, 0.0)
    if tau <= 1.5:
        return ScalingExponent("II", "1<tau<=3/2", beta1 * (tau - 1.5) + beta2 / 2.0, 0.0)
    return ScalingExponent("II", "tau>3/2", beta2 * (tau - 1.0), 0.0)


def recursive_compositions(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to `total`, in lex order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in recursive_compositions(total - head, parts - 1):
            yield (head,) + rest


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


def two_call_cluster_rate(N: int, grid: NetworkGrid, params: PhyParams, *,
                          multihop_only: bool = False) -> ClusterRate:
    """cluster_rate as two calls: optimal_stages, then rate_hcoop at s*;
    multihop_only=True returns the multihop rate before the scan."""
    m = exact_log4(N)
    if m is None or m < 1 or N > grid.n:
        raise InvalidParameterError(
            f"cluster size must be a power of 4 in [4, {grid.n}], got {N!r}")
    _require_grid_alpha(grid, params)
    r_m = rate_multihop(N, params, grid.interference_multihop)
    if multihop_only:
        return ClusterRate(r_m, None)
    p_i_h = grid.interference_hcoop
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
        return ClusterRate(r_h, s_star)
    return ClusterRate(r_m, None)


def searchsorted_simulate(cfg: SimConfig, *, verbose: bool = False) -> EdgeLoadReport:
    """delivery.simulate as it drew every request at once: all N nodes from
    the generator, then all N uniforms, each request's level by
    searchsorted over the M boundary masses, and the counts by bincount."""
    grid, x, pop = cfg.grid, cfg.placement, cfg.pop
    M, n = grid.M, grid.n
    levels = tuple(range(1, M + 1))
    tails = tuple(pop.suffix(x.prefix(m)) for m in levels)
    bounds = 1.0 - np.asarray(tails)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    nodes = rng.integers(0, n, size=cfg.num_requests)
    lv = np.searchsorted(bounds, rng.random(cfg.num_requests), side="right")
    counts = np.bincount(lv, minlength=M + 1).astype(np.int64)
    crossings = np.cumsum(counts[::-1])[::-1]  # crossings[m] = requests from level >= m
    empirical = tuple(float(crossings[m]) / 4 ** (M - m + 1) for m in levels)
    analytic = tuple(cfg.num_requests * t * 4.0 ** (m - 1) / n
                     for m, t in zip(levels, tails))
    per_edge: dict[int, np.ndarray] | None = None
    if verbose:
        per_edge = {}
        for m in levels:
            # node >> 2(m-1) is the Z-order parent map: the node's level-(m-1) cluster
            child = nodes[lv >= m] >> (2 * (m - 1))
            per_edge[m] = np.bincount(child, minlength=4 ** (M - m + 1)).astype(np.int64)
    return EdgeLoadReport(
        levels=levels,
        empirical_load=empirical,
        analytic_load=analytic,
        tail_mass=tails,
        level_fraction=tuple(float(counts[m]) / cfg.num_requests for m in range(M + 1)),
        m_b=x.m_b,
        num_requests=cfg.num_requests,
        total_edge_crossings=int(np.sum(lv)),
        per_edge_counts=per_edge,
    )
