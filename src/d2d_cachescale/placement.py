"""Cache placement optimisation over the level hierarchy.

The decision vector x assigns x_m files to level m: each of those files
is spread one 4^{-m} fraction per node across every level-m cluster, so
a file at level m costs 4^{-m} of the per-node cache and is served over
m tree edges. Given per-level capacities, a popularity model and a cache
budget, the solver maximises the per-node throughput with a
relax-round-rebalance recipe: an exact solution of the continuous
relaxation by bisection over m* then r, a carry-based rounding that never
overshoots the cache, and a local rebalancing loop that keeps shifting
single files between levels while the bottleneck ratio improves.

Each rate bisection step searches level m's tail segment only between
the segments at the ends of the rate bracket: cbar[m] / r does not
increase with r, so the segment index does not decrease, and the index is
unique, so every step sees the load of a full search and the bisection
ends on the same bits. Once both ends agree on a level's index, that
level is pinned: its segment's suffix and probability are read once, and
every later step computes the level's inverse in closed form with the
search's own float operations, so pinned levels run no search at all.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, replace

from .errors import (
    BracketError,
    InfeasibleProblemError,
    InvalidParameterError,
    InvariantViolationError,
)
from .hierarchy import MAX_LEVELS, LevelCapacities, NetworkGrid
from .popularity import PopularityModel, bracketed_tail_inverse, tail_inverse


# Relative width at which _solve_rate's bisection stops: a few ulps of the rate.
_RATE_REL_TOL = 4e-16

# A placement may exceed the per-node cache budget by this much and still fit.
BUDGET_SLACK = 1e-12

# 4^{-m}, the per-node cache cost of a file at level m, for every level a
# grid has (exact: a power of two).
_QUARTER = tuple(4.0 ** -m for m in range(MAX_LEVELS + 1))


@dataclass(frozen=True)
class PlacementVector:
    """Integer placement: x[m] files are cached at level m, m = 0..M.

    The counts are stored as Python ints; any integer type is accepted.
    """

    x: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.x:
            raise InvalidParameterError("placement vector cannot be empty")
        try:
            object.__setattr__(self, "x", tuple(map(operator.index, self.x)))
        except TypeError:
            raise InvalidParameterError(
                f"file counts must be integers, got {self.x!r}") from None
        if any(v < 0 for v in self.x):
            raise InvariantViolationError(f"negative file counts in {self.x!r}")

    @property
    def M(self) -> int:
        return len(self.x) - 1

    @property
    def L(self) -> int:
        return sum(self.x)

    @property
    def m_b(self) -> int:
        """Highest occupied level (0 when everything is cached locally)."""
        return _highest_occupied(self.x)

    def prefix(self, m: int) -> int:
        """Number of files cached strictly below level m."""
        return sum(self.x[:m])

    def cache_load(self) -> float:
        """Per-node cache usage in file-size units: sum_m x_m 4^{-m}."""
        return _load(self.x)

    def check_shape(self, L: int, M: int) -> None:
        """Raise unless the vector places exactly L files over levels 0..M."""
        if (self.L, self.M) != (L, M):
            raise InvariantViolationError(
                f"placement holds {self.L} files on levels 0..{self.M}, "
                f"the instance has {L} files on levels 0..{M}")

    def validate(self, L: int, l_c: float) -> None:
        """Raise unless the vector places exactly L files within budget l_c."""
        _require_budget(l_c)
        self.check_shape(L, self.M)
        load = self.cache_load()
        if load > l_c + BUDGET_SLACK:
            raise InvariantViolationError(
                f"placement needs {load} cache per node, budget is {l_c}")


@dataclass(frozen=True)
class RelaxedSolution:
    """Optimal fractional placement: occupancies, rate, lowest occupied level."""

    x_star: tuple[float, ...]
    r_star: float
    m_star: int


@dataclass(frozen=True)
class ThroughputReport:
    """Achieved per-node rate and which level binds it.

    per_level_slack[m - 1] is the headroom of level m's capacity ratio
    over the achieved rate for m = 1..m_b (inf where the level carries no
    traffic); the entry at the binding level is zero. A placement with
    every file at level 0 (m_b == 0) produces an unbounded report: rate ==
    inf is a marker there, never an operand.
    """

    rate: float
    binding_level: int | None
    per_level_slack: tuple[float, ...]
    m_b: int
    guarantee_floor: float | None = None


@dataclass(frozen=True)
class PlacementOutcome:
    """Bundle returned by the full optimisation pipeline."""

    placement: PlacementVector
    report: ThroughputReport
    relaxed: RelaxedSolution


def evaluate_throughput(x: PlacementVector, caps: LevelCapacities,
                        pop: PopularityModel) -> ThroughputReport:
    """Largest rate the tree supports for placement x.

    Level m carries the popularity tail past the files cached below it,
    shares its capacity round-robin over the m_b active levels, and the
    minimum ratio over the active levels is the achieved rate. Levels with
    zero tail contribute no constraint.
    """
    x.check_shape(pop.L, caps.M)
    m_b = x.m_b
    if m_b == 0:
        return ThroughputReport(rate=math.inf, binding_level=None, per_level_slack=(), m_b=0)
    ratios: list[float] = []
    best = math.inf
    binding: int | None = None
    p = 0
    for m in range(1, m_b + 1):
        p += x.x[m - 1]
        t = pop.suffix(p)
        if t <= 0.0:
            ratios.append(math.inf)
            continue
        r = caps.cbar[m] / (m_b * t)
        ratios.append(r)
        if r < best:
            best, binding = r, m
    slack = tuple(r - best if math.isfinite(r) else math.inf for r in ratios)
    return ThroughputReport(rate=best, binding_level=binding, per_level_slack=slack, m_b=m_b)


def relaxed_cache_load(m_star: int, r: float, caps: LevelCapacities,
                       pop: PopularityModel) -> float:
    """Cache mass of the balanced fractional solution at rate r.

    With m_star the lowest occupied level, every level above it holds
    exactly the files needed to keep its capacity ratio at r. Strictly
    increasing in r wherever some capacity-to-rate ratio is below one,
    and saturating at L 4^{-m_star} as r grows.
    """
    if math.isnan(r):
        raise InvalidParameterError(f"rate must be a number, got {r!r}")
    M, L = caps.M, pop.L
    return _bracketed_load(m_star, r, caps, pop, [0] * (M + 1), [L - 1] * (M + 1),
                           [None] * (M + 1))[0]


def _bracketed_load(m_star: int, r: float, caps: LevelCapacities, pop: PopularityModel,
                    i_lo: list[int], i_hi: list[int],
                    segments: list[tuple | None]) -> tuple[float, list[int]]:
    """relaxed_cache_load at r and each level's tail index there, searched in
    [i_lo[m], i_hi[m] + 1]: i_lo[m] and i_hi[m] are level m's indices at two
    rates around r, or the extremes 0 and L - 1.

    A level with i_lo[m] == i_hi[m] = i has index i at r, so its inverse
    comes from segment k = i + 1 alone, by bracketed_tail_inverse's float
    operations in its order. segments[m] keeps that segment as the floats
    (k, k + 1, suffix(k), p(k)) from its first read on, for later calls on
    narrowings of the same bracket.
    """
    M, L = caps.M, pop.L
    cbar = caps.cbar
    index = [0] * (M + 1)
    total = (L + 1.0) * 4.0 ** (-M) - 4.0 ** (-m_star)
    for m in range(m_star + 1, M + 1):
        y = cbar[m] / r
        i = i_lo[m]
        if i != i_hi[m]:
            x, i = bracketed_tail_inverse(pop, y, i, i_hi[m] + 1)
        elif y >= 1.0:
            x = 1.0
        elif y <= 0.0:
            x = L + 1.0
        else:
            seg = segments[m]
            if seg is None:
                k = i + 1
                seg = segments[m] = (float(k), float(k + 1), pop.suffix(k), pop.p(k))
            k, k1, s, p = seg
            x = k1 - (y - s) / p
            x = k if x < k else k1 if x > k1 else x
        index[m] = i
        total += 3.0 * x * _QUARTER[m]
    return total, index


def relaxed_solution_at(m_star: int, r: float, caps: LevelCapacities,
                        pop: PopularityModel) -> list[float]:
    """Fractional placement solving the per-level balance equalities at rate r.

    Telescoping construction: level occupancies are successive differences
    of tail inverses, so the total is exactly L by construction.
    """
    M, L = caps.M, pop.L
    xs = [0.0] * (M + 1)
    if m_star >= M:
        xs[M] = float(L)
        return xs
    finv = [tail_inverse(pop, caps.cbar[m] / r) for m in range(m_star + 1, M + 1)]
    xs[m_star] = finv[0] - 1.0
    for m in range(m_star + 1, M):
        xs[m] = finv[m - m_star] - finv[m - 1 - m_star]
    xs[M] = L - finv[M - 1 - m_star] + 1.0
    for m, v in enumerate(xs):
        if v < -1e-9:
            raise BracketError(
                f"negative occupancy x[{m}] = {v}: rate {r} outside its bracket")
        if v < 0.0:
            xs[m] = 0.0
    return xs


def solve_relaxed(caps: LevelCapacities, pop: PopularityModel, l_c: float) -> RelaxedSolution:
    """Exact solution of the continuous placement relaxation.

    The lowest occupied level m* is the first m whose load at the top of
    its rate bracket, relaxed_cache_load(m, cbar[m+1]), is below the
    budget, or M (all files at the top level). That load does not increase
    with m, so the test "below the budget" is monotone and bisect_left
    over range(M) finds m* with one probe per step. The rate solve then
    meets the budget exactly in (cbar[m*+1], cbar[m*]].
    """
    M, L = caps.M, pop.L
    _require_admissible(L, M, l_c)
    _require_below_library(L, l_c)
    m_star = bisect_left(range(M), True,
                         key=lambda m: relaxed_cache_load(m, caps.cbar[m + 1], caps, pop) < l_c)
    r_star = caps.cbar[M] if m_star == M else _solve_rate(m_star, caps, pop, l_c)
    xs = relaxed_solution_at(m_star, r_star, caps, pop)
    return RelaxedSolution(tuple(xs), r_star, m_star)


def _solve_rate(m_star: int, caps: LevelCapacities, pop: PopularityModel,
                l_c: float) -> float:
    """Rate r in (cbar[m*+1], cbar[m*]] at which the cache mass equals l_c,
    given the m* search's guarantee that the load at cbar[m*+1] is below l_c.

    Plain bisection (the load is monotone in r) down to machine precision,
    then a closed-form snap: once the bracket pins every tail inverse to a
    single linear segment the load is affine in 1/r and the root is exact.
    The snap is kept only when it actually reduces the residual.

    Each step searches level m's tail index between i_lo[m] and
    i_hi[m] + 1, the indices at the current lo and hi, as solve_exact does
    for its thresholds. A correctly rounded cbar[m] / r does not increase
    with r, so a rate in (lo, hi) has its index in that bracket, and the
    largest i with suffix(i) >= y is unique: each step computes the load
    of a full search bit for bit. Once i_lo[m] == i_hi[m] the level is
    pinned for the rest of the bisection: `segments` keeps its segment
    after the first read, and each later step evaluates that segment's
    line in closed form instead of searching (on a sweep at M = 12 the
    levels pin after about a third of the steps). The load at the final
    hi is the one its step computed, when a step probed hi.
    """
    lo = caps.cbar[m_star + 1]
    hi = caps.cbar[m_star]
    load_hi = None
    if not math.isfinite(hi):
        hi = max(lo, 1e-300)
        for _ in range(2100):
            hi *= 2.0
            load_hi = relaxed_cache_load(m_star, hi, caps, pop)
            if load_hi >= l_c:
                break
        else:
            raise BracketError("cache load never reaches the budget")
    i_lo, i_hi = [0] * (caps.M + 1), [pop.L - 1] * (caps.M + 1)
    segments = [None] * (caps.M + 1)
    for _ in range(200):
        if hi - lo <= _RATE_REL_TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        load, index = _bracketed_load(m_star, mid, caps, pop, i_lo, i_hi, segments)
        if load < l_c:
            lo, i_lo = mid, index
        else:
            hi, i_hi, load_hi = mid, index, load
    a = (pop.L + 1.0) * 4.0 ** (-caps.M) - 4.0 ** (-m_star)
    b = 0.0
    for m in range(m_star + 1, caps.M + 1):
        y = caps.cbar[m] / hi
        w = 3.0 * 4.0 ** (-m)
        if y >= 1.0:
            a += w  # ratio inactive on this segment: inverse pinned at 1
            continue
        k = min(int(tail_inverse(pop, y)), pop.L)
        p_k = pop.p(k)
        a += w * (k + 1.0 + pop.suffix(k) / p_k)
        b += w * caps.cbar[m] / p_k
    if a - l_c > 0.0 and b > 0.0:
        r_snap = b / (a - l_c)
        if lo <= r_snap <= hi * (1.0 + 1e-12):
            err_snap = abs(relaxed_cache_load(m_star, r_snap, caps, pop) - l_c)
            if load_hi is None:
                load_hi = relaxed_cache_load(m_star, hi, caps, pop)
            err_hi = abs(load_hi - l_c)
            if err_snap <= err_hi:
                return r_snap
    return hi


def round_to_feasible(sol: RelaxedSolution, l_c: float) -> PlacementVector:
    """Carry-based integer rounding of the fractional solution for budget l_c.

    Level by level from m* upward, each level keeps the floor of its
    target plus whatever cache the levels below released (rescaled to this
    level's per-file cost), and the level where the running total reaches
    L absorbs the remainder; levels above it get nothing. Floors only ever
    release cache. A target within 1e-9 of an integer is rounded to it, and
    a round-up hands its cost to the levels above as a negative carry. The
    level that absorbs the remainder has no level above to hand a cost to,
    so where the remainder would take the placement past l_c plus
    BUDGET_SLACK, be it by a round-up or by the rounding error of a target,
    it keeps one file fewer and the next level absorbs that file.
    """
    M = len(sol.x_star) - 1
    L = round(math.fsum(sol.x_star))
    xo = [0] * (M + 1)
    carry = 0.0
    cum = 0
    for m in range(sol.m_star, M + 1):
        val = sol.x_star[m] + carry * 4.0 ** m
        near = round(val)
        xm = near if abs(val - near) < 1e-9 else math.floor(val)
        if cum + xm >= L and _load(xo[:m] + [L - cum]) > l_c + BUDGET_SLACK:
            xm = L - cum - 1
        carry = sol.x_star[m] * 4.0 ** (-m) + carry - xm * 4.0 ** (-m)
        if cum + xm >= L:
            xo[m] = L - cum
            cum = L
            break
        xo[m] = xm
        cum += xm
    if cum < L:
        xo[M] += L - cum  # unreachable for a consistent solution; keeps the sum exact
    return PlacementVector(tuple(xo))


def rebalance(x: PlacementVector, caps: LevelCapacities, pop: PopularityModel,
              l_c: float) -> PlacementVector:
    """Local search over single-file moves between adjacent levels.

    Each round moves one file from the lowest level holding more than one
    file up a level, then pulls files down from the top level into that
    slot while the cache budget allows, and keeps the move only if the
    bottleneck capacity ratio strictly improves. Accepted moves strictly
    raise that ratio over a finite set of placements, so the loop
    terminates; the iteration cap only guards against implementation bugs.
    """
    M = x.M
    xs = list(x.x)
    L = sum(xs)
    for _ in range(max(1, 10 * L * max(M, 1))):
        m_top = _highest_occupied(xs)
        m_low = _lowest_multi(xs)
        if m_low is None or m_top - m_low <= 2:
            return PlacementVector(tuple(xs))
        trial = list(xs)
        trial[m_low] -= 1
        trial[m_low + 1] += 1
        top = _highest_occupied(trial)
        while top > m_low + 1 and trial[top] > 0:
            load_after = _load(trial) - 4.0 ** (-top) + 4.0 ** (-(m_low + 1))
            if load_after > l_c + BUDGET_SLACK:
                break
            trial[top] -= 1
            trial[m_low + 1] += 1
            top = _highest_occupied(trial)
        r_new = _bottleneck(trial, m_low, _highest_occupied(trial), caps, pop)
        r_old = _bottleneck(xs, m_low, m_top, caps, pop)
        if r_new > r_old:
            xs = trial
        else:
            return PlacementVector(tuple(xs))
    raise InvariantViolationError("rebalance failed to terminate within its iteration cap")


def _highest_occupied(xs) -> int:
    """Highest level m with xs[m] > 0 (0 when there is none)."""
    top = 0
    for m, v in enumerate(xs):
        if v:
            top = m
    return top


def _lowest_multi(xs: list[int]) -> int | None:
    for m, v in enumerate(xs):
        if v > 1:
            return m
    return None


def _require_budget(l_c: float) -> None:
    """Refuse a NaN cache budget, which every budget comparison would let through."""
    if math.isnan(l_c):
        raise InvalidParameterError(f"cache budget must be a number, got {l_c!r}")


def _require_admissible(L: int, M: int, l_c: float) -> None:
    """Refuse a NaN budget, or one below L 4^{-M}, the least that holds the library."""
    _require_budget(l_c)
    min_load = L * 4.0 ** (-M)
    if l_c < min_load - BUDGET_SLACK:
        raise InfeasibleProblemError(
            f"cache budget {l_c} cannot hold the library: "
            f"needs at least {min_load} per node")


def _require_below_library(L: int, l_c: float) -> None:
    """Refuse a budget of L or more, which caches the whole library at every node."""
    if l_c >= L:
        raise InvalidParameterError(
            f"cache budget {l_c} stores the whole library locally; nothing to optimise")


def _require_depth(grid: NetworkGrid, caps: LevelCapacities) -> None:
    """Refuse a capacity table built for another depth than the grid's."""
    if grid.M != caps.M:
        raise InvariantViolationError(
            f"grid has {grid.M} levels, capacities have {caps.M}")


def _load(xs) -> float:
    """Per-node cache usage sum_m xs[m] 4^{-m} of (possibly fractional) occupancies."""
    if len(xs) <= len(_QUARTER):  # every placement on a grid
        return math.fsum(map(operator.mul, xs, _QUARTER))
    return math.fsum(v * 4.0 ** (-m) for m, v in enumerate(xs))


def _bottleneck(xs: list[int], m_from: int, m_to: int, caps: LevelCapacities,
                pop: PopularityModel) -> float:
    """Min over m in [m_from, m_to] of cbar[m] / (tail past the files held
    in levels m_from..m-1); the level-m_from term is just cbar[m_from]."""
    best = math.inf
    held = 0
    for m in range(m_from, m_to + 1):
        t = pop.suffix(min(held, pop.L))
        if t > 0.0:
            best = min(best, caps.cbar[m] / t)
        held += xs[m]
    return best


def guarantee_floor(r_star: float, M: int, tau: float) -> float:
    """r_star / (M (1 + 2^tau)), the provable fraction of the relaxed optimum
    that rounding preserves (r_star = 1 gives the factor); 0.0 once 2^tau overflows."""
    try:
        return r_star / (M * (1.0 + 2.0 ** tau))
    except OverflowError:
        return 0.0


def optimize_placement(grid: NetworkGrid, caps: LevelCapacities,
                       pop: PopularityModel, l_c: float) -> PlacementOutcome:
    """Full pipeline: relax, round, rebalance, evaluate.

    The report carries the guarantee floor derived from the relaxed
    optimum. The achieved rate does not fall below it while L_C <= L - 1;
    with less than one file left out of each node's cache, rounding can
    lose a whole file's tail and no integer placement reaches the floor.
    """
    _require_depth(grid, caps)
    sol = solve_relaxed(caps, pop, l_c)
    rounded = round_to_feasible(sol, l_c)
    balanced = rebalance(rounded, caps, pop, l_c)
    balanced.validate(pop.L, l_c)
    report = evaluate_throughput(balanced, caps, pop)
    floor = guarantee_floor(sol.r_star, caps.M, pop.tau)
    return PlacementOutcome(placement=balanced,
                            report=replace(report, guarantee_floor=floor),
                            relaxed=sol)
