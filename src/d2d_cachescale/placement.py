"""Cache placement optimisation over the level hierarchy.

The decision vector x assigns x_m files to level m: each of those files
is spread one 4^{-m} fraction per node across every level-m cluster, so
a file at level m costs 4^{-m} of the per-node cache and is served over
m tree edges. Given per-level capacities, a popularity model and a cache
budget, the solver maximises the per-node throughput with a
relax-round-rebalance recipe: an exact solution of the continuous
relaxation, a carry-based rounding that never overshoots the cache, and
a local rebalancing loop that keeps shifting single files between levels
while the bottleneck ratio improves.

The relaxation's cache load is one non-decreasing function of the rate
r: a level whose capacity ratio cbar[m] / r is at least one constrains
nothing, and its tail inverse stays at 1. A bisection over the capacity
breakpoints cbar[m] finds the bracket (cbar[m*+1], cbar[m*]] that holds
the relaxed rate r*, and m*, the lowest occupied level, is read off it.
r* is the least float whose load meets the budget. The rate search
keeps a bracket with the load below the budget at its lower end and
meeting it at its upper end, and stops when the ends are adjacent
floats, so any pivot strictly inside the bracket leads to the same r*.
Its pivots are secant steps on the load in 1/r, moved towards the
midpoint and kept within a width budget as in the ITP method, so it
takes at most three steps more than midpoint bisection and on smooth
loads about a fifth as many.

Each step searches level m's tail segment only between the segments at
the ends of the rate bracket: cbar[m] / r does not increase with r, so
the segment index does not decrease, and the index is unique, so every
step sees the load of a full search. Once both ends agree on a level's
index, that level is pinned: its segment's suffix and probability are
read once, and every later step computes the level's inverse in closed
form with the search's own float operations, so pinned levels run no
search at all. Each level's inverse at r* is computed once, by the
evaluation that set r*; the occupancies read it.
"""

from __future__ import annotations

import functools
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
from .popularity import PopularityModel, tail_inverse


# A placement may exceed the per-node cache budget by this much and still fit.
BUDGET_SLACK = 1e-12

# 4^{-m}, the per-node cache cost of a file at level m, for every level a
# grid has (exact: a power of two).
_QUARTER = tuple(4.0 ** -m for m in range(MAX_LEVELS + 1))

# Steps after which the relaxed rate's search gives up with a BracketError;
# it needs at most three more than a midpoint loop, which needs up to 54 on
# a bracket within a factor of two of the rate.
_RATE_STEPS = 200


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


def relaxed_cache_load(r: float, caps: LevelCapacities, pop: PopularityModel) -> float:
    """Cache mass of the balanced fractional solution at rate r > 0.

    Each level whose capacity ratio cbar[m] / r is below one carries
    exactly the popularity tail that keeps its ratio at r. The files
    cached below the lowest such level sit at the highest level whose
    ratio is at least one (m* for a table that does not rise with the
    level), the cheapest level that constrains nothing. The load rises
    from L 4^{-M} at r <= cbar[M] to L at r = inf, strictly wherever some
    ratio is below one. The float value does not decrease in r either,
    since each of its operations is monotone under round-to-nearest;
    solve_relaxed defines r* on this float load.
    """
    if not r > 0.0:
        raise InvalidParameterError(f"rate must be > 0, got {r!r}")
    M, L = caps.M, pop.L
    return _bracketed_load(r, caps, pop, [0] * (M + 1), [L - 1] * (M + 1), [None] * (M + 1))[0]


def _bracketed_load(r: float, caps: LevelCapacities, pop: PopularityModel,
                    i_lo: list[int], i_hi: list[int], segments: list[tuple | None]
                    ) -> tuple[float, list[float], list[int]]:
    """relaxed_cache_load at r, with each level's tail inverse and tail index
    there (1.0 and 0 at level 0), searched in [i_lo[m], i_hi[m] + 1]:
    i_lo[m] and i_hi[m] are level m's indices at two rates around r, or
    the extremes 0 and L - 1.

    A level whose ratio y = cbar[m] / r is at least one has inverse 1.0
    and index 0, as tail_inverse returns them, and adds exactly 3 4^{-m}.
    The load starts from (L + 1) 4^{-M} - 1 and sums levels 1..M. Its
    partial sums over the leading such levels are integer multiples of
    4^{-M}, fewer than 2^53 of them while L + 1 and 4^M stay below 2^53,
    so they are exact. A level with
    i_lo[m] == i_hi[m] = i has index i at r, so its inverse comes from
    segment k = i + 1 alone, by tail_inverse's float operations in its
    order. segments[m] keeps that segment as the floats (k, k + 1,
    suffix(k), p(k)) from its first read on, for later calls on
    narrowings of the same bracket.
    """
    M, L = caps.M, pop.L
    cbar = caps.cbar
    inverse = [1.0] * (M + 1)
    index = [0] * (M + 1)
    total = (L + 1.0) * 4.0 ** (-M) - 1.0
    for m in range(1, M + 1):
        y = cbar[m] / r
        i = i_lo[m]
        if y >= 1.0:
            x, i = 1.0, 0
        elif i != i_hi[m]:
            x, i = tail_inverse(pop, y, i, i_hi[m] + 1)
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
        inverse[m] = x
        index[m] = i
        total += 3.0 * x * _QUARTER[m]
    return total, inverse, index


def solve_relaxed(caps: LevelCapacities, pop: PopularityModel, l_c: float) -> RelaxedSolution:
    """Exact solution of the continuous placement relaxation.

    The load does not decrease with the rate, and cbar does not increase
    with the level (a table where it does, or that holds a NaN, is
    refused), so the test "the load at cbar[m+1] is below the budget" is
    monotone in m. bisect_left over range(M) finds the first such m with
    one probe per step, or M (all files at the top level), and m* itself
    is one of the probes. m* is the lowest occupied level and
    (cbar[m*+1], cbar[m*]] the bracket of the rate r*: the least float
    there whose load meets the budget, found by _solve_rate's secant
    pivots from that probe's load; any pivot rule that stops on adjacent
    floats gives the same r*. The occupancies are successive differences
    of the tail inverses at r*, with the inverse 1.0 at level 0, so they
    sum to L. The inverses do not decrease with the level, since the
    ratios cbar[m] / r* do not increase, so no occupancy is negative.
    """
    M, L = caps.M, pop.L
    cbar = caps.cbar
    _require_admissible(L, M, l_c)
    _require_below_library(L, l_c)
    if not all(hi >= lo for hi, lo in zip(cbar, cbar[1:])):
        raise InvalidParameterError(
            f"level capacities must be numbers that do not rise with the level, got {cbar!r}")
    top_load = functools.cache(lambda m: relaxed_cache_load(cbar[m + 1], caps, pop))
    m_star = bisect_left(range(M), True, key=lambda m: top_load(m) < l_c)
    if m_star == M:
        return RelaxedSolution((0.0,) * M + (float(L),), cbar[M], M)
    r_star, finv = _solve_rate(cbar[m_star + 1], cbar[m_star], caps, pop, l_c, top_load(m_star))
    xs = [finv[m + 1] - finv[m] for m in range(M)] + [L - finv[M] + 1.0]
    return RelaxedSolution(tuple(xs), r_star, m_star)


def _solve_rate(lo: float, hi: float, caps: LevelCapacities, pop: PopularityModel,
                l_c: float, load_lo: float) -> tuple[float, list[float]]:
    """Least float r in (lo, hi] whose cache mass reaches l_c, and each
    level's tail inverse at r (indexed by level, as _bracketed_load
    returns them); load_lo < l_c is the load at lo.

    The float load does not decrease in r: each operation in
    _bracketed_load (the quotient cbar[m] / r, the tail search or the
    pinned segment's line, the clamp, the weighted sum) is monotone. So a
    search that keeps load(lo) < l_c <= load(hi) and stops when lo and hi
    are adjacent floats ends with hi the least float in the bracket whose
    load meets the budget, whichever rates inside the bracket it
    evaluates: that is r*. solve_relaxed passes the bracket (cbar[m*+1],
    cbar[m*]], whose top end's load the m* search found to meet the
    budget, except at m* = 0, which has no probe at cbar[0]: there a
    finite cbar[0] whose load misses the budget raises BracketError, and
    an infinite one gives way to the first doubling of lo whose load
    meets the budget, while each doubling that misses becomes lo.

    Each step evaluates one pivot, chosen as in the ITP method (Oliveira
    and Takahashi, ACM TOMS 47(1), 2021): the secant root through the
    loads at lo and hi, taken in u = 1/r, where a pinned level's load is
    affine; moved towards the midpoint by the largest of 0.1 w^2 / w0 (w
    the bracket's width, w0 its first), the rise of r that one rounding
    step of the load makes along that secant, and one ulp, so that it
    lands past the root and the other end moves too; then projected into
    [hi - reach, lo + reach], where reach starts at 4 w0 and halves each
    step. After j steps the bracket is at most 4 w0 / 2^j wide, four times
    a midpoint loop's, so the search closes at most two steps after a
    midpoint loop from the same bracket would, and one more where rounding
    leaves a float inside: at most three steps more than that loop, which
    needs up to 54 on a bracket within a factor of two of r*. A bracket
    still open after _RATE_STEPS steps raises BracketError rather than
    return an hi not shown to be least.

    Each step searches level m's tail index between i_lo[m] and
    i_hi[m] + 1, the indices at the current lo and hi, as solve_exact does
    for its thresholds. A correctly rounded cbar[m] / r does not increase
    with r, so a rate in (lo, hi) has its index in that bracket, and the
    largest i with suffix(i) >= y is unique: each step computes the load
    of a full search bit for bit. Once i_lo[m] == i_hi[m] the level is
    pinned for the rest of the search: `segments` keeps its segment after
    the first read, and each later step evaluates that segment's line in
    closed form instead of searching. The inverses at r* come from the
    evaluation that set hi.
    """
    M, L = caps.M, pop.L
    i_lo, i_top = [0] * (M + 1), [L - 1] * (M + 1)
    segments = [None] * (M + 1)
    if math.isfinite(hi):
        load_hi, inverse_hi, i_hi = _bracketed_load(hi, caps, pop, i_lo, i_top, segments)
        if not load_hi >= l_c:
            raise BracketError(f"cache load at the top rate {hi} misses the budget {l_c}")
    else:
        hi = max(lo, 1e-300)
        for _ in range(2100):
            hi *= 2.0
            load_hi, inverse_hi, i_hi = _bracketed_load(hi, caps, pop, i_lo, i_top, segments)
            if load_hi >= l_c:
                break
            lo, load_lo, i_lo = hi, load_hi, i_hi
        else:
            raise BracketError("cache load never reaches the budget")
    w0 = hi - lo
    reach = 4.0 * w0
    for step in range(_RATE_STEPS + 1):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if step == _RATE_STEPS:
            raise BracketError(f"rate bracket ({lo!r}, {hi!r}) still open after "
                               f"{_RATE_STEPS} steps")
        reach *= 0.5
        w, rise = hi - lo, load_hi - load_lo
        r = lo * hi / (lo + (load_hi - l_c) / rise * w)  # the secant's root in 1/r
        shift = mid - r
        push = max(0.1 * w * w / w0, math.ulp(l_c) / rise * w, math.ulp(mid))
        r = r + math.copysign(push, shift) if push < abs(shift) else mid
        r = min(max(r, hi - reach), lo + reach)  # neither part wider than reach
        if not lo < r < hi:
            r = mid
        load, inverse, index = _bracketed_load(r, caps, pop, i_lo, i_hi, segments)
        if load < l_c:
            lo, load_lo, i_lo = r, load, index
        else:
            hi, load_hi, inverse_hi, i_hi = r, load, inverse, index
    return hi, inverse_hi


def round_to_feasible(sol: RelaxedSolution, l_c: float) -> PlacementVector:
    """Carry-based integer rounding of the fractional solution for budget l_c.

    Level by level from level 0 upward, each level keeps the floor of its
    target plus whatever cache the levels below released (rescaled to this
    level's per-file cost), and the level where the running total reaches
    L absorbs the remainder; levels above it get nothing. The levels below
    m* hold 0.0, so they keep and release nothing. Floors only ever
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
    for m in range(M + 1):
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
    if not M >= 1:
        raise InvalidParameterError(f"level count must be >= 1, got {M!r}")
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
