"""Relaxed solver, optimality checks, rounding, rebalancing, evaluation."""

import math
import random

import numpy as np
import pytest

from d2d_cachescale import (
    BracketError,
    DomainError,
    InfeasibleProblemError,
    InvalidParameterError,
    InvariantViolationError,
    NetworkGrid,
    PhyParams,
    PlacementVector,
    brute_force,
    evaluate_throughput,
    optimize_placement,
    solve_exact,
    throughput_bounds,
    zipf_pmf,
)
from d2d_cachescale.exact import feasible_for_rate
from d2d_cachescale.placement import (
    RelaxedSolution,
    guarantee_floor,
    rebalance,
    relaxed_cache_load,
    relaxed_solution_at,
    round_to_feasible,
    solve_relaxed,
)
from d2d_cachescale.popularity import tail_inverse
from d2d_cachescale import placement
from conftest import caps_for
from reference import check_optimality, dense_suffix, dense_zipf, relaxed_rate


def random_instance(rng, m_max=8, l_max=10000, frac_hi=0.999):
    m_levels = rng.randint(1, m_max)
    L = rng.randint(2, l_max)
    tau = rng.uniform(0.0, 3.0)
    alpha = rng.choice([2.5, 3.0, 3.5, 4.0])
    kappa = rng.choice([0.0, 1.0])
    grid, params, caps = caps_for(m_levels, kappa, alpha)
    pop = zipf_pmf(L, tau)
    lo = L * 4.0 ** (-m_levels)
    l_c = lo + (L - lo) * rng.uniform(1e-6, frac_hi)
    return grid, caps, pop, l_c


def random_feasible_placement(rng, m_levels, L):
    cuts = sorted(rng.randint(0, L) for _ in range(m_levels))
    return PlacementVector(tuple(b - a for a, b in zip([0] + cuts, cuts + [L])))


def reference_cache_load(m_star, r, caps, pop):
    """relaxed_cache_load as one full tail_inverse search per level, the
    form it had before the bracketed search."""
    M, L = caps.M, pop.L
    total = (L + 1.0) * 4.0 ** (-M) - 4.0 ** (-m_star)
    for m in range(m_star + 1, M + 1):
        total += 3.0 * tail_inverse(pop, caps.cbar[m] / r) * 4.0 ** (-m)
    return total


def reference_lowest_level(caps, pop, l_c):
    """m* by the nested search solve_relaxed used before its one-probe bisection.

    Each step probes the load at both ends of level m's rate bracket and
    stops where the budget falls between them; solve_relaxed's bisection
    must return the same level.
    """
    M = caps.M
    if reference_cache_load(0, caps.cbar[1], caps, pop) < l_c:
        return 0
    if pop.L * 4.0 ** (-M) >= l_c:
        return M
    m_lo, m_hi = 0, M
    m_star = (m_lo + m_hi) // 2
    while True:
        if reference_cache_load(m_star, caps.cbar[m_star + 1], caps, pop) >= l_c:
            m_lo = m_star
        elif reference_cache_load(m_star, caps.cbar[m_star], caps, pop) < l_c:
            m_hi = m_star
        else:
            return m_star
        if m_hi - m_lo == 1:
            return m_hi
        m_star = (m_lo + m_hi) // 2


def reference_solve_rate(m_star, caps, pop, l_c):
    """_solve_rate before its bracketed search: every bisection step runs a
    full tail_inverse search per level. The bracketed solver must visit
    the same rates and return the same bits."""
    lo = caps.cbar[m_star + 1]
    hi = caps.cbar[m_star]
    if not math.isfinite(hi):
        hi = max(lo, 1e-300)
        for _ in range(2100):
            hi *= 2.0
            if reference_cache_load(m_star, hi, caps, pop) >= l_c:
                break
        else:
            raise BracketError("cache load never reaches the budget")
    for _ in range(200):
        if hi - lo <= placement._RATE_REL_TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if reference_cache_load(m_star, mid, caps, pop) < l_c:
            lo = mid
        else:
            hi = mid
    a = (pop.L + 1.0) * 4.0 ** (-caps.M) - 4.0 ** (-m_star)
    b = 0.0
    pmf = dense_zipf(pop.L, pop.tau)[1]
    for m in range(m_star + 1, caps.M + 1):
        y = caps.cbar[m] / hi
        w = 3.0 * 4.0 ** (-m)
        if y >= 1.0:
            a += w
            continue
        k = min(int(tail_inverse(pop, y)), pop.L)
        p_k = float(pmf[k])
        a += w * (k + 1.0 + float(dense_suffix(pop.L, pop.tau)[k]) / p_k)
        b += w * caps.cbar[m] / p_k
    if a - l_c > 0.0 and b > 0.0:
        r_snap = b / (a - l_c)
        if lo <= r_snap <= hi * (1.0 + 1e-12):
            err_snap = abs(reference_cache_load(m_star, r_snap, caps, pop) - l_c)
            err_hi = abs(reference_cache_load(m_star, hi, caps, pop) - l_c)
            if err_snap <= err_hi:
                return r_snap
    return hi


def reference_solve_relaxed(caps, pop, l_c):
    """solve_relaxed with the nested m* search and its exits (the whole
    library at the top level for m* = M, and the rate cbar[m*+1] when the
    load there already meets the budget) and the full-search rate solve."""
    M, L = caps.M, pop.L
    if l_c < L * 4.0 ** (-M) - 1e-12:
        raise InfeasibleProblemError("budget below L / n")
    if l_c >= L:
        raise InvalidParameterError("budget holds the whole library")
    m_star = reference_lowest_level(caps, pop, l_c)
    if m_star == M:
        return RelaxedSolution((0.0,) * M + (float(L),), caps.cbar[M], M)
    r_star = caps.cbar[m_star + 1]
    if reference_cache_load(m_star, r_star, caps, pop) < l_c:
        r_star = reference_solve_rate(m_star, caps, pop, l_c)
    return RelaxedSolution(tuple(relaxed_solution_at(m_star, r_star, caps, pop)),
                           r_star, m_star)


def _relaxed_outcome(solver, caps, pop, l_c):
    try:
        sol = solver(caps, pop, l_c)
    except (InfeasibleProblemError, InvalidParameterError) as exc:
        return type(exc)
    return tuple(v.hex() for v in sol.x_star), sol.r_star.hex(), sol.m_star


def assert_relaxed_matches_reference(caps, pop, l_c):
    """solve_relaxed returns the reference's x*, r* and m* bits, or raises the same type."""
    assert (_relaxed_outcome(solve_relaxed, caps, pop, l_c)
            == _relaxed_outcome(reference_solve_relaxed, caps, pop, l_c))


class TestEvaluateThroughput:
    def test_single_level_all_shared(self):
        """M=1, L=2, tau=0, x=[0,2]: tail f(1)=1, one active level, R = cbar_1."""
        grid, _, caps = caps_for(1, 0.0, 4.0)
        pop = zipf_pmf(2, 0.0)
        rep = evaluate_throughput(PlacementVector((0, 2)), caps, pop)
        assert rep.rate == pytest.approx(caps.cbar[1], rel=1e-15)
        assert rep.binding_level == 1 and rep.m_b == 1

    def test_split_halves_tail(self):
        """x=[1,1]: the level-1 tail drops to f(2) = 0.5, doubling the rate."""
        grid, _, caps = caps_for(1, 0.0, 4.0)
        pop = zipf_pmf(2, 0.0)
        rep = evaluate_throughput(PlacementVector((1, 1)), caps, pop)
        assert rep.rate == pytest.approx(2.0 * caps.cbar[1], rel=1e-15)

    def test_all_local_marker(self):
        grid, _, caps = caps_for(2, 0.0, 4.0)
        pop = zipf_pmf(5, 1.0)
        rep = evaluate_throughput(PlacementVector((5, 0, 0)), caps, pop)
        assert rep.m_b == 0 and rep.rate == math.inf
        assert rep.binding_level is None

    def test_slack_zero_at_binding_level(self):
        grid, _, caps = caps_for(3, 0.0, 4.0)
        pop = zipf_pmf(30, 1.2)
        rep = evaluate_throughput(PlacementVector((2, 8, 10, 10)), caps, pop)
        assert rep.per_level_slack[rep.binding_level - 1] == 0.0
        assert all(s >= 0 for s in rep.per_level_slack)

    def test_infeasible_inputs_raise(self):
        grid, _, caps = caps_for(2, 0.0, 4.0)
        pop = zipf_pmf(5, 1.0)
        with pytest.raises(InvariantViolationError):
            evaluate_throughput(PlacementVector((1, 1, 1)), caps, pop)
        with pytest.raises(InvariantViolationError):
            PlacementVector((5, 0, 0)).validate(5, 4.0)

    @pytest.mark.parametrize("x", [(1.5, 2.5, 4.0), (math.nan, 4, 4)])
    def test_non_integer_counts_are_refused(self, x):
        """Such a vector was once accepted, and evaluate_throughput and
        simulate then failed with a TypeError from a memoryview slice."""
        with pytest.raises(InvalidParameterError, match="file counts must be integers"):
            PlacementVector(x)

    def test_numpy_integer_counts_become_ints(self):
        grid, _, caps = caps_for(2, 0.0, 4.0)
        pop = zipf_pmf(8, 1.0)
        x = PlacementVector(tuple(np.array([1, 3, 4])))
        assert x.x == (1, 3, 4) and all(type(v) is int for v in x.x)
        assert evaluate_throughput(x, caps, pop) == evaluate_throughput(
            PlacementVector((1, 3, 4)), caps, pop)


class TestRelaxedCacheLoad:
    def test_saturates_low_rate(self):
        """Rates below every capacity leave all inverses at 1: the telescoped
        load is exactly L 4^{-M}."""
        grid, _, caps = caps_for(3, 0.0, 4.0)
        pop = zipf_pmf(17, 1.3)
        r = caps.cbar[3] * 0.5
        for m_star in range(3):
            assert relaxed_cache_load(m_star, r, caps, pop) \
                == pytest.approx(17 * 4.0 ** -3, rel=1e-12)

    def test_monotone_in_rate(self):
        rng = random.Random(42)
        for _ in range(200):
            grid, caps, pop, _ = random_instance(rng, m_max=6, l_max=500)
            m_star = rng.randint(0, grid.M - 1)
            r1 = caps.cbar[m_star + 1] * rng.uniform(0.5, 4.0)
            r2 = r1 * rng.uniform(1.0, 4.0)
            assert relaxed_cache_load(m_star, r2, caps, pop) \
                >= relaxed_cache_load(m_star, r1, caps, pop) - 1e-12

    def test_boundary_chain(self):
        """Load at a level's own capacity equals the neighbour level's load
        there bit for bit, and is at least the load at the next capacity
        down.

        At r = cbar[m] the quotient is exactly 1.0 and tail_inverse returns
        1.0, so the two sides differ only in their dyadic head terms,
        (L+1) 4^-M - 4^-m against (L+1) 4^-M - 4^-(m-1) + 3 4^-m, and both
        are exact while L + 1 and 4^M stay below 2^53."""
        rng = random.Random(43)
        for _ in range(50):
            grid, caps, pop, _ = random_instance(rng, m_max=6, l_max=500)
            for m in range(1, grid.M):
                at_own = relaxed_cache_load(m, caps.cbar[m], caps, pop)
                at_next = relaxed_cache_load(m, caps.cbar[m + 1], caps, pop)
                assert at_own >= at_next
                assert at_next == relaxed_cache_load(m + 1, caps.cbar[m + 1], caps, pop)
                assert at_own == relaxed_cache_load(m - 1, caps.cbar[m], caps, pop)


    def test_matches_full_search(self):
        """Full brackets give the per-level tail_inverse sum bit for bit, on
        rates that clamp every level, some levels or none."""
        rng = random.Random(44)
        for _ in range(300):
            grid, caps, pop, _ = random_instance(rng, m_max=8, l_max=3000)
            m_star = rng.randint(0, grid.M - 1)
            r = caps.cbar[m_star + 1] * rng.choice([0.5, 1.0, rng.uniform(1.0, 1e3)])
            assert relaxed_cache_load(m_star, r, caps, pop) \
                == reference_cache_load(m_star, r, caps, pop)

    def test_indices_at_two_rates_bracket_the_search(self):
        """Each level's tail index is non-decreasing in the rate, and the
        indices at any r1 <= r <= r2 bracket r's search to the full result.
        Narrow brackets pin some levels (i1[m] == i2[m]), whose inverse
        comes from the one segment kept in the segments list: a second
        rate in the bracket reuses it and still gives the full result."""
        rng = random.Random(45)
        pinned = searched = 0
        for trial in range(600):
            grid, caps, pop, _ = random_instance(rng, m_max=8, l_max=3000)
            m_star = rng.randint(0, grid.M - 1)
            full = [0] * (grid.M + 1), [pop.L - 1] * (grid.M + 1), [None] * (grid.M + 1)
            if trial % 2:
                r1 = caps.cbar[m_star + 1] * 2.0 ** rng.uniform(0.0, 10.0)
                r1, r, r2 = sorted(r1 * (1.0 + 2.0 ** -rng.uniform(8.0, 50.0) * rng.random())
                                   for _ in range(3))
            else:
                r1, r, r2 = sorted(caps.cbar[m_star + 1] * 2.0 ** rng.uniform(-1.0, 10.0)
                                   for _ in range(3))
            (_, i1), (_, i2) = (placement._bracketed_load(m_star, q, caps, pop, *full)
                                for q in (r1, r2))
            load, index = placement._bracketed_load(m_star, r, caps, pop, *full)
            assert all(a <= i <= b for a, i, b in zip(i1, index, i2))
            segments = [None] * (grid.M + 1)
            assert placement._bracketed_load(m_star, r, caps, pop, i1, i2, segments) \
                == (load, index)
            for m in range(m_star + 1, grid.M + 1):
                y = caps.cbar[m] / r
                if i1[m] == i2[m] and 0.0 < y < 1.0:
                    k = i1[m] + 1
                    assert segments[m] == (k, k + 1, pop.suffix(k), pop.p(k))
                    pinned += 1
                else:
                    assert segments[m] is None
                    searched += 1
            for q in (r1, r2, 0.5 * (r1 + r2)):
                assert placement._bracketed_load(m_star, q, caps, pop, i1, i2, segments) \
                    == placement._bracketed_load(m_star, q, caps, pop, *full)
        assert pinned > 100 and searched > 100

    def test_pinned_level_at_a_ratio_of_one(self):
        """A level pinned at index 0 whose ratio cbar[m] / r is 1.0, or one
        float above, gives the full search's 1.0, not its segment's line
        2 - (y - suffix(1)) / p(1). On these libraries (1 - suffix(1)) / p(1)
        rounds below 1, so the line reads above 1.0 at y = 1."""
        cases = 0
        for L, tau in ((2, 0.5), (4, 1.5), (5, 0.0), (10, 0.5), (13, 0.0)):
            pop = zipf_pmf(L, tau)
            assert 2.0 - (1.0 - pop.suffix(1)) / pop.p(1) > 1.0
            for m_levels in (1, 2, 3):
                grid, _, caps = caps_for(m_levels, 0.0, 4.0)
                for m_star in range(m_levels):
                    m = m_star + 1
                    r2 = caps.cbar[m] * (1.0 + 2.0 ** -30)
                    for r in (caps.cbar[m], math.nextafter(caps.cbar[m], 0.0)):
                        assert caps.cbar[m] / r >= 1.0
                        full = [0] * (m_levels + 1), [L - 1] * (m_levels + 1)
                        (_, i1), (_, i2) = (
                            placement._bracketed_load(m_star, q, caps, pop, *full,
                                                      [None] * (m_levels + 1))
                            for q in (r, r2))
                        assert i1[m] == i2[m] == 0
                        assert placement._bracketed_load(
                            m_star, r, caps, pop, i1, i2, [None] * (m_levels + 1)) \
                            == placement._bracketed_load(m_star, r, caps, pop, *full,
                                                         [None] * (m_levels + 1))
                        cases += 1
        assert cases == 60

    def test_pinned_level_on_a_boundary_mass(self):
        """A level pinned at index i whose ratio is exactly suffix(i) gives
        the full search's x = i + 1. Where (suffix(i) - suffix(i + 1)) /
        p(i + 1) rounds above 1, the segment's line reads below i + 1 there
        and only the clamp's lower bound lifts it back."""
        m_levels = 3
        grid, _, caps = caps_for(m_levels, 0.0, 4.0)
        m_star, cbar = m_levels - 1, caps.cbar[m_levels]
        lifted = 0
        for L, tau in ((50, 0.0), (300, 0.8)):
            pop = zipf_pmf(L, tau)
            full = [0] * (m_levels + 1), [L - 1] * (m_levels + 1)
            for i in range(1, L - 1):
                s = pop.suffix(i)
                r = cbar / s
                for _ in range(4):  # the rate whose ratio rounds to s, if one is near
                    if cbar / r == s:
                        break
                    r = math.nextafter(r, math.inf if cbar / r > s else 0.0)
                else:
                    continue
                r2 = math.nextafter(r, math.inf)
                (_, i1), (_, i2) = (
                    placement._bracketed_load(m_star, q, caps, pop, *full,
                                              [None] * (m_levels + 1))
                    for q in (r, r2))
                assert i1[m_levels] == i2[m_levels] == i
                assert placement._bracketed_load(
                    m_star, r, caps, pop, i1, i2, [None] * (m_levels + 1)) \
                    == placement._bracketed_load(m_star, r, caps, pop, *full,
                                                 [None] * (m_levels + 1))
                lifted += (s - pop.suffix(i + 1)) / pop.p(i + 1) > 1.0
        assert lifted > 50


class TestRelaxedSolutionAt:
    def test_total_is_telescoped(self):
        grid, _, caps = caps_for(4, 0.0, 4.0)
        pop = zipf_pmf(100, 1.5)
        xs = relaxed_solution_at(1, caps.cbar[1] * 0.7, caps, pop)
        assert math.fsum(xs) == pytest.approx(100.0, rel=1e-12)
        assert xs[0] == 0.0

    def test_degenerate_all_at_top(self):
        """Rates at or below the top capacity leave every inverse clamped at 1."""
        grid, _, caps = caps_for(3, 0.0, 4.0)
        pop = zipf_pmf(64, 0.5)
        xs = relaxed_solution_at(0, caps.cbar[3] * 0.9, caps, pop)
        assert xs[:3] == [0.0, 0.0, 0.0]
        assert xs[3] == pytest.approx(64.0, rel=1e-12)

    def test_balance_residuals(self):
        """The construction satisfies the per-level equalities by design."""
        from reference import tail_mass
        rng = random.Random(7)
        for _ in range(100):
            grid, caps, pop, _ = random_instance(rng, m_max=6, l_max=2000)
            m_star = rng.randint(0, grid.M - 1)
            r = caps.cbar[m_star + 1] * rng.uniform(1.0001, 3.0)
            xs = relaxed_solution_at(m_star, r, caps, pop)
            prefix = 0.0
            for m in range(m_star + 1, grid.M + 1):
                prefix += xs[m - 1]
                lhs = tail_mass(pop, min(prefix + 1.0, pop.L + 1.0)) * r
                if caps.cbar[m] / r < 1.0:  # active constraint only
                    assert lhs == pytest.approx(caps.cbar[m], rel=1e-9)


class TestSolveRelaxed:
    def test_minimum_budget_goes_all_top(self):
        grid, _, caps = caps_for(3, 0.0, 4.0)
        pop = zipf_pmf(64, 1.0)
        l_c = 64 * 4.0 ** -3
        sol = solve_relaxed(caps, pop, l_c)
        assert sol.m_star == 3
        assert sol.x_star[3] == 64.0
        assert sol.r_star == caps.cbar[3]
        assert max(check_optimality(sol, caps, pop, l_c)) == 0.0

    def test_generous_budget_reaches_level_zero(self):
        grid, _, caps = caps_for(3, 0.0, 4.0)
        pop = zipf_pmf(64, 1.0)
        sol = solve_relaxed(caps, pop, 0.999 * 64)
        assert sol.m_star == 0

    def test_frozen_mid_case(self):
        """M=4, L=64, L_C=4, tau=1, alpha=4, kappa=0. An independent log-grid
        scan over (m*, R) minimising |load - L_C| located (0, 0.28972945) at
        4e5-step resolution; the solver's exact root is pinned here.
        """
        grid, _, caps = caps_for(4, 0.0, 4.0)
        pop = zipf_pmf(64, 1.0)
        sol = solve_relaxed(caps, pop, 4.0)
        assert sol.m_star == 0
        assert sol.r_star == pytest.approx(0.28973138008485666, rel=1e-9)
        expected_x = [0.7990661102756256, 7.683526166926362, 15.078844385071442,
                      15.331109195760952, 25.10745414196562]
        assert list(sol.x_star) == pytest.approx(expected_x, rel=1e-6)

    def test_infeasible_budget(self):
        grid, _, caps = caps_for(2, 0.0, 4.0)
        pop = zipf_pmf(32, 1.0)
        with pytest.raises(InfeasibleProblemError):
            solve_relaxed(caps, pop, 32 / 16.0 - 1e-6)

    def test_matches_nested_search_at_level_boundaries(self):
        """Budgets at each level's two bracket-end loads and their float
        neighbours, where the nested search's early exits fired."""
        rng = random.Random(909)
        for _ in range(25):
            grid, caps, pop, _ = random_instance(rng, m_max=7, l_max=3000)
            for m in range(grid.M):
                for r in (caps.cbar[m + 1], caps.cbar[m]):
                    if not math.isfinite(r):
                        continue
                    probe = relaxed_cache_load(m, r, caps, pop)
                    for l_c in (math.nextafter(probe, 0.0), probe,
                                math.nextafter(probe, math.inf)):
                        assert_relaxed_matches_reference(caps, pop, l_c)

    def test_lowest_level_search_probes_at_most_log2_levels(self, monkeypatch):
        """The m* search makes at most ceil(log2(M + 1)) load probes; the
        rate solve's own probes are not counted."""
        counts = {"probes": 0, "in_rate_solve": False}
        load, solve_rate = placement.relaxed_cache_load, placement._solve_rate

        def counted_load(*args):
            counts["probes"] += not counts["in_rate_solve"]
            return load(*args)

        def uncounted_solve_rate(*args):
            counts["in_rate_solve"] = True
            try:
                return solve_rate(*args)
            finally:
                counts["in_rate_solve"] = False

        monkeypatch.setattr(placement, "relaxed_cache_load", counted_load)
        monkeypatch.setattr(placement, "_solve_rate", uncounted_solve_rate)
        rng = random.Random(17)
        for _ in range(100):
            grid, caps, pop, l_c = random_instance(rng, m_max=12, l_max=2000)
            counts["probes"] = 0
            solve_relaxed(caps, pop, l_c)
            assert counts["probes"] <= math.ceil(math.log2(grid.M + 1))

    def test_optimality_residuals_random(self):
        rng = random.Random(2024)
        for _ in range(50):
            grid, caps, pop, l_c = random_instance(rng)
            sol = solve_relaxed(caps, pop, l_c)
            assert max(check_optimality(sol, caps, pop, l_c)) <= 1e-8

    def test_relaxed_optimum_upper_bounds_feasible_points(self):
        """No cache-feasible fractional placement beats the relaxed optimum."""
        rng = random.Random(606)
        for _ in range(100):
            grid, caps, pop, l_c = random_instance(rng, m_max=5, l_max=2000)
            sol = solve_relaxed(caps, pop, l_c)
            L = pop.L
            for _ in range(10):
                raw = [rng.random() for _ in range(grid.M + 1)]
                scale = L / math.fsum(raw)
                xs = [v * scale for v in raw]
                load = math.fsum(v * 4.0 ** (-m) for m, v in enumerate(xs))
                if load > l_c:
                    continue
                assert relaxed_rate(xs, caps, pop) <= sol.r_star * (1 + 1e-9)

    def test_perturbation_breaks_optimality(self):
        """Scaling one occupied entry by 1.01 (renormalised to keep the file
        total) must violate at least one optimality condition."""
        grid, _, caps = caps_for(4, 0.0, 4.0)
        pop = zipf_pmf(64, 1.0)
        sol = solve_relaxed(caps, pop, 4.0)
        for m in range(5):
            if sol.x_star[m] <= 0:
                continue
            xs = list(sol.x_star)
            xs[m] *= 1.01
            scale = 64.0 / math.fsum(xs)
            perturbed = RelaxedSolution(tuple(v * scale for v in xs),
                                        sol.r_star, sol.m_star)
            assert max(check_optimality(perturbed, caps, pop, 4.0)) > 1e-6


class TestRoundToFeasible:
    def test_integer_input_passthrough(self):
        grid, _, caps = caps_for(2, 0.0, 4.0)
        sol = RelaxedSolution((3.0, 5.0, 8.0), 1.0, 0)
        assert round_to_feasible(sol, 4.75).x == (3, 5, 8)

    def test_hand_traced_carry(self):
        """x* = [0.5, 1.5]: floor(0.5) = 0 releases half a file of cache, the
        next level floors 1.5 + 0.5*4 = 3.5 to 3, and the running total
        clamps it to L = 2."""
        sol = RelaxedSolution((0.5, 1.5), 1.0, 0)
        assert round_to_feasible(sol, 0.875).x == (0, 2)

    def test_cache_never_increases_and_suffix_bound(self):
        """Rounded suffix sums stay below the fractional suffix sums plus one."""
        rng = random.Random(99)
        for _ in range(200):
            grid, caps, pop, l_c = random_instance(rng, l_max=5000)
            sol = solve_relaxed(caps, pop, l_c)
            xo = round_to_feasible(sol, l_c)
            assert xo.L == pop.L
            frac_load = math.fsum(v * 4.0 ** (-m) for m, v in enumerate(sol.x_star))
            assert xo.cache_load() <= frac_load + 1e-9
            assert xo.cache_load() <= l_c + 1e-9
            for m in range(grid.M + 1):
                assert sum(xo.x[m:]) < math.fsum(sol.x_star[m:]) + 1.0 + 1e-9


class TestRebalance:
    def test_single_active_level_unchanged(self):
        grid, _, caps = caps_for(3, 0.0, 4.0)
        pop = zipf_pmf(10, 1.0)
        x = PlacementVector((0, 0, 0, 10))
        assert rebalance(x, caps, pop, 10 * 4.0 ** -3).x == x.x

    @pytest.mark.parametrize("alpha, rounded, rounded_rate, balanced, balanced_rate", [
        (2.5, (97, 167, 113, 68, 35, 20, 7, 5, 0, 0), 0.022113056394771503,
         (96, 171, 113, 68, 35, 20, 7, 2, 0, 0), 0.022149985042341048),
        (4.0, (97, 167, 113, 68, 36, 15, 11, 5, 0, 0), 0.05873193427486957,
         (96, 171, 113, 68, 36, 15, 11, 2, 0, 0), 0.05883001618915561),
    ])
    def test_changes_the_rounded_placement(self, alpha, rounded, rounded_rate,
                                           balanced, balanced_rate):
        """On `place --M 9 --beta1 0.5 --beta2 0.4 --tau 0.5 --alpha 2.5` (and
        at alpha 4) rebalance moves files off level 7 and raises the rate,
        so deleting it would change CLI output. solve_exact reaches 5.1x the
        pipeline's rate on both."""
        grid, _, caps = caps_for(9, 0.0, alpha)
        pop = zipf_pmf(math.floor(grid.n ** 0.5), 0.5)
        l_c = grid.n ** 0.4
        x = round_to_feasible(solve_relaxed(caps, pop, l_c), l_c)
        assert (x.x, evaluate_throughput(x, caps, pop).rate) == (rounded, rounded_rate)
        out = optimize_placement(grid, caps, pop, l_c)
        assert (out.placement.x, out.report.rate) == (balanced, balanced_rate)
        assert solve_exact(grid, caps, pop, l_c)[1] == pytest.approx(5.1 * balanced_rate,
                                                                     rel=1e-3)

    def test_monotone_improvement(self):
        rng = random.Random(314)
        for _ in range(200):
            m_levels = rng.randint(1, 6)
            L = rng.randint(2, 60)
            grid, params, caps = caps_for(m_levels, rng.choice([0.0, 1.0]),
                                          rng.choice([2.5, 4.0]))
            pop = zipf_pmf(L, rng.uniform(0, 3))
            pv = random_feasible_placement(rng, m_levels, L)
            l_c = min(pv.cache_load() * rng.uniform(1.0, 1.5), L - 1e-9)
            if pv.cache_load() > l_c:
                continue
            before = evaluate_throughput(pv, caps, pop).rate
            after = evaluate_throughput(rebalance(pv, caps, pop, l_c), caps, pop).rate
            assert after >= before * (1 - 1e-12)


class TestGuaranteeFactor:
    @pytest.mark.parametrize("m_levels,tau", [(2, 0.0), (5, 0.8), (9, 1.0), (11, 2.5)])
    def test_bounds_and_floor_share_one_factor(self, m_levels, tau):
        grid, params, _ = caps_for(m_levels, 0.0, 4.0)
        pop = zipf_pmf(1000, tau)
        factor = guarantee_floor(1.0, m_levels, tau)
        assert factor == 1.0 / (m_levels * (1.0 + 2.0 ** tau))
        bounds = throughput_bounds(grid, params, pop, 100.0)  # L / n = 62.5 at M = 2
        assert bounds.guarantee_factor == factor
        assert guarantee_floor(0.37, m_levels, tau) == pytest.approx(0.37 * factor, rel=1e-15)


    def test_zero_once_two_to_the_tau_overflows(self):
        assert guarantee_floor(1.0, 1, 1000.0) > 0.0
        assert guarantee_floor(0.5, 1, 1000.0) > 0.0
        assert guarantee_floor(1.0, 3, 1024.0) == 0.0
        assert guarantee_floor(0.5, 3, 1200.0) == 0.0


class TestPipeline:
    def test_guarantee_floor_away_from_saturation(self):
        """The relaxed-optimum floor holds whenever the budget leaves at least
        one whole file's worth of slack below the library size; within that
        last file the relaxed rate diverges and no integer placement can
        track it, so sampling stays out of that corner."""
        rng = random.Random(1001)
        for _ in range(100):
            grid, caps, pop, l_c = random_instance(rng, frac_hi=0.9)
            if l_c > pop.L - 1.0:
                l_c = pop.L - 1.0
            out = optimize_placement(grid, caps, pop, l_c)
            floor = guarantee_floor(out.relaxed.r_star, grid.M, pop.tau)
            assert out.report.rate >= floor * (1 - 1e-12)
            assert out.report.guarantee_floor == pytest.approx(floor, rel=1e-15)

    def test_deterministic_bit_for_bit(self):
        grid, _, caps = caps_for(5, 0.0, 4.0)
        pop = zipf_pmf(321, 1.3)
        a = optimize_placement(grid, caps, pop, 7.5)
        b = optimize_placement(grid, caps, pop, 7.5)
        assert a.placement.x == b.placement.x
        assert a.report.rate == b.report.rate
        assert a.relaxed.x_star == b.relaxed.x_star
        assert a.relaxed.r_star == b.relaxed.r_star


@pytest.mark.parametrize("call, error", [
    (lambda grid, caps, pop: solve_exact(grid, caps, pop, math.nan), InvalidParameterError),
    (lambda grid, caps, pop: brute_force(grid, caps, pop, math.nan), InvalidParameterError),
    (lambda grid, caps, pop: optimize_placement(grid, caps, pop, math.nan),
     InvalidParameterError),
    (lambda grid, caps, pop: PlacementVector((20, 0, 0, 0)).validate(20, math.nan),
     InvalidParameterError),
    (lambda grid, caps, pop: tail_inverse(pop, math.nan), DomainError),
    (lambda grid, caps, pop: NetworkGrid(3, math.nan, 4.0), InvalidParameterError),
    (lambda grid, caps, pop: throughput_bounds(grid, PhyParams(4.0), pop, math.nan),
     InvalidParameterError),
    (lambda grid, caps, pop: relaxed_cache_load(1, math.nan, caps, pop), InvalidParameterError),
    (lambda grid, caps, pop: feasible_for_rate(math.nan, 2, caps, pop, 5.0),
     InvalidParameterError),
], ids=["solve_exact", "brute_force", "optimize_placement", "validate", "tail_inverse",
        "NetworkGrid", "throughput_bounds", "relaxed_cache_load", "feasible_for_rate"])
def test_nan_is_refused_up_front(call, error):
    """A NaN passes every `x < bound` check, so each entry point tests its
    budget, rate, tail mass or area exponent so that NaN fails, and raises
    at once: at M = 3 and L = 20 a NaN budget used to give exact a finite
    rate, brute force an unbounded one, the pipeline a BracketError only
    after 2,100 doublings, and the bounds and the relaxed load NaN. A NaN
    rate fails every comparison of the threshold search, so feasible_for_rate
    would return a placement whose rate is NaN."""
    grid, _, caps = caps_for(3, 0.0, 4.0)
    with pytest.raises(error):
        call(grid, caps, zipf_pmf(20, 1.0))
