"""Relaxed solver, optimality checks, rounding, rebalancing, evaluation."""

import math
import random

import pytest

from d2d_cachescale import (
    InfeasibleProblemError,
    InvariantViolationError,
    PlacementVector,
    RelaxedSolution,
    check_optimality,
    evaluate_throughput,
    guarantee_factor,
    guarantee_floor,
    optimize_placement,
    rebalance,
    relaxed_cache_load,
    relaxed_solution_at,
    round_to_feasible,
    solve_relaxed,
    throughput_bounds,
    zipf_pmf,
)
from conftest import caps_for


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
        assert rep.unbounded and rep.rate == math.inf
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
            evaluate_throughput(PlacementVector((5, 0, 0)), caps, pop, l_c=4.0)


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
        """Load at a level's own capacity matches the neighbour level's load
        there, and strictly exceeds the load at the next capacity down."""
        rng = random.Random(43)
        for _ in range(50):
            grid, caps, pop, _ = random_instance(rng, m_max=6, l_max=500)
            for m in range(1, grid.M):
                at_own = relaxed_cache_load(m, caps.cbar[m], caps, pop)
                at_next = relaxed_cache_load(m, caps.cbar[m + 1], caps, pop)
                assert at_own > at_next - 1e-15
                assert at_next == pytest.approx(
                    relaxed_cache_load(m + 1, caps.cbar[m + 1], caps, pop), rel=1e-12)
                assert at_own == pytest.approx(
                    relaxed_cache_load(m - 1, caps.cbar[m], caps, pop), rel=1e-12)


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
        from d2d_cachescale import tail_mass
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
        sol = solve_relaxed(grid, caps, pop, l_c)
        assert sol.m_star == 3
        assert sol.x_star[3] == 64.0
        assert sol.r_star == caps.cbar[3]
        assert max(check_optimality(sol, caps, pop, l_c)) == 0.0

    def test_generous_budget_reaches_level_zero(self):
        grid, _, caps = caps_for(3, 0.0, 4.0)
        pop = zipf_pmf(64, 1.0)
        sol = solve_relaxed(grid, caps, pop, 0.999 * 64)
        assert sol.m_star == 0

    def test_frozen_mid_case(self):
        """M=4, L=64, L_C=4, tau=1, alpha=4, kappa=0. An independent log-grid
        scan over (m*, R) minimising |load - L_C| located (0, 0.28972945) at
        4e5-step resolution; the solver's exact root is pinned here.
        """
        grid, _, caps = caps_for(4, 0.0, 4.0)
        pop = zipf_pmf(64, 1.0)
        sol = solve_relaxed(grid, caps, pop, 4.0)
        assert sol.m_star == 0
        assert sol.r_star == pytest.approx(0.28973138008485666, rel=1e-9)
        expected_x = [0.7990661102756256, 7.683526166926362, 15.078844385071442,
                      15.331109195760952, 25.10745414196562]
        assert list(sol.x_star) == pytest.approx(expected_x, rel=1e-6)

    def test_infeasible_budget(self):
        grid, _, caps = caps_for(2, 0.0, 4.0)
        pop = zipf_pmf(32, 1.0)
        with pytest.raises(InfeasibleProblemError):
            solve_relaxed(grid, caps, pop, 32 / 16.0 - 1e-6)

    def test_optimality_residuals_random(self):
        rng = random.Random(2024)
        for _ in range(50):
            grid, caps, pop, l_c = random_instance(rng)
            sol = solve_relaxed(grid, caps, pop, l_c)
            assert max(check_optimality(sol, caps, pop, l_c)) <= 1e-8

    def test_relaxed_optimum_upper_bounds_feasible_points(self):
        """No cache-feasible fractional placement beats the relaxed optimum."""
        from d2d_cachescale import relaxed_rate
        rng = random.Random(606)
        for _ in range(100):
            grid, caps, pop, l_c = random_instance(rng, m_max=5, l_max=2000)
            sol = solve_relaxed(grid, caps, pop, l_c)
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
        sol = solve_relaxed(grid, caps, pop, 4.0)
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
        assert round_to_feasible(sol, grid).x == (3, 5, 8)

    def test_hand_traced_carry(self):
        """x* = [0.5, 1.5]: floor(0.5) = 0 releases half a file of cache, the
        next level floors 1.5 + 0.5*4 = 3.5 to 3, and the running total
        clamps it to L = 2."""
        from d2d_cachescale import NetworkGrid
        grid = NetworkGrid(1, 0.0, 4.0)
        sol = RelaxedSolution((0.5, 1.5), 1.0, 0)
        assert round_to_feasible(sol, grid).x == (0, 2)

    def test_cache_never_increases_and_suffix_bound(self):
        """Rounded suffix sums stay below the fractional suffix sums plus one."""
        rng = random.Random(99)
        for _ in range(200):
            grid, caps, pop, l_c = random_instance(rng, l_max=5000)
            sol = solve_relaxed(grid, caps, pop, l_c)
            xo = round_to_feasible(sol, grid)
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
        factor = guarantee_factor(m_levels, tau)
        bounds = throughput_bounds(grid, params, pop, 2.0)
        assert bounds.guarantee_factor == factor
        assert guarantee_floor(0.37, m_levels, tau) == pytest.approx(0.37 * factor, rel=1e-15)


    def test_zero_once_two_to_the_tau_overflows(self):
        assert guarantee_factor(1, 1000.0) > 0.0
        assert guarantee_floor(0.5, 1, 1000.0) > 0.0
        assert guarantee_factor(3, 1024.0) == 0.0
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
