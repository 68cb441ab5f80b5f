"""Threshold form, staircase feasibility, exact solver, brute-force oracle."""

import math
import random

import numpy as np
import pytest

from d2d_cachescale import (
    InvariantViolationError,
    PlacementVector,
    SizeGuardError,
    ThresholdForm,
    brute_force,
    evaluate_throughput,
    feasible_for_rate,
    from_threshold,
    indicator_matrix,
    optimize_placement,
    solve_exact,
    to_threshold,
    zipf_pmf,
)
from conftest import caps_for


class TestThresholdForm:
    def test_all_local(self):
        t = to_threshold(PlacementVector((5, 0, 0)))
        assert t.theta == (0, 5, 5, 5)

    def test_all_top(self):
        t = to_threshold(PlacementVector((0, 0, 5)))
        assert t.theta == (0, 0, 0, 5)

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(100):
            m_levels = rng.randint(1, 6)
            L = rng.randint(1, 40)
            cuts = sorted(rng.randint(0, L) for _ in range(m_levels))
            pv = PlacementVector(tuple(b - a for a, b in zip([0] + cuts, cuts + [L])))
            assert from_threshold(to_threshold(pv)).x == pv.x

    def test_rejects_decreasing(self):
        with pytest.raises(InvariantViolationError):
            ThresholdForm((0, 3, 2, 5))

    def test_indicator_matrix_structure(self):
        """Rows non-decreasing, columns non-increasing, row sums recover x,
        and the weighted double sum recovers the cache load."""
        rng = random.Random(12)
        pop = zipf_pmf(12, 1.1)
        for _ in range(50):
            cuts = sorted(rng.randint(0, 12) for _ in range(3))
            pv = PlacementVector(tuple(b - a for a, b in zip([0] + cuts, cuts + [12])))
            t = to_threshold(pv)
            delta = indicator_matrix(t, 12)
            assert np.all(np.diff(delta, axis=1) >= 0)
            assert np.all(np.diff(delta, axis=0) <= 0)
            assert np.all(delta[0] == 1) and np.all(delta[-1] == 0)
            row_sums = delta.sum(axis=1)
            x_back = row_sums[:-1] - row_sums[1:]
            assert x_back.tolist() == list(pv.x)
            # row m of delta picks out the tail mass past theta[m]
            tails = delta @ pop.pmf[1:]
            for m in range(5):
                assert tails[m] == pytest.approx(
                    float(pop.suffix_mass[t.theta[m]]), abs=1e-12)
            weights = 4.0 ** -np.arange(4)
            load = float(weights @ x_back)
            assert load == pytest.approx(pv.cache_load(), rel=1e-12)


class TestFeasibleForRate:
    def test_zero_rate_all_at_top_level(self):
        grid, _, caps = caps_for(3, 0.0, 4.0)
        pop = zipf_pmf(16, 1.0)
        for m_b in (1, 2, 3):
            pv = feasible_for_rate(0.0, m_b, caps, pop, l_c=16.0 * 4.0 ** -m_b + 1e-9)
            assert pv is not None
            assert pv.x[m_b] == 16 and pv.m_b == m_b

    def test_huge_rate_infeasible_single_level(self):
        """Past cbar_1 / p_L the level-1 constraint forces everything local,
        leaving the top level empty."""
        grid, _, caps = caps_for(2, 0.0, 4.0)
        pop = zipf_pmf(8, 1.0)
        r = caps.cbar[1] / float(pop.pmf[8]) * 1.01
        assert feasible_for_rate(r, 1, caps, pop, l_c=6.0) is None

    def test_matches_enumeration(self):
        """Feasibility agrees with exhaustive search over placements with the
        same top level (M=2, L=8, tau=1, L_C=2)."""
        grid, _, caps = caps_for(2, 0.0, 4.0)
        pop = zipf_pmf(8, 1.0)
        l_c = 2.0
        for m_b in (1, 2):
            for frac in (0.1, 0.5, 0.9, 1.3, 2.0, 5.0):
                r = caps.cbar[1] / m_b * frac
                greedy = feasible_for_rate(r, m_b, caps, pop, l_c)
                exists = False
                for x0 in range(9):
                    for x1 in range(9 - x0):
                        pv = PlacementVector((x0, x1, 8 - x0 - x1))
                        if pv.m_b != m_b or pv.cache_load() > l_c + 1e-12:
                            continue
                        if evaluate_throughput(pv, caps, pop).rate >= r * (1 - 1e-12):
                            exists = True
                assert (greedy is not None) == exists


class TestSolveExactVsBruteForce:
    def test_three_point_enumeration(self):
        """M=1, L=2, tau=0, L_C=1.25: [2,0] overruns the cache, [1,1] doubles
        the rate of [0,2]."""
        grid, _, caps = caps_for(1, 0.0, 4.0)
        pop = zipf_pmf(2, 0.0)
        x, rate = brute_force(grid, caps, pop, 1.25)
        assert x.x == (1, 1)
        assert rate == pytest.approx(2 * caps.cbar[1], rel=1e-15)

    def test_tight_cache_unique_point(self):
        grid, _, caps = caps_for(1, 0.0, 4.0)
        pop = zipf_pmf(2, 0.0)
        x, rate = brute_force(grid, caps, pop, 0.5)
        assert x.x == (0, 2)
        assert rate == pytest.approx(caps.cbar[1], rel=1e-15)

    @pytest.mark.parametrize("tau", [355.0, 358.0])
    def test_subnormal_last_rank(self, tau):
        """pmf[L] is subnormal here, so the top of the rate bracket overflows
        to inf unless it is clamped; the bisection must still find the optimum."""
        grid, _, caps = caps_for(2, 0.0, 4.0)
        pop = zipf_pmf(8, tau)
        assert pop.pmf[8] < np.finfo(float).tiny
        assert math.isinf(caps.cbar[1] / float(pop.pmf[8]))
        ex, erate = solve_exact(grid, caps, pop, 1.0)
        bx, brate = brute_force(grid, caps, pop, 1.0)
        assert erate == brate
        assert ex.x == bx.x

    @pytest.mark.parametrize("m_levels,L,tau,l_c", [
        (2, 8, 0.0, 2.0),
        (3, 16, 1.5, 1.0),
        (2, 8, 1.0, 2.0),
    ])
    def test_contract_instances(self, m_levels, L, tau, l_c):
        grid, _, caps = caps_for(m_levels, 0.0, 4.0)
        pop = zipf_pmf(L, tau)
        bx, brate = brute_force(grid, caps, pop, l_c)
        ex, erate = solve_exact(grid, caps, pop, l_c)
        assert erate == brate

    def test_degenerate_minimum_budget(self):
        grid, _, caps = caps_for(2, 0.0, 4.0)
        pop = zipf_pmf(8, 1.0)
        l_c = 8 * 4.0 ** -2
        bx, brate = brute_force(grid, caps, pop, l_c)
        ex, erate = solve_exact(grid, caps, pop, l_c)
        assert bx.x == ex.x == (0, 0, 8)
        assert erate == brate

    def test_random_agreement_and_algorithm_floor(self):
        rng = random.Random(4242)
        for _ in range(30):
            m_levels = rng.randint(1, 3)
            L = rng.randint(2, 20)
            grid, params, caps = caps_for(m_levels, rng.choice([0.0, 1.0]),
                                          rng.choice([2.5, 4.0]))
            pop = zipf_pmf(L, rng.uniform(0, 3))
            lo = L * 4.0 ** (-m_levels)
            l_c = lo + (L - lo) * rng.uniform(0.0, 0.999)
            bx, brate = brute_force(grid, caps, pop, l_c)
            ex, erate = solve_exact(grid, caps, pop, l_c)
            assert erate == brate
            out = optimize_placement(grid, caps, pop, l_c)
            assert out.report.rate <= brate * (1 + 1e-12)
            factor = 1.0 / (grid.M * (1 + 2.0 ** pop.tau))
            assert out.report.rate >= brate * factor * (1 - 1e-12)

    def test_size_guard(self):
        grid, _, caps = caps_for(8, 0.0, 4.0)
        pop = zipf_pmf(10000, 1.0)
        with pytest.raises(SizeGuardError):
            brute_force(grid, caps, pop, 100.0)
