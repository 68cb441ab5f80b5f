"""Threshold form, staircase feasibility, exact solver, brute-force oracle."""

import math
import random
import sys
import tracemalloc

import numpy as np
import pytest

from d2d_cachescale import (
    InfeasibleProblemError,
    InvalidParameterError,
    InvariantViolationError,
    PlacementVector,
    SizeGuardError,
    brute_force,
    evaluate_throughput,
    optimize_placement,
    solve_exact,
    zipf_pmf,
)
from d2d_cachescale.exact import _compositions, feasible_for_rate
from d2d_cachescale.popularity import BLOCK_RANKS, threshold_indices
from conftest import caps_for
from reference import (ThresholdForm, dense_suffix, dense_zipf, from_threshold, model_over,
                       recursive_compositions, to_threshold)


def reference_min_threshold(suffix, r, c, L):
    """Smallest t in [0, L] with suffix[t] * r <= c, by bisection over all ranks."""
    if suffix[0] * r <= c:
        return 0
    lo, hi = 0, L
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if suffix[mid] * r <= c:
            hi = mid
        else:
            lo = mid
    return hi


def reference_feasible_for_rate(r, m_b, caps, pop, l_c):
    """Feasibility at rate r with every threshold searched over all ranks."""
    M, L = caps.M, pop.L
    thetas = [0] * (M + 2)
    theta = 0
    for m in range(1, m_b + 1):
        theta = max(theta, reference_min_threshold(dense_suffix(L, pop.tau), r,
                                                   caps.cbar[m] / m_b, L))
        thetas[m] = theta
    if theta >= L:
        return None
    for m in range(m_b + 1, M + 2):
        thetas[m] = L
    pv = from_threshold(ThresholdForm(tuple(thetas)))
    if pv.cache_load() > l_c + 1e-12:
        return None
    return pv


def reference_solve_exact(grid, caps, pop, l_c):
    """Rate bisection that decides every step with a full feasibility check,
    reading p(L) from the dense oracle.

    solve_exact must reproduce its placement and the bits of its rate.
    """
    M, L = grid.M, pop.L
    if l_c < L * 4.0 ** (-M) - 1e-12:
        raise InfeasibleProblemError("budget below L / n")
    if L <= l_c + 1e-12:
        return PlacementVector((L,) + (0,) * M), math.inf
    p_last = float(dense_zipf(L, pop.tau)[1][L])
    best = None
    for m_b in range(1, M + 1):
        if L * 4.0 ** (-m_b) > l_c + 1e-12:
            continue
        lo = 0.0
        hi = min(caps.cbar[1] / (m_b * p_last), sys.float_info.max)
        tol = 1e-12 * caps.cbar[1]
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if reference_feasible_for_rate(mid, m_b, caps, pop, l_c) is not None:
                lo = mid
            else:
                hi = mid
        found = reference_feasible_for_rate(lo, m_b, caps, pop, l_c)
        if found is None or found.m_b != m_b:
            continue
        rate = evaluate_throughput(found, caps, pop).rate
        if best is None or rate > best[0] or (rate == best[0] and found.x < best[1].x):
            best = (rate, found)
    if best is None:
        raise InfeasibleProblemError("no placement sustains a positive rate")
    return best[1], best[0]


def _outcome(solver, grid, caps, pop, l_c):
    try:
        x, rate = solver(grid, caps, pop, l_c)
    except InfeasibleProblemError as exc:
        return type(exc)
    return x.x, rate.hex()


def assert_matches_reference(grid, caps, pop, l_c):
    """solve_exact returns the reference's x and rate bits, or raises the same type."""
    assert (_outcome(solve_exact, grid, caps, pop, l_c)
            == _outcome(reference_solve_exact, grid, caps, pop, l_c))


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
        r = caps.cbar[1] / float(dense_zipf(8, 1.0)[1][8]) * 1.01
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

    @pytest.mark.parametrize("m_b", [0, -1, 4, 5])
    def test_top_level_outside_the_table_is_refused(self, m_b):
        """m_b = 0 once failed in max() of no thresholds and m_b = 5 on
        M = 3 with an IndexError, each as a builtin error."""
        grid, _, caps = caps_for(3, 0.0, 4.0)
        with pytest.raises(InvalidParameterError, match=r"top level must lie in 1\.\.3"):
            feasible_for_rate(1.0, m_b, caps, zipf_pmf(20, 1.0), 5.0)


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
        """p(L) is subnormal here, so the top of the rate bracket overflows
        to inf unless it is clamped; the bisection must still find the optimum."""
        grid, _, caps = caps_for(2, 0.0, 4.0)
        pop = zipf_pmf(8, tau)
        p_last = float(dense_zipf(8, tau)[1][8])
        assert p_last < np.finfo(float).tiny
        assert math.isinf(caps.cbar[1] / p_last)
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

    def test_budget_below_the_minimum(self):
        """Below L 4^-M no placement fits: exact refuses the budget up
        front, brute force after finding no placement within it."""
        grid, _, caps = caps_for(2, 0.0, 4.0)
        pop = zipf_pmf(8, 1.0)
        with pytest.raises(InfeasibleProblemError, match="needs at least 0.5 per node"):
            solve_exact(grid, caps, pop, 0.49)
        with pytest.raises(InfeasibleProblemError, match="no placement fits the cache budget"):
            brute_force(grid, caps, pop, 0.49)

    def test_compositions_are_the_recursive_enumeration(self):
        """Brute force keeps the first of equal rates, so its tie rule rests on
        the enumeration order: the lex order of the recursion it replaced."""
        for total in range(9):
            for parts in range(1, 6):
                assert list(_compositions(total, parts)) == list(
                    recursive_compositions(total, parts)), (total, parts)


@pytest.mark.parametrize("solver", [optimize_placement, solve_exact, brute_force])
@pytest.mark.parametrize("grid_m, caps_m", [(5, 4), (4, 5)])
def test_capacities_of_another_depth_are_refused(solver, grid_m, caps_m):
    """The solvers read M from the capacity table and refuse a grid of
    another depth: exact once raised IndexError on (5, 4) and returned a
    6-entry placement for a 4-level grid on (4, 5)."""
    grid, _, _ = caps_for(grid_m, 0.0, 4.0)
    _, _, caps = caps_for(caps_m, 0.0, 4.0)
    with pytest.raises(InvariantViolationError,
                       match=f"grid has {grid_m} levels, capacities have {caps_m}"):
        solver(grid, caps, zipf_pmf(3, 1.0), 1.0)


class TestBracketedSolver:
    @pytest.mark.parametrize("tau", [355.0, 358.0])
    def test_subnormal_last_rank_matches_reference(self, tau):
        """The clamped top of the rate bracket (sys.float_info.max) bisects
        to the same bits as the full search."""
        grid, _, caps = caps_for(2, 0.0, 4.0)
        pop = zipf_pmf(8, tau)
        for l_c in (0.5, 1.0, 3.0, 7.5):
            assert_matches_reference(grid, caps, pop, l_c)

    @pytest.mark.parametrize("tau", [0.5, 1.0, 1.5, 2.0, 2.5])
    def test_benchmark_grid_m9_matches_reference(self, tau):
        """The M = 9 instances of the solve_grid benchmark workload."""
        grid, _, caps = caps_for(9, 0.0, 4.0)
        pop = zipf_pmf(math.floor((4 ** 9) ** 0.9), tau)
        for beta2 in (0.1, 0.3, 0.5):
            assert_matches_reference(grid, caps, pop, (4 ** 9) ** beta2)

    def test_allocates_nothing_of_library_size(self):
        """solve_exact reads suffix masses in place: at L = 2^20, once the
        model's blocks it reads are filled, its traced peak stays below one
        byte per rank, so no per-rank copy is made. The first solve, which
        fills those blocks, stays below two bytes per rank (an array of
        suffix masses alone is eight)."""
        grid, _, caps = caps_for(3, 0.0, 4.0)
        L = 2 ** 20
        pop = zipf_pmf(L, 1.0)
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                solve_exact(grid, caps, pop, L / 16)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 2 * L
        assert peaks[1] < L


def _threshold(pop, r, c, lo, hi):
    return threshold_indices(pop, r, [c], [lo], [hi])[0]


def _first_pass(suffix, r, c):
    """Smallest t with suffix[t] * r <= c, by a linear scan of the numpy products."""
    return int(np.flatnonzero(suffix * r <= c)[0])


def test_threshold_tie_across_a_block_edge():
    """suffix(B - 1) = suffix(B) at the first block edge B: the first pass
    is B - 1, inside block 0, so the bisect over the edges must pick block 0
    on the tie (bisect_left), not block 1 (bisect_right, which answers B)."""
    B = BLOCK_RANKS
    L, r = 2 * B + 10, 0.37
    suffix = np.linspace(1.0, 0.0, L + 1)
    suffix[B] = suffix[B - 1]
    pop = model_over(suffix)
    c = r * pop.suffix(B)
    assert pop.suffix(B - 2) * r > c
    assert _threshold(pop, r, c, 0, L) == _first_pass(suffix, r, c) == B - 1


class TestThresholdMonotonicity:
    """A level's minimal threshold is non-decreasing in the rate, so a search
    bracketed by the thresholds at two rates finds the one at any rate between."""

    def _check(self, suffix, c, rates):
        L = len(suffix) - 1
        pop = model_over(suffix)
        r1, r2, r3 = sorted(rates)
        t1, t2, t3 = (_threshold(pop, r, c, 0, L) for r in (r1, r2, r3))
        assert t1 <= t2 <= t3
        with np.errstate(over="ignore"):
            assert t2 == reference_min_threshold(suffix, r2, c, L) == _first_pass(suffix, r2, c)
        assert _threshold(pop, r2, c, t1, t3) == t2

    def test_random_rates_on_zipf_suffixes(self):
        rng = random.Random(31)
        for _ in range(40):
            L = rng.randint(1, 5000)
            suffix = dense_zipf(L, rng.uniform(0.0, 3.0))[2]
            c = rng.uniform(0.01, 2.0)
            for _ in range(25):
                rates = []
                for _ in range(3):
                    k = rng.randint(0, L - 1)
                    r = c / float(suffix[k])  # a breakpoint, then its neighbourhood
                    rates.append(rng.choice([r, math.nextafter(r, 0.0),
                                             math.nextafter(r, math.inf),
                                             r * rng.uniform(0.5, 2.0)]))
                self._check(suffix, c, rates)

    def test_largest_rate(self):
        """r = sys.float_info.max, the clamped top of solve_exact's bracket:
        every rank with positive suffix mass fails, so the threshold is L."""
        rng = random.Random(32)
        big = sys.float_info.max
        for L in (1, 2, 8, 1000):
            suffix = dense_zipf(L, 1.2)[2]
            for c in (1e-300, 1.0, 1e300):
                self._check(suffix, c, [big, big * rng.random(), c])
            assert _threshold(model_over(suffix), big, 1.0, 0, L) == L

    def test_products_that_overflow(self):
        """On a non-increasing array with entries above one the products
        s * r overflow to inf at large r; the test stays monotone."""
        suffix = np.array([8.0, 4.0, 2.0, 1.0, 0.5, 0.25, 0.0])
        big = sys.float_info.max
        assert math.isinf(float(suffix[1]) * big)
        for c in (1.0, big / 2, big):
            for rates in ([big / 8, big / 2, big], [1.0, big / 4, big], [big, big, big]):
                self._check(suffix, c, rates)
