"""Closed-form bounds and scaling exponents."""

import math

import pytest

from d2d_cachescale import (
    DomainError,
    NetworkGrid,
    PhyParams,
    achievable_exponent,
    baseline_exponent,
    capacity_envelope,
    classify_regime,
    converse_exponent,
    critical_skewness,
    lower_bound,
    solve_exact,
    solve_relaxed,
    throughput_bounds,
    upper_bound,
    zipf_pmf,
)
from conftest import caps_for


class TestBoundFormulas:
    def test_uniform_lower_matches_direct_expression(self):
        c, g, L, lc, M = 0.05, 0.3, 1000, 20.0, 6
        val, branch = lower_bound(c, g, L, lc, M, 0.0)
        first = ((4 ** (g + 1) - 1) / (4 ** (g + 2) - 16) * lc / L) ** g
        second = 3 / ((1 - lc / L) * (4 ** (g + 1) - 1))
        assert branch == "tau<1"
        assert val == pytest.approx(c * min(first, second), rel=1e-14)

    def test_branch_selection(self):
        c, g, L, lc, M = 0.05, 0.3, 1000, 20.0, 6
        assert lower_bound(c, g, L, lc, M, 1.0)[1] == "tau=1"
        assert lower_bound(c, g, L, lc, M, 1.2)[1] == "1<tau<gamma+1"
        assert lower_bound(c, g, L, lc, M, 1.3)[1] == "tau=gamma+1"
        assert lower_bound(c, g, L, lc, M, 2.0)[1] == "tau>gamma+1"
        assert upper_bound(c, g, L, lc, M, 1.3)[1] == "tau>=gamma+1"

    def test_exact_branch_point_value(self):
        """At tau = gamma + 1 the lower bound is (3 log4 L + 4)^{-g} (c/tau) L_C^{tau-1}."""
        c, g, L, lc, M = 0.02, 0.25, 4096, 10.0, 6
        val, _ = lower_bound(c, g, L, lc, M, 1.25)
        expected = (3 * math.log(L, 4) + 4) ** -g * (c / 1.25) * lc ** 0.25
        assert val == pytest.approx(expected, rel=1e-14)

    def test_near_one_overflow_uses_rearranged_ratio(self):
        """Just above tau = 1 both powers of 4 overflow; the bound stays
        finite and continues the direct form across the switch point."""
        c, g, L, lc, M = 0.02, 0.25, 4096, 10.0, 6
        for tau in (1.0 + 1e-4, 1.0 + 1e-9, math.nextafter(1.0, 2.0)):
            val, branch = lower_bound(c, g, L, lc, M, tau)
            assert branch == "1<tau<gamma+1"
            assert math.isfinite(val) and val > 0.0
        # 4^((g + tau - 1)/(tau - 1)) overflows once that exponent passes 512.
        switch = 1.0 + g / (512.0 - 1.0)
        direct, _ = lower_bound(c, g, L, lc, M, switch * (1 + 1e-9))
        rearranged, _ = lower_bound(c, g, L, lc, M, switch * (1 - 1e-9))
        assert rearranged == pytest.approx(direct, rel=1e-6)

    def test_large_tau_overflow_gives_finite_bound(self):
        c, g, L, lc, M = 0.02, 0.25, 4096, 10.0, 6
        for tau in (60.0, 200.0, 1000.0):
            val, branch = lower_bound(c, g, L, lc, M, tau)
            assert branch == "tau>gamma+1"
            assert math.isfinite(val) and val >= 0.0

    def test_upper_inapplicable_marker(self):
        """Small libraries can push the mid-branch denominator negative."""
        val, branch = upper_bound(1.0, 0.5, 4, 1.5, 2, 1.4)
        assert branch == "1<tau<gamma+1"
        assert val is None

    def test_upper_inapplicable_when_the_top_denominator_rounds_to_zero(self):
        """The float below L = 4 as budget: L_C + 1 rounds to L + 1."""
        l_c = math.nextafter(4.0, 0.0)
        assert l_c < 4 and l_c + 1.0 == 5.0
        assert upper_bound(1.0, 0.25, 4, l_c, 2, 2.0) == (None, "tau>=gamma+1")
        val, _ = upper_bound(1.0, 0.25, 4, 3.5, 2, 2.0)
        assert math.isfinite(val)

    def test_upper_undefined_for_single_file_at_tau_one(self):
        """tau = 1 raises L to 1 - 1/log L, undefined at L = 1."""
        assert upper_bound(1.0, 0.5, 1, 0.5, 1, 1.0) == (None, "tau=1")
        val, _ = upper_bound(1.0, 0.5, 2, 0.5, 1, 1.0)
        assert math.isfinite(val)

    def test_bracket_ordering_on_instances(self):
        grid, params, _ = caps_for(9, 0.0, 4.0)
        L = int(grid.n ** 0.9)
        for tau in (0.0, 0.5, 1.0, 1.2, 2.0, 3.0):
            pop = zipf_pmf(L, tau)
            for side in ("proposed", "baseline"):
                res = throughput_bounds(grid, params, pop, grid.n ** 0.3, side)
                assert res.floor == pytest.approx(
                    res.r_lower / (9 * (1 + 2 ** tau)), rel=1e-15)
                if res.r_upper is not None:
                    assert res.r_lower <= res.r_upper

    def test_mid_branch_upper_falls_below_the_optimum(self):
        """Pins a known defect: at M = 9, tau = 1.05 (inside 1 < tau <
        1 + gamma_upper = 1.124) R_U is below the relaxed optimum at
        beta2 = 0.7, and below the integer optimum too at beta2 = 0.8."""
        grid, params, caps = caps_for(9, 0.0, 4.0)
        pop = zipf_pmf(int(grid.n ** 0.9), 1.05)
        for beta2, integer_too in ((0.7, False), (0.8, True)):
            l_c = grid.n ** beta2
            res = throughput_bounds(grid, params, pop, l_c)
            assert res.upper_branch == "1<tau<gamma+1"
            assert res.r_upper < solve_relaxed(grid, caps, pop, l_c).r_star
            assert (res.r_upper < solve_exact(grid, caps, pop, l_c)[1]) is integer_too

    def test_sides_use_their_own_envelope(self):
        grid, params, _ = caps_for(9, 0.0, 4.0)
        pop = zipf_pmf(int(grid.n ** 0.9), 0.5)
        env = capacity_envelope(grid, params)
        res = throughput_bounds(grid, params, pop, grid.n ** 0.3, "proposed")
        assert res.envelope == env
        lo_direct, _ = lower_bound(env.c_lower, env.gamma_lower, pop.L,
                                   grid.n ** 0.3, 9, 0.5)
        assert res.r_lower == lo_direct
        base = throughput_bounds(grid, params, pop, grid.n ** 0.3, "baseline")
        assert base.envelope.gamma_lower == base.envelope.gamma_upper == 0.5


class TestScalingExponents:
    def test_regime_classification(self):
        assert classify_regime(0.9, 0.9, 2.0, 1.0) == "I"
        assert classify_regime(0.9, 0.3, 1.0, 1.0) == "II"
        assert classify_regime(1.0, 0.0, 1.0, 1.0) == "II"
        with pytest.raises(DomainError):
            classify_regime(0.9, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            classify_regime(2.1, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            classify_regime(0.9, 0.9, 1.0, 1.0)
        with pytest.raises(DomainError):
            classify_regime(1.0, 0.0, 2.0, 1.0)

    def test_achievable_hand_values(self):
        """(0.9, 0.3, tau=0.5, alpha>=3): (0.3-0.9)(1.5-1) = -0.3, exact."""
        assert achievable_exponent(0.9, 0.3, 1, 1, 0.5, 3.0).exponent \
            == pytest.approx(-0.3, abs=1e-15)
        assert achievable_exponent(0.9, 0.3, 1, 1, 0.5, 4.0).exponent \
            == pytest.approx(-0.3, abs=1e-15)
        # alpha=2.5, tau=2 > 1.25: beta2 (tau - 1) = 0.3
        assert achievable_exponent(0.9, 0.3, 1, 1, 2.0, 2.5).exponent \
            == pytest.approx(0.3, abs=1e-15)
        # mid branch: alpha=2.5, tau=1.1: 0.9(1.1-1.25) + 0.3(0.25) = -0.06
        assert achievable_exponent(0.9, 0.3, 1, 1, 1.1, 2.5).exponent \
            == pytest.approx(-0.06, abs=1e-15)

    def test_regime_one_flat_then_linear(self):
        assert achievable_exponent(0.9, 0.9, 2, 1, 0.7, 4.0).exponent == 0.0
        assert achievable_exponent(0.9, 0.9, 2, 1, 2.0, 4.0).exponent \
            == pytest.approx(0.9, abs=1e-15)

    def test_baseline_hand_values(self):
        """(0.9, 0.3, tau=1.2): 0.9(1.2-1.5) + 0.15 = -0.12."""
        assert baseline_exponent(0.9, 0.3, 1, 1, 1.2).exponent \
            == pytest.approx(-0.12, abs=1e-15)
        assert baseline_exponent(0.9, 0.3, 1, 1, 0.5).exponent \
            == pytest.approx(-0.3, abs=1e-15)

    def test_gupta_kumar_corner(self):
        """beta1 - beta2 = 1, tau < 1: baseline lands on -1/2; so does the
        cooperative scheme once alpha >= 3."""
        assert baseline_exponent(1.0, 0.0, 1.0, 1.0, 0.5).exponent == -0.5
        assert achievable_exponent(1.0, 0.0, 1.0, 1.0, 0.5, 3.0).exponent == -0.5
        assert achievable_exponent(1.0, 0.0, 1.0, 1.0, 0.5, 5.0).exponent == -0.5

    def test_tail_branch_matches_baseline(self):
        for tau in (1.6, 2.0, 3.0):
            a = achievable_exponent(0.9, 0.3, 1, 1, tau, 4.0).exponent
            b = baseline_exponent(0.9, 0.3, 1, 1, tau).exponent
            assert a == b == pytest.approx(0.3 * (tau - 1), abs=1e-14)

    def test_converse_identical_branchwise(self):
        for tau in (0.0, 0.5, 1.0, 1.1, 1.25, 1.4, 2.0, 3.0):
            for alpha in (2.5, 3.0, 4.0):
                ach = achievable_exponent(0.9, 0.3, 1, 1, tau, alpha)
                conv = converse_exponent(0.9, 0.3, 1, 1, tau, alpha)
                assert conv.exponent == ach.exponent
                assert conv.tau_case == ach.tau_case

    def test_converse_regime_one_value(self):
        """Regime I ceiling at tau=2 with beta2=0.3: 0.3(2-1) = 0.3."""
        conv = converse_exponent(0.3, 0.3, 2.0, 1.0, 2.0, 2.5)
        assert conv.regime == "I"
        assert conv.exponent == pytest.approx(0.3, abs=1e-15)

    def test_epsilon_term_reporting(self):
        with_m = achievable_exponent(0.9, 0.3, 1, 1, 0.5, 2.5, m_levels=11)
        s_m = math.sqrt(11 * math.log(4))
        assert with_m.epsilon_term == pytest.approx(1 / (s_m + 1), rel=1e-15)
        assert achievable_exponent(0.9, 0.3, 1, 1, 0.5, 3.0, m_levels=11).epsilon_term == 0.0
        assert achievable_exponent(0.9, 0.3, 1, 1, 0.5, 2.5).epsilon_term == 0.0

    def test_branch_continuity(self):
        """The piecewise exponents are continuous at both critical points."""
        eps = 1e-9
        for alpha in (2.5, 3.0, 4.0):
            tau_a, tau_b = critical_skewness(alpha, "proposed")
            for t0 in (tau_a, tau_b):
                left = achievable_exponent(0.9, 0.3, 1, 1, t0 - eps, alpha).exponent
                mid = achievable_exponent(0.9, 0.3, 1, 1, t0, alpha).exponent
                right = achievable_exponent(0.9, 0.3, 1, 1, t0 + eps, alpha).exponent
                assert left == pytest.approx(mid, abs=1e-8)
                assert right == pytest.approx(mid, abs=1e-8)
        for t0 in (1.0, 1.5):
            left = baseline_exponent(0.9, 0.3, 1, 1, t0 - eps).exponent
            right = baseline_exponent(0.9, 0.3, 1, 1, t0 + eps).exponent
            assert left == pytest.approx(right, abs=1e-8)

    def test_proposed_dominates_baseline(self):
        """Strictly better for alpha < 3 and tau < 3/2, equal otherwise."""
        for tau in (0.0, 0.5, 1.0, 1.2, 1.4):
            a = achievable_exponent(0.9, 0.3, 1, 1, tau, 2.5).exponent
            b = baseline_exponent(0.9, 0.3, 1, 1, tau).exponent
            assert a > b
        for tau in (0.0, 0.5, 1.0, 1.2, 1.4, 2.0):
            for alpha in (3.0, 4.0):
                a = achievable_exponent(0.9, 0.3, 1, 1, tau, alpha).exponent
                b = baseline_exponent(0.9, 0.3, 1, 1, tau).exponent
                assert a == pytest.approx(b, abs=1e-15)


class TestCriticalSkewness:
    def test_values(self):
        assert critical_skewness(2.5, "proposed") == (1.0, 1.25)
        assert critical_skewness(4.0, "proposed") == (1.0, 1.5)
        assert critical_skewness(2.5, "baseline") == (1.0, 1.5)
        assert critical_skewness(17.0, "baseline") == (1.0, 1.5)


class TestSlopeConsistency:
    def test_lower_bound_tracks_exponent(self):
        """Finite differences of the lower bound across n = 4^M follow the
        clean scaling exponent within the 1/(s_M + 1) correction."""
        beta1, beta2, tau = 0.9, 0.3, 0.5
        for alpha in (2.5, 4.0):
            params = PhyParams(alpha)
            clean = achievable_exponent(beta1, beta2, 1, 1, tau, alpha).exponent
            vals = {}
            for m_levels in range(8, 13):
                n = 4 ** m_levels
                env = capacity_envelope(NetworkGrid(m_levels, 1.0, alpha), params)
                val, _ = lower_bound(env.c_lower, env.gamma_lower,
                                     math.floor(n ** beta1), n ** beta2, m_levels, tau)
                vals[m_levels] = val
            for m_levels in range(8, 12):
                slope = math.log(vals[m_levels + 1] / vals[m_levels], 4)
                tol = 1.0 / (math.sqrt(m_levels * math.log(4)) + 1.0)
                assert abs(slope - clean) <= tol
