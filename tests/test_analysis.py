"""Closed-form bounds and scaling exponents."""

import math

import pytest

from d2d_cachescale import (
    DomainError,
    InfeasibleProblemError,
    InvalidParameterError,
    NetworkGrid,
    PhyParams,
    solve_exact,
    throughput_bounds,
    zipf_pmf,
)
from d2d_cachescale.analysis import (
    achievable_exponent,
    classify_regime,
    critical_skewness,
    lower_bound,
    upper_bound,
)
from d2d_cachescale.hierarchy import capacity_envelope
from d2d_cachescale.placement import solve_relaxed
from d2d_cachescale.cli import main
from conftest import caps_for


class TestBoundFormulas:
    def test_uniform_lower_matches_direct_expression(self):
        c, g, L, lc, M = 0.05, 0.3, 1000, 20.0, 6
        val, branch = lower_bound(c, g, L, lc, M, 0.0)
        first = ((4 ** (g + 1) - 1) / (4 ** (g + 2) - 16) * lc / L) ** g
        second = 3 / ((1 - lc / L) * (4 ** (g + 1) - 1))
        assert branch == "tau<1"
        assert val == pytest.approx(c * min(first, second), rel=1e-14)

    def test_uniform_lower_at_a_budget_equal_to_the_library(self):
        """At L_C = L the second term's denominator is zero; the term takes
        its limit, inf, and the bound is the first term (it once raised
        ZeroDivisionError in `scaling`)."""
        c, g = 0.05, 0.3
        val, _ = lower_bound(c, g, 1, 1.0, 8, 0.5)
        assert val == c * ((4 ** (g + 1) - 1) / (4 ** (g + 2) - 16)) ** g

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
        """Lower below upper on the cooperative envelope, and on the multihop
        profile: gamma = 1/2 and its constant cbar[m] 4^{m/2}."""
        grid, params, _ = caps_for(9, 0.0, 4.0)
        _, _, caps_mh = caps_for(9, 0.0, 4.0, True)
        c_mh = caps_mh.cbar[1] * 2.0
        L, l_c = int(grid.n ** 0.9), grid.n ** 0.3
        for tau in (0.0, 0.5, 1.0, 1.2, 2.0, 3.0):
            res = throughput_bounds(grid, params, zipf_pmf(L, tau), l_c)
            assert res.floor == pytest.approx(
                res.r_lower / (9 * (1 + 2 ** tau)), rel=1e-15)
            base_lower, _ = lower_bound(c_mh, 0.5, L, l_c, 9, tau)
            base_upper, _ = upper_bound(c_mh, 0.5, L, l_c, 9, tau)
            for lower, upper in ((res.r_lower, res.r_upper), (base_lower, base_upper)):
                if upper is not None:
                    assert lower <= upper

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
            assert res.r_upper < solve_relaxed(caps, pop, l_c).r_star
            assert (res.r_upper < solve_exact(grid, caps, pop, l_c)[1]) is integer_too

    def test_upper_below_tau_one_blows_up_as_tau_nears_one(self):
        """Pins a known gap: the tau < 1 branch carries a 1/(1 - tau) factor,
        so on the default place instance R_U is 3.05 at tau = 1 and 2.97e5
        at tau = 1 - 1e-6, while the relaxed optimum barely moves."""
        grid, params, caps = caps_for(9, 0.0, 4.0)
        l_c = grid.n ** 0.3
        at_one = throughput_bounds(grid, params, zipf_pmf(int(grid.n ** 0.9), 1.0), l_c)
        pop = zipf_pmf(int(grid.n ** 0.9), 1.0 - 1e-6)
        below = throughput_bounds(grid, params, pop, l_c)
        assert (at_one.upper_branch, below.upper_branch) == ("tau=1", "tau<1")
        assert at_one.r_upper == pytest.approx(3.054, rel=1e-3)
        assert below.r_upper == pytest.approx(2.967e5, rel=1e-3)
        assert below.r_upper > 1e4 * solve_relaxed(caps, pop, l_c).r_star

    @pytest.mark.parametrize("l_c", [-1.0, 0.49])
    def test_budget_below_the_minimum_is_refused(self, l_c):
        """Below L 4^-M = 0.5 no placement holds the library; at -1.0 the
        upper bound was once complex, (0.70+0.62j)."""
        grid, params, _ = caps_for(2, 0.0, 4.0)
        pop = zipf_pmf(8, 1.0)
        assert math.isfinite(throughput_bounds(grid, params, pop, 0.5).r_lower)
        with pytest.raises(InfeasibleProblemError, match="needs at least 0.5 per node"):
            throughput_bounds(grid, params, pop, l_c)

    @pytest.mark.parametrize("l_c", [30.0, 60.0, math.inf])
    def test_budget_that_stores_the_library_is_refused(self, l_c):
        """From L_C = L every placement caches the library locally at rate
        inf, so no finite bound brackets it; the relaxation refuses such a
        budget with the same message (r_upper was once 3.17 at L_C = 60)."""
        grid, params, caps = caps_for(3, 0.0, 4.0)
        pop = zipf_pmf(30, 1.0)
        assert math.isfinite(throughput_bounds(grid, params, pop, 29.0).r_upper)
        for solve in (lambda: throughput_bounds(grid, params, pop, l_c),
                      lambda: solve_relaxed(caps, pop, l_c)):
            with pytest.raises(InvalidParameterError, match="stores the whole library locally"):
                solve()

    def test_sides_use_their_own_envelope(self):
        grid, params, _ = caps_for(9, 0.0, 4.0)
        pop = zipf_pmf(int(grid.n ** 0.9), 0.5)
        env = capacity_envelope(grid, params)
        res = throughput_bounds(grid, params, pop, grid.n ** 0.3)
        assert res.envelope == env
        lo_direct, _ = lower_bound(env.c_lower, env.gamma_lower, pop.L,
                                   grid.n ** 0.3, 9, 0.5)
        assert res.r_lower == lo_direct
        up_direct, _ = upper_bound(env.c_upper, env.gamma_upper, pop.L,
                                   grid.n ** 0.3, 9, 0.5)
        assert res.r_upper == up_direct


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
        """The baseline is the law at alpha = 3. (0.9, 0.3, tau=1.2):
        0.9(1.2-1.5) + 0.15 = -0.12; its branch point is 3/2."""
        assert achievable_exponent(0.9, 0.3, 1, 1, 1.2, 3.0).exponent \
            == pytest.approx(-0.12, abs=1e-15)
        assert achievable_exponent(0.9, 0.3, 1, 1, 0.5, 3.0).exponent \
            == pytest.approx(-0.3, abs=1e-15)
        assert achievable_exponent(0.9, 0.3, 1, 1, 1.2, 3.0).tau_case \
            == "1<tau<=min(3,alpha)/2"

    def test_gupta_kumar_corner(self):
        """beta1 - beta2 = 1, tau < 1: baseline lands on -1/2; so does the
        cooperative scheme once alpha >= 3."""
        assert achievable_exponent(1.0, 0.0, 1.0, 1.0, 0.5, 3.0).exponent == -0.5
        assert achievable_exponent(1.0, 0.0, 1.0, 1.0, 0.5, 5.0).exponent == -0.5

    def test_tail_branch_matches_baseline(self):
        for tau in (1.6, 2.0, 3.0):
            a = achievable_exponent(0.9, 0.3, 1, 1, tau, 4.0).exponent
            b = achievable_exponent(0.9, 0.3, 1, 1, tau, 3.0).exponent
            assert a == b == pytest.approx(0.3 * (tau - 1), abs=1e-14)

    def test_converse_identical_branchwise(self, capsys):
        """`scaling` tabulates the converse as the achievable law itself."""
        for alpha in ("2.5", "3", "4"):
            assert main(["scaling", "--alpha", alpha, "--range", "0:3:0.1"]) == 0
            rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
            exps = [row for row in rows if row[0] == "exponent"]
            assert len(exps) >= 31
            assert all(row[5] == row[3] != "" for row in exps)

    def test_converse_regime_one_value(self):
        """Regime I ceiling at tau=2 with beta2=0.3: 0.3(2-1) = 0.3."""
        conv = achievable_exponent(0.3, 0.3, 2.0, 1.0, 2.0, 2.5)
        assert conv.regime == "I"
        assert conv.exponent == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("beta2, tau, alpha", [
        (0.3, math.nan, 4.0), (0.9, math.nan, 4.0), (0.3, 1.2, math.nan), (0.3, 1.2, 2.0)])
    def test_nan_skewness_or_path_loss_is_refused(self, beta2, tau, alpha):
        """A NaN skewness gave exponent NaN under the tau>min(3,alpha)/2
        label (regime II) or the tau>1 label (regime I), and a NaN path
        loss answered as alpha >= 3, since min(3.0, nan) is 3.0."""
        with pytest.raises(InvalidParameterError):
            achievable_exponent(0.9, beta2, 2, 1, tau, alpha)

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
            tau_a, tau_b = critical_skewness(alpha)
            for t0 in (tau_a, tau_b):
                left = achievable_exponent(0.9, 0.3, 1, 1, t0 - eps, alpha).exponent
                mid = achievable_exponent(0.9, 0.3, 1, 1, t0, alpha).exponent
                right = achievable_exponent(0.9, 0.3, 1, 1, t0 + eps, alpha).exponent
                assert left == pytest.approx(mid, abs=1e-8)
                assert right == pytest.approx(mid, abs=1e-8)
        for t0 in (1.0, 1.5):
            left = achievable_exponent(0.9, 0.3, 1, 1, t0 - eps, 3.0).exponent
            right = achievable_exponent(0.9, 0.3, 1, 1, t0 + eps, 3.0).exponent
            assert left == pytest.approx(right, abs=1e-8)

    def test_proposed_dominates_baseline(self):
        """Strictly better for alpha < 3 and tau < 3/2, equal otherwise."""
        for tau in (0.0, 0.5, 1.0, 1.2, 1.4):
            a = achievable_exponent(0.9, 0.3, 1, 1, tau, 2.5).exponent
            b = achievable_exponent(0.9, 0.3, 1, 1, tau, 3.0).exponent
            assert a > b
        for tau in (0.0, 0.5, 1.0, 1.2, 1.4, 2.0):
            for alpha in (3.0, 4.0):
                a = achievable_exponent(0.9, 0.3, 1, 1, tau, alpha).exponent
                b = achievable_exponent(0.9, 0.3, 1, 1, tau, 3.0).exponent
                assert a == pytest.approx(b, abs=1e-15)


class TestCriticalSkewness:
    def test_values(self):
        assert critical_skewness(2.5) == (1.0, 1.25)
        assert critical_skewness(4.0) == (1.0, 1.5)
        assert critical_skewness(17.0) == (1.0, 1.5)
        assert critical_skewness(3.0) == (1.0, 1.5)  # the baselines


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
