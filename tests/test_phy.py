"""PHY rate formulas: interference, cooperative and multihop rates, mode choice."""

import math

import pytest

from d2d_cachescale import InvalidParameterError, NetworkGrid, PhyParams
from d2d_cachescale.phy import (
    cluster_rate,
    exact_log4,
    interference_power,
    rate_hcoop,
    rate_multihop,
)


class TestPhyParams:
    def test_snr_constants_alpha4(self):
        """alpha=4: SNR_hcoop = 2^{2(3+4/ln2)} ~ 1.908e5, multihop 2^{2(3+4/ln4)} ~ 3.495e3."""
        p = PhyParams(4.0)
        assert p.snr_hcoop == pytest.approx(2.0 ** (2 * (3 + 4.0 / math.log(2))), rel=1e-15)
        assert p.snr_hcoop == pytest.approx(1.908e5, rel=1e-3)
        assert p.snr_multihop == pytest.approx(3.495e3, rel=1e-3)

    def test_reuse_factors_alpha4(self):
        """alpha=4: hcoop T_r = ceil(SNR^{1/8} + 1) = 6, multihop ceil(2^{11.7708/8} + 1) = 4."""
        p = PhyParams(4.0)
        assert p.t_r_hcoop == 6
        assert p.t_r_multihop == math.ceil(2.0 ** (11.770780163555855 / 8.0) + 1) == 4

    @pytest.mark.parametrize("alpha", [2.1, 2.5, 3.0, 4.0, 6.0])
    def test_ordering_invariants(self, alpha):
        p = PhyParams(alpha)
        assert p.snr_hcoop > p.snr_multihop > 1.0
        assert p.t_r_hcoop >= 2 and p.t_r_multihop >= 2

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            PhyParams(2.0)
        with pytest.raises(InvalidParameterError):
            PhyParams(4.0, rc_fraction=0.0)

    def test_snr_overflow_rejected(self):
        """2^(2(3 + alpha/ln 2)) leaves the float range at alpha = 509 ln 2."""
        assert math.isfinite(PhyParams(352.0).snr_hcoop)
        for alpha in (353.0, 600.0):
            with pytest.raises(InvalidParameterError, match="overflows the effective SNR"):
                PhyParams(alpha)


class TestInterferencePower:
    def test_two_term_hand_sum(self):
        """n=4, t_r=6, alpha=4: S (8/625 + 16/14641)."""
        s = 123.456
        expected = s * (8.0 / 5 ** 4 + 16.0 / 11 ** 4)
        assert interference_power(4, s, 6, 4.0) == pytest.approx(expected, rel=1e-15)

    def test_four_term_direct_sum(self):
        """n=16: direct summation oracle over i = 1..4."""
        s, t_r, alpha = 77.0, 6, 4.0
        expected = math.fsum(8 * i * s * (t_r * i - 1) ** -alpha for i in range(1, 5))
        assert interference_power(16, s, t_r, alpha) == pytest.approx(expected, rel=1e-15)

    def test_vanishes_for_large_reuse(self):
        vals = [interference_power(64, 1e5, t_r, 3.0) for t_r in (2, 10, 100, 10000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-6 * vals[0]

    @pytest.mark.parametrize("alpha", [350.0, 352.0])
    def test_non_finite_sum_is_refused(self, alpha):
        """Near the SNR's overflow 8 i SNR is inf while (T_r i - 1)^-alpha is
        0, and the inf * 0 term made the sum NaN (at alpha = 350, n = 4^9)."""
        p = PhyParams(alpha)
        with pytest.raises(InvalidParameterError,
                           match=f"exponent {alpha!r} makes the interference sum over "
                                 f"n = {4 ** 9} nodes"):
            interference_power(4 ** 9, p.snr_hcoop, p.t_r_hcoop, alpha)

    def test_reuse_factor_guard(self):
        with pytest.raises(InvalidParameterError):
            interference_power(4, 1.0, 1, 4.0)


class TestRates:
    def test_single_stage_scaling(self):
        """With identical interference, rate(4n, 1) / rate(n, 1) = 1/2."""
        p = PhyParams(4.0)
        for n in (4, 64, 4096):
            ratio = rate_hcoop(4 * n, 1, p, p_i=100.0) / rate_hcoop(n, 1, p, p_i=100.0)
            assert ratio == pytest.approx(0.5, rel=1e-12)

    def test_two_stage_value(self):
        """n=4^6, s=2, alpha=4, rc=1: direct evaluation of the closed form."""
        p = PhyParams(4.0)
        n = 4 ** 6
        p_i = interference_power(n, p.snr_hcoop, p.t_r_hcoop, 4.0)
        log_term = math.log2(1 + p.snr_hcoop / (1 + p_i))
        expected = log_term * n ** (-1 / 3) / (3 * p.t_r_hcoop ** (4 / 3) * 6 ** (1 / 3))
        assert rate_hcoop(n, 2, p, p_i) == pytest.approx(expected, rel=1e-12)

    def test_stage_guard(self):
        with pytest.raises(InvalidParameterError):
            rate_hcoop(16, 0, PhyParams(4.0), p_i=100.0)

    def test_multihop_scaling_and_value(self):
        p = PhyParams(4.0)
        assert rate_multihop(256, p, p_i=50.0) / rate_multihop(64, p, p_i=50.0) \
            == pytest.approx(0.5, rel=1e-12)
        p_i = interference_power(64, p.snr_multihop, p.t_r_multihop, 4.0)
        expected = math.log2(1 + p.snr_multihop / (1 + p_i)) / (8 * 16)
        assert rate_multihop(64, p, p_i) == pytest.approx(expected, rel=1e-12)


class TestOptimalStages:
    """cluster_rate's stage count s* is the first maximum of an exhaustive
    scan of rate_hcoop over s = 1..ceil(4 sqrt(ln N))."""

    def test_matches_exhaustive_scan(self):
        """kappa = 0 and N = n: the area is 1 and the penalty 1, so the rate
        is the scanned rate at s*."""
        p = PhyParams(4.0)
        for m_levels in (2, 6, 9):
            grid = NetworkGrid(m_levels, 0.0, 4.0)
            n = grid.n
            s_max = math.ceil(4 * math.sqrt(math.log(n)))
            rates = [rate_hcoop(n, s, p, grid.interference_hcoop) for s in range(1, s_max + 1)]
            best = max(range(len(rates)), key=lambda i: (rates[i], -i)) + 1
            cr = cluster_rate(n, grid, p)
            assert cr.stages == best
            assert cr.rate == rates[best - 1]

    def test_frozen_and_growth(self):
        """First verified scan at alpha=4, each network's largest cluster
        under that network's interference sum: s*(4^9) = 3; s* grows with n."""
        p = PhyParams(4.0)

        def s_star(m_levels):
            return cluster_rate(4 ** m_levels, NetworkGrid(m_levels, 0.0, 4.0), p).stages
        assert s_star(9) == 3
        assert s_star(12) >= s_star(6)


class TestClusterRate:
    def test_dense_network_no_penalty(self):
        """kappa = 0: cluster area <= 1, so the duty-cycle penalty is 1 and
        the rate is the larger of the best scanned cooperative rate and
        the multihop rate."""
        grid = NetworkGrid(5, 0.0, 4.0)
        p = PhyParams(4.0)
        p_i_h = interference_power(grid.n, p.snr_hcoop, p.t_r_hcoop, 4.0)
        p_i_m = interference_power(grid.n, p.snr_multihop, p.t_r_multihop, 4.0)
        for m in range(1, 6):
            N = 4 ** m
            s_max = math.ceil(4 * math.sqrt(math.log(N)))
            r_h = max(rate_hcoop(N, s, p, p_i_h) for s in range(1, s_max + 1))
            expected = max(r_h, rate_multihop(N, p, p_i_m))
            assert cluster_rate(N, grid, p).rate == pytest.approx(expected, rel=1e-15)

    def test_extended_alpha4_multihop_everywhere(self):
        """kappa=1, alpha=4: the 4^{-m} duty-cycle penalty hands every level
        to multihop (crossover at m = 1, recorded from the first evaluation)."""
        grid = NetworkGrid(6, 1.0, 4.0)
        p = PhyParams(4.0)
        for m in range(1, 7):
            cr = cluster_rate(4 ** m, grid, p)
            assert cr.stages is None
            assert cr.rate == pytest.approx(
                rate_multihop(4 ** m, p, grid.interference_multihop), rel=1e-15)

    def test_mode_is_argmax_and_dominates_multihop(self):
        for kappa in (0.0, 1.0):
            grid = NetworkGrid(6, kappa, 3.0)
            p = PhyParams(3.0)
            p_i_m = interference_power(grid.n, p.snr_multihop, p.t_r_multihop, 3.0)
            for m in range(1, 7):
                cr = cluster_rate(4 ** m, grid, p)
                r_m = rate_multihop(4 ** m, p, p_i_m)
                assert cr.rate >= r_m - 1e-18
                if cr.stages is None:
                    assert cr.rate == pytest.approx(r_m, rel=1e-15)
                else:
                    assert cr.rate > r_m

    def test_extended_alpha35_multihop_wins_at_depth(self):
        """kappa=1, alpha=3.5: the area penalty beats the cooperative gain
        at every level through m = 12."""
        grid = NetworkGrid(12, 1.0, 3.5)
        p = PhyParams(3.5)
        for m in range(1, 13):
            assert cluster_rate(4 ** m, grid, p).stages is None

    def test_rates_positive_and_decreasing(self):
        grid = NetworkGrid(8, 0.0, 4.0)
        p = PhyParams(4.0)
        rates = [cluster_rate(4 ** m, grid, p).rate for m in range(1, 9)]
        assert all(r > 0 for r in rates)
        assert all(a > b for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("m_levels, kappa, alpha", [(9, 1e6, 4.0), (3, 200.0, 4.0),
                                                         (9, 0.0, 300.0)])
    def test_penalty_overflow_rejected(self, m_levels, kappa, alpha):
        """n^(kappa-1) or A_c^(-alpha/2) past the float range is a bad argument."""
        grid = NetworkGrid(m_levels, kappa, alpha)
        p = PhyParams(alpha)
        with pytest.raises(InvalidParameterError, match="overflow the duty-cycle penalty"):
            cluster_rate(4, grid, p)

    def test_rejects_bad_cluster_size(self):
        grid = NetworkGrid(3, 0.0, 4.0)
        p = PhyParams(4.0)
        for bad in (2, 8, 5, 256):
            with pytest.raises(InvalidParameterError):
                cluster_rate(bad, grid, p)


class TestExactLog4:
    @pytest.mark.parametrize("n,expected", [
        (1, 0), (4, 1), (256, 4), (4 ** 40, 40),
        (0, None), (-4, None), (2, None), (100, None), (4 ** 40 + 1, None), (2 * 4 ** 40, None),
    ])
    def test_exact_log4(self, n, expected):
        assert exact_log4(n) == expected
