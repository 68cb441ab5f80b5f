"""Grid guards, edge capacities, and the capacity envelope."""

import math

import pytest

from d2d_cachescale import (
    InvalidParameterError,
    NetworkGrid,
    PhyParams,
    SizeGuardError,
    capacity_envelope,
    multihop_envelope,
)
from d2d_cachescale.hierarchy import MAX_LEVELS
from conftest import caps_for


class TestNetworkGrid:
    def test_level_count_guard(self):
        """M runs from 1 to MAX_LEVELS = 20, where each interference sum has
        about 1e6 terms; outside that range the grid is refused."""
        assert MAX_LEVELS == 20
        assert NetworkGrid(MAX_LEVELS, 0.0, 4.0).n == 4 ** 20
        for m in (0, -1):
            with pytest.raises(InvalidParameterError, match="level count must be"):
                NetworkGrid(m, 0.0, 4.0)
        for m in (MAX_LEVELS + 1, 40):
            with pytest.raises(SizeGuardError, match=f"guard of {MAX_LEVELS}"):
                NetworkGrid(m, 0.0, 4.0)


class TestEdgeCapacities:
    def test_frozen_extended_alpha4(self):
        """First verified evaluation, M=6, kappa=1, alpha=4: multihop wins at
        every level and the capacities halve per level."""
        _, _, caps = caps_for(6, 1.0, 4.0)
        expected = [0.13951740475663002, 0.06975870237831501, 0.034879351189157505,
                    0.017439675594578753, 0.008719837797289376, 0.004359918898644688]
        assert list(caps.cbar[1:]) == pytest.approx(expected, rel=1e-12)

    def test_monotone_and_inf_convention(self):
        _, _, caps = caps_for(7, 0.0, 2.5)
        assert caps.cbar[0] == math.inf
        vals = caps.cbar[1:]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestCapacityEnvelope:
    def test_dense_kills_area_term(self):
        grid = NetworkGrid(9, 0.0, 4.0)
        env = capacity_envelope(grid, PhyParams(4.0))
        s_m = math.sqrt(9 * math.log(4.0))
        assert env.s_m == pytest.approx(s_m, rel=1e-15)
        assert env.gamma_upper == pytest.approx(1.0 / (2 * s_m + 1), rel=1e-15)
        assert env.gamma_lower == pytest.approx(1.0 / (s_m + 1), rel=1e-15)

    def test_extended_alpha3_saturates(self):
        """kappa=1, alpha=3: the area term is exactly 1/2, so both exponents
        pin at 1/2."""
        env = capacity_envelope(NetworkGrid(8, 1.0, 3.0), PhyParams(3.0))
        assert env.gamma_lower == 0.5
        assert env.gamma_upper == 0.5

    def test_extended_shallow_alpha(self):
        """kappa=1, alpha=2.5, M=11: gamma_lower = min(1/(s_M+1) + 0.25, 0.5)."""
        env = capacity_envelope(NetworkGrid(11, 1.0, 2.5), PhyParams(2.5))
        s_m = math.sqrt(11 * math.log(4.0))
        assert env.gamma_lower == pytest.approx(min(1 / (s_m + 1) + 0.25, 0.5), rel=1e-15)

    def test_pair_invariants(self):
        for m_levels, kappa, alpha in [(6, 0.0, 2.5), (9, 1.0, 4.0), (11, 0.5, 3.0)]:
            env = capacity_envelope(NetworkGrid(m_levels, kappa, alpha), PhyParams(alpha))
            assert env.gamma_lower >= env.gamma_upper
            assert 0.0 < env.gamma_upper <= 0.5
            assert 0.0 < env.gamma_lower <= 0.5
            assert env.c_lower > 0 and env.c_upper > 0

    def test_multihop_envelope_is_exact(self):
        grid, params, caps = caps_for(7, 1.0, 4.0, True)
        env = multihop_envelope(grid, params)
        assert env.gamma_lower == env.gamma_upper == 0.5
        for m in range(1, 8):
            assert caps.cbar[m] == pytest.approx(env.c_lower * 4.0 ** (-m / 2), rel=1e-12)

    @pytest.mark.parametrize("m_levels", [6, 9, 11])
    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    @pytest.mark.parametrize("alpha", [2.5, 4.0])
    def test_capacity_sandwich(self, m_levels, kappa, alpha):
        """The envelope brackets the actual capacities within 5% slack.

        The envelope constants are asymptotic in flavour, so misses at the
        first couple of levels are reported rather than failed.
        """
        grid, params, caps = caps_for(m_levels, kappa, alpha)
        env = capacity_envelope(grid, params)
        small_m_misses = []
        for m in range(1, m_levels + 1):
            lo = env.c_lower * 4.0 ** (-m * env.gamma_lower)
            hi = env.c_upper * 4.0 ** (-m * env.gamma_upper)
            ok = lo <= caps.cbar[m] * 1.05 and caps.cbar[m] <= hi * 1.05
            if not ok and m <= 2:
                small_m_misses.append((m, lo, caps.cbar[m], hi))
                continue
            assert ok, f"m={m}: {lo} <= {caps.cbar[m]} <= {hi} fails beyond 5%"
        if small_m_misses:
            print(f"envelope misses at small m ({m_levels=}, {kappa=}, {alpha=}):",
                  small_m_misses)
