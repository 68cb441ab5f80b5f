"""Property tests over the popularity model's, simulator's and solvers' parameter space."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from d2d_cachescale import (
    PlacementVector,
    SimConfig,
    brute_force,
    capacity_envelope,
    optimize_placement,
    solve_exact,
    throughput_bounds,
    tail_inverse,
    tail_mass,
    zipf_pmf,
)
from d2d_cachescale.popularity import CHUNK_RANKS
from conftest import caps_for
from test_delivery import assert_matches_reference
from test_exact import assert_matches_reference as assert_exact_matches_reference
from test_popularity import assert_matches_dense

taus = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(L=st.integers(min_value=1, max_value=3 * CHUNK_RANKS), tau=taus)
def test_chunked_build_bit_identical_to_dense(L, tau):
    assert_matches_dense(L, tau)


@settings(max_examples=300, deadline=None)
@given(L=st.integers(min_value=1, max_value=20000), tau=taus,
       frac=st.floats(min_value=0.0, max_value=1.0))
def test_tail_inverse_undoes_tail_mass(L, tau, frac):
    pop = zipf_pmf(L, tau)
    x = 1.0 + frac * L
    assert abs(tail_inverse(pop, tail_mass(pop, x)) - x) <= 1e-9 * L


@st.composite
def placements(draw, m_levels, L):
    """x over levels 0..m_levels summing to L; cuts at 0 and L leave levels empty."""
    cut = st.one_of(st.just(0), st.just(L), st.integers(min_value=0, max_value=L))
    cuts = sorted(draw(st.lists(cut, min_size=m_levels, max_size=m_levels)))
    return PlacementVector(tuple(b - a for a, b in zip([0, *cuts], [*cuts, L])))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m_levels=st.integers(min_value=1, max_value=4),
       L=st.integers(min_value=1, max_value=3 * CHUNK_RANKS),
       tau=st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
       seed=st.integers(min_value=0, max_value=2 ** 32))
def test_level_draw_matches_rank_draw(data, m_levels, L, tau, seed):
    """simulate's level inversion reproduces the per-rank draw's levels exactly."""
    grid, _, _ = caps_for(m_levels, 0.0, 4.0)
    x = data.draw(placements(m_levels, L))
    assert_matches_reference(SimConfig(grid, x, zipf_pmf(L, tau), 2000, seed))


@settings(max_examples=150, deadline=None)
@given(m_levels=st.integers(min_value=1, max_value=3), L=st.integers(min_value=1, max_value=12),
       tau=taus, alpha=st.sampled_from([2.5, 3.0, 4.0]), kappa=st.sampled_from([0.0, 1.0]),
       frac=st.floats(min_value=0.0, max_value=0.999))
def test_exact_is_optimal_and_bounds_the_pipeline(m_levels, L, tau, alpha, kappa, frac):
    """solve_exact's rate equals the exhaustive optimum, and the paper's
    pipeline never exceeds it."""
    grid, _, caps = caps_for(m_levels, kappa, alpha)
    pop = zipf_pmf(L, tau)
    lo = L * 4.0 ** (-m_levels)
    l_c = lo + (L - lo) * frac
    _, brute_rate = brute_force(grid, caps, pop, l_c)
    _, exact_rate = solve_exact(grid, caps, pop, l_c)
    assert exact_rate == brute_rate
    assert optimize_placement(grid, caps, pop, l_c).report.rate <= exact_rate * (1.0 + 1e-12)


@settings(max_examples=150, deadline=None)
@given(m_levels=st.integers(min_value=1, max_value=8),
       L=st.integers(min_value=1, max_value=3 * CHUNK_RANKS),
       tau=taus, alpha=st.sampled_from([2.5, 3.0, 4.0]), kappa=st.sampled_from([0.0, 1.0]),
       frac=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)))
def test_bracketed_solver_matches_full_search(m_levels, L, tau, alpha, kappa, frac):
    """solve_exact's bracketed threshold search gives the placement and the
    rate bits of the bisection that searches every threshold over all ranks."""
    grid, _, caps = caps_for(m_levels, kappa, alpha)
    lo = L * 4.0 ** (-m_levels)
    assert_exact_matches_reference(grid, caps, zipf_pmf(L, tau), lo + (L - lo) * frac)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m_levels=st.integers(min_value=2, max_value=8),
       alpha=st.sampled_from([2.2, 2.5, 3.0, 3.5, 4.0, 5.0]), kappa=st.sampled_from([0.0, 1.0]),
       beta1=st.sampled_from([0.5, 0.7, 0.9]),
       beta2_frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_lower_side_of_the_bound_sandwich(data, m_levels, alpha, kappa, beta1, beta2_frac):
    """bounds.floor <= guarantee floor <= achieved rate <= relaxed optimum,
    on the paper's instances (L = n^beta1, L_C = n^beta2 < L) and at the tau
    branch points 1, gamma_lower + 1 and gamma_upper + 1 of the bounds.

    The integer side holds only while L_C <= L - 1, so that the relaxed
    optimum leaves at least one file out of each node's cache; see
    test_integer_side_fails_with_less_than_one_file_uncached."""
    grid, params, caps = caps_for(m_levels, kappa, alpha)
    L, l_c = math.floor(grid.n ** beta1), grid.n ** (beta2_frac * beta1)
    assume(l_c < L)
    env = capacity_envelope(grid, params)
    kink = st.sampled_from([1.0, env.gamma_lower + 1.0, env.gamma_upper + 1.0])
    tau = data.draw(st.one_of(
        taus, st.builds(lambda t, d: t + d, kink, st.sampled_from([-1e-12, 0.0, 1e-12]))))
    pop = zipf_pmf(L, tau)
    outcome = optimize_placement(grid, caps, pop, l_c)
    bounds = throughput_bounds(grid, params, pop, l_c)
    report = outcome.report
    assert bounds.floor <= report.guarantee_floor
    if l_c <= L - 1:
        assert report.guarantee_floor <= report.rate <= outcome.relaxed.r_star


@pytest.mark.parametrize("L, l_c", [(6, 16 ** (0.90625 * 0.7)),
                                     (4, 16 ** (0.9999999999999999 * 0.5))])
def test_integer_side_fails_with_less_than_one_file_uncached(L, l_c):
    """Pins a known defect: with L - 1 < L_C < L (n = 16, tau = 0) the
    integer side of the sandwich fails, for the pipeline and the exhaustive
    optimum alike.

    At L = 6, L_C = 5.81 the relaxation caches 5.77 files per node at rate
    2.018. Every integer placement caches at most 5 locally, leaves a whole
    file's tail (1/6) on level 1 and reaches 0.464, below the guarantee
    floor 2.018 / (M (1 + 2^tau)) = 0.504: the tail bound behind the
    1 + 2^tau factor needs a rank past the rounded prefix. At L = 4 and a
    budget 6e-16 below L, rounding snaps the 3.99... local files up to 4,
    within the 1e-12 budget tolerance of PlacementVector.validate, and the
    unbounded all-local rate exceeds the relaxed optimum."""
    grid, _, caps = caps_for(2, 0.0, 2.2)
    pop = zipf_pmf(L, 0.0)
    outcome = optimize_placement(grid, caps, pop, l_c)
    report = outcome.report
    assert report.rate == brute_force(grid, caps, pop, l_c)[1]
    assert not report.guarantee_floor <= report.rate <= outcome.relaxed.r_star
