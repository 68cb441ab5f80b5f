"""Property tests over the popularity model's, simulator's, solvers' and CLI's parameter space."""

import contextlib
import io
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from d2d_cachescale import (
    DomainError,
    NetworkGrid,
    PhyParams,
    PlacementVector,
    SimConfig,
    brute_force,
    simulate,
    optimize_placement,
    solve_exact,
    edge_capacities,
    throughput_bounds,
    zipf_pmf,
)
from d2d_cachescale.analysis import achievable_exponent
from d2d_cachescale.hierarchy import capacity_envelope
from d2d_cachescale import placement
from d2d_cachescale.placement import relaxed_cache_load, solve_relaxed
from d2d_cachescale.cli import main
from d2d_cachescale.delivery import CHUNK_REQUESTS
from d2d_cachescale.popularity import (
    BLOCK_RANKS,
    BLOCK_SHIFT,
    CHUNK_RANKS,
    tail_inverse,
    threshold_indices,
)
from conftest import caps_for
from reference import (
    baseline_exponent,
    dense_zipf,
    lowest_level_load,
    memoryview_raw_thresholds,
    memoryview_tail_index,
    midpoint_solve_rate,
    per_top_level_relaxations,
    relaxed_solution_at,
    searchsorted_simulate,
    tail_mass,
    two_call_cluster_rate,
)
from test_delivery import assert_matches_reference, report_bits
from test_exact import assert_matches_reference as assert_exact_matches_reference
from test_placement import assert_relaxed_matches_reference
from test_popularity import assert_matches_dense, reference_tail_inverse

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
    assert abs(tail_inverse(pop, tail_mass(pop, x))[0] - x) <= 1e-9 * L


@settings(max_examples=60, deadline=None)
@given(data=st.data(), L=st.integers(min_value=1, max_value=3 * CHUNK_RANKS), tau=taus)
def test_point_reads_are_the_array_entries(data, L, tau):
    """p(k) and suffix(k) return Python floats with the bits of the dense
    oracle's pmf[k] and suffix_mass[k], at both ends 0 and L and at drawn
    ranks between."""
    pop = zipf_pmf(L, tau)
    _, pmf, suffix = dense_zipf(L, tau)
    ks = [0, L, *data.draw(st.lists(st.integers(min_value=0, max_value=L), max_size=20))]
    for k in ks:
        for read, array in ((pop.p, pmf), (pop.suffix, suffix)):
            got = read(k)
            assert type(got) is float
            assert got.hex() == float(array[k]).hex(), k


# Ranks next to a probability block's or a build chunk's edge.
EDGES = (1, BLOCK_RANKS - 1, BLOCK_RANKS, BLOCK_RANKS + 1,
         CHUNK_RANKS - 1, CHUNK_RANKS, CHUNK_RANKS + 1)


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       L=st.one_of(st.sampled_from(EDGES), st.integers(min_value=1, max_value=3 * CHUNK_RANKS)),
       tau=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), taus))
def test_block_reads_match_oracle_at_edges(data, L, tau):
    """p(k), tail_mass and tail_inverse give the dense oracle's bits
    at every block and chunk edge the library reaches, at ranks 0, L - 1
    and L, and at drawn ranks; p(0) is 0.0. Each rank k is read through
    tail_mass at k and inside its segment, and through the inverse at
    arguments whose tail index is k - 1 (so the inverse divides by p(k)),
    on the full bracket and on a drawn bracket around that index."""
    pop = zipf_pmf(L, tau)
    _, pmf, suffix = dense_zipf(L, tau)
    drawn = data.draw(st.lists(st.integers(min_value=0, max_value=L), max_size=10))
    ks = sorted({k for k in (*EDGES, 0, L - 1, L, *drawn) if 0 <= k <= L})
    assert pop.p(0) == 0.0
    for k in ks:
        assert pop.p(k).hex() == float(pmf[k]).hex(), k
        if k == 0:
            continue
        frac = data.draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
        for x in (float(k), k + frac):
            j = math.floor(x)
            want = float(suffix[j - 1]) if j == x else (j + 1 - x) * float(pmf[j]) + float(suffix[j])
            assert tail_mass(pop, x).hex() == want.hex(), (k, x)
        s_hi, s_lo = float(suffix[k - 1]), float(suffix[k])
        for y in (s_hi, 0.5 * (s_hi + s_lo), math.nextafter(s_lo, 1.0), s_lo):
            x_ref = reference_tail_inverse(suffix, pmf, y)
            if y >= 1.0:
                i = 0
            elif y <= 0.0:
                i = L - 1
            else:  # suffix is non-increasing: the ranks with suffix >= y are a prefix
                i = int(np.searchsorted(-suffix, -y, side="right")) - 1
            assert tail_inverse(pop, y) == (x_ref, i), (k, y)
            if 0.0 < y < 1.0:
                lo = data.draw(st.integers(min_value=0, max_value=i))
                hi = data.draw(st.integers(min_value=i + 1, max_value=L))
                x, j = tail_inverse(pop, y, lo, hi)
                assert (x.hex(), j) == (x_ref.hex(), i), (k, y, lo, hi)


def edge_brackets(data, lo_max, hi_min, L):
    """Brackets [lo, hi] with lo <= lo_max and hi >= hi_min: one inside the
    block of lo_max, one whose lo lies in the block below (where there is
    one), one whose hi lies past the next block edge (where the library
    reaches it), and one drawn over all of [0, lo_max] x [hi_min, L], which
    spans many blocks of a large library."""
    base = lo_max >> BLOCK_SHIFT << BLOCK_SHIFT
    top = max(hi_min, min(base + BLOCK_RANKS, L))  # hi that stays in lo_max's block
    out = [(data.draw(st.integers(base, lo_max)), data.draw(st.integers(hi_min, top)))]
    if base > 0:
        out.append((data.draw(st.integers(max(base - BLOCK_RANKS, 0), base - 1)),
                    data.draw(st.integers(hi_min, top))))
    if base + BLOCK_RANKS < L:
        out.append((data.draw(st.integers(base, lo_max)),
                    data.draw(st.integers(max(hi_min, base + BLOCK_RANKS + 1),
                                          min(base + 2 * BLOCK_RANKS, L)))))
    out.append((data.draw(st.integers(0, lo_max)), data.draw(st.integers(hi_min, L))))
    return out


@settings(max_examples=30, deadline=None)
@given(data=st.data(),
       L=st.one_of(st.sampled_from(EDGES + (3 * CHUNK_RANKS,)),
                   st.integers(min_value=1, max_value=3 * CHUNK_RANKS)),
       tau=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), taus),
       r=st.floats(min_value=1e-3, max_value=1e3))
def test_searches_match_oracle_at_block_edges(data, L, tau, r):
    """At every block and chunk edge k of the library and next to it, p(k)
    and suffix(k) are the dense oracle's entries, and both searches return
    the memoryview searches' answers over the oracle's array for keys on
    the boundary mass suffix(k) and one float either side: the tail index
    and inverse of y = suffix(k), and the threshold at a cap c = suffix(k)
    * r. Each key is searched on a bracket inside one block, across one
    block edge and over many blocks, and all the caps in one scan."""
    pop = zipf_pmf(L, tau)
    _, pmf, suffix = dense_zipf(L, tau)
    view = memoryview(suffix)
    edges = [e for e in range(0, L + 1, BLOCK_RANKS)] + [CHUNK_RANKS, L - CHUNK_RANKS]
    ks = sorted({k + d for k in edges for d in (-1, 0, 1) if 0 <= k + d <= L})
    caps = []
    for k in ks:
        assert pop.p(k).hex() == float(pmf[k]).hex(), k
        s = pop.suffix(k)
        assert s.hex() == float(suffix[k]).hex(), k
        for y in (math.nextafter(s, 0.0), s, math.nextafter(s, 1.0)):
            if not 0.0 < y < 1.0:
                continue
            i = memoryview_tail_index(view, y, 0, L)
            want = (reference_tail_inverse(suffix, pmf, y).hex(), i)
            for lo, hi in edge_brackets(data, i, i + 1, L):
                x, j = tail_inverse(pop, y, lo, hi)
                assert (x.hex(), j) == want, (k, y, lo, hi)
        for c in (math.nextafter(s * r, 0.0), s * r, math.nextafter(s * r, math.inf)):
            if c <= 0.0:
                continue
            caps.append(c)
            t = memoryview_raw_thresholds(view, r, [c], [0], [L], L)[0]
            for lo, hi in edge_brackets(data, t, t, L):
                assert threshold_indices(pop, r, [c], [lo], [hi]) == [t], (k, c, lo, hi)
    full = ([0] * len(caps), [L] * len(caps))
    assert (threshold_indices(pop, r, caps, *full)
            == memoryview_raw_thresholds(view, r, caps, *full, L))


# y one float below, on or above the breakpoint suffix(k) (step -1, 0, 1), or drawn
steps = st.one_of(st.none(), st.integers(min_value=-1, max_value=1))


@settings(max_examples=200, deadline=None)
@given(L=st.integers(min_value=1, max_value=5000), tau=taus,
       k=st.integers(min_value=0, max_value=5000), step=steps,
       u=st.floats(min_value=0.0, max_value=1.0),
       lo_gap=st.integers(min_value=0, max_value=5000),
       hi_gap=st.integers(min_value=0, max_value=5000))
# tau = 0, L = 4: suffix = [1, 0.75, 0.5, 0.25, 0]
@example(L=4, tau=0.0, k=2, step=0, u=0.0, lo_gap=1, hi_gap=0)  # y on a breakpoint
@example(L=4, tau=0.0, k=2, step=-1, u=0.0, lo_gap=1, hi_gap=1)
@example(L=4, tau=0.0, k=2, step=1, u=0.0, lo_gap=1, hi_gap=1)
@example(L=4, tau=0.0, k=2, step=0, u=0.0, lo_gap=0, hi_gap=0)  # hi == lo + 1
def test_tail_index_matches_memoryview_search(L, tau, k, step, u, lo_gap, hi_gap):
    """tail_inverse reports the memoryview search's tail index, and
    the inverse of the full search, on every bracket a caller may vouch
    for, at breakpoints, their float neighbours and between them. The
    bracket [lo, hi] reaches lo_gap below and hi_gap above [i, i + 1]."""
    pop = zipf_pmf(L, tau)
    view = memoryview(dense_zipf(L, tau)[2])
    s = view[k % (L + 1)]
    y = u if step is None else math.nextafter(s, (0.0, s, 2.0)[step + 1])
    assume(0.0 < y < 1.0)
    i = memoryview_tail_index(view, y, 0, L)
    lo, hi = max(i - lo_gap, 0), min(i + 1 + hi_gap, L)
    x, j = tail_inverse(pop, y, lo, hi)
    assert j == memoryview_tail_index(view, y, lo, hi) == i
    assert x.hex() == tail_inverse(pop, y)[0].hex()


# A rate: drawn, the largest float, or (k, j, step): the breakpoint
# caps[j] / suffix(k) (capped at the largest float) or its float neighbour
rates = st.one_of(
    st.tuples(st.integers(min_value=0, max_value=4999), st.integers(min_value=0, max_value=5),
              st.integers(min_value=-1, max_value=1)),
    st.floats(min_value=0.0, max_value=1e300), st.just(sys.float_info.max))


@settings(max_examples=200, deadline=None)
@given(L=st.integers(min_value=1, max_value=5000), tau=taus,
       caps=st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=6),
       specs=st.lists(rates, min_size=3, max_size=3),
       lo_gap=st.integers(min_value=0, max_value=5000),
       hi_gap=st.integers(min_value=0, max_value=5000))
# tau = 0, L = 4: suffix = [1, 0.75, 0.5, 0.25, 0]; at r = 2, 0.5 * r == 1.0
@example(L=4, tau=0.0, caps=[1.0, 0.5], specs=[0.0, (2, 0, 0), (3, 1, 0)], lo_gap=2, hi_gap=2)
@example(L=4, tau=0.0, caps=[1.0], specs=[(2, 0, -1), (2, 0, 1), (1, 0, 0)], lo_gap=1, hi_gap=1)
@example(L=4, tau=0.0, caps=[1.0], specs=[0.0, (2, 0, 0), 4.0], lo_gap=0, hi_gap=0)  # lo == hi
@example(L=4, tau=0.0, caps=[1.0], specs=[0.0, (2, 0, 0), 4.0], lo_gap=1, hi_gap=0)  # hi == lo + 1
@example(L=4, tau=0.0, caps=[1.0], specs=[0.0, 0.0, 0.0], lo_gap=0, hi_gap=1)  # key -0.0
@example(L=3, tau=1.0, caps=[1e300, 1.0], specs=[sys.float_info.max] * 3, lo_gap=3, hi_gap=0)
def test_threshold_search_matches_memoryview_search(L, tau, caps, specs, lo_gap, hi_gap):
    """The model's threshold_indices returns the memoryview scan's thresholds
    on every bracket a caller may vouch for: one level searched in any
    [lo, hi] around its threshold t (lo_gap below, hi_gap above), and every
    level searched between its thresholds at a lower and a higher rate, as
    solve_exact's steps do. Rates sit on a breakpoint c / suffix(k), next
    to one, anywhere, at 0 (the key is -0.0) or at the largest float."""
    pop = zipf_pmf(L, tau)
    view = memoryview(dense_zipf(L, tau)[2])
    big = sys.float_info.max

    def rate(spec):
        if isinstance(spec, float):
            return spec
        k, j, step = spec
        r = min(caps[j % len(caps)] / view[k % L], big)
        return min(math.nextafter(r, (0.0, r, math.inf)[step + 1]), big)

    r1, r, r2 = sorted(rate(spec) for spec in specs)
    c = caps[0]
    t = memoryview_raw_thresholds(view, r, [c], [0], [L], L)[0]
    lo, hi = max(t - lo_gap, 0), min(t + hi_gap, L)
    assert threshold_indices(pop, r, [c], [lo], [hi]) == [t]
    assert memoryview_raw_thresholds(view, r, [c], [lo], [hi], L) == [t]
    full = ([0] * len(caps), [L] * len(caps))
    t_lo = memoryview_raw_thresholds(view, r1, caps, *full, L)
    t_hi = memoryview_raw_thresholds(view, r2, caps, *full, L)
    assert threshold_indices(pop, r1, caps, *full) == t_lo
    assert (threshold_indices(pop, r, caps, t_lo, t_hi)
            == memoryview_raw_thresholds(view, r, caps, t_lo, t_hi, L))


@settings(max_examples=60, deadline=None)
@given(m_levels=st.integers(min_value=1, max_value=9), L=st.integers(min_value=1, max_value=20000),
       tau=taus, alpha=st.sampled_from([2.5, 4.0]), kappa=st.sampled_from([0.0, 1.0]),
       frac=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)))
@example(m_levels=1, L=8192, tau=0.0, alpha=2.5, kappa=0.0, frac=0.9999999999999998)
def test_exact_lies_between_the_per_top_level_relaxations(m_levels, L, tau, alpha, kappa, frac):
    """Past brute force's reach: solve_exact's rate is at most the largest
    relaxed rate over the admissible top levels m_b (each level charged its
    round-robin share cbar[m] / m_b), and at least the rate of every such
    relaxation's rounded placement on the real capacities.

    Within the 1e-12 budget tolerance of L, the dust-budget case of
    test_integer_side_fails_with_less_than_one_file_uncached, the all-local
    placement fits and solve_exact returns its unbounded rate, as brute
    force does; no top level m_b >= 1 bounds that. The example's budget is
    1.8e-12 below L: rounding once snapped its level 0 up to all 8192 files."""
    grid, _, caps = caps_for(m_levels, kappa, alpha)
    lo = L * 4.0 ** (-m_levels)
    l_c = lo + (L - lo) * frac
    assume(l_c < L)
    pop = zipf_pmf(L, tau)
    _, rate = solve_exact(grid, caps, pop, l_c)
    if L <= l_c + 1e-12:
        assert rate == math.inf
        return
    pairs = per_top_level_relaxations(caps, pop, l_c)
    assert rate <= max(bound for bound, _ in pairs) * (1.0 + 1e-12)
    for _, rounded in pairs:
        assert rounded <= rate * (1.0 + 1e-12)


@settings(max_examples=150, deadline=None)
@given(m_levels=st.integers(min_value=1, max_value=9), L=st.integers(min_value=2, max_value=70000),
       tau=taus, alpha=st.sampled_from([2.5, 4.0]),
       ulps=st.one_of(st.integers(min_value=1, max_value=64),
                      st.integers(min_value=1, max_value=2 ** 20)))
@example(m_levels=9, L=1000, tau=1.0, alpha=4.0, ulps=880)
@example(m_levels=1, L=65536, tau=0.0, alpha=2.5, ulps=1)
def test_pipeline_fits_a_budget_just_below_the_library(m_levels, L, tau, alpha, ulps):
    """A budget a few float steps below L: rounding neither snaps the level
    that absorbs the last files up past it (the first example, 1e-10 below
    L) nor lets the relaxed targets' own rounding error do so (the second,
    where level 0's target is exactly L). Both once exited 2."""
    l_c = L - ulps * math.ulp(math.nextafter(L, 0.0))
    grid, _, caps = caps_for(m_levels, 0.0, alpha)
    placement = optimize_placement(grid, caps, zipf_pmf(L, tau), l_c).placement
    assert placement.cache_load() <= l_c + 1e-12


@settings(max_examples=200, deadline=None)
@given(m_levels=st.integers(min_value=1, max_value=8),
       alpha=st.floats(min_value=2.2, max_value=5.0),
       kappa=st.floats(min_value=0.0, max_value=1.5),
       rc_fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
       multihop_only=st.booleans())
def test_capacity_table_matches_the_two_call_mode_choice(m_levels, alpha, kappa, rc_fraction,
                                                        multihop_only):
    """edge_capacities gives the cbar bits and stage counts of the two-call
    form: optimal_stages, then rate_hcoop at s* evaluated again, and
    multihop_only's early return before the scan. Its tables fall strictly
    from +inf to a positive top level, so LevelCapacities' check never
    refuses one."""
    grid, params = NetworkGrid(m_levels, kappa, alpha), PhyParams(alpha, rc_fraction)
    caps = edge_capacities(grid, params, multihop_only=multihop_only)
    rates = [two_call_cluster_rate(4 ** m, grid, params, multihop_only=multihop_only)
             for m in range(1, m_levels + 1)]
    assert [c.hex() for c in caps.cbar[1:]] == [(4.0 * r.rate / 3.0).hex() for r in rates]
    assert [r.stages for r in caps.rates[1:]] == [r.stages for r in rates]
    assert caps.cbar[0] == math.inf and caps.rates[0] is None
    assert all(hi > lo for hi, lo in zip(caps.cbar, caps.cbar[1:])) and caps.cbar[-1] > 0.0


def _law(fn, *args):
    try:
        e = fn(*args)
    except DomainError as exc:
        return str(exc)
    return e.regime, e.exponent.hex(), e.epsilon_term.hex()


_branch_taus = st.sampled_from([1.0, 1.5]).flatmap(
    lambda t: st.sampled_from([math.nextafter(t, 0.0), t, math.nextafter(t, 9.0)]))


@settings(max_examples=300, deadline=None)
@given(beta1=st.floats(min_value=0.0, max_value=2.0), beta2_frac=st.floats(0.0, 1.0),
       a1=st.sampled_from([0.5, 1.0, 2.0]), a2=st.sampled_from([0.5, 1.0, 2.0]),
       tau=st.one_of(taus, _branch_taus))
def test_baseline_is_the_achievable_law_at_alpha_3(beta1, beta2_frac, a1, a2, tau):
    """The achievable law at alpha = 3 gives the baseline's regime, exponent
    and correction bit for bit, errors included, branch points and their
    neighbours too; only the regime-II tau_case labels differ. The m_levels
    correction is zero at alpha = 3 whatever the level count."""
    beta2 = beta1 * beta2_frac
    args = (beta1, beta2, a1, a2, tau)
    assert _law(achievable_exponent, *args, 3.0, 9) == _law(baseline_exponent, *args)
    assert _law(achievable_exponent, *args, 3.0) == _law(baseline_exponent, *args)


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


request_counts = st.one_of(
    st.just(1),
    st.integers(min_value=1, max_value=999),
    st.sampled_from([CHUNK_REQUESTS - 1, CHUNK_REQUESTS, CHUNK_REQUESTS + 1,
                     2 * CHUNK_REQUESTS, 3 * CHUNK_REQUESTS + 1]),
    st.integers(min_value=1, max_value=3 * CHUNK_REQUESTS + 7),
)


@settings(max_examples=60, deadline=None)
@given(m_levels=st.integers(min_value=1, max_value=20), L=st.integers(min_value=1, max_value=3000),
       tau=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
       cuts=st.lists(st.integers(min_value=0, max_value=3000), min_size=20, max_size=20),
       requests=request_counts, seed=st.integers(min_value=0, max_value=2 ** 32))
@example(m_levels=16, L=100, tau=1.0, cuts=[3, 10, 40, 100] * 5, requests=CHUNK_REQUESTS + 1,
         seed=8)  # 4^16 = 2^32: the last node width of two nodes per word
@example(m_levels=17, L=100, tau=1.0, cuts=[3, 10, 40, 100] * 5, requests=70003,
         seed=8)  # one node per word
def test_streamed_simulate_matches_searchsorted(m_levels, L, tau, cuts, requests, seed):
    """simulate, with and without its per-edge histograms, reports every
    field with the bits of the simulator that drew all nodes and searched
    every uniform's level: the node skip and the chunked boundary counts
    leave the uniform stream and every count unchanged."""
    ends = sorted(min(c, L) for c in cuts[:m_levels])
    x = PlacementVector(tuple(b - a for a, b in zip([0, *ends], [*ends, L])))
    cfg = SimConfig(NetworkGrid(m_levels, 0.0, 4.0), x, zipf_pmf(L, tau), requests, seed)
    assert report_bits(simulate(cfg)) == report_bits(searchsorted_simulate(cfg))
    if m_levels <= 8:
        assert (report_bits(simulate(cfg, verbose=True))
                == report_bits(searchsorted_simulate(cfg, verbose=True)))


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
@example(m_levels=1, L=1, tau=0.0, alpha=2.5, kappa=0.0, frac=0.9999999999999998)
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
@given(data=st.data(), m_levels=st.integers(min_value=1, max_value=11),
       L=st.one_of(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=5000)),
       tau=st.one_of(st.just(1.0), taus), alpha=st.sampled_from([2.2, 2.5, 3.0, 4.0, 5.0]),
       kappa=st.sampled_from([0.0, 0.5, 1.0]))
def test_rate_only_load_is_the_lowest_level_form(data, m_levels, L, tau, alpha, kappa):
    """relaxed_cache_load(r) has, bit for bit, the load of the form that
    took the lowest occupied level m and summed only the levels above it,
    at every rate in m's bracket [cbar[m+1], cbar[m]] for m = 0..M (with
    cbar[M+1] read as the least positive float): at the finite ends, one
    float inside each, and at drawn rates between. Over all those rates,
    sorted, the load does not decrease, across the breakpoints too."""
    grid, _, caps = caps_for(m_levels, kappa, alpha)
    pop = zipf_pmf(L, tau)
    cbar = caps.cbar + (math.ulp(0.0),)
    loads = []
    for m in range(m_levels + 1):
        lo, hi = cbar[m + 1], cbar[m]
        ends = [lo, math.nextafter(lo, math.inf)]
        if math.isfinite(hi):
            ends += [math.nextafter(hi, 0.0), hi]
        drawn = data.draw(st.lists(
            st.floats(min_value=lo, max_value=hi, allow_infinity=False), min_size=1, max_size=4))
        for r in ends + drawn:
            load = relaxed_cache_load(r, caps, pop)
            assert load.hex() == lowest_level_load(m, r, caps, pop).hex(), (m, r)
            loads.append((r, load))
    loads.sort()
    assert all(a[1] <= b[1] for a, b in zip(loads, loads[1:]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m_levels=st.integers(min_value=1, max_value=11),
       L=st.integers(min_value=1, max_value=20000), tau=taus,
       alpha=st.sampled_from([2.2, 2.5, 3.0, 4.0, 5.0]),
       kappa=st.sampled_from([0.0, 0.5, 1.0]))
def test_lowest_level_bisection_matches_nested_search(data, m_levels, L, tau, alpha, kappa):
    """solve_relaxed's one-probe m* bisection gives the x*, r* and m* bits
    (or the error type) of the nested two-probe search it replaced, on
    uniform budgets, at L / n, and at a load that either search compares
    the budget against, each also moved by up to two float steps."""
    grid, _, caps = caps_for(m_levels, kappa, alpha)
    pop = zipf_pmf(L, tau)
    lo = L * 4.0 ** (-m_levels)
    m = data.draw(st.integers(min_value=0, max_value=m_levels - 1))
    probe = relaxed_cache_load(caps.cbar[m + data.draw(st.sampled_from([0, 1]))], caps, pop)
    l_c = data.draw(st.one_of(
        st.just(lo), st.just(probe),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True).map(
            lambda f: lo + (L - lo) * f)))
    steps = data.draw(st.integers(min_value=-2, max_value=2))
    for _ in range(abs(steps)):
        l_c = math.nextafter(l_c, math.inf if steps > 0 else 0.0)
    assert_relaxed_matches_reference(caps, pop, l_c)


@settings(max_examples=200, deadline=None)
@given(m_levels=st.integers(min_value=1, max_value=10),
       L=st.one_of(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=5000)),
       tau=st.one_of(st.just(1.0), taus), alpha=st.sampled_from([2.5, 4.0]),
       kappa=st.sampled_from([0.0, 1.0]),
       frac=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)))
def test_bracketed_rate_bisection_matches_full_search(m_levels, L, tau, alpha, kappa, frac):
    """solve_relaxed, whose rate search looks up each level's tail index
    between the indices at the ends of the rate bracket, gives the x*, r*
    and m* bits of the solver that runs a full tail_inverse search per
    level at every step. Small L clamps levels at ratios >= 1 and sends
    m* = 0 through the doubling loop for its infinite top rate."""
    grid, _, caps = caps_for(m_levels, kappa, alpha)
    lo = L * 4.0 ** (-m_levels)
    assert_relaxed_matches_reference(caps, zipf_pmf(L, tau), lo + (L - lo) * frac)


@settings(max_examples=200, deadline=None)
@given(m_levels=st.integers(min_value=1, max_value=10),
       L=st.one_of(st.integers(min_value=1, max_value=16),
                   st.integers(min_value=1, max_value=3 * CHUNK_RANKS)),
       tau=st.one_of(st.just(1.0), taus), alpha=st.sampled_from([2.5, 4.0]),
       kappa=st.sampled_from([0.0, 1.0]),
       frac=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)))
# a budget 1e-12 above the least, where x[M] = L - f + 1.0 and (L + 1.0) - f differ
@example(m_levels=1, L=17, tau=1.0, alpha=2.5, kappa=0.0, frac=1e-12 / (17 - 17 / 4))
def test_occupancies_are_the_full_search_differences(m_levels, L, tau, alpha, kappa, frac):
    """solve_relaxed's x* has, bit for bit, the occupancies of one full
    tail_inverse search per level at its (m*, r*), though it takes them
    from the rate solve's own evaluation at r*: pinned segments read once
    and bracketed searches, whose block entries depend on the pow path."""
    grid, _, caps = caps_for(m_levels, kappa, alpha)
    lo = L * 4.0 ** (-m_levels)
    l_c = lo + (L - lo) * frac
    assume(l_c < L)
    pop = zipf_pmf(L, tau)
    sol = solve_relaxed(caps, pop, l_c)
    want = relaxed_solution_at(sol.r_star, caps, pop)
    assert [v.hex() for v in sol.x_star] == [v.hex() for v in want]


def integer_inverse_examples(test):
    """At M = 1, the budgets (L + 1) / 4 - 1 + 3 k / 4 that put level 1's
    inverse on the integer k: the bisection's last hi often leaves the
    inverse there on its segment's right end."""
    for L, tau in ((3, 1.0), (5, 2.0), (10, 2.0), (10, 3.0), (20, 1.0)):
        for k in range(2, L + 1):
            test = example(m_levels=1, L=L, tau=tau, alpha=4.0, kappa=0.0, budget=k - 1)(test)
    return test


# Budgets of the relaxed-rate properties: a fraction of [L 4^-M, L), 1e-12
# above L 4^-M ("least"), one float below L ("below"), the budget that puts
# level M's inverse on the integer 1 + budget % L when only level M is
# active (an int), or the load at an end of a level's rate bracket moved by
# up to two float steps (a tuple).
rate_budgets = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.sampled_from(["least", "below"]),
    st.integers(min_value=0),
    st.tuples(st.integers(min_value=0), st.sampled_from([0, 1]),
              st.integers(min_value=-2, max_value=2)))


def rate_budget(budget, m_levels, L, caps, pop):
    """The budget l_c in [L 4^-M, L) that a draw of rate_budgets names."""
    q = 4.0 ** (-m_levels)
    if isinstance(budget, float):
        l_c = L * q + (L - L * q) * budget
    elif budget == "least":
        l_c = L * q + 1e-12
    elif budget == "below":
        l_c = math.nextafter(float(L), 0.0)
    elif isinstance(budget, int):
        l_c = (L + 1) * q - 4.0 * q + 3.0 * (1 + budget % L) * q
    else:
        m, side, steps = budget
        m %= m_levels
        assume(math.isfinite(caps.cbar[m + side]))
        l_c = relaxed_cache_load(caps.cbar[m + side], caps, pop)
        for _ in range(abs(steps)):
            l_c = math.nextafter(l_c, math.inf if steps > 0 else 0.0)
    assume(L * q <= l_c < L)
    return l_c


@settings(max_examples=300, deadline=None)
@given(m_levels=st.integers(min_value=1, max_value=10),
       L=st.one_of(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=5000)),
       tau=st.one_of(st.just(1.0), taus), alpha=st.sampled_from([2.2, 2.5, 3.0, 4.0, 5.0]),
       kappa=st.sampled_from([0.0, 0.5, 1.0]), budget=rate_budgets)
@integer_inverse_examples
def test_relaxed_rate_is_the_least_float_meeting_the_budget(m_levels, L, tau, alpha, kappa,
                                                           budget):
    """For m* < M, r* is the least float whose full-library load meets
    the budget: load(r*) >= l_c > load(nextafter(r*, 0)), on the budgets
    of rate_budgets. On these budgets the solver also gives the
    full-search oracle's bits."""
    grid, _, caps = caps_for(m_levels, kappa, alpha)
    pop = zipf_pmf(L, tau)
    l_c = rate_budget(budget, m_levels, L, caps, pop)
    assert_relaxed_matches_reference(caps, pop, l_c)
    sol = solve_relaxed(caps, pop, l_c)
    assume(sol.m_star < m_levels)
    r = sol.r_star
    assert relaxed_cache_load(r, caps, pop) >= l_c
    assert relaxed_cache_load(math.nextafter(r, 0.0), caps, pop) < l_c


# Steps the rate solve's secant pivots may take beyond the midpoint loop's:
# two for the bracket allowed four times the midpoint loop's width, one
# for a float that rounding leaves inside.
EXTRA_RATE_STEPS = 3


def rate_solve_input(m_levels, L, tau, alpha, kappa, budget):
    """(lo, hi, caps, pop, l_c, load at lo) for placement._solve_rate, with
    (lo, hi] = (cbar[m*+1], cbar[m*]] for m* < M from solve_relaxed."""
    grid, _, caps = caps_for(m_levels, kappa, alpha)
    pop = zipf_pmf(L, tau)
    l_c = rate_budget(budget, m_levels, L, caps, pop)
    m_star = solve_relaxed(caps, pop, l_c).m_star
    assume(m_star < m_levels)
    lo, hi = caps.cbar[m_star + 1], caps.cbar[m_star]
    return lo, hi, caps, pop, l_c, relaxed_cache_load(lo, caps, pop)


rate_solve_instances = dict(
    m_levels=st.integers(min_value=1, max_value=11),
    L=st.one_of(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=5000)),
    tau=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=12.0)),
    alpha=st.sampled_from([2.2, 2.5, 3.0, 4.0, 5.0]), kappa=st.sampled_from([0.0, 0.5, 1.0]),
    budget=rate_budgets)


@settings(max_examples=200, deadline=None)
@given(**rate_solve_instances)
@integer_inverse_examples
def test_rate_pivots_end_on_the_midpoint_loops_bits(m_levels, L, tau, alpha, kappa, budget):
    """_solve_rate's secant pivots return the r* and the inverses at r* of
    the midpoint loop they replaced, bit for bit: both end on the least
    float whose load meets the budget. tau reaches 12, and the budgets
    just below L send m* = 0 through the doubling of an infinite top rate."""
    lo, hi, caps, pop, l_c, load_lo = rate_solve_input(m_levels, L, tau, alpha, kappa, budget)
    r, inverses = placement._solve_rate(lo, hi, caps, pop, l_c, load_lo)
    want, want_inverses, _ = midpoint_solve_rate(lo, hi, caps, pop, l_c)
    assert (r.hex(), [v.hex() for v in inverses]) == (want.hex(), [v.hex() for v in want_inverses])


@settings(max_examples=200, deadline=None)
@given(**rate_solve_instances)
@integer_inverse_examples
def test_rate_pivots_take_at_most_three_steps_more_than_midpoints(m_levels, L, tau, alpha,
                                                                  kappa, budget):
    """_solve_rate closes its bracket within EXTRA_RATE_STEPS steps more
    than the midpoint loop takes on the same input, which stays below the
    step cap: with the cap set to that many steps it still returns."""
    lo, hi, caps, pop, l_c, load_lo = rate_solve_input(m_levels, L, tau, alpha, kappa, budget)
    steps = midpoint_solve_rate(lo, hi, caps, pop, l_c)[2] + EXTRA_RATE_STEPS
    assert steps < placement._RATE_STEPS
    with mock.patch.object(placement, "_RATE_STEPS", steps):
        placement._solve_rate(lo, hi, caps, pop, l_c, load_lo)


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


# Values every option may see: zero, negatives, tiny and huge finite
# numbers, non-finite and non-numeric text. Each is either rejected or
# leaves the instance small.
_ODD_VALUES = ("0", "-1", "-1e-300", "5e-324", "1e300", "-1e300", "1.7976931348623157e308",
               "nan", "inf", "-inf", "x", "", "1.5", "21", "40", str(10 ** 30))


def _numbers(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(repr)


# Values each flag may take that still give a small accepted instance:
# M <= 6, at most 1e4 requests, and for oracle M <= 2 with L <= 60 (or an
# odd 21 or 40), so its brute force stays under 1e5 compositions.
_SMALL = {
    "--kappa": _numbers(0.0, 1.0), "--alpha": _numbers(2.2, 5.0),
    "--beta1": _numbers(0.0, 1.0), "--beta2": _numbers(0.0, 1.0),
    "--a1": _numbers(0.01, 2.0), "--a2": _numbers(0.01, 2.0), "--tau": _numbers(0.0, 3.0),
    "--lc": _numbers(0.01, 100.0), "--bandwidth-hz": _numbers(1e-3, 1e3),
    "--rc-fraction": _numbers(0.01, 1.0),
    "--seed": st.integers(min_value=0, max_value=2 ** 64).map(str),
    "--requests": st.integers(min_value=1, max_value=10 ** 4).map(str),
    "--axis": st.sampled_from(["beta2", "tau", "alpha"]),
    "--format": st.sampled_from(["csv", "json"]),
}
_SMALL_PER_COMMAND = {
    "oracle": {"--M": st.integers(1, 2).map(str), "--n": st.sampled_from(["4", "16"]),
               "--l": st.integers(1, 60).map(str)},
    "other": {"--M": st.integers(1, 6).map(str),
              "--n": st.sampled_from([str(4 ** m) for m in range(1, 7)]),
              "--l": st.integers(1, 5000).map(str)},
}
_ONE_IN_FOUR = st.sampled_from((False, False, False, True))
_ODD_RANGES = ("", "1:2", "1:2:3:4", "a:b:c", "0:1:0", "1:0:1", "0:1:-1", "nan:1:1",
               "0:inf:1", "0:1:1e-300", "-1e300:1e300:1e-300")


@st.composite
def range_specs(draw):
    """lo:hi:step with at most 9 points, from ends that may be huge, or an odd spec."""
    if draw(_ONE_IN_FOUR):
        return draw(st.sampled_from(_ODD_RANGES))
    lo = draw(st.sampled_from([0.0, -1.0, 0.5, 1e-300, 1e200, 1e300, -1e300]))
    step = draw(st.sampled_from([0.25, 1.0, 1e199, 1e299]))
    return f"{lo!r}:{lo + draw(st.integers(0, 8)) * step!r}:{step!r}"


@st.composite
def cli_argvs(draw):
    """A subcommand with --M and any subset of the other flags, each small or odd."""
    command = draw(st.sampled_from(["place", "sweep", "scaling", "oracle", "simulate"]))
    small = {**_SMALL, **_SMALL_PER_COMMAND["oracle" if command == "oracle" else "other"],
             "--range": range_specs()}
    flags = ["--M"] + draw(st.lists(st.sampled_from(sorted(set(small) - {"--M"})),
                                    unique=True, max_size=4))
    # Defaults that are not small: 1e5 requests, and for oracle an odd
    # --a1 could give L = 40 n^beta1 files.
    needed = {"simulate": "--requests", "oracle": "--l"}.get(command)
    if needed is not None and needed not in flags:
        flags.append(needed)
    argv = [command]
    for flag in flags:
        # one value in four is odd, so that most argvs reach the solvers
        odd = draw(_ONE_IN_FOUR)
        value = draw(st.sampled_from(_ODD_VALUES) if odd else small[flag])
        argv.append(f"{flag}={value}")
    if draw(_ONE_IN_FOUR):  # paths that cannot be opened
        argv.append(draw(st.sampled_from(["--out=no-such-dir/out.csv",
                                          "--config=no-such-dir/run.conf"])))
    return argv


def _printed_rates(command, out):
    """The rate cells of a place or sweep CSV table, or the lower bounds of a
    scaling table; an empty cell is an absent bound."""
    rows = [line.split(",") for line in out.splitlines()[2:]]
    if command == "place":
        cells = [v for k, v in rows if k.startswith(("rate", "relaxed", "guarantee",
                                                     "lower", "upper"))]
    elif command == "scaling":
        cells = [row[6] for row in rows if row[0] == "lower_bound"]
    else:
        cells = [c for row in rows for c in row[1:]]
    return [float(c) for c in cells if c]


@settings(max_examples=300, deadline=None)
@given(argv=cli_argvs())
# argvs that once ended in a traceback or printed negative rates
@example(argv=["scaling", "--M=1", "--range=0:1e200:1e199"])
@example(argv=["place", "--M=1", "--l=1", "--lc=0.5", "--tau=1e300"])
@example(argv=["scaling", "--M=1", "--beta1=0.03125", "--beta2=0"])
@example(argv=["place", "--M=1", "--bandwidth-hz=-1"])
@example(argv=["scaling", "--M=1", "--a2=1e300"])
@example(argv=["scaling", "--M=1", "--a2=5", "--beta2=0.88"])
# argvs that once printed nan bounds from a NaN interference sum
@example(argv=["place", "--alpha=350", "--kappa=1"])
@example(argv=["scaling", "--alpha=350"])
def test_cli_ends_in_a_documented_exit_code(argv):
    """Any argv exits 0, 1, 2 or 3 with no exception escaping main, stderr
    is one line on a failure, and an accepted place or sweep prints no
    negative rate, nor an accepted scaling a negative lower bound."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err.getvalue() == ""
        if argv[0] in ("place", "sweep", "scaling") and out.getvalue().startswith("#"):  # CSV
            assert all(r >= 0.0 for r in _printed_rates(argv[0], out.getvalue()))
    elif code in (1, 3):
        assert err.getvalue().count("\n") == 1
