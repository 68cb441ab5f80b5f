"""Property tests over the popularity model's, simulator's, solvers' and CLI's parameter space."""

import contextlib
import io
import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from d2d_cachescale import (
    PlacementVector,
    SimConfig,
    brute_force,
    capacity_envelope,
    optimize_placement,
    relaxed_cache_load,
    solve_exact,
    throughput_bounds,
    tail_inverse,
    tail_mass,
    zipf_pmf,
)
from d2d_cachescale.cli import main
from d2d_cachescale.popularity import CHUNK_RANKS, tail_index, threshold_indices
from conftest import caps_for
from reference import (
    memoryview_raw_thresholds,
    memoryview_tail_index,
    per_top_level_relaxations,
)
from test_delivery import assert_matches_reference
from test_exact import assert_matches_reference as assert_exact_matches_reference
from test_placement import assert_relaxed_matches_reference
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


@settings(max_examples=60, deadline=None)
@given(data=st.data(), L=st.integers(min_value=1, max_value=3 * CHUNK_RANKS), tau=taus)
def test_point_reads_are_the_array_entries(data, L, tau):
    """p(k) and suffix(k) return Python floats with the bits of pmf[k] and
    suffix_mass[k], at both ends 0 and L and at drawn ranks between."""
    pop = zipf_pmf(L, tau)
    ks = [0, L, *data.draw(st.lists(st.integers(min_value=0, max_value=L), max_size=20))]
    for k in ks:
        for read, array in ((pop.p, pop.pmf), (pop.suffix, pop.suffix_mass)):
            got = read(k)
            assert type(got) is float
            assert got.hex() == float(array[k]).hex(), k


@settings(max_examples=200, deadline=None)
@given(data=st.data(), L=st.integers(min_value=1, max_value=5000), tau=taus)
def test_tail_index_matches_memoryview_search(data, L, tau):
    """The model's tail_index returns the memoryview search's index on every
    bracket a caller may vouch for, at breakpoints, their float neighbours
    and between them."""
    pop = zipf_pmf(L, tau)
    view = memoryview(pop.suffix_mass)
    k = data.draw(st.integers(min_value=0, max_value=L))
    s = float(pop.suffix_mass[k])
    y = data.draw(st.sampled_from([s, math.nextafter(s, 0.0), math.nextafter(s, 2.0),
                                   data.draw(st.floats(min_value=0.0, max_value=1.0))]))
    assume(0.0 < y < 1.0)
    i = memoryview_tail_index(view, y, 0, L)
    lo = data.draw(st.integers(min_value=0, max_value=i))
    hi = data.draw(st.integers(min_value=i + 1, max_value=L))
    assert tail_index(pop, y, lo, hi) == memoryview_tail_index(view, y, lo, hi) == i


@settings(max_examples=200, deadline=None)
@given(data=st.data(), L=st.integers(min_value=1, max_value=5000), tau=taus,
       caps=st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=6))
def test_threshold_search_matches_memoryview_search(data, L, tau, caps):
    """The model's threshold_indices returns the memoryview scan's thresholds
    on every bracket a caller may vouch for: one level searched in any
    [lo, hi] around its threshold, and every level searched between its
    thresholds at a lower and a higher rate, as solve_exact's steps do.
    Rates sit on a breakpoint c / suffix(k), next to one, anywhere, or at
    the largest float."""
    pop = zipf_pmf(L, tau)
    view = memoryview(pop.suffix_mass)
    big = sys.float_info.max

    def rate():
        k = data.draw(st.integers(min_value=0, max_value=L - 1))
        r = min(data.draw(st.sampled_from(caps)) / float(pop.suffix_mass[k]), big)
        return data.draw(st.sampled_from([r, math.nextafter(r, 0.0),
                                          min(math.nextafter(r, math.inf), big), big,
                                          data.draw(st.floats(min_value=0.0, max_value=1e300))]))

    r1, r, r2 = sorted(rate() for _ in range(3))
    c = caps[0]
    t = memoryview_raw_thresholds(view, r, [c], [0], [L], L)[0]
    lo = data.draw(st.integers(min_value=0, max_value=t))
    hi = data.draw(st.integers(min_value=t, max_value=L))
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
def test_exact_lies_between_the_per_top_level_relaxations(m_levels, L, tau, alpha, kappa, frac):
    """Past brute force's reach: solve_exact's rate is at most the largest
    relaxed rate over the admissible top levels m_b (each level charged its
    round-robin share cbar[m] / m_b), and at least the rate of every such
    relaxation's rounded placement on the real capacities.

    solve_exact searches top levels m_b >= 1 only, so a rounded placement
    with every file local (an unbounded rate) is outside its search. That
    placement fits only within the 1e-12 budget tolerance of L, the
    dust-budget case of test_integer_side_fails_with_less_than_one_file_uncached,
    where brute force reports the unbounded rate and solve_exact a finite one."""
    grid, _, caps = caps_for(m_levels, kappa, alpha)
    lo = L * 4.0 ** (-m_levels)
    l_c = lo + (L - lo) * frac
    assume(l_c < L)
    pop = zipf_pmf(L, tau)
    _, rate = solve_exact(grid, caps, pop, l_c)
    pairs = per_top_level_relaxations(grid, caps, pop, l_c)
    assert rate <= max(bound for bound, _ in pairs) * (1.0 + 1e-12)
    for _, rounded in pairs:
        if math.isinf(rounded):
            assert L <= l_c + 1e-12
            continue
        assert rounded <= rate * (1.0 + 1e-12)


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
    probe = relaxed_cache_load(m, caps.cbar[m + data.draw(st.sampled_from([0, 1]))], caps, pop)
    l_c = data.draw(st.one_of(
        st.just(lo), st.just(probe),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True).map(
            lambda f: lo + (L - lo) * f)))
    steps = data.draw(st.integers(min_value=-2, max_value=2))
    for _ in range(abs(steps)):
        l_c = math.nextafter(l_c, math.inf if steps > 0 else 0.0)
    assert_relaxed_matches_reference(grid, caps, pop, l_c)


@settings(max_examples=200, deadline=None)
@given(m_levels=st.integers(min_value=1, max_value=10),
       L=st.one_of(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=5000)),
       tau=st.one_of(st.just(1.0), taus), alpha=st.sampled_from([2.5, 4.0]),
       kappa=st.sampled_from([0.0, 1.0]),
       frac=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)))
def test_bracketed_rate_bisection_matches_full_search(m_levels, L, tau, alpha, kappa, frac):
    """solve_relaxed, whose rate bisection searches each level's tail index
    between the indices at the ends of the rate bracket, gives the x*, r*
    and m* bits of the solver that runs a full tail_inverse search per
    level at every step. Small L clamps levels at ratios >= 1 and sends
    m* = 0 through the doubling loop for its infinite top rate."""
    grid, _, caps = caps_for(m_levels, kappa, alpha)
    lo = L * 4.0 ** (-m_levels)
    assert_relaxed_matches_reference(grid, caps, zipf_pmf(L, tau), lo + (L - lo) * frac)


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
