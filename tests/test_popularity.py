"""Zipf model, tail mass, and its exact inversion."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from d2d_cachescale import (
    DomainError,
    InvalidParameterError,
    SizeGuardError,
    tail_inverse,
    tail_mass,
    zipf_pmf,
)
from d2d_cachescale.popularity import CHUNK_RANKS, MAX_RANKS, tail_index


def dense_zipf(L, tau):
    """Reference build: every array at full length, one cumulative sum.

    Returns (z, pmf, suffix_mass); zipf_pmf must reproduce each of them
    bit for bit.
    """
    ranks = np.arange(1, L + 1, dtype=np.float64)
    weights = ranks ** (-float(tau))
    w_ext = weights.astype(np.longdouble)
    tail = np.cumsum(w_ext[::-1])[::-1]  # tail[i] = sum of weights[i:]
    z = tail[0]
    pmf = np.zeros(L + 1)
    pmf[1:] = (w_ext / z).astype(np.float64)
    suffix = np.zeros(L + 1)
    suffix[:L] = (tail / z).astype(np.float64)
    return float(z), pmf, suffix


def reference_tail_inverse(model, y):
    """tail_inverse as one bisection over all of [0, L], reading the NumPy
    arrays; tail_inverse must return its bits."""
    if y >= 1.0:
        return 1.0
    L = model.L
    if y <= 0.0:
        return float(L + 1)
    suffix = model.suffix_mass
    lo, hi = 0, L
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if suffix[mid] >= y:
            lo = mid
        else:
            hi = mid
    k = lo + 1
    x = (k + 1) - (y - float(suffix[k])) / float(model.pmf[k])
    return min(max(x, float(k)), float(k + 1))


def breakpoint_arguments(model):
    """Every breakpoint suffix_mass[k] and its two float neighbours, if >= 0."""
    ys = set()
    for s in model.suffix_mass.tolist():
        ys.update((math.nextafter(s, -math.inf), s, math.nextafter(s, math.inf)))
    return sorted(y for y in ys if y >= 0.0)


def assert_matches_dense(L, tau):
    z, pmf, suffix = dense_zipf(L, tau)
    pop = zipf_pmf(L, tau)
    assert pop.z == z
    assert pop.pmf.tobytes() == pmf.tobytes()
    assert pop.suffix_mass.tobytes() == suffix.tobytes()


class TestZipfPmf:
    def test_uniform_case(self):
        """tau = 0 gives the uniform pmf."""
        pop = zipf_pmf(4, 0.0)
        assert pop.pmf[1:].tolist() == pytest.approx([0.25] * 4, abs=1e-15)

    def test_harmonic_case(self):
        """L=4, tau=1: Z = 1 + 1/2 + 1/3 + 1/4 = 25/12, so p_1 = 12/25."""
        pop = zipf_pmf(4, 1.0)
        assert pop.z == pytest.approx(25.0 / 12.0, rel=1e-15)
        assert pop.pmf[1] == pytest.approx(0.48, rel=1e-14)

    def test_quadratic_case(self):
        """L=2, tau=2: Z = 1.25, p = [0.8, 0.2]."""
        pop = zipf_pmf(2, 2.0)
        assert pop.pmf[1] == pytest.approx(0.8, rel=1e-15)
        assert pop.pmf[2] == pytest.approx(0.2, rel=1e-15)

    @pytest.mark.parametrize("L,tau", [(1, 0.0), (7, 1.3), (1000, 2.7), (10000, 0.6)])
    def test_invariants(self, L, tau):
        pop = zipf_pmf(L, tau)
        assert abs(float(np.sum(pop.pmf)) - 1.0) <= 1e-12
        assert np.all(np.diff(pop.pmf[1:]) <= 0)
        assert pop.suffix_mass[0] == 1.0
        assert pop.suffix_mass[L] == 0.0
        assert np.all(np.diff(pop.suffix_mass) <= 0)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            zipf_pmf(0, 1.0)
        with pytest.raises(InvalidParameterError):
            zipf_pmf(4, -0.1)

    def test_size_guard_before_allocating(self, monkeypatch):
        """A library past MAX_RANKS (about 1.1 GB of model) is refused before
        any array is allocated."""
        def never(*args, **kwargs):
            raise AssertionError("zipf_pmf allocated past the size guard")
        monkeypatch.setattr(np, "empty", never)
        for L in (MAX_RANKS + 1, 4 ** 40):
            with pytest.raises(SizeGuardError, match=f"guard of {MAX_RANKS} ranks"):
                zipf_pmf(L, 1.0)

    @pytest.mark.parametrize("L, tau", [(75281, 200.0), (512, 200.0), (8, 1200.0), (2, 1e6)])
    def test_zero_probability_rank_rejected(self, L, tau):
        """A rank whose probability underflows to 0.0 breaks the strictly
        decreasing tail every solver inverts."""
        assert L ** (-tau) == 0.0
        with pytest.raises(DomainError, match="zero probability"):
            zipf_pmf(L, tau)

    @pytest.mark.parametrize("L, tau", [(8, 355.0), (8, 358.0), (1, 1e6)])
    def test_subnormal_last_rank_accepted(self, L, tau):
        pop = zipf_pmf(L, tau)
        assert pop.pmf[L] > 0.0
        assert np.all(np.diff(pop.suffix_mass) < 0)

    def test_stochastic_dominance(self):
        """Raising tau moves mass toward the head: every proper prefix grows."""
        L = 50
        for t_lo, t_hi in [(0.0, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 3.0)]:
            lo, hi = zipf_pmf(L, t_lo), zipf_pmf(L, t_hi)
            for k in range(1, L):
                assert hi.suffix_mass[k] < lo.suffix_mass[k]


class TestChunkedBuild:
    B = CHUNK_RANKS

    @pytest.mark.parametrize("L", [1, 2, B - 1, B, B + 1, 3 * B + 7])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 1.5, 2.5])
    def test_bit_identical_to_dense_build(self, L, tau):
        """Every chunk edge, and the exponents numpy's ** serves by fast paths."""
        assert_matches_dense(L, tau)

    def test_peak_memory_per_rank(self):
        """Only pmf and suffix_mass (16 B/rank) plus one chunk of scratch;
        the dense build peaks at 88 B/rank."""
        L = 2 ** 20
        tracemalloc.start()
        try:
            zipf_pmf(L, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / L <= 20.0

    def test_arrays_read_only(self):
        pop = zipf_pmf(10, 1.0)
        for arr in (pop.pmf, pop.suffix_mass):
            assert not arr.flags.writeable


class TestTailMass:
    def test_edges(self):
        pop = zipf_pmf(6, 1.1)
        assert tail_mass(pop, 1.0) == 1.0
        assert tail_mass(pop, 7.0) == 0.0

    def test_fractional_value(self):
        """L=4, tau=0, x=2.5: (3 - 2.5) * 0.25 + 0.5 = 0.625."""
        pop = zipf_pmf(4, 0.0)
        assert tail_mass(pop, 2.5) == pytest.approx(0.625, abs=1e-15)

    def test_integer_points_match_prefix(self):
        pop = zipf_pmf(9, 1.7)
        for k in range(1, 10):
            assert tail_mass(pop, float(k)) == pytest.approx(
                1.0 - float(np.sum(pop.pmf[:k])), abs=1e-12)

    def test_strictly_decreasing_and_continuous(self):
        pop = zipf_pmf(8, 2.2)
        xs = [1.0 + 8.0 * i / 500 for i in range(501)]
        vals = [tail_mass(pop, x) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        for k in range(2, 9):
            assert tail_mass(pop, k - 1e-12) == pytest.approx(
                tail_mass(pop, float(k)), abs=1e-9)

    def test_domain_errors(self):
        pop = zipf_pmf(4, 1.0)
        with pytest.raises(DomainError):
            tail_mass(pop, 0.999)
        with pytest.raises(DomainError):
            tail_mass(pop, 5.001)


class TestTailInverse:
    def test_edges_and_clamp(self):
        pop = zipf_pmf(4, 0.7)
        assert tail_inverse(pop, 1.0) == 1.0
        assert tail_inverse(pop, 0.0) == 5.0
        assert tail_inverse(pop, 3.7) == 1.0  # ratios above one clamp to the left edge

    def test_inverts_fractional_example(self):
        pop = zipf_pmf(4, 0.0)
        assert tail_inverse(pop, 0.625) == pytest.approx(2.5, abs=1e-12)

    def test_round_trip(self):
        rng = random.Random(1234)
        for _ in range(1000):
            pop = zipf_pmf(rng.randint(2, 10000), rng.uniform(0.0, 3.0))
            y = rng.random()
            assert abs(tail_mass(pop, tail_inverse(pop, y)) - y) <= 1e-12

    def test_strictly_decreasing_in_y(self):
        pop = zipf_pmf(40, 1.4)
        ys = [1e-6 + (1.0 - 2e-6) * i / 300 for i in range(301)]
        xs = [tail_inverse(pop, y) for y in ys]
        assert all(a > b for a, b in zip(xs, xs[1:]))

    def test_negative_argument(self):
        with pytest.raises(DomainError):
            tail_inverse(zipf_pmf(4, 1.0), -1e-9)

    @pytest.mark.parametrize("L, tau", [(1, 1.0), (2, 0.0), (7, 0.7), (40, 1.4),
                                        (300, 2.5), (5000, 1.0), (5000, 3.0)])
    def test_matches_full_search_at_every_breakpoint(self, L, tau):
        pop = zipf_pmf(L, tau)
        for y in breakpoint_arguments(pop):
            assert tail_inverse(pop, y).hex() == reference_tail_inverse(pop, y).hex(), y


class TestTailIndex:
    @pytest.mark.parametrize("L, tau", [(1, 1.0), (2, 0.0), (7, 0.7), (24, 1.4), (40, 3.0)])
    def test_every_vouched_bracket_gives_the_full_search(self, L, tau):
        """For 0 < y < 1, every [a, b] with suffix[a] >= y > suffix[b] returns
        the largest i with suffix[i] >= y, at breakpoints and between them."""
        pop = zipf_pmf(L, tau)
        suffix = memoryview(pop.suffix_mass)
        mids = (0.5 * (a + b) for a, b in zip(suffix, suffix[1:]))
        for y in [*breakpoint_arguments(pop), *mids]:
            if not 0.0 < y < 1.0:
                continue
            # suffix is non-increasing: the ranks with suffix >= y are a prefix
            i = int(np.searchsorted(-pop.suffix_mass, -y, side="right")) - 1
            assert tail_index(pop, y, 0, L) == i
            for a in range(i + 1):
                for b in range(i + 1, L + 1):
                    assert tail_index(pop, y, a, b) == i, (y, a, b)
