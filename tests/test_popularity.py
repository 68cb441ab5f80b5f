"""Zipf model, tail mass, and its exact inversion."""

import gc
import math
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from d2d_cachescale import DomainError, InvalidParameterError, SizeGuardError, zipf_pmf
from d2d_cachescale.popularity import (
    BLOCK_RANKS,
    BLOCK_SHIFT,
    CHUNK_RANKS,
    MAX_RANKS,
    tail_inverse,
)
from reference import dense_zipf, tail_mass, two_pass_zipf


def point_reads(model):
    """p(k) for k = 0..L, as a float64 array."""
    return np.fromiter(map(model.p, range(model.L + 1)), np.float64, model.L + 1)


def suffix_reads(model):
    """suffix(k) for k = 0..L, as a float64 array."""
    return np.fromiter(map(model.suffix, range(model.L + 1)), np.float64, model.L + 1)


def reference_tail_inverse(suffix, pmf, y):
    """tail_inverse as one bisection over all of [0, L], reading the dense
    oracle's arrays; tail_inverse must return its bits."""
    if y >= 1.0:
        return 1.0
    L = len(suffix) - 1
    if y <= 0.0:
        return float(L + 1)
    lo, hi = 0, L
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if suffix[mid] >= y:
            lo = mid
        else:
            hi = mid
    k = lo + 1
    x = (k + 1) - (y - float(suffix[k])) / float(pmf[k])
    return min(max(x, float(k)), float(k + 1))


def breakpoint_arguments(model):
    """Every breakpoint suffix(k) and its two float neighbours, if >= 0."""
    ys = set()
    for s in map(model.suffix, range(model.L + 1)):
        ys.update((math.nextafter(s, -math.inf), s, math.nextafter(s, math.inf)))
    return sorted(y for y in ys if y >= 0.0)


def assert_matches_dense(L, tau):
    """zipf_pmf's z and every p(k) and suffix(k) are the dense build's, and
    the suffix reads are the two-pass build's array too."""
    z, pmf, suffix = dense_zipf(L, tau)
    pop = zipf_pmf(L, tau)
    assert type(pop.z) is np.longdouble and pop.z == z
    assert point_reads(pop).tobytes() == pmf.tobytes()
    reads = suffix_reads(pop).tobytes()
    assert reads == suffix.tobytes()
    z2, suffix2 = two_pass_zipf(L, tau)
    assert z2 == z and reads == suffix2.tobytes()


class TestZipfPmf:
    def test_uniform_case(self):
        """tau = 0 gives the uniform pmf."""
        pop = zipf_pmf(4, 0.0)
        assert [pop.p(k) for k in range(1, 5)] == pytest.approx([0.25] * 4, abs=1e-15)

    def test_harmonic_case(self):
        """L=4, tau=1: Z = 1 + 1/2 + 1/3 + 1/4 = 25/12, so p_1 = 12/25."""
        pop = zipf_pmf(4, 1.0)
        assert pop.z == pytest.approx(25.0 / 12.0, rel=1e-15)
        assert pop.p(1) == pytest.approx(0.48, rel=1e-14)

    def test_quadratic_case(self):
        """L=2, tau=2: Z = 1.25, p = [0.8, 0.2]."""
        pop = zipf_pmf(2, 2.0)
        assert pop.p(1) == pytest.approx(0.8, rel=1e-15)
        assert pop.p(2) == pytest.approx(0.2, rel=1e-15)

    @pytest.mark.parametrize("L,tau", [(1, 0.0), (7, 1.3), (1000, 2.7), (10000, 0.6)])
    def test_invariants(self, L, tau):
        pop = zipf_pmf(L, tau)
        pmf = point_reads(pop)
        assert pmf[0] == 0.0
        assert abs(float(np.sum(pmf)) - 1.0) <= 1e-12
        assert np.all(np.diff(pmf[1:]) <= 0)
        suffix = suffix_reads(pop)
        assert suffix[0] == 1.0
        assert suffix[L] == 0.0
        assert np.all(np.diff(suffix) <= 0)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            zipf_pmf(0, 1.0)
        with pytest.raises(InvalidParameterError):
            zipf_pmf(4, -0.1)

    def test_size_guard_before_allocating(self, monkeypatch):
        """A library past MAX_RANKS is refused before any array is allocated."""
        def never(*args, **kwargs):
            raise AssertionError("zipf_pmf allocated past the size guard")
        monkeypatch.setattr(np, "empty", never)
        monkeypatch.setattr(np, "zeros", never)
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
        assert pop.p(L) > 0.0
        assert np.all(np.diff(suffix_reads(pop)) < 0)

    def test_stochastic_dominance(self):
        """Raising tau moves mass toward the head: every proper prefix grows."""
        L = 50
        for t_lo, t_hi in [(0.0, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 3.0)]:
            lo, hi = zipf_pmf(L, t_lo), zipf_pmf(L, t_hi)
            for k in range(1, L):
                assert hi.suffix(k) < lo.suffix(k)


class TestChunkedBuild:
    B = CHUNK_RANKS

    @pytest.mark.parametrize("L", [1, 2, B - 1, B, B + 1, 3 * B + 7])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0, 1.5, 2.5])
    def test_bit_identical_to_dense_build(self, L, tau):
        """Every chunk edge, and the exponents numpy's ** serves by fast paths."""
        assert_matches_dense(L, tau)

    def test_peak_memory_per_rank(self):
        """No per-rank array: 24 B per block plus one chunk of scratch, below
        1 B/rank at L = 2^20; an array of suffix masses alone is 8 B/rank,
        and the dense build peaks at 88 B/rank."""
        L = 2 ** 20
        tracemalloc.start()
        try:
            zipf_pmf(L, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / L < 1.0

    def test_arrays_read_only(self):
        pop = zipf_pmf(2 * BLOCK_RANKS, 1.0)
        assert not pop.carries.flags.writeable
        assert len(pop.carries) == 4  # blocks 0..2 and the carry past L
        pop.p(5)
        assert pop._blocks[0][0].readonly and pop._blocks[0][1].readonly
        assert pop._edges.readonly
        assert not hasattr(pop, "pmf") and not hasattr(pop, "suffix_mass")

    def test_probability_blocks_fill_on_first_read(self):
        """Building the model computes no block; reading a rank's p or suffix
        computes its block of both once, and a second read reuses it. suffix
        at a block edge reads the edge masses and fills nothing."""
        L = 3 * BLOCK_RANKS
        pop = zipf_pmf(L, 1.0)

        def filled():
            return [pair is not None and tuple(map(type, pair)) for pair in pop._blocks]
        both = (memoryview, memoryview)
        assert filled() == [False] * 4
        assert [pop.suffix(b * BLOCK_RANKS) for b in range(4)] == list(pop._edges[:4])
        assert filled() == [False] * 4
        p = pop.p(BLOCK_RANKS + 5)
        pair = pop._blocks[1]
        assert filled() == [False, both, False, False]
        assert pop.p(BLOCK_RANKS + 5) == p and pop._blocks[1] is pair
        pop.suffix(BLOCK_RANKS + 6)
        assert pop._blocks[1] is pair
        pop.suffix(2 * BLOCK_RANKS + 1)
        assert filled() == [False, both, both, False]

    def test_reads_outside_the_ranks_are_refused(self):
        """A rank outside 0..L, or a block outside 0..L >> BLOCK_SHIFT, raises
        and stores nothing, so a shared model keeps every bit."""
        L = 10000
        pop = zipf_pmf(L, 1.0)
        for k in (-1, -BLOCK_RANKS, -L, L + 1, 3 * BLOCK_RANKS):
            with pytest.raises(DomainError):
                pop.p(k)
            with pytest.raises(DomainError):
                pop.suffix(k)
        for b in (-1, (L >> BLOCK_SHIFT) + 1):
            with pytest.raises(DomainError):
                pop._fill(b)
        assert pop._blocks == [None] * ((L >> BLOCK_SHIFT) + 1)
        _, pmf, suffix = dense_zipf(L, 1.0)
        assert (pop.p(L - 1), pop.suffix(L - 1)) == (pmf[L - 1], suffix[L - 1])
        assert (pop.p(L), pop.suffix(L)) == (pmf[L], 0.0)

    def test_non_integer_ranks_are_refused(self):
        """A rank that is not an integer raises InvalidParameterError, inside
        0..L or not and on a block edge too; numpy integers read the same
        bits as Python ints, and nothing is stored by a refused read."""
        L = 10000
        pop = zipf_pmf(L, 1.0)
        for k in (2.0, 5.5, float(BLOCK_RANKS), np.float64(3.0), L + 0.5, -1.5, "2", None):
            for read in (pop.p, pop.suffix):
                with pytest.raises(InvalidParameterError, match="rank must be an integer"):
                    read(k)
        assert pop._blocks == [None] * ((L >> BLOCK_SHIFT) + 1)
        for k in (0, 2, BLOCK_RANKS, BLOCK_RANKS + 1, L):
            for cast in (np.int64, np.int32, np.uint16):
                assert (pop.p(cast(k)), pop.suffix(cast(k))) == (pop.p(k), pop.suffix(k))
        with pytest.raises(DomainError):
            pop.p(np.int64(L + 1))

    def test_dropped_model_frees_its_blocks_without_the_collector(self):
        """The block table holds only blocks, not the model, so no reference
        cycle keeps a dropped model and its blocks alive."""
        pop = zipf_pmf(3 * BLOCK_RANKS, 1.0)
        gc.disable()
        try:
            for k in (5, BLOCK_RANKS + 5, 3 * BLOCK_RANKS - 1):
                pop.p(k)
                pop.suffix(k)
            ref = weakref.ref(pop)
            del pop
            assert ref() is None
        finally:
            gc.enable()

    def test_equality_and_hash_follow_the_build_parameters(self):
        a, b = zipf_pmf(10000, 1.0), zipf_pmf(10000, 1.0)
        a.p(5)
        assert a == b and hash(a) == hash(b)
        assert a != zipf_pmf(10000, 1.1) and a != zipf_pmf(10001, 1.0)
        assert len({a, b, zipf_pmf(10000, 0.5)}) == 2


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
                1.0 - sum(pop.p(j) for j in range(k)), abs=1e-12)

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
        assert tail_inverse(pop, 1.0) == (1.0, 0)
        assert tail_inverse(pop, 0.0) == (5.0, 3)
        assert tail_inverse(pop, 3.7) == (1.0, 0)  # ratios above one clamp to the left edge

    def test_inverts_fractional_example(self):
        pop = zipf_pmf(4, 0.0)
        assert tail_inverse(pop, 0.625) == (pytest.approx(2.5, abs=1e-12), 1)

    def test_round_trip(self):
        rng = random.Random(1234)
        for _ in range(1000):
            pop = zipf_pmf(rng.randint(2, 10000), rng.uniform(0.0, 3.0))
            y = rng.random()
            assert abs(tail_mass(pop, tail_inverse(pop, y)[0]) - y) <= 1e-12

    def test_strictly_decreasing_in_y(self):
        pop = zipf_pmf(40, 1.4)
        ys = [1e-6 + (1.0 - 2e-6) * i / 300 for i in range(301)]
        xs = [tail_inverse(pop, y)[0] for y in ys]
        assert all(a > b for a, b in zip(xs, xs[1:]))

    def test_negative_argument(self):
        with pytest.raises(DomainError):
            tail_inverse(zipf_pmf(4, 1.0), -1e-9)

    @pytest.mark.parametrize("y", [-1e-9, math.nan])
    @pytest.mark.parametrize("bracket", [(), (0, 50), (10, 11)])
    def test_negative_or_nan_argument_on_any_bracket(self, y, bracket):
        """A bracketed NaN once fell through both clamps and returned
        (nan, L - 1)."""
        with pytest.raises(DomainError, match="tail mass must be >= 0"):
            tail_inverse(zipf_pmf(50, 1.0), y, *bracket)

    @pytest.mark.parametrize("L, tau", [(1, 1.0), (2, 0.0), (7, 0.7), (40, 1.4),
                                        (300, 2.5), (5000, 1.0), (5000, 3.0)])
    def test_matches_full_search_at_every_breakpoint(self, L, tau):
        pop = zipf_pmf(L, tau)
        _, pmf, suffix = dense_zipf(L, tau)
        for y in breakpoint_arguments(pop):
            assert tail_inverse(pop, y)[0].hex() == reference_tail_inverse(suffix, pmf, y).hex(), y


class TestTailIndex:
    @pytest.mark.parametrize("L, tau", [(1, 1.0), (2, 0.0), (7, 0.7), (24, 1.4), (40, 3.0)])
    def test_every_vouched_bracket_gives_the_full_search(self, L, tau):
        """For 0 < y < 1, every [a, b] with suffix[a] >= y > suffix[b] gives
        the largest i with suffix[i] >= y as the tail index, and the inverse
        of the full search, at breakpoints and between them."""
        pop = zipf_pmf(L, tau)
        suffix_mass = dense_zipf(L, tau)[2]
        suffix = memoryview(suffix_mass)
        mids = (0.5 * (a + b) for a, b in zip(suffix, suffix[1:]))
        for y in [*breakpoint_arguments(pop), *mids]:
            if not 0.0 < y < 1.0:
                continue
            # suffix is non-increasing: the ranks with suffix >= y are a prefix
            i = int(np.searchsorted(-suffix_mass, -y, side="right")) - 1
            full = tail_inverse(pop, y)
            assert full[1] == i
            for a in range(i + 1):
                for b in range(i + 1, L + 1):
                    assert tail_inverse(pop, y, a, b) == full, (y, a, b)
