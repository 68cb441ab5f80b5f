"""Flow-level delivery simulator: loads, conservation, determinism, capacity."""

import dataclasses
import math
import random
import re
import tracemalloc

import numpy as np
import pytest

from d2d_cachescale import (
    InvalidParameterError,
    InvariantViolationError,
    NetworkGrid,
    PlacementVector,
    SimConfig,
    SizeGuardError,
    evaluate_throughput,
    simulate,
    zipf_pmf,
)
from d2d_cachescale import delivery
from d2d_cachescale.delivery import CHUNK_REQUESTS, MAX_EDGE_BINS, MAX_REQUESTS
from bitcheck import scripted_generator
from conftest import caps_for
from reference import dense_suffix, dense_zipf, searchsorted_simulate


def rank_draw_levels(pop, x, u):
    """Reference level draw: invert every rank's prefix mass, then map the
    drawn rank to the level whose block of the popularity order holds it.

    O(L) in memory; simulate() must draw the same level for every uniform.
    """
    files = np.searchsorted(1.0 - dense_suffix(pop.L, pop.tau), u, side="right")
    level_of_rank = np.repeat(np.arange(len(x.x), dtype=np.int64), x.x)
    return level_of_rank[files - 1]


def reference_report(cfg):
    """(level_fraction, total_edge_crossings, per_edge_counts) of the rank
    draw, from the same Philox stream simulate() uses (nodes first)."""
    M, n = cfg.grid.M, cfg.grid.n
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    nodes = rng.integers(0, n, size=cfg.num_requests)
    lv = rank_draw_levels(cfg.pop, cfg.placement, rng.random(cfg.num_requests))
    counts = np.bincount(lv, minlength=M + 1)
    fractions = tuple(float(counts[m]) / cfg.num_requests for m in range(M + 1))
    per_edge = {m: np.bincount(nodes[lv >= m] >> (2 * (m - 1)), minlength=4 ** (M - m + 1))
                for m in range(1, M + 1)}
    return fractions, int(np.sum(lv)), per_edge


def report_bits(report):
    """Every report field with its floats as hex and its arrays as (dtype, bytes)."""
    def bits(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.tobytes()
        if isinstance(value, dict):
            return tuple((k, bits(v)) for k, v in sorted(value.items()))
        if isinstance(value, tuple):
            return tuple(map(bits, value))
        return type(value).__name__, value
    return {f.name: bits(getattr(report, f.name)) for f in dataclasses.fields(report)}


def boundary_uniforms(pop):
    """Every prefix mass 1 - suffix(k) of the model and the floats either side, in [0, 1)."""
    edges = [1.0 - pop.suffix(k) for k in range(pop.L)]
    u = np.array(sorted({np.nextafter(e, d) for e in edges for d in (0.0, 1.0)} | set(edges)))
    return u[(u >= 0.0) & (u < 1.0)]


def assert_matches_reference(cfg):
    rep = simulate(cfg, verbose=True)
    fractions, crossings, per_edge = reference_report(cfg)
    assert rep.level_fraction == fractions
    assert rep.total_edge_crossings == crossings
    assert rep.per_edge_counts.keys() == per_edge.keys()
    for m, hist in per_edge.items():
        assert np.array_equal(rep.per_edge_counts[m], hist)


def test_configs_over_equal_models_are_equal():
    """The model compares by (L, tau, z), so configs built from the same
    numbers are equal and hash equal."""
    grid, _, _ = caps_for(2, 0.0, 4.0)
    x = PlacementVector((2, 1, 1))
    a = SimConfig(grid, x, zipf_pmf(4, 1.0), 100, seed=1)
    b = SimConfig(grid, x, zipf_pmf(4, 1.0), 100, seed=1)
    assert a == b and hash(a) == hash(b)
    assert a != SimConfig(grid, x, zipf_pmf(4, 1.5), 100, seed=1)


class TestSimulate:
    def test_all_local_no_traffic(self):
        grid, _, _ = caps_for(2, 0.0, 4.0)
        pop = zipf_pmf(4, 1.0)
        rep = simulate(SimConfig(grid, PlacementVector((4, 0, 0)), pop, 5000, seed=1))
        assert rep.level_fraction[0] == 1.0
        assert all(v == 0.0 for v in rep.empirical_load)
        assert rep.total_edge_crossings == 0

    def test_two_file_split_concentrates(self):
        """M=1, L=2, tau=0, x=[1,1]: half the requests cross level 1."""
        grid, _, _ = caps_for(1, 0.0, 4.0)
        pop = zipf_pmf(2, 0.0)
        rep = simulate(SimConfig(grid, PlacementVector((1, 1)), pop, 100000, seed=7))
        crossing_fraction = rep.empirical_load[0] * 4 / rep.num_requests
        assert crossing_fraction == pytest.approx(0.5, abs=0.005)

    def test_analytic_column_matches_direct_formula(self):
        """The analytic load equals the tail-sum formula evaluated from the
        dense oracle's pmf, computed here without touching the report
        builder's path."""
        grid, _, _ = caps_for(3, 0.0, 4.0)
        pop = zipf_pmf(40, 1.4)
        pmf = dense_zipf(40, 1.4)[1]
        x = PlacementVector((3, 7, 10, 20))
        rep = simulate(SimConfig(grid, x, pop, 1000, seed=3))
        for i, m in enumerate(rep.levels):
            cut = sum(x.x[:m])
            direct = float(np.sum(pmf[cut + 1:])) * 1000 * 4.0 ** (m - 1) / grid.n
            assert rep.analytic_load[i] == pytest.approx(direct, rel=1e-10)

    def test_conservation_and_fractions(self):
        grid, _, _ = caps_for(3, 0.0, 4.0)
        pop = zipf_pmf(25, 0.8)
        x = PlacementVector((2, 5, 8, 10))
        rep = simulate(SimConfig(grid, x, pop, 20000, seed=11))
        total = sum(rep.empirical_load[i] * 4 ** (grid.M - m + 1)
                    for i, m in enumerate(rep.levels))
        assert total == pytest.approx(rep.total_edge_crossings, abs=1e-6)
        assert math.fsum(rep.level_fraction) == pytest.approx(1.0, abs=1e-12)

    def test_seed_determinism(self):
        grid, _, _ = caps_for(2, 0.0, 4.0)
        pop = zipf_pmf(12, 1.0)
        x = PlacementVector((2, 4, 6))
        a = simulate(SimConfig(grid, x, pop, 5000, seed=99))
        b = simulate(SimConfig(grid, x, pop, 5000, seed=99))
        c = simulate(SimConfig(grid, x, pop, 5000, seed=100))
        assert a.empirical_load == b.empirical_load
        assert a.level_fraction == b.level_fraction
        assert a.empirical_load != c.empirical_load

    def test_law_of_large_numbers(self):
        """Per-level crossing counts stay within 4 binomial sigmas at 1e5."""
        rng = random.Random(55)
        for trial in range(3):
            m_levels = rng.randint(1, 5)
            L = rng.randint(2, 200)
            grid, _, _ = caps_for(m_levels, 0.0, 4.0)
            pop = zipf_pmf(L, rng.uniform(0, 2.5))
            cuts = sorted(rng.randint(0, L) for _ in range(m_levels))
            x = PlacementVector(tuple(b - a for a, b in zip([0] + cuts, cuts + [L])))
            rep = simulate(SimConfig(grid, x, pop, 100000, seed=trial))
            for i, m in enumerate(rep.levels):
                t = rep.tail_mass[i]
                count = rep.empirical_load[i] * 4 ** (m_levels - m + 1)
                sigma = math.sqrt(100000 * t * (1 - t))
                assert abs(count - 100000 * t) <= 4 * sigma + 1e-9

    def test_verbose_per_edge_histograms(self):
        grid, _, _ = caps_for(2, 0.0, 4.0)
        pop = zipf_pmf(6, 1.0)
        x = PlacementVector((1, 2, 3))
        rep = simulate(SimConfig(grid, x, pop, 3000, seed=2), verbose=True)
        for i, m in enumerate(rep.levels):
            hist = rep.per_edge_counts[m]
            assert hist.shape == (4 ** (grid.M - m + 1),)
            assert hist.sum() == pytest.approx(
                rep.empirical_load[i] * 4 ** (grid.M - m + 1))

    def test_uniform_on_a_boundary_takes_the_upper_level(self, monkeypatch):
        """Uniforms equal to a boundary mass (and its neighbours) land on the
        level the rank draw gives them, with and without an empty level."""
        grid, _, _ = caps_for(3, 0.0, 4.0)
        pop = zipf_pmf(16, 0.0)  # boundary masses are exact multiples of 1/16
        x = PlacementVector((4, 0, 8, 4))
        u = boundary_uniforms(pop)
        monkeypatch.setattr(delivery.np.random, "Generator",
                            scripted_generator(np.random.Generator, u))
        rep = simulate(SimConfig(grid, x, pop, u.size, seed=1))
        counts = np.bincount(rank_draw_levels(pop, x, u), minlength=grid.M + 1)
        assert rep.level_fraction == tuple(float(c) / u.size for c in counts)
        assert rep.level_fraction[1] == 0.0

    @pytest.mark.parametrize("verbose", [False, True])
    def test_boundary_uniforms_across_chunks(self, monkeypatch, verbose):
        """Boundary uniforms repeated over two chunks and part of a third land
        on the rank draw's levels in every chunk, and every field, per-edge
        histograms included, has the searchsorted simulator's bits."""
        grid, _, _ = caps_for(3, 0.0, 4.0)
        pop = zipf_pmf(16, 0.0)
        x = PlacementVector((4, 0, 8, 4))
        u = np.resize(boundary_uniforms(pop), 2 * CHUNK_REQUESTS + 5)
        monkeypatch.setattr(delivery.np.random, "Generator",
                            scripted_generator(np.random.Generator, u))
        cfg = SimConfig(grid, x, pop, u.size, seed=1)
        rep = simulate(cfg, verbose=verbose)
        counts = np.bincount(rank_draw_levels(pop, x, u), minlength=grid.M + 1)
        assert rep.level_fraction == tuple(float(c) / u.size for c in counts)
        assert report_bits(rep) == report_bits(searchsorted_simulate(cfg, verbose=verbose))

    def test_allocates_nothing_of_library_size(self):
        """With L far above the request count, simulate allocates less than
        one byte per rank: it reads M boundary masses, not a per-rank array."""
        grid, _, _ = caps_for(3, 0.0, 4.0)
        L = 2 ** 20
        pop = zipf_pmf(L, 1.0)
        x = PlacementVector((L // 2, L // 4, 0, L - L // 2 - L // 4))
        cfg = SimConfig(grid, x, pop, 1000, seed=4)
        tracemalloc.start()
        try:
            simulate(cfg, verbose=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < L

    def test_default_report_keeps_no_per_request_array(self):
        """At 4e6 requests the default report allocates less than one byte per
        request: it skips the node draw and streams the uniforms through one
        chunk-sized buffer."""
        grid, _, _ = caps_for(3, 0.0, 4.0)
        cfg = SimConfig(grid, PlacementVector((8, 8, 16, 32)), zipf_pmf(64, 1.0),
                        4 * 10 ** 6, seed=4)
        tracemalloc.start()
        try:
            simulate(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cfg.num_requests

    def test_verbose_histograms_are_guarded_before_drawing(self, monkeypatch):
        """An M = 13 grid has 89.5e6 edges, above the 2^25 bins verbose=True may
        allocate: it is refused before the generator is made, while the
        default report runs; M = 12's 22.4e6 edges are within the guard."""
        assert (4 ** 13 - 4) // 3 <= MAX_EDGE_BINS < (4 ** 14 - 4) // 3
        cfg = SimConfig(NetworkGrid(13, 0.0, 4.0), PlacementVector((1,) + (0,) * 13),
                        zipf_pmf(1, 1.0), 10, seed=1)
        assert simulate(cfg).total_edge_crossings == 0

        def no_draw(seed):
            raise AssertionError("drew before refusing")

        monkeypatch.setattr(delivery.np.random, "Philox", no_draw)
        with pytest.raises(SizeGuardError, match="above the guard of 33554432"):
            simulate(cfg, verbose=True)

    def test_request_guard(self):
        """The guard admits 1e7 requests and rejects one more than its limit
        when the config is built, before any draw."""
        assert MAX_REQUESTS >= 10 ** 7
        grid, _, _ = caps_for(2, 0.0, 4.0)
        with pytest.raises(SizeGuardError):
            SimConfig(grid, PlacementVector((4, 0, 0)), zipf_pmf(4, 1.0), MAX_REQUESTS + 1, seed=1)

    @pytest.mark.parametrize("requests, seed, message", [
        (10, -1, "seed must be >= 0, got -1"),
        (10, 1.5, "seed must be an integer, got 1.5"),
        (100.5, 1, "request count must be an integer, got 100.5"),
    ])
    def test_malformed_seed_or_request_count_is_refused(self, requests, seed, message):
        """Each was once accepted, and simulate then failed inside numpy."""
        grid, _, _ = caps_for(2, 0.0, 4.0)
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            SimConfig(grid, PlacementVector((4, 0, 0)), zipf_pmf(4, 1.0), requests, seed)

    @pytest.mark.parametrize("x", [(3, 0, 0), (4, 0), (4, 0, 0, 0)])
    def test_placement_of_another_shape_is_refused(self, x):
        """A placement must hold the library's L files on the grid's M + 1 levels."""
        grid, _, _ = caps_for(2, 0.0, 4.0)
        with pytest.raises(InvariantViolationError,
                           match="the instance has 4 files on levels 0..2"):
            SimConfig(grid, PlacementVector(x), zipf_pmf(4, 1.0), 10, seed=1)


class TestCapacityCheck:
    def test_achieved_rate_is_tight(self):
        """At the evaluated rate every active level's analytic traffic fits
        its share cbar[m] / m_b and the binding level is tight; 1% above it
        the binding level does not fit."""
        grid, _, caps = caps_for(3, 0.0, 4.0)
        pop = zipf_pmf(30, 1.2)
        x = PlacementVector((2, 8, 10, 10))
        report = evaluate_throughput(x, caps, pop)
        sim = simulate(SimConfig(grid, x, pop, 1000, seed=6))
        share = [caps.cbar[m] / sim.m_b for m in range(1, sim.m_b + 1)]
        for t, cap in zip(sim.tail_mass, share):
            assert t * report.rate <= cap * (1.0 + 1e-9)
        b = report.binding_level
        tight = sim.tail_mass[b - 1] * report.rate
        assert tight == pytest.approx(share[b - 1], rel=1e-9)
        assert tight * 1.01 > share[b - 1] * (1.0 + 1e-9)
