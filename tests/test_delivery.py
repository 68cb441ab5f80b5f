"""Flow-level delivery simulator: loads, conservation, determinism, capacity."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from d2d_cachescale import (
    PlacementVector,
    SimConfig,
    SizeGuardError,
    capacity_check,
    evaluate_throughput,
    report_csv_rows,
    simulate,
    zipf_pmf,
)
from d2d_cachescale import delivery
from d2d_cachescale.delivery import MAX_REQUESTS
from conftest import caps_for


def rank_draw_levels(pop, x, u):
    """Reference level draw: invert every rank's prefix mass, then map the
    drawn rank to the level whose block of the popularity order holds it.

    O(L) in memory; simulate() must draw the same level for every uniform.
    """
    files = np.searchsorted(1.0 - pop.suffix_mass, u, side="right")
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


def assert_matches_reference(cfg):
    rep = simulate(cfg, verbose=True)
    fractions, crossings, per_edge = reference_report(cfg)
    assert rep.level_fraction == fractions
    assert rep.total_edge_crossings == crossings
    assert rep.per_edge_counts.keys() == per_edge.keys()
    for m, hist in per_edge.items():
        assert np.array_equal(rep.per_edge_counts[m], hist)


class TestSimulate:
    def test_all_local_no_traffic(self):
        grid, _, _ = caps_for(2, 0.0, 4.0)
        pop = zipf_pmf(4, 1.0)
        rep = simulate(SimConfig(grid, PlacementVector((4, 0, 0)), pop, 5000, seed=1))
        assert rep.local_hit_fraction == 1.0
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
        raw pmf, computed here without touching the report builder's path."""
        grid, _, _ = caps_for(3, 0.0, 4.0)
        pop = zipf_pmf(40, 1.4)
        x = PlacementVector((3, 7, 10, 20))
        rep = simulate(SimConfig(grid, x, pop, 1000, seed=3))
        for i, m in enumerate(rep.levels):
            cut = sum(x.x[:m])
            direct = float(np.sum(pop.pmf[cut + 1:])) * 1000 * 4.0 ** (m - 1) / grid.n
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
        assert rep.level_fraction[0] == rep.local_hit_fraction

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
        edges = [1.0 - float(pop.suffix_mass[k]) for k in range(16)]
        u = np.array(sorted({np.nextafter(e, d) for e in edges for d in (0.0, 1.0)}
                            | set(edges)))
        u = u[(u >= 0.0) & (u < 1.0)]
        real_generator = np.random.Generator

        class ScriptedUniforms:
            def __init__(self, bit_generator):
                self._rng = real_generator(bit_generator)

            def integers(self, *args, **kwargs):
                return self._rng.integers(*args, **kwargs)

            def random(self, size):
                assert size == u.size
                return u.copy()

        monkeypatch.setattr(delivery.np.random, "Generator", ScriptedUniforms)
        rep = simulate(SimConfig(grid, x, pop, u.size, seed=1))
        counts = np.bincount(rank_draw_levels(pop, x, u), minlength=grid.M + 1)
        assert rep.level_fraction == tuple(float(c) / u.size for c in counts)
        assert rep.level_fraction[1] == 0.0

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

    def test_request_guard(self):
        """The guard admits 1e7 requests and rejects one more than its limit
        when the config is built, before any draw."""
        assert MAX_REQUESTS >= 10 ** 7
        grid, _, _ = caps_for(2, 0.0, 4.0)
        with pytest.raises(SizeGuardError):
            SimConfig(grid, PlacementVector((4, 0, 0)), zipf_pmf(4, 1.0), MAX_REQUESTS + 1, seed=1)


class TestCapacityCheck:
    def test_zero_rate_all_pass(self):
        grid, _, caps = caps_for(2, 0.0, 4.0)
        pop = zipf_pmf(10, 1.0)
        x = PlacementVector((1, 4, 5))
        rep = simulate(SimConfig(grid, x, pop, 1000, seed=5))
        assert all(capacity_check(rep, caps, 0.0))

    def test_achieved_rate_is_tight(self):
        """At the evaluated rate every level passes and the binding level is
        tight; 1% above it the binding level fails."""
        grid, _, caps = caps_for(3, 0.0, 4.0)
        pop = zipf_pmf(30, 1.2)
        x = PlacementVector((2, 8, 10, 10))
        report = evaluate_throughput(x, caps, pop)
        sim = simulate(SimConfig(grid, x, pop, 1000, seed=6))
        flags = capacity_check(sim, caps, report.rate)
        assert all(flags)
        b = report.binding_level
        tight = sim.tail_mass[b - 1] * report.rate
        assert tight == pytest.approx(caps.cbar[b] / sim.m_b, rel=1e-9)
        flags_hot = capacity_check(sim, caps, report.rate * 1.01)
        assert not flags_hot[b - 1]

    def test_csv_rows(self):
        grid, _, _ = caps_for(2, 0.0, 4.0)
        pop = zipf_pmf(8, 1.0)
        x = PlacementVector((1, 3, 4))
        rep = simulate(SimConfig(grid, x, pop, 2000, seed=8))
        rows = report_csv_rows(rep)
        assert [r[0] for r in rows] == [1, 2]
        for _, emp, ana, rel in rows:
            if ana > 0:
                assert rel == pytest.approx((emp - ana) / ana, rel=1e-12)
