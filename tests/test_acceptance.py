"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import random
import time
from pathlib import Path

import pytest

from d2d_cachescale import (
    NetworkGrid,
    PhyParams,
    PlacementVector,
    SimConfig,
    brute_force,
    edge_capacities,
    optimize_placement,
    simulate,
    solve_exact,
    throughput_bounds,
    zipf_pmf,
)
from d2d_cachescale.analysis import achievable_exponent, critical_skewness
from d2d_cachescale.placement import guarantee_floor, solve_relaxed
from reference import check_optimality
from d2d_cachescale.cli import main as cli_main
from conftest import caps_for

DATA = Path(__file__).parent / "data"


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def _small_instances(count=100, seed=101):
    """M <= 3, L <= 20, tau in [0,3], L_C uniform over [L 4^{-M}, L)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m_levels = rng.randint(1, 3)
        L = rng.randint(2, 20)
        tau = rng.uniform(0.0, 3.0)
        alpha = rng.choice([2.5, 3.0, 4.0])
        kappa = rng.choice([0.0, 1.0])
        lo = L * 4.0 ** (-m_levels)
        l_c = lo + (L - lo) * rng.uniform(0.0, 0.999)
        out.append((m_levels, kappa, alpha, L, tau, l_c))
    return out


def _large_instances(count=100, seed=202):
    """M <= 8, L <= 1e4; budgets sampled across the full feasible span."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m_levels = rng.randint(1, 8)
        L = rng.randint(50, 10000)
        tau = rng.uniform(0.0, 3.0)
        alpha = rng.choice([2.5, 3.0, 4.0])
        kappa = rng.choice([0.0, 1.0])
        lo = L * 4.0 ** (-m_levels)
        l_c = lo + (L - lo) * rng.uniform(1e-6, 0.999)
        out.append((m_levels, kappa, alpha, L, tau, l_c))
    return out


def test_criterion_1_oracle_equivalence():
    """solve_exact equals brute_force exactly on 100 random small instances
    and on a budget within 1e-12 of L, where both keep every file local."""
    t0 = time.monotonic()
    mismatches = 0
    near_full = (3, 0.0, 2.5, 20, 0.0, 19.9999999999999)
    for m_levels, kappa, alpha, L, tau, l_c in _small_instances() + [near_full]:
        grid, params, caps = caps_for(m_levels, kappa, alpha)
        pop = zipf_pmf(L, tau)
        _, brate = brute_force(grid, caps, pop, l_c)
        _, erate = solve_exact(grid, caps, pop, l_c)
        if erate != brate:
            mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 10.0
    _report("1 oracle equivalence", ok,
            f"({mismatches} mismatches, {elapsed:.2f}s)")


def test_criterion_2_rounding_guarantee():
    """Solver rate >= reference optimum / (M (1 + 2^tau)): the exhaustive
    optimum on the small instances, the relaxed optimum on the large ones."""
    t0 = time.monotonic()
    violations = 0
    for m_levels, kappa, alpha, L, tau, l_c in _small_instances():
        grid, params, caps = caps_for(m_levels, kappa, alpha)
        pop = zipf_pmf(L, tau)
        _, brate = brute_force(grid, caps, pop, l_c)
        out = optimize_placement(grid, caps, pop, l_c)
        if out.report.rate < brate / (m_levels * (1 + 2.0 ** tau)) * (1 - 1e-12):
            violations += 1
    for m_levels, kappa, alpha, L, tau, l_c in _large_instances():
        grid, params, caps = caps_for(m_levels, kappa, alpha)
        pop = zipf_pmf(L, tau)
        out = optimize_placement(grid, caps, pop, l_c)
        floor = guarantee_floor(out.relaxed.r_star, m_levels, tau)
        if out.report.rate < floor * (1 - 1e-12):
            violations += 1
    ok = violations == 0
    _report("2 rounding guarantee", ok,
            f"({violations} violations, {time.monotonic()-t0:.2f}s)")


def test_criterion_3_optimality_residuals():
    """Relaxed-solution residuals within 1e-8 relative on 200 instances, < 1 s."""
    instances = _large_instances(100, seed=303) + _large_instances(100, seed=404)
    pops = [zipf_pmf(L, tau) for (_, _, _, L, tau, _) in instances]
    capss = [caps_for(m, k, a) for (m, k, a, _, _, _) in instances]
    t0 = time.monotonic()
    worst = 0.0
    for (m_levels, kappa, alpha, L, tau, l_c), pop, (grid, _, caps) in zip(
            instances, pops, capss):
        sol = solve_relaxed(caps, pop, l_c)
        worst = max(worst, max(check_optimality(sol, caps, pop, l_c)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    _report("3 optimality residuals", ok, f"(worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_4_bound_sandwich():
    """floor <= achieved <= upper over tau x beta2 x alpha at n = 4^9."""
    t0 = time.monotonic()
    m_levels, beta1 = 9, 0.9
    n = 4 ** m_levels
    L = int(n ** beta1)
    violations = 0
    points = 0
    for alpha in (2.5, 3.0, 4.0):
        grid, params, caps = caps_for(m_levels, 0.0, alpha)
        for tau in (0.0, 0.5, 1.0, 1.2, 1.5, 2.0, 3.0):
            pop = zipf_pmf(L, tau)
            for beta2 in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8):
                points += 1
                l_c = n ** beta2
                rate = optimize_placement(grid, caps, pop, l_c).report.rate
                bounds = throughput_bounds(grid, params, pop, l_c)
                if bounds.floor > rate * (1 + 1e-9):
                    violations += 1
                if bounds.r_upper is not None and rate > bounds.r_upper * (1 + 1e-9):
                    violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and points >= 100 and elapsed < 5.0
    _report("4 bound sandwich", ok,
            f"({points} points, {violations} violations, {elapsed:.2f}s)")


def test_criterion_5_sweep_reproduction(capsys, tmp_path):
    """Pinned beta2/tau sweeps: byte-identical regeneration, exact
    monotonicity, strict dominance over the multihop baseline."""
    specs = {
        "fig5_beta2_sweep.csv": ["sweep", "--M", "9", "--alpha", "4", "--tau", "1",
                                 "--beta1", "0.9", "--axis", "beta2",
                                 "--range", "0.1:0.8:0.1", "--bandwidth-hz", "2e8"],
        "fig6_tau_sweep.csv": ["sweep", "--M", "9", "--alpha", "4", "--beta1", "0.9",
                               "--beta2", "0.3", "--axis", "tau",
                               "--range", "0:3:0.25", "--bandwidth-hz", "2e8"],
    }
    ok = True
    details = []
    for name, argv in specs.items():
        target = tmp_path / name
        code = cli_main(argv + ["--out", str(target)])
        regenerated = target.read_text()
        pinned = (DATA / name).read_text()
        if code != 0 or regenerated != pinned:
            ok = False
            details.append(f"{name} drifted from its pinned run")
            continue
        rows = [line.split(",") for line in pinned.splitlines()[2:]]
        proposed = [float(r[1]) for r in rows]
        baseline = [float(r[2]) for r in rows]
        if proposed != sorted(proposed):
            ok = False
            details.append(f"{name}: proposed rate not non-decreasing")
        if not all(p > b for p, b in zip(proposed, baseline)):
            ok = False
            details.append(f"{name}: proposed does not strictly dominate multihop")
    _report("5 sweep reproduction", ok, "; ".join(details))


def test_criterion_6_scaling_exponents():
    """20 hand-computed exponent tuples, exact arithmetic."""
    cases = [
        # (fn, beta1, beta2, tau, alpha, expected)
        ("ach", 0.9, 0.3, 0.5, 3.0, -0.3),       # (0.3-0.9)(1.5-1)
        ("ach", 0.9, 0.3, 0.5, 4.0, -0.3),       # min(3,alpha)=3 above 3
        ("ach", 0.9, 0.3, 0.0, 2.5, -0.15),      # (0.3-0.9)(1.25-1)
        ("ach", 0.9, 0.3, 1.0, 2.5, -0.15),      # tau=1 still first branch
        ("ach", 0.9, 0.3, 1.1, 2.5, -0.06),      # 0.9(1.1-1.25)+0.3(0.25)
        ("ach", 0.9, 0.3, 1.25, 2.5, 0.075),     # branch point: 0.3(0.25)
        ("ach", 0.9, 0.3, 2.0, 2.5, 0.3),        # 0.3(2-1)
        ("ach", 0.9, 0.3, 1.5, 4.0, 0.15),       # branch point at min(3,4)/2
        ("ach", 1.0, 0.0, 0.5, 3.0, -0.5),       # Gupta-Kumar corner
        ("ach", 0.9, 0.9, 0.5, 2.5, 0.0),        # regime I flat (a1 > a2)
        ("ach", 0.9, 0.9, 2.0, 2.5, 0.9),        # regime I: 0.9(2-1)
        ("base", 0.9, 0.3, 0.5, None, -0.3),     # (0.3-0.9)/2
        ("base", 0.9, 0.3, 1.2, None, -0.12),    # 0.9(1.2-1.5)+0.15
        ("base", 0.9, 0.3, 1.5, None, 0.15),     # branch point: 0.3(0.5)
        ("base", 0.9, 0.3, 2.0, None, 0.3),      # 0.3(2-1)
        ("base", 1.0, 0.0, 0.5, None, -0.5),     # Gupta-Kumar
        ("base", 0.9, 0.9, 2.0, None, 0.9),      # regime I
        ("conv", 0.9, 0.3, 0.5, 2.5, -0.15),     # ceiling matches branchwise
        ("conv", 0.9, 0.3, 1.1, 2.5, -0.06),
        ("conv", 0.9, 0.9, 2.0, 2.5, 0.9),       # regime I ceiling
    ]
    assert len(cases) == 20
    failures = []
    for fn, b1, b2, tau, alpha, expected in cases:
        a1, a2 = (2.0, 1.0) if b1 == b2 else (1.0, 1.0)
        # the baseline is the law at alpha = 3, the converse the law itself
        got = achievable_exponent(b1, b2, a1, a2, tau, 3.0 if fn == "base" else alpha).exponent
        if not math.isclose(got, expected, rel_tol=0.0, abs_tol=1e-15):
            failures.append((fn, b1, b2, tau, alpha, expected, got))
    _report("6 scaling exponents", not failures, f"{failures}")


def test_criterion_7_critical_skewness():
    ok = (critical_skewness(2.5) == (1.0, 1.25)
          and critical_skewness(3.0) == (1.0, 1.5)  # the baselines
          and critical_skewness(4.0) == (1.0, 1.5))
    _report("7 critical skewness", ok)


def test_criterion_8_simulator_agreement():
    """Per-level loads within 4 binomial sigmas at 1e5 requests, 10 placements."""
    rng = random.Random(808)
    t0 = time.monotonic()
    worst_sigma = 0.0
    for trial in range(10):
        m_levels = rng.randint(1, 6)
        L = rng.randint(2, 500)
        grid, _, _ = caps_for(m_levels, 0.0, 4.0)
        pop = zipf_pmf(L, rng.uniform(0.0, 3.0))
        cuts = sorted(rng.randint(0, L) for _ in range(m_levels))
        pv = PlacementVector(tuple(b - a for a, b in zip([0] + cuts, cuts + [L])))
        rep = simulate(SimConfig(grid, pv, pop, 100000, seed=trial))
        for i, m in enumerate(rep.levels):
            t = rep.tail_mass[i]
            if not 0.0 < t < 1.0:
                continue
            count = rep.empirical_load[i] * 4 ** (m_levels - m + 1)
            sigma = math.sqrt(100000 * t * (1 - t))
            worst_sigma = max(worst_sigma, abs(count - 100000 * t) / sigma)
    elapsed = time.monotonic() - t0
    ok = worst_sigma <= 4.0 and elapsed < 50.0
    _report("8 simulator agreement", ok,
            f"(worst deviation {worst_sigma:.2f} sigma, {elapsed:.2f}s total)")


def test_criterion_9_gupta_kumar_sanity():
    ach3 = achievable_exponent(1.0, 0.0, 1.0, 1.0, 0.5, 3.0).exponent  # the baseline
    ach5 = achievable_exponent(1.0, 0.0, 1.0, 1.0, 0.5, 5.0).exponent
    ok = ach3 == -0.5 and ach5 == -0.5
    _report("9 Gupta-Kumar sanity", ok, f"({ach3}, {ach5})")


def test_criterion_10_determinism(capsys):
    """Every command repeated with a fixed seed is byte-identical."""
    commands = [
        ["place", "--M", "4", "--l", "100", "--lc", "4.0", "--tau", "1.2"],
        ["place", "--M", "4", "--l", "100", "--lc", "4.0", "--format", "json"],
        ["sweep", "--M", "4", "--axis", "beta2", "--range", "0.2:0.6:0.2"],
        ["sweep", "--M", "4", "--axis", "tau", "--range", "0:2:0.5"],
        ["scaling", "--alpha", "2.5", "--range", "0:2:0.25"],
        ["oracle", "--M", "2", "--l", "10", "--lc", "1.5", "--seed", "5"],
        ["simulate", "--M", "4", "--l", "100", "--lc", "4.0",
         "--requests", "20000", "--seed", "31"],
    ]
    ok = True
    for argv in commands:
        cli_main(argv)
        first = capsys.readouterr().out
        cli_main(argv)
        second = capsys.readouterr().out
        if first != second or not first:
            ok = False
    _report("10 determinism", ok)
