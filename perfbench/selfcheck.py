"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench/selfcheck.py

The file name keeps these tests out of the package's own test run; they
take about ten seconds, because every workload's distinct ops run twice.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

PKG = worker._import_package(ROOT)


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced_runs():
    """Every distinct op of every workload, once untraced and once traced."""
    runs = {}
    for name in workloads.NAMES:
        workload = workloads.build(name, PKG, seed=5)
        tracer = tracing.Tracer(tracing.package_modules())
        pairs = []
        for op_id, op in enumerate(workload.ops):
            plain = op.run()
            tracer.op_id = op_id
            tracer.install()
            try:
                seen = op.run()
            finally:
                tracer.uninstall()
            pairs.append((op, plain, seen))
        runs[name] = (workload, tracer, pairs)
    return runs


def test_traced_outputs_are_identical_to_untraced(traced_runs):
    for name, (workload, _, pairs) in traced_runs.items():
        for op, plain, seen in pairs:
            assert seen == plain, f"{name}: {op.key}"
            assert workload.check(op, plain) is None, f"{name}: {op.key}"


def test_uninstall_restores_every_alias(traced_runs):
    for _, tracer, _ in traced_runs.values():
        for mod, attr, wrapper, orig in tracer._patches:
            assert getattr(mod, attr) is orig


def test_every_target_is_reached_through_its_aliases(traced_runs):
    reached = {t: 0 for t in tracing.TARGETS}
    for _, tracer, _ in traced_runs.values():
        for target, row in tracer.summary()["functions"].items():
            reached[target] += row["calls"]
    assert [t for t, calls in reached.items() if calls == 0] == []
    aliases = set(next(iter(traced_runs.values()))[1].aliases())
    for alias in ("cli.zipf_pmf", "placement.tail_inverse", "hierarchy.cluster_rate",
                  "hierarchy.interference_power", "analysis.capacity_envelope",
                  "exact.evaluate_throughput", "cli.main"):
        assert f"{tracing.PACKAGE}.{alias}" in aliases


def _per_op(traced_runs, name: str) -> dict[str, float]:
    _, tracer, pairs = traced_runs[name]
    summary = tracer.summary()
    ops = len(pairs)
    counts = {f"{t}.calls": row["calls"] / ops for t, row in summary["functions"].items()}
    counts.update({k: v / ops for k, v in summary["extras"].items()})
    return counts


def test_counts_implied_by_the_inputs(traced_runs):
    place = _per_op(traced_runs, "place_large")
    m = workloads.PLACE_M
    assert place["phy.cluster_rate.calls"] == m
    assert place["popularity.zipf_pmf.calls"] == 1
    assert place["popularity.zipf_pmf.ranks"] == workloads.library_size(m, 0.9)
    # two interference sums per cluster_rate, one for the capacity envelope
    assert place["phy.interference_power.calls"] == 2 * m + 1
    assert place["phy.interference_power.terms"] == (2 * m + 1) * 2 ** m
    assert place["cli.main.calls"] == 1

    sweep = _per_op(traced_runs, "sweep_wide")
    points = len(workloads.SWEEP_TAUS)
    assert sweep["popularity.zipf_pmf.calls"] == points
    assert sweep["hierarchy.edge_capacities.calls"] == 2 * points
    assert sweep["placement.optimize_placement.calls"] == 2 * points
    # full and multihop-only tables, plus the no-cache rate of the whole grid
    assert sweep["phy.cluster_rate.calls"] == points * (2 * 12 + 1)

    sim = _per_op(traced_runs, "simulate_draws")
    assert sim["delivery.simulate.calls"] == 1
    assert sim["delivery.simulate.requests"] == workloads.SIM_REQUESTS
    assert sim["phy.cluster_rate.calls"] == workloads.SIM_M

    grid = _per_op(traced_runs, "solve_grid")
    assert grid["exact.solve_exact.calls"] == 1
    assert grid["placement.optimize_placement.calls"] == 1
    assert grid["popularity.zipf_pmf.calls"] == 0  # built in setup
    assert grid["placement.rebalance.changed"] == 0


@pytest.mark.parametrize("name, layers", [
    ("place_large", ("popularity",)),
    ("sweep_wide", ("phy", "hierarchy")),
    ("simulate_draws", ("delivery",)),
    ("solve_grid", ("exact",)),
])
def test_dominant_layer_holds_the_largest_self_time(traced_runs, name, layers):
    _, tracer, _ = traced_runs[name]
    share = dict.fromkeys(tracing.LAYERS, 0.0)
    for target, row in tracer.summary()["functions"].items():
        share[target.split(".")[0]] += row["self_s"]
    named = sum(share[layer] for layer in layers)
    assert all(named > v for layer, v in share.items() if layer not in layers), share


def test_checks_reject_wrong_outputs(traced_runs):
    workload, _, pairs = traced_runs["place_large"]
    op, out, _ = pairs[0]
    rate = re.search(r"^rate_bits_per_s_hz,(.*)$", out, re.M).group(1)
    assert workload.check(op, out.replace(f"rate_bits_per_s_hz,{rate}",
                                          "rate_bits_per_s_hz,1e300"))
    x = re.search(r"^x,(\d+);", out, re.M).group(1)
    assert workload.check(op, out.replace(f"\nx,{x};", f"\nx,{int(x) + 1};"))

    workload, _, pairs = traced_runs["sweep_wide"]
    op, out, _ = pairs[0]
    lines = out.splitlines()
    row = lines[3].split(",")
    row[1] = repr(float(row[5]) * 2)
    assert workload.check(op, "\n".join(lines[:3] + [",".join(row)] + lines[4:]))

    workload, _, pairs = traced_runs["simulate_draws"]
    op, out, _ = pairs[0]
    lines = out.splitlines()
    level, emp, ana, rel = lines[-1].split(",")
    edges = 4  # the top level has four edges
    t = float(ana) * edges / workloads.SIM_REQUESTS
    sigma = math.sqrt(workloads.SIM_REQUESTS * t * (1 - t)) / edges
    shifted = float(ana) + 5 * sigma
    shifted = round(shifted * edges) / edges
    assert workload.check(op, "\n".join(lines[:-1] + [f"{level},{shifted!r},{ana},{rel}"]))

    workload, _, pairs = traced_runs["solve_grid"]
    op, out, _ = pairs[0]
    too_fast = workloads.GridResult(out.pipeline_x, out.exact_rate * (1 + 1e-9),
                                    out.exact_x, out.exact_rate)
    assert workload.check(op, too_fast)


def test_declared_metrics_are_the_measured_ones(traced_runs):
    spec = _spec()
    workload, tracer, pairs = traced_runs["solve_grid"]
    measured = set(worker.layer_metrics(tracer.summary(), len(pairs), 1.0))
    measured |= {"cli.main.output_bytes", "process.cpu_per_wall",
                 "process.tracing_overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == measured
    timed = run.combine([{"setup_s": 0.5, "setup_wall_s": 0.5}],
                        [worker.run_timed(workload, seconds=0.0)])
    assert timed["failed"] == 0
    assert {m["name"] for m in spec["end_to_end"]} <= set(timed["metrics"])


def test_benchmark_json_has_the_required_shape():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["paths"] == ["perfbench"] and spec["command"][1] == "perfbench/run.py"
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert name_re.match(m["name"]) and unit_re.match(m["unit"])
        assert m["better"] in ("higher", "lower")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve_grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_worker_reports_its_own_setup_time():
    args = run.argparse.Namespace(workload="sweep_wide", seed=1, trace=0)
    before = run.time.monotonic()
    setup = run.spawn(args, ROOT, 0, deadline=before + 60)
    assert 0 < setup["setup_wall_s"] < run.time.monotonic() - before
    assert setup["setup_s"] > 0


def test_adjusted_times_follow_the_machine_speed():
    # ops before the first sample, between samples and after the last one
    factors = speed.per_op([1.0, 2.0, 4.0, 8.0], [0, 2, 3, 5], 5)
    assert factors == [2.0, 2.0, 3.0, 4.0, 4.0]
    workload = workloads.build("solve_grid", PKG, seed=1)
    timed = worker.run_timed(workload, seconds=speed.EVERY_S * 3)
    assert len(timed["slowdowns"]) >= 3
    assert all(0 < a < math.inf for a in timed["adjusted"])
    assert len(timed["adjusted"]) == len(timed["latencies"]) == timed["attempted"]
    assert timed["attempted"] % len(workload.ops) == 0  # whole passes only
