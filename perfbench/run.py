"""Benchmark of d2d-cachescale: one closed-loop client per run, outputs checked.

Run from the root of a checkout that holds `src/d2d_cachescale`:

    python3 perfbench/run.py --workload place_large --seed 1 --seconds 28 --trace 0

Workloads are defined in workloads.py; their reasons, the metric
definitions, which per-layer metric should move which end-to-end metric,
and the rule for comparing two commits are in expectations.json.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. A run starts
fresh interpreters one after another. Each is timed from spawn until its
workload is ready (import, input generation and any model built once per
run). WORKERS of them then run the closed loop for `--seconds / WORKERS`,
each after one more that only sets up. `setup_s` is the median of all
their setup times and the loop metrics pool the samples of the timed
ones, so no single process's luck sets a run's figures. Every time in the
result line is at nominal machine speed: divided by the slowdown that
speed.py measured next to it, so that the host's drift in speed does not set
the figures. Op times are the worker's CPU time, which leaves out the CPU
the host takes away; setup_s is wall time. The wall-clock op figures are
printed above the result with a `wall_` prefix.
`--trace 1` reports the per-layer metrics from one traced interpreter (see
worker.py and tracer.py) and writes its spans to `.perfbench-out/`.

Lines before the last one are for people: the environment, every metric
with its unit (also those that are not compared between commits), and the
sample counts. The last line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 only when every
output was correct; a checkout without the package exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

WORKERS = 5          # interpreters that run the timed loop, each after one that only sets up
DEADLINE_S = 170.0   # every process this run starts is gone by then
OUT_DIR = ".perfbench-out"

# Shown for people but not compared between commits: a failed-op share is 0
# on a correct run, the rate is absent where an op returns none, and the
# wall-clock timings move with the host's load.
EXTRA_UNITS = {"failed_op_frac": "ratio", "rate_geomean_bps_hz": "bit/s/Hz",
               "wall_setup_s": "s", "wall_ops_per_s": "op/s", "wall_op_p50_s": "s",
               "wall_op_p90_s": "s", "slowdown_median": "ratio"}


class RunError(Exception):
    pass


def _declared(trace: int) -> dict[str, str]:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _output_of(cmd: list[str], cwd: str) -> str | None:
    if shutil.which(cmd[0]) is None:
        return None
    try:
        done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=10)
    except subprocess.TimeoutExpired:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: str) -> dict:
    sha = None
    if os.path.exists(os.path.join(root, ".git")):
        sha = _output_of(["git", "rev-parse", "HEAD"], root)
    caches = {}
    for key, name in (("l2_bytes_per_core", "LEVEL2_CACHE_SIZE"),
                      ("l3_bytes", "LEVEL3_CACHE_SIZE")):
        value = _output_of(["getconf", name], root)
        caches[key] = int(value) if value and value.isdigit() else None
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "git_sha": sha or "unavailable (not a git checkout)"} | caches


def spawn(args, root: str, seconds: float, deadline: float,
          spans_out: str | None = None) -> dict:
    """Run one worker.py to its end; the JSON object on its last output line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace), "--root", root]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:  # on a timeout, subprocess.run kills the worker and waits for it
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RunError("worker did not finish before the deadline") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunError(f"worker exited with code {done.returncode} without a result")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise RunError("worker's last line is not a result") from None


def measure(args, root: str) -> tuple[list[dict], list[dict]]:
    """Run the workers one after another; every setup's times and the loops' results.

    An untraced run starts an interpreter that only sets up before each of
    its WORKERS timed ones, so setup_s is a median of many samples taken
    over the whole run.
    """
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
        spans_out = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        result = spawn(args, root, args.seconds, deadline, spans_out)
        return [result], [result]
    setups, results = [], []
    for _ in range(WORKERS):
        setups.append(spawn(args, root, 0, deadline))
        results.append(spawn(args, root, args.seconds / WORKERS, deadline))
        setups.append(results[-1])
    return setups, results


def _percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _timings(latencies: list[float]) -> dict[str, float]:
    return {"ops_per_s": len(latencies) / math.fsum(latencies),
            "op_p50_s": _percentile(latencies, 0.5)[0],
            "op_p90_s": _percentile(latencies, 0.9)[0]}


def combine(setups: list[dict], results: list[dict]) -> dict:
    """Pool the timed workers' samples into the end-to-end metrics.

    The op timings are CPU times at nominal machine speed (see speed.py);
    the same figures from wall-clock times are shown with a `wall_` prefix.
    """
    latencies = [t for r in results for t in r["latencies"]]
    adjusted = [t for r in results for t in r["adjusted"]]
    beyond = _percentile(adjusted, 0.9)[1]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    digests: dict[str, set] = {}
    for r in results:
        for key, digest in r["digests"].items():
            digests.setdefault(key, set()).add(digest)
    for key, seen in digests.items():
        if len(seen) > 1:  # the same input gave different outputs in different processes
            print(f"perfbench: outputs for {key} differ between processes", file=sys.stderr)
            failed += 1
    metrics = {"setup_s": statistics.median(s["setup_s"] for s in setups)} | _timings(adjusted)
    metrics |= {f"wall_{k}": v for k, v in _timings(latencies).items()}
    metrics |= {
        "wall_setup_s": statistics.median(s["setup_wall_s"] for s in setups),
        "slowdown_median": statistics.median(x for r in results for x in r["slowdowns"]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "failed_op_frac": failed / attempted,
    }
    if results[0]["rate_geomean_bps_hz"] is not None:
        metrics["rate_geomean_bps_hz"] = results[0]["rate_geomean_bps_hz"]
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "notes": [f"setup_s samples = {[round(s['setup_s'], 4) for s in setups]}",
                      f"op samples = {len(latencies)} from {len(results)} processes, "
                      f"beyond p90 = {beyond}",
                      "per-process ops_per_s, op_p50_s, op_p90_s = " + json.dumps(
                          [list(_timings(r["adjusted"]).values()) for r in results])]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, on which subprocess.run kills the worker and waits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "d2d_cachescale", "__init__.py")):
        print("perfbench: src/d2d_cachescale not found; run from the repository root",
              file=sys.stderr)
        return 2
    declared = _declared(args.trace)
    try:
        setups, results = measure(args, root)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        run = results[0] | {"notes": [f"traced pairs = {results[0]['pairs']}"]}
    else:
        run = combine(setups, results)
    measured = run["metrics"]
    missing = sorted(set(declared) - set(measured))
    if missing:
        print(f"perfbench: the run did not measure {', '.join(missing)}", file=sys.stderr)
        return 1

    print("env " + json.dumps(environment(root) | results[0]["env"], sort_keys=True))
    units = declared | EXTRA_UNITS
    for name in sorted(measured):
        if name in units:
            print(f"{args.workload} {name} = {measured[name]!r} {units[name]}")
    for note in run["notes"]:
        print(f"{args.workload} {note}")
    correct = run["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
