"""One benchmark process: set up a workload, run its closed loop, check every output.

Started by run.py in a fresh interpreter, with `--spawned-at` set to the
parent's `time.monotonic()` just before the spawn. Both processes read the
same system-wide monotonic clock, so the worker measures its own setup
time: from spawn until its first op is ready. It reports that time both
as measured and divided by the machine's slowdown measured right after it
(see speed.py). The last line of its
standard output is one JSON object with the setup times, the loop's
measurements and the verdict on its outputs. `--seconds 0` only sets up and
reports the setup times.

Untraced runs (`--trace 0`) time each op in wall time and in the process's
CPU time, and sample the machine's speed between ops, so that each op's CPU
time can be given at nominal speed.
Traced runs (`--trace 1`) run each op twice, once under the tracer and once
without, alternating which goes first; the two outputs must be identical,
and the untraced half gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from types import SimpleNamespace

import speed
import tracer as tracing
import workloads


def _import_package(root: str) -> SimpleNamespace:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    modules = tracing.package_modules()
    path = os.path.realpath(modules[""].__file__)
    if not path.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"{tracing.PACKAGE} was imported from {path}, not from {src}")
    return SimpleNamespace(**{k: v for k, v in modules.items() if k})


def _run_op(op) -> tuple[object, str | None]:
    try:
        return op.run(), None
    except Exception as exc:  # a failed op is counted, and the loop goes on
        traceback.print_exc(file=sys.stderr)
        return None, f"{type(exc).__name__}: {exc}"


class Verdicts:
    """Checks each distinct input's first output; repeats must equal it."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.first: dict[str, tuple[object, str | None]] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, op, out, err: str | None) -> None:
        self.attempted += 1
        if err is None:
            if op.key in self.first:
                first_out, err = self.first[op.key]
                if out != first_out:
                    err = "output differs from an earlier op with the same input"
            else:
                try:
                    err = self.workload.check(op, out)
                except (ValueError, KeyError, IndexError) as exc:
                    err = f"unreadable output: {type(exc).__name__}: {exc}"
                self.first[op.key] = (out, err)
        if err is not None:
            self.failed += 1
            if self.failed == 1:
                print(f"perfbench: failed op {op.key}: {err}", file=sys.stderr)

    def rate_geomean(self) -> float | None:
        rates = [self.workload.rate(out) for out, err in self.first.values() if err is None]
        rates = [r for r in rates if r is not None]
        if not rates:
            return None
        return math.exp(math.fsum(math.log(r) for r in rates) / len(rates))


def run_timed(workload, seconds: float) -> dict:
    """The closed loop. The machine's speed is sampled between ops (see speed.py).

    The loop ends with the first whole pass over the ops that ends after
    `seconds`, so every input is timed equally often: solve_grid's inputs
    differ in cost by up to 9x, and a part pass would tilt the op mix, and
    with it every figure, by the seed's order.
    """
    verdicts = Verdicts(workload)
    ops, latencies, cpu_times, outputs = workload.ops, [], [], []
    speed.slowdown()  # warm the reference up
    samples, marks = [speed.slowdown()], [0]
    start = sampled = time.perf_counter()
    while True:
        op = ops[len(latencies) % len(ops)]
        t0, c0 = time.perf_counter(), time.process_time()
        out, err = _run_op(op)
        c1, t1 = time.process_time(), time.perf_counter()
        latencies.append(t1 - t0)
        cpu_times.append(c1 - c0)
        outputs.append((op, out, err))
        if t1 - start >= seconds and len(latencies) % len(ops) == 0:
            break
        if t1 - sampled >= speed.EVERY_S:
            samples.append(speed.slowdown())
            marks.append(len(latencies))
            sampled = time.perf_counter()
    samples.append(speed.slowdown())
    marks.append(len(latencies))
    factors = speed.per_op(samples, marks, len(latencies))
    for op, out, err in outputs:  # checked after the loop, so checks are not timed
        verdicts.record(op, out, err)
    return {"attempted": verdicts.attempted, "failed": verdicts.failed,
            "latencies": latencies,
            "adjusted": [t / f for t, f in zip(cpu_times, factors)],
            "slowdowns": samples,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "rate_geomean_bps_hz": verdicts.rate_geomean(),
            "digests": {key: hashlib.sha256(repr(out).encode()).hexdigest()
                        for key, (out, err) in verdicts.first.items()}}


def run_traced(workload, seconds: float, spans_out: str | None) -> dict:
    tracer = tracing.Tracer(tracing.package_modules())
    verdicts = Verdicts(workload)
    ops = workload.ops
    traced_s = untraced_s = untraced_cpu = 0.0
    output_bytes = pairs = 0
    start = time.perf_counter()
    while True:
        op = ops[pairs % len(ops)]
        outs = {}
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            if traced:
                tracer.op_id = pairs
                tracer.install()
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                outs[traced] = _run_op(op)
            finally:
                t1, c1 = time.perf_counter(), time.process_time()
                if traced:
                    tracer.uninstall()
            if traced:
                traced_s += t1 - t0
            else:
                untraced_s += t1 - t0
                untraced_cpu += c1 - c0
        (plain, plain_err), (seen, seen_err) = outs[False], outs[True]
        if plain_err is None and seen_err is None and plain != seen:
            seen_err = "traced output differs from untraced output"
        verdicts.record(op, plain, plain_err)
        verdicts.record(op, seen, seen_err)
        if isinstance(seen, str):
            output_bytes += len(seen.encode())
        pairs += 1
        if time.perf_counter() - start >= seconds and pairs % len(ops) == 0:
            break
    if spans_out:
        tracer.write_spans(spans_out)
    summary = tracer.summary()
    metrics = layer_metrics(summary, pairs, traced_s)
    metrics["cli.main.output_bytes"] = output_bytes / pairs
    metrics["process.cpu_per_wall"] = untraced_cpu / untraced_s
    metrics["process.tracing_overhead_frac"] = 1.0 - untraced_s / traced_s
    return {"attempted": verdicts.attempted, "failed": verdicts.failed,
            "metrics": metrics, "pairs": pairs}


def layer_metrics(summary: dict, ops: int, traced_wall: float) -> dict[str, float]:
    """Per-op means of each target's counts and times, and the named extras."""
    funcs, extras = summary["functions"], summary["extras"]
    metrics: dict[str, float] = {}
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    for name, row in funcs.items():
        metrics[f"{name}.calls"] = row["calls"] / ops
        if name not in tracing.COUNT_ONLY:
            metrics[f"{name}.self_s"] = row["self_s"] / ops
            metrics[f"{name}.wait_s"] = row["wait_s"] / ops
            layer_self[name.split(".")[0]] += row["self_s"]
    for layer, total in layer_self.items():
        metrics[f"{layer}.self_s"] = total / ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for key in ("popularity.zipf_pmf.ranks", "popularity.zipf_pmf.bytes_computed",
                "phy.interference_power.terms", "delivery.simulate.requests",
                "delivery.simulate.bytes_computed"):
        metrics[key] = extras.get(key, 0) / ops
    metrics["placement.rebalance.changed_frac"] = ratio(
        extras.get("placement.rebalance.changed", 0), funcs["placement.rebalance"]["calls"])
    metrics["exact.feasible_for_rate.feasible_frac"] = ratio(
        extras.get("exact.feasible_for_rate.feasible", 0),
        funcs["exact.feasible_for_rate"]["calls"])
    metrics["delivery.simulate.requests_per_s"] = ratio(
        extras.get("delivery.simulate.requests", 0), funcs["delivery.simulate"]["wall_s"])
    metrics["process.span_cover_frac"] = sum(layer_self.values()) / traced_wall
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True, help="checkout whose src/ is measured")
    parser.add_argument("--spans-out", default=None, help="write the traced run's spans here")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    args = parser.parse_args(argv)

    pkg = _import_package(args.root)
    workload = workloads.build(args.workload, pkg, args.seed)
    setup_wall_s = time.monotonic() - args.spawned_at
    setup = {"setup_wall_s": setup_wall_s, "setup_s": setup_wall_s / speed.settled()}
    if args.seconds == 0:
        print(json.dumps(setup))
        return 0
    if args.trace:
        result = run_traced(workload, args.seconds, args.spans_out)
    else:
        result = run_timed(workload, args.seconds)
    import numpy
    result.update(setup)
    result["env"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                     "package": os.path.relpath(os.path.dirname(pkg.cli.__file__), args.root),
                     "largest_arrays_bytes": workload.arrays}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
