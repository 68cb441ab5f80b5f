"""Record one point of the benchmark trajectory for the current checkout.

    python3 perfbench/record.py --out perfbench/results/BENCH_<sha>.json

For each workload it makes RUNS untraced runs, seeds 1..RUNS, then one
traced run, and writes every value together with each end-to-end metric's
median, quartiles and spread (IQR over median, as
`statistics.quantiles(values, n=4)` gives the quartiles), the sample counts
and the environment. A spread at or above a third of the metric's bound is
flagged, and the exit code is then 1: the benchmark is not steady enough
there to hold that bound.
Takes about (RUNS + 1) x (run_seconds + 5) seconds per workload.

compare.py uses this module's runner and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


SPEC = load(os.path.join(HERE, os.pardir, "BENCHMARK.json"))


class RunFailed(Exception):
    pass


def run(workload: str, seed: int, trace: int, checkout: str = ".") -> dict:
    """One run of run.py in `checkout`: its result line, environment and notes."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunFailed(f"{workload} seed {seed} trace {trace} in {checkout} failed:\n"
                        f"{done.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    notes = [line for line in lines[:-1] if " samples" in line or " pairs" in line]
    return {"result": json.loads(lines[-1]), "env": env, "notes": notes}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    doc = {"run_seconds": SPEC["run_seconds"], "runs": RUNS, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        try:
            runs = [run(workload, seed, 0) for seed in range(1, RUNS + 1)]
            traced = run(workload, 1, 1)
        except RunFailed as exc:
            raise SystemExit(str(exc)) from None
        doc["env"] = runs[0]["env"]
        summary = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds[name], "values": values}
            flag = ""
            if spread >= bounds[name] / 3:
                flag = "  <- at or above a third of the bound"
                steady = False
            print(f"{workload} {name}: median {median:.6g} spread {spread:.4f} "
                  f"(bound {bounds[name]}){flag}", flush=True)
        doc["workloads"][workload] = {
            "end_to_end": summary,
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "notes": [n for r in runs for n in r["notes"]],
            "largest_arrays_bytes": runs[0]["env"]["largest_arrays_bytes"],
            "per_layer_seed1": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "traced_notes": traced["notes"],
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
