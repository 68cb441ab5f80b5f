"""Compare two checkouts with the benchmark: alternating pairs, one row per workload.

    python3 perfbench/compare.py --base PARENT_DIR --head CHANGE_DIR [--workloads a,b]

Both checkouts are measured by the benchmark files next to this script,
so the benchmark code and settings are identical on both sides: every run
lasts BENCHMARK.json's run_seconds, and each workload gets
expectations.json's pairs_min pairs. Pair i uses seed SEED0 + i and runs
the parent first when i is even, the change first when i is odd. The
verdicts follow expectations.json's comparison_rule, with each metric's
bound and direction from BENCHMARK.json:

    gain        the change wins >= 90% of the pairs and the medians differ
                by more than the parent's IQR
    unresolved  otherwise, when either side's IQR exceeds the bound and not
                every run of the change beats every run of the parent
    regression  otherwise, when the change's median is worse by more than
                the bound
    same        none of the above
"""

from __future__ import annotations

import argparse
import os
import sys

import record

SEED0 = 1000


def run_once(checkout: str, workload: str, seed: int) -> dict | None:
    """One untraced run; its metric values, or None when it failed."""
    try:
        result = record.run(workload, seed, 0, checkout)["result"]
    except record.RunFailed as exc:
        print(exc, file=sys.stderr)
        return None
    if not result["correct"]:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(base: list[float], head: list[float], better: str, bound: float,
            win_share_min: float) -> tuple[str, str]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    b_q1, b_med, b_q3 = record.quartiles(base)
    h_q1, h_med, h_q3 = record.quartiles(head)
    detail = (f"{b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}] -> {h_med:.4g} [{h_q1:.4g}, {h_q3:.4g}] "
              f"({h_med / b_med:.3f}x of {b_med:.4g}, wins {wins}/{len(base)})")
    if wins >= win_share_min * len(base) and sign * (h_med - b_med) > b_q3 - b_q1:
        return "gain", detail
    noisy = (b_q3 - b_q1) > bound * abs(b_med) or (h_q3 - h_q1) > bound * abs(h_med)
    if noisy and not min(sign * h for h in head) > max(sign * b for b in base):
        return "unresolved", detail
    if sign * (b_med - h_med) > bound * abs(b_med):
        return "regression", detail
    return "same", detail


def main(argv=None) -> int:
    spec = record.SPEC
    rule = record.load(os.path.join(record.HERE, "expectations.json"))["comparison_rule"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent checkout")
    parser.add_argument("--head", required=True, help="changed checkout")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)

    pairs = rule["pairs_min"]
    for workload in args.workloads.split(","):
        sides = {"base": [], "head": []}
        for i in range(pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                sides[side].append(run_once(getattr(args, side), workload, SEED0 + i))
        kept = [(b, h) for b, h in zip(sides["base"], sides["head"]) if b and h]
        cells = []
        for m in spec["end_to_end"]:
            if len(kept) < 2:
                cells.append(f"{m['name']}: no data")
                continue
            state, detail = verdict([b[m["name"]] for b, _ in kept],
                                    [h[m["name"]] for _, h in kept],
                                    m["better"], m["bound"], rule["win_share_min"])
            cells.append(f"{m['name']}: {state} {detail}")
        print(f"{workload} | failed pairs {pairs - len(kept)} | " + " | ".join(cells),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
