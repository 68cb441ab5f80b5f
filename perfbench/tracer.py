"""Spans and counts around the calls into each module of the package.

The tracer replaces each target function at every module attribute that
holds it (the defining module, the package root and every `from ... import`
alias), so a call is seen whichever name it goes through. A span records
the function, wall start and end, thread CPU start and end, the thread,
the parent span on that thread and the op id. Spans stay in memory until
the run ends. Self time is computed per thread, because `sweep` runs its
points on pool threads:

- `self_s`: thread CPU time inside the span minus that of its child spans;
- `wait_s`: wall time inside the span minus its child spans, minus `self_s`
  (waiting for the interpreter lock, for other threads, or for the machine).

Functions listed as count-only are called often and cheaply; timing them
would distort the run, so they are counted and their time stays with the
caller's span.
"""

from __future__ import annotations

import importlib
import json
import math
import threading
import time
from typing import Any, Callable

from workloads import zipf_bytes

PACKAGE = "d2d_cachescale"

LAYERS = ("popularity", "phy", "hierarchy", "placement", "exact", "delivery",
          "analysis", "cli")

TARGETS = (
    "popularity.zipf_pmf", "popularity.tail_inverse",
    "phy.cluster_rate", "phy.interference_power",
    "hierarchy.edge_capacities", "hierarchy.capacity_envelope",
    "placement.optimize_placement", "placement.solve_relaxed",
    "placement.relaxed_cache_load", "placement.round_to_feasible",
    "placement.rebalance", "placement.evaluate_throughput",
    "exact.solve_exact", "exact.feasible_for_rate",
    "delivery.simulate", "analysis.throughput_bounds", "cli.main",
)

# Timing every call of these two added about 7% to a sweep_wide op and 14% to
# a solve_grid op; counted only, they add 2-5% (see expectations.json).
COUNT_ONLY = frozenset({"popularity.tail_inverse", "exact.feasible_for_rate"})


def _bump(extras: dict, key: str, value: float) -> None:
    extras[key] = extras.get(key, 0) + value


def _zipf_extra(args, kwargs, result, extras) -> None:
    _bump(extras, "popularity.zipf_pmf.ranks", result.L)
    _bump(extras, "popularity.zipf_pmf.bytes_computed", zipf_bytes(result.L))


def _interference_extra(args, kwargs, result, extras) -> None:
    n = args[0] if args else kwargs["n"]
    _bump(extras, "phy.interference_power.terms", math.isqrt(int(n)))


def _rebalance_extra(args, kwargs, result, extras) -> None:
    before = args[0] if args else kwargs["x"]
    _bump(extras, "placement.rebalance.changed", int(result.x != before.x))


def _feasible_extra(args, kwargs, result, extras) -> None:
    _bump(extras, "exact.feasible_for_rate.feasible", int(result is not None))


def _simulate_extra(args, kwargs, result, extras) -> None:
    cfg = args[0] if args else kwargs["cfg"]
    _bump(extras, "delivery.simulate.requests", cfg.num_requests)
    # nodes, uniforms, ranks and levels per request; prefix mass read and level map written
    _bump(extras, "delivery.simulate.bytes_computed",
          4 * 8 * cfg.num_requests + 2 * 8 * (cfg.pop.L + 1))


EXTRAS: dict[str, Callable] = {
    "popularity.zipf_pmf": _zipf_extra,
    "phy.interference_power": _interference_extra,
    "placement.rebalance": _rebalance_extra,
    "exact.feasible_for_rate": _feasible_extra,
    "delivery.simulate": _simulate_extra,
}


class _ThreadState:
    __slots__ = ("tid", "spans", "stack", "counts", "extras")

    def __init__(self, tid: int, n_targets: int) -> None:
        self.tid = tid
        self.spans: list[list] = []  # [target, start, end, cpu_start, cpu_end, parent, op]
        self.stack: list[int] = []
        self.counts = [0] * n_targets
        self.extras: dict[str, float] = {}


class Tracer:
    """Install with `install()`, remove with `uninstall()`; read with `summary()`."""

    def __init__(self, package_modules: dict[str, Any]) -> None:
        self.targets = list(TARGETS)
        self.op_id = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []
        for index, name in enumerate(self.targets):
            module_name, func_name = name.split(".")
            orig = getattr(package_modules[module_name], func_name)
            factory = self._counter if name in COUNT_ONLY else self._timer
            wrapper = factory(index, orig, EXTRAS.get(name))
            aliases = [(mod, attr) for mod in package_modules.values()
                       for attr, val in vars(mod).items() if val is orig]
            for mod, attr in aliases:
                self._patches.append((mod, attr, wrapper, orig))

    def aliases(self) -> list[str]:
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _, _ in self._patches)

    def install(self) -> None:
        for mod, attr, wrapper, _ in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, _, orig in self._patches:
            setattr(mod, attr, orig)

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident(), len(self.targets))
            with self._lock:
                self._threads.append(state)
            self._local.state = state
        return state

    def _timer(self, index: int, fn, extra):
        tracer, wall, cpu = self, time.perf_counter, time.thread_time

        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            record = [index, 0.0, 0.0, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(state.spans))
            state.spans.append(record)
            state.counts[index] += 1
            record[3] = cpu()
            record[1] = wall()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = wall()
                record[4] = cpu()
                stack.pop()
            if extra is not None:
                extra(args, kwargs, result, state.extras)
            return result
        return traced

    def _counter(self, index: int, fn, extra):
        tracer = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            state = tracer._state()
            state.counts[index] += 1
            if extra is not None:
                extra(args, kwargs, result, state.extras)
            return result
        return counted

    def summary(self) -> dict[str, dict[str, float]]:
        """Per target: calls, self_s, wait_s and inclusive wall time; plus extras."""
        out = {name: {"calls": 0, "self_s": 0.0, "wait_s": 0.0, "wall_s": 0.0}
               for name in self.targets}
        extras: dict[str, float] = {}
        for state in self._threads:
            spans = state.spans
            child_wall = [0.0] * len(spans)
            child_cpu = [0.0] * len(spans)
            for index, start, end, cpu0, cpu1, parent, _ in spans:
                if parent >= 0:
                    child_wall[parent] += end - start
                    child_cpu[parent] += cpu1 - cpu0
            for i, (index, start, end, cpu0, cpu1, _, _) in enumerate(spans):
                row = out[self.targets[index]]
                self_cpu = (cpu1 - cpu0) - child_cpu[i]
                row["self_s"] += self_cpu
                row["wait_s"] += (end - start) - child_wall[i] - self_cpu
                row["wall_s"] += end - start
            for index, count in enumerate(state.counts):
                out[self.targets[index]]["calls"] += count
            for key, value in state.extras.items():
                extras[key] = extras.get(key, 0) + value
        return {"functions": out, "extras": extras}

    def write_spans(self, path: str) -> None:
        """Write every span as JSON: target names once, then the spans of each thread.

        Pool threads come and go with each op, so a thread id can appear twice.
        """
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["target", "start", "end", "cpu_start", "cpu_end",
                                  "parent", "op"],
                       "targets": self.targets,
                       "threads": [{"tid": s.tid, "spans": s.spans} for s in self._threads]},
                      fh)


def package_modules() -> dict[str, Any]:
    """The package root and its layer modules, keyed by short name."""
    mods = {"": importlib.import_module(PACKAGE)}
    for layer in LAYERS:
        mods[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
    return mods
