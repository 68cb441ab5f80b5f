"""The benchmark's workloads: the ops each one runs and the check on each op's output.

An op is one call into the package, made by a single client that waits for
it to finish. Ops are generated from the workload seed; the package only
ever sees the generated argv or instance. Functions of the package are
looked up through their module at call time, so a tracer that replaces a
module attribute sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

# Instance parameters the CLI uses when a flag is not given.
ALPHA, KAPPA, BETA1_DEFAULT, BETA2_DEFAULT = 4.0, 0.0, 0.9, 0.3

PLACE_M, PLACE_TAUS = 12, ("0.5", "1", "2")
SWEEP_ARGV = ("sweep", "--M", "12", "--beta1", "0.5", "--axis", "tau",
              "--range", "0.5:2.5:0.5")
SWEEP_TAUS = (0.5, 1.0, 1.5, 2.0, 2.5)
SIM_M, SIM_REQUESTS = 11, 1_000_000
GRID_MS, GRID_TAUS, GRID_BETA2S = (9, 11), (0.5, 1.0, 1.5, 2.0, 2.5), (0.1, 0.3, 0.5)

SIGMAS = 4.0          # simulated edge loads must lie within this many binomial sigmas
RATE_REL_TOL = 1e-12  # pipeline rate may exceed the exact rate by this share


@dataclass(frozen=True)
class Op:
    """One generated input. Ops with equal keys must return equal outputs."""

    key: str
    run: Callable[[], Any]
    expect: Any = None  # what the output check needs to know about the input


@dataclass
class Workload:
    ops: list[Op]
    check: Callable[[Op, Any], str | None]   # returns why the output is wrong, or None
    rate: Callable[[Any], float | None]       # production rate in the output, if any
    arrays: dict[str, int]                    # computed sizes of the largest arrays, bytes


class OpFailed(Exception):
    """The package returned a non-zero exit code."""


def library_size(m_levels: int, beta1: float) -> int:
    return max(1, math.floor((4 ** m_levels) ** beta1))


def zipf_bytes(big_l: int) -> int:
    """Bytes of the three float64 arrays (pmf, prefix and suffix mass) of a Zipf model."""
    return 3 * 8 * (big_l + 1)


def _cli_op(pkg, argv: list[str]) -> Op:
    def run() -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pkg.cli.main(list(argv))
        if code != 0:
            raise OpFailed(f"exit code {code} for {' '.join(argv)}")
        return buf.getvalue()
    return Op(" ".join(argv), run)


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# d2d-cachescale") or lines[1] != header:
        raise ValueError("unexpected CSV header")
    return [line.split(",") for line in lines[2:]]


def _placement_error(x: list[int], big_l: int, l_c: float) -> str | None:
    if any(v < 0 for v in x):
        return f"negative file count in {x}"
    if sum(x) != big_l:
        return f"placement holds {sum(x)} files, library has {big_l}"
    load = math.fsum(v * 4.0 ** (-m) for m, v in enumerate(x))
    if load > l_c + 1e-12:
        return f"placement needs {load} cache per node, budget is {l_c}"
    return None


# --- place_large -------------------------------------------------------------

def _check_place(op: Op, out: str) -> str | None:
    doc = dict(row for row in _csv_rows(out, "key,value"))
    m_levels = int(doc["M"])
    big_l, l_c = int(doc["L"]), float(doc["L_C"])
    if m_levels != PLACE_M or big_l != library_size(PLACE_M, BETA1_DEFAULT):
        return f"instance is M={m_levels}, L={big_l}"
    if not math.isclose(l_c, (4 ** PLACE_M) ** BETA2_DEFAULT, rel_tol=1e-12):
        return f"cache budget is {l_c}"
    x = [int(v) for v in doc["x"].split(";")]
    if len(x) != m_levels + 1:
        return f"placement has {len(x)} levels"
    bad = _placement_error(x, big_l, l_c)
    if bad:
        return bad
    if doc["upper_bound_bits_per_s_hz"] == "":
        return "upper bound missing"
    chain = [float(doc[k]) for k in (
        "lower_bound_floor_bits_per_s_hz", "guarantee_floor_bits_per_s_hz",
        "rate_bits_per_s_hz", "relaxed_rate_bits_per_s_hz", "upper_bound_bits_per_s_hz")]
    if not all(a <= b for a, b in zip(chain, chain[1:])):
        return f"floor <= guarantee <= rate <= relaxed <= upper fails: {chain}"
    return None


def _place_large(pkg, rng: random.Random) -> Workload:
    taus = list(PLACE_TAUS)
    rng.shuffle(taus)
    big_l = library_size(PLACE_M, BETA1_DEFAULT)
    return Workload(
        [_cli_op(pkg, ["place", "--M", str(PLACE_M), "--tau", t]) for t in taus],
        _check_place,
        lambda out: float(dict(_csv_rows(out, "key,value"))["rate_bits_per_s_hz"]),
        {"zipf_float64_arrays": zipf_bytes(big_l)},
    )


# --- sweep_wide --------------------------------------------------------------

SWEEP_HEADER = "axis_value,R_proposed,R_multihop_baseline,R_nocache,R_L_floor,R_U"


def _check_sweep(op: Op, out: str) -> str | None:
    rows = _csv_rows(out, SWEEP_HEADER)
    if [float(r[0]) for r in rows] != list(SWEEP_TAUS):
        return f"axis values are {[r[0] for r in rows]}"
    for r in rows:
        if r[5] == "":
            return f"upper bound missing at tau={r[0]}"
        floor, prop, upper = float(r[4]), float(r[1]), float(r[5])
        if not floor <= prop <= upper:
            return f"R_L_floor <= R_proposed <= R_U fails at tau={r[0]}: {floor}, {prop}, {upper}"
    return None


def _sweep_rate(out: str) -> float:
    rates = [float(r[1]) for r in _csv_rows(out, SWEEP_HEADER)]
    return math.exp(math.fsum(math.log(v) for v in rates) / len(rates))


def _sweep_wide(pkg, rng: random.Random) -> Workload:
    big_l = library_size(12, 0.5)
    return Workload([_cli_op(pkg, list(SWEEP_ARGV))], _check_sweep, _sweep_rate,
                    {"zipf_float64_arrays": zipf_bytes(big_l)})


# --- simulate_draws ----------------------------------------------------------

def _check_simulate(op: Op, out: str) -> str | None:
    rows = _csv_rows(out, "level,empirical_load,analytic_load,relative_error")
    if [int(r[0]) for r in rows] != list(range(1, SIM_M + 1)):
        return f"levels are {[r[0] for r in rows]}"
    for r in rows:
        m, emp, ana = int(r[0]), float(r[1]), float(r[2])
        edges = 4 ** (SIM_M - m + 1)  # level-m tree edges; loads are per edge
        crossings = emp * edges
        if crossings != round(crossings):
            return f"level {m} empirical load {emp} is not a count per edge"
        t = min(max(ana * edges / SIM_REQUESTS, 0.0), 1.0)
        sigma = math.sqrt(SIM_REQUESTS * t * (1.0 - t)) / edges
        if abs(emp - ana) > SIGMAS * sigma + 1e-9 * max(ana, 1.0):
            return f"level {m} load {emp} is more than {SIGMAS} sigma ({sigma}) from {ana}"
    return None


def _simulate_draws(pkg, rng: random.Random) -> Workload:
    # One simulator seed per run: every op repeats the same draws, so the
    # statistical check is made on one sample per run, not on every op.
    seed = rng.randrange(1, 2 ** 31)
    argv = ["simulate", "--M", str(SIM_M), "--requests", str(SIM_REQUESTS), "--seed", str(seed)]
    big_l = library_size(SIM_M, BETA1_DEFAULT)
    return Workload(
        [_cli_op(pkg, argv)], _check_simulate, lambda out: None,
        {"zipf_float64_arrays": zipf_bytes(big_l), "prefix_mass": 8 * (big_l + 1),
         "per_request_arrays": 4 * 8 * SIM_REQUESTS})


# --- solve_grid --------------------------------------------------------------

@dataclass(frozen=True)
class GridResult:
    pipeline_x: tuple[int, ...]
    pipeline_rate: float
    exact_x: tuple[int, ...]
    exact_rate: float


def _grid_op(pkg, m_levels: int, tau: float, beta2: float, model) -> Op:
    grid, caps, pop = model
    l_c = (4 ** m_levels) ** beta2

    def run() -> GridResult:
        outcome = pkg.placement.optimize_placement(grid, caps, pop, l_c)
        exact_x, exact_rate = pkg.exact.solve_exact(grid, caps, pop, l_c)
        return GridResult(outcome.placement.x, outcome.report.rate, exact_x.x, exact_rate)
    return Op(f"M={m_levels} tau={tau} beta2={beta2}", run, (pop.L, l_c))


def _check_grid(op: Op, out: GridResult) -> str | None:
    big_l, l_c = op.expect
    for name, x in (("pipeline", out.pipeline_x), ("exact", out.exact_x)):
        bad = _placement_error(list(x), big_l, l_c)
        if bad:
            return f"{name}: {bad}"
    if not (math.isfinite(out.exact_rate) and out.pipeline_rate > 0.0):
        return f"rates are {out.pipeline_rate}, {out.exact_rate}"
    if out.pipeline_rate > out.exact_rate * (1.0 + RATE_REL_TOL):
        return f"pipeline rate {out.pipeline_rate} exceeds exact rate {out.exact_rate}"
    return None


def _solve_grid(pkg, rng: random.Random) -> Workload:
    # Popularity and PHY models are built once per run, so their cost lands in setup_s.
    models = {}
    for m_levels in GRID_MS:
        grid = pkg.hierarchy.NetworkGrid(m_levels, KAPPA, ALPHA)
        caps = pkg.hierarchy.edge_capacities(grid, pkg.phy.PhyParams(ALPHA))
        for tau in GRID_TAUS:
            pop = pkg.popularity.zipf_pmf(library_size(m_levels, BETA1_DEFAULT), tau)
            models[m_levels, tau] = (grid, caps, pop)
    ops = [_grid_op(pkg, m, t, b, models[m, t])
           for m in GRID_MS for t in GRID_TAUS for b in GRID_BETA2S]
    rng.shuffle(ops)
    sizes = [zipf_bytes(pop.L) for _, _, pop in models.values()]
    return Workload(ops, _check_grid, lambda out: out.pipeline_rate,
                    {"zipf_float64_arrays_all_models": sum(sizes),
                     "zipf_float64_arrays_largest_model": max(sizes)})


_GENERATORS = {"place_large": _place_large, "sweep_wide": _sweep_wide,
             "simulate_draws": _simulate_draws, "solve_grid": _solve_grid}
NAMES = tuple(_GENERATORS)


def build(name: str, pkg, seed: int) -> Workload:
    """Generate workload `name` from `seed`; `pkg` holds the package's modules."""
    return _GENERATORS[name](pkg, random.Random(f"{name}:{seed}"))
