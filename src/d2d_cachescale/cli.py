"""Command-line front end.

Subcommands: place (solve one instance), sweep (vary beta2/tau/alpha and
tabulate proposed vs baselines), scaling (exponent curves and lower-bound
values over n), oracle (cross-check the solver against the exact and
brute-force solvers on a small instance), simulate (flow-level delivery
simulation). Output is versioned CSV (default) or JSON; every command is
deterministic given its flags and seed.

Config precedence: CLI flags override config-file keys override defaults.
The config file is flat ``key=value`` text; a key is a flag name without
its dashes or the option's dest (see `_OPTIONS`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import NamedTuple

from . import SCHEMA_VERSION
from .analysis import (
    achievable_exponent,
    baseline_exponent,
    converse_exponent,
    critical_skewness,
    lower_bound,
    throughput_bounds,
)
from .delivery import SimConfig, check_request_count, report_csv_rows, simulate
from .errors import (
    CacheScaleError,
    DomainError,
    InfeasibleProblemError,
    InvalidParameterError,
    InvariantViolationError,
    SizeGuardError,
)
from .exact import brute_force, solve_exact
from .hierarchy import NetworkGrid, NetworkInterference, capacity_envelope, edge_capacities
from .phy import PhyParams, exact_log4
from .placement import guarantee_factor, optimize_placement, placement_document
from .popularity import zipf_pmf

_EXIT_OK = 0
_EXIT_INFEASIBLE = 1
_EXIT_INVARIANT = 2
_EXIT_BAD_ARGS = 3


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved instance parameters shared by all subcommands."""

    m_levels: int
    kappa: float
    alpha: float
    beta1: float
    beta2: float
    a1: float
    a2: float
    tau: float
    bandwidth_hz: float
    seed: int
    rc_fraction: float
    l_override: int | None = None
    lc_override: float | None = None

    @property
    def n(self) -> int:
        return NetworkGrid(self.m_levels, self.kappa, self.alpha).n

    def _growth(self, name: str, coef: float, order: float) -> float:
        """coef * n^order; a value past the float range is a bad argument."""
        try:
            if (value := coef * self.n ** order) < math.inf:
                return value
        except OverflowError:
            pass
        raise InvalidParameterError(f"{name} = {coef!r} * {self.n}^{order!r} overflows a float")

    @property
    def library_size(self) -> int:
        if self.l_override is not None:
            return self.l_override
        return max(1, math.floor(self._growth("L", self.a1, self.beta1)))

    @property
    def cache_budget(self) -> float:
        if self.lc_override is not None:
            return self.lc_override
        return self._growth("L_C", self.a2, self.beta2)

    def validate(self) -> None:
        L, l_c = self.library_size, self.cache_budget
        if l_c < L / self.n - 1e-12:
            raise InfeasibleProblemError(
                f"L_C = {l_c} is below the minimum L/n = {L / self.n}: "
                "the network cannot hold one copy of the library")
        if l_c >= L:
            raise InvalidParameterError(
                f"L_C = {l_c} stores the whole library (L = {L}); nothing to optimise")

    @property
    def phy_key(self) -> tuple:
        """The inputs of build_phy: configurations with equal keys share its outputs."""
        return (self.m_levels, self.kappa, self.alpha, self.rc_fraction)

    def build_phy(self):
        """Instantiate (grid, params, interference, caps) for this configuration.

        Building the capacity table computes the network's two interference
        sums into `interference`; callers pass it on to the bounds.
        """
        grid = NetworkGrid(self.m_levels, self.kappa, self.alpha)
        params = PhyParams(self.alpha, self.rc_fraction)
        interference = NetworkInterference(grid, params)
        caps = edge_capacities(grid, params, interference=interference)
        return grid, params, interference, caps

    def build(self):
        """Instantiate (grid, params, interference, caps, pop) for this configuration."""
        return (*self.build_phy(), zipf_pmf(self.library_size, self.tau))


# Default range of each sweep axis; its keys are the axis choices.
_SWEEP_RANGES = {"beta2": "0.1:0.8:0.1", "tau": "0:3:0.25", "alpha": "2.5:4:0.25"}

# Largest number of points a --range may ask for; the default ranges have at most 61.
_MAX_RANGE_POINTS = 10_000


class _Option(NamedTuple):
    """One option, for the flag and the config-file key alike."""

    flag: str
    dest: str
    type: type
    default: object
    help: str
    choices: tuple[str, ...] | None = None


# Every option but --config. A config-file key is a dest or a flag name
# without its dashes, with '-' read as '_'.
_OPTIONS = (
    _Option("--M", "m_levels", int, 9, "hierarchy depth (n = 4^M)"),
    _Option("--n", "n", int, None, "node count (must be a power of 4)"),
    _Option("--kappa", "kappa", float, 0.0, "area exponent"),
    _Option("--alpha", "alpha", float, 4.0, "path loss exponent"),
    _Option("--beta1", "beta1", float, 0.9, "library growth order"),
    _Option("--beta2", "beta2", float, 0.3, "cache growth order"),
    _Option("--a1", "a1", float, 1.0, "library coefficient"),
    _Option("--a2", "a2", float, 1.0, "cache coefficient"),
    _Option("--tau", "tau", float, 1.0, "popularity skewness"),
    _Option("--l", "l", int, None, "explicit library size (overrides a1 n^beta1)"),
    _Option("--lc", "lc", float, None, "explicit cache budget (overrides a2 n^beta2)"),
    _Option("--bandwidth-hz", "bandwidth_hz", float, 1.0,
            "multiply rates by this bandwidth (default 1: bit/s/Hz)"),
    _Option("--seed", "seed", int, 12345, "RNG seed"),
    _Option("--rc-fraction", "rc_fraction", float, 1.0,
            "cooperative spectral-efficiency fraction in (0, 1]"),
    _Option("--axis", "axis", str, "beta2", "sweep axis", tuple(_SWEEP_RANGES)),
    _Option("--range", "range_spec", str, None, "axis range lo:hi:step"),
    _Option("--format", "fmt", str, "csv", "output format", ("csv", "json")),
    _Option("--out", "out", str, None, "output path (default stdout)"),
    _Option("--requests", "requests", int, 100000, "simulated request count"),
)

_CONFIG_KEYS = {key: opt for opt in _OPTIONS
                for key in (opt.dest, opt.flag.lstrip("-").replace("-", "_"))}


class _Parser(argparse.ArgumentParser):
    """argparse reports usage errors with exit code 2; remap them to 3."""

    def error(self, message):  # noqa: A002 - argparse API
        raise InvalidParameterError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="d2d-cachescale",
                     description="Hierarchical D2D caching throughput toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("place", "solve one placement instance"),
        ("sweep", "sweep one axis and tabulate proposed vs baselines"),
        ("scaling", "scaling-law exponents and bound curves"),
        ("oracle", "cross-check solvers on a small instance"),
        ("simulate", "flow-level delivery simulation"),
    ]:
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", type=str, default=None,
                       help="flat key=value config file")
        # default None: an unset flag must not override a config-file key
        for opt in _OPTIONS:
            p.add_argument(opt.flag, dest=opt.dest, type=opt.type, default=None,
                           choices=opt.choices, help=opt.help)
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidParameterError(
                    f"{path}:{lineno}: expected key=value, got {line!r}")
            name, _, val = line.partition("=")
            name, val = name.strip().replace("-", "_"), val.strip()
            opt = _CONFIG_KEYS.get(name)
            if opt is None:
                raise InvalidParameterError(f"{path}:{lineno}: unknown key {name!r}")
            try:
                values[opt.dest] = opt.type(val)
            except ValueError as exc:
                raise InvalidParameterError(
                    f"{path}:{lineno}: {opt.dest} expects {opt.type.__name__}, "
                    f"got {val!r}") from exc
            if opt.choices is not None and val not in opt.choices:
                raise InvalidParameterError(
                    f"{path}:{lineno}: {name} must be one of {', '.join(opt.choices)}, "
                    f"got {val!r}")
    return values


def _resolve(args, overrides: dict | None = None):
    """Apply CLI > config-file > defaults precedence and build the config."""
    fileconf = _read_config_file(args.config) if args.config else {}
    merged = {opt.dest: opt.default for opt in _OPTIONS}
    if overrides:
        merged.update(overrides)
    merged.update(fileconf)
    for opt in _OPTIONS:
        cli_val = getattr(args, opt.dest, None)
        if cli_val is not None:
            merged[opt.dest] = cli_val
    for opt in _OPTIONS:
        value = merged[opt.dest]
        if opt.type is float and value is not None and not math.isfinite(value):
            raise InvalidParameterError(f"{opt.flag} must be finite, got {value!r}")
    if merged["seed"] < 0:
        raise InvalidParameterError(f"--seed must be >= 0, got {merged['seed']}")
    n = merged.pop("n")
    if n is not None:
        m = exact_log4(n)
        if m is None:
            raise InvalidParameterError(f"node count must be a power of 4, got {n}")
        merged["m_levels"] = m
    extras = {k: merged.pop(k) for k in ("axis", "range_spec", "fmt", "out", "requests")}
    cfg = ExperimentConfig(l_override=merged.pop("l"), lc_override=merged.pop("lc"), **merged)
    return cfg, extras


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(fmt: str, out: str | None, header: list[str], rows: list[tuple],
          doc: dict) -> None:
    """Write `rows` under `header` as versioned CSV, or `doc` as versioned JSON."""
    if fmt == "json":
        text = json.dumps({"schema_version": SCHEMA_VERSION, **doc}, indent=2) + "\n"
    else:
        lines = [f"# {SCHEMA_VERSION}", ",".join(header)]
        lines.extend(",".join(_fmt_cell(c) for c in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_range(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise InvalidParameterError(f"range must be lo:hi:step, got {spec!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise InvalidParameterError(f"range must be numeric lo:hi:step, got {spec!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))):
        raise InvalidParameterError(f"range must be finite lo:hi:step, got {spec!r}")
    if step <= 0 or hi < lo:
        raise InvalidParameterError(f"range needs step > 0 and hi >= lo, got {spec!r}")
    span = (hi - lo) / step + 1e-9
    if not span < _MAX_RANGE_POINTS:  # `not <` also catches a span that overflows to inf
        raise SizeGuardError(
            f"range {spec!r} exceeds the guard of {_MAX_RANGE_POINTS} points")
    return [lo + i * step for i in range(int(math.floor(span)) + 1)]


def cmd_place(cfg: ExperimentConfig, fmt: str, out: str | None) -> int:
    cfg.validate()
    grid, params, interference, caps, pop = cfg.build()
    l_c = cfg.cache_budget
    outcome = optimize_placement(grid, caps, pop, l_c)
    bounds = throughput_bounds(grid, params, pop, l_c, interference=interference)
    bw = cfg.bandwidth_hz
    rep = outcome.report
    doc = placement_document(outcome.placement, l_c, rep.rate)
    doc.update({
        "rate_bits_per_s": rep.rate * bw,
        "bandwidth_hz": bw,
        "binding_level": rep.binding_level,
        "m_b": rep.m_b,
        "relaxed_rate_bits_per_s_hz": outcome.relaxed.r_star,
        "guarantee_floor_bits_per_s_hz": rep.guarantee_floor,
        "lower_bound_floor_bits_per_s_hz": bounds.floor,
        "upper_bound_bits_per_s_hz": bounds.r_upper,
    })
    rows = [(k, ";".join(map(str, doc["x"])) if k == "x" else doc[k]) for k in doc]
    _emit(fmt, out, ["key", "value"], rows, doc)
    return _EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, axis: str, range_spec: str | None,
              fmt: str, out: str | None) -> int:
    """Tabulate the proposed, multihop and no-cache rates and the bounds along one axis.

    Each point is validated on its own, in axis order, and reuses the
    models of the point before it when their inputs are equal: the PHY
    side (grid, params, the two interference sums, the full and
    multihop-only capacity tables) is rebuilt only when `phy_key` changes
    (the alpha axis), the Zipf model only when (L, tau) changes (the tau
    axis). R_nocache is the top level of the full table. Nothing is kept
    beyond this call.
    """
    values = _parse_range(range_spec or _SWEEP_RANGES[axis])
    rows = []
    phy_key = pop_key = None
    for value in values:
        point = replace(cfg, **{axis: value})
        point.validate()
        if point.phy_key != phy_key:
            grid, params, interference, caps = point.build_phy()
            caps_mh = edge_capacities(grid, params, multihop_only=True,
                                      interference=interference)
            phy_key = point.phy_key
        if (point.library_size, point.tau) != pop_key:
            pop = None  # release the previous model before building the next
            pop = zipf_pmf(point.library_size, point.tau)
            pop_key = (point.library_size, point.tau)
        l_c = point.cache_budget
        r_prop = optimize_placement(grid, caps, pop, l_c).report.rate
        r_mh = optimize_placement(grid, caps_mh, pop, l_c).report.rate
        r_nocache = caps.rates[grid.M].rate
        bounds = throughput_bounds(grid, params, pop, l_c, interference=interference)
        bw = point.bandwidth_hz
        upper = bounds.r_upper * bw if bounds.r_upper is not None else None
        rows.append((value, r_prop * bw, r_mh * bw, r_nocache * bw, bounds.floor * bw, upper))
    header = ["axis_value", "R_proposed", "R_multihop_baseline", "R_nocache",
              "R_L_floor", "R_U"]
    _emit(fmt, out, header, rows, {"axis": axis, "columns": header, "rows": rows})
    return _EXIT_OK


def cmd_scaling(cfg: ExperimentConfig, range_spec: str | None,
                fmt: str, out: str | None) -> int:
    """Tabulate the exponents over tau and the lower bound over M = 8..12.

    The table does not depend on --M/--n, but a level count that every
    other command refuses is refused here too.
    """
    NetworkGrid(cfg.m_levels, cfg.kappa, cfg.alpha)
    taus = _parse_range(range_spec or "0:3:0.05")
    tau_a, tau_b_prop = critical_skewness(cfg.alpha, "proposed")
    _, tau_b_base = critical_skewness(cfg.alpha, "baseline")
    marks = {tau_a, tau_b_prop, tau_b_base}
    keyed = {round(t, 12): t for t in taus}
    for t in marks:
        keyed.setdefault(round(t, 12), t)
    taus = [keyed[k] for k in sorted(keyed)]
    rows = []
    for t in taus:
        ach = achievable_exponent(cfg.beta1, cfg.beta2, cfg.a1, cfg.a2, t, cfg.alpha)
        base = baseline_exponent(cfg.beta1, cfg.beta2, cfg.a1, cfg.a2, t)
        conv = converse_exponent(cfg.beta1, cfg.beta2, cfg.a1, cfg.a2, t, cfg.alpha)
        rows.append(("exponent", t, None, ach.exponent, base.exponent, conv.exponent,
                     None, int(t == tau_a), int(t == tau_b_prop), int(t == tau_b_base)))
    params = PhyParams(cfg.alpha, cfg.rc_fraction)
    for m_levels in range(8, 13):
        point = replace(cfg, m_levels=m_levels, l_override=None, lc_override=None)
        env = capacity_envelope(NetworkGrid(m_levels, cfg.kappa, cfg.alpha), params)
        big_l, l_c = point.library_size, point.cache_budget
        for t in taus:
            val, _ = lower_bound(env.c_lower, env.gamma_lower, big_l, l_c, m_levels, t)
            rows.append(("lower_bound", t, point.n, None, None, None, val, None, None, None))
    header = ["record", "tau", "n", "achievable", "baseline", "converse",
              "lower_bound", "tau_a", "tau_b_proposed", "tau_b_baseline"]
    _emit(fmt, out, header, rows, {"columns": header, "rows": rows})
    return _EXIT_OK


def cmd_oracle(cfg: ExperimentConfig, fmt: str, out: str | None) -> int:
    cfg.validate()
    grid, _, _, caps, pop = cfg.build()
    l_c = cfg.cache_budget
    algo = optimize_placement(grid, caps, pop, l_c)
    exact_x, exact_rate = solve_exact(grid, caps, pop, l_c)
    brute_x, brute_rate = brute_force(grid, caps, pop, l_c)
    factor = guarantee_factor(grid.M, cfg.tau)
    rows = [
        ("algorithm1", algo.report.rate, ";".join(map(str, algo.placement.x))),
        ("exact", exact_rate, ";".join(map(str, exact_x.x))),
        ("brute_force", brute_rate, ";".join(map(str, brute_x.x))),
        ("brute_floor", brute_rate * factor, ""),
    ]
    header = ["scheme", "rate_bits_per_s_hz", "x"]
    _emit(fmt, out, header, rows, {"columns": header, "rows": rows})
    violations = []
    if exact_rate != brute_rate:
        violations.append(f"exact rate {exact_rate} != brute-force rate {brute_rate}")
    if algo.report.rate > brute_rate * (1.0 + 1e-12):
        violations.append("algorithm1 exceeds the exhaustive optimum")
    if algo.report.rate < brute_rate * factor * (1.0 - 1e-12):
        violations.append("algorithm1 falls below the guarantee floor")
    if violations:
        for v in violations:
            print(f"oracle violation: {v}", file=sys.stderr)
        return _EXIT_INVARIANT
    return _EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, requests: int, fmt: str,
                 out: str | None) -> int:
    cfg.validate()
    check_request_count(requests)
    grid, _, _, caps, pop = cfg.build()
    l_c = cfg.cache_budget
    outcome = optimize_placement(grid, caps, pop, l_c)
    report = simulate(SimConfig(grid, outcome.placement, pop, requests, cfg.seed))
    rows = report_csv_rows(report)
    header = ["level", "empirical_load", "analytic_load", "relative_error"]
    _emit(fmt, out, header, rows, {"columns": header, "rows": rows,
                                   "local_hit_fraction": report.local_hit_fraction})
    return _EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        overrides = {"kappa": 1.0} if args.command == "scaling" else None
        cfg, extras = _resolve(args, overrides)
        fmt, out = extras["fmt"], extras["out"]
        if args.command == "place":
            return cmd_place(cfg, fmt, out)
        if args.command == "sweep":
            return cmd_sweep(cfg, extras["axis"], extras["range_spec"], fmt, out)
        if args.command == "scaling":
            return cmd_scaling(cfg, extras["range_spec"], fmt, out)
        if args.command == "oracle":
            return cmd_oracle(cfg, fmt, out)
        if args.command == "simulate":
            return cmd_simulate(cfg, extras["requests"], fmt, out)
        raise InvalidParameterError(f"unknown command {args.command!r}")
    except InfeasibleProblemError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return _EXIT_INFEASIBLE
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return _EXIT_INVARIANT
    except (InvalidParameterError, DomainError, SizeGuardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BAD_ARGS
    except CacheScaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
