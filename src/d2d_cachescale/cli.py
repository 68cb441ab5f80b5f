"""Command-line front end.

Subcommands: place (solve one instance), sweep (vary beta2/tau/alpha and
tabulate proposed vs baselines), scaling (exponent curves and lower-bound
values over n), oracle (cross-check the solver against the exact and
brute-force solvers on a small instance), simulate (flow-level delivery
simulation). Output is versioned CSV (default) or JSON; every command is
deterministic given its flags and seed.

Config precedence: CLI flags override config-file keys override defaults.
The config file is flat ``key=value`` text using the long flag names.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

from . import SCHEMA_VERSION
from .analysis import (
    achievable_exponent,
    baseline_exponent,
    converse_exponent,
    critical_skewness,
    lower_bound,
    throughput_bounds,
)
from .delivery import SimConfig, report_csv_rows, simulate
from .errors import (
    CacheScaleError,
    DomainError,
    InfeasibleProblemError,
    InvalidParameterError,
    InvariantViolationError,
    SizeGuardError,
)
from .exact import brute_force, solve_exact
from .hierarchy import NetworkGrid, capacity_envelope, edge_capacities
from .phy import PhyParams, cluster_rate, exact_log4
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
        return 4 ** self.m_levels

    @property
    def library_size(self) -> int:
        if self.l_override is not None:
            return self.l_override
        return max(1, math.floor(self.a1 * self.n ** self.beta1))

    @property
    def cache_budget(self) -> float:
        if self.lc_override is not None:
            return self.lc_override
        return self.a2 * self.n ** self.beta2

    def validate(self) -> None:
        L, l_c = self.library_size, self.cache_budget
        if l_c < L / self.n - 1e-12:
            raise InfeasibleProblemError(
                f"L_C = {l_c} is below the minimum L/n = {L / self.n}: "
                "the network cannot hold one copy of the library")
        if l_c >= L:
            raise InvalidParameterError(
                f"L_C = {l_c} stores the whole library (L = {L}); nothing to optimise")

    def build(self):
        """Instantiate (grid, params, caps, pop) for this configuration."""
        grid = NetworkGrid(self.m_levels, self.kappa, self.alpha)
        params = PhyParams(self.alpha, self.rc_fraction)
        caps = edge_capacities(grid, params)
        pop = zipf_pmf(self.library_size, self.tau)
        return grid, params, caps, pop


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
        p.add_argument("--M", dest="m_levels", type=int, default=None,
                       help="hierarchy depth (n = 4^M)")
        p.add_argument("--n", dest="n", type=int, default=None,
                       help="node count (must be a power of 4)")
        p.add_argument("--kappa", type=float, default=None, help="area exponent")
        p.add_argument("--alpha", type=float, default=None, help="path loss exponent")
        p.add_argument("--beta1", type=float, default=None, help="library growth order")
        p.add_argument("--beta2", type=float, default=None, help="cache growth order")
        p.add_argument("--a1", type=float, default=None, help="library coefficient")
        p.add_argument("--a2", type=float, default=None, help="cache coefficient")
        p.add_argument("--tau", type=float, default=None, help="popularity skewness")
        p.add_argument("--l", dest="l", type=int, default=None,
                       help="explicit library size (overrides a1 n^beta1)")
        p.add_argument("--lc", dest="lc", type=float, default=None,
                       help="explicit cache budget (overrides a2 n^beta2)")
        p.add_argument("--bandwidth-hz", dest="bandwidth_hz", type=float, default=None,
                       help="multiply rates by this bandwidth (default 1: bit/s/Hz)")
        p.add_argument("--seed", type=int, default=None, help="RNG seed")
        p.add_argument("--rc-fraction", dest="rc_fraction", type=float, default=None,
                       help="cooperative spectral-efficiency fraction in (0, 1]")
        p.add_argument("--axis", type=str, default=None,
                       choices=["beta2", "tau", "alpha"], help="sweep axis")
        p.add_argument("--range", dest="range_spec", type=str, default=None,
                       help="axis range lo:hi:step")
        p.add_argument("--format", dest="fmt", type=str, default=None,
                       choices=["csv", "json"], help="output format")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        p.add_argument("--requests", type=int, default=None,
                       help="simulated request count")
    return parser


_DEFAULTS = {
    "m_levels": 9, "kappa": 0.0, "alpha": 4.0, "beta1": 0.9, "beta2": 0.3,
    "a1": 1.0, "a2": 1.0, "tau": 1.0, "bandwidth_hz": 1.0, "seed": 12345,
    "rc_fraction": 1.0, "l": None, "lc": None, "axis": "beta2",
    "range_spec": None, "fmt": "csv", "out": None, "requests": 100000,
}

_CONVERTERS = {
    "m_levels": int, "n": int, "kappa": float, "alpha": float, "beta1": float,
    "beta2": float, "a1": float, "a2": float, "tau": float, "l": int,
    "lc": float, "bandwidth_hz": float, "seed": int, "rc_fraction": float,
    "axis": str, "range_spec": str, "fmt": str, "out": str, "requests": int,
}

_CONFIG_ALIASES = {"M": "m_levels", "range": "range_spec", "format": "fmt"}


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
            key, _, val = line.partition("=")
            key, val = key.strip().replace("-", "_"), val.strip()
            key = _CONFIG_ALIASES.get(key, key)
            if key not in _CONVERTERS:
                raise InvalidParameterError(f"{path}:{lineno}: unknown key {key!r}")
            convert = _CONVERTERS[key]
            try:
                values[key] = convert(val)
            except ValueError as exc:
                raise InvalidParameterError(
                    f"{path}:{lineno}: {key} expects {convert.__name__}, got {val!r}") from exc
    return values


def _resolve(args, overrides: dict | None = None):
    """Apply CLI > config-file > defaults precedence and build the config."""
    fileconf = _read_config_file(args.config) if args.config else {}
    merged = dict(_DEFAULTS)
    if overrides:
        merged.update(overrides)
    merged.update(fileconf)
    for key in _CONVERTERS:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            merged[key] = cli_val
    n = merged.get("n")
    if n is not None:
        m = exact_log4(n)
        if m is None:
            raise InvalidParameterError(f"node count must be a power of 4, got {n}")
        merged["m_levels"] = m
    cfg = ExperimentConfig(
        m_levels=merged["m_levels"], kappa=merged["kappa"], alpha=merged["alpha"],
        beta1=merged["beta1"], beta2=merged["beta2"], a1=merged["a1"],
        a2=merged["a2"], tau=merged["tau"], bandwidth_hz=merged["bandwidth_hz"],
        seed=merged["seed"], rc_fraction=merged["rc_fraction"],
        l_override=merged["l"], lc_override=merged["lc"],
    )
    extras = {k: merged[k] for k in ("axis", "range_spec", "fmt", "out", "requests")}
    return cfg, extras


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit_csv(header: list[str], rows: list[tuple], out: str | None) -> None:
    lines = [f"# {SCHEMA_VERSION}", ",".join(header)]
    lines.extend(",".join(_fmt_cell(c) for c in row) for row in rows)
    _write("\n".join(lines) + "\n", out)


def _emit_json(payload: dict, out: str | None) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    _write(json.dumps(payload, indent=2) + "\n", out)


def _write(text: str, out: str | None) -> None:
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
    if step <= 0 or hi < lo:
        raise InvalidParameterError(f"range needs step > 0 and hi >= lo, got {spec!r}")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + i * step for i in range(count)]


def cmd_place(cfg: ExperimentConfig, fmt: str, out: str | None) -> int:
    cfg.validate()
    grid, params, caps, pop = cfg.build()
    l_c = cfg.cache_budget
    outcome = optimize_placement(grid, caps, pop, l_c)
    bounds = throughput_bounds(grid, params, pop, l_c, side="proposed")
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
    if fmt == "json":
        _emit_json(doc, out)
    else:
        rows = [(k, ";".join(str(v) for v in doc["x"]) if k == "x" else doc[k])
                for k in doc]
        _emit_csv(["key", "value"], rows, out)
    return _EXIT_OK


def _sweep_point(cfg: ExperimentConfig, axis: str, value: float) -> tuple:
    point = replace(cfg, **{axis: value})
    point.validate()
    grid, params, caps, pop = point.build()
    caps_mh = edge_capacities(grid, params, multihop_only=True)
    l_c = point.cache_budget
    r_prop = optimize_placement(grid, caps, pop, l_c).report.rate
    r_mh = optimize_placement(grid, caps_mh, pop, l_c).report.rate
    r_nocache = cluster_rate(point.n, grid, params).rate
    bounds = throughput_bounds(grid, params, pop, l_c, side="proposed")
    bw = point.bandwidth_hz
    upper = bounds.r_upper * bw if bounds.r_upper is not None else None
    return (value, r_prop * bw, r_mh * bw, r_nocache * bw, bounds.floor * bw, upper)


def cmd_sweep(cfg: ExperimentConfig, axis: str, range_spec: str | None,
              fmt: str, out: str | None) -> int:
    defaults = {"beta2": "0.1:0.8:0.1", "tau": "0:3:0.25", "alpha": "2.5:4:0.25"}
    values = _parse_range(range_spec or defaults[axis])
    rows = [_sweep_point(cfg, axis, v) for v in values]
    header = ["axis_value", "R_proposed", "R_multihop_baseline", "R_nocache",
              "R_L_floor", "R_U"]
    if fmt == "json":
        _emit_json({"axis": axis, "columns": header,
                    "rows": [list(r) for r in rows]}, out)
    else:
        _emit_csv(header, rows, out)
    return _EXIT_OK


def cmd_scaling(cfg: ExperimentConfig, range_spec: str | None,
                fmt: str, out: str | None) -> int:
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
        n = 4 ** m_levels
        grid = NetworkGrid(m_levels, cfg.kappa, cfg.alpha)
        env = capacity_envelope(grid, params)
        big_l = max(1, math.floor(cfg.a1 * n ** cfg.beta1))
        l_c = cfg.a2 * n ** cfg.beta2
        for t in taus:
            val, _ = lower_bound(env.c_lower, env.gamma_lower, big_l, l_c, m_levels, t)
            rows.append(("lower_bound", t, n, None, None, None, val, None, None, None))
    header = ["record", "tau", "n", "achievable", "baseline", "converse",
              "lower_bound", "tau_a", "tau_b_proposed", "tau_b_baseline"]
    if fmt == "json":
        _emit_json({"columns": header, "rows": [list(r) for r in rows]}, out)
    else:
        _emit_csv(header, rows, out)
    return _EXIT_OK


def cmd_oracle(cfg: ExperimentConfig, fmt: str, out: str | None) -> int:
    cfg.validate()
    grid, params, caps, pop = cfg.build()
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
    if fmt == "json":
        _emit_json({"columns": ["scheme", "rate_bits_per_s_hz", "x"],
                    "rows": [list(r) for r in rows]}, out)
    else:
        _emit_csv(["scheme", "rate_bits_per_s_hz", "x"], rows, out)
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
    grid, params, caps, pop = cfg.build()
    l_c = cfg.cache_budget
    outcome = optimize_placement(grid, caps, pop, l_c)
    report = simulate(SimConfig(grid, outcome.placement, pop, requests, cfg.seed))
    rows = report_csv_rows(report)
    header = ["level", "empirical_load", "analytic_load", "relative_error"]
    if fmt == "json":
        _emit_json({"columns": header, "rows": [list(r) for r in rows],
                    "local_hit_fraction": report.local_hit_fraction}, out)
    else:
        _emit_csv(header, rows, out)
    return _EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        overrides = {"kappa": 1.0} if args.command == "scaling" else None
        cfg, extras = _resolve(args, overrides)
        if args.command == "place":
            return cmd_place(cfg, extras["fmt"], extras["out"])
        if args.command == "sweep":
            return cmd_sweep(cfg, extras["axis"], extras["range_spec"],
                             extras["fmt"], extras["out"])
        if args.command == "scaling":
            return cmd_scaling(cfg, extras["range_spec"], extras["fmt"], extras["out"])
        if args.command == "oracle":
            return cmd_oracle(cfg, extras["fmt"], extras["out"])
        if args.command == "simulate":
            return cmd_simulate(cfg, extras["requests"], extras["fmt"], extras["out"])
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
