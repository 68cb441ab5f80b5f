"""Command-line front end.

Subcommands: place (solve one instance), sweep (vary beta2/tau/alpha and
tabulate proposed vs baselines), scaling (exponent curves and lower-bound
values over n), oracle (cross-check the solver against the exact and
brute-force solvers on a small instance), simulate (flow-level delivery
simulation). Output is versioned CSV (default) or JSON; every command is
deterministic given its flags and seed.

A flag is one row of `_OPTIONS`, which also makes it a field of
`ExperimentConfig`, and a subcommand one row of `_COMMANDS`; every
command accepts every flag, receives the one resolved `ExperimentConfig`
and lays out its own output. Precedence: CLI flags override config-file
keys override the command's defaults override the option defaults. The
config file is flat ``key=value`` text; a key is a flag name without its
dashes or the option's dest.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import make_dataclass, replace
from typing import Callable, NamedTuple

from . import SCHEMA_VERSION
from .analysis import (
    achievable_exponent,
    critical_skewness,
    lower_bound,
    throughput_bounds,
)
from .delivery import SimConfig, check_request_count, simulate
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
from .phy import PhyParams, exact_log4
from .placement import BUDGET_SLACK, guarantee_floor, optimize_placement
from .popularity import zipf_pmf

_EXIT_OK = 0
_EXIT_INFEASIBLE = 1
_EXIT_INVARIANT = 2
_EXIT_BAD_ARGS = 3


class _ConfigMethods:
    """What ExperimentConfig derives from its fields and builds from them."""

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
        if self.l is not None:
            return self.l
        return max(1, math.floor(self._growth("L", self.a1, self.beta1)))

    @property
    def cache_budget(self) -> float:
        if self.lc is not None:
            return self.lc
        return self._growth("L_C", self.a2, self.beta2)

    def validate(self) -> None:
        L = self.library_size
        if L < 1:
            raise InvalidParameterError(f"--l must be >= 1, got {L}")
        l_c = self.cache_budget
        if l_c < L / self.n - BUDGET_SLACK:
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
        """Instantiate (grid, params, caps); the grid keeps the interference sums."""
        grid = NetworkGrid(self.m_levels, self.kappa, self.alpha)
        params = PhyParams(self.alpha, self.rc_fraction)
        return grid, params, edge_capacities(grid, params)

    def build(self):
        """Instantiate (grid, params, caps, pop) for this configuration."""
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

# Every resolved option under its dest, in `_OPTIONS` order, but --n, which
# resolves to m_levels; an option whose default is None may stay None.
ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    [(opt.dest, opt.type if opt.default is not None else opt.type | None)
     for opt in _OPTIONS if opt.dest != "n"],
    bases=(_ConfigMethods,), frozen=True, namespace={"__module__": __name__})


class _Parser(argparse.ArgumentParser):
    """argparse reports usage errors with exit code 2; remap them to 3."""

    def error(self, message):  # noqa: A002 - argparse API
        raise InvalidParameterError(message)


class _Command(NamedTuple):
    """One subcommand: its help line, its function and the option defaults it sets."""

    help: str
    run: Callable[[ExperimentConfig], int]
    defaults: dict = {}


@functools.cache  # built on the first call, reused by later calls of main
def _build_parser() -> _Parser:
    parser = _Parser(prog="d2d-cachescale",
                     description="Hierarchical D2D caching throughput toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
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


def _resolve(args) -> ExperimentConfig:
    """Apply CLI > config-file > command > option defaults and build the config."""
    merged = {opt.dest: opt.default for opt in _OPTIONS}
    merged.update(_COMMANDS[args.command].defaults)
    merged.update(_read_config_file(args.config) if args.config else {})
    for opt in _OPTIONS:
        if getattr(args, opt.dest) is not None:
            merged[opt.dest] = getattr(args, opt.dest)
        value = merged[opt.dest]
        if opt.type is float and value is not None and not math.isfinite(value):
            raise InvalidParameterError(f"{opt.flag} must be finite, got {value!r}")
    if merged["seed"] < 0:
        raise InvalidParameterError(f"--seed must be >= 0, got {merged['seed']}")
    if merged["bandwidth_hz"] <= 0:
        raise InvalidParameterError(f"--bandwidth-hz must be > 0, got {merged['bandwidth_hz']!r}")
    n = merged.pop("n")
    if n is not None:
        m = exact_log4(n)
        if m is None:
            raise InvalidParameterError(f"node count must be a power of 4, got {n}")
        merged["m_levels"] = m
    return ExperimentConfig(**merged)


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _json_value(v):
    """v with every non-finite float, at any depth of lists, tuples and
    dicts, replaced by None: strict JSON has no Infinity or NaN."""
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, (list, tuple)):
        return [_json_value(c) for c in v]
    if isinstance(v, dict):
        return {k: _json_value(c) for k, c in v.items()}
    return v


def _emit(cfg: ExperimentConfig, header: list[str], rows: list[tuple], doc: dict) -> None:
    """Write `rows` under `header` as versioned CSV, or `doc` as versioned JSON,
    in cfg's format to cfg.out (default stdout). JSON writes a non-finite
    float as null; CSV writes inf."""
    if cfg.fmt == "json":
        doc = _json_value({"schema_version": SCHEMA_VERSION, **doc})
        text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    else:
        lines = [f"# {SCHEMA_VERSION}", ",".join(header)]
        lines.extend(",".join(_fmt_cell(c) for c in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _scaled(rate: float, bandwidth_hz: float) -> float:
    """rate * bandwidth_hz; a finite rate whose product overflows is a bad argument."""
    value = rate * bandwidth_hz
    if math.isfinite(rate) and not math.isfinite(value):
        raise InvalidParameterError(
            f"--bandwidth-hz {bandwidth_hz!r} times the rate {rate!r} bit/s/Hz overflows a float")
    return value


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


def _solve(cfg: ExperimentConfig, *checks: Callable[[], None]):
    """Validate the instance, run the command's own `checks`, build the models
    and run the placement pipeline: (grid, params, caps, pop, l_c, outcome)."""
    cfg.validate()
    for check in checks:
        check()
    grid, params, caps, pop = cfg.build()
    l_c = cfg.cache_budget
    return grid, params, caps, pop, l_c, optimize_placement(grid, caps, pop, l_c)


def cmd_place(cfg: ExperimentConfig) -> int:
    grid, params, _, pop, l_c, outcome = _solve(cfg)
    bounds = throughput_bounds(grid, params, pop, l_c)
    bw = cfg.bandwidth_hz
    x, rep = outcome.placement, outcome.report
    doc = {
        "M": x.M, "L": x.L, "L_C": l_c, "x": list(x.x),
        "rate_bits_per_s_hz": rep.rate,
        "rate_bits_per_s": _scaled(rep.rate, bw),
        "bandwidth_hz": bw,
        "binding_level": rep.binding_level,
        "m_b": rep.m_b,
        "relaxed_rate_bits_per_s_hz": outcome.relaxed.r_star,
        "guarantee_floor_bits_per_s_hz": rep.guarantee_floor,
        "lower_bound_floor_bits_per_s_hz": bounds.floor,
        "upper_bound_bits_per_s_hz": bounds.r_upper,
    }
    rows = [(k, ";".join(map(str, doc["x"])) if k == "x" else doc[k]) for k in doc]
    _emit(cfg, ["key", "value"], rows, doc)
    return _EXIT_OK


def cmd_sweep(cfg: ExperimentConfig) -> int:
    """Tabulate the proposed, multihop and no-cache rates and the bounds along one axis.

    Each point is validated on its own, in axis order, and reuses the
    models of the point before it when their inputs are equal: the PHY
    side (the grid with its two interference sums, params, the full and
    multihop-only capacity tables) is rebuilt only when `phy_key` changes
    (the alpha axis), the Zipf model only when (L, tau) changes (the tau
    axis). R_nocache is the top level of the full table. Nothing is kept
    beyond this call.
    """
    values = _parse_range(cfg.range_spec or _SWEEP_RANGES[cfg.axis])
    rows = []
    phy_key = pop_key = None
    for value in values:
        point = replace(cfg, **{cfg.axis: value})
        point.validate()
        if point.phy_key != phy_key:
            grid, params, caps = point.build_phy()
            caps_mh = edge_capacities(grid, params, multihop_only=True)
            phy_key = point.phy_key
        if (point.library_size, point.tau) != pop_key:
            pop = None  # release the previous model before building the next
            pop = zipf_pmf(point.library_size, point.tau)
            pop_key = (point.library_size, point.tau)
        l_c = point.cache_budget
        r_prop = optimize_placement(grid, caps, pop, l_c).report.rate
        r_mh = optimize_placement(grid, caps_mh, pop, l_c).report.rate
        r_nocache = caps.rates[grid.M].rate
        bounds = throughput_bounds(grid, params, pop, l_c)
        bw = point.bandwidth_hz
        upper = _scaled(bounds.r_upper, bw) if bounds.r_upper is not None else None
        rows.append((value, _scaled(r_prop, bw), _scaled(r_mh, bw), _scaled(r_nocache, bw),
                     _scaled(bounds.floor, bw), upper))
    header = ["axis_value", "R_proposed", "R_multihop_baseline", "R_nocache",
              "R_L_floor", "R_U"]
    _emit(cfg, header, rows, {"axis": cfg.axis, "columns": header, "rows": rows})
    return _EXIT_OK


def cmd_scaling(cfg: ExperimentConfig) -> int:
    """Tabulate the exponents over tau and the lower bound over M = 8..12.

    The baseline column is the achievable law at alpha = 3 and the
    converse column the achievable law itself (see `analysis`). The table
    does not depend on --M/--n, but a level count that every other command
    refuses is refused here too. A lower-bound cell is empty, and not
    evaluated, where L_C >= L, a budget that stores the whole library.
    """
    NetworkGrid(cfg.m_levels, cfg.kappa, cfg.alpha)
    taus = _parse_range(cfg.range_spec or "0:3:0.05")
    tau_a, tau_b_prop = critical_skewness(cfg.alpha)
    _, tau_b_base = critical_skewness(3.0)
    marks = {tau_a, tau_b_prop, tau_b_base}
    keyed = {round(t, 12): t for t in taus}
    for t in marks:
        keyed.setdefault(round(t, 12), t)
    taus = [keyed[k] for k in sorted(keyed)]
    rows = []
    for t in taus:
        ach = achievable_exponent(cfg.beta1, cfg.beta2, cfg.a1, cfg.a2, t, cfg.alpha)
        base = achievable_exponent(cfg.beta1, cfg.beta2, cfg.a1, cfg.a2, t, 3.0)
        rows.append(("exponent", t, None, ach.exponent, base.exponent, ach.exponent,
                     None, int(t == tau_a), int(t == tau_b_prop), int(t == tau_b_base)))
    params = PhyParams(cfg.alpha, cfg.rc_fraction)
    for m_levels in range(8, 13):
        point = replace(cfg, m_levels=m_levels, l=None, lc=None)
        env = capacity_envelope(NetworkGrid(m_levels, cfg.kappa, cfg.alpha), params)
        big_l, l_c = point.library_size, point.cache_budget
        for t in taus:
            val = None  # place refuses L_C >= L
            if l_c < big_l:
                val, _ = lower_bound(env.c_lower, env.gamma_lower, big_l, l_c, m_levels, t)
            rows.append(("lower_bound", t, point.n, None, None, None, val, None, None, None))
    header = ["record", "tau", "n", "achievable", "baseline", "converse",
              "lower_bound", "tau_a", "tau_b_proposed", "tau_b_baseline"]
    _emit(cfg, header, rows, {"columns": header, "rows": rows})
    return _EXIT_OK


def cmd_oracle(cfg: ExperimentConfig) -> int:
    grid, _, caps, pop, l_c, algo = _solve(cfg)
    exact_x, exact_rate = solve_exact(grid, caps, pop, l_c)
    brute_x, brute_rate = brute_force(grid, caps, pop, l_c)
    factor = guarantee_floor(1.0, grid.M, cfg.tau)
    # 0.0 once 2^tau overflows, also under an unbounded brute-force rate
    brute_floor = brute_rate * factor if factor else 0.0
    rows = [
        ("algorithm1", algo.report.rate, ";".join(map(str, algo.placement.x))),
        ("exact", exact_rate, ";".join(map(str, exact_x.x))),
        ("brute_force", brute_rate, ";".join(map(str, brute_x.x))),
        ("brute_floor", brute_floor, ""),
    ]
    header = ["scheme", "rate_bits_per_s_hz", "x"]
    _emit(cfg, header, rows, {"columns": header, "rows": rows})
    violations = []
    if exact_rate != brute_rate:
        violations.append(f"exact rate {exact_rate} != brute-force rate {brute_rate}")
    if algo.report.rate > brute_rate * (1.0 + 1e-12):
        violations.append("algorithm1 exceeds the exhaustive optimum")
    if algo.report.rate < brute_floor * (1.0 - 1e-12):
        violations.append("algorithm1 falls below the guarantee floor")
    if violations:
        for v in violations:
            print(f"oracle violation: {v}", file=sys.stderr)
        return _EXIT_INVARIANT
    return _EXIT_OK


def cmd_simulate(cfg: ExperimentConfig) -> int:
    grid, _, _, pop, _, outcome = _solve(cfg, lambda: check_request_count(cfg.requests))
    report = simulate(SimConfig(grid, outcome.placement, pop, cfg.requests, cfg.seed))
    rows = [(m, emp, ana, (emp - ana) / ana if ana > 0 else 0.0)
            for m, emp, ana in zip(report.levels, report.empirical_load, report.analytic_load)]
    header = ["level", "empirical_load", "analytic_load", "relative_error"]
    _emit(cfg, header, rows, {"columns": header, "rows": rows,
                              "local_hit_fraction": report.level_fraction[0]})
    return _EXIT_OK


# One row per subcommand, in the parser's order.
_COMMANDS = {
    "place": _Command("solve one placement instance", cmd_place),
    "sweep": _Command("sweep one axis and tabulate proposed vs baselines", cmd_sweep),
    "scaling": _Command("scaling-law exponents and bound curves", cmd_scaling, {"kappa": 1.0}),
    "oracle": _Command("cross-check solvers on a small instance", cmd_oracle),
    "simulate": _Command("flow-level delivery simulation", cmd_simulate),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command].run(_resolve(args))
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
