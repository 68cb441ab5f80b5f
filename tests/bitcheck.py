"""Bit-identity check: run one fixed corpus on two revisions and list what differs.

    python tests/bitcheck.py                # print one line per corpus entry
    python tests/bitcheck.py --base REV     # compare REV with the working tree

The corpus has five families. `cli`: argvs of all five commands in CSV
and JSON, `--help` of the program and of each command, bad arguments,
budgets within 1e-13 of L / n and of L, L at the popularity model's
block and chunk edges, `place --M 13`, whose model has 2,700 blocks,
and the benchmark's sweep_wide sweep at M = 12; an entry is the exit
code, stdout, stderr and the --out file. `solver`:
library calls made only through optimize_placement, solve_exact and
brute_force, with the (grid, caps, pop, l_c) signature
they share; an entry is the placement, the rate's hex and the guarantee
floor's, the relaxed solve that optimize_placement returns (m*,
r*.hex() and the x* hexes), or the refusal's exception type and message.
`model`: Zipf models with L at the block and chunk edges; an entry is
every p(k).hex() and suffix(k).hex(), k = 0..L, read only through those
two accessors. `search`: direct calls of the two integer searches over
the suffix mass, keyed on a boundary mass: at each block edge k of a
model and next to it, bracketed_tail_inverse of y = suffix(k) and of the
floats either side, and threshold_indices at a cap of suffix(k) * r and
the floats either side; each on the full bracket and on brackets around
its answer that stay in its block, cross one block edge or span the
library, and all the caps of a model in one scan; an entry is every
answer. `simulate`: library calls of simulate(cfg) and of
simulate(cfg, verbose=True) on placements from optimize_placement and on
seeded random compositions that leave some levels empty; an entry is
every report field (floats as hex, the counts, each per-edge histogram's
dtype and bytes), or the refusal. Each composition is simulated once more
both ways with its uniforms on the level boundaries 1 - suffix(prefix(m))
and one float either side, through a scripted stand-in for numpy's
Generator. Each output line is the family, the input and a SHA-256 of the
entry.

--base extracts REV's `src/` with `git archive` into a temporary directory
and runs the corpus there and on this checkout's `src/` in two fresh
interpreters, side by side, that neither read nor write `__pycache__`.
It prints the entries that differ, grouped by family, and one summary
line, and exits 1 on any difference. Two revisions compare on one
machine only: numpy's AVX-512 and baseline pow round some ranks
differently, so no digests are committed. The file name keeps it out of
pytest's collection.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import math
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent

# Files the cli family's argvs name, written into the run's working directory.
CONFIG_FILES = {
    "good.conf": "M=2\nl=8\nlc=1.0\ntau=0.5\n# a comment\n",
    "noeq.conf": "M 3\n",
    "unknown.conf": "unknown_key=3\n",
    "badvalue.conf": "tau=abc\n",
    "badchoice.conf": "format=xml\n",
}

# Brute force runs only where it enumerates at most this many placements.
BRUTE_MAX = 3000

# The model family's libraries: one rank either side of the popularity
# model's block (4096 ranks) and chunk (32768 ranks) edges.
MODEL_RANKS = (4095, 4096, 4097, 32767, 32768, 32769, 65535, 65536, 65537)
MODEL_TAUS = (0.0, 0.5, 1.0, 2.0, 3.0)

# The simulate family's draws: M 1..6, L up to 3000, at most 20000 requests.
SIM_CASES = 100

# The search family's libraries (up to 25 blocks) and the rates of its caps.
SEARCH_RANKS = (4097, 32768, 100003)
SEARCH_TAUS = (0.0, 0.5, 1.0, 2.0)
SEARCH_RATES = (0.37, 1.0, 3.1)

FAMILIES = ("cli", "solver", "model", "search", "simulate")


def _budgets(rng: random.Random, L: int, M: int) -> list[float]:
    """Budgets at L / n and L and 1e-13, 1e-12 and 1e-9 inside each end, one
    1e-13 outside each end, and two uniform draws between them."""
    lo = L * 4.0 ** (-M)
    out = [lo, lo - 1e-13, L, L + 1e-13]
    for eps in (1e-13, 1e-12, 1e-9):
        out += [lo + eps, L - eps]
    out += [lo + (L - lo) * rng.random() for _ in range(2)]
    if L >= 2:
        out.append(L - 1.0)
    return out


def cli_argvs() -> list[list[str]]:
    """The cli family's argvs, generated from a fixed seed."""
    rng = random.Random(20261019)
    fmt = ["--format", "json"]
    fixed = [
        ["--help"], *([c, "--help"] for c in ("place", "sweep", "scaling", "oracle", "simulate")),
        ["place"], ["place", *fmt], ["sweep"], ["sweep", *fmt], ["scaling"], ["scaling", *fmt],
        ["oracle", "--M", "2", "--l", "8", "--lc", "1.0"], ["simulate"], ["simulate", *fmt],
        ["place", "--M", "9", "--bandwidth-hz", "2e8", *fmt],
        ["simulate", "--M", "9", "--requests", "300000", "--seed", "7", "--tau", "1"],
        ["simulate", "--M", "17", "--beta1", "0.2", "--beta2", "0.1", "--requests", "70003",
         "--seed", "8"],
        ["simulate", "--M", "11", "--requests", "200001", "--seed", "5"],
        ["place", "--M", "2", "--l", "2", "--lc", "1.999999999999", *fmt],
        ["oracle", "--M", "1", "--l", "1", "--lc", "0.9999999999999998", *fmt],
        ["oracle", "--M", "1", "--l", "1", "--lc", "0.9999999999999998", "--tau", "1100"],
        ["sweep", "--M", "2", "--l", "2", "--lc", "1.999999999999", "--axis", "tau",
         "--range", "1:1:1", *fmt],
        ["place", "--M", "1", "--l", "1", "--lc", "0.5", "--tau", "1200"],
        ["place", "--M", "1", "--l", "1", "--lc", "0.5", "--tau", "1e300"],
        ["place", "--tau", "1.0001"], ["place", "--tau", "60"], ["place", "--tau", "200"],
        ["place", "--M", "9", "--beta2", "0.7", "--tau", "1.05"],
        ["place", "--n", "256", "--l", "20", "--lc", "2.0"],
        ["place", "--config", "good.conf", *fmt], ["place", "--config", "good.conf", "--tau", "2"],
        ["place", "--M", "3", "--l", "30", "--lc", "2.0", "--out", "out.csv"],
        ["sweep", "--M", "3", "--axis", "tau", "--range", "0:1:0.5", "--out", "out.json", *fmt],
        ["sweep", "--M", "12", "--beta1", "0.5", "--axis", "tau", "--range", "0.5:2.5:0.5"],
        ["scaling", "--range", "0:1e200:1e199"],
        ["scaling", "--alpha", "2.5", "--range", "0:2:0.5"],
        ["oracle", "--M", "3", "--l", "20", "--lc", "19.9999999999999", "--tau", "0",
         "--alpha", "2.5"],
        ["oracle", "--tau", "355", "--M", "1", "--l", "1000", "--lc", "500"],
    ]
    bad = [
        ["place", "--n", "100"], ["place", "--alpha", "1.5"], ["place", "--n", "0"],
        ["place", "--lc", "nan"], ["place", "--kappa", "inf"], ["place", "--tau=-inf"],
        ["simulate", "--seed", "-1"], ["place", "--bandwidth-hz", "-1"], ["place", "--l", "0"],
        ["place", "--M", "40"], ["place", "--M", "0"], ["place", "--M", "21"],
        ["scaling", "--M", "0"], ["place", "--M", "15"], ["place", "--M", "2.5"],
        ["place", "--bogus"], ["nocommand"], [], ["place", "--format", "xml"],
        ["sweep", "--axis", "kappa"], ["sweep", "--range", "0:1"], ["sweep", "--range", "a:b:c"],
        ["sweep", "--range", "0:1:0"], ["sweep", "--range", "1:0:0.5"],
        ["sweep", "--range", "0:inf:1"], ["sweep", "--range", "0:1e9:1e-9"],
        ["scaling", "--range", "nan:1:1"], ["simulate", "--requests", "0"],
        ["simulate", "--requests", "10000000000000"], ["simulate", "--M", "3", "--requests", "-5"],
        ["place", "--M", "2", "--l", "16", "--lc", "0.9"], ["oracle", "--M", "8", "--l", "1000"],
        ["place", "--config", "noeq.conf"], ["place", "--config", "unknown.conf"],
        ["place", "--config", "badvalue.conf"], ["place", "--config", "badchoice.conf"],
        ["place", "--config", "missing.conf"],
        ["place", "--M", "2", "--l", "8", "--lc", "1.0", "--out", "no/such/dir/out.csv"],
        ["place", "--M", "1", "--l", "4", "--lc", "3.5", "--bandwidth-hz", "1e308"],
        ["place", "--kappa", "1e6"], ["place", "--alpha", "300"],
        ["place", "--M", "3", "--l", "10", "--lc", "10"],
        ["place", "--M", "3", "--l", "10", "--lc", "12"],
        ["scaling", "--beta2", "1.2"], ["scaling", "--beta1", "0"], ["place", "--rc-fraction", "0"],
        ["place", "--alpha", "350", "--kappa", "1"], ["scaling", "--alpha", "350"],
    ]
    out = fixed + bad
    # place: random instances, every budget of _budgets, both formats
    for _ in range(80):
        M = rng.randint(1, 7)
        L = rng.choice([1, 2, 3, rng.randint(2, 60), rng.randint(2, 3000)])
        tau = rng.choice(["0", "0.5", "1", "1.5", "2", "3", f"{rng.uniform(0, 3):.3f}"])
        alpha = rng.choice(["2.5", "3", "4"])
        kappa = rng.choice(["0", "0.5", "1"])
        extra = rng.choice([[], [], ["--bandwidth-hz", "2e8"], ["--rc-fraction", "0.5"]])
        for l_c in _budgets(rng, L, M):
            out.append(["place", "--M", str(M), "--l", str(L), "--lc", repr(l_c), "--tau", tau,
                        "--alpha", alpha, "--kappa", kappa, *extra,
                        *(fmt if rng.random() < 0.3 else [])])
    # place: L at the block and chunk edges of the popularity model
    for L in (4095, 4096, 4097, 8191, 8192, 32767, 32768, 32769, 65535, 65536, 65537):
        for tau in ("0.5", "1", "2"):
            for M in (7, 8):
                out.append(["place", "--M", str(M), "--l", str(L), "--lc", repr(L ** 0.5),
                            "--tau", tau])
    # the default library at M = 13: a model of 2,700 blocks through both solvers
    for tau in ("0.5", "1", "2"):
        out.append(["place", "--M", "13", "--tau", tau])
    # the default family over M, beta1, beta2 and tau
    for M in range(1, 11):
        for beta2 in ("0.1", "0.3", "0.5"):
            out.append(["place", "--M", str(M), "--beta2", beta2,
                        "--tau", rng.choice(["0.5", "1", "1.5", "2.5"])])
    # oracle: small instances that brute force enumerates
    for _ in range(30):
        M = rng.randint(1, 3)
        L = rng.randint(1, 12 if M < 3 else 8)
        tau = rng.choice(["0", "0.7", "1", "2", "3"])
        alpha = rng.choice(["2.5", "4"])
        for l_c in _budgets(rng, L, M):
            out.append(["oracle", "--M", str(M), "--l", str(L), "--lc", repr(l_c), "--tau", tau,
                        "--alpha", alpha, *(fmt if rng.random() < 0.2 else [])])
    # simulate
    for _ in range(100):
        M = rng.randint(1, 6)
        L = rng.randint(1, 2000)
        lo = L * 4.0 ** (-M)
        l_c = rng.choice([lo, lo + (L - lo) * rng.random(), L - 1e-13])
        out.append(["simulate", "--M", str(M), "--l", str(L), "--lc", repr(l_c),
                    "--requests", str(rng.randint(1, 20000)),
                    "--seed", str(rng.randint(0, 10 ** 6)),
                    "--tau", rng.choice(["0", "1", "2"]), *(fmt if rng.random() < 0.3 else [])])
    # sweep: every axis, a short range
    for _ in range(80):
        axis, spec = rng.choice([("beta2", "0.1:0.8:0.35"), ("tau", "0:3:0.75"),
                                 ("alpha", "2.5:4:0.5"), ("tau", "0.5:0.5:1")])
        out.append(["sweep", "--M", str(rng.randint(1, 7)), "--axis", axis, "--range", spec,
                    "--beta1", rng.choice(["0.5", "0.9"]), "--tau", rng.choice(["0.5", "1", "2"]),
                    *(fmt if rng.random() < 0.3 else [])])
    # scaling
    for _ in range(75):
        beta1 = rng.choice([0.5, 0.9, 1.0])
        out.append(["scaling", "--beta1", repr(beta1),
                    "--beta2", repr(round(beta1 * rng.random(), 3)),
                    "--alpha", rng.choice(["2.2", "2.5", "3", "4"]),
                    "--a1", rng.choice(["1", "2"]), "--a2", rng.choice(["1", "0.5"]),
                    "--range", rng.choice(["0:3:0.5", "0.9:1.6:0.1", "0:3:0.05"]),
                    *(fmt if rng.random() < 0.3 else [])])
    return [list(argv) for argv in dict.fromkeys(map(tuple, out))]


def solver_cases() -> list[tuple]:
    """(M, kappa, alpha, multihop_only, L, tau, l_c) of the solver family."""
    rng = random.Random(1612)
    cases = []
    for _ in range(600):
        M = rng.randint(1, 7)
        kappa, alpha = rng.choice([(0.0, 4.0), (0.0, 2.5), (1.0, 3.0)])
        mh = rng.random() < 0.3
        L = rng.choice([1, 2, rng.randint(2, 20), rng.randint(2, 300), rng.randint(300, 5000)])
        tau = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0, round(rng.uniform(0.0, 3.0), 4)])
        for l_c in _budgets(rng, L, M):
            cases.append((M, kappa, alpha, mh, L, tau, l_c))
    cases += [(M, 0.0, 4.0, False, 10, 1.0, math.nan) for M in (1, 3)]
    return list(dict.fromkeys(cases))


def simulate_cases() -> list[tuple]:
    """(M, L, tau, requests, seed, placement) of the simulate family, where
    placement is ("optimize", alpha, l_c) or ("composition", x)."""
    rng = random.Random(20261020)
    cases = []
    for _ in range(SIM_CASES):
        M = rng.randint(1, 6)
        L = rng.choice([1, 2, rng.randint(2, 60), rng.randint(2, 3000)])
        tau = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0])
        requests = rng.choice([1, rng.randint(1, 500), rng.randint(1, 20000)])
        seed = rng.randint(0, 10 ** 6)
        lo = L * 4.0 ** (-M)
        l_c = rng.choice([lo, lo + (L - lo) * rng.random()])
        cases.append((M, L, tau, requests, seed, ("optimize", rng.choice([2.5, 4.0]), l_c)))
        levels = sorted(rng.sample(range(M + 1), rng.randint(1, M + 1)))
        cuts = sorted(rng.randint(0, L) for _ in levels[1:])
        x = [0] * (M + 1)
        for m, a, b in zip(levels, [0, *cuts], [*cuts, L]):
            x[m] = b - a
        cases.append((M, L, tau, requests, seed, ("composition", tuple(x))))
    return list(dict.fromkeys(cases))


def _field(value):
    """A report field with its floats as hex and its arrays as (dtype, bytes)."""
    if isinstance(value, float):
        return value.hex()
    if hasattr(value, "tobytes"):
        return value.dtype.str, value.tobytes()
    if isinstance(value, dict):
        return tuple((k, _field(v)) for k, v in sorted(value.items()))
    if isinstance(value, tuple):
        return tuple(map(_field, value))
    return value


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _refusal(exc: Exception) -> tuple[str, str]:
    return type(exc).__name__, str(exc)


def run_cli_family(pkg):
    """Yield (key, entry) for every cli argv, run in-process in the current directory."""
    for name, text in CONFIG_FILES.items():
        Path(name).write_text(text)
    for argv in cli_argvs():
        for name in ("out.csv", "out.json"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = pkg.cli.main(list(argv))
            except SystemExit as exc:  # argparse's --help or a crash on the way out
                code = ("SystemExit", exc.code)
            except Exception as exc:  # noqa: BLE001 - a traceback is an entry too
                code = _refusal(exc)
        files = tuple(Path(n).read_bytes() for n in ("out.csv", "out.json") if Path(n).exists())
        yield " ".join(argv), (code, out.getvalue(), err.getvalue(), files)


def run_model_family(pkg):
    """Yield (key, entry) for every model: its p(k) and suffix(k) hexes, k = 0..L."""
    for L in MODEL_RANKS:
        for tau in MODEL_TAUS:
            pop = pkg.popularity.zipf_pmf(L, tau)
            yield f"L={L} tau={tau}", [(pop.p(k).hex(), pop.suffix(k).hex())
                                       for k in range(L + 1)]


def run_solver_family(pkg):
    """Yield (key, entry) for each solver call of every solver case."""
    tables, models = {}, {}
    for M, kappa, alpha, mh, L, tau, l_c in solver_cases():
        if (M, kappa, alpha, mh) not in tables:
            grid = pkg.hierarchy.NetworkGrid(M, kappa, alpha)
            caps = pkg.hierarchy.edge_capacities(grid, pkg.phy.PhyParams(alpha), multihop_only=mh)
            tables[M, kappa, alpha, mh] = grid, caps
        if (L, tau) not in models:
            models[L, tau] = pkg.popularity.zipf_pmf(L, tau)
        (grid, caps), pop = tables[M, kappa, alpha, mh], models[L, tau]
        key = f"M={M} kappa={kappa} alpha={alpha} mh={mh} L={L} tau={tau} l_c={l_c!r}"
        try:
            out = pkg.placement.optimize_placement(grid, caps, pop, l_c)
            sol, rep = out.relaxed, out.report
            yield f"optimize_placement {key}", (out.placement.x, rep.rate.hex(),
                                                rep.guarantee_floor.hex())
            yield f"relaxed {key}", (sol.m_star, sol.r_star.hex(),
                                     tuple(v.hex() for v in sol.x_star))
        except pkg.errors.CacheScaleError as exc:
            yield f"optimize_placement {key}", _refusal(exc)
        solvers = [("solve_exact", pkg.exact.solve_exact)]
        if math.comb(L + M, M) <= BRUTE_MAX:
            solvers.append(("brute_force", pkg.exact.brute_force))
        for name, solve in solvers:
            try:
                x, rate = solve(grid, caps, pop, l_c)
                yield f"{name} {key}", (x.x, rate.hex())
            except pkg.errors.CacheScaleError as exc:
                yield f"{name} {key}", _refusal(exc)


def run_search_family(pkg):
    """Yield (key, entry) for every model of the search family: each search's
    answers for keys on the boundary masses at its block edges."""
    pop_mod = pkg.popularity
    gaps = (0, 1, 4096, 10 ** 9)
    for L in SEARCH_RANKS:
        for tau in SEARCH_TAUS:
            pop = pop_mod.zipf_pmf(L, tau)
            ks = sorted({k + d for k in range(0, L + 1, 4096) for d in (-1, 0, 1)
                         if 0 <= k + d <= L})
            tails, thresholds, caps = [], [], []
            for k in ks:
                s = pop.suffix(k)
                for y in (math.nextafter(s, 0.0), s, math.nextafter(s, 1.0)):
                    if not 0.0 < y < 1.0:
                        continue
                    x, i = pop_mod.bracketed_tail_inverse(pop, y, 0, L)
                    row = [(x.hex(), i)]
                    for a in gaps:
                        for b in gaps:
                            x, j = pop_mod.bracketed_tail_inverse(
                                pop, y, max(i - a, 0), min(i + 1 + b, L))
                            row.append((x.hex(), j))
                    tails.append((k, y.hex(), row))
                for r in SEARCH_RATES:
                    for c in (math.nextafter(s * r, 0.0), s * r, math.nextafter(s * r, math.inf)):
                        if c <= 0.0:
                            continue
                        caps.append(c)
                        t = pop_mod.threshold_indices(pop, r, [c], [0], [L])[0]
                        row = [t] + [pop_mod.threshold_indices(
                            pop, r, [c], [max(t - a, 0)], [min(t + b, L)])[0]
                                     for a in gaps for b in gaps]
                        thresholds.append((k, r, c.hex(), row))
            key = f"L={L} tau={tau}"
            yield f"tail {key}", tails
            yield f"thresholds {key}", thresholds
            for r in SEARCH_RATES:
                yield f"scan {key} r={r}", pop_mod.threshold_indices(
                    pop, r, caps, [0] * len(caps), [L] * len(caps))


def _scripted_generator(real, uniforms):
    """A stand-in for numpy's Generator class: random() serves `uniforms` in
    order across calls, as random(size) or random(out=buffer) asks for them;
    integers() is the real generator's."""
    uniforms = np.array(uniforms)

    class Scripted:
        def __init__(self, bit_generator):
            self._rng = real(bit_generator)
            self._next = 0

        def integers(self, *args, **kwargs):
            return self._rng.integers(*args, **kwargs)

        def random(self, size=None, out=None):
            k = size if out is None else out.size
            drawn = uniforms[self._next:self._next + k]
            if drawn.size != k:
                raise SystemExit("bitcheck: the scripted uniforms ran out")
            self._next += k
            if out is None:
                return drawn.copy()
            out[...] = drawn
            return out
    return Scripted


def _reports(pkg, cfg, x):
    """(verbose, entry) for simulate(cfg) and simulate(cfg, verbose=True)."""
    for verbose in (False, True):
        report = pkg.delivery.simulate(cfg, verbose=verbose)
        yield verbose, (x.x, tuple((f.name, _field(getattr(report, f.name)))
                                   for f in dataclasses.fields(report)))


def run_simulate_family(pkg):
    """Yield (key, entry) for every simulate case with and without verbose,
    and for every composition once more on boundary uniforms: each report
    field, or the refusal."""
    tables, models = {}, {}
    for M, L, tau, requests, seed, placement in simulate_cases():
        key = f"M={M} L={L} tau={tau} requests={requests} seed={seed} {placement!r}"
        if (L, tau) not in models:
            models[L, tau] = pkg.popularity.zipf_pmf(L, tau)
        pop = models[L, tau]
        try:
            if placement[0] == "optimize":
                _, alpha, l_c = placement
                if (M, alpha) not in tables:
                    grid = pkg.hierarchy.NetworkGrid(M, 0.0, alpha)
                    tables[M, alpha] = grid, pkg.hierarchy.edge_capacities(
                        grid, pkg.phy.PhyParams(alpha))
                grid, caps = tables[M, alpha]
                x = pkg.placement.optimize_placement(grid, caps, pop, l_c).placement
            else:
                grid = pkg.hierarchy.NetworkGrid(M, 0.0, 4.0)
                x = pkg.placement.PlacementVector(placement[1])
            cfg = pkg.delivery.SimConfig(grid, x, pop, requests, seed)
            for verbose, entry in _reports(pkg, cfg, x):
                yield f"{key} verbose={verbose}", entry
        except pkg.errors.CacheScaleError as exc:
            yield key, _refusal(exc)
            continue
        if placement[0] == "composition":
            edges = {1.0 - pop.suffix(x.prefix(m)) for m in range(1, M + 1)}
            uniforms = sorted(
                u for e in edges for u in (math.nextafter(e, 0.0), e, math.nextafter(e, 1.0))
                if 0.0 <= u < 1.0)
            real = np.random.Generator
            np.random.Generator = _scripted_generator(real, uniforms)
            try:
                cfg = pkg.delivery.SimConfig(grid, x, pop, len(uniforms), seed)
                for verbose, entry in _reports(pkg, cfg, x):
                    yield f"boundary {key} verbose={verbose}", entry
            finally:
                np.random.Generator = real


def emit(src: Path) -> None:
    """Print `family<TAB>input<TAB>sha256` for every corpus entry, importing
    the package from `src`."""
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("d2d_cachescale")
    for mod in ("cli", "delivery", "errors", "exact", "hierarchy", "phy", "placement",
                "popularity"):
        importlib.import_module(f"d2d_cachescale.{mod}")
    if Path(pkg.__file__).resolve().parent != (src / "d2d_cachescale").resolve():
        raise SystemExit(f"bitcheck: imported {pkg.__file__}, not the package under {src}")
    lines = []
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            lines += [("cli", k, _digest(v)) for k, v in run_cli_family(pkg)]
        finally:
            os.chdir(cwd)
    lines += [("solver", k, _digest(v)) for k, v in run_solver_family(pkg)]
    lines += [("model", k, _digest(v)) for k, v in run_model_family(pkg)]
    lines += [("search", k, _digest(v)) for k, v in run_search_family(pkg)]
    lines += [("simulate", k, _digest(v)) for k, v in run_simulate_family(pkg)]
    sys.stdout.write("".join(f"{f}\t{k}\t{d}\n" for f, k, d in lines))


def _spawn(src: Path, pycache: str) -> subprocess.Popen:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPYCACHEPREFIX"] = pycache  # an empty cache: no src/__pycache__ is read
    return subprocess.Popen([sys.executable, "-B", str(Path(__file__).resolve()),
                             "--src", str(src)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)


def _parse(text: str) -> dict[tuple[str, str], str]:
    out = {}
    for line in text.splitlines():
        family, key, digest = line.split("\t")
        if (family, key) in out:
            raise SystemExit(f"bitcheck: corpus entry listed twice: {family} {key}")
        out[family, key] = digest
    return out


def compare(rev: str) -> int:
    """Run the corpus on `rev` and on the working tree; print the differences."""
    sha = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                         capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", sha, "src"],
                             capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
            archive.extractall(os.path.join(tmp, "base"), filter="data")
        procs = {side: _spawn(src, os.path.join(tmp, f"pycache-{side}"))
                 for side, src in (("base", Path(tmp, "base", "src")), ("head", REPO / "src"))}
        results = {side: proc.communicate() for side, proc in procs.items()}
    for side, proc in procs.items():
        if proc.returncode != 0:
            sys.stderr.write(results[side][1])
            raise SystemExit(f"bitcheck: the {side} run exited {proc.returncode}")
    base, head = (_parse(results[side][0]) for side in ("base", "head"))
    keys = sorted(base.keys() | head.keys())
    differ = [k for k in keys if base.get(k) != head.get(k)]
    for family in FAMILIES:
        rows = [key for fam, key in differ if fam == family]
        if rows:
            print(f"{family}: {len(rows)} differ")
            for key in rows:
                one_side = (family, key) not in base or (family, key) not in head
                print(f"  {key}{' (one side only)' if one_side else ''}")
    counts = {f: sum(1 for fam, _ in keys if fam == f) for f in FAMILIES}
    print(f"bitcheck: {sha[:7]} vs working tree: {counts['cli']} cli argvs, "
          f"{counts['solver']} solver calls, {counts['model']} models, "
          f"{counts['search']} search entries, {counts['simulate']} simulate calls; "
          f"{len(differ)} differ")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", help="revision to compare the working tree with")
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="directory holding the d2d_cachescale package to run")
    args = parser.parse_args(argv)
    if args.base:
        return compare(args.base)
    emit(args.src)
    return 0


if __name__ == "__main__":
    sys.exit(main())
