"""The package names the benchmark under perfbench/ traces and calls.

perfbench/tracer.py wraps each `module.function` of its TARGETS at every
module alias, and perfbench/selfcheck.py requires some of those aliases;
perfbench/workloads.py calls a few constructors and solvers positionally.
A rename or deletion here would otherwise show only in the benchmark's
own self-check. The benchmark files are read with `ast`, never imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

import d2d_cachescale

PERFBENCH = Path(__file__).parent.parent / "perfbench"


def _module(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _string_tuple(node: ast.expr) -> tuple[str, ...]:
    assert isinstance(node, ast.Tuple)
    return tuple(ast.literal_eval(elt) for elt in node.elts)


def _targets() -> tuple[str, ...]:
    for node in _module("tracer.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return _string_tuple(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def _required_aliases() -> tuple[str, ...]:
    """The aliases selfcheck's reach test loops over."""
    for node in ast.walk(_module("selfcheck.py")):
        if isinstance(node, ast.For) and getattr(node.target, "id", None) == "alias":
            return _string_tuple(node.iter)
    raise AssertionError("perfbench/selfcheck.py has no `for alias in (...)` loop")


def _resolve(name: str):
    module, attr = name.split(".")
    return getattr(importlib.import_module(f"{d2d_cachescale.__name__}.{module}"), attr, None)


def test_the_benchmark_files_name_targets_and_aliases():
    assert "placement.solve_relaxed" in _targets()
    assert "cli.main" in _required_aliases()


@pytest.mark.parametrize("target", _targets())
def test_every_traced_target_is_a_callable(target):
    assert callable(_resolve(target)), target


@pytest.mark.parametrize("alias", _required_aliases())
def test_every_required_alias_is_a_traced_target(alias):
    """The tracer patches a module attribute that is one of its targets."""
    targets = [_resolve(t) for t in _targets()]
    assert any(_resolve(alias) is fn for fn in targets), alias


def test_workload_calls_accept_positional_arguments():
    """The calls of perfbench/workloads.py, with its argument order, on a tiny instance."""
    pkg = d2d_cachescale
    grid = pkg.hierarchy.NetworkGrid(2, 0.0, 4.0)
    caps = pkg.hierarchy.edge_capacities(grid, pkg.phy.PhyParams(4.0))
    pop = pkg.popularity.zipf_pmf(12, 1.0)
    l_c = 16 ** 0.3
    outcome = pkg.placement.optimize_placement(grid, caps, pop, l_c)
    exact_x, exact_rate = pkg.exact.solve_exact(grid, caps, pop, l_c)
    assert outcome.placement.L == exact_x.L == 12
    assert 0.0 < outcome.report.rate <= exact_rate
