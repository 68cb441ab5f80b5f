"""Each command computes the network's interference sums once per grid.

`sweep` reuses the PHY side and the Zipf model between points whose inputs
are equal; these tests count the O(sqrt n) interference sums and check that
the reuse leaves every sweep row bit-identical to rows built fresh per point.
"""

import sys
from dataclasses import replace

import pytest

from d2d_cachescale import edge_capacities, optimize_placement, throughput_bounds
from d2d_cachescale.phy import cluster_rate
from d2d_cachescale import hierarchy, phy
from d2d_cachescale.cli import _build_parser, _parse_range, _resolve, main


@pytest.fixture
def sums(monkeypatch):
    """Argument tuples of every interference_power call, whichever alias it goes through."""
    orig = phy.interference_power
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    modules = [mod for name, mod in sys.modules.items()
               if name == "d2d_cachescale" or name.startswith("d2d_cachescale.")]
    aliases = [(mod, attr) for mod in modules for attr, val in vars(mod).items() if val is orig]
    assert (hierarchy, "interference_power") in aliases
    for mod, attr in aliases:
        monkeypatch.setattr(mod, attr, counted)
    return calls


def _count(sums, capsys, *argv) -> int:
    before = len(sums)
    assert main(list(argv)) == 0
    capsys.readouterr()
    return len(sums) - before


class TestInterferenceSums:
    def test_tau_sweep_count_does_not_grow_with_points(self, sums, capsys):
        five = _count(sums, capsys, "sweep", "--M", "8", "--axis", "tau",
                      "--range", "0.5:2.5:0.5")
        one = _count(sums, capsys, "sweep", "--M", "8", "--axis", "tau",
                     "--range", "0.5:0.5:0.5")
        assert five == one == 2  # one sum per PHY mode
        assert len(set(sums)) == 2

    def test_alpha_sweep_sums_once_per_distinct_alpha(self, sums, capsys):
        assert _count(sums, capsys, "sweep", "--M", "6", "--axis", "alpha",
                      "--range", "2.5:4:0.5") == 2 * 4

    @pytest.mark.parametrize("argv", [
        ("place", "--M", "6"),
        ("simulate", "--M", "6", "--requests", "1000"),
        ("oracle", "--M", "2", "--l", "8", "--lc", "1.0"),
    ])
    def test_single_instance_commands(self, sums, capsys, argv):
        assert _count(sums, capsys, *argv) == 2  # one sum per PHY mode

    def test_scaling_sums_once_per_level_count(self, sums, capsys):
        """The lower bound's envelope of each M = 8..12 reads the cooperative sum."""
        assert _count(sums, capsys, "scaling", "--range", "0:1:0.5") == 5

    def test_no_memo_across_calls(self, sums, capsys):
        argv = ("sweep", "--M", "6", "--axis", "beta2", "--range", "0.2:0.4:0.1")
        first = _count(sums, capsys, *argv)
        second = _count(sums, capsys, *argv)
        assert first == second > 0


def _fresh_rows(argv) -> list[tuple]:
    """Sweep rows built with nothing shared between points: each point's
    fresh grid computes and holds its own interference sums."""
    cfg = _resolve(_build_parser().parse_args(list(argv)))
    rows = []
    for value in _parse_range(cfg.range_spec):
        point = replace(cfg, **{cfg.axis: value})
        point.validate()
        grid, params, caps, pop = point.build()
        caps_mh = edge_capacities(grid, params, multihop_only=True)
        l_c = point.cache_budget
        r_prop = optimize_placement(grid, caps, pop, l_c).report.rate
        r_mh = optimize_placement(grid, caps_mh, pop, l_c).report.rate
        r_nocache = cluster_rate(point.n, grid, params).rate
        bounds = throughput_bounds(grid, params, pop, l_c)
        bw = point.bandwidth_hz
        upper = bounds.r_upper * bw if bounds.r_upper is not None else None
        rows.append((value, r_prop * bw, r_mh * bw, r_nocache * bw, bounds.floor * bw, upper))
    return rows


@pytest.mark.parametrize("argv", [
    ("sweep", "--M", "6", "--axis", "beta2", "--range", "0.1:0.8:0.1"),
    ("sweep", "--M", "6", "--axis", "tau", "--range", "0:3:0.25"),
    ("sweep", "--M", "6", "--axis", "alpha", "--range", "2.25:4.5:0.25"),
    ("sweep", "--M", "5", "--axis", "alpha", "--range", "2.5:4:0.5", "--kappa", "1",
     "--bandwidth-hz", "2e7", "--rc-fraction", "0.5"),
])
def test_sweep_rows_equal_rows_built_per_point(capsys, argv):
    assert main(list(argv)) == 0
    lines = capsys.readouterr().out.splitlines()[2:]
    got = [tuple(float(c) if c else None for c in line.split(",")) for line in lines]
    assert got == _fresh_rows(argv)
