"""CLI behaviour: outputs, formats, exit codes, config precedence."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from d2d_cachescale import (
    BracketError,
    InvalidParameterError,
    InvariantViolationError,
    SizeGuardError,
    cli,
    hierarchy,
    placement,
)
from d2d_cachescale.popularity import MAX_RANKS
from d2d_cachescale.cli import _OPTIONS, _parse_range, _read_config_file, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlace:
    def test_minimum_budget_all_top(self, capsys):
        code, out, _ = run_cli(capsys, "place", "--M", "2", "--l", "16", "--lc", "1.0")
        assert code == 0
        assert out.startswith("# d2d-cachescale v")
        lines = dict(line.split(",", 1) for line in out.splitlines()[2:])
        assert lines["x"] == "0;0;16"

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "place", "--M", "2", "--l", "8",
                               "--lc", "1.0", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"].startswith("d2d-cachescale v")
        assert sum(doc["x"]) == doc["L"] == 8 and len(doc["x"]) == doc["M"] + 1 == 3
        assert doc["L_C"] == 1.0 and doc["rate_bits_per_s_hz"] > 0

    def test_bandwidth_scales_output(self, capsys):
        _, out1, _ = run_cli(capsys, "place", "--M", "2", "--l", "8", "--lc", "1.0",
                             "--format", "json")
        _, out2, _ = run_cli(capsys, "place", "--M", "2", "--l", "8", "--lc", "1.0",
                             "--format", "json", "--bandwidth-hz", "2e8")
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d2["rate_bits_per_s"] == pytest.approx(d1["rate_bits_per_s"] * 2e8)
        assert d2["rate_bits_per_s_hz"] == d1["rate_bits_per_s_hz"]

    def test_all_local_rate_stays_inf_at_any_bandwidth(self, capsys):
        """inf marks the all-local placement; it is not a bandwidth overflow."""
        code, out, err = run_cli(capsys, "place", "--M", "2", "--l", "2",
                                 "--lc", "1.999999999999", "--bandwidth-hz", "1e308")
        assert code == 0 and err == ""
        lines = dict(line.split(",", 1) for line in out.splitlines()[2:])
        assert lines["rate_bits_per_s"] == lines["rate_bits_per_s_hz"] == "inf"

    def test_pinned_dense_grid_point(self, capsys):
        """n=4^9, beta1=0.9, beta2=0.3, tau=1, alpha=4 at 200 MHz: frozen
        after the first verified run."""
        code, out, _ = run_cli(capsys, "place", "--M", "9", "--alpha", "4",
                               "--beta1", "0.9", "--beta2", "0.3", "--tau", "1",
                               "--bandwidth-hz", "2e8", "--format", "json")
        assert code == 0
        pinned = (Path(__file__).parent / "data" / "fig5_point_place.json").read_text()
        assert out == pinned

    def test_infeasible_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "place", "--M", "2", "--l", "16", "--lc", "0.9")
        assert code == 1 and "infeasible" in err

    def test_bad_arguments_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "place", "--n", "100")
        assert code == 3
        code, _, _ = run_cli(capsys, "place", "--alpha", "1.5")
        assert code == 3

    @pytest.mark.parametrize("n", ["0", "-4", "2"])
    def test_non_power_of_four_node_count(self, capsys, n):
        code, out, err = run_cli(capsys, "place", "--n", n)
        assert code == 3
        assert out == ""
        assert err == f"error: node count must be a power of 4, got {n}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("tau", ["1.0001", "60"])
    def test_extreme_skewness_has_finite_bounds(self, capsys, tau):
        """The lower-bound powers overflow separately near tau = 1+ and at
        large tau; the bound stays a finite number."""
        code, out, err = run_cli(capsys, "place", "--tau", tau)
        assert code == 0
        assert "Traceback" not in err
        lines = dict(line.split(",", 1) for line in out.splitlines()[2:])
        assert math.isfinite(float(lines["lower_bound_floor_bits_per_s_hz"]))

    def test_node_count_flag_matches_depth_flag(self, capsys):
        _, by_n, _ = run_cli(capsys, "place", "--n", "256", "--l", "20", "--lc", "2.0")
        _, by_m, _ = run_cli(capsys, "place", "--M", "4", "--l", "20", "--lc", "2.0")
        assert by_n == by_m


class TestSweep:
    def test_beta2_sweep_columns_and_shape(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--M", "4", "--axis", "beta2",
                               "--range", "0.2:0.6:0.2")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split(",")[0] == "axis_value"
        assert len(lines) == 2 + 3
        rows = [line.split(",") for line in lines[2:]]
        rates = [float(r[1]) for r in rows]
        assert rates == sorted(rates)
        for r in rows:
            assert float(r[1]) > float(r[2])  # proposed beats multihop baseline

    def test_tau_sweep_monotone(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--M", "4", "--axis", "tau",
                               "--range", "0:2:0.5")
        assert code == 0
        rates = [float(line.split(",")[1]) for line in out.splitlines()[2:]]
        assert rates == sorted(rates)

    def test_alpha_sweep_rows_in_axis_order(self, capsys):
        argv = ("sweep", "--M", "3", "--axis", "alpha", "--range", "2.5:4:0.5",
                "--l", "40", "--lc", "2")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[2:]]
        assert [float(r[0]) for r in rows] == [2.5, 3.0, 3.5, 4.0]
        assert all(float(r[1]) > 0 for r in rows)
        _, again, _ = run_cli(capsys, *argv)
        assert again == out


class TestScaling:
    def test_markers_and_dominance(self, capsys):
        code, out, _ = run_cli(capsys, "scaling", "--alpha", "2.5",
                               "--range", "0:3:0.25")
        assert code == 0
        lines = [line.split(",") for line in out.splitlines()[2:]]
        exp_rows = [r for r in lines if r[0] == "exponent"]
        marked_b = [float(r[1]) for r in exp_rows if r[8] == "1"]
        assert marked_b == [1.25]
        marked_base = [float(r[1]) for r in exp_rows if r[9] == "1"]
        assert marked_base == [1.5]
        for r in exp_rows:
            tau, ach, base = float(r[1]), float(r[3]), float(r[4])
            if tau < 1.5:
                assert ach >= base
        bound_rows = [r for r in lines if r[0] == "lower_bound"]
        assert {int(r[2]) for r in bound_rows} == {4 ** m for m in range(8, 13)}

    @pytest.mark.parametrize("a2, beta2", [("5", "0.88"), ("2", "0.85")])
    def test_lower_bound_empty_where_the_budget_holds_the_library(self, capsys, a2, beta2):
        """A lower-bound cell is empty where L_C >= L, a budget place refuses.
        At --a2 5 --beta2 0.88 the tau < 1 branch printed -0.00263 at n = 65536."""
        code, out, err = run_cli(capsys, "scaling", "--a2", a2, "--beta2", beta2,
                                 "--range", "0:2:0.5")
        assert code == 0 and err == ""
        rows = [r.split(",") for r in out.splitlines()[2:] if r.startswith("lower_bound,")]
        assert {r[6] for r in rows if r[2] == "65536"} == {""}
        for r in rows:
            n = int(r[2])
            holds_library = float(a2) * n ** float(beta2) >= math.floor(n ** 0.9)
            assert (r[6] == "") == holds_library
            assert holds_library or float(r[6]) >= 0.0

    def test_cells_it_leaves_empty_are_not_evaluated(self, capsys):
        """At --a2 1e300 every budget holds the library, so no lower-bound
        cell is evaluated; the tau > gamma + 1 branch would overflow there."""
        code, out, err = run_cli(capsys, "scaling", "--M", "1", "--a2", "1e300")
        assert code == 0 and err == ""
        rows = [r.split(",") for r in out.splitlines()[2:] if r.startswith("lower_bound,")]
        assert len(rows) == 5 * 61  # M = 8..12 x the 61 taus of 0:3:0.05
        assert {r[6] for r in rows} == {""}

    def test_kink_structure(self, capsys):
        """Exponent curves are piecewise linear with kinks only at the two
        critical points: second differences vanish elsewhere."""
        code, out, _ = run_cli(capsys, "scaling", "--alpha", "2.5",
                               "--range", "0:3:0.125")
        rows = [r.split(",") for r in out.splitlines()[2:]]
        pts = [(float(r[1]), float(r[3])) for r in rows if r[0] == "exponent"]
        pts.sort()
        for (t0, v0), (t1, v1), (t2, v2) in zip(pts, pts[1:], pts[2:]):
            if {1.0, 1.25} & {round(t1, 6)}:
                continue
            s01 = (v1 - v0) / (t1 - t0)
            s12 = (v2 - v1) / (t2 - t1)
            assert s01 == pytest.approx(s12, abs=1e-9)


class TestOracle:
    def test_consistent_instance(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--M", "2", "--l", "8",
                               "--lc", "1.0", "--tau", "1.0")
        assert code == 0
        rows = dict((r.split(",")[0], r.split(",")[1]) for r in out.splitlines()[2:])
        assert rows["exact"] == rows["brute_force"]
        assert float(rows["algorithm1"]) <= float(rows["brute_force"]) * (1 + 1e-12)
        assert float(rows["algorithm1"]) >= float(rows["brute_floor"]) * (1 - 1e-12)

    def test_degenerate_budget_all_equal(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--M", "2", "--l", "8", "--lc", "0.5")
        assert code == 0
        rows = dict((r.split(",")[0], r.split(",")[1]) for r in out.splitlines()[2:])
        assert rows["algorithm1"] == rows["exact"] == rows["brute_force"]

    @pytest.mark.parametrize("argv", [
        ("--M", "3", "--l", "20", "--lc", "19.9999999999999", "--tau", "0", "--alpha", "2.5"),
        ("--M", "1", "--l", "1", "--lc", "0.9999999999999998"),
    ])
    def test_budget_within_tolerance_of_the_library_is_all_local(self, capsys, argv):
        """The all-local placement fits within the 1e-12 budget tolerance, and
        exact finds it as brute force does (it exited 2 on a finite exact rate)."""
        code, out, err = run_cli(capsys, "oracle", *argv)
        assert code == 0 and err == ""
        all_local = ";".join([argv[3]] + ["0"] * int(argv[1]))
        rows = [r.split(",")[1:] for r in out.splitlines()[2:5]]  # algorithm1, exact, brute
        assert rows == [["inf", all_local]] * 3

    def test_brute_floor_is_zero_once_the_factor_overflows(self, capsys):
        """An unbounded brute-force rate times the guarantee factor that
        overflowed to 0.0 prints the documented floor 0.0, not nan."""
        code, out, err = run_cli(capsys, "oracle", "--M", "1", "--l", "1",
                                 "--lc", "0.9999999999999998", "--tau", "1100")
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "brute_floor,0.0,"

    def test_violation_exits_2(self, capsys, monkeypatch):
        """An exact rate one ulp off the brute-force rate is reported on one
        stderr line, after the table."""
        solve = cli.solve_exact

        def one_ulp_high(*args):
            x, rate = solve(*args)
            return x, math.nextafter(rate, math.inf)
        monkeypatch.setattr(cli, "solve_exact", one_ulp_high)
        code, out, err = run_cli(capsys, "oracle", "--M", "2", "--l", "8", "--lc", "1.0")
        assert code == 2 and out.startswith("# d2d-cachescale v")
        assert err.startswith("oracle violation: exact rate ") and err.count("\n") == 1


class TestLibraryErrors:
    @pytest.mark.parametrize("exc, line", [
        (InvariantViolationError("planted"), "invariant violation: planted\n"),
        (BracketError("planted"), "error: planted\n"),
    ])
    def test_exit_2_with_one_line(self, capsys, monkeypatch, exc, line):
        """An invariant violation, and any other library error that is not a
        bad argument, exits 2 with one stderr line and no output."""
        def fail(*args):
            raise exc
        monkeypatch.setattr(cli, "optimize_placement", fail)
        code, out, err = run_cli(capsys, "place", "--M", "2", "--l", "8", "--lc", "1.0")
        assert (code, out, err) == (2, "", line)

    def test_rate_search_out_of_steps_exits_2(self, capsys, monkeypatch):
        """A relaxed-rate search that runs out of steps ends in exit 2 with
        one stderr line, not in a rate it has not shown to be least."""
        monkeypatch.setattr(placement, "_RATE_STEPS", 2)
        code, out, err = run_cli(capsys, "place", "--M", "2", "--l", "8", "--lc", "1.0")
        assert (code, out) == (2, "")
        assert err.startswith("error: rate bracket (") and err.endswith(
            "still open after 2 steps\n")


class TestSimulate:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--M", "3", "--l", "30",
                               "--lc", "2.0", "--requests", "5000")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "level,empirical_load,analytic_load,relative_error"
        assert len(lines) == 2 + 3

    @pytest.mark.parametrize("fmt, golden", [("csv", "simulate_m9.csv"),
                                             ("json", "simulate_m9.json")])
    def test_pinned_simulation(self, capsys, fmt, golden):
        """M=9, 3e5 requests, seed 7, tau=1: frozen from the per-rank draw
        the level draw replaced."""
        code, out, _ = run_cli(capsys, "simulate", "--M", "9", "--requests", "300000",
                               "--seed", "7", "--tau", "1", "--format", fmt)
        assert code == 0
        assert out == (Path(__file__).parent / "data" / golden).read_text()

    def test_relative_error_column(self, capsys):
        """relative_error is (emp - ana) / ana, and 0 on a level whose analytic
        load is 0: level 2 of the first instance, every level of the second."""
        loads = []
        for argv in (("--l", "3", "--lc", "2.5"), ("--l", "2", "--lc", "1.999999999999")):
            code, out, _ = run_cli(capsys, "simulate", "--M", "2", *argv,
                                   "--requests", "2000", "--seed", "8")
            assert code == 0
            rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[2:]]
            assert [r[0] for r in rows] == [1, 2]
            for _, emp, ana, rel in rows:
                assert rel == ((emp - ana) / ana if ana > 0 else 0.0)
                loads.append(ana)
        assert 0.0 in loads and max(loads) > 0.0

    def test_request_count_above_guard(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("simulate ran past the request guard")
        monkeypatch.setattr(cli, "simulate", never)
        code, out, err = run_cli(capsys, "simulate", "--M", "3", "--l", "30", "--lc", "2.0",
                                 "--requests", "10000000000000")
        assert code == 3
        assert out == ""
        assert err.startswith("error: 10000000000000 requests exceed the simulation guard")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestInputChecks:
    @pytest.mark.parametrize("argv, conf, message", [
        (("place", "--lc", "nan"), None, "--lc must be finite, got nan"),
        (("place", "--beta2", "nan"), None, "--beta2 must be finite, got nan"),
        (("place", "--kappa", "inf"), None, "--kappa must be finite, got inf"),
        (("place", "--tau=-inf"), None, "--tau must be finite, got -inf"),
        (("sweep", "--alpha", "inf"), None, "--alpha must be finite, got inf"),
        (("simulate", "--seed", "-1"), None, "--seed must be >= 0, got -1"),
        (("place",), "kappa=inf", "--kappa must be finite, got inf"),
        (("place",), "bandwidth-hz=nan", "--bandwidth-hz must be finite, got nan"),
        (("oracle",), "lc=-inf", "--lc must be finite, got -inf"),
        (("simulate",), "seed=-3", "--seed must be >= 0, got -3"),
        (("place", "--bandwidth-hz", "-1"), None, "--bandwidth-hz must be > 0, got -1.0"),
        (("sweep", "--bandwidth-hz", "0"), None, "--bandwidth-hz must be > 0, got 0.0"),
        (("simulate",), "bandwidth_hz=-1e-300", "--bandwidth-hz must be > 0, got -1e-300"),
        (("place", "--l", "0"), None, "--l must be >= 1, got 0"),
        (("place", "--l", "-5"), None, "--l must be >= 1, got -5"),
        (("sweep",), "l=0", "--l must be >= 1, got 0"),
        (("place",), "M 3", "CONF:1: expected key=value, got 'M 3'"),
        (("sweep", "--range", "0:1"), None, "range must be lo:hi:step, got '0:1'"),
        (("scaling", "--range", "a:1:1"), None, "range must be numeric lo:hi:step, got 'a:1:1'"),
        (("sweep", "--range", "0:1:0"), None, "range needs step > 0 and hi >= lo, got '0:1:0'"),
        (("sweep", "--range", "1:0:0.5"), None,
         "range needs step > 0 and hi >= lo, got '1:0:0.5'"),
        (("simulate", "--requests", "0"), None, "request count must be >= 1, got 0"),
    ])
    def test_non_finite_or_negative_seed_rejected(self, capsys, monkeypatch, tmp_path,
                                                  argv, conf, message):
        def never(*args, **kwargs):
            raise AssertionError("a model was built from a rejected input")
        monkeypatch.setattr(cli, "zipf_pmf", never)
        if conf is not None:
            path = tmp_path / "bad.conf"
            path.write_text(conf + "\n")
            argv = (*argv, "--config", str(path))
            message = message.replace("CONF", str(path))
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err == f"error: {message}\n"

    def test_zero_probability_rank_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "place", "--tau", "200")
        assert code == 3 and out == ""
        assert err.startswith("error: skewness 200.0 leaves rank L = ")
        assert err.count("\n") == 1 and "Traceback" not in err
        code, out, err = run_cli(capsys, "sweep", "--M", "5", "--axis", "tau",
                                 "--range", "0:300:100")
        assert code == 3 and out == "" and "zero probability" in err

    @pytest.mark.parametrize("argv, message", [
        (("place", "--M", "40"), "level count 40 exceeds the guard of 20"),
        (("place", "--M", "21", "--l", "10", "--lc", "2"), "level count 21 exceeds the guard"),
        (("place", "--n", str(4 ** 40)), "level count 40 exceeds the guard of 20"),
        (("sweep", "--M", "40", "--axis", "tau"), "level count 40 exceeds the guard of 20"),
        (("oracle", "--M", "40", "--l", "4", "--lc", "1"), "level count 40 exceeds the guard"),
        (("simulate", "--M", "40"), "level count 40 exceeds the guard of 20"),
        (("place", "--M", "-1"), "level count must be an integer >= 1, got -1"),
        (("place", "--M", "0"), "level count must be an integer >= 1, got 0"),
        (("scaling", "--M", "0"), "level count must be an integer >= 1, got 0"),
        (("scaling", "--M", "40"), "level count 40 exceeds the guard of 20"),
    ])
    def test_level_count_guard_exits_3_before_any_work(self, capsys, monkeypatch, argv, message):
        """A level count outside [1, 20] is refused before the O(2^M)
        interference sums and the O(L) Zipf build."""
        def never(*args, **kwargs):
            raise AssertionError("a model was built past the level-count guard")
        monkeypatch.setattr(hierarchy, "interference_power", never)
        monkeypatch.setattr(cli, "zipf_pmf", never)
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_library_guard_exits_3_before_the_zipf_build(self, capsys, monkeypatch):
        """At the default beta1 = 0.9, M = 15 (L = 2^27, about 1.3e8) is within
        the Zipf guard and M = 16 (L about 4.7e8) is refused before allocating."""
        def library_size(m):
            cfg = cli._resolve(cli._build_parser().parse_args(["place", "--M", str(m)]))
            return cfg.library_size
        assert library_size(15) <= MAX_RANKS < library_size(16)

        def never(*args, **kwargs):
            raise AssertionError("zipf_pmf allocated past the size guard")
        monkeypatch.setattr(np, "empty", never)
        monkeypatch.setattr(np, "zeros", never)
        code, out, err = run_cli(capsys, "place", "--M", "16")
        assert code == 3 and out == ""
        assert err == (f"error: {library_size(16)} files exceed the Zipf model guard "
                       f"of {MAX_RANKS} ranks\n")

    @pytest.mark.parametrize("tau", ["355", "358"])
    def test_oracle_agrees_with_subnormal_last_rank(self, capsys, tau):
        code, out, err = run_cli(capsys, "oracle", "--M", "2", "--l", "8",
                                 "--lc", "1.0", "--tau", tau)
        assert code == 0 and err == ""
        rows = dict((r.split(",")[0], r.split(",")[1]) for r in out.splitlines()[2:])
        assert rows["exact"] == rows["brute_force"]

    @pytest.mark.parametrize("argv, message", [
        (("place", "--M", "3", "--l", "30", "--lc", "2", "--alpha", "600"),
         "path loss exponent 600.0 overflows the effective SNR"),
        (("place", "--kappa", "1e6"), "kappa = 1000000.0 and alpha = 4.0 overflow"),
        (("place", "--M", "1", "--l", "1", "--beta2", "1e6"),
         "L_C = 1.0 * 4^1000000.0 overflows a float"),
        (("place", "--beta1", "1e6"), "L = 1.0 * 262144^1000000.0 overflows a float"),
        (("scaling", "--alpha", "600"), "path loss exponent 600.0 overflows"),
        (("place", "--M", "1", "--l", "4", "--lc", "3.5", "--bandwidth-hz", "1e308",
          "--format", "json"), "--bandwidth-hz 1e+308 times the rate "),
        (("sweep", "--M", "3", "--bandwidth-hz", "1e308", "--range", "0.3:0.3:0.1"),
         "--bandwidth-hz 1e+308 times the rate "),
    ])
    def test_float_overflow_exits_3(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("place", "--M", "1", "--l", "1", "--beta2", "-1"),
        ("place", "--M", "1", "--l", "1", "--lc", "0.5", "--beta2", "0.1"),
    ])
    def test_single_file_library_has_no_upper_bound(self, capsys, argv):
        """At L = 1 and tau = 1 the upper bound's 1/log L is undefined."""
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        lines = dict(line.split(",", 1) for line in out.splitlines()[2:])
        assert lines["L"] == "1"
        assert lines["upper_bound_bits_per_s_hz"] == ""

    @pytest.mark.parametrize("m_levels, L, l_c, tau", [
        ("9", "1000", "999.9999999999", "1"),
        ("1", "8192", "8191.999999999998", "0"),
        ("1", "5", "4.999999999997", "0"),
        ("4", "64", "63.9999999995", "1"),
        ("1", "65536", "65535.99999999999", "0"),
    ])
    def test_budget_just_below_the_library_keeps_one_file_off_node(self, capsys, m_levels,
                                                                   L, l_c, tau):
        """Rounding used to put all L files on level 0, past the budget, and
        the run exited 2 with "placement needs L cache per node": by snapping
        a target within 1e-9 of L up to L, or (the last case, one float step
        below L) from a target that rounds to L itself."""
        code, out, err = run_cli(capsys, "place", "--M", m_levels, "--l", L, "--lc", l_c,
                                 "--tau", tau)
        assert code == 0 and err == ""
        lines = dict(line.split(",", 1) for line in out.splitlines()[2:])
        assert lines["x"].split(";")[0] == str(int(L) - 1)

    def test_budget_a_rounding_error_below_the_library_has_no_upper_bound(self, capsys):
        """L_C + 1 rounds to L + 1, so the tau >= gamma + 1 denominator is
        zero; it once raised ZeroDivisionError."""
        code, out, err = run_cli(capsys, "place", "--M", "2", "--l", "4", "--alpha", "2.2",
                                 "--lc", "3.9999999999999996", "--tau", "2")
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "upper_bound_bits_per_s_hz,"

    def test_guarantee_floor_past_overflow(self, capsys):
        code, out, err = run_cli(capsys, "place", "--M", "1", "--l", "1",
                                 "--lc", "0.5", "--tau", "1200")
        assert code == 0 and err == ""
        lines = dict(line.split(",", 1) for line in out.splitlines()[2:])
        assert lines["guarantee_floor_bits_per_s_hz"] == "0.0"

    def test_lower_bound_past_overflow_is_zero(self, capsys):
        """In the tau > gamma + 1 branch tau^(1/gamma) overflows for huge tau;
        the denominator is then inf and the bound its limit, 0.0."""
        code, out, err = run_cli(capsys, "place", "--M", "1", "--l", "1",
                                 "--lc", "0.5", "--tau", "1e300")
        assert code == 0 and err == ""
        lines = dict(line.split(",", 1) for line in out.splitlines()[2:])
        assert lines["lower_bound_floor_bits_per_s_hz"] == "0.0"
        code, out, err = run_cli(capsys, "scaling", "--range", "0:1e200:1e199")
        assert code == 0 and err == ""
        rows = [r.split(",") for r in out.splitlines()[2:] if r.startswith("lower_bound,")]
        assert {r[6] for r in rows if float(r[1]) >= 1e199} == {"0.0"}


class TestRange:
    def test_guard_counts_points(self):
        values = _parse_range("0:9999:1")
        assert len(values) == 10000 and values[-1] == 9999.0
        assert len(_parse_range("0:3:0.05")) == 61
        for spec in ("0:10000:1", "0:1e9:1e-9", "-1e308:1e308:1e-300"):
            with pytest.raises(SizeGuardError, match="guard of 10000 points"):
                _parse_range(spec)

    @pytest.mark.parametrize("spec, message", [
        ("0:1e9:1e-9", "error: range '0:1e9:1e-9' exceeds the guard of 10000 points\n"),
        ("0:inf:1", "error: range must be finite lo:hi:step, got '0:inf:1'\n"),
        ("nan:1:1", "error: range must be finite lo:hi:step, got 'nan:1:1'\n"),
    ])
    def test_bad_range_exits_3_before_any_work(self, capsys, monkeypatch, spec, message):
        def never(*args, **kwargs):
            raise AssertionError("sweep ran past the range check")
        monkeypatch.setattr(cli, "zipf_pmf", never)
        code, out, err = run_cli(capsys, "sweep", "--M", "3", "--range", spec)
        assert code == 3 and out == ""
        assert err == message


class TestOptionTable:
    # Dests and flag names without dashes ('-' read as '_').
    CONFIG_KEYS = {
        "m_levels", "M", "n", "kappa", "alpha", "beta1", "beta2", "a1", "a2", "tau",
        "l", "lc", "bandwidth_hz", "seed", "rc_fraction", "axis", "range_spec",
        "range", "fmt", "format", "out", "requests",
    }

    def test_config_keys_are_dests_and_flag_names(self, tmp_path):
        assert set(cli._CONFIG_KEYS) == self.CONFIG_KEYS
        values = {"axis": "tau", "fmt": "json", "range_spec": "0:1:1", "out": "x.csv"}
        for key in self.CONFIG_KEYS | {"bandwidth-hz", "rc-fraction", "range-spec"}:
            opt = cli._CONFIG_KEYS[key.replace("-", "_")]
            path = tmp_path / "ok.conf"
            path.write_text(f"{key}={values.get(opt.dest, '2')}\n")
            assert list(_read_config_file(str(path))) == [opt.dest]
        for key in ("config", "m", "Format", "command", "help"):
            path = tmp_path / "bad.conf"
            path.write_text(f"{key}=1\n")
            with pytest.raises(InvalidParameterError, match="unknown key"):
                _read_config_file(str(path))

    def test_config_fields_are_the_option_dests(self):
        """Every option but --n, which resolves to m_levels, is a config field."""
        fields = tuple(f.name for f in dataclasses.fields(cli.ExperimentConfig))
        assert fields == tuple(opt.dest for opt in _OPTIONS if opt.dest != "n")

    def test_every_command_is_a_subparser_listing_every_flag(self, capsys):
        def help_text(*argv):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--help"])
            assert exc.value.code == 0
            return capsys.readouterr().out

        assert f"{{{','.join(cli._COMMANDS)}}}" in help_text()
        for name in cli._COMMANDS:
            out = help_text(name)
            assert out.startswith(f"usage: d2d-cachescale {name} ")
            for flag in [opt.flag for opt in _OPTIONS] + ["--config"]:
                assert re.search(f"^  {re.escape(flag)} ", out, re.M), (name, flag)

    def test_every_flag_in_readme(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        common = readme[readme.index("Common flags:"):]
        common = common[:common.index("\n\n")]
        for flag in [opt.flag for opt in _OPTIONS] + ["--config"]:
            assert re.search(f"`{re.escape(flag)}[` /]", common), flag

    @pytest.mark.parametrize("argv, pick", [
        (("place", "--M", "2", "--l", "2", "--lc", "1.999999999999"),
         lambda doc: [doc["rate_bits_per_s_hz"], doc["rate_bits_per_s"]]),
        (("oracle", "--M", "1", "--l", "1", "--lc", "0.9999999999999998"),
         lambda doc: [row[1] for row in doc["rows"]]),
        (("sweep", "--M", "2", "--l", "2", "--lc", "1.999999999999", "--axis", "tau",
          "--range", "1:1:1"), lambda doc: doc["rows"][0][1:3]),
    ])
    def test_json_writes_an_unbounded_rate_as_null(self, capsys, argv, pick):
        """Strict JSON has no Infinity: each rate CSV prints as inf is null."""
        def no_constants(name):
            raise AssertionError(f"{name} in JSON output")
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0 and err == ""
        values = pick(json.loads(out, parse_constant=no_constants))
        assert values and all(v is None for v in values)
        assert run_cli(capsys, *argv)[1].count(",inf") == len(values)

    def test_json_value_nulls_non_finite_floats_at_any_depth(self):
        doc = {"a": [1.0, math.inf, (math.nan, -math.inf, 2)], "b": {"c": math.inf}, "d": "x"}
        assert cli._json_value(doc) == {"a": [1.0, None, [None, None, 2]],
                                        "b": {"c": None}, "d": "x"}

    def test_json_and_csv_carry_the_same_rows(self, capsys):
        argv = ("sweep", "--M", "3", "--axis", "tau", "--range", "0:1:0.5")
        _, csv_out, _ = run_cli(capsys, *argv)
        _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        doc = json.loads(json_out)
        lines = csv_out.splitlines()
        assert lines[0] == f"# {doc['schema_version']}"
        assert lines[1].split(",") == doc["columns"]
        assert [line.split(",") for line in lines[2:]] == [
            [cli._fmt_cell(v) for v in row] for row in doc["rows"]]


class TestConfigFile:
    def test_precedence(self, capsys, tmp_path):
        conf = tmp_path / "exp.conf"
        conf.write_text("M=2\nl=8\nlc=1.0\ntau=0.5\n# a comment\n")
        _, out1, _ = run_cli(capsys, "place", "--config", str(conf), "--format", "json")
        d1 = json.loads(out1)
        assert d1["M"] == 2 and d1["L"] == 8
        # CLI flag overrides the file
        _, out2, _ = run_cli(capsys, "place", "--config", str(conf),
                             "--format", "json", "--tau", "2.0")
        d2 = json.loads(out2)
        assert d2["rate_bits_per_s_hz"] != d1["rate_bits_per_s_hz"]

    def test_unknown_key_rejected(self, capsys, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("unknown_key=3\n")
        code, _, _ = run_cli(capsys, "place", "--config", str(conf))
        assert code == 3

    @pytest.mark.parametrize("line", ["tau=abc", "M=2.5", "n=sixteen", "requests="])
    def test_non_numeric_value_rejected(self, capsys, tmp_path, line):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"# header\n{line}\n")
        code, out, err = run_cli(capsys, "place", "--config", str(conf))
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {conf}:2: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command, line, choices", [
        ("sweep", "axis=foo", "beta2, tau, alpha"),
        ("place", "format=xml", "csv, json"),
    ])
    def test_value_outside_choices_rejected(self, capsys, tmp_path, command, line, choices):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"# header\n{line}\n")
        code, out, err = run_cli(capsys, command, "--config", str(conf))
        assert code == 3
        assert out == ""
        name, _, value = line.partition("=")
        assert err == f"error: {conf}:2: {name} must be one of {choices}, got {value!r}\n"


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("place", "--M", "3", "--l", "30", "--lc", "2.0"),
        ("sweep", "--M", "3", "--axis", "tau", "--range", "0:1:0.5"),
        ("scaling", "--alpha", "2.5", "--range", "0:2:0.5"),
        ("oracle", "--M", "2", "--l", "8", "--lc", "1.0"),
        ("simulate", "--M", "3", "--l", "30", "--lc", "2.0",
         "--requests", "2000", "--seed", "42"),
    ])
    def test_byte_identical_repeats(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
