"""CLI behaviour: outputs, formats, exit codes, config precedence."""

import json

import pytest

from d2d_cachescale import placement_from_document
from d2d_cachescale.cli import main


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
        pv, l_c, rate = placement_from_document(doc)
        assert pv.L == 8 and l_c == 1.0 and rate > 0

    def test_bandwidth_scales_output(self, capsys):
        _, out1, _ = run_cli(capsys, "place", "--M", "2", "--l", "8", "--lc", "1.0",
                             "--format", "json")
        _, out2, _ = run_cli(capsys, "place", "--M", "2", "--l", "8", "--lc", "1.0",
                             "--format", "json", "--bandwidth-hz", "2e8")
        d1, d2 = json.loads(out1), json.loads(out2)
        assert d2["rate_bits_per_s"] == pytest.approx(d1["rate_bits_per_s"] * 2e8)
        assert d2["rate_bits_per_s_hz"] == d1["rate_bits_per_s_hz"]

    def test_pinned_dense_grid_point(self, capsys):
        """n=4^9, beta1=0.9, beta2=0.3, tau=1, alpha=4 at 200 MHz: frozen
        after the first verified run."""
        from pathlib import Path
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


class TestSimulate:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--M", "3", "--l", "30",
                               "--lc", "2.0", "--requests", "5000")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "level,empirical_load,analytic_load,relative_error"
        assert len(lines) == 2 + 3


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
