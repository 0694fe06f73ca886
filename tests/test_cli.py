import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fourierpath
from fourierpath import cli, pathdata, sim, spectrum, trigpath
from fourierpath.cli import main


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestTransform:
    def test_circle_single_unit_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["transform", "--synth", "circle,4", "--out-dir", out]) == 0
        header, rows = read_csv(out / "spectrum.csv")
        assert header == ["k", "re", "im", "magnitude"]
        mags = {int(r[0]): float(r[3]) for r in rows}
        assert mags[1] == pytest.approx(1.0, abs=1e-12)
        assert sum(v for k, v in mags.items() if k != 1) < 1e-9
        assert "N=4" in capsys.readouterr().out

    def test_758_point_file_gives_758_rows(self, tmp_path, capsys):
        data = tmp_path / "pi_like.csv"
        rng = np.random.default_rng(0)
        with open(data, "w") as fh:
            fh.write("x,y\n")
            for px, py in rng.standard_normal((758, 2)):
                fh.write(f"{px},{py}\n")
        out = tmp_path / "out"
        assert run(["transform", "--input", data, "--out-dir", out]) == 0
        _, rows = read_csv(out / "spectrum.csv")
        assert len(rows) == 758
        assert "N=758" in capsys.readouterr().out

    def test_missing_file_fails_and_names_path(self, tmp_path, capsys):
        code = run(["transform", "--input", tmp_path / "nope.csv", "--out-dir", tmp_path / "o"])
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["transform", "--synth", "lissajous,64,3,2", "--sigma1", "0.1",
                        "--sigma2", "0.15", "--seed", "7", "--out-dir", out]) == 0
        assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()


class TestReconstruct:
    def test_exports_one_file_per_width(self, tmp_path):
        out = tmp_path / "out"
        assert run(["reconstruct", "--synth", "lissajous,758,3,2",
                    "--m-list", "10,20,40,100,full", "--out-dir", out]) == 0
        for label in ("10", "20", "40", "100", "full"):
            assert (out / f"reconstruction_{label}.csv").exists()

    def test_full_width_passes_through_the_samples(self, tmp_path):
        from fourierpath import synth_path

        n = 64
        ps = synth_path("lissajous", n, [3, 2])
        out = tmp_path / "out"
        assert run(["reconstruct", "--synth", f"lissajous,{n},3,2",
                    "--m-list", "full", "--samples", n, "--out-dir", out]) == 0
        _, rows = read_csv(out / "reconstruction_full.csv")
        xy = np.array([[float(r[1]), float(r[2])] for r in rows])
        assert np.max(np.abs(xy - ps.points)) < 1e-6

    def test_prime_sample_count_passes_through_the_data(self, tmp_path):
        # 1031 is prime, so the grid transform takes the chirp path, and
        # its parameter j lands on sample 2j of the 2062 data samples
        rng = np.random.default_rng(5)
        points = rng.standard_normal((2062, 2))
        data = tmp_path / "data.csv"
        np.savetxt(data, points, fmt="%.17g", delimiter=",")
        out = tmp_path / "out"
        assert run(["reconstruct", "--input", data, "--m-list", "full", "--samples", "1031",
                    "--out-dir", out]) == 0
        table = np.loadtxt(out / "reconstruction_full.csv", delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 0], 2.0 * np.pi * np.arange(1031) / 1031)
        scale = np.sum(np.abs(spectrum.dft(pathdata.PathSamples(points)).a))
        assert np.max(np.abs(table[:, 1:] - points[::2])) <= 1e-9 * scale

    def test_tiny_width_stays_finite(self, tmp_path):
        out = tmp_path / "out"
        assert run(["reconstruct", "--synth", "circle,32", "--m-list", "1",
                    "--out-dir", out]) == 0
        _, rows = read_csv(out / "reconstruction_1.csv")
        values = np.array([[float(v) for v in r] for r in rows])
        assert np.all(np.isfinite(values))

    def test_width_out_of_range_fails(self, tmp_path, capsys):
        assert run(["reconstruct", "--synth", "circle,16", "--m-list", "99",
                    "--out-dir", tmp_path / "o"]) == 1
        assert "99" in capsys.readouterr().err

    def test_missing_m_list_fails(self, tmp_path):
        assert run(["reconstruct", "--synth", "circle,16", "--out-dir", tmp_path / "o"]) == 1


class TestSimulate:
    ARGS = ["simulate", "--synth", "lissajous,128,3,2", "--sigma1", "0.1",
            "--sigma2", "0.15", "--seed", "3", "--window-m", "20",
            "--x0", "-1", "--y0", "2", "--duration", "2", "--dt", "1e-3"]

    def test_writes_trajectory_and_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(self.ARGS + ["--out-dir", out]) == 0
        header, rows = read_csv(out / "trajectory.csv")
        assert header == ["t", "x", "y", "theta", "phi1", "phi2", "V1", "e_inst"]
        assert len(rows) == 2001
        text = capsys.readouterr().out
        assert "final_V1=" in text and "convergence_time=" in text
        assert json.loads((out / "resolved_config.json").read_text())["window_m"] == 20

    def test_stride_decimates(self, tmp_path):
        out = tmp_path / "out"
        assert run(self.ARGS + ["--stride", "10", "--out-dir", out]) == 0
        _, rows = read_csv(out / "trajectory.csv")
        assert len(rows) == 201

    def test_on_path_start_keeps_error_tiny(self, tmp_path):
        out = tmp_path / "out"
        assert run(["simulate", "--synth", "circle,64", "--x0", "1", "--y0", "0",
                    "--duration", "2", "--dt", "1e-3", "--out-dir", out]) == 0
        _, rows = read_csv(out / "trajectory.csv")
        e = np.array([float(r[7]) for r in rows])
        assert np.max(e) < 1e-8

    @pytest.mark.parametrize("args", [
        ["simulate", "--synth", "circle,64", "--duration", "2", "--stride", "0"],
        ["reconstruct", "--synth", "circle,64", "--m-list", "full", "--samples", "1"],
        ["simulate", "--synth", "circle,64", "--duration", "2", "--conv-tol", "-1"],
        # checks that need no data
        ["transform"],
        ["transform", "--input", "absent.csv", "--synth", "circle,8"],
        ["reconstruct", "--synth", "circle,32"],
        ["reconstruct", "--synth", "circle,32", "--m-list", "10,abc"],
        ["reconstruct", "--synth", "circle,32", "--m-list", "10,0"],
        ["simulate", "--synth", "circle,64", "--window-m", "0"],
        ["simulate", "--synth", "circle,64", "--window-m", "3", "--window-auto"],
        ["sweep", "--synth", "circle,32", "--window-max", "0"],
        # flags the command does not take, and unparsable flags
        ["transform", "--synth", "circle,8", "--window-m", "3"],
        ["transform", "--synth", "circle,8", "--k1", "2"],
        ["simulate", "--synth", "circle,64", "--dt", "abc"],
        ["certify", "--synth", "circle,64", "--method", "rk5"],
        [],
        # the data source, and settings checked by the objects built from them
        ["transform", "--synth", "triangle,8"],
        ["transform", "--synth", "circle"],
        ["transform", "--input", "/nonexistent/path.csv"],
        ["certify", "--synth", "circle,64", "--runs", "0"],
        ["certify", "--synth", "circle,64", "--dt", "0"],
        ["certify", "--synth", "circle,64", "--k1", "0"],
        ["certify", "--synth", "circle,64", "--sigma1", "-1"],
        ["simulate", "--synth", "circle,64", "--seed", "-1", "--sigma1", "0.1"],
        ["simulate", "--synth", "circle,64", "--x0", "nan"],
        ["simulate", "--synth", "circle,64", "--duration", "1e9", "--dt", "1e-3"],
        # window widths past the sample count N
        ["reconstruct", "--synth", "circle,64", "--m-list", "10,500"],
        ["simulate", "--synth", "circle,64", "--window-m", "500"],
        ["sweep", "--synth", "circle,64", "--window-max", "500"],
        # a table no host can hold
        ["reconstruct", "--synth", "circle,64", "--m-list", "4", "--samples", str(10**30)],
        ["certify", "--synth", "circle,16", "--runs", str(10**30), "--duration", "0.01",
         "--dt", "0.001"],
        # noise whose power sigma1^2 + sigma2^2 overflows
        ["sweep", "--synth", "circle,16", "--sigma1", "2e154"],
        ["certify", "--synth", "circle,16", "--sigma1", "2e154", "--runs", "1",
         "--duration", "0.01", "--dt", "0.001"],
        ["simulate", "--synth", "circle,16", "--sigma2", "2e154", "--window-auto",
         "--duration", "0.01", "--dt", "0.001"],
        ["transform", "--synth", "circle,16", "--sigma1", "1e200"],
        # a start no step can integrate
        ["simulate", "--synth", "circle,16", "--x0", "1e30", "--duration", "0.1", "--dt", "0.01"],
        ["simulate", "--synth", "circle,16", "--y0=-1e30", "--duration", "0.1", "--dt", "0.01"],
        ["certify", "--synth", "circle,16", "--theta0", "1e30", "--runs", "1",
         "--duration", "0.1", "--dt", "0.01"],
        # noise scales and synthetic parameters past the magnitude guard rail
        ["sweep", "--synth", "circle,16", "--sigma1", "1.3e154"],
        ["certify", "--synth", "circle,16", "--sigma2", "1e151", "--runs", "1",
         "--duration", "0.01", "--dt", "0.001"],
        ["transform", "--synth", "circle,16,1e151"],
        ["sweep", "--synth", "ellipse,16,2,1e200"],
        # data larger than any state the integrator keeps
        ["simulate", "--synth", "circle,16,1e150", "--duration", "0.01", "--dt", "0.001"],
        ["certify", "--synth", "circle,16,1e13", "--runs", "1", "--duration", "0.01",
         "--dt", "0.001"],
        # noise that pushes followable data past it
        ["simulate", "--synth", "circle,16", "--sigma1", "1e13", "--duration", "0.01",
         "--dt", "0.001"],
        ["certify", "--synth", "circle,16", "--sigma2", "1e13", "--runs", "1",
         "--duration", "0.01", "--dt", "0.001"],
        # more samples than the sample-count guard rail allows
        ["sweep", "--synth", f"circle,{pathdata._SAMPLE_LIMIT + 1}"],
        # a bounded float setting must be finite
        ["simulate", "--synth", "circle,64", "--conv-tol", "inf"],
        ["simulate", "--synth", "circle,64", "--conv-tol", "nan"],
        ["certify", "--synth", "circle,64", "--y0", "-inf"],
        # a width listed twice would be computed and written twice
        ["reconstruct", "--synth", "circle,8", "--m-list", "full,full"],
        ["reconstruct", "--synth", "circle,8", "--m-list", "3,3"],
    ])
    def test_bad_output_option_fails_before_any_output(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert run(args + ["--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("args,flag", [
        (["simulate", "--synth", "circle,64", "--x0", "nan"], "--x0"),
        (["simulate", "--synth", "circle,64", "--theta0", "inf"], "--theta0"),
        (["transform", "--synth", "circle,8,x"], "--synth"),
        (["transform", "--synth", "triangle,8"], "--synth"),
        (["simulate", "--synth", "circle,64", "--window-m", "500"], "--window-m"),
        (["reconstruct", "--synth", "circle,64", "--m-list", "10,500"], "--m-list"),
        (["certify", "--synth", "circle,16", "--runs", str(10**30)], "--runs"),
        (["transform", "--synth", "circle,16,1e151"], "--synth"),
        (["sweep", "--synth", "circle,16", "--sigma1", "1.3e154"], "sigma1"),
        (["simulate", "--synth", "circle,16,1e150", "--duration", "0.01", "--dt", "0.001"],
         "--synth"),
        (["simulate", "--synth", "circle,16", "--sigma1", "1e13", "--duration", "0.01",
          "--dt", "0.001"], "--sigma1"),
        (["certify", "--synth", "circle,16", "--sigma2", "1e13", "--runs", "1",
          "--duration", "0.01", "--dt", "0.001"], "--sigma2"),
        (["sweep", "--synth", f"circle,{pathdata._SAMPLE_LIMIT + 1}"], "--synth"),
        (["simulate", "--synth", "circle,64", "--x0", "-1e13"], "--x0"),
    ])
    def test_error_names_the_flag(self, tmp_path, capsys, args, flag):
        assert run(args + ["--out-dir", tmp_path / "out"]) == 1
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("m_list,width", [("full,full", "full"), ("3, 3", "3"),
                                              ("3,full,03", "3")])
    def test_repeated_m_list_width_is_named(self, tmp_path, capsys, m_list, width):
        assert run(["reconstruct", "--synth", "circle,16", "--m-list", m_list,
                    "--out-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == f"error: --m-list: width {width} is repeated\n"

    @pytest.mark.parametrize("command,text,line", [
        ("transform", "1e306,0\n-1e306,0\n0,1e306\n0,-1e306\n", 1),
        ("sweep", "x,y\n1e200,0\n0,1e200\n-1e200,0\n", 2),
        ("transform", "0,0\n1,1\n1,nan\n", 3),
    ])
    def test_csv_coordinate_past_the_guard_rail_names_its_line(self, tmp_path, capsys,
                                                               command, text, line):
        data = tmp_path / "big.csv"
        data.write_text(text)
        out = tmp_path / "out"
        assert run([command, "--input", data, "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_data_past_the_divergence_limit_names_its_source(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text("2e12,0\n0,2e12\n-2e12,0\n")
        out = tmp_path / "out"
        assert run(["simulate", "--input", data, "--duration", "0.01", "--dt", "0.001",
                    "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --input: ") and err.count("\n") == 1
        assert not out.exists()
        # a command that does not integrate takes the same data
        assert run(["transform", "--input", data, "--out-dir", out]) == 0

    def test_csv_past_the_sample_limit_is_refused(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pathdata, "_SAMPLE_LIMIT", 3)
        data = tmp_path / "d.csv"
        data.write_text("x,y\n0,0\n1,0\n1,1\n0,1\n")
        out = tmp_path / "out"
        assert run(["transform", "--input", data, "--out-dir", out]) == 1
        assert capsys.readouterr().err == (
            "error: the file has more than 3 records, the most a path may have\n")
        assert not out.exists()

    def test_unrecognized_flag_names_the_command(self, tmp_path, capsys):
        assert run(["transform", "--synth", "circle,8", "--window-m", "3",
                    "--out-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == (
            "error: fourierpath transform: unrecognized arguments: --window-m 3\n")

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--help"])
        assert exc.value.code == 0
        assert "--window-m" in capsys.readouterr().out

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for name, (help_text, _, _) in cli.COMMANDS.items():
            assert f"{name} {help_text}" in text

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_command_help_lists_exactly_its_settings(self, capsys, command):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))
        assert flags == {"--help", "--config",
                         *("--" + name.replace("_", "-") for name in cli.COMMANDS[command][1])}

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--synth", "circle,8", "transform"],
                                      ["transform", "--k1", "2", "--synth", "circle,8"],
                                      ["sweep", "--window-max"]])
    def test_parser_of_the_named_command_refuses_as_the_full_one(self, capsys, monkeypatch,
                                                                 argv):
        # main adds only the flags of a command named first; any other command
        # line gets the parser of every command
        full, built = cli._build_parser, []
        monkeypatch.setattr(cli, "_build_parser",
                            lambda command=None: built.append(command) or full(command))
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert built == [argv[0] if argv and argv[0] in cli.COMMANDS else None]
        monkeypatch.setattr(cli, "_build_parser", lambda command=None: full())
        assert run(argv) == 1
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("command,texts", [
        ("simulate", ["--stride STRIDE keep every stride-th trajectory row (>= 1)",
                      "--conv-tol CONV_TOL offset tolerance for the convergence-time summary "
                      "(finite and >= 0)",
                      "--x0 X0 initial x (finite and >= -1e+12 and <= 1e+12)",
                      "--y0 Y0 initial y (finite and >= -1e+12 and <= 1e+12)",
                      "--theta0 THETA0 initial path parameter (finite and >= -1e+12 and <= 1e+12)",
                      # a setting with no declared range gets no suffix
                      "--dt DT integration step --out-dir"]),
        ("reconstruct", ["--samples SAMPLES curve samples per exported reconstruction "
                         "(>= 2 and <= 6e+06)"]),
        ("certify", ["--runs RUNS Monte-Carlo runs (>= 1 and <= 2e+07)"]),
    ])
    def test_help_prints_each_declared_bound(self, capsys, command, texts):
        with pytest.raises(SystemExit):
            run([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for expected in texts:
            assert expected in text

    @pytest.mark.parametrize("value", ["-1e-3", "-1E2", "-.5e1", "-1e12", "-inf"])
    def test_negative_number_in_exponent_form_is_a_flag_value(self, tmp_path, value):
        args = cli._build_parser().parse_args(["simulate", "--x0", value, "--theta0", value])
        assert args.x0 == args.theta0 == float(value)
        if value != "-inf":
            assert run(["simulate", "--synth", "circle,16", "--x0", value, "--duration", "0.01",
                        "--dt", "0.01", "--out-dir", tmp_path / "out"]) == 0

    def test_absurd_step_fails_with_context(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(["simulate", "--synth", "lissajous,758,3,2", "--sigma1", "0.2",
                    "--sigma2", "0.2", "--window-m", "100", "--k1", "8", "--k2", "8",
                    "--x0", "-1", "--y0", "2", "--duration", "20", "--dt", "10",
                    "--out-dir", out])
        assert code == 1
        err = capsys.readouterr().err
        assert "step" in err and "dt" in err


class TestCertifyAndSweep:
    ARGS = ["certify", "--synth", "circle,48", "--sigma1", "0.05", "--sigma2", "0.08",
            "--seed", "31337", "--window-m", "6", "--x0", "2", "--duration", "4",
            "--dt", "2e-3", "--runs", "3"]

    def test_writes_report_bundle(self, tmp_path):
        out = tmp_path / "out"
        assert run(self.ARGS + ["--out-dir", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["m"] == 6
        assert report["runs"] == 3
        assert len(report["e_ms_per_run"]) == 3
        assert report["delta"] == report["p_bar"]
        text = (out / "report.txt").read_text()
        assert text.startswith("m: 6\n")
        assert "passed:" in text
        header, rows = read_csv(out / "sweep.csv")
        assert header == ["m", "p_bar", "f_backward", "tail_energy"]
        assert len(rows) == 48
        assert rows[0][2] == ""

    def test_fixed_master_seed_reproduces_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(self.ARGS + ["--out-dir", out]) == 0
        for name in ("report.json", "report.txt", "sweep.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_sweep_reports_best_width(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["sweep", "--synth", "circle,32", "--sigma1", "0.1",
                    "--sigma2", "0.1", "--out-dir", out]) == 0
        text = capsys.readouterr().out
        assert "m_star=" in text
        _, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 32

    def test_noise_free_full_window_passes(self, tmp_path):
        out = tmp_path / "out"
        assert run(["certify", "--synth", "circle,48", "--window-m", "48",
                    "--x0", "1.5", "--duration", "12", "--dt", "2e-3",
                    "--runs", "2", "--out-dir", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["delta"] == 0.0
        assert report["passed"] is True

    def test_diverging_run_fails_with_one_error_line(self, tmp_path, capsys):
        code = run(["certify", "--synth", "lissajous,64,3,2", "--sigma1", "0.3",
                    "--sigma2", "0.3", "--seed", "7", "--window-m", "16", "--k1", "8",
                    "--k2", "8", "--x0", "-1", "--y0", "2", "--duration", "40",
                    "--dt", "0.4", "--runs", "5", "--out-dir", tmp_path / "out"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run 1: state diverged at step 41 ")
        assert err.count("\n") == 1

    def test_window_auto_resolves(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["certify", "--synth", "circle,32", "--sigma1", "0.02",
                    "--sigma2", "0.02", "--window-auto", "--x0", "1.5",
                    "--duration", "2", "--dt", "5e-3", "--runs", "2",
                    "--out-dir", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert 1 <= report["m"] <= 32


class TestConfigFile:
    def test_file_wins_conflicts_and_is_echoed(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"sigma1": 0.25, "seed": 11}))
        out = tmp_path / "out"
        assert run(["transform", "--synth", "circle,16", "--sigma1", "0.99",
                    "--config", cfg, "--out-dir", out]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["sigma1"] == 0.25
        assert resolved["seed"] == 11
        # only the settings transform reads are echoed
        assert set(resolved) == {"command", "input", "synth", "sigma1", "sigma2",
                                 "seed", "out_dir"}

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"sigmaX": 1.0}))
        assert run(["transform", "--synth", "circle,16", "--config", cfg,
                    "--out-dir", tmp_path / "o"]) == 1
        assert "sigmaX" in capsys.readouterr().err

    def test_key_the_command_does_not_read_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"runs": 3}))
        assert run(["transform", "--synth", "circle,16", "--config", cfg,
                    "--out-dir", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}:")
        assert "'runs'" in err and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    # certify reads every key below; transform reads only seed and input
    @pytest.mark.parametrize("command,key,value", [
        pytest.param("certify", "runs", "3", id="runs-3"),
        pytest.param("certify", "k1", None, id="k1-None"),
        pytest.param("certify", "window_auto", 1, id="window_auto-1"),
        pytest.param("transform", "seed", 2.5, id="seed-2.5"),
        pytest.param("certify", "window_m", True, id="window_m-True"),
        pytest.param("transform", "input", 5, id="input-5"),
    ])
    def test_wrongly_typed_value_rejected(self, tmp_path, capsys, command, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        assert run([command, "--synth", "circle,16", "--config", cfg,
                    "--out-dir", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: {key!r} must be ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_integer_accepted_for_float_field(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"sigma1": 1}))
        out = tmp_path / "out"
        assert run(["transform", "--synth", "circle,16", "--config", cfg,
                    "--out-dir", out]) == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["sigma1"] == 1.0 and isinstance(resolved["sigma1"], float)
        # null is accepted for an optional setting, on a command that reads it
        cfg.write_text(json.dumps({"window_m": None}))
        assert run(["simulate", "--synth", "circle,16", "--x0", "1", "--duration", "0.01",
                    "--config", cfg, "--out-dir", out]) == 0
        assert json.loads((out / "resolved_config.json").read_text())["window_m"] is None

    @pytest.mark.parametrize("content", [
        pytest.param(b'{"k1": ' + b"9" * 5000 + b"}", id="5000-digit-integer"),
        pytest.param(b'{"synth": "circle,16\xff"}', id="non-utf8-byte"),
    ])
    def test_value_python_refuses_names_the_file(self, tmp_path, capsys, content):
        cfg = tmp_path / "big.json"
        cfg.write_bytes(content)
        assert run(["certify", "--synth", "circle,16", "--config", cfg,
                    "--out-dir", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg}: ") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_both_input_and_synth_rejected(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("0,0\n1,1\n")
        assert run(["transform", "--input", data, "--synth", "circle,8",
                    "--out-dir", tmp_path / "o"]) == 1
        assert "exactly one" in capsys.readouterr().err


def test_tables_are_written_as_pinned_text(tmp_path):
    # each table's header, LF endings, integer k and 17 significant digits,
    # from values whose digits no libm rounding can move
    spec = spectrum.Spectrum(k=[-1, 0, 1], a=[0.1, -2.5, 1j / 3], n_samples=3)
    curve = trigpath.TrigPath(k=[0], a=[0.1])
    # 4 rows at stride 2: rows 0 and 2, the last row skipped
    traj = sim.Trajectory(*(np.arange(32.0).reshape(8, 4) / 3))
    with open(tmp_path / "spectrum.csv", "w", newline="\n") as fh:
        spectrum.write_spectrum_csv(spec, fh)
    with open(tmp_path / "reconstruction.csv", "w", newline="\n") as fh:
        trigpath.write_reconstruction_csv(curve, fh, samples=2)
    with open(tmp_path / "trajectory.csv", "w", newline="\n") as fh:
        traj.write_csv(fh, stride=2)
    assert (tmp_path / "spectrum.csv").read_bytes() == (
        b"k,re,im,magnitude\n"
        b"-1,0.10000000000000001,0,0.10000000000000001\n"
        b"0,-2.5,0,2.5\n"
        b"1,0,0.33333333333333331,0.33333333333333331\n")
    assert (tmp_path / "reconstruction.csv").read_bytes() == (
        b"theta,x,y\n"
        b"0,0.10000000000000001,0\n"
        b"3.1415926535897931,0.10000000000000001,0\n")
    assert (tmp_path / "trajectory.csv").read_bytes() == (
        b"t,x,y,theta,phi1,phi2,V1,e_inst\n"
        b"0,1.3333333333333333,2.6666666666666665,4,5.333333333333333,"
        b"6.666666666666667,8,9.3333333333333339\n"
        b"0.66666666666666663,2,3.3333333333333335,4.666666666666667,6,"
        b"7.333333333333333,8.6666666666666661,10\n")


def test_memory_error_ends_in_one_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 4.47 GiB for an array")

    monkeypatch.setattr(pathdata, "synth_path", exhausted)
    assert run(["transform", "--synth", "circle,300000000",
                "--out-dir", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 4.47 GiB for an array\n"


# tokens tried for every flag, then the valid ones of each setting; the
# valid horizons, steps and run counts keep a run under 300 RK4 steps
_FUZZ_TOKENS = ("nan", "inf", "-1", "0", "1e309", "", "abc", str(10**30), str(2**64),
                "1e200", "-1e-3", "-1e12")
_FUZZ_VALID = {
    "input": ("data.csv",), "synth": ("circle,16", "lissajous,12,3,2"),
    "sigma1": ("0.1",), "sigma2": ("0.1",), "seed": ("7", str(2**64 - 1)),
    "m_list": ("4", "2,full"), "samples": ("2", "16"), "window_max": ("4", "16"),
    "window_m": ("4", "12"), "k1": ("1", "2.5"), "k2": ("1", "2.5"),
    "x0": ("0", "-1"), "y0": ("0", "2"), "theta0": ("0", "3"),
    "duration": ("0.1", "1"), "dt": ("0.01", "0.1"), "runs": ("1", "3"),
    "stride": ("1", "7"), "conv_tol": ("1e-4", "0"),
}
# the simulation settings start small, so an undrawn one keeps a run short
_FUZZ_SIM_START = ("--duration", "0.1", "--dt", "0.01", "--runs", "1")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_spectral_command_exits_cleanly(data):
    # any flag set of any command ends in exit 0, or exit 1 with one error
    # line and no out dir; only a run that diverges fails after the out dir
    # is made, since no check can foresee that
    command = data.draw(st.sampled_from(list(cli.COMMANDS)))
    flags = data.draw(st.lists(st.sampled_from(
        [name for name in cli.COMMANDS[command][1] if name != "out_dir"]), unique=True))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "data.csv").write_text("x,y\n0,0\n1,0\n1,1\n0,1\n")
        args = [command, "--out-dir", str(tmp / "out")]
        if "input" not in flags and "synth" not in flags:
            args += ["--synth", "circle,16"]
        if "runs" in cli.COMMANDS[command][1]:
            args += _FUZZ_SIM_START
        elif "duration" in cli.COMMANDS[command][1]:
            args += _FUZZ_SIM_START[:4]
        for name in flags:
            flag = "--" + name.replace("_", "-")
            if name == "window_auto":
                args.append(flag)
                continue
            value = data.draw(st.sampled_from(_FUZZ_VALID[name] + _FUZZ_TOKENS))
            args += [flag, str(tmp / value) if value == "data.csv" else value]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
        if code != 0:
            assert code == 1
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert "state diverged" in err.getvalue() or not (tmp / "out").exists()


# JSON values of every type (Python's json reads NaN and Infinity too), for
# any setting of a config file
_FUZZ_JSON = (None, True, False, 0, -1, 10**30, 2**64, -(2**63), 10**400, 0.5, 1e-308,
              1e308, -1e308, float("nan"), float("inf"), "", "abc", "4", [], [1, 2],
              {"m": 4})


def _fuzz_valid_json(name):
    """The valid values of a setting in its JSON type."""
    if name == "window_auto":
        return (True,)
    kind = next(t for t in typing.get_args(cli._FIELD_TYPES[name]) or
                (cli._FIELD_TYPES[name],) if t is not type(None))
    return tuple(kind(text) if kind in (int, float) else text for text in _FUZZ_VALID[name])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_config_file_exits_cleanly(data):
    # any --config file of any command ends in exit 0, or exit 1 with one
    # error line and no out dir; only a run that diverges fails after the
    # out dir is made.  The file wins over the flags, so the short start
    # bounds a run only where the file leaves a setting out, and the
    # valid values keep a run under 300 RK4 steps.
    command = data.draw(st.sampled_from(list(cli.COMMANDS)))
    names = data.draw(st.lists(st.sampled_from(
        [name for name in cli.COMMANDS[command][1] if name != "out_dir"] + ["bogus"]),
        unique=True))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "data.csv").write_text("x,y\n0,0\n1,0\n1,1\n0,1\n")
        config = {}
        for name in names:
            valid = () if name == "bogus" else _fuzz_valid_json(name)
            value = data.draw(st.sampled_from(valid + _FUZZ_JSON))
            key = data.draw(st.sampled_from((name, name.replace("_", "-"))))
            config[key] = str(tmp / value) if value == "data.csv" else value
        if data.draw(st.booleans()) and not config:
            config = data.draw(st.sampled_from(_FUZZ_JSON))
        (tmp / "config.json").write_text(json.dumps(config))
        args = [command, "--out-dir", str(tmp / "out"), "--config", str(tmp / "config.json")]
        if "input" not in names and "synth" not in names:
            args += ["--synth", "circle,16"]
        if "runs" in cli.COMMANDS[command][1]:
            args += _FUZZ_SIM_START
        elif "duration" in cli.COMMANDS[command][1]:
            args += _FUZZ_SIM_START[:4]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
        if code != 0:
            assert code == 1
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert "state diverged" in err.getvalue() or not (tmp / "out").exists()


# every declared range, pinned, so a bound dropped from its RunConfig field fails
_BOUNDS = {"stride": (1, math.inf), "samples": (2, 6 * 10**6), "runs": (1, 2 * 10**7),
           "conv_tol": (0.0, math.inf), "x0": (-1e12, 1e12), "y0": (-1e12, 1e12),
           "theta0": (-1e12, 1e12)}


def _edges():
    """(command, setting, at_least, at_most, end) for each finite end of each
    declared range, on every command that takes the setting."""
    return [(command, f.name, f.metadata["at_least"], f.metadata["at_most"], end)
            for f in dataclasses.fields(cli.RunConfig) if f.metadata.get("bound")
            for command, (_, names, _) in cli.COMMANDS.items() if f.name in names
            for end in ("at_least", "at_most") if abs(f.metadata[end]) < math.inf]


def _past(name, bound, end):
    """The next value of a setting past ``bound``: one integer, or one float step."""
    outward = -1 if end == "at_least" else 1
    if cli._FIELD_TYPES[name] is int:
        return bound + outward
    return float(np.nextafter(bound, outward * math.inf))


def _values(name, lo, hi, finite=True):
    """A strategy for the values of a setting in [lo, hi]; an infinite end is open."""
    lo, hi = (None if abs(end) == math.inf else end for end in (lo, hi))
    if cli._FIELD_TYPES[name] is int:
        return st.integers(lo, hi)
    return st.floats(lo, hi, allow_nan=False, allow_infinity=not finite)


def _check_alone(command, name, value):
    """The check made before any data is read, of a config that sets only ``name``."""
    cli._check_options(cli.RunConfig(command, synth="circle,16", **{name: value}))


def _assert_refused(command, name, value, as_key):
    """``value`` for ``name``, as a flag or a config key, ends in exit 1 and
    one error line naming the flag, before any output."""
    flag = "--" + name.replace("_", "-")
    # refused without data first: were the bound missing, main would start
    # a run of up to 1e8 runs or samples
    with pytest.raises(cli.CliError, match=f"^{flag} must be "):
        _check_alone(command, name, value)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        args = [command, "--synth", "circle,16", "--out-dir", str(tmp / "out")]
        if as_key:
            (tmp / "config.json").write_text(json.dumps({name: value}))
            args += ["--config", str(tmp / "config.json")]
        else:
            args += [flag, repr(value)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(args) == 1
        assert err.getvalue().startswith(f"error: {flag} must be ")
        assert err.getvalue().count("\n") == 1
        assert not (tmp / "out").exists()


def test_declared_bounds_are_pinned():
    assert {name: (lo, hi) for _, name, lo, hi, _ in _edges()} == _BOUNDS


def test_readme_range_table_matches_the_declarations():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = text.split("| setting | range |\n| --- | --- |\n")[1].split("\n\n")[0]
    table = {flag: row.split("|")[2].strip()
             for row in rows.splitlines() for flag in row.split("`")[1].split()}
    assert table == {"--" + f.name.replace("_", "-"): f.metadata["bound"]
                     for f in dataclasses.fields(cli.RunConfig) if f.metadata.get("bound")}


def _readme_commands():
    """The arguments of every ``fourierpath`` command in README's sh blocks, with
    backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("```")[0] for part in text.split("```sh\n")[1:]]
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("fourierpath ")]


def test_readme_shows_every_command():
    assert sorted(argv[0] for argv in _readme_commands()) == sorted(cli.COMMANDS)


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
def test_readme_example_passes_the_checks_made_before_data(argv):
    # nothing runs: a renamed flag or a tightened range the README still
    # shows fails here
    args, unknown = cli._build_parser().parse_known_args(argv)
    assert unknown == []
    cfg = cli._resolve_config(args)
    cli._check_options(cfg)
    cli._widths(cfg)


@pytest.mark.parametrize("as_key", [False, True], ids=["flag", "config-key"])
@pytest.mark.parametrize("command,name,lo,hi,end", _edges(),
                         ids=[f"{c}-{n}-{e}" for c, n, _, _, e in _edges()])
def test_every_declared_bound_holds_at_its_edge(command, name, lo, hi, end, as_key):
    # the bound passes the check made before any data is read, and the next
    # value past it is refused
    bound = lo if end == "at_least" else hi
    _check_alone(command, name, bound)
    _assert_refused(command, name, _past(name, bound, end), as_key)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_value_past_a_declared_bound_is_refused(data):
    # any value within a setting's range passes the check made before any
    # data is read; any value past it, NaN and infinities included, is refused
    command, name, lo, hi, end = data.draw(st.sampled_from(_edges()))
    _check_alone(command, name, data.draw(_values(name, lo, hi)))
    if end == "at_least":
        past = _values(name, -math.inf, _past(name, lo, end), finite=False)
    else:
        past = _values(name, _past(name, hi, end), math.inf, finite=False)
    if cli._FIELD_TYPES[name] is float:
        past |= st.just(math.nan)
    _assert_refused(command, name, data.draw(past), data.draw(st.booleans()))


def test_every_config_field_is_a_flag_and_every_flag_a_field():
    # a RunConfig field no flag sets, or a flag no field receives, is a
    # setting nothing can change or a value nothing reads
    parser = cli._build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    dests = {name: {a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)}
             for name, p in commands.items()}
    fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
    every = set().union(*dests.values())
    assert fields - {"command"} - every == set()
    assert every - {"config"} - fields == set()
    # each command takes flags for exactly the settings it reads
    assert set(commands) == set(cli.COMMANDS)
    for name, flags in dests.items():
        assert flags == {"config", *cli.COMMANDS[name][1]}, name


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_parser_of_one_command_adds_only_its_flags(command):
    # every command keeps its name and help text; only the named one has flags
    parser = cli._build_parser(command)
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(cli.COMMANDS)
    for name, p in commands.items():
        flags = {a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)}
        assert flags == ({"config", *cli.COMMANDS[name][1]} if name == command else set())


def test_module_entry_point(tmp_path):
    # run the package this session imported, also from a plain checkout
    src = str(Path(fourierpath.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "fourierpath", "transform", "--synth", "circle,8",
         "--out-dir", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "N=8" in proc.stdout
    assert (out / "spectrum.csv").exists()
