import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import schwarzian_sl as s
from schwarzian_sl.cli import build_parser, main
from schwarzian_sl.io import complex_columns, format_number, write_csv, write_json


def test_format_number_round_trips():
    for value in (0.1, 1.5, -3.75e-13, 18.75, 1 / 3):
        assert float(format_number(value)) == value


def test_write_csv_header_and_determinism(tmp_path):
    meta = {"config": {"problem": "morse"}, "note": "unit"}
    columns = [("x", [0.0, 0.5]), ("value", [1.25, -2.5])]
    p1 = write_csv(tmp_path / "a.csv", meta, columns)
    p2 = write_csv(tmp_path / "b.csv", meta, columns)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.startswith("# tool: schwarzian-sl")
    assert "# config:" in text
    assert "x,value" in text


def test_write_csv_rejects_ragged(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", {}, [("a", [1]), ("b", [1, 2])])


def test_complex_columns():
    cols = complex_columns("f", [1 + 2j, -3j])
    assert cols[0][0] == "Re f" and cols[1][0] == "Im f"
    assert cols[0][1] == [1.0, 0.0]
    assert cols[1][1] == [2.0, -3.0]


def test_write_json_payload(tmp_path):
    path = write_json(tmp_path / "x.json", {"k": 1}, {"root": 3 + 2j})
    doc = json.loads(path.read_text())
    assert doc["data"]["root"] == {"re": 3.0, "im": 2.0}
    assert doc["meta"]["k"] == 1


# ------------------------------------------------------------------- CLI


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("morse", "harmonic", "paine", "oscillator", "cohn"):
        assert name in out
    assert "published value" in out


def test_cli_solve_harmonic(tmp_path, capsys):
    out = tmp_path / "harmonic.csv"
    code = main(
        [
            "solve",
            "--problem",
            "harmonic",
            "--range",
            "0,3",
            "--samples",
            "30",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("# tool: schwarzian-sl")
    printed = capsys.readouterr().out
    assert "0.5" in printed
    data = np.loadtxt(out, delimiter=",", skiprows=text.count("#") + 1)
    # n counts nodes, as the catalog targets do
    assert data[:, 0].tolist() == [0, 1, 2]
    assert np.allclose(data[:, 1], [0.5, 1.5, 2.5], atol=1e-4)


def test_cli_solve_morse_finds_published_level(tmp_path, capsys):
    code = main(
        [
            "solve",
            "--problem",
            "morse",
            "--param",
            "lambda=5",
            "--method",
            "schwarzian-phi",
            "--range",
            "18,20",
            "--samples",
            "16",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "18.75" in printed


def test_cli_header_carries_provenance(tmp_path):
    out = tmp_path / "morse.csv"
    code = main(
        ["solve", "--problem", "morse", "--range", "18,20", "--samples", "12",
         "--out", str(out)]
    )
    assert code == 0
    assert "provenance" in out.read_text()


def test_cli_solve_byte_identical(tmp_path):
    args = ["solve", "--problem", "paine", "--method", "minimalist",
            "--range", "0,12", "--samples", "24"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_values_opening_with_a_negative_number(tmp_path, capsys):
    # argparse reads "-5,6" as an unknown option unless told otherwise
    for flags in (["--range", "-5,6"], ["--range=-5,6"]):
        out = tmp_path / "m.csv"
        assert main(["solve", "--problem", "morse", *flags, "--samples", "24",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "in (-5.0, 6.0)" in printed and "n=0: 4.75000" in printed
    args = build_parser().parse_args(
        ["dispersion", "--problem", "cohn", "--kgrid", "-1,1,3", "--region", "-1,2,0.1,1"])
    assert (args.kgrid, args.region) == ("-1,1,3", "-1,2,0.1,1")
    args = build_parser().parse_args(["web", "--problem", "cohn", "--region", "-2,2,0,1"])
    assert args.region == "-2,2,0,1"


@pytest.mark.parametrize("method", ["schwarzian-phi", "schwarzian-g"])
def test_cli_solve_scan_below_the_ground_state(capsys, method):
    # below the ground state the Phi winding is exactly 0, so a scan that
    # starts there must not report its first sample as an eigenvalue
    for argv, levels in (
        (["--problem", "morse", "--range=-5,6", "--samples", "24"], ["4.75"]),
        (["--problem", "harmonic", "--range=-3,2", "--samples", "20"], ["0.5", "1.5"]),
    ):
        assert main(["solve", *argv, "--method", method]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert f"{len(levels)} eigenvalue(s)" in lines[0]
        found = [line.split()[:2] for line in lines[1:]]
        assert [n for n, _ in found] == [f"n={n}:" for n in range(len(levels))]
        assert [round(float(v), 6) for _, v in found] == [float(v) for v in levels]


def test_cli_solve_prints_a_negative_imaginary_part_once(monkeypatch, capsys):
    # a complex eigenvalue with Im < 0 prints as "a - bi", not "a + -bi"
    monkeypatch.setattr("schwarzian_sl.cli.refine_complex_root",
                        lambda qf, w0, *args, **kwargs: w0 - 3.53e-09j)
    assert main(["solve", "--problem", "morse", "--range=-5,6", "--samples", "24",
                 "--method", "schwarzian-g"]) == 0
    out = capsys.readouterr().out
    assert "+ -" not in out
    assert "n=0: 4.75" in out and " - 3.53e-09i" in out


def test_cli_unknown_problem_is_config_error():
    assert main(["solve", "--problem", "unobtainium"]) == 2


def test_cli_method_problem_compatibility(tmp_path, capsys):
    assert main(["solve", "--problem", "morse", "--method", "minimalist"]) == 2
    assert main(["web", "--problem", "morse", "--region", "0,1,0,1"]) == 2
    assert main(["solve", "--problem", "cohn"]) == 2
    # paine's ends are finite and carry ratio values, not Quantization
    assert main(["solve", "--problem", "paine", "--method", "schwarzian-phi",
                 "--range", "1,20", "--samples", "20"]) == 2
    assert main(["eigenfunction", "--problem", "paine", "--method", "schwarzian-g",
                 "--eigenvalue", "1.52"]) == 2
    assert main(["dispersion", "--problem", "morse", "--kgrid", "1,2,2",
                 "--region", "0,1,0,1"]) == 2
    # a config file's method meets the argparse choices too
    config = tmp_path / "bogus.json"
    config.write_text(json.dumps({"method": "bogus"}))
    assert main(["--config", str(config), "solve", "--problem", "morse"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line.split(":")[0] for line in captured.err.splitlines()] == ["error"] * 7


def _refused(argv, capsys):
    """True when the command exits 2 with one error line and prints nothing."""
    code = main(argv)
    captured = capsys.readouterr()
    return code == 2 and captured.out == "" and captured.err.startswith("error:")


def test_cli_refuses_a_reversed_scan_range(capsys):
    assert _refused(["solve", "--problem", "morse", "--range=25,0", "--samples", "60"], capsys)


@pytest.mark.parametrize("argv", [
    ["web", "--region", "3.5,2.5,1.5,2.5", "--grid", "16x16", "--rel", "1e-6", "--abs", "1e-9"],
    ["dispersion", "--kgrid", "3,3.2,2", "--region", "2,4,3,1", "--grid", "8x8"],
])
def test_cli_refuses_a_reversed_web_region(argv, capsys):
    assert _refused(argv + ["--problem", "cohn"], capsys)


@pytest.mark.parametrize("cuts", ["2,10", "1,10", "0,10"])
def test_cli_refuses_jet_cuts_that_miss_the_jet_radius(cuts, capsys):
    assert _refused(["web", "--problem", "cohn", "--region", "2.5,3.5,1.5,2.5",
                     "--grid", "12x12", "--rel", "1e-6", "--abs", "1e-9",
                     "--cuts", cuts], capsys)


def test_cli_refuses_an_unknown_param(capsys):
    assert _refused(["solve", "--problem", "morse", "--param", "foo=1"], capsys)


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "morse", "--param", "lambda_param=abc"],
    ["web", "--problem", "cohn", "--region", "2,4,1,3", "--grid", "8x8", "--param", "k=abc"],
])
def test_cli_refuses_a_non_numeric_param(argv, capsys):
    assert _refused(argv, capsys)


@pytest.mark.parametrize("config", ["missing.json", "."])
def test_cli_unreadable_config_is_one_error_line(config, tmp_path, monkeypatch, capsys):
    # a missing file and a directory, not a traceback
    monkeypatch.chdir(tmp_path)
    assert _refused(["--config", config, "solve", "--problem", "harmonic"], capsys)


@pytest.mark.parametrize("flag", ["--out", "--scan-out"])
def test_cli_output_in_a_missing_directory_is_refused_before_solving(flag, tmp_path, capsys):
    out = tmp_path / "nodir" / "x.csv"
    assert _refused(["solve", "--problem", "harmonic", "--range", "0,3", "--samples", "12",
                     flag, str(out)], capsys)
    assert not out.parent.exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
@pytest.mark.parametrize("argv", [
    ["web", "--region", "2,4,1,3", "--grid", "8x8", "--no-refine"],
    ["dispersion", "--kgrid", "2,3,2", "--region", "2,4,1,3", "--grid", "8x8"],
])
def test_cli_refuses_fewer_than_one_thread(argv, threads, capsys):
    assert _refused(argv + ["--problem", "cohn", "--threads", threads], capsys)


def test_cli_config_string_takes_its_flag_type(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"samples": "30", "range": "0,3"}))
    assert main(["--config", str(config), "solve", "--problem", "harmonic"]) == 0
    assert "3 eigenvalue(s)" in capsys.readouterr().out
    config.write_text(json.dumps({"samples": "thirty"}))
    assert _refused(["--config", str(config), "solve", "--problem", "harmonic"], capsys)


@pytest.mark.parametrize("doc", [
    {"samples": 30.5},  # reached scan_real as a float: a TypeError traceback, exit 1
    {"samples": True},
    {"format": "xml"},  # silently wrote CSV
    {"method": "bogus"},
    {"range": [0, 3]},
    {"rel": None},
    {"out": 5},  # --out has no type to read a number with
])
def test_cli_config_value_takes_its_flag_type_and_choices(doc, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "h.csv"
    assert _refused(["--config", str(config), "solve", "--problem", "harmonic",
                     "--out", str(out)], capsys)
    assert not out.exists()


def test_cli_config_numbers_and_switches_pass(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"samples": 30, "abs": 1e-10, "format": "json"}))
    out = tmp_path / "h.json"
    assert main(["--config", str(config), "solve", "--problem", "harmonic", "--range", "0,3",
                 "--out", str(out)]) == 0
    assert "3 eigenvalue(s)" in capsys.readouterr().out
    assert json.loads(out.read_text())["meta"]["config"]["samples"] == 30
    config.write_text(json.dumps({"refine": False, "threads": 1}))
    assert main(["--config", str(config), "web", "--problem", "cohn", "--region", "2,4,1,3",
                 "--grid", "8x8", "--rel", "1e-6", "--abs", "1e-9"]) == 0
    assert "refined" not in capsys.readouterr().out
    config.write_text(json.dumps({"refine": "no"}))
    assert _refused(["--config", str(config), "web", "--problem", "cohn", "--region",
                     "2,4,1,3", "--grid", "8x8"], capsys)


def test_cli_abbreviated_flag_beats_the_config(tmp_path, capsys):
    # the config's values are read as flags placed before the command
    # line's own, so the abbreviated --samp wins as --samples would
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"samples": 30, "range": "0,3"}))
    out = tmp_path / "h.json"
    assert main(["--config", str(config), "solve", "--problem", "harmonic", "--samp", "8",
                 "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    config = json.loads(out.read_text())["meta"]["config"]
    assert (config["samples"], config["range"]) == (8, "0,3")


@pytest.mark.parametrize("argv", [
    ["solve"],  # --problem is required
    ["solve", "--problem", "harmonic", "--samples", "x"],
    ["solve", "--problem", "harmonic", "--s", "3"],  # --samples or --scan-out
    ["solve", "--problem", "harmonic", "--method", "bogus"],
    ["integrate", "--problem", "harmonic"],
    [],
])
def test_cli_usage_errors_are_one_error_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["solve", "--help"]])
def test_cli_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "harmonic", "--range", "0,6", "--samples", "24", "--abs", "inf"],
    ["solve", "--problem", "harmonic", "--range", "0,6", "--samples", "24", "--abs", "nan"],
    ["solve", "--problem", "harmonic", "--range", "0,6", "--samples", "24", "--rel", "nan"],
    ["solve", "--problem", "harmonic", "--range", "0,6", "--samples", "24", "--rel", "inf"],
    ["solve", "--problem", "harmonic", "--range", "0,inf", "--samples", "24"],
    ["solve", "--problem", "paine", "--range=-inf,0", "--samples", "24"],
    ["solve", "--problem", "morse", "--param", "lambda_param=inf", "--samples", "24"],
    ["solve", "--problem", "oscillator", "--param", "kappa=nanj", "--samples", "24"],
    ["web", "--problem", "cohn", "--region", "2,inf,1,3", "--grid", "8x8", "--no-refine"],
    ["web", "--problem", "cohn", "--region", "2,4,1,3", "--grid", "8x8", "--no-refine",
     "--rel", "nan"],
    ["web", "--problem", "cohn", "--region", "2,4,1,3", "--grid", "8x8", "--no-refine",
     "--cuts", "0.01,inf"],
    ["web", "--problem", "cohn", "--param", "k=inf", "--region", "2,4,1,3", "--grid", "8x8"],
    ["web", "--problem", "cohn", "--param", "M=nan", "--region", "2,4,1,3", "--grid", "8x8"],
    ["dispersion", "--problem", "cohn", "--kgrid", "1,inf,3", "--region", "2,4,1,3",
     "--grid", "8x8"],
    ["dispersion", "--problem", "cohn", "--kgrid", "1,2,2", "--region", "2,4,1,3",
     "--grid", "8x8", "--abs", "inf"],
    ["eigenfunction", "--problem", "harmonic", "--eigenvalue", "nan"],
    ["eigenfunction", "--problem", "cohn", "--eigenvalue", "3+infj"],
])
def test_cli_refuses_non_finite_numbers(argv, capsys):
    # each ran with every sample failed or every k a gap, or (abs = inf)
    # did not finish; a NaN eigenvalue was a numerical failure
    assert _refused(argv, capsys)


@pytest.mark.parametrize("m", ["0.5", "inf", "nan"])
def test_cli_refuses_a_non_integral_azimuthal_mode(m, capsys):
    # e^{i m phi} is single-valued only for integer m; m = 0.5 ran a web
    assert _refused(["web", "--problem", "cohn", "--param", f"m={m}", "--region", "2,4,1,3",
                     "--grid", "8x8", "--no-refine"], capsys)


@pytest.mark.parametrize("kgrid", ["1,2,0", "1,2,2.5"])
def test_cli_refuses_a_kgrid_count_that_is_not_a_positive_integer(kgrid, capsys):
    assert _refused(["dispersion", "--problem", "cohn", "--kgrid", kgrid,
                     "--region", "0.05,3,0.05,2"], capsys)


def test_cli_solve_reports_failed_samples(monkeypatch, tmp_path, capsys):
    # the stall is injected where the lane grid and the scalar refinement
    # both see it
    call, lanes = s.AsymptoticWinding.__call__, s.AsymptoticWinding.lanes

    def stalls(lam):
        return 19.0 < lam.real < 19.5

    def call_stalls_above_19(self, lam):
        if stalls(lam):
            raise s.StepFailure(f"stalled at lambda={lam.real}")
        return call(self, lam)

    def lanes_stall_above_19(self, lams):
        values, kinds = lanes(self, lams)
        for j, lam in enumerate(lams.tolist()):
            if stalls(lam):
                values[j], kinds[j] = complex("nan"), "StepFailure"
        return values, kinds

    argv = ["solve", "--problem", "morse", "--range", "18,20", "--samples", "16"]
    assert main(argv + ["--out", str(tmp_path / "clean.csv")]) == 0
    clean = capsys.readouterr()
    assert clean.err == "scan: 16 grid samples, 1 crossings refined in 2 evaluations\n"
    monkeypatch.setattr(s.AsymptoticWinding, "__call__", call_stalls_above_19)
    monkeypatch.setattr(s.AsymptoticWinding, "lanes", lanes_stall_above_19)
    assert main(argv + ["--out", str(tmp_path / "failed.csv")]) == 0
    failed = capsys.readouterr()
    assert failed.err.startswith("4 failed sample(s) at lambda = [19.0625, ")
    assert failed.err.endswith("]\nscan: 16 grid samples, 1 crossings refined in 2 evaluations\n")
    assert failed.out == clean.out.replace("clean.csv", "failed.csv")
    assert "18.75" in failed.out
    assert (tmp_path / "failed.csv").read_bytes() == (tmp_path / "clean.csv").read_bytes()


@pytest.mark.parametrize("method", ["schwarzian-phi", "schwarzian-g"])
def test_cli_solve_flat_winding_has_no_eigenvalues(method, capsys):
    # the oscillator's q does not depend on lambda: its winding is the same
    # at every sample and crosses no integer
    argv = ["solve", "--problem", "oscillator", "--range", "0,5", "--samples", "20",
            "--method", method]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(
        "const_oscillator(kappa=0+1j): 0 eigenvalue(s) in (0.0, 5.0)\n")


def test_cli_numerical_failure_exit_code():
    # omega = k V0 sits exactly on the interior flow resonance
    code = main(
        [
            "eigenfunction",
            "--problem",
            "cohn",
            "--eigenvalue",
            repr(math.pi),
        ]
    )
    assert code == 3


def test_cli_non_finite_rhs_is_numerical_failure(monkeypatch):
    import schwarzian_sl.cli as cli

    def blow_up(*args, **kwargs):
        raise s.NonFiniteRhs("rhs is not finite at x=0.0")

    monkeypatch.setattr(cli, "solve_asymptotic", blow_up)
    code = main(["eigenfunction", "--problem", "harmonic", "--eigenvalue", "0.5"])
    assert code == 3


def test_cli_web_json_is_strict(tmp_path):
    # on the Im omega = 0 row, omega = k V0 = pi (Re index 4) lies on the
    # singular surface; the poles of Y4 that real omega puts on the outward
    # path (at Re index 7 and 8) lie beyond where g1 settles
    out = tmp_path / "web.json"
    code = main(
        ["web", "--problem", "cohn", "--region",
         "2.141592653589793,4.141592653589793,0,1", "--grid", "9x9",
         "--format", "json", "--no-refine", "--threads", "1", "--out", str(out)]
    )
    assert code == 0

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    doc = json.loads(out.read_text(), parse_constant=refuse)
    psi = doc["data"]["psi"]
    nulls = [i for i, value in enumerate(psi) if value is None]
    assert len(psi) == 81 and nulls == [4 * 9]
    assert doc["meta"]["config"]["refine"] is False


def test_cli_web_small_grid(tmp_path, capsys):
    out = tmp_path / "web.json"
    code = main(
        [
            "web",
            "--problem",
            "cohn",
            "--param",
            "m=0,k=3.141592653589793",
            "--region",
            "2,4,1,3",
            "--grid",
            "16x16",
            "--threads",
            "1",
            "--rel",
            "1e-6",
            "--abs",
            "1e-9",
            "--out",
            str(out),
            "--format",
            "json",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "winding +1" in printed
    doc = json.loads(out.read_text())
    charges = doc["data"]["charges"]
    assert len(charges) == 1 and charges[0]["winding"] == 1
    root = complex(doc["data"]["roots"][0]["re"], doc["data"]["roots"][0]["im"])
    assert abs(root - (3.08 + 1.97j)) < 0.02


def test_cli_web_refine_failure_is_reported(monkeypatch, capsys):
    import schwarzian_sl.cli as cli

    # the grid evaluates, but the secant seeded at the charge (3.5+3.5i, a
    # plaquette centre of the 8x8 web) hits a resonance
    def singular_at_root(w):
        if abs(w - (3.5 + 3.5j)) < 0.25:
            raise s.SingularSurface(f"resonance at {w}")
        return w - (3.5 + 3.5j)

    monkeypatch.setattr(cli, "_stability_qf", lambda *args: singular_at_root)
    code = main(["web", "--problem", "cohn", "--region", "0,7,0,7",
                 "--grid", "8x8", "--threads", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert "winding +1" in captured.out
    assert "refinement failed: resonance at" in captured.err


def test_cli_eigenfunction_morse(tmp_path):
    out = tmp_path / "f.csv"
    code = main(
        [
            "eigenfunction",
            "--problem",
            "morse",
            "--param",
            "lambda=5",
            "--eigenvalue",
            "18.75",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header = out.read_text().splitlines()
    names = [line for line in header if not line.startswith("#")][0]
    assert names.split(",")[:3] == ["x", "Re F1", "Im F1"]
    assert "Re f" in names


def test_cli_eigenfunction_stalled_leg_is_numerical_failure(tmp_path):
    # at this real omega (k = pi) the outward leg stalls at a pole of Y4 near
    # r = 6.5134, before g1 has settled, so there is no eigenfunction to write
    out = tmp_path / "y.csv"
    code = main(["eigenfunction", "--problem", "cohn", "--eigenvalue", "6.0",
                 "--out", str(out)])
    assert code == 3
    assert not out.exists()


def test_cli_eigenfunction_ends_where_the_quantization_leg_ends(tmp_path, monkeypatch, capsys):
    # at this real omega (k = pi) a pole of Y4 lies at r = 9.71, beyond the
    # radius where g1 settles: the eigenfunction, like the quantization
    # value, ends there (r = 6.3035) and is written
    import schwarzian_sl.mhd as mhd

    runs, jet_trajectories = [], mhd.jet_trajectories

    def recorded(*args, **kwargs):
        runs.append(jet_trajectories(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(mhd, "jet_trajectories", recorded)
    omega = 3.891592653589793
    value = s.JetQuantizationFunction(s.CohnJetModel(), 0, math.pi)(omega)
    assert math.isfinite(value.real)
    (inward, outward), = runs
    out = tmp_path / "y.csv"
    assert main(["eigenfunction", "--problem", "cohn", "--eigenvalue", repr(omega),
                 "--out", str(out)]) == 0
    last = out.read_text().splitlines()[-1].split(",")
    assert float(last[0]) == outward.x_end == pytest.approx(6.3035, abs=5e-5)
    assert outward.stop_reason is s.StopReason.EVENT_FIRED
    assert capsys.readouterr().out.splitlines()[-1] == (
        "cohn(m=0, k=3.14159): sampled eigenfunction at 3.89159+0j "
        f"({len(inward.xs) + len(outward.xs) - 1} points); "
        "outward leg ended at r = 6.30349 (EventFired)")


def test_cli_config_file_defaults_and_flag_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"range": "0,3", "samples": 30}))
    code = main(
        ["--config", str(config), "solve", "--problem", "harmonic", "--range", "0,1"]
    )
    assert code == 0
    printed = capsys.readouterr().out
    # flag wins: only the n=0 state sits below 1
    assert "1 eigenvalue(s)" in printed


def test_cli_threads_default_to_one_process(monkeypatch):
    import schwarzian_sl.cli as cli

    seen = []

    def web(qf, region, nx, ny, workers):
        seen.append(workers)
        return s.spectral_web(lambda w: w - (3.5 + 3.5j), region, nx, ny)

    def dispersion(family, k_grid, region, nx, ny, workers):
        seen.append(workers)
        return []

    # the environment variable that once chose the worker count is ignored
    monkeypatch.setenv("SCHWARZIAN_SL_THREADS", "3")
    monkeypatch.setattr(cli, "spectral_web", web)
    monkeypatch.setattr(cli, "dispersion_scan", dispersion)
    web_args = ["web", "--problem", "cohn", "--region", "0,7,0,7", "--grid", "8x8",
                "--no-refine"]
    dispersion_args = ["dispersion", "--problem", "cohn", "--kgrid", "1,2,2",
                       "--region", "0,7,0,7"]
    for argv in (web_args, dispersion_args):
        assert main(argv) == 0
        assert main(argv + ["--threads", "2"]) == 0
    assert seen == [1, 2, 1, 2]


class _Resolved(Exception):
    """Stops a command right after its front end accepted the problem."""


def test_readme_commands_pass_the_front_end(monkeypatch):
    import schwarzian_sl.cli as cli

    resolve = cli._resolve

    def resolve_only(args, kind):
        resolve(args, kind)
        raise _Resolved

    monkeypatch.setattr(cli, "_resolve", resolve_only)
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert all(line[0] == "schwarzian-sl" for line in lines)
    commands = [line[1] for line in lines]
    assert {"solve", "web", "eigenfunction", "dispersion"} <= set(commands)
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(line[1:])
        if args.command != "list":
            with pytest.raises(_Resolved):
                args.func(args)


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: a Paine solve and a small jet web
    # in a fresh interpreter must not import it, nor, on one thread, the
    # process pool
    src = Path(s.__file__).resolve().parent.parent
    script = (
        "import sys\n"
        "from schwarzian_sl.cli import main\n"
        "assert main(['solve', '--problem', 'paine', '--method', 'minimalist',"
        " '--range', '0,20', '--samples', '20', '--out', sys.argv[1]]) == 0\n"
        "assert main(['web', '--problem', 'cohn', '--region', '2,4,1,3', '--grid', '8x8',"
        " '--threads', '1', '--no-refine', '--out', sys.argv[2]]) == 0\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        "assert 'concurrent.futures.process' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "paine.csv"), str(tmp_path / "web.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
