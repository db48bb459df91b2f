"""CLI checks: parsing, config merge, outputs, exit codes, suite rows."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import todalab
from todalab.cli import (
    CliError,
    IDENTITY_CSV_HEADER,
    _write_json,
    emit_identity_suite,
    main,
    parse_couplings,
    parse_grid_shape,
    parse_pi_value,
    parse_range,
    parse_scale,
    resolve_config,
)

PI = np.pi


def run(tmp_path, *args):
    out = tmp_path / "out"
    code = main([*args, "--out", str(out)])
    return code, out


def test_pi_suffix_values():
    assert parse_pi_value("4pi") == pytest.approx(4 * PI)
    assert parse_pi_value("3.0pi") == pytest.approx(3 * PI)
    assert parse_pi_value("pi") == pytest.approx(PI)
    assert parse_pi_value("2.5") == 2.5
    with pytest.raises(CliError):
        parse_pi_value("four pi")


def test_list_and_range_parsers():
    assert parse_couplings("3.0pi,3.0pi") == pytest.approx((3 * PI, 3 * PI))
    assert parse_range("1pi:5pi") == pytest.approx((PI, 5 * PI))
    assert parse_grid_shape("9x9") == (9, 9)
    assert parse_scale("e2") == pytest.approx(math.e**2)
    assert parse_scale("54.6") == 54.6
    with pytest.raises(CliError):
        parse_range("5pi:1pi")
    with pytest.raises(CliError):
        parse_grid_shape("9by9")
    # the cap applies before a sweep lists its k1 * k2 couplings
    assert parse_grid_shape("1000x1000") == (1000, 1000)
    for text in ("1001x1", "1x1001", "100000x100000"):
        with pytest.raises(CliError, match="at most 1000 per axis"):
            parse_grid_shape(text)


def test_minimize_writes_report_and_manifest(tmp_path):
    code, out = run(tmp_path, "minimize", "--m", "3.0pi,3.0pi", "--n", "32")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "Converged"
    assert "final_u" not in report
    final_u = np.load(out / "final_u.npy")
    assert final_u.shape == (2, 32, 32)
    assert final_u.dtype == np.float64
    again = todalab.minimize(parse_couplings("3.0pi,3.0pi"), todalab.GridSpec(32))
    assert final_u.tobytes() == again.final_u.stack().tobytes()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "minimize"
    assert manifest["config"]["m"] == "3.0pi,3.0pi"
    assert manifest["version"].startswith("v")
    assert manifest["wall_time_s"] >= 0
    assert "timestamp" in manifest


def test_summary_only_is_no_longer_an_option(tmp_path, capsys):
    # the field arrays always go to final_u.npy, so there is nothing to omit
    code, out = run(tmp_path, "minimize", "--n", "32", "--summary-only", "true")
    assert code == 2
    assert not out.exists()
    capsys.readouterr()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("summary-only = true\n")
    code, out = run(tmp_path, "minimize", "--n", "32", "--config", str(cfg))
    assert code == 2
    assert capsys.readouterr().err == "error: unknown config key: summary-only\n"
    assert not out.exists()


def test_a_descent_at_the_floating_point_floor_reports_stalled(tmp_path):
    # no gradient meets grad_tol 1e-300; the descent stops after a few
    # steps, where no direction descends, not at its budget
    code, out = run(
        tmp_path, "minimize", "--m", "1e-8,1e-8", "--n", "8", "--grad-tol", "1e-300",
        "--max-iters", "500",
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "Stalled"
    assert report["iterations"] < 500


@pytest.mark.parametrize("n", ["63", "4096"])
def test_bad_grid_size_exits_2(tmp_path, capsys, n):
    # rejected before the output directory is made or any field allocated
    code, out = run(tmp_path, "minimize", "--m", "3.0pi,3.0pi", "--n", n)
    assert code == 2
    assert "n must be a power of two" in capsys.readouterr().err
    assert not out.exists()


def test_unbounded_certificate_is_a_result_not_a_failure(tmp_path):
    # a smooth start needs a coupling well past threshold to fall through
    # the certificate; near-threshold ones relax to pinned states and the
    # bubble-seeded classifier is the right tool there
    code, out = run(tmp_path, "minimize", "--m", "5pi,5pi", "--n", "32")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "Unbounded"


def test_config_file_merge_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nm = 3.0pi,3.0pi\nn = 32\nseed = 7\n")
    out1 = tmp_path / "o1"
    assert main(["minimize", "--config", str(cfg), "--out", str(out1)]) == 0
    man = json.loads((out1 / "manifest.json").read_text())
    assert man["config"]["n"] == "32"
    assert man["config"]["seed"] == "7"
    out2 = tmp_path / "o2"
    assert main(
        ["minimize", "--config", str(cfg), "--n", "16", "--out", str(out2)]
    ) == 0
    man2 = json.loads((out2 / "manifest.json").read_text())
    assert man2["config"]["n"] == "16"


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("banana = 3\n")
    code = main(["minimize", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "unknown config key: banana" in capsys.readouterr().err


def test_manifest_config_round_trips_through_parser(tmp_path):
    out1 = tmp_path / "o1"
    assert main(["minimize", "--n", "16", "--out", str(out1)]) == 0
    man = json.loads((out1 / "manifest.json").read_text())
    cfg = tmp_path / "replay.cfg"
    cfg.write_text(
        "\n".join(f"{k} = {v}" for k, v in man["config"].items() if k != "out")
        + "\n"
    )
    out2 = tmp_path / "o2"
    assert main(["minimize", "--config", str(cfg), "--out", str(out2)]) == 0
    man2 = json.loads((out2 / "manifest.json").read_text())
    assert {k: v for k, v in man["config"].items() if k != "out"} == {
        k: v for k, v in man2["config"].items() if k != "out"
    }


def test_repeat_runs_write_identical_bytes(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["minimize", "--n", "16", "--seed", "3", "--out", str(out)]) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_sweep_row_count_matches_grid(tmp_path):
    code, out = run(
        tmp_path, "sweep", "--m-grid", "2x3", "--range", "3pi:3.5pi", "--n", "32"
    )
    assert code == 0
    lines = (out / "region.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 6


def test_bubble_slopes_csv(tmp_path):
    code, out = run(tmp_path, "bubble")
    assert code == 0
    lines = (out / "slopes.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 8
    for line in lines[1:]:
        cells = line.split(",")
        fitted, expected = float(cells[1]), float(cells[2])
        if expected == 0.0:
            assert abs(fitted) < 0.05
        else:
            assert fitted == pytest.approx(expected, rel=0.02)


def test_radial_command_reports_masses(tmp_path):
    code, out = run(tmp_path, "radial", "--a0", "0,-1")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["outcome"] == "converged"
    assert report["alpha"][0] == pytest.approx(8 * PI, rel=1e-3)
    assert abs(report["mass_relation_rel"]) < 1e-3
    header = (out / "radial.csv").read_text().split("\n", 1)[0]
    assert header == "r,u1,u2,du1,du2,alpha1,alpha2"


def test_radial_validation_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, "radial", "--r-max", "5")
    assert code == 2
    assert "r_max must be at least 10" in capsys.readouterr().err
    # the profile is exact, so there is no integrator tolerance to set
    code, out = run(tmp_path, "radial", "--tol", "1e-8")
    assert code == 2
    assert "unrecognized arguments: --tol 1e-8" in capsys.readouterr().err
    assert not out.exists()
    config = tmp_path / "old.cfg"
    config.write_text("a0 = 0,0\ntol = 1e-10\n")
    code, _ = run(tmp_path, "radial", "--config", str(config))
    assert code == 2
    assert capsys.readouterr().err == "error: unknown config key: tol\n"


def test_tall_radial_start_converges(tmp_path):
    code, out = run(tmp_path, "radial", "--a0", "80,0")
    assert code == 0
    assert json.loads((out / "report.json").read_text())["outcome"] == "converged"


@pytest.mark.parametrize("a0, top", [("1500,1500", "1500"), ("1484,0", "1484")])
def test_overflowing_radial_start_is_a_one_line_numerical_failure(tmp_path, capfd, a0, top):
    # past max a0 of about 1483.4 the first node sqrt(1e-3) e^{-max a0 / 2}
    # underflows to zero
    code, _ = run(tmp_path, "radial", f"--a0={a0}")
    assert code == 1
    err = capfd.readouterr().err
    assert err == f"numerical failure: the first node radius underflows at central value {top}\n"


def test_radial_start_past_the_float_range_is_a_one_line_numerical_failure(tmp_path, capfd):
    # the first node is subnormal (5e-324), so u' = (r u') / r overflows
    code, _ = run(tmp_path, "radial", "--a0=1483,0")
    assert code == 1
    err = capfd.readouterr().err
    assert err == (
        "numerical failure: the closed form leaves the float range"
        " at central values 1483,0\n"
    )


def test_bubble_at_the_float_maximum_is_a_one_line_numerical_failure(tmp_path, capfd):
    # 2(4pi - m1) overflows and the energies become inf - inf
    code, out = run(tmp_path, "bubble", "--m", "1e308,3pi")
    assert code == 1
    err = capfd.readouterr().err
    assert err == "numerical failure: the slope fits overflow at m1 = 1e+308 and m2 = 9.42478\n"
    assert not (out / "slopes.csv").exists()
    assert (out / "manifest.json").exists()


def test_flux_abort_is_a_one_line_numerical_failure(tmp_path, capfd, monkeypatch):
    # no integrated profile meets a zero flux bound, so the first one aborts
    import todalab.radial as radial

    monkeypatch.setattr(radial, "FLUX_ABORT", 0.0)
    code, out = run(tmp_path, "identities", "--only", "radial")
    assert code == 1
    (line,) = capfd.readouterr().err.splitlines()
    assert line.startswith("numerical failure: flux identity violated: residual ")
    assert line.endswith(" exceeds 0")
    assert not (out / "identities.csv").exists()
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "args, data, message",
    [
        # past a coupling of about 1e154 the gradient's square overflows
        (("minimize", "--m", "1e155,3pi", "--n", "16"), "report.json",
         "non-finite gradient norm at iteration 0"),
        (("sweep", "--m-grid", "1x2", "--range", "3pi:1e200", "--n", "8"), "region.csv",
         "non-finite gradient norm at iteration 0"),
        (("pohozaev", "--m", "1e155,3pi", "--n", "16", "--radii", "0.3"), "balance.csv",
         "non-finite gradient norm at iteration 0"),
        # three scales 1e-8 apart leave the slope fit undetermined
        (("bubble", "--scales", "20,20.0000002,20.0000004,400"), "slopes.csv",
         "the scales lie too close together to determine the fit"),
    ],
)
def test_undetermined_runs_are_one_line_numerical_failures(tmp_path, capfd, args, data, message):
    code, out = run(tmp_path, *args)
    assert code == 1
    assert capfd.readouterr().err == f"numerical failure: {message}\n"
    assert not (out / data).exists()
    assert (out / "manifest.json").exists()


def test_radial_start_at_709_evaluates_in_log_space(tmp_path):
    # e^{709} is near the top of the float range; the closed form never forms it
    code, out = run(tmp_path, "radial", "--a0=709,0")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    for alpha in report["alpha"]:
        assert abs(alpha / (8 * PI) - 1.0) < 1e-4


def test_negative_value_may_follow_its_flag(tmp_path, capsys):
    code, spaced = run(tmp_path / "spaced", "radial", "--a0", "-1,0", "--nodes", "32")
    assert code == 0
    code, joined = run(tmp_path / "joined", "radial", "--a0=-1,0", "--nodes", "32")
    assert code == 0
    for name in ("radial.csv", "report.json"):
        assert (spaced / name).read_bytes() == (joined / name).read_bytes()
    for args, message in [
        (("sweep", "--range", "-1pi:1pi"), "couplings must be positive and finite"),
        (("pohozaev", "--center", "-0.1,0.5"), "center must lie in the unit torus"),
    ]:
        code, out = run(tmp_path, *args)
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    # an option string after a flag is the next flag, not its value
    code, _ = run(tmp_path, "radial", "--a0", "--r-max", "10")
    assert code == 2
    assert "--a0: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args", [("radial", "--a", "1,0"), ("radial", "--a", "-1,0"), ("sweep", "--m", "3x3")]
)
def test_flags_must_be_spelled_out(tmp_path, capsys, monkeypatch, args):
    import todalab.cli as cli

    for name in ("integrate_radial", "sweep"):
        monkeypatch.setattr(cli, name, None, raising=False)  # never called
    code, out = run(tmp_path, *args)
    assert code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()
    monkeypatch.undo()
    code, out = run(tmp_path, "radial", "--a0", "-1,0", "--nodes", "32")
    assert code == 0
    assert (out / "radial.csv").exists()


def test_uncreatable_output_directory_exits_2(tmp_path, capsys, monkeypatch):
    import todalab.cli as cli

    monkeypatch.setattr(cli, "integrate_radial", None, raising=False)  # never called
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["radial", "--out", str(taken)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output directory: ") and err.count("\n") == 1
    assert taken.read_text() == ""


@pytest.mark.parametrize(
    "args, message",
    [
        (("minimize", "--m", "nan,3pi"), "couplings must be positive and finite"),
        (("minimize", "--max-iters", "-1"), "max_iters must be positive"),
        (("minimize", "--grad-tol", "nan"), "grad_tol must be positive and finite"),
        (("minimize", "--seed", "-1"), "seed must be non-negative"),
        (("bubble", "--flat-radius", "nan"), "flat_radius must lie in (0, 0.5]"),
        (("bubble", "--m", "inf,3pi"), "couplings must be positive and finite"),
        (("bubble", "--scales", "nan,e2,e3,e4"), "scale must be finite and at least 2"),
        (("identities", "--m", "nan,3pi"), "couplings must be positive and finite"),
        (("radial", "--r-max", "nan"), "r_max must be at least 10 and finite"),
        (("radial", "--r-max", "inf"), "r_max must be at least 10 and finite"),
        (("radial", "--a0", "nan,0"), "initial values must be a finite vector"),
        (("radial", "--a0", ",".join(["0"] * 13)), "the closed form is limited to rank <= 12"),
        (("radial", "--nodes", "100001"), "nodes must be at most 100000"),
        (("bubble", "--scales", "e2,e3,e4,e355"), "scale must be at most 1e+150"),
        (("bubble", "--scales", "2,3,4,1e160"), "scale must be at most 1e+150"),
        (("radial", "--a0=-1e16,0"), "central values must be at most 100000 in magnitude"),
        (("radial", "--a0=-1.7e308,1"), "central values must be at most 100000 in magnitude"),
    ],
)
def test_bad_settings_exit_2_before_compute(tmp_path, capsys, args, message):
    code, out = run(tmp_path, *args)
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (("minimize", "--m", ","), "couplings must be a comma-separated list"),
        (("bubble", "--scales", " , "), "scales must be a comma-separated list"),
        (("radial", "--a0", ","), "expected a comma-separated list of numbers"),
        (("sweep", "--range", "1pi"), "range must look like '1pi:5pi'"),
        (("sweep", "--m-grid", "9by9"), "grid shape must look like '9x9'"),
        (("sweep", "--m-grid", "ax9"), "grid shape must look like '9x9'"),
        (("sweep", "--m-grid", "0x9"), "grid shape must be positive"),
        (("bubble", "--scales", "e2,big,e4,e5"), "cannot parse scale 'big'"),
        (("bubble", "--scales", "e1000,e2,e3,e4"), "cannot parse scale 'e1000'"),
        (("radial", "--r-max", "far"), "cannot parse number 'far'"),
        (("radial", "--a0", "0,x"), "cannot parse number 'x'"),
        (("pohozaev", "--center", "0.5"), "expected exactly two comma-separated numbers"),
        (("identities", "--corrupt-cartan", "maybe"), "cannot parse boolean 'maybe'"),
        (("identities", "--only", "some"), "expected one of all, bubble, radial; got 'some'"),
        (("sweep", "--m-grid", "1001x9"), "grid shape must be at most 1000 per axis"),
    ],
)
def test_unparsable_input_exits_2_with_one_line(tmp_path, capsys, args, message):
    code, out = run(tmp_path, *args)
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_unusable_config_file_exits_2_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 32\nseed 7\n")
    code, out = run(tmp_path, "minimize", "--config", str(cfg))
    assert code == 2
    assert capsys.readouterr().err == f"error: {cfg}:2: expected key = value\n"
    missing = tmp_path / "missing.cfg"
    code, out = run(tmp_path, "minimize", "--config", str(missing))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file: ") and err.count("\n") == 1
    assert str(missing) in err
    assert not out.exists()


@pytest.mark.parametrize("bounds", ["-1pi:1pi", "0:1pi", "1pi:inf"])
def test_sweep_range_ends_must_be_couplings(tmp_path, capsys, bounds):
    code, out = run(tmp_path, "sweep", "--m-grid", "2x2", f"--range={bounds}", "--n", "16")
    assert code == 2
    assert capsys.readouterr().err == "error: couplings must be positive and finite\n"
    assert not out.exists()


def test_sweep_takes_no_seed(tmp_path, capsys):
    # every classification descent starts from a bubble
    code, out = run(tmp_path, "sweep", "--seed", "3")
    assert code == 2
    assert not out.exists()
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("m-grid = 2x2\nseed = 3\n")
    code, out = run(tmp_path, "sweep", "--config", str(cfg))
    assert code == 2
    assert "unknown config key: seed" in capsys.readouterr().err
    assert not out.exists()


def test_pohozaev_command_scans_radii(tmp_path):
    code, out = run(
        tmp_path, "pohozaev", "--n", "32", "--radii", "0.15,0.2"
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["minimize_status"] == "Converged"
    assert len(report["balances"]) == 2
    for balance in report["balances"]:
        assert abs(balance["residual"]) < 1e-6
    lines = (out / "balance.csv").read_text().strip().split("\n")
    assert len(lines) == 3


def test_pohozaev_radius_precheck_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, "pohozaev", "--n", "32", "--radii", "0.45")
    assert code == 2
    assert "r must lie in [4h, 0.4]" in capsys.readouterr().err


def test_identity_suite_all_rows_pass(tmp_path):
    code, out = run(tmp_path, "identities")
    assert code == 0
    lines = (out / "identities.csv").read_text().strip().split("\n")
    assert lines[0] == IDENTITY_CSV_HEADER
    assert len(lines) == 1 + 20
    assert all(line.endswith("PASS") for line in lines[1:])


def test_identity_suite_bubble_subset_has_8_rows(tmp_path):
    code, out = run(tmp_path, "identities", "--only", "bubble")
    assert code == 0
    lines = (out / "identities.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 8
    assert all(line.startswith("bubble_slope") for line in lines[1:])


def test_corrupted_coupling_fails_mass_relation_rows(tmp_path):
    code, out = run(
        tmp_path, "identities", "--only", "radial", "--corrupt-cartan", "true"
    )
    assert code == 1
    lines = (out / "identities.csv").read_text().strip().split("\n")
    relation_rows = [l for l in lines if l.startswith("mass_relation")]
    assert relation_rows
    assert all(row.endswith("FAIL") for row in relation_rows)


def test_radial_identities_integrate_each_start_once(tmp_path, monkeypatch):
    # the symmetric rows read a0 = (0, 0) from the shooting family's a2 = 0 row
    import todalab.cli as cli
    import todalab.radial as radial

    integrate = radial.integrate_radial
    starts = []

    def counting(a0, *args, **kwargs):
        starts.append(tuple(a0))
        return integrate(a0, *args, **kwargs)

    monkeypatch.setattr(radial, "integrate_radial", counting)
    monkeypatch.setattr(cli, "integrate_radial", counting, raising=False)
    code, out = run(tmp_path, "identities", "--only", "radial")
    assert code == 0
    assert len(starts) == 5
    assert len(set(starts)) == 5
    lines = (out / "identities.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 12
    assert all(line.endswith("PASS") for line in lines[1:])


def test_symmetric_blow_up_is_one_failed_row(monkeypatch):
    import todalab.cli as cli
    import todalab.radial as radial

    integrate = radial.integrate_radial

    def blowing_up_at_origin(a0, *args, **kwargs):
        if tuple(a0) == (0.0, 0.0):
            raise radial.BlowUpError("profile blew up near radius 3", 3.0)
        return integrate(a0, *args, **kwargs)

    monkeypatch.setattr(radial, "integrate_radial", blowing_up_at_origin)
    monkeypatch.setattr(cli, "integrate_radial", blowing_up_at_origin, raising=False)
    rows = emit_identity_suite(only="radial")
    symmetric = [row for row in rows if row.identity == "radial_symmetric"]
    assert len(symmetric) == 1
    assert symmetric[0].status == "FAIL"
    assert [row.parameter for row in rows[1:]] == [
        "a2=-1.5", "a2=-1", "a2=-0.5", "a2=0", "a2=0.5"
    ]
    assert rows[4].status == "FAIL"


def test_emit_identity_suite_rows_have_measured_residuals():
    rows = emit_identity_suite(only="bubble")
    assert len(rows) == 8
    for row in rows:
        assert np.isfinite(row.measured)
        assert row.status in ("PASS", "FAIL")


def test_bad_bubble_couplings_are_one_failed_row():
    (row,) = emit_identity_suite(only="bubble", m=(0.0, 1.0))
    assert row.identity == "bubble_slope"
    assert row.parameter == "error: couplings must be positive and finite"
    assert row.status == "FAIL"
    # so is a fit that overflows, and its message keeps the row's columns
    (row,) = emit_identity_suite(only="bubble", m=(1e308, 3.0 * PI))
    assert row.parameter == "error: the slope fits overflow at m1 = 1e+308 and m2 = 9.42478"
    assert row.status == "FAIL"


def test_resolve_config_rejects_bad_values():
    with pytest.raises(CliError, match="cannot parse integer"):
        resolve_config("minimize", {"n": "lots"}, None)


def test_import_and_grid_commands_leave_scipy_unloaded(tmp_path):
    # scipy is a test dependency only: the radial solver is in-repo
    script = "\n".join([
        "import sys, todalab",
        "assert 'scipy' not in sys.modules, 'import todalab loaded scipy'",
        f"assert todalab.main(['bubble', '--out', {str(tmp_path / 'b')!r}]) == 0",
        f"assert todalab.main(['pohozaev', '--n', '32', '--radii', '0.2',"
        f" '--out', {str(tmp_path / 'p')!r}]) == 0",
        "assert 'scipy' not in sys.modules, 'a grid command loaded scipy'",
        f"assert todalab.main(['radial', '--out', {str(tmp_path / 'r')!r}]) == 0",
        f"assert todalab.main(['identities', '--out', {str(tmp_path / 'i')!r}]) == 0",
        "assert 'scipy' not in sys.modules, 'a radial command loaded scipy'",
    ])
    src = Path(todalab.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_python_dash_m_todalab_runs_the_cli(tmp_path):
    # the package's __main__, the entry point every timed benchmark
    # process starts through
    src = Path(todalab.__file__).resolve().parents[1]

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "todalab", *argv],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )

    out = tmp_path / "r"
    done = run("radial", "--r-max", "10", "--nodes", "16", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert (out / "radial.csv").is_file() and (out / "manifest.json").is_file()
    bad = run("radial", "--no-such-flag", "--out", str(tmp_path / "bad"))
    assert bad.returncode == 2
    assert [line for line in bad.stderr.splitlines() if "error:" in line] == [
        "todalab: error: unrecognized arguments: --no-such-flag"
    ]
    # no command and an unknown one end in argparse's usage, before any
    # output directory exists
    for argv in [(), ("bogus",)]:
        bad = run(*argv)
        assert bad.returncode == 2
        assert bad.stderr.startswith("usage: todalab ")
        assert len([line for line in bad.stderr.splitlines() if "error:" in line]) == 1
    assert not (tmp_path / "runs").exists()


def test_commands_load_only_their_modules(tmp_path):
    script = "\n".join([
        "import sys",
        "from todalab.cli import main",
        "def loaded(*names):",
        "    return [name for name in names if name in sys.modules]",
        "never = ('todalab.minimizer', 'todalab.pohozaev', 'importlib.metadata',"
        " 'todalab.functional', 'todalab.grid')",
        f"assert main(['radial', '--r-max', '10', '--nodes', '16',"
        f" '--out', {str(tmp_path / 'r')!r}]) == 0",
        "assert not loaded(*never, 'todalab.bubbles'), loaded(*never, 'todalab.bubbles')",
        f"assert main(['bubble', '--out', {str(tmp_path / 'b')!r}]) == 0",
        # the closed-form profile and the slope fits need only the standard library
        "arrays = ('numpy', 'todalab._dop853', 'todalab.radial')",
        "assert not loaded(*arrays), loaded(*arrays)",
        f"assert main(['identities', '--out', {str(tmp_path / 'i')!r}]) == 0",
        "assert loaded(*arrays) == list(arrays)",
        "assert not loaded(*never), loaded(*never)",
    ])
    src = Path(todalab.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("argv", [
    ["minimize", "--n", "16"],
    ["pohozaev", "--n", "16", "--radii", "0.25"],
    ["sweep", "--m-grid", "2x2", "--n", "16"],
    ["identities"],
    ["radial"],
    ["bubble"],
])
def test_no_command_loads_numpy_random(tmp_path, argv):
    # the random start draws from the standard library's random.Random;
    # numpy.random would import secrets, hashlib and OpenSSL for it
    script = "\n".join([
        "import sys",
        "from todalab.cli import main",
        f"assert main({[*argv, '--out', str(tmp_path / 'out')]!r}) == 0",
        "loaded = [name for name in ('numpy.random', 'secrets') if name in sys.modules]",
        "assert not loaded, loaded",
    ])
    src = Path(todalab.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_lazy_names_are_their_submodules_objects():
    import importlib

    import todalab.cli as cli

    for owner in (todalab, cli):
        for name, module in todalab._EXPORTS.items():
            home = importlib.import_module(f"todalab.{module}")
            assert getattr(owner, name) is getattr(home, name), name
    assert set(todalab._EXPORTS) <= set(dir(todalab))
    assert set(todalab.__all__) == set(todalab._EXPORTS)
    with pytest.raises(AttributeError):
        todalab.no_such_name


def test_each_public_name_has_one_home():
    # a module lists only what it defines, and the package table names
    # the module that lists it
    import importlib

    for module in set(todalab._EXPORTS.values()):
        home = importlib.import_module(f"todalab.{module}")
        for name in home.__all__:
            # constants such as a tuple or a string carry no __module__
            defined_in = getattr(getattr(home, name), "__module__", home.__name__)
            assert defined_in == home.__name__, (module, name)
    for name, module in todalab._EXPORTS.items():
        assert name in importlib.import_module(f"todalab.{module}").__all__, (module, name)


def test_readme_examples_run_and_print_what_their_comments_say():
    import ast
    import contextlib
    import io
    import re

    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) == 2
    printed = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(block, {})
        printed.append(out.getvalue().splitlines())
    quick, radial = printed
    assert quick[-1] == "Unbounded"
    masses = ast.literal_eval(radial[0])
    assert masses == pytest.approx((8 * math.pi, 8 * math.pi), rel=1e-3)
    assert float(radial[2]) < 1e-8  # integrated against exact profile


@pytest.mark.parametrize(
    "payload",
    [
        {"floats": [-0.0, 5e-324, 1e300, -1e300, 0.1, 1.0, 2.5e-310]},
        {"special": [math.nan, math.inf, -math.inf], "ints": [0, -7, 10**20]},
        {"mixed": [1, 2.0, True, None, "x"], "empty": [], "none": {}, "s": "é\"\n"},
        {"field": [[[0.5, -0.0], [5e-324, 1e300]], [[], [[1.0]]]], "b": {"z": 1, "a": (1.5,)}},
        {"numpy": [np.float64(1 / 3), np.float64(-0.0)], "n": 64, "status": "Converged"},
        {2: "two", 1.5: [1.0], True: None},
    ],
)
def test_write_json_matches_indented_dumps(tmp_path, payload):
    path = tmp_path / "report.json"
    _write_json(str(path), payload)
    assert path.read_text(encoding="utf-8") == json.dumps(payload, indent=2, sort_keys=True) + "\n"
