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
    emit_identity_suite,
    parse_and_dispatch,
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
    code = parse_and_dispatch([*args, "--out", str(out)])
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


def test_minimize_writes_report_and_manifest(tmp_path):
    code, out = run(tmp_path, "minimize", "--m", "3.0pi,3.0pi", "--n", "32")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "Converged"
    assert len(report["final_u"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "minimize"
    assert manifest["config"]["m"] == "3.0pi,3.0pi"
    assert manifest["version"].startswith("v")
    assert manifest["wall_time_s"] >= 0
    assert "timestamp" in manifest


def test_summary_only_drops_field_arrays(tmp_path):
    code, out = run(
        tmp_path, "minimize", "--n", "32", "--summary-only", "true"
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert "final_u" not in report


def test_bad_grid_size_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, "minimize", "--m", "3.0pi,3.0pi", "--n", "63")
    assert code == 2
    assert "n must be a power of two" in capsys.readouterr().err


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
    assert parse_and_dispatch(
        ["minimize", "--config", str(cfg), "--out", str(out1)]
    ) == 0
    man = json.loads((out1 / "manifest.json").read_text())
    assert man["config"]["n"] == "32"
    assert man["config"]["seed"] == "7"
    out2 = tmp_path / "o2"
    assert parse_and_dispatch(
        ["minimize", "--config", str(cfg), "--n", "16", "--out", str(out2)]
    ) == 0
    man2 = json.loads((out2 / "manifest.json").read_text())
    assert man2["config"]["n"] == "16"


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("banana = 3\n")
    code = parse_and_dispatch(
        ["minimize", "--config", str(cfg), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "unknown config key: banana" in capsys.readouterr().err


def test_manifest_config_round_trips_through_parser(tmp_path):
    out1 = tmp_path / "o1"
    assert parse_and_dispatch(["minimize", "--n", "16", "--out", str(out1)]) == 0
    man = json.loads((out1 / "manifest.json").read_text())
    cfg = tmp_path / "replay.cfg"
    cfg.write_text(
        "\n".join(f"{k} = {v}" for k, v in man["config"].items() if k != "out")
        + "\n"
    )
    out2 = tmp_path / "o2"
    assert parse_and_dispatch(
        ["minimize", "--config", str(cfg), "--out", str(out2)]
    ) == 0
    man2 = json.loads((out2 / "manifest.json").read_text())
    assert {k: v for k, v in man["config"].items() if k != "out"} == {
        k: v for k, v in man2["config"].items() if k != "out"
    }


def test_repeat_runs_write_identical_bytes(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert parse_and_dispatch(
            ["minimize", "--n", "16", "--seed", "3", "--out", str(out)]
        ) == 0
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


def test_emit_identity_suite_rows_have_measured_residuals():
    rows = emit_identity_suite(only="bubble")
    assert len(rows) == 8
    for row in rows:
        assert np.isfinite(row.measured)
        assert row.status in ("PASS", "FAIL")


def test_resolve_config_rejects_bad_values():
    with pytest.raises(CliError, match="cannot parse integer"):
        resolve_config("minimize", {"n": "lots"}, None)


def test_import_and_grid_commands_leave_scipy_unloaded(tmp_path):
    # only the radial solver needs scipy, and it imports it when called
    script = "\n".join([
        "import sys, todalab",
        "assert 'scipy' not in sys.modules, 'import todalab loaded scipy'",
        f"assert todalab.main(['bubble', '--out', {str(tmp_path / 'b')!r}]) == 0",
        f"assert todalab.main(['pohozaev', '--n', '32', '--radii', '0.2',"
        f" '--out', {str(tmp_path / 'p')!r}]) == 0",
        "assert 'scipy' not in sys.modules, 'a grid command loaded scipy'",
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
