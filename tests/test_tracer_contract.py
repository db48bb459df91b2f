"""The benchmark tracer (bench/tracing.py) against this tree.

The tracer replaces named attributes of todalab modules with wrappers
and reads a few more names; a rename in todalab would otherwise surface
only in a traced benchmark run.  These tests install its wrappers, run
one short command through them and put the originals back.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def test_tracer_wrappers_install_run_and_restore(monkeypatch, tmp_path):
    tracing = _tracing(monkeypatch)
    import todalab.cli as cli

    seen = tracing.Observed()
    originals = tracing._install(tracing.Tracer(), seen)
    try:
        for module, name, original in originals:
            assert getattr(module, name) is not original
        out = tmp_path / "radial"
        assert cli.main(["radial", "--a0", "0,0", "--r-max", "10", "--out", str(out)]) == 0
        out = tmp_path / "minimize"
        argv = ["minimize", "--n", "16", "--max-iters", "3", "--summary-only", "true"]
        assert cli.main([*argv, "--out", str(out)]) == 0
    finally:
        for module, name, original in originals:
            setattr(module, name, original)
    for module, name, original in originals:
        assert getattr(module, name) is original
    assert seen.radial["tail"] == 1
    assert sum(seen.status.values()) == 1
    assert seen.command_report is not None


def test_tracer_reads_names_that_exist(monkeypatch):
    tracing = _tracing(monkeypatch)
    tree = ast.parse(Path(tracing.__file__).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("todalab")
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), (module, name)
    from todalab import MinimizeConfig

    assert MinimizeConfig().concentration_radius > 0
