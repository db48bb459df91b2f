"""The benchmark tracer (bench/tracing.py) against this tree.

The tracer replaces named attributes of todalab modules with wrappers
and reads a few more names; a rename in todalab would otherwise surface
only in a traced benchmark run.  These tests install its wrappers, run
one short command through them and put the originals back.
"""

import ast
import importlib
import inspect
import json
import math
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def test_tracer_wrappers_install_run_and_restore(monkeypatch, tmp_path):
    tracing = _tracing(monkeypatch)
    import todalab.cli as cli
    import todalab.radial as radial

    seen = tracing.Observed()
    tracer = tracing.Tracer()
    originals = tracing._install(tracer, seen)
    try:
        for module, name, original in originals:
            assert getattr(module, name) is not original
        out = tmp_path / "radial"
        assert cli.main(["radial", "--a0", "0,0", "--r-max", "10", "--out", str(out)]) == 0
        # the radial command samples the closed form; the identity suite
        # integrates through the wrapped name and its counters read the
        # profiles it returns
        out = tmp_path / "identities"
        assert cli.main(["identities", "--only", "radial", "--out", str(out)]) == 0
        assert seen.radial == {"converged": 5}
        radial.integrate_radial((0.0, 0.0), r_max=10.0)
        out = tmp_path / "minimize"
        argv = ["minimize", "--n", "16", "--max-iters", "3"]
        assert cli.main([*argv, "--out", str(out)]) == 0
    finally:
        for module, name, original in originals:
            setattr(module, name, original)
    for module, name, original in originals:
        assert getattr(module, name) is original
    assert seen.radial["tail"] == 1
    assert sum(seen.status.values()) == 1
    assert seen.command_report is not None
    # the random start goes through the wrapped name, once per component,
    # so grid.random_smooth_field_s does not read 0
    calls = tracer.table()["grid.random_smooth_field"]["calls"]
    assert calls == seen.command_report.final_u.n_components


def test_kernel_timings_start_takes_a_numpy_generator(monkeypatch):
    # kernel_timings draws its fields from numpy Generators; the start
    # needs only a random() method
    import numpy as np
    from todalab import GridSpec, random_smooth_field

    tracing = _tracing(monkeypatch)
    for n in tracing.MICRO_GRID_SIZES:
        field = random_smooth_field(GridSpec(n), np.random.default_rng(n))
        assert np.max(np.abs(field.values)) == pytest.approx(0.5, rel=1e-15)
        assert abs(np.mean(field.values)) < 1e-15


def test_traced_descents_are_the_seeded_descents_classify_runs(monkeypatch):
    # --trace 1 reads minimizer.descents from the wrapped minimize; a
    # classification runs one descent per bubble seed it builds and no
    # flat-start descent, so the count is exact
    tracing = _tracing(monkeypatch)
    import todalab.minimizer as minimizer
    from todalab import GridSpec

    seeds = []
    bubble_seed = minimizer._bubble_seed
    monkeypatch.setattr(minimizer, "_bubble_seed",
                        lambda *args: seeds.append(args) or bubble_seed(*args))
    seen = tracing.Observed()
    originals = tracing._install(tracing.Tracer(), seen)
    spec = GridSpec(32)
    try:
        # on the diagonal the component-1 seeds mirror the relaxed
        # component-0 ones and are skipped
        assert minimizer.classify_boundedness((3 * math.pi, 3 * math.pi), spec) == "Bounded"
        assert seen.status == Counter(Converged=3) and len(seeds) == 3
        assert minimizer.classify_boundedness((4.5 * math.pi, 2 * math.pi), spec) == "Unbounded"
    finally:
        for module, name, original in originals:
            setattr(module, name, original)
    assert seen.status == Counter(Converged=5, Unbounded=1) and len(seeds) == 6


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


def test_minimize_takes_the_descent_config_fourth():
    # the tracer's on_minimize reads a positional config from args[3]
    from todalab import minimizer

    params = list(inspect.signature(minimizer.minimize).parameters)
    assert params[3] == "config"


def test_tracer_kernel_calls_run(monkeypatch):
    # kernel_timings and traced_run's detector timing call todalab
    # kernels that otherwise run only in a traced benchmark; one call
    # each on a 16-cell grid shows their signatures still fit
    tracing = _tracing(monkeypatch)
    from todalab import GridSpec, MinimizeConfig, detect_concentration, minimize

    calls = []

    def once(fn):
        calls.append(fn())
        return 0.0

    monkeypatch.setattr(tracing, "_median_ms", once)
    monkeypatch.setattr(tracing, "MICRO_GRID_SIZES", (16,))
    timings = tracing.kernel_timings()
    assert sorted(timings) == sorted(
        f"{name}_ms.n16"
        for name in ("functional.energy", "functional.gradient",
                     "grid.laplacian", "grid.inverse_laplacian")
    )
    assert len(calls) == 4
    config = MinimizeConfig(max_iters=3)
    report = minimize((3 * math.pi, 3 * math.pi), GridSpec(16), config=config)
    spots = detect_concentration(report.final_u, MinimizeConfig().concentration_radius)
    assert len(spots) == report.final_u.n_components
    assert all(0 < spot.mass <= 1 + 1e-12 for spot in spots)


def test_tracer_report_write_replay_runs(monkeypatch, tmp_path):
    # cli.report_write_s replays minimize's report write through
    # MinimizeReport.to_dict(include_fields=True), which no command calls
    # any more; only a traced benchmark run reaches it otherwise
    import numpy as np
    from todalab import GridSpec, MinimizeConfig, minimize

    tracing = _tracing(monkeypatch)
    path = tmp_path / "replay.json"
    written = []

    def once(fn, **kwargs):
        fn()
        written.append(json.loads(path.read_text(encoding="utf-8")))
        return 1.0

    monkeypatch.setattr(tracing, "_median_ms", once)
    config = MinimizeConfig(max_iters=3)
    report = minimize((3 * math.pi, 3 * math.pi), GridSpec(16), config=config)
    assert tracing._report_write_s(report, path) == 1e-3
    assert len(written) == 1 and not path.exists()
    assert np.array_equal(np.array(written[0]["final_u"]), report.final_u.stack())
