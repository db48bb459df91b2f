"""Traced in-process pass: spans around the calls into each todalab module.

The wrappers live only here.  They replace public names in the module
that calls them (for example `todalab.minimizer.minimize`, which
`sweep` reaches through the minimizer's own globals, and
`todalab.cli.minimize`, which the commands call) for the length of one
pass, and are removed afterwards.  Each span records its name, start,
end and parent; spans stay in memory and are written out once, after
the pass.  Counts come from the public return values.  Micro-timings
of single kernels and the import-time split run after the pass.
"""

from __future__ import annotations

import json
import math
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from harness import ROOT, SRC, HarnessError, PassResult, ProcResult, inspect_outputs
from workloads import Proc

MICRO_GRID_SIZES = (64, 128, 256)
IMPORT_REPEATS = 3
IMPORT_LINE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Nested spans on one thread, kept in a list until the pass ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), math.nan, parent)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, observe=None):
        """fn inside a span; observe(args, kwargs, result) runs after it ends."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def table(self) -> dict[str, dict]:
        """Calls, total and self time per span name."""
        rows: dict[str, dict] = {}
        for s, own in zip(self.spans, self.self_times()):
            row = rows.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += own
        return rows


@dataclass
class Observed:
    """What the wrappers learn from return values during the pass."""

    status: Counter = field(default_factory=Counter)
    cells: Counter = field(default_factory=Counter)
    radial: Counter = field(default_factory=Counter)
    iterations: int = 0
    detector_calls: int = 0
    last_report: object = None
    command_report: object = None


def _install(tracer: Tracer, seen: Observed):
    """Patch the public call sites; returns the (module, name, original) list."""
    import todalab.bubbles as bubbles
    import todalab.cli as cli
    import todalab.minimizer as minimizer
    import todalab.pohozaev as pohozaev
    import todalab.radial as radial

    def on_minimize(args, kwargs, report):
        config = kwargs.get("config") or (args[3] if len(args) > 3 else None)
        drop = (config or minimizer.MinimizeConfig()).divergence_energy_drop
        trace = report.energy_trace
        seen.status[report.status] += 1
        seen.iterations += report.iterations
        # one detector call per accepted iterate below the drop line, plus
        # the unconditional one after the loop
        seen.detector_calls += 1 + sum(e < trace[0] - drop for e in trace[1:])
        seen.last_report = report

    def on_command_minimize(args, kwargs, report):
        on_minimize(args, kwargs, report)
        if seen.command_report is None:
            seen.command_report = report

    def on_sweep(args, kwargs, rows):
        seen.cells.update(row.status for row in rows)

    def traced_integrate(fn):
        def call(*args, **kwargs):
            try:
                with tracer.span("radial.integrate_radial"):
                    sol = fn(*args, **kwargs)
            except radial.BlowUpError:
                seen.radial["blow-up"] += 1
                raise
            try:
                radial.masses_and_exponents(sol)
            except ValueError:
                seen.radial["tail"] += 1
            else:
                seen.radial["converged"] += 1
            return sol

        return call

    minimize = minimizer.minimize
    plan = [
        (cli, "sweep", tracer.wrap("minimizer.sweep", cli.sweep, on_sweep)),
        (cli, "minimize", tracer.wrap("minimizer.minimize", minimize, on_command_minimize)),
        (minimizer, "minimize", tracer.wrap("minimizer.minimize", minimize, on_minimize)),
        (minimizer, "standard_bubble",
         tracer.wrap("bubbles.standard_bubble", minimizer.standard_bubble)),
        (minimizer, "v_from_u", tracer.wrap("functional.v_from_u", minimizer.v_from_u)),
        (minimizer, "euler_lagrange_residuals",
         tracer.wrap("functional.el_residuals", minimizer.euler_lagrange_residuals)),
        (minimizer, "random_smooth_field",
         tracer.wrap("grid.random_smooth_field", minimizer.random_smooth_field)),
        (cli, "integrate_radial", traced_integrate(cli.integrate_radial)),
        (radial, "integrate_radial", traced_integrate(radial.integrate_radial)),
        (cli, "sweep_shooting", tracer.wrap("radial.sweep_shooting", cli.sweep_shooting)),
        (cli, "radius_scan", tracer.wrap("pohozaev.radius_scan", cli.radius_scan)),
        (pohozaev, "disk_balance", tracer.wrap("pohozaev.disk_balance", pohozaev.disk_balance)),
        (cli, "fit_slopes", tracer.wrap("bubbles.fit_slopes", cli.fit_slopes)),
        (bubbles, "bubble_quantities",
         tracer.wrap("bubbles.bubble_quantities", bubbles.bubble_quantities)),
    ]
    originals = [(module, name, getattr(module, name)) for module, name, _ in plan]
    for module, name, wrapper in plan:
        setattr(module, name, wrapper)
    return originals


def _median_ms(fn, budget_s: float = 0.15, min_reps: int = 5) -> float:
    """Median wall time of fn() in ms, after one warm call."""
    fn()
    times = []
    spent = 0.0
    while len(times) < min_reps or spent < budget_s:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return statistics.median(times) * 1e3


def kernel_timings() -> dict[str, float]:
    """One energy, gradient, Laplacian and inverse Laplacian at each size."""
    import numpy as np
    from todalab import (GridSpec, MultiField, energy, energy_gradient,
                         inverse_laplacian, laplacian, precondition_gradient,
                         random_smooth_field)

    m = (3.0 * math.pi, 3.0 * math.pi)
    out = {}
    for n in MICRO_GRID_SIZES:
        spec = GridSpec(n)
        rng = np.random.default_rng(n)
        v = MultiField((random_smooth_field(spec, rng), random_smooth_field(spec, rng)))
        field0 = v.components[0]
        out[f"functional.energy_ms.n{n}"] = _median_ms(lambda: energy(v, m))
        out[f"functional.gradient_ms.n{n}"] = _median_ms(
            lambda: precondition_gradient(energy_gradient(v, m)))
        out[f"grid.laplacian_ms.n{n}"] = _median_ms(lambda: laplacian(field0))
        out[f"grid.inverse_laplacian_ms.n{n}"] = _median_ms(
            lambda: inverse_laplacian(field0))
    return out


def import_split(env: dict[str, str]) -> dict[str, float]:
    """Self time of scipy, numpy and todalab modules under -X importtime."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import todalab"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        by_package: Counter = Counter()
        total_us = 0
        for line in done.stderr.splitlines():
            match = IMPORT_LINE.match(line)
            if not match:
                continue
            own_us, cumulative_us, name = match.groups()
            by_package[name.split(".")[0]] += int(own_us)
            if name == "todalab":
                total_us = int(cumulative_us)
        runs.append({
            "cli.import.scipy_s": by_package["scipy"] / 1e6,
            "cli.import.numpy_s": by_package["numpy"] / 1e6,
            "cli.import.todalab_s": by_package["todalab"] / 1e6,
            "cli.import.total_s": total_us / 1e6,
        })
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def _report_write_s(report, path: Path) -> float:
    """MinimizeReport.to_dict plus the JSON dump, as the minimize command does."""
    if report is None:
        return 0.0

    def write():
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(include_fields=True), handle, indent=2, sort_keys=True)
            handle.write("\n")

    seconds = _median_ms(write, budget_s=0.0, min_reps=3) / 1e3
    path.unlink()
    return seconds


@dataclass
class TracedPass:
    processes: list[ProcResult]
    metrics: dict
    layers: dict

    def summary(self) -> dict:
        return {"processes": [asdict(p) for p in self.processes], "layers": self.layers}


UNITS = {"_s": "s", "_ms": "ms", "ms_per_iteration": "ms", "bytes_written": "bytes",
         "_share": "ratio", "_ratio": "ratio"}


def _unit(name: str) -> str:
    stem = re.sub(r"\.n\d+$", "", name)
    for suffix, unit in UNITS.items():
        if stem.endswith(suffix):
            return unit
    return "count"


def traced_run(procs: list[Proc], run_dir: Path, env: dict[str, str],
               untraced: PassResult, deadline: float) -> TracedPass:
    """The workload's argv through todalab.cli.main with spans, then the kernels."""
    sys.path.insert(0, str(SRC))
    import todalab.cli
    from todalab import MinimizeConfig, detect_concentration

    if Path(todalab.cli.__file__).resolve().parent != SRC / "todalab":
        raise ImportError(f"todalab imported from {todalab.cli.__file__}, not {SRC}")
    tracer = Tracer()
    seen = Observed()
    results = []
    originals = _install(tracer, seen)
    try:
        for proc, reference in zip(procs, untraced.processes):
            out_dir = run_dir / "traced" / proc.label
            out_dir.mkdir(parents=True, exist_ok=True)
            with tracer.span(f"cli.{proc.command}"):
                code = todalab.cli.main([*proc.argv, "--out", str(out_dir)])
            result = inspect_outputs(proc, out_dir, code)
            if result.sha256 != reference.sha256:
                result.problems.append("traced data files differ from the untraced pass")
            results.append(result)
    finally:
        for module, name, original in originals:
            setattr(module, name, original)
    traced_wall = sum(s.end - s.start for s in tracer.spans if s.parent is None)

    layers = tracer.table()
    with open(run_dir / "spans.json", "w", encoding="utf-8") as handle:
        json.dump({"spans": [asdict(s) for s in tracer.spans], "layers": layers}, handle)

    def total(name):
        return layers.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    descents = calls("minimizer.minimize")
    minimize_s = total("minimizer.minimize")
    detector_ms = 0.0
    if seen.last_report is not None:
        radius = MinimizeConfig().concentration_radius
        final_u = seen.last_report.final_u
        detector_ms = _median_ms(lambda: detect_concentration(final_u, radius))
    quantities = calls("bubbles.bubble_quantities")
    untraced_compute = sum(p.compute_s for p in untraced.processes)
    metrics = {
        "cli.bytes_written": sum(r.bytes_written for r in results),
        "cli.report_write_s": _report_write_s(seen.command_report, run_dir / "replay.json"),
        "minimizer.minimize_s": minimize_s,
        "minimizer.descents": descents,
        "minimizer.iterations": seen.iterations,
        "minimizer.ms_per_iteration":
            minimize_s * 1e3 / seen.iterations if seen.iterations else 0.0,
        "minimizer.detector_calls": seen.detector_calls,
        "minimizer.detector_ms": detector_ms,
        # modelled: calls times the standalone median, not a measured span
        "minimizer.detector_share":
            seen.detector_calls * detector_ms / 1e3 / minimize_s if minimize_s else 0.0,
        "minimizer.deciding_ratio": sum(seen.cells.values()) / descents if descents else 0.0,
        **{f"minimizer.status.{k}": seen.status[k]
           for k in ("Converged", "Unbounded", "Budget")},
        **{f"minimizer.cells.{k}": seen.cells[k]
           for k in ("Bounded", "Unbounded", "Inconclusive")},
        "functional.el_residuals_s": total("functional.el_residuals"),
        "functional.v_from_u_s": total("functional.v_from_u"),
        "grid.random_smooth_field_s": total("grid.random_smooth_field"),
        "bubbles.standard_bubble_s": total("bubbles.standard_bubble"),
        "bubbles.standard_bubble_calls": calls("bubbles.standard_bubble"),
        "bubbles.fit_slopes_s": total("bubbles.fit_slopes"),
        "bubbles.quantities_calls": quantities,
        "bubbles.quantities_ms":
            total("bubbles.bubble_quantities") * 1e3 / quantities if quantities else 0.0,
        "radial.integrate_calls": calls("radial.integrate_radial"),
        "radial.integrate_s": total("radial.integrate_radial"),
        "radial.sweep_shooting_s": total("radial.sweep_shooting"),
        **{f"radial.outcome.{k}": seen.radial[k] for k in ("converged", "tail", "blow-up")},
        "pohozaev.radius_scan_s": total("pohozaev.radius_scan"),
        "pohozaev.disk_balance_calls": calls("pohozaev.disk_balance"),
        "trace.wall_s": traced_wall,
        # in-process traced commands against the same commands' untraced
        # compute time (the manifests), so interpreter start is left out
        "trace.overhead_ratio": traced_wall / untraced_compute - 1.0 if untraced_compute else 0.0,
    }
    if time.perf_counter() > deadline - 30:
        raise HarnessError("no time left for the kernel and import timings")
    metrics.update(kernel_timings())
    metrics.update(import_split(env))
    return TracedPass(results, {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
                      layers)
