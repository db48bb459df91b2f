"""Smoke check of the benchmark harness on tiny inputs (no timing gate).

    python3 bench/smoke.py

Runs a few tiny `todalab` processes through the same runner and output
checks as the benchmark and shows that the checks bite: a corrupted
identity suite, a doctored region map and a missing data file must each
count as a failed process, while the honest runs pass.  A traced pass
over the honest runs must report exactly the per-layer metrics that
BENCHMARK.json declares, with the declared units.  Exits 0 when every
expectation holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import time
from pathlib import Path

from harness import OUT, ROOT, RUN_DEADLINE_S, child_env, end_to_end_metrics, run_pass
from tracing import traced_run
from workloads import (Proc, check_minimize, check_nothing, check_pohozaev, check_radial,
                       check_region, check_slopes)

TINY_AXIS = [2.0 * math.pi, 6.0 * math.pi]
TINY_SWEEP = ("sweep", "--m-grid", "2x2", "--range", "2pi:6pi", "--n", "16")
TINY_COUPLING = ("--m", "3pi,2.5pi", "--n", "16", "--seed", "1")


def doctored_region(out: str) -> list[str]:
    """Relabel the bounded cell, then run the honest check on the result."""
    path = Path(out) / "region.csv"
    path.write_text(path.read_text().replace("Bounded", "Unbounded"))
    return check_region(TINY_AXIS)(out)


HONEST = [
    Proc("sweep", TINY_SWEEP, ("region.csv",), check_region(TINY_AXIS)),
    Proc("minimize", ("minimize",) + TINY_COUPLING, ("report.json",), check_minimize),
    Proc("pohozaev", ("pohozaev",) + TINY_COUPLING + ("--radii", "0.3"),
         ("balance.csv", "report.json"), check_pohozaev(1)),
    Proc("identities", ("identities", "--only", "bubble"), ("identities.csv",), check_nothing),
    Proc("radial", ("radial", "--a0", "0,-0.5"), ("radial.csv", "report.json"), check_radial),
    Proc("bubble", ("bubble", "--m", "2.5pi,3pi"), ("slopes.csv",), check_slopes),
]

CORRUPTED = [
    Proc("corrupt-cartan", ("identities", "--only", "radial", "--corrupt-cartan", "true"),
         ("identities.csv",), check_nothing),
    Proc("doctored-region", TINY_SWEEP, ("region.csv",), doctored_region),
    Proc("missing-file", ("bubble",), ("slopes.csv", "report.json"), check_slopes),
]


def declared(section: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def main() -> int:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    env = child_env()
    run_dir = OUT / "smoke"
    shutil.rmtree(run_dir, ignore_errors=True)
    problems = []

    honest = run_pass(HONEST, run_dir / "honest", env, deadline)
    for r in honest.processes:
        problems += [f"honest {r.label} failed: {p}" for p in r.problems]
    corrupted = run_pass(CORRUPTED, run_dir / "corrupted", env, deadline)
    for r in corrupted.processes:
        print(f"{r.label}: {'; '.join(r.problems) or 'no problem found'}")
        if not r.failed:
            problems.append(f"corrupted run {r.label} was not counted as failed")

    reported = {k: v["unit"] for k, v in end_to_end_metrics([honest]).items()}
    if reported != declared("end_to_end"):
        problems.append(f"end-to-end metrics {reported} differ from BENCHMARK.json")
    traced = traced_run(HONEST, run_dir, env, honest, deadline)
    problems += [f"traced {r.label} failed: {p}" for r in traced.processes for p in r.problems]
    reported = {k: v["unit"] for k, v in traced.metrics.items()}
    expected = declared("per_layer")
    for name in sorted(set(reported) | set(expected)):
        if reported.get(name) != expected.get(name):
            problems.append(f"per-layer metric {name}: reported unit {reported.get(name)}, "
                            f"declared {expected.get(name)}")

    for problem in problems:
        print(f"SMOKE FAIL: {problem}")
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
