"""Whole-process benchmark for todalab.

    python3 bench/run.py --workload sweep-n64 --seed 0 --seconds 36 --trace 0

A pass runs the workload's `python -m todalab ...` processes one after
another (a closed loop with one client, never more than one child at a
time); passes repeat while the next one is expected to end within
`--seconds`.  `--trace 0` reports the end-to-end metrics as medians over
the passes.  `--trace 1` runs one untraced pass, then the same argv
in-process under span wrappers (see tracing.py), and reports the
per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the full record (passes,
per-process results, data-file hashes, environment) goes to
`bench/out/results/<workload>-seed<seed>-trace<trace>.json`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time

from harness import (OUT, RUN_DEADLINE_S, SRC, HarnessError, child_env,
                     end_to_end_metrics, environment, run_pass, timed_passes, warm_up)
from tracing import traced_run
from workloads import WORKLOADS, build


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    if not (SRC / "todalab" / "__init__.py").is_file():
        print(f"error: no todalab source tree at {SRC}", file=sys.stderr)
        return 2
    procs = build(args.workload, args.seed)
    env = child_env()
    run_dir = OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(args.seed)}
    try:
        warm_up(env)
        if args.trace:
            untraced = run_pass(procs, run_dir / "untraced", env, deadline)
            traced = traced_run(procs, run_dir, env, untraced, deadline)
            results = untraced.processes + traced.processes
            metrics = traced.metrics
            record["untraced_pass"] = untraced.summary()
            record["traced_pass"] = traced.summary()
        else:
            passes = timed_passes(procs, args.seconds, env, run_dir, deadline)
            results = [p for one in passes for p in one.processes]
            metrics = end_to_end_metrics(passes)
            record["passes"] = [p.summary() for p in passes]
            record["data_sha256"] = {
                f"{p.label}/{name}": digest
                for p in passes[0].processes for name, digest in p.sha256.items()
            }
            record["repeat_passes_identical"] = all(
                [p.sha256 for p in one.processes] == [p.sha256 for p in passes[0].processes]
                for one in passes
            )
    except (HarnessError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = sum(r.failed for r in results)
    record.update(attempted=len(results), failed=failed,
                  fail_ratio=failed / len(results), metrics=metrics,
                  harness_s=time.perf_counter() - started)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{run_dir.name}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    for r in results:
        for problem in r.problems:
            print(f"FAIL {r.label}: {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
