"""Process runner, output inspection and environment record for the benchmark.

A pass runs a workload's `python -m todalab ...` processes one after
another, each timed from spawn to `wait4` and inspected afterwards: exit
code, expected data files, the workload's output check, and a sha256 of
every data file.  The repository root is the parent of this directory,
and its `src` goes first on the children's PYTHONPATH so the working
tree is what gets measured.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path

from workloads import Proc

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# a run must end within 180 s; leave room for checks and the result file
RUN_DEADLINE_S = 165.0
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class HarnessError(RuntimeError):
    """The benchmark cannot finish: a child or phase overran the deadline."""


@dataclass
class ProcResult:
    label: str
    argv: list[str]
    code: int
    wall_s: float
    compute_s: float
    rss_mb: float
    problems: list[str] = field(default_factory=list)
    sha256: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class PassResult:
    processes: list[ProcResult]

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.processes)

    @property
    def setup_s(self) -> float:
        """Everything outside the command runners: start, imports, parsing."""
        return self.wall_s - sum(p.compute_s for p in self.processes)

    @property
    def peak_rss_mb(self) -> float:
        return max(p.rss_mb for p in self.processes)

    def summary(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "setup_s": self.setup_s,
            "peak_rss_mb": self.peak_rss_mb,
            "processes": [asdict(p) for p in self.processes],
        }


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def data_files(out_dir: Path) -> dict[str, Path]:
    """Every file a command wrote except its manifest (which holds timings)."""
    if not out_dir.is_dir():
        return {}
    return {
        p.name: p for p in sorted(out_dir.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def inspect_outputs(proc: Proc, out_dir: Path, code: int) -> ProcResult:
    """Exit code, expected files and the workload's output check."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    missing = [f for f in proc.files + ("manifest.json",) if not (out_dir / f).is_file()]
    problems += [f"missing {f}" for f in missing]
    if not missing:
        try:
            problems += proc.check(str(out_dir))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"output check raised {exc!r}")
    compute_s = 0.0
    if "manifest.json" not in missing:
        try:
            with open(out_dir / "manifest.json", encoding="utf-8") as handle:
                compute_s = float(json.load(handle)["wall_time_s"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable manifest: {exc!r}")
    files = data_files(out_dir)
    return ProcResult(
        label=proc.label,
        argv=list(proc.argv),
        code=code,
        wall_s=0.0,
        compute_s=compute_s,
        rss_mb=0.0,
        problems=problems,
        sha256={name: sha256_of(p) for name, p in files.items()},
        bytes_written=sum(p.stat().st_size for p in files.values()),
    )


def _wait(child: subprocess.Popen, timeout: float):
    """wait4 on the child, killing it if it outlives the timeout."""

    def kill(signum, frame):
        child.kill()

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    try:
        return os.wait4(child.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_process(proc: Proc, out_dir: Path, env: dict[str, str], deadline: float) -> ProcResult:
    """One timed `python -m todalab` process with its max RSS from wait4."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, "-m", "todalab", *proc.argv, "--out", str(out_dir)]
    with open(out_dir.parent / f"{proc.label}.stderr", "w", encoding="utf-8") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                 stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = _wait(child, deadline - start)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    if time.perf_counter() >= deadline:
        raise HarnessError(f"{proc.label} did not finish before the run deadline")
    result = inspect_outputs(proc, out_dir, child.returncode)
    result.wall_s = wall
    result.rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    return result


def run_pass(procs: list[Proc], pass_dir: Path, env: dict[str, str],
             deadline: float) -> PassResult:
    return PassResult([run_process(p, pass_dir / p.label, env, deadline) for p in procs])


def warm_up(env: dict[str, str]) -> None:
    """Import once outside the timing: writes bytecode, fills the page cache."""
    subprocess.run([sys.executable, "-c", "import todalab"], cwd=ROOT, env=env,
                   check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   timeout=60)


def timed_passes(procs: list[Proc], seconds: float, env: dict[str, str],
                 run_dir: Path, deadline: float) -> list[PassResult]:
    """Passes until the next one would end after `seconds` (at least one)."""
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(procs, run_dir / f"pass{len(passes)}", env, deadline))
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(passes)
        if elapsed + per_pass > seconds or time.perf_counter() + per_pass > deadline:
            return passes


def end_to_end_metrics(passes: list[PassResult]) -> dict:
    """Medians over the passes of a run."""
    return {
        "wall_s": {"value": statistics.median(p.wall_s for p in passes), "unit": "s"},
        "setup_s": {"value": statistics.median(p.setup_s for p in passes), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p.peak_rss_mb for p in passes),
                        "unit": "MB"},
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """sha256 over the package sources, which names the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "todalab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "thread_variables": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }
