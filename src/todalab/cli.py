"""Command-line front end: config handling, dispatch, and report files.

Each run resolves its options from defaults, an optional flat key=value
config file, and command-line flags (flags win), validates them against
the target module's preconditions before any compute starts, then
writes its data files plus a manifest.json with the resolved config in
the exact string forms the parser accepts, so each entry of its config
block replays as one key = value line of a config file.  Exit codes: 0
success, 2 bad input, 1 numerical failure.  Timestamps and wall time
live only in the manifest; the data files depend on nothing but the
resolved config and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import astuple, dataclass
from typing import Callable, Optional, Sequence

from . import _EXPORTS, __version__, _lazy_getattr
from ._csv import write_csv
from .cartan import EIGHT_PI, FOUR_PI, NumericalError, _coupling_values

# the numerical modules' public names, through the package's own table: a
# name is imported on first access (see __getattr__) and then kept as an
# attribute of this module, so a process loads only the modules its command
# runs, and a replacement set here (the benchmark tracer wraps cli.minimize,
# cli.sweep, ...) is what the commands call
__getattr__ = _lazy_getattr(globals(), _EXPORTS)


def _callees(*names: str) -> tuple:
    """The named package exports (see _EXPORTS), read as attributes of this module."""
    this = sys.modules[__name__]
    return tuple(getattr(this, name) for name in names)


__all__ = [
    "RunConfig",
    "IdentityRow",
    "emit_identity_suite",
    "main",
]

IDENTITY_CSV_HEADER = "identity,parameter,measured,expected,residual,bound,status"

# canonical identity-suite parameters: the shooting values are the
# subfamily of a2 in [-2, 0.5] whose tails settle by r = 1000, and the
# slope scales sit where the bubble quantities are asymptotic
SUITE_A2_VALUES = (-1.5, -1.0, -0.5, 0.0, 0.5)
SUITE_SCALES = tuple(math.e**k for k in (7, 8, 9, 10))
SUITE_BALL_RADII = (1.0, 10.0, 100.0)
# the most couplings per axis of a sweep: its k1 * k2 cells are listed up front
MAX_GRID_CELLS = 1000


class CliError(ValueError):
    """Bad flags, bad config keys, or failed module preconditions."""


def _parser(what: str, convert: Callable[[str], object]) -> Callable[[str], object]:
    """A one-value parser: convert on the stripped text.

    A failed conversion (ValueError, or OverflowError as in 'e1000') is
    CliError("cannot parse <what> '<text>'").
    """

    def parse(text: str):
        t = text.strip()
        try:
            return convert(t)
        except (ValueError, OverflowError):
            raise CliError(f"cannot parse {what} '{t}'") from None

    return parse


def _list_parser(item: Callable[[str], object], message: str,
                 size: Optional[int] = None) -> Callable[[str], tuple]:
    """A comma-separated list parser: item on each non-blank entry.

    CliError(message) when there is no entry, or not exactly size of them.
    """

    def parse(text: str) -> tuple:
        parts = [p for p in text.split(",") if p.strip()]
        if not parts or (size is not None and len(parts) != size):
            raise CliError(message)
        return tuple(item(p) for p in parts)

    return parse


def _pi_multiple(t: str) -> float:
    """A float with an optional literal pi suffix: '4pi', '3.0pi', 'pi'."""
    t = t.lower()
    if t.endswith("pi"):
        head = t[:-2].strip()
        return (float(head) if head else 1.0) * math.pi
    return float(t)


def _scale(t: str) -> float:
    """A scale value, either a plain float or 'eK' meaning exp(K)."""
    t = t.lower()
    return math.e ** float(t[1:]) if t.startswith("e") else float(t)


parse_pi_value = _parser("value", _pi_multiple)
parse_scale = _parser("scale", _scale)
parse_int = _parser("integer", int)
parse_float = _parser("number", float)
parse_couplings = _list_parser(parse_pi_value, "couplings must be a comma-separated list")
parse_scales = _list_parser(parse_scale, "scales must be a comma-separated list")
parse_floats = _list_parser(parse_float, "expected a comma-separated list of numbers")
parse_pair = _list_parser(parse_float, "expected exactly two comma-separated numbers", size=2)


def parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise CliError("range must look like '1pi:5pi'")
    lo, hi = (parse_pi_value(p) for p in parts)
    if not lo < hi:
        raise CliError("range must be increasing")
    return lo, hi


def parse_grid_shape(text: str) -> tuple[int, int]:
    try:
        k1, k2 = (int(part) for part in text.lower().split("x"))
    except ValueError:
        raise CliError("grid shape must look like '9x9'") from None
    if k1 < 1 or k2 < 1:
        raise CliError("grid shape must be positive")
    if max(k1, k2) > MAX_GRID_CELLS:
        raise CliError(f"grid shape must be at most {MAX_GRID_CELLS} per axis")
    return k1, k2


def parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise CliError(f"cannot parse boolean '{text.strip()}'")


def parse_choice(allowed: Sequence[str]) -> Callable[[str], str]:
    def convert(text: str) -> str:
        t = text.strip()
        if t not in allowed:
            raise CliError(f"expected one of {', '.join(allowed)}; got '{t}'")
        return t

    return convert


@dataclass(frozen=True)
class Option:
    name: str
    convert: Callable[[str], object]
    default: str
    help: str


# option tables drive the argparse setup, the config-file merge, and the
# manifest, so the three views of a run's configuration cannot drift
OPTIONS: dict[str, tuple[Option, ...]] = {
    "minimize": (
        Option("m", parse_couplings, "3.0pi,3.0pi", "couplings, pi suffix allowed"),
        Option("n", parse_int, "64", "grid cells per side (power of two, 8 to 2048)"),
        Option("max-iters", parse_int, "2000", "descent iteration budget"),
        Option("grad-tol", parse_float, "1e-6", "stationarity tolerance"),
        Option("seed", parse_int, "0", "rng seed for the smooth start"),
        Option("summary-only", parse_bool, "false", "omit field arrays from report.json"),
    ),
    "sweep": (
        Option("m-grid", parse_grid_shape, "9x9", "coupling grid shape, e.g. 9x9"),
        Option("range", parse_range, "1pi:5pi", "coupling range lo:hi per axis"),
        Option("n", parse_int, "64", "grid cells per side (power of two, 8 to 2048)"),
    ),
    "bubble": (
        Option("m", parse_couplings, "3.0pi,3.0pi", "couplings, pi suffix allowed"),
        Option("scales", parse_scales, "e7,e8,e9,e10", "profile scales, eK = exp(K)"),
        Option("flat-radius", parse_float, "0.25", "truncation radius of the profile"),
    ),
    "radial": (
        Option("a0", parse_floats, "0,0", "center values of the profile components"),
        Option("r-max", parse_float, "1000", "outer radius of the profile"),
        Option("nodes", parse_int, "600", "radial output nodes"),
    ),
    "pohozaev": (
        Option("m", parse_couplings, "3.0pi,3.0pi", "couplings, pi suffix allowed"),
        Option("n", parse_int, "64", "grid cells per side (power of two, 8 to 2048)"),
        Option("seed", parse_int, "0", "rng seed for the smooth start"),
        Option("center", parse_pair, "0.5,0.5", "disk center in the unit torus"),
        Option("radii", parse_floats, "0.1,0.15,0.2", "disk radii to scan"),
    ),
    "identities": (
        Option("m", parse_couplings, "3.0pi,3.0pi", "couplings for the slope rows"),
        Option("only", parse_choice(("all", "bubble", "radial")), "all", "subset to run"),
        Option("corrupt-cartan", parse_bool, "false", "fault-injection hook for tests"),
    ),
}

COMMON_OPTIONS = (
    Option("out", str, "", "output directory (default runs/<command>)"),
)


def _dest(name: str) -> str:
    return name.replace("-", "_")


@dataclass(frozen=True)
class RunConfig:
    """A fully resolved run: raw string forms plus converted values."""

    command: str
    raw: dict[str, str]
    values: dict[str, object]

    @property
    def out(self) -> str:
        return self.values["out"] or os.path.join("runs", self.command)

    @property
    def seed(self) -> int:
        return int(self.values.get("seed", 0))

    @property
    def n(self) -> Optional[int]:
        return self.values.get("n")

    @property
    def couplings(self) -> Optional[tuple[float, ...]]:
        return self.values.get("m")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="todalab",
        description="torus energy minimization and radial identity checks",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command in OPTIONS:
        # flags must be spelled out: a prefix would also slip past _join_dash_values
        sub = subs.add_parser(command, allow_abbrev=False)
        sub.add_argument("--config", default=None, help="flat key=value config file")
        for opt in OPTIONS[command] + COMMON_OPTIONS:
            sub.add_argument(f"--{opt.name}", dest=_dest(opt.name), default=None,
                             help=f"{opt.help} (default {opt.default or 'runs/' + command})")
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise CliError(f"{path}:{lineno}: expected key = value")
                key, _, value = stripped.partition("=")
                entries[key.strip()] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from None
    return entries


def resolve_config(command: str, cli_raw: dict[str, Optional[str]],
                   config_path: Optional[str]) -> RunConfig:
    """Merge defaults, config file, and flags; convert and validate."""
    table = OPTIONS[command] + COMMON_OPTIONS
    known = {opt.name: opt for opt in table}
    file_raw = _load_config_file(config_path) if config_path else {}
    for key in file_raw:
        if key not in known:
            raise CliError(f"unknown config key: {key}")
    raw: dict[str, str] = {}
    values: dict[str, object] = {}
    for opt in table:
        given = cli_raw.get(_dest(opt.name))
        text = given if given is not None else file_raw.get(opt.name, opt.default)
        raw[opt.name] = text
        values[_dest(opt.name)] = opt.convert(text)
    return RunConfig(command=command, raw=raw, values=values)


def _minimize_config(config: RunConfig) -> MinimizeConfig:
    """The descent settings of a minimize, sweep or pohozaev run."""
    (MinimizeConfig,) = _callees("MinimizeConfig")
    given = {k: config.values[k] for k in ("max_iters", "grad_tol") if k in config.values}
    return MinimizeConfig(seed=config.seed, **given)


def _precheck(config: RunConfig) -> None:
    """Fail fast on module preconditions before any compute starts.

    Each rule is the guarded module's own validator, so the two cannot
    drift apart.
    """
    if config.command in ("minimize", "sweep", "pohozaev"):
        (GridSpec,) = _callees("GridSpec")
        GridSpec(config.n)
        _minimize_config(config)
    if config.command in ("minimize", "pohozaev"):
        _coupling_values(config.couplings)
    if config.command == "sweep":
        # the range ends are the sweep's extreme couplings
        _coupling_values(config.values["range"], 2)
    if config.command in ("bubble", "identities"):
        # the bubble family and its slope table are rank 2
        _coupling_values(config.couplings, 2)
    if config.command == "pohozaev":
        from .pohozaev import _check_disks

        _check_disks(config.values["radii"], config.values["center"], 1.0 / config.n)
    if config.command == "radial":
        from .closed_form import _check_profile_settings

        _check_profile_settings(
            config.values["a0"], config.values["r_max"], config.values["nodes"]
        )
    if config.command == "bubble":
        from .bubbles import _check_flat_radius, _sorted_scales

        _sorted_scales(config.values["scales"])
        _check_flat_radius(config.values["flat_radius"])


def _write_json(path: str, payload: dict) -> None:
    """Write json.dumps(payload, indent=2, sort_keys=True) and a newline.

    The standard encoder runs in pure Python whenever indent is set.  Here
    only the nesting is laid out in Python: each list of numbers (the
    field rows of a report) goes through the C encoder, with the line
    break and the indent folded into its item separator.
    """

    def chunks(value, pad: str):
        inner = pad + "  "
        if isinstance(value, dict) and value:
            yield "{"
            for i, (key, item) in enumerate(sorted(value.items())):
                name = key if isinstance(key, str) else json.dumps(key)
                yield f"{',' if i else ''}\n{inner}{json.dumps(name)}: "
                yield from chunks(item, inner)
            yield f"\n{pad}}}"
        elif isinstance(value, (list, tuple)) and value:
            if all(isinstance(x, (int, float)) for x in value):
                row = json.dumps(value, separators=(",\n" + inner, ": "))
                yield f"[\n{inner}{row[1:-1]}\n{pad}]"
                return
            for i, item in enumerate(value):
                yield f"{',' if i else '['}\n{inner}"
                yield from chunks(item, inner)
            yield f"\n{pad}]"
        else:
            yield json.dumps(value)

    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(chunks(payload, ""))
        handle.write("\n")


def _write_manifest(config: RunConfig, wall_time: float) -> None:
    manifest = {
        "command": config.command,
        "config": dict(sorted(config.raw.items())),
        "version": "v" + __version__,
        "wall_time_s": round(wall_time, 3),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
    }
    _write_json(os.path.join(config.out, "manifest.json"), manifest)


def _run_minimize(config: RunConfig) -> int:
    GridSpec, minimize = _callees("GridSpec", "minimize")
    spec = GridSpec(config.n)
    report = minimize(config.couplings, spec, config=_minimize_config(config))
    payload = report.to_dict(include_fields=not config.values["summary_only"])
    payload["m"] = list(config.couplings)
    payload["n"] = config.n
    _write_json(os.path.join(config.out, "report.json"), payload)
    return 0


def _run_sweep(config: RunConfig) -> int:
    import numpy as np

    GridSpec, sweep, write_region_csv = _callees("GridSpec", "sweep", "write_region_csv")
    spec = GridSpec(config.n)
    k1, k2 = config.values["m_grid"]
    lo, hi = config.values["range"]
    axis1 = np.linspace(lo, hi, k1)
    axis2 = np.linspace(lo, hi, k2)
    couplings = [(float(m1), float(m2)) for m1 in axis1 for m2 in axis2]
    rows = sweep(couplings, spec, config=_minimize_config(config))
    write_region_csv(rows, os.path.join(config.out, "region.csv"))
    return 0


def _run_bubble(config: RunConfig) -> int:
    from .bubbles import QUANTITY_KEYS

    asymptotic_slope_table, fit_slopes = _callees("asymptotic_slope_table", "fit_slopes")
    fits = fit_slopes(
        config.values["scales"],
        config.couplings,
        flat_radius=config.values["flat_radius"],
    )
    expected = asymptotic_slope_table(config.couplings)
    write_csv(
        os.path.join(config.out, "slopes.csv"),
        "quantity,fitted_slope,expected_slope,intercept,max_residual",
        (
            (key, fits[key].slope, expected[key], fits[key].intercept, fits[key].max_residual)
            for key in QUANTITY_KEYS
        ),
    )
    return 0


def _run_radial(config: RunConfig) -> int:
    """The exact profile of the closed form on the nodes the integrator shares."""
    check_mass_relation, masses_and_exponents, radial_profile, write_solution_csv = _callees(
        "check_mass_relation", "masses_and_exponents", "radial_profile", "write_solution_csv",
    )
    profile = radial_profile(
        config.values["a0"], r_max=config.values["r_max"], nodes=config.values["nodes"]
    )
    write_solution_csv(profile, os.path.join(config.out, "radial.csv"))
    payload: dict = {
        "a0": list(config.values["a0"]),
        "r_max": config.values["r_max"],
        "flux_max": profile.flux_max(),
    }
    try:
        report = masses_and_exponents(profile)
    except ValueError as exc:
        payload["outcome"] = "tail"
        payload["note"] = str(exc)
    else:
        relation = check_mass_relation(*report.alpha) if len(report.alpha) == 2 else None
        payload["outcome"] = "converged"
        payload["alpha"] = list(report.alpha)
        payload["beta"] = list(report.beta)
        payload["alpha_above_4pi"] = list(report.alpha_above_4pi)
        payload["beta_above_4pi"] = list(report.beta_above_4pi)
        if relation is not None:
            payload["mass_relation_rel"] = relation.relative
    _write_json(os.path.join(config.out, "report.json"), payload)
    return 0


def _run_pohozaev(config: RunConfig) -> int:
    GridSpec, minimize, radius_scan, write_balance_csv = _callees(
        "GridSpec", "minimize", "radius_scan", "write_balance_csv"
    )
    spec = GridSpec(config.n)
    report = minimize(config.couplings, spec, config=_minimize_config(config))
    balances = radius_scan(
        report.final_u,
        config.couplings,
        config.values["center"],
        config.values["radii"],
    )
    write_balance_csv(balances, os.path.join(config.out, "balance.csv"))
    payload = {
        "m": list(config.couplings),
        "n": config.n,
        "minimize_status": report.status,
        "balances": [b.to_dict() for b in balances],
    }
    _write_json(os.path.join(config.out, "report.json"), payload)
    return 0


@dataclass(frozen=True)
class IdentityRow:
    identity: str
    parameter: str
    measured: float
    expected: float
    residual: float
    bound: float
    status: str


def _row(identity: str, parameter: str, measured: float, expected: float,
         residual: float, bound: float) -> IdentityRow:
    ok = math.isfinite(residual) and abs(residual) < bound
    return IdentityRow(identity, parameter, float(measured), float(expected),
                       float(residual), float(bound), "PASS" if ok else "FAIL")


def _fail_row(identity: str, message: str) -> IdentityRow:
    return IdentityRow(identity, f"error: {message}", math.nan, math.nan,
                       math.nan, 0.0, "FAIL")


def _radial_identity_rows(cartan: Optional[Sequence[Sequence[float]]]) -> list[IdentityRow]:
    ball_pohozaev, check_mass_relation, masses_and_exponents, sweep_shooting = _callees(
        "ball_pohozaev", "check_mass_relation", "masses_and_exponents", "sweep_shooting",
    )
    shots = sweep_shooting(SUITE_A2_VALUES, cartan=cartan)
    # the symmetric start a0 = (0, 0) is the family's a2 = 0 member
    (symmetric,) = (shot for shot in shots if shot.a2 == 0.0)
    rows: list[IdentityRow] = []
    try:
        sol = symmetric.solution
        if sol is None:
            raise ValueError("profile from a0 = (0, 0) blew up")
        report = masses_and_exponents(sol)
        for j, alpha in enumerate(report.alpha):
            rel = (alpha - EIGHT_PI) / EIGHT_PI
            rows.append(_row("radial_mass", f"alpha{j + 1}", alpha, EIGHT_PI, rel, 1e-3))
        flux = sol.flux_max()
        rows.append(_row("flux", "max_over_nodes", flux, 0.0, flux, 1e-5))
        for radius in SUITE_BALL_RADII:
            balance = ball_pohozaev(sol, radius)
            rel = balance.residual / abs(balance.lhs)
            rows.append(
                _row("ball_pohozaev", f"R={radius:g}", balance.lhs, balance.rhs, rel, 1e-4)
            )
        relation = check_mass_relation(*report.alpha)
        rows.append(
            _row("mass_relation", "symmetric", relation.residual, 0.0,
                 relation.relative, 1e-2)
        )
    except ValueError as exc:
        rows.append(_fail_row("radial_symmetric", str(exc)))
    for shot in shots:
        bounds_hold = all(a > FOUR_PI for a in shot.alpha) and all(
            b > FOUR_PI for b in shot.beta
        )
        residual = shot.relation_rel if shot.outcome == "converged" else math.nan
        if not bounds_hold:
            residual = math.nan
        rows.append(
            _row("mass_relation", f"a2={shot.a2:g}", shot.relation_rel, 0.0,
                 residual, 1e-2)
        )
    return rows


def _bubble_identity_rows(m: Sequence[float]) -> list[IdentityRow]:
    from .bubbles import QUANTITY_KEYS

    asymptotic_slope_table, fit_slopes = _callees("asymptotic_slope_table", "fit_slopes")
    rows: list[IdentityRow] = []
    try:
        fits = fit_slopes(SUITE_SCALES, m)
        expected = asymptotic_slope_table(m)
        for key in QUANTITY_KEYS:
            fitted = fits[key].slope
            target = expected[key]
            if target == 0.0:
                rows.append(_row("bubble_slope", key, fitted, 0.0, fitted, 0.05))
            else:
                rel = (fitted - target) / target
                rows.append(_row("bubble_slope", key, fitted, target, rel, 0.02))
    except (NumericalError, ValueError) as exc:
        rows.append(_fail_row("bubble_slope", str(exc)))
    return rows


def emit_identity_suite(
    only: str = "all",
    corrupt_cartan: bool = False,
    m: Sequence[float] = (3.0 * math.pi, 3.0 * math.pi),
) -> tuple[IdentityRow, ...]:
    """Run the canonical identity checks and return one row per check.

    The corrupt_cartan hook weakens the off-diagonal coupling fed to the
    radial runs so the mass-relation rows must fail; it exists to prove
    the suite cannot pass vacuously.
    """
    cartan = ((2.0, -0.9), (-0.9, 2.0)) if corrupt_cartan else None
    rows: list[IdentityRow] = []
    if only in ("all", "radial"):
        rows.extend(_radial_identity_rows(cartan))
    if only in ("all", "bubble"):
        rows.extend(_bubble_identity_rows(m))
    return tuple(rows)


def _run_identities(config: RunConfig) -> int:
    rows = emit_identity_suite(
        only=config.values["only"],
        corrupt_cartan=config.values["corrupt_cartan"],
        m=config.couplings,
    )
    path = os.path.join(config.out, "identities.csv")
    write_csv(path, IDENTITY_CSV_HEADER, map(astuple, rows))
    return 0 if all(row.status == "PASS" for row in rows) else 1


RUNNERS = {
    "minimize": _run_minimize,
    "sweep": _run_sweep,
    "bubble": _run_bubble,
    "radial": _run_radial,
    "pohozaev": _run_pohozaev,
    "identities": _run_identities,
}


def _join_dash_values(argv: Sequence[str]) -> list[str]:
    """argv with each value that starts with '-' joined to its flag by '='.

    argparse reads '--a0 -1,0' as two flags; '--a0=-1,0' is one.  A
    token that is itself one of the command's option strings stays a flag.
    """
    args = list(argv)
    if not args or args[0] not in OPTIONS:
        return args
    # every option but -h/--help takes one value
    flags = {"--config"} | {f"--{opt.name}" for opt in OPTIONS[args[0]] + COMMON_OPTIONS}
    joined = args[:1]
    for token in args[1:]:
        if joined[-1] in flags and token.startswith("-") and token not in flags | {"-h", "--help"}:
            joined[-1] = f"{joined[-1]}={token}"
        else:
            joined.append(token)
    return joined


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        namespace = parser.parse_args(
            _join_dash_values(sys.argv[1:] if argv is None else argv)
        )
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = resolve_config(namespace.command, vars(namespace), namespace.config)
        _precheck(config)
        os.makedirs(config.out, exist_ok=True)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # resolve_config turns an unreadable config into CliError
        print(f"error: cannot create output directory: {exc}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        code = RUNNERS[config.command](config)
    except (NumericalError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        _write_manifest(config, time.perf_counter() - started)
        return 1
    _write_manifest(config, time.perf_counter() - started)
    return code
