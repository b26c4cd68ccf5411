"""Command-line entry point: solve | illposed | probe | norms.

Each subcommand reads a flat key=value config, writes CSV/JSON (and binary
trajectories) under --out, and is byte-deterministic for a fixed config and
seed.  Every output embeds the config hash and the grid parameters.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .illposed import MIN_FIT_RECORDS, ExperimentPlan, ExperimentRecord, run_sweep, verify_lemma
from .io import (
    ConfigError,
    SnapshotError,
    config_hash,
    read_config,
    read_field,
    write_csv,
    write_field,
    write_json,
    write_trajectory,
)
from .norms import fourier_lebesgue_norm, modulation_norm, sobolev_norm
from .probes import run_probe_suite
from .solitons import SolitonParams, soliton_field
from .solver import SolverConfig, evolve, invariants
from .spectral import Field, GridSpec, SpectralField, inverse_transform

#: the keys each kind of initial field requires
_INITIAL = {"soliton": ("soliton_carrier", "soliton_scale"), "file": ("file",), "random": ()}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}

#: value parsers: (what they accept, conversion, test of the converted value)
_NUMBER = ("a finite number", float, math.isfinite)
_POSITIVE = ("a positive number", float, lambda x: 0 < x < math.inf)
_NUMBER_OR_INF = ("a number or inf", float, lambda x: x == math.inf or math.isfinite(x))
_INTEGER = ("an integer", int, None)
_BOOLEAN = ("true/false, yes/no, on/off or 1/0", lambda raw: _BOOLEANS[raw.lower()], None)
_POWER_OF_TWO = ("a power of two", lambda raw: math.log2(float(raw)),
                 lambda k: math.isfinite(k) and abs(k - round(k)) <= 1e-9)
_FILE = ("an existing file", Path, Path.is_file)
_SEED = ("a nonnegative integer", int, lambda n: n >= 0)
_INITIAL_KIND = ("one of " + "|".join(_INITIAL), str, lambda kind: kind in _INITIAL)
_NAMES = ("names", lambda raw: [n.strip() for n in raw.split(",") if n.strip()], None)

#: defaults: a _REQUIRED key must be given; an _UNSET key is left out unless
#: given, because the library holds its default or only some initial kinds use it
_REQUIRED, _UNSET = object(), object()
#: per subcommand, each config key's parser and default
_SCHEMAS = {
    "solve": {
        "initial": (_INITIAL_KIND, _REQUIRED),
        "length": (_NUMBER, _REQUIRED),
        "points": (_INTEGER, _REQUIRED),
        "t_final": (_POSITIVE, _REQUIRED),
        "dt": (_NUMBER, _REQUIRED),
        "record_every": (_INTEGER, _REQUIRED),
        "sign": (_INTEGER, _UNSET),
        "mass_tol": (_NUMBER, _UNSET),
        "soliton_carrier": (_NUMBER, _UNSET),
        "soliton_scale": (_NUMBER, _UNSET),
        "file": (_FILE, _UNSET),
        "amplitude": (_NUMBER, 0.5),
        "max_xi": (_POSITIVE, 6.0),
        "norm_s": (_NUMBER, 0.0),
        "norm_p": (_NUMBER_OR_INF, 2.0),
    },
    "illposed": {
        "s": (_NUMBER, _REQUIRED),
        "p": (_NUMBER_OR_INF, _REQUIRED),
        "T": (_NUMBER, _REQUIRED),
        "N_min": (_POWER_OF_TWO, _REQUIRED),
        "N_max": (_POWER_OF_TWO, _REQUIRED),
        "theta": (_NUMBER, _UNSET),
        "use_solver": (_BOOLEAN, _UNSET),
    },
    "probe": {
        "probes": (_NAMES, _REQUIRED),
        "corpus_seed": (_SEED, _UNSET),
        "corpus_size": (_INTEGER, _UNSET),
    },
    "norms": {
        "field": (_FILE, _REQUIRED),
        "s": (_NUMBER, _REQUIRED),
        "p": (_NUMBER_OR_INF, _REQUIRED),
    },
}


def _parse(cfg: dict[str, str], command: str) -> dict:
    """`cfg` checked and converted by `command`'s schema; a fault is a ConfigError."""
    schema = _SCHEMAS[command]
    for key in cfg:
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r} for '{command}'")
    opts = {}
    for key, ((wants, convert, accept), default) in schema.items():
        if key in cfg:
            try:
                opts[key] = convert(cfg[key])
                ok = accept is None or accept(opts[key])
            except (KeyError, OSError, ValueError):
                ok = False
            if not ok:
                raise ConfigError(f"config key {key!r} must be {wants}, got {cfg[key]!r}")
        elif default is _REQUIRED:
            raise ConfigError(f"missing required config key {key!r} for '{command}'")
        elif default is not _UNSET:
            opts[key] = default
    for key in _INITIAL.get(opts.get("initial"), ()):
        if key not in opts:
            raise ConfigError(f"initial = {opts['initial']} requires the {key!r} config key")
    return opts


def _given(opts: dict, *keys: str) -> dict:
    """The `keys` the config sets; the library defaults the others."""
    return {key: opts[key] for key in keys if key in opts}


def _header(cfg: dict, grid: GridSpec | None, seed: int | None) -> dict[str, str]:
    head = {"config_hash": config_hash(cfg)}
    if grid is not None:
        head["grid"] = f"length={grid.length!r} points={grid.points}"
    if seed is not None:
        head["seed"] = str(seed)
    return head


def _initial_field(
    opts: dict, grid: GridSpec, seed: int | None
) -> tuple[Field, SolitonParams | None]:
    """The initial field, and its soliton parameters for ``initial = soliton``."""
    if opts["initial"] == "soliton":
        params = SolitonParams(carrier=opts["soliton_carrier"], scale=opts["soliton_scale"])
        return soliton_field(params, 0.0, grid), params
    if opts["initial"] == "file":
        f = read_field(opts["file"])
        if f.grid != grid:
            raise ConfigError(
                f"field file grid {f.grid} does not match configured grid {grid}"
            )
        return f, None
    rng = np.random.default_rng(0 if seed is None else seed)
    amplitude, max_xi = opts["amplitude"], opts["max_xi"]
    coef = np.exp(-((grid.xi / (max_xi / 2.0)) ** 2)) * (
        rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)
    )
    coef[np.abs(grid.xi) > max_xi] = 0.0
    f = inverse_transform(SpectralField(grid, coef))
    peak = float(np.max(np.abs(f.values)))
    if amplitude == 0.0 or peak == 0.0:
        return Field.zero(grid), None
    return Field(grid, (amplitude / peak) * f.values), None


def cmd_solve(cfg: dict, out: Path, seed: int | None) -> int:
    opts = _parse(cfg, "solve")
    grid = GridSpec(length=opts["length"], points=opts["points"])
    t_final = opts["t_final"]
    solver_cfg = SolverConfig(dt=opts["dt"], **_given(opts, "sign", "mass_tol"))
    f0, soliton = _initial_field(opts, grid, seed)
    result = evolve(f0, t_final, solver_cfg, opts["record_every"])
    traj, final = result.trajectory, result.final

    rows = []
    for i in range(traj.n_times):
        f = traj.field_at(i)
        inv = invariants(f)
        rows.append({
            "t": float(traj.times[i]),
            "mass": inv["mass"],
            "momentum": inv["momentum"],
            "modulation_norm": modulation_norm(f, opts["norm_s"], opts["norm_p"]),
        })
    header = _header(cfg, grid, seed)
    write_trajectory(out / "trajectory.bin", traj, solver_cfg.dt, solver_cfg.sign)
    write_csv(
        out / "invariants.csv",
        ["t", "mass", "momentum", "modulation_norm"],
        rows,
        header=header,
    )
    write_field(out / "final_state.bin", final)
    if soliton is not None:
        exact = soliton_field(soliton, t_final, grid)
        err = Field(grid, final.values - exact.values).l2_norm() / exact.l2_norm()
        print(f"final relative L2 error vs exact soliton: {err:.3e}")
    print(f"solve: wrote {traj.n_times} snapshots to {out}")
    return 0


def cmd_illposed(cfg: dict, out: Path, seed: int | None, jobs: int) -> int:
    opts = _parse(cfg, "illposed")
    # N_min and N_max parse to their base-2 exponents
    k_min, k_max = round(opts["N_min"]), round(opts["N_max"])
    carriers = tuple(2.0**k for k in range(k_min, k_max + 1))
    # the soliton pair's construction needs carriers N > 1
    if k_min < 1:
        raise ConfigError(f"N_min must exceed 1, got {2.0**k_min:g}")
    # the verdict fits a slope over the sweep: refuse a sweep it cannot fit
    if len(carriers) < MIN_FIT_RECORDS:
        raise ConfigError(
            f"N_min = {2.0**k_min:g} to N_max = {2.0**k_max:g} gives {len(carriers)} "
            f"carriers; the exponent fit needs at least {MIN_FIT_RECORDS} "
            f"(N_max >= {2 ** (MIN_FIT_RECORDS - 1)} N_min)"
        )
    plan = ExperimentPlan(
        s=opts["s"],
        p=opts["p"],
        t_final=opts["T"],
        carriers=carriers,
        **_given(opts, "theta", "use_solver"),
    )
    records = run_sweep(plan, jobs=jobs)
    verdict = verify_lemma(records, plan)
    header = _header(cfg, None, seed)
    header["grid"] = "auto-sized per record (see plan_grid)"
    columns = [f.name for f in fields(ExperimentRecord)]
    write_csv(out / "records.csv", columns, [asdict(r) for r in records], header=header)
    write_json(out / "verdict.json", asdict(verdict), meta=header)
    print(
        f"illposed [{verdict.regime}]: "
        f"{'PASS' if verdict.passed else 'FAIL'} "
        f"(norm ratio {verdict.norm_ratio:.3f}, diff0 slope {verdict.diff0_slope:+.4f}, "
        f"expected {verdict.expected_exponent:+.4f}, convention {verdict.squared_convention})"
    )
    return 0 if verdict.passed else 1


def cmd_probe(cfg: dict, out: Path, seed: int | None) -> int:
    opts = _parse(cfg, "probe")
    reports = run_probe_suite(opts["probes"], **_given(opts, "corpus_seed", "corpus_size"))
    write_json(
        out / "probes.json",
        {"reports": [asdict(r) for r in reports]},
        meta=_header(cfg, None, seed),
    )
    ok = all(r.within_calibration in (True, None) for r in reports)
    for r in reports:
        print(
            f"probe {r.estimate}: max ratio {r.max_ratio:.4e} "
            f"(calibration {r.calibration}) "
            f"{'ok' if r.within_calibration in (True, None) else 'VIOLATION'}"
        )
    if not reports:
        print("probe: nothing to run")
    return 0 if ok else 1


def cmd_norms(cfg: dict, out: Path) -> int:
    opts = _parse(cfg, "norms")
    f = read_field(opts["field"])
    s, p = opts["s"], opts["p"]
    values = {
        "sobolev": sobolev_norm(f, s),
        "fourier_lebesgue": fourier_lebesgue_norm(f, s, p),
        "modulation": modulation_norm(f, s, p),
        "s": s,
        "p": p,
    }
    write_json(out / "norms.json", values, meta=_header(cfg, f.grid, None))
    for name in ("sobolev", "fourier_lebesgue", "modulation"):
        print(f"{name}: {values[name]!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkdvlab",
        description="Spectral experiments for the complex modified KdV equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("solve", "time-step an initial field and export the trajectory"),
        ("illposed", "run a two-soliton instability sweep and write a verdict"),
        ("probe", "run estimate probes against their calibration constants"),
        ("norms", "compute norms of a stored field snapshot"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed for random data")
        p.add_argument("--jobs", type=int, default=1, help="parallel sweep workers")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        if args.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {args.jobs}")
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {args.seed}")
        out.mkdir(parents=True, exist_ok=True)
        cfg = read_config(Path(args.config))
        if args.command == "solve":
            return cmd_solve(cfg, out, args.seed)
        if args.command == "illposed":
            return cmd_illposed(cfg, out, args.seed, args.jobs)
        if args.command == "probe":
            return cmd_probe(cfg, out, args.seed)
        return cmd_norms(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SnapshotError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError) as exc:
        # numerical failures (solver guards, quadrature non-convergence,
        # grid/quadrature disagreement, calibration mismatch) and rejected
        # parameters such as ResolutionError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
