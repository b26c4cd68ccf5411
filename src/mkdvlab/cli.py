"""Command-line entry point: solve | illposed | probe | norms.

Each subcommand reads a flat key=value config, writes CSV/JSON (and binary
trajectories) under --out, and is byte-deterministic for a fixed config and
seed.  Every output embeds the config hash and the grid parameters.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .illposed import ExperimentPlan, ExperimentRecord, run_sweep, verify_lemma
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

_SCHEMAS = {
    "solve": (
        {"initial", "length", "points", "t_final", "dt", "record_every"},
        {
            "sign",
            "soliton_carrier",
            "soliton_scale",
            "file",
            "amplitude",
            "max_xi",
            "norm_s",
            "norm_p",
            "mass_tol",
        },
    ),
    "illposed": (
        {"s", "p", "T", "N_min", "N_max"},
        {"theta", "use_solver"},
    ),
    "probe": ({"probes"}, {"corpus_seed", "corpus_size"}),
    "norms": ({"field", "s", "p"}, set()),
}


def _check_keys(cfg: dict[str, str], command: str) -> None:
    required, optional = _SCHEMAS[command]
    for key in cfg:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown config key {key!r} for '{command}'")
    for key in required:
        if key not in cfg:
            raise ConfigError(f"missing required config key {key!r} for '{command}'")


def _as_float(cfg: dict, key: str) -> float:
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key!r} must be a number, got {cfg[key]!r}")


def _as_int(cfg: dict, key: str) -> int:
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"config key {key!r} must be an integer, got {cfg[key]!r}")


def _as_bool(cfg: dict, key: str) -> bool:
    val = cfg[key].lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"config key {key!r} must be a boolean, got {cfg[key]!r}")


def _header(cfg: dict, grid: GridSpec | None, seed: int | None) -> dict[str, str]:
    head = {"config_hash": config_hash(cfg)}
    if grid is not None:
        head["grid"] = f"length={grid.length!r} points={grid.points}"
    if seed is not None:
        head["seed"] = str(seed)
    return head


def _initial_field(cfg: dict, grid: GridSpec, seed: int | None) -> Field:
    kind = cfg["initial"]
    if kind == "soliton":
        params = SolitonParams(
            carrier=_as_float(cfg, "soliton_carrier"),
            scale=_as_float(cfg, "soliton_scale"),
        )
        return soliton_field(params, 0.0, grid)
    if kind == "file":
        if "file" not in cfg:
            raise ConfigError("initial=file requires the 'file' config key")
        f = read_field(cfg["file"])
        if f.grid != grid:
            raise ConfigError(
                f"field file grid {f.grid} does not match configured grid {grid}"
            )
        return f
    if kind == "random":
        rng = np.random.default_rng(0 if seed is None else seed)
        amplitude = _as_float(cfg, "amplitude") if "amplitude" in cfg else 0.5
        max_xi = _as_float(cfg, "max_xi") if "max_xi" in cfg else 6.0
        coef = np.exp(-((grid.xi / (max_xi / 2.0)) ** 2)) * (
            rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)
        )
        coef[np.abs(grid.xi) > max_xi] = 0.0
        f = inverse_transform(SpectralField(grid, coef))
        peak = float(np.max(np.abs(f.values)))
        if amplitude == 0.0 or peak == 0.0:
            return Field.zero(grid)
        return Field(grid, (amplitude / peak) * f.values)
    raise ConfigError(f"initial must be soliton|file|random, got {kind!r}")


def cmd_solve(cfg: dict, out: Path, seed: int | None) -> int:
    _check_keys(cfg, "solve")
    grid = GridSpec(length=_as_float(cfg, "length"), points=_as_int(cfg, "points"))
    t_final = _as_float(cfg, "t_final")
    sign = _as_int(cfg, "sign") if "sign" in cfg else 1
    solver_cfg = SolverConfig(
        dt=_as_float(cfg, "dt"),
        sign=sign,
        mass_tol=_as_float(cfg, "mass_tol") if "mass_tol" in cfg else 1e-8,
    )
    f0 = _initial_field(cfg, grid, seed)
    record_every = _as_int(cfg, "record_every")
    result = evolve(f0, t_final, solver_cfg, record_every)
    traj, final = result.trajectory, result.final
    norm_s = _as_float(cfg, "norm_s") if "norm_s" in cfg else 0.0
    norm_p = _as_float(cfg, "norm_p") if "norm_p" in cfg else 2.0

    rows = []
    for i in range(traj.n_times):
        f = traj.field_at(i)
        inv = invariants(f)
        rows.append({
            "t": float(traj.times[i]),
            "mass": inv["mass"],
            "momentum": inv["momentum"],
            "modulation_norm": modulation_norm(f, norm_s, norm_p),
        })
    header = _header(cfg, grid, seed)
    write_trajectory(out / "trajectory.bin", traj, solver_cfg.dt, sign)
    write_csv(
        out / "invariants.csv",
        ["t", "mass", "momentum", "modulation_norm"],
        rows,
        header=header,
    )
    write_field(out / "final_state.bin", final)
    if cfg["initial"] == "soliton":
        params = SolitonParams(
            carrier=_as_float(cfg, "soliton_carrier"),
            scale=_as_float(cfg, "soliton_scale"),
        )
        exact = soliton_field(params, t_final, grid)
        err = Field(grid, final.values - exact.values).l2_norm() / exact.l2_norm()
        print(f"final relative L2 error vs exact soliton: {err:.3e}")
    print(f"solve: wrote {traj.n_times} snapshots to {out}")
    return 0


def cmd_illposed(cfg: dict, out: Path, seed: int | None, jobs: int) -> int:
    _check_keys(cfg, "illposed")
    n_min = _as_float(cfg, "N_min")
    n_max = _as_float(cfg, "N_max")
    k_min, k_max = math.log2(n_min), math.log2(n_max)
    if abs(k_min - round(k_min)) > 1e-9 or abs(k_max - round(k_max)) > 1e-9:
        raise ConfigError("N_min and N_max must be powers of two")
    carriers = tuple(2.0**k for k in range(round(k_min), round(k_max) + 1))
    plan = ExperimentPlan(
        s=_as_float(cfg, "s"),
        p=_as_float(cfg, "p"),
        t_final=_as_float(cfg, "T"),
        carriers=carriers,
        theta=_as_float(cfg, "theta") if "theta" in cfg else None,
        use_solver=_as_bool(cfg, "use_solver") if "use_solver" in cfg else False,
    )
    records = run_sweep(plan, jobs=jobs)
    verdict = verify_lemma(records, plan)
    header = _header(cfg, None, seed)
    header["grid"] = "auto-sized per record (see plan_grid)"
    columns = [f.name for f in fields(ExperimentRecord)]
    write_csv(out / "records.csv", columns, [r.to_dict() for r in records], header=header)
    write_json(out / "verdict.json", verdict.to_dict(), meta=header)
    print(
        f"illposed [{verdict.regime}]: "
        f"{'PASS' if verdict.passed else 'FAIL'} "
        f"(norm ratio {verdict.norm_ratio:.3f}, diff0 slope {verdict.diff0_slope:+.4f}, "
        f"expected {verdict.expected_exponent:+.4f}, convention {verdict.squared_convention})"
    )
    return 0 if verdict.passed else 1


def cmd_probe(cfg: dict, out: Path, seed: int | None) -> int:
    _check_keys(cfg, "probe")
    raw = cfg["probes"].strip()
    names = [p.strip() for p in raw.split(",") if p.strip()]
    corpus_seed = _as_int(cfg, "corpus_seed") if "corpus_seed" in cfg else None
    corpus_size = _as_int(cfg, "corpus_size") if "corpus_size" in cfg else None
    reports = (
        run_probe_suite(names, corpus_seed=corpus_seed, corpus_size=corpus_size)
        if names
        else []
    )
    write_json(
        out / "probes.json",
        {"reports": [r.to_dict() for r in reports]},
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
    _check_keys(cfg, "norms")
    field_path = Path(cfg["field"])
    if not field_path.is_file():
        raise ConfigError(f"field file not found: {field_path}")
    f = read_field(field_path)
    s, p = _as_float(cfg, "s"), _as_float(cfg, "p")
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
