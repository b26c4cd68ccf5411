"""Flat key=value configs, hashed CSV/JSON writers, binary field snapshots.

Output files are byte-deterministic for a fixed config and seed: floats are
written with repr (shortest round-trip), JSON keys are sorted, and every file
embeds the config hash and grid parameters (CSV: '#' comment header; JSON: a
"_meta" object).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from .norms import SpaceTimeField
from .spectral import Field, GridSpec, require_zero_offset

__all__ = [
    "ConfigError",
    "SnapshotError",
    "read_config",
    "config_hash",
    "write_csv",
    "write_json",
    "write_field",
    "read_field",
    "write_trajectory",
    "read_trajectory",
]

class ConfigError(ValueError):
    """Malformed or missing configuration."""


class SnapshotError(ValueError):
    """A binary snapshot file is malformed or truncated; the message names it."""


def read_config(path: str | Path) -> dict[str, str]:
    """Parse a flat key=value file; '#' starts a comment, blank lines ignored."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{p}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{p}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def config_hash(cfg: dict[str, str]) -> str:
    canonical = "".join(f"{k}={cfg[k]}\n" for k in sorted(cfg))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(
    path: str | Path,
    columns: list[str],
    rows: list[dict],
    header: dict[str, str],
) -> None:
    """RFC-4180-style CSV preceded by '#'-comment header lines."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", newline="") as fh:
        for key, value in header.items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


def write_json(path: str | Path, payload: dict, meta: dict) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps({**payload, "_meta": meta}, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Binary snapshots (fixed little-endian layout)
# ---------------------------------------------------------------------------

# Each snapshot kind: its magic, the names of its header fields in file order
# and their packed layout.  The samples follow the header, complex128, in the
# shape its counts give: (M,) for a field, (K, M) for a trajectory.
_SNAPSHOTS = {
    "field": (b"MKDVFLD1", ("L", "M"), struct.Struct("<dq")),
    "trajectory": (b"MKDVTRJ1", ("L", "M", "K", "dt", "sign", "T_w"), struct.Struct("<dqqdbd")),
}
_SAMPLE = np.dtype("<c16")


def _write_snapshot(path: str | Path, kind: str, grid: GridSpec, samples, *rest) -> None:
    """Magic, header (L and M from ``grid``, then ``rest``), then the samples."""
    magic, _, layout = _SNAPSHOTS[kind]
    require_zero_offset(grid, f"write_{kind} (the snapshot header has no offset)")
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "wb") as fh:
        fh.write(magic)
        fh.write(layout.pack(grid.length, grid.points, *rest))
        fh.write(np.ascontiguousarray(samples, dtype=_SAMPLE).tobytes())


def _read_snapshot(path: str | Path, kind: str, build):
    """``build(header, samples)`` of a ``kind`` snapshot; a ValueError names the file."""
    magic, names, layout = _SNAPSHOTS[kind]
    with open(path, "rb") as fh:
        found = fh.read(len(magic))
        if found != magic:
            raise SnapshotError(f"{path}: not a {kind} snapshot (bad magic {found!r})")
        raw = fh.read(layout.size)
        if len(raw) != layout.size:
            raise SnapshotError(
                f"{path}: truncated {kind} header ({len(raw)} of {layout.size} bytes)"
            )
        header = dict(zip(names, layout.unpack(raw)))
        counts = {name: header[name] for name in ("K", "M") if name in header}
        for name, value in counts.items():
            if value < 0:
                raise SnapshotError(f"{path}: negative {kind} header count {name} = {value}")
        count = math.prod(counts.values())
        raw = fh.read()
    size = count * _SAMPLE.itemsize
    if len(raw) != size:
        raise SnapshotError(
            f"{path}: expected {count} samples ({size} bytes), found {len(raw)} bytes"
        )
    try:
        return build(header, np.frombuffer(raw, dtype=_SAMPLE).reshape(*counts.values()))
    except ValueError as exc:
        raise SnapshotError(f"{path}: {exc}") from exc


def write_field(path: str | Path, field: Field) -> None:
    """One spatial snapshot: magic, L (f8), M (i8), then complex128 samples."""
    _write_snapshot(path, "field", field.grid, field.values)


def read_field(path: str | Path) -> Field:
    return _read_snapshot(
        path, "field", lambda h, samples: Field(GridSpec(length=h["L"], points=h["M"]), samples)
    )


def write_trajectory(
    path: str | Path, traj: SpaceTimeField, dt: float, sign: int
) -> None:
    """Trajectory snapshot: magic, L (f8), M (i8), K (i8), dt (f8), sign (b), T_w (f8)."""
    _write_snapshot(
        path, "trajectory", traj.grid, traj.samples, traj.n_times, dt, sign, traj.t_window
    )


def _trajectory(h: dict, samples: np.ndarray) -> tuple[SpaceTimeField, float, int]:
    dt, sign = h["dt"], h["sign"]
    if not (math.isfinite(dt) and dt != 0.0) or sign not in (-1, 1):
        raise ValueError(
            f"header needs a finite nonzero dt and sign +-1, got dt={dt!r}, sign={sign}"
        )
    return SpaceTimeField(GridSpec(length=h["L"], points=h["M"]), h["T_w"], samples), dt, sign


def read_trajectory(path: str | Path) -> tuple[SpaceTimeField, float, int]:
    return _read_snapshot(path, "trajectory", _trajectory)
