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

_FIELD_MAGIC = b"MKDVFLD1"
_TRAJ_MAGIC = b"MKDVTRJ1"


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
    header: dict[str, str] | None = None,
) -> None:
    """RFC-4180-style CSV preceded by '#'-comment header lines."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "w", newline="") as fh:
        for key, value in (header or {}).items():
            fh.write(f"# {key}={value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c)) for c in columns])


def write_json(path: str | Path, payload: dict, meta: dict | None = None) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    doc = dict(payload)
    if meta:
        doc["_meta"] = meta
    p.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Binary snapshots (fixed little-endian layout)
# ---------------------------------------------------------------------------

def write_field(path: str | Path, field: Field) -> None:
    """One spatial snapshot: magic, L (f8), M (i8), then complex128 samples."""
    require_zero_offset(field.grid, "write_field (the snapshot header has no offset)")
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "wb") as fh:
        fh.write(_FIELD_MAGIC)
        fh.write(struct.pack("<dq", field.grid.length, field.grid.points))
        fh.write(np.ascontiguousarray(field.values, dtype="<c16").tobytes())


def _read_exact(fh, path, size: int, what: str) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise SnapshotError(f"{path}: truncated {what} ({len(raw)} of {size} bytes)")
    return raw


def _read_samples(fh, path, count: int) -> np.ndarray:
    """The rest of the file as exactly ``count`` complex128 samples."""
    raw = fh.read()
    if count < 0 or len(raw) != 16 * count:
        raise SnapshotError(
            f"{path}: expected {count} samples ({16 * count} bytes), found {len(raw)} bytes"
        )
    return np.frombuffer(raw, dtype="<c16")


def read_field(path: str | Path) -> Field:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _FIELD_MAGIC:
            raise SnapshotError(f"{path}: not a field snapshot (bad magic {magic!r})")
        length, points = struct.unpack("<dq", _read_exact(fh, path, 16, "field header"))
        data = _read_samples(fh, path, points)
    try:
        return Field(GridSpec(length=length, points=points), data)
    except ValueError as exc:
        raise SnapshotError(f"{path}: {exc}") from exc


def write_trajectory(
    path: str | Path, traj: SpaceTimeField, dt: float, sign: int
) -> None:
    """Trajectory snapshot: magic, L (f8), M (i8), K (i8), dt (f8), sign (b)."""
    require_zero_offset(traj.grid, "write_trajectory (the snapshot header has no offset)")
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with open(p, "wb") as fh:
        fh.write(_TRAJ_MAGIC)
        fh.write(
            struct.pack(
                "<dqqdb",
                traj.grid.length,
                traj.grid.points,
                traj.n_times,
                dt,
                sign,
            )
        )
        fh.write(struct.pack("<d", traj.t_window))
        fh.write(np.ascontiguousarray(traj.samples, dtype="<c16").tobytes())


def read_trajectory(path: str | Path) -> tuple[SpaceTimeField, float, int]:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _TRAJ_MAGIC:
            raise SnapshotError(f"{path}: not a trajectory snapshot (bad magic {magic!r})")
        length, points, k, dt, sign, t_window = struct.unpack(
            "<dqqdbd", _read_exact(fh, path, 41, "trajectory header")
        )
        data = _read_samples(fh, path, k * points if min(k, points) >= 0 else -1)
    if not (math.isfinite(dt) and dt != 0.0) or sign not in (-1, 1):
        raise SnapshotError(
            f"{path}: header needs a finite nonzero dt and sign +-1, got dt={dt!r}, sign={sign}"
        )
    samples = data.reshape(k, points)
    try:
        traj = SpaceTimeField(GridSpec(length=length, points=points), t_window, samples)
    except ValueError as exc:
        raise SnapshotError(f"{path}: {exc}") from exc
    return traj, dt, sign
