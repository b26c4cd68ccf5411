"""Output checks, computed separately from mkdvlab.

Nothing here imports mkdvlab.  Each workload has a loader, which parses the
files a round wrote (binary layouts and CSV by hand), and a list of named
checks.  A check compares the program's numbers with a value this module
computes itself (closed-form soliton, scipy quadrature, a hash, Parseval) or
with a property the method must have; none compares with a saved copy of an
earlier output.  ``selftest.py`` corrupts loaded data to show that every check
can fail.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np
from scipy.integrate import quad

ROOT = Path(__file__).resolve().parent.parent
CALIBRATION = ROOT / "src" / "mkdvlab" / "data" / "calibration.json"

#: agreement demanded between the program and this module's quadrature
QUAD_RTOL = 1e-10
#: agreement demanded for conserved quantities of the exact soliton
INVARIANT_RTOL = 1e-10


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def read_cfg(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# ---------------------------------------------------------------------------
# Closed forms and quadrature
# ---------------------------------------------------------------------------

def sech2(a):
    """sech(a)^2 without overflow."""
    e = np.exp(-2.0 * np.abs(a))
    return 4.0 * e / (1.0 + e) ** 2


def soliton(carrier: float, scale: float, t: float, length: float, points: int) -> np.ndarray:
    """The exact solution on [-L/2, L/2), periodised so its centre stays in the box."""
    x = -0.5 * length + (length / points) * np.arange(points)
    raw = x + (3.0 * carrier**2 - scale**2) * t
    wraps = np.round(raw / length)
    y = raw - wraps * length
    phase = (carrier**3 - 3.0 * carrier * scale**2) * t + carrier * (x - wraps * length)
    return (scale / math.sqrt(6.0)) * np.exp(1j * phase) * np.sqrt(sech2(scale * y))


def soliton_modulation_norm(carrier: float, scale: float, s: float, p: float) -> float:
    """M^{2,p}_s norm of the soliton from |u_hat|^2 = (pi^2/6) sech^2(pi (xi - N) / (2 lam)).

    Cube masses are (2 pi)^{-1} int cos^4(pi (xi - n) / 2) |u_hat|^2 dxi over
    [n - 1, n + 1]; cubes further than 25 lam + 3 from the carrier hold less
    than 1e-27 of the mass and are left out.
    """
    def modsq(xi):
        return (math.pi**2 / 6.0) * sech2(math.pi * (xi - carrier) / (2.0 * scale))

    reach = 25.0 * scale + 3.0
    total = 0.0
    for n in range(math.floor(carrier - reach), math.ceil(carrier + reach) + 1):
        peak = [carrier] if n - 1 < carrier < n + 1 else None
        mass2, _ = quad(
            lambda xi: math.cos(0.5 * math.pi * (xi - n)) ** 4 * modsq(xi),
            n - 1, n + 1, points=peak, epsabs=0.0, epsrel=1e-13, limit=200,
        )
        total += ((1.0 + n * n) ** (s / 2.0) * math.sqrt(mass2 / (2.0 * math.pi))) ** p
    return total ** (1.0 / p)


def taper(n_times: int, t_window: float) -> np.ndarray:
    """cos^2 ramps over the first and last 10% of the window, 1 between."""
    t = (t_window / n_times) * np.arange(n_times)
    w = 0.1 * t_window
    eta = np.ones(n_times)
    lo, hi = t < w, t > t_window - w
    eta[lo] = 0.5 - 0.5 * np.cos(np.pi * t[lo] / w)
    eta[hi] = 0.5 - 0.5 * np.cos(np.pi * (t_window - t[hi]) / w)
    return eta


# ---------------------------------------------------------------------------
# solve-soliton
# ---------------------------------------------------------------------------

def load_solve(out: Path) -> dict:
    cfg = read_cfg(out / "solve.cfg")
    raw = (out / "final_state.bin").read_bytes()
    magic = raw[:8]
    length, points = struct.unpack("<dq", raw[8:24])
    final = np.frombuffer(raw[24:], dtype="<c16").copy()
    raw = (out / "trajectory.bin").read_bytes()
    head = struct.unpack("<dqqdb", raw[8:41])
    (t_window,) = struct.unpack("<d", raw[41:49])
    return {
        "cfg": cfg,
        "final": {"magic": magic, "length": length, "points": points, "values": final},
        "trajectory": {
            "magic": raw[:8],
            "length": head[0], "points": head[1], "snapshots": head[2],
            "dt": head[3], "sign": head[4], "t_window": t_window,
            "payload": len(raw) - 49,
        },
        "invariants": [{k: float(v) for k, v in row.items()}
                       for row in read_csv(out / "invariants.csv")],
    }


def _solve_params(cfg):
    return (float(cfg["soliton_carrier"]), float(cfg["soliton_scale"]),
            float(cfg["length"]), int(cfg["points"]), float(cfg["t_final"]))


def check_final_state(d: dict) -> None:
    n, lam, length, points, t_final = _solve_params(d["cfg"])
    f = d["final"]
    _require(f["magic"] == b"MKDVFLD1" and f["length"] == length and f["points"] == points
             and f["values"].shape == (points,), f"final_state.bin header {f['length']}, {f['points']}")
    exact = soliton(n, lam, t_final, length, points)
    err = float(np.linalg.norm(f["values"] - exact) / np.linalg.norm(exact))
    _require(err <= 1e-6, f"final state differs from the exact soliton by {err:.3e} (> 1e-6)")


def check_invariants(d: dict) -> None:
    n, lam, *_ = _solve_params(d["cfg"])
    for row in d["invariants"]:
        _require(_rel(row["mass"], lam / 3.0) <= INVARIANT_RTOL,
                 f"mass {row['mass']!r} at t={row['t']} is not lam/3")
        _require(_rel(row["momentum"], n * lam / 3.0) <= INVARIANT_RTOL,
                 f"momentum {row['momentum']!r} at t={row['t']} is not N lam/3")


def check_modulation_column(d: dict) -> None:
    cfg = d["cfg"]
    n, lam, *_ = _solve_params(cfg)
    want = soliton_modulation_norm(n, lam, float(cfg.get("norm_s", 0.0)), float(cfg.get("norm_p", 2.0)))
    for row in d["invariants"]:
        _require(_rel(row["modulation_norm"], want) <= QUAD_RTOL,
                 f"modulation_norm {row['modulation_norm']!r} at t={row['t']} vs quadrature {want!r}")


def check_trajectory(d: dict) -> None:
    cfg, tr = d["cfg"], d["trajectory"]
    _, _, length, points, t_final = _solve_params(cfg)
    dt = float(cfg["dt"])
    snapshots = round(t_final / dt) // int(cfg["record_every"])
    want = {"magic": b"MKDVTRJ1", "length": length, "points": points, "snapshots": snapshots,
            "dt": dt, "sign": int(cfg.get("sign", 1)), "t_window": t_final,
            "payload": snapshots * points * 16}
    bad = {k: (tr[k], v) for k, v in want.items() if tr[k] != v}
    _require(not bad, f"trajectory header (got, want): {bad}")
    times = [row["t"] for row in d["invariants"]]
    step = t_final / snapshots
    _require(len(times) == snapshots and all(abs(t - k * step) <= 1e-12 for k, t in enumerate(times)),
             f"invariants.csv times {times}")


# ---------------------------------------------------------------------------
# apriori-random
# ---------------------------------------------------------------------------

def load_apriori(out: Path) -> dict:
    return {"norms": json.loads((out / "apriori.json").read_text())}


def check_apriori_start(d: dict) -> None:
    for seed, norms in d["norms"].items():
        _require(len(norms) == 16 and all(math.isfinite(v) for v in norms),
                 f"seed {seed}: {len(norms)} norms")
        _require(_rel(norms[0], 0.5) <= 1e-12, f"seed {seed}: norms[0] = {norms[0]!r}, not 0.5")


def check_apriori_bound(d: dict) -> None:
    for seed, norms in d["norms"].items():
        ratio = max(norms) / norms[0]
        _require(ratio <= 5.0, f"seed {seed}: sup norms / norms[0] = {ratio:.4g} > 5")


# ---------------------------------------------------------------------------
# illposed-grid
# ---------------------------------------------------------------------------

def load_illposed(out: Path) -> dict:
    rows = read_csv(out / "records.csv")
    return {
        "cfg": read_cfg(out / "illposed.cfg"),
        "records": [{k: (float(v) if v else None) for k, v in r.items()} for r in rows],
        "verdict": json.loads((out / "verdict.json").read_text()),
    }


def check_records_schedule(d: dict) -> None:
    cfg = d["cfg"]
    s, t_final, theta = float(cfg["s"]), float(cfg["T"]), float(cfg["theta"])
    lo, hi = round(math.log2(float(cfg["N_min"]))), round(math.log2(float(cfg["N_max"])))
    carriers = [r["carrier"] for r in d["records"]]
    _require(carriers == [2.0**k for k in range(lo, hi + 1)], f"carriers {carriers}")
    for r in d["records"]:
        n = r["carrier"]
        _require(r["n1"] == n and _rel(r["lam"], n ** (-2.0 * s)) <= 1e-12,
                 f"N={n}: lam {r['lam']!r} is not N^(-2s)")
        gap = n ** (2.0 * s - 1.0 + 2.0 * theta) / t_final
        _require(_rel(r["n2"] - r["n1"], gap) <= 1e-9,
                 f"N={n}: n2 - n1 = {r['n2'] - r['n1']!r}, want {gap!r}")


def check_records_quadrature(d: dict) -> None:
    cfg = d["cfg"]
    s, p = float(cfg["s"]), float(cfg["p"])
    for r in d["records"]:
        want = soliton_modulation_norm(r["n1"], r["lam"], s, p)
        _require(_rel(r["norm_u"], want) <= QUAD_RTOL,
                 f"N={r['carrier']}: norm_u {r['norm_u']!r} vs quadrature {want!r}")


def check_records_grid(d: dict) -> None:
    for r in d["records"]:
        for col in ("norm_u", "diff0", "difft"):
            grid = r[f"grid_{col}"]
            _require(grid is not None and abs(grid - r[col]) <= 1e-4 * r[col],
                     f"N={r['carrier']}: grid_{col} {grid!r} vs {col} {r[col]!r}")


def check_verdict(d: dict) -> None:
    _require(d["verdict"].get("passed") is True, f"verdict {d['verdict'].get('passed')!r}")


# ---------------------------------------------------------------------------
# probe-corpus
# ---------------------------------------------------------------------------

def load_probe(out: Path) -> dict:
    return {
        "cfg": read_cfg(out / "probe.cfg"),
        "reports": json.loads((out / "probes.json").read_text())["reports"],
        "calibration": json.loads(CALIBRATION.read_text()),
        "corpus": np.load(out / "corpus.npy"),
        "free_evolution": np.load(out / "free_evolution.npy"),
        "parseval": json.loads((out / "parseval.json").read_text()),
    }


def check_probe_calibration(d: dict) -> None:
    names = [n.strip() for n in d["cfg"]["probes"].split(",")]
    got = [r["estimate"] for r in d["reports"]]
    _require(got == names, f"reports {got}, config {names}")
    constants = d["calibration"]["constants"]
    for r in d["reports"]:
        const = constants[r["estimate"]]
        _require(r["calibration"] == const and r["within_calibration"] is True
                 and 0.0 < r["max_ratio"] <= const,
                 f"{r['estimate']}: max ratio {r['max_ratio']!r} vs constant {const!r}")


def check_corpus_hash(d: dict) -> None:
    meta = d["calibration"]["corpus"]
    corpus = d["corpus"]
    h = hashlib.sha256()
    h.update(f"L={float(meta['grid_length'])!r};M={meta['grid_points']};n={meta['size']}".encode())
    _require(corpus.shape == (meta["size"], meta["grid_points"]), f"corpus shape {corpus.shape}")
    for row in corpus:
        h.update(np.ascontiguousarray(row, dtype="<c16").tobytes())
    _require(h.hexdigest() == meta["sha256"], "corpus hash differs from calibration.json")


def check_parseval(d: dict) -> None:
    samples = d["free_evolution"]
    par = d["parseval"]
    k, m = samples.shape
    eta = taper(k, par["t_window"])
    direct = math.sqrt(float(np.sum(np.abs(eta[:, None] * samples) ** 2))
                       * (par["length"] / m) * (par["t_window"] / k))
    _require(_rel(par["xsb_00"], direct) <= 1e-12,
             f"X^(0,0) norm {par['xsb_00']!r} vs windowed L2 {direct!r}")


WORKLOAD_CHECKS = {
    "solve-soliton": (load_solve, {
        "final_state": check_final_state,
        "invariants": check_invariants,
        "modulation_column": check_modulation_column,
        "trajectory": check_trajectory,
    }),
    "apriori-random": (load_apriori, {
        "initial_norm": check_apriori_start,
        "apriori_bound": check_apriori_bound,
    }),
    "illposed-grid": (load_illposed, {
        "schedule": check_records_schedule,
        "quadrature": check_records_quadrature,
        "grid_agreement": check_records_grid,
        "verdict": check_verdict,
    }),
    "probe-corpus": (load_probe, {
        "calibration": check_probe_calibration,
        "corpus_hash": check_corpus_hash,
        "parseval": check_parseval,
    }),
}


def failures(workload: str, data: dict) -> dict[str, str]:
    """Name -> message for every check that fails on loaded data."""
    out = {}
    for name, fn in WORKLOAD_CHECKS[workload][1].items():
        try:
            fn(data)
        except CheckFailed as exc:
            out[name] = str(exc)
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
            out[name] = f"malformed output: {exc!r}"
    return out


def check_outputs(workload: str, out: Path) -> dict[str, str]:
    """Load a round's outputs and run every check; unreadable outputs fail as 'load'."""
    try:
        data = WORKLOAD_CHECKS[workload][0](out)
    except (OSError, ValueError, KeyError, struct.error) as exc:
        return {"load": repr(exc)}
    return failures(workload, data)
