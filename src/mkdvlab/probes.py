"""Numerical falsification probes for the multilinear estimates and bounds.

Every space-time quantity here is built from cutoff free evolutions (they
concentrate on the dispersion surface tau = xi^3, the worst case for the
<tau - xi^3> weights) and is therefore a representative upper-bound value for
the corresponding restriction norm, never an infimum; reports carry that
caveat.  Constants are empirical: they are calibrated once on a frozen seeded
corpus (hash and constants stored in data/calibration.json) and later runs
check stability against them, guarding the transform conventions against
regressions rather than proving the estimates.

Each probe family is a pure function of the corpus: it seeds its own stream
with PAIRING_SEED, and only ``convolution`` replays the cube pairs' draws, the
stream it was calibrated on.  The trilinear window is K = 1024 snapshots; the
corpus block's ``n_times`` = 256 is the bilinear and xsb_free_evolution window.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .io import ConfigError
from .norms import (
    _check_exponent,
    _cube_lp,
    _free_product,
    _free_tau_sums,
    _lp,
    _median,
    _tau_sums,
    _window_taper,
    _xi_l2,
    modulation_norm,
    sobolev_norm,
)
from .solver import SolverConfig, _step_count, evolve
from .spectral import (
    Field,
    GridSpec,
    SpectralField,
    _coefficients,
    _is_pow2,
    _scaled_squares,
    fourier_multiplier,
    inverse_transform,
    littlewood_paley,
    require_same_grid,
    unit_cube_project,
)

__all__ = [
    "ProbeReport",
    "resonance_identity",
    "resonance_max_deviation",
    "bilinear_ratio_cube",
    "bilinear_ratio_lp",
    "trilinear_ratio",
    "convolution_inequality_check",
    "apriori_tracking",
    "make_probe_corpus",
    "corpus_hash",
    "load_calibration",
    "calibrate",
    "run_probe_suite",
]

REPRESENTATIVE_CAVEAT = "xsb-values-are-representative-upper-bounds"

#: frozen corpus coordinates (must match data/calibration.json)
CORPUS_SEED = 20250811
CORPUS_SIZE = 200
CORPUS_GRID = GridSpec(length=64.0, points=256)
CORPUS_T_WINDOW = 1.0
CORPUS_N_TIMES = 256

#: seed of the rng stream each random family opens (cube pairs, sparse sequences)
PAIRING_SEED = 1
#: calibration constants are the measured maxima times this factor
CALIBRATION_HEADROOM = 1.01
#: eps of the trilinear bound: factors in X^{s,1/2+eps}_p, the product in X^{s,-1/2+2eps}_p
_TRILINEAR_EPS = 0.01
#: snapshots of the trilinear window: its cubic product needs more than CORPUS_N_TIMES
_TRILINEAR_N_TIMES = 1024


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of one estimate probe over a corpus."""

    estimate: str
    corpus_size: int
    max_ratio: float
    argmax: str
    calibration: float | None
    within_calibration: bool | None
    caveats: tuple[str, ...] = (REPRESENTATIVE_CAVEAT,)
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Resonance identity
# ---------------------------------------------------------------------------

def resonance_identity(xi1, xi2, xi3):
    """Both sides of the cubic resonance identity under the zero-sum constraint.

    With xi = -(xi1 + xi2 + xi3) and the time frequencies cancelling, the sum
    of the four modulations tau_j - xi_j^3 equals

        (xi1 + xi2 + xi3)^3 - xi1^3 - xi2^3 - xi3^3
            = 3 (xi1 + xi2)(xi2 + xi3)(xi1 + xi3).

    Evaluated in extended precision: the left side cancels three ~|xi|^3
    terms, so plain doubles would leave ~1e-10 residue at |xi| ~ 100.
    """
    xi1 = np.asarray(xi1, dtype=np.longdouble)
    xi2 = np.asarray(xi2, dtype=np.longdouble)
    xi3 = np.asarray(xi3, dtype=np.longdouble)
    lhs = (xi1 + xi2 + xi3) ** 3 - xi1**3 - xi2**3 - xi3**3
    rhs = 3.0 * (xi1 + xi2) * (xi2 + xi3) * (xi1 + xi3)
    return np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)


def resonance_max_deviation(n_samples: int = 1_000_000, seed: int = 0) -> float:
    """Max relative deviation of the identity over random triples in [-50, 50]."""
    rng = np.random.default_rng(seed)
    xi = rng.uniform(-50.0, 50.0, size=(3, n_samples))
    lhs, rhs = resonance_identity(xi[0], xi[1], xi[2])
    return float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))))


# ---------------------------------------------------------------------------
# Bilinear / trilinear ratios
# ---------------------------------------------------------------------------

def _st_l2(samples: np.ndarray, grid: GridSpec, dt: float) -> float:
    a2, e = _scaled_squares(samples)
    return math.ldexp(float(np.sqrt(np.sum(a2) * grid.dx * dt)), e)


def _bilinear_ratio(pu: Field, pv: Field, divisor: float) -> float:
    """||U V||_{L^2_{x,t}} of the free evolutions against X^{0,1/2+0.05} norms / divisor."""
    require_same_grid(pu, pv)
    g, k, t_w = pu.grid, CORPUS_N_TIMES, CORPUS_T_WINDOW
    cu, cv = _coefficients(pu.values, g), _coefficients(pv.values, g)
    product = _free_product((cu, cv), g, t_w, _window_taper(t_w, k))
    num = _st_l2(product, g, t_w / k)
    du, dv = (_xi_l2(*_free_tau_sums(c, g, t_w, k, 0.5 + 0.05), g, t_w, 0.0) for c in (cu, cv))
    den = du * dv / divisor
    return 0.0 if den == 0.0 else num / den


def bilinear_ratio_cube(u: Field, v: Field, m: int, n: int) -> float:
    """||Pi_m U Pi_n V||_{L^2_{x,t}} against the |m+n||m-n|^{-1/2}-weighted bound, eps = 0.05."""
    if abs(m + n) < 2 or abs(m - n) < 2:
        raise ValueError(f"cube pair needs |m+n|, |m-n| >= 2, got m={m}, n={n}")
    pu = unit_cube_project(u, m)
    pv = unit_cube_project(v, n)
    return _bilinear_ratio(pu, pv, math.sqrt(abs(m + n) * abs(m - n)))


def bilinear_ratio_lp(u: Field, v: Field, n1: float, n2: float) -> float:
    """||P_{N1} U P_{N2} V||_{L^2_{x,t}} against the N1^{-1}-weighted bound, eps = 0.05."""
    if n1 < 4 * n2:
        raise ValueError(f"separated dyadics required: N1 >= 4 N2, got {n1}, {n2}")
    return _bilinear_ratio(littlewood_paley(u, n1), littlewood_paley(v, n2), n1)


def trilinear_ratio(
    u1: Field,
    u2: Field,
    u3: Field,
    s: float,
    p: float,
    n_times: int = _TRILINEAR_N_TIMES,
) -> tuple[float, bool]:
    """Ratio for the key trilinear bound: u1 conj(u2) d_x u3 in X^{s,-1/2+2eps}_p, eps = 0.01.

    Returns (ratio, out_of_range): out_of_range flags parameters outside
    s >= 1/4, 2 <= p < inf; the ratio is still computed (useful for probing
    sharpness near the threshold).  The numerator trajectory is the pointwise
    product of the three cutoff trajectories; the norm applies its own taper
    on top, a fixed convention absorbed by the calibration constants.
    """
    out_of_range = not (s >= 0.25 and 2.0 <= p < math.inf)
    require_same_grid(u1, u2)
    require_same_grid(u1, u3)
    g = u1.grid
    coefs = [_coefficients(u.values, g) for u in (u1, u2, u3)]
    # a generator, so the factors are normed after the numerator has checked n_times
    dens = (_trilinear_den(c, g, s, p, n_times) for c in coefs)
    return _trilinear_ratio(coefs, dens, g, s, p, n_times), out_of_range


def _trilinear_den(coef: np.ndarray, g: GridSpec, s: float, p: float, n_times: int) -> float:
    """X^{s,1/2+eps}_p norm of the free evolution of u_hat = ``coef``, one trilinear factor."""
    sums = _free_tau_sums(coef, g, CORPUS_T_WINDOW, n_times, 0.5 + _TRILINEAR_EPS)
    return _cube_lp(*sums, g, CORPUS_T_WINDOW, s, p)


def _trilinear_ratio(coefs, dens, g: GridSpec, s: float, p: float, n_times: int) -> float:
    """Body of :func:`trilinear_ratio`: u_hat = ``coefs``, their norms ``dens`` reduced last."""
    factors = (coefs[0], coefs[1], 1j * g.xi * coefs[2])
    eta = _window_taper(CORPUS_T_WINDOW, n_times)
    product = _free_product(factors, g, CORPUS_T_WINDOW, eta, conj=(1,))
    # the product is given up to the norm, which tapers and transforms it in place
    sums = _tau_sums(product, g, CORPUS_T_WINDOW, -0.5 + 2.0 * _TRILINEAR_EPS)
    num = _cube_lp(*sums, g, CORPUS_T_WINDOW, s, p)
    den = math.prod(dens)
    return 0.0 if den == 0.0 else num / den


# ---------------------------------------------------------------------------
# Discrete convolution inequality
# ---------------------------------------------------------------------------

def convolution_inequality_check(
    a: np.ndarray,
    b: np.ndarray,
    eps: float,
    p: float,
    c_eps: float,
    n0_a: int = 0,
    n0_b: int = 0,
) -> tuple[float, float]:
    """Exact double sum sum_{m != n} a_m b_n / (|m-n| <n>^eps) vs C_eps ||a||_p ||b||_p'.

    Sequences are finite and nonnegative with finite support; n0_* give the
    integer index of the first entry.  p >= 1, and p' is its dual exponent
    (1 at p = inf).  c_eps is positive and finite.  Returns (lhs, rhs_bound).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not all(np.all((x >= 0) & (x < math.inf)) for x in (a, b)):
        raise ValueError("sequences must be finite and nonnegative")
    if not eps > 0:
        raise ValueError("eps must be positive")
    _check_exponent(p)
    if not 0.0 < c_eps < math.inf:
        raise ValueError(f"c_eps must be positive and finite, got {c_eps!r}")
    m_idx = n0_a + np.arange(a.size)
    n_idx = n0_b + np.arange(b.size)
    weight_b = b / np.sqrt(1.0 + n_idx.astype(float) ** 2) ** eps
    lhs = 0.0
    chunk = max(1, int(4e6) // max(b.size, 1))
    for lo in range(0, a.size, chunk):
        hi = min(lo + chunk, a.size)
        gap = np.abs(m_idx[lo:hi, None] - n_idx[None, :]).astype(float)
        with np.errstate(divide="ignore"):
            kernel = np.where(gap == 0.0, 0.0, 1.0 / gap)
        lhs += float(a[lo:hi] @ kernel @ weight_b)
    q = math.inf if p == 1 else 1.0 / (1.0 - 1.0 / p)
    return lhs, c_eps * _lp(a, p) * _lp(b, q)


# ---------------------------------------------------------------------------
# A-priori norm tracking along the nonlinear flow
# ---------------------------------------------------------------------------

def apriori_tracking(
    u0: Field,
    s: float,
    p: float,
    t_final: float,
    cfg: SolverConfig,
    n_snapshots: int = 32,
) -> tuple[np.ndarray, np.ndarray]:
    """Modulation norm along the nonlinear evolution: (times, norms)."""
    _check_exponent(p)
    if n_snapshots < 1:
        raise ValueError(f"n_snapshots must be at least 1, got {n_snapshots}")
    if not _is_pow2(n_snapshots):
        raise ValueError(f"n_snapshots must be a power of two (>= 2), got {n_snapshots}")
    n_steps = _step_count(t_final, cfg.dt)
    if n_steps % n_snapshots != 0:
        raise ValueError(
            f"snapshot count {n_snapshots} must divide the {n_steps} steps"
        )
    traj = evolve(u0, t_final, cfg, record_every=n_steps // n_snapshots).trajectory
    norms = np.array(
        [modulation_norm(traj.field_at(i), s, p) for i in range(traj.n_times)]
    )
    return traj.times, norms


# ---------------------------------------------------------------------------
# Frozen corpus and calibration
# ---------------------------------------------------------------------------

def make_probe_corpus(seed: int = CORPUS_SEED, size: int = CORPUS_SIZE) -> list[Field]:
    """Random band-limited fields on CORPUS_GRID with varied envelopes, unit L^2 mass."""
    grid = CORPUS_GRID
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(size):
        width = 0.8 + 2.5 * rng.random()
        carrier = rng.uniform(-3.0, 3.0)
        coef = np.exp(-(((grid.xi - carrier) / width) ** 2)) * (
            rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)
        )
        coef[np.abs(grid.xi) > 8.0] = 0.0
        f = inverse_transform(SpectralField(grid, coef))
        fields.append(Field(grid, f.values / f.l2_norm()))
    return fields


def corpus_hash(fields: list[Field]) -> str:
    h = hashlib.sha256()
    g = fields[0].grid
    h.update(f"L={g.length!r};M={g.points};n={len(fields)}".encode())
    for f in fields:
        h.update(np.ascontiguousarray(f.values, dtype="<c16").tobytes())
    return h.hexdigest()


def load_calibration() -> dict:
    with resources.files("mkdvlab.data").joinpath("calibration.json").open() as fh:
        return json.load(fh)


def _band_limit(f: Field, cap: float) -> Field:
    """Hard spectral truncation to |xi| <= cap (keeps cubic products resolvable)."""
    return fourier_multiplier(f, np.abs(f.grid.xi) <= cap)


def _layout(size: int) -> dict[str, range]:
    """Corpus indices per family: the first half in cube pairs, the next 30% in dyadic
    pairs, the last fifth trilinear (the frozen calibration layout at size 200)."""
    tri = size - max(size // 5, 1)
    return {
        "bilinear_cube": range(0, size // 2 - 1, 2),
        "bilinear_lp": range(size // 2, tri - 1, 2),
        "trilinear": range(tri, size),
    }


def _cube_layout(size: int, rng) -> list[tuple[int, int, int]]:
    """(i, m, n) per cube pair (i, i + 1); (m, n) drawn until |m + n|, |m - n| >= 2."""
    layout = []
    for i in _layout(size)["bilinear_cube"]:
        m = n = 0
        while abs(m + n) < 2 or abs(m - n) < 2:
            m, n = int(rng.integers(-6, 7)), int(rng.integers(-6, 7))
        layout.append((i, m, n))
    return layout


def _reduce(pairs) -> dict:
    """Max, argmax label and count over (ratio, label) pairs; the first maximum wins."""
    worst, arg, count = 0.0, "", 0
    for r, label in pairs:
        count += 1
        if r > worst:
            worst, arg = r, label
    return {"max": worst, "argmax": arg, "count": count}


def _probe_bilinear_cube(fields: list[Field]) -> dict:
    rng = np.random.default_rng(PAIRING_SEED)
    return _reduce(
        (bilinear_ratio_cube(fields[i], fields[i + 1], m, n),
         f"fields ({i},{i + 1}), cubes ({m},{n})")
        for i, m, n in _cube_layout(len(fields), rng)
    )


def _probe_bilinear_lp(fields: list[Field]) -> dict:
    lp_pairs = [(8.0, 1.0), (8.0, 2.0), (4.0, 1.0)]
    layout = [(i, *lp_pairs[(i // 2) % len(lp_pairs)])
              for i in _layout(len(fields))["bilinear_lp"]]
    return _reduce(
        (bilinear_ratio_lp(fields[i], fields[i + 1], n1, n2),
         f"fields ({i},{i + 1}), dyadics ({n1},{n2})")
        for i, n1, n2 in layout
    )


def _probe_trilinear(fields: list[Field]) -> dict:
    size, g, k = len(fields), fields[0].grid, _TRILINEAR_N_TIMES
    triples = [(i, (i + 7) % size, (i + 23) % size) for i in _layout(size)["trilinear"]]
    # once per distinct field, which joins up to three triples: u_hat of its input
    # capped to |xi| <= 4 (so the cubic product stays temporally resolvable), and its norm
    coefs = {j: _coefficients(_band_limit(fields[j], 4.0).values, g)
             for j in dict.fromkeys(itertools.chain(*triples))}
    dens = {j: _trilinear_den(c, g, 0.25, 4.0, k) for j, c in coefs.items()}
    pairs = [(_trilinear_ratio([coefs[j] for j in js], [dens[j] for j in js], g, 0.25, 4.0, k),
              "fields ({},{},{})".format(*js)) for js in triples]
    return {**_reduce(pairs), "median": _median([r for r, _ in pairs])}


def _convolution_ratios(rng):
    """(ratio, label) of the block sequences 1_{[1,K]}, then of 3000 sparse pairs.

    The block family carries the K log K / K growth and dominates the sparse
    families; the calibration constant must cover it.  A sparse pair with an
    all-zero sequence is skipped.
    """
    for k_len in (64, 256, 1024, 4096):
        a = np.ones(k_len)
        lhs, _ = convolution_inequality_check(a, a, eps=0.1, p=2.0, c_eps=1.0, n0_a=1, n0_b=1)
        yield lhs / k_len, f"block [1, {k_len}]"
    for k in range(3000):
        a = np.maximum(rng.standard_normal(64), 0.0)
        b = np.maximum(rng.standard_normal(64), 0.0)
        a[rng.random(64) < 0.6] = 0.0
        b[rng.random(64) < 0.6] = 0.0
        if not a.any() or not b.any():
            continue
        lhs, bound = convolution_inequality_check(a, b, eps=0.1, p=2.0, c_eps=1.0)
        yield lhs / bound, f"sparse pair #{k}"


def _probe_convolution(fields: list[Field]) -> dict:
    # calibrated on the pairing stream after the cube pairs' draws, so replay them
    rng = np.random.default_rng(PAIRING_SEED)
    _cube_layout(len(fields), rng)
    return _reduce(_convolution_ratios(rng))


def _probe_xsb_free_evolution(fields: list[Field]) -> dict:
    def ratio(f: Field) -> float:
        coef = _coefficients(f.values, f.grid)
        sums = _free_tau_sums(coef, f.grid, CORPUS_T_WINDOW, CORPUS_N_TIMES, 0.51)
        xsb = _xi_l2(*sums, f.grid, CORPUS_T_WINDOW, 0.25)
        return xsb / sobolev_norm(f, 0.25)

    step = max(len(fields) // 20, 1)
    return _reduce((ratio(fields[i]), f"field {i}") for i in range(0, len(fields), step))


#: probe families in measurement order; each is a pure function of the corpus
_FAMILIES = {
    "bilinear_cube": _probe_bilinear_cube,
    "bilinear_lp": _probe_bilinear_lp,
    "trilinear": _probe_trilinear,
    "convolution": _probe_convolution,
    "xsb_free_evolution": _probe_xsb_free_evolution,
}


def _min_corpus_size(name: str) -> int:
    """Smallest corpus size that gives family `name` one sample."""
    return next(n for n in itertools.count(1) if len(_layout(n)[name]))


def _measure(fields: list[Field], families=None) -> dict:
    """Raw maxima of the named probe families (default: all, as :func:`calibrate` needs).

    Each named family runs once, in registry order; none depends on the others.
    """
    return {name: family(fields) for name, family in _FAMILIES.items()
            if families is None or name in families}


def calibrate() -> dict:
    """Regenerate the calibration document from the frozen corpus."""
    fields = make_probe_corpus()
    measured = _measure(fields)
    return {
        "corpus": {
            "seed": CORPUS_SEED,
            "size": CORPUS_SIZE,
            "grid_length": CORPUS_GRID.length,
            "grid_points": CORPUS_GRID.points,
            "t_window": CORPUS_T_WINDOW,
            "n_times": CORPUS_N_TIMES,
            "sha256": corpus_hash(fields),
        },
        "constants": {name: CALIBRATION_HEADROOM * info["max"] for name, info in measured.items()},
        "measured": measured,
    }


def run_probe_suite(
    selected: list[str],
    corpus_seed: int | None = None,
    corpus_size: int | None = None,
) -> list[ProbeReport]:
    """Run the selected probes; on the frozen corpus, check the stored calibration.

    Only the selected families are measured, each once: a name given twice
    gives two equal reports.  ``xsb_free_evolution`` cannot be selected; it
    runs only in :func:`calibrate` (and in ``_measure``'s default of every
    family, which criterion 8a checks).

    Overriding corpus_seed/corpus_size runs the same probe families on a
    fresh corpus and reports raw ratios without calibration comparison (the
    stored constants only bind the frozen corpus).  An unknown probe name, a
    corpus_size below 1, or one that gives a selected family no sample, raises
    :class:`ConfigError`.
    """
    cal = load_calibration()
    frozen = (corpus_seed in (None, CORPUS_SEED)) and (corpus_size in (None, CORPUS_SIZE))
    available = ["resonance", *(n for n in _FAMILIES if n != "xsb_free_evolution")]
    unknown = set(selected) - set(available)
    if unknown:
        raise ConfigError(f"unknown probes: {sorted(unknown)}; available: {available}")
    size = CORPUS_SIZE if corpus_size is None else corpus_size
    if size < 1:
        raise ConfigError(f"corpus_size must be >= 1, got {size}")
    needs_corpus = set(selected) - {"resonance"}
    layout = _layout(size)
    for name in sorted(needs_corpus & layout.keys()):
        if not layout[name]:
            raise ConfigError(
                f"corpus_size {size} gives the {name} probe no sample; "
                f"it needs corpus_size >= {_min_corpus_size(name)}"
            )
    if needs_corpus:
        fields = make_probe_corpus(
            seed=CORPUS_SEED if corpus_seed is None else corpus_seed, size=size
        )
        if frozen and corpus_hash(fields) != cal["corpus"]["sha256"]:
            raise RuntimeError(
                "frozen corpus hash mismatch; calibration constants do not apply"
            )
        measured = _measure(fields, needs_corpus)
    if "resonance" in selected:
        dev = resonance_max_deviation()
    reports: list[ProbeReport] = []
    for name in selected:
        if name == "resonance":
            reports.append(
                ProbeReport(
                    estimate="resonance-identity",
                    corpus_size=1_000_000,
                    max_ratio=dev,
                    argmax="random triples",
                    calibration=1e-12,
                    within_calibration=dev <= 1e-12,
                    caveats=(),
                )
            )
            continue
        info = measured[name]
        const = cal["constants"][name] if frozen else None
        reports.append(
            ProbeReport(
                estimate=name,
                corpus_size=info["count"],
                max_ratio=info["max"],
                argmax=info["argmax"],
                calibration=const,
                within_calibration=(info["max"] <= const) if frozen else None,
                extra={k: v for k, v in info.items() if k not in ("max", "argmax", "count")},
            )
        )
    return reports
