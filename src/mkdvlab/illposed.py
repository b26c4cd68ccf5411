"""Two-soliton sweeps probing failure of local uniform continuity below s = 1/4.

For each carrier N the harness builds a pair of soliton solutions by one
construction law, lam = N^{-a} and |N1 - N2| = N^{a - 1 + c theta} / T, so
that diff0 ~ N^s lam^{-1/2} |N1 - N2| = N^{s + a/2} |N1 - N2|.  The regime
sets only (a, c): (2s, 2) for nonneg-s (0 <= s < 1/4) and (p s, 3/2) for
neg-s (-1/p < s < 0).  It measures, in M^{2,p}_s: the solution norms
(time-independent), the initial difference, the difference at time T, and
the spectral remainder outside |xi - N| < N^theta.  Evolution is analytic
(the solitons are exact solutions); the PDE solver is an optional
cross-check on the smallest carrier.  All norms are produced by the
grid-free quadrature oracle and, at every sweep point, re-produced by the
grid pipeline and required to agree; a pair whose grid would exceed
2^MAX_POINTS_LOG2 points is refused with a ResolutionError naming the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import modulation_norm, _jap, _lp, _median
from .solitons import (
    SolitonParams,
    modulation_norm_of_spectrum,
    pair_difference_modsq,
    soliton_field,
    spectral_support_halfwidth,
    _soliton_modsq,
)
from .solver import NONLINEAR_COEFFICIENT, SolverConfig, evolve
from .spectral import Field, GridSpec, ResolutionError

__all__ = [
    "ExperimentPlan",
    "ExperimentRecord",
    "ParameterChoice",
    "FitResult",
    "LemmaVerdict",
    "choose_parameters",
    "plan_grid",
    "run_point",
    "run_sweep",
    "fit_exponent",
    "verify_lemma",
]

REGIME_NONNEG = "nonneg-s"
REGIME_NEG = "neg-s"

#: largest admitted max/min ratio of the pooled solution norms
NORM_BAND = 3.0
#: diffT on the top half of the sweep must stay above this fraction of the median norm
DIFF_FLOOR = 0.3
#: relative grid/quadrature disagreement that aborts a sweep point
AGREEMENT_TOL = 1e-4
#: fewest sweep points (carriers) the exponent fit accepts
MIN_FIT_RECORDS = 4
#: plan_grid refuses a grid of more than 2^MAX_POINTS_LOG2 points
MAX_POINTS_LOG2 = 23


def _default_theta(s: float, p: float) -> float:
    if s >= 0:
        return (1.0 - 4.0 * s) / 4.0
    # "sufficiently close to -ps from above"
    return -p * s + 0.05


def _schedule(s: float, p: float) -> tuple[float, float]:
    """(a, c) of the construction law: lam = N^{-a}, |N1 - N2| = N^{a - 1 + c theta} / T."""
    return (2.0 * s, 2.0) if s >= 0 else (p * s, 1.5)


def _diff0_exponent(s: float, p: float, theta: float) -> float:
    """The law's predicted log-log slope of the initial difference, s + a/2 + (a - 1 + c theta)."""
    a, c = _schedule(s, p)
    return s + a / 2.0 + (a - 1.0 + c * theta)


def _validate_regime(s: float, p: float, theta: float) -> None:
    if p < 2:
        raise ValueError(f"the construction needs p >= 2, got p = {p}")
    if s >= 0:
        if s >= 0.25:
            raise ValueError(f"s = {s} is outside the instability range 0 <= s < 1/4")
        if not theta > 0:
            raise ValueError(f"theta = {theta} violates 0 < theta")
    else:
        if math.isinf(p):
            raise ValueError("the negative-regularity regime needs p < inf")
        if s <= -1.0 / p:
            raise ValueError(f"s = {s} is outside the range -1/p < s < 0 for p = {p}")
        if not (-p * s < theta < 1.0):
            raise ValueError(f"theta = {theta} violates -ps < theta < 1 (ps = {p * s})")
    # a sweep shows the initial difference vanish only where the law predicts it
    exponent = _diff0_exponent(s, p, theta)
    if not exponent < 0:
        raise ValueError(f"theta = {theta} gives diff0 the exponent {exponent} >= 0, not < 0")


@dataclass(frozen=True)
class ParameterChoice:
    lam: float
    theta: float
    n1: float
    n2: float

    @property
    def separation(self) -> float:
        return abs(self.n2 - self.n1)


def choose_parameters(
    s: float, p: float, t_final: float, n: float, theta: float | None = None
) -> ParameterChoice:
    """Scale, frequency-separation angle, and the two carriers for one sweep point."""
    if not 0 < t_final < math.inf:
        raise ValueError(f"T must be positive and finite, got {t_final}")
    if not n > 1:
        raise ValueError(f"carrier must exceed 1, got {n}")
    th = _default_theta(s, p) if theta is None else theta
    _validate_regime(s, p, th)
    a, c = _schedule(s, p)
    delta = n ** (a - 1.0 + c * th) / t_final
    return ParameterChoice(lam=n ** (-a), theta=th, n1=n, n2=n + delta)


@dataclass(frozen=True)
class ExperimentPlan:
    """One ill-posedness sweep: regularity, integrability, horizon, carriers."""

    s: float
    p: float
    t_final: float
    carriers: tuple[float, ...]
    theta: float | None = None
    use_solver: bool = False

    def __post_init__(self) -> None:
        if not self.carriers:
            raise ValueError("carrier list must not be empty")
        if list(self.carriers) != sorted(self.carriers):
            raise ValueError("carriers must be ascending")
        _validate_regime(self.s, self.p, self.resolved_theta)

    @property
    def resolved_theta(self) -> float:
        return _default_theta(self.s, self.p) if self.theta is None else self.theta

    @property
    def regime(self) -> str:
        return REGIME_NONNEG if self.s >= 0 else REGIME_NEG

    @property
    def diff0_exponent(self) -> float:
        """Predicted log-log slope of the initial difference, s + a/2 + (a - 1 + c theta)."""
        return _diff0_exponent(self.s, self.p, self.resolved_theta)

    @property
    def tail_exponent(self) -> float:
        """The remainder decays like exp(-rate N^{this exponent}), theta + a."""
        return self.resolved_theta + _schedule(self.s, self.p)[0]


@dataclass(frozen=True)
class ExperimentRecord:
    """Measured norms for one sweep point (quadrature values, grid cross-checks)."""

    carrier: float
    n1: float
    n2: float
    lam: float
    theta: float
    norm_u: float
    norm_v: float
    diff0: float
    difft: float
    tail: float
    grid_norm_u: float | None = None
    grid_diff0: float | None = None
    grid_difft: float | None = None
    solver_error: float | None = None


def plan_grid(
    lam: float,
    xi_top: float,
    separation_x: float,
    cube_margin: float,
    for_solver: bool = False,
    xi_bottom: float | None = None,
) -> GridSpec:
    """Auto-size a grid that resolves the pair: tails, separation, and spectra.

    xi_top: largest carrier (plus frequency offset) to resolve;
    separation_x: physical distance between the two soliton centers at time T
    (the spectral cross term oscillates at this rate, so dxi must undercut it);
    cube_margin: how many cubes beyond the carrier the norms need;
    xi_bottom: lowest carrier to resolve; the grid covers [xi_bottom, xi_top]
    (plus margins) centred at the even lattice point nearest the middle, so
    the point count follows the width of the pair's spectra, not the carrier.
    None means -xi_top, the symmetric band |xi| <= xi_top on an offset-0 grid.
    """
    if xi_bottom is None:
        xi_bottom = -xi_top
    tail_len = 45.0 / lam
    length0 = max(
        16.0 * np.pi + 0.5,      # dxi <= 1/8
        16.0 * np.pi / lam,      # dxi <= lam / 8 resolves the spectrum shape
        4.0 * separation_x,      # dxi resolves the difference oscillation
        2.0 * separation_x + 2.0 * tail_len + 16.0,
    )
    length = 2.0 ** math.ceil(math.log2(length0))
    dxi = 2.0 * np.pi / length
    offset = 2 * round((xi_bottom + xi_top) / (4.0 * dxi))
    xi0 = offset * dxi
    xi_need = max(xi_top - xi0, xi0 - xi_bottom) + cube_margin + 24.0 * lam + 2.0
    factor = 2.0 if for_solver else 1.3  # solver needs dealias-band headroom
    points = 2 ** math.ceil(math.log2(length * factor * xi_need / np.pi))
    if points > 2**MAX_POINTS_LOG2:
        cap = np.pi * 2.0**MAX_POINTS_LOG2 / (factor * length)
        raise ResolutionError(
            f"grid sizing infeasible: {points} points needed "
            f"(cap 2^{MAX_POINTS_LOG2}); with this box the feasible carrier "
            f"cap, as a distance from the band centre {xi0:.6g}, is about {cap:.3g}"
        )
    return GridSpec(length=length, points=points, offset=offset)


def _solver_cross_check(params: SolitonParams, t_final: float, grid: GridSpec) -> float:
    u0 = soliton_field(params, 0.0, grid)
    peak2 = params.scale**2 / 6.0
    band = (2.0 / 3.0) * grid.xi_nyquist
    dt_cfl = 0.4 / (NONLINEAR_COEFFICIENT * peak2 * band)
    # dominant interaction-picture rates: nonlinear rotation 6 lam^2 N,
    # phase detuning 3 N lam^2, profile drift lam^3
    slow_rate = 9.0 * params.carrier * params.scale**2 + 6.0 * params.scale**3
    dt_acc = 0.04 / slow_rate
    n_steps = max(64, math.ceil(t_final / min(dt_cfl, dt_acc)))
    got = evolve(u0, t_final, SolverConfig(dt=t_final / n_steps, mass_tol=1e-7)).final
    exact = soliton_field(params, t_final, grid)
    return Field(grid, got.values - exact.values).l2_norm() / exact.l2_norm()


def run_point(plan: ExperimentPlan, n: float) -> ExperimentRecord:
    """Measure one sweep point: norms, differences, tail, optional cross-checks."""
    choice = choose_parameters(plan.s, plan.p, plan.t_final, n, plan.theta)
    lam, th = choice.lam, choice.theta
    pa = SolitonParams(carrier=choice.n1, scale=lam)
    pb = SolitonParams(carrier=choice.n2, scale=lam)
    hw = spectral_support_halfwidth(lam)
    n_lo = int(np.floor(choice.n1 - hw))
    n_hi = int(np.ceil(choice.n2 + hw))
    s, p = plan.s, plan.p
    norm_u, n_values, masses_u = modulation_norm_of_spectrum(
        _soliton_modsq(pa), s, p, n_lo, n_hi
    )
    norm_v, _, _ = modulation_norm_of_spectrum(_soliton_modsq(pb), s, p, n_lo, n_hi)
    diff0, _, _ = modulation_norm_of_spectrum(
        pair_difference_modsq(pa, pb, 0.0), s, p, n_lo, n_hi
    )
    difft, _, _ = modulation_norm_of_spectrum(
        pair_difference_modsq(pa, pb, plan.t_final), s, p, n_lo, n_hi
    )
    # spectral remainder outside the core |n - N| < N^theta
    outside = np.abs(n_values - n) >= n**th
    tail = _lp(_jap(n_values[outside]) ** s * masses_u[outside], p)

    separation = 3.0 * abs(pb.carrier**2 - pa.carrier**2) * plan.t_final
    cube_margin = max(n**th, 4.0)
    xi_top = max(pa.carrier, pb.carrier)
    # the pair's spectra only: a grid centred between the carriers
    grid = plan_grid(
        lam, xi_top, separation, cube_margin, xi_bottom=min(pa.carrier, pb.carrier)
    )
    ua0 = soliton_field(pa, 0.0, grid)
    ub0 = soliton_field(pb, 0.0, grid)
    uat = soliton_field(pa, plan.t_final, grid)
    ubt = soliton_field(pb, plan.t_final, grid)
    grid_norm_u = modulation_norm(ua0, s, p)
    grid_diff0 = modulation_norm(Field(grid, ua0.values - ub0.values), s, p)
    grid_difft = modulation_norm(Field(grid, uat.values - ubt.values), s, p)
    for got, want, label in (
        (grid_norm_u, norm_u, "norm_u"),
        (grid_diff0, diff0, "diff0"),
        (grid_difft, difft, "diffT"),
    ):
        if abs(got - want) > AGREEMENT_TOL * want:
            raise RuntimeError(
                f"grid/quadrature disagreement on {label} at N = {n}: "
                f"{got!r} vs {want!r}"
            )
    solver_error = None
    if plan.use_solver and n == min(plan.carriers):
        # the solver runs on offset-0 grids only, so it gets |xi| <= xi_top
        grid = plan_grid(lam, xi_top, separation, cube_margin, for_solver=True)
        solver_error = _solver_cross_check(pa, plan.t_final, grid)
        if solver_error > 1e-4:
            raise RuntimeError(
                f"solver cross-check failed at N = {n}: relative error "
                f"{solver_error:.3e} > 1e-4"
            )

    return ExperimentRecord(
        carrier=n,
        n1=choice.n1,
        n2=choice.n2,
        lam=lam,
        theta=th,
        norm_u=norm_u,
        norm_v=norm_v,
        diff0=diff0,
        difft=difft,
        tail=tail,
        grid_norm_u=grid_norm_u,
        grid_diff0=grid_diff0,
        grid_difft=grid_difft,
        solver_error=solver_error,
    )


def run_sweep(plan: ExperimentPlan, jobs: int = 1) -> list[ExperimentRecord]:
    """All sweep points on min(jobs, carriers) processes (1: serially), in carrier order.

    The process pool is imported only for a parallel sweep: its import pulls
    in ``multiprocessing`` and ``socket``, about 2 MiB and 15 ms per process.
    """
    workers = min(jobs, len(plan.carriers))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_point, [plan] * len(plan.carriers), plan.carriers))
    return [run_point(plan, n) for n in plan.carriers]


@dataclass(frozen=True)
class FitResult:
    slope: float
    r_squared: float


def fit_exponent(records: list[ExperimentRecord], field_name: str) -> FitResult:
    """Least-squares slope of log(field) against log(carrier)."""
    if len(records) < MIN_FIT_RECORDS:
        raise ValueError(f"need at least {MIN_FIT_RECORDS} records to fit, got {len(records)}")
    n = np.array([r.carrier for r in records], dtype=float)
    if np.max(n) / np.min(n) < 8.0:
        raise ValueError("carriers must span at least 3 octaves")
    y = np.array([getattr(r, field_name) for r in records], dtype=float)
    if np.any(y <= 0):
        raise ValueError(f"cannot fit a power law: {field_name} has nonpositive values")
    logn, logy = np.log(n), np.log(y)
    slope, intercept = np.polyfit(logn, logy, 1)
    fitted = slope * logn + intercept
    ss_res = float(np.sum((logy - fitted) ** 2))
    ss_tot = float(np.sum((logy - np.mean(logy)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return FitResult(slope=float(slope), r_squared=r2)


@dataclass(frozen=True)
class LemmaVerdict:
    """Structured pass/fail against the three instability statements."""

    passed: bool
    regime: str
    bounded_norms: bool
    norm_ratio: float
    diff0_decreasing: bool
    diff0_slope: float
    diff0_r_squared: float
    expected_exponent: float
    slope_matches_norm: bool
    slope_matches_square: bool
    squared_convention: str
    difft_floor_ok: bool
    difft_min_top_half: float
    norm_median: float
    tail_decay_rate: float
    tail_decay_ok: bool
    initial_bound_constant: float
    thresholds: dict


def verify_lemma(records: list[ExperimentRecord], plan: ExperimentPlan) -> LemmaVerdict:
    """PASS iff norms sit in a band, diff0 vanishes with the predicted rate,
    and diffT stays bounded below on the top half of the sweep."""
    records = sorted(records, key=lambda r: r.carrier)
    pooled = np.array([r.norm_u for r in records] + [r.norm_v for r in records])
    norm_ratio = float(np.max(pooled) / np.min(pooled))
    bounded = norm_ratio <= NORM_BAND

    diff0 = np.array([r.diff0 for r in records])
    decreasing = bool(np.all(np.diff(diff0) < 0))
    fit = fit_exponent(records, "diff0")
    slope_ok = fit.slope < 0

    expected = plan.diff0_exponent
    tol = 0.15 * abs(expected)
    matches_norm = abs(fit.slope - expected) <= tol
    matches_square = abs(2.0 * fit.slope - expected) <= tol
    convention = {
        (True, True): "both",
        (True, False): "norm",
        (False, True): "square",
        (False, False): "neither",
    }[(matches_norm, matches_square)]

    half = len(records) // 2
    top = records[half:]
    difft_min = float(min(r.difft for r in top))
    median = _median([r.norm_u for r in records])
    floor_ok = difft_min >= DIFF_FLOOR * median

    # remainder decay: ln(tail) against N^{tail_exponent}, fitted rate c > 0
    n = np.array([r.carrier for r in records])
    tails = np.array([max(r.tail, 1e-300) for r in records])
    rate, _ = np.polyfit(n**plan.tail_exponent, np.log(tails), 1)
    tail_rate = float(-rate)

    # one fitted constant for the initial-difference upper bound N^{s + a/2} |N1 - N2|
    a = _schedule(plan.s, plan.p)[0]
    bound = np.array([r.carrier ** (plan.s + a / 2.0) * (r.n2 - r.n1) for r in records])
    c_init = float(np.max(diff0 / bound))

    return LemmaVerdict(
        passed=bool(bounded and decreasing and slope_ok and floor_ok),
        regime=plan.regime,
        bounded_norms=bounded,
        norm_ratio=norm_ratio,
        diff0_decreasing=decreasing,
        diff0_slope=fit.slope,
        diff0_r_squared=fit.r_squared,
        expected_exponent=expected,
        slope_matches_norm=matches_norm,
        slope_matches_square=matches_square,
        squared_convention=convention,
        difft_floor_ok=floor_ok,
        difft_min_top_half=difft_min,
        norm_median=median,
        tail_decay_rate=tail_rate,
        tail_decay_ok=tail_rate > 0,
        initial_bound_constant=c_init,
        thresholds={
            "norm_band": NORM_BAND,
            "diff_floor": DIFF_FLOOR,
            "slope_tolerance": 0.15,
        },
    )
