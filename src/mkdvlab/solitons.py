"""Exact soliton family of the focusing equation and its semi-analytic oracles.

The family

    u(x, t) = 6^{-1/2} exp(i[(N^3 - 3 N lam^2) t + N x]) lam sech(lam (x + (3 N^2 - lam^2) t))

solves the focusing equation for every carrier N > 0 and scale lam > 0, with
the closed-form spectrum |u_hat(xi, t)| = 6^{-1/2} pi sech(pi (xi - N) / (2 lam)),
whose modulus is time-independent.  These closed forms feed a quadrature
pipeline that is fully independent of the grid pipeline, so every grid norm
has a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectral import (
    TWO_PI,
    Field,
    GridSpec,
    ResolutionError,
    cos2_window,
    unit_cube_project,
)
from .norms import _jap, _lp

__all__ = [
    "SolitonParams",
    "sech",
    "soliton_field",
    "soliton_time_derivative",
    "soliton_spectrum",
    "soliton_spectrum_at_time",
    "soliton_modulation_norm",
    "modulation_norm_of_spectrum",
    "cube_window_quadrature",
    "pair_difference_modsq",
    "pair_overlap",
]

#: sech argument beyond which the value underflows to 0 anyway
_SECH_CLIP = 700.0

#: relative change of every cube at which the quadrature stops doubling
QUAD_REL_TOL = 1e-9
#: highest Gauss-Legendre order the quadrature doubles up to before it gives up
QUAD_MAX_ORDER = 4096


def sech(x):
    """Overflow-safe sech."""
    return 1.0 / np.cosh(np.clip(x, -_SECH_CLIP, _SECH_CLIP))


@dataclass(frozen=True)
class SolitonParams:
    """Carrier frequency and spatial scale of one (focusing) soliton."""

    carrier: float
    scale: float

    def __post_init__(self) -> None:
        if not self.carrier > 0:
            raise ValueError(f"carrier must be positive, got {self.carrier}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def mass(self) -> float:
        """Conserved L^2 mass, lam / 3."""
        return self.scale / 3.0

    @property
    def momentum(self) -> float:
        """Conserved momentum integral Im(conj(u) u_x) = N lam / 3."""
        return self.carrier * self.scale / 3.0


def _check_realizable(params: SolitonParams, grid: GridSpec) -> None:
    if params.scale * grid.length < 40.0:
        raise ResolutionError(
            f"domain too short: lam * L = {params.scale * grid.length:.3g} < 40, "
            "soliton tails would wrap above 1e-14"
        )
    lo, hi = grid.band
    need_lo = params.carrier - 10.0 * params.scale
    need_hi = params.carrier + 10.0 * params.scale
    if need_lo < lo or need_hi > hi:
        raise ResolutionError(
            f"unresolved carrier: need the band [{need_lo:.4g}, {need_hi:.4g}], "
            f"grid resolves [{lo:.4g}, {hi:.4g}]"
        )


def _wrapped_geometry(params: SolitonParams, t: float, grid: GridSpec):
    """Profile argument and heterodyned carrier phase of the periodized soliton.

    The whole-line solution is evaluated on the branch x' = x - jL whose
    profile argument lands in [-L/2, L/2); the carrier phase follows the same
    branch so the periodization is exact up to the sub-1e-14 tails.  On a grid
    centred at xi0 the phase is that of exp(-i xi0 x) u: N x' - xi0 x =
    (N - xi0) x' - xi0 j L, and xi0 j L = 2 pi offset j is dropped exactly.

    The rotation (N^3 - 3 N lam^2) t reaches ~N^3; it is reduced modulo 2 pi
    before the per-point phase is added, else rounding that sum in double
    precision spreads broadband noise over the spectrum.
    """
    n, lam = params.carrier, params.scale
    x = grid.x
    shift = (3.0 * n**2 - lam**2) * t
    raw = x + shift
    j = np.round(raw / grid.length)
    y = raw - j * grid.length
    rotation = math.remainder((n**3 - 3.0 * n * lam**2) * t, TWO_PI)
    phase = rotation + (n - grid.xi0) * (x - j * grid.length)
    return y, phase


def soliton_field(params: SolitonParams, t: float, grid: GridSpec) -> Field:
    """Exact solution sampled on the grid at time t (periodized modulo L).

    On an offset grid the samples are those of exp(-i xi0 x) u.
    """
    _check_realizable(params, grid)
    lam = params.scale
    y, phase = _wrapped_geometry(params, t, grid)
    vals = (lam / math.sqrt(6.0)) * np.exp(1j * phase) * sech(lam * y)
    return Field(grid, vals)


def soliton_time_derivative(params: SolitonParams, t: float, grid: GridSpec) -> Field:
    """Analytic d/dt of :func:`soliton_field` (same periodization branch)."""
    _check_realizable(params, grid)
    n, lam = params.carrier, params.scale
    y, phase = _wrapped_geometry(params, t, grid)
    ph = np.exp(1j * phase)
    s = sech(lam * y)
    core = (lam / math.sqrt(6.0)) * ph
    rotation = 1j * (n**3 - 3.0 * n * lam**2) * core * s
    translation = core * lam * (3.0 * n**2 - lam**2) * (-s * np.tanh(lam * y))
    return Field(grid, rotation + translation)


def soliton_spectrum(params: SolitonParams, xi) -> np.ndarray:
    """Modulus of the spectrum, 6^{-1/2} pi sech(pi (xi - N) / (2 lam))."""
    n, lam = params.carrier, params.scale
    return (np.pi / math.sqrt(6.0)) * sech(np.pi * (np.asarray(xi, float) - n) / (2.0 * lam))


def _soliton_modsq(params: SolitonParams):
    """|u_hat(xi)|^2 of the soliton as a function of xi arrays (t-independent)."""

    def modsq(xi):
        return soliton_spectrum(params, xi) ** 2

    return modsq


def soliton_spectrum_at_time(params: SolitonParams, t: float, xi) -> np.ndarray:
    """Complex spectrum at time t: the modulus times the traveling phases."""
    n, lam = params.carrier, params.scale
    xi = np.asarray(xi, dtype=float)
    center = -(3.0 * n**2 - lam**2) * t
    phase = (n**3 - 3.0 * n * lam**2) * t - (xi - n) * center
    return soliton_spectrum(params, xi) * np.exp(1j * phase)


# ---------------------------------------------------------------------------
# Quadrature oracle
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _leggauss(order: int):
    """Gauss-Legendre nodes (ascending) and weights of the given order on [-1, 1].

    Newton's method on P_n over the nonnegative half of the nodes, started
    from Tricomi's asymptotic guesses (cf. Hale & Townsend, SIAM J. Sci.
    Comput. 35, 2013).  Each pass evaluates P_n and P_{n-1} at every node
    at once through the recurrence j P_j = (2j - 1) x P_{j-1} - (j - 1) P_{j-2}:
    n - 1 vector steps and no n x n matrix.  The weights 2 / ((1 - x^2) P_n'(x)^2) are those of
    the pass whose step was at roundoff; a derivative taken one pass earlier,
    before the last quadratic step, is off at about 1e-6.
    """
    n = order
    theta = np.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4.0 * n + 2.0)
    x = (
        1.0 - 1.0 / (8.0 * n**2) + 1.0 / (8.0 * n**3)
        - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)
    ) * np.cos(theta)
    if n % 2:
        x[-1] = 0.0  # the middle node; P_n(0) is exactly 0, so Newton keeps it
    p0, p1, p2 = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    for _ in range(8):  # 3 passes from n = 128 on, at most 4 below
        p0.fill(1.0)
        p1[:] = x
        for j in range(2, n + 1):
            # integer coefficients: no rounded (2j - 1)/j shared by every node
            np.multiply(x, p1, out=p2)
            p2 *= 2 * j - 1
            p0 *= j - 1
            p2 -= p0
            p2 /= j
            p0, p1, p2 = p1, p2, p0
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        dp = n * (p0 - x * p1) / one_minus_x2  # P_n' from P_n = p1 and P_{n-1} = p0
        step = p1 / dp
        x -= step
        if np.max(np.abs(step)) <= np.finfo(float).eps:
            break
    w = 2.0 / (one_minus_x2 * dp**2)
    half = n // 2
    return np.concatenate((-x[:half], x[::-1])), np.concatenate((w[:half], w[::-1]))


def cube_window_quadrature(modsq_fn, n_values: np.ndarray) -> np.ndarray:
    """Per-cube integrals int psi(xi - n)^2 modsq_fn(xi) dxi over [n-1, n+1].

    psi is the cos^2 window.  Gauss-Legendre with order doubling until every
    cube changed by less than QUAD_REL_TOL (relative to itself or to the
    largest cube, whichever is larger), vectorized across cubes.  High orders
    handle the oscillatory difference spectra produced by traveling solitons.
    An empty cube list gives an empty array; cubes still changing at order
    QUAD_MAX_ORDER raise RuntimeError.
    """
    order = 64
    n_values = np.asarray(n_values)
    vals = np.full(n_values.size, np.nan)
    pending = np.ones(n_values.size, dtype=bool)
    prev = None
    while order <= QUAD_MAX_ORDER:
        u, w = _leggauss(order)
        pts = n_values[pending, None] + u[None, :]
        integrand = modsq_fn(pts) * cos2_window(pts - n_values[pending, None]) ** 2
        cur = integrand @ w
        if prev is not None:
            scale = max(
                np.max(np.abs(vals[~pending]), initial=0.0),
                np.max(np.abs(cur), initial=0.0),
            )
            done = np.abs(cur - prev) <= QUAD_REL_TOL * np.maximum(np.abs(cur), 1e-20 * scale)
            idx = np.nonzero(pending)[0]
            vals[idx[done]] = cur[done]
            pending[idx[done]] = False
            if not pending.any():
                return vals
            prev = cur[~done]
        else:
            prev = cur
        order *= 2
    raise RuntimeError(
        f"cube quadrature failed to converge for cubes {n_values[pending][:5]}..."
    )


def modulation_norm_of_spectrum(
    modsq_fn, s: float, p: float, n_lo: int, n_hi: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Grid-free modulation norm of a closed-form spectrum.

    modsq_fn maps xi arrays to |u_hat(xi)|^2.  Returns (norm, n_values, masses)
    so callers can reuse the per-cube profile (tail restrictions, diagnostics).
    """
    if n_hi < n_lo:
        raise ValueError(f"empty cube range: n_hi = {n_hi} < n_lo = {n_lo}")
    n_values = np.arange(n_lo, n_hi + 1)
    integrals = cube_window_quadrature(modsq_fn, n_values)
    masses = np.sqrt(np.maximum(integrals, 0.0) / (2.0 * np.pi))
    return _lp(_jap(n_values) ** s * masses, p), n_values, masses


def spectral_support_halfwidth(scale: float) -> float:
    """Cube offset beyond which the soliton spectrum is below ~1e-18."""
    return 2.0 * scale / np.pi * 42.0 + 2.0


def soliton_modulation_norm(params: SolitonParams, s: float, p: float) -> float:
    """Quadrature M^{2,p}_s norm of the soliton (t-independent by modulus invariance)."""
    hw = spectral_support_halfwidth(params.scale)
    n_lo = int(np.floor(params.carrier - hw))
    n_hi = int(np.ceil(params.carrier + hw))
    norm, _, _ = modulation_norm_of_spectrum(_soliton_modsq(params), s, p, n_lo, n_hi)
    return norm


def pair_difference_modsq(pa: SolitonParams, pb: SolitonParams, t: float):
    """|u_hat_a(xi, t) - u_hat_b(xi, t)|^2 for a shared-scale pair, stably.

    Two pitfalls are avoided analytically.  First, each spectrum carries a
    phase ~ 3 N^2 t xi (astronomical at large N) but only the relative phase

        dphi(xi) = t [3 (Nb^2 - Na^2) xi - 2 (Nb^3 - Na^3) - 2 lam^2 (Nb - Na)]

    survives in the modulus, so the integrand oscillates only at the physical
    separation rate.  Second, for |Na - Nb| << lam the amplitude difference
    cancels catastrophically if evaluated as sech - sech; the product form

        sech(a) - sech(b) = 2 sinh((a+b)/2) sinh((b-a)/2) sech(a) sech(b)

    is exact and cancellation-free.  Together:

        |du_hat|^2 = (A_a - A_b)^2 + 4 A_a A_b sin^2(dphi / 2).
    """
    if pa.scale != pb.scale:
        raise ValueError("pair difference requires a shared scale")
    na, nb, lam = pa.carrier, pb.carrier, pa.scale
    amp = np.pi / math.sqrt(6.0)
    half_gap = np.pi * (nb - na) / (4.0 * lam)

    def modsq(xi):
        xi = np.asarray(xi, dtype=float)
        a = np.pi * (xi - na) / (2.0 * lam)
        b = np.pi * (xi - nb) / (2.0 * lam)
        sech_a, sech_b = sech(a), sech(b)
        mid = np.clip(0.5 * (a + b), -350.0, 350.0)
        amp_diff = amp * 2.0 * np.sinh(mid) * np.sinh(-half_gap) * sech_a * sech_b
        dphi = t * (
            3.0 * (nb**2 - na**2) * xi
            - 2.0 * (nb**3 - na**3)
            - 2.0 * lam**2 * (nb - na)
        )
        cross = 4.0 * amp**2 * sech_a * sech_b * np.sin(0.5 * dphi) ** 2
        return amp_diff**2 + cross

    return modsq


def pair_overlap(
    n: int, a: SolitonParams, b: SolitonParams, t: float, grid: GridSpec
) -> float:
    """|<Pi_n u_a(t), Pi_n u_b(t)>_{L^2}| by direct inner product on the grid."""
    if a.scale != b.scale:
        raise ValueError(
            f"overlap is defined for a shared scale, got {a.scale} and {b.scale}"
        )
    fa = unit_cube_project(soliton_field(a, t, grid), n)
    fb = unit_cube_project(soliton_field(b, t, grid), n)
    return abs(fa.inner(fb))
