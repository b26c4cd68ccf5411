"""Time integration: integrating-factor RK4 pseudospectral scheme with dealiasing.

The evolution solved is

    d_t u = -d_x^3 u - sign * 36 |u|^2 d_x u,

whose focusing (+) branch is solved exactly by the soliton family in
:mod:`mkdvlab.solitons`.  The cubic coefficient 36 pairs with that family's
1/sqrt(6) amplitude convention; substituting u -> sqrt(6) u recovers the
textbook 6 |u|^2 u_x normalization, so the two descriptions are the same
dynamics under a fixed rescale.

The linear part is integrated exactly through the multiplier exp(i xi^3 t)
(no stiffness constraint from dispersion); the cubic term is evaluated
pseudospectrally on a 3/2 zero-padded grid and the product is restricted to
the 2/3-Nyquist band, which is the exact Galerkin truncation: for inputs in
that band every aliased image of the cubic product lands outside it.

Conserved along the flow (and monitored): mass int |u|^2 dx and momentum
int Im(conj(u) d_x u) dx; both conservation laws hold for any cubic
coefficient (integration by parts), so momentum serves as a second drift
monitor rather than a mere diagnostic.

:func:`evolve` is the one entry point: it returns an :class:`EvolveResult`
with the terminal state and, when snapshots are requested, the trajectory.
One evolution owns one ``_Workspace``, which takes the grid and the
:class:`SolverConfig` (the one check of dt and sign) and allocates its padded
and physical buffers, RK4 stage buffers and step constants once; the time loop
then writes into them through ``out=`` arguments, and each ``nonlin`` call
returns a fresh array because the four stage derivatives are alive together.
The RK4 combination is the plain expression evaluated in its original
order.  The twelve transforms of a step call numpy's pocketfft kernels (the
gufuncs behind ``np.fft``, bound in :mod:`mkdvlab.spectral`) directly, which skips
``np.fft``'s per-call argument handling.  The kernels' factors carry the
scalings of the padded cubic term: ``1 / M`` on both inverse transforms and
``-sign * 36 / (P/M)`` on the forward one, for a padded length P = 3M/2.
The loop works on unnormalised ``np.fft`` coefficients; the dx-weighted
convention of :mod:`mkdvlab.spectral` is not used inside it.
scipy.fft is not used: the package does not import it at load time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .norms import SpaceTimeField, _check_window
from .spectral import (
    Field,
    GridSpec,
    _fft_kernel,
    _ifft_kernel,
    _scaled_squares,
    derivative,
    require_zero_offset,
)

__all__ = [
    "NONLINEAR_COEFFICIENT",
    "SolverConfig",
    "SolverError",
    "MassDriftError",
    "nonlinearity",
    "step",
    "EvolveResult",
    "evolve",
    "invariants",
]

NONLINEAR_COEFFICIENT = 36.0


class SolverError(RuntimeError):
    """Time stepping could not proceed (stability or configuration)."""


class MassDriftError(SolverError):
    """Mass drifted beyond tolerance: the run is under-resolved."""


@dataclass(frozen=True)
class SolverConfig:
    """Step size, focusing sign, and drift guard for one evolution."""

    dt: float
    sign: int = 1
    mass_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.dt == 0.0 or not np.isfinite(self.dt):
            raise ValueError(f"dt must be a nonzero finite number, got {self.dt}")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +1 (focusing) or -1, got {self.sign}")
        if not self.mass_tol > 0:
            raise ValueError("mass_tol must be positive")


class _Workspace:
    """Multipliers, constants and scratch buffers for one grid and one :class:`SolverConfig`.

    Everything is allocated once here, so a steady-state RK4 step allocates
    only the four M-length stage derivatives (k1..k4 are alive together):

    * ``_pad``: (2, P) zero-padded coefficients, row 0 = a, row 1 = i xi a.
      Only the two outer halves of row 0 are ever written; its middle keeps
      the zeros set here, so row 1 is one full-width product.
    * ``_u``, ``_ux``: P-length physical u and u_x; ``_ux`` then holds the
      product |u|^2 u_x and its transform.
    * ``_abs2``: real P-length |u|^2.
    * ``_s1``, ``_s2``, ``_e2a``: M-length RK4 stage inputs and e^2 a.

    The scalings of the padded scheme ride on pocketfft's kernel factors, so
    no pass over the data applies them: both inverse transforms get ``1 / M``
    (the 1/P of ``np.fft.ifft`` times the padding gain P/M; exact for
    power-of-two M), and the forward transform gets ``-sign * 36 / (P/M)``
    (exactly -24 at sign +1), which also carries the cubic coefficient.
    Calling the kernels directly skips ``np.fft``'s per-call argument
    handling: on the 768 padded points of M = 512 the wrapper takes about
    1.6 of the 6 us of an inverse call (AMD EPYC, numpy 2.4.6).  Importing
    scipy.fft would add set-up time and resident memory to every run of the
    package.
    """

    def __init__(self, grid: GridSpec, cfg: SolverConfig):
        require_zero_offset(grid, "the solver (its padded derivative and dealias band assume xi0 = 0)")
        self.grid = grid
        self.dt = dt = cfg.dt
        m = grid.points
        self.m = m
        self.pad = 3 * m // 2
        self.inv_m = 1.0 / m
        self.fwd_factor = -cfg.sign * NONLINEAR_COEFFICIENT / (self.pad / m)
        xi = grid.xi
        self.exp_half = np.exp(1j * xi**3 * (dt / 2.0))
        self.exp_full = self.exp_half**2
        # retained band: |k| <= M/3, i.e. |xi| <= (2/3) Nyquist
        self.k_keep = m // 3
        signed_k = np.fft.fftfreq(m, d=1.0 / m)
        self.band_mask = np.abs(signed_k) <= self.k_keep
        self.xi_band_max = grid.dxi * self.k_keep
        xi_pad = 2.0 * np.pi * np.fft.fftfreq(self.pad, d=grid.length / self.pad)
        self.ixi_pad = 1j * xi_pad
        self.last_max_abs2 = 0.0

        self._pad = np.zeros((2, self.pad), dtype=np.complex128)
        self._u = np.empty(self.pad, dtype=np.complex128)
        self._ux = np.empty(self.pad, dtype=np.complex128)
        self._abs2 = np.empty(self.pad, dtype=np.float64)
        self._s1 = np.empty(m, dtype=np.complex128)
        self._s2 = np.empty(m, dtype=np.complex128)
        self._e2a = np.empty(m, dtype=np.complex128)

        self.half_dt = 0.5 * dt
        self.dt_exp_half = dt * self.exp_half
        self.two_exp_half = 2.0 * self.exp_half
        self.dt_sixth = dt / 6.0

    def nonlin(self, a: np.ndarray, track_max: bool = False) -> np.ndarray:
        """Spectral-in, spectral-out cubic term -sign * C * |u|^2 u_x, dealiased.

        Returns a fresh M-length array; ``a`` is only read.  With
        ``track_max`` it also stores max |u|^2 in ``last_max_abs2`` for
        :meth:`cfl_check`.
        """
        m, half, keep = self.m, self.m // 2, self.k_keep
        ap, iap = self._pad
        u, ux, abs2 = self._u, self._ux, self._abs2
        ap[:half] = a[:half]
        ap[-half:] = a[half:]
        np.multiply(self.ixi_pad, ap, out=iap)
        _ifft_kernel(ap, self.inv_m, out=u)
        _ifft_kernel(iap, self.inv_m, out=ux)
        np.abs(u, out=abs2)
        np.square(abs2, out=abs2)
        if track_max:
            self.last_max_abs2 = float(abs2.max())
        np.multiply(abs2, ux, out=ux)
        _fft_kernel(ux, self.fwd_factor, out=ux)
        out = np.zeros(m, dtype=np.complex128)
        out[: keep + 1] = ux[: keep + 1]
        out[m - keep :] = ux[self.pad - keep :]
        return out

    def cfl_check(self) -> None:
        proxy = abs(self.dt) * NONLINEAR_COEFFICIENT * self.last_max_abs2 * self.xi_band_max
        if proxy > 0.5:
            raise SolverError(
                f"advective CFL proxy {proxy:.3g} > 0.5 "
                f"(dt = {self.dt:.3g}, max|u|^2 = {self.last_max_abs2:.3g}, "
                f"band edge = {self.xi_band_max:.4g}); reduce dt"
            )

    def rk4(self, a: np.ndarray) -> np.ndarray:
        """One step; returns a fresh array, ``a`` is only read.

        Stage 1 is CFL-checked (:meth:`cfl_check`).  Stage inputs, in the
        order of the plain scheme:
        k2 <- e (a + h/2 k1),  k3 <- e a + h/2 k2,  k4 <- e^2 a + h e k3,
        a' = e^2 a + h/6 (e^2 k1 + 2 e (k2 + k3) + k4).
        """
        e, e2 = self.exp_half, self.exp_full
        s1, s2, e2a = self._s1, self._s2, self._e2a
        k1 = self.nonlin(a, True)
        self.cfl_check()
        np.multiply(self.half_dt, k1, out=s1)
        np.add(a, s1, out=s1)
        np.multiply(e, s1, out=s2)
        k2 = self.nonlin(s2)
        np.multiply(e, a, out=s1)
        np.multiply(self.half_dt, k2, out=s2)
        np.add(s1, s2, out=s1)
        k3 = self.nonlin(s1)
        np.multiply(e2, a, out=e2a)
        np.multiply(self.dt_exp_half, k3, out=s2)
        np.add(e2a, s2, out=s1)
        k4 = self.nonlin(s1)
        np.multiply(e2, k1, out=s1)
        np.add(k2, k3, out=k2)
        np.multiply(self.two_exp_half, k2, out=s2)
        np.add(s1, s2, out=s1)
        np.add(s1, k4, out=s1)
        np.multiply(self.dt_sixth, s1, out=k1)
        np.add(e2a, k1, out=k4)
        return k4


def nonlinearity(f: Field, sign: int = 1) -> Field:
    """Cubic right-hand-side term -sign * 36 |u|^2 d_x u, alias-free.

    Computed with 3/2 zero-padding and restricted to the 2/3-Nyquist band, so
    for band-limited input this is the exact Galerkin projection of the
    product.
    """
    ws = _Workspace(f.grid, SolverConfig(1.0, sign))
    out = ws.nonlin(np.fft.fft(f.values))
    return Field(f.grid, np.fft.ifft(out))


def _scaled_mass(a: np.ndarray, grid: GridSpec, e: int | None = None) -> tuple[float, int]:
    """Mass of the coefficients a, times 4^-e, and e (see ``_scaled_squares``)."""
    a2, e = _scaled_squares(a, e)
    return float(np.sum(a2) * grid.dx / grid.points), e


def step(f: Field, dt: float, cfg: SolverConfig) -> Field:
    """One integrating-factor RK4 step of size dt (cfg.dt is ignored here)."""
    if dt == 0.0:
        return f
    ws = _Workspace(f.grid, replace(cfg, dt=dt))
    a = ws.rk4(np.fft.fft(f.values))
    return Field(f.grid, np.fft.ifft(a))


@dataclass(frozen=True, eq=False)
class EvolveResult:
    """Terminal state u(T) and, when recorded, the trajectory of snapshots."""

    final: Field
    trajectory: SpaceTimeField | None = None


def _step_count(t_final: float, dt: float) -> int:
    """The whole number of steps of ``dt`` that make up the horizon ``t_final``."""
    if not np.isfinite(t_final):
        raise ValueError(f"the horizon T = {t_final} must be finite")
    if t_final != 0.0 and (t_final < 0.0) != (dt < 0.0):
        raise ValueError(f"dt = {dt} and the horizon T = {t_final} have opposite signs")
    ratio = t_final / dt
    n_steps = round(ratio) if np.isfinite(ratio) else 0
    if n_steps < 1 or abs(n_steps * dt - t_final) > 1e-8 * max(abs(t_final), 1.0):
        raise ValueError(
            f"dt = {dt} does not divide the horizon T = {t_final} "
            f"into a whole number of steps"
        )
    return n_steps


def evolve(
    f0: Field, t_final: float, cfg: SolverConfig, record_every: int | None = None
) -> EvolveResult:
    """Evolve f0 to t_final in whole steps of cfg.dt.

    With ``record_every`` = R the trajectory holds snapshots at t = 0, R dt,
    ..., T - R dt; T must be positive and their count n_steps / R a power of
    two so the trajectory is directly usable by the space-time norms.
    Without it only the terminal state is kept.
    """
    grid = f0.grid
    n_steps = _step_count(t_final, cfg.dt)
    snapshots = None
    if record_every is not None:
        if record_every < 1 or n_steps % record_every != 0:
            raise ValueError(
                f"record_every = {record_every} must divide the {n_steps} steps"
            )
        n_rec = n_steps // record_every
        # the trajectory's checks on its count and window [0, T), made before the first step
        _check_window(t_final, n_rec)
        snapshots = np.empty((n_rec, grid.points), dtype=np.complex128)
    ws = _Workspace(grid, cfg)
    a = np.fft.fft(f0.values)
    a[~ws.band_mask] = 0.0  # dealias band enforced once; preserved by the flow
    # scaled by 2^-e so that a mass outside double range keeps its guard;
    # zero only for an all-zero field
    mass0, e = _scaled_mass(a, grid)
    for k in range(n_steps):
        if snapshots is not None and k % record_every == 0:
            snapshots[k // record_every] = np.fft.ifft(a)
        a = ws.rk4(a)
        if not np.isfinite(a).all():
            raise SolverError(f"solution blew up at step {k + 1} (t = {(k + 1) * cfg.dt:.4g})")
    if mass0 > 0.0:
        drift = abs(_scaled_mass(a, grid, e)[0] - mass0) / mass0
        if drift > cfg.mass_tol:
            raise MassDriftError(
                f"relative mass drift {drift:.3e} exceeds tolerance {cfg.mass_tol:.1e} "
                f"over T = {t_final}; the run is under-resolved (reduce dt or refine the grid)"
            )
    trajectory = None if snapshots is None else SpaceTimeField(grid, t_final, snapshots)
    return EvolveResult(Field(grid, np.fft.ifft(a)), trajectory)


def invariants(f: Field) -> dict[str, float]:
    """Tracked invariants: mass int |u|^2 dx and momentum int Im(conj(u) u_x) dx."""
    ux = derivative(f).values
    mass = float(np.sum(np.abs(f.values) ** 2) * f.grid.dx)
    momentum = float(np.sum(np.imag(np.conj(f.values) * ux)) * f.grid.dx)
    return {"mass": mass, "momentum": momentum}
