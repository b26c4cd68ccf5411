"""Tests for the integrating-factor RK4 solver."""

import math
import warnings

import numpy as np
import pytest

from mkdvlab.norms import cos2_taper
from mkdvlab.solitons import SolitonParams, soliton_field, soliton_time_derivative
from mkdvlab.solver import (
    NONLINEAR_COEFFICIENT,
    MassDriftError,
    SolverConfig,
    SolverError,
    _Workspace,
    _fft_kernel,
    _ifft_kernel,
    _scaled_mass,
    evolve,
    invariants,
    nonlinearity,
    step,
)
from mkdvlab.spectral import (
    Field,
    GridSpec,
    SpectralField,
    airy_propagator,
    derivative,
    inverse_transform,
)


@pytest.fixture
def grid():
    return GridSpec(length=128.0, points=1024)


def rel_l2_error(a: Field, b: Field) -> float:
    diff = np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * a.grid.dx)
    ref = np.sqrt(np.sum(np.abs(b.values) ** 2) * b.grid.dx)
    return diff / ref


def small_random_field(grid, seed=0, amplitude=0.1, max_xi=6.0):
    rng = np.random.default_rng(seed)
    coef = np.where(
        np.abs(grid.xi) <= max_xi,
        np.exp(-((grid.xi / 3.0) ** 2))
        * (rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)),
        0.0,
    )
    f = inverse_transform(SpectralField(grid, coef))
    peak = np.max(np.abs(f.values))
    return Field(grid, amplitude / peak * f.values)


class TestNonlinearity:
    def test_zero_field(self, grid):
        out = nonlinearity(Field.zero(grid))
        assert np.max(np.abs(out.values)) == 0.0

    def test_real_constant_killed_by_derivative(self, grid):
        f = Field(grid, 0.3 * np.ones(grid.points, dtype=complex))
        out = nonlinearity(f)
        assert np.max(np.abs(out.values)) < 1e-14

    @pytest.mark.parametrize("sign", [2, 0, -2])
    def test_rejects_sign_outside_plus_minus_one(self, grid, sign):
        with pytest.raises(ValueError, match=f"sign must be \\+1 \\(focusing\\) or -1, got {sign}"):
            nonlinearity(small_random_field(grid), sign)

    def test_rhs_matches_analytic_soliton_time_derivative(self):
        grid = GridSpec(length=128.0, points=2048)
        params = SolitonParams(carrier=2.0, scale=1.0)
        u = soliton_field(params, 0.0, grid)
        rhs = nonlinearity(u, sign=1).values - derivative(u, 3).values
        expected = soliton_time_derivative(params, 0.0, grid).values
        err = np.sqrt(np.sum(np.abs(rhs - expected) ** 2) * grid.dx)
        assert err <= 1e-6


class TestStep:
    def test_zero_dt_is_identity(self, grid):
        f = small_random_field(grid)
        assert step(f, 0.0, SolverConfig(dt=1e-3)) is f

    def test_linear_regime_matches_airy(self, grid):
        f = small_random_field(grid, amplitude=1e-6)
        dt = 1e-2
        stepped = step(f, dt, SolverConfig(dt=dt))
        free = airy_propagator(f, dt)
        assert np.max(np.abs(stepped.values - free.values)) < 1e-10 * np.max(
            np.abs(f.values)
        )

    def test_richardson_order_four(self, grid):
        params = SolitonParams(carrier=2.0, scale=1.0)
        u0 = soliton_field(params, 0.0, grid)
        horizon = 0.1
        errors = []
        for dt in (2e-3, 1e-3):
            cfg = SolverConfig(dt=dt)
            got = evolve(u0, horizon, cfg).final
            exact = soliton_field(params, horizon, grid)
            errors.append(rel_l2_error(got, exact))
        ratio = errors[0] / errors[1]
        assert 12.0 <= ratio <= 20.0

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_dt(self, grid, dt):
        f = small_random_field(grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"dt must be a nonzero finite number, got {dt}"):
                step(f, dt, SolverConfig(dt=1e-3))

    def test_cfl_guard(self, grid):
        params = SolitonParams(carrier=2.0, scale=1.0)
        u0 = soliton_field(params, 0.0, grid)
        with pytest.raises(SolverError, match="CFL"):
            step(u0, 5.0, SolverConfig(dt=5.0))


class TestEvolve:
    def test_soliton_benchmark_short(self):
        grid = GridSpec(length=128.0, points=4096)
        params = SolitonParams(carrier=2.0, scale=1.0)
        u0 = soliton_field(params, 0.0, grid)
        got = evolve(u0, 0.25, SolverConfig(dt=2e-4)).final
        exact = soliton_field(params, 0.25, grid)
        assert rel_l2_error(got, exact) <= 1e-7

    def test_zero_data_stays_zero(self, grid):
        out = evolve(Field.zero(grid), 0.1, SolverConfig(dt=1e-2), record_every=5).trajectory
        assert np.max(np.abs(out.samples)) == 0.0

    def test_time_reversibility(self, grid):
        f0 = small_random_field(grid, seed=5, amplitude=0.2)
        fwd = evolve(f0, 1.0, SolverConfig(dt=5e-4)).final
        back = evolve(fwd, -1.0, SolverConfig(dt=-5e-4)).final
        assert rel_l2_error(back, f0) <= 1e-8

    def test_trajectory_layout(self, grid):
        f0 = small_random_field(grid, seed=2)
        out = evolve(f0, 0.08, SolverConfig(dt=1e-3), record_every=10).trajectory
        assert out.n_times == 8
        assert out.t_window == pytest.approx(0.08)
        assert np.allclose(out.times, 0.01 * np.arange(8))
        # first snapshot is the (band-limited) initial data
        assert np.max(np.abs(out.samples[0] - f0.values)) < 1e-12

    def test_recording_leaves_the_final_state_bit_identical(self, grid):
        f0 = small_random_field(grid, seed=4, amplitude=0.3)
        cfg = SolverConfig(dt=1e-3)
        plain = evolve(f0, 0.064, cfg)
        recorded = evolve(f0, 0.064, cfg, record_every=8)
        assert plain.trajectory is None
        assert recorded.trajectory.n_times == 8
        assert np.array_equal(recorded.final.values, plain.final.values)

    def test_rejects_bad_record_every(self, grid):
        f0 = small_random_field(grid)
        with pytest.raises(ValueError, match="power of two"):
            evolve(f0, 0.1, SolverConfig(dt=1e-3), record_every=20)
        with pytest.raises(ValueError, match="divide"):
            evolve(f0, 0.1, SolverConfig(dt=1e-3), record_every=7)

    def test_recorded_run_refuses_a_negative_horizon_before_stepping(self, grid, monkeypatch):
        # backward evolution records no trajectory: its window [0, T) would be empty
        calls = []
        rk4 = _Workspace.rk4
        monkeypatch.setattr(_Workspace, "rk4", lambda ws, a: calls.append(1) or rk4(ws, a))
        with pytest.raises(ValueError, match="positive and finite, got -0.1"):
            evolve(small_random_field(grid), -0.1, SolverConfig(dt=-1e-3), record_every=25)
        assert calls == []

    def test_rejects_incommensurate_horizon(self, grid):
        f0 = small_random_field(grid)
        with pytest.raises(ValueError, match="whole number"):
            evolve(f0, 0.1, SolverConfig(dt=3e-3)).final

    @pytest.mark.parametrize("dt, horizon", [(-1e-3, 0.1), (1e-3, -0.1)])
    def test_rejects_opposite_signs_of_dt_and_horizon(self, grid, dt, horizon):
        f0 = small_random_field(grid)
        with pytest.raises(
            ValueError, match=f"dt = {dt} and the horizon T = {horizon} have opposite signs"
        ):
            evolve(f0, horizon, SolverConfig(dt=dt))

    def test_rejects_non_finite_horizon(self, grid):
        f0 = small_random_field(grid)
        with pytest.raises(ValueError, match="horizon T = inf must be finite"):
            evolve(f0, math.inf, SolverConfig(dt=1e-3))

    def test_evolution_deterministic(self, grid):
        f0 = small_random_field(grid, seed=12, amplitude=0.2)
        a = evolve(f0, 0.2, SolverConfig(dt=1e-3)).final
        b = evolve(f0, 0.2, SolverConfig(dt=1e-3)).final
        assert np.array_equal(a.values, b.values)

    def test_mass_drift_guard_trips(self, grid):
        # an impossibly tight tolerance turns ordinary truncation drift into an abort
        f0 = small_random_field(grid, seed=9, amplitude=0.5)
        cfg = SolverConfig(dt=1e-3, mass_tol=1e-18)
        with pytest.raises(MassDriftError, match="drift"):
            evolve(f0, 0.5, cfg).final


class TestTrajectoryNorms:
    def test_linear_regime_trajectory_feeds_space_time_norms(self, grid):
        # tiny amplitude: the nonlinear flow is the free flow, so the recorded
        # trajectory must reproduce the b = 0 space-time collapse
        from mkdvlab.norms import sobolev_norm, xsb_norm

        f0 = small_random_field(grid, seed=3, amplitude=1e-7, max_xi=4.0)
        traj = evolve(f0, 1.0, SolverConfig(dt=1.0 / 1024), record_every=32).trajectory
        assert traj.n_times == 32  # resolves |xi|^3 <= 64 against tau_max = 32 pi
        eta_l2 = np.sqrt(np.sum(traj.cutoff**2) * traj.dt)
        assert xsb_norm(traj, 0.0, 0.0) == pytest.approx(
            eta_l2 * sobolev_norm(f0, 0.0), rel=1e-3
        )


class TestInvariants:
    def test_soliton_values(self):
        grid = GridSpec(length=128.0, points=2048)
        params = SolitonParams(carrier=4.0, scale=1.5)
        inv = invariants(soliton_field(params, 0.0, grid))
        assert inv["mass"] == pytest.approx(params.mass, rel=1e-10)
        assert inv["momentum"] == pytest.approx(params.momentum, rel=1e-10)

    def test_conservation_along_flow(self):
        grid = GridSpec(length=64.0, points=512)
        f0 = small_random_field(grid, seed=7, amplitude=0.3)
        before = invariants(f0)
        after = invariants(evolve(f0, 1.0, SolverConfig(dt=5e-4)).final)
        assert abs(after["mass"] - before["mass"]) <= 1e-9 * before["mass"]
        assert abs(after["momentum"] - before["momentum"]) <= 1e-9 * (
            abs(before["momentum"]) + before["mass"]
        )


class TestScalingSymmetry:
    def test_rescaled_evolution_commutes(self):
        # u_lam(x, t) = lam^{-1} u(x/lam, t/lam^3) maps solutions to solutions.
        # With L2 = lam L1 and the same point count the two grids share sample
        # locations (x2_j = lam x1_j), so the map is a pure array rescale.
        lam = 2.0
        g1 = GridSpec(length=128.0, points=1024)
        g2 = GridSpec(length=128.0 * lam, points=1024)
        params = SolitonParams(carrier=2.0, scale=1.0)
        u0 = soliton_field(params, 0.0, g1)
        horizon, dt = 0.25, 5e-4
        u_t = evolve(u0, horizon, SolverConfig(dt=dt)).final

        v0 = Field(g2, u0.values / lam)
        v_t = evolve(v0, horizon * lam**3, SolverConfig(dt=dt * lam**3)).final

        expected = Field(g2, u_t.values / lam)
        assert rel_l2_error(v_t, expected) <= 1e-6


# ---------------------------------------------------------------------------
# Reference scheme: the plain allocating expressions the workspace must match
# bit for bit (same operations, same operand order); the padding and cubic
# scalings are single factors applied after the unnormalised transforms
# ---------------------------------------------------------------------------

def reference_nonlin(a, grid, sign):
    m = grid.points
    pad, half = 3 * m // 2, m // 2
    scale = pad / m
    ap = np.zeros(pad, dtype=np.complex128)
    ap[:half] = a[:half]
    ap[-half:] = a[half:]
    xi_pad = 2.0 * np.pi * np.fft.fftfreq(pad, d=grid.length / pad)
    u = np.fft.ifft(ap, norm="forward") * (1.0 / m)
    ux = np.fft.ifft(1j * xi_pad * ap, norm="forward") * (1.0 / m)
    w = np.abs(u) ** 2 * ux
    wp = np.fft.fft(w) * ((-sign * NONLINEAR_COEFFICIENT) / scale)
    out = np.concatenate([wp[:half], wp[-half:]])
    out[np.abs(np.fft.fftfreq(m, d=1.0 / m)) > m // 3] = 0.0
    return out


def reference_rk4(a, grid, dt, sign):
    e = np.exp(1j * grid.xi**3 * (dt / 2.0))
    e2, h = e**2, dt
    k1 = reference_nonlin(a, grid, sign)
    k2 = reference_nonlin(e * (a + 0.5 * h * k1), grid, sign)
    k3 = reference_nonlin(e * a + 0.5 * h * k2, grid, sign)
    k4 = reference_nonlin(e2 * a + h * e * k3, grid, sign)
    return e2 * a + (h / 6.0) * (e2 * k1 + 2.0 * e * (k2 + k3) + k4)


@pytest.fixture
def small_grid():
    return GridSpec(length=64.0, points=256)


def white_noise_field(grid, seed, amplitude=0.1):
    """Energy in every mode, including the |k| > M/3 band the solver discards."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)
    return Field(grid, amplitude * z)


class TestWorkspaceMatchesReference:
    @pytest.mark.parametrize("sign", [1, -1])
    def test_rk4_and_evolve_bit_identical(self, small_grid, sign):
        dt, n_steps = 1e-3, 20
        f0 = small_random_field(small_grid, seed=21, amplitude=0.5)
        ws = _Workspace(small_grid, SolverConfig(dt=dt, sign=sign))
        a0 = np.fft.fft(f0.values)
        a0[~ws.band_mask] = 0.0
        want = a0
        got = a0.copy()
        for _ in range(n_steps):
            want = reference_rk4(want, small_grid, dt, sign)
            got = ws.rk4(got)
            assert np.array_equal(got, want)
        final = evolve(f0, n_steps * dt, SolverConfig(dt=dt, sign=sign)).final
        assert np.array_equal(final.values, np.fft.ifft(want))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_public_entry_points_on_full_spectrum_input(self, small_grid, sign):
        # the whole spectrum, not just the retained band, goes into the padding
        f = white_noise_field(small_grid, seed=4)
        a = np.fft.fft(f.values)
        assert np.array_equal(
            nonlinearity(f, sign).values, np.fft.ifft(reference_nonlin(a, small_grid, sign))
        )
        dt = 1e-3
        stepped = step(f, dt, SolverConfig(dt=dt, sign=sign))
        assert np.array_equal(
            stepped.values, np.fft.ifft(reference_rk4(a, small_grid, dt, sign))
        )

    def test_nonlin_returns_fresh_arrays(self, small_grid):
        ws = _Workspace(small_grid, SolverConfig(dt=1e-3, sign=1))
        a = np.fft.fft(white_noise_field(small_grid, seed=5).values)
        b = np.fft.fft(white_noise_field(small_grid, seed=6).values)
        first = ws.nonlin(a)
        second = ws.nonlin(b)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, reference_nonlin(a, small_grid, 1))
        assert np.array_equal(second, reference_nonlin(b, small_grid, 1))

    def test_workspace_reuse_repeats_runs(self, small_grid):
        ws = _Workspace(small_grid, SolverConfig(dt=1e-3, sign=-1))
        a0 = np.fft.fft(small_random_field(small_grid, seed=8, amplitude=0.5).values)
        a0[~ws.band_mask] = 0.0
        runs = []
        for _ in range(2):
            a = a0
            for _ in range(20):
                a = ws.rk4(a)
            runs.append(a)
        assert np.array_equal(runs[0], runs[1])
        assert not np.shares_memory(runs[0], runs[1])


# ---------------------------------------------------------------------------
# numpy's private pocketfft kernels, which the workspace and
# norms._free_product call directly
# ---------------------------------------------------------------------------

class TestNumpyPrivatePocketfftKernels:
    """``spectral`` binds ``numpy.fft._pocketfft_umath.ifft``/``.fft``.

    They are numpy's private API: a numpy release that moves or changes them
    fails here (or at the import of ``mkdvlab.spectral``).
    """

    @pytest.mark.parametrize("n", [384, 768, 1000, 6144])
    def test_kernels_bit_equal_np_fft(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        inv = np.empty(n, dtype=np.complex128)
        _ifft_kernel(x, 1.0 / n, out=inv)
        assert np.array_equal(inv, np.fft.ifft(x))
        fwd = x.copy()
        _fft_kernel(fwd, 1.0, out=fwd)  # in place, as the workspace calls it
        assert np.array_equal(fwd, np.fft.fft(x))

    @pytest.mark.parametrize("k", [256, 1024])
    def test_per_row_factor_bit_equal_scaled_np_fft(self, k):
        # the factor eta(t_k)/L of norms._free_product, one per row of a
        # (K, M) stack; with M = 256 and L = 64, 1/M and 1/dx are exact
        g = GridSpec(length=64.0, points=256)
        rng = np.random.default_rng(k)
        stack = rng.standard_normal((k, 256)) + 1j * rng.standard_normal((k, 256))
        eta = cos2_taper((1.0 / k) * np.arange(k), 1.0)
        expected = np.fft.ifft(stack, axis=-1) / g.dx * eta[:, None]
        _ifft_kernel(stack, eta / g.length, out=stack)  # in place, as norms._free_product does
        assert np.array_equal(stack, expected)

    @pytest.mark.parametrize("pad", [384, 576, 768, 1500, 6144])
    def test_workspace_factors_bit_equal_scaled_np_fft(self, pad):
        # the factors the workspace passes: 1/M inverse (M = 2P/3, also not a
        # power of two) and -36 / (P/M) = -24 forward at sign +1
        m = 2 * pad // 3
        rng = np.random.default_rng(pad)
        x = rng.standard_normal(pad) + 1j * rng.standard_normal(pad)
        inv = np.empty(pad, dtype=np.complex128)
        _ifft_kernel(x, 1.0 / m, out=inv)
        assert np.array_equal(inv, np.fft.ifft(x, norm="forward") * (1.0 / m))
        fwd = x.copy()
        _fft_kernel(fwd, -24.0, out=fwd)
        assert np.array_equal(fwd, np.fft.fft(x) * -24.0)


# ---------------------------------------------------------------------------
# CFL proxy: max |u|^2 of stage 1 only
# ---------------------------------------------------------------------------

def reference_stage1_max_abs2(a, grid):
    m = grid.points
    pad, half = 3 * m // 2, m // 2
    ap = np.zeros(pad, dtype=np.complex128)
    ap[:half] = a[:half]
    ap[-half:] = a[half:]
    u = np.fft.ifft(ap, norm="forward") * (1.0 / m)
    return float(np.max(np.abs(u) ** 2))


class TestCflCheck:
    def test_checked_step_keeps_the_stage_one_maximum(self, small_grid):
        ws = _Workspace(small_grid, SolverConfig(dt=1e-3, sign=1))
        a = np.fft.fft(white_noise_field(small_grid, seed=7).values)
        ws.rk4(a)
        assert ws.last_max_abs2 == reference_stage1_max_abs2(a, small_grid)

    def test_guard_trips_at_the_reference_step(self, small_grid):
        # a packet pre-dispersed by the backward Airy flow refocuses during
        # the run: its peak grows, so the proxy starts at 0.45 and crosses 0.5
        # only after step 1
        dt = 1e-2
        ws = _Workspace(small_grid, SolverConfig(dt=dt, sign=1))
        xi = small_grid.xi
        shape = np.exp(-((xi / 2.0) ** 2)) * np.exp(-0.1j * xi**3)
        shape[~ws.band_mask] = 0.0
        peak = reference_stage1_max_abs2(shape, small_grid)
        a0 = shape * math.sqrt(0.45 / (dt * NONLINEAR_COEFFICIENT * ws.xi_band_max * peak))
        want, trip_step = a0, None
        for k in range(1, 21):
            max_abs2 = reference_stage1_max_abs2(want, small_grid)
            proxy = abs(dt) * NONLINEAR_COEFFICIENT * max_abs2 * ws.xi_band_max
            if proxy > 0.5:
                trip_step = k
                break
            want = reference_rk4(want, small_grid, dt, 1)
        assert trip_step is not None and trip_step > 1
        message = (
            f"advective CFL proxy {proxy:.3g} > 0.5 (dt = {dt:.3g}, "
            f"max|u|^2 = {max_abs2:.3g}, band edge = {ws.xi_band_max:.4g}); reduce dt"
        )
        got = a0
        for _ in range(trip_step - 1):
            got = ws.rk4(got)
        assert np.array_equal(got, want)
        with pytest.raises(SolverError) as info:
            ws.rk4(got)
        assert str(info.value) == message
        assert ws.last_max_abs2 == max_abs2


# ---------------------------------------------------------------------------
# Mass guard where the mass leaves the double range
# ---------------------------------------------------------------------------

class TestMassGuardScaling:
    @pytest.mark.parametrize("amplitude", [1e-170, 1e170])
    def test_guard_trips_where_the_mass_is_out_of_range(self, small_grid, amplitude, monkeypatch):
        # the mass (~1e-339 or ~1e+341) under- or overflows in double; a step
        # that rescales the state by 1.001 must still trip the drift guard
        f0 = small_random_field(small_grid, seed=3, amplitude=amplitude)
        with np.errstate(over="ignore"):
            assert float(np.sum(np.abs(f0.values) ** 2)) in (0.0, math.inf)
        monkeypatch.setattr(_Workspace, "rk4", lambda self, a: 1.001 * a)
        with pytest.raises(MassDriftError, match="drift"):
            evolve(f0, 0.016, SolverConfig(dt=1e-3)).final

    def test_drift_ratio_bit_identical_for_normal_masses(self, small_grid):
        ws = _Workspace(small_grid, SolverConfig(dt=5e-3, sign=1))
        a0 = np.fft.fft(white_noise_field(small_grid, seed=11).values)
        a0[~ws.band_mask] = 0.0
        a1 = ws.rk4(ws.rk4(a0))

        def mass(a):
            return float(np.sum(np.abs(a) ** 2) * small_grid.dx / small_grid.points)

        plain = abs(mass(a1) - mass(a0)) / mass(a0)
        m0, e = _scaled_mass(a0, small_grid)
        m1, _ = _scaled_mass(a1, small_grid, e)
        assert plain > 0.0
        assert abs(m1 - m0) / m0 == plain
