"""Tests for the exact soliton family and its quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kendalltau

from mkdvlab.norms import modulation_norm
from mkdvlab.solitons import (
    SolitonParams,
    _leggauss,
    cube_window_quadrature,
    modulation_norm_of_spectrum,
    pair_overlap,
    sech,
    soliton_field,
    soliton_modulation_norm,
    soliton_spectrum,
    soliton_spectrum_at_time,
    soliton_time_derivative,
)
from mkdvlab.spectral import (
    GridSpec,
    ResolutionError,
    derivative,
    forward_transform,
)


@pytest.fixture
def grid():
    return GridSpec(length=128.0, points=4096)


class TestGroundState:
    def test_peak_value(self):
        assert sech(0.0) == pytest.approx(1.0)

    def test_even(self):
        x = np.array([0.3, 1.7, 4.0])
        assert np.allclose(sech(x), sech(-x), rtol=1e-15)

    @pytest.mark.parametrize("x", [0.0, 1.0, -1.0, 3.0, -3.0])
    def test_ode_residual(self, x):
        # -Q + Q'' + 2 Q^3 with Q'' = Q - 2 Q^3 from the closed form
        q = sech(x)
        qpp = q - 2.0 * q**3
        assert abs(-q + qpp + 2.0 * q**3) <= 1e-12


class TestSolitonField:
    def test_initial_profile(self, grid):
        params = SolitonParams(carrier=8.0, scale=1.0)
        f = soliton_field(params, 0.0, grid)
        expected = (
            np.exp(1j * 8.0 * grid.x) * sech(grid.x) / math.sqrt(6.0)
        )
        assert np.max(np.abs(f.values - expected)) < 1e-14

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 3.0])
    def test_mass_is_scale_over_three(self, grid, t):
        params = SolitonParams(carrier=4.0, scale=1.5)
        f = soliton_field(params, t, grid)
        assert f.l2_norm() ** 2 == pytest.approx(params.mass, rel=1e-10)

    def test_momentum(self, grid):
        params = SolitonParams(carrier=4.0, scale=1.5)
        f = soliton_field(params, 0.0, grid)
        ux = derivative(f, 1)
        momentum = float(np.sum(np.imag(np.conj(f.values) * ux.values)) * grid.dx)
        assert momentum == pytest.approx(params.momentum, rel=1e-10)

    def test_peak_location_wraps(self, grid):
        # N = 4, lam = 1, t = 1: peak at -(3*16 - 1) = -47 (inside the box)
        params = SolitonParams(carrier=4.0, scale=1.0)
        f = soliton_field(params, 1.0, grid)
        x_peak = grid.x[np.argmax(np.abs(f.values))]
        assert abs(x_peak + 47.0) <= grid.dx

    def test_pde_residual(self, grid):
        # d_t u + d_x^3 u + 36 |u|^2 d_x u = 0 with analytic d_t, spectral d_x
        # (the cubic coefficient pairing with the 1/sqrt(6) amplitude convention)
        from mkdvlab.solver import NONLINEAR_COEFFICIENT

        params = SolitonParams(carrier=2.0, scale=1.0)
        for t in (0.0, 0.7):
            u = soliton_field(params, t, grid)
            ut = soliton_time_derivative(params, t, grid)
            uxxx = derivative(u, 3)
            ux = derivative(u, 1)
            res = (
                ut.values
                + uxxx.values
                + NONLINEAR_COEFFICIENT * np.abs(u.values) ** 2 * ux.values
            )
            res_l2 = np.sqrt(np.sum(np.abs(res) ** 2) * grid.dx)
            assert res_l2 <= 1e-6

    def test_rejects_unresolved_carrier(self):
        grid = GridSpec(length=64.0, points=256)  # band ~ 12.5
        with pytest.raises(ResolutionError, match="carrier"):
            soliton_field(SolitonParams(carrier=20.0, scale=1.0), 0.0, grid)

    def test_rejects_short_domain(self):
        grid = GridSpec(length=64.0, points=1024)
        with pytest.raises(ResolutionError, match="lam"):
            soliton_field(SolitonParams(carrier=2.0, scale=0.25), 0.0, grid)


class TestSolitonSpectrum:
    def test_peak_value_at_carrier(self):
        params = SolitonParams(carrier=8.0, scale=1.0)
        assert soliton_spectrum(params, 8.0) == pytest.approx(
            np.pi / math.sqrt(6.0), rel=1e-14
        )

    def test_symmetry_about_carrier(self):
        params = SolitonParams(carrier=8.0, scale=0.5)
        d = np.array([0.5, 1.0, 2.5])
        assert np.allclose(
            soliton_spectrum(params, 8.0 + d), soliton_spectrum(params, 8.0 - d)
        )

    def test_matches_grid_transform(self, grid):
        params = SolitonParams(carrier=8.0, scale=1.0)
        F = forward_transform(soliton_field(params, 0.0, grid))
        sel = np.abs(grid.xi - 8.0) <= 20.0
        expected = soliton_spectrum(params, grid.xi[sel])
        assert np.max(np.abs(np.abs(F.coefficients[sel]) - expected)) < 1e-8

    def test_modulus_time_invariant_on_grid(self, grid):
        params = SolitonParams(carrier=4.0, scale=1.0)
        f0 = forward_transform(soliton_field(params, 0.0, grid))
        f1 = forward_transform(soliton_field(params, 1.0, grid))
        assert np.max(np.abs(np.abs(f1.coefficients) - np.abs(f0.coefficients))) < 1e-10

    def test_complex_spectrum_matches_grid_at_time(self, grid):
        params = SolitonParams(carrier=4.0, scale=1.0)
        t = 0.35  # soliton stays inside the box: center -47 t
        F = forward_transform(soliton_field(params, t, grid))
        sel = np.abs(grid.xi - 4.0) <= 10.0
        expected = soliton_spectrum_at_time(params, t, grid.xi[sel])
        assert np.max(np.abs(F.coefficients[sel] - expected)) < 1e-8


class TestSolitonModulationNorm:
    def test_agrees_with_grid_pipeline(self):
        grid = GridSpec(length=256.0, points=8192)
        cases = [
            (SolitonParams(carrier=8.0, scale=1.0), 0.125, 4.0),
            (SolitonParams(carrier=16.0, scale=0.5), 0.0, 2.0),
            (SolitonParams(carrier=5.0, scale=2.0), -0.125, 4.0),
        ]
        for params, s, p in cases:
            oracle = soliton_modulation_norm(params, s, p)
            on_grid = modulation_norm(soliton_field(params, 0.0, grid), s, p)
            assert on_grid == pytest.approx(oracle, rel=1e-6)

    def test_s0_p2_value_from_mass(self):
        # norm^2 = (2 pi)^{-1} int (sum_n psi_n^2) |u_hat|^2, with
        # sum_n psi(xi - n)^2 = 1 - sin^2(pi xi)/2 for the cos^2 window
        params = SolitonParams(carrier=6.0, scale=1.0)
        got = soliton_modulation_norm(params, 0.0, 2.0)
        val, _ = quad(
            lambda xi: (1.0 - 0.5 * np.sin(np.pi * xi) ** 2)
            * soliton_spectrum(params, xi) ** 2 / (2 * np.pi),
            6.0 - 40.0,
            6.0 + 40.0,
            limit=400,
        )
        assert got == pytest.approx(np.sqrt(val), rel=1e-8)
        # bracketed by the Plancherel mass lam/3 and its 1/sqrt(2) multiple
        mass = np.sqrt(params.mass)
        assert mass / np.sqrt(2.0) <= got <= mass

    def test_quadrature_mass_identity(self):
        # Plancherel on the closed-form spectrum: (2 pi)^{-1} int |u_hat|^2 = lam / 3
        params = SolitonParams(carrier=5.0, scale=1.7)
        val, _ = quad(
            lambda xi: soliton_spectrum(params, xi) ** 2 / (2 * np.pi),
            5.0 - 60.0,
            5.0 + 60.0,
            limit=300,
        )
        assert val == pytest.approx(params.mass, rel=1e-12)

    def test_p_monotone(self):
        params = SolitonParams(carrier=8.0, scale=0.7)
        vals = [soliton_modulation_norm(params, 0.125, p) for p in (2.0, 4.0, 8.0)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_norm_bracket_along_illposedness_schedule(self):
        # lam = N^{-2s}, s = 1/8, p = 4: norms stay in a factor-3 band
        s, p = 0.125, 4.0
        values = []
        for k in range(4, 11):
            n = float(2**k)
            params = SolitonParams(carrier=n, scale=n ** (-2 * s))
            values.append(soliton_modulation_norm(params, s, p))
        assert max(values) / min(values) <= 3.0


class TestQuadratureGuards:
    def test_nonconvergence_is_reported(self):
        from mkdvlab.solitons import cube_window_quadrature

        with pytest.raises(RuntimeError, match="converge"):
            cube_window_quadrature(lambda xi: np.sin(1e6 * xi) ** 2, np.array([0]))

    def test_empty_cube_list_gives_empty_integrals(self):
        got = cube_window_quadrature(lambda xi: np.ones_like(xi), np.array([], dtype=int))
        assert got.dtype == float and got.shape == (0,)

    def test_reversed_cube_range_names_both_bounds(self):
        with pytest.raises(ValueError, match="n_hi = 2 < n_lo = 3"):
            modulation_norm_of_spectrum(lambda xi: np.ones_like(xi), 0.0, 2.0, 3, 2)


RULE_ORDERS = list(range(1, 71)) + [128, 256, 512, 1024, 2048]
ULP_2 = 2.0 * np.finfo(float).eps


class TestGaussLegendreRule:
    """The Newton-on-the-recurrence rule against the eigensolver rule of numpy."""

    @pytest.mark.parametrize("order", RULE_ORDERS)
    def test_structure(self, order):
        x, w = _leggauss(order)
        assert x.shape == w.shape == (order,)
        assert np.all(np.diff(x) > 0) and -1.0 < x[0] and x[-1] < 1.0
        assert np.array_equal(x, -x[::-1]) and np.all(w > 0) and np.array_equal(w, w[::-1])
        if order % 2:
            assert x[order // 2] == 0.0
        # seen <= 3 ulp
        assert abs(w.sum() - 2.0) <= 4 * ULP_2

    @pytest.mark.parametrize("order", [n for n in RULE_ORDERS if n <= 1024])
    def test_agrees_with_numpy(self, order):
        x, w = _leggauss(order)
        x_ref, w_ref = np.polynomial.legendre.leggauss(order)
        assert np.max(np.abs(x - x_ref)) <= 2.3e-16  # seen 1.1e-16
        # numpy's own endpoint weights are off by up to 1.25e-9 at n = 1024
        # (40-digit reference); this rule's by 4e-12
        assert np.max(np.abs(w / w_ref - 1.0)) <= 2e-9  # seen 1.24e-9

    def test_oscillatory_integral_to_roundoff(self):
        # numpy's rule misses this by 1.2e-14
        x, w = _leggauss(512)
        assert abs(w @ np.cos(40.0 * x) - math.sin(40.0) / 20.0) <= 1e-15

    def test_exact_on_even_monomials(self):
        x, w = _leggauss(64)
        for k in range(64):
            assert abs(w @ x ** (2 * k) - 2.0 / (2 * k + 1)) <= 2 * ULP_2, k


class TestPairOverlap:
    def test_self_overlap_is_projected_mass(self, grid):
        params = SolitonParams(carrier=8.0, scale=1.0)
        got = pair_overlap(8, params, params, 0.0, grid)
        from mkdvlab.spectral import unit_cube_project

        proj = unit_cube_project(soliton_field(params, 0.0, grid), 8)
        assert got == pytest.approx(proj.l2_norm() ** 2, rel=1e-12)
        assert got > 0.0

    def test_rejects_mismatched_scales(self, grid):
        a = SolitonParams(carrier=8.0, scale=1.0)
        b = SolitonParams(carrier=9.0, scale=2.0)
        with pytest.raises(ValueError, match="scale"):
            pair_overlap(8, a, b, 0.0, grid)

    def test_physical_separation_kills_overlap(self):
        # spectrally overlapping pair (|N1 - N2| = 1, lam = 1): O(1) overlap at
        # t = 0, >= 10x smaller at t = T once centers separate by 3(N1^2-N2^2)T
        grid = GridSpec(length=256.0, points=4096)
        a = SolitonParams(carrier=13.0, scale=1.0)
        b = SolitonParams(carrier=12.0, scale=1.0)
        at0 = pair_overlap(13, a, b, 0.0, grid)
        # evaluate at the shifted frame: both wrapped into the box at t = 1
        at_t = pair_overlap(13, a, b, 1.0, grid)
        assert at0 > 0.01  # O(1) relative to the cube masses ~ lam
        assert at_t <= at0 / 10.0

    def test_overlap_bound_sweep(self):
        # max_n overlap * N |N1-N2| T admits one constant with no growth
        # trend in N (Kendall tau of ratio vs N <= 0.3)
        s, t_final = 0.125, 1.0
        ratios = []
        carriers = [2.0**k for k in range(4, 9)]
        for n in carriers:
            lam = n ** (-2 * s)
            delta = n ** (2 * s - 1 + 2 * 0.125) / t_final  # theta = 1/8
            a = SolitonParams(carrier=n, scale=lam)
            b = SolitonParams(carrier=n + delta, scale=lam)
            sep = 3.0 * ((n + delta) ** 2 - n**2) * t_final
            length = 2 ** math.ceil(math.log2(max(16 * np.pi + 1, 4 * sep, 90.0 / lam)))
            xi_need = 1.3 * (n + delta + 10.0 * lam + 4.0)
            points = 2 ** math.ceil(math.log2(length * xi_need / np.pi))
            g = GridSpec(length=length, points=points)
            n_cubes = range(int(np.floor(n - 3)), int(np.ceil(n + delta + 3)) + 1)
            worst = max(pair_overlap(nc, a, b, t_final, g) for nc in n_cubes)
            ratios.append(worst * n * delta * t_final)
        assert max(ratios) < 10.0
        tau, _ = kendalltau(carriers, ratios)
        assert tau <= 0.3
