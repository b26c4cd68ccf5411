"""Tests for the norm engine: H^s, FL^{s,p}, M^{2,p}_s, and X^{s,b}-type norms."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from mkdvlab import norms, probes
from mkdvlab.norms import (
    SpaceTimeField,
    cos2_taper,
    free_evolution,
    fourier_lebesgue_norm,
    modulation_norm,
    sobolev_norm,
    xsb_norm,
    xsb_p_norm,
)
from mkdvlab.spectral import (
    TWO_PI,
    Field,
    GridSpec,
    ResolutionError,
    SpectralField,
    _coefficients,
    _samples,
    forward_transform,
    inverse_transform,
    littlewood_paley,
    quartic_window,
    unit_cube_project,
)

INF = math.inf


def spectrum_field(grid, fn):
    return inverse_transform(SpectralField(grid, fn(grid.xi).astype(complex)))


def traced_peak(fn):
    """fn() and the peak of the bytes it holds allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMedian:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 10, 40, 41])
    def test_equals_numpy_median(self, size):
        rng = np.random.default_rng(size)
        for _ in range(50):
            values = list(rng.standard_normal(size) * 10.0 ** rng.integers(-5, 5, size))
            assert norms._median(values) == float(np.median(values))

    def test_nan_in_gives_nan_out(self):
        for values in ([float("nan")], [1.0, float("nan")], [3.0, 1.0, float("nan"), 2.0]):
            assert math.isnan(norms._median(values))


class TestSobolev:
    def test_sech_l2_mass(self):
        grid = GridSpec(length=128.0, points=2048)
        f = Field.from_function(grid, lambda x: 1.0 / np.cosh(x))
        assert sobolev_norm(f, 0.0) == pytest.approx(np.sqrt(2.0), rel=1e-8)

    def test_zero_field(self, norm_grid):
        assert sobolev_norm(Field.zero(norm_grid), 1.0) == 0.0

    def test_narrow_band_weight(self, norm_grid):
        # narrow packet at carrier 8: H^1 norm ~ <8> times the L^2 norm
        f = spectrum_field(norm_grid, lambda xi: np.exp(-(((xi - 8.0) / 0.05) ** 2)))
        ratio = sobolev_norm(f, 1.0) / sobolev_norm(f, 0.0)
        assert ratio == pytest.approx(np.sqrt(1 + 64.0), rel=1e-3)


class TestFourierLebesgue:
    def test_p2_matches_sobolev_up_to_convention(self, norm_corpus):
        for f in norm_corpus[:10]:
            for s in (0.0, 0.5, -0.25):
                assert fourier_lebesgue_norm(f, s, 2.0) == pytest.approx(
                    np.sqrt(2 * np.pi) * sobolev_norm(f, s), rel=1e-12
                )

    def test_sech_sup_norm_is_pi(self):
        grid = GridSpec(length=128.0, points=2048)
        f = Field.from_function(grid, lambda x: 1.0 / np.cosh(x))
        assert fourier_lebesgue_norm(f, 0.0, INF) == pytest.approx(np.pi, rel=1e-8)

    def test_sup_norm_invariant_under_mkdv_scaling(self):
        # u_lam(x) = lam^{-1} u(x / lam) has u_hat_lam(xi) = u_hat(lam xi)
        grid = GridSpec(length=256.0, points=4096)
        lam = 2.0
        u = Field.from_function(grid, lambda x: np.exp(-(x**2) / 8.0))
        u_lam = Field.from_function(grid, lambda x: np.exp(-((x / lam) ** 2) / 8.0) / lam)
        a = fourier_lebesgue_norm(u, 0.0, INF)
        b = fourier_lebesgue_norm(u_lam, 0.0, INF)
        assert b == pytest.approx(a, rel=1e-6)


class TestModulation:
    def test_equivalent_to_sobolev_at_p2(self, norm_corpus):
        for f in norm_corpus:
            for s in (0.0, 0.25, 1.0):
                ratio = modulation_norm(f, s, 2.0) / sobolev_norm(f, s)
                assert 0.25 <= ratio <= 4.0

    def test_single_cube_spectrum_against_quadrature(self):
        # u_hat = Gaussian essentially supported in [8, 9)
        grid = GridSpec(length=256.0, points=4096)
        center, sigma = 8.5, 0.08
        f = spectrum_field(grid, lambda xi: np.exp(-(((xi - center) / sigma) ** 2)))
        s, p = 0.5, 4.0
        got = modulation_norm(f, s, p)

        def cube_mass(n):
            val, _ = quad(
                lambda xi: (
                    np.cos(0.5 * np.pi * (xi - n)) ** 2
                    * np.exp(-(((xi - center) / sigma) ** 2))
                ) ** 2 / (2 * np.pi),
                n - 1.0,
                n + 1.0,
                limit=200,
            )
            return val

        expected = sum(
            (1 + n**2) ** (s * p / 2) * cube_mass(n) ** (p / 2) for n in (6, 7, 8, 9, 10)
        ) ** (1 / p)
        assert got == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("p", [2.0, 4.0, 8.0])
    def test_embedding_into_fourier_lebesgue(self, norm_corpus, p):
        # M^{2,p}_s contains FL^{s,p} with a modest constant
        for f in norm_corpus[::5]:
            for s in (0.0, 0.25):
                assert modulation_norm(f, s, p) <= 4.0 * fourier_lebesgue_norm(f, s, p)

    def test_lp_monotonicity(self, norm_corpus):
        for f in norm_corpus[::7]:
            values = [modulation_norm(f, 0.25, p) for p in (1.0, 2.0, 4.0, 8.0, INF)]
            assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_absolute_homogeneity(self, norm_corpus):
        f = norm_corpus[0]
        g = Field(f.grid, (2.0 - 1.5j) * f.values)
        c = abs(2.0 - 1.5j)
        for s, p in [(0.25, 2.0), (-0.125, 4.0), (0.0, INF)]:
            assert modulation_norm(g, s, p) == pytest.approx(
                c * modulation_norm(f, s, p), rel=1e-12
            )

    @pytest.mark.parametrize("c", [3.35e-277j, 1e-200, 1e160])
    def test_homogeneity_where_squares_leave_double_range(self, norm_corpus, st_corpus, c):
        f = norm_corpus[0]
        g = Field(f.grid, c * f.values)
        for s, p in [(0.25, 2.0), (-0.125, 4.0), (0.0, INF)]:
            assert modulation_norm(g, s, p) == pytest.approx(
                abs(c) * modulation_norm(f, s, p), rel=1e-12, abs=0.0
            )
        assert sobolev_norm(g, 0.5) == pytest.approx(
            abs(c) * sobolev_norm(f, 0.5), rel=1e-12, abs=0.0
        )
        assert g.l2_norm() == pytest.approx(abs(c) * f.l2_norm(), rel=1e-12, abs=0.0)
        u = free_evolution(st_corpus[0], 1.0, 256)
        v = free_evolution(Field(st_corpus[0].grid, c * st_corpus[0].values), 1.0, 256)
        assert xsb_norm(v, 0.25, 0.5) == pytest.approx(
            abs(c) * xsb_norm(u, 0.25, 0.5), rel=1e-12, abs=0.0
        )
        for p in (2.0, 4.0, INF):
            assert xsb_p_norm(v, 0.25, 0.5, p) == pytest.approx(
                abs(c) * xsb_p_norm(u, 0.25, 0.5, p), rel=1e-12, abs=0.0
            )

    def test_translation_invariance(self, norm_corpus):
        f = norm_corpus[1]
        shift = 3.7
        F = forward_transform(f)
        g = inverse_transform(
            SpectralField(f.grid, np.exp(-1j * shift * f.grid.xi) * F.coefficients)
        )
        assert modulation_norm(g, 0.25, 4.0) == pytest.approx(
            modulation_norm(f, 0.25, 4.0), rel=1e-10
        )

    def test_alternative_window_gives_equivalent_norm(self, norm_corpus):
        for f in norm_corpus[::10]:
            a = modulation_norm(f, 0.25, 4.0)
            b = modulation_norm(f, 0.25, 4.0, window=quartic_window)
            assert 0.25 <= a / b <= 4.0

    def test_unresolved_tail_rejected(self):
        grid = GridSpec(length=64.0, points=256)  # band |xi| <= ~12.5
        f = Field.from_function(grid, lambda x: 1.0 / np.cosh(np.clip(x / 0.08, -700, 700)))
        with pytest.raises(ResolutionError, match="band"):
            modulation_norm(f, 0.0, 2.0)


class TestBernstein:
    def test_dyadic_and_cube_bernstein_constants(self, norm_corpus):
        # discrete Bernstein: sup norms controlled by L^2 norms, one constant <= 2
        worst_dyadic = 0.0
        worst_cube = 0.0
        for f in norm_corpus[::4]:
            for n_dyadic in (2, 4, 8):
                g = littlewood_paley(f, n_dyadic)
                l2 = g.l2_norm()
                if l2 > 1e-12:
                    sup = float(np.max(np.abs(g.values)))
                    worst_dyadic = max(worst_dyadic, sup / (np.sqrt(n_dyadic) * l2))
            for n in (-4, 0, 5):
                g = unit_cube_project(f, n)
                l2 = g.l2_norm()
                if l2 > 1e-12:
                    sup = float(np.max(np.abs(g.values)))
                    worst_cube = max(worst_cube, sup / l2)
        assert worst_dyadic <= 2.0
        assert worst_cube <= 2.0


class TestSpaceTimeField:
    def test_rejects_non_power_of_two_snapshots(self, st_grid):
        with pytest.raises(ValueError, match="power of two"):
            SpaceTimeField(st_grid, 1.0, np.zeros((12, st_grid.points), dtype=complex))

    @pytest.mark.parametrize("t_window", [INF, math.nan, 0.0, -1.0])
    def test_rejects_a_window_that_is_not_positive_and_finite(self, st_grid, t_window):
        ones = np.ones((16, st_grid.points), dtype=complex)
        with pytest.raises(ValueError, match="positive and finite"):
            SpaceTimeField(st_grid, t_window, ones)
        with pytest.raises(ValueError, match="positive and finite"):
            norms._tau_sums(ones.copy(), st_grid, t_window, 0.51)

    def test_cutoff_shape(self, st_grid):
        u = SpaceTimeField(st_grid, 1.0, np.zeros((64, st_grid.points), dtype=complex))
        eta = u.cutoff
        assert eta[0] == 0.0
        mid = slice(8, 56)
        assert np.all(eta[mid] == 1.0)
        assert np.all(np.diff(eta[:7]) > 0)

    def test_taper_is_cos2_ramp(self):
        t = np.linspace(0.0, 1.0, 201)
        eta = cos2_taper(t, 1.0)
        k = 10  # t = 0.05, halfway up the 10% shoulder
        assert eta[k] == pytest.approx(0.5, abs=1e-12)


class TestXsb:
    def test_zero_trajectory(self, st_grid):
        u = SpaceTimeField(st_grid, 1.0, np.zeros((64, st_grid.points), dtype=complex))
        assert xsb_norm(u, 0.25, 0.5) == 0.0
        assert xsb_p_norm(u, 0.25, 0.5, 4.0) == 0.0

    def test_b_zero_collapses_to_l2t_hs(self, st_corpus):
        # cutoff * free evolution: b = 0 gives ||eta||_{L^2_t} ||f||_{H^s}
        for f in st_corpus[:4]:
            u = free_evolution(f, 1.0, 256)
            eta_l2 = np.sqrt(np.sum(u.cutoff**2) * u.dt)
            for s in (0.0, 0.25):
                assert xsb_norm(u, s, 0.0) == pytest.approx(
                    eta_l2 * sobolev_norm(f, s), rel=1e-3
                )

    def test_free_evolution_bound_single_constant(self, st_corpus):
        # homogeneous linear estimate analog: one C(eta) across the corpus
        s, b = 0.25, 0.5 + 0.01
        ratios = []
        for f in st_corpus:
            u = free_evolution(f, 1.0, 256)
            ratios.append(xsb_norm(u, s, b) / sobolev_norm(f, s))
        ratios = np.array(ratios)
        assert np.max(ratios) <= 10.0
        assert np.max(ratios) / np.min(ratios) <= 1.5

    def test_p2_equivalent_to_xsb(self, st_corpus):
        for f in st_corpus[::3]:
            u = free_evolution(f, 1.0, 256)
            for s in (0.25, -0.125):
                ratio = xsb_p_norm(u, s, 0.5, 2.0) / xsb_norm(u, s, 0.5)
                assert 0.25 <= ratio <= 4.0

    def test_lp_monotonicity_exact(self, st_corpus):
        for f in st_corpus[::4]:
            u = free_evolution(f, 1.0, 256)
            vals = [xsb_p_norm(u, 0.25, 0.55, p) for p in (1.0, 2.0, 4.0, 8.0, INF)]
            assert all(a >= b - 1e-12 * vals[0] for a, b in zip(vals, vals[1:]))

    def test_single_cube_support_is_p_independent(self, st_grid):
        coef = np.where(
            (st_grid.xi >= 3.0) & (st_grid.xi < 4.0),
            np.exp(-((st_grid.xi - 3.5) ** 2) / 0.02),
            0.0,
        )
        f = inverse_transform(SpectralField(st_grid, coef.astype(complex)))
        u = free_evolution(f, 1.0, 256)
        vals = [xsb_p_norm(u, 0.25, 0.5, p) for p in (1.0, 2.0, 4.0, INF)]
        assert np.ptp(vals) < 1e-12 * vals[0]

    def test_holder_block_bound_in_bandwidth(self, st_corpus):
        # for band-limited pieces: ||.||_q <= C N^{1/q - 1/p} ||.||_p, q <= p
        q, p = 2.0, 4.0
        s, b = 0.0, 0.5
        worst = 0.0
        for f in st_corpus[:6]:
            for n_dyadic in (2, 4):
                g = littlewood_paley(f, n_dyadic)
                if g.l2_norm() < 1e-12:
                    continue
                u = free_evolution(g, 1.0, 256)
                nq = xsb_p_norm(u, s, b, q)
                np_ = xsb_p_norm(u, s, b, p)
                worst = max(worst, nq / (n_dyadic ** (1 / q - 1 / p) * np_))
        assert worst <= 4.0

    def test_homogeneity(self, st_corpus):
        f = st_corpus[0]
        u = free_evolution(f, 1.0, 256)
        v = free_evolution(Field(f.grid, (3.0 - 4.0j) * f.values), 1.0, 256)
        assert xsb_p_norm(v, 0.25, 0.5, 4.0) == pytest.approx(
            5.0 * xsb_p_norm(u, 0.25, 0.5, 4.0), rel=1e-12
        )

    @pytest.mark.parametrize("p", [0.5, math.nan])
    def test_p_below_one_refused_by_every_lp_norm(self, st_corpus, p):
        f = st_corpus[0]
        u = free_evolution(f, 1.0, 256)
        for norm in (
            lambda: modulation_norm(f, 0.0, p),
            lambda: fourier_lebesgue_norm(f, 0.0, p),
            lambda: xsb_p_norm(u, 0.0, 0.5, p),
        ):
            with pytest.raises(ValueError, match="p must satisfy p >= 1"):
                norm()

    def test_under_resolved_dispersion_rejected(self, st_grid):
        f = spectrum_field(st_grid, lambda xi: np.exp(-(((np.abs(xi) - 10.0) / 0.5) ** 2)))
        u = free_evolution(f, 1.0, 16)  # tau_max ~ 50 << 10^3
        coef = forward_transform(f).coefficients
        # the double transform and the private column-table route refuse alike
        messages = []
        for norm in (
            lambda: xsb_norm(u, 0.0, 0.5),
            lambda: xsb_p_norm(u, 0.0, 0.5, 4.0),
            lambda: free_xsb_norm(coef, st_grid, 1.0, 16, 0.0, 0.5),
            lambda: free_xsb_p_norm(coef, st_grid, 1.0, 16, 0.0, 0.5, 4.0),
        ):
            with pytest.raises(ResolutionError, match="K =") as info:
                norm()
            messages.append(str(info.value))
        assert len(set(messages)) == 1
        assert "need at least K = 1024 snapshots" in messages[0]


class TestFreeEvolutionRoute:
    # the private route takes u_hat and the column table; the public norms
    # take the windowed double transform of the free evolution's samples
    CASES = [(s, b) for s in (0.0, 0.25, -0.125) for b in (0.0, 0.51, 0.55, -0.48)]

    def assert_routes_agree(self, f, n_times):
        u = free_evolution(f, 1.0, n_times)
        coef = forward_transform(f).coefficients
        for s, b in self.CASES:
            assert free_xsb_norm(coef, f.grid, 1.0, n_times, s, b) == pytest.approx(
                xsb_norm(u, s, b), rel=1e-12, abs=0.0
            )
            for p in (1.0, 2.0, 4.0, INF):
                assert free_xsb_p_norm(coef, f.grid, 1.0, n_times, s, b, p) == pytest.approx(
                    xsb_p_norm(u, s, b, p), rel=1e-12, abs=0.0
                )

    @pytest.mark.parametrize("n_times", [256, 1024])
    @pytest.mark.parametrize("c", [1.0, 1e-200, 1e200j])
    def test_column_table_matches_double_transform(self, st_corpus, c, n_times):
        for f in st_corpus[::3]:
            self.assert_routes_agree(Field(f.grid, c * f.values), n_times)

    @pytest.mark.parametrize("c", [3.0 - 4.0j, 1e200, 1e-200])
    def test_scaled_datum_routes_agree(self, st_corpus, c):
        f = st_corpus[1]
        self.assert_routes_agree(Field(f.grid, c * f.values), 256)

    def test_free_evolution_is_a_plain_trajectory(self, st_corpus):
        u = free_evolution(st_corpus[0], 1.0, 256)
        assert not hasattr(u, "spectrum") and not hasattr(u, "scaled")
        assert np.array_equal(u.samples, free_evolution_samples_uncached(st_corpus[0], 1.0, 256))
        with pytest.raises(ValueError, match="read-only"):
            u.samples[0, 0] = 0.0

    @pytest.mark.parametrize("length", [80.0, 100.0])
    def test_free_evolution_bit_equal_longhand_at_other_lengths(self, st_corpus, length):
        # 1/L on the kernel factor against the longhand's division by dx, which
        # numpy carries out as a multiply by 1/dx = M/L
        f = Field(GridSpec(length=length, points=256), st_corpus[0].values)
        u = free_evolution(f, 1.0, 256)
        assert np.array_equal(u.samples, free_evolution_samples_uncached(f, 1.0, 256))


# the probes' compositions for the norms of a free evolution, from u_hat = coef


def free_xsb_norm(coef, g, t_window, n_times, s, b):
    return norms._xi_l2(*norms._free_tau_sums(coef, g, t_window, n_times, b), g, t_window, s)


def free_xsb_p_norm(coef, g, t_window, n_times, s, b, p):
    return norms._cube_lp(*norms._free_tau_sums(coef, g, t_window, n_times, b), g, t_window, s, p)


# test-local copies of the uncached table expressions


def free_evolution_samples_uncached(f, t_window, n_times):
    g = f.grid
    coef = forward_transform(f).coefficients
    t = (t_window / n_times) * np.arange(n_times)
    phases = np.exp(1j * np.outer(t, g.xi**3))
    return np.fft.ifft(g._phase()[None, :] * (phases * coef[None, :]), axis=1) / g.dx


def uncached_weight(u, b):
    tau = TWO_PI * np.fft.fftfreq(u.n_times, d=u.dt)
    return (1.0 + (tau[:, None] - u.grid.xi[None, :] ** 3) ** 2) ** b


def xsb_norm_uncached(u, s, b):
    # tau summed first, then the <xi>^s weight, as the free route does
    st = norms._space_time_coefficients(np.array(u.samples), u.grid, u.t_window)
    w_xi = norms._jap(u.grid.xi) ** (2.0 * s)
    a2, e = norms._scaled_squares(st)
    col = np.sum(np.multiply(uncached_weight(u, b), a2, out=a2), axis=0)
    total = np.sum(w_xi * col)
    dtau = TWO_PI / u.t_window
    return math.ldexp(float(np.sqrt(total * u.grid.dxi * dtau) / TWO_PI), e)


def xsb_p_norm_uncached(u, s, b, p):
    st = norms._space_time_coefficients(np.array(u.samples), u.grid, u.t_window)
    a2, e = norms._scaled_squares(st)
    col = np.sum(np.multiply(uncached_weight(u, b), a2, out=a2), axis=0)
    return cube_lp_uncached(u, col, e, s, p)


def cube_lp_uncached(u, col, e, s, p):
    xi = u.grid.xi
    dtau = TWO_PI / u.t_window
    col = col * u.grid.dxi * dtau / TWO_PI**2
    cubes = np.floor(xi).astype(int)
    n_values = np.arange(cubes.min(), cubes.max() + 1)
    block2 = np.zeros(n_values.size)
    np.add.at(block2, cubes - cubes.min(), col)
    return math.ldexp(norms._lp(norms._jap(n_values) ** s * np.sqrt(block2), p), e)


# the free route's references take u_hat = coef; u is the free evolution of
# coef and only lends its grid and window


def column_table_uncached(u, b):
    # H_b = sum_tau <tau - xi^3>^{2b} |G|^2, G = dt FFT_t[eta exp(i t xi^3)]
    phases = np.exp(1j * np.outer(u.times, u.grid.xi**3))
    gain = u.dt * np.fft.fft(u.cutoff[:, None] * phases, axis=0)
    return np.sum(uncached_weight(u, b) * (gain.real**2 + gain.imag**2), axis=0)


def xsb_norm_free_uncached(coef, u, s, b):
    w_xi = norms._jap(u.grid.xi) ** (2.0 * s)
    a2, e = norms._scaled_squares(coef)
    total = np.sum(w_xi * (column_table_uncached(u, b) * a2))
    dtau = TWO_PI / u.t_window
    return math.ldexp(float(np.sqrt(total * u.grid.dxi * dtau) / TWO_PI), e)


def xsb_p_norm_free_uncached(coef, u, s, b, p):
    a2, e = norms._scaled_squares(coef)
    return cube_lp_uncached(u, column_table_uncached(u, b) * a2, e, s, p)


# test-local allocating longhand of the transform pipeline, in the operand
# order of the library


def coefficients_longhand(values, g):
    return g.dx * g._phase() * np.fft.fft(values, axis=-1)


def samples_longhand(coef, g):
    return np.fft.ifft(g._phase() * coef, axis=-1) / g.dx


def space_time_coefficients_longhand(u):
    spatial = coefficients_longhand(u.cutoff[:, None] * u.samples, u.grid)
    return u.dt * np.fft.fft(spatial, axis=0)


def tau_sums_longhand(u, b):
    # one whole (K, M) |st|^2 array, weighted and summed over tau at once
    st = norms._space_time_coefficients(np.array(u.samples), u.grid, u.t_window)
    a2, e = norms._scaled_squares(st)
    return np.sum(uncached_weight(u, b) * a2, axis=0), e


def phases_longhand(g, t_window, n_times):
    t = (t_window / n_times) * np.arange(n_times)
    return np.exp(1j * np.outer(t, g.xi**3))


class TestInPlacePipeline:
    # dx = 100 / 512 is not a power of two, so scaling by dx rounds
    @pytest.mark.parametrize("length, points", [(100.0, 512), (64.0, 256)])
    @pytest.mark.parametrize("k", [16, 256, 1024])
    def test_matches_allocating_longhand_and_leaves_inputs(self, length, points, k):
        g = GridSpec(length=length, points=points)
        rng = np.random.default_rng(points + k)
        stack = rng.standard_normal((k, points)) + 1j * rng.standard_normal((k, points))
        kept = stack.copy()
        coef = _coefficients(stack, g)
        assert np.array_equal(stack, kept)
        assert np.array_equal(coef, coefficients_longhand(stack, g))
        kept = coef.copy()
        back = _samples(coef, g)
        assert np.array_equal(coef, kept)
        assert np.array_equal(back, samples_longhand(coef, g))
        # |xi| <= 2 keeps the dispersion resolved at K = 16 over a unit window
        band = samples_longhand(np.where(np.abs(g.xi) <= 2.0, coef, 0.0), g)
        u = SpaceTimeField(g, 1.0, band)
        kept = u.samples.copy()
        st = norms._space_time_coefficients(np.array(u.samples), g, 1.0)
        assert np.array_equal(u.samples, kept)
        assert np.array_equal(st, space_time_coefficients_longhand(u))

    @pytest.mark.parametrize("norm", [
        lambda u: xsb_norm(u, 0.25, 0.51),
        lambda u: xsb_p_norm(u, 0.25, 0.51, 4.0),
    ], ids=["xsb_norm", "xsb_p_norm"])
    def test_warm_norm_holds_one_and_a_half_trajectories(self, st_corpus, norm):
        # with warm caches: the samples' copy and row blocks; a whole real
        # |st|^2 array beside it would make it 1.5, a (K, M) product of the
        # xi and tau weights 2.0
        import tracemalloc

        u = free_evolution(st_corpus[0], 1.0, 1024)
        norm(u)
        tracemalloc.start()
        try:
            norm(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * u.samples.nbytes


class TestRowBlockTauSums:
    # the tau-sums are formed per block of _PRODUCT_ROWS rows, each block's
    # first row carrying the sums of the rows before it

    @staticmethod
    def assert_matches_whole_array(u, b):
        col, e = norms._tau_sums(np.array(u.samples), u.grid, u.t_window, b)
        want, e_want = tau_sums_longhand(u, b)
        assert e == e_want
        assert np.array_equal(col, want)

    @pytest.mark.parametrize("i", [0, 160])
    def test_frozen_corpus_trilinear_products(self, i):
        # the trilinear family's numerator trajectory of triple i, K = 1024
        fields, g = probes.make_probe_corpus(), probes.CORPUS_GRID
        coefs = [_coefficients(probes._band_limit(fields[j], 4.0).values, g)
                 for j in (i, (i + 7) % 200, (i + 23) % 200)]
        factors = (coefs[0], coefs[1], 1j * g.xi * coefs[2])
        product = norms._free_product(factors, g, 1.0, norms._window_taper(1.0, 1024), conj=(1,))
        self.assert_matches_whole_array(SpaceTimeField(g, 1.0, product), -0.48)

    def test_non_free_trajectory_of_512_rows(self, st_grid, st_corpus):
        rng = np.random.default_rng(5)
        samples = np.stack([st_corpus[i % 12].values for i in range(512)])
        u = SpaceTimeField(st_grid, 0.5, samples * rng.standard_normal((512, 1)))
        for b in (0.0, 0.51, -0.48):
            self.assert_matches_whole_array(u, b)

    def test_fewer_rows_than_one_block(self, st_grid):
        k = 16
        assert k < norms._PRODUCT_ROWS
        rng = np.random.default_rng(16)
        coef = np.where(np.abs(st_grid.xi) <= 2.0, rng.standard_normal(st_grid.points), 0.0)
        band = samples_longhand(coef, st_grid)
        u = SpaceTimeField(st_grid, 1.0, band[None, :] * rng.standard_normal((k, 1)))
        self.assert_matches_whole_array(u, 0.51)


class TestCachedTables:
    def test_interleaved_windows_grids_and_b_match_uncached(self, st_corpus):
        # 2 grid lengths x 2 snapshot counts x 2 values of b, visited in three
        # interleaved passes: 8 weight keys overflow that cache, so entries
        # are evicted, rebuilt and reused between the checks
        cases = []
        for length in (64.0, 128.0):
            grid = GridSpec(length=length, points=256)
            f = Field(grid, st_corpus[0].values)
            for n_times in (256, 1024):
                for b in (0.55, -0.48):
                    cases.append((f, n_times, b))
        for f, n_times, b in cases + cases[::-1] + cases[::3]:
            u = free_evolution(f, 1.0, n_times)
            coef = forward_transform(f).coefficients
            assert np.array_equal(u.samples, free_evolution_samples_uncached(f, 1.0, n_times))
            assert xsb_norm(u, 0.25, b) == xsb_norm_uncached(u, 0.25, b)
            assert xsb_p_norm(u, 0.25, b, 4.0) == xsb_p_norm_uncached(u, 0.25, b, 4.0)
            free = (coef, f.grid, 1.0, n_times, 0.25, b)
            assert free_xsb_norm(*free) == xsb_norm_free_uncached(coef, u, 0.25, b)
            assert free_xsb_p_norm(*free, 4.0) == xsb_p_norm_free_uncached(
                coef, u, 0.25, b, 4.0
            )

    def test_norms_of_non_free_trajectories_match_uncached(self, st_grid, st_corpus):
        rng = np.random.default_rng(5)
        samples = np.stack([st_corpus[i % 12].values for i in range(512)])
        u = SpaceTimeField(st_grid, 0.5, samples * rng.standard_normal((512, 1)))
        for b in (0.0, 0.51, -0.48):
            assert xsb_norm(u, -0.125, b) == xsb_norm_uncached(u, -0.125, b)
            for p in (1.0, 2.0, INF):
                assert xsb_p_norm(u, 0.25, b, p) == xsb_p_norm_uncached(u, 0.25, b, p)

    def test_probe_corpus_tables_stay_resident(self, monkeypatch):
        # a run of the corpus families asks for each table in one unbroken run
        # of requests, so keeping the last table of each kind builds each one
        # once (phases for K = 256, 1024, the numerators' weight, columns for
        # two b); a column table keeps no weight
        from mkdvlab import probes

        g = probes.CORPUS_GRID
        expected = {
            norms._airy_phases: [(g, 1.0, 256), (g, 1.0, 1024)],
            norms._modulation_weight: [(g, 1.0, 1024, -0.48)],
            norms._column_table: [(g, 1.0, 256, 0.55), (g, 1.0, 1024, 0.51)],
        }
        requested, builds = {}, {}
        for name in ("_airy_phases", "_modulation_weight", "_column_table"):
            cache = getattr(norms, name)
            cache.tables.clear()
            keys = requested[cache] = []
            built = builds[cache] = []

            def recording(*key, cache=cache, keys=keys, built=built):
                keys.append(key)
                if key not in cache.tables:
                    built.append(key)
                return cache(*key)

            for module in (norms, probes):
                if getattr(module, name, None) is cache:
                    monkeypatch.setattr(module, name, recording)
        probes.run_probe_suite(
            ["bilinear_cube", "bilinear_lp", "trilinear"], corpus_seed=7, corpus_size=20
        )
        for cache, keys in requested.items():
            assert len(keys) > len(set(keys))
            assert builds[cache] == expected[cache]
            assert list(cache.tables) == expected[cache][-1:]

    @pytest.mark.parametrize("call", [
        lambda f: free_evolution(f, 1.0, 100),
        lambda f: free_evolution(f, -1.0, 256),
        lambda f: probes.trilinear_ratio(f, f, f, 0.25, 4.0, n_times=100),
    ], ids=["free_evolution-K", "free_evolution-T_w", "trilinear_ratio-K"])
    def test_refused_window_keeps_the_kept_phase_table(self, call):
        f = probes.make_probe_corpus(size=1)[0]
        kept = norms._airy_phases(f.grid, 1.0, 256)
        with pytest.raises(ValueError, match="power of two|positive and finite"):
            call(f)
        assert list(norms._airy_phases.tables) == [(f.grid, 1.0, 256)]
        assert norms._airy_phases.tables[(f.grid, 1.0, 256)] is kept

    def test_retention_within_budget_after_large_trilinear_grids(self):
        # M = 512, K = 1024 and M = 1024, K = 2048: tables of 4 to 32 MiB
        from mkdvlab.probes import _band_limit, trilinear_ratio
        from mkdvlab.solitons import SolitonParams, soliton_field

        for points, n_times in ((512, 1024), (1024, 2048)):
            grid = GridSpec(length=128.0, points=points)
            u = _band_limit(soliton_field(SolitonParams(carrier=2.0, scale=0.5), 0.0, grid), 4.0)
            trilinear_ratio(u, u, u, 0.25, 4.0, n_times=n_times)
        for cache in (norms._airy_phases, norms._modulation_weight):
            assert 0 < sum(t.nbytes for t in cache.tables.values()) <= norms._TABLE_CACHE_BYTES
        assert (grid, 1.0, 2048) not in norms._airy_phases.tables

    def test_cold_large_trilinear_builds_the_phase_table_twice(self, monkeypatch):
        # the 32 MiB phase table of M = 1024, K = 2048 exceeds the budget, so
        # each request builds it: one for the factor samples and one for a
        # cold column table; with the column table warm, one per ratio call
        from mkdvlab import probes
        from mkdvlab.solitons import SolitonParams, soliton_field

        cache, builds = norms._airy_phases, []

        def counting(*key):
            if key not in cache.tables:
                builds.append(key)
            return cache(*key)

        monkeypatch.setattr(norms, "_airy_phases", counting)
        grid = GridSpec(length=128.0, points=1024)
        u = probes._band_limit(soliton_field(SolitonParams(carrier=2.0, scale=0.5), 0.0, grid), 4.0)
        norms._column_table.tables.clear()
        probes.trilinear_ratio(u, u, u, 0.25, 4.0, n_times=2048)
        assert builds == [(grid, 1.0, 2048)] * 2
        probes.trilinear_ratio(u, u, u, 0.25, 4.0, n_times=2048)
        assert builds == [(grid, 1.0, 2048)] * 3

    def test_tables_are_read_only(self, st_grid):
        phases = norms._airy_phases(st_grid, 1.0, 256)
        weight = norms._modulation_weight(st_grid, 1.0, 256, 0.55)
        for table in (phases, weight):
            assert table.shape == (256, st_grid.points)
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0


class TestPhaseTables:
    # The first two names date from strided-view phase tables. Every window now
    # has a table of its own: they check its values against the longhand, with
    # the windows requested fine first and coarse first, and that the memo
    # keeps only the last table, never a finer one behind a coarser window.

    @pytest.mark.parametrize("t_window", [1.0, 0.3])
    def test_coarser_windows_are_views_of_the_finer_table(self, st_grid, t_window):
        for k in (1024, 512, 256):
            phases = norms._airy_phases(st_grid, t_window, k)
            assert np.array_equal(phases, phases_longhand(st_grid, t_window, k))
        assert list(norms._airy_phases.tables) == [(st_grid, t_window, 256)]

    def test_finer_build_turns_cached_coarser_entries_into_views(self, st_grid):
        for t_window in (1.0, 0.3):
            for k in (256, 512, 1024):
                phases = norms._airy_phases(st_grid, t_window, k)
                assert np.array_equal(phases, phases_longhand(st_grid, t_window, k))
            assert list(norms._airy_phases.tables) == [(st_grid, t_window, 1024)]

    def test_a_new_key_that_fits_replaces_the_kept_table(self, st_grid):
        first = norms._airy_phases(st_grid, 1.0, 256)
        assert norms._airy_phases(st_grid, 1.0, 256) is first
        second = norms._airy_phases(st_grid, 0.3, 256)
        assert list(norms._airy_phases.tables) == [(st_grid, 0.3, 256)]
        assert norms._airy_phases.tables[(st_grid, 0.3, 256)] is second


class TestTableMemory:
    # tracemalloc peaks of the table builds against the table they return

    def test_cold_weight_build_peaks_at_its_table(self):
        weight, peak = traced_peak(lambda: norms._weight(probes.CORPUS_GRID, 1.0, 1024, -0.48))
        assert peak <= 1.05 * weight.nbytes

    def test_cold_phase_build_peaks_at_its_table(self):
        norms._airy_phases.tables.clear()
        phases, peak = traced_peak(lambda: norms._airy_phases(probes.CORPUS_GRID, 1.0, 1024))
        assert peak <= 1.05 * phases.nbytes
