"""Tests for the periodic spectral substrate."""

import numpy as np
import pytest
from scipy.integrate import quad

from mkdvlab.io import write_field, write_trajectory
from mkdvlab.norms import SpaceTimeField, cube_l2_profile, modulation_norm
from mkdvlab.solitons import SolitonParams, soliton_field
from mkdvlab.solver import SolverConfig, evolve, nonlinearity, step
from mkdvlab.spectral import (
    Field,
    GridSpec,
    OffsetGridError,
    ResolutionError,
    SpectralField,
    _coefficients,
    _samples,
    airy_propagator,
    cos2_window,
    derivative,
    dyadic_mask,
    forward_transform,
    fourier_multiplier,
    inverse_transform,
    littlewood_paley,
    quartic_window,
    unit_cube_project,
)


@pytest.fixture
def grid():
    return GridSpec(length=128.0, points=4096)


@pytest.fixture
def small_grid():
    return GridSpec(length=64.0, points=512)


def gaussian_bump(grid, width=2.0, carrier=0.0, seed=None):
    x = grid.x
    vals = np.exp(-((x / width) ** 2)) * np.exp(1j * carrier * x)
    if seed is not None:
        rng = np.random.default_rng(seed)
        vals = vals * (1.0 + 0.3 * rng.standard_normal())
    return Field(grid, vals)


class TestGridSpec:
    def test_derived_quantities(self, grid):
        assert grid.dx * grid.points == pytest.approx(grid.length)
        assert grid.dxi * grid.points == pytest.approx(2 * grid.xi_nyquist)
        assert grid.dxi <= 0.125

    def test_rejects_non_power_of_two(self):
        for points in (1000, 256.0):
            with pytest.raises(ValueError, match="power of two"):
                GridSpec(length=128.0, points=points)
        assert GridSpec(length=128.0, points=np.int64(256)) == GridSpec(length=128.0, points=256)

    def test_rejects_coarse_frequency_lattice(self):
        # L = 32 gives dxi = 2 pi / 32 > 1/8
        with pytest.raises(ValueError, match="dxi"):
            GridSpec(length=32.0, points=256)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            GridSpec(length=-1.0, points=256)


class TestField:
    def test_rejects_non_finite(self, small_grid):
        vals = np.zeros(small_grid.points, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Field(small_grid, vals)

    def test_rejects_wrong_length(self, small_grid):
        with pytest.raises(ValueError, match="samples"):
            Field(small_grid, np.zeros(small_grid.points + 1, dtype=complex))

    def test_values_immutable(self, small_grid):
        f = Field.zero(small_grid)
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestTransforms:
    def test_constant_field_is_delta_at_zero(self, grid):
        f = Field(grid, np.ones(grid.points, dtype=complex))
        F = forward_transform(f)
        k0 = np.argmin(np.abs(grid.xi))
        assert F.coefficients[k0] == pytest.approx(grid.length, rel=1e-13)
        rest = np.delete(np.abs(F.coefficients), k0)
        assert np.max(rest) < 1e-10 * grid.length

    def test_sech_matches_closed_form_transform(self, grid):
        # u = sech has continuum transform pi sech(pi xi / 2)
        f = Field.from_function(grid, lambda x: 1.0 / np.cosh(x))
        F = forward_transform(f)
        sel = np.abs(grid.xi) <= 20.0
        expected = np.pi / np.cosh(np.pi * grid.xi[sel] / 2.0)
        assert np.max(np.abs(F.coefficients[sel] - expected)) < 1e-10

    def test_modulation_shifts_spectrum(self, grid):
        carrier = 8.0
        f = Field.from_function(grid, lambda x: 1.0 / np.cosh(x))
        fm = Field.from_function(grid, lambda x: np.exp(1j * carrier * x) / np.cosh(x))
        Fm = forward_transform(fm)
        sel = np.abs(grid.xi - carrier) <= 20.0
        expected = np.pi / np.cosh(np.pi * (grid.xi[sel] - carrier) / 2.0)
        assert np.max(np.abs(Fm.coefficients[sel] - expected)) < 1e-10

    def test_roundtrip_identity(self, grid):
        rng = np.random.default_rng(7)
        vals = np.exp(-((grid.x / 5.0) ** 2)) * (
            rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)
        )
        f = Field(grid, vals)
        back = inverse_transform(forward_transform(f))
        scale = np.max(np.abs(vals))
        assert np.max(np.abs(back.values - vals)) < 1e-12 * scale

    def test_delta_coefficient_inverts_to_constant(self, grid):
        coef = np.zeros(grid.points, dtype=complex)
        coef[0] = grid.length
        f = inverse_transform(SpectralField(grid, coef))
        assert np.max(np.abs(f.values - 1.0)) < 1e-12

    def test_inverse_of_sech_spectrum_checked_by_quadrature(self, grid):
        # quadrature oracle: (2 pi)^{-1} int pi sech(pi xi/2) e^{i xi x} dxi = sech(x)
        for x0 in (0.0, 0.7, -2.3):
            val, _ = quad(
                lambda xi, x0=x0: np.cos(xi * x0) / np.cosh(np.pi * xi / 2) / 2.0,
                0,
                60,
                limit=200,
            )
            assert 2 * val == pytest.approx(1.0 / np.cosh(x0), abs=1e-12)
        coef = np.pi / np.cosh(np.pi * grid.xi / 2.0)
        f = inverse_transform(SpectralField(grid, coef.astype(complex)))
        assert np.max(np.abs(f.values - 1.0 / np.cosh(grid.x))) < 1e-10

    def test_plancherel(self, grid):
        rng = np.random.default_rng(3)
        vals = np.exp(-((grid.x / 7.0) ** 2)) * (
            rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)
        )
        f = Field(grid, vals)
        F = forward_transform(f)
        phys = np.sum(np.abs(f.values) ** 2) * grid.dx
        spec = np.sum(np.abs(F.coefficients) ** 2) * grid.dxi / (2 * np.pi)
        assert spec == pytest.approx(phys, rel=1e-12)


class TestDerivative:
    def test_constant_has_zero_derivative(self, small_grid):
        f = Field(small_grid, np.ones(small_grid.points, dtype=complex))
        d = derivative(f, 1)
        assert np.max(np.abs(d.values)) < 1e-12

    def test_product_rule_on_modulated_bump(self, grid):
        # d_x [e^{iNx} b(x)] = iN e^{iNx} b + e^{iNx} b', with b a Gaussian
        carrier = grid.dxi * round(8.0 / grid.dxi)
        b = np.exp(-((grid.x / 3.0) ** 2))
        bp = -2.0 * grid.x / 9.0 * b
        f = Field(grid, np.exp(1j * carrier * grid.x) * b)
        d = derivative(f, 1)
        expected = np.exp(1j * carrier * grid.x) * (1j * carrier * b + bp)
        assert np.max(np.abs(d.values - expected)) < 1e-8

    def test_third_derivative_of_sech(self, grid):
        # symbolic oracle: sech''' = sech tanh (6 sech^2 - tanh^2) ... derived below
        x = grid.x
        s, t = 1.0 / np.cosh(x), np.tanh(x)
        # sech' = -s t; sech'' = s - 2 s^3; sech''' = (s - 2 s^3)' = -s t + 6 s^3 t
        expected = -s * t + 6.0 * s**3 * t
        f = Field(grid, s.astype(complex))
        d = derivative(f, 3)
        assert np.max(np.abs(d.values - expected)) < 1e-8

    def test_rejects_negative_order(self, small_grid):
        with pytest.raises(ValueError):
            derivative(Field.zero(small_grid), -1)


class TestLittlewoodPaley:
    def test_partition_reconstructs_band_limited_field(self, small_grid):
        rng = np.random.default_rng(11)
        coef = np.where(
            np.abs(small_grid.xi) <= 16.0,
            rng.standard_normal(small_grid.points)
            + 1j * rng.standard_normal(small_grid.points),
            0.0,
        )
        f = inverse_transform(SpectralField(small_grid, coef))
        total = np.zeros(small_grid.points, dtype=complex)
        n = 1
        while n <= 16:
            total += littlewood_paley(f, n).values
            n *= 2
        assert np.max(np.abs(total - f.values)) < 1e-12 * np.max(np.abs(f.values))

    def test_idempotent(self, small_grid):
        f = gaussian_bump(small_grid, width=1.0, carrier=3.0)
        once = littlewood_paley(f, 4)
        twice = littlewood_paley(once, 4)
        assert np.max(np.abs(twice.values - once.values)) < 1e-13

    def test_mass_capture_by_annulus(self, small_grid):
        f = gaussian_bump(small_grid, width=8.0, carrier=3.0)
        p4 = littlewood_paley(f, 4)
        p1 = littlewood_paley(f, 1)
        assert p4.l2_norm() > 0.99 * f.l2_norm()
        assert p1.l2_norm() < 1e-6 * f.l2_norm()

    def test_rejects_above_nyquist(self, small_grid):
        f = Field.zero(small_grid)
        with pytest.raises(ResolutionError):
            littlewood_paley(f, 64)

    # a numpy warning raised in place of the named error fails the test
    @pytest.mark.filterwarnings("error")
    def test_rejects_non_dyadic(self, small_grid):
        for n_dyadic in (3, np.inf, np.nan, 0, -4):
            with pytest.raises(ValueError, match="dyadic"):
                littlewood_paley(Field.zero(small_grid), n_dyadic)


class TestUnitCubeWindows:
    @pytest.mark.parametrize("window", [cos2_window, quartic_window])
    def test_partition_of_unity_on_lattice(self, small_grid, window):
        xi = small_grid.xi
        total = np.zeros_like(xi)
        for n in range(int(np.floor(xi.min())) - 1, int(np.ceil(xi.max())) + 2):
            total += window(xi - n)
        assert np.max(np.abs(total - 1.0)) < 1e-14

    def test_cos2_pointwise_values(self):
        assert cos2_window(np.array([0.0]))[0] == pytest.approx(1.0)
        assert cos2_window(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-15)
        assert cos2_window(np.array([-1.0]))[0] == pytest.approx(0.0, abs=1e-15)
        assert cos2_window(np.array([0.5]))[0] == pytest.approx(0.5, rel=1e-14)

    def test_projectors_sum_to_identity_on_band_limited_field(self, small_grid):
        k_cap = 7
        rng = np.random.default_rng(5)
        coef = np.where(
            np.abs(small_grid.xi) <= k_cap - 1,
            rng.standard_normal(small_grid.points)
            + 1j * rng.standard_normal(small_grid.points),
            0.0,
        )
        f = inverse_transform(SpectralField(small_grid, coef))
        total = np.zeros(small_grid.points, dtype=complex)
        for n in range(-k_cap, k_cap + 1):
            total += unit_cube_project(f, n).values
        assert np.max(np.abs(total - f.values)) < 1e-13 * np.max(np.abs(f.values))

    def test_disjoint_windows_compose_to_zero(self, small_grid):
        f = gaussian_bump(small_grid, width=0.5, carrier=5.0)
        for n, m in [(5, 7), (5, 3), (-2, 0)]:
            g = unit_cube_project(unit_cube_project(f, n), m)
            assert np.max(np.abs(g.values)) < 1e-14 * np.max(np.abs(f.values))

    def test_cube_mass_matches_quadrature_oracle(self):
        # wide-in-frequency field e^{i 8 x} sech(x / 0.1): spectrum
        # 0.1 pi sech(0.05 pi (xi - 8)); compare captured mass per cube to quadrature
        # (box L = 256: the lattice-sum error from the window edges decays ~ L^-4)
        grid = GridSpec(length=256.0, points=8192)
        w = 0.1
        f = Field.from_function(
            grid, lambda x: np.exp(1j * 8.0 * x) / np.cosh(np.clip(x / w, -700, 700))
        )
        proj = unit_cube_project(f, 8)
        got = proj.l2_norm() ** 2

        def integrand(xi):
            spec = w * np.pi / np.cosh(0.5 * np.pi * w * (xi - 8.0))
            return (cos2_window(np.array([xi - 8.0]))[0] * spec) ** 2 / (2 * np.pi)

        expected, _ = quad(integrand, 7.0, 9.0, limit=200)
        assert got == pytest.approx(expected, rel=1e-8)

    def test_rejects_cube_outside_band(self, small_grid):
        n_bad = int(small_grid.xi_max) + 1
        with pytest.raises(ResolutionError, match="cube"):
            unit_cube_project(Field.zero(small_grid), n_bad)


class TestAiryPropagator:
    def test_zero_time_is_identity(self, small_grid):
        f = gaussian_bump(small_grid, width=2.0, carrier=1.0)
        g = airy_propagator(f, 0.0)
        assert np.max(np.abs(g.values - f.values)) < 1e-14

    def test_mass_conservation(self, small_grid):
        rng = np.random.default_rng(13)
        vals = np.exp(-((small_grid.x / 6.0) ** 2)) * (
            rng.standard_normal(small_grid.points)
            + 1j * rng.standard_normal(small_grid.points)
        )
        f = Field(small_grid, vals)
        g = airy_propagator(f, 1.0)
        assert g.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-12)

    def test_group_law(self, small_grid):
        f = gaussian_bump(small_grid, width=2.0, carrier=2.0)
        a = airy_propagator(airy_propagator(f, 0.3), 0.45)
        b = airy_propagator(f, 0.75)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_group_velocity_of_modulated_packet(self):
        # packet at carrier N moves at -3 N^2 for small t
        grid = GridSpec(length=256.0, points=8192)
        carrier, t = 16.0, 0.01
        width = 8.0  # wide enough that quadratic dispersion stays below tolerance
        f = Field.from_function(
            grid, lambda x: np.exp(1j * carrier * x) * np.exp(-((x / width) ** 2))
        )
        moved = airy_propagator(f, t)
        shift = 3.0 * carrier**2 * t
        predicted = Field.from_function(
            grid,
            lambda x: np.exp(1j * carrier * (x + shift))
            * np.exp(-(((x + shift) / width) ** 2)),
        )
        # compare envelopes: phases differ by dispersive corrections
        err = np.abs(np.abs(moved.values) - np.abs(predicted.values))
        assert np.max(err) < 1e-3 * np.max(np.abs(f.values))


def symmetric_cube_profile(f, window=cos2_window):
    """The cube profile as computed before offset grids: cubes |n| <= xi_max - 1."""
    g = f.grid
    a2 = np.abs(forward_transform(f).coefficients) ** 2
    xi = 2.0 * np.pi * np.fft.fftfreq(g.points, d=g.dx)
    n_max = int(np.floor(g.xi_max - 1.0))
    n_floor = np.floor(xi).astype(int)
    masses2 = np.zeros(2 * n_max + 1)
    for shift in (0, 1):
        n_tgt = n_floor + shift
        w2 = window(xi - n_tgt) ** 2 * a2
        sel = (n_tgt >= -n_max) & (n_tgt <= n_max)
        np.add.at(masses2, n_tgt[sel] + n_max, w2[sel])
    masses2 *= g.dxi / (2.0 * np.pi)
    return np.arange(-n_max, n_max + 1), np.sqrt(masses2)


def unshifted_soliton(params, t, grid):
    """The soliton samples as computed before offset grids (no phase reduction)."""
    n, lam = params.carrier, params.scale
    raw = grid.x + (3.0 * n**2 - lam**2) * t
    j = np.round(raw / grid.length)
    phase = (n**3 - 3.0 * n * lam**2) * t + n * (grid.x - j * grid.length)
    return (lam / np.sqrt(6.0)) * np.exp(1j * phase) / np.cosh(lam * (raw - j * grid.length))


class TestOffsetGrid:
    """Heterodyned grids: fields store exp(-i xi0 x) u, xi0 = offset * dxi."""

    pair = (40.0, 40.3)
    scale = 0.5

    @pytest.fixture(scope="class")
    def grids(self):
        full = GridSpec(length=256.0, points=8192)
        offset = 2 * round(sum(self.pair) / 2 / (2 * full.dxi))
        return full, GridSpec(length=256.0, points=1024, offset=offset)

    def test_offset_zero_keeps_the_bits(self, small_grid):
        g = small_grid
        assert GridSpec(g.length, g.points, offset=0) == g
        assert np.array_equal(g.xi, 2.0 * np.pi * np.fft.fftfreq(g.points, d=g.dx))
        params = SolitonParams(carrier=6.0, scale=1.0)
        u = soliton_field(params, 0.0, g)
        assert np.array_equal(u.values, unshifted_soliton(params, 0.0, g))
        for f in (u, gaussian_bump(g, width=1.5, carrier=-3.0, seed=4)):
            n_ref, m_ref = symmetric_cube_profile(f)
            n_values, masses = cube_l2_profile(f)
            assert np.array_equal(n_values, n_ref)
            assert np.array_equal(masses, m_ref)
        # at t != 0 only the rounding of the reduced rotation differs
        ut = soliton_field(params, 0.7, g)
        assert np.max(np.abs(ut.values - unshifted_soliton(params, 0.7, g))) < 1e-13

    def test_true_frequencies_and_band(self, grids):
        _, g = grids
        assert g.xi0 == g.offset * g.dxi
        assert np.allclose(g.xi, g.xi0 + 2.0 * np.pi * np.fft.fftfreq(g.points, d=g.dx))
        lo, hi = g.band
        assert hi - g.xi0 == pytest.approx(g.xi_max) and g.xi0 - lo == pytest.approx(g.xi_max)
        assert lo < self.pair[0] - 10 and hi > self.pair[1] + 10

    @pytest.mark.parametrize("offset", [1, -3, 2.0, 2.5, "2", True, None])
    def test_rejects_odd_or_non_integer_offsets(self, offset):
        with pytest.raises(ValueError, match="even integer"):
            GridSpec(length=64.0, points=256, offset=offset)

    def test_grids_differing_only_in_offset_mismatch(self, small_grid):
        shifted = GridSpec(small_grid.length, small_grid.points, offset=2)
        with pytest.raises(ValueError, match="grids differ"):
            Field.zero(small_grid).inner(Field.zero(shifted))

    def test_pair_masses_and_norms_match_full_grid(self, grids):
        full, centred = grids
        pa, pb = (SolitonParams(carrier=n, scale=self.scale) for n in self.pair)
        for t in (0.0, 1.0):
            fields = []
            for g in (full, centred):
                ua, ub = soliton_field(pa, t, g), soliton_field(pb, t, g)
                fields.append((ua, Field(g, ua.values - ub.values)))
            for f_full, f_centred in zip(fields[0], fields[1]):
                n_full, m_full = cube_l2_profile(f_full)
                n_c, m_c = cube_l2_profile(f_centred)
                common = np.isin(n_full, n_c)
                assert np.allclose(
                    m_c[np.isin(n_c, n_full)], m_full[common], rtol=0, atol=1e-12 * m_full.max()
                )
                for s, p in [(0.125, 4.0), (-0.25, 2.0), (0.0, np.inf)]:
                    assert modulation_norm(f_centred, s, p) == pytest.approx(
                        modulation_norm(f_full, s, p), rel=1e-12
                    )
                cube = round(self.pair[0])
                assert unit_cube_project(f_centred, cube).l2_norm() == pytest.approx(
                    unit_cube_project(f_full, cube).l2_norm(), rel=1e-12
                )

    def test_resolution_checks_follow_the_band(self, grids):
        _, g = grids
        lo, hi = g.band
        f = Field.zero(g)
        unit_cube_project(f, round(g.xi0))
        for n in (0, round(lo), round(hi)):
            with pytest.raises(ResolutionError, match="needs the band"):
                unit_cube_project(f, n)
        with pytest.raises(ResolutionError, match="unresolved carrier"):
            soliton_field(SolitonParams(carrier=self.pair[0] / 2, scale=self.scale), 0.0, g)
        # the band edge is the largest |xi| on the grid, on either side of zero
        mirrored = GridSpec(g.length, g.points, offset=-g.offset)
        for h in (f, Field.zero(mirrored)):
            littlewood_paley(h, 32.0)
            with pytest.raises(ResolutionError, match="band edge"):
                littlewood_paley(h, 64.0)

    def test_products_and_writers_refuse_offset_grids(self, grids, tmp_path):
        _, g = grids
        u = soliton_field(SolitonParams(carrier=self.pair[0], scale=self.scale), 0.0, g)
        refusals = [
            lambda: nonlinearity(u),
            lambda: step(u, 1e-4, SolverConfig(dt=1e-4)),
            lambda: evolve(u, 1e-3, SolverConfig(dt=1e-4)).final,
            lambda: Field.from_function(g, np.cos),
            lambda: write_field(tmp_path / "f.bin", u),
            lambda: write_trajectory(
                tmp_path / "t.bin", SpaceTimeField(g, 1.0, np.zeros((2, g.points))), 0.5, 1
            ),
        ]
        for refused in refusals:
            with pytest.raises(OffsetGridError, match="needs an offset-0 grid"):
                refused()
        assert not list(tmp_path.iterdir())


class TestOneConvention:
    """Every multiplier and the (K, M) pair follow the one dx-weighted convention."""

    # dx = 100 / 512 is not a power of two, so scaling by dx rounds
    grid = GridSpec(length=100.0, points=512)

    def multipliers(self):
        xi = self.grid.xi
        return [
            (lambda f: derivative(f, 2), (1j * xi) ** 2),
            (lambda f: littlewood_paley(f, 4.0), dyadic_mask(xi, 4.0)),
            (lambda f: unit_cube_project(f, 3), cos2_window(xi - 3)),
            (lambda f: airy_propagator(f, 0.3), np.exp(1j * xi**3 * 0.3)),
        ]

    def test_operators_are_their_multiplier(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(self.grid.points) + 1j * rng.standard_normal(self.grid.points)
        f = Field(self.grid, z)
        for op, symbol in self.multipliers():
            want = inverse_transform(
                SpectralField(self.grid, symbol * forward_transform(f).coefficients)
            ).values
            assert np.array_equal(fourier_multiplier(f, symbol).values, want)
            assert np.array_equal(op(f).values, want)

    @pytest.mark.parametrize("length, points, k", [(64.0, 256, 1024), (100.0, 512, 16), (128.0, 4096, 4)])
    def test_pair_rows_match_field_transforms(self, length, points, k):
        g = GridSpec(length=length, points=points)
        rng = np.random.default_rng(points + k)
        stack = rng.standard_normal((k, points)) + 1j * rng.standard_normal((k, points))
        coef = _coefficients(stack, g)
        back = _samples(coef, g)
        for row in range(k):
            assert np.array_equal(coef[row], forward_transform(Field(g, stack[row])).coefficients)
            assert np.array_equal(
                back[row], inverse_transform(SpectralField(g, coef[row])).values
            )
