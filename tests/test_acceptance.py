"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4b (initial-difference log-log slope over carriers 2^4..2^10) is
known to fail at the stated tolerance: the measured slope is -0.176 against
the required -0.25 +/- 15%, because the smooth-window modulation norm carries
an O(N^{-1/2}) shape transient at scale lam = N^{-1/4} and the stated carrier
range is pre-asymptotic.  The test still asserts the stated tolerance (and
therefore fails); the separately labeled extended-range check below verifies
that the slope does reach the predicted exponent once the asymptotic regime
starts.  See the README acceptance-status section for the full analysis.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import kendalltau

from mkdvlab.illposed import (
    AGREEMENT_TOL,
    DIFF_FLOOR,
    ExperimentPlan,
    fit_exponent,
    run_sweep,
    verify_lemma,
)
from mkdvlab.norms import (
    fourier_lebesgue_norm,
    modulation_norm,
    sobolev_norm,
)
from mkdvlab.probes import (
    _measure,
    apriori_tracking,
    bilinear_ratio_cube,
    bilinear_ratio_lp,
    corpus_hash,
    load_calibration,
    make_probe_corpus,
    resonance_max_deviation,
    trilinear_ratio,
    _band_limit,
)
from mkdvlab.solitons import SolitonParams, pair_overlap, soliton_field, soliton_modulation_norm
from mkdvlab.solver import SolverConfig, evolve, invariants
from mkdvlab.spectral import (
    Field,
    GridSpec,
    SpectralField,
    cos2_window,
    inverse_transform,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


def rel_l2(a: Field, b: Field) -> float:
    num = np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * a.grid.dx)
    den = np.sqrt(np.sum(np.abs(b.values) ** 2) * b.grid.dx)
    return float(num / den)


@pytest.fixture(scope="module")
def nonneg_sweep():
    plan = ExperimentPlan(
        s=0.125, p=4.0, t_final=1.0,
        carriers=tuple(float(2**k) for k in range(4, 11)),
        theta=0.125,
    )
    t0 = time.perf_counter()
    records = run_sweep(plan)
    elapsed = time.perf_counter() - t0
    return plan, records, elapsed


class TestCriterion1SolitonExactness:
    def test_exact_evolution(self):
        grid = GridSpec(length=128.0, points=4096)
        params = SolitonParams(carrier=2.0, scale=1.0)
        u0 = soliton_field(params, 0.0, grid)
        t0 = time.perf_counter()
        got = evolve(u0, 1.0, SolverConfig(dt=1e-4)).final
        elapsed = time.perf_counter() - t0
        err = rel_l2(got, soliton_field(params, 1.0, grid))
        ok = err <= 1e-6 and elapsed <= 60.0
        report("criterion 1 (soliton exactness)", ok, f"rel L2 error {err:.2e}, {elapsed:.1f} s")
        assert err <= 1e-6
        assert elapsed <= 60.0


class TestCriterion2Conservation:
    def test_mass_drift_and_order(self):
        grid = GridSpec(length=128.0, points=1024)
        params = SolitonParams(carrier=2.0, scale=1.0)
        u0 = soliton_field(params, 0.0, grid)
        sol_drift = abs(
            invariants(evolve(u0, 1.0, SolverConfig(dt=5e-4)).final)["mass"]
            - invariants(u0)["mass"]
        ) / invariants(u0)["mass"]

        rng = np.random.default_rng(42)
        g2 = GridSpec(length=64.0, points=512)
        coef = np.where(
            np.abs(g2.xi) <= 6.0,
            np.exp(-((g2.xi / 3.0) ** 2))
            * (rng.standard_normal(g2.points) + 1j * rng.standard_normal(g2.points)),
            0.0,
        )
        f = inverse_transform(SpectralField(g2, coef))
        f = Field(g2, 0.3 / np.max(np.abs(f.values)) * f.values)
        rand_drift = abs(
            invariants(evolve(f, 1.0, SolverConfig(dt=5e-4)).final)["mass"]
            - invariants(f)["mass"]
        ) / invariants(f)["mass"]

        errors = []
        for dt in (2e-3, 1e-3):
            got = evolve(u0, 0.1, SolverConfig(dt=dt)).final
            errors.append(rel_l2(got, soliton_field(params, 0.1, grid)))
        richardson = errors[0] / errors[1]

        ok = sol_drift <= 1e-9 and rand_drift <= 1e-9 and 12.0 <= richardson <= 20.0
        report(
            "criterion 2 (conservation + order)",
            ok,
            f"drift soliton {sol_drift:.2e}, random {rand_drift:.2e}, "
            f"Richardson {richardson:.2f}",
        )
        assert sol_drift <= 1e-9
        assert rand_drift <= 1e-9
        assert 12.0 <= richardson <= 20.0


class TestCriterion3NormEngine:
    def test_norm_engine(self, norm_corpus):
        worst_partition = 0.0
        for grid in (GridSpec(64.0, 512), GridSpec(128.0, 1024)):
            xi = grid.xi
            total = np.zeros_like(xi)
            for n in range(int(np.floor(xi.min())) - 1, int(np.ceil(xi.max())) + 2):
                total += cos2_window(xi - n)
            worst_partition = max(worst_partition, float(np.max(np.abs(total - 1.0))))

        ratios = [modulation_norm(f, 0.125, 2.0) / sobolev_norm(f, 0.125) for f in norm_corpus]
        ratio_ok = all(0.25 <= r <= 4.0 for r in ratios)

        embed_ok = True
        for f in norm_corpus:
            for p in (2.0, 4.0, 8.0):
                if modulation_norm(f, 0.125, p) > 4.0 * fourier_lebesgue_norm(f, 0.125, p):
                    embed_ok = False

        grid = GridSpec(length=256.0, points=8192)
        worst_agree = 0.0
        for params, s, p in [
            (SolitonParams(8.0, 1.0), 0.125, 4.0),
            (SolitonParams(16.0, 0.5), 0.0, 2.0),
        ]:
            oracle = soliton_modulation_norm(params, s, p)
            on_grid = modulation_norm(soliton_field(params, 0.0, grid), s, p)
            worst_agree = max(worst_agree, abs(on_grid - oracle) / oracle)

        ok = worst_partition <= 1e-14 and ratio_ok and embed_ok and worst_agree <= 1e-6
        report(
            "criterion 3 (norm engine)",
            ok,
            f"partition {worst_partition:.1e}, p2-ratio in "
            f"[{min(ratios):.2f}, {max(ratios):.2f}], embedding<=4 {embed_ok}, "
            f"grid-vs-quadrature {worst_agree:.1e}",
        )
        assert worst_partition <= 1e-14
        assert ratio_ok
        assert embed_ok
        assert worst_agree <= 1e-6


class TestCriterion4NonnegRegime:
    def test_4a_norm_band(self, nonneg_sweep):
        _, records, _ = nonneg_sweep
        pooled = [r.norm_u for r in records] + [r.norm_v for r in records]
        band = max(pooled) / min(pooled)
        report("criterion 4a (norms in factor-3 band)", band <= 3.0, f"band {band:.3f}")
        assert band <= 3.0

    def test_4b_diff0_slope(self, nonneg_sweep):
        # KNOWN RED: measured -0.176 vs required -0.25 +/- 15%; see module
        # docstring and the extended-range check below.
        _, records, _ = nonneg_sweep
        fit = fit_exponent(records, "diff0")
        ok = abs(fit.slope - (-0.25)) <= 0.15 * 0.25
        report(
            "criterion 4b (diff0 slope -0.25 +/- 15%)",
            ok,
            f"slope {fit.slope:+.4f} (r^2 {fit.r_squared:.4f}); "
            "pre-asymptotic window transient, see notes",
        )
        assert ok, (
            f"slope {fit.slope:+.4f} outside -0.25 +/- 15%: the stated carrier "
            "range 2^4..2^10 is pre-asymptotic for the smooth-window modulation "
            "norm at p = 4 (verified independently; see README acceptance status)"
        )

    def test_4b_extended_range_reference(self):
        # supplementary (not criterion 4b): the same fit over 2^10..2^14, where
        # the window transient O(N^{-1/2}) has decayed, lands in the band
        plan = ExperimentPlan(
            s=0.125, p=4.0, t_final=1.0,
            carriers=tuple(float(2**k) for k in range(10, 15)),
            theta=0.125,
        )
        records = run_sweep(plan)
        fit = fit_exponent(records, "diff0")
        ok = abs(fit.slope - (-0.25)) <= 0.15 * 0.25
        report(
            "criterion 4b' (extended range 2^10..2^14, supplementary)",
            ok,
            f"slope {fit.slope:+.4f}",
        )
        assert ok

    def test_4b_extended_range_grid_check(self):
        # the two-pipeline twin of the reference above: every point of
        # 2^10..2^14 is re-measured on a carrier-centred grid and must agree
        # with the quadrature within AGREEMENT_TOL
        plan = ExperimentPlan(
            s=0.125, p=4.0, t_final=1.0,
            carriers=tuple(float(2**k) for k in range(10, 15)),
            theta=0.125,
        )
        assert AGREEMENT_TOL == 1e-4
        records = run_sweep(plan)
        fit = fit_exponent(records, "diff0")
        worst = max(
            abs(getattr(r, f"grid_{name}") - getattr(r, name)) / getattr(r, name)
            for r in records
            for name in ("norm_u", "diff0", "difft")
        )
        ok = abs(fit.slope - (-0.25)) <= 0.15 * 0.25
        report(
            "criterion 4b' grid twin (2^10..2^14, grid check)",
            ok,
            f"slope {fit.slope:+.4f}, worst grid/quadrature gap {worst:.1e}",
        )
        assert ok
        assert worst <= AGREEMENT_TOL

    def test_4c_difft_floor_and_runtime(self, nonneg_sweep):
        plan, records, elapsed = nonneg_sweep
        verdict = verify_lemma(records, plan)
        floor = DIFF_FLOOR * verdict.norm_median
        ok = verdict.difft_floor_ok and elapsed <= 300.0
        report(
            "criterion 4c (diffT floor + runtime)",
            ok,
            f"min diffT (top half) {verdict.difft_min_top_half:.4f} >= {floor:.4f}, "
            f"sweep {elapsed:.1f} s",
        )
        assert verdict.difft_floor_ok
        assert elapsed <= 300.0


class TestCriterion5NegRegime:
    def test_neg_regime(self):
        plan = ExperimentPlan(
            s=-0.125, p=4.0, t_final=1.0,
            carriers=tuple(float(2**k) for k in range(4, 11)),
            theta=0.55,
        )
        records = run_sweep(plan)
        verdict = verify_lemma(records, plan)
        slope_ok = verdict.slope_matches_norm or verdict.slope_matches_square
        ok = verdict.diff0_decreasing and slope_ok and verdict.difft_floor_ok
        report(
            "criterion 5 (neg-s regime)",
            ok,
            f"slope {verdict.diff0_slope:+.4f} vs {verdict.expected_exponent:+.3f}, "
            f"convention '{verdict.squared_convention}', "
            f"diffT floor {verdict.difft_floor_ok}",
        )
        assert verdict.diff0_decreasing
        assert slope_ok
        assert verdict.difft_floor_ok


class TestCriterion6OverlapBound:
    def test_overlap_sweep(self):
        s, t_final, theta = 0.125, 1.0, 0.125
        carriers = [2.0**k for k in range(4, 9)]
        ratios = []
        for n in carriers:
            lam = n ** (-2 * s)
            delta = n ** (2 * s - 1 + 2 * theta) / t_final
            a = SolitonParams(carrier=n, scale=lam)
            b = SolitonParams(carrier=n + delta, scale=lam)
            sep = 3.0 * ((n + delta) ** 2 - n**2) * t_final
            length = 2 ** math.ceil(math.log2(max(16 * np.pi + 1, 4 * sep, 90.0 / lam)))
            points = 2 ** math.ceil(
                math.log2(length * 1.3 * (n + delta + 10 * lam + 4) / np.pi)
            )
            g = GridSpec(length=length, points=points)
            cubes = range(int(np.floor(n - 3)), int(np.ceil(n + delta + 3)) + 1)
            worst = max(pair_overlap(nc, a, b, t_final, g) for nc in cubes)
            ratios.append(worst * n * delta * t_final)
        tau, _ = kendalltau(carriers, ratios)
        ok = max(ratios) < 10.0 and tau <= 0.3
        report(
            "criterion 6 (overlap bound)",
            ok,
            f"max ratio {max(ratios):.4f}, Kendall tau {tau:+.2f}",
        )
        assert max(ratios) < 10.0
        assert tau <= 0.3


class TestCriterion7Resonance:
    def test_fuzzed_identity(self):
        t0 = time.perf_counter()
        dev = resonance_max_deviation(1_000_000, seed=0)
        elapsed = time.perf_counter() - t0
        ok = dev <= 1e-12 and elapsed <= 5.0
        report("criterion 7 (resonance identity)", ok, f"max dev {dev:.2e}, {elapsed:.2f} s")
        assert dev <= 1e-12
        assert elapsed <= 5.0


class TestCriterion8Probes:
    def test_frozen_corpus_within_calibration(self):
        cal = load_calibration()
        fields = make_probe_corpus()
        assert corpus_hash(fields) == cal["corpus"]["sha256"]
        measured = _measure(fields)
        failures = {
            name: (info["max"], cal["constants"][name])
            for name, info in measured.items()
            if info["max"] > cal["constants"][name]
        }
        ok = not failures
        report(
            "criterion 8a (probe calibration)",
            ok,
            "all families within stored constants" if ok else f"exceeded: {failures}",
        )
        assert not failures

    def test_ratio_homogeneity(self):
        fields = make_probe_corpus()
        u, v = fields[0], fields[1]
        c = 2.5 - 1.2j

        r1 = bilinear_ratio_cube(u, v, 4, -2)
        r2 = bilinear_ratio_cube(
            Field(u.grid, c * u.values), Field(v.grid, c * v.values), 4, -2
        )
        cube_dev = abs(r2 - r1) / r1

        r1 = bilinear_ratio_lp(u, v, 8.0, 2.0)
        r2 = bilinear_ratio_lp(
            Field(u.grid, c * u.values), Field(v.grid, c * v.values), 8.0, 2.0
        )
        lp_dev = abs(r2 - r1) / r1

        a, b_, w = (_band_limit(fields[i], 4.0) for i in (0, 1, 2))
        t1, _ = trilinear_ratio(a, b_, w, 0.25, 4.0, n_times=1024)
        t2, _ = trilinear_ratio(
            Field(a.grid, c * a.values),
            Field(b_.grid, c * b_.values),
            Field(w.grid, c * w.values),
            0.25,
            4.0,
            n_times=1024,
        )
        tri_dev = abs(t2 - t1) / t1

        worst = max(cube_dev, lp_dev, tri_dev)
        report("criterion 8b (ratio homogeneity)", worst <= 1e-10, f"max dev {worst:.2e}")
        assert worst <= 1e-10


class TestCriterion9Apriori:
    def test_random_data_bound(self):
        grid = GridSpec(length=64.0, points=512)
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            coef = np.where(
                np.abs(grid.xi) <= 5.0,
                np.exp(-((grid.xi / 2.0) ** 2))
                * (rng.standard_normal(grid.points) + 1j * rng.standard_normal(grid.points)),
                0.0,
            )
            f = inverse_transform(SpectralField(grid, coef))
            scale = 0.5 / modulation_norm(f, 0.125, 4.0)
            u0 = Field(grid, scale * f.values)
            _, norms = apriori_tracking(
                u0, 0.125, 4.0, 2.0, SolverConfig(dt=1e-3), n_snapshots=16
            )
            worst = max(worst, float(np.max(norms) / norms[0]))
        ok = worst <= 5.0
        report("criterion 9a (a-priori bound, random)", ok, f"sup ratio {worst:.3f}")
        assert worst <= 5.0

    def test_soliton_flat(self):
        grid = GridSpec(length=128.0, points=1024)
        u0 = soliton_field(SolitonParams(carrier=2.0, scale=1.0), 0.0, grid)
        _, norms = apriori_tracking(
            u0, 0.125, 4.0, 2.0, SolverConfig(dt=5e-4), n_snapshots=8
        )
        dev = float(np.max(np.abs(norms / norms[0] - 1.0)))
        report("criterion 9b (a-priori soliton flat)", dev <= 1e-6, f"max |ratio-1| {dev:.2e}")
        assert dev <= 1e-6


class TestCriterion10Determinism:
    def test_byte_identical_csv(self, tmp_path):
        from mkdvlab.cli import main

        cfg = tmp_path / "ill.cfg"
        cfg.write_text("s=0.125\np=4\nT=1.0\nN_min=16\nN_max=128\ntheta=0.125\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(
                ["illposed", "--config", str(cfg), "--out", str(out), "--seed", "3"]
            )
            assert rc == 0
            outs.append((out / "records.csv").read_bytes())
        ok = outs[0] == outs[1]
        report("criterion 10 (determinism)", ok, f"{len(outs[0])} bytes, identical {ok}")
        assert ok
