"""Tests for the two-soliton instability harness."""

import numpy as np
import pytest

from mkdvlab.illposed import (
    ExperimentPlan,
    ExperimentRecord,
    choose_parameters,
    fit_exponent,
    plan_grid,
    run_point,
    run_sweep,
    verify_lemma,
)
from mkdvlab.spectral import ResolutionError


def small_plan(**overrides):
    defaults = dict(
        s=0.125,
        p=4.0,
        t_final=1.0,
        carriers=(16.0, 32.0, 64.0, 128.0),
        theta=0.125,
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


class TestChooseParameters:
    def test_nonneg_schedule_example(self):
        c = choose_parameters(0.125, 4.0, 1.0, 64.0)
        assert c.lam == pytest.approx(64.0 ** (-0.25))
        assert c.theta == pytest.approx(0.125)
        # separation exponent 2s - 1 + 2 theta = -1/2
        assert c.separation == pytest.approx(64.0 ** (-0.5))
        assert c.n1 == 64.0 and c.n2 > c.n1

    def test_s_zero_gives_unit_scale(self):
        for n in (16.0, 256.0):
            assert choose_parameters(0.0, 2.0, 1.0, n).lam == 1.0

    def test_neg_schedule(self):
        c = choose_parameters(-0.125, 4.0, 1.0, 16.0, theta=0.55)
        assert c.lam == pytest.approx(16.0**0.5)
        assert c.separation == pytest.approx(16.0 ** (4 * -0.125 - 1 + 1.5 * 0.55))

    def test_neg_default_theta_close_to_minus_ps(self):
        c = choose_parameters(-0.125, 4.0, 1.0, 16.0)
        assert c.theta == pytest.approx(0.5 + 0.05)

    def test_rejects_boundary_regularity(self):
        with pytest.raises(ValueError, match="0 <= s < 1/4"):
            choose_parameters(0.25, 4.0, 1.0, 64.0)

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError, match="theta"):
            choose_parameters(0.125, 4.0, 1.0, 64.0, theta=0.5)
        with pytest.raises(ValueError, match="theta"):
            choose_parameters(-0.125, 4.0, 1.0, 64.0, theta=0.3)

    def test_rejects_non_finite_horizon(self):
        with pytest.raises(ValueError, match="T must be positive and finite, got inf"):
            choose_parameters(0.125, 4.0, np.inf, 64.0)

    def test_rejects_s_below_minus_one_over_p(self):
        with pytest.raises(ValueError, match="-1/p"):
            choose_parameters(-0.3, 4.0, 1.0, 64.0)


def per_regime_schedule(s, p, t_final, n, th):
    """The two regime schedules written out: lam, n2, diff0 and tail exponents."""
    if s >= 0:
        lam = n ** (-2.0 * s)
        n2 = n + n ** (2.0 * s - 1.0 + 2.0 * th) / t_final
        return lam, n2, 4.0 * s - 1.0 + 2.0 * th, th + 2.0 * s
    lam = n ** (-p * s)
    n2 = n + n ** (p * s - 1.0 + 1.5 * th) / t_final
    return lam, n2, s + 1.5 * (th + p * s) - 1.0, th + p * s


def sampled_schedule_points(seed=5, count=40):
    """(s, p, theta) drawn inside each regime's admitted range."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        p = float(rng.choice([2.0, 3.0, 4.0, 6.0, 8.0]))
        s = float(rng.uniform(0.0, 0.2))
        points.append((s, p, float(rng.uniform(0.1, 0.9)) * (1.0 - 4.0 * s) / 2.0))
        s = float(rng.uniform(-0.9, -0.1)) / p
        # below the theta where the law's diff0 exponent s + 3/2 (theta + ps) - 1 turns >= 0
        theta_max = min(0.95, 2.0 * (1.0 - s) / 3.0 - p * s)
        points.append((s, p, float(rng.uniform(-p * s + 0.05, theta_max))))
    return points


class TestOneConstructionLaw:
    def test_matches_the_per_regime_schedules(self):
        for s, p, theta in sampled_schedule_points():
            plan = ExperimentPlan(s=s, p=p, t_final=0.5, carriers=(16.0,), theta=theta)
            for n in (16.0, 100.5, 4096.0):
                lam, n2, diff0_exp, tail_exp = per_regime_schedule(s, p, 0.5, n, theta)
                c = choose_parameters(s, p, 0.5, n, theta)
                assert (c.lam, c.n2) == (lam, n2)
                # the law sums the same O(1) terms in another order: a few ulp of 1 apart
                assert plan.diff0_exponent == pytest.approx(diff0_exp, rel=1e-15, abs=1e-15)
                assert plan.tail_exponent == tail_exp


class TestPlan:
    def test_regime_derivation(self):
        assert small_plan().regime == "nonneg-s"
        assert small_plan(s=-0.125, theta=0.55).regime == "neg-s"

    def test_refuses_boundary(self):
        with pytest.raises(ValueError, match="0 <= s < 1/4"):
            small_plan(s=0.25)

    def test_neg_regime_needs_finite_p(self):
        with pytest.raises(ValueError, match="p < inf"):
            small_plan(s=-0.125, p=float("inf"), theta=0.55)

    def test_neg_regime_refuses_a_growing_initial_difference(self):
        # -ps < theta < 1 holds, but the law predicts diff0 ~ N^{+0.09}: it could only FAIL
        with pytest.raises(ValueError, match=r"theta = 0.9 gives diff0 the exponent 0\.09"):
            ExperimentPlan(
                s=-0.02, p=8.0, t_final=1.0, carriers=(16.0, 32.0, 64.0, 128.0), theta=0.9
            )


class TestPlanGrid:
    def test_caps_infeasible_requests(self):
        with pytest.raises(ResolutionError, match="feasible carrier cap"):
            plan_grid(0.1, 1e6, 10.0, 4.0)

    def test_resolves_pair(self):
        g = plan_grid(0.5, 16.25, 24.0, 4.0)
        assert g.dxi <= 0.125
        assert g.xi_max > 1.3 * 16.25

    def test_centred_grid_sizes_only_the_pair_band(self, monkeypatch):
        lam, n1, n2, margin = 0.125, 4096.0, 4096.0 + 4096.0**-0.5, 4.0
        separation = 3.0 * (n2**2 - n1**2)
        full = plan_grid(lam, n2, separation, margin)
        g = plan_grid(lam, n2, separation, margin, xi_bottom=n1)
        assert (full.offset, full.points, g.points) == (0, 2**22, 2**13)
        assert g.length == full.length and g.offset % 2 == 0
        assert abs(g.xi0 - 0.5 * (n1 + n2)) <= g.dxi
        reach = margin + 24.0 * lam + 2.0
        lo, hi = g.band
        assert lo < n1 - 1.3 * reach and hi > n2 + 1.3 * reach
        from mkdvlab import illposed

        monkeypatch.setattr(illposed, "MAX_POINTS_LOG2", 12)
        with pytest.raises(ResolutionError, match="feasible carrier cap"):
            plan_grid(lam, n2, separation, margin, xi_bottom=n1)


class TestRunPoint:
    def test_identical_carriers_give_zero_difference(self):
        # force N1 = N2 by zero separation: build the record by hand through
        # run_point on a tiny-separation plan and check diff0 scales with it
        plan = small_plan(carriers=(16.0,))
        rec = run_point(plan, 16.0)
        assert rec.diff0 > 0  # genuine pair separation
        from mkdvlab.solitons import SolitonParams, pair_difference_modsq

        same = SolitonParams(carrier=16.0, scale=rec.lam)
        modsq = pair_difference_modsq(same, same, plan.t_final)
        assert np.max(modsq(np.linspace(10, 22, 500))) == 0.0

    def test_norms_match_grid_pipeline(self):
        plan = small_plan(carriers=(16.0, 32.0))
        rec = run_point(plan, 32.0)
        assert rec.grid_norm_u is not None
        assert abs(rec.grid_norm_u - rec.norm_u) <= 1e-4 * rec.norm_u
        assert abs(rec.grid_diff0 - rec.diff0) <= 1e-4 * rec.diff0
        assert abs(rec.grid_difft - rec.difft) <= 1e-4 * rec.difft

    def test_solver_cross_check_on_smallest_carrier(self):
        plan = small_plan(carriers=(16.0, 32.0), use_solver=True)
        rec = run_point(plan, 16.0)
        assert rec.solver_error is not None
        assert rec.solver_error <= 1e-4
        rec2 = run_point(plan, 32.0)
        assert rec2.solver_error is None

    def test_norm_stability_across_sweep(self):
        # solution norms stay within a factor 3 from the smallest to largest N
        plan = small_plan(carriers=(16.0, 256.0))
        r16 = run_point(plan, 16.0)
        r256 = run_point(plan, 256.0)
        assert r256.norm_u / r16.norm_u < 3.0
        assert r256.norm_u / r16.norm_u > 1.0 / 3.0

    def test_difft_dominates_floor(self):
        plan = small_plan(carriers=(64.0,))
        rec = run_point(plan, 64.0)
        assert rec.difft >= 0.3 * rec.norm_u

    def test_triangle_inequality_sanity(self):
        plan = small_plan(carriers=(16.0, 64.0))
        for n in plan.carriers:
            rec = run_point(plan, n)
            assert rec.difft <= rec.norm_u + rec.norm_v + 1e-12

    def test_time_invariance_of_solution_norms(self):
        # the modulus of each soliton spectrum is t-invariant, so norm_u is
        # the same number at t = 0 and t = T by construction; check against
        # the grid pipeline at t = T explicitly
        from mkdvlab.norms import modulation_norm
        from mkdvlab.solitons import SolitonParams, soliton_field

        plan = small_plan(carriers=(16.0,))
        rec = run_point(plan, 16.0)
        grid = plan_grid(rec.lam, rec.n2, 3 * (rec.n2**2 - rec.n1**2), 4.0)
        at_t = modulation_norm(
            soliton_field(SolitonParams(rec.n1, rec.lam), plan.t_final, grid),
            plan.s,
            plan.p,
        )
        assert at_t == pytest.approx(rec.norm_u, rel=1e-8)


class TestFitExponent:
    def _fake_records(self, slope, carriers=(16.0, 32.0, 64.0, 128.0, 256.0)):
        recs = []
        for n in carriers:
            recs.append(
                ExperimentRecord(
                    carrier=n, n1=n, n2=n + 0.1, lam=1.0, theta=0.125,
                    norm_u=1.0, norm_v=1.0, diff0=2.0 * n**slope, difft=1.0,
                    tail=np.exp(-(n**0.375)),
                )
            )
        return recs

    def test_recovers_synthetic_power_law(self):
        fit = fit_exponent(self._fake_records(-0.25), "diff0")
        assert fit.slope == pytest.approx(-0.25, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant_series_has_zero_slope(self):
        fit = fit_exponent(self._fake_records(0.0), "diff0")
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_requires_enough_records(self):
        with pytest.raises(ValueError, match="at least 4"):
            fit_exponent(self._fake_records(-0.25)[:3], "diff0")

    def test_requires_three_octaves(self):
        recs = self._fake_records(-0.25, carriers=(16.0, 20.0, 24.0, 32.0))
        with pytest.raises(ValueError, match="octaves"):
            fit_exponent(recs, "diff0")


@pytest.fixture(scope="module")
def nonneg_result():
    plan = small_plan(carriers=(16.0, 32.0, 64.0, 128.0, 256.0))
    records = run_sweep(plan)
    return plan, records, verify_lemma(records, plan)


class TestVerdict:

    def test_defaults_pass(self, nonneg_result):
        _, _, verdict = nonneg_result
        assert verdict.passed
        assert verdict.bounded_norms and verdict.norm_ratio <= 3.0
        assert verdict.diff0_decreasing and verdict.diff0_slope < 0
        assert verdict.difft_floor_ok

    def test_tail_decays(self, nonneg_result):
        _, _, verdict = nonneg_result
        assert verdict.tail_decay_ok and verdict.tail_decay_rate > 0

    def test_initial_bound_constant_finite(self, nonneg_result):
        _, _, verdict = nonneg_result
        assert 0 < verdict.initial_bound_constant < 10.0

    def test_forced_equal_pair_fails_floor(self, nonneg_result):
        plan, records, _ = nonneg_result
        crushed = [
            ExperimentRecord(
                carrier=r.carrier, n1=r.n1, n2=r.n2, lam=r.lam, theta=r.theta,
                norm_u=r.norm_u, norm_v=r.norm_v,
                diff0=r.diff0, difft=0.0, tail=r.tail,
            )
            for r in records
        ]
        verdict = verify_lemma(crushed, plan)
        assert not verdict.difft_floor_ok
        assert not verdict.passed

    @pytest.mark.parametrize("jobs, carriers, workers", [
        (100_000, (16.0, 32.0, 64.0, 128.0), [4]),
        (3, (16.0, 32.0, 64.0, 128.0), [3]),
        (8, (16.0,), []),
    ])
    def test_pool_never_outnumbers_the_carriers(self, monkeypatch, jobs, carriers, workers):
        # a pool that records its size and maps in this process; no process
        # is started, so a huge jobs value is safe to pass
        import concurrent.futures

        from mkdvlab import illposed

        sizes, done = [], []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        def fake_point(plan, n):
            done.append(n)
            return ExperimentRecord(
                carrier=n, n1=n, n2=n, lam=1.0, theta=0.125, norm_u=1.0, norm_v=1.0,
                diff0=1.0, difft=1.0, tail=0.0,
            )

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(illposed, "run_point", fake_point)
        records = run_sweep(small_plan(carriers=carriers), jobs=jobs)
        assert sizes == workers
        assert done == list(carriers)
        assert [r.carrier for r in records] == list(carriers)

    def test_parallel_sweep_matches_serial(self):
        plan = small_plan()
        serial = run_sweep(plan, jobs=1)
        parallel = run_sweep(plan, jobs=2)
        for a, b in zip(serial, parallel):
            assert a == b


class TestNegRegime:
    def test_neg_sweep_verdict(self):
        plan = ExperimentPlan(
            s=-0.125, p=4.0, t_final=1.0,
            carriers=(16.0, 32.0, 64.0, 128.0, 256.0),
            theta=0.55,
        )
        records = run_sweep(plan)
        verdict = verify_lemma(records, plan)
        assert verdict.passed
        # the unsquared convention matches the predicted exponent within 15%
        assert verdict.slope_matches_norm
        assert verdict.squared_convention == "norm"
