"""Two-soliton instability sweeps: bounded data, vanishing initial distance,
order-one distance at time T.

For each carrier N the harness builds the pair with the regime's schedules
(scale lam and frequency separation |N1 - N2|), measures the modulation norms
by grid-free quadrature, cross-checks them on auto-sized grids, and fits the
decay exponent of the initial difference.
"""

from mkdvlab import ExperimentPlan, fit_exponent, run_sweep, verify_lemma
from mkdvlab.illposed import DIFF_FLOOR, NORM_BAND

for label, plan in [
    (
        "nonnegative regularity (s = 1/8, p = 4)",
        ExperimentPlan(
            s=0.125, p=4.0, t_final=1.0,
            carriers=tuple(float(2**k) for k in range(4, 10)),
            theta=0.125,
        ),
    ),
    (
        "negative regularity (s = -1/8, p = 4)",
        ExperimentPlan(
            s=-0.125, p=4.0, t_final=1.0,
            carriers=tuple(float(2**k) for k in range(4, 10)),
            theta=0.55,
        ),
    ),
]:
    records = run_sweep(plan)
    print(f"=== {label}, horizon T = {plan.t_final} ===")
    print(f"{'N':>6} {'lam':>9} {'|N1-N2|':>10} {'norm_u':>9} {'diff0':>11} {'diffT':>9}")
    for r in records:
        print(
            f"{r.carrier:6.0f} {r.lam:9.4f} {r.n2 - r.n1:10.6f} "
            f"{r.norm_u:9.5f} {r.diff0:11.4e} {r.difft:9.5f}"
        )
    verdict = verify_lemma(records, plan)
    fit = fit_exponent(records, "diff0")
    print(f"verdict: {'PASS' if verdict.passed else 'FAIL'}")
    print(f"  solution norms max/min         : {verdict.norm_ratio:.4f} (band <= {NORM_BAND})")
    print(f"  diff0 log-log slope            : {fit.slope:+.4f} (r^2 = {fit.r_squared:.4f})")
    print(f"  predicted asymptotic exponent  : {verdict.expected_exponent:+.4f}")
    print(f"  matches norm / norm^2 reading  : {verdict.slope_matches_norm} / {verdict.slope_matches_square}")
    print(f"  min diffT on top half          : {verdict.difft_min_top_half:.5f}"
          f" (floor {DIFF_FLOOR} * median = {DIFF_FLOOR * verdict.norm_median:.5f})")
    print(f"  spectral-tail decay rate       : {verdict.tail_decay_rate:+.3f} (positive = decays)")
    print()

print(
    "note: at desk-scale carriers the nonnegative-regularity slope sits above\n"
    "the asymptotic -0.25 because the smooth-window per-cube capture has an\n"
    "O(N^{-1/2}) transient at scale lam = N^{-1/4}; rerun with carriers\n"
    "2^10..2^14 (quadrature only) to watch it converge into the band."
)
