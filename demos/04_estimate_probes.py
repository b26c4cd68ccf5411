"""Estimate probes: resonance identity, bilinear and trilinear ratios,
the discrete convolution inequality, and norm tracking along the flow.

All space-time quantities use cutoff free evolutions as representative test
functions (they concentrate on the dispersion surface tau = xi^3); the
reported ratios are diagnostics checked for stability against the frozen
calibration constants, not proofs.
"""

import numpy as np

from mkdvlab import SolitonParams, SolverConfig, soliton_field
from mkdvlab.probes import (
    apriori_tracking,
    convolution_inequality_check,
    load_calibration,
    resonance_max_deviation,
    run_probe_suite,
)
from mkdvlab.spectral import GridSpec

print("resonance identity on 10^6 random triples:")
print(f"  max relative deviation = {resonance_max_deviation():.3e}\n")

print("frozen-corpus probe suite vs stored calibration constants:")
for report in run_probe_suite(["bilinear_cube", "bilinear_lp", "trilinear"]):
    status = "ok" if report.within_calibration else "VIOLATION"
    print(
        f"  {report.estimate:<14} max ratio {report.max_ratio:.4e} "
        f"(stored {report.calibration:.4e})  {status}"
    )
    if report.caveats:
        print(f"    caveats: {', '.join(report.caveats)}")

print("\ndiscrete convolution inequality, block sequences a = b = 1 on [1, K]:")
c_eps = load_calibration()["constants"]["convolution"]
for k in (128, 1024):
    a = np.ones(k)
    lhs, bound = convolution_inequality_check(a, a, eps=0.1, p=2.0, c_eps=c_eps, n0_a=1, n0_b=1)
    print(f"  K = {k:5d}: lhs = {lhs:10.2f}  <=  C ||a|| ||b|| = {bound:10.2f}"
          f"   (C = {c_eps:.3f})")

print("\nmodulation norm along the nonlinear flow (soliton data, s = 1/8, p = 4):")
grid = GridSpec(length=128.0, points=1024)
u0 = soliton_field(SolitonParams(carrier=2.0, scale=1.0), 0.0, grid)
times, norms = apriori_tracking(u0, 0.125, 4.0, 1.0, SolverConfig(dt=5e-4), n_snapshots=8)
for t, n in zip(times, norms):
    print(f"  t = {t:5.3f}: ||u(t)|| = {n:.9f}")
print(f"  sup ratio = {np.max(norms) / norms[0]:.9f}  (exactly 1 for solitons)")
