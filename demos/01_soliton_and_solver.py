"""Soliton dynamics end to end: exact family, time stepping, conservation.

The traveling-wave family

    u(x, t) = 6^{-1/2} exp(i[(N^3 - 3 N lam^2) t + N x]) lam sech(lam (x + (3 N^2 - lam^2) t))

solves the focusing equation exactly, so it doubles as a solver benchmark:
we evolve its t = 0 slice numerically and compare against the closed form.
"""

import numpy as np

from mkdvlab import (
    GridSpec,
    SolitonParams,
    SolverConfig,
    evolve,
    invariants,
    soliton_field,
)

grid = GridSpec(length=128.0, points=4096)
params = SolitonParams(carrier=2.0, scale=1.0)
print(f"grid: L = {grid.length}, M = {grid.points}, dx = {grid.dx}, dxi = {grid.dxi:.4f}")
print(f"soliton: carrier N = {params.carrier}, scale lam = {params.scale}")
print(f"closed-form mass lam/3 = {params.mass:.6f}, momentum N lam/3 = {params.momentum:.6f}")

u0 = soliton_field(params, 0.0, grid)
inv0 = invariants(u0)
print(f"\nmeasured at t=0:  mass = {inv0['mass']:.12f},  momentum = {inv0['momentum']:.12f}")

# --- evolve one time unit and compare with the exact solution -------------
horizon, dt = 1.0, 1e-4
print(f"\nevolving T = {horizon} with dt = {dt} (integrating-factor RK4, 3/2-rule dealiasing)")
u_num = evolve(u0, horizon, SolverConfig(dt=dt)).final
u_exact = soliton_field(params, horizon, grid)

err = np.sqrt(np.sum(np.abs(u_num.values - u_exact.values) ** 2) * grid.dx)
ref = np.sqrt(np.sum(np.abs(u_exact.values) ** 2) * grid.dx)
print(f"relative L2 error vs closed form: {err / ref:.3e}")

inv1 = invariants(u_num)
print(f"mass drift:     {abs(inv1['mass'] - inv0['mass']) / inv0['mass']:.3e}")
print(f"momentum drift: {abs(inv1['momentum'] - inv0['momentum']) / abs(inv0['momentum']):.3e}")

# --- fourth-order convergence ----------------------------------------------
print("\nRichardson order check on a short horizon (error ratio ~ 16 for RK4):")
errors = []
for trial_dt in (1e-3, 5e-4):
    got = evolve(u0, 0.1, SolverConfig(dt=trial_dt)).final
    exact = soliton_field(params, 0.1, grid)
    e = np.sqrt(np.sum(np.abs(got.values - exact.values) ** 2) * grid.dx) / ref
    errors.append(e)
    print(f"  dt = {trial_dt:.0e}: relative error {e:.3e}")
print(f"  ratio: {errors[0] / errors[1]:.2f}")

# --- the soliton travels; the peak wraps around the torus -------------------
peak = grid.x[np.argmax(np.abs(u_exact.values))]
predicted = -(3 * params.carrier**2 - params.scale**2) * horizon
print(f"\npeak at t = {horizon}: x = {peak:.3f} (predicted {predicted:.3f}, modulo L)")
