"""The Stein-equation solution and its uniform ("magic factor") bounds.

For every 1-Lipschitz g the solution satisfies sup |ghat| <= 1 and
sup |ghat(i+1) - ghat(i)| <= 1; the demo sweeps a lambda grid with random
Lipschitz functions and prints the observed suprema and equation residuals.
One batched solve per lambda takes all its functions as columns, and
``column_checks`` reads each column's residual and suprema.

Run:  python3 demos/02_stein_solution.py
"""

import numpy as np

from palab.stein import column_checks, solve_stein_batch

rng = np.random.default_rng(7)

print("Identity test function g(i) = i at lambda = 1:")
g = np.arange(60, dtype=float)
ghat, means = solve_stein_batch(1.0, g)
(residual,), (sup_abs,), (sup_delta,) = column_checks(1.0, g, ghat, means)
print(f"  E[g(P_1)] = {means[0]:.12f}")
print(f"  sup|ghat| = {sup_abs:.6f}, sup|diff| = {sup_delta:.6f}, residual = {residual:.2e}")

print("\nSweep: 6 lambdas x 50 random 1-Lipschitz g on 0..300")
worst_sup = 0.0
worst_res = 0.0
for lam in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
    g = np.stack([np.concatenate([[rng.uniform(-1, 1)], rng.uniform(-1, 1, size=300)]).cumsum()
                  for _ in range(50)], axis=1)
    residual, sup_abs, sup_delta = column_checks(lam, g, *solve_stein_batch(lam, g))
    worst_sup = max(worst_sup, sup_abs.max(), sup_delta.max())
    worst_res = max(worst_res, residual.max())
print(f"  worst supremum  : {worst_sup:.12f}  (bound: 1)")
print(f"  worst residual  : {worst_res:.2e}")
