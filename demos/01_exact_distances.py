"""Exact lattice distances: Wasserstein with an optimal flow, total variation,
and certified truncation error intervals.

Run:  python3 demos/01_exact_distances.py
"""

import numpy as np

from palab import (
    PoissonVectorParams,
    bernoulli_sum_pmf,
    poisson_vector_pmf,
    total_variation,
    wasserstein_l1,
)

print("A Binomial(2, 1/2) pmf against a truncated Poisson(1) pmf.")
binom = bernoulli_sum_pmf(np.array([[0.5], [0.5]]))
pois = poisson_vector_pmf(PoissonVectorParams((1.0,)), eps=1e-12)
print(f"  Poisson truncation keeps {len(pois.probs)} atoms, "
      f"tail mass {pois.tail_mass:.2e}, tail moment {pois.tail_moment:.2e}")

w1 = wasserstein_l1(binom, pois, want_flow=True)
tv = total_variation(binom, pois)
print(f"  d_W = {w1.value:.12f}  (truncation error <= {w1.truncation_error:.2e})")
print(f"  d_TV = {tv.value:.12f} (truncation error <= {tv.truncation_error:.2e})")
print(f"  d_TV <= d_W, as indicator test functions are 1-Lipschitz.")

print("\nOptimal transport plan (source -> target : mass):")
for x, y, mass in w1.flow:
    print(f"    {x} -> {y} : {mass:.6f}")

print("\nA two-dimensional pair: product Poisson vs a Bernoulli-vector sum.")
rng = np.random.default_rng(1)
p = rng.random((4, 2)) * 0.3
X = bernoulli_sum_pmf(p)
lam = PoissonVectorParams(tuple(p.sum(axis=0)))
P = poisson_vector_pmf(lam, eps=1e-10)
res = wasserstein_l1(X, P)
print(f"  lambdas = {tuple(round(v, 4) for v in lam.lambdas)}")
print(f"  d_W(X, Poisson) = {res.value:.8f} +- {res.truncation_error:.1e}")
print(f"  mean-shift lower bound |E X - E P|_1 = "
      f"{abs(X.mean() - P.mean()).sum():.2e} (must not exceed d_W)")
