"""Poisson approximation of sums of Bernoulli vectors: the independent-rows
bound (exact distance comparison) and the m-dependent bound (empirical
distance from the shipped sliding-window sampler).

Run:  python3 demos/03_bernoulli_sums.py
"""

import numpy as np

from palab import PoissonVectorParams, bernoulli_sum_pmf, empirical_pmf, poisson_vector_pmf, wasserstein_l1
from palab.coupling import BernoulliArrayModel, corollary_bound, mdep_bound, q_factor, sample_mdep_counts
from palab.measures import truncate_small_atoms

rng = np.random.default_rng(3)

print("Independent rows (n = 10, d = 2): exact distance vs the bound.")
p = rng.random((10, 2)) * 0.04
X = bernoulli_sum_pmf(p)
lam = PoissonVectorParams(tuple(p.sum(axis=0)))
target = poisson_vector_pmf(lam, 1e-10)
res = wasserstein_l1(X, target)
bound = corollary_bound(p)
print(f"  exact d_W = {res.value:.8f} (+- {res.truncation_error:.1e})")
print(f"  bound sum_k (sum_i p_ki)^2 = {bound:.8f}")
print(f"  dominance margin = {bound - res.value:.8f}")

print("\n1-dependent rows (n = 40, d = 2): sliding-window sampler, 1e5 samples.")
n, d, m = 40, 2, 1
p = rng.random((n, d)) * (1.2 / n)
model = BernoulliArrayModel(n=n, d=d, p=p, m=m)
print(f"  Q factors are exact for the shipped family; Q(5) = {q_factor(model, 5):.3e}")
bound_m = mdep_bound(model)
counts = sample_mdep_counts(model, reps=10**5, seed=42)
pmf = empirical_pmf(counts)
target = truncate_small_atoms(poisson_vector_pmf(PoissonVectorParams(tuple(p.sum(axis=0))), 1e-9), 1e-7)
res = wasserstein_l1(pmf, target)
print(f"  empirical d_W = {res.value:.6f} (upward-biased plug-in estimate)")
print(f"  m-dependent bound = {bound_m:.6f}")
print(f"  dominance margin = {bound_m - res.value:.6f}")
