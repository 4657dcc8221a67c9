"""Gibbs processes: exact rejection sampling, the GNZ identity as a
statistical check, and the conditional-intensity distance bound.

Run:  python3 demos/04_gibbs_papangelou.py
"""

from palab.processes import (
    Box,
    GibbsModel,
    IndicatorTimesEmpty,
    IntensityMeasure,
    PartitionSpec,
    PoissonCountLaw,
    dpi_lower_bound,
    gnz_check,
    papangelou_bound,
    sample_gibbs,
)
from palab import streams

window = Box((0.0, 0.0), (1.0, 1.0))
model = GibbsModel(beta=2.0, theta=0.8, rho=0.15, window=window)

rng = streams.derive(11)
pattern = sample_gibbs(model, rng)
print(f"One exact Gibbs draw (beta=2, theta=0.8, rho=0.15): {len(pattern)} points")

print("\nGNZ check with u(x, nu) = 1_A(x) 1{nu(B) = 0}, 20000 reps:")
u = IndicatorTimesEmpty(
    region_a=Box((0.0, 0.0), (0.5, 1.0)),
    region_b=Box((0.5, 0.0), (1.0, 1.0)),
)
rep = gnz_check(model, u, reps=20000, seed=12)
print(f"  lhs = {rep.lhs:.5f}, rhs = {rep.rhs:.5f} (x-integral exact per sample)")
print(f"  z = {rep.z_score:.3f} (SE {rep.std_error:.5f}, Monte Carlo error only)")

print("\nDistance bound: integral of E|c(x, xi) - beta| over the window,")
print("from the exact areas covered by 0, 1, 2, ... interaction discs.")
bound = papangelou_bound(model, IntensityMeasure(window, 2.0), reps=8000, seed=13)
print(f"  bound estimate = {bound.estimate:.5f} +- {bound.std_error:.5f} (Monte Carlo SE)")

print("\nLower bound on the process distance from a 4-set partition")
print("(the model is a sampled source: its 20000 draws come as one batch):")
quadrants = PartitionSpec([
    Box((0.0, 0.0), (0.5, 0.5)), Box((0.5, 0.0), (1.0, 0.5)),
    Box((0.0, 0.5), (0.5, 1.0)), Box((0.5, 0.5), (1.0, 1.0)),
])
est = dpi_lower_bound(
    model,
    PoissonCountLaw(IntensityMeasure(window, 2.0), eps=1e-9, prune_mass=1e-7),
    [quadrants], reps=20000, seed=14, n_boot=12,
)
print(f"  empirical d_W on quadrant counts = {est.value:.5f} "
      f"(bootstrap SE {est.std_error:.5f})")
slack = 3 * (bound.std_error**2 + est.std_error**2) ** 0.5
print(f"  the bound dominates: {est.value:.4f} <= {bound.estimate:.4f} + 3 sigma ({slack:.4f})")
