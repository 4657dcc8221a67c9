"""palab: a verification laboratory for multivariate Poisson and Poisson
process approximation.

The package computes explicit approximation bounds (coupling bounds,
m-dependent Bernoulli sums, Papangelou intensities, Poisson U-statistic
processes), computes or estimates the matching true distances (exact 1-norm
Wasserstein and total variation on the integer lattice, partition-based lower
bounds for point processes), and checks at desk scale that each bound
dominates the corresponding distance.
"""

from .measures import (
    LatticePmf,
    PoissonVectorParams,
    bernoulli_sum_pmf,
    empirical_pmf,
    poisson_vector_pmf,
    truncate_small_atoms,
)
from .transport import DistanceResult, total_variation, wasserstein_l1

__all__ = [
    "LatticePmf",
    "PoissonVectorParams",
    "bernoulli_sum_pmf",
    "empirical_pmf",
    "poisson_vector_pmf",
    "truncate_small_atoms",
    "DistanceResult",
    "total_variation",
    "wasserstein_l1",
]
