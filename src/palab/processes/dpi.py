"""Partition-based lower bounds for the point-process distance.

The distance itself is a supremum over all finite tuples of disjoint sets; no
search procedure exists, so everything here evaluates a *supplied* family of
partitions and is documented as a lower bound only.  Count laws enter either
exactly (product Poisson, deterministic patterns) or empirically from seeded
samplers, with a bootstrap confidence interval in the empirical case.  A
sampled source is drawn as one ``PatternBatch`` (``sample_batch``) or, for a
plain callable, pattern by pattern into one batch; each partition then counts
the whole batch in one ``count_rows`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .. import streams
from ..errors import ParameterError
from ..measures import LatticePmf, PoissonVectorParams, SampleAtoms, poisson_vector_pmf, truncate_small_atoms
from ..transport import ReweightedW1, wasserstein_l1
from .patterns import IntensityMeasure, PartitionSpec, PatternBatch, PointPattern, count_vector

DEFAULT_N_BOOT = 32


class CountLawFromMeasure:
    """Exact product-Poisson count law for a Poisson process whose intensity
    of a region is given by ``measure_fn`` (closed form or quadrature)."""

    def __init__(self, measure_fn: Callable, eps: float = 1e-10, prune_mass: float = 0.0):
        self.measure_fn = measure_fn
        self.eps = eps
        self.prune_mass = prune_mass

    def count_pmf(self, partition: PartitionSpec) -> LatticePmf:
        lams = tuple(self.measure_fn(s) for s in partition.sets)
        pmf = poisson_vector_pmf(PoissonVectorParams(lams), self.eps)
        if self.prune_mass > 0.0:
            pmf = truncate_small_atoms(pmf, self.prune_mass)
        return pmf


class PoissonCountLaw(CountLawFromMeasure):
    """Exact product-Poisson count law of a Poisson process on any partition."""

    def __init__(self, intensity: IntensityMeasure, eps: float = 1e-10, prune_mass: float = 0.0):
        super().__init__(intensity.measure_of, eps=eps, prune_mass=prune_mass)
        self.intensity = intensity


class DiracCountLaw:
    """Count law of a deterministic point pattern."""

    def __init__(self, pattern: PointPattern):
        self.pattern = pattern

    def count_pmf(self, partition: PartitionSpec) -> LatticePmf:
        return LatticePmf.from_arrays(partition.dim, [count_vector(self.pattern, partition)], [1.0])


Sampler = Callable[[np.random.Generator], PointPattern]
# exact laws, objects with ``sample_batch(rng, size)`` (``IntensityMeasure``,
# ``GibbsModel``) and plain per-pattern samplers
CountSource = Union[PoissonCountLaw, DiracCountLaw, IntensityMeasure, Sampler]


@dataclass(frozen=True)
class DpiEstimate:
    """Max over the supplied partitions of the count-vector Wasserstein
    distance: a lower bound on the process distance, never an upper one."""

    value: float
    std_error: float
    ci_low: float
    ci_high: float
    per_partition: tuple[float, ...]
    truncation_error: float


def _collect_rows(source: CountSource, partitions: Sequence[PartitionSpec], reps: int,
                  rng: np.random.Generator) -> list[np.ndarray]:
    """Count rows of ``reps`` draws in each partition, from one batch."""
    if hasattr(source, "sample_batch"):
        batch = source.sample_batch(rng, reps)
    else:
        batch = PatternBatch.from_patterns([source(rng) for _ in range(reps)])
    return [batch.count_rows(part) for part in partitions]


def dpi_lower_bound(
    xi: CountSource,
    eta: CountSource,
    partitions: Sequence[PartitionSpec],
    reps: int = 10_000,
    seed: int = 0,
    n_boot: int = DEFAULT_N_BOOT,
) -> DpiEstimate:
    """Maximum over partitions of W1 between the two count laws.

    Exact sources (objects with ``count_pmf``) contribute no sampling error;
    sampled sources (objects with ``sample_batch`` or callables drawing one
    pattern) give ``reps`` count rows per partition, the bootstrap resamples
    them and the confidence interval is the 2.5%..97.5% range over
    replicates.  A sampled source needs ``reps >= 2`` and ``n_boot >= 2``.

    With a sampled ``xi`` and an exact ``eta``, every replicate of a
    partition reweights the estimate's atoms against the same target, so the
    partition's solves share one ``ReweightedW1``.  Other pairings, where a
    replicate's target changes, solve each replicate on its own.
    """
    partitions = list(partitions)
    if not partitions:
        raise ParameterError("need at least one partition")
    xi_exact = hasattr(xi, "count_pmf")
    eta_exact = hasattr(eta, "count_pmf")
    if not (xi_exact and eta_exact) and min(reps, n_boot) < 2:
        raise ParameterError(f"a sampled source needs reps >= 2 and n_boot >= 2, got {reps} and {n_boot}")
    xi_atoms = None if xi_exact else [
        SampleAtoms(rows) for rows in _collect_rows(xi, partitions, reps, streams.derive(seed, 10))]
    eta_atoms = None if eta_exact else [
        SampleAtoms(rows) for rows in _collect_rows(eta, partitions, reps, streams.derive(seed, 11))]
    # exact count laws are deterministic: build them once, not per replicate
    xi_laws = [xi.count_pmf(part) for part in partitions] if xi_exact else [s.law() for s in xi_atoms]
    eta_laws = [eta.count_pmf(part) for part in partitions] if eta_exact else [s.law() for s in eta_atoms]
    reweighted = None
    if eta_exact and not xi_exact:
        reweighted = [ReweightedW1(p, q) for p, q in zip(xi_laws, eta_laws)]
        results = [w1.estimate for w1 in reweighted]
    else:
        results = [wasserstein_l1(p, q) for p, q in zip(xi_laws, eta_laws)]
    per_partition = tuple(res.value for res in results)
    value = max(per_partition)
    trunc = max(res.truncation_error for res in results)
    if xi_exact and eta_exact:
        return DpiEstimate(value, 0.0, value, value, per_partition, trunc)

    boots = []
    for b in range(n_boot):
        rng_b = streams.derive(seed, 20, b)
        if reweighted is not None:
            takes = [rng_b.integers(0, reps, size=reps) for _ in xi_atoms]
            res_b = [w1.replicate(s.counts(take)) for w1, s, take in zip(reweighted, xi_atoms, takes)]
        else:
            xi_b = xi_laws if xi_exact else [s.law(rng_b.integers(0, reps, size=reps)) for s in xi_atoms]
            eta_b = [s.law(rng_b.integers(0, reps, size=reps)) for s in eta_atoms]
            res_b = [wasserstein_l1(p, q) for p, q in zip(xi_b, eta_b)]
        boots.append(max(res.value for res in res_b))
    boots = np.array(boots)
    se = float(boots.std(ddof=1))
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return DpiEstimate(value, se, float(lo), float(hi), per_partition, trunc)


@dataclass(frozen=True)
class PrefixTerm:
    """Data of one prefix (A_1, ..., A_i) of a partition tuple: lambda(A_i),
    the absolute q-term sum, and E|Z_j| for j = 1..i."""

    lam: float
    q_abs_sum: float
    z_abs_means: tuple[float, ...]

    def __post_init__(self):
        if self.lam < 0 or self.q_abs_sum < 0 or any(v < 0 for v in self.z_abs_means):
            raise ParameterError("prefix data must be nonnegative")


def tuple_process_bound(terms: Sequence[PrefixTerm]) -> float:
    """Per-tuple process bound sum_i [ sum_m |q^{A_{1:i}}_m| + 2 lambda(A_i) sum_{j<=i} E|Z_j| ].

    The supremum over all tuples of disjoint sets is not computable; this
    evaluates one supplied tuple (callers report the max over a family).
    """
    terms = list(terms)
    for i, term in enumerate(terms, start=1):
        if len(term.z_abs_means) != i:
            raise ParameterError(f"prefix {i} needs {i} E|Z_j| values, got {len(term.z_abs_means)}")
    return float(
        math.fsum(t.q_abs_sum + 2.0 * t.lam * math.fsum(t.z_abs_means) for t in terms)
    )
