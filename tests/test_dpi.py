"""Partition lower-bound tests: the two-point Dirac anchor, mean-shift bound,
per-tuple process bounds through both proof routes."""

import math

import numpy as np
import pytest

from palab import streams
from palab.coupling import CouplingTable, q_terms_from_coupling
from palab.errors import ParameterError
from palab.measures import LatticePmf, empirical_pmf
from palab.processes import (
    Box,
    DiracCountLaw,
    GibbsModel,
    IntensityMeasure,
    IntervalPairModel,
    LabelSet,
    LabelSpace,
    PartitionSpec,
    PoissonCountLaw,
    PointPattern,
    PrefixTerm,
    build_ustat_process,
    count_vector,
    dpi_lower_bound,
    papangelou_bound,
    sample_gibbs,
    sample_poisson_process,
    sample_xA,
    tuple_process_bound,
)
from palab.transport import total_variation, wasserstein_l1

from helpers import atoms


def test_two_point_dirac_example_is_exactly_two():
    part = PartitionSpec([LabelSet({"a"}), LabelSet({"b"})])
    xi = DiracCountLaw(PointPattern(["a"]))
    eta = DiracCountLaw(PointPattern(["b"]))
    est = dpi_lower_bound(xi, eta, [part])
    assert est.value == 2.0
    assert est.std_error == 0.0
    assert est.ci_low == est.ci_high == 2.0


def test_identical_exact_laws_give_zero():
    intensity = IntensityMeasure(Box((0.0,), (1.0,)), 1.5)
    part = PartitionSpec([Box((0.0,), (0.5,)), Box((0.5,), (1.0,))])
    est = dpi_lower_bound(PoissonCountLaw(intensity), PoissonCountLaw(intensity), [part])
    assert est.value <= 1e-12


def test_mean_shift_lower_bound_exact():
    window = Box((0.0,), (1.0,))
    part = PartitionSpec([window])
    one = PoissonCountLaw(IntensityMeasure(window, 1.0))
    two = PoissonCountLaw(IntensityMeasure(window, 2.0))
    est = dpi_lower_bound(one, two, [part])
    assert est.value >= 1.0 - est.truncation_error - 1e-9


def test_mean_shift_lower_bound_sampled():
    window = Box((0.0,), (1.0,))
    part = PartitionSpec([window])
    two_exact = PoissonCountLaw(IntensityMeasure(window, 2.0))
    one_sampler = lambda rng: sample_poisson_process(IntensityMeasure(window, 1.0), rng)
    est = dpi_lower_bound(one_sampler, two_exact, [part], reps=20000, seed=3, n_boot=16)
    assert est.value >= 1.0 - 4 * est.std_error - est.truncation_error - 0.05
    assert est.ci_low <= est.value <= est.ci_high


def test_batch_sources_match_their_per_pattern_samplers():
    # a label intensity draws pattern by pattern, so its batch source and the
    # plain callable see the same stream and give the same estimate
    labels = IntensityMeasure(LabelSpace(("a", "b")), {"a": 0.5, "b": 1.5})
    part = PartitionSpec([LabelSet({"a"}), LabelSet({"b"})])
    by_batch = dpi_lower_bound(labels, PoissonCountLaw(labels), [part], reps=3000, seed=4, n_boot=4)
    by_call = dpi_lower_bound(lambda rng: sample_poisson_process(labels, rng), PoissonCountLaw(labels), [part],
                              reps=3000, seed=4, n_boot=4)
    assert by_batch == by_call
    assert by_batch.value <= 4 * by_batch.std_error + 0.05
    # a constant rate: the batch draws another stream of the same law
    window = Box((0.0,), (1.0,))
    rate = IntensityMeasure(window, 1.0)
    est = dpi_lower_bound(rate, PoissonCountLaw(IntensityMeasure(window, 2.0)), [PartitionSpec([window])],
                          reps=20000, seed=3, n_boot=16)
    assert est.value >= 1.0 - 4 * est.std_error - est.truncation_error - 0.05


def test_tv_dominated_by_w1_on_partition_counts():
    window = Box((0.0, 0.0), (1.0, 1.0))
    part = PartitionSpec(
        [Box((0.0, 0.0), (0.5, 1.0)), Box((0.5, 0.0), (1.0, 0.5)), Box((0.5, 0.5), (1.0, 1.0))]
    )
    p_law = PoissonCountLaw(IntensityMeasure(window, 2.0)).count_pmf(part)
    q_law = PoissonCountLaw(IntensityMeasure(window, 1.3)).count_pmf(part)
    assert total_variation(p_law, q_law).value <= wasserstein_l1(p_law, q_law).value + 1e-9


# -- per-tuple process bound evaluator ----------------------------------------------

def test_tuple_bound_poisson_zero():
    window = Box((0.0,), (1.0,))
    part = PartitionSpec([Box((0.0,), (0.4,)), Box((0.4,), (1.0,))])
    law = PoissonCountLaw(IntensityMeasure(window, 2.0), eps=1e-13)
    terms = []
    for i in (1, 2):
        prefix = PartitionSpec(part.sets[:i])
        pmf = law.count_pmf(prefix)
        lam_i = 2.0 * (prefix.sets[-1].highs[0] - prefix.sets[-1].lows[0])
        coupling = CouplingTable.from_deterministic_z(pmf, np.zeros_like)
        _, q = q_terms_from_coupling(pmf, lam_i, coupling)
        terms.append(PrefixTerm(lam=lam_i, q_abs_sum=math.fsum(np.abs(q)), z_abs_means=(0.0,) * i))
    val = tuple_process_bound(terms)
    assert val <= 1e-9


def test_tuple_bound_validates_prefix_lengths():
    with pytest.raises(ParameterError):
        tuple_process_bound([PrefixTerm(1.0, 0.0, (0.0, 0.0))])


def test_tuple_bound_ustat_coupling_route():
    """Z^{A_{1:i}} = xi(eta + Delta(X^{A_i}))(A_{1:i}) - xi(A_{1:i}) - delta_g(X^{A_i}):
    components are nonnegative, q vanishes, and the per-tuple value
    2 lam(A_i) sum_j E|Z_j| stays below the global U-statistic bound."""
    from palab.processes import ustat_bound

    model = IntervalPairModel(rate=1.5, delta=0.3)
    part = PartitionSpec([Box((0.0,), (0.5,)), Box((0.5,), (1.0,))])
    rng = streams.derive(77)
    reps = 3000
    terms = []
    for i in (1, 2):
        target = part.sets[i - 1]
        lam_i = model.count_intensity(target)
        z_means = np.zeros(i)
        for _ in range(reps):
            eta = sample_poisson_process(model.mu, rng)
            xa = sample_xA(model, target, rng)
            xi_plain = build_ustat_process(eta, model)
            xi_aug = build_ustat_process(PointPattern([*eta.points.tolist(), *xa]), model)
            y_atom = model.kernel(xa)
            for j in range(i):
                region = part.sets[j]
                z = (
                    int(region.contains(xi_aug.points).sum())
                    - int(region.contains(xi_plain.points).sum())
                    - int(region.contains(np.array([y_atom])).sum())
                )
                assert z >= 0, "U-statistic coupling must have nonnegative components"
                z_means[j] += z
        z_means /= reps
        terms.append(PrefixTerm(lam=lam_i, q_abs_sum=0.0, z_abs_means=tuple(z_means)))
    per_tuple = tuple_process_bound(terms)
    assert per_tuple <= ustat_bound(model) + 0.1  # MC slack


def test_tuple_bound_papangelou_route_q_below_integral_bound():
    """With Z = 0 the per-tuple q-sum is bounded by the Papangelou integral;
    checked with Monte Carlo pmfs and an exhaustive m-sum on a 2-set partition."""
    window = Box((0.0, 0.0), (1.0, 1.0))
    model = GibbsModel(beta=2.0, theta=0.6, rho=0.12, window=window)
    part = PartitionSpec([Box((0.0, 0.0), (0.5, 1.0)), Box((0.5, 0.0), (1.0, 1.0))])
    bound = papangelou_bound(model, IntensityMeasure(window, 2.0), reps=6000, seed=11)
    rng = streams.derive(13)
    reps = 30000
    rows = np.array(
        [count_vector(sample_gibbs(model, rng), part) for _ in range(reps)]
    )
    total_q = 0.0
    total_se = 0.0
    for i in (1, 2):
        pmf = empirical_pmf(rows[:, :i])
        lam_i = 2.0 * 0.5
        law = atoms(pmf)
        keys = set(law)
        keys |= {x[:-1] + (x[-1] + 1,) for x in law}
        q_abs = 0.0
        se = 0.0
        for m in keys:
            if m[-1] < 1:
                continue
            p_here = law.get(m, 0.0)
            p_shift = law.get(m[:-1] + (m[-1] - 1,), 0.0)
            q_abs += abs(m[-1] * p_here - lam_i * p_shift)
            se += m[-1] * math.sqrt(p_here * (1 - p_here) / reps) + lam_i * math.sqrt(
                p_shift * (1 - p_shift) / reps
            )
        total_q += q_abs
        total_se += se
    slack = 3 * bound.std_error + total_se
    assert total_q <= bound.estimate + slack


def test_dpi_reports_per_partition_values():
    window = Box((0.0,), (1.0,))
    parts = [
        PartitionSpec([window]),
        PartitionSpec([Box((0.0,), (0.5,)), Box((0.5,), (1.0,))]),
    ]
    a = PoissonCountLaw(IntensityMeasure(window, 1.0))
    b = PoissonCountLaw(IntensityMeasure(window, 1.6))
    est = dpi_lower_bound(a, b, parts)
    assert len(est.per_partition) == 2
    assert est.value == max(est.per_partition)
