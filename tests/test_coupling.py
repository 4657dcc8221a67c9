"""Coupling-bound tests: symbolic Bernoulli cases, Poisson fixed point,
size-bias defects, m-dependent array closed forms vs Monte Carlo."""

import math

import numpy as np
import pytest

from palab.coupling import (
    BernoulliArrayModel,
    CouplingTable,
    corollary_bound,
    mdep_bound,
    q_factor,
    q_terms_from_coupling,
    sample_mdep_counts,
    sample_mdep_labels,
    size_bias_check,
    coupling_vector_bound,
)
from palab import streams
from palab.errors import ContractError, ParameterError
from palab.measures import LatticePmf, PoissonVectorParams, bernoulli_sum_pmf, poisson_vector_pmf
from palab.transport import wasserstein_l1

from helpers import atoms, mdep_first_term_by_loops, q_factor_by_loops


def bernoulli_pmf(p: float) -> LatticePmf:
    return LatticePmf(1, {(0,): 1.0 - p, (1,): p})


def zero_z(x):
    return np.zeros_like(x)


# -- q-terms -------------------------------------------------------------------

def test_q_terms_vanish_for_poisson_with_zero_z():
    params = PoissonVectorParams((0.7, 1.1))
    X = poisson_vector_pmf(params, 1e-13)
    for i in (1, 2):
        Xi = X.prefix_marginal(i)
        coupling = CouplingTable.from_deterministic_z(Xi, zero_z)
        _, q = q_terms_from_coupling(Xi, params.lambdas[i - 1], coupling)
        assert math.fsum(np.abs(q)) <= 1e-10 + 3 * X.tail_mass


def test_q_terms_bernoulli_zero_z_symbolic():
    p = 0.3
    X = bernoulli_pmf(p)
    coupling = CouplingTable.from_deterministic_z(X, zero_z)
    points, values = q_terms_from_coupling(X, p, coupling)
    terms = dict(zip(map(tuple, points.tolist()), values.tolist()))
    assert terms[(1,)] == pytest.approx(p * p, abs=1e-15)
    assert terms[(2,)] == pytest.approx(-p * p, abs=1e-15)
    assert set(terms) == {(1,), (2,)}


def test_q_terms_bernoulli_z_minus_x_all_zero():
    p = 0.3
    X = bernoulli_pmf(p)
    coupling = CouplingTable.from_deterministic_z(X, np.negative)
    points, values = q_terms_from_coupling(X, p, coupling)
    assert len(points) == len(values) == 0


def test_q_term_signed_sum_identity():
    # sum_m q_m = E[X_i] - lambda_i * P(X + Z in N_0^i)
    rng = np.random.default_rng(4)
    X = bernoulli_sum_pmf(rng.random((3, 2)) * 0.3)
    X2 = X.prefix_marginal(2)
    coupling = CouplingTable.from_deterministic_z(
        X2, lambda x: np.column_stack([np.where(x[:, 0] > 0, -1, 0), np.where(x[:, 1] == 0, 1, -1)])
    )
    lam = 0.8
    _, q = q_terms_from_coupling(X2, lam, coupling)
    e_xi = sum(p * x[-1] for x, p in atoms(X2).items())
    inside = coupling.p[(coupling.x + coupling.z >= 0).all(axis=1)].sum()
    assert math.fsum(q) == pytest.approx(e_xi - lam * inside, abs=1e-10)


def test_marginal_mismatch_rejected():
    X = bernoulli_pmf(0.3)
    other = bernoulli_pmf(0.4)
    coupling = CouplingTable.from_deterministic_z(other, zero_z)
    with pytest.raises(ContractError):
        q_terms_from_coupling(X, 0.3, coupling)


def test_coupling_table_arrays_validated_and_read_only():
    x, z, p = [[0], [1], [1]], [[0], [-1], [2]], [0.5, 0.0, 0.5]
    table = CouplingTable(x, z, p)
    assert table.dim == 1
    assert (table.x.tolist(), table.z.tolist(), table.p.tolist()) == ([[0], [1]], [[0], [2]], [0.5, 0.5])
    with pytest.raises(ValueError):
        table.p[0] = 1.0
    for bad in (
        ([0, 1], [0, 0], [0.5, 0.5]),             # not (n, i)
        ([[0], [1]], [[0, 0], [0, 0]], [0.5, 0.5]),  # z shape differs
        ([[0], [-1]], [[0], [0]], [0.5, 0.5]),    # x outside N_0
        ([[0], [1]], [[0], [0]], [1.5, -0.5]),    # negative probability
        ([[0], [1]], [[0], [0]], [0.5, 0.4]),     # mass 0.9
    ):
        with pytest.raises(ParameterError):
            CouplingTable(*bad)


# -- coupling vector bound --------------------------------------------------------

def test_bound_zero_for_poisson_fixed_point():
    params = PoissonVectorParams((0.6, 1.2))
    X = poisson_vector_pmf(params, 1e-13)
    couplings = [
        CouplingTable.from_deterministic_z(X.prefix_marginal(i), zero_z) for i in (1, 2)
    ]
    assert coupling_vector_bound(params, couplings) <= 1e-9


def test_bound_bernoulli_symbolic_values():
    p = 0.25
    X = bernoulli_pmf(p)
    params = PoissonVectorParams((p,))
    plain = coupling_vector_bound(params, [CouplingTable.from_deterministic_z(X, zero_z)])
    assert plain == pytest.approx(2 * p * p, abs=1e-14)
    minus = coupling_vector_bound(
        params, [CouplingTable.from_deterministic_z(X, np.negative)]
    )
    assert minus == pytest.approx(p * p, abs=1e-14)


def test_improved_never_exceeds_plain():
    rng = np.random.default_rng(9)
    for _ in range(10):
        X = bernoulli_sum_pmf(rng.random((3, 2)) * 0.3)
        lam = PoissonVectorParams(tuple(X.mean()))
        couplings = []
        for i in (1, 2):
            Xi = X.prefix_marginal(i)
            shift = rng.integers(-1, 2, size=i)
            couplings.append(
                CouplingTable.from_deterministic_z(
                    Xi, lambda x, s=shift: np.where(s < 0, np.minimum(s, x), s)
                )
            )
        plain = coupling_vector_bound(lam, couplings, improved=False)
        improved = coupling_vector_bound(lam, couplings, improved=True)
        assert improved <= plain + 1e-12


def test_bound_dominates_exact_distance():
    rng = np.random.default_rng(13)
    for _ in range(5):
        p = rng.random((3, 2)) * 0.3
        X = bernoulli_sum_pmf(p)
        params = PoissonVectorParams(tuple(p.sum(axis=0)))
        couplings = [
            CouplingTable.from_deterministic_z(X.prefix_marginal(i), zero_z) for i in (1, 2)
        ]
        bound = coupling_vector_bound(params, couplings)
        target = poisson_vector_pmf(params, 1e-12)
        res = wasserstein_l1(X, target)
        assert res.value <= bound + res.truncation_error + 1e-8


# -- size bias -------------------------------------------------------------------

def test_size_bias_poisson_zero_defect():
    params = PoissonVectorParams((0.9, 0.5))
    X = poisson_vector_pmf(params, 1e-13)
    couplings = [
        CouplingTable.from_deterministic_z(X.prefix_marginal(i), zero_z) for i in (1, 2)
    ]
    report = size_bias_check(X, params, couplings)
    assert report.max_defect <= 1e-10 + 3 * X.tail_mass


def test_size_bias_bernoulli_exact_coupling():
    p = 0.3
    X = bernoulli_pmf(p)
    coupling = CouplingTable.from_deterministic_z(X, np.negative)
    report = size_bias_check(X, PoissonVectorParams((p,)), [coupling])
    assert report.max_defect <= 1e-12
    assert report.q_defect <= 1e-12


def test_size_bias_bernoulli_zero_z_reports_premise_violation():
    p = 0.3
    X = bernoulli_pmf(p)
    coupling = CouplingTable.from_deterministic_z(X, zero_z)
    report = size_bias_check(X, PoissonVectorParams((p,)), [coupling])
    assert report.max_defect == pytest.approx(p * p, abs=1e-14)
    assert report.q_defect == pytest.approx(2 * p * p, abs=1e-14)
    assert report.mean_defect <= 1e-15


# -- corollary and m-dependent bounds ---------------------------------------------

def test_corollary_identical_rows_algebra():
    lam = np.array([0.4, 0.3])
    n = 8
    p = np.tile(lam / n, (n, 1))
    assert corollary_bound(p) == pytest.approx(lam.sum() ** 2 / n, rel=1e-12)


def test_corollary_single_row():
    p = np.array([[0.2, 0.15]])
    assert corollary_bound(p) == pytest.approx(0.35**2, rel=1e-12)


def test_corollary_matches_double_loop_oracle():
    rng = np.random.default_rng(31)
    p = rng.random((10, 2)) * 0.4
    brute = sum(
        p[k, i] * p[k, j] for k in range(10) for i in range(2) for j in range(2)
    )
    assert corollary_bound(p) == pytest.approx(brute, rel=1e-12)


def test_mdep_bound_m0_equals_corollary_bitwise():
    rng = np.random.default_rng(37)
    for _ in range(5):
        p = rng.random((12, 3)) * 0.25
        model = BernoulliArrayModel(n=12, d=3, p=p, m=0)
        assert mdep_bound(model) == corollary_bound(p)


def test_mdep_bound_zero_p():
    model = BernoulliArrayModel(n=5, d=2, p=np.zeros((5, 2)), m=1)
    assert mdep_bound(model) == 0.0


def test_mdep_bound_vs_second_writer_oracle():
    rng = np.random.default_rng(41)
    n, d, m = 50, 2, 1
    p = rng.random((n, d)) * 0.02
    model = BernoulliArrayModel(n=n, d=d, p=p, m=m)
    # independent re-implementation of the formula, plain loops
    first = 0.0
    for k in range(n):
        for i in range(d):
            s1 = sum(p[r, i] for r in range(max(0, k - m), min(n, k + m + 1)))
            s2 = sum(
                p[r, j]
                for j in range(i)
                for r in range(max(0, k - m), min(n, k + m + 1))
            )
            first += (s1 + 2 * s2) * p[k, i]
    qs = sum(q_factor(model, k) for k in range(1, n + 1))
    expect = first + 2 * d * (d + 1) * m * qs
    assert mdep_bound(model) == pytest.approx(expect, rel=1e-12)


def test_mdep_bound_and_q_factors_equal_the_loops_bitwise():
    # a frozen grid of models, n 1-59, d 1-3, m 1-3, both families: the
    # shifted-array window sums and the Q factors on Python floats against
    # the same forms on numpy scalars, one add at a time
    rng = np.random.default_rng(59)
    for case in range(80):
        n, d, m = int(rng.integers(1, 60)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        p = rng.random((n, d)) * rng.uniform(0.01, 1.0 / d)
        model = BernoulliArrayModel(n=n, d=d, p=p, m=m, family=("sliding_min", "independent")[case % 2])
        qs = [q_factor(model, k) for k in range(1, n + 1)]
        assert qs == [q_factor_by_loops(model, k) for k in range(1, n + 1)]
        first = mdep_first_term_by_loops(model.p, m)
        assert mdep_bound(model) == first + 2.0 * d * (d + 1) * m * math.fsum(qs)
        assert corollary_bound(p) == mdep_first_term_by_loops(model.p, 0)


# -- Q factors and the shipped window sampler --------------------------------------

def test_q_factor_empty_window_convention():
    model = BernoulliArrayModel(n=4, d=2, p=np.full((4, 2), 0.1), m=0)
    assert q_factor(model, 2) == 0.0


def test_q_factor_independent_family_is_product():
    rng = np.random.default_rng(43)
    p = rng.random((6, 2)) * 0.3
    model = BernoulliArrayModel(n=6, d=2, p=p, m=1, family="independent")
    for k in range(1, 7):
        k0 = k - 1
        expect = max(
            p[k0, i] * p[r, j]
            for r in range(6)
            if 1 <= abs(k0 - r) <= 1
            for i in range(2)
            for j in range(2)
        )
        assert q_factor(model, k) == pytest.approx(expect, rel=1e-12)


def test_q_factor_sliding_window_vs_monte_carlo():
    rng = np.random.default_rng(47)
    n, d, m = 20, 2, 1
    p = rng.random((n, d)) * 0.25
    model = BernoulliArrayModel(n=n, d=d, p=p, m=m)
    reps = 10**6
    labels = __import__("palab.coupling", fromlist=["sample_mdep_labels"]).sample_mdep_labels(
        model, reps, seed=123
    )
    k0 = 9
    exact = q_factor(model, k0 + 1)
    best_freq = 0.0
    for r in (k0 - 1, k0 + 1):
        for i in range(d):
            for j in range(d):
                best_freq = max(best_freq, float(np.mean((labels[:, k0] == i) & (labels[:, r] == j))))
    sigma = math.sqrt(exact * (1 - exact) / reps)
    assert abs(best_freq - exact) <= 4 * sigma + 1e-9


def test_sampler_marginals_match_p():
    rng = np.random.default_rng(53)
    n, d, m = 10, 2, 2
    p = rng.random((n, d)) * 0.3
    model = BernoulliArrayModel(n=n, d=d, p=p, m=m)
    reps = 10**5
    counts = sample_mdep_counts(model, reps, seed=7)
    lam_hat = counts.mean(axis=0)
    lam = p.sum(axis=0)
    sigma = np.sqrt(np.maximum(lam, 1e-12) / reps) * 2  # crude variance bound
    assert np.all(np.abs(lam_hat - lam) <= 6 * sigma)


def test_sampler_gap_beyond_m_uncorrelated():
    rng = np.random.default_rng(59)
    n, d, m = 12, 1, 1
    p = np.full((n, d), 0.3)
    model = BernoulliArrayModel(n=n, d=d, p=p, m=m)
    from palab.coupling import sample_mdep_labels

    reps = 2 * 10**5
    labels = sample_mdep_labels(model, reps, seed=11)
    a = (labels[:, 3] == 0).astype(float)
    b = (labels[:, 3 + m + 1] == 0).astype(float)
    joint = float(np.mean(a * b))
    expect = float(np.mean(a)) * float(np.mean(b))
    sigma = math.sqrt(joint * (1 - joint) / reps)
    assert abs(joint - expect) <= 4 * sigma + 1e-9


def window_min_labels(model: BernoulliArrayModel, reps: int, seed: int) -> np.ndarray:
    """Labels through sliding_window_view and thresholds rebuilt from p
    (reference for sample_mdep_labels)."""
    u = streams.derive(seed, 0).random((reps, model.n + model.m))
    cum = np.clip(np.concatenate([np.zeros((model.n, 1)), np.cumsum(model.p, axis=1)], axis=1), 0.0, 1.0)
    if model.family == "sliding_min":
        stat = np.lib.stride_tricks.sliding_window_view(u, model.m + 1, axis=1).min(axis=2)
        t = 1.0 - (1.0 - cum) ** (1.0 / (model.m + 1))
    else:
        stat, t = u[:, : model.n], cum
    return np.stack([np.searchsorted(t[r, 1:], stat[:, r], side="left") for r in range(model.n)], axis=1)


@pytest.mark.parametrize("family", ["sliding_min", "independent"])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_sampler_matches_sliding_window_reference(family, m):
    rng = np.random.default_rng(61 + m)
    model = BernoulliArrayModel(n=15, d=2, p=rng.random((15, 2)) * 0.3, m=m, family=family)
    assert not model.thresholds.flags.writeable
    labels = sample_mdep_labels(model, 3000, seed=5)
    assert labels.dtype == np.int64
    assert np.array_equal(labels, window_min_labels(model, 3000, 5))


@pytest.mark.parametrize("family", ["sliding_min", "independent"])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_counts_match_the_labels(family, m, d):
    rng = np.random.default_rng(71 + 4 * m + d)
    p = rng.random((25, d)) * (0.9 / d)
    p[3] = 0.0  # a row that is always the zero vector
    p[7, 0] = 1.0 / d  # and one whose first coordinates fill its mass
    model = BernoulliArrayModel(n=25, d=d, p=p, m=m, family=family)
    labels = sample_mdep_labels(model, 2000, seed=13)
    want = np.stack([(labels == j).sum(axis=1) for j in range(d)], axis=1)
    got = sample_mdep_counts(model, 2000, seed=13)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("check", [
    bernoulli_sum_pmf,
    corollary_bound,
    lambda p: BernoulliArrayModel(n=2, d=1, p=p, m=1),
], ids=["bernoulli_sum_pmf", "corollary_bound", "BernoulliArrayModel"])
def test_nan_probabilities_rejected(check):
    with pytest.raises(ParameterError, match=r"\[0,1\]"):
        check(np.array([[0.2], [np.nan]]))


def test_model_validation_errors():
    with pytest.raises(ParameterError):
        BernoulliArrayModel(n=2, d=2, p=np.array([[0.7, 0.6], [0.1, 0.1]]), m=0)
    with pytest.raises(ParameterError):
        BernoulliArrayModel(n=2, d=1, p=[[0.5], [0.1, 0.2]], m=0)  # ragged rows
    with pytest.raises(ParameterError):
        BernoulliArrayModel(n=2, d=1, p=np.array([[0.5], [0.5]]), m=-1)
    with pytest.raises(ParameterError):
        BernoulliArrayModel(n=2, d=1, p=np.array([[0.5], [0.5]]), m=0, family="nope")
