"""Stein-equation tests: closed forms, extended-precision recursion oracle,
the row-by-row tail series as a reference for the backward recursion, magic
factors, linearity, and the telescoping decomposition."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from palab import stein
from palab.errors import ContractError, ParameterError
from palab.measures import (
    LatticePmf,
    PoissonVectorParams,
    bernoulli_sum_pmf,
    poisson_vector_pmf,
)
from palab.stein import (
    check_lipschitz_table,
    column_checks,
    decomposition_check,
    default_range,
    solve_stein_batch,
)

from helpers import decomposition_residual_by_cells, random_lipschitz_1d, random_lipschitz_table, row_by_row_stein


def mpmath_stein_oracle(lam: float, g: np.ndarray, dps: int | None = None) -> np.ndarray:
    """Literal forward recursion in extended precision (test oracle only).

    The mean uses the same constant-extension convention as the solver, with
    enough tail terms to be exact at the working precision.  The recursion
    amplifies rounding by about i!/lam^i up to its last row i = N+1, so the
    precision is chosen to beat that factor with 60 digits to spare.
    """
    n_top = len(g) - 1
    if dps is None:
        amplification = math.lgamma(n_top + 2) / math.log(10) + (n_top + 1) * max(0.0, -math.log10(lam))
        dps = 60 + int(amplification)
    with mpmath.workdps(dps):
        lam_mp = mpmath.mpf(lam)
        n = len(g) - 1
        kmax = n + max(200, int(10 * lam) + 200)
        mean = mpmath.mpf(0)
        for k in range(kmax + 1):
            gk = mpmath.mpf(float(g[min(k, n)]))
            mean += gk * mpmath.e ** (-lam_mp) * lam_mp**k / mpmath.factorial(k)
        ghat = [mpmath.mpf(0)]
        for i in range(n + 1):
            ghat.append((i * ghat[i] + mpmath.mpf(float(g[i])) - mean) / lam_mp)
        return np.array([float(v) for v in ghat])


def test_constant_g_gives_zero_solution():
    g = np.full(40, 3.25)
    ghat, means = solve_stein_batch(1.7, g)
    assert np.all(ghat == 0.0)
    _, sup_abs, sup_delta = column_checks(1.7, g, ghat, means)
    assert (sup_abs, sup_delta) == (0.0, 0.0)
    assert means[0] == pytest.approx(3.25, abs=1e-14)


def test_lambda_zero_closed_form():
    ghat, means = solve_stein_batch(0.0, np.arange(30, dtype=float))
    assert ghat[0, 0] == 0.0
    # closed form (g(0) - g(i)) / i = -1 on the tabulated range; the final
    # entry ghat(N+1) uses the constant extension of g and is not -1
    assert np.allclose(ghat[1:30, 0], -1.0, atol=1e-14)
    assert means[0] == 0.0


def test_identity_g_matches_extended_precision_oracle():
    g = np.arange(41, dtype=float)
    ghat, means = solve_stein_batch(1.0, g)
    oracle = mpmath_stein_oracle(1.0, g)
    assert np.max(np.abs(ghat[:, 0] - oracle)) <= 1e-12
    assert column_checks(1.0, g, ghat, means)[0] <= 1e-10


@pytest.mark.parametrize("lam", [0.1, 0.9, 3.7, 9.5])
def test_random_g_matches_extended_precision_oracle(lam):
    rng = np.random.default_rng(int(lam * 10))
    g = random_lipschitz_1d(rng, 61)
    ghat, means = solve_stein_batch(lam, g)
    oracle = mpmath_stein_oracle(lam, g)
    assert np.max(np.abs(ghat[:, 0] - oracle)) <= 1e-11
    assert column_checks(lam, g, ghat, means)[0] <= 1e-10


def test_magic_factors_on_long_range():
    rng = np.random.default_rng(99)
    for lam in (0.1, 1.0, 10.0):
        for _ in range(10):
            g = random_lipschitz_1d(rng, 301)
            residual, sup_abs, sup_delta = column_checks(lam, g, *solve_stein_batch(lam, g))
            assert sup_abs <= 1.0 + 1e-12, (lam, sup_abs)
            assert sup_delta <= 1.0 + 1e-12, (lam, sup_delta)
            assert residual <= 1e-10


def test_column_checks_reads_a_1d_table_as_one_column():
    # the shapes solve_stein_batch takes: a 1-D g is the column g[:, None]
    lam, g = 1.5, np.minimum(np.arange(default_range(1.5, 0) + 1.0), 5.0)
    ghat, means = solve_stein_batch(lam, g)
    checks = column_checks(lam, g, ghat, means)
    for got, want in zip(checks, column_checks(lam, g[:, None], ghat, means)):
        assert got.shape == (1,) and got.tobytes() == want.tobytes()
    assert checks[0][0] <= 1e-12
    with pytest.raises(ParameterError, match=r"shape \(N\+1,\) or \(N\+1, B\)"):
        column_checks(lam, g[:, None, None], ghat, means)


def test_linearity_of_the_solver():
    cases = [
        (2.3, 0.6, -0.4, 1.0),
        (0.0, 0.6, -0.4, 1.0),
        (216.0, 0.6, -0.4, 1.0),
        # weights summing below 1 over columns of very different scale
        (2.3, 0.7, 0.2, 1e-6),
    ]
    for lam, a, b, scale in cases:
        rng = np.random.default_rng(3)
        n = max(80, default_range(lam, 0) + 1)
        g1 = random_lipschitz_1d(rng, n)
        g2 = scale * random_lipschitz_1d(rng, n)
        s1, _ = solve_stein_batch(lam, g1)
        s2, _ = solve_stein_batch(lam, g2)
        combo, _ = solve_stein_batch(lam, a * g1 + b * g2)
        err = np.max(np.abs(combo - (a * s1 + b * s2)))
        assert err <= 1e-10, (lam, a, b, scale, err)


def test_non_lipschitz_rejected_and_negative_lambda():
    with pytest.raises(ContractError):
        solve_stein_batch(1.0, np.array([0.0, 2.0, 0.0]))
    with pytest.raises(ParameterError):
        solve_stein_batch(-0.5, np.zeros(10))


def test_short_table_rejected_for_large_lambda():
    with pytest.raises(ParameterError):
        solve_stein_batch(50.0, np.zeros(20) + np.arange(20) * 0.5)


LAMBDAS = st.one_of(
    st.sampled_from([0.0, 1e-9, 216.0, 400.0]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.integers(1, 40).map(float),
    st.floats(1.0, 60.0),
)


@given(lam=LAMBDAS, b=st.sampled_from([1, 7, 64]), short=st.booleans(),
       extra=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
@example(lam=0.0, b=1, short=True, extra=0, seed=1)
@example(lam=0.0, b=7, short=False, extra=3, seed=2)
@example(lam=1e-9, b=7, short=False, extra=0, seed=3)
@example(lam=1e-9, b=1, short=True, extra=0, seed=4)
@example(lam=0.5, b=64, short=False, extra=5, seed=5)
@example(lam=3.0, b=64, short=True, extra=0, seed=6)
@example(lam=17.0, b=7, short=False, extra=0, seed=7)
@example(lam=216.0, b=7, short=False, extra=11, seed=8)
@example(lam=216.0, b=64, short=True, extra=0, seed=9)
@example(lam=400.0, b=64, short=False, extra=0, seed=10)
@example(lam=400.0, b=1, short=True, extra=0, seed=11)
def test_backward_recursion_matches_row_by_row_series(lam, b, short, extra, seed):
    # the backward recursion and the per-row tail series are two routes to one
    # solution: equal to rounding, and the means are the same sum
    rng = np.random.default_rng(seed)
    if short:
        # N = 0 or N < floor(lambda), where the tail is empty; only an
        # unbounded eps_tail admits such a table
        n, eps_tail = int(rng.integers(0, max(int(lam), 1))), math.inf
    else:
        n, eps_tail = default_range(lam, 0) + extra, 1e-13
    g = np.stack([random_lipschitz_1d(rng, n + 1) for _ in range(b)], axis=1)
    with pytest.MonkeyPatch.context() as mp:  # no function-scoped fixture under @given
        mp.setattr(stein, "DEFAULT_EPS_TAIL", eps_tail)
        ghat, means = solve_stein_batch(lam, g)
    ghat_ref, means_ref = row_by_row_stein(lam, g)
    assert ghat.shape == (n + 2, b)
    assert np.all(np.abs(ghat - ghat_ref) <= 1e-14 * np.maximum(1.0, np.abs(ghat_ref)))
    assert means.tobytes() == means_ref.tobytes()


def test_batch_lipschitz_error_names_first_failing_column():
    ramp = np.arange(60, dtype=float)
    g = np.stack([0.5 * ramp, 1.5 * ramp, 3.0 * ramp], axis=1)
    with pytest.raises(ContractError, match=r"max increment is 1\.5$"):
        solve_stein_batch(2.0, g)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_g_rejected(bad):
    g = np.stack([np.zeros(60), np.minimum(np.arange(60.0), 3.0)], axis=1)
    g[10, 1] = bad
    with pytest.raises(ContractError, match="non-finite"):
        solve_stein_batch(2.0, g)
    with pytest.raises(ContractError, match="non-finite"):
        solve_stein_batch(2.0, g[:, 1])
    with pytest.raises(ContractError, match="non-finite"):
        solve_stein_batch(2.0, np.full(60, bad))


@pytest.mark.parametrize("lam", [0.0, 2.0])
@pytest.mark.parametrize("shape", [(0,), (0, 3), (60, 2, 2), ()], ids=["empty", "no-rows", "3-d", "scalar"])
def test_batch_rejects_malformed_tables(lam, shape):
    with pytest.raises(ParameterError, match=r"shape \(N\+1,\) or \(N\+1, B\)"):
        solve_stein_batch(lam, np.zeros(shape))


@pytest.mark.parametrize("lam", [0.0, 2.0])
def test_zero_column_batch(lam):
    ghat, means = solve_stein_batch(lam, np.zeros((61, 0)))
    assert ghat.shape == (62, 0)
    assert means.shape == (0,)


# (lambda, N, eps_tail) at the split of the recursion at floor(lambda)
SPLIT_CASES = {
    # the backward loop is empty: only ghat(N+1) comes from the scalar series
    "N-is-floor": (5.5, 5, math.inf),
    # forward recursion only, no series
    "N-below-floor": (7.3, 4, math.inf),
    # the first backward row is lambda + 1
    "integer-lambda": (6.0, default_range(6.0, 0), 1e-13),
    # every row backward, the series stops after one term
    "lambda-1e-300": (1e-300, 10, 1e-13),
}


@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
def test_recursion_split_edge_cases(name, monkeypatch):
    lam, n, eps_tail = SPLIT_CASES[name]
    monkeypatch.setattr(stein, "DEFAULT_EPS_TAIL", eps_tail)
    rng = np.random.default_rng(sum(map(ord, name)))
    g = np.stack([random_lipschitz_1d(rng, n + 1) for _ in range(3)], axis=1)
    ghat, means = solve_stein_batch(lam, g)
    for j in range(3):
        assert np.max(np.abs(ghat[:, j] - mpmath_stein_oracle(lam, g[:, j]))) <= 1e-11
    assert column_checks(lam, g, ghat, means)[0].max() <= 1e-10
    empty, empty_means = solve_stein_batch(lam, g[:, :0])
    assert empty.shape == (n + 2, 0) and empty_means.shape == (0,)


def test_lambda_zero_branch_is_the_closed_form_bitwise():
    # the mpmath oracle divides by lambda; at 0 the solution is (g(0) - g(i))/i
    rng = np.random.default_rng(0)
    g = np.stack([random_lipschitz_1d(rng, 51) for _ in range(3)], axis=1)
    ghat, means = solve_stein_batch(0.0, g)
    ghat_ref, means_ref = row_by_row_stein(0.0, g)
    assert ghat.tobytes() == ghat_ref.tobytes() and means.tobytes() == means_ref.tobytes()
    assert ghat[1:51].tobytes() == ((g[0] - g[1:]) / np.arange(1, 51)[:, None]).tobytes()
    assert column_checks(0.0, g, ghat, means)[0].max() <= 1e-10


# -- decomposition (telescoping) ----------------------------------------------

def test_decomposition_poisson_vs_itself():
    params = PoissonVectorParams((0.8, 1.4))
    X = poisson_vector_pmf(params, 1e-13)
    n1 = default_range(0.8, 10) + 1
    n2 = default_range(1.4, 10) + 1
    rng = np.random.default_rng(11)
    g = random_lipschitz_table(rng, (n1, n2))
    assert decomposition_check(X, params, g) <= 1e-10


def test_decomposition_renormalizes_a_truncated_x():
    # a constant g has E[g(P) - g(X)] = 0 and ghat = 0 whatever X's tail
    params = PoissonVectorParams((2.0,))
    X = poisson_vector_pmf(params, 1e-3)
    assert X.tail_mass > 1e-4
    assert decomposition_check(X, params, np.full(default_range(2.0, 10) + 1, 100.0)) <= 1e-8


def test_decomposition_rejects_empty_support():
    X = LatticePmf(1, {}, tail_mass=1.0)
    with pytest.raises(ParameterError, match="empty stored support"):
        decomposition_check(X, PoissonVectorParams((0.3,)), np.zeros(200))


def test_decomposition_bernoulli_identity_g():
    X = bernoulli_sum_pmf(np.array([[0.3]]))
    params = PoissonVectorParams((0.3,))
    n = default_range(0.3, 2) + 1
    g = np.arange(n, dtype=float)
    assert decomposition_check(X, params, g) <= 1e-9


def test_decomposition_random_bernoulli_sum_d2():
    rng = np.random.default_rng(21)
    p = rng.random((3, 2)) * 0.3
    X = bernoulli_sum_pmf(p)
    lam = tuple(p.sum(axis=0))
    params = PoissonVectorParams(lam)
    shape = tuple(default_range(l, 5) + 1 for l in lam)
    g = random_lipschitz_table(rng, shape)
    assert decomposition_check(X, params, g) <= 1e-8


def _min_table(shape):
    """g = min(x_1, ..., x_d) on a lattice box."""
    return np.minimum.reduce(np.meshgrid(*[np.arange(n, dtype=float) for n in shape], indexing="ij"))


@pytest.mark.parametrize("d", [2, 3])
def test_decomposition_min_table_sections_differ_per_prefix(d):
    # g = min(x_1, ..., x_d): the section at each prefix X_{1:i-1} differs by
    # more than a constant, so pairing a prefix with another prefix's Stein
    # solution leaves a residual of order 1e-2
    rng = np.random.default_rng(21)
    p = rng.random((4, d)) * (0.6 / d)
    X = bernoulli_sum_pmf(p)
    lam = tuple(p.sum(axis=0))
    shape = tuple(default_range(l, 6) + 1 for l in lam)
    assert decomposition_check(X, PoissonVectorParams(lam), _min_table(shape)) <= 1e-10


def _oracle_case(name):
    """(X, params, g) of one derandomized decomposition instance."""
    # the min cases are the instances of the test above
    rng = np.random.default_rng(21 if name.endswith("min") else sum(map(ord, name)))
    if name == "single-atom":
        X, lam = LatticePmf(2, {(1, 3): 1.0}), (0.7, 1.3)
    else:
        d = int(name[1])
        p = rng.random((4, d)) * (0.6 / d)
        if name.endswith("zero-rate"):
            p[:, 1] = 0.0
        X, lam = bernoulli_sum_pmf(p), tuple(p.sum(axis=0))
    shape = tuple(default_range(l, 6) + 1 for l in lam)
    g = _min_table(shape) if name.endswith("min") else random_lipschitz_table(rng, shape)
    return X, PoissonVectorParams(lam), g


@pytest.mark.parametrize("eps_box", [1e-12, 1e-4])
@pytest.mark.parametrize("name", ["d1", "d2", "d3", "d2-zero-rate", "d3-zero-rate", "single-atom", "d2-min", "d3-min"])
def test_decomposition_matches_per_cell_oracle(name, eps_box, monkeypatch):
    # eps_box = 1e-4 leaves a truncation residual between 1e-6 and 1e-3 that
    # both routes must reproduce, not just two rounding-level numbers
    X, params, g = _oracle_case(name)
    monkeypatch.setattr(stein, "DEFAULT_EPS_BOX", eps_box)
    assert decomposition_check(X, params, g) == pytest.approx(
        decomposition_residual_by_cells(X, params, g, eps_box=eps_box), rel=0, abs=1e-12)


def test_decomposition_rejects_short_table(monkeypatch):
    X = bernoulli_sum_pmf(np.array([[0.3]]))
    params = PoissonVectorParams((0.3,))
    with pytest.raises(ParameterError):
        decomposition_check(X, params, np.zeros(10))
    # long enough for the solver range, too short for the Poisson box at eps_box
    g = np.zeros(default_range(0.3, 2) + 1)
    assert decomposition_check(X, params, g) <= 1e-9
    monkeypatch.setattr(stein, "DEFAULT_EPS_BOX", 1e-300)
    with pytest.raises(ParameterError, match="tail accuracy"):
        decomposition_check(X, params, g)


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_lipschitz_table_checks_every_axis(axis):
    g = np.zeros((3, 4, 5))
    g[(slice(None),) * axis + (1,)] = 1.5  # a step of 1.5 along this axis only
    with pytest.raises(ContractError, match=r"max increment is 1\.5$"):
        check_lipschitz_table(g)
    check_lipschitz_table(g / 1.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_decomposition_rejects_non_finite_g(bad):
    X = bernoulli_sum_pmf(np.array([[0.3]]))
    g = np.full(default_range(0.3, 2) + 1, bad)
    with pytest.raises(ContractError, match="non-finite"):
        check_lipschitz_table(np.full((3, 4), bad))
    with pytest.raises(ContractError, match="non-finite"):
        decomposition_check(X, PoissonVectorParams((0.3,)), g)
    g = np.zeros(default_range(0.3, 2) + 1)
    g[-1] = bad
    with pytest.raises(ContractError, match="non-finite"):
        decomposition_check(X, PoissonVectorParams((0.3,)), g)
