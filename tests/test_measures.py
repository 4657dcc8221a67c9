"""LatticePmf construction tests: hand-evaluated Poisson atoms, convolution
identities, Monte Carlo frequency oracles, truncation accounting."""

import math
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special, stats

from palab import measures
from palab.errors import CapacityError, ParameterError
from palab.measures import (
    LatticePmf,
    PoissonVectorParams,
    SampleAtoms,
    _merge_index,
    bernoulli_sum_pmf,
    empirical_pmf,
    merge_rows,
    poisson_cut,
    poisson_law,
    poisson_pmf,
    poisson_vector_pmf,
    truncate_small_atoms,
)
from palab.transport import total_variation

from helpers import atoms


# -- poisson_vector_pmf ------------------------------------------------------

def test_poisson_degenerate_zero_rate():
    pmf = poisson_vector_pmf(PoissonVectorParams((0.0,)), 0.5)
    assert atoms(pmf) == {(0,): 1.0}
    assert pmf.tail_mass == 0.0


def test_poisson_rate_one_matches_independent_evaluation():
    pmf = poisson_vector_pmf(PoissonVectorParams((1.0,)), 1e-12)
    assert pmf.tail_mass <= 1e-12
    for (k,), p in atoms(pmf).items():
        # independent evaluation of the Poisson pmf
        assert p == pytest.approx(math.exp(-1.0) / math.factorial(k), rel=1e-13)
    # independent tail sum at the cut point
    n_max = max(k for (k,) in atoms(pmf))
    tail = 1.0 - sum(math.exp(-1.0) / math.factorial(k) for k in range(n_max + 1))
    assert pmf.tail_mass == pytest.approx(tail, abs=1e-15)


def test_poisson_product_atom_hand_evaluated():
    pmf = poisson_vector_pmf(PoissonVectorParams((1.0, 2.0)), 1e-10)
    # e^-1 * 1 * e^-2 * 2 = 2 e^-3
    assert pmf.prob((1, 2)) == pytest.approx(2.0 * math.exp(-3.0), rel=1e-12)


def test_poisson_truncated_mean_between_lambda_minus_tail_and_lambda():
    params = PoissonVectorParams((0.7, 2.5, 4.0))
    pmf = poisson_vector_pmf(params, 1e-8)
    mean = pmf.mean()
    for mu, lam in zip(mean, params.lambdas):
        assert lam - pmf.tail_moment <= mu <= lam + 1e-14


def test_poisson_tail_moment_dominates_tail_mass():
    pmf = poisson_vector_pmf(PoissonVectorParams((3.0, 1.5)), 1e-6)
    assert pmf.tail_moment >= pmf.tail_mass


def test_poisson_errors(monkeypatch):
    with pytest.raises(ParameterError):
        PoissonVectorParams((-1.0,))
    with pytest.raises(ParameterError):
        PoissonVectorParams(())
    with pytest.raises(ParameterError):
        poisson_vector_pmf(PoissonVectorParams((1.0,)), 0.0)
    monkeypatch.setattr(measures, "DEFAULT_ATOM_BUDGET", 1000)
    with pytest.raises(CapacityError):
        poisson_vector_pmf(PoissonVectorParams((50.0,) * 4), 1e-12)


# -- the Poisson kernel: scipy.special is the reference -----------------------

KERNEL_RTOL = 5e-12


@pytest.mark.parametrize("lam", [0.0, 1e-12, 0.1, 1.3, 7.7, 55.0, 216.0, 370.0])
def test_poisson_pmf_sf_bitwise_equal_scipy_stats(lam):
    """pmf and sf within KERNEL_RTOL of scipy.special where the reference
    exceeds 1e-290 and 1e-250; the pmf is exactly 0 at k < 0, and
    ``poisson_law`` gives the same pmf next to its sf."""
    k = np.arange(-1, 401)
    pmf, sf = poisson_law(lam, 400)
    for got, ref, tiny in [
        (poisson_pmf(k, lam), np.exp(special.xlogy(np.maximum(k, 0), lam) - special.gammaln(k + 1) - lam), 1e-290),
        (sf, special.pdtrc(k[1:], lam), 1e-250),
    ]:
        big = ref > tiny
        assert (np.abs(got[big] - ref[big]) <= KERNEL_RTOL * ref[big]).all()
        assert (got[~big] <= 2 * tiny).all()
    assert float(poisson_pmf(-1, lam)) == 0.0 and pmf.tobytes() == poisson_pmf(k[1:], lam).tobytes()


def law_sf(k: int, lam: float) -> float:
    """P(P > k) read from ``poisson_law``, and 1 for k < 0."""
    return 1.0 if k < 0 else float(poisson_law(lam, k)[1][k])


def isf_seeded_cut(lam, eps):
    """The cut search the kernel replaced: seed at scipy's isf, then walk to
    the smallest N with sf(N) <= eps."""
    if lam == 0.0:
        return 0
    n = int(stats.poisson.isf(eps, lam))
    while stats.poisson.sf(n, lam) > eps:
        n += 1
    while n > 0 and stats.poisson.sf(n - 1, lam) <= eps:
        n -= 1
    return n


def test_poisson_cut_equals_isf_seeded_walk():
    zero_cuts = 0
    for lam in (0.0, *np.geomspace(1e-12, 400.0, 25)):
        for eps in (*np.geomspace(1e-14, 0.9, 12), 0.5):
            cut = poisson_cut(float(lam), float(eps))
            # the kernel may round the other way only where scipy's tail at
            # the cut lies within the kernel's error of eps (no case on this grid)
            if abs(stats.poisson.sf(cut, lam) - eps) > KERNEL_RTOL * eps:
                assert cut == isf_seeded_cut(float(lam), float(eps)), (lam, eps)
            assert law_sf(cut, lam) <= eps < law_sf(cut - 1, lam)
            zero_cuts += cut == 0
    assert zero_cuts > 25  # every lambda = 0 and the small rates
    assert poisson_cut(3.0, law_sf(5, 3.0)) == 5  # a tail equal to eps is within it
    cut = poisson_cut(2.0, 1e-300)  # below about 5e-17, scipy's isf is nan
    assert law_sf(cut, 2.0) <= 1e-300 < law_sf(cut - 1, 2.0)


def mpmath_box_tail(lambdas, eps):
    """1 - prod_i P(P_i <= N_i) at 40 digits, N_i = poisson_cut(lambda_i, eps / d)."""
    with mpmath.workdps(40):
        inside = mpmath.mpf(1)
        for lam in lambdas:
            lam_mp = mpmath.mpf(lam)
            n = poisson_cut(lam, eps / len(lambdas))
            inside *= mpmath.fsum(mpmath.exp(-lam_mp) * lam_mp**k / mpmath.factorial(k) for k in range(n + 1))
        return 1 - inside


def random_product_poisson(rng, d=None):
    """Rates in [0, 3) at d <= 4 (random when None) and eps in [1e-12, 1e-6)."""
    d = int(rng.integers(1, 5)) if d is None else d
    return PoissonVectorParams(tuple(rng.uniform(0.0, 3.0, d))), float(10.0 ** rng.uniform(-12.0, -6.0))


def test_poisson_tail_mass_dominates_mpmath_truth():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        params, eps = random_product_poisson(rng)
        pmf = poisson_vector_pmf(params, eps)
        truth = mpmath_box_tail(params.lambdas, eps)
        assert truth <= pmf.tail_mass <= eps and pmf.tail_mass <= truth * (1 + 1e-9), (params, eps)


def test_total_variation_truncation_error_dominates_mpmath_truth():
    rng = np.random.default_rng(2025)
    for _ in range(6):
        p_params, p_eps = random_product_poisson(rng)
        q_params, q_eps = random_product_poisson(rng, p_params.dim)
        res = total_variation(poisson_vector_pmf(p_params, p_eps), poisson_vector_pmf(q_params, q_eps))
        assert res.truncation_error >= mpmath_box_tail(p_params.lambdas, p_eps) + mpmath_box_tail(q_params.lambdas, q_eps)


# -- bernoulli_sum_pmf -------------------------------------------------------

def test_bernoulli_single_summand():
    pmf = bernoulli_sum_pmf(np.array([[0.2, 0.3]]))
    assert atoms(pmf) == pytest.approx({(0, 0): 0.5, (1, 0): 0.2, (0, 1): 0.3})
    assert pmf.tail_mass == 0.0


def test_bernoulli_binomial_identity():
    pmf = bernoulli_sum_pmf(np.array([[0.5], [0.5]]))
    assert atoms(pmf) == pytest.approx({(0,): 0.25, (1,): 0.5, (2,): 0.25})


def test_bernoulli_marginal_means_exact():
    rng = np.random.default_rng(5)
    p = rng.random((7, 3)) * 0.3
    pmf = bernoulli_sum_pmf(p)
    assert np.abs(pmf.mean() - p.sum(axis=0)).max() <= 1e-12


def test_bernoulli_matches_monte_carlo():
    rng = np.random.default_rng(17)
    p = rng.random((3, 2)) * 0.3
    pmf = bernoulli_sum_pmf(p)
    reps = 10**6
    rows = np.zeros((reps, 2), dtype=np.int64)
    u = rng.random((reps, 3))
    cum = np.cumsum(p, axis=1)
    for r in range(3):
        rows[:, 0] += u[:, r] < cum[r, 0]
        rows[:, 1] += (u[:, r] >= cum[r, 0]) & (u[:, r] < cum[r, 1])
    counts = {}
    for row in map(tuple, rows):
        counts[row] = counts.get(row, 0) + 1
    for x, prob in atoms(pmf).items():
        freq = counts.get(x, 0) / reps
        sigma = math.sqrt(prob * (1 - prob) / reps)
        assert abs(freq - prob) <= 4 * sigma + 1e-9, f"atom {x}"


def test_bernoulli_row_sum_error():
    with pytest.raises(ParameterError):
        bernoulli_sum_pmf(np.array([[0.7, 0.6]]))


# -- empirical_pmf -----------------------------------------------------------

def test_empirical_trivial_cases():
    b = [(0,), (0,), (1,), (1,)]
    assert atoms(empirical_pmf(b)) == pytest.approx({(0,): 0.5, (1,): 0.5})
    b2 = [(2, 3)]
    assert atoms(empirical_pmf(b2)) == {(2, 3): 1.0}


def test_empirical_poisson_frequency_within_4_sigma():
    rng = np.random.default_rng(23)
    reps = 10**5
    draws = rng.poisson(1.0, size=reps)
    pmf = empirical_pmf(draws[:, None])
    p0 = math.exp(-1.0)
    sigma = math.sqrt(p0 * (1 - p0) / reps)
    assert abs(pmf.prob((0,)) - p0) <= 4 * sigma


def test_empirical_tv_convergence_to_exact():
    rng = np.random.default_rng(29)
    exact = bernoulli_sum_pmf(rng.random((5, 2)) * 0.3)
    xs, ps = exact.support_arrays()
    count = 20000
    rows = xs[rng.choice(len(ps), p=ps / ps.sum(), size=count)]
    pmf = empirical_pmf(rows)
    tv = total_variation(pmf, exact).value
    assert tv <= 4 * math.sqrt(len(ps) / count)


def test_empty_batch_rejected():
    with pytest.raises(ParameterError):
        empirical_pmf(np.zeros((0, 1), dtype=np.int64))


def _counter_reference(rows: np.ndarray):
    """Points in sorted-tuple order and count * (1/n), by plain Python counting."""
    counts = Counter(map(tuple, rows.tolist()))
    inv = 1.0 / len(rows)
    points = sorted(counts)
    return points, [counts[x] * inv for x in points]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_empirical_matches_counter_reference(dim):
    rng = np.random.default_rng(100 + dim)
    cases = [
        rng.poisson(1.5, size=(1, dim)),                     # one row
        np.full((257, dim), 3),                              # all rows identical
        rng.integers(0, 2, size=(5000, dim)),                # heavy ties
        rng.poisson(rng.uniform(0.2, 4.0, size=dim), size=(3001, dim)),
        rng.integers(0, 3, size=(700, dim)) + 10**15,         # far from the origin
        rng.integers(0, int(2 ** (62 / dim)), size=(400, dim)),  # wide box, still one int64 key
    ]
    for rows in cases:
        _assert_counts_match(empirical_pmf(rows), rows)


def _assert_counts_match(pmf, rows):
    points, probs = _counter_reference(rows)
    assert pmf.dim == rows.shape[1]
    assert [tuple(x) for x in pmf.points.tolist()] == points
    assert pmf.probs.tolist() == probs  # bitwise: same count * (1/n)


@pytest.mark.parametrize("dim", [2, 3])
def test_empirical_counts_rows_whose_box_overflows_int64(dim):
    # a column spanning 2**62 times a column of 3+ values is more than 2**63 - 1
    # cells, so no int64 key exists and the rows are sorted as they are
    rng = np.random.default_rng(200 + dim)
    rows = rng.integers(0, 3, size=(600, dim))
    rows[:, 0] = rng.choice([0, 5, 2**62], size=600)
    assert math.prod(int(c.max()) - int(c.min()) + 1 for c in rows.T) > np.iinfo(np.int64).max
    _assert_counts_match(empirical_pmf(rows), rows)


def _merge_reference(rows: np.ndarray, weights):
    """Sorted distinct row tuples with weights summed in row order by a dict
    loop (counts when ``weights`` is None)."""
    acc: dict = {}
    for k, x in enumerate(map(tuple, rows.tolist())):
        acc[x] = acc.get(x, 0.0 if weights is not None else 0) + (1 if weights is None else weights[k])
    points = sorted(acc)
    return points, [acc[x] for x in points]


@st.composite
def merge_inputs(draw):
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(0, 60))
    # narrow values give many ties; a 2**62-wide column with a second column
    # makes a box of more than 2**63 - 1 cells, which has no int64 key
    wide = dim > 1 and draw(st.booleans())
    rows = np.array(draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=dim, max_size=dim), min_size=n, max_size=n,
    )), dtype=np.int64).reshape(n, dim)
    if wide and n:
        rows[:, 0] = draw(st.lists(st.sampled_from([-(2**61), 0, 2**62]), min_size=n, max_size=n))
    weighted = draw(st.booleans())
    weights = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)) if weighted else None
    return rows, weights


@given(merge_inputs())
def test_merge_rows_matches_dict_reference(case):
    rows, weights = case
    points, sums = merge_rows(rows, None if weights is None else np.array(weights))
    ref_points, ref_sums = _merge_reference(rows, weights)
    assert points.shape == (len(ref_points), rows.shape[1])
    assert [tuple(x) for x in points.tolist()] == ref_points
    assert sums.tolist() == ref_sums  # bitwise: both add in row order
    if weights is None:
        assert sums.dtype.kind == "i"


def test_merge_rows_takes_both_branches():
    # the key branch and the sorting fallback give the same answer on the
    # same rows, shifted so that only the second has no int64 key
    rows = np.array([[1, -2], [0, 5], [1, -2], [0, 5], [0, 4]])
    weights = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    wide = np.vstack([rows, [[2**62, 0]]])
    w_wide = np.append(weights, 1.0)
    for r, w in ((rows, weights), (wide, w_wide)):
        points, sums = merge_rows(r, w)
        assert ([tuple(x) for x in points.tolist()], sums.tolist()) == _merge_reference(r, w.tolist())
    assert merge_rows(wide, w_wide)[0][:-1].tolist() == merge_rows(rows, weights)[0].tolist()


@st.composite
def resample_inputs(draw):
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 50))
    rows = np.array(draw(st.lists(
        st.lists(st.integers(0, 3), min_size=dim, max_size=dim), min_size=n, max_size=n,
    )), dtype=np.int64).reshape(n, dim)
    rows += draw(st.sampled_from([0, -2, 10**15]))  # negative rows; far from the origin
    if dim > 1 and draw(st.booleans()):  # a box of more than 2**63 - 1 cells
        rows[:, 0] = draw(st.lists(st.sampled_from([0, 5, 2**62]), min_size=n, max_size=n))
    # a bootstrap-sized take, or a short one that misses atoms
    size = draw(st.sampled_from([n, max(1, n // 4)]))
    take = np.array(draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size)), dtype=np.int64)
    return rows, take


def _same_bytes(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@given(resample_inputs())
def test_sample_atoms_law_is_empirical_pmf_of_the_resample(case):
    rows, take = case
    # the merge itself, negative rows included
    points, index = _merge_index(rows)
    counts = np.bincount(index[take], minlength=len(points))
    want_points, want_counts = merge_rows(rows[take])
    assert _same_bytes(points[counts > 0], want_points)
    assert _same_bytes(counts[counts > 0], want_counts)
    if (rows < 0).any():
        with pytest.raises(ParameterError, match="must lie in N_0"):
            SampleAtoms(rows)
        return
    sample = SampleAtoms(rows)
    for got, pick in ((sample.law(take), take), (sample.law(), np.arange(len(rows)))):
        want = empirical_pmf(rows[pick])
        assert got.dim == want.dim == rows.shape[1]
        assert _same_bytes(got.points, want.points) and _same_bytes(got.probs, want.probs)
        # relative frequencies as count * (1/n), from a merge of the resampled rows
        assert _same_bytes(got.probs, merge_rows(rows[pick])[1] * (1.0 / len(pick)))


@pytest.mark.parametrize("rows", [
    np.array([1, 2, 3]),                   # 1-D
    np.array([[0, 1], [-1, 2]]),           # negative
    np.array([[0.0, 1.5], [1.0, 2.0]]),    # non-integer
    np.array([[0.0, np.nan]]),             # non-finite
])
def test_empirical_rejects_bad_rows(rows):
    with pytest.raises(ParameterError):
        empirical_pmf(rows)


def test_empirical_accepts_integral_floats():
    pmf = empirical_pmf(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]]))
    assert atoms(pmf) == pytest.approx({(0, 0): 1 / 3, (1, 2): 2 / 3})


# -- LatticePmf invariants and plumbing ---------------------------------------

def test_normalization_defect_rejected():
    with pytest.raises(ParameterError):
        LatticePmf(1, {(0,): 0.5, (1,): 0.4})  # defect 0.1


def test_negative_coordinates_rejected():
    with pytest.raises(ParameterError):
        LatticePmf(1, {(-1,): 1.0})


def test_duplicate_atoms_rejected():
    with pytest.raises(ParameterError, match="duplicate"):
        LatticePmf.from_arrays(1, [[0], [0], [1]], [0.3, 0.5, 0.5])
    with pytest.raises(ParameterError, match="duplicate"):
        LatticePmf.from_json_dict({
            "dim": 1,
            "atoms": [{"x": [0], "p": 0.3}, {"x": [0], "p": 0.5}, {"x": [1], "p": 0.5}],
            "tail_mass": 0.0,
            "tail_moment": 0.0,
        })


@pytest.mark.parametrize("tails", [(math.nan, 0.0), (0.0, math.nan), (0.0, math.inf)],
                         ids=["nan-tail-mass", "nan-tail-moment", "inf-tail-moment"])
def test_non_finite_tail_account_rejected(tails):
    with pytest.raises(ParameterError, match="finite"):
        LatticePmf(1, {(0,): 1.0}, *tails)


def test_wrong_point_length_rejected():
    with pytest.raises(ParameterError):
        LatticePmf(2, {(0,): 0.5, (1, 0): 0.5})
    with pytest.raises(ParameterError):
        LatticePmf.from_arrays(2, [[0, 0, 0]], [1.0])


def test_arrays_sorted_and_read_only():
    pmf = LatticePmf(2, {(1, 0): 0.25, (0, 3): 0.25, (0, 1): 0.5, (2, 2): 0.0})
    assert pmf.points.tolist() == [[0, 1], [0, 3], [1, 0]]
    assert pmf.probs.tolist() == [0.5, 0.25, 0.25]
    assert pmf.support_arrays()[0] is pmf.points
    with pytest.raises(ValueError):
        pmf.probs[0] = 1.0


def test_json_round_trip():
    pmf = poisson_vector_pmf(PoissonVectorParams((1.3, 0.4)), 1e-9)
    back = LatticePmf.from_json(pmf.to_json())
    assert back.dim == pmf.dim
    assert atoms(back) == atoms(pmf)
    assert back.tail_mass == pmf.tail_mass
    assert back.tail_moment == pmf.tail_moment


def test_prefix_marginal_sums():
    pmf = bernoulli_sum_pmf(np.array([[0.2, 0.3], [0.1, 0.25]]))
    marg = pmf.prefix_marginal(1)
    assert marg.dim == 1
    assert sum(atoms(marg).values()) == pytest.approx(1.0, abs=1e-12)
    # P(X1 = 0) = (1 - 0.2) * (1 - 0.1) ... careful: coordinate 1 can only
    # increase via e_1 outcomes, independent across rows
    assert marg.prob((0,)) == pytest.approx(0.8 * 0.9, abs=1e-12)


def _truncate_reference(pmf, drop_mass):
    """Per-atom loop: drop atoms in sorted (p, x) order while the running
    dropped mass stays <= drop_mass, keeping at least one atom."""
    kept = atoms(pmf)
    mass = moment = 0.0
    for x, p in sorted(atoms(pmf).items(), key=lambda kv: (kv[1], kv[0])):
        if mass + p > drop_mass or len(kept) == 1:
            break
        mass += p
        moment += p * sum(x)
        del kept[x]
    return kept, pmf.tail_mass + mass, pmf.tail_moment + moment


def test_truncate_small_atoms_tie_order_matches_loop_reference():
    # four atoms tie at p = 0.1: they must go in lexicographic point order
    table = {(2, 0): 0.1, (0, 2): 0.1, (1, 1): 0.1, (0, 1): 0.1, (0, 0): 0.35, (3, 0): 0.25}
    pmf = LatticePmf(2, table, 0.0, 0.0)
    pruned = truncate_small_atoms(pmf, 0.25)
    assert sorted(atoms(pruned)) == [(0, 0), (1, 1), (2, 0), (3, 0)]
    cases = [(pmf, drop) for drop in (0.05, 0.1, 0.25, 0.3, 0.45, 1.0, 5.0)]
    cases += [(poisson_vector_pmf(PoissonVectorParams((1.2, 0.7)), 1e-10), drop)
              for drop in (1e-12, 1e-9, 1e-6, 0.2)]
    for base, drop in cases:
        got = truncate_small_atoms(base, drop)
        kept, tail_mass, tail_moment = _truncate_reference(base, drop)
        assert atoms(got) == kept
        assert (got.tail_mass, got.tail_moment) == (tail_mass, tail_moment)  # bitwise


def test_truncate_small_atoms_accounting():
    pmf = poisson_vector_pmf(PoissonVectorParams((2.0,)), 1e-13)
    pruned = truncate_small_atoms(pmf, 1e-6)
    assert len(atoms(pruned)) < len(atoms(pmf))
    dropped = {x: p for x, p in atoms(pmf).items() if x not in atoms(pruned)}
    assert pruned.tail_mass == pytest.approx(pmf.tail_mass + sum(dropped.values()), abs=1e-18)
    moment = sum(p * sum(x) for x, p in dropped.items())
    assert pruned.tail_moment == pytest.approx(pmf.tail_moment + moment, rel=1e-12)
