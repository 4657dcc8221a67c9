"""Wasserstein/TV distance tests: trivial anchors, LP oracle agreement,
metric axioms, dual feasibility spot checks, property tests against the d = 1
CDF formula and the LP, metric properties under shifts, the simplex's
degenerate starting bases, its row-block pricing shapes, its candidate list,
Bland's rule, warm-started re-solves, the L1 envelope behind every
certificate (its grid and dense paths against the dense row minima, and its
memory on a large pair), and the reduced pair at d >= 2 against the full
pair, with its certificate and plan lifted to the original atoms."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palab import transport
from palab.errors import ParameterError
from palab.measures import (
    LatticePmf,
    PoissonVectorParams,
    SampleAtoms,
    bernoulli_sum_pmf,
    merge_rows,
    poisson_vector_pmf,
    truncate_small_atoms,
)
from palab.transport import (
    _initial_basis,
    _l1_cost_matrix,
    _perturb,
    _tree_structure,
    total_variation,
    wasserstein_l1,
)

from helpers import atoms, lp_wasserstein, random_lipschitz_table, random_pmf, w1_1d


def dirac(*x):
    return LatticePmf(len(x), {tuple(x): 1.0})


# -- trivial anchors ---------------------------------------------------------

def test_w1_between_diracs():
    # |2-4| + |3-1| = 4
    res = wasserstein_l1(dirac(2, 3), dirac(4, 1))
    assert res.value == pytest.approx(4.0, abs=1e-12)
    assert res.truncation_error == 0.0


def test_w1_identity():
    P = random_pmf(np.random.default_rng(7), 2, 25)
    assert wasserstein_l1(P, P).value <= 1e-12


def test_tv_diracs_and_identity():
    assert total_variation(dirac(0), dirac(1)).value == pytest.approx(1.0)
    P = random_pmf(np.random.default_rng(8), 1, 10)
    assert total_variation(P, P).value == 0.0


def test_tv_binomial_vs_poisson_hand_summed():
    # 0.5*(|0.25-e^-1| + |0.5-e^-1| + |0.25-e^-1/2| + sum_{k>=3} e^-1/k!)
    B = bernoulli_sum_pmf(np.array([[0.5], [0.5]]))
    Q = poisson_vector_pmf(PoissonVectorParams((1.0,)), 1e-14)
    e1 = np.exp(-1.0)
    tail3 = sum(e1 / math.factorial(k) for k in range(3, 40))
    expect = 0.5 * (abs(0.25 - e1) + abs(0.5 - e1) + abs(0.25 - e1 / 2) + tail3)
    got = total_variation(B, Q)
    assert got.value == pytest.approx(expect, abs=1e-12)
    assert got.truncation_error <= 1e-13


def test_dimension_mismatch_and_empty():
    with pytest.raises(ParameterError):
        wasserstein_l1(dirac(1), dirac(1, 2))
    with pytest.raises(ParameterError):
        total_variation(dirac(1), dirac(1, 2))


# -- LP oracle agreement -----------------------------------------------------

def test_w1_binomial_poisson_vs_lp_oracle():
    B = bernoulli_sum_pmf(np.array([[0.5], [0.5]]))
    Q = poisson_vector_pmf(PoissonVectorParams((1.0,)), 1e-10)
    mine = wasserstein_l1(B, Q).value
    assert abs(mine - lp_wasserstein(B, Q)) <= 1e-8


@pytest.mark.parametrize("seed", range(6))
def test_w1_random_pairs_vs_lp_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    dim = int(rng.integers(1, 4))
    P = random_pmf(rng, dim, int(rng.integers(2, 60)))
    Q = random_pmf(rng, dim, int(rng.integers(2, 60)))
    mine = wasserstein_l1(P, Q).value
    oracle = lp_wasserstein(P, Q)
    assert abs(mine - oracle) <= 1e-8


# -- metric axioms and dual checks -------------------------------------------

def test_metric_axioms_on_sampled_triples():
    rng = np.random.default_rng(42)
    for _ in range(5):
        dim = int(rng.integers(1, 3))
        P = random_pmf(rng, dim, 15)
        Q = random_pmf(rng, dim, 20)
        R = random_pmf(rng, dim, 10)
        dpq = wasserstein_l1(P, Q).value
        dqp = wasserstein_l1(Q, P).value
        dqr = wasserstein_l1(Q, R).value
        dpr = wasserstein_l1(P, R).value
        assert abs(dpq - dqp) <= 1e-10
        assert dpr <= dpq + dqr + 1e-9
        assert wasserstein_l1(P, P).value <= 1e-12
        assert dpq > 0 or atoms(P) == atoms(Q)


def test_tv_dominated_by_w1():
    rng = np.random.default_rng(43)
    for _ in range(8):
        dim = int(rng.integers(1, 3))
        P = random_pmf(rng, dim, 12)
        Q = random_pmf(rng, dim, 18)
        assert total_variation(P, Q).value <= wasserstein_l1(P, Q).value + 1e-9


def test_flow_consistency_and_lipschitz_duality():
    rng = np.random.default_rng(44)
    P = random_pmf(rng, 2, 20, span=8)
    Q = random_pmf(rng, 2, 25, span=8)
    res = wasserstein_l1(P, Q, want_flow=True)
    mass = sum(f for _, _, f in res.flow)
    assert mass == pytest.approx(1.0, abs=1e-9)
    cost = sum(f * sum(abs(a - b) for a, b in zip(x, y)) for x, y, f in res.flow)
    assert cost == pytest.approx(res.value, abs=1e-9)
    # no 1-Lipschitz test function separates the laws by more than the value
    for k in range(40):
        g = random_lipschitz_table(np.random.default_rng(k), (8, 8))
        ep = sum(p * g[x] for x, p in atoms(P).items())
        eq = sum(q * g[y] for y, q in atoms(Q).items())
        assert abs(ep - eq) <= res.value + 1e-8


def test_translation_lower_bound():
    rng = np.random.default_rng(45)
    for _ in range(5):
        P = random_pmf(rng, 2, 20)
        Q = random_pmf(rng, 2, 20)
        res = wasserstein_l1(P, Q)
        mean_gap = float(np.abs(P.mean() - Q.mean()).sum())
        assert res.value >= mean_gap - res.truncation_error - 1e-9


def test_truncation_error_formula():
    P = LatticePmf(1, {(0,): 0.6, (3,): 0.3}, tail_mass=0.1, tail_moment=0.5)
    Q = dirac(1)
    res = wasserstein_l1(P, Q)
    # diam = max |x|_1 over stored supports = 3
    assert res.truncation_error == pytest.approx(0.5 + 0.0 + 0.1 * 3.0)
    tv = total_variation(P, Q)
    assert tv.truncation_error == pytest.approx(0.1)


# -- property tests ----------------------------------------------------------

def uniform_on(P):
    """Equal probabilities on the support of P."""
    return LatticePmf(P.dim, {x: 1.0 / len(atoms(P)) for x in atoms(P)})


@st.composite
def pmf_pairs(draw, dims, max_atoms):
    """Two random pmfs of one dimension from ``random_pmf``; a small span
    makes the supports overlap, and either law may get equal probabilities."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from(dims))
    span = draw(st.sampled_from([2, 4, 12]))
    P, Q = (random_pmf(rng, dim, draw(st.integers(1, max_atoms)), span) for _ in range(2))
    if draw(st.booleans()):
        P = uniform_on(P)
    if draw(st.booleans()):
        Q = uniform_on(Q)
    return P, Q


@given(pmf_pairs(dims=[1], max_atoms=40))
def test_w1_matches_cdf_formula_at_d1(pair):
    P, Q = pair
    assert abs(wasserstein_l1(P, Q).value - w1_1d(P, Q)) <= 1e-12


def _assert_staircase_is_the_simplex_optimum(P, Q):
    res = wasserstein_l1(P, Q, want_flow=True)
    a, b = P.probs / P.probs.sum(), Q.probs / Q.probs.sum()
    cost = _l1_cost_matrix(P.points, Q.points)
    rows, cols, flow, u, v = transport._transportation_simplex(a, b, cost)
    value = transport._verify_optimal(a, b, cost, rows, cols, flow, u, v)
    assert np.float64(res.value).tobytes() == np.float64(value).tobytes()
    # The optimal duals are unique where the perturbed problem is
    # nondegenerate.  Where two perturbed cumulative sums lie within rounding
    # of each other (identical laws can do that), the simplex may end on
    # other optimal duals; the value is still the same.
    a_p, b_p = _perturb(a, b)
    sums = np.sort(np.concatenate([np.cumsum(a_p)[:-1], np.cumsum(b_p)[:-1]]))
    if np.diff(sums).min(initial=1.0) > 1e-15:
        assert res.v.tobytes() == v.tobytes()
    assert abs(res.value - w1_1d(P, Q)) <= 1e-12
    # the plan is monotone: with arcs in source order, targets never fall
    targets = [y for _, (y,), _ in res.flow]
    assert targets == sorted(targets)


def _with_masses(P, masses):
    return LatticePmf.from_arrays(1, P.points, np.asarray(masses, dtype=float) / np.sum(masses))


@st.composite
def d1_pairs(draw):
    """d = 1 pairs of random laws, laws with tied masses or tied cumulative
    sums (equal or small-integer masses), identical laws, single atoms and
    disjoint supports."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.sampled_from([2, 4, 12, 60]))
    P, Q = (random_pmf(rng, 1, draw(st.integers(1, 40)), span) for _ in range(2))
    kind = draw(st.sampled_from(["random", "equal masses", "integer masses", "identical", "single atom", "disjoint"]))
    if kind == "equal masses":
        P, Q = uniform_on(P), uniform_on(Q)
    elif kind == "integer masses":
        P, Q = (_with_masses(L, rng.integers(1, 4, size=len(L.probs))) for L in (P, Q))
    elif kind == "identical":
        Q = P
    elif kind == "single atom":
        P = dirac(int(rng.integers(0, 2 * span)))
    elif kind == "disjoint":
        Q = shifted(Q, span + int(rng.integers(0, 5)))
    return (Q, P) if draw(st.booleans()) else (P, Q)


@settings(max_examples=120)
@given(d1_pairs())
def test_d1_staircase_is_the_simplex_optimum(pair):
    # value and column duals bitwise those of the simplex, the value within
    # 1e-12 of the CDF formula
    _assert_staircase_is_the_simplex_optimum(*pair)


def test_d1_staircase_is_the_simplex_optimum_on_a_large_pair():
    P = random_pmf(np.random.default_rng(57), 1, 600, span=1500)
    Q = random_pmf(np.random.default_rng(58), 1, 180, span=900)
    _assert_staircase_is_the_simplex_optimum(P, Q)


@given(pmf_pairs(dims=[2, 3, 4], max_atoms=30))
def test_w1_matches_lp_oracle_at_d2_to_4(pair):
    P, Q = pair
    assert abs(wasserstein_l1(P, Q).value - lp_wasserstein(P, Q)) <= 1e-8


@given(pmf_pairs(dims=[1, 2, 3], max_atoms=40))
def test_w1_of_identical_laws_is_exactly_zero(pair):
    P, _ = pair
    assert wasserstein_l1(P, P).value == 0.0
    assert wasserstein_l1(uniform_on(P), uniform_on(P)).value == 0.0


@st.composite
def pmf_triples(draw, dims, max_atoms):
    """Three random pmfs of one dimension and a shift in N_0^d."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from(dims))
    span = draw(st.sampled_from([2, 4, 12]))
    laws = [random_pmf(rng, dim, draw(st.integers(1, max_atoms)), span) for _ in range(3)]
    shift = draw(st.lists(st.integers(0, 50), min_size=dim, max_size=dim))
    return laws, np.array(shift)


def shifted(P, shift):
    xs, ps = P.support_arrays()
    return LatticePmf.from_arrays(P.dim, xs + shift, ps)


@given(pmf_triples(dims=[1, 2, 3], max_atoms=25))
def test_w1_is_symmetric_shift_invariant_and_triangular(case):
    (P, Q, R), shift = case
    dpq = wasserstein_l1(P, Q).value
    assert abs(dpq - wasserstein_l1(Q, P).value) <= 1e-12
    assert abs(dpq - wasserstein_l1(shifted(P, shift), shifted(Q, shift)).value) <= 1e-12
    assert wasserstein_l1(P, R).value <= dpq + wasserstein_l1(Q, R).value + 1e-12


@given(st.integers(1, 4).flatmap(lambda d: st.tuples(*[st.lists(st.integers(0, 10**6), min_size=d, max_size=d)] * 2)))
def test_w1_between_single_atoms_is_l1_distance(xy):
    x, y = xy
    assert wasserstein_l1(dirac(*x), dirac(*y)).value == sum(abs(s - t) for s, t in zip(x, y))


# -- degenerate starting bases -----------------------------------------------

def _degenerate_cases():
    rng = np.random.default_rng(46)
    P = uniform_on(random_pmf(rng, 1, 7))
    yield "identical equal masses", P, P
    Q = uniform_on(random_pmf(rng, 2, 9))
    yield "identical equal masses, d = 2", Q, Q
    yield "one atom against many", dirac(3), random_pmf(rng, 1, 12)
    yield "many against one atom", uniform_on(random_pmf(rng, 2, 10)), dirac(1, 1)
    dup = [0.25, 0.25, 0.125, 0.125, 0.25]
    yield (
        "duplicated probabilities",
        LatticePmf(1, {(x,): p for x, p in zip([0, 2, 3, 5, 9], dup)}),
        LatticePmf(1, {(x,): p for x, p in zip([1, 2, 4, 6, 7], dup[::-1])}),
    )


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("case", list(_degenerate_cases()), ids=lambda c: c[0])
def test_initial_basis_is_spanning_tree_on_degenerate_supplies(case, perturbed, monkeypatch):
    _, P, Q = case
    (xs, a), (ys, b) = P.support_arrays(), Q.support_arrays()
    if perturbed:
        a, b = _perturb(a, b)
    cost = _l1_cost_matrix(xs, ys)
    m, n = cost.shape
    flows = _initial_basis(a, b, cost)
    assert len(flows) == m + n - 1
    _tree_structure(flows, m, n, cost)  # raises unless the arcs span all nodes
    row, col = np.zeros(m), np.zeros(n)
    for (i, j), f in flows.items():
        assert f >= 0.0
        row[i] += f
        col[j] += f
    assert np.abs(row - a).max() <= 1e-12
    assert np.abs(col - b).max() <= 1e-12
    # the start sorts an integer copy of the costs; the float64 costs must
    # give the identical stable order, hence the identical start
    monkeypatch.setattr(np, "min_scalar_type", lambda top: np.dtype(np.float64))
    assert list(_initial_basis(a, b, cost).items()) == list(flows.items())


def test_initial_basis_joins_components_after_double_exhaustion():
    # equal masses on equal supports: each zero-cost diagonal arc exhausts its
    # row and its column at once, so the tree needs m - 1 zero-flow arcs
    P = uniform_on(random_pmf(np.random.default_rng(47), 1, 6))
    xs, a = P.support_arrays()
    flows = _initial_basis(a, a, _l1_cost_matrix(xs, xs))
    assert len(flows) == 11
    assert list(flows.values()).count(0.0) == 5


def walked_initial_basis(a, b, cost):
    """The least-cost start walked one arc at a time over the whole float64
    stable cost order, with plain lists for the supplies and the component
    labels (reference for ``_initial_basis``)."""
    m, n = cost.shape
    need = m + n - 1
    rem_a, rem_b = a.tolist(), b.tolist()
    order = [divmod(k, n) for k in np.argsort(cost, axis=None, kind="stable").tolist()]
    flows = {}
    for i, j in order:
        if rem_a[i] > 0.0 and rem_b[j] > 0.0:
            take = min(rem_a[i], rem_b[j])
            flows[(i, j)] = take
            rem_a[i] -= take
            rem_b[j] -= take
            if len(flows) == need:
                return flows
    label = list(range(m + n))

    def join(old, new):
        label[:] = [new if x == old else x for x in label]

    for i, j in list(flows):
        join(label[m + j], label[i])
    for i, j in order:
        if label[i] != label[m + j]:
            join(label[m + j], label[i])
            flows[(i, j)] = 0.0
            if len(flows) == need:
                break
    return flows


# (m, n): m * n at or around the boundaries of the start's doubling chunks
# (256, 768, 1792, 3840, 7936, then every 8192 arcs), from 10 to 3e5 arcs
START_SIZES = [(2, 5), (16, 16), (16, 17), (24, 32), (30, 26), (60, 64), (61, 63), (62, 128),
               (84, 96), (126, 128), (128, 128), (181, 181), (300, 300), (548, 548)]


@pytest.mark.parametrize("tied", [False, True], ids=["perturbed", "tied"])
@pytest.mark.parametrize("m, n", START_SIZES)
def test_initial_basis_matches_arc_by_arc_walk(m, n, tied):
    rng = np.random.default_rng(m * 1000 + n)
    cost = _l1_cost_matrix(rng.integers(0, 30, size=(m, 2)), rng.integers(0, 30, size=(n, 2)))
    if tied:  # equal uniform masses: allocations exhaust a row and a column at once
        a, b = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    else:
        a, b = _perturb(rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n)))
    flows = _initial_basis(a, b, cost)
    assert list(flows.items()) == list(walked_initial_basis(a, b, cost).items())
    if tied and m == n:  # the joining phase ran
        assert list(flows.values()).count(0.0) == m - 1
    elif not tied:
        assert 0.0 not in flows.values()


# -- row-block pricing shapes ------------------------------------------------

BLOCK = transport._PRICE_ARCS
SHAPES = {
    "wide": st.tuples(st.integers(2, 32), st.integers(300, 700)),
    "tall": st.tuples(st.integers(300, 700), st.integers(2, 32)),
    "rows longer than a block": st.tuples(st.integers(1, 4), st.integers(BLOCK + 1, BLOCK + 600)),
    "one row or one column": st.integers(1, 1000).flatmap(lambda k: st.sampled_from([(1, k), (k, 1)])),
    "below one block": st.integers(1, 45).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(1, (BLOCK - 1) // m))
    ),
}


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=10)
@given(data=st.data())
def test_w1_on_row_block_shapes(shape, data):
    m, n = data.draw(SHAPES[shape])
    dim = data.draw(st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    P, Q = random_pmf(rng, dim, m, span=4), random_pmf(rng, dim, n, span=4)
    value = wasserstein_l1(P, Q).value
    if dim == 1:
        # relative: more than a block of distinct atoms on the line puts W1
        # in the thousands, where 1e-12 is a few ulps
        oracle = w1_1d(P, Q)
        assert abs(value - oracle) <= 1e-12 * max(1.0, oracle)
    else:
        assert abs(value - lp_wasserstein(P, Q)) <= 1e-8


# -- Bland's anti-cycling rule -----------------------------------------------

def _tree_duals(parent, depth, cost):
    """Duals of a basis tree rooted at row 0 (u[0] = 0) from its parent pointers."""
    m, n = cost.shape
    u, v = np.zeros(m), np.zeros(n)
    for node in np.argsort(depth, kind="stable")[1:].tolist():
        par = int(parent[node])
        if node < m:
            u[node] = cost[node, par - m] - v[par - m]
        else:
            v[node - m] = cost[par, node - m] - u[par]
    return u, v


@pytest.mark.parametrize("dim, sizes", [(1, (70, 60)), (2, (60, 80)), (3, (50, 90))])
def test_bland_rule_takes_first_violating_arc(monkeypatch, dim, sizes):
    # Bland's rule from the first pivot: every entering arc must be the first
    # arc in row-major order with a negative reduced cost.  The instances have
    # more arcs than one pricing block, so this needs the scan to restart at
    # row 0 on every pivot.  The simplex is called directly: wasserstein_l1
    # does not reach it at d = 1.
    P, Q = (random_pmf(np.random.default_rng(48 + dim), dim, k) for k in sizes)
    a, b = P.probs / P.probs.sum(), Q.probs / Q.probs.sum()
    cost = _l1_cost_matrix(P.points, Q.points)
    m, n = cost.shape
    assert m * n > BLOCK
    entering, first = [], []
    cycle_path = transport._cycle_path

    def spy(parent, depth, i_node, j_node):
        u, v = _tree_duals(parent, depth, cost)
        first.append(int((cost - u[:, None] - v < -transport._OPT_TOL).argmax()))
        entering.append(i_node * n + j_node - m)
        return cycle_path(parent, depth, i_node, j_node)

    monkeypatch.setattr(transport, "_bland_streak_limit", lambda m, n: -1)
    monkeypatch.setattr(transport, "_cycle_path", spy)
    value = transport._verify_optimal(a, b, cost, *transport._transportation_simplex(a, b, cost))
    assert len(entering) > 10
    assert entering == first
    oracle = w1_1d(P, Q) if dim == 1 else lp_wasserstein(P, Q)
    assert abs(value - oracle) <= 1e-12


# -- certificate checks ------------------------------------------------------

def _certificate():
    """Inputs, optimal basic arcs with their flows, and duals of a real solve."""
    P = random_pmf(np.random.default_rng(49), 2, 30, span=8)
    Q = random_pmf(np.random.default_rng(50), 2, 40, span=8)
    a, b = P.probs / P.probs.sum(), Q.probs / Q.probs.sum()
    cost = _l1_cost_matrix(P.points, Q.points)
    rows, cols, flow, u, v = transport._transportation_simplex(a, b, cost)
    assert transport._verify_optimal(a, b, cost, rows, cols, flow, u, v) == wasserstein_l1(P, Q).value
    return dict(a=a, b=b, cost=cost, rows=rows, cols=cols, flow=flow, u=u, v=v)


def _raise_one_row_dual(c):
    c["u"] = c["u"] + (np.arange(len(c["u"])) == c["rows"][0])  # its basic arcs price at -1


def _negate_one_flow(c):
    c["flow"] = np.where(np.arange(len(c["flow"])) == 0, -1e-6, c["flow"])


def _add_priced_arc(c):
    # a zero-flow arc of positive reduced cost declared basic
    reduced = c["cost"] - c["u"][:, None] - c["v"]
    i, j = np.unravel_index(np.argmax(reduced), reduced.shape)
    assert reduced[i, j] >= 1.0
    c["rows"], c["cols"], c["flow"] = np.append(c["rows"], i), np.append(c["cols"], j), np.append(c["flow"], 0.0)


def _add_mass(c):
    c["flow"] = c["flow"] + np.where(c["flow"] == c["flow"].max(), 1e-6, 0.0)


def _lower_column_duals(c):
    # every reduced cost rises by half the per-arc tolerance, and the dual
    # objective falls by as much: feasible and slack-tight, but with a gap
    scale = 1.0 + c["cost"].max()
    dual = c["a"] @ c["u"] + c["b"] @ c["v"]
    assert 0.5 * transport._VERIFY_TOL * scale > transport._VERIFY_TOL * (1.0 + dual) + 1e-12 * scale
    c["v"] = c["v"] - 0.5 * transport._VERIFY_TOL * scale


@pytest.mark.parametrize("corrupt, message", [
    (_raise_one_row_dual, "dual infeasible"),
    (_negate_one_flow, "negative basic flow"),
    (_add_priced_arc, "basic arc with nonzero reduced cost"),
    (_add_mass, "flow marginals do not match"),
    (_lower_column_duals, "duality gap"),
], ids=lambda v: getattr(v, "__name__", ""))
def test_verify_optimal_rejects_corrupted_certificate(corrupt, message):
    cert = _certificate()
    corrupt(cert)
    with pytest.raises(transport._SimplexFailure, match=message):
        transport._verify_optimal(**cert)


# -- candidate-list pricing --------------------------------------------------

def _cycle_spy(monkeypatch, record):
    """Wrap ``_cycle_path`` so that ``record(parent, depth, i_node, j_node)``
    sees the basis tree and the entering arc of every pivot."""
    cycle_path = transport._cycle_path

    def spy(parent, depth, i_node, j_node):
        record(parent, depth, i_node, j_node)
        return cycle_path(parent, depth, i_node, j_node)

    monkeypatch.setattr(transport, "_cycle_path", spy)


@pytest.mark.parametrize("dim, sizes", [(2, (40, 700)), (3, (90, 300)), (4, (35, 650))])
def test_candidate_list_enters_only_violating_arcs(monkeypatch, dim, sizes):
    # a candidate keeps its row and column but the duals move under it: each
    # entering arc must still price negative under the current tree's duals.
    # The simplex is called directly: wasserstein_l1 reduces the pair first.
    P, Q = (random_pmf(np.random.default_rng(60 + dim), dim, k, span=6) for k in sizes)
    a, b = P.probs / P.probs.sum(), Q.probs / Q.probs.sum()
    cost = _l1_cost_matrix(P.points, Q.points)
    m, n = cost.shape
    assert transport._PRICE_ARCS // n < m  # more than one pricing block
    reduced = []

    def record(parent, depth, i_node, j_node):
        u, v = _tree_duals(parent, depth, cost)
        reduced.append(cost[i_node, j_node - m] - u[i_node] - v[j_node - m])

    _cycle_spy(monkeypatch, record)
    value = transport._verify_optimal(a, b, cost, *transport._transportation_simplex(a, b, cost))
    assert len(reduced) > 20
    assert max(reduced) < -transport._OPT_TOL
    assert abs(value - lp_wasserstein(P, Q)) <= 1e-8


# -- warm-started re-solves --------------------------------------------------

def _bootstrap_instance(dim):
    """400 Poisson count rows merged for replicate laws, the truncated exact
    Poisson target, and the sample's estimate against it."""
    lam = (0.5, 0.3, 0.7, 0.4)[:dim]
    target = truncate_small_atoms(poisson_vector_pmf(PoissonVectorParams(lam), 1e-10), 1e-9)
    sample = SampleAtoms(np.random.default_rng(4 + dim).poisson(lam, size=(400, dim)))
    return sample, target, wasserstein_l1(sample.law(), target)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_warm_resolve_of_bootstrap_subsets_equals_cold(dim):
    sample, target, estimate = _bootstrap_instance(dim)
    ys, b = target.support_arrays()
    # the column duals and their c-transform certify the estimate
    xs, a = sample.law().support_arrays()
    u0 = (_l1_cost_matrix(xs, ys) - estimate.v).min(axis=1)
    assert abs(a @ u0 + b / b.sum() @ estimate.v - estimate.value) <= 1e-12
    rng = np.random.default_rng(70 + dim)
    for _ in range(4):
        law = sample.law(rng.integers(0, 400, size=400))
        cold = wasserstein_l1(law, target).value
        assert abs(wasserstein_l1(law, target, start=estimate.v).value - cold) <= 1e-12


def _pivots(monkeypatch, P, Q, start=None):
    calls = []
    _cycle_spy(monkeypatch, lambda *args: calls.append(1))
    value = wasserstein_l1(P, Q, start=start).value
    monkeypatch.undo()
    return len(calls), value


def test_warm_start_takes_fewer_pivots(monkeypatch):
    sample, target, estimate = _bootstrap_instance(4)
    take = np.random.default_rng(80).integers(0, 400, size=400)
    cold, cold_value = _pivots(monkeypatch, sample.law(take), target)
    warm, warm_value = _pivots(monkeypatch, sample.law(take), target, start=estimate.v)
    assert warm < cold
    assert abs(warm_value - cold_value) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_start_from_unrelated_target_gives_cold_value(dim):
    sample, target, _ = _bootstrap_instance(dim)
    n = len(target.probs)
    other = random_pmf(np.random.default_rng(90 + dim), dim, n, span=9)
    start = wasserstein_l1(random_pmf(np.random.default_rng(95 + dim), dim, 30), other).v
    assert start.shape == (n,)
    law = sample.law()
    assert abs(wasserstein_l1(law, target, start=start).value - wasserstein_l1(law, target).value) <= 1e-12


@pytest.mark.parametrize("bad", ["short", "long", "nan", "inf", "huge"])
def test_start_of_wrong_length_or_bad_values_is_rejected(bad):
    sample, target, estimate = _bootstrap_instance(2)
    one = np.arange(len(estimate.v)) == 1
    start = {
        "short": estimate.v[:-1],
        "long": np.append(estimate.v, 0.0),
        "nan": np.where(one, np.nan, estimate.v),
        "inf": np.where(one, -np.inf, estimate.v),
        "huge": np.where(one, 1e300, estimate.v),
    }[bad]
    with pytest.raises(ParameterError, match="start"):
        wasserstein_l1(sample.law(), target, start=start)


# -- the L1 envelope: certificates and potentials without an m x n array -------

def _envelope_paths():
    """Each path of ``_l1_envelope`` forced in turn, whatever the size: the
    grid, then the dense matrix.  Yields the path's name."""
    for name, select in (("grid", transport._grid_axes), ("dense", lambda src, at: None)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(transport, "_envelope_grid", select)
            yield name


@st.composite
def envelope_inputs(draw):
    """Integer points at d = 1..4, few or many distinct coordinates per axis,
    distinct source points, target points repeated or not, and integer
    values up to 2**40, with -0.0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(1, 4))
    span = draw(st.sampled_from([0, 2, 6, 40, 2**20]))
    src, at = (rng.integers(-span, span + 1, size=(draw(st.integers(1, 30)), dim)) for _ in range(2))
    src = np.unique(src, axis=0)
    values = rng.integers(-(2**40), 2**40, size=len(src)).astype(float)
    if draw(st.booleans()):
        values[: draw(st.integers(1, len(src)))] = -0.0
    return src, values, at


@given(envelope_inputs())
def test_l1_envelope_grid_equals_dense_row_minima(inputs):
    src, values, at = inputs
    cost = _l1_cost_matrix(at, src)
    want = (cost + values).min(axis=1)
    for path in _envelope_paths():
        assert transport._l1_envelope(src, values, at).tobytes() == want.tobytes(), path
    # the gap check's scale, from the 2**d sign projections and as chosen by size
    assert transport._sign_diameter(src, at) == transport._l1_diameter(src, at) == cost.max()


def test_scale_of_a_pair_at_high_dimension_stays_small_in_memory():
    # 2000 atoms at d = 16 against one: the sign projections would take a
    # 2**16 x 2001 table (1 GB), the dense matrix 2000 entries
    rng = np.random.default_rng(250)
    points = np.unique(rng.integers(0, 4, size=(2000, 16)), axis=0)
    P = LatticePmf.from_arrays(16, points, np.full(len(points), 1.0 / len(points)))
    Q = dirac(*[2] * 16)
    tracemalloc.start()
    try:
        value = wasserstein_l1(P, Q).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    assert transport._l1_diameter(P.points, Q.points) == _l1_cost_matrix(P.points, Q.points).max()
    assert abs(value - P.probs @ np.abs(points - 2).sum(axis=1)) <= 1e-12


def test_envelope_size_rule():
    # dense up to 2**15 entries, and above it while the grid would hold more than 1/8 of them
    rng = np.random.default_rng(220)
    line = rng.integers(0, 50, size=(200, 1))
    assert transport._envelope_grid(line[:150], line[:150]) is None  # 22500 entries
    assert transport._envelope_grid(line, line) is not None  # 40000 entries, at most 50 cells
    scattered = rng.integers(0, 10**6, size=(200, 2))
    assert transport._envelope_grid(scattered, scattered) is None  # 40000 entries, 200 x 200 cells


def test_d4_pair_with_many_distinct_coordinates_takes_the_dense_path():
    rng = np.random.default_rng(230)
    P, Q = random_pmf(rng, 4, 200, span=1000), random_pmf(rng, 4, 190, span=1000)
    assert len(P.points) * len(Q.points) > transport._DENSE_ENTRIES
    assert transport._envelope_grid(P.points, Q.points) is None
    assert abs(wasserstein_l1(P, Q).value - lp_wasserstein(P, Q)) <= 1e-8


@given(d1_pairs(), st.integers(0, 2**32 - 1))
def test_line_feasibility_check_equals_dense_check(pair, seed):
    # on either path the least reduced cost is the dense one bit for bit, also
    # for duals raised by 1 at one atom, which the staircase's tight arcs reject
    P, Q = pair
    a, b = P.probs / P.probs.sum(), Q.probs / Q.probs.sum()
    x, y = P.points[:, 0], Q.points[:, 0]
    cost = _l1_cost_matrix(P.points, Q.points)
    _, _, _, u, v = transport._north_west_corner(a, b, x, y)
    k = int(np.random.default_rng(seed).integers(0, len(u) + len(v)))
    raised = np.concatenate([u, v]) + (np.arange(len(u) + len(v)) == k)
    for path in _envelope_paths():
        for uu, vv in ((u, v), (raised[: len(u)], raised[len(u):])):
            line = transport._least_reduced_cost(P.points, uu, Q.points, vv)
            assert np.float64(line).tobytes() == np.float64((cost - uu[:, None] - vv).min()).tobytes(), path
            assert (line >= -transport._OPT_TOL) == (uu is u)


def test_certificate_of_a_large_pair_stays_small_in_memory():
    # Q on an 80 x 100 box, P its law clipped onto [0, 69] x [0, 71] with the
    # masses of two cells swapped: 5040 x 8000 atoms, whose dense matrix
    # would take 322 MB.  Masses are multiples of 2**-20 summing to 1, so all
    # mass cancels exactly but at the swapped cells: W1 is Q's distance to
    # the box plus the swapped mass's move.
    grid = np.stack(np.meshgrid(np.arange(80), np.arange(100), indexing="ij"), axis=-1).reshape(-1, 2)
    mass = np.random.default_rng(240).integers(100, 150, size=len(grid))
    mass[-1] += 2**20 - mass.sum()
    Q = LatticePmf.from_arrays(2, grid, mass / 2.0**20)
    points, probs = merge_rows(np.minimum(Q.points, [69, 71]), Q.probs)
    swap = [3, 4000]
    probs[swap] = probs[swap[::-1]]
    P = LatticePmf.from_arrays(2, points, probs)
    assert len(P.probs) * len(Q.probs) * 8 > 300e6
    tracemalloc.start()
    try:
        value = wasserstein_l1(P, Q).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    outside = Q.probs @ np.maximum(Q.points - [69, 71], 0).sum(axis=1)
    moved = abs(probs[swap[0]] - probs[swap[1]]) * np.abs(points[swap[0]] - points[swap[1]]).sum()
    assert abs(value - (outside + moved)) <= 1e-12


# -- the reduced pair at d >= 2 -----------------------------------------------

def _full_pair_value(P, Q):
    """The simplex and its certificate on the full pair's cost matrix."""
    a, b = P.probs / P.probs.sum(), Q.probs / Q.probs.sum()
    cost = _l1_cost_matrix(P.points, Q.points)
    return transport._verify_optimal(a, b, cost, *transport._transportation_simplex(a, b, cost))


def _assert_reduced_solve_exact(P, Q, start=None):
    """Value against the full-pair simplex and the LP, the returned duals and
    the lifted plan, all on the original atoms."""
    res = wasserstein_l1(P, Q, want_flow=True, start=start)
    assert abs(res.value - _full_pair_value(P, Q)) <= 1e-12
    assert abs(res.value - lp_wasserstein(P, Q)) <= 1e-8
    (xs, a), (ys, b) = P.support_arrays(), Q.support_arrays()
    a, b = a / a.sum(), b / b.sum()
    cost = _l1_cost_matrix(xs, ys)
    # v and its c-transform u: u[0] = 0, and they attain the value
    u = (cost - res.v).min(axis=1)
    assert u[0] == 0.0
    assert abs(a @ u + b @ res.v - res.value) <= 1e-12
    # the plan moves a to b at the value's cost
    index_p = {x: i for i, x in enumerate(map(tuple, xs.tolist()))}
    index_q = {y: j for j, y in enumerate(map(tuple, ys.tolist()))}
    rows = np.array([index_p[x] for x, _, _ in res.flow], dtype=np.intp)
    cols = np.array([index_q[y] for _, y, _ in res.flow], dtype=np.intp)
    flow = np.array([f for _, _, f in res.flow])
    assert (flow > 0.0).all()
    assert np.abs(np.bincount(rows, flow, len(a)) - a).max() <= 1e-12
    assert np.abs(np.bincount(cols, flow, len(b)) - b).max() <= 1e-12
    assert abs(cost[rows, cols] @ flow - res.value) <= 1e-12
    return res


def _cancelling_after_clipping(dim):
    """P's atoms stick out of Q's box on axis 0 (at 0 and 10), Q's sit on the
    box's faces (2 and 4) with the same masses: the clipped laws are equal."""
    rest = [1] * (dim - 1)
    P = LatticePmf(dim, {(0, *rest): 0.25, (10, *rest[:-1], 3): 0.75})
    Q = LatticePmf(dim, {(2, *rest): 0.25, (4, *rest[:-1], 3): 0.75})
    return P, Q


def _reduction_cases():
    for dim in (2, 3, 4):
        rng = np.random.default_rng(200 + dim)
        P, Q = random_pmf(rng, dim, 25, span=6), random_pmf(rng, dim, 30, span=6)
        yield f"disjoint on one axis, d = {dim}", P, shifted(Q, np.eye(dim, dtype=int)[0] * 9)
        yield f"nested boxes, d = {dim}", shifted(random_pmf(rng, dim, 12, span=3), 4), random_pmf(rng, dim, 40, span=12)
        yield f"identical laws, d = {dim}", P, P
        yield f"single atom against many, d = {dim}", dirac(*[3] * dim), Q
        yield f"many against a single atom, d = {dim}", P, dirac(*range(dim))
        yield f"single atoms, d = {dim}", dirac(*[0] * dim), dirac(*range(dim))
        yield f"all cancels after clipping, d = {dim}", *_cancelling_after_clipping(dim)


@pytest.mark.parametrize("case", list(_reduction_cases()), ids=lambda c: c[0])
def test_reduced_solve_on_named_cases(case):
    name, P, Q = case
    res = _assert_reduced_solve_exact(P, Q)
    if name.startswith("identical"):
        assert res.value == 0.0
    if name.startswith("all cancels"):  # the offset alone: 0.25 * 2 + 0.75 * 6
        assert abs(res.value - 5.0) <= 1e-15
    if name.startswith("single atoms"):
        assert res.value == sum(range(P.dim))
    # a re-solve started from these duals, and from unrelated ones
    _assert_reduced_solve_exact(P, Q, start=res.v)
    _assert_reduced_solve_exact(P, Q, start=np.random.default_rng(3).integers(-20, 20, len(Q.probs)))


@st.composite
def reducible_pairs(draw):
    """d = 2..4 pairs whose boxes are random, nested, disjoint on some axes or
    equal, with shared atoms, identical laws or single atoms, and a start."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 4))
    P, Q = (random_pmf(rng, dim, draw(st.integers(1, 25)), draw(st.sampled_from([2, 4, 8]))) for _ in range(2))
    kind = draw(st.sampled_from(["random", "shifted", "shared atoms", "identical"]))
    if kind == "shifted":
        Q = shifted(Q, np.array(draw(st.lists(st.integers(0, 12), min_size=dim, max_size=dim))))
    elif kind == "shared atoms":  # Q's atoms and all of P's, with other masses
        union = np.unique(np.concatenate([P.points, Q.points]), axis=0)
        Q = LatticePmf.from_arrays(dim, union, rng.dirichlet(np.ones(len(union))))
    elif kind == "identical":
        Q = P
    if draw(st.booleans()):
        P, Q = Q, P
    start = None
    if draw(st.booleans()):
        start = wasserstein_l1(random_pmf(rng, dim, 10, span=6), Q).v
    return P, Q, start


@given(reducible_pairs())
def test_reduced_solve_matches_full_pair_and_lp(case):
    _assert_reduced_solve_exact(*case)


@pytest.mark.parametrize("side", ["P", "Q", "P, dual kept"])
@pytest.mark.parametrize("dim", [2, 3])
def test_lifted_certificate_rejects_potential_raised_at_one_atom(dim, side):
    rng = np.random.default_rng(210 + dim)
    P, Q = random_pmf(rng, dim, 20, span=6), random_pmf(rng, dim, 30, span=7)
    res = wasserstein_l1(P, Q)
    (xs, a), (ys, b) = P.support_arrays(), Q.support_arrays()
    cost = _l1_cost_matrix(xs, ys)
    u = (cost - res.v).min(axis=1)
    for path in _envelope_paths():
        assert transport._certify_on_atoms(xs, a, ys, b, u, res.v, res.value) == res.value
        _assert_raised_potentials_rejected(xs, a, ys, b, u, res, cost, side)


def _assert_raised_potentials_rejected(xs, a, ys, b, u, res, cost, side):
    for k in range(len(a) if side.startswith("P") else len(b)):
        if side == "P":  # phi(x_k) + 1: some arc from x_k is tight, so it prices at -1
            uu, vv = u + (np.arange(len(a)) == k), res.v
        elif side == "Q":  # phi(y_k) + 1: still feasible, but the dual falls by b_k
            uu, vv = u, res.v - (np.arange(len(b)) == k)
        else:  # phi(x_k) + 1, and the dual's rise taken back at an atom off x_k's tight arc
            tight = int(np.argmin(cost[k] - res.v))
            other = (tight + 1) % len(b)
            uu, vv = u + (np.arange(len(a)) == k), res.v - (np.arange(len(b)) == other) * (a[k] / b[other])
            assert abs(a @ uu + b @ vv - res.value) <= 1e-15
        with pytest.raises(transport._SimplexFailure, match="infeasible" if side != "Q" else "duality gap"):
            transport._certify_on_atoms(xs, a, ys, b, uu, vv, res.value)
