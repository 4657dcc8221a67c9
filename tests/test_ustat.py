"""U-statistic process tests: tuple enumeration, R-functional closed forms,
Mecke identity, conditioned tuple sampler, k = 1 exactness."""

import math
import time

import numpy as np
import pytest
from scipy import stats

from palab import streams
from palab.errors import BudgetError, ParameterError
from palab.processes import ustat
from palab.processes import (
    Box,
    IntervalPairModel,
    MonotoneMapModel,
    PointPattern,
    TripletSumModel,
    build_ustat_process,
    sample_poisson_process,
    sample_xA,
    ustat_R,
    ustat_bound,
)

from helpers import ustat_atoms_by_tuples


def interval_r_closed_form(rate: float, delta: float) -> float:
    """Hand-derived: R = t^3 * int_0^1 |[x-d, x+d] cap [0,1]|^2 dx."""
    if delta >= 1.0:
        integral = 1.0
    elif delta <= 0.5:
        integral = 4 * delta**2 - (10.0 / 3.0) * delta**3
    else:
        integral = (2.0 / 3.0) * (1.0 - delta**3) + 2.0 * delta - 1.0
    return rate**3 * integral


# -- builder -------------------------------------------------------------------

@pytest.mark.parametrize("rate, delta", [
    (math.nan, 0.3), (math.inf, 0.3), (1.0, math.nan), (1.0, math.inf),
], ids=["nan-rate", "inf-rate", "nan-delta", "inf-delta"])
def test_interval_pair_model_rejects_non_finite_parameters(rate, delta):
    with pytest.raises(ParameterError, match="finite"):
        IntervalPairModel(rate=rate, delta=delta)


def test_build_k1_identity_returns_input():
    model = MonotoneMapModel(1.0, lambda x: x, lambda y: y)
    pts = PointPattern([(0.3,), (0.7,), (0.7,)])
    out = build_ustat_process(pts, model)
    assert sorted(out.points.tolist()) == sorted(pts.points.tolist())


def test_build_k2_two_points_single_midpoint_atom():
    model = IntervalPairModel(rate=1.0, delta=2.0)  # D = everything
    out = build_ustat_process(PointPattern([(0.2,), (0.6,)]), model)
    assert len(out) == 1
    assert out.points[0].tolist() == pytest.approx([0.4])


def test_build_respects_domain():
    model = IntervalPairModel(rate=1.0, delta=0.1)
    out = build_ustat_process(PointPattern([(0.1,), (0.15,), (0.9,)]), model)
    assert len(out) == 1  # only the first two are delta-close
    assert out.points[0].tolist() == pytest.approx([0.125])


@pytest.mark.parametrize("model", [IntervalPairModel(rate=2.0, delta=0.3), TripletSumModel(rate=2.0, threshold=1.2)],
                         ids=["interval-pair", "triplet-sum"])
@pytest.mark.parametrize("n", range(7))
def test_build_matches_per_tuple_oracle(model, n):
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        pts = rng.random((n, 1))
        out = build_ustat_process(PointPattern(pts), model).points
        want = ustat_atoms_by_tuples(pts, model)
        assert out.shape == want.shape  # (0, 0) without atoms, n < k among them
        assert out.tobytes() == want.tobytes()


def test_build_budget_error(monkeypatch):
    model = TripletSumModel(rate=1.0, threshold=3.0)
    pts = PointPattern([(0.5,)] * 20)
    monkeypatch.setattr(ustat, "DEFAULT_TUPLE_BUDGET", 100)
    with pytest.raises(BudgetError):
        build_ustat_process(pts, model)


def test_mecke_mean_count_matches_intensity():
    # E[xi(A)] matches the closed-form intensity (Mecke identity) within 4 sigma,
    # on the whole window and on a sub-interval
    model = IntervalPairModel(rate=2.0, delta=0.3)
    lam_total = model.count_intensity(Box((0.0,), (1.0,)))
    assert lam_total == pytest.approx(2.0**2 * (2 * 0.3 - 0.3**2) / 2.0, rel=1e-12)
    sub = Box((0.2,), (0.6,))
    lam_sub = model.count_intensity(sub)
    rng = streams.derive(33)
    reps = 20000
    totals = np.zeros(reps)
    subs = np.zeros(reps)
    for s in range(reps):
        xi = build_ustat_process(sample_poisson_process(model.mu, rng), model)
        totals[s] = len(xi)
        subs[s] = int(sub.contains(xi.points).sum())
    assert abs(totals.mean() - lam_total) <= 4 * totals.std(ddof=1) / math.sqrt(reps)
    assert abs(subs.mean() - lam_sub) <= 4 * subs.std(ddof=1) / math.sqrt(reps)


# -- R functional and the bound ---------------------------------------------------

def test_r_is_zero_for_k1():
    model = MonotoneMapModel(2.0, lambda x: x * x, math.sqrt)
    res = ustat_R(model)
    assert res.value == 0.0 and res.error_bound == 0.0
    assert ustat_bound(model) == 0.0


def test_r_full_domain_equals_t_cubed():
    model = IntervalPairModel(rate=1.3, delta=1.0)
    res = ustat_R(model)
    assert res.value == pytest.approx(1.3**3, rel=1e-10)
    assert res.error_bound <= 1e-8 * res.value + 1e-12


@pytest.mark.parametrize("delta", [0.15, 0.4, 0.62, 0.85])
def test_r_interval_model_vs_closed_form(delta):
    model = IntervalPairModel(rate=1.7, delta=delta)
    res = ustat_R(model)
    assert abs(res.value - interval_r_closed_form(1.7, delta)) <= 1e-8 + res.error_bound


def test_bound_prefactor_k2():
    model = IntervalPairModel(rate=1.0, delta=1.0)
    assert ustat_bound(model) == pytest.approx(4.0, rel=1e-9)  # 2^3/2! * R, R = 1


def test_bound_prefactor_k3_toy_model():
    model = TripletSumModel(rate=1.2, threshold=1.4)
    r = ustat_R(model)
    assert ustat_bound(model) == pytest.approx(2.0**4 / 6.0 * r.value, rel=1e-12)
    # independent fine midpoint-grid oracle for R itself
    rate, s = 1.2, 1.4
    n = 4001
    xs = (np.arange(n) + 0.5) / n
    cod1 = rate**2 * TripletSumModel._unit_cube_volume_below(2, s - xs)
    r1 = float(np.mean(cod1**2) * rate)
    g2 = (np.arange(1500) + 0.5) / 1500
    xx, yy = np.meshgrid(g2, g2, indexing="ij")
    cod2 = rate * TripletSumModel._unit_cube_volume_below(1, s - xx - yy)
    r2 = float(np.mean(cod2**2) * rate**2)
    oracle = max(r1, r2)
    assert abs(r.value - oracle) <= 2e-5 + r.error_bound


# -- conditioned tuple sampler -----------------------------------------------------

def test_sample_xA_lands_in_region():
    model = IntervalPairModel(rate=1.0, delta=0.4)
    region = Box((0.2,), (0.6,))
    rng = streams.derive(44)
    for _ in range(200):
        pts = sample_xA(model, region, rng)
        assert model.in_domain(pts)
        y = model.kernel(pts)[0]
        assert 0.2 <= y <= 0.6


def test_sample_xA_law_matches_restricted_intensity():
    model = IntervalPairModel(rate=1.0, delta=0.4)
    region = Box((0.2,), (0.6,))
    rng = streams.derive(45)
    reps = 20000
    ys = np.array([model.kernel(sample_xA(model, region, rng))[0] for _ in range(reps)])
    edges = np.linspace(0.2, 0.6, 5)
    lam_bins = np.array(
        [model.count_intensity(Box((a,), (b,))) for a, b in zip(edges[:-1], edges[1:])]
    )
    probs = lam_bins / lam_bins.sum()
    obs = np.histogram(ys, bins=edges)[0]
    stat, pval = stats.chisquare(obs, reps * probs)
    assert pval > 0.01


def test_sample_xA_zero_intensity_fallback():
    # the kernels map into [0, 1], so a region beyond it carries no intensity;
    # the fallback is k points of the window, which the model can read
    region = Box((1.5,), (2.0,))
    for model in (IntervalPairModel(rate=1.0, delta=0.05), MonotoneMapModel(2.0, lambda x: x, lambda y: y)):
        assert model.count_intensity(region) == 0.0
        pts = sample_xA(model, region, 47)
        assert pts == ((0.0,),) * model.order
        assert model.in_domain(pts)
        assert not region.contains(np.array([model.kernel(pts)]))[0]


def test_sample_xA_fails_fast_outside_the_triplet_kernel_range():
    # no intensity formula: the kernel's range [0, min(1, s/3)] shows the
    # region is empty, where 500000 proposals took 24 s before a BudgetError
    model = TripletSumModel(rate=2.0, threshold=0.8)
    for region in (Box((1.5,), (2.0,)), Box((0.8 / 3.0,), (0.5,))):
        start = time.perf_counter()
        pts = sample_xA(model, region, 48)
        assert time.perf_counter() - start < 0.5
        assert pts == ((0.0,),) * 3
        assert model.in_domain(pts)
        assert not region.contains(np.array([model.kernel(pts)]))[0]
    # a region inside the range still draws
    pts = sample_xA(model, Box((0.1,), (0.2,)), 49)
    assert 0.1 <= model.kernel(pts)[0] <= 0.2


def test_sample_xA_whole_space_k1_is_base_law():
    # A = whole output space, D = everything, k = 1: the tuple law is mu/mu(X)
    model = MonotoneMapModel(2.0, lambda x: x, lambda y: y)
    whole = Box((0.0,), (1.0,))
    rng = streams.derive(46)
    reps = 20000
    xs = np.array([sample_xA(model, whole, rng)[0][0] for _ in range(reps)])
    # uniform on [0,1]: mean 1/2, variance 1/12
    assert abs(xs.mean() - 0.5) <= 4 * math.sqrt(1.0 / 12.0 / reps)
    assert abs(np.mean(xs < 0.25) - 0.25) <= 4 * math.sqrt(0.25 * 0.75 / reps)


# -- k = 1 exactness ---------------------------------------------------------------

def test_k1_pushforward_is_poisson_chi_square():
    model = MonotoneMapModel(3.0, lambda x: x * x, math.sqrt)
    region = Box((0.2,), (0.7,))
    lam = model.count_intensity(region)
    assert lam == pytest.approx(3.0 * (math.sqrt(0.7) - math.sqrt(0.2)), rel=1e-12)
    for seed in range(5):
        rng = streams.derive(500 + seed)
        reps = 4000
        counts = np.array(
            [
                int(region.contains(build_ustat_process(sample_poisson_process(model.mu, rng), model).points).sum())
                for _ in range(reps)
            ]
        )
        kmax = 5
        obs = np.bincount(np.minimum(counts, kmax + 1), minlength=kmax + 2)
        pmf = stats.poisson.pmf(np.arange(kmax + 1), lam)
        pmf = np.append(pmf, 1.0 - pmf.sum())
        mask = reps * pmf > 5
        stat = ((obs[mask] - reps * pmf[mask]) ** 2 / (reps * pmf[mask])).sum()
        assert stats.chi2.sf(stat, mask.sum() - 1) > 0.01, f"seed {seed}"
