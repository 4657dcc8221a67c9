"""Gibbs sampler, GNZ equation and Papangelou bound tests."""

import math

import numpy as np
import pytest
from scipy import stats

from palab import streams
from palab.errors import BudgetError, ParameterError
from palab.processes import (
    Box,
    GibbsModel,
    IndicatorTimesEmpty,
    IntensityMeasure,
    PointPattern,
    TotalCount,
    gnz_check,
    papangelou_bound,
    sample_gibbs,
    sample_poisson_process,
)

WINDOW = Box((0.0, 0.0), (1.0, 1.0))


def test_theta_zero_is_poisson_chi_square():
    model = GibbsModel(beta=2.0, theta=0.0, rho=0.1, window=WINDOW)
    rng = streams.derive(101)
    reps = 20000
    counts = np.array([len(sample_gibbs(model, rng)) for _ in range(reps)])
    kmax = 7
    obs = np.bincount(np.minimum(counts, kmax + 1), minlength=kmax + 2)
    pmf = stats.poisson.pmf(np.arange(kmax + 1), 2.0)
    pmf = np.append(pmf, 1.0 - pmf.sum())
    expected = reps * pmf
    mask = expected > 5
    stat = ((obs[mask] - expected[mask]) ** 2 / expected[mask]).sum()
    assert stats.chi2.sf(stat, mask.sum() - 1) > 0.01


def test_positive_theta_suppresses_close_pairs():
    rng = streams.derive(102)
    reps = 8000
    free = GibbsModel(beta=4.0, theta=0.0, rho=0.15, window=WINDOW)
    inter = GibbsModel(beta=4.0, theta=1.5, rho=0.15, window=WINDOW)
    pairs_free = np.array([free.close_pairs(sample_gibbs(free, rng).points) for _ in range(reps)])
    pairs_int = np.array([inter.close_pairs(sample_gibbs(inter, rng).points) for _ in range(reps)])
    gap = pairs_free.mean() - pairs_int.mean()
    se = math.sqrt(pairs_free.var(ddof=1) / reps + pairs_int.var(ddof=1) / reps)
    assert gap > 3 * se  # one-sided: interaction suppresses pairs at range rho


def test_sampler_budget_error():
    model = GibbsModel(beta=60.0, theta=50.0, rho=1.0, window=WINDOW)
    with pytest.raises(BudgetError):
        sample_gibbs(model, streams.derive(1), max_tries=50)


def test_gnz_u_constant_theta_zero():
    model = GibbsModel(beta=2.0, theta=0.0, rho=0.1, window=WINDOW)
    report = gnz_check(model, IndicatorTimesEmpty(), reps=4000, seed=5, grid_n=16)
    # lhs = E xi(X), rhs = beta * |W|; both 2. theta = 0: integrand smooth, no
    # grid error at all
    assert report.quad_bound == 0.0
    assert report.lhs == pytest.approx(2.0, abs=0.1)
    assert report.rhs == pytest.approx(2.0, abs=1e-9)
    assert abs(report.z_score) <= 4


def test_gnz_total_count_poisson_second_moment():
    model = GibbsModel(beta=2.0, theta=0.0, rho=0.1, window=WINDOW)
    report = gnz_check(model, TotalCount(), reps=6000, seed=6, grid_n=8)
    # u(x, nu) = nu(X): lhs = E[N(N-1)] = 4, rhs = beta E[N] = 4
    assert report.lhs == pytest.approx(4.0, abs=0.3)
    assert report.rhs == pytest.approx(4.0, abs=0.2)
    assert abs(report.z_score) <= 4


def test_gnz_strauss_with_indicator_u():
    model = GibbsModel(beta=2.0, theta=0.5, rho=0.1, window=WINDOW)
    u = IndicatorTimesEmpty(
        region_a=Box((0.0, 0.0), (0.5, 1.0)),   # grid-aligned for grid_n % 2 == 0
        region_b=Box((0.5, 0.0), (1.0, 1.0)),
    )
    report = gnz_check(model, u, reps=20000, seed=7, grid_n=32)
    assert abs(report.z_score) <= 4
    # sharper check: the actual discrepancy within statistical + grid error
    assert abs(report.lhs - report.rhs) <= 4 * report.std_error + report.quad_bound
    assert report.quad_bound < 0.1


def test_gnz_left_side_matches_per_point_definition():
    # sum_{x in xi} u(x, xi \ x), written out point by point
    a, b = Box((0.0, 0.0), (0.5, 1.0)), Box((0.5, 0.0), (1.0, 1.0))
    patterns = [
        [],
        [(0.2, 0.3)],
        [(0.7, 0.3)],
        [(0.2, 0.3), (0.5, 0.5)],               # second point on the shared edge: in A and B
        [(0.2, 0.3), (0.4, 0.9), (0.8, 0.1)],
        [(0.2, 0.3), (0.8, 0.1), (0.9, 0.9)],
        *[sample_poisson_process(IntensityMeasure(WINDOW, 3.0), streams.derive(17, k)).points
          for k in range(20)],
    ]
    for pts in patterns:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        pattern = PointPattern(pts)
        rest = [np.delete(pts, k, axis=0) for k in range(len(pts))]
        for u, per_point in (
            (IndicatorTimesEmpty(a, b),
             [a.contains(x)[0] and not b.contains(r).any() for x, r in zip(pts, rest)]),
            (IndicatorTimesEmpty(region_b=b), [not b.contains(r).any() for r in rest]),
            (IndicatorTimesEmpty(region_a=a), [a.contains(x)[0] for x in pts]),
            (TotalCount(), [len(r) for r in rest]),
        ):
            assert u.left_side(pattern) == float(sum(per_point))
    assert IndicatorTimesEmpty(a, b).left_side(PointPattern([])) == 0.0


def test_papangelou_bound_zero_for_poisson_target():
    model = GibbsModel(beta=2.0, theta=0.0, rho=0.1, window=WINDOW)
    target = IntensityMeasure(WINDOW, 2.0)
    res = papangelou_bound(model, target, reps=500, seed=8, grid_n=16)
    assert res.estimate == 0.0
    assert res.quad_bound == 0.0


def test_papangelou_bound_f_zero_equals_mean_count():
    model = GibbsModel(beta=1.5, theta=0.8, rho=0.12, window=WINDOW)
    target = IntensityMeasure(WINDOW, 0.0)
    reps = 6000
    res = papangelou_bound(model, target, reps=reps, seed=9, grid_n=32)
    rng = streams.derive(909)
    counts = np.array([len(sample_gibbs(model, rng)) for _ in range(reps)])
    se = math.sqrt(res.std_error**2 + counts.var(ddof=1) / reps)
    assert abs(res.estimate - counts.mean()) <= 4 * se + res.quad_bound


def test_papangelou_bound_vs_nested_mc_oracle():
    model = GibbsModel(beta=2.0, theta=0.5, rho=0.1, window=WINDOW)
    target = IntensityMeasure(WINDOW, 2.0)
    res = papangelou_bound(model, target, reps=8000, seed=10, grid_n=32)

    # independent nested Monte Carlo: uniform x-points instead of the grid
    rng = streams.derive(999)
    reps = 8000
    vals = np.zeros(reps)
    for s in range(reps):
        xi = sample_gibbs(model, rng)
        xs = rng.uniform(0.0, 1.0, size=(96, 2))
        vals[s] = float(np.abs(model.papangelou(xs, xi) - 2.0).mean())
    oracle = vals.mean()
    oracle_se = vals.std(ddof=1) / math.sqrt(reps)
    combined = math.sqrt(res.std_error**2 + oracle_se**2)
    assert abs(res.estimate - oracle) <= 3 * combined + res.quad_bound


def test_papangelou_target_must_match_window():
    model = GibbsModel(beta=2.0, theta=0.5, rho=0.1, window=WINDOW)
    with pytest.raises(ParameterError):
        papangelou_bound(model, IntensityMeasure(Box((0.0,), (1.0,)), 2.0), reps=10, seed=0)
