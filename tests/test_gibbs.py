"""Gibbs sampler, exact coverage areas, GNZ equation and Papangelou bound tests."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
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
    coverage_areas,
    gnz_check,
    papangelou_bound,
    sample_gibbs,
    sample_poisson_process,
)

from helpers import midpoint_coverage, neighbour_counts

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


# ---------------------------------------------------------------------------
# exact coverage areas against closed forms and a midpoint grid
# ---------------------------------------------------------------------------

radii = st.floats(0.02, 0.3)
unit = st.floats(0.0, 1.0)


def lens(r, d):
    """Area of the intersection of two r-discs at distance d <= 2r."""
    return 2 * r * r * math.acos(d / (2 * r)) - 0.5 * d * math.sqrt(4 * r * r - d * d)


@given(radii, unit, unit)
def test_coverage_interior_disc(r, u, v):
    centre = (r + u * (1 - 2 * r), r + v * (1 - 2 * r))
    areas = coverage_areas(np.array([centre]), r, WINDOW)
    assert areas == pytest.approx([1 - math.pi * r * r, math.pi * r * r], abs=1e-12)


@given(radii, unit, st.floats(-0.99, 0.99), st.integers(0, 3))
def test_coverage_disc_cut_by_one_edge(r, u, s, edge):
    # centre at signed distance h from one edge (negative: outside the box)
    h, along = s * r, r + u * (1 - 2 * r)
    centre = [(along, h), (along, 1 - h), (h, along), (1 - h, along)][edge]
    segment = r * r * math.acos(h / r) - h * math.sqrt(r * r - h * h)  # part beyond the edge
    covered = math.pi * r * r - segment
    areas = coverage_areas(np.array([centre]), r, WINDOW)
    assert areas == pytest.approx([1 - covered, covered], abs=1e-12)


@given(radii, st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi))
def test_coverage_two_discs_lens(r, f, angle):
    d = f * 2 * r
    a = np.array([0.5, 0.5]) - 0.5 * d * np.array([math.cos(angle), math.sin(angle)])
    b = a + d * np.array([math.cos(angle), math.sin(angle)])
    both = lens(r, min(d, 2 * r))
    areas = coverage_areas(np.array([a, b]), r, WINDOW)
    assert areas == pytest.approx([1 - 2 * math.pi * r * r + both, 2 * math.pi * r * r - 2 * both, both], abs=1e-12)


@given(st.floats(0.02, 0.2), st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi))
def test_coverage_disjoint_discs(r, f, angle):
    d = 2 * r + f * (0.55 - 2 * r)
    a = np.array([0.5, 0.5]) - 0.5 * d * np.array([math.cos(angle), math.sin(angle)])
    b = a + d * np.array([math.cos(angle), math.sin(angle)])
    areas = coverage_areas(np.array([a, b]), r, WINDOW)
    assert areas == pytest.approx([1 - 2 * math.pi * r * r, 2 * math.pi * r * r, 0.0], abs=1e-12)


def test_coverage_tangent_circles():
    r = 0.2
    for a, b in (((0.3, 0.5), (0.7, 0.5)), ((0.5, 0.3), (0.5, 0.7)), ((0.5, 0.5), (0.5 + 0.4 / math.sqrt(2),) * 2)):
        areas = coverage_areas(np.array([a, b]), r, WINDOW)
        assert areas == pytest.approx([1 - 2 * math.pi * r * r, 2 * math.pi * r * r, 0.0], abs=1e-12)


@given(st.integers(2, 5), radii, unit, unit)
def test_coverage_coincident_points(m, r, u, v):
    centre = (r + u * (1 - 2 * r), r + v * (1 - 2 * r))
    areas = coverage_areas(np.array([centre] * m), r, WINDOW)
    expected = [1 - math.pi * r * r] + [0.0] * (m - 1) + [math.pi * r * r]
    assert areas == pytest.approx(expected, abs=1e-12)


@given(radii, unit)
def test_coverage_points_on_the_box_edge(r, u):
    along = r + u * (1 - 2 * r)
    for centre in ((along, 0.0), (0.0, along), (along, 1.0), (1.0, along)):
        half = 0.5 * math.pi * r * r
        assert coverage_areas(np.array([centre]), r, WINDOW) == pytest.approx([1 - half, half], abs=1e-12)
    for corner in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)):
        quarter = 0.25 * math.pi * r * r
        assert coverage_areas(np.array([corner]), r, WINDOW) == pytest.approx([1 - quarter, quarter], abs=1e-12)


@given(st.lists(st.tuples(unit, unit), min_size=1, max_size=6), st.floats(1.5, 10.0))
def test_coverage_rho_larger_than_window(points, r):
    areas = coverage_areas(np.array(points), r, WINDOW)
    assert areas == pytest.approx([0.0] * len(points) + [1.0], abs=1e-12)


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.1, 3.0), st.floats(0.1, 3.0), radii)
def test_coverage_empty_pattern(x, y, w, h, r):
    box = Box((x, y), (x + w, y + h))
    for empty in (np.empty((0, 2)), PointPattern([]).points):
        assert coverage_areas(empty, r, box) == pytest.approx([box.volume()], abs=1e-12)


@given(
    st.lists(st.tuples(st.floats(-0.3, 1.3), st.floats(-0.3, 1.3)), max_size=9),
    st.floats(0.01, 0.8),
    st.tuples(st.floats(-0.2, 0.6), st.floats(-0.2, 0.6), st.floats(0.1, 0.9), st.floats(0.1, 0.9)),
)
def test_coverage_sums_to_box_area_and_matches_midpoint_grid(points, r, corner):
    x, y, w, h = corner
    box = Box((x, y), (x + w, y + h))
    areas = coverage_areas(np.array(points).reshape(-1, 2), r, box)
    assert len(areas) == len(points) + 1
    assert abs(areas.sum() - box.volume()) <= 1e-12
    assert areas.min() >= -1e-12
    grid, bound = midpoint_coverage(points, r, box.lows, box.highs, 200)
    assert np.abs(areas - grid).max() <= bound + 1e-12


def test_gnz_u_constant_theta_zero():
    model = GibbsModel(beta=2.0, theta=0.0, rho=0.1, window=WINDOW)
    report = gnz_check(model, IndicatorTimesEmpty(), reps=4000, seed=5)
    # lhs = E xi(X), rhs = beta * |W|; both 2
    assert report.lhs == pytest.approx(2.0, abs=0.1)
    assert report.rhs == pytest.approx(2.0, abs=1e-9)
    assert abs(report.z_score) <= 4


def test_gnz_total_count_poisson_second_moment():
    model = GibbsModel(beta=2.0, theta=0.0, rho=0.1, window=WINDOW)
    report = gnz_check(model, TotalCount(), reps=6000, seed=6)
    # u(x, nu) = nu(X): lhs = E[N(N-1)] = 4, rhs = beta E[N] = 4
    assert report.lhs == pytest.approx(4.0, abs=0.3)
    assert report.rhs == pytest.approx(4.0, abs=0.2)
    assert abs(report.z_score) <= 4


def test_gnz_strauss_with_indicator_u():
    model = GibbsModel(beta=2.0, theta=0.5, rho=0.1, window=WINDOW)
    u = IndicatorTimesEmpty(
        region_a=Box((0.0, 0.0), (0.5, 1.0)),
        region_b=Box((0.5, 0.0), (1.0, 1.0)),
    )
    report = gnz_check(model, u, reps=20000, seed=7)
    assert abs(report.z_score) <= 4
    assert abs(report.lhs - report.rhs) <= 4 * report.std_error


def test_gnz_region_is_clipped_to_the_window():
    model = GibbsModel(beta=2.0, theta=0.5, rho=0.1, window=WINDOW)
    b = Box((0.5, 0.0), (1.0, 1.0))
    inside = gnz_check(model, IndicatorTimesEmpty(Box((0.0, 0.0), (0.5, 1.0)), b), reps=300, seed=3)
    wider = gnz_check(model, IndicatorTimesEmpty(Box((-1.0, -1.0), (0.5, 2.0)), b), reps=300, seed=3)
    assert wider == inside
    outside = gnz_check(model, IndicatorTimesEmpty(Box((2.0, 0.0), (3.0, 1.0)), b), reps=300, seed=3)
    assert (outside.lhs, outside.rhs) == (0.0, 0.0)


def test_gibbs_integrals_need_a_planar_window():
    line = GibbsModel(beta=2.0, theta=0.5, rho=0.1, window=Box((0.0,), (1.0,)))
    with pytest.raises(ParameterError, match="2-D"):
        gnz_check(line, TotalCount(), reps=10, seed=0)
    with pytest.raises(ParameterError, match="2-D"):
        papangelou_bound(line, IntensityMeasure(line.window, 2.0), reps=10, seed=0)
    with pytest.raises(ParameterError, match="2-D"):
        coverage_areas(np.zeros((1, 3)), 0.1, Box((0.0,) * 3, (1.0,) * 3))


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
    res = papangelou_bound(model, target, reps=500, seed=8)
    assert res.estimate == 0.0


def test_papangelou_bound_f_zero_equals_mean_count():
    model = GibbsModel(beta=1.5, theta=0.8, rho=0.12, window=WINDOW)
    target = IntensityMeasure(WINDOW, 0.0)
    reps = 6000
    res = papangelou_bound(model, target, reps=reps, seed=9)
    rng = streams.derive(909)
    counts = np.array([len(sample_gibbs(model, rng)) for _ in range(reps)])
    se = math.sqrt(res.std_error**2 + counts.var(ddof=1) / reps)
    assert abs(res.estimate - counts.mean()) <= 4 * se


def test_papangelou_bound_vs_nested_mc_oracle():
    model = GibbsModel(beta=2.0, theta=0.5, rho=0.1, window=WINDOW)
    target = IntensityMeasure(WINDOW, 2.0)
    res = papangelou_bound(model, target, reps=8000, seed=10)

    # independent nested Monte Carlo: uniform x-points instead of exact areas
    rng = streams.derive(999)
    reps = 8000
    vals = np.zeros(reps)
    for s in range(reps):
        xi = sample_gibbs(model, rng)
        xs = rng.uniform(0.0, 1.0, size=(96, 2))
        c = model.beta * np.exp(-model.theta * neighbour_counts(xs, xi.points, model.rho))
        vals[s] = float(np.abs(c - 2.0).mean())
    oracle = vals.mean()
    oracle_se = vals.std(ddof=1) / math.sqrt(reps)
    combined = math.sqrt(res.std_error**2 + oracle_se**2)
    assert abs(res.estimate - oracle) <= 3 * combined


def test_papangelou_target_must_match_window():
    model = GibbsModel(beta=2.0, theta=0.5, rho=0.1, window=WINDOW)
    with pytest.raises(ParameterError):
        papangelou_bound(model, IntensityMeasure(Box((0.0,), (1.0,)), 2.0), reps=10, seed=0)
