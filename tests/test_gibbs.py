"""Gibbs sampler, exact coverage areas, GNZ equation and Papangelou bound tests."""

import math
import tracemalloc

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
    PatternBatch,
    PointPattern,
    TotalCount,
    coverage_areas,
    gnz_check,
    papangelou_bound,
    sample_gibbs,
    sample_gibbs_batch,
    sample_poisson_batch,
    sample_poisson_process,
)
from palab.processes import gibbs

from helpers import (
    arc_primitive,
    midpoint_coverage,
    neighbour_counts,
    per_pattern_gnz_check,
    per_pattern_papangelou_bound,
    reference_coverage_areas,
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


@pytest.mark.parametrize("field, value", [
    ("beta", math.nan), ("beta", math.inf), ("theta", math.nan), ("theta", math.inf),
    ("rho", math.nan), ("rho", math.inf),
])
def test_model_rejects_non_finite_parameters(field, value):
    params = {"beta": 2.0, "theta": 0.5, "rho": 0.1, field: value}
    with pytest.raises(ParameterError, match="finite"):
        GibbsModel(window=WINDOW, **params)


def test_sampler_budget_error():
    model = GibbsModel(beta=60.0, theta=50.0, rho=1.0, window=WINDOW)
    with pytest.raises(BudgetError):
        sample_gibbs(model, streams.derive(1), max_tries=50)


# ---------------------------------------------------------------------------
# the batched rejection sampler against one proposal at a time
# ---------------------------------------------------------------------------

def reference_gibbs(model, rng):
    """Plain rejection, one proposal at a time: Poisson count, uniform points,
    every pair's distance, then one uniform against exp(-theta * pairs)."""
    while True:
        n = rng.poisson(model.beta * model.window.volume())
        pts = rng.uniform(model.window.lows, model.window.highs, size=(n, model.window.dim))
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        pairs = int(np.triu(d2 <= model.rho**2, k=1).sum())
        if rng.random() < math.exp(-model.theta * pairs):
            return pts


def brute_close_pairs(pts, rho):
    return sum(math.dist(p, q) <= rho for i, p in enumerate(pts) for q in pts[i + 1:])


class RecordingRng:
    """Passes draws through to a stream and records each chunk's proposals."""

    def __init__(self, *key):
        self.rng = streams.derive(*key)
        self.chunks = []

    def poisson(self, lam, size):
        self.chunks.append(size)
        return self.rng.poisson(lam, size)

    def random(self, size):
        return self.rng.random(size)


def test_batch_theta_zero_is_poisson_chi_square():
    model = GibbsModel(beta=2.0, theta=0.0, rho=0.1, window=WINDOW)
    reps = 20000
    counts = np.diff(sample_gibbs_batch(model, streams.derive(103), reps).offsets)
    kmax = 7
    obs = np.bincount(np.minimum(counts, kmax + 1), minlength=kmax + 2)
    pmf = stats.poisson.pmf(np.arange(kmax + 1), 2.0)
    pmf = np.append(pmf, 1.0 - pmf.sum())
    mask = reps * pmf > 5
    stat = ((obs[mask] - reps * pmf[mask]) ** 2 / (reps * pmf[mask])).sum()
    assert stats.chi2.sf(stat, mask.sum() - 1) > 0.01


def test_batch_theta_zero_is_the_poisson_batch():
    # every proposal is accepted, so the batch is its first chunk's proposals
    model = GibbsModel(beta=2.5, theta=0.0, rho=0.1, window=WINDOW)
    gibbs_batch = sample_gibbs_batch(model, streams.derive(104), 500)
    poisson_batch = sample_poisson_batch(IntensityMeasure(WINDOW, 2.5), streams.derive(104), 500)
    assert np.array_equal(gibbs_batch.offsets, poisson_batch.offsets)
    assert gibbs_batch.points.tobytes() == poisson_batch.points.tobytes()


@pytest.mark.parametrize("model", [
    GibbsModel(beta=3.0, theta=0.7, rho=0.2, window=WINDOW),
    GibbsModel(beta=2.0, theta=2.0, rho=0.15, window=WINDOW),
], ids=["strauss", "strong"])
def test_batch_matches_one_proposal_at_a_time(model):
    reps = 12000
    batch = [p.points for p in sample_gibbs_batch(model, streams.derive(105), reps)]
    rng = streams.derive(106)
    oracle = [reference_gibbs(model, rng) for _ in range(reps)]
    for stat in (len, lambda pts: model.close_pairs(pts)):
        a = np.array([stat(p) for p in batch], dtype=float)
        b = np.array([stat(p) for p in oracle], dtype=float)
        se = math.sqrt(a.var(ddof=1) / reps + b.var(ddof=1) / reps)
        assert abs(a.mean() - b.mean()) <= 4 * se


def test_batch_keeps_the_first_acceptances_in_proposal_order():
    # replay the recorded chunks through the plain acceptance rule; the last
    # chunk has acceptances to spare, so keeping the first ones is tested
    model = GibbsModel(beta=3.0, theta=0.7, rho=0.2, window=WINDOW)
    size = 300
    spy = RecordingRng(109)
    batch = sample_gibbs_batch(model, spy, size)
    assert len(spy.chunks) > 1
    rng = streams.derive(109)
    accepted = []
    for k in spy.chunks:
        counts = rng.poisson(3.0, k)
        pts = rng.uniform(0.0, 1.0, size=(counts.sum(), 2))
        u = rng.random(k)
        for j, proposal in enumerate(np.split(pts, np.cumsum(counts)[:-1])):
            if u[j] < math.exp(-model.theta * brute_close_pairs(proposal.tolist(), model.rho)):
                accepted.append(proposal)
    assert len(accepted) > size
    assert [p.points.tolist() for p in batch] == [p.tolist() for p in accepted[:size]]


def test_batch_budget_counts_rejections_in_a_row_across_chunks():
    # replay each run: BudgetError exactly when max_tries rejections in a row
    # come before the size-th acceptance, with nothing drawn after them
    model = GibbsModel(beta=6.0, theta=1.0, rho=0.3, window=WINDOW)
    size, max_tries = 30, 12
    outcomes = set()
    for seed in range(12):
        spy = RecordingRng(seed)
        try:
            sample_gibbs_batch(model, spy, size, max_tries=max_tries)
            raised = False
        except BudgetError:
            raised = True
        rng = streams.derive(seed)
        run = accepted = drawn = 0
        expected = None
        for k in spy.chunks:
            counts = rng.poisson(6.0, k)
            pts = rng.uniform(0.0, 1.0, size=(counts.sum(), 2))
            u = rng.random(k)
            for j, proposal in enumerate(np.split(pts, np.cumsum(counts)[:-1])):
                if expected is not None:
                    break
                drawn += 1
                if u[j] < math.exp(-model.theta * brute_close_pairs(proposal.tolist(), model.rho)):
                    run, accepted = 0, accepted + 1
                    expected = False if accepted == size else None
                else:
                    run += 1
                    expected = True if run >= max_tries else None
        assert raised == expected
        if raised:
            assert drawn == sum(spy.chunks)
        outcomes.add(raised)
    assert outcomes == {True, False}


def test_batch_budget_error_stays_within_the_pair_budget():
    model = GibbsModel(beta=60.0, theta=50.0, rho=1.0, window=WINDOW)
    spy = RecordingRng(1)
    with pytest.raises(BudgetError):
        sample_gibbs_batch(model, spy, 5, max_tries=50)
    assert sum(spy.chunks) == 50
    spy = RecordingRng(2)
    with pytest.raises(BudgetError):
        sample_gibbs_batch(model, spy, 5, max_tries=400)
    assert sum(spy.chunks) == 400
    assert max(spy.chunks) * (1 + 0.5 * 60.0**2) <= gibbs._PAIR_ELEMS


def test_batch_chunks_hold_the_pair_budget(monkeypatch):
    # a dense model with every proposal accepted: chunks are capped by the
    # pair budget alone, and every distance block stays inside it
    model = GibbsModel(beta=60.0, theta=0.0, rho=0.1, window=WINDOW)
    spy = RecordingRng(3)
    batch = sample_gibbs_batch(model, spy, 400)
    assert len(batch) == 400 and len(spy.chunks) > 1
    assert max(spy.chunks) * (1 + 0.5 * 60.0**2) <= gibbs._PAIR_ELEMS
    monkeypatch.setattr(gibbs, "_PAIR_ELEMS", 50)
    lengths = np.random.default_rng(4).poisson(6.0, 200)
    covered = np.zeros(len(lengths), dtype=int)
    for segs, a, b in gibbs._pair_blocks(lengths):
        assert (lengths[segs] == lengths[segs[0]]).all()
        assert len(segs) * len(a) <= max(50, len(a))
        covered[segs] += 1
    assert (covered == (lengths >= 2)).all()


@given(st.lists(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=7), max_size=12),
       st.sampled_from([1, 4, 1 << 18]))
def test_close_pairs_per_segment_match_brute_force(patterns, budget):
    offsets = np.concatenate([[0], np.cumsum([len(p) for p in patterns], dtype=np.int64)])
    pts = np.array([q for p in patterns for q in p], dtype=float).reshape(-1, 2)
    old = gibbs._PAIR_ELEMS
    gibbs._PAIR_ELEMS = budget
    try:
        got = gibbs._close_pairs(pts, offsets, 0.3)
    finally:
        gibbs._PAIR_ELEMS = old
    assert got.tolist() == [brute_close_pairs(p, 0.3) for p in patterns]


def test_batch_of_size_zero_is_empty():
    model = GibbsModel(beta=2.0, theta=0.5, rho=0.1, window=WINDOW)
    rng = streams.derive(5)
    batch = sample_gibbs_batch(model, rng, 0)
    assert len(batch) == 0 and batch.points.shape == (0, 2)
    assert rng.random() == streams.derive(5).random()


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


@pytest.mark.parametrize("point, rho", [
    ((math.nan, 0.5), 0.1), ((0.5, math.inf), 0.1), ((-math.inf, 0.5), 0.1),
    ((0.5, 0.5), -0.1), ((0.5, 0.5), 0.0), ((0.5, 0.5), math.nan), ((0.5, 0.5), math.inf),
])
def test_coverage_rejects_non_finite_points_and_bad_rho(point, rho):
    # a NaN or infinite point used to cover nothing, rho = -0.1 gave [1, 0] and rho = NaN gave [nan, nan]
    pts = np.array([(0.2, 0.3), point])
    with pytest.raises(ParameterError, match="finite"):
        coverage_areas(pts, rho, WINDOW)
    with pytest.raises(ParameterError, match="finite"):
        gibbs._coverage_sweep(pts, np.array([0, 1, 2]), rho, WINDOW)


def test_arc_primitives_equal_the_scalar_formula():
    # math.atan2 one value at a time: numpy's vector atan2 differs from it in
    # the last ulp on a few percent of these arguments on some hosts
    rho = 0.15
    t = np.concatenate([np.linspace(-0.2, 0.2, 4001), [-rho, rho, 0.0, -0.0, np.nextafter(rho, 0.0)]])
    got = gibbs._arc_primitives(t, rho)
    for v, g in zip(t.tolist(), got.tolist()):
        want = arc_primitive(v, rho)
        assert g == want and math.copysign(1.0, g) == math.copysign(1.0, want), v


SWEEP_RHOS = (0.0625, 0.125, 0.25)  # with points on a 1/16 grid, 2 rho apart is exact


@st.composite
def coverage_batches(draw):
    """(rho, box, patterns): 0-7 points each, mixing free points inside and
    outside the box, points on its edges and corners, repeats of earlier
    points, partners exactly 2 rho to the right of or above a grid point, and
    tight clusters around the centre."""
    rho = draw(st.sampled_from(SWEEP_RHOS) | st.floats(0.01, 0.8))
    box = draw(st.sampled_from([WINDOW, Box((-0.25, 0.125), (0.75, 0.625))]))
    (x0, y0), (x1, y1) = box.lows, box.highs
    grid = st.integers(-4, 20).map(lambda k: k / 16)
    patterns = []
    for _ in range(draw(st.integers(1, 9))):
        pts = []
        for _ in range(draw(st.integers(0, 7))):
            kind = draw(st.sampled_from(["free", "edge", "repeat", "apart", "dense"]))
            if kind == "repeat" and pts:
                pts.append(draw(st.sampled_from(pts)))
            elif kind == "apart":
                x, y = draw(grid), draw(grid)
                pts.append((x, y))
                pts.append((x + 2 * rho, y) if draw(st.booleans()) else (x, y + 2 * rho))
            elif kind == "edge":
                along = draw(st.sampled_from([x0, x1]) | st.floats(x0, x1))
                pts.append((along, draw(st.sampled_from([y0, y1]))) if draw(st.booleans())
                           else (draw(st.sampled_from([x0, x1])), draw(st.floats(y0, y1))))
            elif kind == "dense":
                pts.append((0.5 + draw(st.floats(-0.01, 0.01)), 0.5 + draw(st.floats(-0.01, 0.01))))
            else:
                pts.append((draw(st.floats(-0.5, 1.5)), draw(st.floats(-0.5, 1.5))))
        patterns.append(pts[:7])
    draw(st.randoms()).shuffle(patterns)
    return rho, box, patterns


def _sweep(patterns, rho, box):
    batch = PatternBatch.from_patterns([PointPattern(np.array(p, dtype=float).reshape(-1, 2)) for p in patterns])
    points = batch.points.reshape(-1, 2)
    return gibbs._coverage_sweep(points, batch.offsets, rho, box), batch.offsets + np.arange(len(batch) + 1)


def _bitwise_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@given(coverage_batches(), st.integers(0, 9))
def test_batch_sweep_equals_each_pattern_swept_alone(case, cut):
    rho, box, patterns = case
    areas, bounds = _sweep(patterns, rho, box)
    assert len(areas) == bounds[-1]
    for pts, lo, hi in zip(patterns, bounds, bounds[1:]):
        alone = coverage_areas(np.array(pts, dtype=float).reshape(-1, 2), rho, box)
        assert len(alone) == len(pts) + 1 and _bitwise_equal(areas[lo:hi], alone)
        assert _bitwise_equal(alone, reference_coverage_areas(pts, rho, box))
        assert abs(alone.sum() - box.volume()) <= 1e-12
    # the batch split in two and swept in two parts
    cut = min(cut, len(patterns))
    parts = [_sweep(part, rho, box)[0] for part in (patterns[:cut], patterns[cut:])]
    assert _bitwise_equal(areas, np.concatenate(parts))


def _record_sweeps(monkeypatch) -> list:
    """Patch ``_coverage_sweep`` to record the pattern sizes of each call."""
    swept, real = [], gibbs._coverage_sweep
    monkeypatch.setattr(gibbs, "_coverage_sweep", lambda points, offsets, *rest: (
        swept.append(np.diff(offsets)), real(points, offsets, *rest))[1])
    return swept


def _reference_level_sums(model, batch, draws):
    out = np.zeros(len(batch))
    for i in draws.tolist():
        xi = batch.pattern(i)
        out[i] = float(model.intensity_levels(len(xi)) @ reference_coverage_areas(xi.points, model.rho, WINDOW))
    return out


def test_sweep_blocks_hold_the_budget_and_equal_the_reference(monkeypatch):
    # the level sums do not depend on how the draws are cut into sweep blocks:
    # one draw per block, blocks of at most 2000 entries, and the whole batch
    model = GibbsModel(beta=4.0, theta=0.8, rho=0.15, window=WINDOW)
    batch = gibbs.sample_gibbs_batch(model, streams.derive(41), 300)
    draws = np.arange(0, 300, 2)
    want = _reference_level_sums(model, batch, draws)
    assert (want[1::2] == 0.0).all() and (want[::2] > 0.0).all()
    swept, blocks = _record_sweeps(monkeypatch), {}
    for elems in (1, 2000, 1 << 30):
        monkeypatch.setattr(gibbs, "_SWEEP_ELEMS", elems)
        swept.clear()
        assert _bitwise_equal(gibbs._level_sums(model, batch, WINDOW, lambda c: c, draws), want), elems
        assert np.array_equal(np.concatenate(swept), np.diff(batch.offsets)[draws])
        for n in swept:
            assert len(n) == 1 or ((n + 1) * (n * n + 6 * n + 2)).sum() <= elems
        blocks[elems] = len(swept)
    assert blocks[1] == len(draws) and 1 < blocks[2000] < len(draws) and blocks[1 << 30] == 1


def test_dense_model_sweep_needs_the_scratch_of_its_largest_draw(monkeypatch):
    # beta = 60, theta = 0: ~60 points and ~600 breakpoints per draw, each draw
    # over the sweep budget alone, so the draws are swept one at a time and the
    # scratch of the whole check is that of its largest draw
    model = GibbsModel(beta=60.0, theta=0.0, rho=0.1, window=WINDOW)
    batch = gibbs.sample_gibbs_batch(model, streams.derive(43), 16)
    draws = np.arange(len(batch))

    def traced(draws):
        tracemalloc.start()
        try:
            return gibbs._level_sums(model, batch, WINDOW, lambda c: c, draws), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    got, peak = traced(draws)
    _, largest = traced(np.array([np.argmax(np.diff(batch.offsets))]))
    assert peak < 1.5 * largest
    assert _bitwise_equal(got, _reference_level_sums(model, batch, draws))
    swept = _record_sweeps(monkeypatch)
    gibbs._level_sums(model, batch, WINDOW, lambda c: c, draws)
    assert [len(n) for n in swept] == [1] * len(batch)


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
    with pytest.raises(ParameterError, match="2-D"):
        coverage_areas(np.zeros((1, 2)), 0.1, Box((0.0,) * 3, (1.0,) * 3))


def test_gnz_left_side_matches_per_point_definition():
    # the batch terms against sum_{x in xi} u(x, xi \ x) written out point by
    # point, and the weight h against a count of B per pattern
    a, b = Box((0.0, 0.0), (0.5, 1.0)), Box((0.5, 0.0), (1.0, 1.0))
    patterns = [
        [],
        [(0.2, 0.3)],
        [(0.7, 0.3)],
        [],
        [(0.2, 0.3), (0.5, 0.5)],               # second point on the shared edge: in A and B
        [(0.5, 0.2)],                           # on the shared edge alone
        [(0.2, 0.3), (0.4, 0.9), (0.8, 0.1)],
        [(0.2, 0.3), (0.8, 0.1), (0.9, 0.9)],
        *[sample_poisson_process(IntensityMeasure(WINDOW, 3.0), streams.derive(17, k)).points
          for k in range(20)],
    ]
    patterns = [np.asarray(pts, dtype=float).reshape(-1, 2) for pts in patterns]
    batch = PatternBatch.from_patterns([PointPattern(pts) for pts in patterns])
    assert (np.diff(batch.offsets) == 0).sum() >= 3  # empty segments among full ones
    for u in (IndicatorTimesEmpty(a, b), IndicatorTimesEmpty(region_b=b), IndicatorTimesEmpty(region_a=a),
              IndicatorTimesEmpty(), TotalCount()):
        left, h = u.terms(batch)
        assert left.dtype == h.dtype == np.float64 and left.shape == h.shape == (len(patterns),)
        for i, pts in enumerate(patterns):
            rest = [np.delete(pts, k, axis=0) for k in range(len(pts))]
            in_a = [u.region_a is None or u.region_a.contains(x)[0] for x in pts]
            if isinstance(u, TotalCount):
                per_point, weight = [len(r) for r in rest], len(pts)
            else:
                empty_b = [u.region_b is None or not u.region_b.contains(r).any() for r in rest]
                per_point = [x and e for x, e in zip(in_a, empty_b)]
                weight = u.region_b is None or not u.region_b.contains(pts).any()
            assert left[i] == float(sum(per_point))
            assert h[i] == float(weight)
    empty = PatternBatch.from_patterns([PointPattern([])] * 3)
    assert empty.points.shape == (0, 0)
    for u, expected in ((IndicatorTimesEmpty(a, b), [1.0] * 3), (TotalCount(), [0.0] * 3)):
        left, h = u.terms(empty)
        assert left.tolist() == [0.0] * 3 and h.tolist() == expected


GNZ_ORACLE_US = [
    TotalCount(),
    IndicatorTimesEmpty(),
    IndicatorTimesEmpty(Box((0.0, 0.0), (0.5, 1.0)), Box((0.5, 0.0), (1.0, 1.0))),
    IndicatorTimesEmpty(region_a=Box((0.25, 0.25), (0.75, 0.75))),
    IndicatorTimesEmpty(region_b=Box((0.5, 0.5), (1.0, 1.0))),
    IndicatorTimesEmpty(Box((-0.5, 0.25), (0.5, 1.5)), Box((0.5, 0.5), (1.0, 1.0))),
    IndicatorTimesEmpty(Box((1.5, 0.0), (2.0, 1.0)), Box((0.5, 0.5), (1.0, 1.0))),
]


@pytest.mark.parametrize("reps", [2, 31, 33, 600])
@pytest.mark.parametrize("theta", [0.0, 0.8])
def test_gnz_check_and_bound_equal_the_per_pattern_loop(theta, reps):
    # the 32-stream layout: 2 and 31 repetitions take one draw from each of 2 and
    # 31 streams; 33 and 600 spread over all 32 streams in chunks of unequal size,
    # joined into one batch before the sweep
    sizes = streams.chunk_sizes(reps, 32)
    assert len(sizes) == min(reps, 32) and (len(set(sizes)) > 1) == (reps in (33, 600))
    model = GibbsModel(beta=2.0, theta=theta, rho=0.15, window=WINDOW)
    for seed in (3, 4):
        for u in GNZ_ORACLE_US:
            assert gnz_check(model, u, reps, seed) == per_pattern_gnz_check(model, u, reps, seed)
        for f in (0.0, 1.2, 2.0):
            got = papangelou_bound(model, IntensityMeasure(WINDOW, f), reps, seed)
            assert got == per_pattern_papangelou_bound(model, f, reps, seed)


class CountWithoutWeight(gibbs.GnzTestFunction):
    """Left side n, weight h = 0 on every draw."""

    def terms(self, batch):
        return np.diff(batch.offsets).astype(float), np.zeros(len(batch))


def test_gnz_check_sweeps_no_draw_of_weight_zero(monkeypatch):
    model = GibbsModel(beta=2.0, theta=0.8, rho=0.15, window=WINDOW)
    swept = []
    real = gibbs._coverage_sweep
    monkeypatch.setattr(gibbs, "_coverage_sweep", lambda points, offsets, *rest: (
        swept.append(len(offsets) - 1), real(points, offsets, *rest))[1])
    report = gnz_check(model, CountWithoutWeight(), reps=33, seed=5)
    assert swept == [] and report.rhs == 0.0 and not math.copysign(1.0, report.rhs) < 0
    counts = np.diff(gibbs._check_batch(model, 33, 5, 1).offsets)
    assert report.lhs == float(np.mean(counts.astype(float)))
    gnz_check(model, TotalCount(), reps=33, seed=5)
    assert 0 < sum(swept) < 33  # the weight n is 0 on the empty draws, which are not swept


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
