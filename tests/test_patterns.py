"""Poisson process sampler and partition plumbing tests."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from palab import streams
from palab.errors import ParameterError
from palab.processes import (
    Box,
    IntensityMeasure,
    LabelSet,
    LabelSpace,
    PartitionSpec,
    PatternBatch,
    PointPattern,
    count_vector,
    sample_poisson_batch,
    sample_poisson_process,
)

UNIT_SQUARE = Box((0.0, 0.0), (1.0, 1.0))


@pytest.mark.parametrize("lows, highs", [
    ((0.0,), (math.inf,)),
    ((-math.inf, 0.0), (1.0, 1.0)),
    ((0.0, math.nan), (1.0, 1.0)),
    ((0.0,), (math.nan,)),
], ids=["inf-high", "inf-low", "nan-low", "nan-high"])
def test_box_rejects_non_finite_corners(lows, highs):
    with pytest.raises(ParameterError, match="box"):
        Box(lows, highs)


@pytest.mark.parametrize("window, density", [
    (UNIT_SQUARE, math.nan),
    (UNIT_SQUARE, math.inf),
    (LabelSpace(("a", "b")), {"a": 1.0, "b": math.nan}),
    (LabelSpace(("a", "b")), {"a": math.inf}),
], ids=["nan-rate", "inf-rate", "nan-label-weight", "inf-label-weight"])
def test_intensity_rejects_non_finite_density(window, density):
    with pytest.raises(ParameterError, match="finite"):
        IntensityMeasure(window, density)


def test_intensity_rejects_non_finite_density_bound_and_total():
    with pytest.raises(ParameterError, match="finite"):
        IntensityMeasure(UNIT_SQUARE, lambda x: np.ones(len(x)), density_max=math.inf)


def test_zero_intensity_gives_empty_pattern():
    pattern = sample_poisson_process(IntensityMeasure(UNIT_SQUARE, 0.0), 1)
    assert len(pattern) == 0


@pytest.mark.parametrize("width", [1, 2, 3])
def test_empty_poisson_draws_keep_the_window_width(width):
    box = Box((0.0,) * width, (1.0,) * width)
    assert sample_poisson_process(IntensityMeasure(box, 0.0), 1).points.shape == (0, width)
    rng = streams.derive(7)
    draws = [sample_poisson_process(IntensityMeasure(box, 0.5), rng) for _ in range(40)]
    empty = [p for p in draws if len(p) == 0]
    assert empty and len(empty) < len(draws)
    for p in empty:
        assert p.points.shape == (0, width) and not p.points.flags.writeable


def test_unit_rate_mean_count():
    intensity = IntensityMeasure(UNIT_SQUARE, 1.0)
    rng = streams.derive(42)
    reps = 10**5
    counts = np.array([len(sample_poisson_process(intensity, rng)) for _ in range(reps)])
    sigma = math.sqrt(1.0 / reps)  # Var(Poisson(1)) = 1
    assert abs(counts.mean() - 1.0) <= 4 * sigma


def test_disjoint_halves_independent_poisson_chi_square():
    intensity = IntensityMeasure(UNIT_SQUARE, 3.0)
    left = Box((0.0, 0.0), (0.5, 1.0))
    right = Box((0.5, 0.0), (1.0, 1.0))
    part = PartitionSpec([left, right])
    rng = streams.derive(7)
    reps = 20000
    rows = np.array([count_vector(sample_poisson_process(intensity, rng), part) for _ in range(reps)])
    # joint histogram over 0..4 with a lumped tail, versus the product law
    kmax = 4
    obs = np.zeros((kmax + 2, kmax + 2))
    for a, b in rows:
        obs[min(a, kmax + 1), min(b, kmax + 1)] += 1
    marg = stats.poisson.pmf(np.arange(kmax + 1), 1.5)
    marg = np.append(marg, 1.0 - marg.sum())
    expected = reps * np.outer(marg, marg)
    mask = expected > 5
    stat = ((obs[mask] - expected[mask]) ** 2 / expected[mask]).sum()
    dof = mask.sum() - 1
    pval = stats.chi2.sf(stat, dof)
    assert pval > 0.01


def test_nonconstant_density_rejection_sampler():
    intensity = IntensityMeasure(
        Box((0.0,), (1.0,)),
        lambda x: 2.0 * x[:, 0],
        density_max=2.0,
    )
    assert intensity.total == pytest.approx(1.0, abs=1e-8)
    rng = streams.derive(3)
    pts = []
    for _ in range(4000):
        pts.extend(p[0] for p in sample_poisson_process(intensity, rng).points)
    # density 2x has mean 2/3
    assert np.mean(pts) == pytest.approx(2.0 / 3.0, abs=0.02)


def test_label_space_sampler():
    space = LabelSpace(("a", "b"))
    intensity = IntensityMeasure(space, {"a": 0.5, "b": 1.5})
    rng = streams.derive(11)
    counts = {"a": 0, "b": 0}
    reps = 20000
    for _ in range(reps):
        for p in sample_poisson_process(intensity, rng).points:
            counts[p] += 1
    assert counts["a"] / reps == pytest.approx(0.5, abs=0.03)
    assert counts["b"] / reps == pytest.approx(1.5, abs=0.05)


def test_partition_disjointness_enforced():
    with pytest.raises(ParameterError):
        PartitionSpec([Box((0.0,), (0.6,)), Box((0.5,), (1.0,))])
    with pytest.raises(ParameterError):
        PartitionSpec([LabelSet({"a"}), LabelSet({"a", "b"})])
    # touching boxes have empty interior intersection: fine
    PartitionSpec([Box((0.0,), (0.5,)), Box((0.5,), (1.0,))])


def test_counting_with_multiplicities():
    pattern = PointPattern([(0.25,), (0.25,), (0.75,)])
    part = PartitionSpec([Box((0.0,), (0.5,)), Box((0.5,), (1.0,))])
    assert count_vector(pattern, part) == (2, 1)


def test_intensity_total_validation():
    with pytest.raises(ParameterError):
        IntensityMeasure(UNIT_SQUARE, lambda x: np.ones(len(x)), density_max=0.0)


def test_measure_of_subregions():
    im = IntensityMeasure(UNIT_SQUARE, 2.0)
    assert im.measure_of(Box((0.0, 0.0), (0.5, 0.5))) == pytest.approx(0.5)
    im2 = IntensityMeasure(LabelSpace(("a", "b", "c")), {"a": 1.0, "b": 2.0, "c": 0.5})
    assert im2.measure_of(LabelSet({"a", "c"})) == pytest.approx(1.5)


SEGMENT = Box((0.0,), (0.5,))


def test_partition_of_boxes_of_two_dimensions_is_rejected():
    with pytest.raises(ParameterError, match="dimension mismatch"):
        PartitionSpec([SEGMENT, Box((0.5, 0.0), (1.0, 1.0))])


def test_counting_points_of_another_dimension_is_rejected():
    part = PartitionSpec([SEGMENT])
    batch = PatternBatch(np.array([[0.25, 0.75], [0.75, 0.25]]), [0, 1, 2])
    with pytest.raises(ParameterError, match="dimension mismatch"):
        batch.count_rows(part)
    with pytest.raises(ParameterError, match="dimension mismatch"):
        count_vector(batch.pattern(0), part)
    with pytest.raises(ParameterError, match="dimension mismatch"):
        UNIT_SQUARE.contains(np.array([[0.25]]))
    # no points count 0 in any boxes
    assert PatternBatch(np.empty((0, 2)), [0, 0]).count_rows(part).tolist() == [[0]]
    assert count_vector(PointPattern(np.empty((0, 2))), part) == (0,)


def test_measure_of_a_box_of_another_dimension_is_rejected():
    # a segment on the square is not the slab over it
    with pytest.raises(ParameterError, match="dimension mismatch"):
        IntensityMeasure(UNIT_SQUARE, 2.0).measure_of(SEGMENT)


# -- count_vector against a per-point, per-set reference --------------------

EDGES = [0.0, 0.25, 0.5, 0.75, 1.0]


def reference_counts(points, sets):
    """Per-point, per-set loop: closed boxes, label membership."""
    out = []
    for s in sets:
        if isinstance(s, LabelSet):
            out.append(sum(1 for p in points if p in s.members))
        else:
            out.append(sum(all(l <= c <= h for c, l, h in zip(p, s.lows, s.highs)) for p in points))
    return tuple(out)


@st.composite
def box_cases(draw):
    """Boxes of a grid over [0, 1]^w (w = 1, 2) that share edges, and points
    on grid lines, corners, repeated, outside the window, or none at all."""
    w = draw(st.integers(1, 2))
    cuts = [sorted(draw(st.sets(st.sampled_from(EDGES), min_size=2))) for _ in range(w)]
    cells = list(itertools.product(*[list(zip(c[:-1], c[1:])) for c in cuts]))
    chosen = draw(st.lists(st.sampled_from(range(len(cells))), min_size=1, unique=True))
    sets = [Box(tuple(lo for lo, _ in cells[i]), tuple(hi for _, hi in cells[i])) for i in chosen]
    coord = st.sampled_from(EDGES) | st.floats(-0.5, 1.5)
    points = draw(st.lists(st.tuples(*[coord] * w), max_size=12))
    if points and draw(st.booleans()):
        points = points + points[: draw(st.integers(1, len(points)))]
    return points, sets


@given(box_cases())
def test_count_vector_matches_reference_on_boxes(case):
    points, sets = case
    part = PartitionSpec(sets)
    w = sets[0].dim
    expected = reference_counts(points, sets)
    assert count_vector(PointPattern(points), part) == expected
    assert count_vector(PointPattern(np.array(points, dtype=float).reshape(-1, w)), part) == expected


@given(
    st.lists(st.sampled_from("abcde"), max_size=12),
    st.lists(st.sampled_from("abcdef"), min_size=1, unique=True),
    st.data(),
)
def test_count_vector_matches_reference_on_labels(points, labels, data):
    cuts = sorted(data.draw(st.sets(st.integers(1, len(labels) - 1))) if len(labels) > 1 else set())
    sets = [LabelSet(labels[a:b]) for a, b in zip([0, *cuts], [*cuts, len(labels)])]
    assert count_vector(PointPattern(points), PartitionSpec(sets)) == reference_counts(points, sets)


def test_count_vector_rejects_sets_of_the_other_kind():
    boxes = PartitionSpec([Box((0.0,), (0.5,)), Box((0.5,), (1.0,))])
    labels = PartitionSpec([LabelSet({"a"}), LabelSet({"b"})])
    with pytest.raises(ParameterError):
        count_vector(PointPattern(["a", "b"]), boxes)
    with pytest.raises(ParameterError):
        count_vector(PointPattern(np.array([[0.2], [0.7]])), labels)
    assert count_vector(PointPattern([]), boxes) == count_vector(PointPattern([]), labels) == (0, 0)


def test_pattern_points_are_the_given_array_read_only():
    pts = np.array([[0.1, 0.2], [0.5, 0.5]])
    pattern = PointPattern(pts)
    assert np.shares_memory(pattern.points, pts)
    assert not pattern.points.flags.writeable
    assert pts.flags.writeable
    with pytest.raises(ParameterError):
        PointPattern(np.array([0.1, 0.2]))


# -- the constant-rate Poisson stream ----------------------------------------

# (window, rate) -> total points, first lengths, sha256 of all points, the
# stream's next uniform; recorded when each draw was still its own
# rng.poisson / rng.uniform pair, before it became the size-1 batch
POISSON_STREAM_PINNED = {
    2: (3.0, 886, [3, 3, 3, 1, 5, 4, 4, 5, 1, 5, 2, 2],
        "4321d311d4ed6faa142e5263f809ed4336a486cd8bcf3801e678dd85111b8ee7", 0.19365397957611807),
    1: (0.7, 426, [3, 1, 1, 0, 1, 5, 1, 0, 1, 1, 3, 0],
        "626182098acea2fac35877a5845380b7be6929278bfacbcbf8cb450daa06ace6", 0.7431321438179104),
    0: (0.0, 0, [0] * 12,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0.7854452656984242),
}


@pytest.mark.parametrize("key", sorted(POISSON_STREAM_PINNED))
def test_constant_rate_poisson_stream_pinned(key):
    rate, total, first, digest, after = POISSON_STREAM_PINNED[key]
    window = Box((0.0,), (2.0,)) if key == 1 else UNIT_SQUARE
    rng = streams.derive(2024, 13)
    intensity = IntensityMeasure(window, rate)
    patterns = [sample_poisson_process(intensity, rng) for _ in range(300)]
    pts = np.concatenate([p.points.reshape(-1, window.dim) for p in patterns])
    assert [len(p) for p in patterns][:12] == first and len(pts) == total
    assert hashlib.sha256(pts.tobytes()).hexdigest() == digest
    assert rng.random() == after


def test_callable_density_stream_pinned():
    # the rejection sampler's uniform proposals, recorded from rng.uniform
    intensity = IntensityMeasure(Box((0.0, 0.0), (1.0, 2.0)), lambda x: 1.0 + x[:, 0] * x[:, 1], density_max=3.0)
    rng = streams.derive(5)
    pts = np.concatenate([sample_poisson_process(intensity, rng).points.reshape(-1, 2) for _ in range(500)])
    assert len(pts) == 1478
    assert hashlib.sha256(pts.tobytes()).hexdigest() == "2c39ea39d7f4831a4c02296fcfade0505bed6338e1f5a4ea1873e7c2c9f351d0"
    assert rng.random() == 0.7665179295917159


def test_poisson_batch_halves_independent_poisson_chi_square():
    part = PartitionSpec([Box((0.0, 0.0), (0.5, 1.0)), Box((0.5, 0.0), (1.0, 1.0))])
    reps = 20000
    rows = sample_poisson_batch(IntensityMeasure(UNIT_SQUARE, 3.0), streams.derive(8), reps).count_rows(part)
    kmax = 4
    obs = np.zeros((kmax + 2, kmax + 2))
    np.add.at(obs, (np.minimum(rows[:, 0], kmax + 1), np.minimum(rows[:, 1], kmax + 1)), 1)
    marg = stats.poisson.pmf(np.arange(kmax + 1), 1.5)
    marg = np.append(marg, 1.0 - marg.sum())
    expected = reps * np.outer(marg, marg)
    mask = expected > 5
    stat = ((obs[mask] - expected[mask]) ** 2 / expected[mask]).sum()
    assert stats.chi2.sf(stat, mask.sum() - 1) > 0.01


def test_poisson_batch_on_labels_draws_pattern_by_pattern():
    intensity = IntensityMeasure(LabelSpace(("a", "b")), {"a": 0.5, "b": 1.5})
    batch = sample_poisson_batch(intensity, streams.derive(11), 50)
    rng = streams.derive(11)
    assert [tuple(p.points) for p in batch] == [tuple(sample_poisson_process(intensity, rng).points) for _ in range(50)]


# -- PatternBatch: counting a batch against count_vector, pattern by pattern -

@st.composite
def batch_cases(draw):
    """Grid boxes over [0, 1]^w (w = 1..3) that share edges, and a batch of
    patterns with points on grid lines and corners, repeated, outside the
    window, or none at all."""
    w = draw(st.integers(1, 3))
    cuts = [sorted(draw(st.sets(st.sampled_from(EDGES), min_size=2, max_size=3))) for _ in range(w)]
    cells = list(itertools.product(*[list(zip(c[:-1], c[1:])) for c in cuts]))
    chosen = draw(st.lists(st.sampled_from(range(len(cells))), min_size=1, unique=True))
    sets = [Box(tuple(lo for lo, _ in cells[i]), tuple(hi for _, hi in cells[i])) for i in chosen]
    coord = st.sampled_from(EDGES) | st.floats(-0.5, 1.5)
    patterns = draw(st.lists(st.lists(st.tuples(*[coord] * w), max_size=5), max_size=8))
    if draw(st.booleans()):
        patterns = [[] for _ in patterns]
    return [np.array(p, dtype=float).reshape(-1, w) for p in patterns], sets


@given(batch_cases())
def test_count_rows_matches_count_vector_on_boxes(case):
    points, sets = case
    part = PartitionSpec(sets)
    patterns = [PointPattern(p) for p in points]
    rows = PatternBatch.from_patterns(patterns).count_rows(part)
    assert rows.dtype == np.int64 and rows.shape == (len(patterns), part.dim)
    assert [tuple(r) for r in rows.tolist()] == [count_vector(p, part) for p in patterns]
    assert [tuple(r) for r in rows.tolist()] == [reference_counts(p.tolist(), sets) for p in points]


@given(st.lists(st.lists(st.sampled_from("abcde"), max_size=4), max_size=8), st.data())
def test_count_rows_matches_count_vector_on_labels(points, data):
    labels = list("abcdef")
    cuts = sorted(data.draw(st.sets(st.integers(1, len(labels) - 1))))
    part = PartitionSpec([LabelSet(labels[a:b]) for a, b in zip([0, *cuts], [*cuts, len(labels)])])
    patterns = [PointPattern(p) for p in points]
    rows = PatternBatch.from_patterns(patterns).count_rows(part)
    assert [tuple(r) for r in rows.tolist()] == [count_vector(p, part) for p in patterns]
    assert [tuple(r) for r in rows.tolist()] == [reference_counts(p, part.sets) for p in points]


def test_batch_segments_are_the_patterns():
    patterns = [PointPattern(np.array([[0.1, 0.2]])), PointPattern([]), PointPattern(np.array([[0.3, 0.4], [0.5, 0.6]]))]
    batch = PatternBatch.from_patterns(patterns)
    assert len(batch) == 3 and batch.offsets.tolist() == [0, 1, 1, 3]
    assert [p.points.tolist() for p in batch] == [[[0.1, 0.2]], [], [[0.3, 0.4], [0.5, 0.6]]]
    assert batch.pattern(2).points.tolist() == [[0.3, 0.4], [0.5, 0.6]]
    assert not batch.points.flags.writeable


def test_batch_without_points_counts_zero_in_any_sets():
    boxes = PartitionSpec([Box((0.0,), (0.5,)), Box((0.5,), (1.0,))])
    labels = PartitionSpec([LabelSet({"a"}), LabelSet({"b"})])
    for batch in (PatternBatch.from_patterns([PointPattern([])] * 3), PatternBatch.from_patterns([])):
        for part in (boxes, labels):
            assert batch.count_rows(part).tolist() == [[0, 0]] * len(batch)


@pytest.mark.parametrize("points", [PointPattern([]).points, PatternBatch.from_patterns([PointPattern([])] * 3).points,
                                    np.zeros((0, 2))], ids=["empty-pattern", "all-empty-batch", "no-rows-of-2"])
def test_box_contains_no_points_is_an_empty_mask(points):
    inside = UNIT_SQUARE.contains(points)
    assert inside.dtype == bool and inside.shape == (0,)


def test_batch_rejects_mixed_or_malformed_patterns():
    located, named = PointPattern(np.array([[0.2]])), PointPattern(["a"])
    with pytest.raises(ParameterError):
        PatternBatch.from_patterns([located, named])
    with pytest.raises(ParameterError):
        PatternBatch.from_patterns([located, PointPattern(np.array([[0.2, 0.3]]))])
    with pytest.raises(ParameterError):
        PatternBatch(np.zeros((2, 1)), [0, 1])
    with pytest.raises(ParameterError):
        PatternBatch(np.zeros((2, 1)), [0, 2, 1, 2])
    with pytest.raises(ParameterError):
        PatternBatch.from_patterns([named]).count_rows(PartitionSpec([Box((0.0,), (1.0,))]))
    with pytest.raises(ParameterError):
        PatternBatch.from_patterns([located]).count_rows(PartitionSpec([LabelSet({"a"})]))
