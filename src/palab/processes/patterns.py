"""Point patterns, windows, intensity measures and the Poisson sampler.

Configuration spaces are either boxes in R^w (reference measure: Lebesgue) or
finite label sets (reference measure: counting).  Partitions are collections
of pairwise-disjoint boxes or label subsets; disjointness is verified at
construction.

Many patterns travel as one ``PatternBatch``: all points in one flat array
(or one tuple of labels) with segment offsets.  Samplers draw a batch in a few
numpy calls.  ``PatternBatch.segment_sums`` sums per-point values over each
pattern, so ``count_rows`` counts every pattern of a batch in a partition at
once, with the membership test ``count_vector`` makes for one pattern, and
the GNZ test functions read a whole batch the same way.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .. import streams
from ..errors import ParameterError
from ..quadrature import integrate_box

Label = Union[str, int]


@dataclass(frozen=True)
class Box:
    """Axis-aligned box window in R^w; ``uniform_points`` reads its corners as
    the arrays ``_lows`` and ``_span`` (highs - lows), built once."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def __post_init__(self):
        lows = tuple(float(v) for v in self.lows)
        highs = tuple(float(v) for v in self.highs)
        if len(lows) != len(highs) or not lows:
            raise ParameterError("box needs matching lows/highs")
        if any(not l < h or np.isinf(h - l) for l, h in zip(lows, highs)):
            raise ParameterError(f"degenerate or unbounded box {lows}..{highs}")
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)
        object.__setattr__(self, "_lows", np.array(lows))
        object.__setattr__(self, "_span", np.array(highs) - self._lows)

    @property
    def dim(self) -> int:
        return len(self.lows)

    def volume(self) -> float:
        out = 1.0
        for l, h in zip(self.lows, self.highs):
            out *= h - l
        return out

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Which rows of an ``(n, w)`` array lie in the closed box; no points
        (an empty pattern's ``(0, 0)`` array too) give an empty mask, and
        points of another width raise ``ParameterError``."""
        pts = np.atleast_2d(pts)
        ok = np.ones(len(pts), dtype=bool)
        if len(pts) == 0:
            return ok
        _check_width(pts.shape[1], self.dim)
        for k, (l, h) in enumerate(zip(self.lows, self.highs)):
            ok &= (pts[:, k] >= l) & (pts[:, k] <= h)
        return ok

    def overlaps(self, other: "Box") -> bool:
        """True when the interiors intersect; boxes of two dimensions raise
        ``ParameterError``."""
        _check_width(other.dim, self.dim)
        for (l1, h1), (l2, h2) in zip(
            zip(self.lows, self.highs), zip(other.lows, other.highs)
        ):
            if min(h1, h2) <= max(l1, l2):
                return False
        return True

    def intersection(self, other: "Box") -> Optional["Box"]:
        """The common box, or None when the interiors do not intersect."""
        if not self.overlaps(other):
            return None
        return Box(tuple(map(max, self.lows, other.lows)), tuple(map(min, self.highs, other.highs)))


def _check_width(width: int, dim: int) -> None:
    if width != dim:
        raise ParameterError(f"dimension mismatch: a box in R^{dim} against R^{width}")


@dataclass(frozen=True)
class LabelSpace:
    labels: tuple[Label, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels) or not self.labels:
            raise ParameterError("label space needs distinct, nonempty labels")


@dataclass(frozen=True)
class LabelSet:
    members: frozenset

    def __init__(self, members):
        object.__setattr__(self, "members", frozenset(members))


Window = Union[Box, LabelSpace]
SetSpec = Union[Box, LabelSet]


@dataclass(frozen=True, eq=False)
class PointPattern:
    """Finite counting measure: locations with multiplicities.

    Box-window locations are one read-only ``(n, w)`` float64 array, kept as
    given (a 2-D float64 array is wrapped in a read-only view, neither copied
    nor converted); label patterns are a tuple of labels.  An empty pattern is
    a ``(0, 0)`` array unless given a shape, and counts 0 in every set.
    """

    points: Union[np.ndarray, tuple]

    def __init__(self, points: Union[np.ndarray, Sequence]):
        if type(points) is np.ndarray and points.ndim == 2 and points.dtype == np.float64:
            pts = points.view()
            pts.flags.writeable = False
        elif isinstance(points, np.ndarray) or not len(points) or isinstance(points[0], (tuple, list, np.ndarray)):
            pts = np.asarray(points, dtype=np.float64)
            if pts.size == 0 and pts.ndim < 2:
                pts = pts.reshape(0, 0)
            if pts.ndim != 2:
                raise ParameterError(f"locations need an (n, w) array, got shape {pts.shape}")
            pts = pts.view()
            pts.flags.writeable = False
        else:
            pts = tuple(points)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class PartitionSpec:
    """d pairwise-disjoint measurable subsets of the window.

    A partition of boxes also keeps their corners as ``(d, w)`` arrays, so a
    pattern is counted in all sets by one membership test.
    """

    sets: tuple[SetSpec, ...]

    def __init__(self, sets: Sequence[SetSpec]):
        sets = tuple(sets)
        if not sets:
            raise ParameterError("partition needs at least one set")
        for a in range(len(sets)):
            for b in range(a + 1, len(sets)):
                s, t = sets[a], sets[b]
                if isinstance(s, Box) and isinstance(t, Box):
                    if s.overlaps(t):
                        raise ParameterError(f"partition sets {a} and {b} overlap")
                elif isinstance(s, LabelSet) and isinstance(t, LabelSet):
                    if s.members & t.members:
                        raise ParameterError(f"partition sets {a} and {b} share labels")
                else:
                    raise ParameterError("partition mixes box and label sets")
        object.__setattr__(self, "sets", sets)
        if isinstance(sets[0], Box):
            object.__setattr__(self, "_lows", np.array([s.lows for s in sets]))
            object.__setattr__(self, "_highs", np.array([s.highs for s in sets]))

    @property
    def dim(self) -> int:
        return len(self.sets)


@dataclass(frozen=True, eq=False)
class PatternBatch:
    """Many finite patterns in one flat representation: pattern i is
    ``points[offsets[i]:offsets[i + 1]]``.

    Located patterns share one read-only ``(N, w)`` float64 array, label
    patterns one tuple of N labels; ``offsets`` is ``(reps + 1,)`` int64 from
    0 to N.  A batch without points holds a ``(0, w)`` array (w may be 0) and
    counts 0 in any sets, like an empty ``PointPattern``.
    """

    points: Union[np.ndarray, tuple]
    offsets: np.ndarray

    def __init__(self, points: Union[np.ndarray, tuple], offsets):
        offsets = np.asarray(offsets, dtype=np.int64).view()
        if not isinstance(points, tuple):
            points = np.asarray(points, dtype=np.float64).view()
            if points.ndim != 2:
                raise ParameterError(f"located batches need an (N, w) array, got shape {points.shape}")
            points.flags.writeable = False
        if offsets.ndim != 1 or not len(offsets) or offsets[0] != 0 or offsets[-1] != len(points) \
                or (offsets[1:] < offsets[:-1]).any():
            raise ParameterError("batch offsets must rise from 0 to the number of points")
        offsets.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "offsets", offsets)

    @classmethod
    def from_patterns(cls, patterns: Sequence[PointPattern]) -> "PatternBatch":
        """The patterns in order; the nonempty ones must be all located (of one
        width) or all label patterns."""
        offsets = np.zeros(len(patterns) + 1, dtype=np.int64)
        np.cumsum([len(p) for p in patterns], out=offsets[1:])
        full = [p.points for p in patterns if len(p)]
        located = [pts for pts in full if not isinstance(pts, tuple)]
        if not full:
            return cls(np.empty((0, 0)), offsets)
        if not located:
            return cls(tuple(itertools.chain.from_iterable(full)), offsets)
        if len(located) < len(full) or len({pts.shape[1] for pts in located}) > 1:
            raise ParameterError("a batch needs all label patterns or located patterns of one width")
        return cls(np.concatenate(located), offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def pattern(self, i: int) -> PointPattern:
        return PointPattern(self.points[self.offsets[i]:self.offsets[i + 1]])

    def __iter__(self):
        bounds = self.offsets.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            yield PointPattern(self.points[lo:hi])

    def segment_sums(self, values: np.ndarray) -> np.ndarray:
        """Sum of integer or boolean ``values[offsets[i]:offsets[i + 1]]`` along
        the first axis for each pattern i: a running int64 sum differenced at the offsets."""
        running = np.zeros((len(values) + 1, *values.shape[1:]), dtype=np.int64)
        np.cumsum(values, axis=0, out=running[1:])
        return running[self.offsets[1:]] - running[self.offsets[:-1]]

    def count_rows(self, partition: PartitionSpec) -> np.ndarray:
        """``(reps, d)`` int64 counts of each pattern in each set: row i is
        ``count_vector(self.pattern(i), partition)``, the segment sums of one
        membership table of all points."""
        if len(self.points) == 0:
            return np.zeros((len(self), partition.dim), dtype=np.int64)
        return self.segment_sums(_membership(self.points, partition))


def _membership(points: Union[np.ndarray, tuple], partition: PartitionSpec) -> np.ndarray:
    """``(N, d)`` table: point n lies in set j.  Boxes are closed (``>=`` and
    ``<=`` on every axis); label sets need labels and boxes located points of
    their dimension."""
    labels = isinstance(partition.sets[0], LabelSet)
    if labels != isinstance(points, tuple):
        raise ParameterError("label sets need a label pattern, and boxes a located one")
    if labels:
        return np.array([[p in s.members for s in partition.sets] for p in points], dtype=bool)
    _check_width(points.shape[1], partition._lows.shape[1])
    pts = points[:, None, :]
    return ((pts >= partition._lows) & (pts <= partition._highs)).all(axis=2)


@functools.cache
def empty_pattern(width: int) -> PointPattern:
    """The one shared, read-only empty pattern with ``(0, width)`` points;
    width 0 is the ``(0, 0)`` of ``PointPattern([])``."""
    return PointPattern(np.empty((0, width)))


def count_vector(pattern: PointPattern, partition: PartitionSpec) -> tuple[int, ...]:
    """Points of the pattern in each set; boxes are closed, so a point on an
    edge shared by two boxes counts in both.  Label sets need a label pattern
    and boxes a located one; an empty pattern counts 0 in any sets."""
    if len(pattern) == 0:
        return (0,) * partition.dim
    return tuple(_membership(pattern.points, partition).sum(axis=0).tolist())


@dataclass(frozen=True)
class IntensityMeasure:
    """Finite intensity measure with density w.r.t. Lebesgue (boxes) or
    counting measure (labels).

    ``density`` is a constant, a label->weight mapping, or a callable on
    (n, w) arrays; callables must come with a finite upper bound
    ``density_max`` (rejection sampling needs it).  ``total``, the mass of
    the window, is computed at construction (by quadrature for a callable).
    """

    window: Window
    density: Union[float, dict, Callable[[np.ndarray], np.ndarray]]
    density_max: float = 0.0
    total: float = field(init=False)

    def __post_init__(self):
        if isinstance(self.window, LabelSpace):
            if not isinstance(self.density, dict):
                raise ParameterError("label-space intensity needs a label->weight dict")
            weights = {k: float(v) for k, v in self.density.items()}
            if any(not 0.0 <= v < np.inf for v in weights.values()):
                raise ParameterError("density must be finite and nonnegative")
            if set(weights) - set(self.window.labels):
                raise ParameterError("density assigns weight outside the label space")
            tot = sum(weights.get(l, 0.0) for l in self.window.labels)
            object.__setattr__(self, "density", weights)
            object.__setattr__(self, "density_max", max(weights.values(), default=0.0))
        elif isinstance(self.density, (int, float)):
            rate = float(self.density)
            if not 0.0 <= rate < np.inf:
                raise ParameterError("density must be finite and nonnegative")
            object.__setattr__(self, "density", rate)
            object.__setattr__(self, "density_max", rate)
            tot = rate * self.window.volume()
        else:
            if not 0.0 < self.density_max < np.inf:
                raise ParameterError("callable density needs a finite positive density_max bound")
            quad = integrate_box(self.density, self.window.lows, self.window.highs)
            tot = quad.value
            if tot < -1e-12:
                raise ParameterError("density integrates to a negative value")
        object.__setattr__(self, "total", float(tot))

    def measure_of(self, region: SetSpec) -> float:
        """Mass of a sub-box or label subset."""
        if isinstance(self.window, LabelSpace):
            if not isinstance(region, LabelSet):
                raise ParameterError("label-space measure needs a LabelSet")
            return sum(self.density.get(l, 0.0) for l in region.members)
        if not isinstance(region, Box):
            raise ParameterError("box-window measure needs a Box region")
        clipped = region.intersection(self.window)
        if clipped is None:
            return 0.0
        if isinstance(self.density, float):
            return self.density * clipped.volume()
        return integrate_box(self.density, clipped.lows, clipped.highs).value

    def sample_batch(self, rng: np.random.Generator, size: int) -> "PatternBatch":
        """``size`` draws of the Poisson process with this intensity."""
        return sample_poisson_batch(self, rng, size)


def sample_poisson_batch(intensity: IntensityMeasure, rng: np.random.Generator, size: int) -> PatternBatch:
    """``size`` independent exact draws as one batch.

    A constant rate on a box takes all counts from one ``rng.poisson`` call
    and then all points from one ``uniform_points`` call (size 1 is the
    stream of ``sample_poisson_process``); label windows and callable
    densities draw pattern by pattern.
    """
    if not isinstance(intensity.density, float):  # label weights or a callable
        return PatternBatch.from_patterns([sample_poisson_process(intensity, rng) for _ in range(size)])
    offsets = np.zeros(size + 1, dtype=np.int64)
    if intensity.total > 0.0:
        np.cumsum(rng.poisson(intensity.total, size), out=offsets[1:])
    return PatternBatch(uniform_points(intensity.window, rng, int(offsets[-1])), offsets)


def uniform_points(box: Box, rng: np.random.Generator, n: int) -> np.ndarray:
    """``(n, w)`` i.i.d. uniform points of the box: bit for bit
    ``rng.uniform(lows, highs, size=(n, w))`` (low + range * u, one double per
    entry in C order), without that call's per-call broadcasting cost."""
    return box._lows + box._span * rng.random((n, len(box._lows)))


def sample_poisson_process(intensity: IntensityMeasure, seed_or_rng) -> PointPattern:
    """Exact draw: N ~ Poisson(total) (no draw for total 0), then N i.i.d.
    points from density/total: uniform for a constant rate on a box (the
    stream of a size-1 ``sample_poisson_batch``, without building a batch),
    by rejection against density_max for a callable density, by categorical
    draw for labels.  No points give the shared ``empty_pattern``: ``(0, w)``
    on a width-w box for a constant rate (no uniforms are drawn for n = 0, so
    skipping that call leaves the stream unchanged), ``(0, 0)`` otherwise."""
    rng = streams.generator(seed_or_rng)
    total = intensity.total
    n = int(rng.poisson(total)) if total > 0.0 else 0
    if isinstance(intensity.density, float):
        return PointPattern(uniform_points(intensity.window, rng, n)) if n else empty_pattern(intensity.window.dim)
    if n == 0:
        return empty_pattern(0)
    if isinstance(intensity.window, LabelSpace):
        labels = intensity.window.labels
        probs = np.array([intensity.density.get(l, 0.0) for l in labels]) / total
        draws = rng.choice(len(labels), size=n, p=probs)
        return PointPattern([labels[i] for i in draws])
    out = []
    got = 0
    while got < n:
        m = max(16, 2 * (n - got))
        cand = uniform_points(intensity.window, rng, m)
        acc = rng.random(m) * intensity.density_max < np.asarray(intensity.density(cand))
        out.append(cand[acc])
        got += len(out[-1])
        if len(out) > 10_000:
            raise ParameterError("rejection sampler stalled; is density_max a valid bound?")
    return PointPattern(np.concatenate(out)[:n])
