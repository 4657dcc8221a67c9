"""Gibbs point processes with hard-threshold pair potential, exact rejection
sampling, the Georgii-Nguyen-Zessin checker, and the Papangelou distance bound.

With the hard-threshold potential the Papangelou intensity
c(x, xi) = beta * exp(-theta * k(x)) is constant on each region of the window
where exactly k of the rho-discs around the pattern points cover x.  The
x-integrals in the GNZ right side and in the bound are therefore finite sums
of the exact areas of those regions (``coverage_areas``), and both checks rest
on their Monte Carlo standard error alone.  The windows are 2-D boxes.

Exact draws come from rejection against the Poisson(beta * Lebesgue)
proposal, batched over i.i.d. proposals (``sample_gibbs_batch``).  The GNZ
check and the bound draw their repetitions from a fixed layout of 32 random
streams: chunk c is one ``PatternBatch`` from ``streams.derive(seed, stream, c)``.
A GNZ test function reads the whole batch (``GnzTestFunction.terms``), and
only the coverage areas are computed draw by draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import streams
from ..errors import BudgetError, ParameterError
from .patterns import Box, IntensityMeasure, PatternBatch, PointPattern, uniform_points

DEFAULT_MAX_TRIES = 20_000
_CHUNKS = 32
# pair entries of one distance block, and expected close-pair work of one
# chunk of proposals: bounds the sampler's memory for dense models
_PAIR_ELEMS = 1 << 18


@dataclass(frozen=True)
class GibbsModel:
    """Pairwise-interaction process with density proportional to
    beta^n(config) * exp(-theta * sum_pairs 1{|x-y| <= rho}) and Papangelou
    intensity c(x, xi) = beta * exp(-theta * #{y in xi : |x-y| <= rho})."""

    beta: float
    theta: float
    rho: float
    window: Box

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise ParameterError("activity beta must be finite and > 0")
        if not 0.0 <= self.theta < math.inf:
            raise ParameterError("interaction theta must be finite and >= 0")
        if not 0.0 < self.rho < math.inf:
            raise ParameterError("interaction range rho must be finite and > 0")

    def close_pairs(self, pts: np.ndarray) -> int:
        pts = np.asarray(pts, dtype=np.float64)
        return int(_close_pairs(pts, np.array([0, len(pts)]), self.rho)[0])

    def intensity_levels(self, n: int) -> np.ndarray:
        """beta * exp(-theta * k) for k = 0..n: c(x, xi) where k discs cover x."""
        return self.beta * np.exp(-self.theta * np.arange(n + 1))

    def sample_batch(self, rng: np.random.Generator, size: int) -> PatternBatch:
        """``size`` exact draws of this process."""
        return sample_gibbs_batch(self, rng, size)


@functools.lru_cache(maxsize=256)
def _pair_ends(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Both ends of every pair i < j of s points (shared, so read-only)."""
    ends = np.triu_indices(s, 1)
    for e in ends:
        e.flags.writeable = False
    return ends


def _pair_blocks(lengths: np.ndarray):
    """Blocks of segments of one length s >= 2, as (segment ids, pair ends a, b):
    each block holds at most ``_PAIR_ELEMS`` pairs, or one segment's."""
    for s in sorted(set(lengths.tolist()) - {0, 1}):
        a, b = _pair_ends(s)
        segs = np.flatnonzero(lengths == s)
        step = max(1, _PAIR_ELEMS // len(a))
        for lo in range(0, len(segs), step):
            yield segs[lo:lo + step], a, b


def _close_pairs(points: np.ndarray, offsets: np.ndarray, rho: float) -> np.ndarray:
    """Pairs at distance <= rho within each segment ``points[offsets[i]:offsets[i + 1]]``;
    segments of equal length share one ``(c, s(s - 1)/2)`` block of distances."""
    lengths = offsets[1:] - offsets[:-1]
    out = np.zeros(len(lengths), dtype=np.int64)
    for segs, a, b in _pair_blocks(lengths):
        start = offsets[segs, None]
        diff = points[start + a] - points[start + b]
        out[segs] = (np.einsum("cpw,cpw->cp", diff, diff) <= rho * rho).sum(axis=1)
    return out


def sample_gibbs_batch(model: GibbsModel, rng: np.random.Generator, size: int,
                       max_tries: int = DEFAULT_MAX_TRIES) -> PatternBatch:
    """``size`` exact i.i.d. draws by rejection, as one batch: propose from
    Poisson(beta * Lebesgue) and accept with probability exp(-theta * w) <= 1,
    w the number of close pairs.

    Proposals come in chunks: one ``rng.poisson`` call for their counts, one
    ``uniform_points`` call for all their points and one ``rng.random`` call
    for one uniform each.  A proposal is accepted where u < exp(-theta w),
    always when w = 0, and the first ``size`` acceptances are kept in
    proposal order.  A chunk aims at the draws still missing at the
    acceptance rate seen so far, with at most ``_PAIR_ELEMS`` expected
    close-pair tests, and never runs past the budget: ``BudgetError`` once
    ``max_tries`` proposals in a row are rejected.
    """
    lam = model.beta * model.window.volume()
    cap = max(1, int(_PAIR_ELEMS / (1.0 + 0.5 * lam * lam)))  # E n(n - 1)/2 = lam^2/2
    points, lengths = [np.empty((0, model.window.dim))], [np.zeros(0, dtype=np.int64)]
    kept = proposed = accepted = rejected_run = 0
    while kept < size:
        need = size - kept
        k = min(cap, max_tries - rejected_run, -(-need * (proposed + 1) // (accepted + 1)))
        counts = rng.poisson(lam, k)
        offsets = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        pts = uniform_points(model.window, rng, int(offsets[-1]))
        ok = rng.random(k) < np.exp(-model.theta * _close_pairs(pts, offsets, model.rho))
        hits = np.flatnonzero(ok)
        proposed += k
        accepted += len(hits)
        if len(hits) == 0:
            rejected_run += k
            if rejected_run >= max_tries:
                raise BudgetError(
                    f"Gibbs rejection sampler exceeded {max_tries} proposals "
                    "(acceptance below budget; reduce theta or the window)"
                )
            continue
        rejected_run = k - 1 - int(hits[-1])
        ok[hits[need:]] = False
        points.append(pts[np.repeat(ok, counts)])
        lengths.append(counts[ok])
        kept += min(need, len(hits))
    offsets = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.concatenate(lengths), out=offsets[1:])
    return PatternBatch(np.concatenate(points), offsets)


def sample_gibbs(model: GibbsModel, seed_or_rng, max_tries: int = DEFAULT_MAX_TRIES) -> PointPattern:
    """One exact draw: the size-1 case of ``sample_gibbs_batch``."""
    rng = streams.generator(seed_or_rng)
    return sample_gibbs_batch(model, rng, 1, max_tries).pattern(0)


# ---------------------------------------------------------------------------
# exact coverage areas
# ---------------------------------------------------------------------------

def _arc_primitive(t: float, rho: float) -> float:
    """F(t) = int_0^t sqrt(rho^2 - s^2) ds = (t sqrt(rho^2 - t^2) + rho^2 asin(t / rho)) / 2,
    with t clipped to [-rho, rho]; asin(t / rho) is taken as atan2(t, sqrt(rho^2 - t^2)),
    which keeps full accuracy near |t| = rho."""
    t = max(-rho, min(rho, t))
    s = math.sqrt((rho - t) * (rho + t))  # no cancellation near |t| = rho
    return 0.5 * (t * s + rho * rho * math.atan2(t, s))


def coverage_areas(points: np.ndarray, rho: float, box: Box) -> np.ndarray:
    """Exact area of {x in box : exactly k of the closed rho-discs around the
    points cover x}, for k = 0..n (a 2-D box; points may lie outside it).

    A sweep in x: between consecutive breakpoints (box edges, disc extremes
    and centres, circle crossings of the horizontal box edges, pairwise circle
    intersections) the chord ends, clipped to the box, keep one order.  So the
    order at the middle of each slab splits it into bands of constant
    coverage, and each band's area is a difference of integrals of the chord
    ends, in closed form through ``_arc_primitive``.  Tangent points (at a
    disc centre for a box edge, midway between the centres for two circles
    within rounding of 2 rho) are breakpoints too, so no slab middle sits on
    one, where two ends would tie.  Plain Python: the patterns are small, and
    numpy's per-call cost would dominate.
    """
    if box.dim != 2:
        raise ParameterError(f"exact coverage areas need a 2-D window, got dimension {box.dim}")
    (x0, y0), (x1, y1) = box.lows, box.highs
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2).tolist()
    r2 = rho * rho
    cuts = {x0, x1}
    for a, (ax, ay) in enumerate(pts):
        cuts.update((ax - rho, ax, ax + rho))
        for t in (y0 - ay, y1 - ay):
            if abs(t) <= rho:
                half = math.sqrt((rho - t) * (rho + t))
                cuts.update((ax - half, ax + half))
        for bx, by in pts[a + 1:]:
            dx, dy = bx - ax, by - ay
            d2 = dx * dx + dy * dy
            if 0.0 < d2 <= 4.0 * r2 * (1.0 + 1e-9):
                off = dy * math.sqrt(max(r2 / d2 - 0.25, 0.0))
                cuts.update((0.5 * (ax + bx) - off, 0.5 * (ax + bx) + off))
    xs = [x0, *sorted(c for c in cuts if x0 < c < x1), x1]
    areas = [0.0] * (len(pts) + 1)
    for lo, hi in zip(xs, xs[1:]):
        width, mid = hi - lo, 0.5 * (lo + hi)
        ends = []  # (y at mid, -1 lower / +1 upper, integral over the slab)
        for cx, cy in pts:
            t = mid - cx
            if abs(t) >= rho:
                continue
            half = math.sqrt((rho - t) * (rho + t))
            arc = _arc_primitive(hi - cx, rho) - _arc_primitive(lo - cx, rho)
            for y, side, integral in ((cy - half, -1, cy * width - arc), (cy + half, 1, cy * width + arc)):
                # an end clipped to a box edge stays clipped through the slab
                if y <= y0:
                    integral = y0 * width
                elif y >= y1:
                    integral = y1 * width
                ends.append((y, side, integral))
        ends.sort()  # lower ends first among ties: the count never drops below 0
        k, below = 0, y0 * width
        for _y, side, integral in ends:
            areas[k] += integral - below
            k, below = k - side, integral
        areas[k] += y1 * width - below
    return np.array(areas)


# ---------------------------------------------------------------------------
# test functions u(x, pattern) for the GNZ equation
# ---------------------------------------------------------------------------

class GnzTestFunction:
    """u(x, nu) = 1_A(x) * h(nu) with A = ``region_a`` (None: the whole
    window); subclasses give, for every pattern xi of a batch, h(xi) and the
    GNZ left side sum_{x in xi} u(x, xi \\ x)."""

    region_a: Optional[Box] = None

    def terms(self, batch: PatternBatch) -> tuple[np.ndarray, np.ndarray]:
        """``(reps,)`` float arrays: the left sides and the weights h."""
        raise NotImplementedError


class IndicatorTimesEmpty(GnzTestFunction):
    """u(x, nu) = 1_A(x) * 1{nu(B) = 0}; A or B may be omitted (constant 1)."""

    def __init__(self, region_a: Optional[Box] = None, region_b: Optional[Box] = None):
        self.region_a = region_a
        self.region_b = region_b

    def terms(self, batch: PatternBatch) -> tuple[np.ndarray, np.ndarray]:
        """Left side sum_x 1_A(x) * 1{xi(B) - 1_B(x) = 0}, weight 1{xi(B) = 0}:
        one membership test per region over all points, summed per pattern."""
        pts = batch.points
        ok = np.ones(len(pts), dtype=bool) if self.region_a is None else self.region_a.contains(pts)
        in_b = np.zeros(len(pts), dtype=bool) if self.region_b is None else self.region_b.contains(pts)
        n_b = batch.segment_sums(in_b)
        ok &= np.repeat(n_b, np.diff(batch.offsets)) == in_b  # B holds no point but x
        return batch.segment_sums(ok).astype(float), (n_b == 0).astype(float)


class TotalCount(GnzTestFunction):
    """u(x, nu) = nu(window): total number of points."""

    def terms(self, batch: PatternBatch) -> tuple[np.ndarray, np.ndarray]:
        """Left side n (n - 1), each of the n points seeing the n - 1 others; weight n."""
        n = np.diff(batch.offsets)
        return (n * (n - 1)).astype(float), n.astype(float)


# ---------------------------------------------------------------------------
# GNZ check and Papangelou bound
# ---------------------------------------------------------------------------

def _check_batches(model: GibbsModel, reps: int, seed: int, stream: int):
    """The ``reps`` exact draws of a check, one batch per chunk c of the fixed
    layout, drawn from ``streams.derive(seed, stream, c)``.  At least two
    repetitions are required, so that a standard error exists."""
    if reps < 2:
        raise ParameterError(f"need at least 2 repetitions, got {reps}")
    return (sample_gibbs_batch(model, streams.derive(seed, stream, c), size)
            for c, size in enumerate(streams.chunk_sizes(reps, _CHUNKS)))


def _level_sums(model: GibbsModel, batch: PatternBatch, region: Box, levels_of, draws) -> np.ndarray:
    """levels_of(c)[:n + 1] @ coverage_areas(xi, rho, region) for the patterns
    xi of the batch numbered in ``draws`` (0 for the others), with
    c = ``model.intensity_levels`` built once for the largest pattern."""
    levels = levels_of(model.intensity_levels(int(np.diff(batch.offsets).max(initial=0))))
    bounds = batch.offsets.tolist()
    out = np.zeros(len(batch))
    for i in draws:
        lo, hi = bounds[i], bounds[i + 1]
        out[i] = float(levels[:hi - lo + 1] @ coverage_areas(batch.points[lo:hi], model.rho, region))
    return out


@dataclass(frozen=True)
class GnzReport:
    lhs: float
    rhs: float
    z_score: float
    std_error: float
    reps: int


def gnz_check(model: GibbsModel, u: GnzTestFunction, reps: int, seed: int) -> GnzReport:
    """Monte Carlo check of E sum_{x in xi} u(x, xi \\ x)  =  int E[c(x, xi) u(x, xi)] dx.

    Both sides are evaluated exactly on the same exact Gibbs samples: the
    right side of one sample is h(xi) * sum_k beta e^{-theta k} |A_k|, with
    A_k the part of A (within the window) covered by exactly k discs.  The
    z-score divides the mean difference by its standard error.
    """
    region = model.window if u.region_a is None else u.region_a.intersection(model.window)
    lhs, rhs = [], []
    for batch in _check_batches(model, reps, seed, 1):
        left, h = u.terms(batch)
        lhs.append(left)
        draws = np.flatnonzero(h).tolist() if region is not None else ()
        rhs.append(h * _level_sums(model, batch, region, lambda c: c, draws))
    lhs_acc, rhs_acc = np.concatenate(lhs), np.concatenate(rhs)
    delta = lhs_acc - rhs_acc
    se = float(np.std(delta, ddof=1) / math.sqrt(reps))
    z = float(np.mean(delta)) / (se if se > 0 else 1.0)
    return GnzReport(float(np.mean(lhs_acc)), float(np.mean(rhs_acc)), z, se, reps)


@dataclass(frozen=True)
class PapangelouBound:
    estimate: float
    std_error: float
    reps: int


def papangelou_bound(model: GibbsModel, target: IntensityMeasure, reps: int, seed: int) -> PapangelouBound:
    """Monte Carlo estimate of int E|c(x, xi) - f(x)| dx, the process-distance
    bound for the Poisson target with constant density f.

    Per sample the integral is sum_k |beta e^{-theta k} - f| |W_k|, with W_k
    the part of the window covered by exactly k discs; for theta = 0 and
    f = beta every term vanishes and the estimate is exactly zero.
    """
    if not isinstance(target.window, Box) or target.window != model.window:
        raise ParameterError("target intensity must live on the model window")
    if not isinstance(target.density, float):
        raise ParameterError("exact integration requires a constant target density")
    f = float(target.density)
    vals = np.concatenate([_level_sums(model, batch, model.window, lambda c: np.abs(c - f), range(len(batch)))
                           for batch in _check_batches(model, reps, seed, 2)])
    se = float(np.std(vals, ddof=1) / math.sqrt(reps))
    return PapangelouBound(estimate=float(np.mean(vals)), std_error=se, reps=reps)
