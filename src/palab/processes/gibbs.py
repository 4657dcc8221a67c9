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
The chunks are joined into one batch per check.  A GNZ test function reads
the whole batch (``GnzTestFunction.terms``), and the coverage areas of all
its draws come from one vectorized sweep (``_coverage_sweep``), run on
blocks of draws of at most ``_SWEEP_ELEMS`` entries (or one draw) so that
its memory stays bounded.  The sweep gives each draw the areas the
one-pattern call gives, bit for bit: every area is the same floating-point
sum in the same order, and the arcsines are ``math.atan2`` calls one value
at a time, because numpy's vector atan2 can differ from it in the last ulp.
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
# (breakpoint, disc) and slab entries of one coverage sweep, counted by their
# bound from the pattern sizes: at under 100 bytes of scratch per entry, a
# block of draws needs under 1 MB; a draw over the budget is swept alone
_SWEEP_ELEMS = 1 << 13


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


def sample_gibbs_batch(model: GibbsModel, rng: np.random.Generator, size: int) -> PatternBatch:
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
    ``DEFAULT_MAX_TRIES`` proposals in a row are rejected.
    """
    lam = model.beta * model.window.volume()
    cap = max(1, int(_PAIR_ELEMS / (1.0 + 0.5 * lam * lam)))  # E n(n - 1)/2 = lam^2/2
    points, lengths = [np.empty((0, model.window.dim))], [np.zeros(0, dtype=np.int64)]
    kept = proposed = accepted = rejected_run = 0
    while kept < size:
        need = size - kept
        k = min(cap, DEFAULT_MAX_TRIES - rejected_run, -(-need * (proposed + 1) // (accepted + 1)))
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
            if rejected_run >= DEFAULT_MAX_TRIES:
                raise BudgetError(
                    f"Gibbs rejection sampler exceeded {DEFAULT_MAX_TRIES} proposals "
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


def sample_gibbs(model: GibbsModel, seed_or_rng) -> PointPattern:
    """One exact draw: the size-1 case of ``sample_gibbs_batch``."""
    rng = streams.generator(seed_or_rng)
    return sample_gibbs_batch(model, rng, 1).pattern(0)


# ---------------------------------------------------------------------------
# exact coverage areas
# ---------------------------------------------------------------------------

def _arc_primitives(t: np.ndarray, rho: float) -> np.ndarray:
    """F(t) = int_0^t sqrt(rho^2 - s^2) ds = (t sqrt(rho^2 - t^2) + rho^2 asin(t / rho)) / 2,
    with t clipped to [-rho, rho]; asin(t / rho) is taken as atan2(t, sqrt(rho^2 - t^2)),
    which keeps full accuracy near |t| = rho.  ``math.atan2`` runs on each
    |t| < rho: numpy's vector atan2 can differ from it in the last ulp, and
    where |t| = rho the angle is exactly +-pi/2."""
    t = np.clip(t, -rho, rho)
    s = np.sqrt((rho - t) * (rho + t))  # no cancellation near |t| = rho
    angle = np.copysign(0.5 * math.pi, t)
    inner = np.flatnonzero(np.abs(t) < rho)
    angle[inner] = list(map(math.atan2, t[inner].tolist(), s[inner].tolist()))
    return 0.5 * (t * s + rho * rho * angle)


def _breakpoints(points: np.ndarray, offsets: np.ndarray, rho: float, box: Box) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct breakpoints of each pattern, x0 first and x1 last,
    all patterns in one array, and their number per pattern.  Between them:
    disc extremes and centres, circle crossings of the horizontal box edges
    and pairwise circle intersections."""
    (x0, y0), (x1, y1) = box.lows, box.highs
    r2 = rho * rho
    lengths = offsets[1:] - offsets[:-1]
    owner = np.repeat(np.arange(len(lengths)), lengths)
    px, py = points[:, 0], points[:, 1]
    cuts, cut_owner = [px - rho, px, px + rho], [owner] * 3
    for t in (y0 - py, y1 - py):
        hit = np.abs(t) <= rho
        half = np.sqrt((rho - t[hit]) * (rho + t[hit]))
        cuts += [px[hit] - half, px[hit] + half]
        cut_owner += [owner[hit]] * 2
    near = 4.0 * r2 * (1.0 + 1e-9)
    for segs, a, b in _pair_blocks(lengths):
        start = offsets[segs, None]
        ia, ib = (start + a).ravel(), (start + b).ravel()
        dx, dy = px[ib] - px[ia], py[ib] - py[ia]
        d2 = dx * dx + dy * dy
        hit = np.flatnonzero((0.0 < d2) & (d2 <= near))
        ia, ib = ia[hit], ib[hit]
        off = dy[hit] * np.sqrt(np.maximum(r2 / d2[hit] - 0.25, 0.0))
        centre = 0.5 * (px[ia] + px[ib])
        cuts += [centre - off, centre + off]
        cut_owner += [owner[ia]] * 2
    cut, cut_owner = np.concatenate(cuts), np.concatenate(cut_owner)
    inside = (x0 < cut) & (cut < x1)
    cut, cut_owner = cut[inside], cut_owner[inside]
    # by value, then by pattern: a radix sort while the pattern numbers fit in 16 bits
    order = np.argsort(cut)
    order = order[np.argsort(cut_owner[order].astype(np.min_scalar_type(len(lengths))), kind="stable")]
    cut, cut_owner = cut[order], cut_owner[order]
    fresh = np.ones(len(cut), dtype=bool)
    fresh[1:] = (cut[1:] != cut[:-1]) | (cut_owner[1:] != cut_owner[:-1])
    n_bp = np.bincount(cut_owner[fresh], minlength=len(lengths)) + 2
    last = np.cumsum(n_bp) - 1
    edge = np.zeros(n_bp.sum(), dtype=bool)
    edge[last - n_bp + 1] = edge[last] = True
    xs = np.empty(len(edge))
    xs[last - n_bp + 1], xs[last], xs[~edge] = x0, x1, cut[fresh]
    return xs, n_bp


def _chord_ends(points: np.ndarray, offsets: np.ndarray, xs: np.ndarray, n_bp: np.ndarray, rho: float,
                box: Box) -> tuple[np.ndarray, ...]:
    """The chord ends at the middle of every slab, slab by slab, and within a
    slab disc by disc, lower end first: their slab, y at the middle, side (-1
    lower, +1 upper) and integral over the slab, clipped to the box edges;
    and the slab widths.  ``_arc_primitives`` runs once on each
    (breakpoint, disc) pair of a pattern."""
    (_, y0), (_, y1) = box.lows, box.highs
    lengths = offsets[1:] - offsets[:-1]
    bp_owner = np.repeat(np.arange(len(lengths)), n_bp)
    px, py = points[:, 0], points[:, 1]
    # the (breakpoint, disc) grid of each pattern, breakpoint major: entry g + n
    # is entry g's disc at the next breakpoint
    row = lengths[bp_owner]
    g_bp = np.repeat(np.arange(len(xs)), row)
    g_start = np.cumsum(row) - row
    g_disc = np.arange(len(g_bp)) - np.repeat(g_start, row) + offsets[bp_owner][g_bp]
    arcs = _arc_primitives(xs[g_bp] - px[g_disc], rho)
    # slabs start at every breakpoint but a pattern's last
    is_lo = np.ones(len(xs), dtype=bool)
    is_lo[np.cumsum(n_bp) - 1] = False
    lo_bp = np.flatnonzero(is_lo)
    lo, hi = xs[lo_bp], xs[lo_bp + 1]
    width, mid = hi - lo, 0.5 * (lo + hi)
    slab_of = np.cumsum(is_lo) - 1
    g = np.flatnonzero(is_lo[g_bp])
    t = mid[slab_of[g_bp[g]]] - px[g_disc[g]]
    live = np.abs(t) < rho
    g, t = g[live], t[live]
    slab = np.repeat(slab_of[g_bp[g]], 2)
    cy = py[g_disc[g]]
    half = np.sqrt((rho - t) * (rho + t))
    arc = arcs[g + row[g_bp[g]]] - arcs[g]
    cyw = cy * width[slab[::2]]
    y = np.stack([cy - half, cy + half], axis=1).ravel()
    integral = np.stack([cyw - arc, cyw + arc], axis=1).ravel()
    # an end clipped to a box edge stays clipped through the slab
    integral = np.where(y <= y0, y0 * width[slab], np.where(y >= y1, y1 * width[slab], integral))
    side = np.tile(np.array([-1, 1]), len(g))
    return slab, y, side, integral, width


def _coverage_sweep(points: np.ndarray, offsets: np.ndarray, rho: float, box: Box) -> np.ndarray:
    """Exact coverage areas of every pattern ``points[offsets[i]:offsets[i + 1]]``
    of a batch: pattern i's n_i + 1 areas are ``out[offsets[i] + i:offsets[i + 1] + i + 1]``.

    The sweep of ``coverage_areas`` for all patterns at once.  Each pattern's
    breakpoints are sorted and deduplicated, the chord ends at each slab's
    middle are ordered by (slab, y, side, integral), and one ``np.bincount``
    adds each band's area into its level in the order of a sweep over the
    slabs from left to right, so the areas do not depend on the batch around
    a pattern.
    """
    if box.dim != 2:
        raise ParameterError(f"exact coverage areas need a 2-D window, got dimension {box.dim}")
    if not 0.0 < rho < math.inf:
        raise ParameterError("interaction range rho must be finite and > 0")
    if not np.isfinite(points).all():
        raise ParameterError("exact coverage areas need finite points")
    (_, y0), (_, y1) = box.lows, box.highs
    reps = len(offsets) - 1
    xs, n_bp = _breakpoints(points, offsets, rho, box)
    slab, y, side, integral, width = _chord_ends(points, offsets, xs, n_bp, rho, box)
    n_slabs = len(width)
    n_ends = np.bincount(slab, minlength=n_slabs)
    first = np.cumsum(n_ends) - n_ends
    order = np.lexsort((integral, side, y, slab))  # stable: ties stay in the order made
    integral, side = integral[order], side[order]
    # band areas: each end closes the band below it, each slab's last band runs
    # to y1; a slab's sides sum to 0, so the coverage before an end is a running
    # count over all ends
    y0w, y1w = y0 * width, y1 * width
    full = n_ends > 0
    below = np.empty(len(integral))
    below[1:] = integral[:-1]
    below[first[full]] = y0w[full]
    top = y0w.copy()
    top[full] = integral[first[full] + n_ends[full] - 1]
    base = np.repeat(offsets[:-1] + np.arange(reps), n_bp - 1)  # each slab's area 0 of its pattern
    terms = np.empty(len(integral) + n_slabs)
    bins = np.empty(len(terms), dtype=np.int64)
    at = np.arange(len(integral)) + slab
    terms[at], bins[at] = integral - below, base[slab] + np.cumsum(-side) + side
    at = first + n_ends + np.arange(n_slabs)
    terms[at], bins[at] = y1w - top, base
    return np.bincount(bins, weights=terms, minlength=offsets[-1] + reps)


def coverage_areas(points: np.ndarray, rho: float, box: Box) -> np.ndarray:
    """Exact area of {x in box : exactly k of the closed rho-discs around the
    points cover x}, for k = 0..n (a 2-D box; points may lie outside it).

    A sweep in x: between consecutive breakpoints (box edges, disc extremes
    and centres, circle crossings of the horizontal box edges, pairwise circle
    intersections) the chord ends, clipped to the box, keep one order.  So the
    order at the middle of each slab splits it into bands of constant
    coverage, and each band's area is a difference of integrals of the chord
    ends, in closed form through ``_arc_primitives``.  Tangent points (at a
    disc centre for a box edge, midway between the centres for two circles
    within rounding of 2 rho) are breakpoints too, so no slab middle sits on
    one, where two ends would tie.  This is the one-pattern call of the batch
    kernel ``_coverage_sweep``: numpy arrays over all slabs and chord ends,
    with ``math.atan2`` one value at a time (numpy's vector atan2 can differ
    from it in the last ulp).  Non-finite points, and rho that is not finite
    and > 0, are ``ParameterError``s.
    """
    if box.dim != 2:
        raise ParameterError(f"exact coverage areas need a 2-D window, got dimension {box.dim}")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    return _coverage_sweep(pts, np.array([0, len(pts)]), rho, box)


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

def _check_batch(model: GibbsModel, reps: int, seed: int, stream: int) -> PatternBatch:
    """The ``reps`` exact draws of a check as one batch: chunk c of the fixed
    layout is drawn from ``streams.derive(seed, stream, c)``, and the chunks
    are joined in order.  At least two repetitions are required, so that a
    standard error exists."""
    if reps < 2:
        raise ParameterError(f"need at least 2 repetitions, got {reps}")
    chunks = [sample_gibbs_batch(model, streams.derive(seed, stream, c), size)
              for c, size in enumerate(streams.chunk_sizes(reps, _CHUNKS))]
    offsets = np.zeros(reps + 1, dtype=np.int64)
    np.cumsum(np.concatenate([np.diff(chunk.offsets) for chunk in chunks]), out=offsets[1:])
    return PatternBatch(np.concatenate([chunk.points for chunk in chunks]), offsets)


def _level_sums(model: GibbsModel, batch: PatternBatch, region: Box, levels_of, draws: np.ndarray) -> np.ndarray:
    """levels_of(c)[:n + 1] @ coverage_areas(xi, rho, region) for the patterns
    xi of the batch numbered in ``draws`` (0 for the others), with
    c = ``model.intensity_levels`` built once for the largest pattern.

    The areas come from ``_coverage_sweep`` over runs of draws that hold at
    most ``_SWEEP_ELEMS`` sweep entries, or one draw's: a pattern of n points
    has at most n^2 + 6n + 2 breakpoints, so at most (n + 1)(n^2 + 6n + 2)
    (breakpoint, disc) and slab entries."""
    lengths = np.diff(batch.offsets)
    levels = levels_of(model.intensity_levels(int(lengths.max(initial=0))))
    n = lengths[draws].astype(np.float64)
    spent = np.zeros(len(draws) + 1)
    np.cumsum((n + 1) * (n * n + 6 * n + 2), out=spent[1:])
    out = np.zeros(len(batch))
    lo = 0
    while lo < len(draws):
        hi = max(lo + 1, int(np.searchsorted(spent, spent[lo] + _SWEEP_ELEMS, side="right")) - 1)
        block, lo = draws[lo:hi], hi
        offsets = np.zeros(len(block) + 1, dtype=np.int64)
        np.cumsum(lengths[block], out=offsets[1:])
        rows = np.arange(offsets[-1]) + np.repeat(batch.offsets[block] - offsets[:-1], lengths[block])
        areas = _coverage_sweep(batch.points[rows], offsets, model.rho, region)
        bounds = (offsets + np.arange(len(offsets))).tolist()
        for i, start, stop in zip(block.tolist(), bounds, bounds[1:]):
            out[i] = float(levels[:stop - start] @ areas[start:stop])
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
    batch = _check_batch(model, reps, seed, 1)
    lhs_acc, h = u.terms(batch)
    draws = np.flatnonzero(h) if region is not None else np.zeros(0, dtype=np.int64)
    rhs_acc = h * _level_sums(model, batch, region, lambda c: c, draws)
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
    vals = _level_sums(model, _check_batch(model, reps, seed, 2), model.window, lambda c: np.abs(c - f),
                       np.arange(reps))
    se = float(np.std(vals, ddof=1) / math.sqrt(reps))
    return PapangelouBound(estimate=float(np.mean(vals)), std_error=se, reps=reps)
