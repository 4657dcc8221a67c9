"""Gibbs point processes with hard-threshold pair potential, exact rejection
sampling, the Georgii-Nguyen-Zessin checker, and the Papangelou distance bound.

The x-integrals in the GNZ right side and in the bound are evaluated on a
midpoint grid.  With a grid-aligned test region and the hard-threshold
potential, the integrand is piecewise constant and the midpoint rule is exact
on every cell not crossed by one of the interaction circles; the crossed cells
are counted exactly per sample, which yields a deterministic quadrature error
bound alongside the Monte Carlo standard error.

Repetitions draw from a fixed layout of 32 random streams: chunk c of the
repetitions samples from ``streams.derive(seed, stream, c)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .. import streams
from ..errors import BudgetError, ParameterError
from .patterns import Box, IntensityMeasure, PointPattern

DEFAULT_GRID = 48
DEFAULT_MAX_TRIES = 20_000
_CHUNKS = 32


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
        if self.beta <= 0:
            raise ParameterError("activity beta must be > 0")
        if self.theta < 0:
            raise ParameterError("interaction theta must be >= 0")
        if self.rho <= 0:
            raise ParameterError("interaction range rho must be > 0")

    def close_pairs(self, pts: np.ndarray) -> int:
        if len(pts) < 2:
            return 0
        diff = pts[:, None, :] - pts[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        hits = dist2 <= self.rho**2
        return int((np.triu(hits, k=1)).sum())

    def neighbour_counts(self, xs: np.ndarray, pattern: PointPattern) -> np.ndarray:
        """#{y in pattern : |x - y| <= rho} for each row x of xs."""
        if len(pattern) == 0:
            return np.zeros(len(xs), dtype=np.int64)
        pts = pattern.points
        d2 = ((xs[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        return (d2 <= self.rho**2).sum(axis=1)

    def papangelou(self, xs: np.ndarray, pattern: PointPattern) -> np.ndarray:
        """c(x, pattern) for each row x of xs."""
        return self.beta * np.exp(-self.theta * self.neighbour_counts(xs, pattern))

    def reference_intensity(self) -> IntensityMeasure:
        return IntensityMeasure(self.window, self.beta)


def sample_gibbs(model: GibbsModel, seed_or_rng, max_tries: int = DEFAULT_MAX_TRIES) -> PointPattern:
    """Exact draw by rejection: propose from Poisson(beta * Lebesgue) and
    accept with probability exp(-theta * #close pairs) <= 1."""
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else streams.derive(int(seed_or_rng))
    proposal = model.reference_intensity()
    from .patterns import sample_poisson_process

    for _ in range(max_tries):
        pattern = sample_poisson_process(proposal, rng)
        w = model.close_pairs(pattern.points)
        if w == 0 or rng.random() < math.exp(-model.theta * w):
            return pattern
    raise BudgetError(
        f"Gibbs rejection sampler exceeded {max_tries} proposals "
        "(acceptance below budget; reduce theta or the window)"
    )


# ---------------------------------------------------------------------------
# test functions u(x, pattern) for the GNZ equation
# ---------------------------------------------------------------------------

class GnzTestFunction:
    """u(x, pattern); subclasses provide the GNZ left side for one pattern,
    vectorized grid evaluation and a per-sample bound used in the
    deterministic quadrature error estimate."""

    def left_side(self, pattern: PointPattern) -> float:
        """sum_{x in pattern} u(x, pattern \\ x)."""
        raise NotImplementedError

    def eval_grid(self, xs: np.ndarray, pattern: PointPattern) -> np.ndarray:
        raise NotImplementedError

    def sample_bound(self, pattern: PointPattern) -> float:
        raise NotImplementedError


class IndicatorTimesEmpty(GnzTestFunction):
    """u(x, nu) = 1_A(x) * 1{nu(B) = 0}; A or B may be omitted (constant 1).

    With A aligned to the integration grid this u adds nothing to the
    quadrature error bound.
    """

    def __init__(self, region_a: Optional[Box] = None, region_b: Optional[Box] = None):
        self.region_a = region_a
        self.region_b = region_b

    def left_side(self, pattern: PointPattern) -> float:
        """sum_x 1_A(x) * 1{pattern(B) - 1_B(x) = 0}."""
        if len(pattern) == 0:
            return 0.0
        ok = np.ones(len(pattern), dtype=bool)
        if self.region_a is not None:
            ok &= self.region_a.contains(pattern.points)
        if self.region_b is not None:
            in_b = self.region_b.contains(pattern.points)
            ok &= in_b.sum() - in_b == 0
        return float(ok.sum())

    def eval_grid(self, xs: np.ndarray, pattern: PointPattern) -> np.ndarray:
        out = np.ones(len(xs))
        if self.region_a is not None:
            out *= self.region_a.contains(xs).astype(float)
        if self.region_b is not None and pattern.count_in(self.region_b) > 0:
            out[:] = 0.0
        return out

    def sample_bound(self, pattern: PointPattern) -> float:
        return 1.0


class TotalCount(GnzTestFunction):
    """u(x, nu) = nu(window): total number of points."""

    def left_side(self, pattern: PointPattern) -> float:
        """n (n - 1): each of the n points sees the n - 1 others."""
        return float(len(pattern) * (len(pattern) - 1))

    def eval_grid(self, xs, pattern):
        return np.full(len(xs), float(len(pattern)))

    def sample_bound(self, pattern: PointPattern) -> float:
        return float(len(pattern))


# ---------------------------------------------------------------------------
# midpoint grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Grid:
    centers: np.ndarray   # (cells, w)
    cell_vol: float
    step: float
    half_diag: float


def _midpoint_grid(window: Box, grid_n: int) -> _Grid:
    if grid_n < 1:
        raise ParameterError(f"grid needs at least one cell per axis, got {grid_n}")
    axes = [np.linspace(l, h, grid_n + 1) for l, h in zip(window.lows, window.highs)]
    mids = [0.5 * (a[:-1] + a[1:]) for a in axes]
    mesh = np.meshgrid(*mids, indexing="ij")
    centers = np.column_stack([m.ravel() for m in mesh])
    steps = [(h - l) / grid_n for l, h in zip(window.lows, window.highs)]
    vol = float(np.prod(steps))
    half_diag = 0.5 * math.sqrt(sum(s * s for s in steps))
    return _Grid(centers, vol, max(steps), half_diag)


def _crossed_cells(grid: _Grid, model: GibbsModel, pattern: PointPattern) -> int:
    """Number of grid cells that one of the rho-circles around the pattern
    points can intersect (midpoint rule exact on all other cells)."""
    if len(pattern) == 0:
        return 0
    pts = pattern.points
    d = np.sqrt(((grid.centers[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return int((np.abs(d - model.rho) <= grid.half_diag).any(axis=1).sum())


# ---------------------------------------------------------------------------
# GNZ check and Papangelou bound
# ---------------------------------------------------------------------------

def _gibbs_draws(model: GibbsModel, reps: int, seed: int, stream: int):
    """Iterator over ``reps`` exact draws; chunk c of the fixed layout draws
    from ``streams.derive(seed, stream, c)``.  At least two repetitions are
    required, so that a standard error exists."""
    if reps < 2:
        raise ParameterError(f"need at least 2 repetitions, got {reps}")

    def draws():
        for c, size in enumerate(streams.chunk_sizes(reps, _CHUNKS)):
            rng = streams.derive(seed, stream, c)
            for _ in range(size):
                yield sample_gibbs(model, rng)

    return draws()


@dataclass(frozen=True)
class GnzReport:
    lhs: float
    rhs: float
    z_score: float
    std_error: float
    quad_bound: float
    reps: int


def gnz_check(
    model: GibbsModel,
    u: GnzTestFunction,
    reps: int,
    seed: int,
    grid_n: int = DEFAULT_GRID,
) -> GnzReport:
    """Monte Carlo check of E sum_{x in xi} u(x, xi \\ x)  =  int E[c(x, xi) u(x, xi)] dx.

    Both sides are evaluated on the same exact Gibbs samples, so the
    difference estimator is unbiased up to the reported deterministic grid
    bound; the z-score uses the combined uncertainty.
    """
    grid = _midpoint_grid(model.window, grid_n)
    draws = _gibbs_draws(model, reps, seed, 1)
    lhs_acc = np.zeros(reps)
    rhs_acc = np.zeros(reps)
    quad_acc = np.zeros(reps)
    for s, xi in enumerate(draws):
        lhs_acc[s] = u.left_side(xi)
        c_vals = model.papangelou(grid.centers, xi)
        u_vals = u.eval_grid(grid.centers, xi)
        rhs_acc[s] = float(c_vals @ u_vals) * grid.cell_vol
        range_factor = model.beta * (1.0 - math.exp(-model.theta * max(len(xi), 1)))
        quad_acc[s] = (
            range_factor * u.sample_bound(xi) * grid.cell_vol * _crossed_cells(grid, model, xi)
        )
    delta = lhs_acc - rhs_acc
    se = float(np.std(delta, ddof=1) / math.sqrt(reps))
    quad = float(np.mean(quad_acc))
    denom = math.sqrt(se**2 + quad**2) if (se > 0 or quad > 0) else 1.0
    z = float(np.mean(delta)) / denom
    return GnzReport(
        lhs=float(np.mean(lhs_acc)),
        rhs=float(np.mean(rhs_acc)),
        z_score=z,
        std_error=se,
        quad_bound=quad,
        reps=reps,
    )


@dataclass(frozen=True)
class PapangelouBound:
    estimate: float
    std_error: float
    quad_bound: float
    reps: int


def papangelou_bound(
    model: GibbsModel,
    target: IntensityMeasure,
    reps: int,
    seed: int,
    grid_n: int = DEFAULT_GRID,
) -> PapangelouBound:
    """Monte Carlo / midpoint-grid estimate of int E|c(x, xi) - f(x)| dx,
    the process-distance bound for the Poisson target with density f.

    The deterministic grid bound covers the circle-crossed cells (f constant
    keeps cells otherwise exact); for theta = 0 and f = beta the integrand
    vanishes identically and the estimate is exactly zero.
    """
    if not isinstance(target.window, Box) or target.window != model.window:
        raise ParameterError("target intensity must live on the model window")
    if not isinstance(target.density, float):
        raise ParameterError("the grid bound requires a constant target density")
    f = float(target.density)
    grid = _midpoint_grid(model.window, grid_n)
    draws = _gibbs_draws(model, reps, seed, 2)
    vals = np.zeros(reps)
    quad_acc = np.zeros(reps)
    for s, xi in enumerate(draws):
        c_vals = model.papangelou(grid.centers, xi)
        vals[s] = float(np.abs(c_vals - f).sum()) * grid.cell_vol
        range_factor = model.beta * (1.0 - math.exp(-model.theta * max(len(xi), 1)))
        quad_acc[s] = range_factor * grid.cell_vol * _crossed_cells(grid, model, xi)
    se = float(np.std(vals, ddof=1) / math.sqrt(reps))
    return PapangelouBound(
        estimate=float(np.mean(vals)),
        std_error=se,
        quad_bound=float(np.mean(quad_acc)),
        reps=reps,
    )
