"""Poisson U-statistic processes: builder, R-functional, distance bound,
and the conditioned tuple sampler.

A model holds the order k, the base intensity mu on X, a symmetric domain D
in X^k and a symmetric kernel g mapping D into Y.  The point process places
one atom g(x_1, ..., x_k) per unordered k-tuple of distinct points of the
underlying Poisson process lying in D (the 1/k! weight against ordered
enumeration).

R = max_{1<=i<=k-1} int_{X^i} ( int_{X^{k-i}} 1_D dmu^{k-i} )^2 dmu^i drives
the bound (2^{k+1}/k!) R; the shipped models expose the inner integral
("codegree") in closed form and the outer integral is tensorized quadrature
with a reported error bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .. import streams
from ..errors import BudgetError, ParameterError, QuadratureError
from ..quadrature import integrate_box
from .patterns import Box, IntensityMeasure, PointPattern, empty_pattern

DEFAULT_TUPLE_BUDGET = 2_000_000
XA_MAX_TRIES = 500_000


@dataclass(frozen=True)
class RResult:
    value: float
    error_bound: float


class UStatModel:
    """Base class; shipped subclasses fix X = [0, 1] with constant rate."""

    order: int
    mu: IntensityMeasure
    # for a model without ``count_intensity``: a closed box that holds every
    # kernel value, so that a region whose interior misses it has no intensity
    kernel_range: Optional[Box] = None

    def in_domain(self, pts: Sequence[float]) -> bool:
        raise NotImplementedError

    def kernel(self, pts: Sequence[float]) -> float:
        raise NotImplementedError

    def codegree(self, i: int, xs: np.ndarray) -> np.ndarray:
        """Inner integral int_{X^(k-i)} 1_D dmu^(k-i) as a function of the
        leading i coordinates (rows of xs)."""
        raise NotImplementedError(f"{type(self).__name__} has no closed-form codegree")

    def count_intensity(self, region: Box) -> float:
        """lambda(region) = (1/k!) int_D 1{g in region} dmu^k."""
        raise NotImplementedError(f"{type(self).__name__} has no intensity formula")

    def _rate(self) -> float:
        if not isinstance(self.mu.density, float):
            raise ParameterError("shipped U-statistic models need a constant-rate mu")
        return float(self.mu.density)


class IntervalPairModel(UStatModel):
    """k = 2, X = [0, 1], mu = t * Lebesgue, D = {|x1 - x2| <= delta},
    g = midpoint; Y = [0, 1].  Codegree and interval intensities are closed
    form, which keeps every integral here one-dimensional."""

    def __init__(self, rate: float, delta: float):
        if not (0.0 < rate < math.inf and 0.0 < delta < math.inf):
            raise ParameterError("rate and delta must be finite and positive")
        self.order = 2
        self.rate = float(rate)
        self.delta = float(delta)
        self.mu = IntensityMeasure(Box((0.0,), (1.0,)), float(rate))

    def in_domain(self, pts) -> bool:
        (x1,), (x2,) = pts
        return abs(x1 - x2) <= self.delta

    def kernel(self, pts) -> tuple[float]:
        (x1,), (x2,) = pts
        return (0.5 * (x1 + x2),)

    def codegree(self, i: int, xs: np.ndarray) -> np.ndarray:
        if i != 1:
            raise ParameterError("k = 2 has a single co-degree level i = 1")
        x = xs[:, 0]
        length = np.minimum(x + self.delta, 1.0) - np.maximum(x - self.delta, 0.0)
        return self.rate * np.clip(length, 0.0, None)

    def count_intensity(self, region: Box) -> float:
        # lambda([a,b]) = t^2 * int_a^b min(delta, 2s, 2 - 2s)_+ ds, the
        # cross-section length of the band {|x - y| <= delta} at midpoint s
        (a,), (b,) = region.lows, region.highs
        a, b = max(a, 0.0), min(b, 1.0)
        if b <= a:
            return 0.0
        breaks = sorted({a, b, self.delta / 2.0, 0.5, 1.0 - self.delta / 2.0})
        breaks = [s for s in breaks if a <= s <= b]

        def h(s: float) -> float:
            return max(0.0, min(self.delta, 2.0 * s, 2.0 - 2.0 * s))

        total = 0.0
        for lo, hi in zip(breaks, breaks[1:]):
            total += 0.5 * (h(lo) + h(hi)) * (hi - lo)  # h piecewise linear
        return self.rate**2 * total


class TripletSumModel(UStatModel):
    """k = 3 toy model: D = {x1 + x2 + x3 <= s}, g = mean; the codegree is the
    Irwin-Hall simplex volume, closed form, so both outer integrals (i = 1, 2)
    are low-dimensional quadratures."""

    def __init__(self, rate: float, threshold: float):
        if rate <= 0 or not 0 < threshold <= 3:
            raise ParameterError("need rate > 0 and threshold in (0, 3]")
        self.order = 3
        self.rate = float(rate)
        self.threshold = float(threshold)
        self.mu = IntensityMeasure(Box((0.0,), (1.0,)), float(rate))
        # the mean of three points of [0, 1] summing to at most s
        self.kernel_range = Box((0.0,), (min(1.0, self.threshold / 3.0),))

    def in_domain(self, pts) -> bool:
        return sum(p[0] for p in pts) <= self.threshold

    def kernel(self, pts) -> tuple[float]:
        return (sum(p[0] for p in pts) / 3.0,)

    @staticmethod
    def _unit_cube_volume_below(j: int, u: np.ndarray) -> np.ndarray:
        """vol{y in [0,1]^j : sum y <= u} (Irwin-Hall distribution)."""
        u = np.clip(u, 0.0, j)
        out = np.zeros_like(u, dtype=float)
        for l in range(j + 1):
            out += (-1.0) ** l * math.comb(j, l) * np.clip(u - l, 0.0, None) ** j
        return out / math.factorial(j)

    def codegree(self, i: int, xs: np.ndarray) -> np.ndarray:
        if i not in (1, 2):
            raise ParameterError("k = 3 has co-degree levels i in {1, 2}")
        j = 3 - i
        u = self.threshold - xs.sum(axis=1)
        return self.rate**j * self._unit_cube_volume_below(j, u)


class MonotoneMapModel(UStatModel):
    """k = 1: one atom g(x) per point, with strictly increasing g on [0, 1];
    exactly Poisson with pushforward intensity (R = 0)."""

    def __init__(self, rate: float, g: Callable[[float], float], g_inverse: Callable[[float], float]):
        self.order = 1
        self.rate = float(rate)
        self._g = g
        self._g_inv = g_inverse
        self.mu = IntensityMeasure(Box((0.0,), (1.0,)), float(rate))

    def in_domain(self, pts) -> bool:
        return True

    def kernel(self, pts) -> tuple[float]:
        return (self._g(pts[0][0]),)

    def count_intensity(self, region: Box) -> float:
        (a,), (b,) = region.lows, region.highs
        lo = min(max(self._g_inv(a), 0.0), 1.0)
        hi = min(max(self._g_inv(b), 0.0), 1.0)
        return self.rate * max(0.0, hi - lo)


def build_ustat_process(points: PointPattern, model: UStatModel) -> PointPattern:
    """One atom per unordered k-tuple of distinct input points inside D
    (equivalently delta_{g} with weight 1/k! over ordered tuples); fewer
    than k points give the shared ``(0, 0)`` empty pattern.  More than
    ``DEFAULT_TUPLE_BUDGET`` ordered tuples raise ``BudgetError``."""
    n = len(points)
    k = model.order
    if n < k:
        return empty_pattern(0)
    if n**k > DEFAULT_TUPLE_BUDGET:
        raise BudgetError(f"{n}^{k} ordered tuples exceed the budget {DEFAULT_TUPLE_BUDGET}")
    out = []
    for combo in itertools.combinations(points.points.tolist(), k):
        if model.in_domain(combo):
            out.append(model.kernel(combo))
    return PointPattern(out)


def ustat_R(model: UStatModel) -> RResult:
    """R-functional by tensorized quadrature of the squared codegree.

    Boundary convention: R = 0 for k = 1.
    """
    k = model.order
    if k == 1:
        return RResult(0.0, 0.0)
    rate = model._rate()
    best = RResult(0.0, 0.0)
    for i in range(1, k):
        if i > 2:
            raise QuadratureError("shipped quadrature keeps outer integrals at dim <= 2")

        def integrand(xs: np.ndarray, level: int = i) -> np.ndarray:
            return model.codegree(level, xs) ** 2 * rate**level

        # kinked (piecewise-polynomial) integrands need deep subdivision,
        # which is cheap in one dimension
        quad = integrate_box(integrand, [0.0] * i, [1.0] * i, max_level=13 if i == 1 else 10)
        if quad.value > best.value:
            best = RResult(quad.value, quad.error_bound)
    return best


def ustat_bound(model: UStatModel) -> float:
    """d_pi bound (2^{k+1} / k!) * R for the Poisson target with matching
    intensity; exactly 0 for k = 1 (the process is Poisson)."""
    k = model.order
    return 2.0 ** (k + 1) / math.factorial(k) * ustat_R(model).value


def sample_xA(model: UStatModel, region: Box, seed_or_rng) -> tuple:
    """Draw the tuple X^A: propose k i.i.d. mu/mu(X) points restricted to D and
    accept when g lands in the target region (symmetry cancels the 1/k!).

    A region that carries no intensity gives k copies of the window's low
    corner.  That is read from ``count_intensity``, or, for a model without
    one, from its ``kernel_range``.
    """
    rng = streams.generator(seed_or_rng)
    try:
        empty = model.count_intensity(region) <= 0.0
    except NotImplementedError:
        empty = model.kernel_range is not None and not region.overlaps(model.kernel_range)
    if empty:
        return (model.mu.window.lows,) * model.order
    lows = np.array(model.mu.window.lows)
    highs = np.array(model.mu.window.highs)
    k = model.order
    for _ in range(XA_MAX_TRIES):
        pts = tuple(tuple(rng.uniform(lows, highs)) for _ in range(k))
        if model.in_domain(pts) and region.contains(np.array([model.kernel(pts)]))[0]:
            return pts
    raise BudgetError(f"tuple sampler acceptance below budget after {XA_MAX_TRIES} proposals")
