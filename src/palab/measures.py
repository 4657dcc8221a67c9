"""Finitely supported probability mass functions on the integer lattice N_0^d.

``LatticePmf`` is the common currency of every distance computation in this
package: sorted arrays of lattice atoms and their probabilities, plus a
certified account of the mass and first absolute moment living outside the
stored support.  Truncations are never silent; whoever drops mass must put it
into ``tail_mass``/``tail_moment`` so downstream distances can report a
rigorous error interval.

``poisson_pmf``, ``poisson_law`` (pmf and sf on 0..n) and ``poisson_cut`` are the
one place the Poisson law is evaluated (by numpy and ``math.lgamma`` alone), for
the product-Poisson targets and the Stein solver.

``merge_rows`` is the one place where equal lattice rows are merged and their
weights summed: prefix marginals, total variation and the coupling tables go
through it.  ``SampleAtoms`` (empirical laws) shares its merge and keeps each
row's atom, so one merge serves a whole bootstrap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import jsonio
from .errors import CapacityError, ParameterError

# A pmf whose stored mass plus declared tail misses 1 by more than this is
# rejected outright rather than silently renormalized.
NORMALIZATION_DEFECT_LIMIT = 1e-9

# Cap on the number of atoms a constructor may materialize.
DEFAULT_ATOM_BUDGET = 4_000_000

# Relative margin on the product-Poisson tail accounts: covers the kernel's own error (~2e-12)
TAIL_MARGIN = 1e-10

Point = tuple[int, ...]


def _point_array(points, dim: int) -> np.ndarray:
    """``points`` as an (n, dim) int64 array of points of N_0^dim."""
    try:
        xs = np.asarray(points)
    except ValueError as exc:  # ragged input
        raise ParameterError(f"points do not form an (n, {dim}) array: {exc}") from None
    xs = xs.reshape(0, dim) if xs.size == 0 else xs
    if xs.ndim != 2 or xs.shape[1] != dim:
        raise ParameterError(f"points must form an (n, {dim}) array, got shape {xs.shape}")
    integral = xs.dtype.kind in "biu" or (
        xs.dtype.kind == "f" and np.isfinite(xs).all() and (xs == np.round(xs)).all()
    )
    if not integral or (xs < 0).any():
        raise ParameterError(f"points must lie in N_0^{dim}")
    return xs.astype(np.int64, copy=False)


class LatticePmf:
    """Probability mass function on N_0^dim with a certified truncation account.

    Built from a ``{point: p}`` dict or by ``from_arrays``; atoms of
    probability 0 are dropped and a repeated point is rejected.

    Attributes
    ----------
    dim : dimension d of the lattice.
    points : (n, d) read-only int64 array of the atoms, lexicographically sorted.
    probs : (n,) read-only float64 array of their probabilities, all > 0.
    tail_mass : probability mass outside the stored support.
    tail_moment : upper bound on E[|X|_1 ; X outside the stored support].
    """

    __slots__ = ("dim", "points", "probs", "tail_mass", "tail_moment")

    def __init__(self, dim: int, atoms: Mapping[Sequence[int], float],
                 tail_mass: float = 0.0, tail_moment: float = 0.0):
        self._init(dim, list(atoms), np.fromiter(atoms.values(), float, len(atoms)), tail_mass, tail_moment)

    @classmethod
    def from_arrays(cls, dim: int, points, probs, tail_mass: float = 0.0,
                    tail_moment: float = 0.0) -> "LatticePmf":
        """Pmf from an (n, dim) point array and n probabilities, in any order."""
        pmf = cls.__new__(cls)
        pmf._init(dim, points, probs, tail_mass, tail_moment)
        return pmf

    def _init(self, dim, points, probs, tail_mass, tail_moment) -> None:
        if dim < 1:
            raise ParameterError("dim must be a positive integer")
        if not (0.0 <= tail_mass < math.inf and 0.0 <= tail_moment < math.inf):
            raise ParameterError(f"tail_mass and tail_moment must be finite and >= 0, got {tail_mass}, {tail_moment}")
        xs = _point_array(points, dim)
        ps = np.asarray(probs, dtype=float)
        if ps.shape != (len(xs),) or not (ps >= 0.0).all():
            raise ParameterError(f"need {len(xs)} probabilities, all >= 0")
        order = np.lexsort(xs.T[::-1])
        xs, ps = xs[order], ps[order]
        dup = np.flatnonzero((xs[1:] == xs[:-1]).all(axis=1))
        if len(dup):
            raise ParameterError(f"duplicate atom {tuple(xs[dup[0]].tolist())}")
        xs, ps = xs[ps > 0.0], ps[ps > 0.0]
        if not len(ps) and tail_mass == 0.0:
            raise ParameterError("pmf must have at least one atom of positive mass")
        defect = abs(float(ps.sum()) + tail_mass - 1.0)
        if defect > NORMALIZATION_DEFECT_LIMIT:
            raise ParameterError(f"normalization defect {defect:.3e} exceeds {NORMALIZATION_DEFECT_LIMIT:g}")
        xs.flags.writeable = ps.flags.writeable = False
        self.dim, self.points, self.probs = int(dim), xs, ps
        self.tail_mass, self.tail_moment = float(tail_mass), float(tail_moment)

    def support_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Stored support as an (n, dim) int array plus the matching weights,
        in lexicographic point order (deterministic)."""
        return self.points, self.probs

    def mean(self) -> np.ndarray:
        """Mean of the stored atoms (ignores tail by construction)."""
        return self.probs @ self.points

    def prob(self, x: Sequence[int]) -> float:
        hit = np.flatnonzero((self.points == x).all(axis=1)) if len(x) == self.dim else ()
        return float(self.probs[hit[0]]) if len(hit) else 0.0

    def prefix_marginal(self, i: int) -> "LatticePmf":
        """Marginal law of the first ``i`` coordinates (tail account carried over)."""
        if not 1 <= i <= self.dim:
            raise ParameterError(f"prefix length {i} out of range 1..{self.dim}")
        return LatticePmf.from_arrays(i, *merge_rows(self.points[:, :i], self.probs),
                                      self.tail_mass, self.tail_moment)

    # -- serialization -----------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [{"x": x, "p": p} for x, p in zip(self.points.tolist(), self.probs.tolist())],
            "tail_mass": self.tail_mass,
            "tail_moment": self.tail_moment,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(obj: Mapping) -> "LatticePmf":
        try:
            xs, ps = [a["x"] for a in obj["atoms"]], [float(a["p"]) for a in obj["atoms"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"atoms must be objects with a point x and a number p: {exc!r}") from None
        return LatticePmf.from_arrays(int(obj["dim"]), xs, ps, float(obj["tail_mass"]), float(obj["tail_moment"]))

    @staticmethod
    def from_json(text: str) -> "LatticePmf":
        return LatticePmf.from_json_dict(jsonio.loads(text))


# log k! by ``math.lgamma`` (CPython's own: the bits do not depend on libm), grown on demand
_LOG_FACTORIAL = np.zeros(1)


def poisson_pmf(k, lam: float):
    """P(P = k) for P ~ Poisson(lam) at integers k: exp(k log lam - log k! - lam),
    with 0**0 = 1 at lam = 0, and 0 for k < 0."""
    global _LOG_FACTORIAL
    k = np.asarray(k, dtype=np.int64)
    if lam == 0.0:
        return (k == 0).astype(float)
    kk = np.maximum(k, 0)
    if kk.max(initial=0) >= len(_LOG_FACTORIAL):
        _LOG_FACTORIAL = np.array([math.lgamma(j + 1.0) for j in range(2 * int(kk.max()) + 1)])
    return np.where(k < 0, 0.0, np.exp(kk * math.log(lam) - _LOG_FACTORIAL[kk] - lam))


def poisson_law(lam: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """pmf and sf of Poisson(lam) on 0..n from one evaluation: sf(k) = P(P > k)
    is the pmf summed from far in the tail, n + lam + 40 sqrt(lam) + 80, down to
    k + 1, so a small tail keeps its relative accuracy."""
    pmf = poisson_pmf(np.arange(n + int(lam + 40.0 * math.sqrt(lam)) + 82), lam)
    return pmf[: n + 1], np.cumsum(pmf[:0:-1])[::-1][: n + 1]


def poisson_cut_law(lam: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """``poisson_law(lam, N)`` at the cut N = ``poisson_cut(lam, eps)``: the first
    k with sf(k) <= eps in one such array, whose range doubles until it holds one."""
    n = int(lam + 40.0 * math.sqrt(lam)) + 80
    while True:
        pmf, sf = poisson_law(lam, n)
        cut = int(np.argmax(sf <= eps))
        if sf[cut] <= eps:
            return pmf[: cut + 1], sf[: cut + 1]
        n *= 2


def poisson_cut(lam: float, eps: float) -> int:
    """Smallest N >= 0 with P(P > N) <= eps for P ~ Poisson(lam); 0 when lam = 0."""
    return len(poisson_cut_law(lam, eps)[0]) - 1


@dataclass(frozen=True)
class PoissonVectorParams:
    """Mean vector of a Poisson random vector with independent components."""

    lambdas: tuple[float, ...]

    def __post_init__(self):
        lam = tuple(float(v) for v in self.lambdas)
        if not lam:
            raise ParameterError("lambdas must hold at least one mean")
        if any(not np.isfinite(v) or v < 0 for v in lam):
            raise ParameterError(f"lambdas must be finite and >= 0, got {self.lambdas}")
        object.__setattr__(self, "lambdas", lam)

    @property
    def dim(self) -> int:
        return len(self.lambdas)


def poisson_vector_pmf(params: PoissonVectorParams, eps: float) -> LatticePmf:
    """Product-Poisson pmf truncated to a box [0,N_1] x ... x [0,N_d].

    Each cut N_i is the smallest N with P(P_i > N) <= eps / d, so the total
    truncated mass is <= eps.  ``tail_mass`` is 1 - prod_i (1 - P(P_i > N_i))
    and ``tail_moment`` uses the exact identity E[P 1{P > N}] = lambda *
    P(P >= N) plus independence across coordinates; both read the tails at the
    cuts and are inflated by ``TAIL_MARGIN``, so they are rigorous upper bounds.
    A box of more than ``DEFAULT_ATOM_BUDGET`` atoms raises ``CapacityError``.
    """
    if not (0.0 < eps < 1.0):
        raise ParameterError(f"eps must be in (0,1), got {eps}")
    lam, d = params.lambdas, params.dim
    axes = [poisson_cut_law(lv, eps / d) for lv in lam]
    if math.prod(len(pmf) for pmf, _ in axes) > DEFAULT_ATOM_BUDGET:
        raise CapacityError(
            f"truncation box {[len(pmf) for pmf, _ in axes]} exceeds atom budget {DEFAULT_ATOM_BUDGET}")
    table = axes[0][0]
    for pmf, _ in axes[1:]:
        table = np.multiply.outer(table, pmf)
    over = [float(sf[-1]) for _, sf in axes]  # P(P_j > N_j); P(P_j >= N_j) adds pmf(N_j)
    tail_mass = (1.0 + TAIL_MARGIN) * (0.0 - math.expm1(math.fsum(math.log1p(-s) for s in over)))
    # E[|X|_1 ; X outside box] <= sum_j [ E[P_j; P_j > N_j] + sum_{i != j} lam_i P(P_j > N_j) ]
    lam_total = math.fsum(lam)
    tail_moment = (1.0 + TAIL_MARGIN) * sum(
        lv * (o + float(pmf[-1])) + (lam_total - lv) * o for lv, o, (pmf, _) in zip(lam, over, axes))
    tail_moment = max(tail_moment, tail_mass)
    positive = table > 0.0
    return LatticePmf.from_arrays(d, np.argwhere(positive), table[positive], tail_mass, tail_moment)


def bernoulli_rows(p, shape: tuple[int, int] | None = None) -> np.ndarray:
    """``p`` as a float (n, d) matrix of Bernoulli-vector rows, of ``shape``
    when given: P(Y^(r) = e_j) = p[r, j] needs entries in [0, 1] (NaN fails)
    and row sums <= 1 + 1e-12."""
    try:
        p = np.asarray(p, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged or non-numeric input
        raise ParameterError(f"p must be an n x d matrix: {exc}") from None
    if p.ndim != 2 or (shape is not None and p.shape != shape):
        want = "an n x d matrix" if shape is None else f"n x d = {shape}"
        raise ParameterError(f"p must be {want}, got shape {p.shape}")
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ParameterError("entries of p must lie in [0,1]")
    row_sums = p.sum(axis=1)
    if (row_sums > 1.0 + 1e-12).any():
        bad = int(np.argmax(row_sums))
        raise ParameterError(f"row {bad} of p sums to {row_sums[bad]} > 1")
    return p


def bernoulli_sum_pmf(p: np.ndarray) -> LatticePmf:
    """Exact pmf of a sum of independent Bernoulli vectors.

    Row r of ``p`` gives P(Y^(r) = e_j) = p[r, j]; with probability
    1 - sum_j p[r, j] the summand is the zero vector.  The sum's pmf is built
    by sequential convolution over the (d+1)-outcome rows; tail_mass = 0.
    A table of more than ``DEFAULT_ATOM_BUDGET`` cells raises ``CapacityError``.
    """
    p = bernoulli_rows(p)
    n, d = p.shape
    row_sums = p.sum(axis=1)
    shape = (n + 1,) * d
    size = (n + 1) ** d
    if size > DEFAULT_ATOM_BUDGET:
        raise CapacityError(f"dense DP table of size {(n + 1)}^{d} exceeds atom budget {DEFAULT_ATOM_BUDGET}")
    table = np.zeros(shape)
    table[(0,) * d] = 1.0
    for r in range(n):
        nxt = table * (1.0 - row_sums[r])
        for j in range(d):
            if p[r, j] == 0.0:
                continue
            src = [slice(None)] * d
            dst = [slice(None)] * d
            src[j] = slice(0, n)
            dst[j] = slice(1, n + 1)
            nxt[tuple(dst)] += p[r, j] * table[tuple(src)]
        table = nxt
    positive = table > 0.0
    return LatticePmf.from_arrays(d, np.argwhere(positive), table[positive], 0.0, 0.0)


def _merge_index(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a non-empty (n, d) int64 array, in lexicographic
    order, and the index of each row's distinct row.  Rows may be negative.

    Rows are merged through one int64 key per row: the mixed-radix index of
    the row, shifted by the column minima, in the box the rows span.  Key
    order is lexicographic order.  A box of more than 2**63 - 1 cells falls
    back to sorting the rows themselves."""
    lo = rows.min(axis=0)
    span = [int(h) - int(l) + 1 for l, h in zip(lo.tolist(), rows.max(axis=0).tolist())]
    if math.prod(span) > np.iinfo(np.int64).max:
        distinct, index = np.unique(rows, axis=0, return_inverse=True)
        return distinct, index.ravel()
    keys, index = np.unique(np.ravel_multi_index(tuple((rows - lo).T), span), return_inverse=True)
    return np.column_stack(np.unravel_index(keys, span)) + lo, index


def merge_rows(rows, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an (n, d) integer array, in lexicographic order, with
    the weights of equal rows summed in row order (``np.bincount``), or with
    their counts when ``weights`` is None.  Rows may be negative."""
    rows = np.asarray(rows, dtype=np.int64)
    if not len(rows):
        return rows, np.zeros(0, dtype=np.int64 if weights is None else float)
    distinct, index = _merge_index(rows)
    return distinct, np.bincount(index, weights, len(distinct))


def empirical_pmf(rows) -> LatticePmf:
    """Relative frequencies of the rows of an (n, d) array of lattice points;
    deterministic given the rows."""
    return SampleAtoms(rows).law()


class SampleAtoms:
    """A sample of lattice rows merged once: its distinct rows ``points``, in
    lexicographic order, and each row's ``index`` into them.  A bootstrap
    replicate ``rows[take]`` only reweights these atoms (Efron and Tibshirani,
    1993), so its law is one ``np.bincount`` of ``index[take]``."""

    def __init__(self, rows):
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] == 0:
            raise ParameterError(f"rows must form a non-empty (n, d) array, got shape {rows.shape}")
        self.points, self.index = _merge_index(_point_array(rows, rows.shape[1]))

    def law(self, take=None) -> LatticePmf:
        """Empirical law of ``rows[take]`` (of all rows when ``take`` is None)."""
        index = self.index if take is None else self.index[take]
        counts = np.bincount(index, minlength=len(self.points))
        hit = counts > 0
        return LatticePmf.from_arrays(self.points.shape[1], self.points[hit], counts[hit] * (1.0 / len(index)))


def truncate_small_atoms(pmf: LatticePmf, drop_mass: float) -> LatticePmf:
    """Move the smallest atoms, up to total mass ``drop_mass``, into the tail
    account.  Atoms go in increasing (p, x) order and at least one is kept.
    Dropped mass is added to tail_mass and its exact first absolute moment to
    tail_moment, so downstream error intervals stay rigorous."""
    if drop_mass <= 0.0:
        return pmf
    xs, ps = pmf.points, pmf.probs
    order = np.lexsort((*xs.T[::-1], ps))
    # running sums in drop order, accumulated left to right
    mass = np.cumsum(ps[order])
    k = min(int(np.searchsorted(mass, drop_mass, side="right")), len(ps) - 1)
    if k <= 0:
        return pmf
    dropped = order[:k]
    moment = np.cumsum(ps[dropped] * xs[dropped].sum(axis=1))
    kept = np.sort(order[k:])
    return LatticePmf.from_arrays(
        pmf.dim,
        xs[kept],
        ps[kept],
        pmf.tail_mass + float(mass[k - 1]),
        pmf.tail_moment + float(moment[-1]),
    )
