"""Shared test utilities: independent oracles and random pmf generators.

Everything here is deliberately written against a different route than the
implementation it checks (dense LP instead of network simplex, the simplex
on the full pair instead of the reduced one, plain sums
instead of the library's accumulation order, the CDF formula instead of a
transport solve at d = 1, Monte Carlo instead of closed forms, counts on a
midpoint grid instead of exact disc-coverage areas, the GNZ terms pattern by
pattern instead of over a batch, every index tuple instead of
``itertools.combinations`` for U-statistic atoms, one Stein column per
(prefix, Poisson-suffix cell) instead of suffix-averaged sections), so
agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from palab import streams, transport
from palab.measures import LatticePmf, PoissonVectorParams, poisson_cut, poisson_pmf
from palab.processes import GnzReport, PapangelouBound, TotalCount, coverage_areas, sample_gibbs_batch
from palab.stein import solve_stein_batch

# HiGHS feasibility tolerances are absolute, so the LP is solved with supplies
# scaled by this factor and the optimum divided by it: at unit mass a
# 55 x 2932 instance disagreed with the exact simplex by 1.6e-8.
SUPPLY_SCALE = 1e3


def lp_wasserstein(P: LatticePmf, Q: LatticePmf) -> float:
    """Direct LP formulation of the optimal-transport problem (HiGHS)."""
    xs, a = P.support_arrays()
    ys, b = Q.support_arrays()
    a = a / a.sum()
    b = b / b.sum()
    m, n = len(a), len(b)
    cost = np.zeros((m, n))
    for k in range(P.dim):
        cost += np.abs(xs[:, k : k + 1] - ys[None, :, k])
    var = np.arange(m * n)
    rows = np.concatenate([var // n, m + (var % n)])
    cols = np.concatenate([var, var])
    A_eq = sparse.csr_matrix(
        (np.ones(2 * m * n), (rows, cols)), shape=(m + n, m * n)
    )
    # drop one redundant balance constraint to keep HiGHS happy about rank
    res = linprog(
        cost.ravel(),
        A_eq=A_eq[:-1],
        b_eq=SUPPLY_SCALE * np.concatenate([a, b])[:-1],
        bounds=(0, None),
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
        },
    )
    assert res.status == 0, f"LP oracle failed: {res.message}"
    return float(res.fun) / SUPPLY_SCALE


def full_pair_certificate(P: LatticePmf, Q: LatticePmf) -> dict:
    """The transportation simplex on the dense cost matrix of the whole pair,
    with no reduction, as the keyword arguments of ``transport._certify``."""
    a, b = P.probs / P.probs.sum(), Q.probs / Q.probs.sum()
    cost = transport._l1_cost_matrix(P.points, Q.points)
    rows, cols, flow, u, v = transport._transportation_simplex(a, b, cost)
    return dict(xs=P.points, a=a, ys=Q.points, b=b, u=u, v=v, plan=(rows, cols, flow, a, b),
                primal=float(cost[rows, cols] @ flow))


def w1_1d(P: LatticePmf, Q: LatticePmf) -> float:
    """W1 on the integer line by the CDF formula: sum over the union grid of
    |F_P - F_Q| times the gap to the next grid point (no transport solve)."""
    xs, a = P.support_arrays()
    ys, b = Q.support_arrays()
    p_mass = dict(zip(xs[:, 0].tolist(), (a / a.sum()).tolist()))
    q_mass = dict(zip(ys[:, 0].tolist(), (b / b.sum()).tolist()))
    grid = sorted(set(p_mass) | set(q_mass))
    total = f_p = f_q = 0.0
    for x, nxt in zip(grid, grid[1:]):
        f_p += p_mass.get(x, 0.0)
        f_q += q_mass.get(x, 0.0)
        total += abs(f_p - f_q) * (nxt - x)
    return total


def ustat_atoms_by_tuples(points: np.ndarray, model) -> np.ndarray:
    """U-statistic atoms of an ``(n, w)`` point array by brute force: every
    ordered k-tuple of point indices, kept once when its indices increase and
    mapped by the kernel when it lies in the domain.  No atoms give ``(0, 0)``."""
    pts = [tuple(p) for p in points.tolist()]
    out = []
    for idx in itertools.product(range(len(pts)), repeat=model.order):
        tup = [pts[i] for i in idx]
        if all(i < j for i, j in zip(idx, idx[1:])) and model.in_domain(tup):
            out.append(model.kernel(tup))
    return np.array(out, dtype=np.float64).reshape(len(out), len(out[0]) if out else 0)


def atoms(pmf: LatticePmf) -> dict:
    """{point tuple: probability} of the stored atoms, in lexicographic order."""
    return dict(zip(map(tuple, pmf.points.tolist()), pmf.probs.tolist()))


def random_pmf(rng: np.random.Generator, dim: int, n_atoms: int, span: int = 12) -> LatticePmf:
    """Random finitely supported pmf with tail_mass 0."""
    while span**dim < 2 * n_atoms:
        span += 4
    pts = set()
    while len(pts) < n_atoms:
        pts.add(tuple(int(v) for v in rng.integers(0, span, size=dim)))
    w = rng.random(len(pts)) + 1e-3
    w /= w.sum()
    return LatticePmf(dim, {p: float(x) for p, x in zip(sorted(pts), w)})


def random_lipschitz_table(rng: np.random.Generator, shape: tuple[int, ...], n_cones: int = 6) -> np.ndarray:
    """Random 1-Lipschitz (w.r.t. |.|_1) function on a lattice box, built as a
    minimum of cone functions b_c + |x - y_c|_1."""
    grids = np.meshgrid(*[np.arange(s) for s in shape], indexing="ij")
    out = np.full(shape, np.inf)
    for _ in range(n_cones):
        anchor = [rng.integers(0, s) for s in shape]
        offset = rng.uniform(-2.0, 2.0)
        dist = np.zeros(shape)
        for g, a in zip(grids, anchor):
            dist = dist + np.abs(g - a)
        out = np.minimum(out, offset + dist)
    return out


def random_lipschitz_1d(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random 1-Lipschitz function on 0..n-1 via bounded increments."""
    steps = rng.uniform(-1.0, 1.0, size=n - 1)
    return np.concatenate([[rng.uniform(-1, 1)], steps]).cumsum()


def decomposition_residual_by_cells(X: LatticePmf, params: PoissonVectorParams, g: np.ndarray,
                                    eps_box: float = 1e-12) -> float:
    """The telescoping residual of ``stein.decomposition_check`` for valid
    inputs, without the solver's linearity: one Stein column per (prefix
    X_{1:i-1}, cell of the Poisson suffix box), each solution weighted by the
    suffix cell's probability and summed atom by atom of X's prefix marginal."""
    d = X.dim
    axes = [poisson_pmf(np.arange(poisson_cut(lam, eps_box / d) + 1), lam) for lam in params.lambdas]
    xs, px = X.support_arrays()
    e_g_p = g[tuple(slice(0, len(ax)) for ax in axes)]
    for ax in reversed(axes):
        e_g_p = e_g_p @ ax
    lhs = float(e_g_p) - sum(p * g[tuple(x)] for x, p in zip(xs.tolist(), px.tolist()))
    rhs = 0.0
    for i in range(1, d + 1):
        lam_i = params.lambdas[i - 1]
        marg_pts, marg_p = X.prefix_marginal(i).support_arrays()
        starts = np.r_[True, (marg_pts[1:, : i - 1] != marg_pts[:-1, : i - 1]).any(axis=1)]
        suffix_w = np.ones(1)
        for ax in axes[i:]:
            suffix_w = np.multiply.outer(suffix_w, ax).ravel()
        suffix_box = tuple(slice(0, len(ax)) for ax in axes[i:])
        cols = []
        for pre in marg_pts[starts, : i - 1].tolist():
            sec = g[tuple(pre)][(slice(None),) + suffix_box]
            cols.append(sec.reshape(sec.shape[0], -1))
        ghat, _ = solve_stein_batch(lam_i, np.concatenate(cols, axis=1))
        n_suffix = len(suffix_w)
        prefix_ids = np.cumsum(starts) - 1
        for pi, xi, pxi in zip(prefix_ids.tolist(), marg_pts[:, i - 1].tolist(), marg_p.tolist()):
            block = slice(pi * n_suffix, (pi + 1) * n_suffix)
            rhs += pxi * float((xi * ghat[xi, block] - lam_i * ghat[xi + 1, block]) @ suffix_w)
    return abs(lhs - rhs)


def neighbour_counts(xs: np.ndarray, points: np.ndarray, rho: float) -> np.ndarray:
    """#{y in points : |x - y| <= rho} for each row x of xs."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    d2 = ((xs[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    return (d2 <= rho**2).sum(axis=1)


def midpoint_coverage(points: np.ndarray, rho: float, lows, highs, cells: int):
    """Areas of {x in the box : exactly k rho-discs cover x}, k = 0..n, from
    neighbour counts at the centres of a cells x cells grid, and a bound on
    the error of each: only cells that a circle can cross are misassigned."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    axes = [lo + (np.arange(cells) + 0.5) * (hi - lo) / cells for lo, hi in zip(lows, highs)]
    xs = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    cell_area = np.prod([(hi - lo) / cells for lo, hi in zip(lows, highs)])
    half_diag = 0.5 * np.hypot(*[(hi - lo) / cells for lo, hi in zip(lows, highs)])
    areas = np.bincount(neighbour_counts(xs, points, rho), minlength=len(points) + 1) * cell_area
    d = np.sqrt(((xs[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    crossed = int((np.abs(d - rho) <= half_diag).any(axis=1).sum())
    return areas, crossed * cell_area


# ---------------------------------------------------------------------------
# the GNZ check and the Papangelou bound, one pattern at a time
# ---------------------------------------------------------------------------

def gnz_terms_per_pattern(u, pattern) -> tuple[float, float]:
    """(GNZ left side, weight h) of one pattern for ``TotalCount`` or
    ``IndicatorTimesEmpty``: the left side as
    sum_x 1_A(x) * 1{pattern(B) - 1_B(x) = 0}, h as 1{pattern(B) = 0}."""
    n = len(pattern)
    if isinstance(u, TotalCount):
        return float(n * (n - 1)), float(n)
    if n == 0:
        return 0.0, 1.0
    ok = np.ones(n, dtype=bool)
    if u.region_a is not None:
        ok &= u.region_a.contains(pattern.points)
    if u.region_b is not None:
        in_b = u.region_b.contains(pattern.points)
        ok &= in_b.sum() - in_b == 0
    return float(ok.sum()), float(u.region_b is None or int(u.region_b.contains(pattern.points).sum()) == 0)


def per_pattern_draws(model, reps: int, seed: int, stream: int):
    """The draws of the fixed layout of 32 streams as single patterns: chunk c
    is one ``sample_gibbs_batch`` from ``streams.derive(seed, stream, c)``."""
    for c, size in enumerate(streams.chunk_sizes(reps, 32)):
        yield from sample_gibbs_batch(model, streams.derive(seed, stream, c), size)


def per_pattern_gnz_check(model, u, reps: int, seed: int) -> GnzReport:
    """``gnz_check`` draw by draw: left side, weight, coverage areas and
    intensity levels for each pattern on its own."""
    region = model.window if u.region_a is None else u.region_a.intersection(model.window)
    lhs_acc, rhs_acc = np.zeros(reps), np.zeros(reps)
    for s, xi in enumerate(per_pattern_draws(model, reps, seed, 1)):
        lhs_acc[s], h = gnz_terms_per_pattern(u, xi)
        if h and region is not None:
            areas = coverage_areas(xi.points, model.rho, region)
            rhs_acc[s] = h * float(model.intensity_levels(len(xi)) @ areas)
    delta = lhs_acc - rhs_acc
    se = float(np.std(delta, ddof=1) / math.sqrt(reps))
    z = float(np.mean(delta)) / (se if se > 0 else 1.0)
    return GnzReport(float(np.mean(lhs_acc)), float(np.mean(rhs_acc)), z, se, reps)


def per_pattern_papangelou_bound(model, f: float, reps: int, seed: int) -> PapangelouBound:
    """``papangelou_bound`` for the constant target density f, draw by draw."""
    vals = np.zeros(reps)
    for s, xi in enumerate(per_pattern_draws(model, reps, seed, 2)):
        areas = coverage_areas(xi.points, model.rho, model.window)
        vals[s] = float(np.abs(model.intensity_levels(len(xi)) - f) @ areas)
    se = float(np.std(vals, ddof=1) / math.sqrt(reps))
    return PapangelouBound(estimate=float(np.mean(vals)), std_error=se, reps=reps)
