"""Shared test utilities: independent oracles and random pmf generators.

Everything here is deliberately written against a different route than the
implementation it checks (dense LP instead of network simplex, the simplex
on the full pair instead of the reduced one, plain sums
instead of the library's accumulation order, the CDF formula instead of a
transport solve at d = 1, Monte Carlo instead of closed forms, counts on a
midpoint grid instead of exact disc-coverage areas, a plain-Python sweep
pattern by pattern instead of the numpy sweep over a batch, the GNZ terms
pattern by pattern instead of over a batch, every index tuple instead of
``itertools.combinations`` for U-statistic atoms, one Stein column per
(prefix, Poisson-suffix cell) instead of suffix-averaged sections, the Stein
tail series summed row by row instead of the backward recursion, the
m-dependent bound's window sums and Q factors in plain loops over numpy
scalars instead of shifted-array adds and Python floats), so agreement is
meaningful.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from palab import streams, transport
from palab.measures import LatticePmf, PoissonVectorParams, poisson_cut, poisson_law, poisson_pmf
from palab.processes import Box, GnzReport, PapangelouBound, TotalCount, sample_gibbs_batch
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


def row_by_row_stein(lam: float, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``stein.solve_stein_batch`` for valid (N+1, B) tables by another route
    past floor(lambda): each tail row i sums its own series
    ghat(i+1) = -sum_{k>=1} c(min(i+k, N)) w_k, w_1 = 1/(i+1),
    w_{k+1} = w_k lambda/(i+k+1), with c = g - E g on the constant extension,
    a scalar loop over k per row that stops once the geometric bound on the
    rest falls below 1e-18 times max |c|."""
    n_max = g.shape[0] - 1
    ghat = np.zeros((n_max + 2, g.shape[1]))
    if lam == 0.0:
        idx = np.arange(1, n_max + 1)
        ghat[1 : n_max + 1] = (g[0][None, :] - g[1:]) / idx[:, None]
        ghat[n_max + 1] = (g[0] - g[n_max]) / (n_max + 1)
        return ghat, g[0].copy()
    pmf = poisson_pmf(np.arange(n_max + 1), lam)
    means = pmf @ g + poisson_law(lam, n_max)[1][n_max] * g[n_max]
    centered = g - means[None, :]
    mode = min(int(np.floor(lam)), n_max + 1)
    for i in range(mode):
        ghat[i + 1] = (i * ghat[i] + centered[i]) / lam
    big = float(np.max(np.abs(centered)))
    for i in range(mode, n_max + 1):
        acc = np.zeros(g.shape[1])
        w = 1.0 / (i + 1)
        k = 1
        while True:
            acc += centered[min(i + k, n_max)] * w
            q = lam / (i + k + 1)
            if big * w * q / (1.0 - q) < 1e-18 or k > 10_000:
                break
            w *= q
            k += 1
        ghat[i + 1] = -acc
    return ghat, means


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


def arc_primitive(t: float, rho: float) -> float:
    """F(t) = int_0^t sqrt(rho^2 - s^2) ds for one t, clipped to [-rho, rho],
    with asin(t / rho) as ``math.atan2(t, sqrt(rho^2 - t^2))``."""
    t = max(-rho, min(rho, t))
    s = math.sqrt((rho - t) * (rho + t))
    return 0.5 * (t * s + rho * rho * math.atan2(t, s))


def reference_coverage_areas(points, rho: float, box: Box) -> np.ndarray:
    """``coverage_areas`` as a plain-Python sweep of one pattern: a set of
    breakpoints, then slab by slab a sorted list of (y, side, integral) chord
    ends and a running sum per coverage level.  The library's numpy sweep adds
    the same terms in the same order, so the two agree bit for bit."""
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
        ends = []
        for cx, cy in pts:
            t = mid - cx
            if abs(t) >= rho:
                continue
            half = math.sqrt((rho - t) * (rho + t))
            arc = arc_primitive(hi - cx, rho) - arc_primitive(lo - cx, rho)
            for y, side, integral in ((cy - half, -1, cy * width - arc), (cy + half, 1, cy * width + arc)):
                if y <= y0:
                    integral = y0 * width
                elif y >= y1:
                    integral = y1 * width
                ends.append((y, side, integral))
        ends.sort()  # stable: lower ends first among ties, the count never drops below 0
        k, below = 0, y0 * width
        for _y, side, integral in ends:
            areas[k] += integral - below
            k, below = k - side, integral
        areas[k] += y1 * width - below
    return np.array(areas)


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
    """``gnz_check`` draw by draw: left side, weight, coverage areas (the
    plain-Python sweep) and intensity levels for each pattern on its own."""
    region = model.window if u.region_a is None else u.region_a.intersection(model.window)
    lhs_acc, rhs_acc = np.zeros(reps), np.zeros(reps)
    for s, xi in enumerate(per_pattern_draws(model, reps, seed, 1)):
        lhs_acc[s], h = gnz_terms_per_pattern(u, xi)
        if h and region is not None:
            areas = reference_coverage_areas(xi.points, model.rho, region)
            rhs_acc[s] = h * float(model.intensity_levels(len(xi)) @ areas)
    delta = lhs_acc - rhs_acc
    se = float(np.std(delta, ddof=1) / math.sqrt(reps))
    z = float(np.mean(delta)) / (se if se > 0 else 1.0)
    return GnzReport(float(np.mean(lhs_acc)), float(np.mean(rhs_acc)), z, se, reps)


def per_pattern_papangelou_bound(model, f: float, reps: int, seed: int) -> PapangelouBound:
    """``papangelou_bound`` for the constant target density f, draw by draw."""
    vals = np.zeros(reps)
    for s, xi in enumerate(per_pattern_draws(model, reps, seed, 2)):
        areas = reference_coverage_areas(xi.points, model.rho, model.window)
        vals[s] = float(np.abs(model.intensity_levels(len(xi)) - f) @ areas)
    se = float(np.std(vals, ddof=1) / math.sqrt(reps))
    return PapangelouBound(estimate=float(np.mean(vals)), std_error=se, reps=reps)


def mdep_first_term_by_loops(p: np.ndarray, m: int) -> float:
    """The first summand group of the m-dependent bound, one scalar add at a
    time in the documented order (k outer, i inner, r innermost; the sum over
    j < i runs on through (j, r)), then an exactly rounded sum over k."""
    n, d = p.shape
    per_k = []
    for k in range(n):
        lo, hi = max(0, k - m), min(n - 1, k + m)
        acc = 0.0
        for i in range(d):
            s_same = 0.0
            for r in range(lo, hi + 1):
                s_same += p[r, i]
            s_below = 0.0
            for j in range(i):
                for r in range(lo, hi + 1):
                    s_below += p[r, j]
            acc += (s_same + 2.0 * s_below) * p[k, i]
        per_k.append(acc)
    return float(math.fsum(per_k))


def q_factor_by_loops(model, k: int) -> float:
    """Q(k) from the closed forms evaluated on numpy scalars, one
    (r, i, j) at a time (1-based k)."""
    t, k0, best = model.thresholds, k - 1, 0.0
    for r in range(max(0, k0 - model.m), min(model.n, k0 + model.m + 1)):
        if r == k0:
            continue
        for i in range(model.d):
            for j in range(model.d):
                if model.family == "independent":
                    pair = float(model.p[k0, i] * model.p[r, j])
                else:
                    alpha, beta = abs(k0 - r), model.m + 1 - abs(k0 - r)

                    def surv2(s, u):
                        return (1.0 - s) ** alpha * (1.0 - u) ** alpha * (1.0 - max(s, u)) ** beta

                    a1, b1, a2, b2 = t[k0, i], t[k0, i + 1], t[r, j], t[r, j + 1]
                    pair = float(surv2(a1, a2) - surv2(b1, a2) - surv2(a1, b2) + surv2(b1, b2))
                best = max(best, pair)
    return best
