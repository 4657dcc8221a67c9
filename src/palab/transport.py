"""Exact 1-norm Wasserstein and total-variation distances between lattice pmfs.

The Wasserstein solver is a transportation network simplex on the complete
bipartite graph of the two stored supports, with cost |x - y|_1.  It starts
from a least-cost (matrix-minimum) basis, built in one walk over the arcs
sorted by cost, and improves it by row-block pricing: each numpy step prices
whole rows of the cost matrix, about ``_PRICE_ARCS`` arcs, and the most
negative reduced cost of the first violating block enters.  Costs are
integers, so the simplex multipliers (duals) are exact integers as well: the
optimality test involves no rounding, and every solve ends with a
complementary-slackness verification pass.

Truncated inputs are renormalized to unit mass before solving; the
``truncation_error`` field accounts for both the missing tail moment and the
renormalization displacement, so

    |value - d_W(untruncated laws)| <= truncation_error.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError
from .measures import LatticePmf, Point, merge_rows

# Reduced costs are exact integers; anything below this is a real violation.
_OPT_TOL = 1e-7
_VERIFY_TOL = 1e-9
# Arcs per numpy step of the start's sorted walk: turning the whole m*n order
# into Python ints at once costs tens of bytes of peak memory per arc.
_START_CHUNK = 4096
# Arcs priced per numpy step, as whole rows of the cost matrix (at least one
# row): large enough that numpy call overhead no longer dominates pricing.
_PRICE_ARCS = 2048


@dataclass(frozen=True)
class DistanceResult:
    """A computed distance plus a rigorous truncation error interval."""

    value: float
    truncation_error: float
    flow: Optional[list[tuple[Point, Point, float]]] = None


class _SimplexFailure(RuntimeError):
    pass


def _l1_cost_matrix(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    m, d = xs.shape
    n = ys.shape[0]
    cost = np.zeros((m, n))
    for k in range(d):
        cost += np.abs(xs[:, k : k + 1] - ys[None, :, k])
    return cost


def _perturb(a: np.ndarray, b: np.ndarray):
    """Tie-breaking perturbation of the supplies, removed again before the
    final flow solve."""
    m = len(a)
    eps0 = 1e-13 / (m + 1)
    a_p = a + eps0 * np.arange(1, m + 1)
    return a_p, b * (a_p.sum() / b.sum())


def _initial_basis(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    """Least-cost (matrix-minimum) start.

    Arcs are visited once in increasing cost order (ties by row-major index);
    each arc whose row and column both still have supply carries
    min(remaining row supply, remaining column demand).  Every allocation
    exhausts at least one of its two nodes, so the arcs form a forest, and with
    perturbed (tie-free) supplies exactly m + n - 1 of them: a spanning tree.
    An allocation that exhausts both nodes at once leaves fewer arcs; the same
    order is then walked again, adding zero-flow arcs that join two distinct
    components, until the tree spans.
    """
    m, n = cost.shape
    need = m + n - 1
    rem_a = a.copy()
    rem_b = b.copy()
    # costs are nonnegative integers: the smallest dtype that holds them gives
    # the same stable order as float64, several times faster
    order = np.argsort(cost.astype(np.min_scalar_type(int(cost.max()))), axis=None, kind="stable")
    flows: dict[tuple[int, int], float] = {}
    for i, j in _sorted_arcs(order, n, lambda rows, cols: (rem_a[rows] > 0.0) & (rem_b[cols] > 0.0)):
        ra, rb = rem_a[i], rem_b[j]
        if ra <= 0.0 or rb <= 0.0:
            continue
        take = min(ra, rb)
        flows[(i, j)] = take
        rem_a[i] = ra - take
        rem_b[j] = rb - take
        if len(flows) == need:
            return flows
    label = np.arange(m + n)  # component of each node, rows first
    for i, j in flows:
        label[label == label[m + j]] = label[i]
    for i, j in _sorted_arcs(order, n, lambda rows, cols: label[rows] != label[m + cols]):
        li, lj = label[i], label[m + j]
        if li != lj:
            label[label == lj] = li
            flows[(i, j)] = 0.0
            if len(flows) == need:
                break
    return flows


def _sorted_arcs(order: np.ndarray, n: int, keep):
    """Arcs (i, j) of the flat cost ``order``, chunk by chunk; ``keep(rows,
    cols)`` masks each chunk when it is reached, so it sees the state left by
    the arcs before it and only candidate arcs reach the Python loop."""
    for lo in range(0, len(order), _START_CHUNK):
        rows, cols = np.divmod(order[lo : lo + _START_CHUNK], n)
        live = keep(rows, cols)
        yield from zip(rows[live].tolist(), cols[live].tolist())


def _tree_structure(flows, m: int, n: int, cost: np.ndarray):
    """BFS over the basis tree from node 0: parents, depths and exact duals."""
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for (i, j) in flows:
        adj[i].append(m + j)
        adj[m + j].append(i)
    parent = np.full(m + n, -1, dtype=np.int64)
    depth = np.zeros(m + n, dtype=np.int64)
    u = np.zeros(m)
    v = np.zeros(n)
    seen = np.zeros(m + n, dtype=bool)
    seen[0] = True
    order = [0]
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for nb in adj[node]:
            if seen[nb]:
                continue
            seen[nb] = True
            parent[nb] = node
            depth[nb] = depth[node] + 1
            if nb >= m:
                v[nb - m] = cost[node, nb - m] - u[node]
            else:
                u[nb] = cost[nb, parent[nb] - m] - v[parent[nb] - m]
            order.append(nb)
            queue.append(nb)
    if not seen.all():
        raise _SimplexFailure("basis graph is not a spanning tree")
    return parent, depth, u, v, order


def _cycle_path(parent, depth, i_node: int, j_node: int):
    """Node path j_node -> ... -> i_node through the tree."""
    pa, pb = i_node, j_node
    path_a = [pa]
    path_b = [pb]
    while depth[pa] > depth[pb]:
        pa = parent[pa]
        path_a.append(pa)
    while depth[pb] > depth[pa]:
        pb = parent[pb]
        path_b.append(pb)
    while pa != pb:
        pa = parent[pa]
        path_a.append(pa)
        pb = parent[pb]
        path_b.append(pb)
    return path_b + path_a[-2::-1]  # j* .. LCA .. i*


def _bland_streak_limit(m: int, n: int) -> int:
    """Degenerate pivots in a row after which Bland's rule takes over."""
    return m + n


def _transportation_simplex(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    """Solve min <cost, f> over f >= 0 with row sums a and column sums b.

    Returns (flows on the optimal basis tree recomputed for the *unperturbed*
    supplies, duals u, v).  Supplies are perturbed internally to keep pivots
    nondegenerate; the optimal basis and duals are unaffected by supplies.

    Pricing walks the rows in cyclic blocks of ``max(1, _PRICE_ARCS // n)``
    rows: one numpy step forms a block's reduced costs ``cost[r0:r1] -
    u[r0:r1, None] - v`` and the block's most negative one enters (Dantzig's
    rule within the block); the next pivot prices from the block after it, and
    a full wrap of ``ceil(m / rows)`` blocks with no violation ends the solve.
    After more than m + n degenerate pivots in a row, Bland's rule takes over
    for the rest of the solve: every pivot prices from row 0 and takes the
    first violating arc in row-major order, which rules out cycling.

    Tree maintenance is incremental: a pivot shifts the duals of the subtree
    cut off by the leaving arc by the entering arc's reduced cost and re-roots
    that subtree, so per-pivot work is O(cycle + subtree).  Costs are integers,
    hence the duals stay exact integers throughout and the optimality test is
    free of rounding.
    """
    m, n = cost.shape
    flows = _initial_basis(*_perturb(a, b), cost)
    parent, depth, u, v, order = _tree_structure(flows, m, n, cost)
    adj: list[set[int]] = [set() for _ in range(m + n)]
    for (i, j) in flows:
        adj[i].add(m + j)
        adj[m + j].add(i)
    rows_per_block = max(1, _PRICE_ARCS // n)
    pos = 0  # first row of the next block to price
    max_iters = 200 * (m + n) + 10_000
    streak_limit = _bland_streak_limit(m, n)
    degenerate_streak = 0
    bland = False
    for _ in range(max_iters):
        if degenerate_streak > streak_limit:
            bland = True  # anti-cycling fallback, for the rest of the solve
        if bland:
            pos = 0  # Bland's rule: the first violating arc in row-major order
        # --- cyclic row-block pricing (Dantzig within each block) ----------
        entering = None
        for _ in range(-(-m // rows_per_block)):
            lo, hi = pos, min(pos + rows_per_block, m)
            pos = hi % m
            red = cost[lo:hi] - u[lo:hi, None] - v
            k = int(np.argmin(red))
            if red.flat[k] < -_OPT_TOL:
                if bland:
                    k = int((red < -_OPT_TOL).argmax())  # first violating arc
                entering = (lo + k // n, k % n)
                break
        if entering is None:
            break  # a full wrap found no violating arc: optimal
        ei, ej = entering
        delta = cost[ei, ej] - u[ei] - v[ej]
        path = _cycle_path(parent, depth, ei, m + ej)
        # walk arcs from j* toward i*; signs alternate -, +, -, ...
        theta = np.inf
        leave = None
        sign = -1
        arcs = []
        for x, y in zip(path, path[1:]):
            arc = (x, y - m) if x < m else (y, x - m)
            arcs.append((arc, sign))
            if sign < 0 and flows[arc] < theta:
                theta = flows[arc]
                leave = arc
            sign = -sign
        if leave is None:
            raise _SimplexFailure("no leaving arc found on pivot cycle")
        for arc, sgn in arcs:
            flows[arc] += sgn * theta
        del flows[leave]
        flows[(ei, ej)] = theta
        # --- incremental tree update -------------------------------------
        # After dropping the leaving arc, the entering arc q--p is the only
        # connection between the cut-off component (around q) and the rest,
        # so one BFS from q re-roots the component and collects its nodes.
        li, lj = leave
        la, lb = li, m + lj
        adj[la].discard(lb)
        adj[lb].discard(la)
        child = la if parent[la] == lb else lb
        en_a, en_b = ei, m + ej
        adj[en_a].add(en_b)
        adj[en_b].add(en_a)
        # the endpoint inside the old subtree of `child` becomes the new local
        # root q; test by lifting en_a to child's depth (pointers still old)
        node = en_a
        while depth[node] > depth[child]:
            node = parent[node]
        q = en_a if node == child else en_b
        p = en_b if q == en_a else en_a
        parent[q] = p
        depth[q] = depth[p] + 1
        sub = [q]
        k = 0
        while k < len(sub):
            node = sub[k]
            par = parent[node]
            dn = depth[node] + 1
            for nb in adj[node]:
                if nb != par and nb != p:
                    parent[nb] = node
                    depth[nb] = dn
                    sub.append(nb)
            k += 1
        # duals: subtree nodes of q's type shift by +delta, the others by -delta
        sub_arr = np.fromiter(sub, dtype=np.int64, count=len(sub))
        src_nodes = sub_arr[sub_arr < m]
        snk_nodes = sub_arr[sub_arr >= m] - m
        if q < m:
            u[src_nodes] += delta
            v[snk_nodes] -= delta
        else:
            u[src_nodes] -= delta
            v[snk_nodes] += delta
        degenerate_streak = degenerate_streak + 1 if theta <= 0.0 else 0
    else:
        raise _SimplexFailure(f"no convergence within {max_iters} pivots")
    parent, depth, u, v, order = _tree_structure(flows, m, n, cost)
    # final flows from the *original* supplies: subtree sums along reverse BFS
    net = np.concatenate([a, -b])
    out_flows: dict[tuple[int, int], float] = {}
    for node in reversed(order):
        par = parent[node]
        if par < 0:
            continue
        arc = (node, par - m) if node < m else (par, node - m)
        out_flows[arc] = net[node] if node < m else -net[node]
        net[par] += net[node]
    return out_flows, u, v


def _verify_optimal(a, b, cost, flows, u, v) -> float:
    """Complementary-slackness pass; returns the certified optimal value."""
    scale = 1.0 + float(np.abs(cost).max(initial=0.0))
    reduced = cost - u[:, None] - v[None, :]
    if float(reduced.min(initial=0.0)) < -_OPT_TOL:
        raise _SimplexFailure("dual infeasible after termination")
    row = np.zeros(len(a))
    col = np.zeros(len(b))
    primal = 0.0
    for (i, j), f in flows.items():
        if f < -1e-9:
            raise _SimplexFailure(f"negative basic flow {f} on arc {(i, j)}")
        if abs(reduced[i, j]) > _VERIFY_TOL * scale:
            raise _SimplexFailure("basic arc with nonzero reduced cost")
        row[i] += f
        col[j] += f
        primal += cost[i, j] * f
    if np.abs(row - a).max() > 1e-8 or np.abs(col - b).max() > 1e-8:
        raise _SimplexFailure("flow marginals do not match the inputs")
    dual = float(a @ u + b @ v)
    if abs(primal - dual) > _VERIFY_TOL * (1.0 + abs(dual)) + 1e-12 * scale:
        raise _SimplexFailure(f"duality gap {primal - dual:.3e}")
    return max(dual, 0.0)


def _check_pair(P: LatticePmf, Q: LatticePmf) -> None:
    if P.dim != Q.dim:
        raise ParameterError(f"dimension mismatch: {P.dim} vs {Q.dim}")
    if not len(P.probs) or not len(Q.probs):
        raise ParameterError("empty support")


def wasserstein_l1(P: LatticePmf, Q: LatticePmf, want_flow: bool = False) -> DistanceResult:
    """Exact W_1 distance (1-norm ground metric) between the stored supports.

    Stored atoms are renormalized to unit mass; the reported
    ``truncation_error`` covers both tails and the renormalization:
    tail_moment(P) + tail_moment(Q) + (tail_mass(P) + tail_mass(Q)) * diam,
    with diam the largest |x|_1 over both stored supports.
    """
    _check_pair(P, Q)
    xs, pa = P.support_arrays()
    ys, qb = Q.support_arrays()
    a = pa / pa.sum()
    b = qb / qb.sum()
    cost = _l1_cost_matrix(xs, ys)
    flows, u, v = _transportation_simplex(a, b, cost)
    value = _verify_optimal(a, b, cost, flows, u, v)
    diam = float(max(xs.sum(axis=1).max(), ys.sum(axis=1).max()))
    trunc = P.tail_moment + Q.tail_moment + (P.tail_mass + Q.tail_mass) * diam
    flow_list = None
    if want_flow:
        flow_list = [
            (tuple(int(t) for t in xs[i]), tuple(int(t) for t in ys[j]), f)
            for (i, j), f in sorted(flows.items())
            if f > 0.0
        ]
    return DistanceResult(value=value, truncation_error=trunc, flow=flow_list)


def total_variation(P: LatticePmf, Q: LatticePmf) -> DistanceResult:
    """d_TV = (1/2) sum |P(x) - Q(x)| over the union of stored supports.

    Mass outside the supports is counted as full discrepancy:
    truncation_error = tail_mass(P) + tail_mass(Q).
    """
    if P.dim != Q.dim:
        raise ParameterError(f"dimension mismatch: {P.dim} vs {Q.dim}")
    # P(x) - Q(x) per point of the union, each an exact single subtraction
    _, diff = merge_rows(np.concatenate([P.points, Q.points]), np.concatenate([P.probs, -Q.probs]))
    value = 0.5 * math.fsum(np.abs(diff))
    return DistanceResult(value=value, truncation_error=P.tail_mass + Q.tail_mass, flow=None)
