"""Exact 1-norm Wasserstein and total-variation distances between lattice pmfs.

At d >= 2 the solve runs on a reduced pair with the same value, and its
certificate is checked on the original atoms.  Two exact identities give the
reduction:

- Per axis, clip both supports onto the common interval [max(lo_P, lo_Q),
  min(hi_P, hi_Q)] (where the two intervals are disjoint, onto min(hi_P,
  hi_Q)).  Only one of the two laws has atoms beyond each end, so for every
  arc |x - y|_1 = |clip x - clip y|_1 + e(x) + e(y), with e the distance to
  the box: the clipped pair's W1 plus the constant sum a e(x) + sum b e(y).
- For the 1-norm cost W1 depends on P - Q alone (Kantorovich-Rubinstein
  duality; Villani, *Optimal Transport*, 2009): mass that both clipped laws
  put on one cell never moves.  The clipped atoms merge into cells of signed
  mass a - b; positive cells are the supplies, negative ones the demands.

The reduced pair is solved by a transportation network simplex on the complete
bipartite graph of its supplies and demands, with cost |x - y|_1.  It starts
from a least-cost (matrix-minimum) basis, built in one walk over the arcs
sorted by cost, where masks of the rows and columns with supply left drop dead
arcs chunk by chunk.  A solve may be given a start: column duals v of an
earlier solve against the same target (``DistanceResult.v``).  The walk then
visits the arcs by their reduced cost against v and its c-transform, then by
cost, so the start is built mostly from arcs that were tight before; a start
only orders the starting basis.  The simplex improves the basis by block
pricing with a candidate list: each numpy step prices whole rows of the cost
matrix, about ``_PRICE_ARCS`` arcs, the most negative reduced cost of the
first violating block enters, and that block's other violating arcs are kept
and re-priced on the next pivots until none violates.  The basis is one
spanning tree rooted at source atom 0, held as parent, depth and parent-arc
flow per node (Ahuja, Magnanti and Orlin, *Network Flows*, ch. 11).  Costs
are integers, so the simplex multipliers (duals) are exact integers as well:
the optimality test involves no rounding.

The reduced duals lift to a potential on the original atoms: psi(z) =
max_i (u_i - |X_i - z|_1) over the supply cells X_i is 1-Lipschitz, and
phi = psi(clip x) + e(x) on P's atoms, psi(clip y) - e(y) on Q's, so
phi(x) - phi(y) <= |x - y|_1 on every original arc, with phi(x_0) = 0.
Wanted flows are lifted too: each cell first matches its own atoms, then the
reduced arcs are split over the atoms of their cells.

Every solve ends with one certificate (``_certify``): the plan's flows are
>= 0 and have its supplies and demands as marginals, the duals satisfy
u_i + v_j <= |x_i - y_j|_1 on every original arc, and the plan's cost is
within 1e-9 (1 + |a u + b v|) + 1e-12 (1 + max |x - y|_1) of the dual value
a u + b v, which is reported.  Any feasible plan costs at least W1 and any
feasible duals give at most W1 (weak duality).  At d >= 2 the plan is the
reduced one plus the constant, whose lift is a plan between the original
atoms of that cost, and the duals are (phi, -phi).

The lift and the feasibility check are each one L1 envelope,
min_i (|e - s_i|_1 + w_i) at every point e of a set (``_l1_envelope``): psi
is minus the envelope of the supply cells with w = -u, and the duals are
feasible on all arcs iff the envelope of P's atoms with w = -u is at least
v on Q's atoms.  On a large pair whose grid of distinct coordinates is
small the envelope is an exact L1 distance transform on that grid, and no
matrix over the pair is formed.  Otherwise it takes the minima of the dense
matrix: on small pairs, and on large ones with many distinct coordinates,
where that matrix is still the size of the pair.  max |x - y|_1 comes from
the 2**d sign projections max_i s.x_i - min_j s.y_j where their table is
smaller than the m x n matrix.

At d = 1 no reduction and no simplex run: |x - y| on the sorted supports is
a Monge cost array, so the north-west-corner staircase of the same perturbed
supplies is an optimal basis (Hoffman, 1963), and its duals follow the
staircase from u[0] = 0 (``_north_west_corner``).  Its flows give the
monotone plan, and the certificate checks the staircase and its duals; on
the line the L1 envelope is a prefix and a suffix minimum over the sorted
supports.  ``start`` is not used there.

Truncated inputs are renormalized to unit mass before solving; the
``truncation_error`` field accounts for both the missing tail moment and the
renormalization displacement, so

    |value - d_W(untruncated laws)| <= truncation_error.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ParameterError
from .measures import LatticePmf, Point, _merge_index, merge_rows

# Reduced costs are exact integers; anything below this is a real violation.
_OPT_TOL = 1e-7
_VERIFY_TOL = 1e-9
# Arcs per numpy step of the start's sorted walk, doubling from the first to the
# last: early chunks, where most nodes run out, stay small so that few arcs of
# dead nodes pass the masks; later ones grow to bound numpy call overhead.
_START_CHUNK = (256, 8192)
# Arcs priced per numpy step, as whole rows of the cost matrix (at least one
# row): large enough that numpy call overhead no longer dominates pricing.
_PRICE_ARCS = 2048
# The L1 envelope (``_l1_envelope``) runs on the grid of distinct coordinates
# once the dense matrix would exceed this many entries and the grid holds at
# most 1/_GRID_SHARE of them; on smaller pairs numpy call overhead makes the
# dense matrix faster.
_DENSE_ENTRIES = 2**15
_GRID_SHARE = 8


@dataclass(frozen=True)
class DistanceResult:
    """A computed distance plus a rigorous truncation error interval; a W1
    solve also keeps its optimal column duals ``v`` on Q's stored atoms (in
    ``support_arrays`` order, with the first row dual 0), the ``start`` of a
    re-solve against the same Q."""

    value: float
    truncation_error: float
    flow: Optional[list[tuple[Point, Point, float]]] = None
    v: Optional[np.ndarray] = field(default=None, compare=False, repr=False)


class _SimplexFailure(RuntimeError):
    pass


def _l1_cost_matrix(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    cost = np.abs(xs[:, 0, None] - ys[:, 0])  # integer sums, one conversion
    for k in range(1, xs.shape[1]):
        cost += np.abs(xs[:, k, None] - ys[:, k])
    return cost.astype(float)


def _grid_axes(src: np.ndarray, at: np.ndarray):
    """Per axis, the distinct coordinates of the points of ``src`` and ``at``
    and each point's index into them (``src``'s first)."""
    return [np.unique(coords, return_inverse=True) for coords in np.concatenate([src, at]).T]


def _envelope_grid(src: np.ndarray, at: np.ndarray):
    """The size rule of ``_l1_envelope``: its grid (``_grid_axes``) when the
    dense matrix would exceed ``_DENSE_ENTRIES`` entries and the grid holds at
    most 1/``_GRID_SHARE`` of them, else None (the dense matrix)."""
    entries = len(src) * len(at)
    if entries <= _DENSE_ENTRIES:
        return None
    axes = _grid_axes(src, at)
    return axes if _GRID_SHARE * math.prod(len(c) for c, _ in axes) <= entries else None


def _l1_envelope(src: np.ndarray, values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """min_i (|e - src_i|_1 + values_i) at each point e of ``at``, for
    distinct points ``src``.

    Small pairs take the column minima of the dense |src| x |at| matrix.
    Large ones (``_envelope_grid``) take the separable L1 distance transform
    (Felzenszwalb and Huttenlocher, *Theory of Computing*, 2012) on the grid
    of distinct coordinates per axis, which holds every point of both sets:
    ``values`` on the cells of ``src``, +inf elsewhere, then per axis k with
    sorted coordinates c one forward pass c + cummin(g - c) and one backward
    pass -c + reverse cummin(g + c), and the smaller of the two.  After axis k
    each cell holds the minimum over the cells that differ from it on axes
    0..k only, so after the last one over all of ``src``.  With integer
    inputs below 2**53 every sum is exact, so each minimum is bitwise the
    dense one; as there, a zero is +0.0, since each pass ends on a sum with c."""
    axes = _envelope_grid(src, at)
    if axes is None:
        return (_l1_cost_matrix(src, at) + values[:, None]).min(axis=0)
    shape = tuple(len(c) for c, _ in axes)
    cell = axes[0][1]
    for c, index in axes[1:]:
        cell = cell * len(c) + index  # row-major index into the grid
    g = np.full(math.prod(shape), np.inf)
    g[cell[: len(src)]] = values
    g = g.reshape(shape)
    for k, (c, _) in enumerate(axes):
        c = c.reshape((-1,) + (1,) * (len(shape) - 1 - k))  # along axis k
        back = (slice(None),) * k + (slice(None, None, -1),)
        down = np.minimum.accumulate((g + c)[back], axis=k)[back]
        down -= c
        g = np.minimum.accumulate(g - c, axis=k)
        g += c
        np.minimum(g, down, out=g)
    return g.reshape(-1)[cell[len(src):]]


@functools.cache
def _sign_vectors(d: int) -> np.ndarray:
    """The 2**d vectors of {-1, 1}^d as rows of a read-only float64 array:
    products with integer points then run in BLAS, exactly below 2**53."""
    signs = 1.0 - 2.0 * ((np.arange(2**d)[:, None] >> np.arange(d)) & 1)
    signs.setflags(write=False)
    return signs


def _l1_diameter(xs: np.ndarray, ys: np.ndarray) -> float:
    """max |x_i - y_j|_1 over all pairs, an exact integer: the largest
    max_i s.x_i - min_j s.y_j over the 2**d sign vectors s where their
    (2**d, m + n) table is smaller than the m x n matrix, else the largest
    entry of that matrix."""
    m, d = xs.shape
    n = len(ys)
    if 2**d * (m + n) <= m * n:
        signs = _sign_vectors(d)
        return float(((signs @ xs.T).max(axis=1) - (signs @ ys.T).min(axis=1)).max())
    return float(_l1_cost_matrix(xs, ys).max())


def _perturb(a: np.ndarray, b: np.ndarray):
    """Tie-breaking perturbation of the supplies, removed again before the
    final flow solve."""
    m = len(a)
    eps0 = 1e-13 / (m + 1)
    a_p = a + eps0 * np.arange(1, m + 1)
    return a_p, b * (a_p.sum() / b.sum())


def _initial_basis(a: np.ndarray, b: np.ndarray, cost: np.ndarray, start: Optional[np.ndarray] = None):
    """Least-cost (matrix-minimum) start.

    Arcs are visited once in increasing cost order (ties by row-major index).
    Given column duals v = ``start`` (rounded to integers), they are visited
    in increasing order of the reduced cost c_ij - u0_i - v_j against the
    c-transform u0_i = min_j (c_ij - v_j), then of cost, then of index.  Each
    arc whose row and column both still have supply carries
    min(remaining row supply, remaining column demand).  Every allocation
    exhausts at least one of its two nodes, so the arcs form a forest, and with
    perturbed (tie-free) supplies exactly m + n - 1 of them: a spanning tree.
    An allocation that exhausts both nodes at once leaves fewer arcs; the same
    order is then walked again, adding zero-flow arcs that join two distinct
    components, until the tree spans.

    Remaining supplies are Python floats; live-row and live-column masks,
    cleared as nodes run out, drop dead arcs from each chunk of the order.
    """
    m, n = cost.shape
    need = m + n - 1
    rem_a, rem_b = a.tolist(), b.tolist()
    live_a, live_b = a > 0.0, b > 0.0
    key = cost
    if start is not None:
        # reduced costs c - u0 - v (>= 0: the pair is dual feasible), then cost
        key = cost - np.rint(start)
        key -= key.min(axis=1, keepdims=True)
        key *= cost.max() + 1.0
        key += cost
    # keys are nonnegative integers: the smallest dtype that holds them gives
    # the same stable order as float64, several times faster
    order = np.argsort(key.astype(np.min_scalar_type(int(key.max()))), axis=None, kind="stable")
    flows: dict[tuple[int, int], float] = {}
    for i, j in _sorted_arcs(order, n, lambda rows, cols: live_a[rows] & live_b[cols]):
        ra, rb = rem_a[i], rem_b[j]
        if ra <= 0.0 or rb <= 0.0:
            continue
        take = min(ra, rb)
        flows[(i, j)] = take
        rem_a[i] = ra = ra - take
        rem_b[j] = rb = rb - take
        if len(flows) == need:
            return flows
        live_a[i], live_b[j] = ra > 0.0, rb > 0.0
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
    """Arcs (i, j) of the flat cost ``order``, in ``_START_CHUNK`` chunks;
    ``keep(rows, cols)`` masks each chunk when it is reached, so it sees the
    state left by the arcs before it and only candidates reach Python."""
    lo, size = 0, _START_CHUNK[0]
    while lo < len(order):
        rows, cols = np.divmod(order[lo : lo + size], n)
        live = keep(rows, cols)
        yield from zip(rows[live].tolist(), cols[live].tolist())
        lo, size = lo + size, min(2 * size, _START_CHUNK[1])


def _tree_structure(flows, m: int, n: int, cost: np.ndarray):
    """The basis tree of ``flows`` rooted at node 0 (rows are nodes 0..m-1,
    columns m..m+n-1): adjacency sets, and per node its parent, depth and the
    flow on the arc to its parent, found by one BFS; plus the exact duals with
    u[0] = 0."""
    adj: list[set[int]] = [set() for _ in range(m + n)]
    for (i, j) in flows:
        adj[i].add(m + j)
        adj[m + j].add(i)
    parent: list = [None] * (m + n)  # None: not reached yet
    parent[0] = -1
    depth = [0] * (m + n)
    pflow = [0.0] * (m + n)
    u = np.zeros(m)
    v = np.zeros(n)
    order = [0]
    for node in order:
        for nb in adj[node]:
            if parent[nb] is not None:
                continue
            parent[nb] = node
            depth[nb] = depth[node] + 1
            if nb >= m:
                pflow[nb] = float(flows[(node, nb - m)])
                v[nb - m] = cost[node, nb - m] - u[node]
            else:
                pflow[nb] = float(flows[(nb, node - m)])
                u[nb] = cost[nb, node - m] - v[node - m]
            order.append(nb)
    if len(order) < m + n:
        raise _SimplexFailure("basis graph is not a spanning tree")
    return adj, parent, depth, pflow, u, v


def _cycle_path(parent, depth, i_node: int, j_node: int):
    """The tree path between the endpoints of an entering arc as two branches:
    the nodes from j_node and from i_node up to, not including, their lowest
    common ancestor.  Each node stands for the tree arc to its parent, so the
    path j_node .. LCA .. i_node is the first branch followed by the second
    one reversed."""
    up_i, up_j = [], []
    while depth[i_node] > depth[j_node]:
        up_i.append(i_node)
        i_node = parent[i_node]
    while depth[j_node] > depth[i_node]:
        up_j.append(j_node)
        j_node = parent[j_node]
    while i_node != j_node:
        up_i.append(i_node)
        i_node = parent[i_node]
        up_j.append(j_node)
        j_node = parent[j_node]
    return up_j, up_i


def _bland_streak_limit(m: int, n: int) -> int:
    """Degenerate pivots in a row after which Bland's rule takes over."""
    return m + n


def _transportation_simplex(a: np.ndarray, b: np.ndarray, cost: np.ndarray,
                            start: Optional[np.ndarray] = None):
    """Solve min <cost, f> over f >= 0 with row sums a and column sums b.

    Returns the optimal basis tree as arrays (rows, cols, flow), with flows
    for the *unperturbed* supplies, and the duals u, v.  Supplies are
    perturbed internally to keep pivots nondegenerate; the optimal basis and
    duals are unaffected by supplies.  Column duals ``start`` only order the
    least-cost start (``_initial_basis``).

    Pricing walks the rows in cyclic blocks of ``max(1, _PRICE_ARCS // n)``
    rows: one numpy step forms a block's reduced costs ``cost[r0:r1] -
    u[r0:r1, None] - v`` and the block's most negative one enters (Dantzig's
    rule within the block).  The block's violating arcs are kept as a
    candidate list of (rows, cols) arrays: the next pivots re-price only the
    candidates, drop those that no longer violate and enter the most negative
    one left, and the next block after the last one priced is priced only
    once the list is empty.  A full wrap of ``ceil(m / rows)`` blocks with no
    violation ends the solve; the candidate list never does.  After more than
    m + n degenerate pivots in a row, Bland's rule takes over for the rest of
    the solve: the candidate list is cleared and not used again, and every
    pivot prices from row 0 and takes the first violating arc in row-major
    order, which rules out cycling.

    The basis tree is rooted at row 0 and held once: per node its parent,
    depth and the flow on the arc to its parent (``pflow``), plus adjacency
    sets.  A pivot walks the cycle as two branches up to the lowest common
    ancestor; the first minimum-flow backward arc in j* .. LCA .. i* order
    leaves, named by its child node.  Parents and ``pflow`` are reversed
    along the branch segment from the entering endpoint to that child, which
    re-hangs the cut-off subtree under the other endpoint; one walk of the
    subtree then sets its depths and shifts its duals by the entering arc's
    reduced cost, so per-pivot work is O(cycle + subtree).  Costs are
    integers, hence the duals stay exact integers throughout and the
    optimality test is free of rounding.
    """
    m, n = cost.shape
    adj, parent, depth, pflow, u, v = _tree_structure(_initial_basis(*_perturb(a, b), cost, start), m, n, cost)
    # negated row duals, then column duals: a pivot shifts a whole subtree by
    # one step, and c - u - v is bitwise c + (-u) - v
    pot = np.concatenate([-u, v])
    neg_u, v = pot[:m], pot[m:]
    rows_per_block = max(1, _PRICE_ARCS // n)
    pos = 0  # first row of the next block to price
    cand_i = cand_j = np.empty(0, dtype=np.intp)  # candidate list: violating arcs of the last block
    max_iters = 200 * (m + n) + 10_000
    streak_limit = _bland_streak_limit(m, n)
    degenerate_streak = 0
    bland = False
    for _ in range(max_iters):
        if degenerate_streak > streak_limit:
            bland = True  # anti-cycling fallback, for the rest of the solve
            cand_i = cand_j = cand_i[:0]
        if bland:
            pos = 0  # Bland's rule: the first violating arc in row-major order
        entering = None
        if len(cand_i):  # --- re-price the candidate list ------------------
            red = cost[cand_i, cand_j] + neg_u[cand_i] - v[cand_j]
            live = red < -_OPT_TOL
            cand_i, cand_j, red = cand_i[live], cand_j[live], red[live]
            if len(red):
                k = int(np.argmin(red))
                entering = (int(cand_i[k]), m + int(cand_j[k]))  # row node, column node
                delta = float(red[k])
        if entering is None:  # --- cyclic row-block pricing (Dantzig within each block)
            for _ in range(-(-m // rows_per_block)):
                lo, hi = pos, min(pos + rows_per_block, m)
                pos = hi % m
                red = cost[lo:hi] + neg_u[lo:hi, None] - v
                k = int(np.argmin(red))
                if red.flat[k] < -_OPT_TOL:
                    if bland:
                        k = int((red < -_OPT_TOL).argmax())  # first violating arc
                    else:
                        cand_i, cand_j = np.divmod(np.flatnonzero(red < -_OPT_TOL), n)
                        cand_i += lo
                    entering = (lo + k // n, m + k % n)  # row node, column node
                    delta = float(red.flat[k])
                    break
            else:
                break  # a full wrap found no violating arc: optimal
        ei, ej = entering
        up_j, up_i = _cycle_path(parent, depth, ei, ej)
        # arcs alternate -, +, -, ... from either endpoint; the first minimum
        # of the backward arcs in j* .. LCA .. i* order leaves
        theta = math.inf
        leave = None
        for branch, nodes in ((up_j, up_j[::2]), (up_i, up_i[::2][::-1])):
            for node in nodes:
                if pflow[node] < theta:
                    theta, leave, cut = pflow[node], node, branch
        if leave is None:
            raise _SimplexFailure("no leaving arc found on pivot cycle")
        for branch in (up_j, up_i):
            for node in branch[::2]:
                pflow[node] -= theta
            for node in branch[1::2]:
                pflow[node] += theta
        # --- tree update ---------------------------------------------------
        # The leaving arc cuts off the subtree of `leave`, which holds the
        # entering endpoint q that starts its branch; reversing the segment
        # q .. leave hangs that subtree under the other endpoint p.
        q, p = (ej, ei) if cut is up_j else (ei, ej)
        old = parent[leave]
        adj[leave].discard(old)
        adj[old].discard(leave)
        adj[q].add(p)
        adj[p].add(q)
        seg = cut[: cut.index(leave) + 1]
        for node, par, f in zip(seg, [p] + seg[:-1], [theta] + [pflow[x] for x in seg[:-1]]):
            parent[node] = par
            pflow[node] = f
        depth[q] = depth[p] + 1
        sub = [q]
        for node in sub:
            par = parent[node]
            dn = depth[node] + 1
            for nb in adj[node]:
                if nb != par:
                    depth[nb] = dn
                    sub.append(nb)
        # duals: subtree nodes of q's type shift by +delta, the others by -delta
        pot[sub] -= delta if q < m else -delta
        degenerate_streak = degenerate_streak + 1 if theta <= 0.0 else 0
    else:
        raise _SimplexFailure(f"no convergence within {max_iters} pivots")
    # final flows from the *original* supplies: subtree sums, deepest first
    net = np.concatenate([a, -b]).tolist()
    for node in sorted(range(1, m + n), key=depth.__getitem__, reverse=True):
        net[parent[node]] += net[node]
    node = np.arange(1, m + n)
    par = np.array(parent[1:])
    is_row = node < m
    flow = np.array(net[1:])
    return (np.where(is_row, node, par), np.where(is_row, par, node) - m,
            np.where(is_row, flow, -flow), -neg_u, v)


def _north_west_corner(a: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray):
    """The optimal basis of a d = 1 problem on the sorted supports x and y, in
    the form ``_transportation_simplex`` returns: arrays (rows, cols, flow) and
    duals u, v.

    |x - y| on sorted supports is a Monge cost array, so the north-west-corner
    rule is optimal (Hoffman, 1963).  Its basis is the staircase from arc (0, 0)
    to (m - 1, n - 1) that merges the interior cumulative sums of the
    ``_perturb`` supplies: each step moves to the next row or column, whichever
    sum comes first (the column on a tie, which adds a zero-flow arc).  Arc k
    carries the unperturbed mass between the (k - 1)-th and k-th sums of that
    merge.  The duals follow the staircase from u[0] = 0: a row step sets
    u_i = c_ij - v_j and a column step v_j = c_ij - u_i, exact integer sums.
    Where the perturbed problem is nondegenerate they are its only optimal
    duals, so the simplex ends with the same ones."""
    a_p, b_p = _perturb(a, b)
    n = len(b)
    steps = np.concatenate([b_p.cumsum()[:-1], a_p.cumsum()[:-1]]).argsort(kind="stable")
    row_step = steps >= n - 1
    rows = np.zeros(len(steps) + 1, dtype=np.intp)
    row_step.cumsum(out=rows[1:])
    cols = np.arange(len(rows)) - rows  # each step moves one of the two
    sums = np.concatenate([[0.0], np.concatenate([b.cumsum()[:-1], a.cumsum()[:-1]])[steps], [a.sum()]])
    flow = sums[1:] - sums[:-1]
    arc_cost = np.abs(x[rows] - y[cols])
    rise = arc_cost[1:] - arc_cost[:-1]  # c at a step's arc minus c at the arc before it
    u, v = np.zeros(len(a)), np.zeros(n)
    rise[row_step].cumsum(out=u[1:])
    rise[~row_step].cumsum(out=v[1:])
    v += arc_cost[0]
    return rows, cols, flow, u, v


def _certify(xs, a, ys, b, u, v, plan, primal: float) -> float:
    """The certificate of a W1 solve between atoms xs and ys of masses a and
    b (see the module docstring): a plan (rows, cols, flow, supply, demand),
    duals u, v on the atoms and the plan's cost ``primal`` between them.
    Returns the certified value a @ u + b @ v."""
    rows, cols, flow, supply, demand = plan
    if (flow < -1e-9).any():
        k = int(np.argmax(flow < -1e-9))
        raise _SimplexFailure(f"negative basic flow {flow[k]} on arc {(int(rows[k]), int(cols[k]))}")
    for index, mass in ((rows, supply), (cols, demand)):
        if np.abs(np.bincount(index, flow, len(mass)) - mass).max(initial=0.0) > 1e-8:
            raise _SimplexFailure("flow marginals do not match the inputs")
    if (_l1_envelope(xs, -u, ys) - v).min() < -_OPT_TOL:
        raise _SimplexFailure("dual infeasible on the original atoms")
    dual = float(a @ u + b @ v)
    if abs(primal - dual) > _VERIFY_TOL * (1.0 + abs(dual)) + 1e-12 * (1.0 + _l1_diameter(xs, ys)):
        raise _SimplexFailure(f"duality gap {primal - dual:.3e}")
    return max(dual, 0.0)


def _reduced_w1(xs, a, ys, b, start: Optional[np.ndarray], want_flow: bool):
    """W1 at d >= 2 through the reduced pair (see the module docstring).

    Returns what ``_certify`` checks: the duals phi and -phi on P's and Q's
    atoms, the reduced plan (rows, cols, flow, supply, demand) and its cost
    plus the constant; and, with ``want_flow``, the lifted plan as arrays
    (rows, cols, flow) on the original atoms, else None.  A ``start`` maps
    onto a demand cell as rint(v_y) - e(y) of a Q atom y clipped into it."""
    m = len(a)
    both = np.concatenate([xs, ys])
    hi = np.minimum(xs.max(axis=0), ys.max(axis=0))
    lo = np.minimum(np.maximum(xs.min(axis=0), ys.min(axis=0)), hi)  # disjoint: collapse onto hi
    clipped = np.clip(both, lo, hi)
    excess = np.abs(both - clipped).sum(axis=1)
    cells, cell = _merge_index(clipped)  # the distinct clipped points; each atom's index into them
    net = np.bincount(cell, np.concatenate([a, -b]), len(cells))
    src, dst = np.flatnonzero(net > 0.0), np.flatnonzero(net < 0.0)
    supply, demand = net[src], -net[dst]
    psi, primal = np.zeros(len(cells)), 0.0
    rows = cols = np.empty(0, dtype=np.intp)
    flow = np.empty(0)
    if len(src) and len(dst):  # else everything cancelled: W1 is the constant
        cost = _l1_cost_matrix(cells[src], cells[dst])
        if start is not None:
            rep = np.empty(len(cells), dtype=np.intp)
            rep[cell[m:]] = np.arange(len(b))
            start = np.rint(start[rep[dst]]) - excess[m + rep[dst]]
        rows, cols, flow, u, _ = _transportation_simplex(supply, demand, cost, start)
        primal = float(cost[rows, cols] @ flow)
        psi = 0.0 - _l1_envelope(cells[src], -u, cells)  # 0.0 - keeps a zero potential +0.0
    phi = psi[cell]
    phi[:m] += excess[:m]
    phi[m:] -= excess[m:]
    phi -= phi[0]
    offset = float(a @ excess[:m] + b @ excess[m:])
    lifted = None
    if want_flow:
        shared = [(c, c, math.inf) for c in range(len(cells))]
        moved = zip(src[rows].tolist(), dst[cols].tolist(), flow.tolist())
        lifted = _lift_plan(cell[:m], cell[m:], a, b, shared + list(moved))
    return phi[:m], -phi[m:], (rows, cols, flow, supply, demand), primal + offset, lifted


def _lift_plan(cell_p, cell_q, a, b, arcs):
    """A plan between the original atoms from a plan between cells.

    Each cell queues its atoms of P and of Q in index order with their masses.
    Each cell arc (source cell, target cell, mass) of ``arcs`` in turn takes
    its mass from the two cells' queues where they stand, north-west corner;
    the arcs (c, c, inf) that come first match each cell's own atoms until one
    side runs out: the mass both laws put on the cell.  An atom arc (x, y)
    costs |clip x - clip y|_1 + e(x) + e(y) = |x - y|_1, so the plan costs the
    reduced primal plus the constant.  Returns arrays (rows, cols, flow)."""
    queues = (defaultdict(deque), defaultdict(deque))
    for side, cells, mass in ((0, cell_p, a), (1, cell_q, b)):
        for atom, (c, w) in enumerate(zip(cells.tolist(), mass.tolist())):
            queues[side][c].append([atom, w])
    out = []
    for i, j, mass in arcs:
        p, q = queues[0][i], queues[1][j]
        while p and q and mass > 0.0:
            x, y = p[0], q[0]
            take = min(x[1], y[1], mass)
            out.append((x[0], y[0], take))
            mass -= take
            x[1] -= take
            y[1] -= take
            if x[1] <= 0.0:
                p.popleft()
            if y[1] <= 0.0:
                q.popleft()
    rows, cols, flow = np.array(out, dtype=float).reshape(-1, 3).T
    return rows.astype(np.intp), cols.astype(np.intp), flow


def _check_pair(P: LatticePmf, Q: LatticePmf) -> None:
    if P.dim != Q.dim:
        raise ParameterError(f"dimension mismatch: {P.dim} vs {Q.dim}")
    if not len(P.probs) or not len(Q.probs):
        raise ParameterError("empty support")


def wasserstein_l1(P: LatticePmf, Q: LatticePmf, want_flow: bool = False,
                   start: Optional[np.ndarray] = None) -> DistanceResult:
    """Exact W_1 distance (1-norm ground metric) between the stored supports.

    Stored atoms are renormalized to unit mass; the reported
    ``truncation_error`` covers both tails and the renormalization:
    tail_moment(P) + tail_moment(Q) + (tail_mass(P) + tail_mass(Q)) * diam,
    with diam the largest |x|_1 over both stored supports.

    ``start``, column duals on Q's stored atoms (``DistanceResult.v`` of an
    earlier solve against the same Q), orders the starting basis of a
    re-solve, e.g. for a bootstrap replicate whose support is a subset of the
    estimate's.  At d >= 2 it is mapped onto the reduced pair's demand cells.
    It changes the pivots, not the optimum: the value is certified by the same
    check as a cold solve.  At d = 1 the basis is the north-west-corner
    staircase and ``start`` is only checked.

    ``DistanceResult.v`` holds -phi on Q's stored atoms, for the potential
    phi of the certificate (at d = 1, the staircase's column duals).
    """
    _check_pair(P, Q)
    xs, pa = P.support_arrays()
    ys, qb = Q.support_arrays()
    a = pa / pa.sum()
    b = qb / qb.sum()
    if start is not None:
        start = np.asarray(start, dtype=np.float64)
        # below 2**52 the rounded start and its reduced costs are exact integers
        if start.shape != (len(b),) or not (np.abs(start) < 2.0**52).all():
            raise ParameterError(f"start needs {len(b)} column duals below 2**52 in magnitude, got shape {start.shape}")
    if P.dim == 1:
        x, y = xs[:, 0], ys[:, 0]
        rows, cols, flow, u, v = _north_west_corner(a, b, x, y)
        plan, primal = (rows, cols, flow, a, b), float(np.abs(x[rows] - y[cols]) @ flow)
    else:
        u, v, plan, primal, lifted = _reduced_w1(xs, a, ys, b, start, want_flow)
        if want_flow:
            rows, cols, flow = lifted
    value = _certify(xs, a, ys, b, u, v, plan, primal)
    diam = float(max(xs.sum(axis=1).max(), ys.sum(axis=1).max()))
    trunc = P.tail_moment + Q.tail_moment + (P.tail_mass + Q.tail_mass) * diam
    flow_list = None
    if want_flow:
        arcs = np.lexsort((cols, rows))
        arcs = arcs[flow[arcs] > 0.0]
        flow_list = [
            (tuple(xs[i].tolist()), tuple(ys[j].tolist()), f)
            for i, j, f in zip(rows[arcs].tolist(), cols[arcs].tolist(), flow[arcs].tolist())
        ]
    return DistanceResult(value=value, truncation_error=trunc, flow=flow_list, v=v)


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
