"""Independent W1 oracle and benchmark-side helpers for its instances.

The oracle solves the transport LP densely with HiGHS, the route the test
suite's LP oracle takes, and shares no code with palab's network simplex.
Supplies are scaled by ``SUPPLY_SCALE`` before the solve and the optimum
divided by it afterwards: HiGHS feasibility tolerances are absolute (at best
1e-10), and on instances with ~1e5 arcs and unit total mass they allowed
objective errors above 1e-8.  Scaled, the same instances agree with the
simplex to ~1e-15.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from palab.measures import LatticePmf

SUPPLY_SCALE = 1e3
AGREEMENT = 1e-8


def highs_w1(P: LatticePmf, Q: LatticePmf) -> float:
    """W1 between the renormalized stored supports, by dense LP (HiGHS)."""
    xs, a = P.support_arrays()
    ys, b = Q.support_arrays()
    a = a / a.sum()
    b = b / b.sum()
    m, n = len(a), len(b)
    cost = np.abs(xs[:, None, :] - ys[None, :, :]).sum(axis=2).astype(float)
    var = np.arange(m * n)
    rows = np.concatenate([var // n, m + var % n])
    A_eq = sparse.csr_matrix((np.ones(2 * m * n), (rows, np.concatenate([var, var]))), shape=(m + n, m * n))
    # one balance constraint is redundant; dropping it keeps the system full rank
    res = linprog(
        cost.ravel(),
        A_eq=A_eq[:-1],
        b_eq=SUPPLY_SCALE * np.concatenate([a, b])[:-1],
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun) / SUPPLY_SCALE


def empirical(rows: np.ndarray) -> LatticePmf:
    """Relative frequencies of integer rows, counted with numpy rather than
    palab's own rows -> pmf path."""
    rows = np.asarray(rows, dtype=np.int64)
    points, counts = np.unique(rows, axis=0, return_counts=True)
    total = counts.sum()
    return LatticePmf(rows.shape[1], {tuple(int(v) for v in x): c / total for x, c in zip(points, counts)})


def box_counts(pattern, boxes) -> tuple[int, ...]:
    """Points of a pattern in each closed box, by vectorized membership."""
    if len(pattern) == 0:
        return (0,) * len(boxes)
    pts = np.asarray(pattern.points, dtype=float)
    out = []
    for box in boxes:
        inside = np.all((pts >= np.array(box.lows)) & (pts <= np.array(box.highs)), axis=1)
        out.append(int(inside.sum()))
    return tuple(out)
