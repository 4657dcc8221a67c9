"""Tensorized Gauss-Legendre quadrature with interval subdivision.

Integrals here are at most two-dimensional (shipped models keep it that way).
The driver subdivides each axis dyadically until the difference between two
successive refinement levels meets ``REL_TOL * |value| + ABS_TOL``; that
difference is returned as the reported error bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

REL_TOL = 1e-8
ABS_TOL = 1e-12
_GL_ORDER = 16


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_bound: float


def _panel_nodes(lo: np.ndarray, hi: np.ndarray, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """GL nodes/weights on each axis split into ``panels`` equal panels."""
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    dim = len(lo)
    axis_nodes, axis_weights = [], []
    for k in range(dim):
        edges = np.linspace(lo[k], hi[k], panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        weights = (half[:, None] * w[None, :]).ravel()
        axis_nodes.append(nodes)
        axis_weights.append(weights)
    return axis_nodes, axis_weights


def _tensor_integral(f, axis_nodes, axis_weights) -> float:
    dim = len(axis_nodes)
    if dim == 1:
        vals = f(axis_nodes[0][:, None])
        return float(np.dot(np.asarray(vals, dtype=float), axis_weights[0]))
    if dim == 2:
        gx, gy = np.meshgrid(axis_nodes[0], axis_nodes[1], indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        vals = np.asarray(f(pts), dtype=float).reshape(gx.shape)
        return float(axis_weights[0] @ vals @ axis_weights[1])
    raise QuadratureError(f"tensor quadrature supports dim <= 2, got {dim}")


def integrate_box(
    f: Callable[[np.ndarray], np.ndarray],
    lo: Sequence[float],
    hi: Sequence[float],
    max_level: int = 9,
) -> QuadResult:
    """Integrate ``f`` over the box [lo, hi].

    ``f`` receives an (n, dim) array of points and returns n values.  Raises
    QuadratureError when the refinement stalls above the tolerance.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    prev = _tensor_integral(f, *_panel_nodes(lo, hi, 1))
    for level in range(1, max_level + 1):
        cur = _tensor_integral(f, *_panel_nodes(lo, hi, 2**level))
        err = abs(cur - prev)
        if err <= REL_TOL * abs(cur) + ABS_TOL:
            return QuadResult(cur, err)
        prev = cur
    raise QuadratureError(
        f"quadrature did not reach tol={REL_TOL:g}|I|+{ABS_TOL:g} after {max_level} refinements "
        f"(last error estimate {err:.3e})"
    )

