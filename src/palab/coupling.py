"""Coupling-based Poisson approximation bounds for random vectors.

Covers three layers:

  * explicit coupling tables (the joint law of (X_{1:i}, Z^{(i)})) and the
    q-term functional they induce,
  * the resulting distance bound and its improved variant, plus a size-bias
    defect report,
  * m-dependent Bernoulli vector arrays with a shipped window sampler whose
    marginals and pairwise moments have closed forms, giving exact Q factors
    and the m-dependent bound.

All bound evaluations fix their summation order (k outer, i inner, r
innermost, exactly rounded outer sum) so values reproduce bitwise across
platforms; the independent-rows bound is the m = 0 instance of the same
kernel, which makes the two agree bitwise by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import streams
from .errors import ContractError, ParameterError
from .measures import LatticePmf, PoissonVectorParams, bernoulli_rows, merge_rows

MARGINAL_TOL = 1e-12


# ---------------------------------------------------------------------------
# coupling tables and q-terms
# ---------------------------------------------------------------------------

class CouplingTable:
    """Joint law of (X_{1:i}, Z^{(i)}) as read-only arrays: probability
    ``p[k]`` sits on (``x[k]``, ``z[k]``), with x in N_0^i and z in Z^i.

    Rows of probability 0 are dropped; repeated rows are allowed and add up.
    """

    __slots__ = ("x", "z", "p")

    def __init__(self, x, z, p):
        x = np.asarray(x, dtype=np.int64)
        z = np.asarray(z, dtype=np.int64)
        p = np.asarray(p, dtype=float)
        if x.ndim != 2 or x.shape[1] < 1 or z.shape != x.shape or p.shape != (len(x),):
            raise ParameterError(f"x and z must be (n, i) arrays and p an (n,) array, "
                                 f"got {x.shape}, {z.shape}, {p.shape}")
        if (x < 0).any():
            raise ParameterError(f"x part must lie in N_0^{x.shape[1]}")
        if not (p >= 0.0).all():
            raise ParameterError("negative joint probability")
        keep = p > 0.0
        x, z, p = x[keep], z[keep], p[keep]
        total = float(p.sum())
        if abs(total - 1.0) > MARGINAL_TOL:
            raise ParameterError(f"joint probabilities sum to {total}, not 1")
        x.flags.writeable = z.flags.writeable = p.flags.writeable = False
        self.x, self.z, self.p = x, z, p

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @staticmethod
    def from_deterministic_z(
        x_law: LatticePmf, z_of_x: Callable[[np.ndarray], np.ndarray]
    ) -> "CouplingTable":
        """Coupling with Z a deterministic function of X (Z == 0, Z == -X, ...):
        ``z_of_x`` maps the (n, i) point array of ``x_law`` to an (n, i) int array."""
        return CouplingTable(x_law.points, z_of_x(x_law.points), x_law.probs)

    def check_marginal(self, X: LatticePmf) -> None:
        if X.dim != self.dim:
            raise ContractError(f"coupling dim {self.dim} vs X dim {X.dim}")
        _, diff = merge_rows(np.concatenate([self.x, X.points]), np.concatenate([self.p, -X.probs]))
        worst = float(np.abs(diff).max())
        if worst > MARGINAL_TOL + X.tail_mass:
            raise ContractError(f"coupling marginal deviates from X by {worst:.3e}")


def q_terms_from_coupling(
    X: LatticePmf, lambda_i: float, coupling: CouplingTable
) -> tuple[np.ndarray, np.ndarray]:
    """q^{(i)}_m = m_i P(X_{1:i} = m) - lambda_i P(X_{1:i} + Z^{(i)} = (m_{1:i-1}, m_i - 1)),
    evaluated exactly from the joint table: the points m of nonzero value (all
    with m_i >= 1) in lexicographic order, and their values.

    ``X`` is the law of the first i coordinates and must agree with the
    coupling's X-marginal.  Couplings under which X + Z exits N_0^i are
    accepted; exited atoms simply cannot be hit by any admissible m.
    """
    coupling.check_marginal(X)
    if lambda_i < 0:
        raise ParameterError("lambda_i must be >= 0")
    shifted, p_shifted = merge_rows(coupling.x + coupling.z, coupling.p)
    inside = (shifted >= 0).all(axis=1)  # no m maps onto an atom outside N_0^i
    m = shifted[inside]
    m[:, -1] += 1
    hit = X.points[:, -1] >= 1
    points, values = merge_rows(
        np.concatenate([X.points[hit], m]),
        np.concatenate([X.points[hit, -1] * X.probs[hit], -lambda_i * p_shifted[inside]]),
    )
    nonzero = values != 0.0
    return points[nonzero], values[nonzero]


def coupling_vector_bound(
    lambdas: PoissonVectorParams,
    couplings: list[CouplingTable],
    improved: bool = False,
) -> float:
    """Wasserstein bound from one coupling per coordinate:

        sum_i [ lambda_i E|Z_i| + 2 lambda_i sum_{j<i} E|Z_j| + sum_m |q^{(i)}_m| ]

    With ``improved`` the middle term becomes 2 lambda_i P(Z_{1:i-1} != 0),
    which never exceeds the plain variant.
    """
    d = lambdas.dim
    if len(couplings) != d:
        raise ParameterError(f"need one coupling per coordinate: got {len(couplings)} for d={d}")
    total = []
    for i, coupling in enumerate(couplings, start=1):
        if coupling.dim != i:
            raise ParameterError(f"coupling {i} has dim {coupling.dim}, expected {i}")
        lam = lambdas.lambdas[i - 1]
        marg = LatticePmf.from_arrays(i, *merge_rows(coupling.x, coupling.p))
        _, q = q_terms_from_coupling(marg, lam, coupling)
        # E|Z_j| and P(Z_{1:i-1} != 0), summed in row order
        ez = np.cumsum(coupling.p[:, None] * np.abs(coupling.z), axis=0)[-1]
        if improved:
            middle = 2.0 * lam * sum(coupling.p[(coupling.z[:, :-1] != 0).any(axis=1)].tolist())
        else:
            middle = 2.0 * lam * float(ez[:-1].sum())
        total.append(lam * float(ez[-1]) + middle + math.fsum(np.abs(q).tolist()))
    return float(math.fsum(total))


@dataclass(frozen=True)
class SizeBiasReport:
    """Defects of the size-bias identity E[X_i f(X_{1:i})] = E[X_i] E[f(Y^(i))]
    over indicator test functions, plus the defects of its premises."""

    max_defect: float
    mean_defect: float   # max_i |E X_i - lambda_i|
    q_defect: float      # max_i sum_m |q^{(i)}_m|


def size_bias_check(
    X: LatticePmf,
    lambdas: PoissonVectorParams,
    couplings: list[CouplingTable],
) -> SizeBiasReport:
    """Check the approximate-size-bias reading of the coupling hypothesis.

    Y^(i) = (X_{1:i-1}, X_i + 1) + Z^(i); for each i the identity is tested
    against every indicator of a point in the union of supports.  Premise
    defects (nonzero q-terms, E[X_i] != lambda_i) are reported, not thrown.
    """
    d = X.dim
    if len(couplings) != d or lambdas.dim != d:
        raise ParameterError("need X, lambdas and couplings of matching dimension")
    worst = 0.0
    worst_mean = 0.0
    worst_q = 0.0
    for i, coupling in enumerate(couplings, start=1):
        xi_law = X.prefix_marginal(i)
        lam = lambdas.lambdas[i - 1]
        lhs = xi_law.points[:, -1] * xi_law.probs
        e_xi = float(sum(lhs.tolist()))
        worst_mean = max(worst_mean, abs(e_xi - lam))
        _, q = q_terms_from_coupling(xi_law, lam, coupling)
        worst_q = max(worst_q, math.fsum(np.abs(q).tolist()))
        y = coupling.x + coupling.z
        y[:, -1] += 1
        ys, p_y = merge_rows(y, coupling.p)
        # y_i P(X_{1:i} = y) - E[X_i] P(Y = y) at every y of either support
        _, defect = merge_rows(np.concatenate([xi_law.points, ys]), np.concatenate([lhs, -e_xi * p_y]))
        worst = max(worst, float(np.abs(defect).max()))
    return SizeBiasReport(max_defect=worst, mean_defect=worst_mean, q_defect=worst_q)


# ---------------------------------------------------------------------------
# m-dependent Bernoulli arrays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BernoulliArrayModel:
    """Array of n Bernoulli vectors in {0, e_1, ..., e_d} with dependence range m.

    Window-sampler families (measurable maps of m+1 shared uniforms):

      * ``sliding_min``: Y^(r) = e_j iff min(U_r, ..., U_{r+m}) falls in the
        per-(r, j) interval calibrated through P(min > s) = (1-s)^(m+1); exact
        marginals and exact pairwise expectations in closed form.
      * ``independent``: Y^(r) looks only at U_r, so the vectors are i.i.d.
        regardless of the declared m (an independent family embedded with
        m >= 1).
    """

    n: int
    d: int
    p: np.ndarray
    m: int
    family: str = "sliding_min"
    # per-row cut points t_{r,0..d} on the scale of the window statistic
    # (the window minimum for sliding_min, U_r otherwise); read-only
    thresholds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = bernoulli_rows(self.p, (self.n, self.d))
        if self.m < 0:
            raise ParameterError("dependence range m must be >= 0")
        if self.family not in ("sliding_min", "independent"):
            raise ParameterError(f"unknown window-sampler family {self.family!r}")
        object.__setattr__(self, "p", p)
        t = np.clip(np.concatenate([np.zeros((self.n, 1)), np.cumsum(p, axis=1)], axis=1), 0.0, 1.0)
        if self.family == "sliding_min":
            t = 1.0 - (1.0 - t) ** (1.0 / (self.m + 1))
        t.setflags(write=False)
        object.__setattr__(self, "thresholds", t)
        surv = (1.0 - t) ** (self.m + 1) if self.family == "sliding_min" else 1.0 - t
        worst = float(np.max(np.abs(surv[:, :-1] - surv[:, 1:] - p))) if self.n else 0.0
        if worst > MARGINAL_TOL:
            raise ContractError(f"window sampler marginals deviate from p by {worst:.3e}")

    def pair_expectation(self, k: int, r: int, i: int, j: int) -> float:
        """Exact E[1{Y^(k) = e_i} 1{Y^(r) = e_j}] (0-based indices all
        around), valid for k != r."""
        t = self.thresholds
        a1, b1 = t[k, i], t[k, i + 1]
        a2, b2 = t[r, j], t[r, j + 1]
        gap = abs(k - r)
        if self.family == "independent" or gap > self.m:
            return float(self.p[k, i] * self.p[r, j])
        alpha = gap
        beta = self.m + 1 - gap

        def surv2(s: float, u: float) -> float:
            return (1.0 - s) ** alpha * (1.0 - u) ** alpha * (1.0 - max(s, u)) ** beta

        return float(surv2(a1, a2) - surv2(b1, a2) - surv2(a1, b2) + surv2(b1, b2))


def _window_stats(model: BernoulliArrayModel, reps: int, seed: int) -> np.ndarray:
    """(reps, n) window statistics of n + m uniforms per repetition:
    min(U_r, ..., U_{r+m}) for sliding_min, U_r otherwise."""
    rng = streams.derive(seed, 0)
    u = rng.random((reps, model.n + model.m))
    stat = u[:, : model.n]
    if model.family == "sliding_min" and model.m:
        stat = stat.copy()
        for s in range(1, model.m + 1):  # one shifted slice at a time
            np.minimum(stat, u[:, s : s + model.n], out=stat)
    return stat


def sample_mdep_labels(model: BernoulliArrayModel, reps: int, seed: int) -> np.ndarray:
    """Labels in {0..d} for each (rep, index): 0 = zero vector, j = e_j.

    Draws n + m shared uniforms per repetition and applies the window sampler.
    """
    stat = _window_stats(model, reps, seed)
    # label = #{j >= 1 : t_{r,j} < stat}; stat in (t_{j-1}, t_j] maps to
    # e_j (0-based label j-1) and stat beyond t_d to the zero vector (d)
    return (stat[..., None] > model.thresholds[None, :, 1:]).sum(-1)


def sample_mdep_counts(model: BernoulliArrayModel, reps: int, seed: int) -> np.ndarray:
    """(reps, d) count vectors X = sum_r Y^(r) of ``sample_mdep_labels``' draws:
    G_k = #{r : stat_r > t_{r,k}} labels are >= k (G_0 = n), so e_j counts
    G_{j-1} - G_j, from the same comparisons as the labels."""
    stat = _window_stats(model, reps, seed)
    t = model.thresholds
    above = np.full((reps, model.d + 1), model.n, dtype=np.int64)
    for k in range(1, model.d + 1):
        above[:, k] = np.count_nonzero(stat > t[:, k], axis=1)
    return above[:, :-1] - above[:, 1:]


def q_factor(model: BernoulliArrayModel, k: int) -> float:
    """Q(k) = max over 1 <= |k-r| <= m and i, j of E[1{Y^(k)=e_i} 1{Y^(r)=e_j}]
    (1-based k), exact from the closed forms.  Empty index set (m = 0) gives 0."""
    if not 1 <= k <= model.n:
        raise ParameterError(f"k must be in 1..{model.n}")
    k0 = k - 1
    best = 0.0
    for r in range(max(0, k0 - model.m), min(model.n, k0 + model.m + 1)):
        if r != k0:
            for i in range(model.d):
                for j in range(model.d):
                    best = max(best, model.pair_expectation(k0, r, i, j))
    return best


def _mdep_first_term(p: np.ndarray, m: int) -> float:
    """First summand group of the m-dependent bound with the documented
    summation order: k outer, i inner, r innermost; exactly rounded sum over k."""
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


def corollary_bound(p: np.ndarray) -> float:
    """Independent-rows bound sum_k (sum_i p_{k,i})^2, evaluated through the
    m = 0 instance of the m-dependent kernel so the two agree bitwise."""
    return _mdep_first_term(bernoulli_rows(p), 0)


def mdep_bound(model: BernoulliArrayModel) -> float:
    """m-dependent bound:

        sum_k sum_i [ sum_{|r-k|<=m} p_{r,i} + 2 sum_{j<i} sum_{|r-k|<=m} p_{r,j} ] p_{k,i}
        + 2 d (d+1) m sum_k Q(k).
    """
    first = _mdep_first_term(model.p, model.m)
    if model.m == 0:
        return first
    q_sum = math.fsum(q_factor(model, k) for k in range(1, model.n + 1))
    return first + 2.0 * model.d * (model.d + 1) * model.m * q_sum
