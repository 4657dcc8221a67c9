"""Solution of Stein's equation for the Poisson distribution.

For a 1-Lipschitz g on 0..N the solution ghat with ghat(0) = 0 satisfies

    lambda * ghat(i+1) - i * ghat(i) = g(i) - E[g(P_lambda)] .

Run literally, the forward recursion multiplies any perturbation of the mean
by i/lambda per step, i.e. factorially over the range; in double precision it
destroys the solution a few steps past lambda.  Each direction is therefore
run only where it contracts, the classical rule for three-term recurrences
(Gautschi, SIAM Review 9, 1967).  With c = g - E g:

  * forward, ghat(i+1) = (i ghat(i) + c(i)) / lambda for i up to floor(lambda),
    where the factor i/lambda is at most 1, and
  * backward, ghat(i) = (lambda ghat(i+1) - c(i)) / i for i from N down to
    floor(lambda) + 1 (factor lambda/i < 1), from the constant extension's
    ghat(N+1) = -c(N) sum_{k>=1} w_k, w_1 = 1/(N+1), w_{k+1} = w_k lambda/(N+k+1):
    one scalar series per lambda, with no Poisson probabilities to underflow.

Beyond the table g is extended as the constant g(N) (any 1-Lipschitz extension
is admissible; the precondition below makes the choice irrelevant up to
``DEFAULT_EPS_TAIL``).  E[g(P_lambda)] is evaluated for that extended g
exactly up to rounding, so the magic-factor bounds survive at full range.

The solution map g -> ghat is linear (Barbour, Holst & Janson, Poisson
Approximation, 1992).  The telescoping check ``decomposition_check`` uses this:
it averages g over the independent Poisson suffix first, then makes one batched
solve per coordinate with one column per distinct prefix of X.  Those columns
are combinations of 1-Lipschitz sections with nonnegative weights summing to
at most 1, so they pass the solver's Lipschitz check like any other input.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ContractError, ParameterError
from .measures import LatticePmf, PoissonVectorParams, poisson_cut_law, poisson_law

LIPSCHITZ_TOL = 1e-12
DEFAULT_EPS_TAIL = 1e-13
# Poisson box of ``decomposition_check``: the mass it may leave outside
DEFAULT_EPS_BOX = 1e-12


def _columns(g) -> np.ndarray:
    """g as an (N+1, B) float table; a 1-D table over 0..N is one column."""
    g = np.asarray(g, dtype=float)
    if g.ndim not in (1, 2) or g.shape[0] == 0:
        raise ParameterError(f"g must be a table over 0..N of shape (N+1,) or (N+1, B), got shape {g.shape}")
    return g[:, None] if g.ndim == 1 else g


def column_checks(lam: float, g, ghat: np.ndarray, means: np.ndarray):
    """Per column of ``solve_stein_batch(lam, g)``, for the same g: the residual
    max_i |lambda*ghat(i+1) - i*ghat(i) - g(i) + E g| over 0..N, sup_i |ghat(i)|
    and sup_i |ghat(i+1) - ghat(i)| over 0..N+1, each of shape (B,)."""
    g = _columns(g)
    r = lam * ghat[1:]
    r -= np.arange(len(g))[:, None] * ghat[:-1]  # the row index, against every column
    r -= g - means
    return _sup_abs(r), _sup_abs(ghat), _sup_abs(np.diff(ghat, axis=0))


def _sup_abs(x: np.ndarray) -> np.ndarray:
    """max |x| per column, as max(max x, -min x) without an |x| array; the
    + 0.0 turns a zero maximum into +0.0, as |x| gives it."""
    sup = np.maximum(x.max(axis=0), -x.min(axis=0))
    sup += 0.0
    return sup


def check_lipschitz_1d(g: np.ndarray) -> None:
    """Reject g unless it is finite and each column g[:, j, ...] is 1-Lipschitz
    over 0..N; the message names the max increment of the first failing column."""
    if not np.isfinite(g).all():
        raise ContractError("g table holds non-finite entries")
    worst = np.abs(np.diff(g, axis=0)).max(axis=0, initial=0.0).ravel()
    bad = np.flatnonzero(worst > 1.0 + LIPSCHITZ_TOL)
    if bad.size:
        raise ContractError(f"g declared 1-Lipschitz but max increment is {float(worst[bad[0]])}")


def solve_stein_batch(lam: float, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized solve for columns of ``g`` (shape (N+1,) or (N+1, B)).

    Returns (ghat with shape (N+2, B), means with shape (B,)): forward
    recursion up to floor(lambda), then backward recursion, a contraction by
    lambda/i (Gautschi 1967), from the constant extension's value at N+1; each
    step is one row operation over all B columns.  Precondition: the Poisson
    tail beyond N contributes at most ``DEFAULT_EPS_TAIL`` to E[g(P_lambda)]
    given g's linear growth bound (checked exactly).
    """
    g = _columns(g)
    check_lipschitz_1d(g)
    return _solve_stein(lam, g)


def _solve_stein(lam: float, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``solve_stein_batch`` on an (N+1, B) table g whose Lipschitz check
    the caller has made: a sweep over lambda checks its g once."""
    n_max = g.shape[0] - 1
    if lam < 0 or not np.isfinite(lam):
        raise ParameterError(f"lambda must be finite and >= 0, got {lam}")
    pmf, sf = poisson_law(lam, n_max)
    # |E g_true(P) - E g_ext(P)| over 1-Lipschitz extensions of a table ending
    # at n is at most sum_{k>n} (k-n) pmf(k) = lam*P(P>=n) - n*P(P>n)
    if lam * (sf[n_max] + pmf[n_max]) - n_max * sf[n_max] > DEFAULT_EPS_TAIL:
        raise ParameterError(
            f"g table over 0..{n_max} too short to certify E[g(P_{lam:g})] within {DEFAULT_EPS_TAIL:g}"
        )
    means = pmf @ g + sf[n_max] * g[n_max]
    ghat = np.zeros((n_max + 2, g.shape[1]))
    if lam == 0.0:
        idx = np.arange(1, n_max + 1)
        ghat[1 : n_max + 1] = (g[0][None, :] - g[1:]) / idx[:, None]
        ghat[n_max + 1] = (g[0] - g[n_max]) / (n_max + 1)  # constant extension
    else:
        centered = g - means[None, :]
        mode = min(int(np.floor(lam)), n_max + 1)
        for i in range(mode):
            ghat[i + 1] = (i * ghat[i] + centered[i]) / lam
        if mode <= n_max:
            # ghat(N+1) = -c(N) sum_k w_k; as lam/j falls, the terms after w_k sum to at most w_{k+1}/(1 - lam/j)
            total, w = 0.0, 1.0 / (n_max + 1)
            for j in itertools.count(n_max + 2):
                total += w
                w *= lam / j
                if total + w / (1.0 - lam / j) == total:
                    break
            ghat[n_max + 1] = -centered[n_max] * total
            for i in range(n_max, mode, -1):
                ghat[i] = (lam * ghat[i + 1] - centered[i]) / i
    return ghat, means


def default_range(lam: float, support_need: int) -> int:
    """Solver-chosen recursion range: max(support need, lam + 12 sqrt(lam) + 50)."""
    return int(max(support_need, np.ceil(lam + 12.0 * np.sqrt(max(lam, 0.0)) + 50.0)))


def check_lipschitz_table(g: np.ndarray) -> None:
    """A table on a lattice box is 1-Lipschitz for |.|_1 iff every
    along-axis increment is at most 1 in absolute value."""
    for axis in range(g.ndim):
        check_lipschitz_1d(np.moveaxis(g, axis, 0))


def decomposition_check(X: LatticePmf, params: PoissonVectorParams, g: np.ndarray) -> float:
    """Residual of the telescoping decomposition

        E[g(P) - g(X)] = sum_i E[ X_i ghat_i(X_i) - lambda_i ghat_i(X_i + 1) ]

    with ghat_i the Stein solution for the section of g at (X_{1:i-1}, ., P_{i+1:d}),
    for X independent of P, with X's stored atoms renormalized to unit mass
    (as ``wasserstein_l1`` does).  The map g -> ghat is linear and P_{i+1:d} is
    independent of X, so the suffix expectation is taken before the solve:
    h_d = g, h_{i-1} = h_i averaged over P_i on the Poisson box (the last step
    gives E g(P)), and coordinate i needs one Stein column per distinct prefix
    X_{1:i-1}, the section of h_i there.  The Poisson box cuts axis i at the
    smallest N with P(P_i > N) <= ``DEFAULT_EPS_BOX`` / d.  A g that is not
    finite and 1-Lipschitz raises ``ContractError``; an empty stored support
    of X, or a g axis too short for the support of X plus 1, the solver range
    or the Poisson box, raises ``ParameterError``.
    Contract: residual <= 1e-8 plus the truncation contribution of the box.
    """
    d = X.dim
    g = np.asarray(g, dtype=float)
    if params.dim != d or g.ndim != d:
        raise ParameterError("X, params and g must share the dimension d")
    check_lipschitz_table(g)
    xs, px = X.support_arrays()
    if not len(px):
        raise ParameterError("X has an empty stored support")
    px = px / px.sum()
    sup_max = xs.max(axis=0)
    axes, eps = [], DEFAULT_EPS_BOX / d
    for i, lam in enumerate(params.lambdas):
        if sup_max[i] + 2 > g.shape[i]:
            raise ParameterError(
                f"g table axis {i} (length {g.shape[i]}) does not cover the support of X plus 1"
            )
        need = default_range(lam, int(sup_max[i]) + 1)
        if need + 1 > g.shape[i]:
            raise ParameterError(
                f"g table axis {i} too small: solver range needs {need + 1} entries, found {g.shape[i]}"
            )
        ax = poisson_cut_law(lam, eps)[0]
        if len(ax) > g.shape[i]:
            raise ParameterError(
                f"g table axis of length {g.shape[i]} too small to cover Poisson({lam:g}) "
                f"tail accuracy {eps:g} (needs {len(ax)})"
            )
        axes.append(ax)

    # h[i]: g with P_{i+1:d} averaged out, so h[d] = g and h[0] = E g(P)
    h = [g]
    for ax in reversed(axes):
        h.append(h[-1][..., : len(ax)] @ ax)
    h.reverse()
    lhs = float(h[0]) - float(px @ g[tuple(xs.T)])

    # right side: one batched solve per coordinate, one column per distinct
    # prefix X_{1:i-1} (the atoms are lexsorted, so equal prefixes are adjacent)
    rhs = 0.0
    for i, lam in enumerate(params.lambdas):
        starts = np.r_[True, (xs[1:, :i] != xs[:-1, :i]).any(axis=1)]
        ghat, _ = solve_stein_batch(lam, h[i + 1][tuple(xs[starts, :i].T)].T)
        col, x = np.cumsum(starts) - 1, xs[:, i]
        rhs += float(px @ (x * ghat[x, col] - lam * ghat[x + 1, col]))
    return abs(lhs - rhs)
