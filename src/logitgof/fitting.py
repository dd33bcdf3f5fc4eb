"""Maximum-likelihood logistic regression via IRLS, batched over outcomes.

The Monte-Carlo engine refits the same design against hundreds of thousands
of simulated outcome vectors, so the solver works on a whole batch at once:
shapes are (B, ...) with one row per outcome vector.

Two floating-point properties are load-bearing and worth spelling out,
because discrete test statistics are compared with a raw >= and real-valued
ties between outcome classes must stay tied in float:

1. Batch-size invariance. Row k of a batched fit is bit-identical to fitting
   row k alone. Every product over the observation axis is a stacked
   per-row matmul (`rowwise_matmul`): X'y, the linear predictors, the
   right-hand side X'(W eta - mu + y) and X'WX, the last as one product of
   the weights with the (n, p*p) table of column products x_i * x_j, which
   is exactly symmetric. Each row is then its own BLAS call of a fixed
   shape. A whole-batch 2D GEMM (W @ XX) is never used: BLAS picks
   different kernels, and different summation orders, depending on the
   batch dimension.

2. Class invariance under an intercept-only design. The intercept entries
   of X'y, X'WX and the right-hand side are pairwise np.sum reductions, not
   matmul entries. X'y is then an exact integer, X'mu never touches y, and
   the per-outcome deviance is assembled with a sequential y-contraction,
   so every outcome vector with the same success count lands on the same
   fit bit-for-bit. Which classes' statistics tie by rounding (the l = 0
   Pearson statistic, see README) hangs on these exact values, so the
   reductions that form them must keep their order. fit_batch relies on
   this: it runs an intercept-only design (without offset) once per
   distinct success count and copies each class's fit to its rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .datamodel import Dataset, FittedModel, ModelSpec
from .errors import DataError


@dataclass(frozen=True)
class FitConfig:
    max_iterations: int = 100
    tolerance: float = 1e-10
    mu_clamp: float = 1e-10

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not 0 < self.mu_clamp < 0.5:
            raise ValueError("mu_clamp must lie strictly between 0 and 0.5")


DEFAULT_FIT_CONFIG = FitConfig()


def design_matrix(d: Dataset, spec: ModelSpec) -> np.ndarray:
    """Column-stack an all-ones intercept with the selected covariates."""
    spec.check_against(d)
    cols = [np.ones(d.n)]
    for j in spec.included:
        cols.append(d.x[:, j])
    return np.column_stack(cols)


def softplus(x):
    """log(1 + e^x) in the overflow-safe split form; the same formula as
    np.logaddexp(0, x) but several times faster on large batches."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def seq_ydot(Y, d):
    """Sequential sum_k Y[:,k] * d[:,k] down the columns.

    Y is 0/1 so zero terms add exactly and one terms add d exactly, which
    makes the running sum depend only on the multiset of selected d values
    whenever d is constant along a row. cumsum adds strictly left to right,
    unlike np.sum's pairwise tree."""
    return np.cumsum(Y * d, axis=1)[:, -1]


def rowwise_matmul(V, M):
    """Row k of the result is V[k] @ M, each row its own product of fixed
    shape (see module notes on batch-size invariance)."""
    return np.matmul(V[:, None, :], M[None])[:, 0, :]


def chol_solve_batch(A, rhs):
    """Solve A x = rhs across a (B,p,p) SPD stack via vectorized Cholesky.

    Rows whose pivot collapses relative to the diagonal (rank deficiency,
    e.g. a duplicated or constant covariate) fall back to the pseudoinverse,
    which zeroes the null-space component instead of aborting.
    """
    B, p, _ = A.shape
    L = np.zeros_like(A)
    bad = np.zeros(B, bool)
    for j in range(p):
        d = A[:, j, j] - np.sum(L[:, j, :j] ** 2, axis=1)
        bad |= ~(d > A[:, j, j] * 1e-13)
        d = np.where(d > 0, d, 1.0)
        L[:, j, j] = np.sqrt(d)
        for i in range(j + 1, p):
            L[:, i, j] = (A[:, i, j] - np.sum(L[:, i, :j] * L[:, j, :j], axis=1)) / L[:, j, j]
    y = np.zeros((B, p))
    for i in range(p):
        y[:, i] = (rhs[:, i] - np.sum(L[:, i, :i] * y[:, :i], axis=1)) / L[:, i, i]
    x = np.zeros((B, p))
    for i in range(p - 1, -1, -1):
        x[:, i] = (y[:, i] - np.sum(L[:, i + 1:, i] * x[:, i + 1:], axis=1)) / L[:, i, i]
    if bad.any():
        idx = np.nonzero(bad)[0]
        x[idx] = (np.linalg.pinv(A[idx]) @ rhs[idx, :, None])[..., 0]
    return x


def fit_batch(Xd, Y, cfg: FitConfig = DEFAULT_FIT_CONFIG, offset=None, deviance_trace=None):
    """Fit one design against B outcome vectors at once.

    Xd: (n, p) design whose first column is the all-ones intercept, as
    `design_matrix` builds it. Y: (B, n) outcomes as floats (exactly 0.0 or
    1.0). offset: optional (n,) vector added to every linear predictor; its
    coefficients are not estimated.

    Returns (beta, mu, converged, iterations) with shapes (B,p), (B,n), (B,),
    (B,). Non-convergence (iteration cap or separation pushing a linear
    predictor past the clamp) is a flag, never an exception: simulated draws
    must always produce usable means.

    deviance_trace, when a list, receives the (B,) deviance after every
    accepted step. Used by tests to assert monotonicity.

    An intercept-only design without offset is fitted once per success
    count and the results are copied to every row of that count, which
    module note 2 makes bit-identical to fitting every row.
    """
    Y = np.asarray(Y, dtype=np.float64)
    Xd = np.ascontiguousarray(Xd, dtype=np.float64)
    if Xd.shape[1] > 1 or offset is not None:
        return _irls(Xd, Y, cfg, offset, deviance_trace)
    _, first, inv = np.unique(np.sum(Y, axis=1), return_index=True, return_inverse=True)
    trace = None if deviance_trace is None else []
    fits = _irls(Xd, Y[first], cfg, None, trace)
    if trace is not None:
        deviance_trace.extend(snap[inv] for snap in trace)
    return tuple(a[inv] for a in fits)


def _irls(Xd, Y, cfg, offset, deviance_trace):
    """The IRLS loop behind fit_batch: every row of Y is fitted on its own
    trajectory, with the arguments and results fit_batch documents."""
    B, n = Y.shape
    p = Xd.shape[1]
    XdT = Xd.T.copy()
    # column i*p + j holds x_i * x_j, so one row product forms all of X'WX
    XX = (Xd[:, :, None] * Xd[:, None, :]).reshape(n, p * p)
    clamp = cfg.mu_clamp
    eta_cap = np.log((1 - clamp) / clamp)

    beta = np.zeros((B, p))
    if offset is None:
        off = None
        eta = np.zeros((B, n))
    else:
        off = np.asarray(offset, dtype=np.float64)
        eta = np.broadcast_to(off, (B, n)).copy()
    mu = np.clip(expit(eta), clamp, 1 - clamp)
    dev = 2.0 * (np.sum(softplus(eta), axis=1) - seq_ydot(Y, eta))
    if deviance_trace is not None:
        deviance_trace.append(dev.copy())

    small = np.zeros(B, np.int64)
    done = np.zeros(B, bool)
    iters = np.zeros(B, np.int64)
    conv = np.zeros(B, bool)

    XtY = rowwise_matmul(Y, Xd)
    XtY[:, 0] = np.sum(Y, axis=1)

    for it in range(1, cfg.max_iterations + 1):
        act = np.nonzero(~done)[0]
        if act.size == 0:
            break
        mu_a = mu[act]
        Y_a = Y[act]
        beta_a = beta[act]
        dev_a = dev[act]
        eta_a = eta[act]

        w = mu_a * (1.0 - mu_a)
        # score form of the normal equations: A beta_new = A beta + X'(y-mu),
        # with A beta expanded through eta; intercept entries are pairwise sums
        lin_a = eta_a if off is None else eta_a - off
        we = w * lin_a
        A = rowwise_matmul(w, XX).reshape(act.size, p, p)
        A[:, 0, 0] = np.sum(w, axis=1)
        rhs = rowwise_matmul(we - mu_a, Xd) + XtY[act]
        rhs[:, 0] = np.sum(we, axis=1) + XtY[act, 0] - np.sum(mu_a, axis=1)
        bnew = chol_solve_batch(A, rhs)

        t = np.ones(act.size)
        direction = bnew - beta_a
        slack = 1e-13 * (1.0 + np.abs(dev_a))
        for _ in range(30):
            beta_try = beta_a + t[:, None] * direction
            eta_try = rowwise_matmul(beta_try, XdT)
            if off is not None:
                eta_try += off
            dev_try = 2.0 * (np.sum(softplus(eta_try), axis=1) - seq_ydot(Y_a, eta_try))
            inc = dev_try > dev_a + slack
            if not inc.any():
                break
            t[inc] *= 0.5

        change = dev_a - dev_try
        beta[act] = beta_try
        eta[act] = eta_try
        mu[act] = np.clip(expit(eta_try), clamp, 1 - clamp)
        dev[act] = dev_try
        iters[act] = it
        if deviance_trace is not None:
            snap = deviance_trace[-1].copy()
            snap[act] = dev_try
            deviance_trace.append(snap)

        # declare convergence after three consecutive tiny deviance changes,
        # which rides out the flat plateau where Newton steps stop mattering
        small_act = np.where(np.abs(change) < cfg.tolerance, small[act] + 1, 0)
        small[act] = small_act
        finish = small_act >= 3
        fin_rows = act[finish]
        conv[fin_rows] = True
        done[fin_rows] = True

    conv &= np.abs(eta).max(axis=1) <= eta_cap
    return beta, mu, conv, iters


def fit(d: Dataset, spec: ModelSpec, cfg: FitConfig = DEFAULT_FIT_CONFIG, offset=None) -> FittedModel:
    """Fit the selected model to the dataset's own outcomes."""
    if d.n < 1:
        raise DataError("cannot fit a dataset with no observations")
    Xd = design_matrix(d, spec)
    Y = d.y.astype(np.float64)[None, :]
    beta, mu, conv, iters = fit_batch(Xd, Y, cfg, offset=offset)
    return FittedModel(
        intercept=beta[0, 0],
        coefficients=beta[0, 1:],
        mu=mu[0],
        converged=bool(conv[0]),
        iterations=int(iters[0]),
    )


def residuals(f: FittedModel, d: Dataset) -> np.ndarray:
    """Raw residuals y - mu for a fit produced from this dataset."""
    if f.mu.shape[0] != d.n:
        raise DataError(
            f"fit carries {f.mu.shape[0]} means but the dataset has {d.n} observations"
        )
    return d.y.astype(np.float64) - f.mu
