"""Maximum-likelihood logistic regression via IRLS, batched over outcomes.

The Monte-Carlo engine refits the same design against hundreds of thousands
of simulated outcome vectors, so the solver works on a whole batch at once:
shapes are (B, ...) with one row per outcome vector.

Two floating-point properties are load-bearing and worth spelling out,
because discrete test statistics are compared with a raw >= and real-valued
ties between outcome classes must stay tied in float; note 3 says when a
fit stops and why intercept-only fits stop by a rule of their own:

1. Batch-size invariance. Row k of a batched fit is bit-identical to fitting
   row k alone. Every product over the observation axis is a stacked
   per-row matmul (`rowwise_matmul`): X'y, the linear predictors, the
   right-hand side X'(W eta - mu + y) and X'WX, the last as one product of
   the weights with the (n, p(p+1)/2) table of column products x_i * x_j,
   i >= j, scattered into the lower triangle that the Cholesky solve reads
   (only rows sent to the pseudoinverse are symmetrized). Each row is then
   its own BLAS call of a fixed shape. A whole-batch 2D GEMM (W @ XX) is
   never used: BLAS picks different kernels, and different summation
   orders, depending on the batch dimension. The same invariance is why the IRLS loop may drop
   finished rows from its working arrays: which other rows share an array
   with a row, and at which position, cannot change its fit.

2. Class invariance under an intercept-only design. The intercept entries
   of X'y, X'WX and the right-hand side are pairwise np.add.reduce sums, not
   matmul entries. X'y is then an exact integer, X'mu never touches y, and
   the per-outcome deviance is assembled with a sequential y-contraction,
   so every outcome vector with the same success count lands on the same
   fit bit-for-bit. Which classes' statistics tie by rounding (the l = 0
   Pearson statistic, see README) hangs on these exact values, so the
   reductions that form them must keep their order. fit_batch relies on
   this: it runs an intercept-only design (without offset) once per
   distinct success count and copies each class's fit to its rows.

3. Stopping. A fit with covariates (p > 1) finishes after a full step
   (no line-search halving) whose Newton decrement lambda^2 = d'Ad, with d
   the step and A = X'WX, is below tolerance / 100. lambda^2 / 2 is the
   second-order estimate of the log-likelihood that step still gains (Boyd
   & Vandenberghe, Convex Optimization, 9.5.1), and Newton's quadratic
   convergence leaves the fit far inside the tolerance after it.
   Every fit also finishes after three consecutive deviance changes below
   tolerance, which alone used to stop it about three plateau iterations
   after convergence; this rule also ends fits that never take a full
   step, such as separated ones. Intercept-only fits keep that rule alone:
   their exact bits decide which success classes tie by rounding (note 2),
   and stopping them earlier moves the l = 0 Pearson ties that the bench
   references pin. Their branch goes once the engine compares with a
   tolerance instead of a raw >=.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .datamodel import Dataset, FittedModel, ModelSpec
from .errors import DataError, NumericalError


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


def softplus(x, out=None):
    """log(1 + e^x) in the overflow-safe split form; the same formula as
    np.logaddexp(0, x) but several times faster on large batches. out, when
    given, is an array of x's shape that receives the result."""
    out = np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def seq_ydot(Y, d, work=None):
    """Sequential sum_k Y[:,k] * d[:,k] down the columns.

    Y is 0/1 so zero terms add exactly and one terms add d exactly, which
    makes the running sum depend only on the multiset of selected d values
    whenever d is constant along a row. cumsum adds strictly left to right,
    unlike np.add.reduce's pairwise tree. work, when given, is a scratch array of
    Y's shape."""
    work = np.multiply(Y, d, out=work)
    np.cumsum(work, axis=1, out=work)
    return work[:, -1].copy()


def rowwise_matmul(V, M):
    """Row k of the result is V[k] @ M, each row its own product of fixed
    shape (see module notes on batch-size invariance)."""
    return np.matmul(V[:, None, :], M[None])[:, 0, :]


def chol_solve_batch(A, rhs):
    """Solve A x = rhs across a (B,p,p) SPD stack via vectorized Cholesky.

    Only the lower triangle of A is read; the upper one may hold anything.
    Rows whose pivot collapses relative to the diagonal (rank deficiency,
    e.g. a duplicated or constant covariate) fall back to the pseudoinverse
    of their symmetrized A, which zeroes the null-space component instead of
    aborting. A stack the pseudoinverse cannot handle either (non-finite
    entries, as when the products x_i * x_j overflow) raises NumericalError.
    """
    B, p, _ = A.shape
    L = np.zeros_like(A)
    piv = np.empty((B, p))
    add = np.add.reduce
    for j in range(p):
        # column j below the diagonal in one step: entry (i, j) reduces the
        # same j products L[i, k] * L[j, k] as a per-entry loop would
        piv[:, j] = d = A[:, j, j] - add(L[:, j, :j] ** 2, axis=1)
        L[:, j, j] = np.sqrt(np.where(d > 0, d, 1.0))
        L[:, j + 1:, j] = (
            A[:, j + 1:, j] - add(L[:, j + 1:, :j] * L[:, j, None, :j], axis=2)
        ) / L[:, j, j, None]
    bad = ~(piv > np.diagonal(A, axis1=1, axis2=2) * 1e-13).all(axis=1)
    y = np.zeros((B, p))
    for i in range(p):
        y[:, i] = (rhs[:, i] - add(L[:, i, :i] * y[:, :i], axis=1)) / L[:, i, i]
    x = np.zeros((B, p))
    for i in range(p - 1, -1, -1):
        x[:, i] = (y[:, i] - add(L[:, i + 1:, i] * x[:, i + 1:], axis=1)) / L[:, i, i]
    if bad.any():
        idx = np.nonzero(bad)[0]
        low = np.tril(A[idx])
        sym = low + np.swapaxes(np.tril(low, -1), 1, 2)
        try:
            x[idx] = (np.linalg.pinv(sym) @ rhs[idx, :, None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"the IRLS normal equations could not be solved ({exc}); "
                "they are not finite when covariates are so large that the "
                "products x_i * x_j overflow, so rescale the covariates"
            ) from None
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
    _, first, inv = np.unique(np.add.reduce(Y, axis=1), return_index=True, return_inverse=True)
    trace = None if deviance_trace is None else []
    fits = _irls(Xd, Y[first], cfg, None, trace)
    if trace is not None:
        deviance_trace.extend(snap[inv] for snap in trace)
    return tuple(a[inv] for a in fits)


def _irls(Xd, Y, cfg, offset, deviance_trace):
    """The IRLS loop behind fit_batch: every row of Y is fitted on its own
    trajectory, with the arguments and results fit_batch documents.

    The working arrays hold only the rows still iterating. A row that
    finishes is written to the outputs, and the working arrays are compacted
    only on an iteration where some row finishes."""
    B, n = Y.shape
    p = Xd.shape[1]
    XdT = Xd.T.copy()
    # column k holds x_i * x_j for the k-th lower-triangle entry (i, j), so
    # one row product forms every entry of X'WX that chol_solve_batch reads
    ii, jj = np.tril_indices(p)
    XX = Xd[:, ii] * Xd[:, jj]
    # the Newton decrement d'Ad from the triangle counts off-diagonals twice
    tri_weight = np.where(ii == jj, 1.0, 2.0)
    decrement_stop = p > 1  # see module note 3
    clamp = cfg.mu_clamp
    eta_cap = np.log((1 - clamp) / clamp)
    add = np.add.reduce
    work = np.empty((B, n))

    def clamped_expit(eta, out=None):
        mu = expit(eta, out=out)
        np.maximum(mu, clamp, out=mu)
        return np.minimum(mu, 1 - clamp, out=mu)

    def deviance(Y, eta):
        w = work[: Y.shape[0]]
        return 2.0 * (add(softplus(eta, out=w), axis=1) - seq_ydot(Y, eta, w))

    beta = np.zeros((B, p))
    if offset is None:
        off = None
        eta = np.zeros((B, n))
    else:
        off = np.asarray(offset, dtype=np.float64)
        eta = np.broadcast_to(off, (B, n)).copy()
    mu = clamped_expit(eta)
    dev = deviance(Y, eta)
    if deviance_trace is None:
        dev_all = None
    else:
        dev_all = dev.copy()
        deviance_trace.append(dev.copy())

    beta_out = np.zeros((B, p))
    mu_out = np.zeros((B, n))
    iters = np.zeros(B, np.int64)
    conv = np.zeros(B, bool)
    rows = np.arange(B)  # output row of each working row
    small = np.zeros(B, np.int64)

    XtY = rowwise_matmul(Y, Xd)
    XtY[:, 0] = add(Y, axis=1)

    A = np.empty((B, p, p))
    for it in range(1, cfg.max_iterations + 1):
        na = rows.size
        if na == 0:
            break
        w = mu * (1.0 - mu)
        # score form of the normal equations: A beta_new = A beta + X'(y-mu),
        # with A beta expanded through eta; intercept entries are pairwise sums
        we = w * (eta if off is None else eta - off)
        tri = rowwise_matmul(w, XX)
        tri[:, 0] = add(w, axis=1)
        A[:na, ii, jj] = tri
        rhs = rowwise_matmul(we - mu, Xd) + XtY
        rhs[:, 0] = add(we, axis=1) + XtY[:, 0] - add(mu, axis=1)
        bnew = chol_solve_batch(A[:na], rhs)

        t = np.ones(na)
        direction = bnew - beta
        if decrement_stop:
            lam2 = add(tri * tri_weight * direction[:, ii] * direction[:, jj], axis=1)
        slack = 1e-13 * (1.0 + np.abs(dev))
        for _ in range(30):
            beta_try = beta + t[:, None] * direction
            eta_try = rowwise_matmul(beta_try, XdT)
            if off is not None:
                eta_try += off
            dev_try = deviance(Y, eta_try)
            inc = dev_try > dev + slack
            if not inc.any():
                break
            t[inc] *= 0.5

        change = dev - dev_try
        beta, eta, dev = beta_try, eta_try, dev_try
        mu = clamped_expit(eta, out=mu)
        if dev_all is not None:
            dev_all[rows] = dev
            deviance_trace.append(dev_all.copy())

        # declare convergence after a full step whose Newton decrement is
        # tiny, or after three consecutive tiny deviance changes, which rides
        # out the flat plateau where Newton steps stop mattering
        small = np.where(np.abs(change) < cfg.tolerance, small + 1, 0)
        finish = small >= 3
        if decrement_stop:
            finish |= (t == 1.0) & (lam2 < cfg.tolerance / 100)
        capped = it == cfg.max_iterations
        if not (capped or finish.any()):
            continue
        # write out the rows that finished, or every row at the cap
        out = slice(None) if capped else finish
        fin = rows[out]
        beta_out[fin] = beta[out]
        mu_out[fin] = mu[out]
        iters[fin] = it
        conv[fin] = finish[out] & (np.abs(eta[out]).max(axis=1) <= eta_cap)
        keep = ~finish
        rows, small = rows[keep], small[keep]
        beta, eta, mu, dev = beta[keep], eta[keep], mu[keep], dev[keep]
        Y, XtY = Y[keep], XtY[keep]
    return beta_out, mu_out, conv, iters


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
