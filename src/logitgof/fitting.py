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
   orders, depending on the batch dimension. The same invariance is why the
   IRLS loop may drop finished rows from its working arrays: which other
   rows share an array with a row, and at which position, cannot change its
   fit. It is also why the first iteration is shared. Every row starts from
   the same coefficients (zero or `start`), so its eta, mu, weights, X'WX
   and Cholesky factor, and the part of the right-hand side X'(W eta - mu)
   that does not involve y, are the same in every row. They are formed
   once, from one row, and broadcast: the row product of one row is the
   product each row would make, and broadcasting repeats its bits. Only
   X'y, the solves and the deviances are per row.

2. Class invariance under an intercept-only design. The intercept entries
   of X'WX and the right-hand side are pairwise np.add.reduce sums, not
   matmul entries. X'y's matmul intercept entry is the exact success count
   in any summation order: its terms are 0.0 and 1.0 and its partial sums
   integers below 2^53. X'mu never touches y, and the per-outcome deviance
   is assembled with a sequential y-contraction, so every outcome vector
   with the same success count lands on the same fit bit-for-bit. Which
   classes' statistics tie by rounding (the l = 0 Pearson statistic, see
   README) hangs on these exact values, so the reductions that form them
   must keep their order. fit_batch relies on this: it runs an
   intercept-only design once per distinct success count and copies each
   class's fit to its rows.
   Fits with covariates (p > 1) have no classes to keep and use cheaper
   per-cell forms instead, chosen once per call. Their deviance is
   2 sum_k softplus(s_k eta_k) with s = 1 - 2y, summed as two sums of
   nonnegative terms, max(s eta, 0) and log1p(e^-|eta|). That drops the
   sequential contraction, and with it the cancellation between
   sum softplus(eta) and sum y eta that left a separated row's deviance at
   rounding noise. Their means are 1 / (1 + e^-eta), expit's own formula,
   with one fast numpy exponential: 0.9 ms against expit's 2.8 ms, clamp
   included, for a 455 x 575 batch on a 2-vCPU Xeon. Intercept-only fits
   keep the softplus difference and the contraction, operation for
   operation, and take their means from `_intercept_only_mean`: each eta
   row holds one value there, so one C-library exp per row (math.exp)
   gives the bits of scipy's expit, which evaluates the same formula with
   the same exp. numpy's exp rounds differently and would move the ties.

3. Stopping. A fit with covariates (p > 1) finishes after a full step
   (no line-search halving) whose Newton decrement lambda^2 = d'Ad, with d
   the step and A = X'WX, is below TOLERANCE / 100. lambda^2 / 2 is the
   second-order estimate of the log-likelihood that step still gains (Boyd
   & Vandenberghe, Convex Optimization, 9.5.1), and Newton's quadratic
   convergence leaves the fit far inside the tolerance after it.
   Every fit also finishes after three consecutive deviance changes below
   TOLERANCE, which alone used to stop it about three plateau iterations
   after convergence; this rule also ends fits that never take a full
   step, such as separated ones. Intercept-only fits keep that rule alone:
   their exact bits decide which success classes tie by rounding (note 2),
   and stopping them earlier moves the l = 0 Pearson ties that the bench
   references pin. Their branch goes once the engine compares with a
   tolerance instead of a raw >=. A fit with covariates may also start
   from a given coefficient vector instead of zero; the Monte-Carlo
   engine starts its refits at the fit that generated the draws, which
   saves one to two iterations each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datamodel import Dataset, FittedModel, ModelSpec, _int
from .errors import DataError, NumericalError


# the stopping tolerance of module note 3, and the clamp that keeps every
# mean in [MU_CLAMP, 1 - MU_CLAMP]; a fit whose |eta| passes _ETA_CAP there
# has not converged
TOLERANCE = 1e-10
MU_CLAMP = 1e-10
_ETA_CAP = np.log((1 - MU_CLAMP) / MU_CLAMP)


@dataclass(frozen=True)
class FitConfig:
    """The IRLS iteration cap; the tolerance and clamp are constants."""

    max_iterations: int = 100

    def __post_init__(self):
        object.__setattr__(self, "max_iterations", _int(self.max_iterations, "max_iterations", minimum=1))


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


def _intercept_only_mean(eta, out=None):
    """The clamped means 1 / (1 + e^-eta) of an intercept-only design,
    whose eta rows each hold one value (module note 2), by one math.exp per
    row. The exponent stops at 709, short of math.exp's overflow; the mean
    there is below MU_CLAMP either way. out, when given, is an array of
    eta's shape that receives the result."""
    col = np.clip([1.0 / (1.0 + math.exp(min(-v, 709.0))) for v in eta[:, 0].tolist()],
                  MU_CLAMP, 1 - MU_CLAMP)
    out = np.empty(eta.shape) if out is None else out
    out[:] = col[:, None]
    return out


def rowwise_matmul(V, M):
    """Row k of the result is V[k] @ M, each row its own product of fixed
    shape (see module notes on batch-size invariance)."""
    return np.matmul(V[:, None, :], M[None])[:, 0, :]


def chol_solve_batch(A, rhs):
    """Solve A x = rhs for every row of rhs (B,p) by Cholesky factors of A,
    vectorized over the stack.

    A holds one matrix per row of rhs, or a single matrix (a (1,p,p) stack)
    that every row shares; each row's solution is the same either way. Only
    the lower triangle of A is read; the upper one may hold anything. A
    matrix whose pivot collapses relative to its diagonal (rank deficiency,
    e.g. a duplicated or constant covariate) is solved by the pseudoinverse
    of its symmetrized lower triangle instead, which zeroes the null-space
    component instead of aborting. A matrix the pseudoinverse cannot handle
    either (non-finite entries, as when the products x_i * x_j overflow)
    raises NumericalError.
    """
    B, p = rhs.shape
    L = np.zeros_like(A)
    ok = np.ones(A.shape[0], bool)
    add = np.add.reduce
    for j in range(p):
        # column j below the diagonal in one step: entry (i, j) reduces the
        # same j products L[i, k] * L[j, k] as a per-entry loop would
        d = A[:, j, j] - add(L[:, j, :j] ** 2, axis=1)
        ok &= d > A[:, j, j] * 1e-13
        L[:, j, j] = np.sqrt(np.where(d > 0, d, 1.0))
        L[:, j + 1:, j] = (
            A[:, j + 1:, j] - add(L[:, j + 1:, :j] * L[:, j, None, :j], axis=2)
        ) / L[:, j, j, None]
    y = np.zeros((B, p))
    for i in range(p):
        y[:, i] = (rhs[:, i] - add(L[:, i, :i] * y[:, :i], axis=1)) / L[:, i, i]
    x = np.zeros((B, p))
    for i in range(p - 1, -1, -1):
        x[:, i] = (y[:, i] - add(L[:, i + 1:, i] * x[:, i + 1:], axis=1)) / L[:, i, i]
    if not ok.all():
        idx = np.nonzero(~np.broadcast_to(ok, (B,)))[0]
        low = np.tril(A[idx] if A.shape[0] == B else A)
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


def fit_batch(Xd, Y, cfg: FitConfig = DEFAULT_FIT_CONFIG, start=None):
    """Fit one design against B outcome vectors at once.

    Xd: (n, p) design whose first column is the all-ones intercept, as
    `design_matrix` builds it. Y: (B, n) outcomes as floats (exactly 0.0 or
    1.0).

    Returns (beta, mu, converged, iterations) with shapes (B,p), (B,n), (B,),
    (B,). Non-convergence (iteration cap or separation pushing a linear
    predictor past the clamp) is a flag, never an exception: simulated draws
    must always produce usable means. A row still iterating at the cap
    is returned with its iterate from the last iteration.

    start: optional (p,) coefficient vector every row's IRLS run starts
    from instead of zero. Intercept-only designs (p == 1) ignore it.

    An intercept-only design is fitted once per success count and the
    results are copied to every row of that count, which module note 2
    makes bit-identical to fitting every row.
    """
    Y = np.asarray(Y, dtype=np.float64)
    Xd = np.ascontiguousarray(Xd, dtype=np.float64)
    if Xd.shape[1] > 1:
        return _irls(Xd, Y, cfg, start)
    _, first, inv = np.unique(np.add.reduce(Y, axis=1), return_index=True, return_inverse=True)
    return tuple(a[inv] for a in _irls(Xd, Y[first], cfg))


def _irls(Xd, Y, cfg, start=None):
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
    add = np.add.reduce
    work = np.empty((B, n))

    def clamped_logistic(eta, out=None):
        # 1 / (1 + e^-eta), expit's own formula, in one fast exponential; an
        # overflow to inf gives mu = 0, which the clamp lifts
        mu = np.negative(eta, out=out)
        with np.errstate(over="ignore"):
            np.exp(mu, out=mu)
        mu += 1.0
        np.reciprocal(mu, out=mu)
        np.maximum(mu, MU_CLAMP, out=mu)
        return np.minimum(mu, 1 - MU_CLAMP, out=mu)

    # the deviances take one eta row for every row of Y before the first
    # step, when all rows share it, and one eta row per row of Y after it
    def ydot_deviance(Y, eta):
        soft = add(softplus(eta, out=work[: eta.shape[0]]), axis=1)
        return 2.0 * (soft - seq_ydot(Y, eta, work[: Y.shape[0]]))

    def percell_deviance(S, eta):
        # sum_k softplus(s_k eta_k), s = 1 - 2y, as two sums of nonnegative
        # terms: log1p(e^-|eta|) and max(s eta, 0)
        w = work[: eta.shape[0]]
        np.abs(eta, out=w)
        np.negative(w, out=w)
        np.exp(w, out=w)
        np.log1p(w, out=w)
        soft = add(w, axis=1)
        w = work[: S.shape[0]]
        np.multiply(S, eta, out=w)
        np.maximum(w, 0.0, out=w)
        return 2.0 * (soft + add(w, axis=1))

    # module notes 2 and 3: intercept-only fits keep their exact operations
    # and stop on deviance changes alone; fits with covariates iterate on
    # the signs s = 1 - 2y and may start away from zero
    XtY = rowwise_matmul(Y, Xd)
    if p > 1:
        cells, mean, deviance = 1.0 - 2.0 * Y, clamped_logistic, percell_deviance
    else:
        cells, mean, deviance = Y, _intercept_only_mean, ydot_deviance

    # every row starts from the same coefficients, so beta, eta and mu hold
    # one row until the first step (module note 1)
    beta = np.zeros((1, p))
    if start is not None:
        beta[:] = start
        eta = rowwise_matmul(beta, XdT)
    else:
        eta = np.zeros((1, n))
    mu = mean(eta)
    dev = deviance(cells, eta)

    beta_out = np.zeros((B, p))
    mu_out = np.zeros((B, n))
    iters = np.zeros(B, np.int64)
    conv = np.zeros(B, bool)
    rows = np.arange(B)  # output row of each working row
    small = np.zeros(B, np.int64)

    A = np.empty((B, p, p))
    for it in range(1, cfg.max_iterations + 1):
        na = rows.size
        if na == 0:
            break
        # score form of the normal equations: A beta_new = A beta + X'(y-mu),
        # with A beta expanded through eta; intercept entries are pairwise
        # sums. The weights w = mu(1 - mu), then w * eta, then w * eta - mu
        # take turns in the work buffer. On the first iteration mu is one
        # row, so A, its factor and the part of the right-hand side that
        # does not involve y are formed once and broadcast to every row
        m = mu.shape[0]
        w = np.subtract(1.0, mu, out=work[:m])
        w *= mu
        tri = rowwise_matmul(w, XX)
        tri[:, 0] = add(w, axis=1)
        A[:m, ii, jj] = tri
        w *= eta
        rhs0 = add(w, axis=1) + XtY[:, 0] - add(mu, axis=1)
        w -= mu
        rhs = rowwise_matmul(w, Xd) + XtY
        rhs[:, 0] = rhs0
        bnew = chol_solve_batch(A[:m], rhs)

        t = np.ones(na)
        direction = bnew - beta
        if decrement_stop:
            lam2 = add(tri * tri_weight * direction[:, ii] * direction[:, jj], axis=1)
        slack = 1e-13 * (1.0 + np.abs(dev))
        for _ in range(30):
            beta_try = beta + t[:, None] * direction
            eta_try = rowwise_matmul(beta_try, XdT)
            dev_try = deviance(cells, eta_try)
            inc = dev_try > dev + slack
            if not inc.any():
                break
            t[inc] *= 0.5

        change = dev - dev_try
        beta, eta, dev = beta_try, eta_try, dev_try
        mu = mean(eta, out=None if it == 1 else mu)

        # declare convergence after a full step whose Newton decrement is
        # tiny, or after three consecutive tiny deviance changes, which rides
        # out the flat plateau where Newton steps stop mattering
        small = np.where(np.abs(change) < TOLERANCE, small + 1, 0)
        finish = small >= 3
        if decrement_stop:
            finish |= (t == 1.0) & (lam2 < TOLERANCE / 100)
        capped = it == cfg.max_iterations
        if not (capped or finish.any()):
            continue
        # write out the rows that finished, or every row at the cap
        out = slice(None) if capped else finish
        fin = rows[out]
        beta_out[fin] = beta[out]
        mu_out[fin] = mu[out]
        iters[fin] = it
        conv[fin] = finish[out] & (np.abs(eta[out]).max(axis=1) <= _ETA_CAP)
        keep = ~finish
        rows, small = rows[keep], small[keep]
        beta, eta, mu, dev = beta[keep], eta[keep], mu[keep], dev[keep]
        cells, XtY = cells[keep], XtY[keep]
    return beta_out, mu_out, conv, iters


def fit(d: Dataset, spec: ModelSpec, cfg: FitConfig = DEFAULT_FIT_CONFIG) -> FittedModel:
    """Fit the selected model to the dataset's own outcomes."""
    Xd = design_matrix(d, spec)
    Y = d.y.astype(np.float64)[None, :]
    beta, mu, conv, iters = fit_batch(Xd, Y, cfg)
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
