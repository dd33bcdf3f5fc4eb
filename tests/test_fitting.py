import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from logitgof import (
    DataError,
    Dataset,
    FitConfig,
    ModelSpec,
    design_matrix,
    fit,
    residuals,
)
from logitgof.fitting import DEFAULT_FIT_CONFIG, _irls, fit_batch
from logitgof.montecarlo import draw_outcomes


def newton_reference(X, y, steps=60):
    """Independent maximizer of the Bernoulli log-likelihood.

    Deliberately written the textbook way (dense matmuls, plain solve,
    no step control) so agreement with the production solver is evidence
    rather than tautology. Only safe on well-behaved problems.
    """
    beta = np.zeros(X.shape[1])
    for _ in range(steps):
        mu = expit(X @ beta)
        W = mu * (1 - mu)
        H = X.T @ (W[:, None] * X)
        g = X.T @ (y - mu)
        step = np.linalg.solve(H, g)
        beta = beta + step
        if np.max(np.abs(step)) < 1e-13:
            break
    return beta


# The IRLS loop in its plain form, which gathers and scatters the active
# rows on every iteration, with its helpers, a per-entry Cholesky, the full
# p * p table of X'WX and the deviance-change stopping rule alone. Intercept-
# only fits must match it bit for bit: compacting the working arrays only
# when rows finish, and the fused Cholesky column, may change how the work is
# dispatched but not one floating-point operation of any row. With
# covariates, fits must agree with it up to rounding and stop no later.


def ref_softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def ref_seq_ydot(Y, d):
    return np.cumsum(Y * d, axis=1)[:, -1]


def ref_rowwise_matmul(V, M):
    return np.matmul(V[:, None, :], M[None])[:, 0, :]


def ref_chol_solve_batch(A, rhs):
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


def ref_irls(Xd, Y, cfg, offset, deviance_trace):
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
    dev = 2.0 * (np.sum(ref_softplus(eta), axis=1) - ref_seq_ydot(Y, eta))
    if deviance_trace is not None:
        deviance_trace.append(dev.copy())

    small = np.zeros(B, np.int64)
    done = np.zeros(B, bool)
    iters = np.zeros(B, np.int64)
    conv = np.zeros(B, bool)

    XtY = ref_rowwise_matmul(Y, Xd)
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
        A = ref_rowwise_matmul(w, XX).reshape(act.size, p, p)
        A[:, 0, 0] = np.sum(w, axis=1)
        rhs = ref_rowwise_matmul(we - mu_a, Xd) + XtY[act]
        rhs[:, 0] = np.sum(we, axis=1) + XtY[act, 0] - np.sum(mu_a, axis=1)
        bnew = ref_chol_solve_batch(A, rhs)

        t = np.ones(act.size)
        direction = bnew - beta_a
        slack = 1e-13 * (1.0 + np.abs(dev_a))
        for _ in range(30):
            beta_try = beta_a + t[:, None] * direction
            eta_try = ref_rowwise_matmul(beta_try, XdT)
            if off is not None:
                eta_try += off
            dev_try = 2.0 * (np.sum(ref_softplus(eta_try), axis=1) - ref_seq_ydot(Y_a, eta_try))
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


def n575_design():
    """A 455-row draw on a wide n = 575, p = 12 design shaped like the UIS
    configs: standard-normal and binary covariates plus two products."""
    rng = np.random.default_rng(575)
    n = 575
    z = rng.normal(size=(n, 4))
    b = (rng.random((n, 5)) < 0.4).astype(float)
    X = np.column_stack([np.ones(n), z, b, z[:, 0] * z[:, 2], b[:, 2] * b[:, 4]])
    mu_gen = expit(-1.2 + X[:, 1:] @ rng.normal(scale=0.4, size=11))
    Y = (rng.random((455, n)) < mu_gen).astype(float)
    return X, Y


# values the reference maximizer produces for the two-covariate model,
# frozen so a regression in either implementation shows up as disagreement
FINNEY_BETA = (-25.90113814, 12.12695460, 10.79880063)


class TestAgainstReference:
    def test_finney_full_model_coefficients(self, finney_dataset):
        d = finney_dataset
        spec = ModelSpec((0, 1))
        f = fit(d, spec)
        assert f.converged

        X = design_matrix(d, spec)
        ref = newton_reference(X, d.y.astype(float))
        got = np.array([f.intercept, *f.coefficients])
        assert np.max(np.abs(got - ref)) < 1e-6
        assert np.max(np.abs(got - np.array(FINNEY_BETA))) < 1e-6

    def test_random_datasets_match_reference(self, make_random_dataset):
        for seed in range(5):
            d = make_random_dataset(200 + seed, n=80, m=3)
            spec = ModelSpec(tuple(range(d.m)))
            f = fit(d, spec)
            if not f.converged:
                continue
            ref = newton_reference(design_matrix(d, spec), d.y.astype(float))
            got = np.array([f.intercept, *f.coefficients])
            assert np.max(np.abs(got - ref)) < 1e-6

    def test_intercept_only_reproduces_sample_mean(self, finney_dataset):
        f = fit(finney_dataset, ModelSpec())
        assert f.converged
        assert abs(f.intercept - np.log(20 / 19)) < 1e-9
        assert np.max(np.abs(f.mu - 20 / 39)) < 1e-12


class TestFitProperties:
    @given(seed=st.integers(0, 10_000))
    def test_converged_fits_have_zero_score(self, make_random_dataset, seed):
        d = make_random_dataset(seed, n=40, m=2)
        spec = ModelSpec((0, 1))
        f = fit(d, spec)
        if not f.converged:
            return
        X = design_matrix(d, spec)
        score = X.T @ (d.y - f.mu)
        assert np.max(np.abs(score)) < 1e-6

    def test_deviance_never_increases(self, finney_dataset):
        trace = []
        X = design_matrix(finney_dataset, ModelSpec((0, 1)))
        Y = finney_dataset.y.astype(float)[None, :]
        fit_batch(X, Y, deviance_trace=trace)
        devs = np.concatenate(trace)
        assert np.all(np.diff(devs) <= 1e-10)

    def test_observation_permutation_leaves_coefficients(self, finney_dataset):
        d = finney_dataset
        perm = np.random.default_rng(5).permutation(d.n)
        dp = Dataset(d.y[perm], d.x[perm], d.names)
        a = fit(d, ModelSpec((0, 1)))
        b = fit(dp, ModelSpec((0, 1)))
        assert abs(a.intercept - b.intercept) < 1e-8
        assert np.max(np.abs(a.coefficients - b.coefficients)) < 1e-8

    def test_offset_of_own_logits_gives_zero_coefficients(self, finney_dataset):
        d = finney_dataset
        f = fit(d, ModelSpec((0, 1)))
        offset = np.log(f.mu / (1.0 - f.mu))
        g = fit(d, ModelSpec((0, 1)), offset=offset)
        assert abs(g.intercept) < 1e-6
        assert np.max(np.abs(g.coefficients)) < 1e-6

    def test_residuals_sum_to_zero_for_converged_fits(self, make_random_dataset):
        for seed in range(10):
            d = make_random_dataset(seed, n=60, m=2)
            f = fit(d, ModelSpec((0, 1)))
            if f.converged:
                assert abs(np.sum(residuals(f, d))) < 1e-8 * d.n

    def test_residuals_hand_case(self):
        d = Dataset([0, 1], [[0.0], [0.0]])
        f = fit(d, ModelSpec())
        r = residuals(f, d)
        assert np.allclose(r, [-0.5, 0.5], atol=1e-12)

    def test_residuals_rejects_length_mismatch(self, finney_dataset):
        f = fit(finney_dataset, ModelSpec())
        with pytest.raises(DataError, match="39"):
            residuals(f, Dataset([0, 1], [[1.0], [2.0]]))


class TestDegenerateData:
    def test_all_ones_flags_nonconvergence_and_clamps(self):
        d = Dataset([1] * 8, np.zeros((8, 0)))
        f = fit(d, ModelSpec())
        assert not f.converged
        assert np.all(f.mu == 1.0 - 1e-10)

    def test_perfect_separation_flags_nonconvergence(self):
        x = np.linspace(-2, 2, 12)[:, None]
        d = Dataset((x[:, 0] > 0).astype(int), x)
        f = fit(d, ModelSpec((0,)))
        assert not f.converged
        assert np.all((f.mu >= 1e-10) & (f.mu <= 1.0 - 1e-10))

    def test_duplicated_column_falls_back_gracefully(self, finney_dataset):
        d = finney_dataset
        dup = Dataset(d.y, np.column_stack([d.x[:, 0], d.x[:, 0]]), ("a", "b"))
        f2 = fit(dup, ModelSpec((0, 1)))
        f1 = fit(Dataset(d.y, d.x[:, :1], ("a",)), ModelSpec((0,)))
        # coefficients are not identifiable but the means are
        assert np.max(np.abs(f2.mu - f1.mu)) < 1e-8


class TestBatchSemantics:
    def test_rows_identical_to_single_row_fits(self, finney_dataset):
        d = finney_dataset
        X = design_matrix(d, ModelSpec((0, 1)))
        rng = np.random.default_rng(99)
        Y = (rng.random((7, d.n)) < 0.5).astype(float)
        beta_b, mu_b, conv_b, it_b = fit_batch(X, Y)
        for k in range(7):
            beta_1, mu_1, conv_1, it_1 = fit_batch(X, Y[k : k + 1])
            assert np.array_equal(beta_b[k], beta_1[0])
            assert np.array_equal(mu_b[k], mu_1[0])
            assert conv_b[k] == conv_1[0]
            assert it_b[k] == it_1[0]

    @pytest.mark.parametrize("case", ["finney-draws", "n575-p12"])
    def test_engine_scale_batches_match_single_rows(self, finney_dataset, case):
        # engine-sized chunks: a Finney draw batch (including separated rows
        # that run into the iteration cap) and a wide design at n = 575
        if case == "finney-draws":
            spec = ModelSpec((0, 1))
            X = design_matrix(finney_dataset, spec)
            Y = draw_outcomes(12345, 0, 6721, fit(finney_dataset, spec).mu)
        else:
            X, Y = n575_design()
        B, n = Y.shape
        got = fit_batch(X, Y)
        capped = np.nonzero(got[3] == 100)[0]
        if case == "finney-draws":
            assert capped.size > 0
        sample = np.concatenate([capped[:3], np.random.default_rng(1).choice(B, 6, replace=False)])
        # a view at an odd offset inside a larger buffer must not change a row
        buf = np.zeros((3, n + 5))
        for k in sample:
            buf[1, 3 : 3 + n] = Y[k]
            for rows in (Y[k : k + 1], buf[1:2, 3 : 3 + n]):
                one = fit_batch(X, rows)
                for whole, alone in zip(got, one):
                    assert np.array_equal(whole[k], alone[0])
        for lo, hi in ((0, 1), (1, 2), (B // 3, B // 3 + 101), (B - 77, B)):
            part = fit_batch(X, Y[lo:hi])
            for whole, sub in zip(got, part):
                assert np.array_equal(whole[lo:hi], sub)

    @pytest.mark.parametrize(
        "case", ["finney-draws", "offset", "max-iterations-1", "max-iterations-3"]
    )
    def test_matches_the_reference_loop_bit_for_bit(self, finney_dataset, case, monkeypatch):
        # intercept-only fits keep the reference loop's stopping rule and
        # every floating-point operation of it, through the class path and,
        # with an offset, through the per-row loop
        pinv_calls = []
        pinv = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv", lambda a: pinv_calls.append(1) or pinv(a))
        d = finney_dataset
        X = design_matrix(d, ModelSpec())
        Y = draw_outcomes(12345, 0, 6721, fit(d, ModelSpec()).mu)
        # the s = 0 and s = n classes never converge
        Y[100] = 0.0
        Y[200] = 1.0
        cfg, offset = DEFAULT_FIT_CONFIG, None
        if case == "offset":
            offset = np.linspace(-1.0, 1.0, d.n)
            Y = Y[:500]
        elif case.startswith("max-iterations"):
            cfg = FitConfig(max_iterations=int(case[-1]))
            Y = Y[:500]
        trace, ref_trace = [], []
        got = fit_batch(X, Y, cfg, offset=offset, deviance_trace=trace)
        want = ref_irls(X, Y, cfg, offset, ref_trace)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert len(trace) == len(ref_trace)
        for a, b in zip(trace, ref_trace):
            assert np.array_equal(a, b)
        assert not got[2][100] and not got[2][200]
        assert not pinv_calls

    @pytest.mark.parametrize(
        "case",
        ["finney-draws", "n575-p12", "offset", "duplicated-column",
         "max-iterations-1", "max-iterations-3"],
    )
    def test_agrees_with_the_reference_loop(self, finney_dataset, case, monkeypatch):
        # with covariates a row may also stop on the Newton decrement, and
        # X'WX is formed from its lower triangle, so bits move by rounding:
        # every converged fit must still be a maximum at least as good as
        # the reference loop's, reached in no more iterations
        pinv_calls = []
        pinv = np.linalg.pinv
        monkeypatch.setattr(np.linalg, "pinv", lambda a: pinv_calls.append(1) or pinv(a))
        d = finney_dataset
        X = design_matrix(d, ModelSpec((0, 1)))
        Y = draw_outcomes(12345, 0, 6721, fit(d, ModelSpec((0, 1))).mu)
        cfg, offset = DEFAULT_FIT_CONFIG, None
        if case == "n575-p12":
            X, Y = n575_design()
        elif case == "offset":
            offset = np.linspace(-1.0, 1.0, d.n)
            Y = Y[:500]
        elif case == "duplicated-column":
            X = np.column_stack([X, X[:, 1]])
            Y = Y[:300]
        elif case.startswith("max-iterations"):
            cfg = FitConfig(max_iterations=int(case[-1]))
            Y = Y[:500]
        beta, mu, conv, iters = fit_batch(X, Y, cfg, offset=offset)
        got_pinv = bool(pinv_calls)
        pinv_calls.clear()
        ref_beta, _, ref_conv, ref_iters = ref_irls(X, Y, cfg, offset, None)
        assert bool(pinv_calls) == got_pinv == (case == "duplicated-column")
        assert np.array_equal(conv, ref_conv)
        assert np.array_equal(iters == cfg.max_iterations, ref_iters == cfg.max_iterations)
        assert np.all(iters <= ref_iters)
        if case == "finney-draws":
            assert np.any(iters == 100)

        def dev(b):
            eta = b @ X.T + (0.0 if offset is None else offset)
            return 2.0 * (np.sum(ref_softplus(eta), axis=1) - np.sum(Y * eta, axis=1))

        assert np.all((dev(beta) <= dev(ref_beta) + 1e-9)[conv])
        # the stop asks for a decrement d'Ad below tolerance / 100 on the
        # last full step; the score X'(y - mu) it leaves is then bounded by
        # sqrt(tolerance / 100 * largest eigenvalue of X'WX)
        score = np.linalg.norm((Y - mu) @ X, axis=1)
        w = mu * (1.0 - mu)
        top = np.linalg.eigvalsh(np.einsum("bn,ni,nj->bij", w, X, X))[:, -1]
        assert np.all((score < np.sqrt(cfg.tolerance / 100 * top))[conv])

    @pytest.mark.parametrize("p", [10, 12])
    def test_wide_design_iteration_budget(self, p):
        # a full Newton step with a tiny decrement ends the fit; three more
        # plateau iterations, as the deviance-change rule alone takes, would
        # lift the mean to about 7.5
        X, Y = n575_design()
        _, _, conv, iters = fit_batch(X[:, :p], Y)
        assert conv.all()
        assert iters.mean() <= 6.1

    @pytest.mark.parametrize("n", [16, 39, 575])
    def test_intercept_only_classes_share_one_fit(self, n):
        # the ones sit at shuffled positions; every row of a success-count
        # class must follow the same float trajectory to the same means.
        # fit_batch fits each class once, so this asks the IRLS loop itself
        rng = np.random.default_rng(n)
        Y = np.zeros((3 * (n + 1), n))
        for row in range(Y.shape[0]):
            Y[row, rng.permutation(n)[: row // 3]] = 1.0
        beta, mu, conv, iters = _irls(np.ones((n, 1)), Y, DEFAULT_FIT_CONFIG, None, None)
        for s in range(n + 1):
            rows = slice(3 * s, 3 * s + 3)
            assert np.all(mu[rows] == mu[3 * s, 0])
            assert np.all(beta[rows] == beta[3 * s])
            assert np.all(iters[rows] == iters[3 * s])
            assert np.all(conv[rows] == conv[3 * s])

    def test_class_path_matches_the_per_row_loop(self, finney_dataset):
        # an engine-sized Finney l = 0 chunk, plus the s = 0 and s = n rows
        # that never converge: fitting once per success count and copying
        # must give every row exactly what its own IRLS run gives
        d = finney_dataset
        X = design_matrix(d, ModelSpec())
        Y = draw_outcomes(12345, 0, 6721, fit(d, ModelSpec()).mu)
        Y[100] = 0.0
        Y[5000] = 1.0
        trace_cls, trace_rows = [], []
        got = fit_batch(X, Y, deviance_trace=trace_cls)
        want = _irls(X, Y, DEFAULT_FIT_CONFIG, None, trace_rows)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert np.array_equal(a, b)
        assert len(trace_cls) == len(trace_rows)
        for a, b in zip(trace_cls, trace_rows):
            assert np.array_equal(a, b)
        assert not got[2][100] and not got[2][5000]

    def test_complementary_classes_get_complementary_means(self):
        # swapping y with 1 - y mirrors the intercept-only fit; in float the
        # means of classes s and n - s agree with 1 - each other to within
        # the fit's accuracy for every pair, and bit for bit only on some
        for n in (16, 39, 575):
            X = np.ones((n, 1))
            Y = (np.arange(n)[None, :] < np.arange(1, n)[:, None]).astype(float)
            _, mu, _, _ = fit_batch(X, Y)
            _, mu_c, _, _ = fit_batch(X, 1.0 - Y)
            assert np.max(np.abs(mu_c - (1.0 - mu))) < 1e-8
            if n == 39:
                # the 19/20 pair mirrors exactly, which the statistics
                # module's complementary tie test relies on
                assert np.array_equal(mu_c[18], 1.0 - mu[18])


class TestFitConfig:
    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            FitConfig(max_iterations=0)
        with pytest.raises(ValueError):
            FitConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            FitConfig(mu_clamp=0.7)

    def test_iteration_cap_is_respected(self):
        x = np.linspace(-2, 2, 12)[:, None]
        d = Dataset((x[:, 0] > 0).astype(int), x)
        f = fit(d, ModelSpec((0,)), FitConfig(max_iterations=5))
        assert f.iterations <= 5
