"""Whole-pipeline checks at reference scale.

Each test here pins one end-to-end claim: the reference P-values for the
embedded dataset, agreement with exhaustive enumeration, the structural
identities of the statistics at production sizes, byte-level determinism,
and that every shipped config executes. Budgets are chosen so tolerances
are four standard errors or better, which puts this module's runtime in
the minutes; everything is seeded, so a pass is a pass forever.

Two documented limitations are recorded in docstrings here: the grouped
rows differ from the paper's (test_grouped_statistic_reference_rows_l2
checks them against an independent reference instead), and P-values lean
small on steep fits (test_pvalues_are_uniform_when_the_tested_model_is_true
checks uniformity on a mild design, where the method promises it). Read
both docstrings before touching anything they exercise.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from logitgof.dataio import export_csv
from logitgof.datamodel import Dataset, ModelSpec, Ordering, OrderingPolicy
from logitgof.datasets import finney
from logitgof.exact import exact_pvalues
from logitgof.experiment import ExperimentConfig, emit_json, run_experiment
from logitgof.fitting import fit, residuals
from logitgof.montecarlo import SimulationPlan, draw_outcomes, estimate_pvalues
from logitgof.statistics import (
    evaluate_batch,
    half_abs_sum,
    ks_statistic,
    kuiper_statistic,
    make_ordering,
    parse_statistics,
)

pytestmark = pytest.mark.slow

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
REFERENCE_SIMS = 1_000_000
SEED = 12345


def _by_label(estimates):
    return {e.statistic.label: e for e in estimates}


def _reference_grouped_pvalues(y, x, groups, num_draws, seed):
    """Monte-Carlo P-values of the grouped statistic at l = m, from scratch.

    An independent check on the engine's hl:<g>:mu-tested rows that uses
    nothing from logitgof: numpy's default generator for the draws, plain
    undamped Newton steps through np.linalg.solve for every fit, and direct
    block sums. It implements the documented statistic: a stable sort by
    the fitted means, blocks of ceil(n/g) with the remainder last, and
    (O - E)^2 / (E (1 - E/size)) per block, where a degenerate block counts
    0 when O equals E and infinity otherwise. Simulated fits are used as
    they end, converged or not, as the engine does.
    """
    n = y.shape[0]
    X = np.column_stack([np.ones(n), x])

    def fitted_means(Y):
        beta = np.zeros((Y.shape[0], X.shape[1]))
        # 25 steps: on the embedded data, in a 20,000-draw trial, no draw's
        # exceedance changed between 15 and 100 steps; the tanh form of the
        # logistic cannot overflow
        for _ in range(25):
            mu = np.clip(0.5 + 0.5 * np.tanh(0.5 * (beta @ X.T)), 1e-12, 1.0 - 1e-12)
            hess = np.einsum("bk,ki,kj->bij", mu * (1.0 - mu), X, X)
            step = np.linalg.solve(hess, ((Y - mu) @ X)[..., None])[..., 0]
            beta += step
        mu = np.clip(0.5 + 0.5 * np.tanh(0.5 * (beta @ X.T)), 1e-12, 1.0 - 1e-12)
        return mu, np.abs(step).max(axis=1) < 1e-8

    def grouped(Y, mu, g):
        head = -(-n // g)
        bounds = [k * head for k in range(g)] + [n]
        order = np.argsort(mu, axis=1, kind="stable")
        ys = np.take_along_axis(Y, order, axis=1)
        ms = np.take_along_axis(mu, order, axis=1)
        total = np.zeros(Y.shape[0])
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            o = ys[:, lo:hi].sum(axis=1)
            e = ms[:, lo:hi].sum(axis=1)
            den = e * (1.0 - e / (hi - lo))
            ok = den > 0.0
            total += np.where(
                ok,
                (o - e) ** 2 / np.where(ok, den, 1.0),
                np.where(o == e, 0.0, np.inf),
            )
        return total

    y_obs = np.asarray(y, dtype=np.float64)[None, :]
    mu_obs, converged = fitted_means(y_obs)
    assert converged[0], "reference fit of the observed data did not converge"
    observed = [grouped(y_obs, mu_obs, g)[0] for g in groups]

    rng = np.random.default_rng(seed)
    exceed = np.zeros(len(groups), np.int64)
    for start in range(0, num_draws, 50_000):
        Y = (rng.random((min(50_000, num_draws - start), n)) < mu_obs).astype(np.float64)
        mu = fitted_means(Y)[0]
        for k, g in enumerate(groups):
            exceed[k] += np.count_nonzero(grouped(Y, mu, g) >= observed[k])
    return exceed / num_draws


@pytest.fixture(scope="module")
def finney_l2_estimates():
    kinds = parse_statistics([
        "ks:mu-tested", "ks:mu-full", "ks:residual",
        "deviance", "pearson-chi2", "euclidean", "freeman-tukey",
        "hl:3:mu-tested", "hl:5:mu-tested",
    ])
    plan = SimulationPlan(
        dataset=finney(),
        tested=ModelSpec((0, 1)),
        statistics=kinds,
        num_simulations=REFERENCE_SIMS,
        master_seed=SEED,
    )
    return _by_label(estimate_pvalues(plan))


@pytest.fixture(scope="module")
def finney_l0_estimates():
    kinds = parse_statistics(["ks:mu-full", "ks:mu-tested", "deviance"])
    plan = SimulationPlan(
        dataset=finney(),
        tested=ModelSpec(()),
        statistics=kinds,
        num_simulations=REFERENCE_SIMS,
        master_seed=SEED,
    )
    return _by_label(estimate_pvalues(plan))


def test_reference_pvalues_on_the_embedded_data_l2(finney_l2_estimates):
    bands = {
        "ks:mu-tested": (0.0075, 0.00035),
        "ks:mu-full": (0.0075, 0.00035),
        "ks:residual": (0.355, 0.002),
        "deviance": (0.324, 0.002),
        "pearson-chi2": (0.182, 0.0016),
        "euclidean": (0.393, 0.002),
        "freeman-tukey": (0.250, 0.01),
    }
    misses = []
    for label, (center, tol) in bands.items():
        p = finney_l2_estimates[label].p_hat
        if abs(p - center) > tol:
            misses.append(f"{label}: p={p:.6f}, wanted {center} +- {tol}")
    assert not misses, "; ".join(misses)


def test_grouped_statistic_reference_rows_l2(finney_l2_estimates):
    """Grouped rows at l = m = 2 agree with an independent reference.

    The engine's million-simulation hl:3:mu-tested and hl:5:mu-tested
    P-values must lie within four combined binomial standard errors of
    _reference_grouped_pvalues, a from-scratch implementation of the
    documented statistic, run on 200,000 draws of its own.

    Open difference from the paper: its reference rows are .107 for 3
    groups and .787 for 5, while the documented statistic gives about .016
    and .184 (the engine's 1,000,000 simulations at seed 12345 give .016449
    and .184365). The paper's text is not in this repository, so its
    convention for the statistic cannot be read here. A sweep of 3
    denominators, 5 block layouts, 7 sort keys, refit and no refit,
    equal-width bins, chi-square approximations, log covariates and l in
    {0, 1} found none that gives both values; the closest were no refit
    with 3 groups near .112 and tested = {volume} at .123 and .750, both
    many standard errors away. If the paper's convention turns up and
    reproduces both values, adopt it in the program and point this test
    back at .107 and .787.
    """
    draws = 200_000
    d = finney()
    reference = _reference_grouped_pvalues(d.y, d.x, (3, 5), draws, SEED)
    misses = []
    for label, p_ref in zip(("hl:3:mu-tested", "hl:5:mu-tested"), reference):
        p = finney_l2_estimates[label].p_hat
        se = math.sqrt(p_ref * (1.0 - p_ref) * (1.0 / REFERENCE_SIMS + 1.0 / draws))
        if abs(p - p_ref) > 4.0 * se:
            misses.append(f"{label}: p={p:.6f}, reference={p_ref:.6f}, se={se:.2e}")
    assert not misses, "; ".join(misses)


def test_power_contrast_on_the_embedded_data_l0(finney_l0_estimates):
    # the full-model ordering detects the missing covariates at the 1e-5
    # scale while the tested-model ordering and the deviance sit near .25
    est = finney_l0_estimates
    assert est["ks:mu-full"].p_hat <= 2e-5, f"got {est['ks:mu-full'].p_hat}"
    assert 0.24 <= est["ks:mu-tested"].p_hat <= 0.26
    assert 0.24 <= est["deviance"].p_hat <= 0.26


def test_monte_carlo_matches_exact_enumeration_on_small_samples(make_random_dataset):
    kinds = parse_statistics(
        ["ks:mu-full", "kuiper:mu-full", "hl:3:mu-tested", "pearson-chi2"]
    )
    i = 200_000
    cases = [(8, 0), (9, 1), (10, 2), (11, 1), (12, 0)]
    misses = []
    for idx, (n, l) in enumerate(cases):
        d = make_random_dataset(seed=400 + idx, n=n, m=2)
        tested = ModelSpec(tuple(range(l)))
        full = ModelSpec((0, 1))
        oracle = exact_pvalues(d, tested, full, kinds)
        plan = SimulationPlan(
            dataset=d, tested=tested, statistics=kinds,
            num_simulations=i, master_seed=500 + idx,
        )
        for e, ex in zip(estimate_pvalues(plan), oracle):
            se = math.sqrt(ex.p_exact * (1.0 - ex.p_exact) / i)
            if abs(e.p_hat - ex.p_exact) > 4.0 * se:
                misses.append(
                    f"n={n} l={l} {e.statistic.label}: "
                    f"p_hat={e.p_hat:.6f} exact={ex.p_exact:.6f} se={se:.2e}"
                )
    assert not misses, "; ".join(misses)


def test_residual_ordered_ks_is_half_the_absolute_residual_sum(make_random_dataset):
    # separated fits are skipped: their residuals do not sum to zero, and
    # the collapse below is a property of the maximum-likelihood fit
    checked = 0
    seed = 0
    worst = 0.0
    while checked < 1000:
        seed += 1
        n = 5 + (seed * 797) % 196
        d = make_random_dataset(seed=seed, n=n, m=2)
        f = fit(d, ModelSpec((0, 1)))
        if not f.converged:
            continue
        r = residuals(f, d)
        ordering = make_ordering(OrderingPolicy.BY_RESIDUAL, residual=r)
        worst = max(worst, abs(ks_statistic(r, ordering) - half_abs_sum(r)))
        checked += 1
    assert worst <= 1e-12, f"worst gap {worst:.3e} over 1000 fits"


def test_kuiper_survives_rotations_and_meets_ks_on_the_residual_order(make_random_dataset):
    checked = 0
    seed = 0
    while checked < 200:
        seed += 1
        n = 5 + (seed * 131) % 56
        d = make_random_dataset(seed=10_000 + seed, n=n, m=2)
        f = fit(d, ModelSpec((0, 1)))
        if not f.converged:
            continue
        r = residuals(f, d)
        base = make_ordering(OrderingPolicy.BY_RESIDUAL, residual=r)
        ks = ks_statistic(r, base)
        ku = kuiper_statistic(r, base)
        assert abs(ku - ks) <= 1e-12
        for shift in range(1, d.n):
            rolled = Ordering(np.roll(base.sigma, shift))
            assert abs(kuiper_statistic(r, rolled) - ku) <= 1e-12
        checked += 1


def test_deviance_is_a_function_of_the_fitted_means_alone(make_random_dataset):
    checked = 0
    seed = 0
    while checked < 200:
        seed += 1
        n = 20 + (seed * 61) % 120
        d = make_random_dataset(seed=20_000 + seed, n=n, m=2)
        assert np.unique(d.x, axis=0).shape[0] == d.n
        f = fit(d, ModelSpec((0, 1)))
        if not f.converged:
            continue
        mu = f.mu
        yfree = 2.0 * np.sum(mu * np.log((1.0 - mu) / mu)) - 2.0 * np.sum(
            np.log(1.0 - mu)
        )
        dev = evaluate_batch(parse_statistics(["deviance"]), d.y[None, :], mu[None, :],
                             mu[None, :])[0, 0]
        assert dev == pytest.approx(yfree, rel=1e-8)
        checked += 1


def test_pvalues_are_uniform_when_the_tested_model_is_true():
    """Resampled P-values look uniform when a mild tested model is true.

    The design is fixed and seeded: n = 100, two N(0, 1) covariates drawn
    from default_rng(2013), and generating means from
    eta = 0.2 + 0.5 x1 - 0.5 x2. It lies in the regime README calls mild:
    the generating means span about .18 to .92, far from the 0 and 1 that
    the embedded dataset's fit hugs (.0006 to .995), and every replicate's
    observed fit converges. Both are asserted, the second because
    run_experiment refuses data whose observed fit does not converge, so no
    P-value is scored for a replicate it would reject. Two hundred outcome
    vectors drawn from these means are each tested with ks:mu-full at
    10,000 simulations; the Kolmogorov-Smirnov distance of their P-values
    from uniform must stay below the 1% critical value 1.63/sqrt(200). That
    is all the check claims. It does not rule out a lean in the lower tail:
    on this design 20 of the 200 P-values fall at or below .05, twice the
    nominal rate.

    Steep designs are outside this check, because there the method does not
    promise uniformity. Replicates drawn from the embedded dataset's own fit
    give P-values that lean small (median .37, distance .181), for every
    statistic offered. Maximum-likelihood refits of resampled outcomes run
    steeper than the generating coefficients (median refit norm 35 against
    30.6), so the second-level simulations interpolate their own data
    better than the first level does, which deflates every exceedance
    count. 15 of those 200 replicates have an observed fit that does not
    converge; dropping them leaves the distance at .181, so they are not
    the cause. An independent loop reproduces the per-replicate P-values,
    so the engine computes the right quantity. README's Known limitations
    records the lean.
    """
    rng = np.random.default_rng(2013)
    x = rng.normal(size=(100, 2))
    mu_gen = 1.0 / (1.0 + np.exp(-(0.2 + 0.5 * x[:, 0] - 0.5 * x[:, 1])))
    assert 0.15 < mu_gen.min() and mu_gen.max() < 0.95, (mu_gen.min(), mu_gen.max())
    full = ModelSpec((0, 1))
    kinds = parse_statistics(["ks:mu-full"])
    replicates, i = 200, 10_000
    ps = []
    for rep in range(replicates):
        y_rep = draw_outcomes(777, rep, rep + 1, mu_gen)[0]
        d = Dataset(y_rep.astype(int), x)
        assert fit(d, full).converged, f"replicate {rep}: observed fit did not converge"
        plan = SimulationPlan(
            dataset=d, tested=full, statistics=kinds,
            num_simulations=i, master_seed=9_000_000 + rep,
        )
        ps.append(estimate_pvalues(plan)[0].p_hat)
    distance = scipy.stats.kstest(ps, "uniform").statistic
    assert distance < 1.63 / math.sqrt(replicates), f"KS distance {distance:.4f}"


def test_json_report_bytes_do_not_depend_on_worker_count():
    doc = {
        "dataset": "finney",
        "dependent": "response",
        "tested": ["volume", "rate"],
        "full": ["volume", "rate"],
        "statistics": ["ks:mu-full", "deviance"],
        "num_simulations": 20_000,
        "master_seed": 6,
    }
    payloads = [
        emit_json(run_experiment(ExperimentConfig.from_dict(doc), workers=w))
        for w in (1, 4, 16)
    ]
    assert payloads[0] == payloads[1] == payloads[2]


def test_emitted_standard_errors_satisfy_the_error_formula_exactly():
    # the l=0 full-model row reliably produces a zero count, so the bound
    # row goes through the same bitwise check as the ordinary ones
    doc = {
        "dataset": "finney",
        "dependent": "response",
        "tested": [],
        "full": ["volume", "rate"],
        "statistics": ["ks:mu-full", "ks:mu-tested", "deviance", "pearson-chi2"],
        "num_simulations": 4_000,
        "master_seed": 3,
    }
    report = run_experiment(ExperimentConfig.from_dict(doc))
    rows = json.loads(emit_json(report))["statistics"]
    assert any(row["exceed_count"] == 0 for row in rows)
    for row in rows:
        b, i = row["exceed_count"], row["num_simulations"]
        p = b / i
        assert row["p_hat"] == p
        assert row["std_error"] == math.sqrt(p * (1.0 - p) / i)
        if b == 0:
            assert row["p_upper_bound"] == 1.0 / i


def _stand_in_csv(path, dependent, names, n, seed):
    # only the shape and the header names matter to the configs; outcomes
    # lean on the covariates a little so every fit converges comfortably
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, len(names)))
    beta = rng.normal(scale=0.3, size=len(names))
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(x @ beta)))).astype(int)
    export_csv(Dataset(y, x, names), dependent, path)


def test_every_shipped_config_runs_end_to_end(tmp_path):
    uis_names = ("age", "beck", "ndrgfp1", "ndrgfp2", "ivhx_2", "ivhx_3",
                 "race", "treat", "site", "ageXndrgfp1", "raceXsite")
    evans_names = ("age", "cat", "chl", "dbp", "ecg", "hpt", "sbp", "smk",
                   "catXchl", "catXhpt")
    _stand_in_csv(tmp_path / "uis.csv", "dfree", uis_names, 575, seed=31)
    _stand_in_csv(tmp_path / "evans.csv", "chd", evans_names, 609, seed=32)
    stand_ins = {
        "data/uis.csv": str(tmp_path / "uis.csv"),
        "data/evans.csv": str(tmp_path / "evans.csv"),
    }
    config_paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(config_paths) == 14
    for path in config_paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["dataset"] = stand_ins.get(doc["dataset"], doc["dataset"])
        doc["num_simulations"] = 300
        report = run_experiment(ExperimentConfig.from_dict(doc))
        assert len(report.estimates) == len(doc["statistics"]), path.name
        for e in report.estimates:
            assert 0 <= e.exceed_count <= 300, path.name
