import math

import numpy as np
import pytest

from logitgof import (
    ConfigError,
    Dataset,
    ModelSpec,
    PValueEstimate,
    SimulationPlan,
    StatisticKind,
    draw_outcomes,
    estimate_pvalues,
    finney,
    observed_statistics,
    parse_statistics,
    run_one_simulation,
)


def small_plan(num_simulations=2000, master_seed=42, labels=("ks:mu-full", "deviance"),
               tested=ModelSpec((0,))):
    d = finney()
    return SimulationPlan(
        dataset=d,
        tested=tested,
        full=ModelSpec((0, 1)),
        statistics=parse_statistics(labels),
        num_simulations=num_simulations,
        master_seed=master_seed,
    )


class TestPlanValidation:
    def test_rejects_empty_statistics(self):
        with pytest.raises(ConfigError, match="at least one"):
            small_plan(labels=())

    def test_rejects_non_nested_models(self):
        d = finney()
        with pytest.raises(ConfigError, match="nested"):
            SimulationPlan(
                dataset=d,
                tested=ModelSpec((1,)),
                full=ModelSpec((0,)),
                statistics=parse_statistics(["deviance"]),
                num_simulations=10,
                master_seed=0,
            )

    def test_rejects_partial_full_model(self):
        d = finney()
        with pytest.raises(ConfigError, match="every covariate"):
            SimulationPlan(
                dataset=d,
                tested=ModelSpec((0,)),
                full=ModelSpec((0,)),
                statistics=parse_statistics(["deviance"]),
                num_simulations=10,
                master_seed=0,
            )

    def test_rejects_bad_seed_and_budget(self):
        with pytest.raises(ConfigError, match="num_simulations"):
            small_plan(num_simulations=0)
        with pytest.raises(ConfigError, match="64"):
            small_plan(master_seed=-1)
        with pytest.raises(ConfigError, match="64"):
            small_plan(master_seed=1 << 64)


class TestDrawOutcomes:
    def test_deterministic_per_seed(self):
        mu = np.linspace(0.2, 0.8, 10)
        a = draw_outcomes(123, 0, 50, mu)
        b = draw_outcomes(123, 0, 50, mu)
        c = draw_outcomes(124, 0, 50, mu)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_chunking_is_invisible(self):
        mu = np.linspace(0.1, 0.9, 17)
        whole = draw_outcomes(7, 0, 100, mu)
        parts = np.vstack([
            draw_outcomes(7, 0, 13, mu),
            draw_outcomes(7, 13, 60, mu),
            draw_outcomes(7, 60, 100, mu),
        ])
        assert np.array_equal(whole, parts)

    def test_values_are_binary_with_plausible_rate(self):
        mu = np.full(40, 0.3)
        Y = draw_outcomes(99, 0, 500, mu)
        assert set(np.unique(Y)) <= {0.0, 1.0}
        assert abs(Y.mean() - 0.3) < 0.02


# the intercept-only tested model takes fit_batch's once-per-success-count path
TESTED_MODELS = (ModelSpec(()), ModelSpec((0,)))


class TestEngine:
    def test_single_simulation_matches_batch_row(self):
        from logitgof.fitting import design_matrix, fit_batch
        from logitgof.statistics import evaluate_batch

        for tested in TESTED_MODELS:
            plan = small_plan(num_simulations=64, tested=tested)
            _, mu_tested, _, _ = observed_statistics(plan)
            Y = draw_outcomes(plan.master_seed, 0, 64, mu_tested)
            _, mu_t, _, _ = fit_batch(design_matrix(plan.dataset, plan.tested), Y)
            _, mu_f, _, _ = fit_batch(design_matrix(plan.dataset, plan.full), Y)
            batch = evaluate_batch(plan.statistics, Y, mu_t, mu_f)
            for k in (0, 13, 63):
                solo = run_one_simulation(plan, k)
                assert np.array_equal(solo, batch[k])

    def test_worker_count_cannot_change_results(self):
        for tested in TESTED_MODELS:
            plan = small_plan(num_simulations=3000, tested=tested)
            single = estimate_pvalues(plan, workers=1)
            threaded = estimate_pvalues(plan, workers=4)
            assert single == threaded

    def test_rerun_is_identical(self):
        plan = small_plan(num_simulations=1500)
        assert estimate_pvalues(plan) == estimate_pvalues(plan)

    def test_longer_run_extends_the_short_one(self):
        # counter-based seeding means the first 1000 simulations of the
        # longer run are exactly the shorter run
        short = estimate_pvalues(small_plan(num_simulations=1000))
        long = estimate_pvalues(small_plan(num_simulations=2500))
        for s, l in zip(short, long):
            assert s.exceed_count <= l.exceed_count

    def test_observed_statistics_dedupes_identical_models(self):
        d = finney()
        plan = SimulationPlan(
            dataset=d,
            tested=ModelSpec((0, 1)),
            full=ModelSpec((0, 1)),
            statistics=parse_statistics(["ks:mu-full", "ks:mu-tested"]),
            num_simulations=10,
            master_seed=1,
        )
        pairs, mu_t, mu_f, converged = observed_statistics(plan)
        assert converged
        assert np.array_equal(mu_t, mu_f)
        # same fit, same ordering: the two labels must agree exactly
        assert pairs[0][1] == pairs[1][1]

    def test_progress_reports_reach_total(self):
        plan = small_plan(num_simulations=1200)
        seen = []
        estimate_pvalues(plan, progress=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (1200, 1200)
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)

    def test_progress_exception_cancels_run(self):
        plan = small_plan(num_simulations=5000)

        class Stop(RuntimeError):
            pass

        def boom(done, total):
            raise Stop()

        with pytest.raises(Stop):
            estimate_pvalues(plan, progress=boom)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ConfigError, match="workers"):
            estimate_pvalues(small_plan(num_simulations=10), workers=0)


class TestPValueEstimate:
    def test_derived_fields_are_pure_functions_of_counts(self):
        e = PValueEstimate(
            statistic=StatisticKind.parse("deviance"),
            observed_value=1.5,
            exceed_count=355,
            num_simulations=1000,
        )
        assert e.p_hat == 355 / 1000
        assert e.std_error == math.sqrt(e.p_hat * (1.0 - e.p_hat) / 1000)
        assert e.p_upper_bound is None

    def test_zero_count_reports_upper_bound(self):
        e = PValueEstimate(
            statistic=StatisticKind.parse("deviance"),
            observed_value=1.5,
            exceed_count=0,
            num_simulations=4_000_000,
        )
        assert e.p_hat == 0.0
        assert e.std_error == 0.0
        assert e.p_upper_bound == 1.0 / 4_000_000
