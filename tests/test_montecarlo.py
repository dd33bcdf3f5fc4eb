import math
import threading

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
)


def small_plan(num_simulations=2000, master_seed=42, labels=("ks:mu-full", "deviance"),
               tested=ModelSpec((0,))):
    d = finney()
    return SimulationPlan(
        dataset=d,
        tested=tested,
        statistics=parse_statistics(labels),
        num_simulations=num_simulations,
        master_seed=master_seed,
    )


class TestPlanValidation:
    def test_rejects_empty_statistics(self):
        with pytest.raises(ConfigError, match="at least one"):
            small_plan(labels=())

    def test_rejects_bad_seed_and_budget(self):
        with pytest.raises(ConfigError, match="num_simulations"):
            small_plan(num_simulations=0)
        with pytest.raises(ConfigError, match="64"):
            small_plan(master_seed=-1)
        with pytest.raises(ConfigError, match="64"):
            small_plan(master_seed=1 << 64)

    # each used to run: a fractional or boolean seed as seed 1, True as one
    # simulation, 2.5 up to a TypeError inside estimate_pvalues
    @pytest.mark.parametrize(
        "name, value",
        [("master_seed", 1.5), ("master_seed", True), ("num_simulations", True),
         ("num_simulations", 2.5)],
    )
    def test_rejects_a_seed_or_count_that_is_not_an_integer(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
            small_plan(**{name: value})


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


def engine_chunks(plan, monkeypatch, workers=1):
    """The estimates of one estimate_pvalues call, the observed values it
    evaluated and the statistic values of every simulated chunk it
    evaluated, in simulation order at one worker."""
    from logitgof import montecarlo

    chunks = []
    evaluate = montecarlo.evaluate_batch

    def spy(*args):
        chunks.append(evaluate(*args))
        return chunks[-1]

    monkeypatch.setattr(montecarlo, "evaluate_batch", spy)
    estimates = estimate_pvalues(plan, workers=workers)
    monkeypatch.undo()
    # the first call evaluates the observed outcomes
    return estimates, chunks[0][0], chunks[1:]


class TestEngine:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_are_a_plain_count_of_the_evaluated_chunks(self, workers, monkeypatch):
        # the counts come from the tally the exact oracle also runs; here
        # they are recounted from the values of every chunk the run evaluated
        from logitgof import montecarlo

        labels = ("ks:mu-full", "kuiper:mu-tested", "deviance", "pearson-chi2", "hl:3:mu-full")
        plan = small_plan(num_simulations=3 * 256 + 5, labels=labels)
        monkeypatch.setattr(montecarlo, "_chunk_size", lambda n: 256)
        estimates, obs, chunks = engine_chunks(plan, monkeypatch, workers)
        assert sorted(len(c) for c in chunks) == [5, 256, 256, 256]
        counts = sum(np.sum(c >= obs, axis=0) for c in chunks)
        assert [e.exceed_count for e in estimates] == counts.tolist()
        assert [e.observed_value for e in estimates] == obs.tolist()

    def test_single_simulation_matches_batch_row(self, monkeypatch):
        # the batch is the engine's own chunk; a one-row draw is refitted
        # from the same starts; tested = full runs one refit per draw
        from logitgof.montecarlo import _Engine

        for tested in (*TESTED_MODELS, ModelSpec((0, 1))):
            plan = small_plan(num_simulations=64, tested=tested)
            _, _, chunks = engine_chunks(plan, monkeypatch)
            assert len(chunks) == 1 and chunks[0].shape[0] == 64
            batch = chunks[0]
            eng = _Engine(plan.dataset, plan.tested, plan.full, plan.statistics, plan.fit_config)
            for k in (0, 13, 63):
                solo = eng.evaluate(draw_outcomes(plan.master_seed, k, k + 1, eng.mu_gen))[0]
                assert np.array_equal(solo, batch[k])

    @pytest.mark.parametrize("tested", [(), (0,), (0, 1)])
    def test_a_draw_equal_to_the_data_reproduces_the_observed_values(self, tested):
        # the observed values come from refitting the data from the starts
        # the draws are refitted from, so a simulated row equal to the data
        # ties with them exactly, wherever it sits in a chunk
        from logitgof.montecarlo import _Engine

        labels = ("ks:mu-full", "ks:mu-tested", "kuiper:mu-full", "deviance",
                  "pearson-chi2", "hl:5:mu-full", "hl:3:mu-tested")
        plan = small_plan(num_simulations=500, labels=labels, tested=ModelSpec(tested))
        obs = np.array([e.observed_value for e in estimate_pvalues(plan)])
        eng = _Engine(plan.dataset, plan.tested, plan.full, plan.statistics, plan.fit_config)
        assert eng.converged and eng.start_full is not None
        Y = draw_outcomes(plan.master_seed, 0, 500, eng.mu_gen)
        rows = [0, 17, 250, 499]
        Y[rows] = plan.dataset.y
        vals = eng.evaluate(Y)
        for k in rows:
            assert np.array_equal(vals[k], obs)

    @pytest.mark.parametrize("case", ["separated-n10", "quasi-separated"])
    def test_separated_observed_fit_starts_the_refits_at_zero(self, make_random_dataset, case):
        # an observed tested fit that did not converge is no start: refits
        # that begin at its diverging coefficients stop elsewhere than the
        # exact oracle's zero-start refits, which moves the deviance P-value
        # of the quasi-separated case from .444 to about .666
        from logitgof import exact_pvalues
        from logitgof.montecarlo import _Engine

        if case == "separated-n10":
            d = make_random_dataset(seed=402, n=10, m=2)
            tested = ModelSpec((0, 1))
        else:
            # y = 0 left of x1 = 0, y = 1 right of it, mixed on the boundary
            x1 = np.array([-2, -1.5, -1, -0.5, 0, 0, 0, 0.5, 1, 1.5])
            x2 = np.random.default_rng(3).normal(size=10)
            d = Dataset([0, 0, 0, 0, 1, 0, 1, 1, 1, 1], np.column_stack([x1, x2]))
            tested = ModelSpec((0,))
        kinds = parse_statistics(["ks:mu-full", "deviance", "pearson-chi2"])
        i = 3000
        plan = SimulationPlan(
            dataset=d, tested=tested, statistics=kinds, num_simulations=i, master_seed=502,
        )
        eng = _Engine(plan.dataset, plan.tested, plan.full, plan.statistics, plan.fit_config)
        assert not eng.converged and eng.start_tested is None and eng.start_full is None
        oracle = exact_pvalues(d, plan.tested, plan.full, kinds)
        for e, ex in zip(estimate_pvalues(plan), oracle):
            se = math.sqrt(ex.p_exact * (1.0 - ex.p_exact) / i)
            assert abs(e.p_hat - ex.p_exact) <= 4.0 * se + 1.0 / i, e.statistic.label

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

    def test_one_worker_runs_in_the_calling_thread(self):
        # a pool thread's malloc arena would keep its freed chunks
        plan = small_plan(num_simulations=1200)
        seen = set()
        estimate_pvalues(plan, progress=lambda done, total: seen.add(threading.get_ident()))
        assert seen == {threading.get_ident()}

    def test_progress_exception_cancels_run(self):
        plan = small_plan(num_simulations=5000)

        class Stop(RuntimeError):
            pass

        def boom(done, total):
            raise Stop()

        with pytest.raises(Stop):
            estimate_pvalues(plan, progress=boom)

    def test_rejects_bad_worker_count(self):
        # 2.5 and True used to run, and "2" to die in a bare TypeError
        for workers in (0, 2.5, True, "2"):
            with pytest.raises(ConfigError, match="workers"):
                estimate_pvalues(small_plan(num_simulations=10), workers=workers)


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
