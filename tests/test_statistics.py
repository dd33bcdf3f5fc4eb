import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from logitgof import (
    ConfigError,
    GroupingScheme,
    ModelSpec,
    Ordering,
    OrderingPolicy,
    StatisticKind,
    default_grouping,
    deviance,
    euclidean_sq,
    evaluate_batch,
    finney,
    fit,
    freeman_tukey,
    half_abs_sum,
    hosmer_lemeshow,
    ks_statistic,
    kuiper_statistic,
    make_ordering,
    parse_statistics,
    pearson_chi2,
    residuals,
)
from logitgof.fitting import fit_batch

ALL_LABELS = [
    "ks:mu-full", "ks:mu-tested", "ks:residual", "ks:given",
    "kuiper:mu-full", "kuiper:mu-tested", "kuiper:residual", "kuiper:given",
    "half-abs-sum", "deviance", "freeman-tukey", "pearson-chi2", "euclidean",
    "hl:3:mu-full", "hl:5:mu-tested",
]


class TestLabelGrammar:
    def test_round_trip_all_forms(self):
        for label in ALL_LABELS:
            assert StatisticKind.parse(label).label == label

    @given(
        family=st.sampled_from(["ks", "kuiper"]),
        policy=st.sampled_from(list(OrderingPolicy)),
    )
    def test_ordered_round_trip(self, family, policy):
        kind = StatisticKind(family, ordering=policy)
        assert StatisticKind.parse(kind.label) == kind

    @given(
        groups=st.integers(2, 50),
        key=st.sampled_from([OrderingPolicy.BY_FULL_MU, OrderingPolicy.BY_TESTED_MU]),
    )
    def test_grouped_round_trip(self, groups, key):
        kind = StatisticKind("hl", groups=groups, grouping_key=key)
        assert StatisticKind.parse(kind.label) == kind

    @pytest.mark.parametrize(
        "bad",
        [
            "ks",                      # missing ordering
            "ks:upwards",              # no such ordering
            "deviance:mu-full",        # plain family with qualifier
            "hl:mu-full",              # missing group count
            "hl:x:mu-full",            # non-integer group count
            "hl:1:mu-full",            # too few groups
            "hl:5:residual",           # grouping key must be a mean vector
            "entropy",                 # unknown family
            "",
        ],
    )
    def test_rejects_malformed_labels(self, bad):
        with pytest.raises(ConfigError):
            StatisticKind.parse(bad)

    def test_parse_statistics_rejects_duplicates_and_empty(self):
        with pytest.raises(ConfigError, match="twice"):
            parse_statistics(["deviance", "deviance"])
        with pytest.raises(ConfigError, match="at least one"):
            parse_statistics([])


class TestMakeOrdering:
    def test_sorts_key_ascending(self):
        o = make_ordering(OrderingPolicy.BY_FULL_MU, mu_full=np.array([0.3, 0.1, 0.2]))
        assert o.sigma.tolist() == [1, 2, 0]

    def test_ties_keep_original_index_order(self):
        o = make_ordering(OrderingPolicy.BY_TESTED_MU, mu_tested=np.array([0.5, 0.5, 0.5]))
        assert o.sigma.tolist() == [0, 1, 2]

    def test_residual_policy(self):
        o = make_ordering(OrderingPolicy.BY_RESIDUAL, residual=np.array([0.5, -0.5]))
        assert o.sigma.tolist() == [1, 0]

    def test_given_is_arrival_order(self):
        o = make_ordering(OrderingPolicy.GIVEN, n=4)
        assert o.sigma.tolist() == [0, 1, 2, 3]

    def test_missing_key_is_an_error(self):
        with pytest.raises(ConfigError, match="key vector"):
            make_ordering(OrderingPolicy.BY_FULL_MU, mu_tested=np.array([0.5]))
        with pytest.raises(ConfigError, match="observations"):
            make_ordering(OrderingPolicy.GIVEN)


def _given_order(n):
    return make_ordering(OrderingPolicy.GIVEN, n=n)


class TestPartialSumStatistics:
    def test_ks_hand_case(self):
        # partial sums 0.5, 0.0 -> largest magnitude 0.5
        assert ks_statistic(np.array([0.5, -0.5]), _given_order(2)) == 0.5

    def test_ks_zero_residuals(self):
        assert ks_statistic(np.zeros(6), _given_order(6)) == 0.0

    def test_kuiper_hand_case(self):
        # max 0.5, min 0.0
        assert kuiper_statistic(np.array([0.5, -0.5]), _given_order(2)) == 0.5

    def test_half_abs_sum_hand_case(self):
        assert half_abs_sum(np.array([0.5, -0.5])) == 0.5
        assert half_abs_sum(np.zeros(4)) == 0.0

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 40))
    def test_half_abs_sum_dominates_every_ordering(self, seed, n):
        # reference behavior: with centered residuals the KS value of any
        # ordering never beats half the absolute sum, and the ascending
        # residual order attains it
        rng = np.random.default_rng(seed)
        r = rng.normal(size=n)
        r -= r.mean()
        target = half_abs_sum(r)
        for _ in range(20):
            sigma = rng.permutation(n)
            val = ks_statistic(r, Ordering(sigma, OrderingPolicy.GIVEN))
            assert val <= target + 1e-12
        ascending = make_ordering(OrderingPolicy.BY_RESIDUAL, residual=r)
        assert abs(ks_statistic(r, ascending) - target) < 1e-12

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 40))
    def test_kuiper_bounds_and_rotation(self, seed, n):
        rng = np.random.default_rng(seed)
        r = rng.normal(size=n)
        r -= r.mean()
        base = make_ordering(OrderingPolicy.BY_RESIDUAL, residual=r)
        v = kuiper_statistic(r, base)
        assert v >= ks_statistic(r, base) - 1e-12
        for shift in (1, n // 2):
            rotated = Ordering(np.roll(base.sigma, shift), OrderingPolicy.GIVEN)
            assert abs(kuiper_statistic(r, rotated) - v) < 1e-12

    def test_stable_ordering_makes_tied_keys_harmless(self):
        r = np.array([0.25, -0.5, 0.25])
        key = np.array([0.4, 0.4, 0.4])
        a = ks_statistic(r, make_ordering(OrderingPolicy.BY_TESTED_MU, mu_tested=key))
        b = ks_statistic(r, _given_order(3))
        assert a == b


class TestCellStatistics:
    def test_deviance_hand_case(self):
        # -2(ln .5 + ln .5) = 4 ln 2
        got = deviance(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert abs(got - 4 * math.log(2)) < 1e-14

    def test_freeman_tukey_hand_case(self):
        # cells (1-sqrt(.5))^2 and .5 sum to 2-sqrt(2); times 4
        got = freeman_tukey(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert abs(got - 4 * (2 - math.sqrt(2))) < 1e-14

    def test_pearson_hand_case(self):
        got = pearson_chi2(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
        assert got == 2.0

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 60))
    def test_pearson_equals_n_at_the_sample_mean(self, seed, n):
        rng = np.random.default_rng(seed)
        y = (rng.random(n) < 0.5).astype(float)
        if y.sum() in (0, n):
            return
        mu = np.full(n, y.mean())
        assert abs(pearson_chi2(y, mu) - n) < 1e-9 * n

    def test_euclidean_hand_case(self):
        assert euclidean_sq(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == 0.5

    @given(seed=st.integers(0, 10_000))
    def test_euclidean_at_most_quarter_of_pearson(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        y = (rng.random(n) < 0.5).astype(float)
        mu = rng.uniform(0.05, 0.95, size=n)
        assert euclidean_sq(y, mu) <= pearson_chi2(y, mu) / 4 + 1e-12

    @given(seed=st.integers(0, 10_000))
    def test_all_statistics_nonnegative_and_zero_at_perfect_fit(self, seed):
        rng = np.random.default_rng(seed)
        n = 25
        y = (rng.random(n) < 0.5).astype(float)
        mu = rng.uniform(0.05, 0.95, size=n)
        for f in (deviance, freeman_tukey, pearson_chi2, euclidean_sq):
            assert f(y, mu) >= 0.0
        # means clamped at the working boundary on top of the matching outcome
        mu_perfect = np.where(y == 1.0, 1.0 - 1e-10, 1e-10)
        for f in (deviance, freeman_tukey, pearson_chi2, euclidean_sq):
            assert f(y, mu_perfect) < 1e-7


class TestHosmerLemeshow:
    def test_hand_case_two_groups(self):
        # groups {1,1} and {0,0} against flat means: (2-1)^2/(1*.5) twice
        y = np.array([1.0, 1.0, 0.0, 0.0])
        mu = np.full(4, 0.5)
        key = np.array([0.1, 0.2, 0.3, 0.4])
        got = hosmer_lemeshow(y, mu, key, GroupingScheme((2, 2)))
        assert got == 4.0

    def test_perfectly_calibrated_group_scores_zero(self):
        y = np.array([1.0] * 5 + [0.0] * 5)
        mu = np.full(10, 0.5)
        got = hosmer_lemeshow(y, mu, mu, GroupingScheme((10,)))
        assert got == 0.0

    def test_grouping_by_key_reorders_observations(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        mu = np.array([0.9, 0.1, 0.8, 0.2])
        # blocks pairing each 1 with a 0 are perfectly calibrated
        paired = hosmer_lemeshow(y, mu, np.array([0.1, 0.2, 0.3, 0.4]), GroupingScheme((2, 2)))
        # blocks collecting the ones together are not
        split = hosmer_lemeshow(y, mu, np.array([0.1, 0.3, 0.2, 0.4]), GroupingScheme((2, 2)))
        assert paired == 0.0
        assert split > 0.5

    def test_degenerate_group_matching_expectation_contributes_zero(self):
        y = np.array([0.0, 0.0, 1.0, 0.0])
        mu = np.array([0.0, 0.0, 0.5, 0.5])
        key = np.array([0.1, 0.2, 0.3, 0.4])
        got = hosmer_lemeshow(y, mu, key, GroupingScheme((2, 2)))
        # first group is all-zero expectation with a zero count; second is
        # (1-1)^2 over 1*(1-1/2)
        assert got == 0.0

    def test_degenerate_group_with_mismatch_is_infinite(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        mu = np.array([0.0, 0.0, 0.5, 0.5])
        key = np.array([0.1, 0.2, 0.3, 0.4])
        got = hosmer_lemeshow(y, mu, key, GroupingScheme((2, 2)))
        assert got == np.inf

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ConfigError, match="observations"):
            hosmer_lemeshow(np.zeros(4), np.full(4, 0.5), np.full(4, 0.5), GroupingScheme((2,)))


class TestTieMachinery:
    """The simulation comparison is a raw >=, so outcomes that tie in exact
    arithmetic must tie bitwise. These tests pin the two mechanisms: sorted
    per-cell summation, and exact complement symmetry of intercept fits."""

    @given(seed=st.integers(0, 10_000))
    def test_cell_statistics_ignore_arrangement(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        y = (rng.random(n) < 0.5).astype(float)
        mu = rng.uniform(0.01, 0.99, size=n)
        perm = rng.permutation(n)
        for f in (deviance, freeman_tukey, pearson_chi2, euclidean_sq):
            assert f(y, mu) == f(y[perm], mu[perm])

    def test_complementary_intercept_classes_tie_bitwise(self):
        # 19 ones vs 20 ones on 39 observations: complementary outcome
        # classes whose fitted means mirror exactly; the complement-symmetric
        # cell statistics must then agree bit for bit, or the l=0 P-values
        # split wrongly. freeman-tukey is absent on purpose: its observed-cell
        # form genuinely distinguishes complementary classes
        n = 39
        X = np.ones((n, 1))
        Y = np.zeros((2, n))
        Y[0, :19] = 1.0
        Y[1, 19:] = 1.0
        _, mu, _, _ = fit_batch(X, Y)
        kinds = parse_statistics(["deviance", "pearson-chi2", "euclidean", "half-abs-sum"])
        vals = evaluate_batch(kinds, Y, mu, mu)
        assert np.array_equal(vals[0], vals[1])

    @pytest.mark.parametrize("n", [16, 39, 100])
    def test_intercept_only_pearson_is_n_for_every_class(self, n):
        # with mu = s/n in every cell, Pearson is exactly n for 0 < s < n, so
        # at l = 0 its P-value is 1 in exact arithmetic; the float values
        # scatter within rounding of n (see README "Known limitations")
        Y = (np.arange(n)[None, :] < np.arange(1, n)[:, None]).astype(float)
        _, mu, _, _ = fit_batch(np.ones((n, 1)), Y)
        vals = evaluate_batch(parse_statistics(["pearson-chi2"]), Y, mu, mu)[:, 0]
        assert np.max(np.abs(vals - n)) < 1e-9

    @given(seed=st.integers(0, 10_000))
    def test_same_class_arrangements_tie_bitwise_end_to_end(self, seed):
        # two arrangements with the same number of ones, fitted and scored:
        # identical statistics including the ordered families, because the
        # fitted means are constant so every ordering is the stable identity
        rng = np.random.default_rng(seed)
        n = 21
        k = int(rng.integers(1, n))
        X = np.ones((n, 1))
        Y = np.zeros((2, n))
        Y[0, :k] = 1.0
        Y[1, rng.permutation(n)[:k]] = 1.0
        _, mu, _, _ = fit_batch(X, Y)
        kinds = parse_statistics(["deviance", "freeman-tukey", "pearson-chi2", "euclidean"])
        vals = evaluate_batch(kinds, Y, mu, mu)
        assert np.array_equal(vals[0], vals[1])


class TestEvaluateBatch:
    def test_matches_scalar_entry_points(self, finney_dataset):
        d = finney_dataset
        tested = fit(d, ModelSpec((0,)))
        full = fit(d, ModelSpec((0, 1)))
        y = d.y.astype(float)
        r = residuals(tested, d)
        kinds = parse_statistics(ALL_LABELS)
        vals = evaluate_batch(
            kinds, y[None, :], tested.mu[None, :], full.mu[None, :]
        )[0]
        by_label = dict(zip([k.label for k in kinds], vals))

        assert by_label["ks:mu-full"] == ks_statistic(
            r, make_ordering(OrderingPolicy.BY_FULL_MU, mu_full=full.mu)
        )
        assert by_label["ks:mu-tested"] == ks_statistic(
            r, make_ordering(OrderingPolicy.BY_TESTED_MU, mu_tested=tested.mu)
        )
        assert by_label["ks:residual"] == ks_statistic(
            r, make_ordering(OrderingPolicy.BY_RESIDUAL, residual=r)
        )
        assert by_label["ks:given"] == ks_statistic(r, _given_order(d.n))
        assert by_label["kuiper:mu-full"] == kuiper_statistic(
            r, make_ordering(OrderingPolicy.BY_FULL_MU, mu_full=full.mu)
        )
        assert by_label["half-abs-sum"] == half_abs_sum(r)
        assert by_label["deviance"] == deviance(y, tested.mu)
        assert by_label["freeman-tukey"] == freeman_tukey(y, tested.mu)
        assert by_label["pearson-chi2"] == pearson_chi2(y, tested.mu)
        assert by_label["euclidean"] == euclidean_sq(y, tested.mu)
        assert by_label["hl:3:mu-full"] == hosmer_lemeshow(
            y, tested.mu, full.mu, default_grouping(d.n, 3)
        )
        assert by_label["hl:5:mu-tested"] == hosmer_lemeshow(
            y, tested.mu, tested.mu, default_grouping(d.n, 5)
        )

    def test_rows_independent_of_batch_size(self, finney_dataset):
        d = finney_dataset
        full = fit(d, ModelSpec((0, 1)))
        tested = fit(d, ModelSpec((0,)))
        rng = np.random.default_rng(11)
        Y = (rng.random((6, d.n)) < tested.mu[None, :]).astype(float)
        mu_t = np.broadcast_to(tested.mu, Y.shape).copy()
        mu_f = np.broadcast_to(full.mu, Y.shape).copy()
        kinds = parse_statistics(ALL_LABELS)
        batch = evaluate_batch(kinds, Y, mu_t, mu_f)
        for k in range(6):
            solo = evaluate_batch(kinds, Y[k : k + 1], mu_t[k : k + 1], mu_f[k : k + 1])
            assert np.array_equal(batch[k], solo[0])
