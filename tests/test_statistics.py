import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from logitgof import (
    ConfigError,
    DataError,
    Dataset,
    ExperimentConfig,
    ModelSpec,
    Ordering,
    OrderingPolicy,
    SimulationPlan,
    StatisticKind,
    evaluate_batch,
    exact_pvalues,
    finney,
    fit,
    half_abs_sum,
    ks_statistic,
    kuiper_statistic,
    make_ordering,
    parse_statistics,
    residuals,
)
from logitgof.datamodel import default_grouping
from logitgof.fitting import fit_batch
from logitgof.statistics import _FAST_SORT_MIN_N, stable_argsort

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
        kind = StatisticKind("hl", groups=groups, ordering=key)
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

    # an ordering given as its label text used to be taken as the residual
    # ordering, because only None counted as missing
    @pytest.mark.parametrize("family, text", [("ks", "mu-full"), ("kuiper", "given")])
    def test_rejects_an_ordering_that_is_not_a_policy(self, family, text):
        with pytest.raises(ConfigError, match=f"got '{text}'$"):
            StatisticKind(family, ordering=text)

    @pytest.mark.parametrize(
        "family, policy, groups, accepted",
        [
            ("hl", OrderingPolicy.BY_RESIDUAL, 5, "mu-full or mu-tested"),
            ("hl", OrderingPolicy.GIVEN, 5, "mu-full or mu-tested"),
            ("ks", None, None, "mu-full or mu-tested or residual or given"),
            ("deviance", OrderingPolicy.GIVEN, None, "None"),
        ],
        ids=["hl-residual", "hl-given", "ks-none", "deviance-given"],
    )
    def test_names_orderings_by_their_label_text(self, family, policy, groups, accepted):
        got = "None" if policy is None else policy.value
        with pytest.raises(ConfigError, match=f"takes ordering {accepted}, got {got}$"):
            StatisticKind(family, ordering=policy, groups=groups)

    # 2.5 used to be accepted and to fail in default_grouping during the run
    @pytest.mark.parametrize("groups", [2.5, "5"], ids=["fraction", "string"])
    def test_hl_group_count_must_be_an_integer(self, groups):
        with pytest.raises(ConfigError, match="group count of statistic 'hl' must be an integer"):
            StatisticKind("hl", ordering=OrderingPolicy.BY_FULL_MU, groups=groups)

    # a label string where a kind belongs used to be accepted at
    # construction and to die in an AttributeError during the run;
    # evaluate_batch used to return no column for no kinds, and a column
    # for each copy of a repeated one
    @pytest.mark.parametrize("entry", ["plan", "config", "exact", "batch"])
    @pytest.mark.parametrize("kinds, message", [
        (("deviance",), "a statistic is a StatisticKind, got 'deviance'"),
        ("deviance", "a statistic is a StatisticKind, got 'd'"),
        ((), "at least one statistic is required"),
        ((StatisticKind("deviance"),) * 2, "statistic 'deviance' requested twice"),
    ], ids=["label-tuple", "bare-label", "empty", "repeat"])
    def test_every_entry_point_takes_a_tuple_of_kinds(self, entry, kinds, message):
        d = finney()
        build = {
            "plan": lambda: SimulationPlan(d, ModelSpec(), kinds, 10, 0),
            "config": lambda: ExperimentConfig("finney", "response", (), (), kinds),
            "exact": lambda: exact_pvalues(Dataset(d.y[:4], d.x[:4]), ModelSpec(), ModelSpec(),
                                           kinds),
            "batch": lambda: evaluate_batch(kinds, np.zeros((1, 4)), np.full((1, 4), 0.5),
                                            np.full((1, 4), 0.5)),
        }[entry]
        with pytest.raises(ConfigError, match=f"^{message}$"):
            build()

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

    @pytest.mark.parametrize("text", ["mu-full", "given"])
    def test_policy_must_be_an_ordering_policy(self, text):
        with pytest.raises(ConfigError, match="OrderingPolicy"):
            make_ordering(text, mu_full=np.array([0.3, 0.1]), n=2)

    def test_missing_key_is_an_error(self):
        with pytest.raises(ConfigError, match="key vector"):
            make_ordering(OrderingPolicy.BY_FULL_MU, mu_tested=np.array([0.5]))
        with pytest.raises(ConfigError, match="observations"):
            make_ordering(OrderingPolicy.GIVEN)


# values that tie with each other or with themselves: NaN, zeros of both
# signs, the clamped means and the infinities
_TIE_VALUES = (np.nan, 0.0, -0.0, 1e-10, 1.0 - 1e-10, 0.5, np.inf, -np.inf)


class TestStableArgsort:
    @given(
        n=st.sampled_from([1, 2, 39, _FAST_SORT_MIN_N - 1, _FAST_SORT_MIN_N, 575]),
        b=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        ties=st.lists(st.sampled_from(_TIE_VALUES), max_size=8),
        constant_row=st.sampled_from([None, 1e-10, 0.5]),
    )
    def test_equals_the_stable_argsort(self, n, b, seed, ties, constant_row):
        rng = np.random.default_rng(seed)
        keys = rng.random((b, n))
        for row in range(b):
            if ties and rng.random() < 0.5:
                keys[row, rng.integers(0, n, size=len(ties))] = ties
        if constant_row is not None:
            keys[rng.integers(0, b)] = constant_row
        want = np.argsort(keys, axis=1, kind="stable")
        assert np.array_equal(stable_argsort(keys), want)
        for row in range(b):
            assert np.array_equal(stable_argsort(keys[row : row + 1])[0], want[row])

    def test_ordering_and_grouping_go_through_it(self, monkeypatch):
        import logitgof.statistics as stats

        calls = []
        sort = stats.stable_argsort
        monkeypatch.setattr(stats, "stable_argsort", lambda k: calls.append(k.shape) or sort(k))
        key = np.array([0.2, 0.1, 0.1, 0.4])
        assert make_ordering(OrderingPolicy.BY_FULL_MU, mu_full=key).sigma.tolist() == [1, 2, 0, 3]
        _value("hl:2:mu-full", [0, 1, 0, 1], key, key)
        mu = np.full((3, 4), 0.5)
        evaluate_batch(parse_statistics(["ks:mu-full"]), np.zeros((3, 4)), mu, mu)
        assert calls == [(1, 4), (1, 4), (3, 4)]


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

    def test_kuiper_rejects_a_shorter_ordering(self):
        # it used to scan only the first three of the five residuals
        with pytest.raises(DataError, match="residuals 5, ordering 3"):
            kuiper_statistic(np.full(5, 0.2), make_ordering(OrderingPolicy.GIVEN, n=3))

    def test_ks_rejects_a_longer_ordering(self):
        with pytest.raises(DataError, match="residuals 5, ordering 7"):
            ks_statistic(np.full(5, 0.2), make_ordering(OrderingPolicy.GIVEN, n=7))

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
            val = ks_statistic(r, Ordering(sigma))
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
            rotated = Ordering(np.roll(base.sigma, shift))
            assert abs(kuiper_statistic(r, rotated) - v) < 1e-12

    def test_leaves_its_inputs_unchanged(self):
        # the scan overwrites a scratch array of its own, never r or sigma
        r = np.random.default_rng(3).normal(size=50)
        ordering = make_ordering(OrderingPolicy.BY_RESIDUAL, residual=r)
        r_bytes, sigma_bytes = r.tobytes(), ordering.sigma.tobytes()
        for statistic in (ks_statistic, kuiper_statistic):
            statistic(r, ordering)
            assert r.tobytes() == r_bytes
            assert ordering.sigma.tobytes() == sigma_bytes

    def test_stable_ordering_makes_tied_keys_harmless(self):
        r = np.array([0.25, -0.5, 0.25])
        key = np.array([0.4, 0.4, 0.4])
        a = ks_statistic(r, make_ordering(OrderingPolicy.BY_TESTED_MU, mu_tested=key))
        b = ks_statistic(r, _given_order(3))
        assert a == b


def _value(label, y, mu, mu_full=None):
    """The statistic a label names, of one outcome vector y, through
    evaluate_batch; mu_full defaults to mu, as when tested = full."""
    mu = np.atleast_2d(mu)
    mu_full = mu if mu_full is None else np.atleast_2d(mu_full)
    return float(evaluate_batch(parse_statistics([label]), np.atleast_2d(y), mu, mu_full)[0, 0])


_EMPTY = np.array([], dtype=np.float64)
_EMPTY_ORDER = Ordering(np.array([], dtype=np.int64))


# ks and kuiper used to fail inside numpy's max, and the others returned 0.0
@pytest.mark.parametrize(
    "call",
    [
        lambda: ks_statistic(_EMPTY, _EMPTY_ORDER),
        lambda: kuiper_statistic(_EMPTY, _EMPTY_ORDER),
        lambda: half_abs_sum(_EMPTY),
        lambda: _value("deviance", _EMPTY, _EMPTY),
        lambda: _value("freeman-tukey", _EMPTY, _EMPTY),
        lambda: _value("pearson-chi2", _EMPTY, _EMPTY),
        lambda: _value("euclidean", _EMPTY, _EMPTY),
        lambda: _value("hl:2:mu-full", _EMPTY, _EMPTY),
    ],
    ids=["ks", "kuiper", "half-abs-sum", "deviance", "freeman-tukey", "pearson-chi2",
         "euclidean", "hl"],
)
def test_every_scalar_statistic_rejects_empty_input(call):
    with pytest.raises(DataError, match="no observations"):
        call()


# evaluate_batch used to read a value that is not 1 as 0, or (hl) to sum it
# as given: outcomes [2, 0] scored as [0, 0]
@pytest.mark.parametrize(
    "call, observation",
    [
        (lambda: _value("deviance", [2, 0], [0.5, 0.5]), 1),
        (lambda: _value("freeman-tukey", [0, -1, 1], [0.5, 0.5, 0.5]), 2),
        (lambda: _value("pearson-chi2", [0.5, 1], [0.5, 0.5]), 1),
        (lambda: _value("euclidean", [1, 0, np.nan], [0.5, 0.5, 0.5]), 3),
        (lambda: _value("hl:2:mu-full", [0, 0, 0, 3], [0.5] * 4, [0.1, 0.2, 0.3, 0.4]), 4),
    ],
    ids=["deviance", "freeman-tukey", "pearson-chi2", "euclidean", "hl"],
)
def test_every_scalar_statistic_rejects_non_binary_outcomes(call, observation):
    with pytest.raises(DataError, match=f"^non-binary outcome in row 1 at observation {observation}$"):
        call()


_CELL_LABELS = ("deviance", "freeman-tukey", "pearson-chi2", "euclidean")


class TestCellStatistics:
    def test_deviance_hand_case(self):
        # -2(ln .5 + ln .5) = 4 ln 2
        got = _value("deviance", [1.0, 0.0], [0.5, 0.5])
        assert abs(got - 4 * math.log(2)) < 1e-14

    def test_outcome_and_mean_lengths_must_agree(self):
        with pytest.raises(DataError, match=r"Y \(1, 3\), mu_tested \(1, 2\), mu_full \(1, 2\)$"):
            _value("deviance", [0, 1, 1], [0.5, 0.5])

    def test_freeman_tukey_hand_case(self):
        # cells (1-sqrt(.5))^2 and .5 sum to 2-sqrt(2); times 4
        got = _value("freeman-tukey", [1.0, 0.0], [0.5, 0.5])
        assert abs(got - 4 * (2 - math.sqrt(2))) < 1e-14

    def test_pearson_hand_case(self):
        got = _value("pearson-chi2", [1.0, 0.0], [0.5, 0.5])
        assert got == 2.0

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 60))
    def test_pearson_equals_n_at_the_sample_mean(self, seed, n):
        rng = np.random.default_rng(seed)
        y = (rng.random(n) < 0.5).astype(float)
        if y.sum() in (0, n):
            return
        mu = np.full(n, y.mean())
        assert abs(_value("pearson-chi2", y, mu) - n) < 1e-9 * n

    def test_euclidean_hand_case(self):
        assert _value("euclidean", [1.0, 0.0], [0.5, 0.5]) == 0.5

    @given(seed=st.integers(0, 10_000))
    def test_euclidean_at_most_quarter_of_pearson(self, seed):
        rng = np.random.default_rng(seed)
        n = 30
        y = (rng.random(n) < 0.5).astype(float)
        mu = rng.uniform(0.05, 0.95, size=n)
        assert _value("euclidean", y, mu) <= _value("pearson-chi2", y, mu) / 4 + 1e-12

    @given(seed=st.integers(0, 10_000))
    def test_all_statistics_nonnegative_and_zero_at_perfect_fit(self, seed):
        rng = np.random.default_rng(seed)
        n = 25
        y = (rng.random(n) < 0.5).astype(float)
        mu = rng.uniform(0.05, 0.95, size=n)
        for label in _CELL_LABELS:
            assert _value(label, y, mu) >= 0.0
        # means clamped at the working boundary on top of the matching outcome
        mu_perfect = np.where(y == 1.0, 1.0 - 1e-10, 1e-10)
        for label in _CELL_LABELS:
            assert _value(label, y, mu_perfect) < 1e-7


class TestHosmerLemeshow:
    def test_hand_case_two_groups(self):
        # groups {1,1} and {0,0} against flat means: (2-1)^2/(1*.5) twice
        y = np.array([1.0, 1.0, 0.0, 0.0])
        mu = np.full(4, 0.5)
        key = np.array([0.1, 0.2, 0.3, 0.4])
        got = _value("hl:2:mu-full", y, mu, key)
        assert got == 4.0

    def test_perfectly_calibrated_group_scores_zero(self):
        y = np.array([1.0, 0.0] * 4)
        mu = np.full(8, 0.5)
        got = _value("hl:2:mu-tested", y, mu)
        assert got == 0.0

    def test_grouping_by_key_reorders_observations(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        mu = np.array([0.9, 0.1, 0.8, 0.2])
        # blocks pairing each 1 with a 0 are perfectly calibrated
        paired = _value("hl:2:mu-full", y, mu, [0.1, 0.2, 0.3, 0.4])
        # blocks collecting the ones together are not
        split = _value("hl:2:mu-full", y, mu, [0.1, 0.3, 0.2, 0.4])
        assert paired == 0.0
        assert split > 0.5

    def test_degenerate_group_matching_expectation_contributes_zero(self):
        y = np.array([0.0, 0.0, 1.0, 0.0])
        mu = np.array([0.0, 0.0, 0.5, 0.5])
        key = np.array([0.1, 0.2, 0.3, 0.4])
        got = _value("hl:2:mu-full", y, mu, key)
        # first group is all-zero expectation with a zero count; second is
        # (1-1)^2 over 1*(1-1/2)
        assert got == 0.0

    def test_degenerate_group_with_mismatch_is_infinite(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        mu = np.array([0.0, 0.0, 0.5, 0.5])
        key = np.array([0.1, 0.2, 0.3, 0.4])
        got = _value("hl:2:mu-full", y, mu, key)
        assert got == np.inf

    def test_mean_lengths_must_match_the_outcomes(self):
        # a mean vector of another shape used to be read anyway where the
        # kinds did not use it, or to fail inside numpy where they did
        y, mu = [0, 1, 1, 0], [0.2, 0.3, 0.4, 0.5]
        with pytest.raises(DataError, match=r"^shapes differ: Y \(1, 4\), mu_tested \(1, 3\), mu_full \(1, 4\)$"):
            _value("hl:2:mu-full", y, mu[:3], mu)
        with pytest.raises(DataError, match=r"mu_full \(1, 3\)$"):
            _value("deviance", y, mu, mu[:3])
        with pytest.raises(DataError, match=r"^outcomes must form a \(B, n\) array, got shape \(4,\)$"):
            evaluate_batch(parse_statistics(["deviance"]), np.array(y), np.array(mu), np.array(mu))


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
        Y, M = np.stack([y, y[perm]]), np.stack([mu, mu[perm]])
        vals = evaluate_batch(parse_statistics(_CELL_LABELS), Y, M, M)
        assert np.array_equal(vals[0], vals[1])

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

    @pytest.mark.parametrize("shared", [False, True])
    def test_leaves_its_inputs_unchanged(self, finney_dataset, shared):
        # the scan overwrites a scratch array of its own, never Y or a mean;
        # shared passes one array for both means, as tested = full does
        d = finney_dataset
        tested = fit(d, ModelSpec((0,)))
        full = tested if shared else fit(d, ModelSpec((0, 1)))
        rng = np.random.default_rng(5)
        Y = (rng.random((70, d.n)) < tested.mu[None, :]).astype(float)
        mu_t = np.broadcast_to(tested.mu, Y.shape).copy()
        mu_f = mu_t if shared else np.broadcast_to(full.mu, Y.shape).copy()
        before = [a.tobytes() for a in (Y, mu_t, mu_f)]
        evaluate_batch(parse_statistics(ALL_LABELS), Y, mu_t, mu_f)
        assert [a.tobytes() for a in (Y, mu_t, mu_f)] == before

    def test_names_the_first_non_binary_outcome(self):
        Y = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.5], [2.0, 0.0, 1.0]])
        mu = np.full(Y.shape, 0.5)
        with pytest.raises(DataError, match="^non-binary outcome in row 2 at observation 3$"):
            evaluate_batch(parse_statistics(["ks:mu-full"]), Y, mu, mu)

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


# The statistics kernels in their earlier row-wise form: a take_along_axis
# gather per statistic, a compensated running sum stored column by column,
# and per-cell statistics that evaluate both cell functions on every cell.
# evaluate_batch must reproduce them bit for bit, NaN and signed zeros
# included.


def ref_kahan_cumsum(a):
    B, n = a.shape
    out = np.empty_like(a)
    s = np.zeros(B)
    c = np.zeros(B)
    for j in range(n):
        yj = a[:, j] - c
        t = s + yj
        c = (t - s) - yj
        s = t
        out[:, j] = s
    return out


def ref_ks_batch(r, order):
    rs = np.take_along_axis(r, order, axis=1)
    return np.max(np.abs(ref_kahan_cumsum(rs)), axis=1)


def ref_kuiper_batch(r, order):
    rs = np.take_along_axis(r, order, axis=1)
    cs = ref_kahan_cumsum(rs)
    return np.max(cs, axis=1) - np.min(cs, axis=1)


def ref_percell_sum(Y, f0, f1):
    cells = np.where(Y == 1.0, f1, f0)
    cells.sort(axis=1)
    return np.sum(cells, axis=1)


def ref_deviance_batch(Y, mu_t):
    lm = np.log(mu_t)
    l1m = np.log(1.0 - mu_t)
    return ref_percell_sum(Y, -2.0 * l1m, -2.0 * lm)


def ref_freeman_tukey_batch(Y, mu_t):
    sm = np.sqrt(mu_t)
    return 4.0 * ref_percell_sum(Y, mu_t, (1.0 - sm) ** 2)


def ref_pearson_batch(Y, mu_t):
    v = mu_t * (1.0 - mu_t)
    return ref_percell_sum(Y, mu_t * mu_t / v, (1.0 - mu_t) ** 2 / v)


def ref_euclidean_batch(Y, mu_t):
    return ref_percell_sum(Y, mu_t * mu_t, (1.0 - mu_t) ** 2)


def ref_half_abs_batch(Y, mu_t):
    return 0.5 * ref_percell_sum(Y, mu_t, 1.0 - mu_t)


def ref_hl_batch(Y, mu_value, order, sizes):
    ys = np.take_along_axis(Y, order, axis=1)
    ms = np.take_along_axis(mu_value, order, axis=1)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    nk = np.add.reduceat(ys, starts, axis=1)
    ek = np.add.reduceat(ms, starts, axis=1)
    sk = np.asarray(sizes, float)
    den = ek * (1.0 - ek / sk)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (nk - ek) ** 2 / den
    degenerate = ~(den > 0.0)
    if degenerate.any():
        terms = np.where(degenerate, np.where(nk == ek, 0.0, np.inf), terms)
    return np.sum(terms, axis=1)


def ref_evaluate_batch(kinds, Y, mu_tested, mu_full):
    Y = np.asarray(Y, dtype=np.float64)
    B, n = Y.shape
    r = Y - mu_tested
    out = np.empty((B, len(kinds)))
    keys = {
        OrderingPolicy.BY_FULL_MU: mu_full,
        OrderingPolicy.BY_TESTED_MU: mu_tested,
        OrderingPolicy.BY_RESIDUAL: r,
    }

    def order_for(policy):
        if policy is OrderingPolicy.GIVEN:
            return np.broadcast_to(np.arange(n), Y.shape)
        return np.argsort(keys[policy], axis=1, kind="stable")

    for col, kind in enumerate(kinds):
        if kind.family == "ks":
            vals = ref_ks_batch(r, order_for(kind.ordering))
        elif kind.family == "kuiper":
            vals = ref_kuiper_batch(r, order_for(kind.ordering))
        elif kind.family == "half-abs-sum":
            vals = ref_half_abs_batch(Y, mu_tested)
        elif kind.family == "deviance":
            vals = ref_deviance_batch(Y, mu_tested)
        elif kind.family == "freeman-tukey":
            vals = ref_freeman_tukey_batch(Y, mu_tested)
        elif kind.family == "pearson-chi2":
            vals = ref_pearson_batch(Y, mu_tested)
        elif kind.family == "euclidean":
            vals = ref_euclidean_batch(Y, mu_tested)
        else:
            sizes = default_grouping(n, kind.groups)
            vals = ref_hl_batch(Y, mu_tested, order_for(kind.ordering), sizes)
        out[:, col] = vals
    return out


# every family and ordering, with group counts that give blocks of one
# observation and blocks of many
EVERY_KIND = parse_statistics(ALL_LABELS + [
    "hl:2:mu-full", "hl:2:mu-tested", "hl:3:mu-tested", "hl:5:mu-full", "hl:10:mu-full",
])


def _kinds_for(n):
    """EVERY_KIND without the groupings that n observations cannot fill."""
    kinds = []
    for kind in EVERY_KIND:
        if kind.family == "hl":
            try:
                default_grouping(n, kind.groups)
            except ConfigError:
                continue
        kinds.append(kind)
    return tuple(kinds)


# means that tie with each other or with themselves, clamped means, and the
# values a broken fit can hand over: NaN, zeros of both signs, infinities
_SPECIAL_MEANS = (0.5, 0.25, 1e-10, 1.0 - 1e-10, 0.0, -0.0, np.nan, np.inf, -np.inf)


def _odd_offset(a, how):
    """a's values in a view that is not a plain contiguous array: a window
    one column into a wider array, or a copy whose data starts one byte off
    the float alignment."""
    if how == "window":
        wide = np.empty((a.shape[0], a.shape[1] + 2))
        wide[:, 1:-1] = a
        return wide[:, 1:-1]
    if how == "unaligned":
        raw = np.empty(a.nbytes + 1, np.uint8)
        view = raw[1:].view(np.float64).reshape(a.shape)
        view[...] = a
        return view
    return a


def _bits(values, kind):
    """The int64 view of a column. A KS or Kuiper NaN (a running sum that
    met inf - inf) is made the positive quiet NaN first: np.max returns a
    NaN whose sign depends on the SIMD lane it met it in, so only its
    position is defined."""
    if kind.family in ("ks", "kuiper"):
        values = np.where(np.isnan(values), np.nan, values)
    return values.view(np.int64)


class TestBitwiseAgainstReference:
    @given(
        n=st.sampled_from([1, 2, 16, 39, 63, 64, 575]),
        b=st.sampled_from([1, 2, 3, 7]),
        seed=st.integers(0, 2**32 - 1),
        special=st.lists(st.sampled_from(_SPECIAL_MEANS), max_size=6),
        constant=st.sampled_from([None, "tested", "full", "both"]),
        how=st.sampled_from(["plain", "window", "unaligned"]),
        shared=st.booleans(),
    )
    def test_every_family_and_ordering_matches(self, n, b, seed, special, constant, how,
                                               shared):
        rng = np.random.default_rng(seed)
        Y = (rng.random((b, n)) < 0.4).astype(float)
        # a coarse grid of means makes ties within a row common
        mu_t = rng.integers(1, 8, size=(b, n)) / 8.0
        mu_f = np.where(rng.random((b, n)) < 0.5, mu_t, rng.random((b, n)))
        for mu in (mu_t, mu_f):
            for row in range(b):
                if special and rng.random() < 0.5:
                    mu[row, rng.integers(0, n, size=len(special))] = special
        row = rng.integers(0, b)
        if constant in ("tested", "both"):
            mu_t[row] = 0.3
        if constant in ("full", "both"):
            mu_f[row] = 1e-10
        kinds = _kinds_for(n)
        args = [_odd_offset(a, how) for a in (Y, mu_t, mu_f)]
        if shared:
            # one array for both means, as when the tested model is the full one
            mu_f, args[2] = mu_t, args[1]
        with np.errstate(all="ignore"):
            want = ref_evaluate_batch(kinds, Y, mu_t, mu_f)
            got = evaluate_batch(kinds, *args)
            # a kind's value does not depend on which other kinds share the call
            alone = [evaluate_batch((kind,), *args)[:, 0] for kind in kinds]
        assert got.shape == want.shape
        for col, kind in enumerate(kinds):
            assert np.array_equal(_bits(got[:, col], kind), _bits(want[:, col], kind)), kind.label
            assert np.array_equal(_bits(alone[col], kind), _bits(want[:, col], kind)), kind.label

    def test_fitted_chunks_match(self, finney_dataset):
        # refits of drawn outcomes, where tested and full means tie on
        # repeated covariate rows and intercept-only means are constant
        from logitgof import design_matrix, draw_outcomes

        d = finney_dataset
        Y = draw_outcomes(7, 0, 400, fit(d, ModelSpec((0, 1))).mu)
        mus = [fit_batch(design_matrix(d, ModelSpec(inc)), Y)[1] for inc in ((), (0, 1))]
        for mu_t, mu_f in ((mus[0], mus[1]), (mus[1], mus[1])):
            want = ref_evaluate_batch(EVERY_KIND, Y, mu_t, mu_f)
            got = evaluate_batch(EVERY_KIND, Y, mu_t, mu_f)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert not np.isnan(got).any()
