import math

import numpy as np
import pytest

import logitgof.exact as exact_mod
import logitgof.montecarlo as montecarlo_mod
from logitgof import (
    ConfigError,
    Dataset,
    ModelSpec,
    exact_pvalues,
    parse_statistics,
)

DEVIANCE = parse_statistics(["deviance"])[0]
EUCLIDEAN = parse_statistics(["euclidean"])[0]


def intercept_only_dataset(y):
    return Dataset(y, np.zeros((len(y), 0)))


class TestHandEnumeration:
    def test_three_point_intercept_case(self):
        """All eight outcomes of n=3, worked by hand before comparing.

        Intercept-only refits depend only on the success count k, giving
        means k/3 (clamped at the boundary for k = 0 and 3) and deviances
        dev(0) ~ 0, dev(1) = dev(2) = -2[ln(1/3) + 2 ln(2/3)], dev(3) ~ 0.
        The observed y = (1,0,0) sits in class k=1, so the exceedance set
        is exactly the six outcomes of classes 1 and 2 (class 2 by the
        bitwise tie), with total weight

            3*(1/3)(2/3)^2 + 3*(1/3)^2(2/3) = 12/27 + 6/27 = 2/3.
        """
        d = intercept_only_dataset([1, 0, 0])
        res = exact_pvalues(d, ModelSpec(), ModelSpec(), (DEVIANCE,))[0]
        assert res.outcomes_enumerated == 8
        assert res.p_exact == pytest.approx(2 / 3, abs=1e-12)

    def test_single_observation_covers_everything(self):
        # limitwise this is exactly 1; the mean clamp at 1e-10 shaves the
        # complementary outcome off the exceedance set, hence the tolerance
        d = intercept_only_dataset([1])
        res = exact_pvalues(d, ModelSpec(), ModelSpec(), (EUCLIDEAN,))[0]
        assert res.outcomes_enumerated == 2
        assert res.p_exact == pytest.approx(1.0, abs=1e-9)


class TestRankInvariance:
    def _tiny_dataset(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(9, 2))
        y = (rng.random(9) < 0.4).astype(int)
        if y.sum() in (0, 9):
            y[0] = 1 - y[0]
        return Dataset(y, x)

    def test_monotone_transform_of_statistic_changes_nothing(self, monkeypatch):
        d = self._tiny_dataset()
        tested, full = ModelSpec((0,)), ModelSpec((0, 1))
        base = exact_pvalues(d, tested, full, (EUCLIDEAN,))[0].p_exact

        original = montecarlo_mod.evaluate_batch
        monkeypatch.setattr(
            montecarlo_mod, "evaluate_batch",
            lambda *a, **kw: 2.0 * original(*a, **kw) + 1.0,
        )
        transformed = exact_pvalues(d, tested, full, (EUCLIDEAN,))[0].p_exact
        assert transformed == base

    def test_constant_statistic_gives_one(self, monkeypatch):
        d = self._tiny_dataset()
        monkeypatch.setattr(
            montecarlo_mod, "evaluate_batch",
            lambda kinds, Y, mu_t, mu_f: np.ones((Y.shape[0], len(kinds))),
        )
        res = exact_pvalues(d, ModelSpec((0,)), ModelSpec((0, 1)), (EUCLIDEAN,))[0]
        assert res.p_exact == pytest.approx(1.0, abs=1e-12)


class TestEnumerationMechanics:
    def test_chunk_size_cannot_matter(self, monkeypatch):
        # the tested model is intercept-only (l = 0): a wide chunk fits it
        # once per success count, a one-row chunk fits every outcome alone
        d = Dataset(
            (np.arange(10) % 3 == 0).astype(int),
            np.linspace(-1.0, 1.0, 10)[:, None],
        )
        kinds = parse_statistics(["ks:mu-full", "deviance", "hl:3:mu-tested", "pearson-chi2"])
        wide = exact_pvalues(d, ModelSpec(), ModelSpec((0,)), kinds)
        for chunk in (64, 1):
            monkeypatch.setattr(exact_mod, "_CHUNK", chunk)
            narrow = exact_pvalues(d, ModelSpec(), ModelSpec((0,)), kinds)
            for a, b in zip(wide, narrow):
                assert abs(a.p_exact - b.p_exact) < 1e-12

    def test_probabilities_are_probabilities(self, make_random_dataset):
        d = make_random_dataset(31, n=11, m=2)
        kinds = parse_statistics(["ks:mu-full", "kuiper:mu-full", "pearson-chi2"])
        for res in exact_pvalues(d, ModelSpec((0,)), ModelSpec((0, 1)), kinds):
            assert 0.0 < res.p_exact <= 1.0
            assert res.outcomes_enumerated == 2**11

    def test_enumeration_bound_is_enforced(self):
        d = intercept_only_dataset([0, 1] * 11)
        with pytest.raises(ConfigError, match="capped"):
            exact_pvalues(d, ModelSpec(), ModelSpec(), (DEVIANCE,))[0]

    def test_requires_at_least_one_statistic(self):
        d = intercept_only_dataset([1, 0])
        with pytest.raises(ConfigError, match="at least one"):
            exact_pvalues(d, ModelSpec(), ModelSpec(), ())

    def test_models_must_be_nested(self, make_random_dataset):
        # the oracle keeps the nesting rule the Monte-Carlo plan enforces
        d = make_random_dataset(31, n=6, m=2)
        with pytest.raises(ConfigError, match="nested"):
            exact_pvalues(d, ModelSpec((1,)), ModelSpec((0,)), (DEVIANCE,))


# float.hex of exact_pvalues on make_random_dataset(seed, n, m=2) against the
# full model (0, 1), for every statistic family; recorded before the oracle
# moved onto the Monte-Carlo engine, which must keep every bit
ORACLE_PINS = {
    (610, 10, ()): {
        "ks:mu-full": "0x1.fe790441bbdf7p-4",
        "ks:mu-tested": "0x1.f017482a98030p-3",
        "ks:residual": "0x1.3b337082ba7e8p-1",
        "ks:given": "0x1.f017482a98030p-3",
        "kuiper:mu-full": "0x1.416df68d167d4p-3",
        "kuiper:residual": "0x1.369791d93b2d8p-1",
        "hl:3:mu-full": "0x1.4617268eea517p-4",
        "hl:3:mu-tested": "0x1.4712d767125aap-2",
        "half-abs-sum": "0x1.3b337082ba7e8p-1",
        "deviance": "0x1.369791d93b2d8p-1",
        "freeman-tukey": "0x1.3b337082ba7e8p-1",
        "pearson-chi2": "0x1.b38d151ff97a5p-1",
        "euclidean": "0x1.3b337082ba7e8p-1",
    },
    (611, 11, (0,)): {
        "ks:mu-full": "0x1.47602aac91bc4p-2",
        "ks:mu-tested": "0x1.9bac1bd254bc5p-3",
        "ks:residual": "0x1.50e3d8f49107cp-2",
        "ks:given": "0x1.e9668557327a1p-4",
        "kuiper:mu-full": "0x1.d89c8da7971acp-2",
        "kuiper:residual": "0x1.50e3d8f49107cp-2",
        "hl:3:mu-full": "0x1.d53fc3167fe38p-2",
        "hl:3:mu-tested": "0x1.4907a30fdc15cp-2",
        "half-abs-sum": "0x1.50e3d8f49107cp-2",
        "deviance": "0x1.443b4548bc933p-2",
        "freeman-tukey": "0x1.3ff153a9c296dp-2",
        "pearson-chi2": "0x1.1508be795f17ep-3",
        "euclidean": "0x1.58f64ce6f2ae8p-2",
    },
    (612, 12, (0, 1)): {
        "ks:mu-full": "0x1.13c137c57bdf4p-4",
        "ks:mu-tested": "0x1.13c137c57bdf4p-4",
        "ks:residual": "0x1.684456307488dp-3",
        "ks:given": "0x1.38605e1ca8cccp-2",
        "kuiper:mu-full": "0x1.fb6409d621a08p-4",
        "kuiper:residual": "0x1.684456307488dp-3",
        "hl:3:mu-full": "0x1.2f38d24f54df7p-2",
        "hl:3:mu-tested": "0x1.2f38d24f54df7p-2",
        "half-abs-sum": "0x1.684456307488dp-3",
        "deviance": "0x1.7a884786df804p-3",
        "freeman-tukey": "0x1.5e0952e15dc7cp-3",
        "pearson-chi2": "0x1.27eb7edbaf637p-2",
        "euclidean": "0x1.4ce1569274a7cp-3",
    },
}


class TestPinnedBits:
    @pytest.mark.parametrize("case", ORACLE_PINS, ids=["l0", "l1", "tested-is-full"])
    def test_every_family(self, make_random_dataset, case):
        seed, n, tested = case
        pins = ORACLE_PINS[case]
        d = make_random_dataset(seed, n=n, m=2)
        res = exact_pvalues(d, ModelSpec(tested), ModelSpec((0, 1)), parse_statistics(pins))
        assert {k: r.p_exact.hex() for k, r in zip(pins, res)} == pins
