"""Goodness-of-fit statistics and the orderings and groupings they use.

Every statistic here is a scalar function of the outcome vector and fitted
means. The Monte-Carlo engine and the exhaustive-enumeration oracle both
evaluate statistics through `evaluate_batch`, so there is exactly one code
path that defines each statistic's value.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import GroupingScheme, Ordering, OrderingPolicy, default_grouping
from .errors import ConfigError

_PLAIN_FAMILIES = ("half-abs-sum", "deviance", "freeman-tukey", "pearson-chi2", "euclidean")
_ORDERED_FAMILIES = ("ks", "kuiper")
_HL_KEYS = (OrderingPolicy.BY_FULL_MU, OrderingPolicy.BY_TESTED_MU)


@dataclass(frozen=True)
class StatisticKind:
    """One requested statistic, together with its ordering or grouping source.

    family is the statistic name. ks and kuiper carry an ordering policy;
    hl carries a group count plus the mean vector that drives the grouping
    (the scored cells always come from the tested model's means). The other
    families carry nothing extra.
    """

    family: str
    ordering: OrderingPolicy | None = None
    groups: int | None = None
    grouping_key: OrderingPolicy | None = None

    def __post_init__(self):
        if self.family in _ORDERED_FAMILIES:
            if self.ordering is None:
                raise ConfigError(f"statistic '{self.family}' needs an ordering")
            if self.groups is not None or self.grouping_key is not None:
                raise ConfigError(f"statistic '{self.family}' does not take groups")
        elif self.family == "hl":
            if self.ordering is not None:
                raise ConfigError("statistic 'hl' takes a grouping key, not an ordering")
            if self.groups is None or self.groups < 2:
                raise ConfigError("statistic 'hl' needs at least 2 groups")
            if self.grouping_key not in _HL_KEYS:
                raise ConfigError(
                    "statistic 'hl' groups by 'mu-full' or 'mu-tested' means"
                )
        elif self.family in _PLAIN_FAMILIES:
            if self.ordering is not None or self.groups is not None or self.grouping_key is not None:
                raise ConfigError(f"statistic '{self.family}' takes no qualifiers")
        else:
            raise ConfigError(f"unknown statistic family '{self.family}'")

    @property
    def label(self) -> str:
        if self.family in _ORDERED_FAMILIES:
            return f"{self.family}:{self.ordering.value}"
        if self.family == "hl":
            return f"hl:{self.groups}:{self.grouping_key.value}"
        return self.family

    @classmethod
    def parse(cls, label: str) -> "StatisticKind":
        """Parse a statistic label like 'ks:mu-full' or 'hl:5:mu-tested'.

        The grammar: plain families are bare names; ks and kuiper append
        ':<ordering>' where the ordering is one of mu-full, mu-tested,
        residual or given; hl appends ':<groups>:<key>' where the key is
        mu-full or mu-tested.
        """
        parts = label.strip().split(":")
        family = parts[0]
        if family in _PLAIN_FAMILIES:
            if len(parts) != 1:
                raise ConfigError(f"statistic '{family}' takes no qualifiers: '{label}'")
            return cls(family)
        if family in _ORDERED_FAMILIES:
            if len(parts) != 2:
                raise ConfigError(
                    f"expected '{family}:<ordering>' with ordering one of "
                    f"{', '.join(p.value for p in OrderingPolicy)}: got '{label}'"
                )
            try:
                policy = OrderingPolicy(parts[1])
            except ValueError:
                raise ConfigError(f"unknown ordering '{parts[1]}' in '{label}'") from None
            return cls(family, ordering=policy)
        if family == "hl":
            if len(parts) != 3:
                raise ConfigError(f"expected 'hl:<groups>:<key>': got '{label}'")
            try:
                g = int(parts[1])
            except ValueError:
                raise ConfigError(f"group count '{parts[1]}' is not an integer in '{label}'") from None
            try:
                key = OrderingPolicy(parts[2])
            except ValueError:
                raise ConfigError(f"unknown grouping key '{parts[2]}' in '{label}'") from None
            return cls(family, groups=g, grouping_key=key)
        raise ConfigError(f"unknown statistic '{label}'")


def parse_statistics(labels) -> tuple[StatisticKind, ...]:
    kinds = tuple(StatisticKind.parse(s) for s in labels)
    if not kinds:
        raise ConfigError("at least one statistic is required")
    seen = set()
    for k in kinds:
        if k.label in seen:
            raise ConfigError(f"statistic '{k.label}' requested twice")
        seen.add(k.label)
    return kinds


def make_ordering(
    policy: OrderingPolicy,
    mu_full=None,
    mu_tested=None,
    residual=None,
    n: int | None = None,
) -> Ordering:
    """Build the ordering a policy asks for, ascending, stable in the index.

    GIVEN means the order the observations arrived in, so it only needs n.
    The other policies need their key vector and complain if it is missing.
    """
    if policy is OrderingPolicy.GIVEN:
        if n is None:
            raise ConfigError("ordering 'given' needs the number of observations")
        return Ordering(np.arange(n), policy)
    key = {
        OrderingPolicy.BY_FULL_MU: mu_full,
        OrderingPolicy.BY_TESTED_MU: mu_tested,
        OrderingPolicy.BY_RESIDUAL: residual,
    }[policy]
    if key is None:
        raise ConfigError(f"ordering '{policy.value}' needs its key vector")
    return Ordering(stable_argsort(np.asarray(key)[None, :])[0], policy)


# Rows at least this long are sorted with the default (unstable) argsort
# first; shorter rows go straight to the stable sort. Measured on a 2-vCPU
# Xeon with numpy 2.4, per (B, n) batch of about 262,000 keys: at n = 575
# the stable sort takes 16 ms and the fast path 7.4 ms; at n = 64 with
# distinct keys 9.6 against 4.7 ms. At n = 39 the fitted means of Finney's
# l = 2 draws tie on 21% of rows (repeated covariate rows and clamped
# means), and there the fast path takes 8.7 ms against the stable sort's
# 3.6 ms, so the crossover lies between n = 39 and 64.
_FAST_SORT_MIN_N = 64


def stable_argsort(keys):
    """Row-wise np.argsort(keys, axis=1, kind="stable") of a (B, n) array.

    From n = _FAST_SORT_MIN_N on, each row is sorted with the default sort
    and only the rows whose sorted keys are not strictly increasing go to
    the stable sort again. A row of distinct keys has exactly one ascending
    order, so the result is the stable argsort either way. The test is
    written with > so that NaN and equal zeros of either sign count as ties.
    """
    keys = np.asarray(keys)
    if keys.shape[1] < _FAST_SORT_MIN_N:
        return np.argsort(keys, axis=1, kind="stable")
    order = np.argsort(keys, axis=1)
    s = np.take_along_axis(keys, order, axis=1)
    tied = ~(s[:, 1:] > s[:, :-1]).all(axis=1)
    if tied.any():
        order[tied] = np.argsort(keys[tied], axis=1, kind="stable")
    return order


# ---------------------------------------------------------------------------
# batch kernels
#
# All kernels take (B, n) arrays and return (B,) values, and every reduction
# runs along the observation axis only, so row k of a batch is bit-identical
# to evaluating row k alone.


def _kahan_cumsum(a):
    """Compensated running sums down each row, one column at a time."""
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


def _ks_batch(r, order):
    rs = np.take_along_axis(r, order, axis=1)
    return np.max(np.abs(_kahan_cumsum(rs)), axis=1)


def _kuiper_batch(r, order):
    rs = np.take_along_axis(r, order, axis=1)
    cs = _kahan_cumsum(rs)
    return np.max(cs, axis=1) - np.min(cs, axis=1)


def _percell_sum(Y, f0, f1):
    """sum_k f(y_k, mu_k), given f0 = f(0, mu) and f1 = f(1, mu) as arrays.

    The per-observation cells are selected exactly (np.where, no arithmetic
    blend) and summed in sorted order. Any two outcome vectors whose cell
    values form the same multiset therefore produce bit-identical sums, so
    outcomes that are tied in exact arithmetic stay tied in float and the
    raw >= comparison in the simulation loop counts them consistently. The
    solver cooperates: its means are arrangement-invariant. For classes that
    swap y with 1-y its means are complementary only to within the fit's
    accuracy, and exactly on some pairs alone (19/20 ones at n = 39), so
    ties between complementary classes are not guaranteed.
    """
    cells = np.where(Y == 1.0, f1, f0)
    cells.sort(axis=1)
    return np.sum(cells, axis=1)


def _deviance_batch(Y, mu_t):
    # log(1 - mu), not log1p(-mu): complementary mean pairs must hand log
    # the bitwise-same argument or the tie machinery above falls apart
    lm = np.log(mu_t)
    l1m = np.log(1.0 - mu_t)
    return _percell_sum(Y, -2.0 * l1m, -2.0 * lm)


def _freeman_tukey_batch(Y, mu_t):
    sm = np.sqrt(mu_t)
    return 4.0 * _percell_sum(Y, mu_t, (1.0 - sm) ** 2)


def _pearson_batch(Y, mu_t):
    v = mu_t * (1.0 - mu_t)
    return _percell_sum(Y, mu_t * mu_t / v, (1.0 - mu_t) ** 2 / v)


def _euclidean_batch(Y, mu_t):
    return _percell_sum(Y, mu_t * mu_t, (1.0 - mu_t) ** 2)


def _half_abs_batch(Y, mu_t):
    return 0.5 * _percell_sum(Y, mu_t, 1.0 - mu_t)


def _hl_batch(Y, mu_value, order, sizes):
    """Grouped calibration statistic over consecutive blocks of an order.

    Observations are taken in the given order (the stable argsort of the
    grouping key, per row), cut into blocks of the given sizes, and each
    block contributes (observed ones - expected)^2 over
    expected * (1 - expected/size). A block whose denominator degenerates
    contributes 0 when the count matches the degenerate expectation and
    +inf otherwise, so the simulation comparison stays well-defined.
    """
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


def evaluate_batch(kinds, Y, mu_tested, mu_full) -> np.ndarray:
    """Evaluate every requested statistic on a batch of outcome vectors.

    Y, mu_tested and mu_full are (B, n); the result is (B, K) with one
    column per kind, in the order given. This is the single evaluation
    path shared by the simulation engine and the enumeration oracle.
    """
    Y = np.asarray(Y, dtype=np.float64)
    B, n = Y.shape
    r = Y - mu_tested
    out = np.empty((B, len(kinds)))

    order_cache = {}

    def order_for(policy):
        o = order_cache.get(policy)
        if o is None:
            if policy is OrderingPolicy.BY_FULL_MU:
                o = stable_argsort(mu_full)
            elif policy is OrderingPolicy.BY_TESTED_MU:
                o = stable_argsort(mu_tested)
            elif policy is OrderingPolicy.BY_RESIDUAL:
                o = stable_argsort(r)
            else:
                o = np.broadcast_to(np.arange(n), Y.shape)
            order_cache[policy] = o
        return o

    for col, kind in enumerate(kinds):
        if kind.family == "ks":
            vals = _ks_batch(r, order_for(kind.ordering))
        elif kind.family == "kuiper":
            vals = _kuiper_batch(r, order_for(kind.ordering))
        elif kind.family == "half-abs-sum":
            vals = _half_abs_batch(Y, mu_tested)
        elif kind.family == "deviance":
            vals = _deviance_batch(Y, mu_tested)
        elif kind.family == "freeman-tukey":
            vals = _freeman_tukey_batch(Y, mu_tested)
        elif kind.family == "pearson-chi2":
            vals = _pearson_batch(Y, mu_tested)
        elif kind.family == "euclidean":
            vals = _euclidean_batch(Y, mu_tested)
        else:
            sizes = default_grouping(n, kind.groups).sizes
            vals = _hl_batch(Y, mu_tested, order_for(kind.grouping_key), sizes)
        out[:, col] = vals
    return out


# ---------------------------------------------------------------------------
# scalar entry points, thin wrappers over the same kernels


def _row(a):
    return np.asarray(a, dtype=np.float64)[None, :]


def ks_statistic(r, ordering: Ordering) -> float:
    """Largest absolute running sum of residuals taken in the given order."""
    return float(_ks_batch(_row(r), ordering.sigma[None, :])[0])


def kuiper_statistic(r, ordering: Ordering) -> float:
    """Range (max minus min) of the running sums of residuals in the given order."""
    return float(_kuiper_batch(_row(r), ordering.sigma[None, :])[0])


def half_abs_sum(r) -> float:
    """Half the sum of absolute residuals, the KS value maximized over orderings."""
    r = np.asarray(r, dtype=np.float64)
    cells = np.sort(np.abs(r))
    return float(0.5 * np.sum(cells))


def deviance(y, mu) -> float:
    """Minus twice the log-likelihood of y under means mu."""
    return float(_deviance_batch(_row(y), _row(mu))[0])


def freeman_tukey(y, mu) -> float:
    """Squared-root distance on the observed cells, 4 sum (sqrt y - sqrt mu)^2."""
    return float(_freeman_tukey_batch(_row(y), _row(mu))[0])


def pearson_chi2(y, mu) -> float:
    """Sum of squared Pearson residuals (y - mu)^2 / (mu (1 - mu))."""
    return float(_pearson_batch(_row(y), _row(mu))[0])


def euclidean_sq(y, mu) -> float:
    """Plain squared distance between y and mu."""
    return float(_euclidean_batch(_row(y), _row(mu))[0])


def hosmer_lemeshow(y, mu_for_value, mu_for_grouping, grouping: GroupingScheme) -> float:
    """Grouped calibration statistic; see _hl_batch for the block rule."""
    y = np.asarray(y, dtype=np.float64)
    if grouping.n != y.shape[0]:
        raise ConfigError(
            f"grouping covers {grouping.n} observations but y has {y.shape[0]}"
        )
    order = stable_argsort(_row(mu_for_grouping))
    return float(_hl_batch(_row(y), _row(mu_for_value), order, grouping.sizes)[0])
