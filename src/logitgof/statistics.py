"""Goodness-of-fit statistics and the orderings and groupings they use.

Every statistic here is a scalar function of the outcome vector and fitted
means. The Monte-Carlo engine and the exhaustive-enumeration oracle both
evaluate statistics through `evaluate_batch`, so there is exactly one code
path that defines each statistic's value.

`evaluate_batch` works on (B, n) batches, and every value of row k comes
from operations on row k alone, so row k of a batch is bit-identical to
evaluating row k alone. Its values are also bit-identical to a plain
row-wise evaluation that gathers once per statistic and keeps every
running sum; tests/test_statistics.py keeps that form as a reference. Four
notes say why the faster form gives the same bits:

1. One gather per ordering. Each ordering the kinds need is sorted once,
   and the outcomes and tested means are gathered once along it, by
   np.take on flat indices formed in place in the order array. KS, Kuiper
   and Hosmer-Lemeshow all read these gathers. The outcomes are gathered as
   uint8, the bytes of the mask y == 1: Y holds 0/1 outcomes, which uint8
   holds exactly, so a gather moves one byte per cell instead of eight. The
   conversion back to float in Y_sigma - mu_sigma is exact, so those
   residuals are the gathered Y - mu bit for bit, and the block counts of
   HL are exact integers.

2. One scan for every ordering. The residuals of every ordering that KS or
   Kuiper asks for are stacked, transposed, into one contiguous
   (n, orderings * B) scratch array, and one compensated (Kahan) scan runs
   down it, overwriting each row with its running sums. Each column of that
   array is one row in one ordering, and the scan applies to it the
   operations of a row-wise Kahan sum, y = a - c, t = s + y,
   c = (t - s) - y, s = t from s = c = 0, in the same order. Elementwise
   IEEE operations do not depend on memory layout or vector width, so every
   running sum is the row-wise one bit for bit, and one max and one min
   down the array select hi and lo among them. KS is max |s| =
   max(|hi|, |lo|): a running sum starts at +0 and x + y is -0 only when
   both are, so no running sum is -0. Kuiper is hi - lo. Only where a
   running sum meets inf - inf is the sign of the resulting NaN
   unspecified, as it is for np.max.

3. One cell selection. A per-cell statistic selects its argument by y once
   and applies one function to it, e.g. -2 log(mu if y else 1 - mu), where
   the row-wise form evaluates both cell functions on every cell and
   selects between the results. An elementwise function of the selected
   argument is the selected function value.

4. Subset invariance. No value depends on which other kinds share a call:
   stacking only sets columns side by side, and a per-cell or grouped value
   reads nothing of the other kinds, so a kind evaluated alone gives its
   column of any larger call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import GroupingScheme, Ordering, OrderingPolicy, _check_binary, _int, default_grouping
from .errors import ConfigError, DataError

# The statistic vocabulary, one entry per family: the orderings it accepts.
# KS and Kuiper read running sums, so any order of the residuals is
# meaningful; HL cuts a mean vector's order into groups, so it takes only the
# two mean orderings; a per-cell family reads no order (None). The
# constructor checks every kind against this table and parse takes its
# grammar from it, so a family or an ordering is added or restricted in one
# place, and no ordering a family cannot read reaches evaluate_batch.
_ORDERINGS = {
    "ks": tuple(OrderingPolicy),
    "kuiper": tuple(OrderingPolicy),
    "hl": (OrderingPolicy.BY_FULL_MU, OrderingPolicy.BY_TESTED_MU),
    **dict.fromkeys(
        ("half-abs-sum", "deviance", "freeman-tukey", "pearson-chi2", "euclidean"), (None,)
    ),
}


def _ordering_text(policy) -> str:
    """An ordering as its label text, for messages; any other value as its repr."""
    return policy.value if isinstance(policy, OrderingPolicy) else repr(policy)


@dataclass(frozen=True)
class StatisticKind:
    """One requested statistic: its family, ordering and group count.

    ks and kuiper take the ordering their running sums read. hl takes an
    integer group count of at least 2 and the ordering of the mean vector
    that is cut into groups, mu-full or mu-tested (the scored cells always
    come from the tested model's means). The other families take neither.
    An ordering is an OrderingPolicy member; construction raises
    ConfigError for any other value, or for a combination the family does
    not accept.
    """

    family: str
    ordering: OrderingPolicy | None = None
    groups: int | None = None

    def __post_init__(self):
        accepted = _ORDERINGS.get(self.family)
        if accepted is None:
            raise ConfigError(f"unknown statistic family '{self.family}'")
        if self.ordering not in accepted:
            raise ConfigError(
                f"statistic '{self.family}' takes ordering "
                f"{' or '.join(map(_ordering_text, accepted))}, got {_ordering_text(self.ordering)}"
            )
        if self.family == "hl":
            if _int(self.groups, "the group count of statistic 'hl'") < 2:
                raise ConfigError("statistic 'hl' needs at least 2 groups")
        elif self.groups is not None:
            raise ConfigError(f"statistic '{self.family}' takes no group count")

    @property
    def label(self) -> str:
        parts = (self.family, self.groups, self.ordering and self.ordering.value)
        return ":".join(str(p) for p in parts if p is not None)

    @classmethod
    def parse(cls, label: str) -> "StatisticKind":
        """Parse a statistic label like 'ks:mu-full' or 'hl:5:mu-tested'.

        The grammar: a family name, then ':<groups>' for hl, then
        ':<ordering>' for a family that takes an ordering. The group count
        is written in decimal digits, and the ordering is the value of an
        OrderingPolicy: mu-full, mu-tested, residual or given. Only the
        grammar is read here; the constructor decides which orderings and
        group counts a family accepts.
        """
        family, *rest = label.strip().split(":")
        accepted = _ORDERINGS.get(family)
        if accepted is None:
            raise ConfigError(f"unknown statistic '{label}'")
        form = ("<groups>",) * (family == "hl") + ("<ordering>",) * (accepted != (None,))
        if len(rest) != len(form):
            raise ConfigError(f"expected '{':'.join((family, *form))}': got '{label}'")
        if family == "hl" and not rest[0].isdecimal():
            raise ConfigError(f"group count '{rest[0]}' is not an integer in '{label}'")
        if rest and rest[-1] not in {p.value for p in OrderingPolicy}:
            raise ConfigError(f"unknown ordering '{rest[-1]}' in '{label}'")
        groups = int(rest[0]) if family == "hl" else None
        return cls(family, OrderingPolicy(rest[-1]) if rest else None, groups)


def _kinds(values) -> tuple[StatisticKind, ...]:
    """values as a tuple of StatisticKind; ConfigError if empty or if one is not."""
    kinds = tuple(values)
    if not kinds:
        raise ConfigError("at least one statistic is required")
    for k in kinds:
        if not isinstance(k, StatisticKind):
            raise ConfigError(f"a statistic is a StatisticKind, got {k!r}")
    return kinds


def parse_statistics(labels) -> tuple[StatisticKind, ...]:
    kinds = _kinds(StatisticKind.parse(s) for s in labels)
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
    if not isinstance(policy, OrderingPolicy):
        raise ConfigError(f"an ordering policy is an OrderingPolicy member, got {policy!r}")
    if policy is OrderingPolicy.GIVEN:
        if n is None:
            raise ConfigError("ordering 'given' needs the number of observations")
        return Ordering(np.arange(n))
    key = {
        OrderingPolicy.BY_FULL_MU: mu_full,
        OrderingPolicy.BY_TESTED_MU: mu_tested,
        OrderingPolicy.BY_RESIDUAL: residual,
    }[policy]
    if key is None:
        raise ConfigError(f"ordering '{policy.value}' needs its key vector")
    return Ordering(stable_argsort(np.asarray(key)[None, :])[0])


# Rows at least this long are sorted with the default (unstable) argsort
# first; shorter rows go straight to the stable sort. Measured on a 2-vCPU
# Xeon with numpy 2.4, per (B, n) batch of about 262,000 keys: at n = 575
# the stable sort takes 16 ms and the fast path 7.4 ms; at n = 64 with
# distinct keys 9.6 against 4.7 ms. At n = 39 the fitted means of Finney's
# l = 2 draws tie on 21% of rows (repeated covariate rows and clamped
# means), and there the fast path takes 8.7 ms against the stable sort's
# 3.6 ms, so the crossover lies between n = 39 and 64. Shorter rows skip
# the constant-row check too: 6,721 constant rows of n = 39 took 0.55 ms
# in the stable sort alone, 0.82 ms with the check.
_FAST_SORT_MIN_N = 64


def stable_argsort(keys):
    """Row-wise np.argsort(keys, axis=1, kind="stable") of a (B, n) array.

    Rows shorter than _FAST_SORT_MIN_N go straight to the stable sort,
    which returns the identity for a row whose keys all compare equal. From
    _FAST_SORT_MIN_N on, such a row (an intercept-only fit's means) is
    given the identity order and is not sorted; the other rows are sorted
    with the default sort, and only those whose sorted keys are not
    strictly increasing go to the stable sort again. A row of distinct keys
    has exactly one ascending order, so the result is the stable argsort
    either way. The test is written with > so that NaN and equal zeros of
    either sign count as ties.
    """
    keys = np.asarray(keys)
    B, n = keys.shape
    if n < _FAST_SORT_MIN_N:
        return np.argsort(keys, axis=1, kind="stable")
    const = (keys == keys[:, :1]).all(axis=1)
    if const.any():
        order = np.empty((B, n), np.intp)
        order[const] = np.arange(n)
        vary = ~const
        order[vary] = stable_argsort(keys[vary])
        return order
    order = np.argsort(keys, axis=1)
    offsets = _row_offsets(B, n)
    order += offsets
    s = np.take(keys, order)
    order -= offsets
    tied = ~(s[:, 1:] > s[:, :-1]).all(axis=1)
    if tied.any():
        order[tied] = np.argsort(keys[tied], axis=1, kind="stable")
    return order


def _row_offsets(B, n):
    """(B, 1) flat offsets of the rows of a C-ordered (B, n) array; added to
    a row-wise order they make it a flat index for np.take."""
    return (np.arange(B) * n)[:, None]


# ---------------------------------------------------------------------------
# batch kernels: (B, n) arrays in, (B,) values out (module notes 1-4)


def _ordered_view(policy, ones8, mu, mu_full):
    """Outcomes (uint8) and tested means of every row taken in the order
    the policy sorts that row by, each a (B, n) array."""
    if policy is OrderingPolicy.GIVEN:
        return ones8, mu
    if policy is OrderingPolicy.BY_FULL_MU:
        order = stable_argsort(mu_full)
    elif policy is OrderingPolicy.BY_TESTED_MU:
        order = stable_argsort(mu)
    else:
        order = stable_argsort(np.subtract(ones8, mu))
    order += _row_offsets(*mu.shape)
    return np.take(ones8, order), np.take(mu, order)


def _scan_extremes(R):
    """Largest and smallest compensated running sum down each column of R.

    R is (n, m) scratch and is overwritten: row k ends up holding the
    running sums after k + 1 terms, column by column those of a row-wise
    Kahan sum (module note 2)."""
    m = R.shape[1]
    s, c, y = np.zeros(m), np.zeros(m), np.empty(m)
    for a in R:
        np.subtract(a, c, out=y)
        np.add(s, y, out=a)
        np.subtract(a, s, out=c)
        c -= y
        s = a
    return R.max(axis=0), R.min(axis=0)


def _ordered_value(family, hi, lo):
    if family == "ks":
        return np.maximum(np.abs(hi), np.abs(lo))
    return hi - lo


_CELL_SCALE = {"freeman-tukey": 4.0, "half-abs-sum": 0.5}


def _cell_statistic(family, ones, mu):
    """sum_k f(y_k, mu_k) for a per-cell family; ones is y == 1.

    Each cell's argument is selected exactly by y (np.where, no arithmetic
    blend) and the cells are summed in sorted order. Any two outcome
    vectors whose cell values form the same multiset therefore produce
    bit-identical sums, so outcomes that are tied in exact arithmetic stay
    tied in float and the raw >= comparison in the simulation loop counts
    them consistently. The solver cooperates: its means are
    arrangement-invariant. For classes that swap y with 1-y its means are
    complementary only to within the fit's accuracy, and exactly on some
    pairs alone (19/20 ones at n = 39), so ties between complementary
    classes are not guaranteed.
    """
    if family == "deviance":
        # log(1 - mu), not log1p(-mu): complementary mean pairs must hand log
        # the bitwise-same argument or the tie machinery above falls apart
        cells = np.log(np.where(ones, mu, 1.0 - mu))
        cells *= -2.0
    elif family == "freeman-tukey":
        # the observed-cell form, (sqrt y - sqrt mu)^2, has no common
        # argument: the cell is mu itself when y = 0
        cells = np.where(ones, (1.0 - np.sqrt(mu)) ** 2, mu)
    else:
        cells = np.where(ones, 1.0 - mu, mu)  # |y - mu|
        if family != "half-abs-sum":
            cells *= cells
        if family == "pearson-chi2":
            cells /= mu * (1.0 - mu)
    cells.sort(axis=1)
    return _CELL_SCALE.get(family, 1.0) * np.sum(cells, axis=1)


def _hl_batch(ys, ms, grouping: GroupingScheme):
    """Grouped calibration statistic over consecutive blocks of an order.

    ys and ms are the outcomes and means taken in the order of the
    grouping key (its stable argsort, per row), cut into the grouping's
    blocks, and each block contributes (observed ones - expected)^2
    over expected * (1 - expected/size). A block whose denominator
    degenerates contributes 0 when the count matches the degenerate
    expectation and +inf otherwise, so the simulation comparison stays
    well-defined.
    """
    starts = grouping.starts()
    nk = np.add.reduceat(ys, starts, axis=1, dtype=np.float64)
    ek = np.add.reduceat(ms, starts, axis=1)
    sk = np.asarray(grouping.sizes, float)
    den = ek * (1.0 - ek / sk)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (nk - ek) ** 2 / den
    degenerate = ~(den > 0.0)
    if degenerate.any():
        terms = np.where(degenerate, np.where(nk == ek, 0.0, np.inf), terms)
    return np.sum(terms, axis=1)


def evaluate_batch(kinds, Y, mu_tested, mu_full) -> np.ndarray:
    """Evaluate every requested statistic on a batch of outcome vectors.

    Y (0/1 outcomes), mu_tested and mu_full are (B, n); the result is (B, K)
    with one column per kind, in the order given. This is the single
    evaluation path shared by the simulation engine and the enumeration
    oracle.
    """
    Y = np.asarray(Y, dtype=np.float64)
    B, n = Y.shape
    mu = np.ascontiguousarray(mu_tested, dtype=np.float64)
    ones = Y == 1.0
    ones8 = ones.view(np.uint8)
    out = np.empty((B, len(kinds)))

    def source(policy):
        # when the tested model is the full one, both means are one array
        # and its two orderings are one
        if policy is OrderingPolicy.BY_FULL_MU and mu_full is mu_tested:
            return OrderingPolicy.BY_TESTED_MU
        return policy

    # ks and kuiper scan their ordering, hl groups along its ordering, and
    # the kinds without an ordering are per-cell
    scanned = [k.ordering is not None and k.family != "hl" for k in kinds]
    # the first column of each scanned ordering's block in the stacked array
    lanes = {}
    for k, scan in zip(kinds, scanned):
        if scan:
            lanes.setdefault(source(k.ordering), len(lanes) * B)
    grouped = [source(k.ordering) for k in kinds if k.family == "hl"]
    R = np.empty((n, len(lanes) * B)) if lanes else None
    for policy in dict.fromkeys([*lanes, *grouped]):
        ys, ms = _ordered_view(policy, ones8, mu, mu_full)
        for col, kind in enumerate(kinds):
            if kind.family == "hl" and source(kind.ordering) is policy:
                out[:, col] = _hl_batch(ys, ms, default_grouping(n, kind.groups))
        if policy in lanes:
            lane = lanes[policy]
            np.subtract(ys.T, ms.T, out=R[:, lane:lane + B])
        del ys, ms  # before the next ordering's gathers, to keep the peak down
    if lanes:
        hi, lo = _scan_extremes(R)
        del R  # before the per-cell statistics' temporaries
        for col, kind in enumerate(kinds):
            if scanned[col]:
                lane = lanes[source(kind.ordering)]
                out[:, col] = _ordered_value(kind.family, hi[lane:lane + B], lo[lane:lane + B])

    for col, kind in enumerate(kinds):
        if kind.ordering is None:
            out[:, col] = _cell_statistic(kind.family, ones, mu)
    return out


def exceeds(vals, obs):
    """vals >= obs, obs broadcast over the rows of vals: the one rule by which
    the Monte-Carlo count and the exact oracle take a value to reach the
    observed one. A NaN never reaches, nor a tie that rounding broke."""
    return vals >= obs


# ---------------------------------------------------------------------------
# scalar entry points, thin wrappers over the same kernels


def _row(a):
    return np.asarray(a, dtype=np.float64)[None, :]


def _check_lengths(**lengths):
    """Raise DataError naming every length unless they all agree, and
    DataError when they are all 0."""
    if len(set(lengths.values())) > 1:
        raise DataError("lengths differ: " + ", ".join(f"{k} {v}" for k, v in lengths.items()))
    if 0 in lengths.values():
        raise DataError("no observations")


def _scan_one(r, ordering: Ordering):
    r = np.asarray(r, dtype=np.float64)
    _check_lengths(residuals=len(r), ordering=len(ordering.sigma))
    return _scan_extremes(r[ordering.sigma][:, None])


def ks_statistic(r, ordering: Ordering) -> float:
    """Largest absolute running sum of residuals taken in the given order."""
    return float(_ordered_value("ks", *_scan_one(r, ordering))[0])


def kuiper_statistic(r, ordering: Ordering) -> float:
    """Range (max minus min) of the running sums of residuals in the given order."""
    return float(_ordered_value("kuiper", *_scan_one(r, ordering))[0])


def half_abs_sum(r) -> float:
    """Half the sum of absolute residuals, the KS value maximized over orderings."""
    r = np.asarray(r, dtype=np.float64)
    _check_lengths(residuals=len(r))
    cells = np.sort(np.abs(r))
    return float(0.5 * np.sum(cells))


def _cell_value(family, y, mu):
    _check_lengths(y=len(y), mu=len(mu))
    y = np.asarray(y, dtype=np.float64)
    _check_binary(y)
    return float(_cell_statistic(family, _row(y) == 1.0, _row(mu))[0])


def deviance(y, mu) -> float:
    """Minus twice the log-likelihood of y under means mu."""
    return _cell_value("deviance", y, mu)


def freeman_tukey(y, mu) -> float:
    """Squared-root distance on the observed cells, 4 sum (sqrt y - sqrt mu)^2."""
    return _cell_value("freeman-tukey", y, mu)


def pearson_chi2(y, mu) -> float:
    """Sum of squared Pearson residuals (y - mu)^2 / (mu (1 - mu))."""
    return _cell_value("pearson-chi2", y, mu)


def euclidean_sq(y, mu) -> float:
    """Plain squared distance between y and mu."""
    return _cell_value("euclidean", y, mu)


def hosmer_lemeshow(y, mu_for_value, mu_for_grouping, grouping: GroupingScheme) -> float:
    """Grouped calibration statistic; see _hl_batch for the block rule."""
    y = np.asarray(y, dtype=np.float64)
    _check_lengths(y=len(y), mu_for_value=len(mu_for_value), mu_for_grouping=len(mu_for_grouping))
    _check_binary(y)
    if grouping.n != y.shape[0]:
        raise ConfigError(
            f"grouping covers {grouping.n} observations but y has {y.shape[0]}"
        )
    order = stable_argsort(_row(mu_for_grouping))[0]
    ms = np.asarray(mu_for_value, dtype=np.float64)[order]
    return float(_hl_batch(y[order][None, :], ms[None, :], grouping)[0])
