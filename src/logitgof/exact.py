"""Exact P-values by exhaustive enumeration of the outcome space.

For n observations there are only 2**n possible outcome vectors, and the
null assigns each one probability prod mu_k^y_k (1-mu_k)^(1-y_k) with mu
taken from the observed-data tested fit. Summing those weights over the
outcomes whose refitted statistic reaches the observed value gives the
quantity the simulation estimates, with no Monte-Carlo error at all. It
refits, evaluates and compares through the Monte-Carlo engine, started at
zero, so it checks a simulation's draws and counts against exact weights.

Enumeration cost doubles per observation; the hard cap keeps refit counts
near a million, which is minutes of work.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import Dataset, ModelSpec
from .errors import ConfigError, NumericalError
from .fitting import DEFAULT_FIT_CONFIG, FitConfig
from .montecarlo import _Engine
from .statistics import StatisticKind, exceeds

MAX_EXACT_N = 20
_CHUNK = 4096


@dataclass(frozen=True)
class ExactPValue:
    p_exact: float
    outcomes_enumerated: int


def _outcome_rows(start: int, stop: int, n: int) -> np.ndarray:
    """Rows start..stop-1 of the full 2**n outcome table; bit j of the row
    index is observation j's outcome."""
    idx = np.arange(start, stop, dtype=np.uint64)[:, None]
    shifts = np.arange(n, dtype=np.uint64)[None, :]
    return ((idx >> shifts) & np.uint64(1)).astype(np.float64)


def exact_pvalues(
    d: Dataset,
    tested: ModelSpec,
    full: ModelSpec,
    kinds: tuple[StatisticKind, ...],
    cfg: FitConfig = DEFAULT_FIT_CONFIG,
) -> list[ExactPValue]:
    """Exact P-values for several statistics in one enumeration pass."""
    if d.n > MAX_EXACT_N:
        raise ConfigError(
            f"exact enumeration is capped at n = {MAX_EXACT_N}; this dataset has n = {d.n}"
        )
    kinds = tuple(kinds)
    if not kinds:
        raise ConfigError("at least one statistic is required")

    if not set(tested.included) <= set(full.included):
        raise ConfigError("the tested model must be nested in the full model")
    eng = _Engine(d, tested, full, kinds, cfg, warm=False)
    obs_vals = eng.observed()

    # log-space weights survive means clamped to the working range's edge
    log_mu = np.log(eng.mu_gen)
    log_1m = np.log(1.0 - eng.mu_gen)

    total = 1 << d.n
    p = np.zeros(len(kinds))
    weight_sum = 0.0
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        Y = _outcome_rows(start, stop, d.n)
        # cumsum adds left to right, as a per-observation loop would
        lw = np.cumsum(np.where(Y == 1.0, log_mu, log_1m), axis=1)[:, -1]
        w = np.exp(lw)
        weight_sum += float(np.sum(w))
        hit = exceeds(eng.evaluate(Y), obs_vals)
        # accumulate in outcome-index order so p_exact is bit-stable
        for col in range(len(kinds)):
            p[col] += float(np.sum(np.where(hit[:, col], w, 0.0)))

    if abs(weight_sum - 1.0) > 1e-10:
        raise NumericalError(
            f"outcome weights sum to {weight_sum!r}, expected 1 within 1e-10"
        )
    return [ExactPValue(p_exact=float(v), outcomes_enumerated=total) for v in p]
