"""Monte-Carlo estimation of exact P-values by parametric bootstrap.

The procedure: fit the tested model to the data, draw simulated outcome
vectors from its fitted means, refit both models to every draw, and count
how often each simulated statistic is at least the observed one. The
fraction b/i is the P-value estimate.

Determinism is a hard requirement here. Every simulation's randomness comes
from a counter-based generator keyed by (master_seed, simulation index), and
all fitting and statistic kernels are batch-size invariant. The count and
the exact oracle both run `_Engine.tally`, which adds the chunks' partial
sums in chunk order. A count is a float sum of ones, exact below 2**53 in
any order, so it depends neither on chunking nor on the number of worker
threads; the oracle's weights are not, so its bits depend on its chunk size.

Refits start at the generating fit, not at zero: the tested refit at the
observed tested coefficients, the full refit at the same coefficients with
zero on the full model's extra columns. Draws scatter around the
generating means, so this saves one to two IRLS iterations per refit with
covariates (synth-n575 draws: 5.98 to 4.46 tested, 5.99 to 4.67 full). The
observed full fit is a worse start for the full refit: on Finney's l = 0
draws it takes 6.12 iterations against 4.28 from zero. Two rules keep the
P-value the one the zero-start fits define:

- The observed values come from refitting the observed outcomes from the
  same starts. A draw equal to them is then refitted to the same bits, by
  batch-size invariance, and ties with the observed values exactly. The
  generating means are those of the zero-start fit, as `fit` gives them.
- If the observed tested fit did not converge, both refits start at zero.
  A separated fit's diverging coefficients are no start: refits from them
  stop elsewhere than zero-start ones.

The exact oracle (`exact.py`) runs on this engine with the zero start. It
refits every one of the 2^n outcomes, most of them far from the observed
data, and a warm start there costs iterations: on the bench's n = 16
lattice it raised the mean from 4.45 to 5.56 (tested) and from 5.37 to
6.11 (full).
"""
from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .datamodel import Dataset, ModelSpec, _int
from .errors import ConfigError
from .fitting import DEFAULT_FIT_CONFIG, FitConfig, design_matrix, fit_batch
from .statistics import StatisticKind, _kinds, evaluate_batch, exceeds


@dataclass(frozen=True)
class SimulationPlan:
    """Everything needed to reproduce one Monte-Carlo run exactly.

    The full model is every covariate of the dataset, so a dataset holding
    more columns than the full model is reduced to them first, as
    `build_plan` does. Every plan fits with the default FitConfig.
    """

    dataset: Dataset
    tested: ModelSpec
    statistics: tuple[StatisticKind, ...]
    num_simulations: int
    master_seed: int
    full: ModelSpec = field(init=False)
    fit_config: ClassVar[FitConfig] = DEFAULT_FIT_CONFIG

    def __post_init__(self):
        object.__setattr__(self, "statistics", _kinds(self.statistics))
        object.__setattr__(self, "full", ModelSpec(range(self.dataset.m)))
        for name in ("num_simulations", "master_seed"):
            object.__setattr__(self, name, _int(getattr(self, name), name))
        if self.num_simulations < 1:
            raise ConfigError("num_simulations must be at least 1")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must fit in 64 unsigned bits")
        self.tested.check_against(self.dataset)


@dataclass(frozen=True)
class PValueEstimate:
    """One statistic's Monte-Carlo result.

    The integers b (exceed_count) and i (num_simulations) are authoritative;
    p_hat and std_error are derived views rounded once through float.
    """

    statistic: StatisticKind
    observed_value: float
    exceed_count: int
    num_simulations: int

    @property
    def p_hat(self) -> float:
        return self.exceed_count / self.num_simulations

    @property
    def std_error(self) -> float:
        p = self.p_hat
        return math.sqrt(p * (1.0 - p) / self.num_simulations)

    @property
    def p_upper_bound(self) -> float | None:
        """1/i when no simulation reached the observed value, else None.

        A zero count never means P = 0; it means the estimate resolved to
        below one part in i, and reports render it as '<= 1/i'.
        """
        if self.exceed_count == 0:
            return 1.0 / self.num_simulations
        return None


def draw_outcomes(master_seed: int, start: int, stop: int, mu_gen: np.ndarray) -> np.ndarray:
    """Simulated outcome rows for simulation indices [start, stop).

    Each simulation owns a fixed, disjoint counter range of the Philox
    stream: index k gets counters [k*S, (k+1)*S) where S blocks yield just
    enough doubles for n observations. Any chunking of indices therefore
    reproduces the same rows.
    """
    n = mu_gen.shape[0]
    S = (n + 3) // 4
    bg = np.random.Philox(key=master_seed, counter=start * S)
    u = np.random.Generator(bg).random((stop - start, 4 * S))[:, :n]
    return (u < mu_gen[None, :]).astype(np.float64)


class _Engine:
    """What every refit of a run shares: both design matrices, the
    generating fit and the starts of the two refits (module docstring).
    Without warm, every refit starts at zero, as the exact oracle's do."""

    def __init__(self, d: Dataset, tested: ModelSpec, full: ModelSpec, kinds, cfg: FitConfig,
                 warm: bool = True):
        self.kinds, self.cfg = kinds, cfg
        self.Xd_tested = design_matrix(d, tested)
        self.same = tested.included == full.included
        self.Xd_full = self.Xd_tested if self.same else design_matrix(d, full)
        self.y_obs = d.y.astype(np.float64)[None, :]
        beta, mu, conv, _ = fit_batch(self.Xd_tested, self.y_obs, cfg)
        self.mu_gen, self.converged = mu[0], bool(conv[0])
        self.start_tested = self.start_full = None
        if warm and self.converged:
            self.start_tested = beta[0]
            cols = [0] + [1 + full.included.index(j) for j in tested.included]
            self.start_full = np.zeros(self.Xd_full.shape[1])
            self.start_full[cols] = beta[0]

    def evaluate(self, Y):
        """Refit both models to the outcome rows Y and evaluate every
        statistic; returns the (B, statistics) values."""
        _, mu_t, _, _ = fit_batch(self.Xd_tested, Y, self.cfg, start=self.start_tested)
        mu_f = mu_t
        if not self.same:
            _, mu_f, _, _ = fit_batch(self.Xd_full, Y, self.cfg, start=self.start_full)
        return evaluate_batch(self.kinds, Y, mu_t, mu_f)

    def observed(self):
        """The (K,) statistic values of the observed outcomes, refitted as a
        draw equal to them is."""
        return self.evaluate(self.y_obs)[0]

    def tally(self, total, size, rows, workers=1, progress=None):
        """Weigh the outcome rows [0, total) that reach the observed values.

        rows(start, stop) gives a span's outcome matrix and its weights, (B,)
        or one number. Returns obs = `observed()` and sums: per statistic,
        the weight of the rows reaching obs, then the weight of all rows.
        Spans of `size` run on a pool of `workers` threads, or in the calling
        thread when workers is 1, and their partial sums add in span order;
        progress(done, total) is called under a lock after each span.
        """
        obs = self.observed()
        lock = threading.Lock()
        done = 0

        def run_span(start):
            nonlocal done
            stop = min(start + size, total)
            Y, w = rows(start, stop)
            # C order: each row sums as np.sum of that statistic's column
            # alone would, bit for bit; the all-true last row weighs all
            mask = np.ones((len(self.kinds) + 1, stop - start), dtype=bool)
            mask[:-1] = exceeds(self.evaluate(Y), obs).T
            sums = np.where(mask, w, 0.0).sum(axis=1)
            if progress is not None:
                with lock:
                    done += stop - start
                    progress(done, total)
            return sums

        spans = range(0, total, size)
        if workers == 1:
            # in the calling thread: a pool thread's malloc arena keeps freed
            # chunks that later allocations of this thread cannot reuse, and
            # how much it keeps (10 to 20 MiB at n = 39) varies from run to run
            return obs, sum(map(run_span, spans))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return obs, sum(pool.map(run_span, spans))


def observed_statistics(plan: SimulationPlan):
    """Fit both models to the real data and evaluate every statistic.

    Returns (values, mu_tested, mu_full, converged) where values is a list
    of (StatisticKind, float) in plan order. The means and the flag are the
    observed-data fits started at zero, as `fit` gives them; mu_tested
    generates the Monte-Carlo draws. The values come from refitting the
    observed outcomes from the simulations' starts (module docstring).
    """
    eng = _Engine(plan.dataset, plan.tested, plan.full, plan.statistics, plan.fit_config)
    pairs = list(zip(plan.statistics, (float(v) for v in eng.observed())))
    mu_f, conv = eng.mu_gen, eng.converged
    if not eng.same:
        _, mu, c, _ = fit_batch(eng.Xd_full, eng.y_obs, plan.fit_config)
        mu_f, conv = mu[0], conv and bool(c[0])
    return pairs, eng.mu_gen, mu_f, conv


def run_one_simulation(plan: SimulationPlan, index: int) -> np.ndarray:
    """Statistic values for simulation `index` alone, bit-identical to the
    row that a batched run produces for the same index."""
    if not 0 <= index < plan.num_simulations:
        raise ConfigError(f"simulation index {index} outside 0..{plan.num_simulations - 1}")
    eng = _Engine(plan.dataset, plan.tested, plan.full, plan.statistics, plan.fit_config)
    return eng.evaluate(draw_outcomes(plan.master_seed, index, index + 1, eng.mu_gen))[0]


def _chunk_size(n: int) -> int:
    # keep chunk * n work arrays around a few MB; clamp so tiny datasets do
    # not explode the chunk count and huge ones still batch usefully
    return max(256, min(8192, 262144 // max(n, 1)))


def estimate_pvalues(plan: SimulationPlan, workers: int = 1, progress=None):
    """Run the full plan and return a list of PValueEstimate in plan order.

    The chunks run on one thread pool of `workers` threads, or in the
    calling thread when workers is 1; results are identical for any count
    because chunk boundaries are fixed by the plan and exceedance counts are
    exact sums of ones, so summation order cannot matter. progress, if
    given, is called as progress(done, total) after each chunk under a lock.
    Raising from the callback cancels the run: chunks not yet started are
    cancelled, a chunk already running finishes first, and the exception
    propagates. Nothing is mutated, so a cancelled run leaves no partial
    state behind.
    """
    workers = _int(workers, "workers")
    if workers < 1:
        raise ConfigError("workers must be at least 1")
    eng = _Engine(plan.dataset, plan.tested, plan.full, plan.statistics, plan.fit_config)
    i = plan.num_simulations

    def rows(start, stop):
        return draw_outcomes(plan.master_seed, start, stop, eng.mu_gen), 1.0

    obs_vals, sums = eng.tally(i, _chunk_size(plan.dataset.n), rows, workers, progress)
    return [
        PValueEstimate(
            statistic=kind,
            observed_value=float(val),
            exceed_count=int(c),
            num_simulations=i,
        )
        for kind, val, c in zip(plan.statistics, obs_vals, sums)
    ]
