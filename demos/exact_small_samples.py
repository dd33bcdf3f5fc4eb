"""Check the Monte-Carlo estimates against exhaustive enumeration.

For n observations there are only 2**n possible outcome vectors, so up to
n = 20 the null distribution can be computed exactly: refit every vector
and weight it by its probability under the tested fit, then add up the
weight wherever the statistic reaches the observed value.
"""
import math

import numpy as np

from logitgof import (
    Dataset,
    ModelSpec,
    SimulationPlan,
    estimate_pvalues,
    exact_pvalues,
    parse_statistics,
)

rng = np.random.default_rng(5)
n = 12
x = rng.normal(size=(n, 2))
beta = np.array([0.8, -0.5])
y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(x @ beta)))).astype(int)
d = Dataset(y, x, ("a", "b"))

tested = ModelSpec((0,))
full = ModelSpec((0, 1))
kinds = parse_statistics(["ks:mu-full", "kuiper:mu-full", "pearson-chi2"])

oracle = exact_pvalues(d, tested, full, kinds)
print(f"enumerated {oracle[0].outcomes_enumerated} outcome vectors (n = {n})")

i = 200_000
plan = SimulationPlan(dataset=d, tested=tested, statistics=kinds,
                      num_simulations=i, master_seed=42)
estimates = estimate_pvalues(plan)

print(f"{'statistic':<16} {'exact':>10} {'monte-carlo':>12} {'gap/se':>8}")
for ex, e in zip(oracle, estimates):
    se = math.sqrt(ex.p_exact * (1.0 - ex.p_exact) / i)
    gap = (e.p_hat - ex.p_exact) / se if se > 0 else 0.0
    print(f"{e.statistic.label:<16} {ex.p_exact:>10.6f} {e.p_hat:>12.6f} {gap:>8.2f}")
