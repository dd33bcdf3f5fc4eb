"""What the ordering does to the KS statistic, shown on one fit."""
import numpy as np

from logitgof import (
    ModelSpec,
    Ordering,
    OrderingPolicy,
    finney,
    fit,
    half_abs_sum,
    ks_statistic,
    kuiper_statistic,
    make_ordering,
    residuals,
)

d = finney()
f_tested = fit(d, ModelSpec(()))        # intercept only
f_full = fit(d, ModelSpec((0, 1)))      # both covariates
r = residuals(f_tested, d)

# The statistic is the largest absolute running sum of the residuals, and
# the ordering decides what "running" means. Under the tested model's own
# means the residuals are exchangeable-ish and the sums stay moderate;
# under the full model's means the misfit lines up and the sums pile high.
for policy, key in [
    (OrderingPolicy.GIVEN, {}),
    (OrderingPolicy.BY_TESTED_MU, {"mu_tested": f_tested.mu}),
    (OrderingPolicy.BY_FULL_MU, {"mu_full": f_full.mu}),
    (OrderingPolicy.BY_RESIDUAL, {"residual": r}),
]:
    o = make_ordering(policy, n=d.n, **key)
    print(f"ks ordered by {policy.value:<9} = {ks_statistic(r, o):.6f}")

# Two structural facts worth seeing once in numbers. Sorting by the
# residuals themselves makes the KS value half the absolute residual sum:
o_res = make_ordering(OrderingPolicy.BY_RESIDUAL, residual=r)
print(f"\nhalf-abs-sum            = {half_abs_sum(r):.6f}")
print(f"ks under residual order = {ks_statistic(r, o_res):.6f}")

# and the Kuiper variant does not care where a cyclic ordering starts,
# which is the natural choice when the ordering key wraps around (hour
# of day, compass bearing):
values = []
for shift in range(d.n):
    rolled = Ordering(np.roll(o_res.sigma, shift))
    values.append(kuiper_statistic(r, rolled))
print(f"\nkuiper over all {d.n} rotations: "
      f"min {min(values):.12f}, max {max(values):.12f}")
