"""Workload definitions and the seeded input generator.

Every workload turns a benchmark seed into the files a user would hand the
program: an experiment config and, for the synthetic workloads, a CSV that
goes through `load_csv` and `build_plan` like any user dataset.

The synthetic datasets are drawn once from a fixed design seed. The
benchmark seed then permutes their rows, flips the signs of their
covariates and picks the simulation seed. Both transformations leave every
true P-value unchanged, so one reference per statistic in
`references.json` holds for every seed, while each seed still hands the
program different bytes and different random draws.
"""
from __future__ import annotations

import json
import os
import random
import zlib

FINNEY_STATISTICS = [
    "ks:mu-full", "ks:mu-tested", "ks:residual", "deviance", "freeman-tukey",
    "pearson-chi2", "euclidean", "hl:3:mu-full", "hl:3:mu-tested",
    "hl:5:mu-full", "hl:5:mu-tested",
]

# Finney's 39 rows give 6,721-row chunks. An even number of whole chunks
# gives each of two workers the same work, so the 2-worker figure measures
# threading and not a leftover chunk; 4 chunks keep a call near 2 s, so a
# run holds enough calls for a steady median.
FINNEY_SIMULATIONS = 4 * 6721

# The synthetic Monte-Carlo workload stands in for the shipped UIS configs
# (configs/uis_*.json, n = 575, 11 covariates), whose data files are not in
# the repository. n = 575 gives 455-row chunks; 2 of them keep one call
# near 2.5 s at 1 worker and give each of two workers one chunk.
SYNTH_N = 575
SYNTH_SIMULATIONS = 2 * (262144 // SYNTH_N)

UIS_STATISTICS = [
    "ks:mu-full", "ks:mu-tested", "ks:residual", "deviance", "freeman-tukey",
    "pearson-chi2", "euclidean", "hl:10:mu-full", "hl:10:mu-tested",
]

DESIGN_SEED = 20130604

WORKLOADS = {
    "finney-l2": {
        "kind": "mc",
        "dataset": "finney",
        "dependent": "response",
        "tested": ["volume", "rate"],
        "full": ["volume", "rate"],
        "statistics": FINNEY_STATISTICS,
        "num_simulations": FINNEY_SIMULATIONS,
    },
    "finney-l0": {
        "kind": "mc",
        "dataset": "finney",
        "dependent": "response",
        "tested": [],
        "full": ["volume", "rate"],
        "statistics": FINNEY_STATISTICS,
        "num_simulations": FINNEY_SIMULATIONS,
    },
    # shaped like configs/uis_l9_m11.json: 4 continuous and 5 binary main
    # effects (age, beck, ndrgfp1, ndrgfp2; ivhx_2, ivhx_3, race, treat,
    # site), a continuous and a binary interaction (ageXndrgfp1, raceXsite)
    # in the full model only, the UIS statistics, and about the UIS share
    # of successes (a quarter)
    "synth-n575": {
        "kind": "mc",
        "dataset": {"n": SYNTH_N, "continuous": 4, "binary": 5,
                    "interactions": [[1, 3], [7, 9]], "design": 0,
                    "intercept": -2.2,
                    "slopes": [0.5, 0.4, -0.6, 0.3, 0.8, 0.5, -0.4, 0.6, -0.5, 0.3, 0.4],
                    "quadratic": 0.4},
        "dependent": "y",
        "tested": [f"x{j}" for j in range(1, 10)],
        "full": [f"x{j}" for j in range(1, 12)],
        "statistics": UIS_STATISTICS,
        "num_simulations": SYNTH_SIMULATIONS,
    },
    "exact-n16": {
        "kind": "exact",
        "dataset": {"n": 16, "continuous": 2, "binary": 0, "interactions": [],
                    "design": 3, "intercept": 0.3, "slopes": [1.0, -0.8],
                    "quadratic": 0.0},
        "dependent": "y",
        "tested": ["x1"],
        "full": ["x1", "x2"],
        "statistics": ["ks:mu-full", "kuiper:mu-full", "deviance", "pearson-chi2",
                       "hl:3:mu-tested"],
        "num_simulations": 1,
    },
}


def master_seed(workload: str, seed: int) -> int:
    return random.Random(f"{workload}:{seed}").getrandbits(63)


def base_dataset(n, continuous, binary, interactions, design, intercept, slopes,
                 quadratic):
    """The fixed synthetic dataset before any seed-driven transformation.

    Columns are `continuous` standard-normal covariates, then `binary` 0/1
    covariates, then the products of the (1-based) column pairs in
    `interactions`. Outcomes follow a logistic model in the columns plus
    `quadratic` times the first column squared, so that a linear fit is
    deliberately wrong when it is not 0.
    """
    import numpy as np

    rng = np.random.default_rng([DESIGN_SEED, design])
    cols = [rng.standard_normal((n, continuous))]
    if binary:
        cols.append((rng.random((n, binary)) < 0.4).astype(float))
    x = np.hstack(cols)
    if interactions:
        x = np.hstack([x, np.column_stack([x[:, a - 1] * x[:, b - 1] for a, b in interactions])])
    eta = intercept + x @ np.asarray(slopes) + quadratic * x[:, 0] ** 2
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(int)
    return y, x


def write_inputs(workload: str, seed: int, outdir: str) -> str:
    """Write the workload's config (and CSV) for this seed; return the
    config path."""
    spec = WORKLOADS[workload]
    doc = {
        "dataset": spec["dataset"],
        "dependent": spec["dependent"],
        "tested": spec["tested"],
        "full": spec["full"],
        "statistics": spec["statistics"],
        "num_simulations": spec["num_simulations"],
        "master_seed": master_seed(workload, seed),
    }
    if isinstance(spec["dataset"], dict):
        import numpy as np

        y, x = base_dataset(**spec["dataset"])
        rng = np.random.default_rng([seed % 2**64, zlib.crc32(workload.encode())])
        perm = rng.permutation(y.shape[0])
        signs = rng.choice([-1.0, 1.0], size=x.shape[1])
        y, x = y[perm], x[perm] * signs
        csv_path = os.path.join(outdir, f"{workload}.csv")
        names = [f"x{j + 1}" for j in range(x.shape[1])]
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(",".join([spec["dependent"], *names]) + "\n")
            for k in range(y.shape[0]):
                fh.write(",".join([str(int(y[k])), *(repr(float(v)) for v in x[k])]) + "\n")
        doc["dataset"] = csv_path
    cfg_path = os.path.join(outdir, f"{workload}.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return cfg_path
