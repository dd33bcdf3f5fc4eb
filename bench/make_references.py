"""Recompute `references.json`: each workload's exceedance counts (exact
P-values for exact workloads) from one long run.

    PYTHONPATH=src OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 \\
        python3 bench/make_references.py

Run from the repository root. The references are the program's own output
at seed 0, with a budget far above the benchmark's, not the paper's table:
some paper rows (hl:3, hl:5) deliberately disagree with this program.
"""
from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, write_inputs  # noqa: E402

REFERENCE_SIMULATIONS = {"finney-l2": 60 * 6721, "finney-l0": 60 * 6721, "synth-n575": 48 * 455}


def main():
    import logitgof

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in WORKLOADS.items():
            cfg = logitgof.load_config(write_inputs(name, 0, tmp))
            if spec["kind"] == "mc":
                sims = REFERENCE_SIMULATIONS[name]
                cfg = dataclasses.replace(cfg, num_simulations=sims)
                rep = logitgof.run_experiment(cfg, workers=2)
                out[name] = {"simulations": sims,
                             "counts": {e.statistic.label: e.exceed_count for e in rep.estimates}}
            else:
                plan = logitgof.build_plan(cfg)
                res = logitgof.exact_pvalues(plan.dataset, plan.tested, plan.full, plan.statistics)
                out[name] = {"p": {k.label: r.p_exact for k, r in zip(plan.statistics, res)}}
            print(name, out[name], file=sys.stderr, flush=True)
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
