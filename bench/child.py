"""The benchmark's worker process: one mode per invocation, one JSON line out.

    python3 bench/child.py gen <workload> <seed> <outdir>
    python3 bench/child.py setup <config>
    python3 bench/child.py timed <workload> <config> <seconds>
    python3 bench/child.py traced <workload> <config> <seconds> <trace-file>

`run.py` starts these with PYTHONPATH pointing at the checkout's `src` and
BLAS/OpenMP pinned to one thread, so `workers` is the only parallelism.
Nothing here imports numpy or the package at module level: the setup mode
times that import itself.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics as stats
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, write_inputs  # noqa: E402

# A Monte-Carlo exceedance count fails its check when an exact two-sided
# test rejects, at this level, that it and the reference count come from
# the same P-value (about 6 standard errors of a normal test). Exact
# P-values must lie within EXACT_TOLERANCE of theirs: row permutations of
# the exact dataset move p_exact by about 1.3e-8 through ties that break
# differently in the last bit.
ALPHA = 2e-9
EXACT_TOLERANCE = 1e-6

_ORDERED = ("ks", "kuiper")
_GROUPED = ("hl",)


def emit(doc) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def check_src() -> None:
    import logitgof

    want = os.path.join(os.getcwd(), "src", "logitgof")
    got = os.path.dirname(os.path.abspath(logitgof.__file__))
    if got != want:
        raise SystemExit(f"imported logitgof from {got}, expected {want}")


def references(workload: str) -> dict:
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


def same_rate_pvalue(b: int, i: int, b_ref: int, i_ref: int) -> float:
    """Two-sided P-value of the exact conditional test that b exceedances in
    i draws and b_ref in i_ref come from one P-value: given b + b_ref, b is
    binomial with success probability i / (i + i_ref). Unlike a normal
    approximation it holds for counts near 0. scipy.special is already
    loaded by the package; scipy.stats would add about 45 MiB to the
    process whose peak memory is measured."""
    from scipy.special import bdtr, bdtrc

    total = b + b_ref
    q = i / (i + i_ref)
    upper = 1.0 if b == 0 else float(bdtrc(b - 1, total, q))
    return min(1.0, 2.0 * min(float(bdtr(b, total, q)), upper))


def mc_reference_errors(estimates, ref) -> list[str]:
    bad = []
    for e in estimates:
        b_ref = ref["counts"][e.statistic.label]
        pv = same_rate_pvalue(e.exceed_count, e.num_simulations, b_ref, ref["simulations"])
        if pv < ALPHA:
            bad.append(f"{e.statistic.label}: {e.exceed_count} of {e.num_simulations} vs "
                       f"reference {b_ref} of {ref['simulations']} (test P {pv:.3g})")
    return bad


def exact_reference_errors(kinds, pvals, ref) -> list[str]:
    return [
        f"{k.label}: p_exact {p.p_exact} vs reference {ref['p'][k.label]}"
        for k, p in zip(kinds, pvals)
        if not abs(p.p_exact - ref["p"][k.label]) <= EXACT_TOLERANCE
    ]


class Workload:
    """The timed calls of one workload, each returning (report bytes,
    reference errors)."""

    def __init__(self, name: str, config: str):
        import logitgof

        self.lg = logitgof
        self.name = name
        self.kind = WORKLOADS[name]["kind"]
        self.cfg = logitgof.load_config(config)
        self.plan = logitgof.build_plan(self.cfg)
        self.ref = references(name)
        if self.kind == "mc":
            self.outcomes = self.cfg.num_simulations
        else:
            self.outcomes = 2 ** self.plan.dataset.n

    def run(self, workers: int):
        """One call of the program at the given worker count. exact_pvalues
        has no workers argument and is only ever called with workers=1."""
        if self.kind == "mc":
            rep = self.lg.run_experiment(self.cfg, workers=workers)
            self.last = [e.exceed_count for e in rep.estimates]
            return self.lg.emit_report(rep, "json"), mc_reference_errors(rep.estimates, self.ref)
        assert workers == 1
        p = self.plan
        res = self.lg.exact_pvalues(p.dataset, p.tested, p.full, p.statistics, p.fit_config)
        self.last = [r.p_exact for r in res]
        return (json.dumps(self.last).encode(),
                exact_reference_errors(p.statistics, res, self.ref))


class Calls:
    """Timed calls with their correctness verdicts; every call's report must
    equal the first one byte for byte."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.rows = []
        self.first = None

    def call(self, workers: int, traced=None, warmup=False):
        t0 = time.perf_counter()
        try:
            if traced is None:
                blob, errors = self.wl.run(workers)
            else:
                with traced:
                    blob, errors = self.wl.run(workers)
        except Exception as exc:  # a failing call is counted, not fatal
            blob, errors = None, [f"{type(exc).__name__}: {exc}"]
        dt = time.perf_counter() - t0
        if blob is not None:
            if self.first is None:
                self.first = blob
            elif blob != self.first:
                errors.append(f"report bytes at workers={workers} differ from the first call")
        self.rows.append({
            "workers": workers,
            "warmup": warmup,
            "seconds": dt,
            "outcomes": self.wl.outcomes,
            "errors": errors,
        })
        return self.rows[-1]


def versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form; the name is optional
        blas_name = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up_2w(calls: Calls) -> None:
    """One untimed 2-worker call before 2-worker calls are timed. It pays
    for the fresh malloc arena of a new thread, which a longer run would
    amortise, and its report must match the 1-worker bytes too."""
    calls.call(2, warmup=True)


def run_budget(seconds: float, step) -> None:
    """Call step() at least once, and again while a step of average length
    still fits in the budget."""
    t0 = time.perf_counter()
    steps = 0
    while True:
        step()
        steps += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / steps > seconds:
            return


# ---------------------------------------------------------------------------
# modes


def mode_gen(workload, seed, outdir):
    emit({"config": write_inputs(workload, int(seed), outdir)})


def mode_setup(config):
    t0 = time.perf_counter()
    import logitgof

    t1 = time.perf_counter()
    plan = logitgof.build_plan(logitgof.load_config(config))
    t2 = time.perf_counter()
    for spec in (plan.tested, plan.full):
        logitgof.fit(plan.dataset, spec, plan.fit_config)
    t3 = time.perf_counter()
    check_src()
    emit({"setup_s": t3 - t0, "import_s": t1 - t0,
          "build_plan_ms": 1e3 * (t2 - t1), "observed_ms": 1e3 * (t3 - t2)})


def mode_timed(workload, config, seconds):
    """Timed calls for the budget. On Monte-Carlo workloads: one 1-worker
    call, the peak memory, an untimed 2-worker warm-up, then 2-worker and
    1-worker calls in turn, so that both rates sample the whole run."""
    check_src()
    wl = Workload(workload, config)
    calls = Calls(wl)
    t0 = time.perf_counter()
    calls.call(1)
    rss = peak_rss_mb()
    if wl.kind == "mc":
        warm_up_2w(calls)

        def step():
            calls.call(2)
            calls.call(1)
    else:
        def step():
            calls.call(1)

    run_budget(float(seconds) - (time.perf_counter() - t0), step)
    emit({"calls": calls.rows, "peak_rss_mb": rss,
          "report_sha256": hashlib.sha256(calls.first or b"").hexdigest(),
          "versions": versions()})


def mode_traced(workload, config, seconds, trace_file):
    """Cycles of an untraced 1-worker call, an untraced 2-worker call
    (Monte-Carlo only) and a traced 1-worker call, for the budget."""
    from spans import Tracer

    check_src()
    wl = Workload(workload, config)
    calls = Calls(wl)
    cycles = []
    if wl.kind == "mc":
        warm_up_2w(calls)

    def step():
        u1 = calls.call(1)
        rate_1w = u1["outcomes"] / u1["seconds"]
        if wl.kind == "mc":
            u2 = calls.call(2)
            rate_2w = u2["outcomes"] / u2["seconds"]
        else:
            rate_2w = rate_1w  # exact_pvalues runs on one thread
        tracer = Tracer()
        t1 = calls.call(1, traced=tracer)
        layers, counts, errors = analyse(wl, tracer)
        t1["errors"].extend(errors)
        layers["montecarlo.scaling_eff_2w"] = rate_2w / (2.0 * rate_1w)
        layers["trace.overhead_frac"] = (t1["seconds"] - u1["seconds"]) / u1["seconds"]
        tracer.captured.clear()
        cycles.append((layers, counts, tracer))

    run_budget(float(seconds), step)
    counts = cycles[0][1]
    last = calls.rows[-1]["errors"]
    if any(c != counts for _, c, _ in cycles):
        last.append(f"per-layer counts differ between cycles: {[c for _, c, _ in cycles]}")
    layers = {k: stats.median(c[0][k] for c in cycles) for k in cycles[0][0]}
    if layers["montecarlo.engine_self.ms_per_1k"] < 0:
        last.append("engine self time less the count is negative: layer spans double-count")
    layers.update(count_layers(counts))
    cycles[-1][2].dump(trace_file, {"workload": workload, "config": config,
                                    "versions": versions(), "cycles": len(cycles)})
    emit({"calls": calls.rows, "layers": layers, "counts": counts,
          "report_sha256": hashlib.sha256(calls.first or b"").hexdigest(),
          "versions": versions()})


# ---------------------------------------------------------------------------
# trace analysis


def _split_kinds(kinds):
    ordered = tuple(k for k in kinds if k.family in _ORDERED)
    grouped = tuple(k for k in kinds if k.family in _GROUPED)
    percell = tuple(k for k in kinds if k not in ordered and k not in grouped)
    return {"ordered": ordered, "percell": percell, "grouped": grouped}


def analyse(wl: Workload, tracer):
    """Per-layer times and the counts from one traced call, plus the recount.

    Layer times are the spans of the calls the engine (estimate_pvalues or
    exact_pvalues) makes directly on simulated or enumerated chunks; the
    observed-data fits (one-row calls) are set-up and are left out. The
    benchmark then re-evaluates every chunk's statistics in three subsets,
    recounts exceedances from them and checks the result against the
    report, timing the subsets and the count in spans of its own.
    """
    import numpy as np

    from logitgof.statistics import evaluate_batch

    plan = wl.plan
    engine_name = "estimate_pvalues" if wl.kind == "mc" else "exact_pvalues"
    engine = next(s for s in tracer.spans if s.name == engine_name)
    p_tested = plan.tested.l + 1
    p_full = plan.full.l + 1
    max_it = plan.fit_config.max_iterations
    per_1k = 1e3 / wl.outcomes
    errors = []

    def on_chunks(name):
        return [(s, a, r) for s, a, r in tracer.captured
                if s.name == name and s.parent == engine.id and s.rows > 1]

    t = {k: 0.0 for k in ("draw", "tested", "full", "stats", "ordered", "percell",
                          "grouped", "count")}
    counts = {}
    for model, p in (("tested", p_tested), ("full", p_full)):
        fits = [(s, r) for s, a, r in on_chunks("fit_batch") if a[0].shape[1] == p]
        t[model] = sum(s.duration for s, _ in fits)
        conv = np.concatenate([r[2] for _, r in fits] or [np.ones(0, bool)])
        iters = np.concatenate([r[3] for _, r in fits] or [np.zeros(0, np.int64)])
        capped = iters >= max_it
        counts[model] = {
            "rows": int(iters.size),
            "iters_sum": int(iters.sum()),
            "iters_max": int(iters.max(initial=0)),
            "nonconv": int((~conv).sum()),
            "capped_rows": int(capped.sum()),
            "capped_iters": int(iters[capped].sum()),
        }
    evals = on_chunks("evaluate_batch")
    t["stats"] = sum(s.duration for s, _, _ in evals)
    # exact_pvalues builds its lattice chunks where estimate_pvalues draws
    sources = on_chunks("draw_outcomes") + on_chunks("_outcome_rows")
    t["draw"] = sum(s.duration for s, _, _ in sources)
    t_fit = sum(s.duration for s, _, _ in on_chunks("fit_batch"))
    counts["chunks"] = len(evals)
    counts["chunk_rows"] = max(s.rows for s, _, _ in evals)

    kinds = plan.statistics
    split = _split_kinds(kinds)
    obs_span = [(a, r) for s, a, r in tracer.captured if s.name == "evaluate_batch" and s.rows == 1]
    obs = obs_span[-1][1][0]
    if wl.kind == "exact":
        mu_hat = next(r[1][0] for s, a, r in tracer.captured
                      if s.name == "fit_batch" and s.rows == 1 and a[0].shape[1] == p_tested)
        log_mu, log_1m = np.log(mu_hat), np.log(1.0 - mu_hat)
        n = plan.dataset.n
    totals = np.zeros(len(kinds), np.int64) if wl.kind == "mc" else np.zeros(len(kinds))
    start = 0
    for s, (_, Y, mu_t, mu_f), vals in evals:
        cols = np.empty_like(vals)
        for part, sub in split.items():
            if not sub:
                continue
            with tracer.span(f"statistics.{part}", rows=s.rows, chunk=s.chunk) as sp:
                v = evaluate_batch(sub, Y, mu_t, mu_f)
            t[part] += sp.duration
            for j, k in enumerate(sub):
                cols[:, kinds.index(k)] = v[:, j]
        if not np.array_equal(cols, vals):
            errors.append(f"chunk {s.chunk}: split statistics differ from the engine's")
        if wl.kind == "mc":
            with tracer.span("count", rows=s.rows, chunk=s.chunk) as sp:
                totals += np.sum(cols >= obs[None, :], axis=0).astype(np.int64)
            t["count"] += sp.duration
        else:
            stop = start + s.rows
            idx = np.arange(start, stop, dtype=np.uint64)[:, None]
            rows = ((idx >> np.arange(n, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.float64)
            if not np.array_equal(rows, Y):
                errors.append(f"chunk {s.chunk}: enumerated rows differ from the lattice")
            lw = np.zeros(s.rows)
            for j in range(n):
                lw += np.where(Y[:, j] == 1.0, log_mu[j], log_1m[j])
            w = np.exp(lw)
            with tracer.span("count", rows=s.rows, chunk=s.chunk) as sp:
                for col in range(len(kinds)):
                    totals[col] += float(np.sum(np.where(cols[:, col] >= obs[col], w, 0.0)))
            t["count"] += sp.duration
            start = stop
    if totals.tolist() != wl.last:
        errors.append(f"recount {totals.tolist()} differs from the report's {wl.last}")

    ms = {k: 1e3 * v * per_1k for k, v in t.items()}
    # the engine's own time: its self time less the count that runs inline
    # in it; and the engine's whole time less the chunk-level fits and
    # statistics, which ROADMAP item 3 targets on exact-n16
    engine_self = engine.self_time - t["count"]
    enum_self = engine.duration - t_fit - t["stats"]
    layers = {
        "montecarlo.draw.ms_per_1k": ms["draw"],
        "fitting.tested.ms_per_1k": ms["tested"],
        "fitting.full.ms_per_1k": ms["full"],
        "statistics.ms_per_1k": ms["stats"],
        "statistics.ordered.ms_per_1k": ms["ordered"],
        "statistics.percell.ms_per_1k": ms["percell"],
        "statistics.grouped.ms_per_1k": ms["grouped"],
        "montecarlo.count.ms_per_1k": ms["count"],
        "montecarlo.engine_self.ms_per_1k": 1e3 * engine_self * per_1k,
        "exact.enum_self.ms_per_1k": 1e3 * enum_self * per_1k,
    }
    return layers, counts, errors


def count_layers(counts) -> dict:
    """The per-layer metrics that follow from counts alone."""
    layers = {}
    for model in ("tested", "full"):
        c = counts[model]
        layers[f"fitting.{model}.iters_mean"] = c["iters_sum"] / max(c["rows"], 1)
        layers[f"fitting.{model}.iters_max"] = c["iters_max"]
        layers[f"fitting.{model}.nonconv_frac"] = c["nonconv"] / max(c["rows"], 1)
        layers[f"fitting.{model}.capped_iter_frac"] = c["capped_iters"] / max(c["iters_sum"], 1)
    layers["montecarlo.chunks"] = counts["chunks"]
    layers["montecarlo.chunk_rows"] = counts["chunk_rows"]
    return layers


def main(argv):
    modes = {"gen": mode_gen, "setup": mode_setup, "timed": mode_timed, "traced": mode_traced}
    if len(argv) < 2 or argv[1] not in modes:
        raise SystemExit(__doc__)
    modes[argv[1]](*argv[2:])


if __name__ == "__main__":
    main(sys.argv)
