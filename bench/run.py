"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload finney-l2 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from `src` there
and needs nothing built. With --trace 0 it prints the end-to-end metrics,
with --trace 1 the per-layer metrics of a separate traced pass. Either way
the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every timed call's output is checked (see README.md); `failed` counts the
calls that raised or failed a check. Spans of a traced pass go to
`.bench_out/trace-<workload>-<seed>.json`. The exit code is 0 unless the
benchmark itself could not run (2) or counts that must repeat exactly for a
seed did not (1).
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# set-up is timed in this many fresh interpreters after one warm-up, and the
# median is reported
SETUP_REPEATS = 9
# the whole run, children included, ends within this many seconds
DEADLINE_S = 170.0

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "outcomes_per_s": "outcomes/s",
    "outcomes_per_s_2w": "outcomes/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "montecarlo.draw.ms_per_1k": "ms/1k",
    "fitting.tested.ms_per_1k": "ms/1k",
    "fitting.full.ms_per_1k": "ms/1k",
    "fitting.tested.iters_mean": "iters",
    "fitting.tested.iters_max": "iters",
    "fitting.full.iters_mean": "iters",
    "fitting.full.iters_max": "iters",
    "fitting.tested.nonconv_frac": "ratio",
    "fitting.full.nonconv_frac": "ratio",
    "fitting.tested.capped_iter_frac": "ratio",
    "fitting.full.capped_iter_frac": "ratio",
    "statistics.ms_per_1k": "ms/1k",
    "statistics.ordered.ms_per_1k": "ms/1k",
    "statistics.percell.ms_per_1k": "ms/1k",
    "statistics.grouped.ms_per_1k": "ms/1k",
    "montecarlo.count.ms_per_1k": "ms/1k",
    "montecarlo.engine_self.ms_per_1k": "ms/1k",
    "montecarlo.chunks": "count",
    "montecarlo.chunk_rows": "count",
    "montecarlo.scaling_eff_2w": "ratio",
    "exact.enum_self.ms_per_1k": "ms/1k",
    "trace.overhead_frac": "ratio",
    "setup.import_s": "s",
    "experiment.build_plan_ms": "ms",
    "fitting.observed_ms": "ms",
}


class BenchError(Exception):
    pass


def fail(msg: str, code: int = 2):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(code)


class Children:
    """Starts the benchmark's worker processes, one at a time, each with a
    timeout taken from the run's deadline."""

    def __init__(self, root: str, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.update(THREAD_ENV)
        self.env["PYTHONPATH"] = os.path.join(root, "src")

    def __call__(self, *args):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before starting a worker process")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), *map(str, args)]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {args[0]} ran out of time") from None
        if proc.returncode != 0:
            raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(d, "level")) as a, open(os.path.join(d, "size")) as b, \
                    open(os.path.join(d, "type")) as c:
                level, size, kind = a.read().strip(), b.read().strip(), c.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "caches": caches}


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    for sub in ("src", os.path.relpath(HERE, root)):
        for path in sorted(glob.glob(os.path.join(root, sub, "**", "*.py"), recursive=True)):
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def check_repeat(root, workload, seed, record) -> list[str]:
    """Counts that a seed fixes must match every earlier run of the same seed
    on the same code; a mismatch means a reduction order stopped being fixed."""
    d = os.path.join(root, ".bench_out", "repeat")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{workload}-{seed}-{source_digest(root)}.json")
    seen = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            seen = json.load(fh)
    bad = [f"{k}: {seen[k]} before, {v} now" for k, v in record.items() if k in seen and seen[k] != v]
    if not bad:
        seen.update(record)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(seen, fh, indent=1, sort_keys=True)
    return bad


def rate(calls, workers):
    """Median outcomes per second over the timed calls at this worker count
    that passed their checks (over all of them if none did)."""
    rows = [c for c in calls if c["workers"] == workers and not c["warmup"]]
    good = [c for c in rows if not c["errors"]] or rows
    return statistics.median(c["outcomes"] / c["seconds"] for c in good)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "logitgof", "__init__.py")):
        fail(f"no package source at {os.path.join(root, 'src', 'logitgof')}; "
             "run from the root of a checkout")
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    child = Children(root, deadline)
    # a relative, seed-named input path keeps the report bytes, which name
    # the dataset file, identical across runs of one seed
    tmp = os.path.join(".bench_out", "inputs", f"{args.workload}-{args.seed}")
    os.makedirs(tmp, exist_ok=True)
    try:
        config = child("gen", args.workload, args.seed, tmp)["config"]
        child("setup", config)  # warm-up: byte-compiles and fills the file cache
        # half of the set-ups before the timed worker and half after, so that
        # their median spans the run and not one moment of a drifting machine
        setups = [child("setup", config) for _ in range(SETUP_REPEATS // 2)]
        if args.trace:
            trace_file = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
            res = child("traced", args.workload, config, args.seconds, trace_file)
        else:
            res = child("timed", args.workload, config, args.seconds)
        setups += [child("setup", config) for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    except BenchError as exc:
        fail(str(exc))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    calls = res["calls"]
    failed = sum(1 for c in calls if c["errors"])
    for c in calls:
        for e in c["errors"]:
            print(f"FAILED check (workers={c['workers']}): {e}", file=sys.stderr)
    record = {"report_sha256": res["report_sha256"]}
    for model, counts in res.get("counts", {}).items():
        record[f"counts.{model}"] = counts
    repeat_errors = check_repeat(root, args.workload, args.seed, record)
    for e in repeat_errors:
        print(f"FAILED exact-repeat check for seed {args.seed}: {e}", file=sys.stderr)

    def median_of(key):
        return statistics.median(s[key] for s in setups)

    if args.trace:
        values = dict(res["layers"])
        values["setup.import_s"] = median_of("import_s")
        values["experiment.build_plan_ms"] = median_of("build_plan_ms")
        values["fitting.observed_ms"] = median_of("observed_ms")
        units = PER_LAYER_UNITS
    else:
        values = {
            "outcomes_per_s": rate(calls, 1),
            # exact_pvalues runs on one thread whatever the worker count
            "outcomes_per_s_2w": rate(calls, 1 if WORKLOADS[args.workload]["kind"] == "exact" else 2),
            "setup_s": median_of("setup_s"),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END_UNITS

    m = machine()
    v = res["versions"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"checked calls {len(calls)}  set-up repeats {SETUP_REPEATS}")
    print(f"machine  nproc={m['nproc']}  cpu={m['cpu']!r}  "
          + "  ".join(f"{k}={s}" for k, s in m["caches"].items()))
    print(f"software python={v['python']} numpy={v['numpy']} scipy={v['scipy']} blas={v['blas']}")
    caller = ", ".join(f"{k}={os.environ[k]}" for k in THREAD_ENV if k in os.environ)
    print(f"threads  {', '.join(THREAD_ENV)} = 1 in worker processes "
          f"(caller's: {caller or 'none set'})")
    for name in units:
        print(f"  {name:<36} {values[name]:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<36} {failed / len(calls):>14.6g} ratio ({failed} of {len(calls)} checked calls)")
    print(json.dumps({
        "correct": failed == 0 and not repeat_errors,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 1 if repeat_errors else 0


if __name__ == "__main__":
    sys.exit(main())
