"""Command-line front end.

A run is described by a JSON config file, by flags, or by a config file
with flag overrides on top. Exit codes are scripting-stable: 0 success,
1 usage or configuration problem, 2 data validation problem, 3 numerical
failure.
"""
from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, DataError, NumericalError
from .experiment import (
    _CONFIG_KEYS,
    _EMITTERS,
    DEFAULT_NUM_SIMULATIONS,
    ExperimentConfig,
    emit_report,
    read_config_doc,
    run_experiment,
)
from .statistics import _ORDERINGS

def _stat_help() -> str:
    """The label forms StatisticKind.parse reads, one per family of the
    statistic table, with the orderings each family accepts."""
    forms = []
    for family, accepted in _ORDERINGS.items():
        form = family + ":<groups>" * (family == "hl")
        if accepted != (None,):
            form += f":<o> with <o> one of {', '.join(o.value for o in accepted)}"
        forms.append(form)
    return "comma-separated statistic labels: " + "; ".join(forms) + "."


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code scheme."""

    def error(self, message):
        raise ConfigError(message)


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def build_parser() -> _Parser:
    p = _Parser(
        prog="logitgof",
        description=(
            "Goodness-of-fit tests for logistic regression with "
            "simulation-exact P-values."
        ),
    )
    p.add_argument("--config", metavar="PATH", help="JSON config file; flags override its keys")
    p.add_argument("--dataset", metavar="SRC", help="CSV path, or 'finney' for the built-in dataset")
    p.add_argument("--dependent", metavar="NAME", help="name of the 0/1 outcome column")
    p.add_argument("--tested", type=_split_list, metavar="NAMES",
                   help="comma-separated tested-model covariates; empty for intercept-only")
    p.add_argument("--full", type=_split_list, metavar="NAMES",
                   help="comma-separated full-model covariates; default: all columns")
    p.add_argument("--inject-uniform", type=int, metavar="N",
                   help="append N pseudo-random uniform covariates u1..uN")
    p.add_argument("--inject-seed", type=int, metavar="SEED",
                   help="seed for the injected covariates")
    p.add_argument("--statistics", type=_split_list, metavar="LABELS", help=_stat_help())
    p.add_argument("--num-simulations", type=int, metavar="I",
                   help=f"Monte-Carlo sample size (default {DEFAULT_NUM_SIMULATIONS})")
    p.add_argument("--master-seed", type=int, metavar="SEED",
                   help="seed for the simulation stream (default 0)")
    p.add_argument("--workers", type=int, default=1, metavar="W",
                   help="worker threads; results are identical for any value")
    p.add_argument("--format", choices=tuple(_EMITTERS), default="text",
                   help="report format (default text)")
    p.add_argument("--output", metavar="PATH", help="write the report here instead of stdout")
    p.add_argument("--progress", action="store_true",
                   help="print simulation progress to stderr")
    return p


def _merge(args) -> ExperimentConfig:
    """Lay the flags that were given over the config file's keys; each
    config flag's dest is its config key."""
    doc = read_config_doc(args.config) if args.config else {}
    flags = vars(args)
    doc.update({key: flags[key] for key in _CONFIG_KEYS if flags[key] is not None})
    return ExperimentConfig.from_dict(doc)


def _progress_printer(done: int, total: int) -> None:
    sys.stderr.write(f"\r{done}/{total} simulations")
    if done >= total:
        sys.stderr.write("\n")
    sys.stderr.flush()


def _run(argv) -> int:
    args = build_parser().parse_args(argv)
    cfg = _merge(args)
    report = run_experiment(
        cfg,
        workers=args.workers,
        progress=_progress_printer if args.progress else None,
    )
    payload = emit_report(report, args.format)
    if args.output:
        try:
            with open(args.output, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.output}: {exc}") from None
    else:
        sys.stdout.buffer.write(payload)
    return 0


def main(argv=None) -> int:
    try:
        return _run(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
