"""Experiment orchestration: config in, report out.

A config names a dataset, a dependent column, the tested and full variable
lists, the statistics to evaluate and the simulation budget. Running it
builds a SimulationPlan over a dataset reduced to exactly the full model's
columns, estimates every P-value and wraps the results in a Report.

Reports serialize three ways. The JSON form contains every field needed to
reproduce the run and deliberately omits wall time, so identical configs
produce byte-identical files no matter how many workers ran. The CSV form
is one header plus one row per statistic. The text form is for reading.
"""
from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from operator import attrgetter

from .dataio import inject_uniform_covariates, load_csv
from .datamodel import Dataset, ModelSpec
from .datasets import FINNEY_DEPENDENT, finney
from .errors import ConfigError, NumericalError
from .fitting import fit
from .montecarlo import PValueEstimate, SimulationPlan, estimate_pvalues
from .statistics import StatisticKind, _kinds, parse_statistics

DEFAULT_NUM_SIMULATIONS = 100_000

# each config key's JSON type and the ExperimentConfig field it sets
_CONFIG_KEYS = {
    "dataset": (str, "dataset_source"),
    "dependent": (str, "dependent"),
    "tested": (list, "tested_variables"),
    "full": (list, "full_variables"),
    "inject_uniform": (int, "inject_uniform"),
    "inject_seed": (int, "inject_seed"),
    "statistics": (list, "statistics"),
    "num_simulations": (int, "num_simulations"),
    "master_seed": (int, "master_seed"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    dataset_source: str
    dependent: str
    tested_variables: tuple[str, ...]
    full_variables: tuple[str, ...]
    statistics: tuple[StatisticKind, ...]
    num_simulations: int = DEFAULT_NUM_SIMULATIONS
    master_seed: int = 0
    inject_uniform: int = 0
    inject_seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "tested_variables", tuple(self.tested_variables))
        object.__setattr__(self, "full_variables", tuple(self.full_variables))
        object.__setattr__(self, "statistics", _kinds(self.statistics))
        # an empty full list means "every covariate column"; nesting is then
        # settled when the dataset is loaded and names resolve
        if self.full_variables:
            missing = set(self.tested_variables) - set(self.full_variables)
            if missing:
                raise ConfigError(
                    f"tested variable {sorted(missing)[0]!r} is not in the full model"
                )
        if self.dependent in self.full_variables or self.dependent in self.tested_variables:
            raise ConfigError(
                f"dependent {self.dependent!r} cannot also be a covariate"
            )
        if len(set(self.full_variables)) != len(self.full_variables):
            raise ConfigError("full model lists a variable twice")
        if len(set(self.tested_variables)) != len(self.tested_variables):
            raise ConfigError("tested model lists a variable twice")
        if self.num_simulations < 1:
            raise ConfigError("num_simulations must be at least 1")
        if self.inject_uniform < 0:
            raise ConfigError("inject_uniform cannot be negative")
        if self.inject_uniform > 0 and self.inject_seed is None:
            raise ConfigError("inject_seed is required when injecting covariates")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Build a config from a flat key-value document.

        Unknown keys are rejected rather than ignored; a typo in a config
        file must not silently fall back to a default.
        """
        if not isinstance(doc, dict):
            raise ConfigError(f"config root must be an object, got {type(doc).__name__}")
        unknown = set(doc) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")
        for key in ("dataset", "dependent", "statistics"):
            if key not in doc:
                raise ConfigError(f"config is missing required key {key!r}")
        # an absent tested or full list is an empty one
        kw = {"tested_variables": (), "full_variables": ()}
        for key, (want, name) in _CONFIG_KEYS.items():
            if key not in doc:
                continue
            value = doc[key]
            # bool is a subclass of int, so true would otherwise count as 1
            if isinstance(value, bool) or not isinstance(value, want):
                raise ConfigError(f"config key {key!r} must be a {want.__name__}")
            if want is list and not all(isinstance(v, str) for v in value):
                raise ConfigError(f"config key {key!r} must be a list of strings")
            kw[name] = value
        kw["statistics"] = parse_statistics(doc["statistics"])
        return cls(**kw)


def read_config_doc(path) -> dict:
    """Read a config file's JSON object; every way the file can be unusable
    (unreadable, not UTF-8, not JSON, not an object) is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be a JSON object, got {type(doc).__name__}")
    return doc


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(read_config_doc(path))


@dataclass(frozen=True)
class Report:
    dataset_id: str
    dependent: str
    n: int
    l: int
    m: int
    num_simulations: int
    master_seed: int
    inject_uniform: int
    inject_seed: int | None
    estimates: tuple[PValueEstimate, ...]
    wall_time_seconds: float = field(compare=False, default=0.0)


def _resolve_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.dataset_source == "finney":
        if cfg.dependent != FINNEY_DEPENDENT:
            raise ConfigError(
                f"the built-in dataset's dependent column is {FINNEY_DEPENDENT!r}"
            )
        d = finney()
    else:
        d = load_csv(cfg.dataset_source, cfg.dependent)
    if cfg.inject_uniform > 0:
        d = inject_uniform_covariates(d, cfg.inject_uniform, cfg.inject_seed)
    return d


def build_plan(cfg: ExperimentConfig) -> SimulationPlan:
    """Resolve names and reduce the dataset to the full model's columns."""
    d = _resolve_dataset(cfg)
    if not cfg.full_variables:
        full_names = d.names
    else:
        full_names = cfg.full_variables
    cols = [d.column(name) for name in full_names]
    reduced = Dataset(d.y, d.x[:, cols], full_names)
    tested = ModelSpec(tuple(reduced.column(name) for name in cfg.tested_variables))
    return SimulationPlan(
        dataset=reduced,
        tested=tested,
        statistics=cfg.statistics,
        num_simulations=cfg.num_simulations,
        master_seed=cfg.master_seed,
    )


def run_experiment(cfg: ExperimentConfig, workers: int = 1, progress=None) -> Report:
    """Run the configured experiment and collect a Report.

    The observed-data fits must converge: every reported P-value is
    conditioned on the fitted means being the actual maximum-likelihood
    means, so a non-converged observed fit is an error here (simulated
    refits, by contrast, are always used as-is).
    """
    plan = build_plan(cfg)
    t0 = time.monotonic()
    for label, spec in (("tested", plan.tested), ("full", plan.full)):
        f = fit(plan.dataset, spec, plan.fit_config)
        if not f.converged:
            raise NumericalError(
                f"the {label} model did not converge on the observed data "
                f"({f.iterations} iterations); the test is not defined"
            )
    estimates = tuple(estimate_pvalues(plan, workers=workers, progress=progress))
    wall = time.monotonic() - t0
    return Report(
        dataset_id=cfg.dataset_source,
        dependent=cfg.dependent,
        n=plan.dataset.n,
        l=plan.tested.l,
        m=plan.full.l,
        num_simulations=cfg.num_simulations,
        master_seed=cfg.master_seed,
        inject_uniform=cfg.inject_uniform,
        inject_seed=cfg.inject_seed,
        estimates=estimates,
        wall_time_seconds=wall,
    )


# ---------------------------------------------------------------------------
# report emission


def _bound_text(e: PValueEstimate) -> str:
    return f"<= {e.p_upper_bound!r}"


def emit_text(r: Report) -> bytes:
    lines = []
    lines.append(
        f"dataset: {r.dataset_id}   dependent: {r.dependent}   "
        f"n={r.n}  l={r.l}  m={r.m}"
    )
    seed_bits = f"simulations: {r.num_simulations}   master_seed: {r.master_seed}"
    if r.inject_uniform > 0:
        seed_bits += f"   injected: {r.inject_uniform} (seed {r.inject_seed})"
    lines.append(seed_bits)
    lines.append(f"wall time: {r.wall_time_seconds:.1f} s")
    lines.append("")
    head = f"{'statistic':<18} {'observed':>12} {'exceed':>9} {'p':>12} {'std.err':>10}"
    lines.append(head)
    lines.append("-" * len(head))
    for e in r.estimates:
        p_txt = _bound_text(e) if e.exceed_count == 0 else f"{e.p_hat:.6f}"
        lines.append(
            f"{e.statistic.label:<18} {e.observed_value:>12.6f} "
            f"{e.exceed_count:>9d} {p_txt:>12} {e.std_error:>10.2e}"
        )
    lines.append("")
    return "\n".join(lines).encode("utf-8")


# each file field of a record and the attribute it reads, in file order;
# these two tables drive the JSON, the CSV and the JSON reader
_REPORT_FIELDS = {
    "dataset": "dataset_id",
    **{name: name for name in ("dependent", "n", "l", "m", "num_simulations",
                               "master_seed", "inject_uniform", "inject_seed")},
}
_ESTIMATE_FIELDS = {
    "statistic": "statistic.label",
    **{name: name for name in ("observed_value", "exceed_count", "num_simulations",
                               "p_hat", "std_error", "p_upper_bound")},
}
_CSV_COLUMNS = tuple(dict.fromkeys([*_ESTIMATE_FIELDS, *_REPORT_FIELDS]))


def _fields(record, table) -> dict:
    """record's fields under their file names, in file order."""
    return {name: attrgetter(attr)(record) for name, attr in table.items()}


def emit_csv(r: Report) -> bytes:
    """One row per estimate, the estimate's num_simulations filling the
    single column of that name. csv writes a float as its repr, which
    round-trips, and None as an empty field."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, _CSV_COLUMNS)
    writer.writeheader()
    head = _fields(r, _REPORT_FIELDS)
    writer.writerows({**head, **_fields(e, _ESTIMATE_FIELDS)} for e in r.estimates)
    return buf.getvalue().encode("utf-8")


def emit_json(r: Report) -> bytes:
    doc = {**_fields(r, _REPORT_FIELDS),
           "statistics": [_fields(e, _ESTIMATE_FIELDS) for e in r.estimates]}
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def report_from_json(data: bytes) -> Report:
    """Rebuild a Report from emit_json output. Wall time is not stored in
    JSON, so the rebuilt report carries 0.0 there; equality ignores it.
    The derived estimate fields (p_hat, std_error, p_upper_bound) are
    recomputed from the counts."""
    doc = json.loads(data.decode("utf-8"))
    estimates = tuple(
        PValueEstimate(
            statistic=StatisticKind.parse(row["statistic"]),
            observed_value=row["observed_value"],
            exceed_count=row["exceed_count"],
            num_simulations=row["num_simulations"],
        )
        for row in doc["statistics"]
    )
    return Report(estimates=estimates,
                  **{attr: doc[name] for name, attr in _REPORT_FIELDS.items()})


_EMITTERS = {"text": emit_text, "csv": emit_csv, "json": emit_json}


def emit_report(r: Report, fmt: str) -> bytes:
    try:
        emitter = _EMITTERS[fmt]
    except KeyError:
        raise ConfigError(
            f"unknown report format {fmt!r}; choose from {sorted(_EMITTERS)}"
        ) from None
    return emitter(r)
