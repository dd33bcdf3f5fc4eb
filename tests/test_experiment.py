"""Config parsing, plan building, experiment runs, and report emission."""
import csv as csvmod
import io
import json
import os

import numpy as np
import pytest

import logitgof.montecarlo
from logitgof.dataio import export_csv
from logitgof.datasets import finney
from logitgof.errors import ConfigError, NumericalError
from logitgof.experiment import (
    ExperimentConfig,
    Report,
    build_plan,
    emit_csv,
    emit_json,
    emit_report,
    emit_text,
    load_config,
    report_from_json,
    run_experiment,
)
from logitgof.montecarlo import PValueEstimate
from logitgof.statistics import StatisticKind


def base_doc(**over):
    doc = {
        "dataset": "finney",
        "dependent": "response",
        "tested": ["volume", "rate"],
        "full": ["volume", "rate"],
        "statistics": ["ks:mu-full"],
        "num_simulations": 400,
        "master_seed": 7,
    }
    doc.update(over)
    return doc


class TestFromDict:
    def test_valid_document(self):
        cfg = ExperimentConfig.from_dict(base_doc())
        assert cfg.dataset_source == "finney"
        assert cfg.tested_variables == ("volume", "rate")
        assert cfg.full_variables == ("volume", "rate")
        assert cfg.statistics == (StatisticKind.parse("ks:mu-full"),)
        assert cfg.num_simulations == 400
        assert cfg.master_seed == 7
        assert cfg.inject_uniform == 0

    def test_root_must_be_an_object(self):
        with pytest.raises(ConfigError, match="must be an object"):
            ExperimentConfig.from_dict(["finney"])

    def test_unknown_key_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'num_sims'"):
            ExperimentConfig.from_dict(base_doc(num_sims=10))

    @pytest.mark.parametrize("key", ["dataset", "dependent", "statistics"])
    def test_required_keys(self, key):
        doc = base_doc()
        del doc[key]
        with pytest.raises(ConfigError, match=f"missing required key {key!r}"):
            ExperimentConfig.from_dict(doc)

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="'num_simulations' must be a int"):
            ExperimentConfig.from_dict(base_doc(num_simulations="many"))
        with pytest.raises(ConfigError, match="'tested' must be a list"):
            ExperimentConfig.from_dict(base_doc(tested="volume"))
        # a direct construction goes through the same integer rule: "10"
        # used to die in a TypeError and master_seed "1" to construct
        kinds = (StatisticKind("deviance"),)
        for name, value in [("num_simulations", "10"), ("num_simulations", 2.5),
                            ("num_simulations", True), ("master_seed", "1"),
                            ("inject_uniform", "1")]:
            with pytest.raises(ConfigError, match=f"^{name} must be an integer, got {value!r}$"):
                ExperimentConfig("finney", "response", (), (), kinds, **{name: value})

    def test_direct_construction_takes_names_as_strings(self, tmp_path):
        kinds = (StatisticKind("deviance"),)
        # an open descriptor used to be read, and closed, as the dataset
        path = tmp_path / "finney.csv"
        export_csv(finney(), "response", path)
        fd = os.open(path, os.O_RDONLY)
        try:
            with pytest.raises(ConfigError, match=f"^dataset_source must be a path string or 'finney', got {fd}$"):
                ExperimentConfig(fd, "response", (), ("volume", "rate"), kinds)
            os.fstat(fd)  # still open
        finally:
            os.close(fd)
        with pytest.raises(ConfigError, match="^dependent must be a string, got 1$"):
            ExperimentConfig("finney", 1, (), (), kinds)
        # a bare string used to be split into one name per character
        with pytest.raises(ConfigError, match="^full_variables must be a sequence of names, not the string 'volume'$"):
            ExperimentConfig("finney", "response", (), "volume", kinds)
        with pytest.raises(ConfigError, match="^tested_variables must be a sequence of names, not the string 'rate'$"):
            ExperimentConfig("finney", "response", "rate", ("volume", "rate"), kinds)

    # a set used to be taken in its iteration order, which follows the
    # string hash seed, and the column order and the result bits with it
    @pytest.mark.parametrize("names", [{"volume", "rate"}, frozenset({"volume"}),
                                       iter(["volume"])], ids=["set", "frozenset", "iterator"])
    @pytest.mark.parametrize("field", ["tested_variables", "full_variables"])
    def test_variable_lists_must_be_lists_or_tuples(self, field, names):
        kw = {"tested_variables": (), "full_variables": ("volume", "rate"), field: names}
        with pytest.raises(ConfigError, match=f"^{field} must be a list or tuple of names, got "):
            ExperimentConfig("finney", "response", statistics=(StatisticKind("deviance"),), **kw)

    @pytest.mark.parametrize(
        "key", ["num_simulations", "master_seed", "inject_uniform", "inject_seed"]
    )
    @pytest.mark.parametrize("value", [True, False])
    def test_booleans_are_not_integers(self, key, value):
        with pytest.raises(ConfigError, match=f"{key!r} must be a int"):
            ExperimentConfig.from_dict(base_doc(**{key: value}))

    def test_tested_must_nest_in_explicit_full(self):
        with pytest.raises(ConfigError, match="'rate' is not in the full model"):
            ExperimentConfig.from_dict(base_doc(full=["volume"]))

    def test_empty_full_defers_nesting(self):
        # with no full list the full model is every column, so any tested
        # name is potentially fine; resolution happens at plan time
        cfg = ExperimentConfig.from_dict(base_doc(full=[]))
        assert cfg.full_variables == ()

    def test_dependent_cannot_be_a_covariate(self):
        with pytest.raises(ConfigError, match="cannot also be a covariate"):
            ExperimentConfig.from_dict(base_doc(tested=["response", "volume"],
                                                full=["response", "volume"]))

    def test_duplicate_variables(self):
        with pytest.raises(ConfigError, match="full model lists a variable twice"):
            ExperimentConfig.from_dict(base_doc(full=["volume", "volume", "rate"]))
        with pytest.raises(ConfigError, match="tested model lists a variable twice"):
            ExperimentConfig.from_dict(base_doc(tested=["volume", "volume"]))

    def test_statistics_must_be_nonempty(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_doc(statistics=[]))

    def test_num_simulations_floor(self):
        with pytest.raises(ConfigError, match="at least 1"):
            ExperimentConfig.from_dict(base_doc(num_simulations=0))

    def test_injection_needs_a_seed(self):
        with pytest.raises(ConfigError, match="inject_seed is required"):
            ExperimentConfig.from_dict(base_doc(inject_uniform=1))

    def test_injection_count_cannot_be_negative(self):
        with pytest.raises(ConfigError, match="^inject_uniform must be at least 0$"):
            ExperimentConfig.from_dict(base_doc(inject_uniform=-1, inject_seed=4))

    # a fractional seed used to be accepted when nothing was injected, and
    # the JSON report recorded it
    @pytest.mark.parametrize("seed", [1.5, "4"])
    @pytest.mark.parametrize("count", [0, 1])
    def test_injection_seed_must_be_an_integer(self, count, seed):
        kinds = (StatisticKind("deviance"),)
        with pytest.raises(ConfigError, match=f"^inject_seed must be an integer, got {seed!r}$"):
            ExperimentConfig("finney", "response", (), (), kinds, inject_uniform=count,
                             inject_seed=seed)
        cfg = ExperimentConfig("finney", "response", (), (), kinds, inject_seed=np.int64(4))
        assert type(cfg.inject_seed) is int


class TestLoadConfig:
    def test_reads_a_json_file(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps(base_doc()), encoding="utf-8")
        assert load_config(p) == ExperimentConfig.from_dict(base_doc())

    def test_bad_json_is_a_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(p)

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.json")

    def test_directory_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path)

    def test_non_utf8_bytes_are_a_config_error(self, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_bytes(json.dumps(base_doc(dependent="r\u00e9ponse"), ensure_ascii=False).encode("latin-1"))
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_config(p)

    def test_non_object_root_is_a_config_error(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON object, got list"):
            load_config(p)


class TestBuildPlan:
    def test_full_list_sets_column_order(self):
        cfg = ExperimentConfig.from_dict(base_doc(full=["rate", "volume"]))
        plan = build_plan(cfg)
        d = finney()
        assert plan.dataset.names == ("rate", "volume")
        assert np.array_equal(plan.dataset.x[:, 0], d.x[:, 1])
        assert np.array_equal(plan.dataset.x[:, 1], d.x[:, 0])
        assert plan.full.included == (0, 1)

    def test_empty_full_takes_every_column(self):
        cfg = ExperimentConfig.from_dict(base_doc(full=[], tested=["rate"]))
        plan = build_plan(cfg)
        assert plan.dataset.names == ("volume", "rate")
        assert plan.tested.included == (1,)

    def test_tested_indices_follow_the_reduced_dataset(self):
        cfg = ExperimentConfig.from_dict(
            base_doc(full=["rate", "volume"], tested=["volume"])
        )
        assert build_plan(cfg).tested.included == (1,)

    def test_unknown_variable(self):
        cfg = ExperimentConfig.from_dict(base_doc(full=["volume", "rate", "pressure"],
                                                  tested=["volume"]))
        with pytest.raises(ConfigError, match="unknown variable 'pressure'"):
            build_plan(cfg)

    def test_unknown_tested_with_default_full(self):
        cfg = ExperimentConfig.from_dict(base_doc(full=[], tested=["pressure"]))
        with pytest.raises(ConfigError, match="unknown variable 'pressure'"):
            build_plan(cfg)

    def test_injected_columns_resolve_by_name(self):
        cfg = ExperimentConfig.from_dict(base_doc(
            full=["volume", "rate", "u1"],
            inject_uniform=1,
            inject_seed=11,
        ))
        plan = build_plan(cfg)
        assert plan.dataset.names == ("volume", "rate", "u1")
        u = plan.dataset.x[:, 2]
        assert np.all((u > 0.0) & (u < 1.0))

    def test_csv_source_matches_builtin(self, tmp_path):
        p = tmp_path / "finney.csv"
        export_csv(finney(), "response", p)
        cfg = ExperimentConfig.from_dict(base_doc(dataset=str(p)))
        plan = build_plan(cfg)
        assert plan.dataset.x.tobytes() == finney().x.tobytes()
        assert np.array_equal(plan.dataset.y, finney().y)

    def test_builtin_dependent_name_is_fixed(self):
        cfg = ExperimentConfig.from_dict(base_doc(dependent="resp",
                                                  tested=[], full=[]))
        with pytest.raises(ConfigError, match="dependent column is 'response'"):
            build_plan(cfg)


class TestRunExperiment:
    def test_small_run_populates_the_report(self):
        cfg = ExperimentConfig.from_dict(
            base_doc(statistics=["ks:mu-full", "deviance"], num_simulations=300)
        )
        r = run_experiment(cfg)
        assert r.dataset_id == "finney"
        assert (r.n, r.l, r.m) == (39, 2, 2)
        assert r.num_simulations == 300
        assert [e.statistic.label for e in r.estimates] == ["ks:mu-full", "deviance"]
        for e in r.estimates:
            assert 0 <= e.exceed_count <= 300
            assert e.num_simulations == 300
        assert r.wall_time_seconds > 0.0

    def test_nonconverged_observed_fit_is_an_error(self, tmp_path):
        p = tmp_path / "ones.csv"
        rows = "".join(f"1,{v / 10}\n" for v in range(12))
        p.write_text("y,a\n" + rows, encoding="utf-8")
        cfg = ExperimentConfig.from_dict({
            "dataset": str(p),
            "dependent": "y",
            "statistics": ["deviance"],
            "num_simulations": 10,
        })
        with pytest.raises(NumericalError, match="did not converge"):
            run_experiment(cfg)

    def test_rerun_is_deterministic_end_to_end(self):
        doc = base_doc(statistics=["ks:mu-full", "pearson-chi2"],
                       full=["volume", "rate", "u1"],
                       inject_uniform=1, inject_seed=21,
                       num_simulations=500)
        a = run_experiment(ExperimentConfig.from_dict(doc))
        b = run_experiment(ExperimentConfig.from_dict(doc))
        assert emit_json(a) == emit_json(b)


# every exceedance count of a seeded Finney l = 0 run. pearson-chi2 counts
# the classes whose intercept-only Pearson value reaches the observed
# 39.000000000000014 by rounding alone (README, Known limitations), so any
# change to the order of the intercept-only fit's arithmetic moves it
FINNEY_L0_COUNTS = {
    "ks:mu-full": 0, "ks:mu-tested": 1668, "ks:residual": 1662, "deviance": 1662,
    "freeman-tukey": 3487, "pearson-chi2": 2277, "euclidean": 1662,
    "hl:3:mu-full": 1, "hl:3:mu-tested": 6539, "hl:5:mu-full": 0, "hl:5:mu-tested": 3892,
}


def test_seeded_finney_l0_report_is_pinned():
    cfg = ExperimentConfig.from_dict(base_doc(
        tested=[], statistics=list(FINNEY_L0_COUNTS), num_simulations=6721, master_seed=2013,
    ))
    r = run_experiment(cfg)
    assert {e.statistic.label: e.exceed_count for e in r.estimates} == FINNEY_L0_COUNTS
    assert r.estimates[5].observed_value == 39.000000000000014


class TestEmission:
    @staticmethod
    def small_report():
        cfg = ExperimentConfig.from_dict(
            base_doc(statistics=["ks:mu-full", "deviance"], num_simulations=250)
        )
        return run_experiment(cfg)

    def test_json_round_trip_recovers_the_report(self):
        r = self.small_report()
        back = report_from_json(emit_json(r))
        assert back == r
        assert back.wall_time_seconds == 0.0

    def test_json_omits_wall_time(self):
        doc = json.loads(emit_json(self.small_report()))
        assert "wall_time" not in json.dumps(doc)

    def test_json_bytes_do_not_depend_on_worker_count(self, monkeypatch):
        # shrink the chunk so several spans exist even at this budget
        monkeypatch.setattr(logitgof.montecarlo, "_chunk_size", lambda n: 97)
        cfg = ExperimentConfig.from_dict(base_doc(num_simulations=600))
        serial = emit_json(run_experiment(cfg, workers=1))
        threaded = emit_json(run_experiment(cfg, workers=4))
        assert serial == threaded

    def test_csv_shape_and_float_fidelity(self):
        r = self.small_report()
        rows = list(csvmod.reader(io.StringIO(emit_csv(r).decode("utf-8"))))
        header, *body = rows
        assert header[:7] == [
            "statistic", "observed_value", "exceed_count", "num_simulations",
            "p_hat", "std_error", "p_upper_bound",
        ]
        assert len(body) == len(r.estimates)
        for row, e in zip(body, r.estimates):
            assert row[0] == e.statistic.label
            assert float(row[1]) == e.observed_value
            assert int(row[2]) == e.exceed_count
            assert float(row[4]) == e.p_hat

    def test_text_renders_a_zero_count_as_a_bound(self):
        est = (
            PValueEstimate(StatisticKind.parse("deviance"), 55.5, 0, 4000),
            PValueEstimate(StatisticKind.parse("ks:mu-full"), 1.25, 40, 4000),
        )
        r = Report(
            dataset_id="finney", dependent="response", n=39, l=2, m=2,
            num_simulations=4000, master_seed=1, inject_uniform=0,
            inject_seed=None, estimates=est, wall_time_seconds=1.5,
        )
        text = emit_text(r).decode("utf-8")
        assert "<= 0.00025" in text
        assert "0.010000" in text
        assert "wall time: 1.5 s" in text

    def test_unknown_format(self):
        with pytest.raises(ConfigError, match="unknown report format 'yaml'"):
            emit_report(self.small_report(), "yaml")


# two hand-built reports and the bytes each emitter gave for them before the
# report fields were tabled once; the bytes are file formats, so they are
# pinned literally
PINNED_REPORTS = {
    "zero-count": Report(
        dataset_id="finney", dependent="response", n=39, l=0, m=2,
        num_simulations=3000, master_seed=11, inject_uniform=0, inject_seed=None,
        estimates=(
            PValueEstimate(StatisticKind.parse("ks:mu-tested"), 2.9230769230769247, 0, 3000),
            PValueEstimate(StatisticKind.parse("deviance"), 29.7723123, 1234, 3000),
        ),
        wall_time_seconds=2.25,
    ),
    "injected": Report(
        dataset_id="data/x.csv", dependent="y", n=12, l=1, m=4,
        num_simulations=700, master_seed=3, inject_uniform=2, inject_seed=5,
        estimates=(PValueEstimate(StatisticKind.parse("hl:3:mu-full"), 0.1, 7, 700),),
        wall_time_seconds=0.04,
    ),
}

_CSV_HEADER = (
    b"statistic,observed_value,exceed_count,num_simulations,p_hat,std_error,"
    b"p_upper_bound,dataset,dependent,n,l,m,master_seed,inject_uniform,inject_seed\r\n"
)
_TEXT_HEAD = (
    b"statistic              observed    exceed            p    std.err\n"
    + b"-" * 65 + b"\n"
)

PINNED_BYTES = {
    ("zero-count", "text"): (
        b"dataset: finney   dependent: response   n=39  l=0  m=2\n"
        b"simulations: 3000   master_seed: 11\n"
        b"wall time: 2.2 s\n\n" + _TEXT_HEAD
        + b"ks:mu-tested           2.923077         0 <= 0.0003333333333333333   0.00e+00\n"
        b"deviance              29.772312      1234     0.411333   8.98e-03\n"
    ),
    ("zero-count", "csv"): _CSV_HEADER + (
        b"ks:mu-tested,2.9230769230769247,0,3000,0.0,0.0,0.0003333333333333333,"
        b"finney,response,39,0,2,11,0,\r\n"
        b"deviance,29.7723123,1234,3000,0.41133333333333333,0.008984026977961539,,"
        b"finney,response,39,0,2,11,0,\r\n"
    ),
    ("zero-count", "json"): (
        b'{\n  "dataset": "finney",\n  "dependent": "response",\n  "n": 39,\n'
        b'  "l": 0,\n  "m": 2,\n  "num_simulations": 3000,\n  "master_seed": 11,\n'
        b'  "inject_uniform": 0,\n  "inject_seed": null,\n  "statistics": [\n'
        b'    {\n      "statistic": "ks:mu-tested",\n'
        b'      "observed_value": 2.9230769230769247,\n      "exceed_count": 0,\n'
        b'      "num_simulations": 3000,\n      "p_hat": 0.0,\n      "std_error": 0.0,\n'
        b'      "p_upper_bound": 0.0003333333333333333\n    },\n'
        b'    {\n      "statistic": "deviance",\n      "observed_value": 29.7723123,\n'
        b'      "exceed_count": 1234,\n      "num_simulations": 3000,\n'
        b'      "p_hat": 0.41133333333333333,\n      "std_error": 0.008984026977961539,\n'
        b'      "p_upper_bound": null\n    }\n  ]\n}\n'
    ),
    ("injected", "text"): (
        b"dataset: data/x.csv   dependent: y   n=12  l=1  m=4\n"
        b"simulations: 700   master_seed: 3   injected: 2 (seed 5)\n"
        b"wall time: 0.0 s\n\n" + _TEXT_HEAD
        + b"hl:3:mu-full           0.100000         7     0.010000   3.76e-03\n"
    ),
    ("injected", "csv"): _CSV_HEADER + (
        b"hl:3:mu-full,0.1,7,700,0.01,0.0037606990231680523,,data/x.csv,y,12,1,4,3,2,5\r\n"
    ),
    ("injected", "json"): (
        b'{\n  "dataset": "data/x.csv",\n  "dependent": "y",\n  "n": 12,\n'
        b'  "l": 1,\n  "m": 4,\n  "num_simulations": 700,\n  "master_seed": 3,\n'
        b'  "inject_uniform": 2,\n  "inject_seed": 5,\n  "statistics": [\n'
        b'    {\n      "statistic": "hl:3:mu-full",\n      "observed_value": 0.1,\n'
        b'      "exceed_count": 7,\n      "num_simulations": 700,\n      "p_hat": 0.01,\n'
        b'      "std_error": 0.0037606990231680523,\n      "p_upper_bound": null\n'
        b'    }\n  ]\n}\n'
    ),
}


@pytest.mark.parametrize("name,fmt", sorted(PINNED_BYTES))
def test_emitted_bytes_are_pinned(name, fmt):
    r = PINNED_REPORTS[name]
    assert emit_report(r, fmt) == PINNED_BYTES[name, fmt]
    if fmt == "json":
        assert report_from_json(PINNED_BYTES[name, fmt]) == r
