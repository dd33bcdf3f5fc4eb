"""Command-line behaviour: config merging and output routing, plus the
exit-code contract.

A few tests go through a real subprocess to pin down the installed entry
point and the process exit status; the rest call main() in-process to keep
the suite quick.
"""
import json
import subprocess
import sys

import pytest

from logitgof import finney
from logitgof.cli import build_parser, main
from logitgof.experiment import _CONFIG_KEYS, _EMITTERS
from logitgof.statistics import _ORDERINGS

RUN = [sys.executable, "-m", "logitgof.cli"]
TINY = ["--dataset", "finney", "--dependent", "response",
        "--statistics", "deviance", "--num-simulations", "200"]


def write_all_ones_csv(tmp_path):
    p = tmp_path / "ones.csv"
    rows = "".join(f"1,{v / 10}\n" for v in range(12))
    p.write_text("y,a\n" + rows, encoding="utf-8")
    return p


class TestSubprocess:
    def test_successful_run(self):
        res = subprocess.run(RUN + TINY, capture_output=True, text=True)
        assert res.returncode == 0
        assert "deviance" in res.stdout
        assert "statistic" in res.stdout

    def test_unknown_flag_exits_1(self):
        res = subprocess.run(RUN + TINY + ["--frobnicate"], capture_output=True, text=True)
        assert res.returncode == 1
        assert "error" in res.stderr

    def test_missing_data_file_exits_2(self, tmp_path):
        res = subprocess.run(
            RUN + ["--dataset", str(tmp_path / "absent.csv"), "--dependent", "y",
                   "--statistics", "deviance", "--num-simulations", "5"],
            capture_output=True, text=True,
        )
        assert res.returncode == 2
        assert "no such file" in res.stderr

    def test_non_utf8_csv_exits_2(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes("y,caf\u00e9\n1,0.5\n0,0.7\n".encode("latin-1"))
        res = subprocess.run(
            RUN + ["--dataset", str(p), "--dependent", "y",
                   "--statistics", "deviance", "--num-simulations", "5"],
            capture_output=True, text=True,
        )
        assert res.returncode == 2
        assert "not UTF-8" in res.stderr
        assert "Traceback" not in res.stderr

    def test_degenerate_fit_exits_3(self, tmp_path):
        p = write_all_ones_csv(tmp_path)
        res = subprocess.run(
            RUN + ["--dataset", str(p), "--dependent", "y",
                   "--statistics", "deviance", "--num-simulations", "5"],
            capture_output=True, text=True,
        )
        assert res.returncode == 3
        assert "did not converge" in res.stderr


class TestInProcess:
    def test_json_format_parses(self, capsysbinary):
        assert main(TINY + ["--format", "json", "--master-seed", "3"]) == 0
        doc = json.loads(capsysbinary.readouterr().out)
        assert doc["dataset"] == "finney"
        assert doc["num_simulations"] == 200
        assert doc["statistics"][0]["statistic"] == "deviance"
        assert 0.0 <= doc["statistics"][0]["p_hat"] <= 1.0

    def test_output_flag_writes_the_file(self, tmp_path, capsysbinary):
        out = tmp_path / "report.csv"
        code = main(TINY + ["--format", "csv", "--output", str(out)])
        assert code == 0
        assert capsysbinary.readouterr().out == b""
        assert out.read_text(encoding="utf-8").startswith("statistic,")

    def test_flags_override_config_keys(self, tmp_path, capsysbinary):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "dataset": "finney",
            "dependent": "response",
            "statistics": ["deviance"],
            "num_simulations": 50,
            "master_seed": 1,
        }), encoding="utf-8")
        code = main(["--config", str(cfg), "--num-simulations", "25",
                     "--format", "json"])
        assert code == 0
        doc = json.loads(capsysbinary.readouterr().out)
        assert doc["num_simulations"] == 25
        assert doc["master_seed"] == 1

    def test_unknown_statistic_label(self, capsysbinary):
        code = main(["--dataset", "finney", "--dependent", "response",
                     "--statistics", "anderson", "--num-simulations", "5"])
        assert code == 1
        assert b"anderson" in capsysbinary.readouterr().err

    def test_missing_required_keys(self, capsysbinary):
        code = main(["--statistics", "deviance"])
        assert code == 1
        assert b"dataset" in capsysbinary.readouterr().err

    def test_non_binary_dependent_exits_2(self, tmp_path, capsysbinary):
        p = tmp_path / "bad.csv"
        p.write_text("y,a\n1,0.5\n2,0.7\n", encoding="utf-8")
        code = main(["--dataset", str(p), "--dependent", "y",
                     "--statistics", "deviance", "--num-simulations", "5"])
        assert code == 2
        assert b"not 0 or 1" in capsysbinary.readouterr().err

    def test_dependent_named_twice_exits_2(self, tmp_path, capsysbinary):
        p = tmp_path / "twice.csv"
        p.write_text("y,a,y\n1,0.5,1\n0,0.7,0\n", encoding="utf-8")
        code = main(["--dataset", str(p), "--dependent", "y",
                     "--statistics", "deviance", "--num-simulations", "5"])
        assert code == 2
        assert b"dependent column 'y' twice" in capsysbinary.readouterr().err

    def test_non_finite_covariate_exits_2(self, tmp_path, capsysbinary):
        p = tmp_path / "nan.csv"
        p.write_text("y,a,b\n1,1.0,2.0\n0,nan,inf\n", encoding="utf-8")
        code = main(["--dataset", str(p), "--dependent", "y",
                     "--statistics", "deviance", "--num-simulations", "5"])
        assert code == 2
        assert capsysbinary.readouterr().err == (
            b"data error: non-finite covariate at row 2, column 'a'\n"
        )

    def test_worker_count_does_not_change_json_bytes(self, capsysbinary):
        args = TINY + ["--format", "json", "--master-seed", "9"]
        assert main(args + ["--workers", "1"]) == 0
        serial = capsysbinary.readouterr().out
        assert main(args + ["--workers", "3"]) == 0
        threaded = capsysbinary.readouterr().out
        assert serial == threaded

    def test_progress_goes_to_stderr(self, capsysbinary):
        assert main(TINY + ["--progress"]) == 0
        err = capsysbinary.readouterr().err
        assert b"200/200 simulations" in err

    def test_boolean_simulation_count_exits_1(self, tmp_path, capsysbinary):
        cfg = tmp_path / "bool.json"
        cfg.write_text(json.dumps({"dataset": "finney", "dependent": "response",
                                   "statistics": ["deviance"],
                                   "num_simulations": True}), encoding="utf-8")
        assert main(["--config", str(cfg)]) == 1
        assert b"'num_simulations' must be a int" in capsysbinary.readouterr().err

    def test_bad_config_file(self, tmp_path, capsysbinary):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{oops", encoding="utf-8")
        assert main(["--config", str(cfg)]) == 1
        assert b"not valid JSON" in capsysbinary.readouterr().err

    def test_non_utf8_config_exits_1(self, tmp_path, capsysbinary):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes('{"dataset": "finney", "dependent": "r\u00e9ponse"}'.encode("latin-1"))
        assert main(["--config", str(cfg)]) == 1
        assert b"not UTF-8" in capsysbinary.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_covariates_exit_3(self, tmp_path, capsysbinary):
        # Finney's covariates times 1e155: the products x_i * x_j overflow,
        # so the normal equations are not finite and the pseudoinverse
        # fallback cannot solve them either
        d = finney()
        p = tmp_path / "huge.csv"
        rows = "".join(f"{y},{a * 1e155!r},{b * 1e155!r}\n" for y, (a, b) in zip(d.y, d.x.tolist()))
        p.write_text("y,volume,rate\n" + rows, encoding="utf-8")
        code = main(["--dataset", str(p), "--dependent", "y",
                     "--statistics", "deviance", "--num-simulations", "5"])
        assert code == 3
        err = capsysbinary.readouterr().err
        assert b"could not be solved" in err
        assert b"Traceback" not in err

    def test_directory_as_dataset_exits_2(self, tmp_path, capsysbinary):
        code = main(["--dataset", str(tmp_path), "--dependent", "y",
                     "--statistics", "deviance", "--num-simulations", "5"])
        assert code == 2
        assert b"cannot read" in capsysbinary.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("statistics", [1]),
        ("tested", [["volume"]]),
        ("full", [1]),
    ])
    def test_list_entries_must_be_strings(self, tmp_path, capsysbinary, key, value):
        doc = {"dataset": "finney", "dependent": "response",
               "statistics": ["deviance"], "num_simulations": 5}
        doc[key] = value
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--config", str(cfg)]) == 1
        err = capsysbinary.readouterr().err
        assert f"config key {key!r} must be a list of strings".encode() in err
        assert b"Traceback" not in err

    def test_injection_seed_outside_the_key_range_exits_1(self, capsysbinary):
        code = main(TINY + ["--full", "volume,rate,u1",
                            "--inject-uniform", "1", "--inject-seed", "-3"])
        assert code == 1
        err = capsysbinary.readouterr().err
        assert b"inject_seed must lie in [0, 2**128)" in err
        assert b"Traceback" not in err


# flags that steer a run but set no config key
RUN_FLAG_DESTS = {"help", "config", "workers", "format", "output", "progress"}


def test_config_keys_and_flags_match_one_to_one():
    # flags reach the config by dest, so a dest that drifted from its key
    # would drop the flag silently
    dests = [action.dest for action in build_parser()._actions]
    for key in _CONFIG_KEYS:
        assert dests.count(key) == 1, key
    assert set(dests) - set(_CONFIG_KEYS) == RUN_FLAG_DESTS


def test_help_lists_every_statistic_family_and_ordering(monkeypatch):
    # the help is read from the statistic table, so a family added there
    # shows up too; a wide terminal keeps the help on one line
    monkeypatch.setenv("COLUMNS", "10000")
    monkeypatch.setitem(_ORDERINGS, "brier", (None,))
    text = build_parser().format_help()
    labels = text.split("comma-separated statistic labels: ")[1].split(".\n")[0]
    listed = {}
    for clause in labels.split("; "):
        form, _, orderings = clause.partition(" with <o> one of ")
        listed[form.split(":")[0]] = set(orderings.split(", ")) - {""}
    assert listed == {family: {o.value for o in accepted if o}
                      for family, accepted in _ORDERINGS.items()}


def test_format_choices_are_the_emitters(monkeypatch):
    # --format reads the emitter table, so an emitter added there is offered
    monkeypatch.setitem(_EMITTERS, "tsv", lambda r: b"")
    action = next(a for a in build_parser()._actions if a.dest == "format")
    assert action.choices == tuple(_EMITTERS)
    assert "tsv" in action.choices
