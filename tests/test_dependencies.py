"""The package runs on numpy alone.

scipy stays a test and bench dependency: the reference loops and the
acceptance tests use it, and the intercept-only mean is checked against its
expit here.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    deps = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[\w.-]+", d).group().lower().replace("-", "_")
                for d in deps["dependencies"]}
    imported = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"logitgof"}
    # and nothing is declared that the package does not import
    assert third_party == declared == {"numpy"}


_NO_SCIPY = """
import sys

from logitgof import Dataset, ExperimentConfig, ModelSpec, exact_pvalues, finney
from logitgof import parse_statistics, run_experiment
from logitgof.cli import build_parser
from logitgof.experiment import read_config_doc

doc = read_config_doc(sys.argv[1])
doc["num_simulations"] = 500
run_experiment(ExperimentConfig.from_dict(doc), workers=2)
d = finney()
exact_pvalues(Dataset(d.y[:10], d.x[:10]), ModelSpec(), ModelSpec((0,)),
              parse_statistics(["deviance", "ks:mu-full", "hl:3:mu-tested"]))
build_parser().format_help()
assert "scipy" not in sys.modules, "logitgof loaded scipy"
"""


def test_a_run_loads_no_scipy():
    # a fresh interpreter: this process has loaded scipy for other tests
    res = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(ROOT / "configs" / "finney_l0_m2.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert res.returncode == 0, res.stderr


def test_intercept_only_mean_matches_clamped_expit_bit_for_bit():
    # one C-library exp per row gives expit's bits; the exponent stops at
    # 709, short of math.exp's overflow, where both means clamp alike
    from scipy.special import expit

    from logitgof.fitting import MU_CLAMP, _intercept_only_mean

    edges = [0.0, -0.0, 23.03, -23.03, 709.0, -709.0, 745.0, -745.0, 800.0, -800.0]
    x = np.concatenate([edges, np.linspace(-40.0, 40.0, 8001),
                        np.random.default_rng(0).normal(scale=10.0, size=20_000)])
    want = np.clip(expit(x), MU_CLAMP, 1 - MU_CLAMP)
    for eta in (x[:, None], np.repeat(x[:, None], 5, axis=1)):
        got = _intercept_only_mean(eta)
        assert got.shape == eta.shape
        assert np.array_equal(got, np.broadcast_to(want[:, None], eta.shape))
