"""The names the benchmark's tracer patches must exist in the package.

`bench/spans.py` swaps the functions it lists in TRACED for wrappers and
reads each chunk's outcome matrix from a fixed positional argument. A
rename or deletion would leave the benchmark tracing nothing, or reading
the wrong argument, without failing a single call, so the names are
checked here. The file is read by path and never edited.
"""
import ast
import importlib
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def spans_constant(name):
    """The literal value assigned to a module-level name in bench/spans.py."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"bench/spans.py assigns no {name}")


TRACED = spans_constant("TRACED")


def test_every_traced_name_exists():
    for modname, names in TRACED.items():
        mod = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(mod, name, None)), f"{modname}.{name}"


def test_outcomes_sit_at_the_traced_argument():
    fns = {name: getattr(importlib.import_module(modname), name)
           for modname, names in TRACED.items() for name in names}
    for name, index in spans_constant("_OUTCOME_ARG").items():
        params = list(inspect.signature(fns[name]).parameters)
        assert params[index] == "Y", f"{name} takes {params[index]!r} at {index}"
