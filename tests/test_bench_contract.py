"""The package surface the benchmark uses must exist in the package.

`bench/spans.py` swaps the functions it lists in TRACED for wrappers and
reads each chunk's outcome matrix from a fixed positional argument. A
rename or deletion would leave the benchmark tracing nothing, or reading
the wrong argument, without failing a single call, so the names are
checked here. `bench/child.py` and `bench/make_references.py` call public
names of the package with fixed arguments and read the plan's iteration
cap; a removed name or argument would fail every benchmark call, so those
calls are checked here too. The files are read by path and never edited.
"""
import ast
import importlib
import inspect
from pathlib import Path

import logitgof

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"
CALLERS = ("child.py", "make_references.py")


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


def test_chunk_bounds_are_passed_positionally():
    # the tracer reads a chunk's rows from args[lo:hi + 1] of these calls,
    # so a keyword start or stop would make every traced bench call fail
    fns = {name: getattr(importlib.import_module(modname), name)
           for modname, names in TRACED.items() for name in names}
    sources = spans_constant("_CHUNK_SOURCES")
    for name, (lo, hi) in sources.items():
        params = list(inspect.signature(fns[name]).parameters)
        assert (params[lo], params[hi]) == ("start", "stop"), name
    calls = {name: 0 for name in sources}
    for path in sorted((BENCH.parent / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in sources:
                calls[name] += 1
                hi = sources[name][1]
                assert len(node.args) > hi and not node.keywords, f"{path.name}:{node.lineno}"
                assert not any(isinstance(a, ast.Starred) for a in node.args[:hi + 1])
    assert all(calls.values()), calls


def _is_package(node):
    """node is the name `logitgof` or the attribute `self.lg`, which
    bench/child.py binds to the package."""
    if isinstance(node, ast.Name):
        return node.id == "logitgof"
    return (isinstance(node, ast.Attribute) and node.attr == "lg"
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _package_uses():
    """Every (file, node) in the callers where a package attribute is read,
    dunders such as __file__ aside, and every call of one."""
    uses, calls = [], []
    for name in CALLERS:
        tree = ast.parse((BENCH / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and _is_package(node.value)
                    and not node.attr.startswith("__")):
                uses.append((name, node))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and _is_package(node.func.value):
                calls.append((name, node))
    return uses, calls


def test_every_package_name_the_bench_uses_is_public():
    uses, _ = _package_uses()
    assert {node.attr for _, node in uses} >= {"exact_pvalues", "fit", "run_experiment"}
    for name, node in uses:
        assert node.attr in logitgof.__all__, f"{name}:{node.lineno} logitgof.{node.attr}"
    for name in CALLERS:
        tree = ast.parse((BENCH / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("logitgof."):
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(mod, alias.name), f"{name}:{node.lineno} {alias.name}"


def test_every_package_call_binds():
    _, calls = _package_uses()
    positional = {}
    for name, node in calls:
        assert not any(isinstance(a, ast.Starred) for a in node.args)
        assert all(k.arg is not None for k in node.keywords)
        fn = getattr(logitgof, node.func.attr)
        sig = inspect.signature(fn)
        try:
            sig.bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            raise AssertionError(f"{name}:{node.lineno} {node.func.attr}: {exc}") from None
        positional.setdefault(node.func.attr, set()).add(len(node.args))
    assert 5 in positional["exact_pvalues"]
    assert positional["fit"] == {3}


def test_the_plan_iteration_cap_is_an_int():
    # bench/child.py counts capped refits against plan.fit_config.max_iterations
    assert type(logitgof.SimulationPlan.fit_config.max_iterations) is int
