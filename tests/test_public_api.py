"""The package's __all__ and its namespace list the same public names."""
import types

import logitgof


def test_all_matches_the_namespace():
    for name in logitgof.__all__:
        assert hasattr(logitgof, name), name
    public = {
        name for name, value in vars(logitgof).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(logitgof.__all__) - {"__version__"}
    assert len(logitgof.__all__) == len(set(logitgof.__all__))
