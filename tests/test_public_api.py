import importlib

import pytest


@pytest.mark.parametrize("module", ["catalog", "cli", "expr", "reduction",
                                    "scalarize", "targets", "verify"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"fuchsreduce.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    ns: dict = {}
    exec(f"from fuchsreduce.{module} import *", ns)
    assert set(mod.__all__) <= ns.keys()
