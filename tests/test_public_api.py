import ast
import importlib
from pathlib import Path

import pytest

MODULES = ["catalog", "cli", "expr", "reduction", "scalarize", "targets", "verify"]
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"fuchsreduce.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    ns: dict = {}
    exec(f"from fuchsreduce.{module} import *", ns)
    assert set(mod.__all__) <= ns.keys()


def _names_read_in_the_package() -> set[str]:
    """Every name the package's modules, ``__init__`` aside, read: a
    loaded name, a loaded attribute or an imported name.  A docstring or
    an ``__all__`` list reads nothing."""
    read = set()
    for path in (ROOT / "src" / "fuchsreduce").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                read.update(alias.name.rpartition(".")[2] for alias in node.names)
    return read


def _traced_functions() -> set[tuple[str, str]]:
    """(module, function) of each module function the bench tracer wraps
    (``bench/tracing.py``'s ``LAYER_FUNCTIONS``)."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and node.target.id == "LAYER_FUNCTIONS":
            return {(owner, fn) for _, owner, fn in ast.literal_eval(node.value)}
    raise AssertionError("bench/tracing.py defines no LAYER_FUNCTIONS")


def test_every_exported_name_is_read_in_the_package():
    # No public API that nothing uses: each exported name is read by some
    # module of the package, or is a function the bench tracer wraps.
    read, traced = _names_read_in_the_package(), _traced_functions()
    unread = [f"{module}.{name}" for module in MODULES
              for name in importlib.import_module(f"fuchsreduce.{module}").__all__
              if name not in read and (module, name) not in traced]
    assert unread == []
