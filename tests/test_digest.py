"""The pinned output digest of ``tools/output_digest.py``.

The tool makes a fixed set of in-process CLI runs and prints one sha256
over their (argv, exit code, stdout, stderr).  Here the same runs are made
in the suite's process, with the tool and ``bench/workloads.py`` (which
gives the param-sweep grid) loaded by path, and their digest must be the
pinned one.  A change that moves an output byte updates ``PINNED`` and
records in ``CHANGES.md`` the table of ``python tools/output_digest.py
--compare <parent checkout>``.  A digest that differs here but not from
the standalone tool means earlier tests left state behind that reaches the
reports' bytes.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PINNED = "dda170427669709e0b6aed31bca83460fdf4979a1bc29508de58b221a707f6f5"


def _load(monkeypatch, path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Registered first: dataclasses look their module up while it loads.
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_output_digest_is_pinned(monkeypatch):
    tool = _load(monkeypatch, ROOT / "tools" / "output_digest.py", "output_digest")
    # The tool's runs() imports the bench module by its plain name.
    _load(monkeypatch, ROOT / "bench" / "workloads.py", "workloads")
    results = [tool.outcome(argv) for argv in tool.runs()]
    assert tool.digest(results) == PINNED
