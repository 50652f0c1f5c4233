"""The comparison of ``tools/expr_timing.py --against``, on stubbed child
runs: the tool is loaded by path, and its ``child`` returns small result
objects in place of a run of the tool in a child interpreter."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_timing_tool():
    spec = importlib.util.spec_from_file_location("expr_timing", ROOT / "tools" / "expr_timing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(warm_ms: float, **extra) -> dict:
    """What one child run prints, with one reading of 0 ms."""
    return {"counts": {"PII.y0": [[3, 4], [5, 6], [7, 8]]}, "numbered": 5.0,
            "binds": 8.6, "frobenius_lines": 61.8,
            "times": {"report (warm)": [warm_ms, warm_ms + 1], "report: idle": [0.0, 0.0],
                      **extra}}


def test_compare_runs_through_a_zero_reading(monkeypatch, capsys):
    tool = _load_timing_tool()
    this, other = ROOT / "this", ROOT / "other"
    results = {this: _result(2.0, **{"only here": [1.0]}), other: _result(2.5)}
    calls = []
    monkeypatch.setattr(tool, "child", lambda root: calls.append(root) or results[root])
    tool.compare(this, other)
    assert calls == [other, this, this, other, other, this]
    rows = {line.split("  ")[0]: line.split() for line in capsys.readouterr().out.splitlines()}
    # The change of each pair is 2.0 / 2.5 - 1; a reading whose base is 0
    # has none, and a reading the other checkout does not take is left out.
    assert rows["report (warm)"][-2:] == ["-20.0%", "-20.0%..-20.0%"]
    assert rows["report: idle"][-2:] == ["n/a", "n/a"]
    assert "only here" not in rows
