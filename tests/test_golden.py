"""The CLI's output byte for byte: `verify --all --with-negative --json` at
seeds 42 and 7, and three `sample` CSVs.

The files under ``tests/data/`` are the CLI's output for those arguments.  A
change that is meant to keep every report and sample the same must keep
these bytes; a change that deliberately moves a number regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md which numbers moved and why.
"""

import io
import sys
from pathlib import Path

import pytest

from fuchsreduce import cli

DATA = Path(__file__).resolve().parent / "data"
SEEDS = (42, 7)
# (entry, --count, --seed) of the pinned sample CSVs.
SAMPLES = (("PII.y0", 16, 42), ("PVdeg.kitaev_sqrt", 16, 7), ("PIV.y_m2t", 32, 42))


def _golden(seed: int) -> Path:
    return DATA / f"verify_all_negative_seed{seed}.json"


def _sample_golden(entry_id: str, count: int, seed: int) -> Path:
    return DATA / f"sample_{entry_id}_count{count}_seed{seed}.csv"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    rc = cli.main(argv, out=out, err=err)
    return rc, out.getvalue(), err.getvalue()


def _verify_all(seed: int) -> tuple[int, str, str]:
    return _run(["verify", "--all", "--with-negative", "--json", "--seed", str(seed)])


def _sample(entry_id: str, count: int, seed: int) -> tuple[int, str, str]:
    return _run(["sample", entry_id, "--count", str(count), "--seed", str(seed)])


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_all_with_negative_matches_golden(seed):
    rc, out, err = _verify_all(seed)
    assert (rc, err) == (0, "")
    assert out == _golden(seed).read_text()


@pytest.mark.parametrize("entry_id, count, seed", SAMPLES)
def test_sample_matches_golden(entry_id, count, seed):
    rc, out, err = _sample(entry_id, count, seed)
    assert (rc, err) == (0, "")
    assert out == _sample_golden(entry_id, count, seed).read_text()


if __name__ == "__main__":
    runs = [(_golden(seed), _verify_all(seed)) for seed in SEEDS]
    runs += [(_sample_golden(*args), _sample(*args)) for args in SAMPLES]
    for path, (rc, out, err) in runs:
        if (rc, err) != (0, ""):
            sys.exit(f"{path.name}: exit {rc}: {err}")
        path.write_text(out)
        print(f"wrote {path}")
