"""`verify --all --with-negative --json` at seeds 42 and 7, byte for byte.

The files under ``tests/data/`` are the CLI's output at those seeds.  A
change that is meant to keep every report the same must keep these bytes;
a change that deliberately moves a number regenerates them with

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


def _golden(seed: int) -> Path:
    return DATA / f"verify_all_negative_seed{seed}.json"


def _verify_all(seed: int) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    rc = cli.main(["verify", "--all", "--with-negative", "--json", "--seed", str(seed)],
                  out=out, err=err)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_all_with_negative_matches_golden(seed):
    rc, out, err = _verify_all(seed)
    assert (rc, err) == (0, "")
    assert out == _golden(seed).read_text()


if __name__ == "__main__":
    for seed in SEEDS:
        rc, out, err = _verify_all(seed)
        if (rc, err) != (0, ""):
            sys.exit(f"seed {seed}: exit {rc}: {err}")
        _golden(seed).write_text(out)
        print(f"wrote {_golden(seed)}")
