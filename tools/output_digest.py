"""Print one sha256 over the outputs of a fixed set of CLI runs.

Two checkouts whose pipeline outputs are byte-identical print the same
digest; a change meant to keep every report, sample and error message as it
was is checked by running this script at the parent commit and at the
change.  Run it from the checkout to digest (it imports that checkout's
``src/`` and ``bench/``):

    python tools/output_digest.py          # the digest
    python tools/output_digest.py --each   # also one line per run

Each run is ``fuchsreduce.cli.main(argv)`` in process; the digest covers
(argv, exit code, stdout, stderr) of every run, in this order:

* ``verify --all --with-negative --json`` at seeds 42, 7 and 1;
* ``verify <id> --param name=value --json`` for the 144 values of the
  param-sweep grid (``bench/workloads.py``, ``sweep_grid(1)``);
* ``sample <id> --count 16`` for 4 entries;
* ``reduce negative.PII_bad_y1``;
* ``verify <id> --box-t=0.7,1.7,-0.2,0.2 --json`` for the 8 positive entries.

A run that raises out of ``main`` is recorded by its exception class and
message in place of the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from fuchsreduce import catalog, cli  # noqa: E402
import workloads  # noqa: E402

SAMPLE_ENTRIES = ("PII.y0", "PIII.y1", "PV.y_m1", "PVdeg.kitaev_sqrt")
BOX_T = "--box-t=0.7,1.7,-0.2,0.2"


def runs() -> list[list[str]]:
    argvs = [["verify", "--all", "--with-negative", "--json", "--seed", str(seed)]
             for seed in (42, 7, 1)]
    argvs += [["verify", entry_id, "--param", f"{name}={value}", "--json"]
              for group in workloads.sweep_grid(1) for entry_id, name, value in group]
    argvs += [["sample", entry_id, "--count", "16"] for entry_id in SAMPLE_ENTRIES]
    argvs.append(["reduce", "negative.PII_bad_y1"])
    argvs += [["verify", entry_id, BOX_T, "--json"] for entry_id in catalog.list_entries()]
    return argvs


def outcome(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    try:
        code: object = cli.main(argv, out=out, err=err)
    except Exception as exc:  # noqa: BLE001 - recorded, as a crash is an output
        code = f"{type(exc).__name__}: {exc}"
    return [argv, code, out.getvalue(), err.getvalue()]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--each", action="store_true",
                    help="also print the sha256 of each run before the total")
    args = ap.parse_args()
    total = hashlib.sha256()
    for argv in runs():
        line = (json.dumps(outcome(argv)) + "\n").encode()
        total.update(line)
        if args.each:
            print(hashlib.sha256(line).hexdigest()[:16], " ".join(argv))
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
