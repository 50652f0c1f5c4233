"""Print one sha256 over the outputs of a fixed set of CLI runs.

Two checkouts whose pipeline outputs are byte-identical print the same
digest; a change meant to keep every report, sample and error message as it
was is checked by running this script at the parent commit and at the
change.  Run it from the checkout to digest (it imports that checkout's
``src/`` and ``bench/``):

    python tools/output_digest.py          # the digest
    python tools/output_digest.py --each   # also one line per run
    python tools/output_digest.py --compare ../parent

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

``--compare <checkout>`` is for a change that moves numbers but no
verdict.  It makes the runs in this checkout and in the other one (each in
a child interpreter on that checkout's ``src/`` and ``bench/``) and prints,
per run, whether the two agree on the exit code and, in every report, on
``passed``, ``errors``, ``case``, the match kind and ``expected_target``.
A run that prints a CSV (``sample``) must agree on its stderr, its header,
its row count and its x and t columns, and its other cells are compared
as numbers, named ``sample.<column>``; any other run that prints no report
must agree on its whole output.  It then prints, for every numeric report
field or CSV column that moves, its largest absolute move and its largest
relative move, |a - b| / max(|a|, |b|), with the values and the run, and
both digests.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SAMPLE_ENTRIES = ("PII.y0", "PIII.y1", "PV.y_m1", "PVdeg.kitaev_sqrt")
BOX_T = "--box-t=0.7,1.7,-0.2,0.2"
# The report keys that carry a verdict; none may move under --compare.
VERDICT_KEYS = ("passed", "errors", "case", "match kind", "expected_target")


def runs() -> list[list[str]]:
    from fuchsreduce import catalog
    import workloads

    argvs = [["verify", "--all", "--with-negative", "--json", "--seed", str(seed)]
             for seed in (42, 7, 1)]
    argvs += [["verify", entry_id, "--param", f"{name}={value}", "--json"]
              for group in workloads.sweep_grid(1) for entry_id, name, value in group]
    argvs += [["sample", entry_id, "--count", "16"] for entry_id in SAMPLE_ENTRIES]
    argvs.append(["reduce", "negative.PII_bad_y1"])
    argvs += [["verify", entry_id, BOX_T, "--json"] for entry_id in catalog.list_entries()]
    return argvs


def outcome(argv: list[str]) -> list:
    from fuchsreduce import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        code: object = cli.main(argv, out=out, err=err)
    except Exception as exc:  # noqa: BLE001 - recorded, as a crash is an output
        code = f"{type(exc).__name__}: {exc}"
    return [argv, code, out.getvalue(), err.getvalue()]


def outcomes_of(checkout: Path) -> list[list]:
    """Every run's outcome, made in a child interpreter on ``checkout``."""
    done = subprocess.run([sys.executable, __file__, "--outcomes", "--root", str(checkout)],
                          capture_output=True, text=True, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


def digest(results: list[list]) -> str:
    total = hashlib.sha256()
    for res in results:
        total.update((json.dumps(res) + "\n").encode())
    return total.hexdigest()


def reports(stdout: str) -> list[dict] | None:
    """The reports a run printed, or None when it printed none."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    docs = doc if isinstance(doc, list) else [doc]
    return docs if all(isinstance(d, dict) and "passed" in d for d in docs) else None


def verdict(report: dict) -> dict:
    match = report.get("match")
    return {"passed": report["passed"], "errors": report["errors"], "case": report["case"],
            "match kind": None if match is None else match["kind"],
            "expected_target": report["expected_target"]}


def numbers(doc, path: str = "") -> dict[str, float]:
    """The numeric leaves of a report by dotted path (list items by index)."""
    if isinstance(doc, bool) or doc is None or isinstance(doc, str):
        return {}
    if isinstance(doc, (int, float)):
        return {path: float(doc)}
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    out: dict[str, float] = {}
    for key, value in items:
        out.update(numbers(value, f"{path}.{key}" if path else str(key)))
    return out


def csv_cells(stdout: str, other: str) -> list[tuple[dict, dict]] | None:
    """Per row, the numeric cells of two CSVs by ``sample.<column>``, when
    both have the same header, the same number of rows and the same x and
    t columns; else None."""
    try:
        (head, *rows), (head2, *rows2) = ([line.split(",") for line in text.splitlines()]
                                          for text in (stdout, other))
        cells = [({f"sample.{k}": float(v) for k, v in zip(head, a)},
                  {f"sample.{k}": float(v) for k, v in zip(head, b)})
                 for a, b in zip(rows, rows2)]
    except ValueError:
        return None
    if head != head2 or len(rows) != len(rows2) or len(head) < 2:
        return None
    fixed = [k for k, name in enumerate(head) if name[:2] in ("x_", "t_")]
    if any(len(a) != len(head) or len(b) != len(head) or any(a[k] != b[k] for k in fixed)
           for a, b in zip(rows, rows2)):
        return None
    return cells


def fold(moves: dict[str, list], ours: dict[str, float], theirs: dict[str, float],
         where: str) -> None:
    """Record, per numeric field, the largest relative move (with its values
    and ``where``) and the largest absolute one."""
    for key in sorted(ours.keys() & theirs.keys()):
        rel = relative_move(ours[key], theirs[key])
        if rel == 0:
            continue
        got = moves.setdefault(key, [0.0, None, 0.0])
        if rel > got[0]:
            got[:2] = rel, f"{theirs[key]!r} -> {ours[key]!r} in {where}"
        got[2] = max(got[2], abs(ours[key] - theirs[key]))


def relative_move(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(other: Path) -> int:
    here, there = outcomes_of(ROOT), outcomes_of(other)
    if [r[0] for r in here] != [r[0] for r in there]:
        print("the two checkouts make different runs")
        return 1
    # Per field: the largest relative move (with its values and run) and
    # the largest absolute one.
    moves: dict[str, list] = {}
    agreeing = 0
    for (argv, code, out, err), (_, code2, out2, err2) in zip(here, there):
        ours, theirs = reports(out), reports(out2)
        differ = [] if code == code2 else ["exit code"]
        run = " ".join(argv)
        if ours is not None and theirs is not None and len(ours) == len(theirs):
            for a, b in zip(ours, theirs):
                va, vb = verdict(a), verdict(b)
                differ += [k for k in VERDICT_KEYS if va[k] != vb[k] and k not in differ]
                fold(moves, numbers(a), numbers(b), f"{run} [{a['entry']}]")
        elif (out, err) != (out2, err2):
            cells = csv_cells(out, out2) if err == err2 else None
            if cells is None:
                differ.append("output")
            for k, (a, b) in enumerate(cells or ()):
                fold(moves, a, b, f"{run} [row {k}]")
        agreeing += not differ
        print(f"{'agree' if not differ else 'DIFFER: ' + ', '.join(differ):<40} {' '.join(argv)}")
    print(f"{agreeing} of {len(here)} runs agree on the exit code and on "
          f"{', '.join(VERDICT_KEYS)} (or on their CSV's x and t, or on their whole output)")
    print("per numeric report field or CSV column that moves: the largest absolute move, "
          "then the largest relative move |a - b| / max(|a|, |b|), there -> here, and where:")
    for key, (rel, where, absolute) in sorted(moves.items()):
        print(f"  {key:<20} abs {absolute:.1e}  rel {rel:.1e}  {where}")
    print(f"digest here  {digest(here)}")
    print(f"digest there {digest(there)}")
    return 0 if agreeing == len(here) else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--each", action="store_true",
                    help="also print the sha256 of each run before the total")
    ap.add_argument("--compare", metavar="CHECKOUT", type=Path,
                    help="compare verdicts and numbers with the runs of another checkout")
    ap.add_argument("--root", type=Path, default=ROOT, help=argparse.SUPPRESS)
    ap.add_argument("--outcomes", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    sys.path[:0] = [str(args.root / "src"), str(args.root / "bench")]
    if args.compare is not None:
        return compare(args.compare.resolve())
    results = [outcome(argv) for argv in runs()]
    for res in results:
        line = json.dumps(res)
        if args.outcomes:
            print(line)
        elif args.each:
            print(hashlib.sha256((line + "\n").encode()).hexdigest()[:16], " ".join(res[0]))
    if not args.outcomes:
        print(digest(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
