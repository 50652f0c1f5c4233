"""Command-line front end.

Commands:
    list                       enumerate catalog entries
    reduce <id>                print the entry's report and its documented forms
    verify <id> | --all        run the verification pipeline, write reports
    sample <id> --out FILE     write plot-ready (tau, P, Q) samples as CSV

Exit codes: 0 success / all verifications passed, 1 verification failure,
2 operational error (unknown entry or parameter, bad arguments, I/O
failure).  A command raises ValueError, OSError or
``catalog.EntryNotFoundError`` for an operational error, and :func:`main`
alone turns it into the one line ``error: <message>`` on stderr and exit 2.
``reduce <id>`` runs the one pipeline ``verify <id>`` runs: it prints the
same report, with the catalog's closed forms of the reduction added under
``"documented"``, and exits as ``verify <id>`` does.

Output is byte-identical across runs for a fixed seed.  Complex numbers
serialize as {"re": ..., "im": ...}; expression strings use the engine's
infix grammar.  Coefficient samples are reported in the documented tau
frame of each entry, so the CSV rows satisfy the entry's closed-form
target equation directly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path as FsPath

import numpy as np

from . import catalog as cat
from . import expr as fe
from . import verify as ver
from .config import GATES, Config

__all__ = ["Config", "main", "console_entry"]


def _parse_param(text: str) -> tuple[str, Fraction]:
    if "=" not in text:
        raise ValueError(f"--param expects name=value, got {text!r}")
    name, _, raw = text.partition("=")
    name = name.strip()
    raw = raw.strip()
    try:
        value = Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(
            f"parameter {name!r} must be an exact rational, got {raw!r}") from exc
    return name, value


def _parse_floats(text: str, flag: str, form: str, sizes) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError:
        vals = []
    if len(vals) not in sizes:
        raise ValueError(f"{flag} expects {form}, got {text!r}")
    return vals


def _config_from_args(args) -> Config:
    kw = {}
    if args.seed is not None:
        kw["seed"] = args.seed
    for name in GATES:
        val = getattr(args, f"tol_{name}", None)
        if val is not None:
            kw[f"tol_{name}"] = val
    if args.basepoint:
        kw["basepoint"] = complex(*_parse_floats(args.basepoint, "--basepoint",
                                                 "re or re,im", (1, 2)))
    for name, flag in (("box_x", "--box-x"), ("box_t", "--box-t")):
        text = getattr(args, name)
        if text:
            kw[name] = tuple(_parse_floats(text, flag, "re_lo,re_hi,im_lo,im_hi", (4,)))
    return Config(**kw)


def _overrides_from_args(args) -> dict | None:
    if not args.param:
        return None
    overrides = {}
    for text in args.param:
        name, value = _parse_param(text)
        if name in overrides:
            raise ValueError(f"--param {name} is given more than once")
        overrides[name] = value
    return overrides


def _dump_json(doc) -> str:
    # Strict JSON (RFC 8259): a report writes a non-finite number as null.
    return json.dumps(doc, indent=2, sort_keys=False, allow_nan=False) + "\n"


def _atomic_write(path: FsPath, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name)
    try:
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _family_matches(entry_family: str, wanted: str) -> bool:
    return entry_family == wanted or entry_family.startswith(wanted + "_")


def cmd_list(args, out) -> int:
    ids = cat.list_entries()
    neg = cat.list_negative_entries()
    if args.family:
        ids = [i for i in ids if _family_matches(cat.lookup(i).family, args.family)]
        neg = [i for i in neg if _family_matches(cat.lookup(i).family, args.family)]
    if args.json:
        docs = [cat.manifest(cat.lookup(i)) for i in (*ids, *neg)]
        out.write(_dump_json(docs))
        return 0
    for i in ids:
        e = cat.lookup(i)
        pars = ", ".join(f"{k}={v}" for k, v in sorted(e.params_exact.items()))
        out.write(f"{e.id:22s} family={e.family:10s} target={e.expected_target.kind:10s} {pars}\n")
    for i in neg:
        e = cat.lookup(i)
        out.write(f"{e.id:22s} family={e.family:10s} NEGATIVE CONTROL "
                  f"({e.metadata.get('corrupted', 'corrupted entry')})\n")
    return 0


def cmd_reduce(args, out) -> int:
    config = _config_from_args(args)
    overrides = _overrides_from_args(args)
    rep = ver.full_report(args.entry, config, overrides)
    doc = rep.to_json()
    doc["documented"] = cat.manifest(cat.lookup(args.entry, overrides))["reduction"]
    out.write(_dump_json(doc))
    return 0 if rep.passed else 1


def cmd_verify(args, out) -> int:
    config = _config_from_args(args)
    overrides = _overrides_from_args(args)
    if args.all and args.entry:
        raise ValueError(f"give an entry id or --all, not both ({args.entry})")
    if args.with_negative and not args.all:
        raise ValueError("--with-negative needs --all")
    if args.all:
        ids = [*cat.list_entries(), *cat.list_negative_entries()] if args.with_negative \
            else cat.list_entries()
    elif args.entry:
        ids = [args.entry]
    else:
        raise ValueError("give an entry id or --all")

    outdir = FsPath(args.out_dir) if args.out_dir else None
    all_ok = True
    reports = []
    for entry_id in ids:
        rep = ver.full_report(entry_id, config, overrides)
        reports.append(rep)
        expected_fail = args.all and cat.lookup(entry_id).is_negative
        # Under --all the negative controls must fail; anywhere else a
        # failing report is a failure.
        if rep.passed == expected_fail:
            all_ok = False
        if outdir is not None:
            _atomic_write(outdir / f"{rep.entry_id}.json", _dump_json(rep.to_json()))

    reports.sort(key=lambda r: r.entry_id)
    if args.json:
        out.write(_dump_json([r.to_json() for r in reports]))
    else:
        for rep in reports:
            sub = [f"{name}={val:.3e}" for name, val in (
                ("frobenius", rep.frobenius_max), ("flow", rep.flow_max),
                ("t-indep", rep.t_independence_max)) if val is not None]
            if rep.match is not None:
                sub.append(f"match={rep.match.kind}")
            if rep.cross_validation_residual is not None:
                sub.append(f"crossval={rep.cross_validation_residual:.3e}")
            status = "PASS" if rep.passed else "FAIL"
            out.write(f"{status} {rep.entry_id:22s} " + " ".join(sub) + "\n")
            for e in rep.errors:
                out.write(f"     {rep.entry_id}: {e}\n")
    return 0 if all_ok else 1


def cmd_sample(args, out) -> int:
    """CSV rows (tau, P, Q, x, t) at seeded draws from the run's boxes; a draw
    raising one of ``expr._SAMPLE_ERRORS`` is skipped, any other exception propagates.
    A documented failure of ``prepare`` (``verify.PREPARE_ERRORS``) exits 2 as
    "decomposition failed"; any other exception there propagates too."""
    config = _config_from_args(args)
    overrides = _overrides_from_args(args)
    n = args.count
    if n < 0:
        raise ValueError("--count must be nonnegative")
    entry = cat.lookup(args.entry, overrides)
    try:
        prep = ver.prepare(entry, config)
    except ver.PREPARE_ERRORS as exc:
        raise ValueError(f"decomposition failed for {args.entry}: {exc}") from exc

    # Candidates are drawn in chunks, one generator call each, which yields
    # exactly the stream of drawing x, then t, per candidate.
    rng = np.random.default_rng(config.entry_seed(entry.id))
    rows = []
    attempts = 0
    max_attempts = 200 * max(n, 1)
    while len(rows) < n and attempts < max_attempts:
        xs, ts = cat.random_points(rng, (prep.entry.box_x, prep.entry.box_t),
                                   min(max_attempts - attempts, max(8, n - len(rows))))
        for x, t in zip(xs, ts):
            if len(rows) == n:
                break
            attempts += 1
            try:
                tau = prep.red.tau_at(x, t)
                P, Q = prep.red.coefficients_at(x, t)
            except fe._SAMPLE_ERRORS:
                continue
            ((tau, P, Q),) = prep.to_paper_frame([(tau, P, Q)])
            rows.append((tau, P, Q, x, t))
    if len(rows) < n:
        raise ValueError(f"could not collect {n} samples for {entry.id}")

    lines = ["tau_re,tau_im,P_re,P_im,Q_re,Q_im,x_re,x_im,t_re,t_im"]
    for tau, P, Q, x, t in rows:
        vals = (tau.real, tau.imag, P.real, P.imag, Q.real, Q.imag,
                x.real, x.imag, t.real, t.imag)
        lines.append(",".join(repr(v) for v in vals))
    text = "\n".join(lines) + "\n"
    if args.out:
        _atomic_write(FsPath(args.out), text)
    else:
        out.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fuchs-reduce",
        description="Scalarize integrable 2x2 linear systems, reduce them to "
                    "deformation-free form, and certify the reduction numerically.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_inputs(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--basepoint", type=str, default=None,
                       help="override the reduction basepoint, re[,im]; give a "
                            "negative value as --basepoint=-1,0.5")
        p.add_argument("--box-x", type=str, default=None, metavar="RE0,RE1,IM0,IM1",
                       help="override the spectral probe box; give negative "
                            "bounds as --box-x=-2.5,-1.1,-0.2,0.2")
        p.add_argument("--box-t", type=str, default=None, metavar="RE0,RE1,IM0,IM1",
                       help="override the deformation probe box; give negative "
                            "bounds as --box-t=-1.5,-0.5,-0.2,0.2")
        p.add_argument("--param", action="append", default=None,
                       metavar="NAME=RATIONAL",
                       help="override an entry parameter (exact rational)")

    p_list = sub.add_parser("list", help="enumerate catalog entries")
    p_list.add_argument("--family", type=str, default=None,
                        help="filter by family (PV also lists its subfamilies PV_*)")
    p_list.add_argument("--json", action="store_true")

    def add_gates(p):
        for name in GATES:
            p.add_argument(f"--tol-{name}", type=float, default=None)

    p_red = sub.add_parser("reduce", help="print one entry's report, with the "
                                          "catalog's documented reduction forms")
    p_red.add_argument("entry")
    add_inputs(p_red)
    add_gates(p_red)

    p_ver = sub.add_parser("verify", help="run the verification pipeline")
    p_ver.add_argument("entry", nargs="?")
    p_ver.add_argument("--all", action="store_true",
                       help="verify every positive entry")
    p_ver.add_argument("--with-negative", action="store_true",
                       help="with --all, also run the negative controls")
    p_ver.add_argument("--out-dir", type=str, default=None,
                       help="write one JSON report per entry")
    add_inputs(p_ver)
    p_ver.add_argument("--json", action="store_true",
                       help="machine-readable output")
    add_gates(p_ver)

    p_s = sub.add_parser("sample", help="write (tau, P, Q) samples as CSV")
    p_s.add_argument("entry")
    p_s.add_argument("--out", type=str, default=None)
    p_s.add_argument("--count", type=int, default=64)
    add_inputs(p_s)
    return ap


_COMMANDS = {"list": cmd_list, "reduce": cmd_reduce, "verify": cmd_verify,
             "sample": cmd_sample}

# The parser, built once at import.  Parsing leaves it unchanged: every
# call gets a fresh namespace, and ``--param`` starts from None, not from a
# shared list.
_PARSER = _build_parser()


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    # argparse writes help to sys.stdout and usage errors to sys.stderr.
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args, out)
    except (ValueError, OSError, cat.EntryNotFoundError) as exc:
        err.write(f"error: {exc}\n")
        return 2


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
