"""Command-line verification harness.

    biexp verify <suite> [--alpha A --beta B --q Q --terms N --tol T]
                         [--format json|csv|text] [--out PATH] [--config FILE]
    biexp eval <function> [value flags]
    biexp --list-suites

Exit codes: 0 all checks passed, 1 some check failed, 2 usage error,
3 I/O error.  Flag values override config-file values override defaults.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import qspec as qsp
from . import spectrum as spe
from .orthopoly import GenGegenbauerFamily
from .report import emit_csv, emit_json, emit_text
from .specfun import Params, bessel_j, bessel_zeros, dunkl_kernel, lommel_h
from .suites import SUITE_NAMES, run_suite

_EVAL_FUNCTIONS = ("bessel", "dunkl-kernel", "gengeg", "qbessel3", "lommel",
                   "zeros", "eigenvalue")


def _parse_config(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="biexp",
                                 description="verify bilinear biorthogonal "
                                             "expansion identities")
    ap.add_argument("--list-suites", action="store_true",
                    help="print suite names and exit")
    sub = ap.add_subparsers(dest="command")

    vp = sub.add_parser("verify", help="run a named check suite")
    vp.add_argument("suite", nargs="?", help="suite name (see --list-suites)")
    vp.add_argument("--alpha", type=float)
    vp.add_argument("--beta", type=float)
    vp.add_argument("--q", type=float)
    vp.add_argument("--terms", type=int)
    vp.add_argument("--tol", type=float)
    vp.add_argument("--k-max", type=int, dest="k_max")
    vp.add_argument("--format", choices=("json", "csv", "text"), default=None)
    vp.add_argument("--out", default=None)
    vp.add_argument("--config", default=None)

    ep = sub.add_parser("eval", help="evaluate one function and print it")
    ep.add_argument("function", choices=_EVAL_FUNCTIONS)
    ep.add_argument("--alpha", type=float)
    ep.add_argument("--beta", type=float)
    ep.add_argument("--nu", type=float)
    ep.add_argument("--x", type=float)
    ep.add_argument("--t", type=float)
    ep.add_argument("--w", type=float)
    ep.add_argument("--a", type=float)
    ep.add_argument("--q", type=float)
    ep.add_argument("--n", type=int)
    ep.add_argument("--k", type=int)
    ep.add_argument("--sign", type=int, default=1)
    return ap


def _need(args, name: str):
    val = getattr(args, name.replace("-", "_"), None)
    if val is None:
        raise SystemExit2(f"eval: missing required flag --{name}")
    return val


class SystemExit2(Exception):
    pass


def _run_eval(args) -> int:
    fn = args.function
    try:
        if fn == "bessel":
            val = bessel_j(_need(args, "nu"), _need(args, "x"))
            print(f"{val:.15g}")
        elif fn == "dunkl-kernel":
            v = dunkl_kernel(_need(args, "alpha"), _need(args, "x"))
            print(f"({v.real:.15g}, {v.imag:.15g})")
        elif fn == "gengeg":
            P = Params(_need(args, "alpha"), _need(args, "beta"))
            fam = GenGegenbauerFamily(P)
            print(f"{fam.eval(_need(args, 'n'), _need(args, 't')):.15g}")
        elif fn == "qbessel3":
            q = _need(args, "q")
            val = qsp.qbessel3(_need(args, "nu"), _need(args, "x"), q * q)
            print(f"{val:.15g}")
        elif fn == "lommel":
            val = lommel_h(_need(args, "n"), _need(args, "a"), _need(args, "w"))
            print(f"{val:.15g}")
        elif fn == "zeros":
            table = bessel_zeros(_need(args, "nu"), _need(args, "k"))
            print(f"{table.zeros[-1]:.15g}")
        elif fn == "eigenvalue":
            P = Params(_need(args, "alpha"), _need(args, "beta"))
            k = _need(args, "k")
            prob = spe.SpectralProblem(P, 10, bessel_zeros(P.ab + 1.0, k))
            lam = complex(0.0, args.sign / prob.zero(k))
            print(f"({lam.real:.15g}, {lam.imag:.15g})")
        else:  # pragma: no cover - argparse limits choices
            raise SystemExit2(f"unknown function {fn}")
    except SystemExit2:
        raise
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise SystemExit2(str(exc))
    return 0


def _run_verify(args) -> int:
    cfg = {}
    if args.config:
        try:
            cfg = _parse_config(args.config)
        except OSError as exc:
            print(f"biexp: cannot read config: {exc}", file=sys.stderr)
            return 3
    if args.suite is None:
        print("biexp verify: missing suite name", file=sys.stderr)
        return 2

    def pick(name, cast):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in cfg:
            return cast(cfg[name])
        return None

    overrides = {}
    for name, cast in (("alpha", float), ("beta", float), ("q", float),
                       ("terms", int), ("tol", float), ("k_max", int)):
        try:
            val = pick(name, cast)
        except ValueError:
            print(f"biexp: config value {name}={cfg[name]!r} is not a valid "
                  f"{cast.__name__}", file=sys.stderr)
            return 2
        if val is not None:
            overrides[name] = val
    if "tol" in overrides and not (0.0 < overrides["tol"] < math.inf):
        print(f"biexp: tol must be finite and positive, got {overrides['tol']}",
              file=sys.stderr)
        return 2
    fmt = args.format or cfg.get("format") or "text"
    out_path = args.out or cfg.get("out")
    emit = {"json": emit_json, "csv": emit_csv, "text": emit_text}.get(fmt)
    if emit is None:
        print(f"biexp: unknown format {fmt!r}; choose from json, csv, text",
              file=sys.stderr)
        return 2

    if args.suite not in SUITE_NAMES:
        print(f"biexp: unknown suite {args.suite!r}; choose from "
              f"{', '.join(SUITE_NAMES)}", file=sys.stderr)
        return 2
    try:
        result = run_suite(args.suite, overrides)
    except (ValueError, OverflowError) as exc:
        print(f"biexp: {exc}", file=sys.stderr)
        return 2

    if out_path:
        try:
            with open(out_path, "w") as fh:
                emit(result, fh)
        except OSError as exc:
            print(f"biexp: cannot write report: {exc}", file=sys.stderr)
            return 3
    else:
        emit(result, sys.stdout)
    return 0 if result.passed else 1


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if args.list_suites:
        for name in SUITE_NAMES:
            print(name)
        return 0
    if args.command == "verify":
        return _run_verify(args)
    if args.command == "eval":
        try:
            return _run_eval(args)
        except SystemExit2 as exc:
            print(f"biexp: {exc}", file=sys.stderr)
            return 2
    ap.print_usage(sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
