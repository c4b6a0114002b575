"""Command-line verification harness.

    biexp verify <suite> [--alpha A --beta B --q Q --terms N --tol T --k-max K]
                         [--format json|csv|text] [--out PATH] [--config FILE]
    biexp eval <function> [value flags]
    biexp --list-suites

A suite takes only the overrides it reads: planewave alpha beta terms tol;
dunkl-sampling alpha; fourier-neumann alpha beta; hankel none; spectrum
alpha beta k_max terms; lemma71 tol; q-core and q-weber q alpha beta;
q-planewave q alpha beta terms; all any key some suite takes.  A config
file holds `key=value` lines of those keys, `format` and `out`.  Flag
values override config-file values override the suite's defaults.  Any
other key, and a config line without `=`, is a usage error.

Exit codes: 0 all checks passed, 1 some check failed, 2 usage error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from . import qspec as qsp
from . import spectrum as spe
from .orthopoly import GenGegenbauerFamily
from .report import emit_csv, emit_json, emit_text
from .specfun import Params, bessel_j, bessel_zeros, dunkl_kernel, lommel_h
from .suites import _PARAM_TYPES, SUITE_NAMES, run_suite

_EVAL_FUNCTIONS = ("bessel", "dunkl-kernel", "gengeg", "qbessel3", "lommel",
                   "zeros", "eigenvalue")


def _parse_config(path: str) -> dict:
    """The key=value lines of a config file, override values cast to their
    types.  Raises ValueError for a line without '=', a key outside the
    overrides, format and out, or a value that does not parse."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, val = (part.strip() for part in line.partition("="))
            if not eq:
                raise ValueError(f"config line {line!r} is not key=value")
            if key in _PARAM_TYPES:
                cast = _PARAM_TYPES[key]
                try:
                    val = cast(val)
                except ValueError:
                    raise ValueError(f"config value {key}={val!r} is not a valid "
                                     f"{cast.__name__}") from None
            elif key not in ("format", "out"):
                raise ValueError(f"unknown config key {key!r}; choose from "
                                 f"{', '.join(_PARAM_TYPES)}, format, out")
            out[key] = val
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
    for key, cast in _PARAM_TYPES.items():
        vp.add_argument("--" + key.replace("_", "-"), type=cast, dest=key)
    vp.add_argument("--format", choices=("json", "csv", "text"), default=None)
    vp.add_argument("--out", default=None)
    vp.add_argument("--config", default=None)

    ep = sub.add_parser("eval", help="evaluate one function and print it")
    ep.add_argument("function", choices=_EVAL_FUNCTIONS)
    for flag in ("alpha", "beta", "nu", "x", "t", "w", "a", "q", "n", "k"):
        ep.add_argument("--" + flag, type=int if flag in ("n", "k") else float)
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
            if not 0.0 < q < 1.0:
                raise SystemExit2(f"q must lie in (0, 1), got {q}")
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
            if args.sign not in (1, -1):
                raise SystemExit2(f"eval eigenvalue: sign must be 1 or -1, got {args.sign}")
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
        except ValueError as exc:
            print(f"biexp: {exc}", file=sys.stderr)
            return 2
    if args.suite is None:
        print("biexp verify: missing suite name", file=sys.stderr)
        return 2

    overrides = {key: val for key, val in cfg.items() if key in _PARAM_TYPES}
    overrides.update((key, getattr(args, key)) for key in _PARAM_TYPES
                     if getattr(args, key) is not None)
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
