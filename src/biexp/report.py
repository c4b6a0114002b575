"""Check reports and their serializers.

A CheckReport records one verified identity: both sides as complex values,
absolute and relative error, the tolerance it was judged against, and the
pass flag (error at or below tolerance, absolutely or relatively).  Suites
aggregate reports; emitters render JSON, CSV, or an aligned text table.

The emitted check rows are deterministic byte for byte across runs; the
JSON envelope additionally carries the suite's wall-clock runtime_ms and a
timing block of each check's runtime_ms keyed by check id, the volatile
entries (CSV and text carry no per-check timing).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import IO

__all__ = [
    "CheckReport",
    "SuiteResult",
    "make_check",
    "emit_json",
    "emit_csv",
    "emit_text",
    "CSV_HEADER",
]

CSV_HEADER = "id,lhs_re,lhs_im,rhs_re,rhs_im,abs_err,rel_err,tol,pass"


@dataclass(frozen=True)
class CheckReport:
    id: str
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    tol: float
    passed: bool
    runtime_ms: float = 0.0


@dataclass
class SuiteResult:
    suite: str
    params: dict
    checks: list
    runtime_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def make_check(cid: str, lhs, rhs, tol: float, runtime_ms: float = 0.0) -> CheckReport:
    """Build a report; pass iff abs_err <= tol or rel_err <= tol."""
    lhs = complex(lhs)
    rhs = complex(rhs)
    abs_err = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    rel_err = abs_err / scale if scale > 0.0 else 0.0
    ok = bool(abs_err <= tol or rel_err <= tol)
    if not (math.isfinite(abs_err) and math.isfinite(rel_err)):
        ok = False
    return CheckReport(id=cid, lhs=lhs, rhs=rhs, abs_err=abs_err,
                       rel_err=rel_err, tol=tol, passed=ok,
                       runtime_ms=runtime_ms)


def _num(x: float) -> float:
    # normalize -0.0 so emitted bytes do not depend on sign-of-zero noise
    return 0.0 if x == 0.0 else float(x)


def _check_row(c: CheckReport) -> dict:
    return {
        "id": c.id,
        "lhs_re": _num(c.lhs.real),
        "lhs_im": _num(c.lhs.imag),
        "rhs_re": _num(c.rhs.real),
        "rhs_im": _num(c.rhs.imag),
        "abs_err": _num(c.abs_err),
        "rel_err": _num(c.rel_err),
        "tol": _num(c.tol),
        "pass": c.passed,
    }


def emit_json(result: SuiteResult, out: IO[str]) -> None:
    doc = {
        "suite": result.suite,
        "params": result.params,
        "checks": [_check_row(c) for c in result.checks],
        "pass": result.passed,
        "runtime_ms": round(result.runtime_ms, 3),
        "timing": {c.id: round(c.runtime_ms, 3) for c in result.checks},
    }
    json.dump(doc, out, indent=2, sort_keys=False)
    out.write("\n")


def emit_csv(result: SuiteResult, out: IO[str]) -> None:
    out.write(CSV_HEADER + "\n")
    for c in result.checks:
        row = _check_row(c)
        out.write(
            f"{row['id']},{row['lhs_re']!r},{row['lhs_im']!r},"
            f"{row['rhs_re']!r},{row['rhs_im']!r},"
            f"{row['abs_err']!r},{row['rel_err']!r},{row['tol']!r},"
            f"{str(row['pass']).lower()}\n"
        )


def emit_text(result: SuiteResult, out: IO[str]) -> None:
    width = max([len(c.id) for c in result.checks] + [8])
    out.write(f"suite: {result.suite}\n")
    if result.params:
        out.write("params: " + ", ".join(f"{k}={v}" for k, v in result.params.items()) + "\n")
    out.write(f"{'check':<{width}}  {'abs_err':>12}  {'rel_err':>12}  {'tol':>9}  status\n")
    for c in result.checks:
        status = "PASS" if c.passed else "FAIL"
        out.write(f"{c.id:<{width}}  {c.abs_err:>12.3e}  {c.rel_err:>12.3e}  "
                  f"{c.tol:>9.1e}  {status}\n")
    n_pass = sum(1 for c in result.checks if c.passed)
    out.write(f"{n_pass}/{len(result.checks)} checks passed"
              f" ({result.runtime_ms:.0f} ms)\n")
