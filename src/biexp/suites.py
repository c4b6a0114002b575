"""Named verification suites.

Each suite runs a fixed, deterministic grid of identity checks and returns
CheckReports in registry order.  `_PARAM_TYPES` lists every key a run may
override and the type its value is cast to.  `_REGISTRY` pairs each suite
function with the keys it reads and their defaults; `run_suite` refuses a
key the suite does not declare, lays the overrides over the defaults and
hands the suite that read-only mapping, so two runs of the same suite
produce identical values and a report echoes the values in effect.
"""

from __future__ import annotations

import math
import sys
import time
from collections.abc import Mapping
from types import MappingProxyType
from typing import Callable

import numpy as np

from . import biortho as bo
from . import qspec as qs
from . import spectrum as spe
from .orthopoly import GenGegenbauerFamily, dunkl_apply_poly, jacobi_eval
from .quad import integrate_bessel_product, integrate_interval
from .report import SuiteResult, make_check
from .specfun import (Params, bessel_j, bessel_j_ratio, bessel_zeros,
                      dunkl_kernel, gamma, lommel_h)

__all__ = ["SUITE_NAMES", "run_suite"]

# calibrated once against the quadrature oracle, then frozen: sampling
# reconstruction sup-error at N = 400 for u = (1-t^2)^2, alpha = 0.5
SAMPLING_N400_THRESHOLD = 1e-14

_X_GRID = (-5.0, -2.0, -0.5, 0.5, 2.0, 5.0)
_T_GRID = (-0.9, -0.3, 0.3, 0.9)


def _timed(checks: list, cid: str, fn: Callable[[], tuple], tol: float) -> None:
    t0 = time.perf_counter()
    lhs, rhs = fn()
    ms = (time.perf_counter() - t0) * 1000.0
    checks.append(make_check(cid, lhs, rhs, tol, runtime_ms=ms))


def _worst(errs) -> float:
    """The largest of the errors, or NaN if any is NaN (max() keeps
    whichever of a NaN and a number comes first, so it can hide one)."""
    errs = list(errs)
    return math.nan if any(math.isnan(e) for e in errs) else max(errs)


def _flag(checks: list, cid: str, ok: bool) -> None:
    # boolean-style check encoded in the numeric schema: lhs = 1 iff ok
    checks.append(make_check(cid, 1.0 if ok else 0.0, 1.0, 0.0))


# ---------------------------------------------------------------------------
# planewave
# ---------------------------------------------------------------------------

def suite_planewave(ov: Mapping) -> list:
    checks: list = []
    N = ov["terms"]
    tol_classical = 1e-10 if ov["tol"] is None else ov["tol"]
    for beta in (0.5, 1.0, 2.3):
        def worst(beta=beta):
            return _worst(abs(bo.classical_planewave(beta, x, t, N)
                              - complex(math.cos(x * t), math.sin(x * t)))
                          for x in _X_GRID for t in _T_GRID), 0.0
        _timed(checks, f"planewave/classical/beta={beta}", worst, tol_classical)
    tol_dunkl = 1e-9 if ov["tol"] is None else ov["tol"]
    for al in (-0.5, 0.0, 0.7):
        for be in (-0.2, 0.3):
            def worst(al=al, be=be):
                P = Params(al, be)
                return _worst(abs(bo.planewave_partial_sum(P, x, t, N) - dunkl_kernel(al, x * t))
                              for x in _X_GRID for t in _T_GRID), 0.0
            _timed(checks, f"planewave/dunkl/alpha={al}/beta={be}", worst, tol_dunkl)
    for be in (-0.2, 0.3):
        def chain(be=be):
            P = Params(-0.5, be)
            return _worst(abs(bo.planewave_partial_sum(P, x, t, N)
                              - bo.classical_planewave(be + 0.5, x, t, N))
                          for x in _X_GRID for t in _T_GRID), 0.0
        _timed(checks, f"planewave/chain-halfint/beta={be}", chain, 1e-12)

    def parity():
        return _worst(abs(bo.neumann_fn(0.5, n, -x) - (-1.0) ** n * bo.neumann_fn(0.5, n, x))
                      for n in range(6) for x in (0.7, 2.3, 4.9)), 0.0
    _timed(checks, "planewave/bessel-quotient-parity", parity, 1e-14)

    def at_zero():
        P = Params(ov["alpha"], ov["beta"])
        return bo.planewave_partial_sum(P, 0.0, 0.3, 5), 1.0
    _timed(checks, "planewave/x=0-normalization", at_zero, 1e-12)
    return checks


# ---------------------------------------------------------------------------
# dunkl-sampling
# ---------------------------------------------------------------------------

def suite_dunkl_sampling(ov: Mapping) -> list:
    checks: list = []
    al = ov["alpha"]
    table = bessel_zeros(al + 1.0, 400)
    f = bo.PWFunction(lambda t: (1.0 - t * t) ** 2, al)
    xs = (0.3, 1.7, 4.2)
    fx = {x: f.eval(x) for x in xs}
    # f on -s_400 .. s_400: fs[400] = f(0), fs[400 + n] = f(s_n)
    fs = f.eval(bo.sampling_nodes(table, 400))

    def interp():
        return bo.dunkl_sampling_sum(al, fs, table.signed(3), 50, table), fs[403]
    _timed(checks, "dunkl-sampling/interpolation-at-node", interp, 1e-12)

    errs = {}
    for Ns in (50, 100, 200, 400):
        t0 = time.perf_counter()
        errs[Ns] = _worst(abs(bo.dunkl_sampling_sum(al, fs, x, Ns, table) - fx[x]) for x in xs)
        ms = (time.perf_counter() - t0) * 1000.0
        checks.append(make_check(f"dunkl-sampling/sup-error/N={Ns}", errs[Ns], 0.0, 1e-9,
                                 runtime_ms=ms))
    _flag(checks, "dunkl-sampling/error-strictly-decreasing",
          errs[50] > errs[100] > errs[200] > errs[400])
    _flag(checks, "dunkl-sampling/N400-quarter-of-N100", errs[400] < 0.25 * errs[100])
    checks.append(make_check("dunkl-sampling/N400-threshold", errs[400], 0.0,
                             SAMPLING_N400_THRESHOLD))

    def gram():
        bio = bo.dunkl_system(al, 8)
        ns = range(-6, 7)
        return float(np.max(np.abs(bio.gram(ns, ns) - np.eye(len(ns))))), 0.0
    _timed(checks, "dunkl-sampling/node-kernel-orthonormality", gram, 1e-8)

    def e0_norm():
        bio = bo.dunkl_system(al, 4)
        return integrate_interval(lambda t: np.abs(bio.P([0], t)[0]) ** 2, al, 0.0, 80), 1.0
    _timed(checks, "dunkl-sampling/e0-normalization", e0_norm, 1e-10)

    def coeff_closed():
        return (bo.expand_kernel(bo.dunkl_system(0.5, 8), 1.3, 4)[2],
                bo.dunkl_sampling_coeff(0.5, bessel_zeros(1.5, 8).signed(2), 1.3))
    _timed(checks, "dunkl-sampling/coefficient-closed-form", coeff_closed, 1e-8)

    def fourier_nodes():
        return bo.fourier_sampling_coeff(3, 3.0 * math.pi), 1.0 / math.sqrt(math.pi)
    _timed(checks, "dunkl-sampling/classical-coefficient-at-node", fourier_nodes, 1e-12)

    def fourier_quad():
        sn = bo.expand_kernel(bo.fourier_system(), 2.7, 3)
        return _worst(abs(sn[n] - bo.fourier_sampling_coeff(n, 2.7))
                      for n in range(-3, 4)), 0.0
    _timed(checks, "dunkl-sampling/classical-coefficient-quadrature", fourier_quad, 1e-10)

    def norm_closed():
        x = 2.2
        quad_val = integrate_interval(lambda r: np.abs(bo.dunkl_kernel_grid(al, x * r)) ** 2,
                                      al, 0.0, 80)
        return bo.kernel_norm_sq(al, x), quad_val
    _timed(checks, "dunkl-sampling/kernel-norm-closed-form", norm_closed, 1e-9)
    return checks


# ---------------------------------------------------------------------------
# fourier-neumann
# ---------------------------------------------------------------------------

def suite_fourier_neumann(ov: Mapping) -> list:
    checks: list = []
    P = Params(ov["alpha"], ov["beta"])
    ab = P.ab

    def gram():
        bio = bo.neumann_system(P)
        return float(np.max(np.abs(bio.gram(range(9), range(9)) - np.eye(9)))), 0.0
    _timed(checks, "fourier-neumann/biorthogonality-gram", gram, 1e-8)

    fam = GenGegenbauerFamily(P)

    def forward(k: int, t: float):
        if k % 2 == 0:
            r = integrate_bessel_product(P.beta, ab + k + 1.0, P.alpha, t)
            got = complex(t ** (-P.alpha) * r.value)
        else:
            r = integrate_bessel_product(P.beta, (P.alpha + 1.0) + P.beta + k, P.alpha + 1.0, t)
            got = -1j * t * (t ** (-(P.alpha + 1.0)) * r.value)
        qk = (1.0 - t * t) ** P.beta * fam.eval(k, t) / fam.norm(k)
        closed = (-1j) ** k / (2.0 ** (ab + 1.0) * gamma(ab + 1.0) * (ab + k + 1.0)) * qk
        return got, closed

    for k in (2, 3):
        _timed(checks, f"fourier-neumann/forward-transform/k={k}",
               lambda k=k: forward(k, 0.5), 1e-6)

    def jfn_orth_diag():
        al = 0.4
        r = integrate_bessel_product(1.0, al + 2.0, al + 2.0, 1.0)
        got = 2.0 * r.value / (2.0 ** (al + 1.0) * gamma(al + 1.0))
        return got, 1.0 / (2.0 ** (al + 1.0) * gamma(al + 1.0) * (al + 2.0))
    _timed(checks, "fourier-neumann/quotient-orthogonality-diagonal", jfn_orth_diag, 1e-6)

    def jfn_orth_off():
        r = integrate_bessel_product(1.0, 0.4 + 3.0, 0.4 + 1.0, 1.0)
        return r.value, 0.0
    _timed(checks, "fourier-neumann/quotient-orthogonality-offdiag", jfn_orth_off, 1e-8)

    def delta():
        fq0 = bo.PWFunction(lambda t: fam.eval(0, t) / fam.norm(0), P.alpha,
                            weight_pow=P.beta)
        coeffs = bo.fourier_neumann_coeffs(P, fq0, 5)
        return _worst(abs(c) for c in coeffs[1:].tolist()), 0.0
    _timed(checks, "fourier-neumann/coefficient-delta-pattern", delta, 1e-6)

    def recon():
        f2 = bo.PWFunction(lambda t: (1.0 - t * t) * (0.3 + t), P.alpha)
        sups = []
        xs = np.linspace(-5.0, 5.0, 11)
        fx = f2.eval(xs).tolist()
        for Ns in (6, 12):
            coeffs = bo.fourier_neumann_coeffs(P, f2, Ns)
            sups.append(_worst(abs(bo.neumann_partial_sum(P, coeffs, x) - v)
                               for x, v in zip(xs, fx)))
        return (1.0 if sups[1] < sups[0] else 0.0), 1.0
    _timed(checks, "fourier-neumann/reconstruction-error-decreasing", recon, 0.0)

    def st_gram():
        g = bo.st_gram_gegenbauer(1.0, 4)
        return np.max(np.abs(g - np.eye(5))), 0.0
    _timed(checks, "fourier-neumann/st-pair-biorthogonality", st_gram, 1e-6)
    return checks


# ---------------------------------------------------------------------------
# hankel
# ---------------------------------------------------------------------------

def suite_hankel(ov: Mapping) -> list:
    checks: list = []

    def corollary():
        P = Params(0.3, 0.2)
        got = bo.hankel_corollary_sum(P, 1.5, 0.5, 40)
        return got, bessel_j_ratio(0.3, 1.5 * 0.5)
    _timed(checks, "hankel/even-expansion-vs-bessel", corollary, 1e-10)

    def realpart():
        al, x, t = 0.5, 2.0, 0.6
        e = dunkl_kernel(al, x * t)
        lhs = (e + e.conjugate()) / (2.0 ** (al + 1.0) * gamma(al + 1.0))
        return lhs, bessel_j_ratio(al, x * t)
    _timed(checks, "hankel/kernel-real-part-construction", realpart, 1e-10)

    def smallt():
        P = Params(0.3, 0.2)
        got = bo.hankel_corollary_sum(P, 1.5, 1e-4, 40)
        return got, 1.0 / (2.0 ** 0.3 * gamma(1.3))
    _timed(checks, "hankel/t-to-zero-limit", smallt, 1e-8)

    al = 0.5
    table = bessel_zeros(al + 1.0, 60)

    # an even density gives an even f, an odd one an odd f
    for parity, dens, grouped_sum in (
            ("even", lambda t: (1.0 - t * t) ** 2, bo.sampling_even_sum),
            ("odd", lambda t: t * (1.0 - t * t) ** 2, bo.sampling_odd_sum)):
        def grouped(dens=dens, grouped_sum=grouped_sum):
            fs = bo.PWFunction(dens, al).eval(bo.sampling_nodes(table, 50))
            return (grouped_sum(al, fs, 1.9, 50, table),
                    bo.dunkl_sampling_sum(al, fs, 1.9, 50, table))
        _timed(checks, f"hankel/{parity}-grouped-equals-full", grouped, 1e-12)

    def odd_reconstructs():
        f = bo.PWFunction(lambda t: t * (1.0 - t * t) ** 2, al)
        big = bessel_zeros(al + 1.0, 200)
        fs = f.eval(bo.sampling_nodes(big, 200))
        return bo.sampling_odd_sum(al, fs, 1.9, 200, big), f.eval(1.9)
    _timed(checks, "hankel/odd-grouped-reconstructs", odd_reconstructs, 1e-8)

    def norm_half():
        return bo.kernel_norm_sq(-0.5, 1.7), math.sqrt(2.0 / math.pi)
    _timed(checks, "hankel/norm-constant-at-half-integer", norm_half, 1e-12)

    def norm_zero():
        al2 = 0.7
        return bo.kernel_norm_sq(al2, 0.0), 1.0 / (2.0 ** (al2 + 1.0) * gamma(al2 + 2.0))
    _timed(checks, "hankel/norm-at-zero", norm_zero, 1e-13)
    return checks


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def suite_spectrum(ov: Mapping) -> list:
    checks: list = []
    P = Params(ov["alpha"], ov["beta"])
    k_max = ov["k_max"]
    N = ov["terms"]
    prob = spe.SpectralProblem(P, N, bessel_zeros(P.ab + 1.0, max(8, k_max)))
    ab = P.ab
    fam = GenGegenbauerFamily(P)
    up = fam.raised()

    for k in range(1, k_max + 1):
        for sign in (1, -1):
            _timed(checks, f"spectrum/eigen-residual/k={k}/sign={sign:+d}",
                   lambda k=k, sign=sign: (spe.eigen_residual(prob, k, sign), 0.0),
                   1e-6)
    for k in range(1, k_max + 1):
        def series_closed(k=k):
            pairs = (spe.eigenfunction(prob, k, 1, t, 60) for t in (-0.8, -0.3, 0.1, 0.5, 0.9))
            return _worst(abs(s - c) for s, c in pairs), 0.0
        _timed(checks, f"spectrum/series-vs-closed/k={k}", series_closed, 1e-8)

    for k in range(1, k_max + 1):
        def jh(k=k):
            # worst pair over n <= 10: the Bessel value at a shifted order
            # against the Lommel-polynomial combination; the polynomial side
            # is evaluated in exact-precision arithmetic so the row measures
            # the identity, not the float recurrence's conditioning
            import mpmath as mp
            j = prob.zero(k)
            jab = bessel_j(ab, j)
            worst = (0.0, 0.0, 0.0)
            with mp.workdps(50):
                w = 1.0 / mp.mpf(j)
                hm, hc = mp.mpf(0), mp.mpf(1)
                for n in range(1, 11):
                    lhs = bessel_j(ab + n + 1.0, j)
                    rhs = -float(hc) * jab
                    if abs(lhs - rhs) >= worst[0]:
                        worst = (abs(lhs - rhs), lhs, rhs)
                    hm, hc = hc, 2 * (n - 1 + mp.mpf(ab) + 2) * w * hc - hm
            return worst[1], worst[2]
        _timed(checks, f"spectrum/lommel-bessel-identity/k={k}", jh, 1e-10)

    def perturbed():
        r = spe.eigen_residual(prob, 1, 1, lam=1.01j / prob.zero(1))
        return (1.0 if r >= 1e-2 else r), 1.0
    _timed(checks, "spectrum/perturbed-lambda-rejected", perturbed, 0.0)

    def eigvals():
        vals = spe.eigenvalues(prob, k_max)
        real_ok = all(v.real == 0.0 for v in vals)
        mags = [abs(vals[2 * i]) for i in range(k_max)]
        dec_ok = all(mags[i] > mags[i + 1] for i in range(k_max - 1))
        conj_ok = all(vals[2 * i] == vals[2 * i + 1].conjugate()
                      for i in range(k_max))
        return (1.0 if (real_ok and dec_ok and conj_ok) else 0.0), 1.0
    _timed(checks, "spectrum/eigenvalues-imaginary-decreasing", eigvals, 0.0)

    def lam_zero():
        return _worst((abs(lommel_h(5, ab + 2.0, 0.0) - 0.0),
                       abs(lommel_h(6, ab + 2.0, 0.0) - (-1.0) ** 3))), 0.0
    _timed(checks, "spectrum/lambda-zero-excluded", lam_zero, 1e-15)

    def half_order():
        # at (alpha, beta) = (-0.5, 1.0) the first eigenvalue magnitude is
        # 1/j_{3/2,1}, with j the first positive root of tan x = x
        P2 = Params(-0.5, 1.0)
        prob2 = spe.SpectralProblem(P2, 10, bessel_zeros(P2.ab + 1.0, 1))
        j = prob2.zero(1)
        return math.tan(j), j
    _timed(checks, "spectrum/halfint-zero-is-tanx-root", half_order, 1e-8)

    def lcn():
        # residual normalized by the largest target coefficient (the raw
        # coefficients reach ~1e3 by degree 10, beyond what float64 can pin
        # to 1e-12 absolutely)
        errs = []
        for n in range(1, 11):
            lhs = dunkl_apply_poly(P.alpha, fam.coeffs(n))
            rhs = [2.0 * (ab + 1.0) * c for c in up.coeffs(n - 1)]
            rhs += [0.0] * (len(lhs) - len(rhs))
            scale = max(max(abs(y) for y in rhs), 1.0)
            errs.append(_worst(abs(x - y) for x, y in zip(lhs, rhs)) / scale)
        return _worst(errs), 0.0
    _timed(checks, "spectrum/derivative-lowers-index", lcn, 1e-12)

    def lam_T_identity():
        g = np.zeros(N + 1, dtype=complex)
        g[2] = 1.0
        out = spe.apply_T(prob, g)
        coeffs = np.zeros(N + 2)
        for n in range(1, N + 1):
            if abs(out[n]) > 0.0:
                for i, v in enumerate(fam.coeffs(n)):
                    coeffs[i] += (out[n] * v).real
        applied = dunkl_apply_poly(P.alpha, list(coeffs))
        target = up.coeffs(2)
        return _worst(abs(applied[i] - (target[i] if i < len(target) else 0.0))
                      for i in range(len(applied))), 0.0
    _timed(checks, "spectrum/derivative-inverts-T", lam_T_identity, 1e-12)

    def t_on_basis():
        g = np.zeros(N + 1, dtype=complex)
        g[0] = 1.0
        out = spe.apply_T(prob, g)
        dev = abs(out[1] - 1.0 / (2.0 * (ab + 1.0))) + float(np.max(np.abs(out[2:])))
        return dev, 0.0
    _timed(checks, "spectrum/T-on-basis-element", t_on_basis, 1e-15)

    def t_kernel_oracle():
        # integral-kernel route with a 20-term kernel sum vs coefficient route
        g = np.zeros(N + 1, dtype=complex)
        g[2] = 1.0
        out = spe.apply_T(prob, g)
        t = 0.3
        ct = fam.table(max(N, 20), t).tolist()  # the kernel sum reads C_1..C_20
        direct = sum((out[n] * ct[n]).real for n in range(1, N + 1))
        # C_n(t) / h~_{n-1}, n = 1..20, against the raised table's rows
        ch = np.asarray(ct[1:21]) / np.asarray([up.norm(n) for n in range(20)])

        def kern(r: np.ndarray) -> np.ndarray:
            ur = up.table(19, r)
            return ch @ ur / (2.0 * (ab + 1.0)) * ur[2]
        byquad = integrate_interval(kern, P.alpha, P.beta + 1.0, 60)
        return direct, byquad
    _timed(checks, "spectrum/T-quadrature-kernel-oracle", t_kernel_oracle, 1e-6)

    def relationab():
        lam = 0.15j
        a = spe.recurrence_coeffs(prob, lam, 12)
        return _worst(abs(a[n] - (1j) ** (n - 1) * (ab + n + 1.0) / (ab + 2.0)
                          * lommel_h(n - 1, ab + 2.0, 1j * lam)) for n in range(1, 13)), 0.0
    _timed(checks, "spectrum/recurrence-vs-lommel-relation", relationab, 1e-10)

    def orthocomplement():
        # (1-t^2)^{-1} against C_n in the raised-weight space: one power of
        # the weight cancels the singular factor exactly, so the product
        # measure rule integrates the remaining polynomial spectrally
        P2 = Params(0.4, 0.5)
        fam2 = GenGegenbauerFamily(P2)
        return _worst(abs(integrate_interval(lambda t, n=n: fam2.eval(n, t), P2.alpha, P2.beta, 60))
                      for n in range(1, 7)), 0.0
    _timed(checks, "spectrum/weight-inverse-orthocomplement", orthocomplement, 1e-8)

    def summability():
        a60 = spe.eigen_coeffs(spe.SpectralProblem(P, 60, prob.table), 1, 1, 60)
        a80 = spe.eigen_coeffs(prob, 1, 1, min(N, 80))
        s60 = sum(abs(a60[n]) ** 2 * n ** (2.0 * P.beta - 1.0) for n in range(1, 61))
        s80 = sum(abs(a80[n]) ** 2 * n ** (2.0 * P.beta - 1.0) for n in range(1, min(N, 80) + 1))
        return abs(s80 - s60) / s80, 0.0
    _timed(checks, "spectrum/coefficient-summability-stabilizes", summability, 1e-10)

    def bound():
        M = spe.bound_constant(prob)
        rng = np.random.default_rng(12345)
        hs = [fam.norm(n) for n in range(N + 1)]
        hs_up = [up.norm(n) for n in range(N + 1)]
        ok = True
        for _ in range(20):
            g = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
            out = spe.apply_T(prob, g)
            ntg = math.sqrt(sum(abs(out[n]) ** 2 * hs[n] for n in range(N + 1)))
            ng = math.sqrt(sum(abs(g[n]) ** 2 * hs_up[n] for n in range(N + 1)))
            ok = ok and (ntg <= M * ng * (1.0 + 1e-12))
        return (1.0 if ok else 0.0), 1.0
    _timed(checks, "spectrum/right-inverse-norm-bound", bound, 0.0)

    def hratio():
        errs = []
        for k in range(0, 20):
            r1 = fam.norm(2 * k + 1) / up.norm(2 * k)
            e1 = (ab + 1.0) ** 2 / ((P.beta + k + 1.0) * (P.alpha + k + 1.0))
            errs.append(abs(r1 - e1) / e1)
            if k >= 1:
                r2 = fam.norm(2 * k) / up.norm(2 * k - 1)
                e2 = (ab + 1.0) ** 2 / (k * (ab + k + 1.0))
                errs.append(abs(r2 - e2) / e2)
        return _worst(errs), 0.0
    _timed(checks, "spectrum/norm-ratio-closed-forms", hratio, 1e-12)
    return checks


# ---------------------------------------------------------------------------
# lemma71
# ---------------------------------------------------------------------------

def _i_minus(al: float, be: float, n: int, t: float):
    r = integrate_bessel_product(be, al + be + 2.0 * n + 1.0, al, t)
    return t ** (-al) * r.value, r


def _i_plus(al: float, be: float, n: int, t: float):
    r = integrate_bessel_product(-be, al + be + 2.0 * n + 1.0, al, t)
    return t ** (-al) * r.value, r


def suite_lemma71(ov: Mapping) -> list:
    checks: list = []
    tol = ov["tol"]
    for (al, be, n) in ((0.3, 0.2, 0), (0.3, 0.2, 1), (0.5, -0.1, 2)):
        for t in (0.4, 0.7):
            def minus(al=al, be=be, n=n, t=t):
                got, _ = _i_minus(al, be, n, t)
                exact = (2.0 ** (-be) * gamma(n + 1.0) / gamma(be + n + 1.0)
                         * (1.0 - t * t) ** be * jacobi_eval(n, al, be, 1.0 - 2.0 * t * t))
                return got, exact
            _timed(checks, f"lemma71/I-minus/a={al}/b={be}/n={n}/t={t}", minus, tol)

            def plus(al=al, be=be, n=n, t=t):
                got, _ = _i_plus(al, be, n, t)
                exact = (2.0 ** be * gamma(al + be + n + 1.0) / gamma(al + n + 1.0)
                         * jacobi_eval(n, al, be, 1.0 - 2.0 * t * t))
                return got, exact
            _timed(checks, f"lemma71/I-plus/a={al}/b={be}/n={n}/t={t}", plus, tol)

    def vanishing():
        got, _ = _i_minus(0.3, 0.2, 1, 1.5)
        return got, 0.0
    _timed(checks, "lemma71/I-minus-vanishes-outside", vanishing, 1e-5)

    def squared():
        a = 1.7
        r = integrate_bessel_product(1.0, a, a, 1.0)
        return r.value, 1.0 / (2.0 * a)
    _timed(checks, "lemma71/squared-over-x", squared, 1e-6)

    def crossed():
        r = integrate_bessel_product(1.0, 1.2, 3.2, 1.0)
        return r.value, 0.0
    _timed(checks, "lemma71/crossed-over-x-gap-two", crossed, 1e-8)

    def crossed_generic():
        a_, b_ = 1.2, 2.5
        r = integrate_bessel_product(1.0, a_, b_, 1.0)
        exact = 2.0 / math.pi * math.sin((b_ - a_) * math.pi / 2.0) / (b_ * b_ - a_ * a_)
        return r.value, exact
    _timed(checks, "lemma71/crossed-over-x-generic", crossed_generic, 1e-6)

    def doubling():
        got1, r1 = _i_minus(0.3, 0.2, 1, 0.4)
        r2 = integrate_bessel_product(0.2, 0.3 + 0.2 + 3.0, 0.3, 0.4,
                                      rtol=1e-9)
        got2 = 0.4 ** (-0.3) * r2.value
        return abs(got1 - got2) / max(abs(got1), 1e-30), 0.0
    _timed(checks, "lemma71/refinement-stability", doubling, 1e-6)
    return checks


# ---------------------------------------------------------------------------
# q suites
# ---------------------------------------------------------------------------

def _grid_memo(q: float, fn: Callable[[float], complex]) -> Callable[[float], complex]:
    """fn on the grid {+-q^k}, evaluated once per exponent k and sign; an
    argument off the grid is passed through."""
    cache: dict = {}

    def memo(y: float):
        j = qs._grid_exponent(q, y)
        if j is None:
            return fn(y)
        key = (j, y > 0)
        if key not in cache:
            cache[key] = fn(y)
        return cache[key]
    return memo


def suite_q_core(ov: Mapping) -> list:
    checks: list = []
    ctx = qs.QContext(ov["q"])
    q = ctx.q
    P = Params(ov["alpha"], ov["beta"])

    for qq in (0.3, 0.5, 0.8):
        def ortho(qq=qq):
            c = qs.QContext(qq)
            fam = qs.QJacobiFamily(c, P)
            q2 = c.q2
            gram = fam.gram_matrix_mp(5)
            errs = []
            for n in range(6):
                for m in range(n, 6):
                    if n == m:
                        exact = ((1.0 - qq) / (1.0 - qq ** (4 * n + 2 * P.alpha + 2 * P.beta + 2))
                                 * qs.qpochhammer(q2 ** (n + 1.0), q2)
                                 * qs.qpochhammer(q2 ** (P.ab + 1.0 + n), q2)
                                 / (qs.qpochhammer(q2 ** (P.alpha + 1.0 + n), q2)
                                    * qs.qpochhammer(q2 ** (P.beta + 1.0 + n), q2)))
                    else:
                        exact = 0.0
                    errs.append(abs(gram[n][m] - exact))
            return _worst(errs), 0.0
        _timed(checks, f"q-core/jacobi-orthogonality/q={qq}", ortho, 1e-12)

    def jackson_const():
        return qs.jackson_integral(ctx, lambda t: 1.0, "unit").real, 1.0
    _timed(checks, "q-core/jackson-geometric", jackson_const, 1e-14)

    def jackson_t():
        return qs.jackson_integral(ctx, lambda t: t, "unit").real, 1.0 / (1.0 + q)
    _timed(checks, "q-core/jackson-linear", jackson_t, 1e-14)

    def substitution():
        ctx2 = qs.QContext(ctx.q2)
        lhs = qs.jackson_integral(ctx2, lambda u: u * u, "unit").real
        rhs = (1.0 + q) * qs.jackson_integral(ctx, lambda x: x ** 5, "unit").real
        return lhs, rhs
    _timed(checks, "q-core/base-change-substitution", substitution, 1e-15)

    def qneumann_orth():
        al = P.alpha
        got = qs.qweber_lhs(ctx, 1.0, al + 3.0, al + 3.0, 1, 1)
        return got, (1.0 - q) / (1.0 - q ** (2.0 * al + 6.0))
    _timed(checks, "q-core/neumann-orthogonality-diag", qneumann_orth, 1e-12)

    def qneumann_cross():
        al = P.alpha
        got = qs.qweber_lhs(ctx, 1.0, al + 3.0, al + 1.0, 1, 0)
        return got, 0.0
    _timed(checks, "q-core/neumann-orthogonality-cross", qneumann_cross, 1e-12)

    def hankel_inv():
        al = P.alpha
        fgrid = lambda y: math.exp(-math.log(y) ** 2) if y > 0 else 0.0
        hf = _grid_memo(q, lambda y: qs.q_hankel(ctx, al, fgrid, y))
        return _worst(abs(qs.q_hankel(ctx, al, hf, q ** n) - fgrid(q ** n))
                      for n in range(-2, 5)), 0.0
    _timed(checks, "q-core/hankel-double-transform", hankel_inv, 1e-11)

    def mult_formula():
        al = P.alpha
        u = lambda x: math.exp(-math.log(abs(x)) ** 2) if x != 0 else 0.0
        v = lambda x: abs(x) * math.exp(-math.log(abs(x)) ** 2) if x != 0 else 0.0
        fu = _grid_memo(q, lambda y: qs.q_transform(ctx, al, u, y))
        fv = _grid_memo(q, lambda y: qs.q_transform(ctx, al, v, y))
        cq = qs.qpochhammer(ctx.q2 ** (al + 1.0), ctx.q2) / qs.qpochhammer(ctx.q2, ctx.q2)

        def msum(g):
            return qs.jackson_integral(ctx, lambda x: g(x) * abs(x) ** (2.0 * al + 1.0),
                                       "line") * cq / (2.0 * (1.0 - q))
        return msum(lambda y: u(y) * fv(y)), msum(lambda y: fu(y) * v(y))
    _timed(checks, "q-core/multiplication-formula", mult_formula, 1e-12)

    def kernel_at_zero():
        return qs.q_dunkl_kernel(ctx, P.alpha, 0.0), 1.0
    _timed(checks, "q-core/kernel-at-zero", kernel_at_zero, 1e-15)

    def small_x():
        nu = 0.7
        got = qs.qbessel3_ratio(nu, 1e-8, ctx.q2)
        exact = qs.qpochhammer(ctx.q2 ** (nu + 1.0), ctx.q2) / qs.qpochhammer(ctx.q2, ctx.q2)
        return got, exact
    _timed(checks, "q-core/bessel-small-argument", small_x, 1e-10)

    def qnorms():
        fam = qs.QJacobiFamily(ctx, P)
        return _worst(abs(fam.norm(n) - fam.norm_quadrature(n)) / fam.norm_quadrature(n)
                      for n in range(6)), 0.0
    _timed(checks, "q-core/gegenbauer-norms-vs-quadrature", qnorms, 1e-12)

    def tol_stability():
        c1 = qs.QContext(q, tol=1e-18)
        c2 = qs.QContext(q, tol=5e-19)
        v1 = qs.jackson_integral(c1, lambda t: t ** 0.7, "unit").real
        v2 = qs.jackson_integral(c2, lambda t: t ** 0.7, "unit").real
        return (1.0 if abs(v1 - v2) < 10.0 * 1e-18 else 0.0), 1.0
    _timed(checks, "q-core/tolerance-stability", tol_stability, 0.0)
    return checks


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _pw_term_bound(ctx: qs.QContext, P: Params, x: float, t: float, n: int) -> float:
    """A bound on |term n| of q_planewave_partial_sum (route "lemma") at
    0 < x, t <= 1: the q-Neumann member by (-Q x^2; Q)_inf / (Q; Q)_inf x^n
    q^{m(a+b+n+1)}, m = n // 2 (Euler's sum bounds the q-Bessel series for
    orders >= 0), and the q-Gegenbauer by its prefactors times the sum of
    the absolute terms of its 2phi1.  Formed in logarithms, so that a
    factor past the float range meets no other on the way (0 * inf).

    OverflowError where the bound leaves the float range, or where term n
    could not be formed: the sum forms q^(-m b) (the lemma route's
    coefficient) and q^(-m (a+r+1)) (the little q-Jacobi scale) in float."""
    q, Q, qp, log = ctx.q, ctx.q2, qs.qpochhammer, math.log
    a, b, ab = P.alpha, P.beta, P.ab
    m, r = divmod(n, 2)
    ap = a + r
    lq, lQ, lt = log(q), log(Q), log(t)
    if -m * max(b, ap + 1.0) * lq > _LOG_FLOAT_MAX:
        raise OverflowError(f"q^(-{m} max(b, a+r+1)) leaves the float64 range")
    # the 2phi1's absolute terms c_k, from |1 - Q^(k-m)| = Q^(k-m) (1 - Q^(m-k))
    lc = [0.0]
    for k in range(m):
        lc.append(lc[-1] + (k - m + 1) * lQ + 2.0 * lt
                  + math.log1p(-Q ** (m - k)) + math.log1p(-Q ** (m + ap + b + 1.0 + k))
                  - math.log1p(-Q ** (ap + 1.0 + k)) - math.log1p(-Q ** (k + 1.0)))
    top = max(lc)
    ls = top + log(math.fsum(math.exp(v - top) for v in lc))
    neumann = log(qp(-Q * x * x, Q) / qp(Q, Q)) + n * log(x) + m * (ab + n + 1.0) * lq
    gegen = (log(abs(qp(Q ** (ab + 1.0), Q, m + r) / qp(Q ** (a + 1.0), Q, m + r))) + r * lt
             - m * (ap + 1.0) * lq + log(abs(qp(Q ** (ap + 1.0), Q, m) / qp(Q, Q, m))) + ls)
    return math.exp(log(qp(Q, Q) / qp(Q ** (ab + 1.0), Q)) - m * b * lq + neumann + gegen)


def _pw_terms(ctx: qs.QContext, P: Params, x: float, t: float, n: int, tol: float) -> int:
    """n terms, or as many as the bound on the next 20 (they fall
    superexponentially) needs to put the truncation at (x, t) below tol / 2.
    OverflowError where a power in the bound leaves the float64 range."""
    try:
        while sum(_pw_term_bound(ctx, P, x, t, k) for k in range(n, n + 20)) >= 0.5 * tol:
            n += 1
    except OverflowError:
        raise OverflowError(f"q-plane-wave term bound at alpha={P.alpha}, beta={P.beta}, "
                            f"q={ctx.q}, n={n} leaves the float64 range") from None
    return n


def suite_q_planewave(ov: Mapping) -> list:
    checks: list = []
    ctx = qs.QContext(ov["q"])
    q = ctx.q
    P = Params(ov["alpha"], ov["beta"])
    N = ov["terms"]

    def lemma_route():
        # the term count of the largest point, x = 1, t = q, serves the grid
        n = _pw_terms(ctx, P, 1.0, q, N, 1e-10)
        errs = []
        for mx in range(4):
            for mt in range(1, 5):
                x, t = q ** mx, q ** mt
                got = qs.q_planewave_partial_sum(ctx, P, x, t, n, route="lemma")
                errs.append(abs(got - qs.q_dunkl_kernel(ctx, P.alpha, x * t)))
        return _worst(errs), 0.0
    _timed(checks, "q-planewave/expansion-with-ratio-factor", lemma_route, 1e-10)

    def route_report():
        x, t = 1.0, q
        ker = qs.q_dunkl_kernel(ctx, P.alpha, x * t)
        plain = abs(qs.q_planewave_partial_sum(ctx, P, x, t, N, route="plain") - ker)
        lemma = abs(qs.q_planewave_partial_sum(ctx, P, x, t, N, route="lemma") - ker)
        return (1.0 if lemma < plain else 0.0), 1.0
    _timed(checks, "q-planewave/ratio-factor-route-matches", route_report, 0.0)

    def smallest_grid():
        x, t = q ** 8, q
        n = _pw_terms(ctx, P, x, t, 5, 1e-8)
        got = qs.q_planewave_partial_sum(ctx, P, x, t, n, route="lemma")
        return got, qs.q_dunkl_kernel(ctx, P.alpha, x * t)
    _timed(checks, "q-planewave/small-argument-truncation", smallest_grid, 1e-8)

    def cauchy():
        x, t = 1.0, q
        s30 = qs.q_planewave_partial_sum(ctx, P, x, t, N, route="lemma")
        s35 = qs.q_planewave_partial_sum(ctx, P, x, t, N + 5, route="lemma")
        # |s35 - s30| < q^{N(N-1)/4} in logarithms: the bound underflows
        # past N = 66, where the two sums agree to the bit
        diff = abs(s35 - s30)
        ok = diff == 0.0 or math.log(diff) < N * (N - 1) / 4.0 * math.log(q)
        return (1.0 if ok else 0.0), 1.0
    _timed(checks, "q-planewave/partial-sums-cauchy", cauchy, 0.0)

    def forward_lemma():
        ab = P.ab
        fam = qs.QJacobiFamily(ctx, P)
        k, t = 2, q
        f = lambda x: qs.q_neumann(ctx, ab, k, x)
        got = qs.q_transform(ctx, P.alpha, f, t)
        h = fam.norm(k)
        qk = fam.weight(t) * fam.qgegenbauer(k, t) / h
        closed = ((-1j) ** k * q ** ((k // 2) * P.beta) / (1.0 - ctx.q2 ** (k + ab + 1.0))
                  * qs.qpochhammer(ctx.q2 ** (ab + 1.0), ctx.q2) / qs.qpochhammer(ctx.q2, ctx.q2)
                  * qk)
        return got, closed
    _timed(checks, "q-planewave/forward-transform-coefficient", forward_lemma, 1e-11)

    def ultraspherical():
        # q-exponential remark: alpha = -1/2 with beta shifted by -1/2
        be = 0.7
        P2 = Params(-0.5, be - 0.5)
        n = _pw_terms(ctx, P2, 1.0, q, N, 1e-10)
        errs = []
        for (mx, mt) in ((0, 1), (1, 1), (2, 2)):
            x, t = q ** mx, q ** mt
            got = qs.q_planewave_partial_sum(ctx, P2, x, t, n, route="lemma")
            errs.append(abs(got - qs.q_dunkl_kernel(ctx, -0.5, x * t)))
        return _worst(errs), 0.0
    _timed(checks, "q-planewave/ultraspherical-specialization", ultraspherical, 1e-10)

    def q1_limit():
        ctxq1 = qs.QContext(0.999)
        famq1 = qs.QJacobiFamily(ctxq1, P)
        got = famq1.little_p(3, 0.4)
        return got, jacobi_eval(3, P.alpha, P.beta, 1.0 - 2.0 * 0.4)
    _timed(checks, "q-planewave/classical-limit", q1_limit, 5e-2)
    return checks


def suite_q_weber(ov: Mapping) -> list:
    checks: list = []
    ctx = qs.QContext(ov["q"])
    q = ctx.q
    P = Params(ov["alpha"], ov["beta"])
    tuples = ((0.4, 1.3, 2.1, 0, 1), (1.0, 1.3, 1.3, 1, 1), (0.2, 0.7, 1.9, 2, 0),
              (-0.3, 1.1, 2.3, 0, 0), (0.8, 2.0, 1.0, 2, 1), (1.5, 2.4, 1.6, 2, 2))
    for tup in tuples:
        def pair(tup=tup):
            return qs.qweber_lhs(ctx, *tup), qs.qweber_rhs(ctx, *tup)
        lam, mu, nu, m_, n_ = tup
        _timed(checks, f"q-weber/identity/lam={lam}/mu={mu}/nu={nu}/m={m_}/n={n_}",
               pair, 1e-12)

    for (n_, m_) in ((0, 1), (1, 1), (2, 2)):
        _timed(checks, f"q-weber/I-minus/n={n_}/t=q^{m_}",
               lambda n_=n_, m_=m_: (qs.q_i_minus(ctx, P, n_, m_),
                                     qs.q_i_minus_closed(ctx, P, n_, m_)), 1e-12)
        _timed(checks, f"q-weber/I-plus/n={n_}/t=q^{m_}",
               lambda n_=n_, m_=m_: (qs.q_i_plus(ctx, P, n_, m_),
                                     qs.q_i_plus_closed(ctx, P, n_, m_)), 1e-12)

    def vanishing():
        return qs.q_i_minus(ctx, P, 1, -1), 0.0
    _timed(checks, "q-weber/I-minus-vanishes-outside", vanishing, 1e-13)

    def basictransform():
        a, b, c, z = q, q ** 3, q ** 2, 0.3
        lhs = qs.phi21(a, b, c, q, z)
        rhs = (qs.qpochhammer(a * b * z / c, q) / qs.qpochhammer(z, q)
               * qs.phi21(c / a, c / b, c, q, a * b * z / c))
        return lhs, rhs
    _timed(checks, "q-weber/balanced-transformation", basictransform, 1e-13)

    def terminating():
        a = q ** (-4)
        got = qs.phi21(a, 0.3, 0.7, q, 0.9)
        term = 1.0
        brute = 1.0
        for k in range(4):
            term *= ((1.0 - a * q ** k) * (1.0 - 0.3 * q ** k)
                     / ((1.0 - 0.7 * q ** k) * (1.0 - q ** (k + 1)))) * 0.9
            brute += term
        return got, brute
    _timed(checks, "q-weber/terminating-sum", terminating, 1e-15)
    return checks


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# every key a run may override, with the type its value is cast to
_PARAM_TYPES = {"alpha": float, "beta": float, "q": float, "tol": float,
                "terms": int, "k_max": int}

# each suite with the keys it reads and their defaults; a None default
# (planewave's tol) leaves the suite its own per-row tolerances
_Q_DEFAULTS = {"q": 0.5, "alpha": 0.3, "beta": 0.2}
# below this alpha the q suites' sums with the weight |x|^(2 alpha + 1) d_q x
# pass qspec's cap on the small-x end (2 k_max); the three suites pass at
# alpha = -0.75, -0.7, -0.6, -0.55 and -0.5
_Q_ALPHA_MIN = -0.75
_REGISTRY = {
    "planewave": (suite_planewave, {"alpha": 0.3, "beta": 0.2, "terms": 40, "tol": None}),
    "dunkl-sampling": (suite_dunkl_sampling, {"alpha": 0.5}),
    "fourier-neumann": (suite_fourier_neumann, {"alpha": 0.3, "beta": 0.2}),
    "hankel": (suite_hankel, {}),
    "spectrum": (suite_spectrum, {"alpha": 0.4, "beta": 0.1, "k_max": 3, "terms": 80}),
    "lemma71": (suite_lemma71, {"tol": 1e-5}),
    "q-core": (suite_q_core, _Q_DEFAULTS),
    "q-planewave": (suite_q_planewave, {**_Q_DEFAULTS, "terms": 30}),
    "q-weber": (suite_q_weber, _Q_DEFAULTS),
}

SUITE_NAMES = tuple(_REGISTRY) + ("all",)


def run_suite(name: str, overrides: dict | None = None) -> SuiteResult:
    """Run one registered suite (or all of them, merged in registry order).

    An override must be a key the suite declares (for "all", a key some
    suite declares), and is cast to its type; an int key takes only an
    integral value.  Each suite reads its declared keys, overridden where
    given.  The result echoes every value in effect, or for "all" the
    overrides given, since the defaults differ between suites.
    """
    if name != "all" and name not in _REGISTRY:
        raise KeyError(name)
    names = tuple(_REGISTRY) if name == "all" else (name,)
    declared = {key for sub in names for key in _REGISTRY[sub][1]}
    given = {}
    for key, val in (overrides or {}).items():
        if key not in declared:
            takes = ", ".join(k for k in _PARAM_TYPES if k in declared) or "no overrides"
            raise ValueError(f"suite {name} does not take {key!r} (it takes {takes})")
        given[key] = _PARAM_TYPES[key](val)
        if _PARAM_TYPES[key] is int and given[key] != val:
            raise ValueError(f"{key} must be an integer, got {val!r}")
    if not 0.0 < given.get("tol", 1.0) < math.inf:
        raise ValueError(f"tol must be finite and positive, got {given['tol']}")
    if any(sub.startswith("q-") for sub in names) and not given.get("alpha", 0.0) >= _Q_ALPHA_MIN:
        raise ValueError(f"the q suites take alpha >= {_Q_ALPHA_MIN} (their measured "
                         f"domain), got {given['alpha']}")
    t0 = time.perf_counter()
    checks: list = []
    for sub in names:
        fn, defaults = _REGISTRY[sub]
        used = {key: given.get(key, default) for key, default in defaults.items()}
        checks.extend(fn(MappingProxyType(used)))
    params = given if name == "all" else {k: v for k, v in used.items() if v is not None}
    return SuiteResult(suite=name, params=params, checks=checks,
                       runtime_ms=(time.perf_counter() - t0) * 1000.0)
