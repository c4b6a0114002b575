"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success so a verbose run reads as a
checklist; tolerances are pinned here and nowhere else.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from biexp import biortho as bo
from biexp import qspec as qs
from biexp import spectrum as spe
from biexp.orthopoly import GenGegenbauerFamily, dunkl_apply_poly
from biexp.quad import Measure, integrate_bessel_product, integrate_interval
from biexp.specfun import (Params, bessel_j_ratio, bessel_zeros, dunkl_kernel,
                           gamma, lommel_h)
from biexp.suites import SAMPLING_N400_THRESHOLD

X_GRID = (-5.0, -2.0, -0.5, 0.5, 2.0, 5.0)
T_GRID = (-0.9, -0.3, 0.3, 0.9)


def _report(name: str, detail: str):
    print(f"ACCEPT {name}: PASS ({detail})")


def test_a1_classical_plane_wave():
    t0 = time.perf_counter()
    worst = 0.0
    for beta in (0.5, 1.0, 2.3):
        for x in X_GRID:
            for t in T_GRID:
                got = bo.classical_planewave(beta, x, t, 40)
                worst = max(worst, abs(got - complex(math.cos(x * t), math.sin(x * t))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 1.0
    _report("A1", f"worst abs err {worst:.2e}, {elapsed:.2f}s")


def test_a2_dunkl_plane_wave():
    worst = 0.0
    chain = 0.0
    for al in (-0.5, 0.0, 0.7):
        for be in (-0.2, 0.3):
            P = Params(al, be)
            for x in X_GRID:
                for t in T_GRID:
                    got = bo.planewave_partial_sum(P, x, t, 40)
                    worst = max(worst, abs(got - dunkl_kernel(al, x * t)))
                    if al == -0.5:
                        ref = bo.classical_planewave(be + 0.5, x, t, 40)
                        chain = max(chain, abs(got - ref))
    assert worst <= 1e-9
    assert chain <= 1e-12
    _report("A2", f"worst {worst:.2e}, half-integer chain {chain:.2e}")


def test_a3_biorthogonality_gram():
    P = Params(0.3, 0.2)
    ks, bio, fam = bo.neumann_system(P)
    worst = float(np.max(np.abs(bio.gram(range(9), range(9)) - np.eye(9))))
    assert worst <= 1e-8
    _report("A3", f"gram deviation {worst:.2e}")


def test_a4_weber_schafheitlin_oracle():
    t0 = time.perf_counter()
    from biexp.orthopoly import jacobi_eval
    worst = 0.0
    for (al, be, n) in ((0.3, 0.2, 0), (0.3, 0.2, 1), (0.5, -0.1, 2)):
        for t in (0.4, 0.7):
            r = integrate_bessel_product(be, al + be + 2 * n + 1.0, al, t)
            got = t ** (-al) * r.value
            exact = (2.0 ** (-be) * gamma(n + 1.0) / gamma(be + n + 1.0)
                     * (1 - t * t) ** be * jacobi_eval(n, al, be, 1 - 2 * t * t))
            worst = max(worst, abs(got - exact) / abs(exact))
            r = integrate_bessel_product(-be, al + be + 2 * n + 1.0, al, t)
            got = t ** (-al) * r.value
            exact = (2.0 ** be * gamma(al + be + n + 1.0) / gamma(al + n + 1.0)
                     * jacobi_eval(n, al, be, 1 - 2 * t * t))
            worst = max(worst, abs(got - exact) / abs(exact))
    rv = integrate_bessel_product(0.2, 0.3 + 0.2 + 3.0, 0.3, 1.5)
    vanish = abs(1.5 ** (-0.3) * rv.value)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-5
    assert vanish <= 1e-5
    assert elapsed < 20.0
    _report("A4", f"worst rel {worst:.2e}, vanishing {vanish:.2e}, {elapsed:.1f}s")


def test_a5_dunkl_sampling_convergence():
    al = 0.5
    table = bessel_zeros(al + 1.0, 400)
    f = bo.PWFunction(lambda t: (1.0 - t * t) ** 2, al)
    xs = (0.3, 1.7, 4.2)
    fx = {x: f.eval(x) for x in xs}
    errs = {}
    for N in (50, 100, 200, 400):
        errs[N] = max(abs(bo.dunkl_sampling_sum(al, f, x, N, table) - fx[x]) for x in xs)
    assert errs[50] > errs[100] > errs[200] > errs[400]
    assert errs[400] <= SAMPLING_N400_THRESHOLD
    _report("A5", "errors " + " > ".join(f"{errs[N]:.2e}" for N in (50, 100, 200, 400))
            + f", frozen threshold {SAMPLING_N400_THRESHOLD:.0e}")


def test_a6_spectrum():
    t0 = time.perf_counter()
    P = Params(0.4, 0.1)
    prob = spe.SpectralProblem(P, 80, bessel_zeros(P.ab + 1.0, 8))
    worst_res = 0.0
    worst_fun = 0.0
    for k in (1, 2, 3):
        for sign in (1, -1):
            worst_res = max(worst_res, spe.eigen_residual(prob, k, sign, 80))
            for t in (-0.8, -0.3, 0.1, 0.5, 0.9):
                s, c = spe.eigenfunction(prob, k, sign, t, 60)
                worst_fun = max(worst_fun, abs(s - c))
    ab = P.ab
    j = prob.zero(1)
    jab = bessel_j_ratio(ab, j) * j ** ab
    worst_jh = max(abs(bessel_j_ratio(ab + n + 1.0, j) * j ** (ab + n + 1.0)
                       + lommel_h(n - 1, ab + 2.0, 1.0 / j) * jab)
                   for n in range(1, 11))
    pert = spe.eigen_residual(prob, 1, 1, 80, lam=1.01j / j)
    elapsed = time.perf_counter() - t0
    assert worst_res <= 1e-6
    assert worst_fun <= 1e-8
    assert worst_jh <= 1e-10
    assert pert >= 1e-2
    assert elapsed < 5.0
    _report("A6", f"residual {worst_res:.1e}, series-closed {worst_fun:.1e}, "
                  f"identity {worst_jh:.1e}, perturbed {pert:.1e}, {elapsed:.1f}s")


def test_a7_q_suite():
    t0 = time.perf_counter()
    ctx = qs.QContext(0.5)
    q = ctx.q
    q2 = ctx.q2
    P = Params(0.3, 0.2)
    fam = qs.QJacobiFamily(ctx, P)
    gram = fam.gram_matrix_mp(5)
    worst_orth = 0.0
    for n in range(6):
        for m in range(6):
            if n == m:
                exact = ((1 - q) / (1 - q ** (4 * n + 2 * P.ab + 2))
                         * qs.qpochhammer(q2 ** (n + 1.0), q2)
                         * qs.qpochhammer(q2 ** (P.ab + 1.0 + n), q2)
                         / (qs.qpochhammer(q2 ** (P.alpha + 1.0 + n), q2)
                            * qs.qpochhammer(q2 ** (P.beta + 1.0 + n), q2)))
            else:
                exact = 0.0
            worst_orth = max(worst_orth, abs(gram[n][m] - exact))
    worst_weber = 0.0
    for tup in ((0.4, 1.3, 2.1, 0, 1), (1.0, 1.3, 1.3, 1, 1), (0.2, 0.7, 1.9, 2, 0),
                (-0.3, 1.1, 2.3, 0, 0), (0.8, 2.0, 1.0, 2, 1), (1.5, 2.4, 1.6, 2, 2)):
        worst_weber = max(worst_weber,
                          abs(qs.qweber_lhs(ctx, *tup) - qs.qweber_rhs(ctx, *tup)))
    worst_pw = 0.0
    for mx in range(4):
        for mt in range(1, 5):
            x, t = q ** mx, q ** mt
            got = qs.q_planewave_partial_sum(ctx, P, x, t, 30, route="lemma")
            worst_pw = max(worst_pw, abs(got - qs.q_dunkl_kernel(ctx, P.alpha, x * t)))
    fgrid = lambda y: math.exp(-math.log(y) ** 2) if y > 0 else 0.0
    cache = {}

    def hf(y):
        k = round(math.log(y) / math.log(q))
        if k not in cache:
            cache[k] = qs.q_hankel(ctx, 0.3, fgrid, y)
        return cache[k]
    worst_h = max(abs(qs.q_hankel(ctx, 0.3, hf, q ** n) - fgrid(q ** n))
                  for n in range(-2, 5))
    elapsed = time.perf_counter() - t0
    assert worst_orth <= 1e-12
    assert worst_weber <= 1e-12
    assert worst_pw <= 1e-10
    assert worst_h <= 1e-11
    assert elapsed < 5.0
    _report("A7", f"orthogonality {worst_orth:.1e}, weber {worst_weber:.1e}, "
                  f"planewave {worst_pw:.1e}, hankel {worst_h:.1e}, {elapsed:.1f}s")


def test_a8_operator_identities():
    P = Params(0.4, 0.1)
    ab = P.ab
    fam = GenGegenbauerFamily(P)
    up = fam.raised()
    worst = 0.0
    for n in range(1, 11):
        lhs = dunkl_apply_poly(P.alpha, fam.coeffs(n))
        rhs = [2.0 * (ab + 1.0) * c for c in up.coeffs(n - 1)]
        rhs += [0.0] * (len(lhs) - len(rhs))
        scale = max(max(abs(v) for v in rhs), 1.0)
        worst = max(worst, max(abs(x - y) for x, y in zip(lhs, rhs)) / scale)
    assert worst <= 1e-12

    prob = spe.SpectralProblem(P, 80, bessel_zeros(ab + 1.0, 8))
    g = np.zeros(81, dtype=complex)
    g[2] = 1.0
    out, _ = spe.apply_T(prob, g)
    coeffs = np.zeros(82)
    for n in range(1, 81):
        if abs(out[n]) > 0:
            for i, v in enumerate(fam.coeffs(n)):
                coeffs[i] += (out[n] * v).real
    applied = dunkl_apply_poly(P.alpha, list(coeffs))
    target = up.coeffs(2)
    lam_t = max(abs(applied[i] - (target[i] if i < len(target) else 0.0))
                for i in range(len(applied)))
    assert lam_t <= 1e-12

    P2 = Params(0.4, 0.5)
    fam2 = GenGegenbauerFamily(P2)
    mu = Measure.mu_beta_alpha(P2.alpha, P2.beta)
    ortho = max(abs(integrate_interval(lambda t, n=n: fam2.eval(n, t), mu, 60))
                for n in range(1, 7))
    assert ortho <= 1e-8
    _report("A8", f"index-lowering {worst:.1e}, inverse identity {lam_t:.1e}, "
                  f"orthocomplement {ortho:.1e}")


def test_a9_full_verify_under_budget():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "biexp.cli", "verify", "all", "--format", "csv",
         "--out", "/dev/null"],
        capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60.0
    _report("A9", f"verify all exit 0 in {elapsed:.1f}s")
