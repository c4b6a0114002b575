"""mpmath reference values for the eval-pointwise workload.

Each call kind has a reference evaluated in mpmath, an envelope that the
error is measured against, and a tolerance.  The tolerances are the
accuracies the library states or pins in its own tests:

* bessel_j: the README advertises ~1e-13 envelope-relative accuracy for
  order > -1, |x| <= 500; the tier-1 test ``test_against_scipy_all_regimes``
  holds the same envelope, max(|J|, 0.3 sqrt(2/(pi max(x,1)))), at 1e-12.
  That contract is used here.
* dunkl_kernel, |x| > 12: the kernel is 2^a Gamma(a+1) times two J ratios,
  so it inherits the bessel_j contract (1e-12, relative to |E|, which has
  no zeros on the real line).
* dunkl_kernel, |x| <= 12: routed through the bare ascending series
  (bessel_i_norm), which specfun documents as "safe for |x| <= ~12".  The
  series cancels by up to I_a(12)/|E| ~ 1e4-1e5 there, so the tolerance is
  1e-11 relative to |E|.  The worst error each run sees is reported.
* gengeg (GenGegenbauerFamily.eval): jacobi_eval is pinned to 2e-11 in
  tier-1 tests (orthopoly: "hold 1e-11"); the envelope is the family's
  prefactor times the endpoint maximum of the Jacobi polynomial.
* zeros (bessel_zeros): "~1e-13 relative accuracy" (docstring).
* qbessel3: values switch to elevated precision once the series cancels by
  more than 1e3, so the float path keeps ~1e3 ulps; 1e-12 relative.
"""

from __future__ import annotations

import math

import mpmath as mp

TOL = {
    "bessel_j": 1e-12,
    "dunkl_series": 1e-11,
    "dunkl_jratio": 1e-12,
    "gengeg": 2e-11,
    "zeros": 1e-13,
    "qbessel3_grid": 1e-12,
    "qbessel3_off": 1e-12,
}


def _bessel_j(nu, x):
    with mp.workdps(40):
        ref = float(mp.besselj(mp.mpf(nu), mp.mpf(x)))
    env = max(abs(ref), 0.3 * math.sqrt(2.0 / (math.pi * max(x, 1.0))))
    return complex(ref), env


def _dunkl(alpha, x):
    with mp.workdps(40):
        a = mp.mpf(alpha)
        if x == 0.0:
            return 1.0 + 0.0j, 1.0
        ax = abs(mp.mpf(x))
        c = 2 ** a * mp.gamma(a + 1)
        re = c * mp.besselj(a, ax) / ax ** a
        im = c * mp.mpf(x) * mp.besselj(a + 1, ax) / ax ** (a + 1)
        ref = complex(re, im)
    return ref, abs(ref)


def _gengeg(alpha, beta, n, t):
    with mp.workdps(40):
        a, b, tm = mp.mpf(alpha), mp.mpf(beta), mp.mpf(t)
        m, r = divmod(n, 2)
        ja = a + r
        pref = (-1) ** m * mp.rf(a + b + 1, m + r) / mp.rf(a + 1, m + r)
        ref = pref * (tm if r else 1) * mp.jacobi(m, ja, b, 1 - 2 * tm * tm)
        env = abs(pref) * max(abs(mp.jacobi(m, ja, b, 1)),
                              abs(mp.jacobi(m, ja, b, -1)))
        return complex(float(ref)), float(max(abs(ref), env))


def _zeros(nu, k):
    with mp.workdps(30):
        ref = float(mp.besseljzero(mp.mpf(nu), k))
    return complex(ref), ref


def _qbessel3(nu, x, Q):
    # J_nu^(3)(x; Q) = (Q^{nu+1};Q)_inf/(Q;Q)_inf x^nu
    #                  * sum_k (-1)^k Q^{k(k+1)/2} x^{2k} / ((Q^{nu+1};Q)_k (Q;Q)_k)
    # Every q-power is formed from the same binary nu and Q; the working
    # precision covers the largest term plus 30 digits, and is raised until
    # two precisions agree.
    lx2 = 2.0 * math.log10(max(x, 1e-300))
    lq = math.log10(Q)
    peak = max(k * lx2 + 0.5 * k * (k + 1) * lq for k in range(400))
    dps = 30 + int(max(peak, 0.0))
    prev = None
    for _ in range(4):
        with mp.workdps(dps):
            Qm, num = mp.mpf(Q), mp.mpf(nu) + 1
            xm = mp.mpf(x)
            x2 = xm * xm
            t = s = mp.mpf(1)
            k = 0
            while True:
                k += 1
                t = -t * Qm ** k * x2 / ((1 - Qm ** (num + k - 1)) * (1 - Qm ** k))
                s += t
                if k > 10 and abs(t) < abs(s) * mp.mpf(10) ** (-dps):
                    break
            val = mp.qp(Qm ** num, Qm) / mp.qp(Qm, Qm) * s * xm ** mp.mpf(nu)
            cur = complex(float(val))
        if prev is not None and abs(cur - prev) <= 1e-15 * abs(cur):
            break
        prev = cur
        dps += 20
    return cur, abs(cur)


_REF = {
    "bessel_j": _bessel_j,
    "dunkl_series": _dunkl,
    "dunkl_jratio": _dunkl,
    "gengeg": _gengeg,
    "zeros": _zeros,
    "qbessel3_grid": _qbessel3,
    "qbessel3_off": _qbessel3,
}


def margin(kind: str, args: list, got: complex) -> tuple:
    """(error / envelope / tolerance, error / envelope) for one call."""
    ref, env = _REF[kind](*args)
    err = abs(got - ref) / env if env > 0.0 else abs(got - ref)
    return err / TOL[kind], err
