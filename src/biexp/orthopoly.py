"""Jacobi and generalized Gegenbauer polynomial families.

The generalized Gegenbauer family C_n^{(b+1/2, a+1/2)} is built from Jacobi
polynomials in 1 - 2t^2; it is orthogonal on [-1, 1] for the weight
|t|^{2a+1} (1-t^2)^b and reduces to the classical Gegenbauer family at
a = -1/2.  The reflection-group derivative ("Dunkl operator") acts on it by
a pure index shift, which is what the spectral module exploits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import Params, gamma, lgamma

__all__ = [
    "GenGegenbauerFamily",
    "ConnectionCoeffs",
    "jacobi_eval",
    "jacobi_u_coeffs",
    "classical_gegenbauer",
    "chebyshev_t",
    "dunkl_apply_poly",
]

def _jacobi_rec(n: int, a: float, b: float, x):
    """P_n^{(a,b)} and P_{n-1}^{(a,b)} at x, a float or an array, n >= 1,
    by the three-term recurrence."""
    p0 = x ** 0                       # 1 in the type and shape of x
    p1 = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    for k in range(2, n + 1):
        c = 2.0 * k + a + b
        a1 = 2.0 * k * (k + a + b) * (c - 2.0)
        a2 = (c - 1.0) * (a * a - b * b)
        a3 = (c - 1.0) * c * (c - 2.0)
        a4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * c
        p0, p1 = p1, ((a2 + a3 * x) * p1 - a4 * p0) / a1
    return p1, p0


def jacobi_eval(n: int, a: float, b: float, y):
    """Jacobi polynomial P_n^{(a,b)}(y) at a float or an array y,
    parameters a, b > -1."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if n == 0:
        return y ** 0
    return _jacobi_rec(n, a, b, y)[0]


def jacobi_u_coeffs(n: int, a: float, b: float) -> list:
    """Coefficients c_k with P_n^{(a,b)}(1 - 2u) = sum_k c_k u^k, exact in
    float64 for the low degrees the operator checks use.  The constant
    term (a+1)_n / n! is a running product of ratios, finite wherever the
    coefficients are (a Gamma quotient overflows past a = 170)."""
    pref = 1.0
    for k in range(n):
        pref *= (a + 1.0 + k) / (k + 1.0)
    coeffs = [pref]
    term = pref
    for k in range(n):
        term *= (-(n - k)) * (n + a + b + 1.0 + k) / ((a + 1.0 + k) * (k + 1.0))
        coeffs.append(term)
    return coeffs


@dataclass(frozen=True)
class ConnectionCoeffs:
    """Coefficients A_n, B_n of the weight-raising three-term relation."""

    A: float
    B: float


@dataclass(frozen=True)
class GenGegenbauerFamily:
    """Generalized Gegenbauer family for an index pair (alpha, beta).

    Members have parity (-1)^n and degree exactly n:

        C_{2m}(t)   = (-1)^m ((a+b+1)_m / (a+1)_m)   P_m^{(a,b)}(1-2t^2)
        C_{2m+1}(t) = (-1)^m ((a+b+1)_{m+1}/(a+1)_{m+1}) t P_m^{(a+1,b)}(1-2t^2)

    with (a, b) = (alpha, beta).  Orthogonal for |t|^{2a+1}(1-t^2)^b dt.
    """

    params: Params

    def _pref(self, m: int, r: int) -> float:
        """(-1)^m (a+b+1)_{m+r} / (a+1)_{m+r}, the factor in front of the
        Jacobi polynomial in C_{2m+r}, as one product of ratios (each
        Pochhammer product alone leaves the float range long before it)."""
        a, b = self.params.alpha, self.params.beta
        c, d = a + b + 1.0, a + 1.0
        p = (-1.0) ** m
        for k in range(m + r):
            p *= (c + k) / (d + k)
        return p

    def eval(self, n: int, t):
        """C_n at a float or an array t; OverflowError where a value leaves
        the float range."""
        if n < 0:
            raise ValueError("degree must be >= 0")
        a, b = self.params.alpha, self.params.beta
        m, r = divmod(n, 2)
        v = self._pref(m, r) * t ** r * jacobi_eval(m, a + r, b, 1.0 - 2.0 * t * t)
        # math.isfinite on floats: np.isfinite alone costs more than a low-degree call
        finite = np.isfinite(v).all() if isinstance(v, np.ndarray) else math.isfinite(v)
        if not finite:
            raise OverflowError(f"C_{n} at alpha={a}, beta={b} exceeds the float64 range")
        return v

    def norm(self, n: int) -> float:
        """Squared norm h_n against (1-t^2)^beta dmu_alpha, closed form.

        Where a Gamma factor or their product leaves the float range
        (alpha past about 50), the same quotient is taken in logarithms;
        OverflowError where h_n itself does (alpha past about 150).
        """
        a, b = self.params.alpha, self.params.beta
        m, r = divmod(n, 2)
        s = 1.0 + r
        up, down = (a + 1.0, b + m + 1.0, a + b + m + s), (a + m + s, m + 1.0)
        c = a + b + 2.0 * m + s
        try:
            h = (gamma(up[0]) * gamma(up[1]) * gamma(up[2])
                 / (2.0 ** (a + 1.0) * c
                    * gamma(a + b + 1.0) ** 2 * gamma(down[0]) * gamma(down[1])))
        except OverflowError:
            h = 0.0
        if 0.0 < h < math.inf:
            return h
        log_h = (sum(map(lgamma, up)) - (a + 1.0) * math.log(2.0) - math.log(c)
                 - 2.0 * lgamma(a + b + 1.0) - sum(map(lgamma, down)))
        if not -745.0 < log_h < 709.0:
            raise OverflowError(f"norm h_{n} at alpha={a}, beta={b} is out of range of float64")
        return math.exp(log_h)

    def coeffs(self, n: int) -> list:
        """Monomial coefficients of C_n in t (exact at the low degrees the
        operator identities are checked at)."""
        a, b = self.params.alpha, self.params.beta
        m, r = divmod(n, 2)
        pref = self._pref(m, r)
        out = [0.0] * (n + 1)
        for k, c in enumerate(jacobi_u_coeffs(m, a + r, b)):
            out[2 * k + r] = pref * c
        return out

    def raised(self) -> "GenGegenbauerFamily":
        """The companion family with beta raised by one (weight times 1-t^2)."""
        return GenGegenbauerFamily(Params(self.params.alpha, self.params.beta + 1.0))

    def connection(self, n: int) -> ConnectionCoeffs:
        """A_n, B_n with

            (a+b+1)(1-r^2) C~_{n-1}(r) = A_n C_{n-1}(r) - B_n C_{n+1}(r),

        where C~ is the raised family; closed forms split by parity of n.
        """
        if n < 1:
            raise ValueError("connection needs n >= 1")
        a, b = self.params.alpha, self.params.beta
        if n % 2 == 1:
            k = (n - 1) // 2
            return ConnectionCoeffs(
                A=(b + k + 1.0) * (a + b + k + 1.0) / (a + b + 2.0 * k + 2.0),
                B=(k + 1.0) * (a + k + 1.0) / (a + b + 2.0 * k + 2.0),
            )
        k = n // 2
        return ConnectionCoeffs(
            A=(b + k) * (a + b + k + 1.0) / (a + b + 2.0 * k + 1.0),
            B=k * (a + k + 1.0) / (a + b + 2.0 * k + 1.0),
        )


def chebyshev_t(n: int, t: float) -> float:
    """Chebyshev polynomial T_n(t)."""
    if n == 0:
        return 1.0
    p0, p1 = 1.0, t
    for _ in range(n - 1):
        p0, p1 = p1, 2.0 * t * p1 - p0
    return p1


def classical_gegenbauer(n: int, lam: float, t: float) -> float:
    """Classical Gegenbauer C_n^{lam}(t) for lam > -1/2.

    The degenerate lam = 0 family follows the Chebyshev normalization
    (T_0 and (2/n) T_n), the usual convention for plane-wave expansions.
    """
    if lam == 0.0:
        if n == 0:
            return 1.0
        return 2.0 / n * chebyshev_t(n, t)
    if n == 0:
        return 1.0
    p0, p1 = 1.0, 2.0 * lam * t
    for k in range(2, n + 1):
        p0, p1 = p1, (2.0 * t * (k + lam - 1.0) * p1 - (k + 2.0 * lam - 2.0) * p0) / k
    return p1


def dunkl_apply_poly(alpha: float, coeffs: list) -> list:
    """Apply the reflection-group derivative to a monomial polynomial:

        t^m  ->  (m + (2 alpha + 1) [m odd]) t^{m-1}.

    On even polynomials this is the plain derivative; at alpha = -1/2 it is
    the plain derivative on everything.
    """
    if len(coeffs) <= 1:
        return [0.0]
    out = [0.0] * (len(coeffs) - 1)
    for m in range(1, len(coeffs)):
        factor = m + (2.0 * alpha + 1.0) * (m % 2)
        out[m - 1] = coeffs[m] * factor
    return out
