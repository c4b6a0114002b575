"""Jacobi and generalized Gegenbauer polynomial families.

The generalized Gegenbauer family C_n^{(b+1/2, a+1/2)} is built from Jacobi
polynomials in 1 - 2t^2; it is orthogonal on [-1, 1] for the weight
|t|^{2a+1} (1-t^2)^b and reduces to the classical Gegenbauer family at
a = -1/2.  The reflection-group derivative ("Dunkl operator") acts on it by
a pure index shift, which is what the spectral module exploits.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .specfun import Params, gamma, lgamma

__all__ = [
    "GenGegenbauerFamily",
    "jacobi_eval",
    "jacobi_u_coeffs",
    "classical_gegenbauer",
    "dunkl_apply_poly",
]

def _jacobi_rows(n: int, a: float, b: float, x, keep=None):
    """P_0^{(a,b)}(x), ..., P_n^{(a,b)}(x) at a float or an array x, one row
    at a time: the one loop, for floats and arrays alike, that steps
    P_k = (A_k + B_k x) P_{k-1} - C_k P_{k-2}, its coefficients inline.

    On an array a step scales the row two below in place, so only the last
    two rows drawn hold their values.  keep holds (row, m) pairs, rows
    ascending and the last one row n: the loop runs to each row in turn and
    then steps only the first m nodes (all of them where m is 0).  Without
    it the loop runs to row n at once, so a float pays for it once a call."""
    p0 = x ** 0                       # 1 in the type and shape of x
    yield p0
    if n == 0:
        return
    p1 = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    yield p1
    k = 2
    for stop, m in keep or ((n, 0),):
        while k <= stop:
            c = 2.0 * k + a + b
            a1 = 2.0 * k * (k + a + b) * (c - 2.0)
            t = x * ((c - 1.0) * c * (c - 2.0) / a1)
            t += (c - 1.0) * (a * a - b * b) / a1
            t *= p1
            p0 *= 2.0 * (k + a - 1.0) * (k + b - 1.0) * c / a1
            t -= p0
            p0, p1 = p1, t
            k += 1
            yield p1
        if m:
            x, p0, p1 = x[:m], p0[:m], p1[:m]


def _jacobi_rec(ns, a: float, b: float, xs) -> list:
    """(P_n^{(a,b)}, P_{n-1}^{(a,b)}) at the node array of xs of each order
    n >= 1 of ns, from one _jacobi_rows sweep over the concatenated nodes,
    largest order first, to the largest order: rows n - 1 and n are read
    for each order and its nodes dropped after row n, so each gets the
    values of a sweep of its own, to the bit, and no node steps past its
    order."""
    order = sorted(range(len(ns)), key=lambda i: -ns[i])
    cut = np.cumsum([0] + [len(xs[i]) for i in order]).tolist()
    at: dict = {}
    for j, i in enumerate(order):
        at.setdefault(ns[i], []).append((j, i))
    top = ns[order[0]]
    out: list = [None] * len(ns)
    prev = None
    rows = _jacobi_rows(top, a, b, np.concatenate([xs[i] for i in order]),
                        sorted((n, cut[js[0][0]] if n < top else 0) for n, js in at.items()))
    for k, row in enumerate(rows):
        # copies: the sweep scales the row two below in place
        for j, i in at.get(k, ()):
            out[i] = row[cut[j]:cut[j + 1]].copy(), prev[cut[j]:cut[j + 1]].copy()
        prev = row
    return out


def jacobi_eval(n: int, a: float, b: float, y):
    """Jacobi polynomial P_n^{(a,b)}(y) at a float or an array y,
    parameters a, b > -1."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return deque(_jacobi_rows(n, a, b, y), maxlen=1)[0]


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
class GenGegenbauerFamily:
    """Generalized Gegenbauer family for an index pair (alpha, beta).

    Members have parity (-1)^n and degree exactly n:

        C_{2m}(t)   = (-1)^m ((a+b+1)_m / (a+1)_m)   P_m^{(a,b)}(1-2t^2)
        C_{2m+1}(t) = (-1)^m ((a+b+1)_{m+1}/(a+1)_{m+1}) t P_m^{(a+1,b)}(1-2t^2)

    with (a, b) = (alpha, beta).  Orthogonal for |t|^{2a+1}(1-t^2)^b dt.
    """

    params: Params

    def _pass(self, m: int, r: int, t, rows: list | None = None):
        """C_{2m+r} at t from one Jacobi pass in 1 - 2t^2 with a running
        prefactor, a product of ratios (each Pochhammer product alone leaves
        the float range long before it); appends C_r, ..., C_{2m+r} to rows."""
        a, b = self.params.alpha, self.params.beta
        c, d = a + b + 1.0, a + 1.0
        tr = t ** r
        p = 1.0
        # row k = j + 1 - r takes the ratios up to index j
        for j, pk in enumerate(_jacobi_rows(m, a + r, b, 1.0 - 2.0 * t * t), r - 1):
            if j >= 0:
                p *= (c + j) / (d + j)
            if rows is not None:
                rows.append((-p if (j + 1 - r) % 2 else p) * tr * pk)
        return (-p if m % 2 else p) * tr * pk

    def eval(self, n: int, t):
        """C_n at a float or an array t; OverflowError past the float range."""
        if n < 0:
            raise ValueError("degree must be >= 0")
        v = self._pass(*divmod(n, 2), t)
        # math.isfinite on floats: np.isfinite alone costs more than a low-degree call
        if not (np.isfinite(v).all() if isinstance(v, np.ndarray) else math.isfinite(v)):
            a, b = self.params.alpha, self.params.beta
            raise OverflowError(f"C_{n} at alpha={a}, beta={b} exceeds the float64 range")
        return v

    def table(self, N: int, t) -> np.ndarray:
        """C_0, ..., C_N at a float or an array t from one pass per parity,
        row n equal to eval(n, t) to the bit; OverflowError as eval."""
        tab = np.empty((N + 1,) + np.shape(t))
        # a non-finite value raises below, so numpy need not warn of it
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(min(N + 1, 2)):
                rows: list = []
                self._pass((N - r) // 2, r, t, rows)
                tab[r::2] = rows
        if not np.isfinite(tab).all():
            a, b = self.params.alpha, self.params.beta
            raise OverflowError(f"C_0..C_{N} at alpha={a}, beta={b} exceed the float64 range")
        return tab

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
        # the prefactor of C_n, with its ratios in the order of the pass
        pref = math.prod(((a + b + 1.0 + k) / (a + 1.0 + k) for k in range(m + r)),
                         start=(-1.0) ** m)
        out = [0.0] * (n + 1)
        for k, c in enumerate(jacobi_u_coeffs(m, a + r, b)):
            out[2 * k + r] = pref * c
        return out

    def raised(self) -> "GenGegenbauerFamily":
        """The companion family with beta raised by one (weight times 1-t^2)."""
        return GenGegenbauerFamily(Params(self.params.alpha, self.params.beta + 1.0))


def classical_gegenbauer(N: int, lam: float, t) -> np.ndarray:
    """Classical Gegenbauer C_0^lam(t), ..., C_N^lam(t), lam > -1/2, at a
    float or an array t, from their own recurrence in t (kept apart from
    the Jacobi one: the half-integer plane-wave check compares the two)."""
    rows = [t ** 0, 2.0 * lam * t]
    for k in range(2, N + 1):
        rows.append((2.0 * t * (k + lam - 1.0) * rows[-1] - (k + 2.0 * lam - 2.0) * rows[-2]) / k)
    return np.asarray(rows[:N + 1])


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
