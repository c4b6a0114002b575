"""Spectrum of the right inverse of the reflection-group derivative.

The derivative maps the generalized Gegenbauer family down by one index
while raising the weight exponent; the right inverse T therefore acts on
coefficient space by a connection change plus an index shift.  Its point
spectrum is {+-i/j_k} over the positive zeros j_k of J_{a+b+1}, and each
eigenfunction has both a coefficient-space series (through modified Lommel
polynomial values) and a closed kernel form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .orthopoly import GenGegenbauerFamily
from .specfun import Params, ZeroTable, bessel_j, dunkl_kernel, gamma

__all__ = [
    "SpectralProblem",
    "apply_T",
    "raised_from_base",
    "recurrence_coeffs",
    "eigenvalues",
    "eigen_coeffs",
    "eigenfunction",
    "eigen_residual",
    "bound_constant",
]


@dataclass(frozen=True)
class SpectralProblem:
    """Truncated coefficient-space model of the right-inverse operator."""

    params: Params
    N: int
    table: ZeroTable

    def __post_init__(self):
        if self.N < 10:
            raise ValueError("basis truncation must be >= 10")

    @property
    def family(self) -> GenGegenbauerFamily:
        return GenGegenbauerFamily(self.params)

    def zero(self, k: int) -> float:
        if k > len(self.table):
            raise ValueError(f"zero table holds {len(self.table)} zeros, asked for {k}")
        return self.table.zeros[k - 1]


def raised_from_base(problem: SpectralProblem, a: np.ndarray) -> np.ndarray:
    """Convert coefficients over C_n^{(b+1/2,a+1/2)} (n = 1..N, slot 0
    unused) to the raised family C_m^{(b+3/2,a+1/2)} (m = 0..N):

        C_n = (a+b+1)/(a+b+n+1) (C~_n - C~_{n-2}).
    """
    ab = problem.params.ab
    N = problem.N
    out = np.zeros(N + 1, dtype=complex)
    for n in range(1, N + 1):
        c = a[n] * (ab + 1.0) / (ab + n + 1.0)
        out[n] += c
        if n >= 2:
            out[n - 2] -= c
    return out


def apply_T(problem: SpectralProblem, g: np.ndarray) -> np.ndarray:
    """Apply the right inverse in coefficient space to g, coefficients over
    the raised family C_m^{(b+3/2,a+1/2)} (slots 0..N; raised_from_base
    converts from the base family).

    The operator shifts g_{n-1}/(2(a+b+1)) into slot n of the base family;
    returns its coefficients, slots 0..N (g_N falls beyond the window).
    """
    g = np.asarray(g, dtype=complex)
    return np.concatenate([[0.0], g[:problem.N] / (2.0 * (problem.params.ab + 1.0))])


def recurrence_coeffs(problem: SpectralProblem, lam: complex, N: int) -> np.ndarray:
    """Forward eigen-coefficient recurrence from the seed a_1 = 1:

        a_2     = -2 lam (a+b+3) a_1
        a_{n+1} = (a+b+n+2) (a_{n-1}/(a+b+n) - 2 lam a_n),  n >= 2.

    Numerically useful at small n only: at an eigenvalue the true solution
    is minimal and forward recursion loses it to rounding noise (growth
    like Gamma(n)(2/j)^n); eigen_coeffs holds the stable route.  Past
    2^400 the vector is scaled by 2^-400, exactly: the same solution up to
    a power of two, whose squares stay finite.
    """
    if lam == 0:
        raise ValueError("lam must be nonzero")
    ab = problem.params.ab
    a = np.zeros(N + 1, dtype=complex)
    a[1] = 1.0
    if N >= 2:
        a[2] = -2.0 * lam * (ab + 3.0)
    for n in range(2, N):
        a[n + 1] = (ab + n + 2.0) * (a[n - 1] / (ab + n) - 2.0 * lam * a[n])
        if abs(a[n + 1]) > 2.0 ** 400:
            a[:n + 2] /= 2.0 ** 400
    return a


def eigenvalues(problem: SpectralProblem, k_max: int) -> list:
    """The 2 k_max eigenvalues {+- i / j_k}, purely imaginary conjugate
    pairs of strictly decreasing magnitude."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if k_max > len(problem.table):
        raise ValueError("zero table too short for k_max")
    out = []
    for k in range(1, k_max + 1):
        j = problem.zero(k)
        out.append(complex(0.0, 1.0 / j))
        out.append(complex(0.0, -1.0 / j))
    return out


def eigen_coeffs(problem: SpectralProblem, k: int, sign: int, N: int) -> np.ndarray:
    """Eigenfunction coefficients over the base family, n = 1..N, a_1 = 1.

    Uses a_n = (-+ i)^{n-1} (a+b+n+1)/(a+b+2) h_{n-1}(1/j) with the
    modified Lommel values taken from the Bessel identity

        h_{n-1, a+b+2}(1/j) = -J_{a+b+n+1}(j) / J_{a+b}(j)

    at a zero j of J_{a+b+1}; the right side decays factorially and is the
    numerically stable form (the Lommel recurrence itself is dominated by
    the second-kind solution at these arguments).
    """
    if sign not in (1, -1):
        raise ValueError("sign is +1 or -1")
    ab = problem.params.ab
    j = problem.zero(k)
    jab = bessel_j(ab, j)
    a = np.zeros(N + 1, dtype=complex)
    base = (-1j * sign)
    for n in range(1, N + 1):
        h = -bessel_j(ab + n + 1.0, j) / jab
        a[n] = base ** (n - 1) * (ab + n + 1.0) / (ab + 2.0) * h
    return a


def eigenfunction(problem: SpectralProblem, k: int, sign: int, t: float,
                  N: int) -> tuple:
    """Eigenfunction at t by two independent routes: the coefficient series
    over the base family and the closed kernel form

        g(t) = -+ i (j/2)^{a+b+1} E_a(-+ i t j)
               / (Gamma(a+b+1) (a+b+2) J_{a+b}(j)).

    The kernel argument carries the imaginary unit: the expansion it is
    summed from is in E_a(ixt), and series/closed-form agreement pins the
    convention.  Returns (series value, closed-form value).
    """
    if abs(t) > 1.0:
        raise ValueError("|t| <= 1 required")
    ab = problem.params.ab
    al = problem.params.alpha
    j = problem.zero(k)
    a = eigen_coeffs(problem, k, sign, N)
    cs = problem.family.table(N, t).tolist()
    series = sum(a[n] * cs[n] for n in range(1, N + 1))
    jab = bessel_j(ab, j)
    closed = (-sign * 1j * (0.5 * j) ** (ab + 1.0)
              * dunkl_kernel(al, -sign * t * j)
              / (gamma(ab + 1.0) * (ab + 2.0) * jab))
    return complex(series), complex(closed)


def _norm_raised(raised: np.ndarray, hs: list) -> float:
    """L2 norm against the raised-weight measure from raised coefficients
    and the raised family's squared norms hs."""
    total = 0.0
    for c, h in zip(raised, hs):
        total += abs(c) ** 2 * h
    return math.sqrt(total)


def eigen_residual(problem: SpectralProblem, k: int, sign: int,
                   lam: complex | None = None) -> float:
    """Relative residual ||T g - lam g|| / ||g|| in the raised-weight L2
    space, computed in coefficient space over the problem's N terms.

    lam defaults to the exact eigenvalue sign * i / j_k, whose coefficients
    come from the stable Bessel-quotient route.  Passing any other lam runs
    the defining forward recurrence instead: away from the spectrum its
    solution violates the summability condition and the truncated residual
    blows up, which is exactly the rejection signal.
    """
    N = problem.N
    j = problem.zero(k)
    exact = complex(0.0, sign / j)
    if lam is None or lam == exact:
        lam = exact
        a = eigen_coeffs(problem, k, sign, N)
    else:
        a = recurrence_coeffs(problem, lam, N)
    ta = apply_T(problem, raised_from_base(problem, a))
    r = ta - lam * a
    up = problem.family.raised()
    hs = [up.norm(m) for m in range(N + 1)]
    num = _norm_raised(raised_from_base(problem, r), hs)
    den = _norm_raised(raised_from_base(problem, a), hs)
    return num / den


def bound_constant(problem: SpectralProblem) -> float:
    """Norm bound M of the right inverse: M^2 = sup_n h_{n+1}/(4(a+b+1)^2
    h~_n) over the interlaced base/raised norms; the parity-split ratios

        h_{2k+1}/h~_{2k} = (a+b+1)^2/((b+k+1)(a+k+1))
        h_{2k}/h~_{2k-1} = (a+b+1)^2/(k(a+b+k+1))

    make the supremum finite (attained at small k)."""
    a, b = problem.params.alpha, problem.params.beta
    ab = problem.params.ab
    sup = 0.0
    for k in range(0, problem.N):
        r_odd = (ab + 1.0) ** 2 / ((b + k + 1.0) * (a + k + 1.0))
        sup = max(sup, r_odd)
        if k >= 1:
            r_even = (ab + 1.0) ** 2 / (k * (ab + k + 1.0))
            sup = max(sup, r_even)
    return math.sqrt(sup / (4.0 * (ab + 1.0) ** 2))
