"""Numerical integration engines.

Two families of tools live here:

* Gauss rules for the weighted measures |t|^{2a+1}(1-t^2)^b dt on [-1, 1]
  (normalized) used by every expansion, built by Newton iteration on the
  recurrence-defined Jacobi polynomials.
* Semi-infinite oscillatory integrals of Bessel products, integrated cell
  by cell between zeros of the faster factor and extrapolated to infinity
  by sequence acceleration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .orthopoly import _jacobi_rec
from .specfun import _jratio_array, bessel_zeros, gamma, lgamma

__all__ = [
    "gauss_jacobi",
    "gauss_jacobi01",
    "rule_for_measure",
    "integrate_interval",
    "integrate_bessel_product",
    "BesselProductResult",
    "accelerate",
    "mcmahon_zero",
]


# ---------------------------------------------------------------------------
# Gauss-Jacobi rules
# ---------------------------------------------------------------------------

def _jacobi_newton(n: int, a: float, b: float, x: np.ndarray, iters: int):
    """Newton on all n roots of P_n^{(a,b)} at once from x; the derivative
    comes from the standard first-order relation.

    Returns (x ascending, dp, ok): x the last iterate that a Newton step
    produced, once the next steps from it fall below 1e-15, and dp the
    derivative there from the same recurrence pass, so the weights need no
    pass of their own.  ok means that held at n distinct roots: none held
    at the clip by +-1, where the 1/(1-x^2) of the derivative fakes a tiny
    step, and P_{n-1} alternating in sign over them, as it does over the
    true roots, which it interlaces.
    """
    c = 2.0 * n + a + b
    for i in range(iters):
        pn, pn1 = _jacobi_rec(n, a, b, x)
        dp = (n * (a - b - c * x) * pn + 2.0 * (n + a) * (n + b) * pn1) / (c * (1.0 - x * x))
        dx = pn / dp
        if i and np.max(np.abs(dx)) < 1e-15:
            order = np.argsort(x)
            sign = np.sign(pn1[order])
            return x[order], dp[order], bool(np.all(np.abs(x) < 1.0 - 1e-14)
                                             and np.all(sign[1:] * sign[:-1] < 0))
        x = np.clip(x - dx, -1.0 + 1e-14, 1.0 - 1e-14)
    return np.sort(x), None, False


def _jacobi_matrix_roots(n: int, a: float, b: float) -> np.ndarray:
    """Roots of P_n^{(a,b)}, ascending, as the eigenvalues of the symmetric
    tridiagonal Jacobi matrix of the recurrence (Golub and Welsch, Math.
    Comp. 23, 1969).  The first diagonal and off-diagonal entries are
    written in the forms that stay finite at a + b = 0 and a + b = -1."""
    s = 2.0 * np.arange(n, dtype=float) + a + b        # 2k + a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s[1:] * (s[1:] + 2.0))
    k, s = np.arange(2.0, n), s[2:]
    off2 = np.empty(n - 1)                              # squared, k = 1 .. n-1
    off2[:1] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    off2[1:] = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    off = np.sqrt(off2)
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


# one table of Bessel zeros per (order, count) for the end starts
_end_zero_cache: dict = {}


def _end_angles(n: int, a: float, b: float, m: int) -> np.ndarray:
    """Angles theta of the m roots x = cos(theta) of P_n^{(a,b)} nearest
    x = 1, ascending, from the zeros j_k of J_a: Gatteschi's Bessel formula
    theta_k = j_k/v (1 - (4 - a^2 - 15 b^2)(j_k^2/2 + a^2 - 1)/(720 v^4)),
    v^2 = rho^2 + (1 - a^2 - 3 b^2)/12 (Hale and Townsend, SIAM J. Sci.
    Comput. 35, 2013, A652-A674)."""
    key = (a, m)
    if key not in _end_zero_cache:
        _end_zero_cache[key] = np.asarray(bessel_zeros(a, m).zeros)
    j = _end_zero_cache[key]
    rho = n + 0.5 * (a + b + 1.0)
    v2 = rho * rho + (1.0 - a * a - 3.0 * b * b) / 12.0
    return j / math.sqrt(v2) * (1.0 - (4.0 - a * a - 15.0 * b * b)
                                * (0.5 * j * j + a * a - 1.0) / (720.0 * v2 * v2))


def _start_angles(n: int, a: float, b: float) -> np.ndarray:
    """Newton starts for the roots x = cos(theta) of P_n^{(a,b)}, theta
    ascending: the 10 + floor(a) roots nearest x = 1 from the Bessel zeros of
    order a, the 10 + floor(b) nearest x = -1 likewise (by P_n^{(a,b)}(-x) =
    (-1)^n P_n^{(b,a)}(x)), and the roots between from the interior formula
    of Gatteschi and Pittaluga (1985).  Where the two end blocks would meet,
    they split the n roots in proportion to their sizes."""
    rho = n + 0.5 * (a + b + 1.0)
    phi = math.pi * (np.arange(1, n + 1) + 0.5 * a - 0.25) / rho
    h = np.tan(0.5 * phi)
    theta = phi + ((0.25 - a * a) / h - (0.25 - b * b) * h) / (4.0 * rho * rho)
    ma, mb = 10 + math.floor(a), 10 + math.floor(b)
    if ma + mb > n:
        ma = round(n * ma / (ma + mb))
        mb = n - ma
    if ma:
        theta[:ma] = _end_angles(n, a, b, ma)
    if mb:
        theta[n - mb:] = math.pi - _end_angles(n, b, a, mb)[::-1]
    return theta


def gauss_jacobi(n: int, a: float, b: float):
    """Nodes/weights on [-1, 1] for the weight (1-x)^a (1+x)^b, a, b > -1.

    All n roots are polished at once by Newton from asymptotic starts
    (_start_angles).  Where that does not converge to n distinct roots,
    they start from the eigenvalues of the Jacobi matrix instead and get
    the same polish.  The weights take the derivative from the recurrence
    pass that certified the nodes, so a default rule costs two passes.
    Returns (nodes ascending, weights); raises
    OverflowError where a weight leaves the float64 range.
    """
    if n < 1:
        raise ValueError("rule order must be >= 1")
    if not (a > -1.0 and b > -1.0):
        raise ValueError("Jacobi exponents must exceed -1")
    x, dp, ok = _jacobi_newton(n, a, b, np.cos(_start_angles(n, a, b)), 100)
    if not ok:
        x, dp, ok = _jacobi_newton(n, a, b, _jacobi_matrix_roots(n, a, b), 10)
    if not ok:
        raise RuntimeError(f"Gauss-Jacobi roots for ({n}, {a}, {b}) did not converge "
                           "(internal error)")
    lc = (
        (a + b + 1.0) * math.log(2.0)
        + lgamma(n + a + 1.0)
        + lgamma(n + b + 1.0)
        - lgamma(n + a + b + 1.0)
        - lgamma(n + 1.0)
    )
    with np.errstate(over="ignore"):
        w = math.exp(lc) / ((1.0 - x * x) * dp * dp)
        big = ~np.isfinite(dp * dp)
    # where dp^2 leaves the float range, the weight from logarithms; a dp
    # or a weight past that range refuses the rule
    w[big] = np.exp(lc - np.log1p(-x[big] ** 2) - 2.0 * np.log(np.abs(dp[big])))
    if not np.all(w[big] > 0.0):
        raise OverflowError(f"Gauss-Jacobi rule ({n}, {a}, {b}) leaves the float64 range")
    if np.any(np.diff(x) <= 0) or np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise RuntimeError("Gauss-Jacobi construction failed (internal error)")
    return x, w


def gauss_jacobi01(n: int, a: float, b: float):
    """Nodes/weights on (0, 1) for the weight u^a (1-u)^b."""
    z, w = gauss_jacobi(n, b, a)     # (1-z)^b (1+z)^a on [-1,1]
    u = 0.5 * (1.0 + z)
    return u, w * 2.0 ** (-a - b - 1.0)


# ---------------------------------------------------------------------------
# Rules for the measures on [-1, 1]
# ---------------------------------------------------------------------------

_rule_cache: dict = {}


def rule_for_measure(a: float, b: float, order: int):
    """Symmetric rule on [-1, 1] for |t|^{2a+1} (1-t^2)^b dt / (2^{a+1}
    Gamma(a+1)), a, b > -1 ((-1/2, 0) gives dt / sqrt(2 pi)), as read-only
    (nodes, weights) arrays cached per (a, b, order), which every caller
    shares.  The nodes are the pairs +-sqrt(u_i) of the rule of this order
    mapped by u = t^2 onto the weight u^a (1-u)^b; odd integrands then
    cancel exactly and even ones inherit the Gauss exactness in u.
    """
    if order < 8:
        raise ValueError("order must be >= 8")
    key = (round(a, 14), round(b, 14), order)
    if key not in _rule_cache:
        u, w = gauss_jacobi01(order, a, b)
        norm = 2.0 ** (a + 1.0) * gamma(a + 1.0)
        t = np.sqrt(u)
        rule = (np.concatenate([-t[::-1], t]), np.concatenate([w[::-1], w]) / (2.0 * norm))
        for arr in rule:
            arr.flags.writeable = False
        _rule_cache[key] = rule
    return _rule_cache[key]


def integrate_interval(f: Callable, a: float, b: float, order: int):
    """Integrate f against the measure of rule_for_measure(a, b, order)
    over [-1, 1] (the odd part of f integrates to zero against the even
    density, exactly); f is called once, on the node array, and returns
    its values there (a constant broadcasts)."""
    x, w = rule_for_measure(a, b, order)
    # a non-finite sample raises below, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fx = np.broadcast_to(f(x), x.shape)
    if not np.all(np.isfinite(np.abs(fx))):
        raise ValueError("integrand produced a non-finite sample")
    return complex(np.dot(w, fx)) if np.iscomplexobj(fx) else float(np.dot(w, fx))


# ---------------------------------------------------------------------------
# Oscillatory Bessel-product integrals on (0, inf)
# ---------------------------------------------------------------------------

def mcmahon_zero(nu: float, k: int) -> float:
    """McMahon approximation to the k-th positive zero of J_nu.

    Used only to place integration cell edges, so two correction terms are
    plenty; accuracy is ~1e-4 already at k = 3 for desk-scale orders.
    """
    mu = 4.0 * nu * nu
    b = (k + 0.5 * nu - 0.25) * math.pi
    z = b - (mu - 1.0) / (8.0 * b) - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * b) ** 3)
    return z


def _wynn_eps(seq: list):
    """Wynn's epsilon algorithm (the systematic iterated-Aitken scheme).

    Even columns estimate the limit; deepening stops paying once rounding
    noise takes over, so the best candidate is the even-column tail entry
    whose change from the previous even column is smallest.
    """
    e0 = [complex(v) for v in seq]
    n = len(e0)
    if n < 3:
        return e0[-1], float("inf")
    em1 = [0.0 + 0.0j] * (n + 1)
    cur = e0
    cands = [(abs(e0[-1] - e0[-2]), e0[-1])]
    col = 0  # index of the column held in cur; even columns carry values
    while len(cur) >= 2 and col < 24:
        nxt = []
        scale = max(abs(v) for v in cur) + 1e-300
        singular = False
        for i in range(len(cur) - 1):
            d = cur[i + 1] - cur[i]
            if abs(d) < 1e-15 * scale:
                # column converged to rounding level; for a value column
                # that entry is the limit, either way deepening is over
                if col % 2 == 0:
                    cands.append((abs(d), cur[i + 1]))
                singular = True
                break
            nxt.append(em1[i + 1] + 1.0 / d)
        if singular:
            break
        em1, cur = cur, nxt
        col += 1
        if col % 2 == 0 and len(cur) >= 2:
            cands.append((abs(cur[-1] - cur[-2]), cur[-1]))
    err, best = min(cands, key=lambda p: p[0])
    return best, err


def _neville(seq, idx: list, xs):
    """Neville's table extrapolating seq to the abscissa 0: the samples
    seq[i - 1] for i in idx (1-based, ascending) sit at the abscissas xs.

    Returns (value, error estimate); the estimate is the distance of the
    value from both ends of the last column but one."""
    tbl = [complex(seq[i - 1]) for i in idx]
    m = len(tbl)
    prev = tbl
    for lvl in range(1, m):
        new = []
        for i in range(m - lvl):
            x0, x1 = xs[i], xs[i + lvl]
            new.append((x1 * tbl[i] - x0 * tbl[i + 1]) / (x1 - x0))
        prev, tbl = tbl, new
    return tbl[0], abs(tbl[0] - prev[0]) + abs(tbl[0] - prev[-1])


def accelerate(partial: list):
    """Extrapolate a sequence of partial sums to its limit.

    Monotone tails (squared-Bessel cells decay like x^{-2} with no sign
    change) go through Richardson extrapolation in 1/k; oscillatory tails,
    including two-frequency beats from products of different arguments, go
    through Wynn's epsilon algorithm, i.e. iterated Aitken to depth >= 4
    whenever enough cells are available.  Returns (value, error_estimate).
    """
    s = [complex(v) for v in partial]
    n = len(s)
    if n < 3:
        return s[-1], float("inf")
    tail = np.asarray(s[-min(n, 12):])
    d = np.diff(tail)
    re = d.real if np.max(np.abs(d.imag)) <= np.max(np.abs(d.real)) else d.imag
    signs = np.sign(re[np.abs(re) > 0])
    monotone = len(signs) >= 3 and np.all(signs[1:] * signs[:-1] > 0)
    if not monotone:
        return _wynn_eps(s[-min(n, 36):])

    # Richardson in 1/k on geometrically spread sample indices (consecutive
    # nodes are too close for a well-conditioned Neville table).  Two spreads
    # are tried: one reaching the whole history (best when the asymptotic
    # expansion holds from the start) and one anchored to the tail (best
    # when early cells are pre-asymptotic); the error estimate arbitrates.
    def richardson(idx: list):
        idx = sorted(set(idx))
        if len(idx) < 3:
            return s[-1], abs(s[-1] - s[-2])
        return _neville(s, idx, 1.0 / np.asarray(idx, dtype=float))

    def geometric(min_idx: int) -> list:
        idx = []
        v = float(n)
        while v >= min_idx and len(idx) < 9:
            idx.append(int(round(v)))
            v /= 1.35
        return idx

    cands = [richardson(geometric(1)),
             richardson(geometric(max(3, n // 3))),
             richardson(list(range(max(1, n - 8), n + 1)))]
    return min(cands, key=lambda p: p[1])


@dataclass
class BesselProductResult:
    value: float
    converged: bool
    cells: int
    error_estimate: float
    last_partials: tuple


_leg16 = None


def _legendre16():
    global _leg16
    if _leg16 is None:
        _leg16 = gauss_jacobi(16, 0.0, 0.0)
    return _leg16


def _first_cell_rule(c: float):
    """24-point rule on (0, 1) for the weight u^c (cached): the first cell
    of an integral whose integrand carries the factor x^c."""
    key = ("cell0", round(c, 14))
    if key not in _rule_cache:
        _rule_cache[key] = gauss_jacobi01(24, c, 0.0)
    return _rule_cache[key]


# the cell cap of integrate_bessel_product, and the absolute error it
# accepts for values near zero
_MAX_CELLS = 400
_ATOL = 1e-9


def _out_of_range(lam: float, mu: float, nu: float, t: float) -> OverflowError:
    return OverflowError(f"Bessel-product integral at (lam, mu, nu, t) = ({lam}, {mu}, {nu}, {t}) "
                         "leaves the float64 range")


def integrate_bessel_product(lam: float, mu: float, nu: float, t: float,
                             rtol: float = 1e-7) -> BesselProductResult:
    """Oscillatory integral  int_0^inf x^(-lam) J_mu(x) J_nu(x t) dx.

    Requires the convergence window -1 < lam < mu + nu + 1 and t > 0; the
    Weber-Schafheitlin boundary t = 1 is allowed only when lam > 0 (the
    orthogonality integrals live there).  The half-line is partitioned at
    the zeros of the faster-oscillating factor, each cell is integrated by
    a fixed 16-point Gauss rule, and the partial-sum sequence is
    extrapolated to infinity, every fourth cell from min_cells on.  The
    cells up to the next extrapolation, or up to _MAX_CELLS, are evaluated
    in one array call and added one by one, so the result is that of one
    call per cell, and no cell past the last one added is evaluated.

    Raises OverflowError where the first cell's factor x^(mu+nu-lam) or a
    cell sum leaves the float64 range, and RuntimeError where the
    extrapolation has not settled by _MAX_CELLS cells.
    """
    if not (-1.0 < lam < mu + nu + 1.0):
        raise ValueError(f"lam={lam} outside convergence window (-1, {mu + nu + 1})")
    if t <= 0.0:
        raise ValueError("t must be positive")
    if t == 1.0 and lam <= 0.0:
        raise ValueError("t = 1 needs lam > 0 for convergence")

    def integrand_arr(x: np.ndarray) -> np.ndarray:
        return x ** (mu + nu - lam) * t ** nu * _jratio_array(mu, x) * _jratio_array(nu, x * t)

    # cell edges at (approximate) zeros of the faster factor
    if t >= 1.0:
        edges = lambda k: mcmahon_zero(nu, k) / t
    else:
        edges = lambda k: mcmahon_zero(mu, k)

    xg, wg = _legendre16()
    partial = []

    # first cell [0, e1]: pull out the algebraic factor x^(mu+nu-lam)
    e1 = edges(1)
    c = mu + nu - lam
    u0, w0 = _first_cell_rule(c)
    xs = e1 * u0
    try:
        vals = t ** nu * _jratio_array(mu, xs) * _jratio_array(nu, xs * t)
        total = e1 ** (c + 1.0) * float(np.dot(w0, vals))
    except OverflowError:
        raise _out_of_range(lam, mu, nu, t) from None
    partial.append(total)

    # the (1 -+ t) beat must be sampled over a few full periods before the
    # extrapolation's error estimate can be trusted; t = 1 has no beat
    beat = abs(1.0 - t)
    if beat == 0.0:
        min_cells = 12
    else:
        min_cells = min(_MAX_CELLS // 2, max(12, int(math.ceil(6.0 / max(beat, 0.05)))))

    prev_val = None
    k = 1
    while k < _MAX_CELLS:
        # the cells up to the next acceleration test, or the cap, in one call
        stop = min(_MAX_CELLS, -(-max(min_cells, k + 1) // 4) * 4)
        e = np.array([edges(i) for i in range(k, stop + 1)])
        h, mid = 0.5 * (e[1:] - e[:-1]), 0.5 * (e[:-1] + e[1:])
        # a non-finite cell sum raises below, so numpy need not warn of it
        with np.errstate(over="ignore", invalid="ignore"):
            rows = integrand_arr(h[:, None] * xg + mid[:, None])
            for hi, row in zip(h.tolist(), rows):
                total += hi * float(np.dot(wg, row))
                partial.append(total)
        if not math.isfinite(total):
            raise _out_of_range(lam, mu, nu, t)
        k = stop
        if k >= min_cells and k % 4 == 0:
            val, err = accelerate(partial)
            stable = prev_val is not None and \
                abs(val - prev_val) <= max(rtol * abs(val), _ATOL)
            prev_val = val
            if stable and (err <= rtol * max(abs(val), 1.0e-30) or err <= _ATOL):
                return BesselProductResult(float(val.real if isinstance(val, complex) else val),
                                           True, k, float(err),
                                           (partial[-2], partial[-1]))
    raise RuntimeError(
        f"bessel-product acceleration did not converge after {k} cells; "
        f"last partial sums {partial[-2]:.12e}, {partial[-1]:.12e}")
