"""Special functions: Gamma and log-Gamma, Bessel J of real order, the Dunkl
kernel on the imaginary axis, Bessel zero tables, and Lommel polynomials.

Everything here is plain float64 arithmetic with explicit regime switches;
no external special-function libraries are used at runtime.  This is the
one module that computes Bessel values, in one internal form, the
normalized Gamma(nu+1) (2/x)^nu J_nu(x): scalar calls through _jnorm,
node arrays through _jnorm_array, both under one regime rule judged node by
node (the cosine asymptotic where x > 19.5 and 8x >= 4 nu^2 - 1, which
bounds its terms, up to 40 of them, counted per band below and above 50
and summed by Horner on node arrays), with Miller's recurrence one
streaming sweep in O(1) memory from a start set by an error bound.
J_nu(x)/x^nu and J_nu(x) are one factor away.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Params",
    "ZeroTable",
    "gamma",
    "lgamma",
    "bessel_j",
    "bessel_j_ratio",
    "dunkl_kernel",
    "bessel_zeros",
    "lommel_h",
]

# Hard cap for all series used in this module (tail-relative 1e-18 cutoff).
SERIES_TOL = 1e-18
SERIES_CAP = 500


@dataclass(frozen=True)
class Params:
    """Index pair (alpha, beta) carried through every expansion.

    Admissibility: alpha > -1, beta > -1 and alpha + beta > -1.  Operations
    that additionally need beta < 1 check that locally.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        a, b = self.alpha, self.beta
        for name, v in (("alpha", a), ("beta", b)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if not (a > -1.0 and b > -1.0 and a + b > -1.0):
            raise ValueError(
                f"inadmissible parameters alpha={a}, beta={b}: "
                "need alpha > -1, beta > -1, alpha + beta > -1"
            )

    @property
    def ab(self) -> float:
        return self.alpha + self.beta


# ---------------------------------------------------------------------------
# Gamma family
# ---------------------------------------------------------------------------

def gamma(x: float) -> float:
    """Gamma function for real x, poles at nonpositive integers."""
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma pole at nonpositive integer x={x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise OverflowError(f"gamma({x}) exceeds the float64 range") from None


def lgamma(x: float) -> float:
    """log Gamma(x) for x > 0 (used where Gamma itself would overflow);
    inf where log Gamma(x) itself leaves the float range (x past 2.5e305)."""
    if x <= 0.0:
        raise ValueError(f"lgamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Bessel J_nu for real order nu > -1
# ---------------------------------------------------------------------------

# Regime edges of J_nu(x)/x^nu, shared by the scalar and the array path: the
# ascending series to SERIES_EDGE or the turning point, the cosine asymptotic
# beyond ASYM_EDGE where 8x >= 4 nu^2 - 1, Miller's recurrence in between.
# The asymptotic counts its terms per band, below and above _ASYM_BAND.
SERIES_EDGE = 9.0
ASYM_EDGE = 19.5
_ASYM_BAND = 50.0
_ASYM_TERMS = 40


def _in_series_regime(nu: float, x):
    """True where the ascending series is used; x >= 0, a float or an array."""
    return (x <= SERIES_EDGE) | (x * x <= 4.0 * (nu + 1.0))


def _in_asym_regime(nu: float, x):
    """True where the cosine asymptotic is used; x >= 0, a float or an array:
    there _j_asymptotic's term ratios |4 nu^2 - (2k-1)^2| / (8 k x) are at
    most 1.0002 up to its 40th term, and the terms it sums fall below 1e-17
    or to their least; below, the first ratio exceeds 1."""
    return (x > ASYM_EDGE) & (8.0 * x >= 4.0 * nu * nu - 1.0)


def _jratio_at_zero(nu: float) -> float:
    """J_nu(x)/x^nu at x = 0, 1/(2^nu Gamma(nu+1)); logarithmic past nu = 150."""
    if nu > 150.0:
        return math.exp(-nu * math.log(2.0) - lgamma(nu + 1.0))
    return 1.0 / (2.0 ** nu * gamma(nu + 1.0))


def _reject_order_or_x(nu: float, x: float):
    """Raise for the first argument outside finite order > -1, finite x."""
    if not math.isfinite(nu):
        raise ValueError(f"order must be finite, got {nu}")
    if nu <= -1.0:
        raise ValueError(f"order must exceed -1, got {nu}")
    raise ValueError(f"x must be finite, got {x}")


def _series_norm(nu: float, x: float) -> float:
    """Gamma(nu+1) (2/x)^nu J_nu(x) by the ascending series, in its regime.

    The sum starts at 1, so it converges at every order; the prefactor
    1/(2^nu Gamma(nu+1)), below the float range past nu ~ 150, stays outside.
    """
    x2 = 0.25 * x * x
    t = s = 1.0
    for k in range(1, SERIES_CAP):
        t *= -x2 / (k * (nu + k))
        s += t
        if abs(t) < SERIES_TOL * abs(s):
            return s
    raise RuntimeError("bessel series did not converge (internal error)")


# Miller's sweep costs time linear in its length m, the start offset
# (about 0.1 us a step); a sweep past 1e5 raises ValueError.  The library's
# own longest is ~6.8e3, at the zero order cap 1e4 for x up to 12600 (its
# twelfth zero); order 101 up to x = 5100 (dunkl-sampling at alpha = 100)
# takes 5.2e3, and within bessel_j's |x| <= 500 it stays below 600.
_MILLER_START_MAX = 1e5
# The sweep drops terms of the normalizing sum below 2^-53 of the sum.
_MILLER_LOG_EPS = -53.0 * math.log(2.0)


def _miller_tail(nu: float, x: float, n: float) -> float:
    """log of a bound on d_k J_n(x) / S, n = nu + 2k >= x: the sum's term at
    the start order n, relative to Neumann's sum S = (x/2)^nu / Gamma(nu+1),
    d_k = n (nu+1)_{k-1}/k!, with |J_n(x)| <= exp(-n (a - tanh a)),
    cosh a = n/x (Abramowitz & Stegun 9.1.63)."""
    k = 0.5 * (n - nu)
    return (math.log(n) + math.lgamma(nu + k) - math.lgamma(k + 1.0) - nu * math.log(0.5 * x)
            - n * math.acosh(n / x) + math.sqrt(n * n - x * x))


def _miller_start(nu: float, top: float) -> int:
    """Even start offset m for the downward recurrence from order nu + m,
    for arguments up to `top`: where _miller_tail falls to 2^-53 past its
    peak, an error bound in the spirit of Olver (J. Res. NBS 71B, 1967).

    Past max(nu, top) the bound is concave in n, so right of its peak it
    falls through 2^-53 once, at the root r.  From a point past the peak,
    a step at least Newton's lands right of r when it starts left of r,
    and a step at most Newton's stays right of r when it starts right of
    it; the slopes bound the digamma difference for that by
    log(z - 1/2) < psi(z) < log z.  So every start the search takes is
    safe, and it stops once a step gains fewer than 4 orders.  Against
    40-digit values the start lies 4 to 38 orders (under 1% past x = 500)
    above the least start that reaches the float floor, on orders -0.99 to
    1000.  Raises ValueError when m passes _MILLER_START_MAX = 1e5, which
    is where top - nu passes about 1e5.
    """
    x = top
    lo = max(nu, x)
    n = lo + 11.5 * x ** (1.0 / 3.0) + 6.0
    while True:
        f = _miller_tail(nu, x, n) - _MILLER_LOG_EPS
        k = 0.5 * (n - nu)
        a = math.acosh(n / x) - 1.0 / n
        short = a - 0.5 * math.log((nu + k) / (k + 0.5))       # at most -f'
        if short <= 0.0:                                       # maybe not past the peak
            n = lo + 2.0 * (n - lo)
        elif f > 0.0:
            n += f / short
        else:
            step = f / (a - 0.5 * math.log((nu + k - 0.5) / (k + 1.0)))
            if n + step > lo:
                n += step
            if step > -4.0:
                break
    m = math.ceil(n - nu)
    if m > _MILLER_START_MAX:
        raise ValueError(f"Bessel recurrence would run {m} steps, past the limit "
                         f"{_MILLER_START_MAX:g} (order {nu:g}, x {top:g})")
    return m + m % 2


# The sweep's running scales are powers of two, so a rescale is exact.
_SCALE_EXP = 900
_BIG = 2.0 ** _SCALE_EXP
_TINY = 2.0 ** -_SCALE_EXP


def _miller(nu: float, x: float):
    """One downward sweep at x > 0 in O(1) memory: (f0, f1, j0, j1), with
    f0, f1 = c (J_nu(x), J_{nu+1}(x)) for some c > 0 and j0, j1 the
    normalized Gamma(nu+1) (2/x)^nu J_nu(x) and its order-(nu+1) twin.

    f_{m-1} = 2(nu+m)/x f_m - f_{m+1} runs from f_m = 1 at an even start
    above the turning point onto the minimal solution (Gautschi, SIAM Rev.
    9, 1967).  Neumann's sum_k d_k J_{nu+2k}(x) = (x/2)^nu / Gamma(nu+1),
    d_0 = 1, d_k = (nu+2k) e_k, e_k = (nu+1)_{k-1}/k!, normalizes it; the
    sum builds by Horner's rule in units of the current e_k, so no weight
    is stored or overflows.  Past 2^900, f and the sum are scaled by
    2^-900 together, and the sum alone with its count e, restored as
    2^(-900 e): f stays normal, and j0, j1 do wherever their values are.
    """
    m = _miller_start(nu, x)
    t = 2.0 / x
    big, tiny = _BIG, _TINY
    fp, fc = 0.0, 1.0       # f_{2k+1}, f_{2k}
    s, g, e = nu + m, 1.0, 0  # the sum in units of e_k, times g = 2^(-900 e)
    for k2 in range(m, 2, -2):  # k2 = 2k, down to k = 2
        a = nu + k2
        ta = t * a
        fp = ta * fc - fp        # f_{2k-1}
        fc = (ta - t) * fp - fc  # f_{2k-2}
        a -= 2.0
        s = s * ((nu + a) / k2) + a * fc * g
        # f and the sum grow only above the turning point, where both are > 0
        if fc > big:
            fp *= tiny
            fc *= tiny
            s *= tiny
        if s > big:
            s *= tiny
            g *= tiny
            e += 1
    f1 = t * (nu + 2.0) * fc - fp
    f0 = t * (nu + 1.0) * f1 - fc
    s += f0 * g  # d_0 = 1
    j0, j1 = f0 / s, 2.0 * (nu + 1.0) / x * (f1 / s)
    if e:
        j0, j1 = math.ldexp(j0, -_SCALE_EXP * e), math.ldexp(j1, -_SCALE_EXP * e)
    return f0, f1, j0, j1


def _asym_phase(nu: float):
    """cos and sin of the asymptotic's phase (nu/2 + 1/4) pi, reduced mod
    2 pi before it is rounded."""
    phi = math.pi * math.fmod(0.5 * nu + 0.25, 2.0)
    return math.cos(phi), math.sin(phi)


def _j_asymptotic(nu: float, x: float) -> float:
    """J_nu(x) ~ sqrt(2/(pi x)) (P cos chi - Q sin chi), chi = x - phi, at a
    float x where _in_asym_regime holds: within 1e-13 of the envelope from
    ASYM_EDGE on.

    The terms are a_k/x^k, a_k = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k);
    P sums the even k, Q the odd, to the 40th term or the first even one
    below 1e-17.  chi enters through cos x and sin x, so x - phi is never
    rounded.  Node arrays count the terms per band and sum them by Horner
    (_asym_bracket).
    """
    mu = 4.0 * nu * nu
    p, q, t = 1.0, 0.0, 1.0
    for k in range(1, _ASYM_TERMS, 2):
        t *= (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        q += t
        t *= ((2.0 * k + 1.0) ** 2 - mu) / (8.0 * (k + 1.0) * x)
        p += t
        if abs(t) < 1e-17:
            break
    c, s = _asym_phase(nu)
    cx, sx = math.cos(x), math.sin(x)
    return math.sqrt(2.0 / (math.pi * x)) * (cx * (p * c + q * s) + sx * (p * s - q * c))


@functools.lru_cache(maxsize=256)
def _asym_coeffs(nu: float, high: bool):
    """(x0, P, Q) for the array nodes of one band of the cosine asymptotic:
    x0 the band's lower edge, max(ASYM_EDGE or _ASYM_BAND, (4 nu^2 - 1)/8),
    and P, Q Horner coefficients, highest first, of P(x) and x Q(x) / x0 in
    u = (x0/x)^2.  The terms are b_k (x0/x)^k, b_k = a_k / x0^k; they run
    to the first b_k below 1e-17, or to the 40th, at x0, where each term is
    largest in its band.  So a node's terms depend on its band alone, never
    on the other nodes of its array."""
    mu = 4.0 * nu * nu
    x0 = max(_ASYM_BAND if high else ASYM_EDGE, (mu - 1.0) / 8.0)
    b = [1.0]
    for k in range(1, _ASYM_TERMS + 1):
        b.append(b[-1] * (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x0))
        if abs(b[-1]) < 1e-17 and k >= 3:
            break
    signed = [v if k % 4 < 2 else -v for k, v in enumerate(b)]
    return x0, tuple(signed[0::2][::-1]), tuple(signed[1::2][::-1])


def _horner(c: tuple, u: np.ndarray) -> np.ndarray:
    """sum_j c[j] u^(n-1-j) on an array u, in place; len(c) >= 2."""
    s = c[0] * u
    s += c[1]
    for ci in c[2:]:
        s *= u
        s += ci
    return s


def _asym_bracket(nu: float, x: np.ndarray, high: bool, cos_x, sin_x) -> np.ndarray:
    """_j_asymptotic's P cos chi - Q sin chi on an array x, all in one band
    (high: x >= _ASYM_BAND), from cos x and sin x."""
    x0, pc, qc = _asym_coeffs(nu, high)
    c, s = _asym_phase(nu)
    w = x0 / x
    u = w * w
    p, q = _horner(pc, u), _horner(qc, u)
    q *= w
    r = p * c
    r += q * s
    p *= s
    q *= c
    p -= q
    r *= cos_x
    p *= sin_x
    r += p
    return r


def _norm_from_j(nu: float, x: float, j: float) -> float:
    """Gamma(nu+1) (2/x)^nu J_nu(x) from J_nu(x) = j, in logarithms, so
    that a factor past the float range reads 0."""
    return j * math.exp(lgamma(nu + 1.0) - nu * math.log(0.5 * x))


def _jnorm(nu: float, x: float) -> float:
    """Gamma(nu+1) (2/x)^nu J_nu(x) at x >= 0 by the regime rule: the one
    internal form, with no scale that leaves the float range at large
    order.  The asymptotic's J_nu(x) is normalized in logarithms."""
    if _in_series_regime(nu, x):
        return _series_norm(nu, x)
    if _in_asym_regime(nu, x):
        return _norm_from_j(nu, x, _j_asymptotic(nu, x))
    return _miller(nu, x)[2]


def _jratio_orders(nu: float, x: float, N: int) -> np.ndarray:
    """J_{nu+n}(x)/x^{nu+n} for n < N at one x >= 0: one order table.

    The normalized g_mu = _jnorm(mu, x) at the two top orders anchor the
    downward recurrence g_{mu-1} = g_mu - x^2 g_{mu+1} / (4 mu (mu+1)), the
    Bessel one in normalized form, stable downward (Gautschi, SIAM Rev. 9,
    1967); the running product 1/(2^mu Gamma(mu+1)) turns g into the ratio.
    ValueError for a non-finite x, which the Miller start cannot place.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    g = [_jnorm(nu + n, x) for n in (N - 1, N - 2)[:N]]
    x2 = 0.25 * x * x
    for n in range(N - 2, 0, -1):
        mu = nu + n
        g.append(g[-1] - x2 * g[-2] / (mu * (mu + 1.0)))
    g.reverse()
    p = [_jratio_at_zero(nu)]
    for n in range(1, N):
        p.append(p[-1] / (2.0 * (nu + n)))
    return np.multiply(g, p[:N])


def bessel_j_ratio(nu: float, x: float) -> float:
    """J_nu(x)/x^nu, an even entire function of x; stable for all regimes.

    The normalized value Gamma(nu+1) (2/x)^nu J_nu(x) times 1/(2^nu
    Gamma(nu+1)): finite at x = 0, and 0.0 or a subnormal below the float
    range.  Only non-finite arguments and a Miller sweep past 1e5 steps
    (|x| - nu beyond about 1e5) raise ValueError.
    """
    if not (-1.0 < nu < math.inf and -math.inf < x < math.inf):
        _reject_order_or_x(nu, x)
    return _jratio_at_zero(nu) * _jnorm(nu, abs(x))


# The array path: the same regimes on every node of an array at once.  It
# is kept apart from the scalar one, whose calls it would slow down about
# thirtyfold.

def _series_norm_array(nu: float, x: np.ndarray) -> np.ndarray:
    """_series_norm on every node.  The stop is tested every fourth term: a
    term below SERIES_TOL |s| is below half an ulp of s, as are the smaller
    ones after it, so the later test reads the same sums."""
    mx2 = -0.25 * x * x
    t = np.ones_like(x)
    s = t.copy()
    for k in range(1, SERIES_CAP):
        t *= mx2 / (k * (nu + k))
        s += t
        if k % 4 == 0 and np.all(np.abs(t) < SERIES_TOL * np.abs(s)):
            return s
    raise RuntimeError("bessel series did not converge (internal error)")


def _miller_array(nu: float, x: np.ndarray):
    """_miller's (j0, j1) on every node: one start, above the turning point
    of ASYM_EDGE and of the largest node, and exact rescales node by node,
    so a node up to ASYM_EDGE gets the values it would get alone.

    The rescale tests run every `stride` loop steps, not every step.  One
    step (two orders) takes max(|fp|, |fc|, |s|) up by at most the factor
    grow = rho + (nu + m) rate^2, with rate = 1 + 2(nu + m)/min x bounding
    each order's growth and rho the largest (nu + a)/k2 of the sum; so from the
    2^900 that a test leaves, no value passes 2^1000 before the next one.
    A rescale is a power of two, so its step does not change a value."""
    m = _miller_start(nu, max(ASYM_EDGE, float(np.max(x))))
    rate = 1.0 + 2.0 * (nu + m) / float(np.min(x))
    grow = max(1.0, 0.5 * (nu + 1.0)) + (nu + m) * rate * rate
    stride = max(1, int((1000 - _SCALE_EXP) / math.log2(grow)))
    t = 2.0 / x
    fp, fc = np.zeros_like(x), np.ones_like(x)
    s, g, e = np.full_like(x, nu + m), np.ones_like(x), np.zeros(x.shape, dtype=int)
    for i, k2 in enumerate(range(m, 2, -2), 1):
        a = nu + k2
        ta = t * a
        fp = ta * fc - fp
        fc = (ta - t) * fp - fc
        a -= 2.0
        s = s * ((nu + a) / k2) + a * fc * g
        if i % stride:
            continue
        big = fc > _BIG
        if big.any():
            r = np.where(big, _TINY, 1.0)
            fp *= r
            fc *= r
            s *= r
        big = s > _BIG
        if big.any():
            r = np.where(big, _TINY, 1.0)
            s *= r
            g *= r
            e += big
    f1 = t * (nu + 2.0) * fc - fp
    f0 = t * (nu + 1.0) * f1 - fc
    s += f0 * g
    e *= -_SCALE_EXP
    return np.ldexp(f0 / s, e), np.ldexp(2.0 * (nu + 1.0) / x * (f1 / s), e)


def _jnorm_array(nu: float, x: np.ndarray, pair=False):
    """_jnorm on an array of real x, the regime judged node by node.  With
    pair, orders nu and nu + 1 both in the regime of order nu, as dunkl_kernel
    takes them: two series, two asymptotic values or one Miller sweep.  A
    pair (keep_nu, keep_nu1) names the orders to form in those regimes, each
    to the bit as in the pair; an order left out reads None."""
    x = np.abs(np.asarray(x, dtype=float))
    orders = (nu, nu + 1.0) if pair else (nu,)
    keep = pair if isinstance(pair, tuple) else (True, True)
    v = [np.empty_like(x) if k else None for k, _ in zip(keep, orders)]
    series = _in_series_regime(nu, x)
    xs = x[series]
    for vi, o in zip(v, orders):
        if vi is not None:
            vi[series] = _series_norm_array(o, xs)
    far = ~series
    for o in orders:
        far &= _in_asym_regime(o, x)
    high = x >= _ASYM_BAND
    for hi, band in ((False, far & ~high), (True, far & high)):
        if not band.any():
            continue
        xb = x[band]
        lx, cx, sx = np.log(0.5 * xb), np.cos(xb), np.sin(xb)
        for vi, o in zip(v, orders):
            if vi is None:
                continue
            # sqrt(2/(pi x)) Gamma(o+1) (2/x)^o in one exponential
            scale = lx * -(o + 0.5)
            scale += lgamma(o + 1.0) - 0.5 * math.log(math.pi)
            np.exp(scale, out=scale)
            scale *= _asym_bracket(o, xb, hi, cx, sx)
            vi[band] = scale
    miller = ~(series | far)
    if miller.any():
        for vi, j in zip(v, _miller_array(nu, x[miller])):
            if vi is not None:
                vi[miller] = j
    return tuple(v) if pair else v[0]


def _jratio_array(nu: float, x: np.ndarray) -> np.ndarray:
    """J_nu(x)/x^nu on an array of real x, by bessel_j_ratio's regimes."""
    return _jratio_at_zero(nu) * _jnorm_array(nu, x)


def _power_over_gamma(nu: float, x: float) -> float:
    """(x/2)^nu / Gamma(nu+1), the factor from the normalized J to J; by
    logarithms where x^nu or 1/(2^nu Gamma(nu+1)) would leave the float
    range; 0.0 where log Gamma(nu+1) leaves it, which no x <= 500 offsets."""
    if nu <= 140.0 and nu * math.log(x) < 700.0:
        return _jratio_at_zero(nu) * x ** nu
    lg = lgamma(nu + 1.0)
    return math.exp(nu * math.log(0.5 * x) - lg) if lg < math.inf else 0.0


_BESSEL_J_XMAX = 500.0


def bessel_j(nu: float, x: float) -> float:
    """Bessel function J_nu(x) for real nu > -1, x >= 0, |x| <= 500.

    Negative x is allowed only for integer nu (parity continuation); use
    bessel_j_ratio for the even ratio form at general order.  J_nu(0) is
    infinite for -1 < nu < 0, so x = 0 raises ValueError there.
    """
    if not (-1.0 < nu < math.inf and -math.inf < x < math.inf):
        _reject_order_or_x(nu, x)
    if abs(x) > _BESSEL_J_XMAX:
        raise ValueError(f"|x|={abs(x)} exceeds xmax={_BESSEL_J_XMAX}")
    if x == 0.0:
        if nu < 0.0:
            raise ValueError(f"J_nu(0) is infinite for order nu < 0, got nu={nu}")
        return 1.0 if nu == 0.0 else 0.0
    ax = abs(x)
    val = _jnorm(nu, ax) * _power_over_gamma(nu, ax)
    if x < 0.0:
        if nu != math.floor(nu):
            raise ValueError("bessel_j at negative x needs integer order; "
                             "use bessel_j_ratio for the even ratio form")
        return val * (-1.0) ** int(nu)
    return val


# ---------------------------------------------------------------------------
# The Dunkl kernel on the imaginary axis
# ---------------------------------------------------------------------------

def bessel_i_norm_imag(alpha: float, x: float) -> float:
    """The normalized modified Bessel function of order alpha at ix,
    Gamma(alpha+1) (2/x)^alpha J_alpha(x): real, even, 1 at x = 0."""
    if not (-1.0 < alpha < math.inf and -math.inf < x < math.inf):
        _reject_order_or_x(alpha, x)
    return _jnorm(alpha, abs(x))


def dunkl_kernel(alpha: float, x: float) -> complex:
    """E_a(ix) = j_a(x) + i x j_{a+1}(x) / (2(a+1)) for real x, a = alpha,
    from the normalized j_nu(x) = Gamma(nu+1) (2/x)^nu J_nu(x) of both
    orders in the regime of order a: two series, two asymptotic values or
    one Miller sweep.  Only non-finite arguments and a sweep past 1e5
    steps raise ValueError.
    """
    if not (-1.0 < alpha < math.inf and -math.inf < x < math.inf):
        _reject_order_or_x(alpha, x)
    ax = abs(x)
    if _in_series_regime(alpha, ax):
        j0, j1 = _series_norm(alpha, ax), _series_norm(alpha + 1.0, ax)
    else:
        a, b, jn = _j_pair(alpha, ax)
        j0, j1 = jn or (_norm_from_j(alpha, ax, a), _norm_from_j(alpha + 1.0, ax, b))
    return complex(j0, x * j1 / (2.0 * (alpha + 1.0)))


# ---------------------------------------------------------------------------
# Zeros of J_nu
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroTable:
    """First k positive zeros of J_nu, ascending; immutable."""

    nu: float
    zeros: tuple = field(default_factory=tuple)

    def __len__(self):
        return len(self.zeros)

    def signed(self, n: int) -> float:
        """Signed zero sequence: s_0 = 0, s_{-n} = -s_n, s_n = n-th zero."""
        if n == 0:
            return 0.0
        z = self.zeros[abs(n) - 1]
        return z if n > 0 else -z


# Orders past this raise: each Newton step runs Miller's recurrence from an
# order above the zero, so its cost grows linearly with nu.
_ZERO_ORDER_MAX = 1e4


def _mcmahon(nu: float, k: int, terms: int) -> float:
    """McMahon's expansion of the k-th positive zero of J_nu to `terms`
    terms (2 to 5), b - (mu-1)/(8b) - ..., b = (k + nu/2 - 1/4) pi,
    mu = 4 nu^2 (Abramowitz & Stegun 9.5.12); it runs in mu/b^2."""
    mu = 4.0 * nu * nu
    b = (k + 0.5 * nu - 0.25) * math.pi
    e = 8.0 * b
    z = b - (mu - 1.0) / e
    if terms > 2:
        z -= 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * e ** 3)
    if terms > 3:
        z -= 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * e ** 5)
    if terms > 4:
        z -= 64.0 * (mu - 1.0) * (6949.0 * mu ** 3 - 153855.0 * mu * mu + 1585743.0 * mu
                                  - 6277237.0) / (105.0 * e ** 7)
    return z


def _zero_seeds(nu: float, k: int) -> np.ndarray:
    """First k zeros of J_nu from the k largest eigenvalues 1/j^2 of a
    truncated symmetric tridiagonal matrix (the recurrence for
    J_{nu+2n+1} at a zero of J_nu; Ball, SIAM J. Sci. Comput. 21, 2000).

    Row n of the eigenvector of j = j_k is sqrt(nu+2n+1) J_{nu+2n+1}(j) up
    to a factor: it oscillates up to the order j, then falls like the Airy
    function, as exp(-(2 sqrt 2/3) d^(3/2)/sqrt(j)) at d orders past j.
    The matrix stops where that reaches sqrt(eps) = 2^-26, so the dropped
    rows move 1/j^2 by about eps: (j - nu)/2 rows, two orders a row, then
    3.6 j^(1/3) more.  j_k is estimated from above by McMahon's expansion
    or, for nu > 0 where it is smaller, by
    nu + |a| (nu/2)^(1/3) + (3/20) a^2 (nu/2)^(-1/3), a the k-th Airy zero
    (Abramowitz & Stegun 10.4.94).  The seeds agree with the polished zeros
    to 1.4e-15 relative for nu from -0.99 to 500 and to 7e-15 up to 1e4,
    k <= 10: far inside Newton's one-step stop, 1e-9.
    """
    j = _mcmahon(nu, k, 2)
    if 0.5 * nu > 0.0:    # not nu > 0: the half of 5e-324 is 0
        t = 0.375 * math.pi * (4 * k - 1)
        a = t ** (2.0 / 3.0) * (1.0 + 5.0 / (48.0 * t * t))
        c = (0.5 * nu) ** (1.0 / 3.0)
        j = min(j, nu + a * c + 0.15 * a * a / c)
    n = math.ceil(0.5 * (j - nu) + 3.6 * j ** (1.0 / 3.0))
    d = [1.0 / (4.0 * (nu + 1.0) * (nu + 2.0))]
    e = []
    for i in range(n - 1):
        m = nu + 2.0 * i
        e.append(1.0 / (4.0 * (m + 2.0) * math.sqrt((m + 1.0) * (m + 3.0))))
        d.append(1.0 / (2.0 * (m + 2.0) * (m + 4.0)))
    tri = np.zeros(n * n)
    tri[::n + 1] = d
    tri[n::n + 1] = e  # below the diagonal, the triangle eigvalsh reads
    lam = np.linalg.eigvalsh(tri.reshape(n, n))
    return 1.0 / np.sqrt(lam[::-1][:k])


def _zero_seed_count(nu: float) -> int:
    """How many zeros of J_nu start from the seed matrix: 10, or up to 400
    while McMahon's expansion, in mu/b^2, is not past mu/b^2 = 0.06 (k
    below 2|nu| / (pi sqrt 0.06) - nu/2 + 1/4).  Past it, its five terms
    shifted by the error of the zero before start within 5e-10 relative,
    measured at nu from -0.99 to 140 and k to 400; the last start that
    missed that sat at mu/b^2 = 0.084."""
    return min(400, max(10, math.ceil(2.0 * abs(nu) / (math.pi * math.sqrt(0.06))
                                      - 0.5 * nu + 0.25)))


def _j_pair(nu: float, x: float):
    """(a, b, jn) at x > 0: a, b = c (J_nu(x), J_{nu+1}(x)), c > 0, from the
    asymptotic where both orders are in its regime (c = 1, jn None), else
    f0, f1 of one Miller sweep and jn its (j0, j1).  b carries the sign of
    J_{nu+1}(x), and a/b has no cancellation beyond the last step of the
    recurrence; the ascending series would lose up to three digits near 9."""
    if _in_asym_regime(nu, x) and _in_asym_regime(nu + 1.0, x):
        return _j_asymptotic(nu, x), _j_asymptotic(nu + 1.0, x), None
    f0, f1, j0, j1 = _miller(nu, x)
    return f0, f1, (j0, j1)


def bessel_zeros(nu: float, k_max: int) -> ZeroTable:
    """First k_max positive zeros of J_nu, -1 < nu <= 1e4.

    The first min(k_max, _zero_seed_count(nu)) start from the eigenvalues
    of a tridiagonal matrix sized for the last of them (_zero_seeds, within
    7e-15 relative at k <= 10), each later one from McMahon's expansion
    shifted by the error of the zero before.  Newton on J_nu(x)/x^nu,
    x <- x + J_nu(x)/J_{nu+1}(x) (_j_pair), polishes each start until the
    step falls below 1e-9 x, so each zero takes one step (checked to
    k = 400 at nu = 0.05, 1.5, 30 and 101); convergence is quadratic, so
    the next step would be below an ulp.
    Against mpmath's besseljzero the worst relative error is 2e-16 over nu
    in [0.05, 60] and 140, 160, k <= 30, and over spot checks to k = 400;
    against 30-digit roots of J_nu it is 3e-16 at nu = -0.95, 500 and 1e4,
    k <= 12.  A zero that Newton skips breaks the sign
    alternation of J_{nu+1} over the zeros or their order, and raises
    RuntimeError.
    """
    if not math.isfinite(nu):
        raise ValueError(f"order must be finite, got {nu}")
    if not -1.0 < nu <= _ZERO_ORDER_MAX:
        raise ValueError(f"zeros need an order in (-1, {_ZERO_ORDER_MAX:g}], got nu={nu}")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    seeds = _zero_seeds(nu, min(k_max, _zero_seed_count(nu)))
    zeros, mc = [], None
    for k in range(k_max):
        if k < len(seeds):
            x = float(seeds[k])
        else:   # McMahon's zero k + 1, shifted by the error of zero k
            prev = mc if mc is not None else _mcmahon(nu, k, 5)
            mc = _mcmahon(nu, k + 1, 5)
            x = mc + (zeros[-1] - prev)
        for _ in range(50):
            a, b, _ = _j_pair(nu, x)
            dx = a / b
            x += dx
            if abs(dx) < 1e-9 * x:
                break
        else:
            raise RuntimeError(f"zero {k + 1} of J_{nu} did not converge (internal error)")
        if (b > 0.0) != (k % 2 == 0) or (zeros and not x > zeros[-1]):
            raise RuntimeError(f"zero {k + 1} of J_{nu}: Newton skipped a zero (internal error)")
        zeros.append(x)
    return ZeroTable(nu=nu, zeros=tuple(zeros))


# ---------------------------------------------------------------------------
# Lommel polynomials
# ---------------------------------------------------------------------------

def lommel_h(n: int, a: float, w):
    """Modified Lommel polynomial h_{n,a}(w) = R_{n,a}(1/w); complex w ok;
    OverflowError where the value leaves the float range.

        h_{n+1} = 2(n+a) w h_n - h_{n-1},  h_{-1} = 0, h_0 = 1.
    """
    for name, v in (("a", a), ("w", w)):
        if not cmath.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if n < -1:
        raise ValueError("lommel_h needs n >= -1")
    if a <= 0.0:
        raise ValueError("lommel_h needs a > 0")
    hm = 0.0  # h_{-1}
    hc = 1.0  # h_0
    if n == -1:
        return 0.0 * w if isinstance(w, complex) else 0.0
    if n == 0:
        return hc + 0.0 * w if isinstance(w, complex) else 1.0
    for k in range(0, n):
        hn = 2.0 * (k + a) * w * hc - hm
        hm, hc = hc, hn
    if not cmath.isfinite(hc):
        raise OverflowError(f"h_{n} at a={a}, w={w} exceeds the float64 range")
    return hc
