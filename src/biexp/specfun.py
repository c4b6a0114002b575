"""Special functions: Gamma and log-Gamma, Bessel J of real order, the Dunkl
kernel on the imaginary axis, Bessel zero tables, and Lommel polynomials.

Everything here is plain float64 arithmetic with explicit regime switches;
no external special-function libraries are used at runtime.  This is the
one module that computes Bessel values, in one internal form, the
normalized Gamma(nu+1) (2/x)^nu J_nu(x): scalar calls through _jnorm,
node arrays through _jnorm_array, both under one regime rule judged node by
node (the cosine asymptotic where x > 50 and 8x >= 4 nu^2 - 1, which bounds
its terms), with Miller's recurrence one streaming sweep in O(1) memory.
J_nu(x)/x^nu and J_nu(x) are one factor away.
"""

from __future__ import annotations

import cmath
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
    """log Gamma(x) for x > 0 (used where Gamma itself would overflow)."""
    if x <= 0.0:
        raise ValueError(f"lgamma requires x > 0, got {x}")
    return math.lgamma(x)


# ---------------------------------------------------------------------------
# Bessel J_nu for real order nu > -1
# ---------------------------------------------------------------------------

# Regime edges of J_nu(x)/x^nu, shared by the scalar and the array path: the
# ascending series to SERIES_EDGE or the turning point, the cosine asymptotic
# beyond ASYM_EDGE where 8x >= 4 nu^2 - 1, Miller's recurrence in between.
SERIES_EDGE = 9.0
ASYM_EDGE = 50.0


def _in_series_regime(nu: float, x):
    """True where the ascending series is used; x >= 0, a float or an array."""
    return (x <= SERIES_EDGE) | (x * x <= 4.0 * (nu + 1.0))


def _in_asym_regime(nu: float, x):
    """True where the cosine asymptotic is used; x >= 0, a float or an array:
    there _j_asymptotic's term ratios |4 nu^2 - (2k-1)^2| / (8 k x) are at
    most 1 and its 17th term at most 2.8e-15; below, the first exceeds 1."""
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
# (about 0.1 us a step); a longer sweep raises ValueError.  The library's
# own largest is ~1.1e4, for the zeros at the order cap 1e4.  Miller runs
# only where x^2 > 4(nu+1), so bessel_j's |x| <= 500 keeps nu < 62500 and
# m < 6.4e4, inside the cap.
_MILLER_START_MAX = 1e5


def _miller_start(nu: float, top: float) -> int:
    """Even start offset m for the downward recurrence from order nu + m,
    above the turning point of the largest argument `top`.

    Raises ValueError when m passes _MILLER_START_MAX = 1e5, which is where
    max(top, nu) passes about 9.9e4.
    """
    top = max(top, nu)
    m_max = int(math.ceil(top + 15.0 * top ** (1.0 / 3.0) + 25.0))
    if m_max > _MILLER_START_MAX:
        raise ValueError(f"Bessel recurrence would run {m_max} steps, past the limit "
                         f"{_MILLER_START_MAX:g} (order {nu:g}, x {top:g})")
    return m_max + m_max % 2


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


def _j_asymptotic(nu: float, x, peak=abs, xp=math):
    """J_nu(x) ~ sqrt(2/(pi x)) (P cos chi - Q sin chi) to 1e-13 or better
    where _in_asym_regime holds.

    The terms are a_k/x^k, a_k = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k);
    P sums the even k, Q the odd, to the 17th term or the first below 1e-17.
    x is a float, or an array (xp = numpy) with peak its largest |term|: that
    sits at the smallest node, so every node stops where the smallest would.
    """
    mu = 4.0 * nu * nu
    p, q, term = 1.0, 0.0, 1.0
    for k in range(1, 18):
        term = term * ((mu - (2.0 * k - 1.0) ** 2) / (k * 8.0 * x))
        if k % 2 == 0:
            p = p + term * (-1.0) ** (k // 2)
        else:
            q = q + term * (-1.0) ** ((k - 1) // 2)
        if peak(term) < 1e-17:
            break
    chi = x - (0.5 * nu + 0.25) * math.pi
    return xp.sqrt(2.0 / (math.pi * x)) * (p * xp.cos(chi) - q * xp.sin(chi))


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
    """
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
    (max(x, nu) beyond about 9.9e4) raise ValueError.
    """
    if not (-1.0 < nu < math.inf and -math.inf < x < math.inf):
        _reject_order_or_x(nu, x)
    return _jratio_at_zero(nu) * _jnorm(nu, abs(x))


# The array path: the same regimes on every node of an array at once.  It
# is kept apart from the scalar one, whose calls it would slow down about
# thirtyfold.

def _series_norm_array(nu: float, x: np.ndarray) -> np.ndarray:
    x2 = 0.25 * x * x
    t = np.ones_like(x)
    s = t.copy()
    for k in range(1, SERIES_CAP):
        t *= -x2 / (k * (nu + k))
        s += t
        if np.all(np.abs(t) < SERIES_TOL * np.abs(s)):
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


def _jnorm_array(nu: float, x: np.ndarray, pair: bool = False):
    """_jnorm on an array of real x, the regime judged node by node.  With
    pair, orders nu and nu + 1 both in the regime of order nu, as dunkl_kernel
    takes them: two series, two asymptotic values or one Miller sweep."""
    x = np.abs(np.asarray(x, dtype=float))
    orders = (nu, nu + 1.0) if pair else (nu,)
    v = [np.empty_like(x) for _ in orders]
    series = _in_series_regime(nu, x)
    xs = x[series]
    for vi, o in zip(v, orders):
        vi[series] = _series_norm_array(o, xs)
    far = ~series
    for o in orders:
        far &= _in_asym_regime(o, x)
    xf = x[far]
    peak = lambda t: np.abs(t).max(initial=0.0)
    for vi, o in zip(v, orders):
        j = _j_asymptotic(o, xf, peak, np)
        vi[far] = j * np.exp(lgamma(o + 1.0) - o * np.log(0.5 * xf))
    miller = ~(series | far)
    if miller.any():
        for vi, j in zip(v, _miller_array(nu, x[miller])):
            vi[miller] = j
    return tuple(v) if pair else v[0]


def _jratio_array(nu: float, x: np.ndarray) -> np.ndarray:
    """J_nu(x)/x^nu on an array of real x, by bessel_j_ratio's regimes."""
    return _jratio_at_zero(nu) * _jnorm_array(nu, x)


def _power_over_gamma(nu: float, x: float) -> float:
    """(x/2)^nu / Gamma(nu+1), the factor from the normalized J to J; by
    logarithms where x^nu or 1/(2^nu Gamma(nu+1)) would leave the float
    range."""
    if nu <= 140.0 and nu * math.log(x) < 700.0:
        return _jratio_at_zero(nu) * x ** nu
    return math.exp(nu * math.log(0.5 * x) - lgamma(nu + 1.0))


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
    b = (k + 0.5 * nu - 0.25) * math.pi
    j = b - (4.0 * nu * nu - 1.0) / (8.0 * b)
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

    The first min(k_max, 10) start from the eigenvalues of a tridiagonal
    matrix sized for the last of them (_zero_seeds, within 7e-15 relative),
    each later one from the quadratic extrapolation
    3 z_{k-1} - 3 z_{k-2} + z_{k-3}.  Newton on J_nu(x)/x^nu,
    x <- x + J_nu(x)/J_{nu+1}(x) (_j_pair), polishes each start until the
    step falls below 1e-9 x, so each of the first ten takes one step;
    convergence is quadratic, so the next step would be below an ulp.
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
    seeds = _zero_seeds(nu, min(k_max, 10))
    zeros = []
    for k in range(k_max):
        x = float(seeds[k]) if k < len(seeds) else 3.0 * (zeros[-1] - zeros[-2]) + zeros[-3]
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
