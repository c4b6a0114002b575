"""Bilinear kernel expansions into biorthogonal systems.

The abstract engine: a kernel K(x, t) on R x [-1, 1] with a weighted
measure, a transform Kf(t) = int f(x) conj(K(x, t)) dmu(x), and a pair of
biorthonormal sequences (P_n, Q_n) on the interval.  The kernel then
expands as K(x, t) = sum_n P_n(t) S_n(x) with S_n the inverse transform of
the windowed conj(Q_n).

Three concrete instantiations are provided: the classical sampling system
(complex exponentials), the Dunkl sampling system on zeros of J_{alpha+1},
and the Fourier-Neumann system of generalized Gegenbauer polynomials
against Bessel quotients.  The Gegenbauer plane-wave pair enters through
its closed-form coefficients: the partial sum classical_planewave and the
Gram of its S/T pair on the line, st_gram_gegenbauer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

import numpy as np

from .orthopoly import GenGegenbauerFamily, _jacobi_rows, classical_gegenbauer
from .quad import Measure, _legendre16, _neville, gauss_jacobi, rule_for_measure
from .specfun import (Params, ZeroTable, _jnorm_array, _jratio_array, _jratio_orders,
                      bessel_i_norm_imag, bessel_j_ratio, bessel_zeros,
                      dunkl_kernel, gamma)

__all__ = [
    "TruncatedSeries",
    "KernelSystem",
    "BiorthSystem",
    "PWFunction",
    "fourier_system",
    "dunkl_system",
    "neumann_system",
    "expand_kernel",
    "fourier_sampling_coeff",
    "dunkl_sampling_coeff",
    "neumann_fn",
    "planewave_partial_sum",
    "classical_planewave",
    "dunkl_sampling_sum",
    "sampling_even_sum",
    "sampling_odd_sum",
    "fourier_neumann_coeffs",
    "neumann_partial_sum",
    "hankel_corollary_sum",
    "kernel_norm_sq",
]


# ---------------------------------------------------------------------------
# Series container
# ---------------------------------------------------------------------------

@dataclass
class TruncatedSeries:
    """Ordered coefficient window: coeffs run n = n_min .. n_min + len - 1,
    with n_min = -N for a Z-indexed window |n| <= N and 0 for N-indexed ones.
    """

    coeffs: list
    n_min: int = 0

    def coeff(self, n: int):
        return self.coeffs[n - self.n_min]


# ---------------------------------------------------------------------------
# Vectorized Dunkl kernel on a node grid
# ---------------------------------------------------------------------------

def dunkl_kernel_grid(alpha: float, xs: np.ndarray) -> np.ndarray:
    """E_alpha(i x) on an array of real arguments, j_a(x) + i x j_{a+1}(x)
    / (2(a+1)) from specfun's array path for the normalized Bessel values
    j_nu(x) = Gamma(nu+1) (2/x)^nu J_nu(x): both orders from one call, in
    the regime of order a, as the scalar dunkl_kernel takes them (two
    series, two asymptotic values or one Miller sweep)."""
    xs = np.asarray(xs, dtype=float)
    j0, j1 = _jnorm_array(alpha, xs, pair=True)
    return j0 + 1j * xs * (j1 / (2.0 * (alpha + 1.0)))


def _dunkl_e(alpha: float, x):
    """E_alpha(i x) at one real x (the scalar kernel) or on an array of any
    shape (one kernel grid over its flattened nodes)."""
    if np.ndim(x) == 0:
        return dunkl_kernel(alpha, x)
    x = np.asarray(x, dtype=float)
    return dunkl_kernel_grid(alpha, x.ravel()).reshape(x.shape)


# ---------------------------------------------------------------------------
# Paley-Wiener functions: densities on [-1, 1] transported by the kernel
# ---------------------------------------------------------------------------

# the rule order of every quadrature on [-1, 1] at a fixed x: the S_n
# coefficients, the Grams, and f(x) of a PWFunction up to |x| = 80
_RULE_ORDER = 120
_PW_BUCKETS = (_RULE_ORDER, 160, 240, 320, 480, 640, 960, 1344)
# x values per kernel grid in a batched eval: bounds the (x, node) table,
# 64 x 2688 nodes at the top order
_PW_BLOCK = 64


def _order_for(ax: float) -> int:
    need = int(0.75 * ax) + 60
    return next((b for b in _PW_BUCKETS if b >= need), _PW_BUCKETS[-1])


@dataclass
class PWFunction:
    """Band-limited function f(x) = int_{-1}^{1} u(t) E_alpha(ixt) dmu_alpha(t).

    The generating density u is the primary representation; every ground
    truth evaluation goes through quadrature of the defining integral, with
    the rule order scaled to resolve the oscillation at large |x|.

    A density of the form u(t) = (1-t^2)^w * smooth(t) should be passed as
    (smooth, weight_pow=w): folding the endpoint factor into the rule's
    weight keeps the quadrature spectrally accurate.
    """

    u: Callable[[float], complex]
    alpha: float
    weight_pow: float = 0.0
    _cache: dict = field(default_factory=dict, repr=False)
    _rules: dict = field(default_factory=dict, repr=False)

    def _measure(self) -> Measure:
        if self.weight_pow == 0.0:
            return Measure.mu_alpha(self.alpha)
        return Measure.mu_beta_alpha(self.alpha, self.weight_pow)

    def _rule(self, order: int):
        """Nodes of the rule of this order and the weighted density w u on
        them; u is called once per node and order."""
        if order not in self._rules:
            nodes, w = rule_for_measure(self._measure(), order)
            self._rules[order] = (nodes, w * np.asarray([self.u(t) for t in nodes]))
        return self._rules[order]

    def _fill(self, xs: list) -> None:
        """Cache f at every x of xs not cached yet: per rule order, one
        kernel grid on the (|x|, node) outer product for each block of
        _PW_BLOCK values of |x|.  The grid gives each node the value it would
        get alone, so a batched x reads the same as a single one (to rounding
        past alpha = 9, where one Miller sweep takes nodes beyond 50).
        E_alpha(-ixt) = conj E_alpha(ixt) to the bit, so the grid covers the
        nodes t > 0 alone, and one grid row gives f(x) = sum kv wu and
        f(-x) = sum conj(kv) wu, each only where it was asked."""
        todo: dict = {}
        for v in xs:
            k = round(v, 14)
            if k not in self._cache:
                # per order, |x| -> [|x| as given, x asked, -x asked]
                row = todo.setdefault(_order_for(abs(v)), {}).setdefault(
                    abs(k), [abs(v), False, False])
                row[1 if k >= 0 else 2] = True
        for order, items in sorted(todo.items()):
            nodes, wu = self._rule(order)
            keys = list(items)
            for i in range(0, len(keys), _PW_BLOCK):
                # x alone, then both signs, then -x alone: each sign's rows
                # are one slice (the values do not depend on the row order)
                blk = sorted(keys[i:i + _PW_BLOCK], key=lambda k: (not items[k][1], items[k][2]))
                n_pos = sum(items[k][1] for k in blk)
                n_neg = sum(items[k][2] for k in blk)
                vs = np.asarray([items[k][0] for k in blk])
                kp = _dunkl_e(self.alpha, np.outer(vs, nodes[len(nodes) // 2:]))
                kv = np.concatenate([np.conj(kp[:, ::-1]), kp], axis=1)
                self._cache.update(zip(blk[:n_pos], (kv[:n_pos] * wu).sum(axis=1).tolist()))
                neg = kv[len(blk) - n_neg:]
                np.conj(neg, out=neg)
                self._cache.update(zip([-k for k in blk[len(blk) - n_neg:]],
                                       (neg * wu).sum(axis=1).tolist()))

    def eval(self, x):
        """f at one real x, or at every entry of an array of x (cached)."""
        if np.ndim(x) == 0:
            x = float(x)
            self._fill([x])
            return self._cache[round(x, 14)]
        xs = np.asarray(x, dtype=float)
        flat = xs.ravel().tolist()
        self._fill(flat)
        return np.asarray([self._cache[round(v, 14)] for v in flat]).reshape(xs.shape)

    def __call__(self, x):
        return self.eval(x)


# ---------------------------------------------------------------------------
# Kernel systems and biorthogonal pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSystem:
    """Kernel K(x, t) on R x [-1, 1] and its windowed inverse transform,
    which gives the coefficients S_n of the bilinear expansion.

    kernel(x, t) takes real x and t, either one of them a node array.
    """

    kernel: Callable

    def inverse_on_interval(self, g: Callable, x: float, measure: Measure):
        """int_{-1}^{1} g(t) K(x, t) dmeasure(t): the windowed inverse transform.

        g maps the node array to a table with one row per function: one
        integral per row.
        """
        nodes, w = rule_for_measure(measure, _RULE_ORDER)
        return g(nodes) @ (w * self.kernel(x, nodes))


@dataclass(frozen=True)
class BiorthSystem:
    """Biorthonormal pair (P_n, Q_n) on [-1, 1] for a base measure.

    q_measure and q_smooth express conj(Q_n) times the base measure as a
    smooth factor against a Gauss-exact weighted measure, so that Gram
    matrices and S_n quadratures keep spectral accuracy even when Q carries
    an endpoint weight like (1-t^2)^beta.  P(ns, t) and q_smooth(ns, t)
    give the table of every index of ns (one row each) on a node array t.
    """

    index: Literal["Z", "N"]
    P: Callable[[Sequence[int], np.ndarray], np.ndarray]
    q_measure: Measure
    q_smooth: Callable[[Sequence[int], np.ndarray], np.ndarray]

    def gram(self, ns, ms) -> np.ndarray:
        """Matrix of int_I P_n conj(Q_m) dmu_base over n in ns, m in ms, by
        the weight-absorbed rule: (P w) Q^T from one table per family."""
        nodes, w = rule_for_measure(self.q_measure, _RULE_ORDER)
        # a complex product for every system, real tables included
        return (self.P(ns, nodes) * w) @ self.q_smooth(ms, nodes).astype(complex).T


def _window(index: str, N: int) -> list:
    if index == "Z":
        return list(range(-N, N + 1))
    return list(range(N))


def expand_kernel(sys: KernelSystem, bio: BiorthSystem, x: float, N: int) -> TruncatedSeries:
    """Coefficients S_n(x) of the bilinear expansion, by quadrature.

    Returns the coefficient window: |n| <= N for Z-indexed systems, n < N
    otherwise.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    ns = _window(bio.index, N)
    coeffs = sys.inverse_on_interval(lambda t: bio.q_smooth(ns, t), x,
                                     bio.q_measure).tolist()
    return TruncatedSeries(coeffs=coeffs, n_min=ns[0])


# ---------------------------------------------------------------------------
# Instantiation: classical sampling (complex exponentials)
# ---------------------------------------------------------------------------

_SQ2PI = math.sqrt(2.0 * math.pi)


def fourier_system():
    """Kernel e^{ixt}/sqrt(2 pi) with Lebesgue measure; P_n = Q_n the
    normalized exponentials, index set Z."""
    ks = KernelSystem(kernel=lambda x, t: np.exp(1j * x * t) / _SQ2PI)

    def p(ns, t: np.ndarray) -> np.ndarray:
        return np.exp((1j * math.pi * np.asarray(ns))[:, None] * t) / math.sqrt(2.0)

    bio = BiorthSystem(
        index="Z",
        P=p,
        q_measure=Measure("lebesgue"),
        q_smooth=lambda ns, t: np.conj(p(ns, t)),
    )
    return ks, bio


def fourier_sampling_coeff(n: int, x: float) -> float:
    """Closed form S_n(x) = sin(x - pi n) / (sqrt(pi) (x - pi n))."""
    d = x - math.pi * n
    if abs(d) < 1e-8:
        # removable singularity: sinc expansion
        return (1.0 - d * d / 6.0) / math.sqrt(math.pi)
    return math.sin(d) / (math.sqrt(math.pi) * d)


# ---------------------------------------------------------------------------
# Instantiation: Gegenbauer plane wave
# ---------------------------------------------------------------------------

def _gegenbauer_coeff_pref(beta: float, n: int) -> complex:
    """S_n(x) / (J_{beta+n}(x)/x^beta) for the Gegenbauer system."""
    return 2.0 ** (beta - 0.5) / math.sqrt(math.pi) * (1j ** n) * gamma(beta) * (beta + n)


def classical_planewave(beta: float, x: float, t: float, N: int) -> complex:
    """Partial sum of the plane-wave expansion in Gegenbauer polynomials:

        e^{ixt} = Gamma(b) (x/2)^{-b} sum i^n (b+n) J_{b+n}(x) C_n^b(t),

    for b = beta > 0."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not beta > 0.0:
        raise ValueError(f"classical plane wave needs beta > 0, got {beta}")
    acc = 0.0 + 0.0j
    pref = gamma(beta) * 2.0 ** beta
    for n, (c, j) in enumerate(zip(classical_gegenbauer(N - 1, beta, t).tolist(),
                                   _jratio_orders(beta, abs(x), N).tolist())):
        acc += (1j ** n) * (beta + n) * (j * x ** n) * c
    return pref * acc


# ---------------------------------------------------------------------------
# Instantiation: Dunkl sampling on zeros of J_{alpha+1}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DunklSamplingSystem:
    alpha: float
    table: ZeroTable

    def d(self, n: int) -> float:
        """Normalization making d_n E_alpha(i s_n t) orthonormal in dmu_alpha."""
        a = self.alpha
        if n == 0:
            return 2.0 ** (0.5 * (a + 1.0)) * math.sqrt(gamma(a + 2.0))
        s = self.table.signed(n)
        return 2.0 ** (0.5 * a) * math.sqrt(gamma(a + 1.0)) / abs(bessel_i_norm_imag(a, s))

    def e(self, ns, t) -> np.ndarray:
        """d_n E_alpha(i s_n t) for every n of ns at a node or on a node
        array t, one row per n, from one kernel grid on the (n, node) product."""
        s = np.asarray([self.table.signed(n) for n in ns])
        return np.asarray([self.d(n) for n in ns])[:, None] * _dunkl_e(self.alpha, np.outer(s, t))


def dunkl_system(alpha: float, n_max: int = 24):
    """Sampling system for the Dunkl kernel: P_n = Q_n = d_n E_alpha(i s_n t)
    over the zeros s_n of J_{alpha+1}, index set Z."""
    table = bessel_zeros(alpha + 1.0, n_max)
    dss = DunklSamplingSystem(alpha=alpha, table=table)
    ks = KernelSystem(kernel=lambda x, t: _dunkl_e(alpha, x * t))
    bio = BiorthSystem(
        index="Z",
        P=dss.e,
        q_measure=Measure.mu_alpha(alpha),
        q_smooth=lambda ns, t: np.conj(dss.e(ns, t)),
    )
    return ks, bio, dss


def _x_i_alpha1_deriv(alpha: float, s: float) -> float:
    """d/dx [x I_{alpha+1}(ix)] at a zero s of J_{alpha+1} (the first term
    vanishes there)."""
    return -s * s * bessel_i_norm_imag(alpha + 2.0, s) / (2.0 * (alpha + 2.0))


def dunkl_sampling_coeff(dss: DunklSamplingSystem, n: int, x: float) -> float:
    """Closed form S_n(x) for the Dunkl sampling system."""
    a = dss.alpha
    if n == 0:
        return bessel_i_norm_imag(a + 1.0, x) / dss.d(0)
    s = dss.table.signed(n)
    c = dss.d(n) / (2.0 ** (a + 1.0) * gamma(a + 2.0)) * bessel_i_norm_imag(a, s)
    if abs(x - s) < 1e-9 * max(1.0, abs(s)):
        return c * _x_i_alpha1_deriv(a, s)
    return c * x * bessel_i_norm_imag(a + 1.0, x) / (x - s)


def dunkl_sampling_sum(alpha: float, f: PWFunction, x: float, N: int,
                       table: ZeroTable | None = None) -> complex:
    """Truncated sampling series for a band-limited f from samples f(s_n),
    |n| <= N; reproduces f(s_m) exactly at retained nodes."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if table is None or len(table) < N:
        table = bessel_zeros(alpha + 1.0, N)
    s = np.asarray(table.zeros[:N])
    sn = np.concatenate([s, -s])
    fs = f.eval(np.concatenate([[0.0], sn]))
    i1x = bessel_i_norm_imag(alpha + 1.0, x)
    c = 2.0 * (alpha + 1.0) * np.tile(_jnorm_array(alpha, s), 2)
    at = np.abs(x - sn) < 1e-9 * np.maximum(1.0, np.abs(sn))
    terms = fs[1:] * x * i1x / (c * np.where(at, 1.0, x - sn))
    for k in np.flatnonzero(at):
        terms[k] = fs[1 + k] * _x_i_alpha1_deriv(alpha, sn[k]) / c[k]
    return complex(fs[0] * i1x + terms.sum())


def sampling_even_sum(alpha: float, f: PWFunction, x: float, N: int,
                      table: ZeroTable) -> complex:
    """Grouped form of the sampling series for even f:

        f(0) I_{a+1}(ix) + sum f(s_n) I_{a+1}(ix)/((a+1) I_a(i s_n))
                                          * x^2/(x^2 - s_n^2)."""
    if len(table) < N:
        raise ValueError(f"table holds {len(table)} zeros, fewer than N={N}")
    s = np.asarray(table.zeros[:N])
    fs = f.eval(np.concatenate([[0.0], s]))
    i1x = bessel_i_norm_imag(alpha + 1.0, x)
    i0 = _jnorm_array(alpha, s)
    return complex(fs[0] * i1x
                   + np.sum(fs[1:] * i1x / ((alpha + 1.0) * i0) * x * x / (x * x - s * s)))


def sampling_odd_sum(alpha: float, f: PWFunction, x: float, N: int,
                     table: ZeroTable) -> complex:
    """Grouped form for odd f; the algebraic factor is x s_n/(x^2 - s_n^2)
    (pairing the two signed nodes of the full series and using oddness)."""
    if len(table) < N:
        raise ValueError(f"table holds {len(table)} zeros, fewer than N={N}")
    s = np.asarray(table.zeros[:N])
    fs = f.eval(s)
    i1x = bessel_i_norm_imag(alpha + 1.0, x)
    i0 = _jnorm_array(alpha, s)
    return complex(np.sum(fs * i1x / ((alpha + 1.0) * i0) * x * s / (x * x - s * s)))


# ---------------------------------------------------------------------------
# Instantiation: Fourier-Neumann system and the Dunkl plane wave
# ---------------------------------------------------------------------------

def neumann_fn(nu: float, n: int, x: float) -> float:
    """Bessel quotient J_{nu+n+1}(x) / x^{nu+1}: even or odd with n, finite
    at x = 0 (value 1/(2^{nu+1} Gamma(nu+2)) delta_{n0} there)."""
    ax = abs(x)
    return bessel_j_ratio(nu + n + 1.0, ax) * x ** n


def neumann_system(params: Params):
    """Fourier-Neumann biorthogonal pair: P_n the generalized Gegenbauer
    polynomials, Q_n the same against the (1-t^2)^beta weight, over
    dmu_alpha; paired with the Dunkl kernel."""
    fam = GenGegenbauerFamily(params)
    a, b = params.alpha, params.beta
    ks = KernelSystem(kernel=lambda x, t: _dunkl_e(a, x * t))

    def p(ns, t: np.ndarray) -> np.ndarray:
        return fam.table(max(ns), t)[list(ns)]

    bio = BiorthSystem(
        index="N",
        P=p,
        q_measure=Measure.mu_beta_alpha(a, b),
        q_smooth=lambda ns, t: p(ns, t) / np.asarray([fam.norm(n) for n in ns])[:, None],
    )
    return ks, bio, fam


def planewave_partial_sum(params: Params, x: float, t: float, N: int) -> complex:
    """Partial sum of the Dunkl plane-wave expansion

        E_a(ixt) = 2^{a+b+1} Gamma(a+b+1) sum_n i^n (a+b+n+1)
                   J_{a+b+n+1}(x)/x^{a+b+1} C_n^{(b+1/2,a+1/2)}(t),

    which converges super-exponentially in N for fixed x."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if abs(t) > 1.0:
        raise ValueError("|t| <= 1 required")
    ab = params.ab
    fam = GenGegenbauerFamily(params)
    pref = 2.0 ** (ab + 1.0) * gamma(ab + 1.0)
    acc = 0.0 + 0.0j
    for n, (c, j) in enumerate(zip(fam.table(N - 1, t).tolist(),
                                   _jratio_orders(ab + 1.0, abs(x), N).tolist())):
        acc += (1j ** n) * (ab + n + 1.0) * (j * x ** n) * c
    return pref * acc


def fourier_neumann_coeffs(params: Params, f: PWFunction, N: int) -> TruncatedSeries:
    """Expansion coefficients a_n(f), n < N, of f(x) = int u(t) E_a(ixt)
    dmu_a(t) over the Bessel quotients (beta < 1).  The plane-wave expansion
    (planewave_partial_sum) pairs them with the density on [-1, 1]:

        a_n(f) = 2^{a+b+1} Gamma(a+b+1) i^n int_{-1}^{1} u C_n^{(b+1/2,a+1/2)} dmu_a,

    one sum over f's own rule (its endpoint weight folded in)."""
    if not params.beta < 1.0:
        raise ValueError("Fourier-Neumann coefficients need beta < 1")
    if f.alpha != params.alpha:
        raise ValueError(f"f is built for alpha={f.alpha}, not the expansion's "
                         f"alpha={params.alpha}")
    ab = params.ab
    nodes, wu = f._rule(_RULE_ORDER)
    pair = GenGegenbauerFamily(params).table(N - 1, nodes) @ wu
    pref = 2.0 ** (ab + 1.0) * gamma(ab + 1.0)
    coeffs = pref * np.resize([1, 1j, -1, -1j], N) * pair   # i^n exactly
    return TruncatedSeries(coeffs=coeffs.tolist())


def neumann_partial_sum(params: Params, series: TruncatedSeries, x: float) -> complex:
    """Reconstruction sum_n a_n(f) (a+b+n+1) J_{a+b+n+1}(x)/x^{a+b+1}."""
    ab = params.ab
    js = _jratio_orders(ab + 1.0, abs(x), len(series.coeffs)).tolist()
    return sum(c * (ab + n + 1.0) * (j * x ** n) for n, (c, j) in enumerate(zip(series.coeffs, js)))


def hankel_corollary_sum(params: Params, x: float, t: float, N: int) -> float:
    """Even-index reduction of the plane-wave expansion:

        J_a(xt)/(xt)^a = sum_n 2^{b+1} (a+b+2n+1)
            Gamma(a+b+n+1)/Gamma(a+n+1) J_{a+b+2n+1}(x)/x^{a+b+1}
            P_n^{(a,b)}(1-2t^2),  x > 0, 0 < t < 1."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not (x > 0.0 and 0.0 < t < 1.0):
        raise ValueError("need x > 0 and t in (0,1)")
    a, b, ab = params.alpha, params.beta, params.ab
    acc = 0.0
    tab = _jratio_orders(ab + 1.0, x, 2 * N - 1)[::2].tolist()
    for n, (pn, j) in enumerate(zip(_jacobi_rows(N - 1, a, b, 1.0 - 2.0 * t * t), tab)):
        coef = 2.0 ** (b + 1.0) * (ab + 2.0 * n + 1.0) * gamma(ab + n + 1.0) / gamma(a + n + 1.0)
        acc += coef * (j * x ** (2 * n)) * pn
    return acc


def _neville_halfpow(partial: list):
    """Neville extrapolation of partial sums in the variable K^{-1/2}.

    The S/T-pair Grams have cell-sum tails whose smooth decay runs through
    half-integer powers of the cell index; extrapolating against sqrt
    abscissas eliminates them order by order.  Sample indices are spread
    geometrically so the extrapolation stays well conditioned."""
    n = len(partial)
    idx = sorted({max(1, int(round(n / 1.4 ** j))) for j in range(7)})
    if len(idx) < 3:
        return partial[-1], float("inf")
    return _neville(partial, idx, 1.0 / np.sqrt(np.asarray(idx, dtype=float)))


# the S/T Gram's cells of width pi along the line, and the Legendre order
# of T_m that resolves the largest |y| there
_ST_CELLS = 256
_ST_T_ORDER = int(0.8 * _ST_CELLS * math.pi) + 60


def st_gram_gegenbauer(beta: float, nmax: int) -> np.ndarray:
    """Gram matrix int_R S_n conj(T_m) dx for the Gegenbauer system.

    S_n comes from its closed form; T_m = conj of the transform of the
    windowed polynomial, evaluated by interval quadrature on a shared cell
    grid along the line (rule order scaled to resolve the largest |y|);
    the slowly decaying tail is extrapolated in K^{-1/2}.  The result
    should be the identity, the generic biorthogonality of the pair.
    """
    xg, wg = _legendre16()
    cells, t_order = _ST_CELLS, _ST_T_ORDER
    tz, tw = gauss_jacobi(t_order, 0.0, 0.0)
    # C_m has parity (-1)^m and the rule is symmetric, so T_m sums over the
    # nodes t >= 0 with doubled weights (not that of an odd rule's t = 0)
    th, wh = tz[t_order // 2:], 2.0 * tw[t_order // 2:]
    wh[0] /= 1 + t_order % 2
    pm = classical_gegenbauer(nmax, beta, th)
    gram = np.zeros((nmax + 1, nmax + 1), dtype=complex)
    ys = np.concatenate([0.5 * math.pi * xg + (k + 0.5) * math.pi
                         for k in range(cells)])
    # T_m(y) = int_{-1}^1 C_m(t) e^{i t y} dt / sqrt(2 pi), vectorized: the
    # cos sum for even m, i times the sin sum for odd m, and T_m(-y) =
    # conj T_m(y).  e^{i y t} is e^{i (k + 1/2) pi t}, one row per cell k,
    # times e^{i pi x_g t / 2}, one row per Legendre node x_g.
    cell = np.exp(1j * math.pi * (np.arange(cells) + 0.5)[:, None] * th) * wh
    node = np.exp(0.5j * math.pi * xg[:, None] * th)
    tm = np.empty((cells, len(xg), nmax + 1), dtype=complex)
    for g, row in enumerate(node):
        z = (cell * row) @ pm.T / _SQ2PI
        tm[:, g, 0::2] = z.real[:, 0::2]
        tm[:, g, 1::2] = 1j * z.imag[:, 1::2]
    tm = tm.reshape(len(ys), nmax + 1)
    for n in range(nmax + 1):
        # the closed form S_n(y) on the whole y-grid; S_n(-y) = (-1)^n S_n(y)
        sn = _gegenbauer_coeff_pref(beta, n) * (_jratio_array(beta + n, ys) * ys ** n)
        integ = sn[:, None] * (np.conj(tm) + (-1.0) ** n * tm)
        # cell sums and their running totals, one column per m
        partial = np.cumsum(0.5 * math.pi * (wg @ integ.reshape(cells, 16, nmax + 1)), axis=0)
        for m in range(nmax + 1):
            gram[n, m], _ = _neville_halfpow(partial[:, m])
    return gram


def kernel_norm_sq(alpha: float, x: float) -> float:
    """Closed form of int_{-1}^{1} |E_alpha(ixr)|^2 dmu_alpha(r):

        (x^2 I_{a+1}^2/(2(a+1)) - (2a+1) I_{a+1} I_a + 2(a+1) I_a^2)
            / (2^{a+1} Gamma(a+2)),

    all I evaluated at ix (real values).  At alpha = -1/2 this is the
    constant 2/sqrt(2 pi); in the Lebesgue normalization of the classical
    Fourier kernel the same quantity reads 1/pi.
    """
    if alpha <= -1.0:
        raise ValueError("alpha must exceed -1")
    i0 = bessel_i_norm_imag(alpha, x)
    i1 = bessel_i_norm_imag(alpha + 1.0, x)
    return (x * x * i1 * i1 / (2.0 * (alpha + 1.0))
            - (2.0 * alpha + 1.0) * i1 * i0
            + 2.0 * (alpha + 1.0) * i0 * i0) / (2.0 ** (alpha + 1.0) * gamma(alpha + 2.0))
