"""Bilinear kernel expansions into biorthogonal systems.

The engine is one type, BiorthSystem: a kernel K(x, t) on R x [-1, 1], a
pair of biorthonormal sequences (P_n, Q_n) on the interval, and the
measure of their pairing, given as the exponents (a, b) of
|t|^{2a+1} (1-t^2)^b dt / (2^{a+1} Gamma(a+1)).  The kernel expands as
K(x, t) = sum_n P_n(t) S_n(x) with S_n(x) = int K(x, t) conj(Q_n(t)) dmu(t),
which expand_kernel sums on the node array of one rule.

Three instantiations are provided: the classical sampling system (complex
exponentials), the Dunkl sampling system on zeros of J_{alpha+1}, whose series
take samples of f on sampling_nodes, and the Fourier-Neumann system of
generalized Gegenbauer polynomials against Bessel quotients.  The Gegenbauer
plane-wave pair enters by its closed forms: the partial sum classical_planewave
and the Gram of its S/T pair on the line, st_gram_gegenbauer, whose T_m sums
C_m's Legendre coefficients against the spherical Bessel values j_l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

import numpy as np

from .orthopoly import GenGegenbauerFamily, _jacobi_rows, classical_gegenbauer
from .quad import _legendre16, _neville, gauss_jacobi, rule_for_measure
from .specfun import (Params, ZeroTable, _jnorm_array, _jratio_array, _jratio_orders,
                      bessel_i_norm_imag, bessel_j_ratio, bessel_zeros, gamma)

__all__ = [
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
    "sampling_nodes",
    "dunkl_sampling_sum",
    "sampling_even_sum",
    "sampling_odd_sum",
    "fourier_neumann_coeffs",
    "neumann_partial_sum",
    "hankel_corollary_sum",
    "kernel_norm_sq",
]


# ---------------------------------------------------------------------------
# Vectorized Dunkl kernel on a node grid
# ---------------------------------------------------------------------------

def dunkl_kernel_grid(alpha: float, xs: np.ndarray, parts=(True, True)) -> np.ndarray:
    """E_alpha(i x) on an array of real arguments, j_a(x) + i x j_{a+1}(x)
    / (2(a+1)) from specfun's array path for the normalized Bessel values
    j_nu(x) = Gamma(nu+1) (2/x)^nu J_nu(x): both orders from one call, in
    the regime of order a, as the scalar dunkl_kernel takes them (two
    series, two asymptotic values or one Miller sweep).  parts = (even,
    odd) names the terms to form: a term left out reads 0, and its Bessel
    order is not computed; a term kept reads what it reads in the whole."""
    xs = np.asarray(xs, dtype=float)
    j0, j1 = _jnorm_array(alpha, xs, pair=tuple(parts))
    e = np.zeros(xs.shape, dtype=complex) if j0 is None else j0 + 0j
    if j1 is not None:
        e += 1j * xs * (j1 / (2.0 * (alpha + 1.0)))
    return e


def _dunkl_e(alpha: float, x: np.ndarray, parts=(True, True)) -> np.ndarray:
    """E_alpha(i x) on an array of any shape (one kernel grid over its
    flattened nodes), the terms of dunkl_kernel_grid's parts."""
    x = np.asarray(x, dtype=float)
    return dunkl_kernel_grid(alpha, x.ravel(), parts).reshape(x.shape)


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

    The generating density u, a function of a node array, is the primary
    representation; every ground truth evaluation goes through quadrature
    of the defining integral, with the rule order scaled to resolve the
    oscillation at large |x|.

    A density of the form u(t) = (1-t^2)^w * smooth(t) should be passed as
    (smooth, weight_pow=w): folding the endpoint factor into the rule's
    weight keeps the quadrature spectrally accurate.
    """

    u: Callable[[np.ndarray], np.ndarray]
    alpha: float
    weight_pow: float = 0.0
    _rules: dict = field(default_factory=dict, repr=False)

    def _rules_for(self, orders: list) -> list:
        """Per rule order: its nodes, the weighted density w u on them, and
        which parts of w u are not 0 on every node, (even, odd), with the
        even part w u(t) + w u(-t) and the odd part w u(t) - w u(-t).  The
        rules f lacks come from one rule_for_measure call, and u is called
        once per order, on the node array."""
        new = [o for o in orders if o not in self._rules]
        if new:
            for order, (nodes, w) in zip(new, rule_for_measure(self.alpha, self.weight_pow, new)):
                wu = w * np.asarray(self.u(nodes))
                h = len(nodes) // 2
                pos, neg = wu[h:], wu[h - 1::-1]
                self._rules[order] = (nodes, wu, (bool(np.any(pos + neg)), bool(np.any(pos - neg))))
        return [self._rules[o] for o in orders]

    def eval(self, x):
        """f at one real x, or at every entry of an array of x: per rule order,
        one kernel grid on the nodes t > 0 for each block of _PW_BLOCK distinct
        |x|, ascending.  E_alpha(-ixt) = conj E_alpha(ixt) to the bit, so one
        grid row, mirrored onto every node, gives f(|x|) = sum kv wu and
        f(-|x|) = sum conj(kv) wu; where w u is real, f(-|x|) = conj f(|x|).
        A part of w u that is 0 on every node takes no Bessel order: the grid
        is j_alpha alone for an even w u and x t j_{alpha+1} alone for an odd
        one.  The sum over the mirrored grid stays complex and pairwise,
        which keeps the real part of f to the bit of the whole kernel.  The
        grid gives each node the value it would get alone, so a batched x reads
        the same as a single one (to rounding past alpha = 9, where one Miller
        sweep takes nodes beyond 50)."""
        xs = np.asarray(x, dtype=float)
        # the distinct |x|, ascending (np.unique would import numpy.ma, 0.5 MB)
        ax = np.asarray(sorted(set(np.abs(xs).ravel().tolist())))
        vals = np.empty((2, len(ax)), dtype=complex)   # f(|x|), f(-|x|)
        orders = np.asarray([_order_for(v) for v in ax.tolist()])
        used = sorted(set(orders.tolist()))
        for order, (nodes, wu, parts) in zip(used, self._rules_for(used)):
            real = not np.iscomplexobj(wu)
            rows = np.flatnonzero(orders == order)
            for blk in (rows[i:i + _PW_BLOCK] for i in range(0, len(rows), _PW_BLOCK)):
                kp = _dunkl_e(self.alpha, np.outer(ax[blk], nodes[len(nodes) // 2:]), parts)
                kv = np.concatenate([np.conj(kp[:, ::-1]), kp], axis=1)
                vals[0, blk] = (kv * wu).sum(axis=1)
                vals[1, blk] = np.conj(vals[0, blk]) if real else (np.conj(kv) * wu).sum(axis=1)
        out = vals[(xs < 0.0).astype(int), np.searchsorted(ax, np.abs(xs))]
        return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Kernels and their biorthogonal pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiorthSystem:
    """Kernel K(x, t) on R x [-1, 1] and a biorthonormal pair (P_n, Q_n) on
    [-1, 1] for a base measure.

    kernel(x, t) takes a real x and a node array t.  q_measure, the
    exponents (a, b) of rule_for_measure, and q_smooth express conj(Q_n)
    times the base measure as a smooth factor against a Gauss-exact
    weighted measure, so that Gram matrices and S_n quadratures keep
    spectral accuracy even when Q carries an endpoint weight like
    (1-t^2)^beta.  P(ns, t) and q_smooth(ns, t) give the table of every
    index of ns (one row each) on a node array t.
    """

    index: Literal["Z", "N"]
    kernel: Callable[[float, np.ndarray], np.ndarray]
    P: Callable[[Sequence[int], np.ndarray], np.ndarray]
    q_measure: tuple[float, float]
    q_smooth: Callable[[Sequence[int], np.ndarray], np.ndarray]

    def gram(self, ns, ms) -> np.ndarray:
        """Matrix of int_I P_n conj(Q_m) dmu_base over n in ns, m in ms, by
        the weight-absorbed rule: (P w) Q^T from one table per family."""
        nodes, w = rule_for_measure(*self.q_measure, _RULE_ORDER)
        # a complex product for every system, real tables included
        return (self.P(ns, nodes) * w) @ self.q_smooth(ms, nodes).astype(complex).T


def expand_kernel(bio: BiorthSystem, x: float, N: int) -> dict:
    """Coefficients S_n(x) = int_{-1}^{1} K(x, t) conj(Q_n(t)) dmu_base(t)
    of the bilinear expansion, by one quadrature for the whole window.

    Returns {n: S_n(x)} over |n| <= N for Z-indexed systems, n < N
    otherwise.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    ns = list(range(-N, N + 1)) if bio.index == "Z" else list(range(N))
    nodes, w = rule_for_measure(*bio.q_measure, _RULE_ORDER)
    return dict(zip(ns, (bio.q_smooth(ns, nodes) @ (w * bio.kernel(x, nodes))).tolist()))


# ---------------------------------------------------------------------------
# Instantiation: classical sampling (complex exponentials)
# ---------------------------------------------------------------------------

_SQ2PI = math.sqrt(2.0 * math.pi)


def fourier_system() -> BiorthSystem:
    """Kernel e^{ixt}/sqrt(2 pi) with Lebesgue measure; P_n = Q_n the
    normalized exponentials, index set Z.  The rule is that of (-1/2, 0),
    dt/sqrt(2 pi), so q_smooth carries the factor sqrt(2 pi)."""

    def p(ns, t: np.ndarray) -> np.ndarray:
        return np.exp((1j * math.pi * np.asarray(ns))[:, None] * t) / math.sqrt(2.0)

    return BiorthSystem(
        index="Z",
        kernel=lambda x, t: np.exp(1j * x * t) / _SQ2PI,
        P=p,
        q_measure=(-0.5, 0.0),
        q_smooth=lambda ns, t: _SQ2PI * np.conj(p(ns, t)),
    )


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


def _planewave_sum(nu: float, x: float, cs: list) -> complex:
    """2^nu Gamma(nu) sum_n i^n (nu+n) J_{nu+n}(x)/x^nu c_n over the
    polynomial values cs = [c_0, ..., c_{N-1}]: the plane-wave partial sums
    with nu = beta (Gegenbauer) and nu = a+b+1 (Dunkl)."""
    acc = 0.0 + 0.0j
    for n, (c, j) in enumerate(zip(cs, _jratio_orders(nu, abs(x), len(cs)).tolist())):
        acc += (1j ** n) * (nu + n) * (j * x ** n) * c
    return gamma(nu) * 2.0 ** nu * acc


def classical_planewave(beta: float, x: float, t: float, N: int) -> complex:
    """Partial sum of the plane-wave expansion in Gegenbauer polynomials:

        e^{ixt} = Gamma(b) (x/2)^{-b} sum i^n (b+n) J_{b+n}(x) C_n^b(t),

    for b = beta > 0."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not beta > 0.0:
        raise ValueError(f"classical plane wave needs beta > 0, got {beta}")
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return _planewave_sum(beta, x, classical_gegenbauer(N - 1, beta, t).tolist())


# ---------------------------------------------------------------------------
# Instantiation: Dunkl sampling on zeros of J_{alpha+1}
# ---------------------------------------------------------------------------

def _dunkl_d(alpha: float, s: float) -> float:
    """d_n at the signed node s = s_n, making d_n E_alpha(i s_n t) orthonormal."""
    if s == 0.0:
        return 2.0 ** (0.5 * (alpha + 1.0)) * math.sqrt(gamma(alpha + 2.0))
    return 2.0 ** (0.5 * alpha) * math.sqrt(gamma(alpha + 1.0)) / abs(bessel_i_norm_imag(alpha, s))


def dunkl_system(alpha: float, n_max: int) -> BiorthSystem:
    """Sampling system for the Dunkl kernel: P_n = Q_n = d_n E_alpha(i s_n t)
    over the zeros s_n of J_{alpha+1}, |n| <= n_max, index set Z."""
    table = bessel_zeros(alpha + 1.0, n_max)

    def e(ns, t) -> np.ndarray:
        # one kernel grid on the (n, node) product, one row per n
        s = np.asarray([table.signed(n) for n in ns])
        d = np.asarray([_dunkl_d(alpha, v) for v in s.tolist()])
        return d[:, None] * _dunkl_e(alpha, np.outer(s, t))

    return BiorthSystem(
        index="Z",
        kernel=lambda x, t: _dunkl_e(alpha, x * t),
        P=e,
        q_measure=(alpha, 0.0),
        q_smooth=lambda ns, t: np.conj(e(ns, t)),
    )


def _x_i_alpha1_deriv(alpha: float, x: float, s: np.ndarray):
    """The node rule of the sampling series at x: the mask of the nodes of
    the array s within 1e-9 relative of x, where x I_{alpha+1}(ix)/(x - s)
    is 0/0, and its limit at each of them, d/dx [x I_{alpha+1}(ix)] at a
    zero s of J_{alpha+1} (the first term vanishes there)."""
    at = np.abs(x - s) < 1e-9 * np.maximum(1.0, np.abs(s))
    return at, np.asarray([-v * v * bessel_i_norm_imag(alpha + 2.0, v) / (2.0 * (alpha + 2.0))
                           for v in s[at].tolist()])


def dunkl_sampling_coeff(alpha: float, s: float, x: float) -> float:
    """Closed form S_n(x) for the Dunkl sampling system at its signed node
    s = s_n."""
    if s == 0.0:
        return bessel_i_norm_imag(alpha + 1.0, x) / _dunkl_d(alpha, 0.0)
    a = alpha
    c = _dunkl_d(a, s) / (2.0 ** (a + 1.0) * gamma(a + 2.0)) * bessel_i_norm_imag(a, s)
    at, dv = _x_i_alpha1_deriv(a, x, np.asarray([s]))
    return c * float(dv[0]) if at[0] else c * x * bessel_i_norm_imag(a + 1.0, x) / (x - s)


def sampling_nodes(table: ZeroTable, N: int) -> np.ndarray:
    """The signed nodes -s_N, ..., -s_1, 0, s_1, ..., s_N, ascending."""
    if not 1 <= N <= len(table):
        raise ValueError(f"need 1 <= N <= {len(table)}, the zeros the table holds; got N={N}")
    s = np.asarray(table.zeros[:N])
    return np.concatenate([-s[::-1], [0.0], s])


def _samples(alpha: float, fs: np.ndarray, table: ZeroTable, N: int):
    """s_1..s_N and f(0), f(s_n), f(-s_n), n = 1..N, from the centre window
    of fs, the values of f on sampling_nodes(table, M) for some M >= N;
    the table must hold zeros of J_{alpha+1}."""
    if table.nu != alpha + 1.0:
        raise ValueError(f"zero table is of J_{table.nu}; alpha={alpha} samples on J_{alpha + 1.0}")
    s = sampling_nodes(table, N)[N + 1:]
    fs = np.asarray(fs)
    if fs.ndim != 1 or fs.size % 2 == 0 or fs.size < 2 * N + 1:
        raise ValueError(f"need an odd count of samples, at least {2 * N + 1}; got {fs.size}")
    c = fs.size // 2
    return s, fs[c], fs[c + 1:c + N + 1], fs[c - N:c][::-1]


def dunkl_sampling_sum(alpha: float, fs: np.ndarray, x: float, N: int,
                       table: ZeroTable) -> complex:
    """Truncated sampling series, |n| <= N, of a band-limited f from its
    samples fs on sampling_nodes(table, M), M >= N; reproduces f(s_m) exactly
    at retained nodes."""
    s, f0, fp, fm = _samples(alpha, fs, table, N)
    sn, fsn = np.concatenate([s, -s]), np.concatenate([fp, fm])
    i1x = bessel_i_norm_imag(alpha + 1.0, x)
    c = 2.0 * (alpha + 1.0) * np.tile(_jnorm_array(alpha, s), 2)
    at, dv = _x_i_alpha1_deriv(alpha, x, sn)
    terms = fsn * x * i1x / (c * np.where(at, 1.0, x - sn))
    terms[at] = fsn[at] * dv / c[at]
    return complex(f0 * i1x + terms.sum())


def sampling_even_sum(alpha: float, fs: np.ndarray, x: float, N: int,
                      table: ZeroTable) -> complex:
    """Grouped form of the sampling series for even f, from its samples fs:

        f(0) I_{a+1}(ix) + sum f(s_n) I_{a+1}(ix)/((a+1) I_a(i s_n))
                                          * x^2/(x^2 - s_n^2),

    whose m-th term at x = +-s_m is the full series' limit there."""
    s, f0, fp, _ = _samples(alpha, fs, table, N)
    i1x = bessel_i_norm_imag(alpha + 1.0, x)
    i0 = _jnorm_array(alpha, s)
    at, dv = _x_i_alpha1_deriv(alpha, abs(x), s)
    terms = fp * i1x / ((alpha + 1.0) * i0) * x * x / np.where(at, 1.0, x * x - s * s)
    terms[at] = fp[at] * dv / (2.0 * (alpha + 1.0) * i0[at])
    return complex(f0 * i1x + np.sum(terms))


def sampling_odd_sum(alpha: float, fs: np.ndarray, x: float, N: int,
                     table: ZeroTable) -> complex:
    """Grouped form for odd f, from its samples fs; the algebraic factor is
    x s_n/(x^2 - s_n^2) (pairing the two signed nodes of the full series and
    using oddness); at x = +-s_m the m-th term is the full series' limit."""
    s, _, fp, _ = _samples(alpha, fs, table, N)
    i1x = bessel_i_norm_imag(alpha + 1.0, x)
    i0 = _jnorm_array(alpha, s)
    at, dv = _x_i_alpha1_deriv(alpha, abs(x), s)
    terms = fp * i1x / ((alpha + 1.0) * i0) * x * s / np.where(at, 1.0, x * x - s * s)
    terms[at] = math.copysign(1.0, x) * fp[at] * dv / (2.0 * (alpha + 1.0) * i0[at])
    return complex(np.sum(terms))


# ---------------------------------------------------------------------------
# Instantiation: Fourier-Neumann system and the Dunkl plane wave
# ---------------------------------------------------------------------------

def neumann_fn(nu: float, n: int, x: float) -> float:
    """Bessel quotient J_{nu+n+1}(x) / x^{nu+1}: even or odd with n, finite
    at x = 0 (value 1/(2^{nu+1} Gamma(nu+2)) delta_{n0} there)."""
    ax = abs(x)
    return bessel_j_ratio(nu + n + 1.0, ax) * x ** n


def neumann_system(params: Params) -> BiorthSystem:
    """Fourier-Neumann biorthogonal pair: P_n the generalized Gegenbauer
    polynomials, Q_n the same against the (1-t^2)^beta weight, over
    dmu_alpha; paired with the Dunkl kernel."""
    fam = GenGegenbauerFamily(params)
    a, b = params.alpha, params.beta

    def p(ns, t: np.ndarray) -> np.ndarray:
        return fam.table(max(ns), t)[list(ns)]

    return BiorthSystem(
        index="N",
        kernel=lambda x, t: _dunkl_e(a, x * t),
        P=p,
        q_measure=(a, b),
        q_smooth=lambda ns, t: p(ns, t) / np.asarray([fam.norm(n) for n in ns])[:, None],
    )


def planewave_partial_sum(params: Params, x: float, t: float, N: int) -> complex:
    """Partial sum of the Dunkl plane-wave expansion

        E_a(ixt) = 2^{a+b+1} Gamma(a+b+1) sum_n i^n (a+b+n+1)
                   J_{a+b+n+1}(x)/x^{a+b+1} C_n^{(b+1/2,a+1/2)}(t),

    which converges super-exponentially in N for fixed x."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not abs(t) <= 1.0:
        raise ValueError(f"|t| <= 1 required, got {t}")
    cs = GenGegenbauerFamily(params).table(N - 1, t).tolist()
    return _planewave_sum(params.ab + 1.0, x, cs)


def fourier_neumann_coeffs(params: Params, f: PWFunction, N: int) -> np.ndarray:
    """Expansion coefficients a_n(f), n < N, of f(x) = int u(t) E_a(ixt)
    dmu_a(t) over the Bessel quotients (beta < 1), as a complex array.  The
    plane-wave expansion (planewave_partial_sum) pairs them with the
    density on [-1, 1]:

        a_n(f) = 2^{a+b+1} Gamma(a+b+1) i^n int_{-1}^{1} u C_n^{(b+1/2,a+1/2)} dmu_a,

    one sum over f's own rule (its endpoint weight folded in)."""
    if not params.beta < 1.0:
        raise ValueError("Fourier-Neumann coefficients need beta < 1")
    if f.alpha != params.alpha:
        raise ValueError(f"f is built for alpha={f.alpha}, not the expansion's "
                         f"alpha={params.alpha}")
    ab = params.ab
    nodes, wu, _ = f._rules_for([_RULE_ORDER])[0]
    pair = GenGegenbauerFamily(params).table(N - 1, nodes) @ wu
    # i^n exactly
    return 2.0 ** (ab + 1.0) * gamma(ab + 1.0) * np.resize([1, 1j, -1, -1j], N) * pair


def neumann_partial_sum(params: Params, coeffs: np.ndarray, x: float) -> complex:
    """Reconstruction sum_n a_n(f) (a+b+n+1) J_{a+b+n+1}(x)/x^{a+b+1} from
    the array of fourier_neumann_coeffs."""
    ab = params.ab
    js = _jratio_orders(ab + 1.0, abs(x), len(coeffs)).tolist()
    return sum(c * (ab + n + 1.0) * (j * x ** n)
               for n, (c, j) in enumerate(zip(coeffs.tolist(), js)))


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


# the S/T Gram's cells of width pi along the line
_ST_CELLS = 256


def _st_transform(beta: float, nmax: int, ys: np.ndarray) -> np.ndarray:
    """T_m(y) = int_{-1}^1 C_m(t) e^{ity} dt / sqrt(2 pi), one column per
    m <= nmax: sum_l c_ml i^l y^l J_{l+1/2}(y)/y^{l+1/2} over C_m's Legendre
    coefficients c_ml, exact on the (nmax+1)-point rule, by the plane-wave
    expansion int_{-1}^1 P_l(t) e^{ity} dt = 2 i^l j_l(y)."""
    tz, tw = gauss_jacobi(nmax + 1, 0.0, 0.0)
    ls = np.arange(nmax + 1)
    coef = (classical_gegenbauer(nmax, beta, tz) * tw) @ classical_gegenbauer(nmax, 0.5, tz).T
    jl = np.stack([1j ** l * (_jratio_array(l + 0.5, ys) * ys ** l) for l in ls], axis=1)
    return jl @ (coef * (ls + 0.5)).T


def st_gram_gegenbauer(beta: float, nmax: int) -> np.ndarray:
    """Gram matrix int_R S_n conj(T_m) dx for the Gegenbauer system.

    S_n comes from its closed form (Gegenbauer's formula), T_m from the
    Legendre expansion of C_m (_st_transform), with T_m(-y) = conj T_m(y);
    both read the Bessel core on a shared cell grid along the line, and the
    slowly decaying tail is extrapolated in K^{-1/2}.  The result should be
    the identity, the generic biorthogonality of the pair.
    """
    xg, wg = _legendre16()
    ys = np.concatenate([0.5 * math.pi * xg + (k + 0.5) * math.pi for k in range(_ST_CELLS)])
    tm = _st_transform(beta, nmax, ys)
    gram = np.zeros((nmax + 1, nmax + 1), dtype=complex)
    for n in range(nmax + 1):
        # the closed form S_n(y) on the whole y-grid; S_n(-y) = (-1)^n S_n(y)
        sn = _gegenbauer_coeff_pref(beta, n) * (_jratio_array(beta + n, ys) * ys ** n)
        integ = sn[:, None] * (np.conj(tm) + (-1.0) ** n * tm)
        # cell sums and their running totals, one column per m
        partial = np.cumsum(0.5 * math.pi * (wg @ integ.reshape(_ST_CELLS, 16, nmax + 1)), axis=0)
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
