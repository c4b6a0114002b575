"""Bilinear kernel expansions into biorthogonal systems.

The abstract engine: a kernel K(x, t) on R x [-1, 1] with a weighted
measure, a transform Kf(t) = int f(x) conj(K(x, t)) dmu(x), and a pair of
biorthonormal sequences (P_n, Q_n) on the interval.  The kernel then
expands as K(x, t) = sum_n P_n(t) S_n(x) with S_n the inverse transform of
the windowed conj(Q_n).

Four concrete instantiations are provided: the classical sampling system
(complex exponentials), the Gegenbauer plane-wave system, the Dunkl
sampling system on zeros of J_{alpha+1}, and the Fourier-Neumann system of
generalized Gegenbauer polynomials against Bessel quotients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

import numpy as np

from .orthopoly import GenGegenbauerFamily, _jacobi_rows, classical_gegenbauer
from .quad import (Measure, _first_cell_rule, _legendre16, _neville, accelerate,
                   gauss_jacobi, rule_for_measure)
from .specfun import (Params, ZeroTable, _jnorm_array, _jratio_array,
                      bessel_i_norm_imag, bessel_j_ratio, bessel_zeros,
                      dunkl_kernel, gamma)

__all__ = [
    "TruncatedSeries",
    "KernelSystem",
    "BiorthSystem",
    "PWFunction",
    "fourier_system",
    "gegenbauer_system",
    "dunkl_system",
    "neumann_system",
    "expand_kernel",
    "fourier_sampling_coeff",
    "gegenbauer_coeff",
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
    """Ordered coefficient window with its truncation order and tail bound.

    For Z-indexed systems coeffs run n = n_min .. n_min + len - 1 with
    n_min = -order; for N-indexed ones n_min = 0.
    """

    coeffs: list
    order: int
    tail_estimate: float
    n_min: int = 0
    partial_sum: Callable | None = None

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
    """Kernel K(x, t) with its measure and the transform it induces.

    kernel(x, t) takes real x and t, either one of them a node array.
    """

    name: str
    kernel: Callable
    measure: Measure

    def inverse_on_interval(self, g: Callable, x: float, measure: Measure):
        """int_{-1}^{1} g(t) K(x, t) dmeasure(t): the windowed inverse transform.

        g maps the node array to a table with one row per function: one
        integral per row.
        """
        nodes, w = rule_for_measure(measure, _RULE_ORDER)
        return g(nodes) @ (w * self.kernel(x, nodes))

    def transform_line(self, f: Callable[[float], complex], t: float,
                       radius: float = 40.0) -> complex:
        """Kf(t) = int_R f(x) conj(K(x, t)) dmu(x), cellwise (cells of
        pi/max(1, |t|)) to the radius, with the tail extrapolated from the
        oscillatory cell sums."""
        if self.measure.kind == "mu_beta_alpha":
            raise ValueError("line transform needs a measure supported on the line")
        cell = math.pi / max(1.0, abs(t))
        xg, wg = _legendre16()
        # first cell on each side handles the |x|^{2a+1} factor exactly
        if self.measure.kind == "lebesgue":
            exp0, norm0 = 0.0, 1.0
        else:
            exp0 = 2.0 * self.measure.a + 1.0
            norm0 = 1.0 / (2.0 ** (self.measure.a + 1.0) * gamma(self.measure.a + 1.0))
        u0, w0 = _first_cell_rule(exp0)
        edges = [cell]
        while edges[-1] < radius:
            edges.append(edges[-1] + cell)
        a, b = np.asarray(edges[:-1]), np.asarray(edges[1:])
        xs = np.concatenate([cell * u0, (0.5 * (b - a)[:, None] * xg
                                         + 0.5 * (a + b)[:, None]).ravel()])
        # one kernel evaluation on every node of every cell, both signs
        kern = np.conj(self.kernel(np.concatenate([xs, -xs]), t)).reshape(2, -1)
        fx = np.asarray([f(x) for x in xs])
        fmx = np.asarray([f(-x) for x in xs])
        fold = fx * kern[0] + fmx * kern[1]
        n0 = len(u0)
        cells = (0.5 * (b - a) * ((fold[n0:] * self.measure.density(xs[n0:]))
                                  .reshape(-1, len(xg)) @ wg))
        first = cell ** (exp0 + 1.0) * complex(np.dot(w0, fold[:n0])) * norm0
        partial = np.cumsum(np.concatenate([[first], cells])).tolist()
        if len(partial) >= 8:
            val, _ = accelerate(partial)
            return complex(val)
        return complex(partial[-1])

    def multiplication_residual(self, f: Callable, g: Callable,
                                radius: float = 12.0) -> float:
        """|int (Kf) g dmu - int (Kg) f dmu| for decaying test functions."""
        xg, wg = gauss_jacobi(24, 0.0, 0.0)
        dens = self.measure.density
        lhs = 0.0 + 0.0j
        rhs = 0.0 + 0.0j
        edge = 0.0
        while edge < radius:
            a, b = edge, edge + 1.0
            xs = 0.5 * (b - a) * xg + 0.5 * (a + b)
            v1 = np.asarray([(self.transform_line(f, x, radius) * g(x)
                              + self.transform_line(f, -x, radius) * g(-x)) * dens(x)
                             for x in xs])
            v2 = np.asarray([(self.transform_line(g, x, radius) * f(x)
                              + self.transform_line(g, -x, radius) * f(-x)) * dens(x)
                             for x in xs])
            lhs += 0.5 * (b - a) * complex(np.dot(wg, v1))
            rhs += 0.5 * (b - a) * complex(np.dot(wg, v2))
            edge = b
        return abs(lhs - rhs)


@dataclass(frozen=True)
class BiorthSystem:
    """Biorthonormal pair (P_n, Q_n) on [-1, 1] for a base measure.

    q_measure and q_smooth express conj(Q_n) times the base measure as a
    smooth factor against a Gauss-exact weighted measure, so that Gram
    matrices and S_n quadratures keep spectral accuracy even when Q carries
    an endpoint weight like (1-t^2)^beta.  P(ns, t) and q_smooth(ns, t)
    give the table of every index of ns (one row each) on a node array t.
    """

    name: str
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

    Returns the coefficient window (|n| <= N for Z-indexed systems, n < N
    otherwise) together with the partial-sum callable t -> sum P_n(t) S_n(x).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    ns = _window(bio.index, N)
    coeffs = sys.inverse_on_interval(lambda t: bio.q_smooth(ns, t), x,
                                     bio.q_measure).tolist()
    tail = max(abs(coeffs[0]), abs(coeffs[-1]))

    def partial(t: float) -> complex:
        return complex(np.dot(coeffs, bio.P(ns, np.array([t]))[:, 0]))

    return TruncatedSeries(coeffs=coeffs, order=N, tail_estimate=tail,
                           n_min=ns[0], partial_sum=partial)


# ---------------------------------------------------------------------------
# Instantiation: classical sampling (complex exponentials)
# ---------------------------------------------------------------------------

_SQ2PI = math.sqrt(2.0 * math.pi)


def fourier_system():
    """Kernel e^{ixt}/sqrt(2 pi) with Lebesgue measure; P_n = Q_n the
    normalized exponentials, index set Z."""
    ks = KernelSystem(
        name="fourier",
        kernel=lambda x, t: np.exp(1j * x * t) / _SQ2PI,
        measure=Measure("lebesgue"),
    )

    def p(ns, t: np.ndarray) -> np.ndarray:
        return np.exp((1j * math.pi * np.asarray(ns))[:, None] * t) / math.sqrt(2.0)

    bio = BiorthSystem(
        name="fourier",
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

def _gegenbauer_h(beta: float, n: int) -> float:
    """L2 norm of C_n^beta against (1-t^2)^{beta-1/2} dt."""
    return (math.sqrt(math.pi) * gamma(beta + 0.5) * gamma(2.0 * beta + n)
            / (gamma(beta) * gamma(2.0 * beta) * (n + beta) * gamma(n + 1.0)))


def gegenbauer_system(beta: float):
    """Plane-wave system: P_n the Gegenbauer polynomials of order beta > 0,
    Q_n the same polynomials times the weight, over Lebesgue measure."""
    if not beta > 0.0:
        raise ValueError(f"gegenbauer system needs beta > 0, got {beta}")
    ks = KernelSystem(
        name="gegenbauer",
        kernel=lambda x, t: np.exp(1j * x * t) / _SQ2PI,
        measure=Measure("lebesgue"),
    )

    def p(ns, t: np.ndarray) -> np.ndarray:
        return classical_gegenbauer(max(ns), beta, t)[list(ns)]

    def q(ns, t: np.ndarray) -> np.ndarray:
        return _SQ2PI * p(ns, t) / np.asarray([_gegenbauer_h(beta, n) for n in ns])[:, None]

    bio = BiorthSystem(
        name="gegenbauer",
        index="N",
        P=p,
        q_measure=Measure.mu_beta_alpha(-0.5, beta - 0.5),
        q_smooth=q,
    )
    return ks, bio


def _gegenbauer_coeff_pref(beta: float, n: int) -> complex:
    """S_n(x) / (J_{beta+n}(x)/x^beta) for the Gegenbauer system."""
    return 2.0 ** (beta - 0.5) / math.sqrt(math.pi) * (1j ** n) * gamma(beta) * (beta + n)


def gegenbauer_coeff(beta: float, n: int, x: float) -> complex:
    """Closed form S_n(x) for the Gegenbauer system,

        2^{beta-1/2} pi^{-1/2} i^n Gamma(beta) (beta+n) J_{beta+n}(x)/x^beta.
    """
    # J_{beta+n}(x) / x^beta
    return _gegenbauer_coeff_pref(beta, n) * (bessel_j_ratio(beta + n, abs(x)) * x ** n)


def classical_planewave(beta: float, x: float, t: float, N: int) -> complex:
    """Partial sum of the plane-wave expansion in Gegenbauer polynomials:

        e^{ixt} = Gamma(b) (x/2)^{-b} sum i^n (b+n) J_{b+n}(x) C_n^b(t),

    for b = beta > 0."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not beta > 0.0:
        raise ValueError(f"classical plane wave needs beta > 0, got {beta}")
    acc = 0.0 + 0.0j
    ax = abs(x)
    pref = gamma(beta) * 2.0 ** beta
    for n, c in enumerate(classical_gegenbauer(N - 1, beta, t).tolist()):
        jq = bessel_j_ratio(beta + n, ax) * x ** n
        acc += (1j ** n) * (beta + n) * jq * c
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
    ks = KernelSystem(
        name="dunkl",
        kernel=lambda x, t: _dunkl_e(alpha, x * t),
        measure=Measure.mu_alpha(alpha),
    )
    bio = BiorthSystem(
        name="dunkl-sampling",
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
    ks = KernelSystem(
        name="neumann",
        kernel=lambda x, t: _dunkl_e(a, x * t),
        measure=Measure.mu_alpha(a),
    )

    def p(ns, t: np.ndarray) -> np.ndarray:
        return fam.table(max(ns), t)[list(ns)]

    bio = BiorthSystem(
        name="fourier-neumann",
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
    for n, c in enumerate(fam.table(N - 1, t).tolist()):
        acc += (1j ** n) * (ab + n + 1.0) * neumann_fn(ab, n, x) * c
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
    coeffs = (pref * np.resize([1, 1j, -1, -1j], N) * pair).tolist()   # i^n exactly
    tail = abs(coeffs[-1]) if coeffs else 0.0
    return TruncatedSeries(coeffs=coeffs, order=N, tail_estimate=tail)


def neumann_partial_sum(params: Params, series: TruncatedSeries, x: float) -> complex:
    """Reconstruction sum_n a_n(f) (a+b+n+1) J_{a+b+n+1}(x)/x^{a+b+1}."""
    ab = params.ab
    return sum(c * (ab + n + 1.0) * neumann_fn(ab, n, x)
               for n, c in enumerate(series.coeffs))


def hankel_corollary_sum(params: Params, x: float, t: float, N: int) -> float:
    """Even-index reduction of the plane-wave expansion:

        J_a(xt)/(xt)^a = sum_n 2^{b+1} (a+b+2n+1)
            Gamma(a+b+n+1)/Gamma(a+n+1) J_{a+b+2n+1}(x)/x^{a+b+1}
            P_n^{(a,b)}(1-2t^2),  x > 0, 0 < t < 1."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if not (x > 0.0 and 0.0 < t < 1.0):
        raise ValueError("need x > 0 and t in (0,1)")
    a, b = params.alpha, params.beta
    ab = params.ab
    acc = 0.0
    for n, pn in enumerate(_jacobi_rows(N - 1, a, b, 1.0 - 2.0 * t * t)):
        coef = 2.0 ** (b + 1.0) * (ab + 2.0 * n + 1.0) * gamma(ab + n + 1.0) / gamma(a + n + 1.0)
        acc += coef * neumann_fn(ab, 2 * n, x) * pn
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
        # gegenbauer_coeff(beta, n, y) on the whole y-grid; S_n(-y) = (-1)^n S_n(y)
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
