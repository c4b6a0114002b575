import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special as sp

from biexp import quad
from biexp.cli import main
from biexp.quad import (_jacobi_matrix_roots, accelerate, gauss_jacobi, gauss_jacobi01,
                        integrate_bessel_product, integrate_interval,
                        mcmahon_zero, rule_for_measure)
from biexp.specfun import _jratio_array, gamma


def _spy_gauss_jacobi(monkeypatch) -> list:
    """Empty the rule cache and record the (n, a, b) of each Gauss-Jacobi
    rule built from then on."""
    monkeypatch.setattr(quad, "_rule_cache", {})
    calls = []
    build = quad.gauss_jacobi
    monkeypatch.setattr(quad, "gauss_jacobi", lambda n, a, b: calls.append((n, a, b)) or build(n, a, b))
    return calls


def beta_fn(a, b):
    return math.exp(sp.gammaln(a) + sp.gammaln(b) - sp.gammaln(a + b))


class TestRules:
    def test_legendre_moments(self):
        x, w = gauss_jacobi(12, 0.0, 0.0)
        for k in range(0, 23):
            exact = 0.0 if k % 2 else 2.0 / (k + 1.0)
            assert np.dot(w, x ** k) == pytest.approx(exact, abs=5e-14)

    def test_jacobi01_moments(self):
        u, w = gauss_jacobi01(10, 0.4, 0.25)
        for k in range(0, 19):
            exact = beta_fn(0.4 + k + 1.0, 1.25)
            assert np.dot(w, u ** k) == pytest.approx(exact, rel=1e-13, abs=0.0)

    @given(st.floats(-0.9, 3.0), st.floats(-0.9, 3.0))
    @example(0.0, 5e-324)    # half the exponent underflows in the zero seeds
    @settings(max_examples=25, deadline=None)
    def test_rule_positivity(self, a, b):
        x, w = gauss_jacobi(16, a, b)
        assert np.all(w > 0)
        assert np.all(np.diff(x) > 0)

    @pytest.mark.parametrize("b", [-0.5, 0.0, 0.5, 5.8, 5.800000000000001, 6.0, 6.9,
                                   9.5, 10.65])
    def test_against_scipy_roots_jacobi(self, b):
        # at n = 24, a = 0 the b values from 5.8 on defeat Newton from the
        # cosine guesses (not from the asymptotic starts)
        for n in (3, 8, 16, 24, 40):
            for a in (-0.5, 0.0, 0.5, 1.7):
                x, w = gauss_jacobi(n, a, b)
                rx, rw = sp.roots_jacobi(n, a, b)
                assert np.max(np.abs(x - rx)) < 1e-14
                assert np.max(np.abs(w / rw - 1.0)) < 1e-11

    @pytest.mark.parametrize("a,b", [(0.3, -0.3), (-0.5, -0.5), (0.3, -0.7), (2.0, 7.5)])
    def test_jacobi_matrix_roots(self, a, b):
        # a + b = 0 and a + b = -1 hit the special first entries
        for n in (1, 2, 24):
            assert np.max(np.abs(_jacobi_matrix_roots(n, a, b)
                                 - sp.roots_jacobi(n, a, b)[0])) < 1e-14

    def test_order_floor(self):
        with pytest.raises(ValueError):
            rule_for_measure(0.5, 0.0, 4)


def _decimal_jacobi(n, a, b, z):
    """P_n^{(a,b)} and its derivative at an object array z of Decimals,
    by the three-term recurrence in the current decimal context."""
    p0, p1 = z * 0 + 1, (a - b) / 2 + (a + b + 2) / 2 * z
    for k in range(2, n + 1):
        c = 2 * k + a + b
        p0, p1 = p1, (((c - 1) * (a * a - b * b) + (c - 1) * c * (c - 2) * z) * p1
                      - 2 * (k + a - 1) * (k + b - 1) * c * p0) / (2 * k * (k + a + b) * (c - 2))
    c = 2 * n + a + b
    return p1, (n * (a - b - c * z) * p1 + 2 * (n + a) * (n + b) * p0) / (c * (1 - z * z))


def _forbid_restart(monkeypatch) -> list:
    """Record every restart of a rule from the Jacobi-matrix eigenvalues."""
    restarts = []
    monkeypatch.setattr(quad, "_jacobi_matrix_roots", lambda *args: restarts.append(args) or
                        _jacobi_matrix_roots(*args))
    return restarts


class TestAsymptoticStarts:
    @pytest.mark.parametrize("a,b", [(0.0, 0.5), (0.0, 0.0), (0.2, 0.3), (0.0, 30.0)])
    @pytest.mark.parametrize("n", [120, 480, 1344])
    def test_same_rule_as_cosine_starts(self, monkeypatch, n, a, b):
        # the same Newton polish from the cosine guesses (and, where they
        # fail, as at b = 30, from the Jacobi matrix) reads the same nodes
        # to 2 ulp of 1.  A weight is a function of its node alone, moved by
        # 2 dx ((a+b+1) x - (b-a))/(1-x^2) relative at first order when the
        # node moves by dx: one ulp next to an end node of order 1344 moves
        # it by ~1e-12, so the 1e-13 holds beyond twice that
        x, w = gauss_jacobi(n, a, b)
        monkeypatch.setattr(quad, "_start_angles", lambda n, a, b: math.pi * (
            np.arange(1, n + 1) + 0.5 * a - 0.25) / (n + 0.5 * (a + b + 1.0)))
        rx, rw = gauss_jacobi(n, a, b)
        assert np.max(np.abs(x - rx)) <= 2.0 * np.spacing(1.0)
        move = 2.0 * np.abs(x - rx) * np.abs((a + b + 1.0) * x - (b - a)) / (1.0 - x * x)
        assert np.all(np.abs(w / rw - 1.0) <= 1e-13 + 2.0 * move)
        assert np.array_equal(w[x == rx], rw[x == rx])

    @pytest.mark.parametrize("n", [120, 160, 240, 320, 480, 640, 960, 1344])
    def test_three_recurrence_passes(self, monkeypatch, n):
        # one Newton step (below 1e-8) and the pass that certifies its
        # iterate, whose derivative the weights reuse
        passes = []
        rec = quad._jacobi_rec
        monkeypatch.setattr(quad, "_jacobi_rec", lambda *args: passes.append(1) or rec(*args))
        gauss_jacobi(n, 0.0, 0.5)
        assert len(passes) <= 2

    def test_rule_against_40_digit_roots(self):
        # Newton in 40-digit decimal arithmetic on all 480 roots at once,
        # from the float nodes; at a = 0 the weight constant 2^(a+b+1)
        # Gamma(n+a+1) Gamma(n+b+1) / (Gamma(n+a+b+1) n!) is 2^(b+1)
        n, a, b = 480, 0, Decimal("0.5")
        x, w = gauss_jacobi(n, 0.0, 0.5)
        with localcontext() as ctx:
            ctx.prec = 40
            z = np.array([Decimal(v) for v in x.tolist()], dtype=object)
            for _ in range(3):
                pn, dp = _decimal_jacobi(n, a, b, z)
                z = z - pn / dp
            rw = 2 ** (b + 1) / ((1 - z * z) * dp * dp)
            assert max(abs(Decimal(xi) - zi) for xi, zi in zip(x.tolist(), z)) <= Decimal("1.2e-16")
            assert max(abs(Decimal(wi) / ri - 1) for wi, ri in zip(w.tolist(), rw)) <= Decimal("4.1e-12")

    @pytest.mark.parametrize("n,b", [(n, b) for n in (1, 2, 8, 24, 80, 120)
                                     for b in (-0.9, 0.5, 6.0, 30.0)]
                             + [(80, 100.0), (120, 100.0)])
    def test_end_blocks_that_meet(self, monkeypatch, n, b):
        # 10 + floor(b) starts from the x = -1 end, 10 from the other: where
        # they would overlap they split the roots, and no rule restarts
        restarts = _forbid_restart(monkeypatch)
        x, w = gauss_jacobi(n, 0.0, b)
        assert restarts == []
        assert np.max(np.abs(x - sp.roots_jacobi(n, 0.0, b)[0])) < 1e-13
        assert np.all(w > 0)

    def test_no_restart_in_the_real_suites(self, monkeypatch, capsys):
        # every rule of the default float suites and of dunkl-sampling at
        # alpha = 30 (exponents to 30, orders to 1344) converges from its starts
        monkeypatch.setattr(quad, "_rule_cache", {})
        monkeypatch.setattr(quad, "_leg16", None)
        restarts = _forbid_restart(monkeypatch)
        for args in (["planewave"], ["dunkl-sampling"], ["fourier-neumann"], ["hankel"],
                     ["spectrum"], ["lemma71"], ["dunkl-sampling", "--alpha", "30"]):
            assert main(["verify", *args, "--format", "json"]) == 0
        capsys.readouterr()
        assert restarts == []

    def test_weights_past_the_square_root_of_the_float_range(self):
        # at (1344, 0, 120) dp^2 overflows next to x = -1, so those weights
        # come from logarithms; the zeroth moment is 2^121/121
        x, w = gauss_jacobi(1344, 0.0, 120.0)
        assert np.all(w > 0)
        assert np.sum(w) == pytest.approx(2.0 ** 121 / 121.0, rel=1e-12, abs=0.0)

    def test_weights_past_the_float_range_refused(self):
        with pytest.raises(OverflowError, match=r"\(1344, 0.0, 150.0\)"):
            gauss_jacobi(1344, 0.0, 150.0)

    def test_exponents_must_exceed_minus_one(self):
        with pytest.raises(ValueError, match="exceed -1"):
            gauss_jacobi(8, -1.0, 0.0)


class TestMeasures:
    def test_exactness_against_beta_forms(self):
        # monomials against dmu_{b,a} hit their Beta closed forms
        for (al, be) in ((0.4, 0.25), (0.7, -0.2), (1.9, 1.3)):
            norm = 2.0 ** (al + 1.0) * gamma(al + 1.0)
            for mm in range(0, 24):
                exact = beta_fn(mm + al + 1.0, be + 1.0) / norm
                assert integrate_interval(lambda t, mm=mm: t ** (2 * mm), al, be, 24) == \
                    pytest.approx(exact, rel=1e-12)
                assert abs(integrate_interval(lambda t, mm=mm: t ** (2 * mm + 1), al, be, 24)) < 1e-15

    def test_constant_against_mu_alpha(self):
        al = 0.6
        got = integrate_interval(lambda t: 1.0, al, 0.0, 20)
        assert got == pytest.approx(1.0 / (2.0 ** (al + 1.0) * gamma(al + 2.0)),
                                    rel=1e-14, abs=0.0)

    def test_symmetric_rule_builds_even_rule_only(self, monkeypatch):
        calls = _spy_gauss_jacobi(monkeypatch)
        measures = ((0.5, 0.0), (0.3, 0.2), (-0.5, 0.0))
        for _ in range(2):
            for m in measures:
                for order in (24, 120):
                    rule_for_measure(*m, order)
        assert sorted(calls) == sorted([(24, 0.0, 0.5), (120, 0.0, 0.5), (24, 0.2, 0.3),
                                        (120, 0.2, 0.3), (24, 0.0, -0.5), (120, 0.0, -0.5)])
        integrate_interval(lambda t: t * t, *measures[0], 24)
        assert len(calls) == 6

    @pytest.mark.parametrize("m", [(0.5, 0.0), (0.3, 0.2), (-0.5, 0.0)])
    def test_cached_rule_is_read_only(self, m):
        # every caller shares the cached arrays, so none may write into them
        nodes, weights = rule_for_measure(*m, 24)
        for a in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        assert rule_for_measure(*m, 24)[0] is nodes

    def test_integrand_called_once_on_node_array(self):
        calls = []

        def f(t):
            calls.append(t)
            return t * t
        got = integrate_interval(f, 0.3, 0.2, 24)
        nodes, w = rule_for_measure(0.3, 0.2, 24)
        assert len(calls) == 1 and calls[0] is nodes
        assert got == float(np.dot(w, nodes * nodes))

    def test_nonfinite_sample(self):
        with pytest.raises(ValueError):
            integrate_interval(lambda t: 1.0 / (t - t), 0.4, 0.0, 10)

    def test_bad_exponents(self):
        for a, b in ((-1.5, 0.0), (0.3, -1.0)):
            with pytest.raises(ValueError, match="exceed -1"):
                rule_for_measure(a, b, 24)


class TestOscillatory:
    def test_mcmahon_close_to_true_zeros(self):
        z = sp.jn_zeros(2, 25)
        for k in (5, 15, 25):
            assert mcmahon_zero(2.0, k) == pytest.approx(z[k - 1], abs=2e-4)

    def test_squared_over_x(self):
        a = 1.7
        r = integrate_bessel_product(1.0, a, a, 1.0)
        assert r.converged
        assert r.value == pytest.approx(1.0 / (2.0 * a), rel=1e-6)

    def test_cross_over_x_gap_two_vanishes(self):
        r = integrate_bessel_product(1.0, 1.2, 3.2, 1.0)
        assert abs(r.value) < 1e-8

    def test_cross_over_x_generic(self):
        a, b = 1.2, 2.5
        r = integrate_bessel_product(1.0, a, b, 1.0)
        exact = 2.0 / math.pi * math.sin((b - a) * math.pi / 2.0) / (b * b - a * a)
        assert r.value == pytest.approx(exact, rel=1e-6)

    def test_weber_schafheitlin_window(self):
        with pytest.raises(ValueError):
            integrate_bessel_product(-1.5, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            integrate_bessel_product(0.0, 1.0, 1.0, 1.0)  # t=1 needs lam>0

    def test_refinement_stability(self):
        r1 = integrate_bessel_product(0.2, 3.5, 0.3, 0.4)
        r2 = integrate_bessel_product(0.2, 3.5, 0.3, 0.4, rtol=1e-9)
        assert abs(r1.value - r2.value) <= 1e-6 * max(abs(r1.value), 1e-30)

    def test_partial_report_on_failure(self, monkeypatch):
        # an impossibly tight tolerance with a tiny cell budget raises, with
        # the cell count and the last partial sums in the message
        monkeypatch.setattr(quad, "_MAX_CELLS", 14)
        with pytest.raises(RuntimeError, match="after 14 cells; last partial sums"):
            integrate_bessel_product(0.2, 3.5, 0.3, 0.4, rtol=1e-30)

    @pytest.mark.parametrize("args", [(0.2, 73.2, 70.0, 0.5), (0.2, 103.2, 100.0, 0.5)])
    def test_float_range_named(self, args):
        # x^(mu+nu-lam) leaves the float range in the cells (alpha = 70)
        # or in the first cell's factor (alpha = 100): one OverflowError
        # that names the integral, and no numpy warning before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"\(lam, mu, nu, t\) = \(0.2, "):
                integrate_bessel_product(*args)


def _per_cell_bessel_product(lam, mu, nu, t, rtol=1e-7):
    """integrate_bessel_product with one integrand call per cell, as a tuple
    (value, converged, cells, error_estimate, last_partials)."""
    max_cells, atol = 400, 1e-9
    def integrand(x):
        return x ** (mu + nu - lam) * t ** nu * _jratio_array(mu, x) * _jratio_array(nu, x * t)

    edges = (lambda k: mcmahon_zero(nu, k) / t) if t >= 1.0 else (lambda k: mcmahon_zero(mu, k))
    xg, wg = quad._legendre16()
    e1, c = edges(1), mu + nu - lam
    u0, w0 = quad._first_cell_rule(c)
    total = e1 ** (c + 1.0) * float(np.dot(w0, t ** nu * _jratio_array(mu, e1 * u0)
                                           * _jratio_array(nu, e1 * u0 * t)))
    partial = [total]
    beat = abs(1.0 - t)
    min_cells = 12 if beat == 0.0 else \
        min(max_cells // 2, max(12, int(math.ceil(6.0 / max(beat, 0.05)))))
    prev_val, k = None, 1
    while k < max_cells:
        a, b = edges(k), edges(k + 1)
        xs = 0.5 * (b - a) * xg + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(np.dot(wg, integrand(xs)))
        partial.append(total)
        k += 1
        if k >= min_cells and k % 4 == 0:
            val, err = accelerate(partial)
            stable = prev_val is not None and abs(val - prev_val) <= max(rtol * abs(val), atol)
            prev_val = val
            if stable and (err <= rtol * max(abs(val), 1.0e-30) or err <= atol):
                return complex(val).real, True, k, float(err), (partial[-2], partial[-1])
    raise RuntimeError(f"no convergence after {k} cells")


# the (lam, mu, nu, t) of every integral in the real-line suites
_SUITE_PRODUCTS = [
    (0.2, 3.5, 0.3, 0.5), (0.2, 4.5, 1.3, 0.5), (1.0, 2.4, 2.4, 1.0), (1.0, 3.4, 1.4, 1.0),
    (0.2, 1.5, 0.3, 0.4), (-0.2, 1.5, 0.3, 0.4), (0.2, 1.5, 0.3, 0.7), (-0.2, 1.5, 0.3, 0.7),
    (0.2, 3.5, 0.3, 0.4), (-0.2, 3.5, 0.3, 0.4), (0.2, 3.5, 0.3, 0.7), (-0.2, 3.5, 0.3, 0.7),
    (-0.1, 5.4, 0.5, 0.4), (0.1, 5.4, 0.5, 0.4), (-0.1, 5.4, 0.5, 0.7), (0.1, 5.4, 0.5, 0.7),
    (0.2, 3.5, 0.3, 1.5), (1.0, 1.7, 1.7, 1.0), (1.0, 1.2, 3.2, 1.0), (1.0, 1.2, 2.5, 1.0),
]


class TestBlockedCells:
    """The cells between two acceleration tests are evaluated in one call;
    every result field equals that of the loop with one call per cell."""

    @staticmethod
    def _check(monkeypatch, args, **kw):
        nodes = []

        def counting(nu, x):
            nodes.append(np.size(x))
            return _jratio_array(nu, x)

        monkeypatch.setattr(quad, "_jratio_array", counting)
        r = integrate_bessel_product(*args, **kw)
        monkeypatch.undo()
        assert (r.value, r.converged, r.cells, r.error_estimate, r.last_partials) \
            == _per_cell_bessel_product(*args, **kw)
        # no cell past the last one the loop adds: 24 first-cell nodes and
        # 16 per later cell, for each of the two factors
        assert sum(nodes) == 2 * (24 + 16 * (r.cells - 1))
        return r

    @pytest.mark.parametrize("args, kw", [(p, {}) for p in _SUITE_PRODUCTS]
                             + [((0.2, 3.5, 0.3, 0.4), {"rtol": 1e-9})])
    def test_suite_integrals(self, monkeypatch, args, kw):
        assert self._check(monkeypatch, args, **kw).converged

    @pytest.mark.parametrize("max_cells", [14, 30, 37])
    def test_partial_at_a_cap_off_the_test_cadence(self, monkeypatch, max_cells):
        # a run that reaches the cap raises after exactly the capped cells,
        # none evaluated past the last one it adds
        nodes = []

        def counting(nu, x):
            nodes.append(np.size(x))
            return _jratio_array(nu, x)

        monkeypatch.setattr(quad, "_jratio_array", counting)
        monkeypatch.setattr(quad, "_MAX_CELLS", max_cells)
        monkeypatch.setattr(quad, "_ATOL", 0.0)
        with pytest.raises(RuntimeError, match=f"after {max_cells} cells"):
            integrate_bessel_product(0.2, 3.5, 0.3, 0.4, rtol=1e-30)
        assert sum(nodes) == 2 * (24 + 16 * (max_cells - 1))


class TestAccelerate:
    def test_alternating_geometric(self):
        s = [sum((-0.7) ** j for j in range(k + 1)) for k in range(20)]
        val, err = accelerate(s)
        assert val == pytest.approx(1.0 / 1.7, abs=1e-12)

    def test_monotone_algebraic(self):
        s = [sum(1.0 / (j + 1.0) ** 2 for j in range(k + 1)) for k in range(60)]
        val, err = accelerate(s)
        assert val == pytest.approx(math.pi ** 2 / 6.0, abs=1e-7)
