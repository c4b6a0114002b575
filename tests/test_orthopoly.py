import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp

from biexp import quad
from biexp.orthopoly import (GenGegenbauerFamily, classical_gegenbauer,
                             dunkl_apply_poly, jacobi_eval)
from biexp.quad import integrate_interval
from biexp.specfun import Params, bessel_zeros, gamma
from biexp.spectrum import SpectralProblem, raised_from_base


class TestJacobi:
    def test_p0(self):
        assert jacobi_eval(0, 0.3, -0.2, 0.7) == 1.0

    def test_value_at_one(self):
        n, a, b = 4, 0.3, -0.2
        assert jacobi_eval(n, a, b, 1.0) == pytest.approx(
            gamma(n + a + 1.0) / (gamma(a + 1.0) * math.factorial(n)), rel=1e-13)

    def test_against_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(0, 50))
            a = float(rng.uniform(-0.9, 2.5))
            b = float(rng.uniform(-0.9, 2.5))
            y = float(rng.uniform(-1, 1))
            ref = float(sp.eval_jacobi(n, a, b, y))
            assert jacobi_eval(n, a, b, y) == pytest.approx(ref, rel=2e-11, abs=2e-11)

    def test_low_degree_against_mpmath(self):
        # n <= 10 at y over [-1, 1] and near 0, where a terminating sum
        # cancels (2.8e-8 relative there).  The error is measured against
        # the envelope max(1, |P(1)|, |P(-1)|): at a zero of P its
        # pointwise relative error reaches 8e-13 while staying 1.5e-15 of
        # the envelope.
        rng = np.random.default_rng(17)
        for i in range(1500):
            n = int(rng.integers(0, 11))
            a, b = (float(v) for v in rng.uniform(-0.95, 31.0, 2))
            y = float(rng.uniform(-1.0, 1.0) if i % 2 else rng.uniform(-0.05, 0.05))
            env = max(1, abs(mp.jacobi(n, a, b, 1)), abs(mp.jacobi(n, a, b, -1)))
            err = abs(mp.mpf(jacobi_eval(n, a, b, y)) - mp.jacobi(n, a, b, y))
            assert err <= 1e-14 * env, (n, a, b, y)

    def test_node_array_matches_scalar(self):
        y = np.linspace(-1.0, 1.0, 9)
        for n in (0, 1, 5, 30):
            got = jacobi_eval(n, 0.3, -0.2, y)
            assert got.shape == y.shape
            assert got.tolist() == [jacobi_eval(n, 0.3, -0.2, float(v)) for v in y]

    def test_weight_raising_identity(self):
        # P_n^{(a,b+1)} in terms of P_n^{(a,b)} and P_{n+1}^{(a,b)}
        a, b, n, z = 0.3, -0.2, 4, 0.37
        lhs = jacobi_eval(n, a, b + 1.0, z)
        rhs = (2.0 * (n + b + 1.0) * jacobi_eval(n, a, b, z)
               + 2.0 * (n + 1.0) * jacobi_eval(n + 1, a, b, z)) \
            / ((2.0 * n + a + b + 2.0) * (1.0 + z))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_weight_lowering_identity(self):
        # (2n+a+b) P_n^{(a,b-1)} = (n+a+b) P_n^{(a,b)} + (n+a) P_{n-1}^{(a,b)}
        for (a, b, n) in ((0.3, -0.2, 4), (1.1, 0.6, 7), (0.5, 0.25, 3)):
            for z in (-0.6, 0.1, 0.8):
                lhs = (2.0 * n + a + b) * jacobi_eval(n, a, b - 1.0, z)
                rhs = ((n + a + b) * jacobi_eval(n, a, b, z)
                       + (n + a) * jacobi_eval(n - 1, a, b, z))
                assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


class TestGenGegenbauer:
    def setup_method(self):
        self.P = Params(0.3, 0.6)
        self.fam = GenGegenbauerFamily(self.P)

    def test_c0_and_c1(self):
        assert self.fam.eval(0, 0.37) == pytest.approx(1.0, rel=1e-14, abs=0.0)
        # C_1(t) = ((a+b+1)/(a+1)) t, from the odd-index definition at n = 0
        t = 0.41
        assert self.fam.eval(1, t) == pytest.approx((0.3 + 0.6 + 1.0) / 1.3 * t,
                                                    rel=1e-14, abs=0.0)

    @given(st.integers(0, 20), st.floats(-1, 1))
    @settings(max_examples=60, deadline=None)
    def test_parity(self, n, t):
        a = self.fam.eval(n, t)
        b = self.fam.eval(n, -t)
        assert b == pytest.approx((-1.0) ** n * a, rel=1e-11, abs=1e-11)

    def test_degree(self):
        for n in range(9):
            coeffs = self.fam.coeffs(n)
            assert len(coeffs) == n + 1
            assert coeffs[-1] != 0.0

    def test_reduces_to_classical_gegenbauer(self):
        # alpha = -1/2 collapses onto the one-parameter family
        fam = GenGegenbauerFamily(Params(-0.5, 1.0))
        for n in range(7):
            got = fam.eval(n, 0.41)
            ref = classical_gegenbauer(n, 1.5, 0.41)[n]
            assert got == pytest.approx(ref, rel=1e-11, abs=1e-11)

    def test_norms_closed_form_vs_quadrature(self):
        for n in range(2):
            got = integrate_interval(lambda t, n=n: self.fam.eval(n, t) ** 2,
                                     self.P.alpha, self.P.beta, 60)
            assert got == pytest.approx(self.fam.norm(n), rel=1e-9)

    @pytest.mark.parametrize("al", [60.0, 100.0, 140.0])
    def test_norms_large_order(self, al):
        # Gamma(a+b+1)^2 and the other factors leave the float range here,
        # so the closed form is taken in logarithms (measured worst 5.9e-13)
        import mpmath as mp
        with mp.workdps(40):
            for be in (-0.5, 0.1, 1.1):
                fam = GenGegenbauerFamily(Params(al, be))
                a, b = mp.mpf(al), mp.mpf(be)
                for n in (0, 1, 2, 3, 40, 79, 80, 81):
                    m, r = divmod(n, 2)
                    ref = (mp.gamma(a + 1) * mp.gamma(b + m + 1) * mp.gamma(a + b + m + 1 + r)
                           / (2 ** (a + 1) * (a + b + n + 1) * mp.gamma(a + b + 1) ** 2
                              * mp.gamma(a + m + 1 + r) * mp.gamma(m + 1)))
                    assert fam.norm(n) == pytest.approx(float(ref), rel=1e-12, abs=0.0)

    def test_norm_below_the_floats_raises(self):
        with pytest.raises(OverflowError, match="out of range"):
            GenGegenbauerFamily(Params(200.0, 0.1)).norm(0)

    def test_orthogonality(self):
        P = Params(0.4, 0.25)
        fam = GenGegenbauerFamily(P)
        for n in range(9):
            for mm in range(9):
                got = integrate_interval(lambda t: fam.eval(n, t) * fam.eval(mm, t),
                                         P.alpha, P.beta, 80)
                expect = fam.norm(n) if n == mm else 0.0
                assert abs(got - expect) <= 1e-8 * max(fam.norm(n), fam.norm(mm))

    def test_coeffs_match_eval(self):
        for n in range(9):
            c = self.fam.coeffs(n)
            for t in (-0.7, 0.2, 0.9):
                assert np.polynomial.polynomial.polyval(t, c) == pytest.approx(
                    self.fam.eval(n, t), rel=1e-11, abs=1e-11)

    def test_coeffs_large_alpha(self):
        # (a+1)_n/n! as a product of ratios: no Gamma(a+n+1) past the floats
        fam = GenGegenbauerFamily(Params(200.0, 0.5))
        horner = 0.0
        for c in reversed(fam.coeffs(3)):
            horner = horner * 0.3 + c
        assert horner == pytest.approx(fam.eval(3, 0.3), rel=1e-12, abs=0.0)

    def test_inverse_connection(self):
        # the spectral module's change of basis on a unit vector e_n:
        # sum_m raised_from_base(e_n)[m] C~_m(t) = C_n(t), where C~ is the
        # raised family
        for (al, be, n, t) in ((0.2, 0.1, 4, -0.33), (0.5, 0.25, 3, 0.6)):
            P = Params(al, be)
            f = GenGegenbauerFamily(P)
            up = f.raised()
            prob = SpectralProblem(P, 10, bessel_zeros(P.ab + 1.0, 1))
            e = np.zeros(11)
            e[n] = 1.0
            c = raised_from_base(prob, e)
            got = sum(c[m] * up.eval(m, t) for m in range(11))
            assert abs(got - f.eval(n, t)) <= 1e-12


class TestDunklOperator:
    def test_reduces_to_derivative_at_half(self):
        # p(t) = t^3 - t
        out = dunkl_apply_poly(-0.5, [0.0, -1.0, 0.0, 1.0])
        assert out == [-1.0, 0.0, 3.0]

    def test_even_polynomial_plain_derivative(self):
        out = dunkl_apply_poly(0.8, [2.0, 0.0, 0.0, 0.0, 1.0])
        assert out == [0.0, 0.0, 0.0, 4.0]

    def test_lowers_gegenbauer_index(self):
        al, be = 0.3, 0.6
        fam = GenGegenbauerFamily(Params(al, be))
        up = fam.raised()
        for n in range(1, 9):
            lhs = dunkl_apply_poly(al, fam.coeffs(n))
            rhs = [2.0 * (al + be + 1.0) * c for c in up.coeffs(n - 1)]
            rhs += [0.0] * (len(lhs) - len(rhs))
            scale = max(max(abs(v) for v in rhs), 1.0)
            assert max(abs(x - y) for x, y in zip(lhs, rhs)) <= 1e-12 * scale


class TestClassicalGegenbauer:
    def test_against_scipy(self):
        for lam in (0.5, 1.0, 2.3):
            got = classical_gegenbauer(7, lam, 0.41)
            for n in range(8):
                ref = float(sp.eval_gegenbauer(n, lam, 0.41))
                assert got[n] == pytest.approx(ref, rel=1e-12, abs=1e-12)


def _two_row_jacobi(n, a, b, x):
    """P_n and P_{n-1} by a plain two-row loop: the recurrence the Gauss
    rules were built from before it became a row generator."""
    p0 = x ** 0
    p1 = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
    for k in range(2, n + 1):
        c = 2.0 * k + a + b
        a1 = 2.0 * k * (k + a + b) * (c - 2.0)
        a2 = (c - 1.0) * (a * a - b * b)
        a3 = (c - 1.0) * c * (c - 2.0)
        a4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * c
        p0, p1 = p1, ((a2 + a3 * x) * p1 - a4 * p0) / a1
    return p1, p0


class TestTable:
    def test_rows_are_eval_to_the_bit(self):
        # seeded (alpha, beta, N <= 40, t) over the range the plane-wave
        # sums use, on floats and on a node array
        rng = np.random.default_rng(1414)
        nodes = np.linspace(-1.0, 1.0, 9)
        for _ in range(300):
            al = -0.9 + 3.9 * rng.random()
            lo = max(-0.9, -0.95 - al)
            fam = GenGegenbauerFamily(Params(al, lo + (2.0 - lo) * rng.random()))
            N = int(rng.integers(0, 41))
            t = -1.0 + 2.0 * rng.random()
            tab = fam.table(N, t)
            assert tab.shape == (N + 1,)
            assert tab.tobytes() == np.asarray([fam.eval(n, t) for n in range(N + 1)]).tobytes()
            tab = fam.table(N, nodes)
            assert tab.shape == (N + 1, len(nodes))
            assert tab.tobytes() == np.asarray([fam.eval(n, nodes) for n in range(N + 1)]).tobytes()

    def test_overflow_raises(self):
        # C_800 at t = 1 is 2.2e477
        fam = GenGegenbauerFamily(Params(0.5, 400.0))
        with pytest.raises(OverflowError):
            fam.table(800, 1.0)
        with pytest.raises(OverflowError):
            fam.table(800, np.array([0.5, 1.0]))

    def test_classical_on_nodes_is_scalar_to_the_bit(self):
        nodes = np.linspace(-1.0, 1.0, 7)
        tab = classical_gegenbauer(12, 1.3, nodes)
        for i, t in enumerate(nodes):
            assert tab[:, i].tobytes() == classical_gegenbauer(12, 1.3, float(t)).tobytes()

    @pytest.mark.parametrize("measure", [(0.3, 0.0), (0.4, 1.1), (-0.5, 0.5), (-0.5, 0.0)])
    def test_rules_unchanged(self, measure, monkeypatch):
        # the same Gauss rules, to the bit, as from the two-row loop
        for order in (8, 60, 120):
            nodes, w = quad.rule_for_measure(*measure, order)
            with monkeypatch.context() as m:
                m.setattr(quad, "_jacobi_rec", _two_row_jacobi)
                m.setattr(quad, "_rule_cache", {})
                ref_nodes, ref_w = quad.rule_for_measure(*measure, order)
            assert nodes.tobytes() == ref_nodes.tobytes()
            assert w.tobytes() == ref_w.tobytes()
