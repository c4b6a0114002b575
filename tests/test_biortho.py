import math
import signal
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from biexp import biortho as bo
from biexp import specfun as sf
from biexp.cli import main
from biexp.orthopoly import GenGegenbauerFamily, classical_gegenbauer
from biexp.quad import gauss_jacobi, integrate_bessel_product, integrate_interval, rule_for_measure
from biexp.specfun import Params, bessel_j_ratio, bessel_zeros, dunkl_kernel, gamma


class TestFourierSystem:
    def test_coefficient_closed_form(self):
        sn = bo.expand_kernel(bo.fourier_system(), 2.7, 4)
        assert list(sn) == list(range(-4, 5))
        for n in range(-4, 5):
            assert abs(sn[n] - bo.fourier_sampling_coeff(n, 2.7)) < 1e-12

    def test_removable_singularity(self):
        assert bo.fourier_sampling_coeff(3, 3.0 * math.pi) == pytest.approx(
            1.0 / math.sqrt(math.pi), abs=1e-14)

    def test_gram_identity(self):
        bio = bo.fourier_system()
        ns = range(-3, 4)
        assert np.max(np.abs(bio.gram(ns, ns) - np.eye(len(ns)))) < 1e-13


class TestGegenbauerSystem:
    @pytest.mark.parametrize("beta", [0.0, -0.3])
    def test_refuses_nonpositive_beta(self, beta):
        with pytest.raises(ValueError, match="needs beta > 0"):
            bo.classical_planewave(beta, 2.0, 0.3, 10)

    def test_st_pair_biorthogonality(self):
        g = bo.st_gram_gegenbauer(1.0, 4)
        assert np.max(np.abs(g - np.eye(5))) < 1e-6

    @pytest.mark.parametrize("beta, nmax", [(1.0, 4), (0.2, 4), (2.5, 8)])
    def test_st_gram_matches_full_complex_product(self, beta, nmax):
        # T_m(+-y) as complex products over every node of a 703-node
        # Legendre rule in t, where the Gram reads T_m from C_m's Legendre
        # coefficients and T_m(-y) = conj T_m(y)
        cells = 256
        xg, wg = gauss_jacobi(16, 0.0, 0.0)
        tz, tw = gauss_jacobi(int(0.8 * cells * math.pi) + 60, 0.0, 0.0)
        pm = np.asarray([classical_gegenbauer(nmax, beta, t) for t in tz]).T
        ys = np.concatenate([0.5 * math.pi * xg + (k + 0.5) * math.pi for k in range(cells)])
        phase = np.exp(1j * np.outer(ys, tz))
        tm_pos = (phase * tw) @ pm.T / bo._SQ2PI
        tm_neg = (np.conj(phase) * tw) @ pm.T / bo._SQ2PI
        ref = np.zeros((nmax + 1, nmax + 1), dtype=complex)
        for n in range(nmax + 1):
            sn = bo._gegenbauer_coeff_pref(beta, n) * (bo._jratio_array(beta + n, ys) * ys ** n)
            integ = sn[:, None] * np.conj(tm_pos) + (-1.0) ** n * sn[:, None] * np.conj(tm_neg)
            partial = np.cumsum(0.5 * math.pi * (wg @ integ.reshape(cells, 16, nmax + 1)), axis=0)
            for m in range(nmax + 1):
                ref[n, m], _ = bo._neville_halfpow(partial[:, m])
        assert np.max(np.abs(bo.st_gram_gegenbauer(beta, nmax) - ref)) < 1e-12

    @pytest.mark.parametrize("beta", [0.2, 1.0, 2.5])
    def test_st_transform_matches_30_digit_quadrature(self, beta):
        # T_m(y) = int C_m(t) e^{ity} dt / sqrt(2 pi), m <= 8, at the first,
        # a middle and the last y of the Gram's cell grid, against a
        # composite 96-point Gauss-Legendre sum on 32 panels at 30 digits
        # (its error is below 1e-30 up to y = 805); within 1e-14 of
        # max|C_m| = C_m(1)
        xg, _ = gauss_jacobi(16, 0.0, 0.0)
        ys = np.concatenate([0.5 * math.pi * xg + (k + 0.5) * math.pi for k in range(bo._ST_CELLS)])
        ys = ys[[0, len(ys) // 2, -1]]
        got = bo._st_transform(beta, 8, ys)
        with mp.workdps(30):
            b, panels = mp.mpf(beta), 32
            base = mp.calculus.quadrature.GaussLegendre(mp.mp).calc_nodes(6, mp.mp.prec)
            nodes = [(mp.mpf(2 * j + 1) / panels - 1 + x / panels, w / panels)
                     for j in range(panels) for x, w in base]
            rows = []
            for t, w in nodes:
                c = [mp.mpf(1), 2 * b * t]
                for k in range(2, 9):
                    c.append((2 * t * (k + b - 1) * c[-1] - (k + 2 * b - 2) * c[-2]) / k)
                rows.append([w * ck for ck in c])
            for i, y in enumerate(ys):
                e = [mp.expj(t * mp.mpf(float(y))) for t, _ in nodes]
                for m in range(9):
                    ref = complex(mp.fsum(r[m] * ej for r, ej in zip(rows, e)) / mp.sqrt(2 * mp.pi))
                    cmax = float(mp.gamma(m + 2 * b) / (mp.factorial(m) * mp.gamma(2 * b)))
                    assert abs(got[i, m] - ref) <= 1e-14 * cmax, (beta, m, y)


class TestPlaneWave:
    def test_classical_matches_exponential(self):
        for beta in (0.5, 1.0, 2.3):
            for x in (-5.0, 0.5, 2.0):
                for t in (-0.9, 0.3):
                    got = bo.classical_planewave(beta, x, t, 40)
                    assert abs(got - complex(math.cos(x * t), math.sin(x * t))) < 1e-10

    def test_dunkl_matches_kernel(self):
        for (al, be) in ((-0.5, -0.2), (0.0, 0.3), (0.7, 0.3)):
            P = Params(al, be)
            for x in (-2.0, 0.5, 5.0):
                for t in (-0.3, 0.9):
                    got = bo.planewave_partial_sum(P, x, t, 40)
                    assert abs(got - dunkl_kernel(al, x * t)) < 1e-9

    def test_half_integer_chain(self):
        P = Params(-0.5, 0.3)
        for x in (-2.0, 5.0):
            for t in (0.3, -0.9):
                a = bo.planewave_partial_sum(P, x, t, 40)
                b = bo.classical_planewave(0.8, x, t, 40)
                c = complex(math.cos(x * t), math.sin(x * t))
                assert abs(a - b) < 1e-12
                assert abs(a - c) < 1e-10

    @given(st.floats(-0.45, 2.5), st.floats(-6.0, 6.0), st.floats(-1.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_halfint_dunkl_is_classical(self, be, x, t):
        # at alpha = -1/2 the Dunkl plane wave is the classical one with
        # Gegenbauer index beta + 1/2, and both sum to e^{ixt}
        a = bo.planewave_partial_sum(Params(-0.5, be), x, t, 40)
        b = bo.classical_planewave(be + 0.5, x, t, 40)
        assert abs(a - b) < 1e-12
        assert abs(a - complex(math.cos(x * t), math.sin(x * t))) < 1e-10

    def test_at_origin(self):
        P = Params(0.3, 0.2)
        assert bo.planewave_partial_sum(P, 0.0, 0.3, 5) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("al,be", [(-0.3, 0.4), (0.7, -0.2)])
    def test_kernel_product_symmetry(self, al, be):
        # the expansion depends on x and t through their product
        P = Params(al, be)
        for (x, t) in ((2.0, 0.45), (-3.0, 0.8)):
            a = bo.planewave_partial_sum(P, x, t, 30)
            b = bo.planewave_partial_sum(P, -x, -t, 30)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_quotient_parity(self):
        for n in range(6):
            for x in (0.7, 3.1):
                assert bo.neumann_fn(0.5, n, -x) == pytest.approx(
                    (-1.0) ** n * bo.neumann_fn(0.5, n, x), rel=1e-14, abs=1e-16)

    def test_domain(self):
        P = Params(0.3, 0.2)
        with pytest.raises(ValueError):
            bo.planewave_partial_sum(P, 1.0, 1.2, 10)
        with pytest.raises(ValueError):
            bo.planewave_partial_sum(P, 1.0, 0.5, 0)

    @staticmethod
    def _refused_in_time(call, match):
        # a non-finite argument once sent Miller's start search into an
        # endless loop: the alarm turns a hang into a failure
        def hang(signum, frame):
            raise TimeoutError("no answer within 5 s")
        old = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            with pytest.raises(ValueError, match=match):
                call()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)

    _SUMS = {
        "planewave_partial_sum": lambda x, t: bo.planewave_partial_sum(Params(0.3, 0.2), x, t, 10),
        "classical_planewave": lambda x, t: bo.classical_planewave(0.5, x, t, 10),
        "neumann_partial_sum": lambda x, t: bo.neumann_partial_sum(
            Params(0.3, 0.2), np.ones(5, dtype=complex), x),
    }

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", list(_SUMS))
    def test_non_finite_x_refused(self, name, x):
        self._refused_in_time(lambda: self._SUMS[name](x, 0.3), "x must be finite")

    @pytest.mark.parametrize("name", ["planewave_partial_sum", "classical_planewave"])
    def test_nan_t_refused(self, name):
        self._refused_in_time(lambda: self._SUMS[name](1.0, math.nan), "got nan")


class TestDunklSampling:
    def setup_method(self):
        self.al = 0.5
        self.table = bessel_zeros(self.al + 1.0, 60)

    def test_interpolation_property(self):
        f = bo.PWFunction(lambda t: 1.0, self.al)
        fs = f.eval(bo.sampling_nodes(self.table, 40))
        s3 = self.table.signed(3)
        assert fs[43] == f.eval(s3)
        got = bo.dunkl_sampling_sum(self.al, fs, s3, 40, self.table)
        assert abs(got - f.eval(s3)) < 1e-12

    @given(st.floats(-0.9, 3.0), st.integers(1, 30), st.sampled_from([1, -1]),
           st.sampled_from([0, 1, 2]))
    @settings(max_examples=25, deadline=None)
    def test_interpolation_at_retained_nodes(self, al, n, sign, which):
        # the truncated series reproduces f at every node it samples
        u = (lambda t: 1.0, lambda t: (1.0 - t * t) * (0.3 + t),
             lambda t: t * (1.0 - t * t) ** 2)[which]
        f = bo.PWFunction(u, al)
        table = bessel_zeros(al + 1.0, 30)
        fs = f.eval(bo.sampling_nodes(table, 30))
        x = table.signed(sign * n)
        got = bo.dunkl_sampling_sum(al, fs, x, 30, table)
        scale = np.max(np.abs(fs[30:]))     # f at 0 and at the positive zeros
        assert abs(got - f.eval(x)) <= 1e-12 * scale

    @pytest.mark.parametrize("name", ["dunkl_sampling_sum", "sampling_even_sum",
                                      "sampling_odd_sum"])
    def test_zero_table_of_the_wrong_order_refused(self, name):
        # samples on the zeros of J_{5/2} summed as if they were those of
        # J_{3/2}: the full series read 0.04587 at x = 1.9, f(1.9) = 0.04955
        wrong = bessel_zeros(2.5, 60)
        f = bo.PWFunction(lambda t: (1.0 - t * t) ** 2, self.al)
        fs = f.eval(bo.sampling_nodes(wrong, 50))
        with pytest.raises(ValueError, match=r"zero table is of J_2.5; alpha=0.5 samples on J_1.5"):
            getattr(bo, name)(self.al, fs, 1.9, 50, wrong)

    def test_convergence_ladder(self):
        f = bo.PWFunction(lambda t: (1.0 - t * t) ** 2, self.al)
        fs = f.eval(bo.sampling_nodes(self.table, 50))
        errs = []
        for N in (25, 50):
            e = max(abs(bo.dunkl_sampling_sum(self.al, fs, x, N, self.table) - f.eval(x))
                    for x in (0.3, 1.7, 4.2))
            errs.append(e)
        assert errs[1] < errs[0]

    def test_node_system_orthonormal(self):
        bio = bo.dunkl_system(self.al, 8)
        ns = range(-4, 5)
        assert np.max(np.abs(bio.gram(ns, ns) - np.eye(len(ns)))) < 1e-8

    def test_normalization_constant(self):
        bio = bo.dunkl_system(self.al, 4)
        d0 = 2.0 ** (0.5 * (self.al + 1.0)) * math.sqrt(gamma(self.al + 2.0))
        assert bo._dunkl_d(self.al, 0.0) == pytest.approx(d0, rel=1e-14, abs=0.0)
        val = integrate_interval(lambda t: np.abs(bio.P([0], t)[0]) ** 2, self.al, 0.0, 60)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_coefficient_quadrature_vs_closed(self):
        bio = bo.dunkl_system(0.5, 8)
        sn = bo.expand_kernel(bio, 1.3, 4)
        s2 = bessel_zeros(1.5, 8).signed(2)
        assert abs(sn[2] - bo.dunkl_sampling_coeff(0.5, s2, 1.3)) < 1e-8

    def test_kernel_expansion_converges(self):
        bio = bo.dunkl_system(0.5, 30)
        vals = []
        for N in (6, 24):
            sn = bo.expand_kernel(bio, 1.3, N)
            assert list(sn) == list(range(-N, N + 1))
            got = complex(np.dot(list(sn.values()), bio.P(list(sn), np.array([0.55]))[:, 0]))
            vals.append(abs(got - dunkl_kernel(0.5, 1.3 * 0.55)))
        assert vals[1] < vals[0]

    def test_grouped_term_maps(self):
        # per-index identity behind the grouped forms: the two signed-node
        # terms of the full series merge into one half-line term
        from biexp.specfun import bessel_i_norm_imag
        al = self.al
        f = bo.PWFunction(lambda t: t * (1.0 - t * t), al)
        x = 1.9
        i1x = bessel_i_norm_imag(al + 1.0, x)
        for n in range(1, 6):
            s = self.table.signed(n)
            i0 = bessel_i_norm_imag(al, s)
            pair = (f.eval(s) * x * i1x / (2 * (al + 1.0) * i0 * (x - s))
                    + f.eval(-s) * x * i1x / (2 * (al + 1.0) * i0 * (x + s)))
            grouped = f.eval(s) * i1x / ((al + 1.0) * i0) * x * s / (x * x - s * s)
            assert abs(pair - grouped) < 1e-15 * max(1.0, abs(pair))

    def test_wrong_odd_factor_fails_reconstruction(self):
        # negative control: replacing the x*s_n algebraic factor by s_n^2
        # (a printed variant) breaks the odd-extension reconstruction
        from biexp.specfun import bessel_i_norm_imag
        al = self.al
        f = bo.PWFunction(lambda t: t * (1.0 - t * t) ** 2, al)
        x = 1.9
        i1x = bessel_i_norm_imag(al + 1.0, x)
        wrong = 0.0 + 0.0j
        for n in range(1, 41):
            s = self.table.signed(n)
            i0 = bessel_i_norm_imag(al, s)
            wrong += f.eval(s) * i1x / ((al + 1.0) * i0) * s * s / (x * x - s * s)
        good = bo.sampling_odd_sum(al, f.eval(bo.sampling_nodes(self.table, 40)), x, 40,
                                   self.table)
        fx = f.eval(x)
        assert abs(good - fx) < 1e-6
        assert abs(wrong - fx) > 1e-3

    def test_grouped_forms(self):
        nodes = bo.sampling_nodes(self.table, 60)
        feven = bo.PWFunction(lambda t: (1.0 - t * t) ** 2, self.al).eval(nodes)
        fodd = bo.PWFunction(lambda t: t * (1.0 - t * t) ** 2, self.al).eval(nodes)
        x = 1.9
        full_e = bo.dunkl_sampling_sum(self.al, feven, x, 40, self.table)
        full_o = bo.dunkl_sampling_sum(self.al, fodd, x, 40, self.table)
        assert abs(bo.sampling_even_sum(self.al, feven, x, 40, self.table) - full_e) < 1e-12
        assert abs(bo.sampling_odd_sum(self.al, fodd, x, 40, self.table) - full_o) < 1e-12
        # one contract for all three sums: no fewer zeros or samples than N
        # terms, and an odd sample count centred on f(0)
        with pytest.raises(ValueError, match="zeros the table holds"):
            bo.sampling_nodes(self.table, 61)
        for series, fs in ((bo.sampling_even_sum, feven), (bo.sampling_odd_sum, fodd),
                           (bo.dunkl_sampling_sum, feven)):
            with pytest.raises(ValueError, match="zeros the table holds"):
                series(self.al, np.zeros(2 * 61 + 1), x, 61, self.table)
            for bad, N in ((fs[20:-20], 41), (fs[:-1], 10)):
                with pytest.raises(ValueError, match="odd count of samples"):
                    series(self.al, bad, x, N, self.table)

    def test_grouped_forms_at_nodes(self):
        # at x = s_m the m-th grouped term is 0/0, as the full series' term
        # is: all three sums take its limit there, with no numpy warning
        nodes = bo.sampling_nodes(self.table, 40)
        feven = bo.PWFunction(lambda t: (1.0 - t * t) ** 2, self.al)
        fodd = bo.PWFunction(lambda t: t * (1.0 - t * t) ** 2, self.al)
        for m in (1, 3, -3):
            x = self.table.signed(m)
            for grouped, f in ((bo.sampling_even_sum, feven), (bo.sampling_odd_sum, fodd)):
                fs = f.eval(nodes)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = grouped(self.al, fs, x, 40, self.table)
                    full = bo.dunkl_sampling_sum(self.al, fs, x, 40, self.table)
                assert abs(got - full) < 1e-12
                assert abs(full - f.eval(x)) < 1e-12


class TestNeumannSystem:
    def setup_method(self):
        self.P = Params(0.3, 0.2)

    def test_gram(self):
        bio = bo.neumann_system(self.P)
        assert np.max(np.abs(bio.gram(range(6), range(6)) - np.eye(6))) < 1e-8

    def test_coefficients_delta_pattern(self):
        fam = GenGegenbauerFamily(self.P)
        f = bo.PWFunction(lambda t: fam.eval(0, t) / fam.norm(0), self.P.alpha,
                          weight_pow=self.P.beta)
        coeffs = bo.fourier_neumann_coeffs(self.P, f, 4)
        ab = self.P.ab
        assert coeffs.shape == (4,) and coeffs.dtype == complex
        assert abs(coeffs[0] - 2.0 ** (ab + 1.0) * gamma(ab + 1.0)) < 1e-6
        assert np.max(np.abs(coeffs[1:])) < 1e-6

    def test_requires_beta_below_one(self):
        P = Params(0.3, 1.2)
        f = bo.PWFunction(lambda t: 1.0, P.alpha)
        with pytest.raises(ValueError):
            bo.fourier_neumann_coeffs(P, f, 3)

    def test_reconstruction_improves(self):
        f = bo.PWFunction(lambda t: (1.0 - t * t) * (0.3 + t), self.P.alpha)
        sups = []
        for N in (6, 12):
            coeffs = bo.fourier_neumann_coeffs(self.P, f, N)
            sups.append(max(abs(bo.neumann_partial_sum(self.P, coeffs, x) - f.eval(x))
                            for x in np.linspace(-5, 5, 11)))
        assert sups[1] < sups[0]

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0, 5.0, 10.0, 30.0])
    def test_reconstruction_at_large_alpha(self, alpha):
        # the coefficients pair the density with C_n on [-1, 1], so no
        # truncated line integral loses them as 2^{ab+1} Gamma(ab+1) grows
        P = Params(alpha, 0.2)
        f = bo.PWFunction(lambda t: (1.0 - t * t) * (0.3 + t), alpha)
        coeffs = bo.fourier_neumann_coeffs(P, f, 12)
        xs = np.linspace(-5.0, 5.0, 11)
        fx = f.eval(xs)
        err = max(abs(bo.neumann_partial_sum(P, coeffs, x) - v) for x, v in zip(xs, fx))
        assert err < 1e-7 * np.max(np.abs(fx))

    def test_requires_the_kernel_of_f(self):
        f = bo.PWFunction(lambda t: 1.0, 0.5)
        with pytest.raises(ValueError, match="alpha"):
            bo.fourier_neumann_coeffs(self.P, f, 3)

    def test_forward_transform_identity(self):
        # transform of a Bessel quotient lands on the weighted polynomial
        P = self.P
        ab = P.ab
        fam = GenGegenbauerFamily(P)
        t = 0.5
        for k in (2, 3):
            if k % 2 == 0:
                r = integrate_bessel_product(P.beta, ab + k + 1.0, P.alpha, t)
                got = complex(t ** (-P.alpha) * r.value)
            else:
                r = integrate_bessel_product(P.beta, (P.alpha + 1.0) + P.beta + k,
                                             P.alpha + 1.0, t)
                got = -1j * t * (t ** (-(P.alpha + 1.0)) * r.value)
            qk = (1.0 - t * t) ** P.beta * fam.eval(k, t) / fam.norm(k)
            closed = (-1j) ** k / (2.0 ** (ab + 1.0) * gamma(ab + 1.0) * (ab + k + 1.0)) * qk
            assert abs(got - closed) < 1e-6


class TestGramMatrix:
    @pytest.mark.parametrize("name", ["fourier", "dunkl", "neumann"])
    def test_matches_entrywise_definition(self, name):
        # sum_t w P(n, t) q_smooth(m, t) entry by entry and node by node,
        # from scalar evaluations of each family
        if name == "fourier":
            bio = bo.fourier_system()
            ns = range(-3, 4)

            def P(n, t):
                return complex(math.cos(math.pi * n * t), math.sin(math.pi * n * t)) / math.sqrt(2.0)

            def Q(m, t):
                # conj(Q_m) dt against the rule of dt / sqrt(2 pi)
                return math.sqrt(2.0 * math.pi) * P(m, t).conjugate()
        elif name == "dunkl":
            bio = bo.dunkl_system(0.5, 8)
            table = bessel_zeros(1.5, 8)
            ns = range(-6, 7)

            def P(n, t):
                s = table.signed(n)
                return bo._dunkl_d(0.5, s) * dunkl_kernel(0.5, s * t)

            def Q(m, t):
                return P(m, t).conjugate()
        else:
            bio = bo.neumann_system(Params(0.3, 0.2))
            fam = GenGegenbauerFamily(Params(0.3, 0.2))
            ns = range(9)

            def P(n, t):
                return fam.eval(n, t)

            def Q(m, t):
                return fam.eval(m, t) / fam.norm(m)
        nodes, weights = rule_for_measure(*bio.q_measure, bo._RULE_ORDER)
        pv = [[P(n, t) for t in nodes] for n in ns]
        qv = [[Q(m, t) for t in nodes] for m in ns]
        ref = np.array([[sum(w * p * q for w, p, q in zip(weights, pn, qm))
                         for qm in qv] for pn in pv])
        assert np.max(np.abs(bio.gram(ns, ns) - ref)) <= 1e-14


class TestHankelSide:
    def test_corollary_vs_bessel(self):
        P = Params(0.3, 0.2)
        got = bo.hankel_corollary_sum(P, 1.5, 0.5, 40)
        assert got == pytest.approx(bessel_j_ratio(0.3, 0.75), abs=1e-10)

    def test_real_part_construction(self):
        al, x, t = 0.5, 2.0, 0.6
        e = dunkl_kernel(al, x * t)
        lhs = (e + e.conjugate()).real / (2.0 ** (al + 1.0) * gamma(al + 1.0))
        assert lhs == pytest.approx(bessel_j_ratio(al, x * t), abs=1e-10)

    def test_small_t_limit(self):
        P = Params(0.3, 0.2)
        got = bo.hankel_corollary_sum(P, 1.5, 1e-4, 40)
        assert got == pytest.approx(1.0 / (2.0 ** 0.3 * gamma(1.3)), abs=1e-8)

    def test_domain(self):
        P = Params(0.3, 0.2)
        with pytest.raises(ValueError):
            bo.hankel_corollary_sum(P, -1.0, 0.5, 10)


class TestKernelNorm:
    def test_against_quadrature(self):
        al, x = 0.5, 2.2
        quad_val = integrate_interval(lambda r: np.abs(bo.dunkl_kernel_grid(al, x * r)) ** 2,
                                      al, 0.0, 80)
        assert bo.kernel_norm_sq(al, x) == pytest.approx(quad_val, abs=1e-9)

    def test_half_integer_constant(self):
        # in the weighted normalization the constant is sqrt(2/pi); the
        # Lebesgue-normalized classical kernel squares to 1/pi instead
        for x in (0.3, 1.7, 6.0):
            assert bo.kernel_norm_sq(-0.5, x) == pytest.approx(
                math.sqrt(2.0 / math.pi), abs=1e-12)

    def test_at_zero_equals_total_mass(self):
        al = 0.7
        assert bo.kernel_norm_sq(al, 0.0) == pytest.approx(
            1.0 / (2.0 ** (al + 1.0) * gamma(al + 2.0)), rel=1e-13)


class TestDunklKernelGrid:
    @pytest.mark.parametrize("al", [-0.95, -0.5, 0.3, 3.0, 19.5, 30.0, 140.0, 160.0, 1000.0])
    def test_against_mpmath(self, al):
        # nodes straddle the regime edges 9 and 50 and the former 12, and
        # the series edges of orders al and al + 1, sqrt(4(al+1)) and
        # sqrt(4(al+2)), between which the two orders once took different
        # regimes; both are now taken from the regime of order al, as the
        # scalar kernel takes them
        pair = [math.sqrt(4.0 * (al + d)) * f for d in (1.0, 1.5, 2.0)
                for f in (1.0 - 1e-3, 1.0, 1.0 + 1e-3)]
        edges = np.array([0.0, 1e-3, 8.99, 9.0, 9.01, 11.99, 12.0, 12.01,
                          30.0, 49.99, 50.0, 50.01, 80.0, 120.0, 700.0] + pair)
        xs = np.concatenate([edges, -edges[1:]])
        got = bo.dunkl_kernel_grid(al, xs)
        scalar = [dunkl_kernel(al, float(x)) for x in xs]
        with mp.workdps(40):
            a = mp.mpf(al)
            c = 2 ** a * mp.gamma(a + 1)
            for x, g, e in zip(xs, got, scalar):
                if x == 0.0:
                    ref = 1.0
                else:
                    xm = mp.mpf(float(x))
                    ax = abs(xm)
                    ref = complex(c * mp.besselj(a, ax) / ax ** a,
                                  c * xm * mp.besselj(a + 1, ax) / ax ** (a + 1))
                assert abs(g - ref) <= 1e-12 * abs(ref)
                assert abs(e - ref) <= 1e-12 * abs(ref)


class TestMirrorSymmetry:
    # the Bessel values depend on |x| only, so a grid and its mirror read
    # the same to the bit in every regime: what lets PWFunction evaluate
    # the kernel on the nonnegative rule nodes alone
    @pytest.mark.parametrize("al", [-0.5, 0.5, 19.5, 30.0])
    def test_jnorm_pair_even_in_x(self, al):
        # x = 30 and 49.99 take the asymptotic at the low orders, Miller's
        # recurrence at 19.5 and 30
        moved = [30.0, 49.99]
        regimes = {"series": np.array([1e-3, 0.5, 3.0, 8.99]),
                   "miller": np.array([12.0, 15.0, 19.4] + (moved if al > 1.0 else [])),
                   "asymptotic": np.array((moved if al < 1.0 else []) + [700.0, 2000.0])}
        assert np.all(sf._in_series_regime(al, regimes["series"]))
        assert not np.any(sf._in_series_regime(al, regimes["miller"]))
        for o in (al, al + 1.0):
            assert np.all(sf._in_asym_regime(o, regimes["asymptotic"]))
            assert not np.any(sf._in_asym_regime(o, regimes["miller"]))
        for x in regimes.values():
            pos = sf._jnorm_array(al, x, pair=True)
            neg = sf._jnorm_array(al, -x, pair=True)
            both = sf._jnorm_array(al, np.concatenate([-x[::-1], x]), pair=True)
            for p, n, b in zip(pos, neg, both):
                assert np.array_equal(p, n)
                assert np.array_equal(b, np.concatenate([p[::-1], p]))

    @staticmethod
    def _parts(u) -> tuple:
        """(even, odd): which parts of the density u are not 0, read off
        u(t) +- u(-t) on a grid apart from any rule's nodes."""
        t = np.linspace(0.05, 0.95, 7)
        return bool(np.any(u(t) + u(-t))), bool(np.any(u(t) - u(-t)))

    @pytest.mark.parametrize("u, al, w", [
        (lambda t: (1.0 - t * t) ** 2, 0.5, 0.0),        # the dunkl-sampling density
        (lambda t: (1.0 - t * t) * (0.3 + t), 0.3, 0.0),
        (lambda t: t * (1.0 - t * t) ** 2, 0.5, 0.0),
        (lambda t: 1.0 + t, 0.3, 0.2),
    ])
    def test_pw_eval_matches_full_node_grid(self, u, al, w):
        # orders 120 and 1344, one kernel grid on every node of the rule
        # without the Bessel order of a part of w u that is 0 on every node.
        # The whole kernel still gives the real part of an even w u and the
        # imaginary part of an odd one to the bit, and the other part is 0
        f = bo.PWFunction(u, al, weight_pow=w)
        parts = self._parts(u)
        for order, xs in ((120, [0.0, 0.3, -2.5, 17.0, -60.0]),
                          (1344, [1250.0, -1300.0, 1500.0])):
            assert {bo._order_for(abs(x)) for x in xs} == {order}
            got = f.eval(np.array(xs))
            (nodes, wu, found), = f._rules_for([order])
            assert found == parts
            ref = (bo._dunkl_e(al, np.outer(xs, nodes), parts) * wu).sum(axis=1)
            assert np.array_equal(got, ref)
            whole = (bo._dunkl_e(al, np.outer(xs, nodes)) * wu).sum(axis=1)
            if parts == (True, True):
                assert np.array_equal(got, whole)
            elif parts[0]:
                assert np.array_equal(got.real, whole.real) and not np.any(got.imag)
            else:
                assert np.array_equal(got.imag, whole.imag) and not np.any(got.real)

    @pytest.mark.parametrize("al", [-0.5, 0.5, 30.0])
    @pytest.mark.parametrize("u", [
        lambda t: (1.0 - t * t) ** 2,
        lambda t: (1.0 - t * t) * (0.3 + t),                       # not even
        lambda t: (1.0 - t * t) * ((0.3 + t) + 1j * (0.5 - t * t)),  # complex
    ])
    def test_pw_eval_mirrors_x(self, u, al):
        # f(x) and f(-x) come from one kernel grid row on |x|: a batch over
        # +-x reads both values as fresh one-value evaluations do, in every
        # order bucket, and f(-x) as a grid on the nodes -x t.  A batch over
        # x alone, -x alone and both signs does too where the Bessel values
        # do not depend on the other grid rows (alpha <= 9)
        xs = [0.0, 0.3, -2.5, 7.0, 17.0, -40.0, 60.0, 100.0, -500.0, 1300.0]
        for x in xs:
            pair = bo.PWFunction(u, al).eval(np.array([x, -x]))
            assert pair[0] == bo.PWFunction(u, al).eval(x)
            assert pair[1] == bo.PWFunction(u, al).eval(-x)
        mixed = xs + [-0.3, 17.0, -17.0, 40.0, -100.0, -900.0, 500.0, -1300.0]
        f = bo.PWFunction(u, al)
        batched = f.eval(np.array(mixed))
        if al <= 9.0:
            for x, v in zip(mixed, batched):
                assert v == bo.PWFunction(u, al).eval(x)
        (nodes, wu, found), = f._rules_for([120])
        small = [x for x in mixed if abs(x) <= 60.0]     # order 120
        # the even density's grid leaves out j_{alpha+1}, as eval does
        assert found == self._parts(u)
        ref = (bo._dunkl_e(al, np.outer(small, nodes), found) * wu).sum(axis=1)
        assert np.array_equal(bo.PWFunction(u, al).eval(np.array(small)), ref)

    @pytest.mark.parametrize("suite, count", [
        # a row per signed x took 521,552 (160 of them the nodes of the
        # kernel-norm integrand's rule, one grid)
        ("dunkl-sampling", 265496),
        # f at 101, 101 and 401 sampling nodes, one call each: a second
        # row for -x asked in a later call than x took 102,400
        ("hankel", 87240),
        # f once over the 11 reconstruction points, 6 values of |x|
        ("fourier-neumann", 720),
    ])
    def test_kernel_grid_nodes_per_suite(self, suite, count, monkeypatch, capsys):
        # a default pass builds one grid row per distinct |x| of each eval
        nodes = []
        grid = bo.dunkl_kernel_grid
        monkeypatch.setattr(bo, "dunkl_kernel_grid",
                            lambda alpha, xs, *parts: nodes.append(len(xs)) or grid(alpha, xs, *parts))
        assert main(["verify", suite, "--format", "json"]) == 0
        capsys.readouterr()
        assert sum(nodes) == count


class TestPWFunction:
    def test_polynomial_density_accuracy(self):
        # oracle values computed with 30-digit quadrature of the defining
        # integral (frozen)
        f = bo.PWFunction(lambda t: (1.0 - t * t) ** 2, 0.5)
        assert f.eval(0.3) == pytest.approx(0.060487869620824489241, abs=1e-14)
        assert f.eval(4.2) == pytest.approx(0.020416249497866858475, abs=1e-14)

    @pytest.mark.parametrize("al, bound", [
        # about twice the largest error measured over these points: 1.8e-10,
        # 3.6e-14, 1.5e-15, 1.6e-24 and 1.2e-59.  At alpha = -0.9 it is the
        # mass of the Gauss-Jacobi rules, 9.2e-13 low at order 120 and 2.3e-10
        # at order 1344, where |f| is 1.1e-10
        (-0.9, 4e-10), (-0.5, 8e-14), (0.5, 4e-15), (8.0, 4e-24), (30.0, 3e-59)])
    def test_against_sonine_closed_form(self, al, bound):
        # u = (1-t^2)^2: Sonine's first finite integral gives f(x) =
        # 8 x^(-alpha-3) J_(alpha+3)(x) and f(0) = 8 / (2^(alpha+3) Gamma(alpha+4)),
        # here at x = 0, 0.3 and +-s_n, the first and last zero of J_(alpha+1)
        # in every order bucket
        zeros = np.asarray(bessel_zeros(al + 1.0, 420).zeros)
        orders = np.array([bo._order_for(s) for s in zeros])
        xs = [0.0, 0.3]
        for b in bo._PW_BUCKETS:
            hit = zeros[orders == b]
            assert len(hit) > 0
            xs += [hit[0], -hit[0], hit[-1], -hit[-1]]
        got = bo.PWFunction(lambda t: (1.0 - t * t) ** 2, al).eval(np.array(xs))
        with mp.workdps(40):
            ref = [8 / (mp.mpf(2) ** (al + 3) * mp.gamma(al + 4)) if x == 0.0
                   else 8 * mp.mpf(abs(x)) ** (-al - 3) * mp.besselj(al + 3, abs(x)) for x in xs]
            err = max(abs(complex(g) - complex(r)) for g, r in zip(got.tolist(), ref))
        assert err <= bound

    def test_density_called_once_per_order(self):
        # u takes the whole node array of each rule order, once
        shapes = []

        def u(t):
            shapes.append(np.shape(t))
            return (1.0 - t * t) ** 2
        f = bo.PWFunction(u, 0.5)
        f.eval(np.array([0.3, 100.0, -100.0, 1300.0]))
        f.eval(0.7)
        f.eval(-1300.0)
        assert shapes == [(2 * order,) for order in (120, 160, 1344)]

    def test_cache(self):
        f = bo.PWFunction(lambda t: 1.0, 0.5)
        v1 = f.eval(1.0)
        v2 = f.eval(1.0)
        assert v1 == v2

    def test_batched_matches_single(self):
        # x = 0 and +-s_n at the first and last zero in every order bucket
        al = 0.5
        zeros = np.asarray(bessel_zeros(al + 1.0, 420).zeros)
        orders = np.array([bo._order_for(s) for s in zeros])
        xs = [0.0]
        for b in bo._PW_BUCKETS:
            hit = zeros[orders == b]
            assert len(hit) > 0
            xs += [hit[0], -hit[0], hit[-1], -hit[-1]]
        for u in (lambda t: (1.0 - t * t) ** 2, lambda t: t * (1.0 - t * t) ** 2):
            batched = bo.PWFunction(u, al).eval(np.array(xs))
            single = bo.PWFunction(u, al)
            assert batched.shape == (len(xs),)
            for x, v in zip(xs, batched):
                assert v == single.eval(x)
