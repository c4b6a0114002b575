import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from biexp import spectrum as spe
from biexp.orthopoly import GenGegenbauerFamily, dunkl_apply_poly
from biexp.specfun import Params, bessel_j_ratio, bessel_zeros, lommel_h
from biexp.suites import run_suite


@pytest.fixture(scope="module")
def problem():
    P = Params(0.4, 0.1)
    return spe.SpectralProblem(P, 80, bessel_zeros(P.ab + 1.0, 8))


class TestOperator:
    def test_unit_raised_vector(self, problem):
        ab = problem.params.ab
        g = np.zeros(81, dtype=complex)
        g[0] = 1.0
        out = spe.apply_T(problem, g)
        assert out[1] == pytest.approx(1.0 / (2.0 * (ab + 1.0)))
        assert np.max(np.abs(out[2:])) == 0.0
        # the last slot g_N falls beyond the window
        g[80] = 1.0
        assert np.array_equal(spe.apply_T(problem, g), out)

    def test_derivative_inverts_T(self, problem):
        P = problem.params
        fam = GenGegenbauerFamily(P)
        up = fam.raised()
        g = np.zeros(81, dtype=complex)
        g[2] = 1.0
        out = spe.apply_T(problem, g)
        coeffs = np.zeros(82)
        for n in range(1, 81):
            if abs(out[n]) > 0:
                for i, v in enumerate(fam.coeffs(n)):
                    coeffs[i] += (out[n] * v).real
        applied = dunkl_apply_poly(P.alpha, list(coeffs))
        target = up.coeffs(2)
        resid = max(abs(applied[i] - (target[i] if i < len(target) else 0.0))
                    for i in range(len(applied)))
        assert resid < 1e-12

    def test_norm_bound(self, problem):
        M = spe.bound_constant(problem)
        rng = np.random.default_rng(12345)
        fam = GenGegenbauerFamily(problem.params)
        up = fam.raised()
        for _ in range(20):
            g = rng.standard_normal(81) + 1j * rng.standard_normal(81)
            out = spe.apply_T(problem, g)
            ntg = math.sqrt(sum(abs(out[n]) ** 2 * fam.norm(n) for n in range(81)))
            ng = math.sqrt(sum(abs(g[n]) ** 2 * up.norm(n) for n in range(81)))
            assert ntg <= M * ng * (1.0 + 1e-12)

    def test_norm_ratio_closed_forms(self, problem):
        P = problem.params
        ab = P.ab
        fam = GenGegenbauerFamily(P)
        up = fam.raised()
        for k in range(0, 20):
            r1 = fam.norm(2 * k + 1) / up.norm(2 * k)
            assert r1 == pytest.approx(
                (ab + 1.0) ** 2 / ((P.beta + k + 1.0) * (P.alpha + k + 1.0)), rel=1e-12)
            if k >= 1:
                r2 = fam.norm(2 * k) / up.norm(2 * k - 1)
                assert r2 == pytest.approx(
                    (ab + 1.0) ** 2 / (k * (ab + k + 1.0)), rel=1e-12)


class TestRecurrence:
    def test_seed_ratio(self, problem):
        ab = problem.params.ab
        lam = 0.15j
        a = spe.recurrence_coeffs(problem, lam, 6)
        assert a[2] / a[1] == pytest.approx(-2.0 * lam * (ab + 3.0), rel=1e-14, abs=0.0)

    def test_matches_lommel_relation(self, problem):
        ab = problem.params.ab
        lam = 0.15j
        a = spe.recurrence_coeffs(problem, lam, 12)
        for n in range(1, 13):
            rel = ((1j) ** (n - 1) * (ab + n + 1.0) / (ab + 2.0)
                   * lommel_h(n - 1, ab + 2.0, 1j * lam))
            assert abs(a[n] - rel) < 1e-10

    def test_lambda_zero_pattern(self, problem):
        ab = problem.params.ab
        for n in range(6):
            assert lommel_h(2 * n + 1, ab + 2.0, 0.0) == 0.0
            assert lommel_h(2 * n, ab + 2.0, 0.0) == (-1.0) ** n

    def test_lambda_zero_rejected(self, problem):
        with pytest.raises(ValueError):
            spe.recurrence_coeffs(problem, 0.0, 10)


class TestEigen:
    def test_eigenvalue_structure(self, problem):
        vals = spe.eigenvalues(problem, 3)
        assert len(vals) == 6
        assert all(v.real == 0.0 for v in vals)
        mags = [abs(vals[2 * i]) for i in range(3)]
        assert mags[0] > mags[1] > mags[2]
        assert vals[0] == vals[1].conjugate()

    def test_halfint_first_zero_is_tan_fixed_point(self):
        # (alpha, beta) = (-1/2, 1): the zero table is the J_{3/2} zeros,
        # whose first member solves tan x = x
        P = Params(-0.5, 1.0)
        prob = spe.SpectralProblem(P, 10, bessel_zeros(P.ab + 1.0, 1))
        j = prob.zero(1)
        assert math.tan(j) == pytest.approx(j, abs=1e-8)

    def test_bessel_lommel_identity(self, problem):
        ab = problem.params.ab
        j = problem.zero(1)
        jab = bessel_j_ratio(ab, j) * j ** ab
        for n in range(1, 11):
            h = lommel_h(n - 1, ab + 2.0, 1.0 / j)
            resid = bessel_j_ratio(ab + n + 1.0, j) * j ** (ab + n + 1.0) + h * jab
            assert abs(resid) < 1e-10

    def test_series_vs_closed_form(self, problem):
        for k in (1, 2, 3):
            for sign in (1, -1):
                s, c = spe.eigenfunction(problem, k, sign, 0.37, 60)
                assert abs(s - c) < 1e-8

    def test_closed_form_through_k9(self):
        # the closed form goes through the J-ratio Dunkl kernel, which
        # stays accurate at |t j_k| well past 12
        r = run_suite("spectrum", {"k_max": 9})
        rows = [c for c in r.checks if c.id.startswith("spectrum/series-vs-closed/")]
        assert len(rows) == 9
        assert all(c.passed for c in r.checks)

    def test_conjugation_symmetry(self, problem):
        s1, _ = spe.eigenfunction(problem, 1, 1, 0.37, 60)
        s2, _ = spe.eigenfunction(problem, 1, -1, 0.37, 60)
        assert s2 == pytest.approx(s1.conjugate(), rel=1e-14, abs=0.0)

    @given(st.floats(-0.9, 2.0), st.floats(-0.5, 0.9), st.integers(1, 3), st.floats(-1.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_eigenpairs_conjugate(self, al, be, k, t):
        # -i/j_k pairs with i/j_k, and its eigenfunction is the conjugate
        assume(al + be > -0.9)
        P = Params(al, be)
        prob = spe.SpectralProblem(P, 40, bessel_zeros(P.ab + 1.0, 3))
        vals = spe.eigenvalues(prob, 3)
        assert vals[2 * k - 1] == vals[2 * k - 2].conjugate()
        assert np.array_equal(spe.eigen_coeffs(prob, k, -1, 40),
                              np.conj(spe.eigen_coeffs(prob, k, 1, 40)))
        for plus, minus in zip(spe.eigenfunction(prob, k, 1, t, 40),
                               spe.eigenfunction(prob, k, -1, t, 40)):
            assert minus == pytest.approx(plus.conjugate(), rel=1e-13, abs=1e-15)
        assert spe.eigen_residual(prob, k, -1) == pytest.approx(
            spe.eigen_residual(prob, k, 1), rel=1e-12, abs=1e-15)

    def test_residual_small_at_eigenvalue(self, problem):
        for k in (1, 2, 3):
            for sign in (1, -1):
                assert spe.eigen_residual(problem, k, sign) < 1e-6

    def test_residual_grows_as_truncation_shrinks(self, problem):
        # residual must not increase with N
        r40 = spe.eigen_residual(spe.SpectralProblem(problem.params, 40, problem.table), 1, 1)
        r80 = spe.eigen_residual(problem, 1, 1)
        assert r80 <= r40 + 1e-12

    def test_perturbed_lambda_rejected(self, problem):
        r = spe.eigen_residual(problem, 1, 1, lam=1.01j / problem.zero(1))
        assert r >= 1e-2

    @pytest.mark.parametrize("N", [120, 160, 240, 400])
    def test_perturbed_lambda_rejected_many_terms(self, problem, N):
        # the forward recurrence grows like Gamma(n)(2/j)^n; neither it nor
        # the squared coefficients of the norms may leave the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = spe.SpectralProblem(problem.params, N, problem.table)
            r = spe.eigen_residual(big, 1, 1, lam=1.01j / problem.zero(1))
            a = spe.recurrence_coeffs(problem, 1.01j / problem.zero(1), N)
        assert 1e-2 <= r < math.inf
        assert float(np.max(np.abs(a))) ** 2 < math.inf

    def test_suite_passes_at_many_terms(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_suite("spectrum", {"terms": 400}).passed

    def test_summability_condition(self, problem):
        P = problem.params
        a60 = spe.eigen_coeffs(spe.SpectralProblem(P, 60, problem.table), 1, 1, 60)
        a80 = spe.eigen_coeffs(problem, 1, 1, 80)
        s60 = sum(abs(a60[n]) ** 2 * n ** (2.0 * P.beta - 1.0) for n in range(1, 61))
        s80 = sum(abs(a80[n]) ** 2 * n ** (2.0 * P.beta - 1.0) for n in range(1, 81))
        assert abs(s80 - s60) / s80 < 1e-10

    def test_zero_table_shortfall(self, problem):
        with pytest.raises(ValueError):
            spe.eigenvalues(problem, 99)

    @pytest.mark.parametrize("k", [0, -1])
    def test_zero_index_below_one_refused(self, problem, k):
        # k = 0 and -1 read the 8th and 7th zeros from the end of the table
        with pytest.raises(ValueError, match=rf"holds zeros 1\.\.8, asked for k={k}"):
            problem.zero(k)
        with pytest.raises(ValueError, match=rf"asked for k={k}"):
            spe.eigen_residual(problem, k, 1)
        with pytest.raises(ValueError, match=rf"asked for k={k}"):
            spe.eigenfunction(problem, k, 1, 0.3, 40)

    def test_zero_table_of_the_wrong_order_refused(self):
        # zeros of J_{1/2} in place of J_{a+b+1} = J_{3/2} gave the
        # eigenvalues +-0.3183i in place of +-0.2225i
        with pytest.raises(ValueError, match=r"zero table is of J_0.5; the spectrum needs J_1.5"):
            spe.SpectralProblem(Params(0.4, 0.1), 80, bessel_zeros(0.5, 8))


def test_verify_all_loads_no_numpy_random():
    # right-inverse-norm-bound, the one check that draws random data, takes
    # it from the standard library's seeded generator: numpy.random alone
    # costs a verify process about 12 ms and 5 MB to load
    script = ("import sys\n"
              "from biexp.suites import run_suite\n"
              "rows = {c.id: c.passed for c in run_suite('all').checks}\n"
              "print(rows['spectrum/right-inverse-norm-bound'], 'numpy.random' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["True", "False"]
