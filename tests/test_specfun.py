import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp

from biexp import specfun
from biexp.specfun import (Params, _jratio_array, bessel_j, bessel_j_ratio,
                           bessel_zeros, dunkl_kernel, gamma, lommel_h, lgamma)

SQRT_PI = 1.7724538509055160273

# Orders 100 .. 1e4 at series and Miller points, the asymptotic point
# (200, 1e5), and two more Miller points where the Neumann weights of a
# stored sweep overflow
_LARGE_ORDER_GRID = ([(nu, x) for nu in (100.0, 140.0, 160.0, 300.0, 470.0, 1000.0, 2000.0, 1e4)
                      for x in (1.0, 60.0, 94.9, 200.0, 500.0)]
                     + [(200.0, 1e5), (2000.0, 134.0), (1e4, 300.0)])


def _near(got: float, ref, env) -> bool:
    """|got - ref| <= 1e-12 env for mpmath ref and env, or, below the
    normal floats, within one spacing of the subnormals."""
    return math.isfinite(got) and abs(mp.mpf(got) - ref) <= 1e-12 * env + 5e-324


class TestGamma:
    def test_factorial_base(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14, abs=0.0)

    def test_half(self):
        # oracle: sqrt(pi) as a high-precision constant, cross-checked by
        # squaring back to pi
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14, abs=0.0)
        assert gamma(0.5) ** 2 == pytest.approx(math.pi, rel=1e-13, abs=0.0)

    def test_range_accuracy(self):
        # against mpmath on (0.01, 171) and at negative non-integers;
        # log-Gamma relative to max(1, |log Gamma|)
        pos = [float(x) for x in np.linspace(0.01, 171.0, 347)]
        neg = [-k - f for k in range(0, 170, 7) for f in (0.1, 0.5, 0.77)]
        for x in pos + neg:
            ref = mp.gamma(x)
            assert abs(mp.mpf(gamma(x)) - ref) <= 2e-15 * abs(ref)
        for x in pos:
            ref = mp.loggamma(x)
            assert abs(mp.mpf(lgamma(x)) - ref) <= 2e-15 * max(1, abs(ref))

    def test_reflection(self):
        assert gamma(-0.5) == pytest.approx(float(sp.gamma(-0.5)), rel=1e-12)

    def test_pole(self):
        with pytest.raises(ValueError):
            gamma(0.0)
        with pytest.raises(ValueError):
            gamma(-3.0)

    def test_large_argument_below_overflow(self):
        # Gamma(171.62...) is the largest float64 value
        for x in (143.0, 160.0, 171.0):
            assert gamma(x) == pytest.approx(math.gamma(x), rel=5e-13)
        with pytest.raises(OverflowError):
            gamma(172.0)


class TestBessel:
    def test_j0_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0

    def test_half_order_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x
        x = math.pi / 2.0
        assert bessel_j(0.5, x) == pytest.approx(2.0 / math.pi, rel=1e-13, abs=0.0)

    def test_first_zero_of_j0(self):
        # oracle: bisection root of the power series (frozen)
        assert abs(bessel_j(0.0, 2.404825557695773)) < 1e-12

    def test_against_mpmath_all_regimes(self):
        # mpmath, not scipy: scipy's jv is itself off by up to 1.0e-12 of
        # the envelope on this range, e.g. at (28.23, 388.40)
        rng = np.random.default_rng(7)
        for _ in range(800):
            nu = float(rng.uniform(-0.95, 30.0))
            x = float(rng.uniform(1e-3, 500.0))
            with mp.workdps(40):
                ref = float(mp.besselj(nu, x))
            env = max(abs(ref), 0.3 * math.sqrt(2.0 / (math.pi * max(x, 1.0))))
            assert abs(bessel_j(nu, x) - ref) <= 1e-12 * env
            # the array path, one node at a time
            got = _jratio_array(nu, np.array([x]))[0] * x ** nu
            assert abs(got - ref) <= 1e-12 * env

    def test_contract_window(self):
        # relative error <= 1e-12 away from zeros for |x| <= 50
        for nu in (-0.5, 0.0, 0.7, 1.9, 7.3):
            for x in np.linspace(0.05, 50.0, 91):
                ref = float(sp.jv(nu, x))
                if abs(ref) < 1e-3:
                    continue
                assert bessel_j(nu, float(x)) == pytest.approx(ref, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_j(-1.0, 1.0)
        with pytest.raises(ValueError):
            bessel_j(0.5, 501.0)

    def test_negative_order_at_zero_raises(self):
        # J_nu(0) is infinite for -1 < nu < 0; positive orders vanish there
        with pytest.raises(ValueError, match="infinite"):
            bessel_j(-0.5, 0.0)
        assert bessel_j(0.5, 0.0) == 0.0

    def test_miller_sweep_length_capped(self):
        # the start is checked before the sweep, so the refusal costs nothing
        with pytest.raises(ValueError, match="Bessel recurrence"):
            bessel_j_ratio(1e5, 3e5)
        with pytest.raises(ValueError, match="Bessel recurrence"):
            dunkl_kernel(1e5, 3e5)
        # the widest Miller case inside bessel_j's window still evaluates
        assert math.isfinite(bessel_j_ratio(100.0, 500.0))

    @pytest.mark.parametrize("nu, x", _LARGE_ORDER_GRID)
    def test_large_order_against_mpmath(self, nu, x):
        # oracle: mpmath at 40 digits.  Each value holds 1e-12 of the
        # envelope of test_against_mpmath_all_regimes, max(|J|, 0.3
        # sqrt(2/(pi x))), in its own normalization, and is never nan
        # and never refused.
        with mp.workdps(40):
            n, xm = mp.mpf(nu), mp.mpf(x)
            j0, j1 = mp.besselj(n, xm), mp.besselj(n + 1, xm)
            floor = 0.3 * mp.sqrt(2 / (mp.pi * xm))
            env0, env1 = max(abs(j0), floor), max(abs(j1), floor)
            if x <= 500.0:
                assert _near(bessel_j(nu, x), j0, env0)
            px = xm ** n
            assert _near(bessel_j_ratio(nu, x), j0 / px, env0 / px)
            for got in _jratio_array(nu, np.array([x, -x])):
                assert _near(got, j0 / px, env0 / px)
            # E(ix) = Gamma(nu+1) (2/x)^nu (J_nu(x) + i J_{nu+1}(x))
            sc = mp.gamma(n + 1) * (2 / xm) ** n
            for sign in (1.0, -1.0):
                e = dunkl_kernel(nu, sign * x)
                assert _near(e.real, sc * j0, sc * env0)
                assert _near(sign * e.imag, sc * j1, sc * env1)

    @pytest.mark.parametrize("fn", [bessel_j_ratio, bessel_j, dunkl_kernel])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_arguments(self, fn, bad):
        with pytest.raises(ValueError, match="order must be finite"):
            fn(bad, 1.0)
        with pytest.raises(ValueError, match="x must be finite"):
            fn(0.5, bad)

    def test_large_order_values(self):
        # the ascending series and the factor (x/2)^nu / Gamma(nu+1) stay in
        # range where J_nu(x)/x^nu itself leaves it
        with mp.workdps(40):
            for nu, x in ((150.5, 120.0), (160.0, 100.0), (149.0, 20.0), (155.0, 160.0)):
                ref = float(mp.besselj(mp.mpf(nu), mp.mpf(x)))
                assert bessel_j(nu, x) == pytest.approx(ref, rel=1e-12)
            ref = float(mp.besselj(149, 20) / mp.mpf(20) ** 149)
            assert bessel_j_ratio(149.0, 20.0) == pytest.approx(ref, rel=1e-12)
            assert _jratio_array(149.0, np.array([20.0]))[0] == pytest.approx(ref, rel=1e-12)
            ref = float(mp.besselj(155, 1))
        # J_155(1) ~ 4.6e-321 is subnormal: accurate to its spacing
        assert abs(bessel_j(155.0, 1.0) - ref) < 1e-322
        # J_160(100)/100^160 ~ 1e-340 is below the float range
        assert 0.0 <= bessel_j_ratio(160.0, 100.0) < 1e-300

    def test_large_order_below_turning_point(self):
        # series regime; 2^nu Gamma(nu+1) needs the split power in gamma
        with mp.workdps(40):
            ref = float(mp.besselj(145, 10) / mp.mpf(10) ** 145)
        assert bessel_j_ratio(145.0, 10.0) == pytest.approx(ref, rel=1e-12)

    @given(st.floats(-0.9, 8.0), st.floats(0.01, 40.0))
    @settings(max_examples=60, deadline=None)
    def test_ratio_even(self, nu, x):
        assert bessel_j_ratio(nu, -x) == bessel_j_ratio(nu, x)


def _miller_every_step(nu, x, fired):
    """_miller_array with its rescale tests at every loop step, as it was
    built first; counts in fired the steps at which a rescale fires."""
    m = specfun._miller_start(nu, max(specfun.ASYM_EDGE, float(np.max(x))))
    big, tiny = specfun._BIG, specfun._TINY
    t = 2.0 / x
    fp, fc = np.zeros_like(x), np.ones_like(x)
    s, g, e = np.full_like(x, nu + m), np.ones_like(x), np.zeros(x.shape, dtype=int)
    for k2 in range(m, 2, -2):
        a = nu + k2
        ta = t * a
        fp = ta * fc - fp
        fc = (ta - t) * fp - fc
        a -= 2.0
        s = s * ((nu + a) / k2) + a * fc * g
        hit = fc > big
        if hit.any():
            fired.append(k2)
            r = np.where(hit, tiny, 1.0)
            fp *= r
            fc *= r
            s *= r
        hit = s > big
        if hit.any():
            fired.append(k2)
            r = np.where(hit, tiny, 1.0)
            s *= r
            g *= r
            e += hit
    f1 = t * (nu + 2.0) * fc - fp
    f0 = t * (nu + 1.0) * f1 - fc
    s += f0 * g
    e *= -specfun._SCALE_EXP
    return np.ldexp(f0 / s, e), np.ldexp(2.0 * (nu + 1.0) / x * (f1 / s), e)


class TestMillerStride:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("nu,lo,hi,fires", [(0.5, 9.0, 50.0, False),
                                                (31.0, 11.2, 250.0, True),
                                                (101.0, 20.2, 5000.0, True),
                                                (1000.0, 64.0, 9000.0, True)])
    def test_same_values_as_tests_at_every_step(self, nu, lo, hi, fires):
        # the rescale tests every few steps give the values of tests at
        # every step to the bit: on the Miller range of the default suites'
        # orders, where no rescale fires, and on node sets where rescales
        # fire; the lowest nodes grow the most between two tests
        x = np.concatenate([np.linspace(hi, lo, 97, endpoint=False)[::-1],
                            lo + np.geomspace(1e-3, 1.0, 23)])
        fired = []
        ref = _miller_every_step(nu, x, fired)
        assert bool(fired) == fires
        got = specfun._miller_array(nu, x)
        assert got[0].tobytes() == ref[0].tobytes()
        assert got[1].tobytes() == ref[1].tobytes()


class TestOrderTable:
    @pytest.mark.parametrize("nu", [0.5, 1.1, 3.3, 31.0])
    def test_against_mpmath(self, nu):
        # 40-digit values, within 1e-13 relative on every order whose value
        # is above 1e-3 of the row's largest
        with mp.workdps(40):
            for N in (12, 40, 120):
                for x in (0.0, 0.5, 2.0, 5.0, 9.0, 20.0, 50.0, 150.0):
                    tab = specfun._jratio_orders(nu, x, N)
                    ref = np.array([float(mp.besselj(nu + n, x) / mp.mpf(x) ** (nu + n)) if x
                                    else float(1 / (mp.mpf(2) ** (nu + n) * mp.gamma(nu + n + 1)))
                                    for n in range(N)])
                    kept = np.abs(ref) > 1e-3 * np.max(np.abs(ref))
                    assert tab.shape == (N,)
                    assert np.max(np.abs(tab[kept] / ref[kept] - 1.0)) <= 1e-13

    def test_short_tables(self):
        # one and two orders are the anchors alone; none is empty
        assert specfun._jratio_orders(0.5, 3.0, 0).shape == (0,)
        assert specfun._jratio_orders(0.5, 3.0, 1).tolist() == [bessel_j_ratio(0.5, 3.0)]
        assert specfun._jratio_orders(0.5, 3.0, 2).tolist() == pytest.approx(
            [bessel_j_ratio(0.5, 3.0), bessel_j_ratio(1.5, 3.0)], rel=1e-15, abs=0.0)


def _trial_converges(nu: float, x: float) -> bool:
    # the trial the regime predicate replaced: the cosine asymptotic beyond
    # 50 where its terms reach 1e-13 before they start growing
    mu = 4.0 * nu * nu
    term = prev = 1.0
    for k in range(1, 18):
        term *= (mu - (2.0 * k - 1.0) ** 2) / (k * 8.0 * x)
        mag = abs(term)
        if mag < 1e-17 or mag > prev:
            break
        prev = mag
    return x > 50.0 and (mag < 1e-13 or prev <= 1e-13)


class TestAsymRegime:
    def test_predicate_is_the_trial(self):
        rng = np.random.default_rng(18)
        nus = list(-1.0 + 401.0 * (1.0 - rng.random(10_000)))
        xs = list(50.0 + 19_950.0 * (1.0 - rng.random(10_000)))
        for nu in np.linspace(10.02, 400.0, 500):
            edge = (4.0 * nu * nu - 1.0) / 8.0
            nus += [nu] * 3
            xs += [edge * (1.0 - 1e-12), edge, edge * (1.0 + 1e-12)]
        got = [bool(specfun._in_asym_regime(nu, x)) for nu, x in zip(nus, xs)]
        assert got == [_trial_converges(nu, x) for nu, x in zip(nus, xs)]
        assert 0.3 < np.mean(got) < 0.7
        for nu in (-0.9, 0.5, 30.0, 300.0):
            arr = specfun._in_asym_regime(nu, np.asarray(xs))
            assert list(arr) == [bool(specfun._in_asym_regime(nu, x)) for x in xs]

    def test_array_regime_per_node(self):
        # order 11 enters the asymptotic regime at x = 60.375: the node at
        # 1000 takes the asymptotic beside a Miller node at 55, and each
        # reads as it does alone
        near, far = np.array([55.0]), np.array([1000.0])
        both = specfun._jnorm_array(10.0, np.concatenate([near, far]), pair=True)
        for v, a, b in zip(both, specfun._jnorm_array(10.0, near, pair=True),
                           specfun._jnorm_array(10.0, far, pair=True)):
            assert np.array_equal(v, np.concatenate([a, b]))


class TestDunklKernel:
    def test_at_zero(self):
        assert dunkl_kernel(0.3, 0.0) == 1.0 + 0.0j

    def test_half_integer_is_exponential(self):
        x = 0.9
        got = dunkl_kernel(-0.5, x)
        assert got == pytest.approx(complex(math.cos(x), math.sin(x)), abs=1e-14)

    def test_series_oracle_30_digits(self):
        # oracle: direct summation of the two-series combination in mpmath
        a, x = 0.3, 1.7
        with mp.workdps(30):
            am = mp.mpf("0.3")
            z = mp.mpc(0, "1.7")

            def inorm(order, zz):
                return mp.gamma(order + 1) * mp.nsum(
                    lambda n: (zz / 2) ** (2 * n) / (mp.factorial(n) * mp.gamma(n + order + 1)),
                    [0, mp.inf])
            ref = inorm(am, z) + z / (2 * (am + 1)) * inorm(am + 1, z)
            ref = complex(ref)
        assert dunkl_kernel(a, x) == pytest.approx(ref, abs=1e-14)

    @pytest.mark.parametrize("a", [148.0, 150.0, 156.0, 1000.0, 1e4])
    def test_large_order_series(self, a):
        # 1/(2^a Gamma(a+1)) leaves the normal floats near a = 149; the
        # kernel never forms it, so the ascending series keeps every digit
        with mp.workdps(40):
            am, x = mp.mpf(a), mp.mpf(1)
            scale = 2 ** am * mp.gamma(am + 1)
            ref = complex(scale * mp.besselj(am, x) / x ** am,
                          scale * mp.besselj(am + 1, x) / x ** am)
        got = dunkl_kernel(a, 1.0)
        assert got.real == pytest.approx(ref.real, rel=1e-14, abs=0.0)
        assert got.imag == pytest.approx(ref.imag, rel=1e-14, abs=0.0)

    def test_parity(self):
        for x in (0.3, 2.2, 8.0, 30.0):
            e1 = dunkl_kernel(0.7, x)
            e2 = dunkl_kernel(0.7, -x)
            assert e1.real == pytest.approx(e2.real, rel=1e-13, abs=1e-15)
            assert e1.imag == pytest.approx(-e2.imag, rel=1e-13, abs=1e-15)

    def test_modulus_nonnegative(self):
        for x in np.linspace(-8, 8, 33):
            e = dunkl_kernel(0.4, float(x))
            assert (e * e.conjugate()).real >= 0.0


class TestZeros:
    def test_signed_sequence(self):
        t = bessel_zeros(1.5, 4)
        assert t.signed(0) == 0.0
        assert t.signed(-2) == -t.signed(2)

    def test_half_order_zeros_are_multiples_of_pi(self):
        t = bessel_zeros(0.5, 3)
        for k, z in enumerate(t.zeros, start=1):
            assert z == pytest.approx(k * math.pi, abs=1e-12)

    def test_j0_first_zero(self):
        t = bessel_zeros(0.0, 1)
        assert t.zeros[0] == pytest.approx(2.404825557695773, abs=1e-12)

    def test_residual_and_interlacing(self):
        for nu in (-0.3, 0.0, 0.5, 1.5, 3.7):
            t = bessel_zeros(nu, 12)
            t1 = bessel_zeros(nu + 1.0, 12)
            for z in t.zeros:
                assert abs(bessel_j(nu, z)) < 1e-12
            for k in range(11):
                assert t.zeros[k] < t1.zeros[k] < t.zeros[k + 1]

    def test_spacing_window(self):
        for nu in (0.0, 0.5, 1.5, 3.7):
            t = bessel_zeros(nu, 20)
            gaps = np.diff(t.zeros)
            assert np.all(gaps > 2.0)
            assert np.all(gaps < math.pi + 1.0)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            bessel_zeros(0.5, 0)
        with pytest.raises(ValueError):
            bessel_zeros(-1.2, 3)

    @pytest.mark.parametrize("nu", [0.05, 1.5, 3.9, 20.0, 140.0])
    def test_against_mpmath(self, nu):
        # oracle: mpmath besseljzero at 30 digits; k <= 12 covers the
        # eigenvalue seeds (k <= 10) and the extrapolated ones after them
        with mp.workdps(30):
            for k_max in (3, 12):
                t = bessel_zeros(nu, k_max)
                for k, z in enumerate(t.zeros, start=1):
                    ref = float(mp.besseljzero(mp.mpf(nu), k))
                    assert z == pytest.approx(ref, rel=1e-14, abs=0.0)
            t = bessel_zeros(nu, 400)
            for k in (13, 50, 101, 250, 400):
                ref = float(mp.besseljzero(mp.mpf(nu), k))
                assert t.zeros[k - 1] == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_negative_half_order(self):
        # J_{-1/2}(x) = sqrt(2/(pi x)) cos x
        t = bessel_zeros(-0.5, 400)
        for k, z in enumerate(t.zeros, start=1):
            assert z == pytest.approx((k - 0.5) * math.pi, rel=1e-14, abs=0.0)

    def test_long_half_order_table(self):
        z = np.asarray(bessel_zeros(0.5, 20000).zeros)
        k = np.arange(1, 20001)
        assert np.max(np.abs(z / (k * math.pi) - 1.0)) < 1e-14

    def test_skipped_zero_raises(self, monkeypatch):
        # a start past the first zero of J_0 converges to the second one,
        # where J_1 has the wrong sign for a first zero
        monkeypatch.setattr(specfun, "_zero_seeds",
                            lambda nu, k: np.array([5.5, 8.6, 11.8])[:k])
        with pytest.raises(RuntimeError, match="skipped"):
            bessel_zeros(0.0, 3)

    def test_order_domain(self):
        with pytest.raises(ValueError, match="order must be finite"):
            bessel_zeros(math.nan, 2)
        with pytest.raises(ValueError, match="order must be finite"):
            bessel_zeros(math.inf, 2)
        with pytest.raises(ValueError, match="order in"):
            bessel_zeros(2e4, 2)


class TestLommel:
    def test_seeds(self):
        assert lommel_h(-1, 2.0, 0.3) == 0.0
        assert lommel_h(0, 2.0, 0.3) == 1.0

    def test_first_step(self):
        a, w = 2.5, 0.2
        assert lommel_h(1, a, w) == pytest.approx(2.0 * a * w, rel=1e-15, abs=0.0)

    def test_parity(self):
        a, z = 2.6, 0.4
        for n in range(8):
            assert lommel_h(n, a, -z) == pytest.approx((-1.0) ** n * lommel_h(n, a, z),
                                                       rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("a, w, name", [(2.5, math.nan, "w"), (math.inf, 0.2, "a"),
                                            (math.nan, 0.2, "a"), (2.5, complex(0.1, math.inf), "w")])
    def test_nonfinite_arguments(self, a, w, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            lommel_h(3, a, w)

    @pytest.mark.parametrize("a, w", [(2.5, 1e300), (1e300, 1e10), (2.5, complex(0.0, 1e300))])
    def test_overflow_raises(self, a, w):
        # inf, and inf - inf = nan, for finite arguments
        with pytest.raises(OverflowError, match="float64 range"):
            lommel_h(3, a, w)

    def test_hurwitz_sign_stabilizes(self):
        a = 2.6
        j1 = bessel_zeros(a - 1.0, 1).zeros[0]
        signs = set()
        for n in range(20, 41):
            ratio = (lommel_h(n, a, 1.0 / j1) / gamma(n + a)
                     * (2.0 / j1) ** (-(n + a - 1.0)))
            signs.add(math.copysign(1.0, ratio))
        assert len(signs) == 1


class TestParams:
    def test_valid(self):
        p = Params(0.3, 0.2)
        assert p.ab == pytest.approx(0.5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Params(-1.2, 0.5)
        with pytest.raises(ValueError):
            Params(-0.6, -0.6)

    def test_nonfinite(self):
        with pytest.raises(ValueError, match="alpha must be finite"):
            Params(math.inf, 0.0)
        with pytest.raises(ValueError, match="beta must be finite"):
            Params(0.3, math.nan)
