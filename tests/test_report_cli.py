import contextlib
import io
import json
import math
import pathlib
import shlex
import subprocess
import sys
import tempfile

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from biexp.cli import main
from biexp.report import (CSV_HEADER, SuiteResult, emit_csv, emit_json,
                          emit_text, make_check)
from biexp import biortho, suites
from biexp.suites import SUITE_NAMES, _worst, run_suite

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


class TestCheckReport:
    def test_pass_semantics(self):
        c = make_check("x", 1.0, 1.0 + 1e-12, 1e-10)
        assert c.passed
        c = make_check("x", 1.0, 2.0, 1e-10)
        assert not c.passed

    def test_relative_escape(self):
        # huge values with tiny relative error pass on the relative leg
        c = make_check("x", 1e9, 1e9 * (1 + 1e-13), 1e-10)
        assert c.passed and c.abs_err > 1e-10

    def test_nonfinite_fails(self):
        c = make_check("x", float("nan"), 1.0, 1e-6)
        assert not c.passed


class TestEmitters:
    def _result(self):
        checks = [make_check("a/b", 1.0 + 2.0j, 1.0 + 2.0j, 1e-9),
                  make_check("c", 0.5, 0.25, 1e-9),
                  make_check("d", -0.0, 0.0, 1e-12)]
        return SuiteResult(suite="demo", params={"alpha": 0.3}, checks=checks,
                           runtime_ms=12.5)

    def test_json_roundtrip(self):
        r = self._result()
        buf = io.StringIO()
        emit_json(r, buf)
        doc = json.loads(buf.getvalue())
        assert doc["suite"] == r.suite and doc["params"] == r.params
        assert doc["pass"] == r.passed and doc["runtime_ms"] == r.runtime_ms
        assert len(doc["checks"]) == 3
        for row, c in zip(doc["checks"], r.checks):
            assert row["id"] == c.id and row["pass"] == c.passed
            assert complex(row["lhs_re"], row["lhs_im"]) == c.lhs
            assert complex(row["rhs_re"], row["rhs_im"]) == c.rhs
            assert row["abs_err"] == c.abs_err and row["rel_err"] == c.rel_err
            assert row["tol"] == c.tol

    def test_empty_report_is_vacuous_pass(self):
        r = SuiteResult(suite="demo", params={}, checks=[], runtime_ms=0.0)
        buf = io.StringIO()
        emit_json(r, buf)
        doc = json.loads(buf.getvalue())
        assert doc["checks"] == []
        assert doc["pass"] is True

    def test_csv_header_fixed(self):
        r = self._result()
        buf = io.StringIO()
        emit_csv(r, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_csv_byte_stable(self):
        r = self._result()
        b1, b2 = io.StringIO(), io.StringIO()
        emit_csv(r, b1)
        emit_csv(r, b2)
        assert b1.getvalue() == b2.getvalue()

    def test_text_table(self):
        r = self._result()
        buf = io.StringIO()
        emit_text(r, buf)
        out = buf.getvalue()
        assert "PASS" in out and "FAIL" in out
        assert "2/3 checks passed" in out


class TestSuiteRegistry:
    def test_names(self):
        assert set(SUITE_NAMES) == {"planewave", "dunkl-sampling",
                                    "fourier-neumann", "hankel", "spectrum",
                                    "lemma71", "q-core", "q-planewave",
                                    "q-weber", "all"}

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("nope")

    def test_planewave_deterministic(self):
        r1 = run_suite("planewave")
        r2 = run_suite("planewave")
        for a, b in zip(r1.checks, r2.checks):
            assert a.id == b.id
            assert a.lhs == b.lhs
            assert a.rhs == b.rhs

    @pytest.mark.parametrize("name", [n for n in SUITE_NAMES if n != "all"])
    def test_ids_under_registry_name(self, name):
        ids = [c.id for c in run_suite(name).checks]
        assert ids and all(i.startswith(name + "/") for i in ids)

    def test_worst_keeps_nan(self):
        assert _worst([0.1, 0.3, 0.2]) == 0.3
        assert math.isnan(_worst([0.1, math.nan, 0.2]))
        assert math.isnan(_worst([math.nan, 0.1]))

    def test_nan_at_one_grid_point_fails_its_check(self, monkeypatch):
        real = biortho.classical_planewave

        def nan_at_one_point(beta, x, t, N):
            if (x, t) == (2.0, 0.3):
                return complex(math.nan, 0.0)
            return real(beta, x, t, N)
        monkeypatch.setattr(biortho, "classical_planewave", nan_at_one_point)
        rows = {c.id: c for c in run_suite("planewave").checks}
        for beta in (0.5, 1.0, 2.3):
            assert not rows[f"planewave/classical/beta={beta}"].passed
        assert rows["planewave/bessel-quotient-parity"].passed

    def test_spectrum_override(self):
        r = run_suite("spectrum", {"k_max": 2})
        ids = [c.id for c in r.checks]
        assert any("k=2" in i for i in ids)
        assert not any("k=3" in i for i in ids)
        jh = [c for c in r.checks if c.id.startswith("spectrum/lommel-bessel-identity")]
        assert jh and all(c.passed for c in jh)
        assert all(c.abs_err < 1e-10 for c in jh)
        # rows beyond the first zero also carry tiny relative error; at the
        # first zero the identity's conditioning at a float64 zero caps it
        assert all(c.rel_err < 1e-10 for c in jh if "k=1" not in c.id)

    def test_spectrum_few_terms_kernel_oracle(self):
        # the kernel sum reads C_1..C_20 whatever the basis truncation
        r = run_suite("spectrum", {"terms": 10, "k_max": 1})
        row = next(c for c in r.checks if c.id == "spectrum/T-quadrature-kernel-oracle")
        assert row.passed


class TestCLI:
    def test_list_suites(self, capsys):
        assert main(["--list-suites"]) == 0
        out = capsys.readouterr().out
        assert "planewave" in out and "all" in out

    def test_eval_dunkl_kernel(self, capsys):
        assert main(["eval", "dunkl-kernel", "--alpha", "-0.5", "--x", "0.9"]) == 0
        out = capsys.readouterr().out
        import math
        re, im = (float(v) for v in out.strip().strip("()").split(","))
        assert re == pytest.approx(math.cos(0.9), abs=1e-12)
        assert im == pytest.approx(math.sin(0.9), abs=1e-12)

    def test_eval_zeros(self, capsys):
        assert main(["eval", "zeros", "--nu", "0.5", "--k", "2"]) == 0
        out = capsys.readouterr().out
        import math
        assert float(out) == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_eval_lommel(self, capsys):
        assert main(["eval", "lommel", "--n", "1", "--a", "2.5", "--w", "0.2"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(1.0, rel=1e-12)

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "nope"]) == 2

    def test_missing_flag_exit_2(self, capsys):
        assert main(["eval", "bessel", "--nu", "2.0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["eval", "dunkl-kernel", "--alpha", "0.3", "--x", "nan"],
        ["eval", "dunkl-kernel", "--alpha", "inf", "--x", "1.0"],
        ["eval", "bessel", "--nu", "0.5", "--x=-inf"],
        ["eval", "gengeg", "--alpha", "inf", "--beta", "0", "--n", "2", "--t", "0.3"],
        ["eval", "qbessel3", "--nu", "nan", "--x", "1", "--q", "0.5"],
        ["verify", "spectrum", "--alpha", "inf"],
        ["eval", "lommel", "--n", "3", "--a", "2.5", "--w", "nan"],
        ["eval", "lommel", "--n", "3", "--a", "inf", "--w", "0.2"],
    ])
    def test_nonfinite_value_exit_2(self, argv):
        proc = subprocess.run([sys.executable, "-m", "biexp.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "finite" in lines[0]
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["eval", "bessel", "--nu", "155", "--x", "1"],
        ["eval", "bessel", "--nu", "150.5", "--x", "120"],
        ["eval", "zeros", "--nu", "1e9", "--k", "1"],
        ["eval", "eigenvalue", "--alpha", "80", "--beta", "79", "--k", "2"],
    ])
    def test_large_order_no_traceback(self, argv):
        proc = subprocess.run([sys.executable, "-m", "biexp.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode in (0, 2)
        assert "Traceback" not in proc.stderr
        if proc.returncode == 2:
            assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv, reason", [
        # past the Miller sweep's length cap: refused before any sweep
        (["eval", "dunkl-kernel", "--alpha", "1e5", "--x", "3e5"], "Bessel recurrence"),
        (["eval", "bessel", "--nu", "-0.5", "--x", "0"], "infinite"),
        # a float overflow below the library is a domain error too:
        # C_800 at t = 1 is 2.2e477
        (["eval", "gengeg", "--alpha", "0.5", "--beta", "400", "--n", "800", "--t", "1"],
         "exceeds the float64 range"),
        (["verify", "spectrum", "--alpha", "200"], "out of range"),
        # a sample the quadrature rejects, with no numpy warning before it
        (["verify", "spectrum", "--alpha", "140"], "non-finite sample"),
        # the eigenvalues are +-i/j_k: any other sign names none of them
        (["eval", "eigenvalue", "--alpha", "0.3", "--beta", "0.2", "--k", "1", "--sign", "3"],
         "sign must be 1 or -1"),
        (["eval", "eigenvalue", "--alpha", "0.3", "--beta", "0.2", "--k", "1", "--sign", "0"],
         "sign must be 1 or -1"),
        # Q = q^2 would hide the sign of q
        (["eval", "qbessel3", "--nu", "0.5", "--x", "1", "--q", "0"], "q must lie in (0, 1)"),
        (["eval", "qbessel3", "--nu", "0.5", "--x", "1", "--q", "-0.5"], "q must lie in (0, 1)"),
        (["eval", "qbessel3", "--nu", "-1", "--x", "1", "--q", "0.5"], "order must exceed -1"),
        (["eval", "qbessel3", "--nu", "-3", "--x", "1", "--q", "0.5"], "order must exceed -1"),
        # finite arguments whose float value is not: nan and inf were printed
        (["eval", "qbessel3", "--nu", "0.5", "--x", "1e10", "--q", "0.5"], "float64 range"),
        (["eval", "lommel", "--n", "3", "--a", "2.5", "--w", "1e300"], "float64 range"),
        (["eval", "lommel", "--n", "3", "--a", "1e300", "--w", "1e10"], "float64 range"),
        # (Q; Q)_inf underflows to 0.0, or needs more than the product's
        # 200,000 factors: "float division by zero" was printed
        (["eval", "qbessel3", "--nu", "0.5", "--x", "1", "--q", "0.9995"], "float64 range"),
        (["eval", "qbessel3", "--nu", "0.5", "--x", "1", "--q", "0.9999"], "200000 factors"),
        (["eval", "qbessel3", "--nu", "0.5", "--x", "1", "--q", "0.99995"], "200000 factors"),
        (["eval", "qbessel3", "--nu", "0.5", "--x", "1", "--q", "0.99999"], "200000 factors"),
        # the small-x end of the weighted q sums would pass its cap of 2 k_max
        (["verify", "q-core", "--alpha", "-0.8"], "take alpha >= -0.75"),
        (["verify", "all", "--alpha", "-0.9"], "take alpha >= -0.75"),
        # the order-1344 Gauss-Jacobi weights next to x = -1 underflow
        (["verify", "dunkl-sampling", "--alpha", "150"], "Gauss-Jacobi rule (1344, 0.0, 150.0)"),
        # q overrides that leave the float range: a q sum's summand, the
        # q-plane-wave truncation bound, the q-Jacobi Gram or the q-Bessel
        # grid sweep names itself, with no raw errno message and no warning
        (["verify", "q-core", "--alpha", "30"], "q-Hankel summand of order 30.0"),
        (["verify", "q-core", "--alpha", "25", "--q", "0.3"], "q-Hankel summand of order 25.0"),
        (["verify", "q-planewave", "--alpha", "25", "--q", "0.3"],
         "q-plane-wave term bound at alpha=25.0"),
        (["verify", "q-planewave", "--beta", "30", "--q", "0.3"],
         "q-plane-wave term bound at alpha=0.3, beta=30.0"),
        (["verify", "q-planewave", "--alpha", "100"], "q-plane-wave term bound at alpha=100.0"),
        (["verify", "q-weber", "--beta", "50"], "q-Weber-Schafheitlin summand at lam=50.0"),
        (["verify", "all", "--alpha", "30"], "q-Hankel summand of order 30.0"),
        (["verify", "q-core", "--alpha", "100"], "q-Jacobi Gram at q=0.3, alpha=100.0"),
        (["verify", "q-weber", "--alpha", "1000"], "q-Bessel grid sweep at order 1001.2, Q=0.25"),
    ])
    def test_domain_error_exit_2(self, argv, reason):
        proc = subprocess.run([sys.executable, "-m", "biexp.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 2
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and reason in lines[0]

    @pytest.mark.parametrize("n, ref", [
        # mpmath values; each Pochhammer product of the prefactor alone
        # leaves the float range at n = 400
        (3, -55.3793174135511),
        (400, 3.4712285698644743e+100),
    ])
    def test_gengeg_large_alpha(self, capsys, n, ref):
        assert main(["eval", "gengeg", "--alpha", "200", "--beta", "0.5",
                     "--n", str(n), "--t", "0.3"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(ref, rel=1e-12)

    def test_q_planewave_many_terms(self, capsys):
        # the Cauchy bound q^{N(N-1)/4} underflows to 0.0 past N = 66
        assert main(["verify", "q-planewave", "--terms", "80", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["terms"] == 80 and doc["pass"]

    @pytest.mark.parametrize("q", ["0.3", "0.7"])
    def test_q_planewave_many_terms_off_half(self, capsys, q):
        # t^2 = q^(2m) rounds off the mass point off q = 0.5; the members
        # come from the degree table there, so the q-Gegenbauer values past
        # the float range read 0.0, not +-inf times an underflowed 0.0
        assert main(["verify", "q-planewave", "--terms", "100", "--q", q, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] and len(doc["checks"]) == 7

    def test_q_planewave_q_095(self, capsys):
        # the expansion rows take their term count from the bound at x = 1,
        # t = q: 30 terms leave 1.8e-7 there
        assert main(["verify", "q-planewave", "--q", "0.95", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] and doc["params"]["terms"] == 30

    @pytest.mark.parametrize("q, alpha, floor", [(0.3, 5.0, 8), (0.5, 20.0, 10)])
    def test_q_planewave_term_bound_finite(self, q, alpha, floor):
        # the q-Neumann factor falls below the float range and the 2phi1's
        # term sum passes it, here from k = 46 and 49: in logarithms the
        # bound stays finite, and gives the term counts of a 30-digit sum
        ctx, P = suites.qs.QContext(q), suites.Params(alpha, 0.2)
        assert all(math.isfinite(suites._pw_term_bound(ctx, P, 1.0, q, k)) for k in range(50))
        assert suites._pw_terms(ctx, P, 1.0, q, 1, 1e-10) == floor
        assert suites._pw_terms(ctx, P, 1.0, q, 30, 1e-10) == 30

    @pytest.mark.parametrize("alpha", ["1", "2", "5"])
    def test_fourier_neumann_alpha(self, capsys, alpha):
        assert main(["verify", "fourier-neumann", "--alpha", alpha, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["checks"]) == 8

    def test_dunkl_sampling_alpha_10(self, capsys):
        # the zeros of J_11 reach x ~ 1270; each node past the order-11
        # asymptotic edge takes the asymptotic, not one long Miller sweep
        assert main(["verify", "dunkl-sampling", "--alpha", "10", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["checks"]) == 14
        assert all(c["pass"] for c in doc["checks"])

    def test_spectrum_large_alpha_reports(self):
        # J_ab at the zeros is formed from the normalized value and the
        # family norms fall back to logarithms, so alpha = 100 (ab log j
        # past 709) runs to a report instead of stopping on an overflow
        proc = subprocess.run([sys.executable, "-m", "biexp.cli", "verify", "spectrum",
                               "--alpha", "100", "--format", "json"],
                              capture_output=True, text=True)
        assert proc.returncode in (0, 1)
        assert proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert doc["params"]["alpha"] == 100.0
        rows = {c["id"]: c for c in doc["checks"]}
        assert len(rows) == 25
        for k in (1, 2, 3):
            assert rows[f"spectrum/lommel-bessel-identity/k={k}"]["pass"]

    @pytest.mark.parametrize("cfg_text, flags", [
        ("format=xml\n", ["spectrum"]),
        ("alpha=abc\n", ["spectrum"]),
        ("terms=2.5\n", ["spectrum"]),
        ("", ["lemma71", "--tol", "nan"]),
        ("", ["planewave", "--tol", "inf"]),
        ("", ["lemma71", "--tol", "0"]),
        ("alpha 0.3\n", ["hankel"]),
        ("alhpa=5\n", ["hankel"]),
        ("foo=bar\n", ["hankel"]),
    ])
    def test_bad_verify_input_exit_2(self, tmp_path, capsys, cfg_text, flags):
        cfg = tmp_path / "cfg"
        cfg.write_text(cfg_text)
        assert main(["verify", "--config", str(cfg), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        # the one line names the offending flag, config key or config line
        named = flags[1].lstrip("-") if len(flags) > 1 else cfg_text.split("=")[0].strip()
        assert named in lines[0]

    @pytest.mark.parametrize("suite, cfg_text, flags, key", [
        ("hankel", "", ["--alpha", "0.9"], "alpha"),
        ("lemma71", "", ["--q", "0.3"], "q"),
        ("fourier-neumann", "", ["--k-max", "7"], "k_max"),
        ("hankel", "terms=5\n", [], "terms"),
        ("spectrum", "tol=1e-3\n", [], "tol"),
    ])
    def test_undeclared_key_exit_2(self, tmp_path, capsys, suite, cfg_text, flags, key):
        cfg = tmp_path / "cfg"
        cfg.write_text(cfg_text)
        assert main(["verify", suite, "--config", str(cfg), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and f"'{key}'" in lines[0] and suite in lines[0]

    def test_params_echo_defaults(self, capsys):
        assert main(["verify", "spectrum", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"] == {"alpha": 0.4, "beta": 0.1, "k_max": 3, "terms": 80}

    def test_params_echo_overrides(self, capsys):
        # planewave's tol has no single default: echoed only when given
        assert main(["verify", "planewave", "--terms", "30", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"] == {"alpha": 0.3, "beta": 0.2, "terms": 30}

    def test_eval_zeros_large_order(self, capsys):
        # oracle: mpmath besseljzero(160, 1) = 170.264863568030...
        assert main(["eval", "zeros", "--nu", "160", "--k", "1"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(170.26486356803005,
                                                               rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("argv", [
        ["eval", "bessel", "--nu", "1000", "--x", "94.9"],  # below the float range: 0
        ["eval", "dunkl-kernel", "--alpha", "1000", "--x", "1"],
        ["eval", "bessel", "--nu", "470", "--x", "500"],
        ["eval", "dunkl-kernel", "--alpha", "160", "--x", "60"],
    ])
    def test_eval_large_order_values(self, capsys, argv):
        # values the Miller normalization or the kernel scale used to refuse;
        # oracle: mpmath at 40 digits, against the 15 printed digits.  J
        # itself holds bessel_j's 1e-12 (its factor (x/2)^nu / Gamma(nu+1)
        # costs ~1e-13 at order 470), the kernel 1e-14.
        assert main(argv) == 0
        got = [float(v) for v in capsys.readouterr().out.strip("()\n").split(",")]
        with mp.workdps(40):
            n, x = mp.mpf(argv[3]), mp.mpf(argv[5])
            if argv[1] == "bessel":
                ref, rel = [mp.besselj(n, x)], 1e-12
            else:
                sc = mp.gamma(n + 1) * (2 / x) ** n
                ref, rel = [sc * mp.besselj(n, x), sc * mp.besselj(n + 1, x)], 1e-14
            ref = [float(r) for r in ref]
        assert got == pytest.approx(ref, rel=rel, abs=0.0)

    def test_bare_invocation_exit_2(self, capsys):
        assert main([]) == 2

    def test_verify_writes_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["verify", "q-weber", "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["suite"] == "q-weber"
        assert doc["pass"] is True

    def test_verify_csv_byte_stable_across_runs(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        assert main(["verify", "q-weber", "--format", "csv", "--out", str(p1)]) == 0
        assert main(["verify", "q-weber", "--format", "csv", "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_determinism_modulo_runtime(self, tmp_path):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        assert main(["verify", "q-weber", "--format", "json", "--out", str(p1)]) == 0
        assert main(["verify", "q-weber", "--format", "json", "--out", str(p2)]) == 0
        d1 = json.loads(p1.read_text())
        d2 = json.loads(p2.read_text())
        d1.pop("runtime_ms")
        d2.pop("runtime_ms")
        assert d1 == d2

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("q=0.5\nformat=csv\n")
        out = tmp_path / "r.csv"
        code = main(["verify", "q-weber", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith(CSV_HEADER)

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("format=csv\n")
        out = tmp_path / "r.out"
        code = main(["verify", "q-weber", "--config", str(cfg),
                     "--format", "json", "--out", str(out)])
        assert code == 0
        json.loads(out.read_text())  # json, not csv

    def test_failing_suite_exit_1(self, tmp_path):
        # an unreachable tolerance forces failures and exit code 1
        out = tmp_path / "r.csv"
        code = main(["verify", "planewave", "--tol", "1e-30",
                     "--format", "csv", "--out", str(out)])
        assert code == 1
        assert ",false" in out.read_text()

    def test_out_io_error_exit_3(self):
        code = main(["verify", "q-weber", "--format", "csv",
                     "--out", "/nonexistent-dir/r.csv"])
        assert code == 3

    @staticmethod
    def _readme_commands():
        text = README.read_text()
        block = text[text.index("## CLI"):]
        block = block[block.index("```sh\n") + 6:]
        block = block[:block.index("```")]
        return [shlex.split(line.split("#")[0])[1:] for line in block.splitlines()
                if line.startswith("biexp ")]

    def test_readme_examples_run(self, tmp_path, capsys):
        # `verify all` is left to CI, which runs it on its own
        cmds = [argv for argv in self._readme_commands() if argv[:2] != ["verify", "all"]]
        assert len(cmds) >= 5
        for argv in cmds:
            if "--out" in argv:
                i = argv.index("--out") + 1
                argv[i] = str(tmp_path / argv[i])
            assert main(argv) == 0, argv
        capsys.readouterr()


def _flag(key, val):
    return f"--{key.replace('_', '-')}={val!r}"


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code, out, err):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert len(err.strip().splitlines()) == 1


_BAD = st.sampled_from([math.nan, math.inf, -math.inf])


def _mostly(strat):
    """Values of strat, and one draw in five non-finite."""
    return st.tuples(st.integers(0, 4), strat, _BAD).map(lambda t: t[2] if t[0] == 0 else t[1])


_ORDER = _mostly(st.floats(-0.9, 5.0))
_ARG = _mostly(st.floats(-50.0, 50.0))
# q away from the default 0.5 but inside (0, 1) can run for minutes, so
# q is drawn from the default and from values the library refuses
_Q = st.sampled_from([0.5, 0.5, 0.0, 1.5, -1.0, math.nan, math.inf])

_EVAL_ARGS = {
    "bessel": {"nu": _ORDER, "x": _ARG},
    "dunkl-kernel": {"alpha": _ORDER, "x": _ARG},
    "gengeg": {"alpha": _ORDER, "beta": _ORDER, "n": st.integers(-2, 20),
               "t": _mostly(st.floats(-1.5, 1.5))},
    "qbessel3": {"nu": _ORDER, "x": _ARG, "q": _Q},
    "lommel": {"n": st.integers(-2, 20), "a": _ORDER, "w": _ARG},
    "zeros": {"nu": _ORDER, "k": st.integers(-2, 10)},
    "eigenvalue": {"alpha": _ORDER, "beta": _ORDER, "k": st.integers(-2, 5),
                   "sign": st.sampled_from([1, -1])},
}

_VERIFY_VALUES = {
    "alpha": _ORDER, "beta": _ORDER, "q": _Q,
    "tol": _mostly(st.floats(1e-14, 1e-2) | st.sampled_from([0.0, -1.0])),
    "terms": st.integers(-2, 100), "k_max": st.integers(-1, 5),
    "alhpa": st.just(0.3),  # declared by no suite
}


class TestCLIProperties:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_eval_contract(self, data):
        fn = data.draw(st.sampled_from(sorted(_EVAL_ARGS)))
        argv = ["eval", fn]
        for key, strat in _EVAL_ARGS[fn].items():
            if data.draw(st.integers(0, 7)) > 0:  # now and then a flag is missing
                argv.append(_flag(key, data.draw(strat)))
        _assert_contract(*_run_main(argv))

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_verify_contract(self, data):
        suite = data.draw(st.sampled_from(["planewave", "hankel", "spectrum", "lemma71",
                                           "q-planewave", "q-weber"]))
        declared = sorted(suites._REGISTRY[suite][1])
        keys = data.draw(st.lists(st.sampled_from(declared), unique=True, max_size=3)
                         if declared else st.just([]))
        if data.draw(st.integers(0, 3)) == 0:  # one key of any suite, or of none
            keys.append(data.draw(st.sampled_from(sorted(_VERIFY_VALUES))))
        with tempfile.TemporaryDirectory() as tmp:
            cfg = pathlib.Path(tmp) / "cfg"
            argv, lines = ["verify", suite, "--config", str(cfg)], []
            for key in keys:
                val = data.draw(_VERIFY_VALUES[key])
                # a name argparse does not know can only come from a config file
                if key in suites._PARAM_TYPES and data.draw(st.booleans()):
                    argv.append(_flag(key, val))
                else:
                    lines.append(f"{key}={val!r}\n")
            cfg.write_text("".join(lines))
            code, out, err = _run_main(argv)
        _assert_contract(code, out, err)
        if not set(keys) <= set(declared):
            assert code == 2 and repr(next(k for k in keys if k not in declared)) in err


class TestSuiteParams:
    def _record(self, monkeypatch):
        seen = {}

        def recorder(name):
            def fn(ov):
                with pytest.raises(TypeError):
                    ov["alpha"] = 0.0  # the mapping a suite gets is read-only
                seen[name] = dict(ov)
                return []
            return fn
        monkeypatch.setattr(suites, "_REGISTRY", {
            name: (recorder(name), defaults)
            for name, (_, defaults) in suites._REGISTRY.items()})
        return seen

    def test_each_suite_gets_its_own_keys(self, monkeypatch):
        seen = self._record(monkeypatch)
        r = run_suite("all", {"k_max": 2, "alpha": 0.35})
        assert r.params == {"k_max": 2, "alpha": 0.35}
        assert seen["hankel"] == {}
        assert seen["lemma71"] == {"tol": 1e-5}
        assert seen["spectrum"] == {"alpha": 0.35, "beta": 0.1, "k_max": 2, "terms": 80}
        assert seen["q-weber"] == {"q": 0.5, "alpha": 0.35, "beta": 0.2}
        assert seen["planewave"] == {"alpha": 0.35, "beta": 0.2, "terms": 40, "tol": None}

    def test_values_cast_by_type(self, monkeypatch):
        seen = self._record(monkeypatch)
        r = run_suite("spectrum", {"k_max": 2.0, "alpha": 1})
        assert seen["spectrum"]["k_max"] == 2 and type(seen["spectrum"]["k_max"]) is int
        assert type(r.params["alpha"]) is float

    @pytest.mark.parametrize("name, ov, match", [
        ("hankel", {"alpha": 0.9}, "hankel does not take 'alpha'"),
        ("all", {"alhpa": 0.9}, "all does not take 'alhpa'"),
        ("lemma71", {"tol": math.nan}, "tol must be finite and positive"),
        ("all", {"tol": 0.0}, "tol must be finite and positive"),
        ("spectrum", {"k_max": 2.7}, "k_max must be an integer"),
    ])
    def test_refused(self, monkeypatch, name, ov, match):
        seen = self._record(monkeypatch)
        with pytest.raises(ValueError, match=match):
            run_suite(name, ov)
        assert seen == {}
