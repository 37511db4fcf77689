import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from chevalley import spectral, symfunc
from chevalley.cli import main
from chevalley.combinatorics import GrassmannianParams
from chevalley.errors import IterationFailureError
from chevalley.galkin import delta0_sine
from chevalley.symfunc import enumerate_indices


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestVerify:
    def test_gr24(self):
        code, out, _ = run_cli("verify", "--k", "2", "--n", "4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["k"] == 2 and obj["n"] == 4
        assert abs(obj["delta0"]["sine"] - 5.65685425) < 1e-7
        assert obj["bound"] == 5.0
        assert obj["verdict"] == "holds_strict"
        assert set(obj["delta0"]) == {"matrix", "schur", "sine", "cosine"}
        assert obj["property_o"]["top_multiplicity"] == 1
        assert obj["max_eigen_residual"] < 1e-8
        lo, hi = obj["matrix_bracket"]
        assert lo <= obj["delta0"]["matrix"] <= hi
        assert hi - lo < 1e-12 * obj["delta0"]["matrix"]

    def test_projective_space(self):
        code, out, _ = run_cli("verify", "--k", "1", "--n", "9")
        assert code == 0
        assert "holds_equality" in out
        assert "projective_space=True" in out

    def test_bad_k(self):
        code, _, err = run_cli("verify", "--k", "0", "--n", "4")
        assert code == 2

    def test_missing_args(self):
        code, _, _ = run_cli("verify", "--k", "2")
        assert code == 2

    def test_zero_tol(self):
        code, _, err = run_cli("verify", "--k", "2", "--n", "4", "--tol", "0")
        assert code == 2
        assert "--tol" in err

    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    @pytest.mark.parametrize("value", ["inf", "1e300", "1", "nan"])
    def test_tol_of_one_or_more_is_usage_error(self, command, value):
        # with --tol >= 1 every route comparison and the residual gate pass
        # whatever the routes give
        code, out, err = run_cli(command, "--k", "4", "--n", "10", "--tol", value)
        assert code == 2
        assert out == "" and "--tol" in err

    @pytest.mark.parametrize("flag,value", [("--max-iter", "-3"),
                                            ("--shift", "-100")])
    def test_negative_cap_or_shift_is_usage_error(self, flag, value):
        # a negative shift can make v <- Av + shift*v leave v > 0, where the
        # Collatz-Wielandt bracket no longer holds
        code, out, err = run_cli("verify", "--k", "2", "--n", "6", flag, value)
        assert code == 2
        assert out == "" and flag in err

    def test_one_product_suffices(self):
        # the closed-form start meets the 1e-12 bracket with one product
        code, out, err = run_cli("verify", "--k", "6", "--n", "12",
                                 "--max-iter", "1")
        assert code == 0, err
        assert "power_iterations=1" in out

    def test_short_period_orbits_at_rank_3432(self):
        # Gr(7,14) has rotation orbits of period 2, 7 and 14
        code, out, err = run_cli("verify", "--k", "7", "--n", "14", "--format", "json")
        assert code == 0, err
        obj = json.loads(out)
        assert obj["rank"] == 3432
        assert obj["max_eigen_residual"] < 1e-8

    def test_wrong_phase_is_caught_by_the_residual(self, monkeypatch):
        # |lam| off by one at one coordinate: every rotated eigenvector
        # gets a wrong phase there, and only the residual can see it
        real = symfunc._vertex_tables

        def off_by_one(params):
            *tables, weights, phases = real(params)
            weights = weights.copy()
            weights[1] += 1
            return (*tables, weights, phases)

        monkeypatch.setattr(symfunc, "_vertex_tables", off_by_one)
        code, out, _ = run_cli("verify", "--k", "3", "--n", "7", "--format", "json")
        assert code == 1
        assert json.loads(out)["max_eigen_residual"] > 1e-8

    def test_top_circle_off_the_roots_fails(self, monkeypatch):
        monkeypatch.setattr(spectral, "property_o_check",
                            lambda params, tol: (1, True, False))
        for command in ("verify", "spectrum"):
            code, out, _ = run_cli(command, "--k", "3", "--n", "7")
            assert code == 1
            assert "top_on_roots=False" in out
        # the finding gates the exit code but adds no JSON key
        code, out, _ = run_cli("verify", "--k", "3", "--n", "7", "--format", "json")
        assert code == 1
        assert json.loads(out)["property_o"] == {"top_multiplicity": 1,
                                                 "rotation_closed": True}

    def test_zero_cap_is_a_failed_check(self):
        code, _, err = run_cli("verify", "--k", "2", "--n", "6", "--max-iter", "0")
        assert code == 1
        assert "no convergence after 0 operator products" in err


class TestSweep:
    def test_nmax5(self):
        code, out, _ = run_cli("sweep", "--n-max", "5", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 10
        eq = {(r["k"], r["n"]) for r in rows if r["verdict"] == "holds_equality"}
        assert eq == {(1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (4, 5)}

    def test_nmax2(self):
        code, out, _ = run_cli("sweep", "--n-max", "2")
        assert code == 0
        lines = [l for l in out.strip().splitlines() if not l.startswith("k ")]
        assert len(lines) == 1 and "holds_equality" in lines[0]

    def test_equality_margins_are_not_negative_zero(self):
        # k > n/2 rows take the sine at pi*(n-k)/n, so Gr(n-1,n) matches
        # Gr(1,n), and both read delta0 == n exactly (n = 110 and 125 once
        # printed -0.0000000000); rank cap 2 skips the matrix route
        code, out, _ = run_cli("sweep", "--n-max", "125", "--rank-cap", "2")
        assert code == 0
        assert "-0.0000000000" not in out

    def test_matrix_value_and_rank_cap_skip(self):
        code, out, _ = run_cli("sweep", "--n-max", "5", "--rank-cap", "5",
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)
        skipped = {(r["k"], r["n"]) for r in rows if r["delta0_matrix"] is None}
        assert skipped == {(2, 4), (2, 5), (3, 5)}
        assert all(abs(r["delta0_matrix"] - r["delta0"]) < 1e-8
                   for r in rows if r["delta0_matrix"] is not None)

    def test_route_mismatch_verdict(self, monkeypatch):
        monkeypatch.setattr(spectral, "principal_eigenvalue",
                            lambda matrix, shift: -1.0)
        code, out, _ = run_cli("sweep", "--n-max", "4", "--format", "json")
        assert code == 1
        rows = json.loads(out)
        assert [r["verdict"] for r in rows] == ["ROUTES_DISAGREE"] * 6
        assert all(r["delta0_matrix"] == -1.0 for r in rows)

    def test_not_converged_verdict(self, monkeypatch):
        real = spectral.principal_eigenvalue

        def capped(matrix, shift):  # the cap is hit from rank 4 on
            if matrix.shape[0] > 3:
                raise IterationFailureError("capped", last_vector=[1.0])
            return real(matrix, shift)

        monkeypatch.setattr(spectral, "principal_eigenvalue", capped)
        code, out, _ = run_cli("sweep", "--n-max", "4", "--format", "json")
        assert code == 1
        rows = json.loads(out)
        assert [(r["k"], r["n"], r["verdict"]) for r in rows] == [
            (1, 2, "holds_equality"), (1, 3, "holds_equality"),
            (2, 3, "holds_equality"), (1, 4, "NOT_CONVERGED"),
            (2, 4, "NOT_CONVERGED"), (3, 4, "NOT_CONVERGED")]
        assert [r["delta0_matrix"] is None for r in rows] == [False] * 3 + [True] * 3
        code, out, _ = run_cli("sweep", "--n-max", "4")
        assert code == 1
        assert out.splitlines()[-1].endswith(" NOT_CONVERGED")

    def test_rank_cap_below_two(self):
        code, out, err = run_cli("sweep", "--n-max", "5", "--rank-cap", "1")
        assert code == 2
        assert out == "" and "--rank-cap" in err

    def test_deterministic(self):
        a = run_cli("sweep", "--n-max", "6", "--format", "json")
        b = run_cli("sweep", "--n-max", "6", "--format", "json")
        assert a == b


class TestGraph:
    def test_json_gr24(self):
        code, out, _ = run_cli("graph", "--k", "2", "--n", "4", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert (obj["vertex_count"], obj["edge_count"]) == (6, 8)

    def test_json_gr25(self):
        code, out, _ = run_cli("graph", "--k", "2", "--n", "5", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["edge_count"] == 15 and obj["quantum_edge_count"] == 3

    def test_dot_gr12(self):
        code, out, _ = run_cli("graph", "--k", "1", "--n", "2", "--format", "dot")
        assert code == 0
        assert out.count("->") == 2

    def test_bad_format(self):
        code, _, _ = run_cli("graph", "--k", "1", "--n", "2", "--format", "xml")
        assert code == 2


class TestSpectrum:
    def test_gr24(self):
        code, out, _ = run_cli("spectrum", "--k", "2", "--n", "4")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("I=")]
        assert len(lines) == 6
        assert "top_multiplicity=1" in out

    def test_gr13(self):
        code, out, _ = run_cli("spectrum", "--k", "1", "--n", "3")
        assert code == 0
        assert "+3.0000000000+0.0000000000i" in out

    def test_gr37_columns_come_from_the_report(self):
        p = GrassmannianParams(3, 7)
        code, out, _ = run_cli("spectrum", "--k", "3", "--n", "7")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("I=")]
        op = spectral.c1_operator(p)
        spectrum = spectral.spectrum_closed_form(p)
        assert len(lines) == len(spectrum) == p.rank
        for line, I, eig in zip(lines, enumerate_indices(p), spectrum):
            _, eigenvalue, residual = line.split("  ")
            assert eigenvalue == f"eigenvalue={eig.real:+.10f}{eig.imag:+.10f}i"
            assert residual == f"residual={spectral.eigen_residual(I, p, op):.3e}"
        printed = [l.split("residual=")[1] for l in lines]
        code, out, _ = run_cli("verify", "--k", "3", "--n", "7", "--format", "json")
        assert code == 0
        assert (max(printed, key=float)
                == f"{json.loads(out)['max_eigen_residual']:.3e}")

    def test_routes_disagree(self, monkeypatch):
        wrong = delta0_sine(3, 7.0) * (1 + 1e-6)
        monkeypatch.setattr(spectral, "_power_iteration",
                            lambda matrix, shift, tol, max_iter:
                            (wrong, 1, (wrong, wrong)))
        code, out, err = run_cli("spectrum", "--k", "3", "--n", "7")
        assert code == 1
        assert "routes disagree" in err


class TestFk:
    def test_k2_table(self):
        code, out, _ = run_cli("fk", "--k", "2", "--x-min", "3",
                               "--x-max", "100", "--step", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,F"
        assert len(lines) == 99
        x0, f0 = lines[1].split(",")
        assert float(x0) == 3.0 and abs(float(f0)) < 1e-9

    def test_single_row(self):
        code, out, _ = run_cli("fk", "--k", "4", "--x-min", "6",
                               "--x-max", "6", "--step", "1")
        assert code == 0
        _, f = out.strip().splitlines()[1].split(",")
        assert abs(float(f) - 1.392304845413264) < 1e-9

    def test_k1_zero(self):
        code, out, _ = run_cli("fk", "--k", "1", "--x-min", "2",
                               "--x-max", "5", "--step", "1")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert abs(float(line.split(",")[1])) < 1e-9

    def test_empty_range(self):
        code, _, _ = run_cli("fk", "--k", "2", "--x-min", "10",
                             "--x-max", "5", "--step", "1")
        assert code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--x-min", "0"), ("--x-min", "-1"), ("--x-min", "inf"),
        ("--x-min", "nan"), ("--x-max", "inf"), ("--x-max", "-inf"),
        ("--x-max", "nan"), ("--step", "0"), ("--step", "-1"),
        ("--step", "inf"), ("--step", "nan")])
    def test_bad_number_exits_2_naming_the_flag(self, flag, value):
        # --x-max inf once ended in an OverflowError traceback, exit 1
        argv = {"--x-min": "1", "--x-max": "5", "--step": "1", flag: value}
        code, out, err = run_cli("fk", "--k", "2",
                                 *(f"{f}={v}" for f, v in argv.items()))
        assert code == 2
        assert out == "" and f"argument {flag}: need a finite number" in err

    def test_k_below_one_exits_2_naming_the_flag(self):
        code, out, err = run_cli("fk", "--k", "0", "--x-min", "1",
                                 "--x-max", "5", "--step", "1")
        assert code == 2
        assert out == "" and "argument --k: need a k >= 1" in err

    def test_grid_count_overflow_exits_2(self):
        # (x_max - x_min) / step is inf though every flag is finite
        code, out, err = run_cli("fk", "--k", "2", "--x-min", "1",
                                 "--x-max", "1e308", "--step", "1e-10")
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_grid_count_of_minus_inf_exits_2(self):
        # (x_max - x_min) / step is -inf: once an OverflowError traceback, exit 1
        code, out, err = run_cli("fk", "--k", "2", "--x-min", "1",
                                 "--x-max=-1e308", "--step", "1e-10")
        assert code == 2
        assert out == "" and err == "error: empty grid range\n"


class TestInequalities:
    def test_minimal(self):
        code, out, _ = run_cli("inequalities", "--n-max", "6")
        assert code == 0
        assert "passed" in out

    def test_too_small(self):
        code, _, _ = run_cli("inequalities", "--n-max", "5")
        assert code == 2

    def test_zero_grid_step(self):
        code, out, err = run_cli("inequalities", "--n-max", "8", "--grid-step", "0")
        assert code == 2
        assert out == "" and "--grid-step" in err

    @pytest.mark.parametrize("step", ["1e-12", "1e-320"])
    def test_oversized_grid_is_a_usage_error(self, step):
        # 1e-12 asks numpy for a 7.3 TiB block at n = 7, refused before any
        # page is touched (it once ended in a traceback with exit 1, the code
        # of a failed check); at 1e-320 the point count is inf
        code, out, err = run_cli("inequalities", "--n-max", "8", "--grid-step", step)
        assert code == 2
        assert out == "" and err.startswith("error:") and err.count("\n") == 1

    def test_usage_error_leaves_the_next_call_unaffected(self):
        # main reuses one parser across calls
        assert run_cli("inequalities", "--n-max", "8", "--grid-step", "0")[0] == 2
        assert run_cli("inequalities", "--n-max", "6") == (
            0, "all 36 inequality checks passed\n", "")

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_grid_step(self, value):
        # inf once ended as "FAIL second_proof_lemma(n=6)", exit 1
        code, out, err = run_cli("inequalities", "--n-max", "8",
                                 "--grid-step", value)
        assert code == 2
        assert out == "" and "--grid-step" in err


def _run_python(code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_skips_csgraph_and_scipy_linalg():
    # scipy (and what it pulls in) and the process pool were most of the
    # time every CLI start took before any work
    out = _run_python("import sys, chevalley.cli; print(sorted(m for m in "
                      "sys.modules if m.split('.')[0] == 'scipy' "
                      "or m == 'concurrent.futures.process'))")
    assert out.strip() == "[]"
