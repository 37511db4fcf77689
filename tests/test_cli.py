import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from chevalley import bruhat, cli, galkin, spectral
from chevalley.cli import main
from chevalley.combinatorics import GrassmannianParams
from chevalley.errors import IterationFailureError
from chevalley.symfunc import enumerate_indices
from oracles import build_graph_by_particles, second_proof_lemma_by_grid


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

    @pytest.mark.parametrize("n,tol,want", [(40, "0.9", 0), (300, "0.2", 0),
                                            (40, "1e-14", 1)])
    def test_property_o_does_not_read_tol(self, n, tol, want, monkeypatch):
        # for k = 2 the second circle of moduli lies ~3 pi^2 / n below delta0:
        # a band of --tol around it would reach it.  Only the residual gate
        # reads --tol (1.5e-13 at Gr(2,40)); Gr(2,300)'s 44 850 residuals
        # take ~40 s, so there they are stubbed out
        if n == 300:
            monkeypatch.setattr(spectral, "_eigen_residuals",
                                lambda params, operator: np.zeros(params.rank))
        code, out, _ = run_cli("verify", "--k", "2", "--n", str(n), "--tol", tol)
        assert code == want
        assert ("property_o: top_multiplicity=1  rotation_closed=True  "
                "top_on_roots=True") in out

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
                raise IterationFailureError("capped")
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

    def test_equality_off_projective_space_fails(self, monkeypatch):
        # with TAU_NUM = 1 every margin of n <= 5 reads as equality
        monkeypatch.setattr(galkin, "TAU_NUM", 1.0)
        code, out, _ = run_cli("sweep", "--n-max", "5", "--format", "json")
        assert code == 1
        verdicts = {(r["k"], r["n"]): r["verdict"] for r in json.loads(out)}
        assert verdicts == {(k, n): "VIOLATION" if (k, n) in {(2, 4), (2, 5), (3, 5)}
                            else "holds_equality"
                            for n in range(2, 6) for k in range(1, n)}
        assert run_cli("verify", "--k", "2", "--n", "4")[0] == 1

    def test_nan_matrix_value_disagrees(self, monkeypatch):
        monkeypatch.setattr(spectral, "principal_eigenvalue",
                            lambda matrix, shift: float("nan"))
        code, out, _ = run_cli("sweep", "--n-max", "4", "--format", "json")
        assert code == 1
        assert "NaN" not in out  # strict JSON: the NaN prints as null
        rows = json.loads(out)
        assert [r["verdict"] for r in rows] == ["ROUTES_DISAGREE"] * 6
        assert all(r["delta0_matrix"] is None for r in rows)

    def test_nan_sine_is_a_violation(self, monkeypatch):
        # the matrix route runs on every row and disagrees with the NaN, but
        # a failed bound stands over a route verdict
        monkeypatch.setattr(galkin, "delta0_sine", lambda k, x: float("nan"))
        code, out, _ = run_cli("sweep", "--n-max", "5", "--format", "json")
        assert code == 1
        rows = json.loads(out)
        assert [r["verdict"] for r in rows] == ["VIOLATION"] * 10
        assert all(r["delta0_matrix"] > 0 for r in rows)  # still computed
        code, out, _ = run_cli("sweep", "--n-max", "5")
        assert code == 1
        assert [line.split()[-1] for line in out.splitlines()[1:]] == ["VIOLATION"] * 10

    def test_a_violation_stands_over_not_converged(self, monkeypatch):
        def capped(matrix, shift):
            raise IterationFailureError("capped")

        monkeypatch.setattr(spectral, "principal_eigenvalue", capped)
        monkeypatch.setattr(galkin, "TAU_NUM", 1.0)  # (2,4), (2,5), (3,5) fail
        code, out, _ = run_cli("sweep", "--n-max", "5", "--format", "json")
        assert code == 1
        verdicts = {(r["k"], r["n"]): r["verdict"] for r in json.loads(out)}
        assert verdicts == {(k, n): "VIOLATION" if (k, n) in {(2, 4), (2, 5), (3, 5)}
                            else "NOT_CONVERGED"
                            for n in range(2, 6) for k in range(1, n)}

    def test_rank_cap_below_two(self):
        code, out, err = run_cli("sweep", "--n-max", "5", "--rank-cap", "1")
        assert code == 2
        assert out == "" and "--rank-cap" in err

    def test_deterministic(self):
        a = run_cli("sweep", "--n-max", "6", "--format", "json")
        b = run_cli("sweep", "--n-max", "6", "--format", "json")
        assert a == b

    def test_bytes_match_the_per_particle_build(self, monkeypatch):
        # sweep runs each k > n/2 on its dual's hop table, then the dual on
        # the same table; the floats differ between platforms, so the two
        # runs are compared here rather than against a committed digest
        argv = ("sweep", "--n-max", "18", "--format", "json")
        got = run_cli(*argv)
        for module in (bruhat, spectral):
            monkeypatch.setattr(module, "build_graph", build_graph_by_particles)
        assert got == run_cli(*argv)
        assert got[0] == 0


class TestHeldHopTable:
    # a k > n/2 build holds its dual's hop table for the next build; only
    # sweep builds that dual, so every command drops the table as it ends
    @pytest.mark.parametrize("argv,dual", [
        (("verify", "--k", "7", "--n", "10"), GrassmannianParams(3, 10)),
        (("spectrum", "--k", "7", "--n", "10"), GrassmannianParams(3, 10)),
        (("graph", "--k", "6", "--n", "10"), GrassmannianParams(4, 10))])
    def test_each_command_leaves_the_slot_empty(self, monkeypatch, argv, dual):
        held = []  # the slot as the command ends, before it is dropped
        monkeypatch.setattr(cli, "release_held", lambda: held.append(
            list(bruhat._held)) or bruhat.release_held())
        assert run_cli(*argv)[0] == 0
        assert held == [[dual]]
        assert not bruhat._held

    def test_sweep_builds_one_hop_table_per_dual_pair(self, monkeypatch):
        built, hop_table = [], bruhat._hop_table
        monkeypatch.setattr(bruhat, "_hop_table",
                            lambda p: built.append(p) or hop_table(p))
        assert run_cli("sweep", "--n-max", "10")[0] == 0
        assert len(built) == len(set(built)) == sum(n // 2 for n in range(2, 11)) == 25
        assert not bruhat._held


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

    def test_json_bytes_up_to_n9(self):
        # the export is integers only, so one digest holds on every platform
        digest = hashlib.sha256()
        for n in range(2, 10):
            for k in range(1, n):
                code, out, _ = run_cli("graph", "--k", str(k), "--n", str(n),
                                       "--format", "json")
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == (
            "a8181ef37ea4e811868c1a5265510d267d854fb59d9fadb53c9b7eaacd4ee5aa")

    def test_json_bytes_k_above_half_n10_to_n14(self):
        # built from the dual's hop table; integers only, as above
        digest = hashlib.sha256()
        for n in range(10, 15):
            for k in range(n // 2 + 1, n):
                code, out, _ = run_cli("graph", "--k", str(k), "--n", str(n),
                                       "--format", "json")
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == (
            "8b86223337d6a8b64d4a973da8b5a0fef026fa31953290626442a5185ba74757")

    def test_dot_bytes_up_to_n10(self):
        # integers only, as above; k > n/2 comes from the dual's hop table
        digest = hashlib.sha256()
        for n in range(2, 11):
            for k in range(1, n):
                code, out, _ = run_cli("graph", "--k", str(k), "--n", str(n),
                                       "--format", "dot")
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == (
            "e58f1dc48e59b9ad67b495db01707ee93ae7b6131b1ddbc593f08b36b7bb94df")

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

class TestRankCap:
    @pytest.fixture
    def nothing_enumerated(self, monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("an instance above the cap was enumerated")
        monkeypatch.setattr(spectral, "spectral_report", reached)
        monkeypatch.setattr(cli, "build_graph", reached)

    @pytest.mark.parametrize("command", ["verify", "spectrum", "graph"])
    def test_refused_before_enumerating(self, command, nothing_enumerated):
        assert run_cli(command, "--k", "3", "--n", "7", "--rank-cap", "34") == (
            2, "", "error: rank C(7,3) = 35 exceeds cap 34\n")

    def test_default_cap(self, nothing_enumerated):
        # rank C(30,10) = 30 045 015 is above the default cap
        assert run_cli("verify", "--k", "10", "--n", "30") == (
            2, "", "error: rank C(30,10) = 30045015 exceeds cap 100000\n")

    @pytest.mark.parametrize("command, k, n, cap, message", [
        ("verify", 40, 80, 10 ** 24, "C(80,40)"),
        ("spectrum", 33, 67, 10 ** 20, "C(67,33)"),
        ("graph", 40, 80, 10 ** 24, "C(80,40)")])
    def test_binomials_past_int64_are_a_usage_error(self, command, k, n, cap, message):
        # within a cap this high the binomial table overflows int64; that once
        # escaped main as a traceback with exit 1, the code of a failed check
        argv = [command, "--k", str(k), "--n", str(n), "--rank-cap", str(cap)]
        assert run_cli(*argv) == (2, "", f"error: {message} does not fit in int64\n")


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
        # the suite's size: the second-proof lemma for n = 6..N, the k = 2
        # reduction for n = 4..N, and 32 F^k checks for k <= 12
        for n_max in (6, 7, 60, 400):
            count = (n_max - 5) + (n_max - 3) + 32
            assert run_cli("inequalities", "--n-max", str(n_max)) == (
                0, f"all {count} inequality checks passed\n", "")

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

    def test_failed_lemma_stops_the_suite(self, monkeypatch):
        # TAU_NUM = -5 asks every grid point for a margin of at least 5; the
        # suite names the least n the pointwise lemma fails and stops there
        monkeypatch.setattr(galkin, "TAU_NUM", -5.0)
        first = next(n for n in range(6, 100)
                     if not second_proof_lemma_by_grid(n, 0.01))
        assert run_cli("inequalities", "--n-max", "99") == (
            1, f"FAIL second_proof_lemma(n={first})\n", "")

    # One perturbation per check kind, just past that check's bound: the
    # first check the suite runs on it fails, and a check with a looser
    # bound (or its monotonicity half gone) lets the suite pass.
    @staticmethod
    def _k2_cosine(monkeypatch):
        # 2n cos(pi/n) at n = 4 lowered to 2n - 3 - 2 TAU_NUM; the only
        # other scalar cos(pi/4), in boundary_equality(k=5), cancels
        real, tau = galkin.cos, galkin.TAU_NUM
        monkeypatch.setattr(galkin, "cos", lambda x: (5 - 2 * tau) / 8 if (
            np.ndim(x) == 0 and x == math.pi / 4) else real(x))
        return "k2_inequality(n=4)"

    @staticmethod
    def _limit_value(monkeypatch):
        # F^2(1e8) moved to k^2 - 1 + 2e-4, twice check_limit's tolerance
        real = galkin.fk
        monkeypatch.setattr(galkin, "fk", lambda k, x: 3 + 2e-4 if (
            k == 2 and np.ndim(x) == 0 and x == 1e8) else real(k, x))
        return "limit(k=2)"

    @staticmethod
    def _boundary_value(monkeypatch):
        # F^3(4) raised by 2 TAU_NUM, off F^1(4) = 0
        real, tau = galkin.fk, galkin.TAU_NUM
        monkeypatch.setattr(galkin, "fk", lambda k, x: real(k, x) + 2 * tau if (
            k == 3 and np.ndim(x) == 0 and x == 4.0) else real(k, x))
        return "boundary_equality(k=3)"

    @staticmethod
    def _concave_curvature(monkeypatch):
        # F^2'' shifted up until its largest grid value is 2 TAU_NUM
        real, tau = galkin.fk_second_derivative, galkin.TAU_NUM
        monkeypatch.setattr(galkin, "fk_second_derivative", lambda k, x: (
            (d := real(k, x)) + (2 * tau - d.max() if k == 2 else 0)))
        return "concavity_monotonicity(k=2)"

    @staticmethod
    def _monotone_slope(monkeypatch):
        # F^2 on the concavity grid less c x, c such that the least forward
        # difference is -2 TAU_NUM; F^2'' (a separate function) is unmoved
        real, tau, step = galkin.fk, galkin.TAU_NUM, 0.1
        x = galkin._grid(2.0 + step, 100.0, step)
        c = (np.min(real(2, x + step) - real(2, x)) + 2 * tau) / step
        monkeypatch.setattr(galkin, "fk", lambda k, x: real(k, x) - c * x if (
            k == 2 and np.ndim(x) == 1) else real(k, x))
        return "concavity_monotonicity(k=2)"

    @pytest.mark.parametrize("perturb", ["_k2_cosine", "_limit_value",
                                         "_boundary_value", "_concave_curvature",
                                         "_monotone_slope"])
    def test_perturbation_just_past_the_bound_fails(self, perturb, monkeypatch):
        name = getattr(self, perturb)(monkeypatch)
        assert run_cli("inequalities", "--n-max", "8") == (1, f"FAIL {name}\n", "")

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
