"""Tests of the benchmark itself: span arithmetic, the gate, exact counts."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


# -- spans -------------------------------------------------------------------

def test_self_times_on_nested_tree():
    # root [0,10] -> a [1,4] -> a1 [2,3];  root -> b [5,9]; second a [11,12]
    spans = [Span(0, None, "root", 0.0, 10.0), Span(1, 0, "a", 1.0, 4.0),
             Span(2, 1, "a1", 2.0, 3.0), Span(3, 0, "b", 5.0, 9.0),
             Span(4, None, "a", 11.0, 12.0)]
    assert self_times(spans) == {"root": (3.0, 1), "a": (3.0, 2),
                                 "a1": (1.0, 1), "b": (4.0, 1)}


def test_wrap_records_parent_links():
    t = Tracer()
    inner = t.wrap("m.inner", lambda x: x + 1)
    outer = t.wrap("m.outer", lambda x: inner(x) + inner(x))
    assert outer(1) == 4
    assert [(s.name, s.parent) for s in t.spans] == [
        ("m.outer", None), ("m.inner", 0), ("m.inner", 0)]
    assert t.summary()["self"]["m.inner"][1] == 2


def test_counting_operator_counts_products_and_delegates():
    class Matrix:
        nnz = 3

        def __matmul__(self, v):
            return 2 * v

    op = tracer.CountingOperator(Matrix())
    assert op @ 1 + op @ 2 == 6
    assert (op.matvecs, op.nnz) == (2, 3)


def test_install_patches_every_namespace_and_restores():
    import chevalley.bruhat
    import chevalley.cli
    import chevalley.spectral

    original = chevalley.bruhat.build_graph
    with Tracer():
        assert chevalley.spectral.build_graph is chevalley.cli.build_graph
        assert chevalley.spectral.build_graph is not original
        assert chevalley.spectral.build_graph.__wrapped__ is original
    assert chevalley.spectral.build_graph is original
    assert chevalley.cli.build_graph is original


def test_operator_nnz_matches_graph_edges():
    from chevalley.bruhat import build_graph
    from chevalley.combinatorics import GrassmannianParams

    for n in range(2, 9):
        for k in range(1, n):
            edges = len(build_graph(GrassmannianParams(k, n)).edges)
            assert tracer.operator_nnz(k, n) == edges


# -- the correctness gate ------------------------------------------------------

def _verify_report(k, n, **override):
    ref = workloads.delta0_reference(k, n)
    rep = {"k": k, "n": n, "dim": k * (n - k), "rank": math.comb(n, k),
           "delta0": {"matrix": ref, "schur": ref, "sine": ref, "cosine": ref},
           "bound": float(k * (n - k) + 1), "margin": ref - (k * (n - k) + 1),
           "verdict": workloads.expected_verdict(k, n),
           "property_o": {"top_multiplicity": 1, "rotation_closed": True},
           "max_eigen_residual": 1e-12}
    rep.update(override)
    return json.dumps(rep)


def test_gate_accepts_correct_verify_report():
    assert workloads.check_verify(3, 7, 0, _verify_report(3, 7)) == []
    assert workloads.check_verify(1, 9, 0, _verify_report(1, 9)) == []


@pytest.mark.parametrize("override", [
    {"delta0": {"matrix": workloads.delta0_reference(3, 7) * (1 + 1e-6),
                "schur": workloads.delta0_reference(3, 7),
                "sine": workloads.delta0_reference(3, 7),
                "cosine": workloads.delta0_reference(3, 7)}},
    {"verdict": "holds_equality"},
    {"bound": 14.0},
    {"max_eigen_residual": 2e-8},
    {"property_o": {"top_multiplicity": 2, "rotation_closed": True}},
])
def test_gate_rejects_wrong_verify_report(override):
    assert len(workloads.check_verify(3, 7, 0, _verify_report(3, 7, **override))) == 1


def test_gate_rejects_nonzero_exit_and_garbage():
    assert len(workloads.check_verify(3, 7, 1, _verify_report(3, 7))) == 1
    assert len(workloads.check_verify(3, 7, 0, "not json")) == 1


def _sweep_rows(n_max):
    return [{"k": k, "n": n, "delta0": workloads.delta0_reference(k, n),
             "bound": float(k * (n - k) + 1), "margin": 0.0,
             "verdict": workloads.expected_verdict(k, n)}
            for n in range(2, n_max + 1) for k in range(1, n)]


def test_gate_counts_bad_sweep_rows():
    rows = _sweep_rows(6)
    assert workloads.check_sweep(6, 0, json.dumps(rows)) == []
    rows[3]["delta0"] += 1e-5
    rows[7]["verdict"] = "VIOLATION"
    assert len(workloads.check_sweep(6, 0, json.dumps(rows))) == 2
    assert len(workloads.check_sweep(6, 0, json.dumps(rows[:-1]))) == 15
    assert len(workloads.check_sweep(6, 1, json.dumps(_sweep_rows(6)))) == 15


def test_gate_on_matrix_route_and_inequalities():
    ref = workloads.delta0_reference(2, 40)
    assert workloads.check_matrix_route(2, 40, 780, ref) == []
    assert len(workloads.check_matrix_route(2, 40, 780, ref * (1 + 1e-7))) == 1
    assert len(workloads.check_matrix_route(2, 40, 779, ref)) == 1
    ok = "all 824 inequality checks passed\n"
    assert workloads.check_inequalities(400, 0, ok) == []
    assert len(workloads.check_inequalities(400, 1, "FAIL limit(k=3)\n")) == 824
    assert len(workloads.check_inequalities(401, 0, ok)) == 826


# -- seeds and the metric list -------------------------------------------------

def test_seed_zero_is_canonical_and_seeds_repeat():
    assert workloads.instances("verify", 0) == [[6, 12], [2, 40], [3, 16],
                                                 [5, 11], [1, 30]]
    assert workloads.instances("matrix-thin", 0) == list(range(40, 161, 20))
    assert workloads.instances("inequalities", 0) == [400]
    for seed in range(1, 20):
        for w in workloads.WORKLOADS:
            assert workloads.instances(w, seed) == workloads.instances(w, seed)
        pairs = workloads.instances("verify", seed)
        assert [6, 12] in pairs and len(pairs) == 5
        assert all(abs(a - b) <= 1 for a, b in
                   zip(workloads.instances("matrix-thin", seed), range(40, 161, 20)))


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- exact counts repeat across fresh processes --------------------------------

SMALL = {"verify": [[2, 6], [3, 7], [1, 5]], "sweep": [6],
         "matrix-thin": [10, 13], "inequalities": [8]}


def _traced_pass(workload, tmp_path):
    spec = {"workload": workload, "inputs": SMALL[workload], "traced": True,
            "spans_out": str(tmp_path / "spans.json")}
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                          cwd=ROOT, env=run.pinned_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == []
    trace = result["trace"]
    return trace["counts"], {n: v[1] for n, v in trace["self"].items()}, trace["spans"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat(workload, tmp_path):
    first, second = _traced_pass(workload, tmp_path), _traced_pass(workload, tmp_path)
    assert first == second
    counts, calls, _ = first
    if workload == "sweep":
        assert counts["bruhat.nnz"] == sum(tracer.operator_nnz(k, n)
                                           for n in range(2, 7) for k in range(1, n))
        assert calls["bruhat.build_graph"] == 15
    if workload == "verify":
        assert counts["symfunc.jt_determinants"] == 15 ** 2 + 35 ** 2 + 5 ** 2
        assert calls["spectral.spectrum_closed_form"] == 6
    if workload == "matrix-thin":
        assert counts["spectral.power_iterations"] > 0
    if workload == "inequalities":
        assert counts["galkin.grid_points"] > 0
