"""Acceptance suite: one test per criterion, each prints a PASS/FAIL line."""

import math
import time

import numpy as np

from oracles import (dual_partition, edge_triples, fk_second_difference,
                     schur_values_box)

from chevalley.bruhat import build_graph
from chevalley.combinatorics import GrassmannianParams
from chevalley.galkin import (check_boundary_equality, check_concavity_monotonicity,
                              check_k2_inequality, check_limit, delta0_sine,
                              fk, fk_second_derivative, second_proof_margins,
                              verify_galkin, TAU_NUM)
from chevalley.spectral import (c1_operator, eigen_residual, property_o_check,
                                spectral_report)
from chevalley.symfunc import central_index, enumerate_indices, roots_tuple


def report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def all_params(n_max, rank_max=None):
    for n in range(2, n_max + 1):
        for k in range(1, n):
            p = GrassmannianParams(k, n)
            if rank_max is None or p.rank <= rank_max:
                yield p


def test_criterion_1_paper_values():
    t0 = time.time()
    ok = all(abs(fk(1, float(x))) < 1e-9 for x in range(2, 51))
    ok = ok and abs(fk(2, 3.0)) < 1e-9
    ok = ok and abs(fk(3, 4.0)) < 1e-9
    ok = ok and abs(fk(4, 6.0) - (6 * math.sqrt(3) - 9)) < 1e-9
    elapsed = time.time() - t0
    report(1, ok and elapsed < 1.0,
           f"F^k paper values to 1e-9, {elapsed:.3f}s")


def test_criterion_2_four_way_agreement():
    t0 = time.time()
    worst = 0.0
    for p in all_params(12):
        r = spectral_report(p, tol=1e-8)
        vals = [r.delta0_matrix, r.delta0_schur, r.delta0_sine, r.delta0_cosine]
        worst = max(worst, max(vals) - min(vals))
    elapsed = time.time() - t0
    report(2, worst < 1e-8 and elapsed < 30.0,
           f"max pairwise delta0 spread {worst:.2e} over n<=12, {elapsed:.1f}s")


def test_criterion_3_theorem_desk_scale():
    t0 = time.time()
    ok = True
    for p in all_params(60):
        r = verify_galkin(p)
        expected_eq = p.k in (1, p.n - 1)
        ok = ok and r.margin >= -1e-9 and r.equality == expected_eq
    elapsed = time.time() - t0
    report(3, ok and elapsed < 5.0,
           f"margins and equality pattern for n<=60, {elapsed:.2f}s")


def test_criterion_4_figure_graph_counts():
    g24 = build_graph(GrassmannianParams(2, 4))
    g25 = build_graph(GrassmannianParams(2, 5))
    ok = (len(g24.vertices), len(g24.edges), g24.quantum_edge_count) == (6, 8, 2) \
        and (len(g25.vertices), len(g25.edges), g25.quantum_edge_count) == (10, 15, 3)
    report(4, ok, "Gr(2,4)=6/8/2 and Gr(2,5)=10/15/3")


def test_criterion_5_eigen_residuals():
    t0 = time.time()
    worst = 0.0
    for p in all_params(10, rank_max=252):
        op = c1_operator(p)
        for I in enumerate_indices(p):
            worst = max(worst, eigen_residual(I, p, op))
    elapsed = time.time() - t0
    report(5, worst < 1e-8 and elapsed < 60.0,
           f"max residual {worst:.2e} through rank 252, {elapsed:.1f}s")


def test_criterion_6_property_o():
    ok = True
    for p in all_params(12):
        top, closed, _ = property_o_check(p)
        ok = ok and top == 1 and closed
    report(6, ok, "top multiplicity 1 and rotation closure for n<=12")


def test_criterion_7_rietsch_maximality():
    ok = True
    for p in all_params(10):
        central = schur_values_box(p, roots_tuple(central_index(p), p))
        ok = ok and np.max(np.abs(central.imag)) < 1e-9
        for I in enumerate_indices(p):
            vals = schur_values_box(p, roots_tuple(I, p))
            ok = ok and bool(np.all(np.abs(vals) <= central.real + 1e-9))
    report(7, ok, "|S_lam(zeta^I)| <= S_lam(zeta^{I_0}) for n<=10")


def test_criterion_8_calculus_lemmas():
    ok = all(check_boundary_equality(k) < 1e-9 for k in range(3, 13))
    ok = ok and all(check_limit(k) for k in range(1, 13))
    ok = ok and all(check_concavity_monotonicity(k, 100.0, 0.1)
                    for k in range(2, 13))
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(2, 11))
        x = float(rng.uniform(2 * (k - 1) + 0.5, 100.0))
        fd = fk_second_difference(k, x, h=1e-5)
        ok = ok and abs(fk_second_derivative(k, x) - fd) < 1e-5
    report(8, ok, "boundary equalities, limits, concavity, derivative formula")


def test_criterion_9_second_proof_inequalities():
    ok = all(m >= -TAU_NUM for m in second_proof_margins(range(6, 61), 0.01))
    ok = ok and all(check_k2_inequality(n) for n in range(4, 10_001))
    report(9, ok, "sine-form lemma n<=60 and k=2 inequality n<=1e4")


def test_criterion_10_duality():
    ok = all(abs(delta0_sine(k, float(n)) - delta0_sine(n - k, float(n))) < 1e-10
             for n in range(2, 61) for k in range(1, n))
    for p in all_params(10):
        g, gd = build_graph(p), build_graph(p.dual())
        mapped = {(dual_partition(s, p), dual_partition(t, p), d)
                  for s, t, d in edge_triples(g)}
        ok = ok and mapped == set(edge_triples(gd))
    report(10, ok, "delta0 duality n<=60 and graph isomorphism n<=10")
