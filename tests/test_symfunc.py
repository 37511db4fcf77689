import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley import symfunc
from chevalley.combinatorics import GrassmannianParams, rotation_orbits
from chevalley.symfunc import (_orbit_vector, _vertex_tables, central_index,
                               enumerate_indices, homogeneous_table,
                               rietsch_eigenvector, roots_tuple, schur_eval)

from oracles import (NOT_AN_INDEX, NOT_AN_INDEX_IDS, TAU_ALG,
                     enumerate_partitions, h_monomial, schur_brute,
                     schur_values_box, shifted)

RNG = np.random.default_rng(20240817)


def random_tuple(k):
    return RNG.normal(size=k) + 1j * RNG.normal(size=k)


class TestEnumerateIndices:
    def test_gr24_doubled(self):
        assert set(enumerate_indices(GrassmannianParams(2, 4))) == {
            (-1, 1), (-1, 3), (-1, 5), (1, 3), (1, 5), (3, 5)}

    def test_central_k3(self):
        assert central_index(GrassmannianParams(3, 6)) == (-2, 0, 2)

    def test_gr13(self):
        assert enumerate_indices(GrassmannianParams(1, 3)) == [(0,), (2,), (4,)]

    def test_count_matches_rank(self):
        for n in range(2, 13):
            for k in range(1, n):
                p = GrassmannianParams(k, n)
                idx = enumerate_indices(p)
                assert len(idx) == p.rank
                assert idx == sorted(idx)
                # parity: doubled entries even iff k odd
                assert all(d % 2 == (k % 2 == 0) for I in idx for d in I)

    def test_central_is_first(self):
        for n in range(3, 9):
            for k in range(1, n):
                p = GrassmannianParams(k, n)
                assert enumerate_indices(p)[0] == central_index(p)


class TestRootsTuple:
    def test_central_k2_n4(self):
        x = roots_tuple(central_index(GrassmannianParams(2, 4)),
                        GrassmannianParams(2, 4))
        expected = np.array([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
        assert np.allclose(x, expected)

    def test_trivial_k1(self):
        x = roots_tuple((0,), GrassmannianParams(1, 7))
        assert np.allclose(x, [1.0])

    def test_doubled_3_5(self):
        p = GrassmannianParams(2, 4)
        x = roots_tuple((3, 5), p)
        assert np.allclose(x, [np.exp(3j * np.pi / 4), np.exp(5j * np.pi / 4)])
        assert np.all(np.abs(x ** 4 + 1) < TAU_ALG)

    def test_all_are_roots_of_sign(self):
        for n in range(2, 11):
            for k in range(1, n):
                p = GrassmannianParams(k, n)
                target = (-1) ** (k + 1)
                for I in enumerate_indices(p):
                    x = roots_tuple(I, p)
                    assert len(set(np.round(x, 12))) == k
                    assert np.all(np.abs(x ** n - target) < TAU_ALG)


class TestCompleteHomogeneous:
    def test_base_cases(self):
        x = random_tuple(3)
        assert homogeneous_table(x, 0)[0] == 1

    def test_h2_at_ones(self):
        assert abs(homogeneous_table([1.0, 1.0], 2)[2] - 3) < 1e-12

    @given(st.integers(1, 4), st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_newton_vs_monomial(self, k, m):
        x = random_tuple(k)
        got = homogeneous_table(x, m)[m]
        want = h_monomial(x, m)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_table_consistent(self):
        x = random_tuple(3)
        h = homogeneous_table(x, 6)
        for m in range(7):
            assert h[m] == homogeneous_table(x, m)[m]


class TestSchurEval:
    def test_empty_partition(self):
        assert abs(schur_eval((0, 0, 0), random_tuple(3)) - 1) < 1e-12

    def test_one_box_is_h1(self):
        x = random_tuple(4)
        assert abs(schur_eval((1, 0, 0, 0), x) - np.sum(x)) < 1e-10

    def test_central_value_gr24(self):
        p = GrassmannianParams(2, 4)
        v = schur_eval((1, 0), roots_tuple(central_index(p), p))
        assert abs(v - np.sqrt(2)) < TAU_ALG

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 6)])
    def test_against_brute_force(self, k, n):
        p = GrassmannianParams(k, n)
        lams = enumerate_partitions(p)
        for _ in range(20):
            x = random_tuple(k)
            for lam in lams:
                got = schur_eval(lam, x)
                want = schur_brute(lam, x)
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_batched_matches_single(self):
        p = GrassmannianParams(3, 6)
        lams = enumerate_partitions(p)
        x = random_tuple(3)
        batch = schur_values_box(p, x)
        for lam, v in zip(lams, batch):
            assert abs(v - schur_eval(lam, x)) < 1e-10


class TestRietschEigenvector:
    def test_gr12_all_ones(self):
        p = GrassmannianParams(1, 2)
        assert np.allclose(rietsch_eigenvector((0,), p), [1.0, 1.0])

    def test_gr24_central_coordinates(self):
        p = GrassmannianParams(2, 4)
        v = rietsch_eigenvector(central_index(p), p)
        lams = enumerate_partitions(p)
        assert abs(v[lams.index((0, 0))] - 1.0) < TAU_ALG
        assert abs(v[lams.index((1, 0))] - np.sqrt(2)) < TAU_ALG

    def test_matches_jacobi_trudi(self):
        # n <= 10 covers k <= n/2 and the complementary-roots branch k > n/2
        for n in range(2, 11):
            for k in range(1, n):
                p = GrassmannianParams(k, n)
                for I in enumerate_indices(p):
                    want = np.conj(schur_values_box(p, roots_tuple(I, p)))
                    got = rietsch_eigenvector(I, p)
                    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    def test_bytes_up_to_n10(self):
        # every eigenvector of every Gr(k,n), n <= 10, k > n/2 included, bit
        # for bit: a change to how the orbit tables are derived shows here.
        # The bytes are those of numpy's exp and LAPACK's determinant, so
        # another build of either may need the digest taken again at a
        # commit known to be right
        digest = hashlib.sha256()
        for n in range(2, 11):
            for k in range(1, n):
                p = GrassmannianParams(k, n)
                for I in enumerate_indices(p):
                    digest.update(rietsch_eigenvector(I, p).tobytes())
        assert digest.hexdigest() == (
            "bdf7833a4adef83c47649243346b7cf0f345fe568d23345fd22cfcc54fbb5ee0")

    @pytest.mark.parametrize("k,n", [(2, 6), (5, 8)])
    def test_orbits_are_read_from_the_vertex_tables(self, k, n, monkeypatch):
        # once its tables are built, no eigenvector reads rotation_orbits
        p = GrassmannianParams(k, n)
        indices = enumerate_indices(p)
        want = [rietsch_eigenvector(I, p) for I in indices]
        _orbit_vector.cache_clear()
        monkeypatch.setattr(symfunc, "rotation_orbits", None)
        for I, v in zip(indices, want):
            assert np.array_equal(rietsch_eigenvector(I, p), v)

    def test_orbit_start_is_lex_least_rotation(self):
        for n in range(2, 11):
            for k in range(1, n):
                p = GrassmannianParams(k, n)
                indices = enumerate_indices(p)
                _, _, start, m = rotation_orbits(p)
                for I, s, m_I in zip(indices, start, m):
                    orbit = [I]
                    while (nxt := shifted(orbit[-1], n)) != I:
                        orbit.append(nxt)
                    rep = indices[s]
                    assert rep == min(orbit)
                    # I is R rotated m times, orbit[j] is I rotated j times,
                    # and m is the least such, below the orbit's period
                    assert (orbit.index(rep) + m_I) % len(orbit) == 0
                    assert 0 <= m_I < len(orbit)

    @pytest.mark.parametrize("I,kn", NOT_AN_INDEX, ids=NOT_AN_INDEX_IDS)
    def test_rejects_a_tuple_that_is_not_an_index(self, I, kn):
        with pytest.raises(ValueError):
            rietsch_eigenvector(I, GrassmannianParams(*kn))

    def test_accepts_numpy_integer_entries(self):
        p = GrassmannianParams(2, 5)
        I = tuple(np.array([-1, 3]))
        want = rietsch_eigenvector((-1, 3), p)
        assert np.array_equal(rietsch_eigenvector(I, p), want)

    def test_never_zero(self):
        for n in range(2, 8):
            for k in range(1, n):
                p = GrassmannianParams(k, n)
                for I in enumerate_indices(p):
                    assert np.max(np.abs(rietsch_eigenvector(I, p))) > 0.5

    def test_table_memory_at_rank_12870(self):
        # Gr(8,16): the index table, the vertex tables and one orbit vector
        # peak at 2.9 MB, pinned with about 2x margin
        p = GrassmannianParams(8, 16)
        for cached in (rotation_orbits, _vertex_tables, _orbit_vector):
            cached.cache_clear()
        tracemalloc.start()
        try:
            _orbit_vector(0, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_one_call_at_gr_1_4000_stays_under_1_mb(self):
        # the cold call builds every table it reads, each linear in rank
        # (0.8 MB); phases per grade, n x (dim + 1), would take 256 MB
        p = GrassmannianParams(1, 4000)
        for cached in (rotation_orbits, _vertex_tables, _orbit_vector):
            cached.cache_clear()
        tracemalloc.start()
        try:
            rietsch_eigenvector((2,), p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestMaximality:
    def test_central_dominates_all(self):
        # |S_lam(zeta^I)| <= S_lam(zeta^{I_0}), with the central value real
        for n in range(2, 11):
            for k in range(1, n):
                p = GrassmannianParams(k, n)
                central = schur_values_box(p, roots_tuple(central_index(p), p))
                assert np.max(np.abs(central.imag)) < TAU_ALG
                for I in enumerate_indices(p):
                    vals = schur_values_box(p, roots_tuple(I, p))
                    assert np.all(np.abs(vals) <= central.real + TAU_ALG)
