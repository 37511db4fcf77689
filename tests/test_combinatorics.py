from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley.bruhat import build_graph
from chevalley.combinatorics import (GrassmannianParams, dual_partition,
                                     enumerate_partitions, k_subsets, lex_rank,
                                     lex_rotation, ring_states)
from chevalley.errors import InstanceTooLargeError

from oracles import (covers, covers_by_filter, is_valid_partition,
                     quantum_target, ring_states_by_sort)

small_params = st.integers(2, 9).flatmap(
    lambda n: st.integers(1, n - 1).map(lambda k: GrassmannianParams(k, n)))


def partitions_of(params):
    return st.sampled_from(enumerate_partitions(params))


class TestParams:
    def test_derived_quantities(self):
        p = GrassmannianParams(2, 5)
        assert (p.dim, p.rank) == (6, 10)

    @pytest.mark.parametrize("k,n", [(0, 4), (4, 4), (5, 3), (-1, 2)])
    def test_invalid(self, k, n):
        with pytest.raises(ValueError):
            GrassmannianParams(k, n)


class TestEnumerate:
    def test_gr24_order(self):
        p = GrassmannianParams(2, 4)
        assert enumerate_partitions(p) == [
            (0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (2, 2)]

    def test_gr12(self):
        assert enumerate_partitions(GrassmannianParams(1, 2)) == [(0,), (1,)]

    def test_gr36_count(self):
        assert len(enumerate_partitions(GrassmannianParams(3, 6))) == 20

    @given(small_params)
    def test_count_is_rank(self, p):
        parts = enumerate_partitions(p)
        assert len(parts) == p.rank
        assert len(set(parts)) == p.rank
        assert all(is_valid_partition(lam, p) for lam in parts)

    def test_rank_cap(self):
        # rank C(30,10) = 30 045 015 is above DEFAULT_RANK_CAP
        with pytest.raises(InstanceTooLargeError):
            enumerate_partitions(GrassmannianParams(10, 30))


class TestLexRank:
    @pytest.mark.parametrize("n,r", [(1, 1), (6, 3), (10, 5), (40, 2),
                                     (70, 68), (70, 69)])
    def test_rank_of_each_subset_is_its_position(self, n, r):
        rows = k_subsets(n, r)
        assert len(rows) == comb(n, r)
        assert list(map(tuple, rows.tolist())) == list(combinations(range(n), r))
        assert np.array_equal(lex_rank(rows, n), np.arange(comb(n, r)))

    def test_stacked_input_ranks_each_row(self):
        # the (C, j, j-1) stack of rows with one site dropped: lex_rank
        # takes any leading shape
        for n in range(1, 11):
            for j in range(1, n + 1):
                rows = k_subsets(n, j)
                others = np.array([[q for q in range(j) if q != p]
                                   for p in range(j)], dtype=np.intp).reshape(j, j - 1)
                stacked = lex_rank(rows[:, others], n)
                assert stacked.shape == (len(rows), j)
                position = {c: i for i, c in enumerate(combinations(range(n), j - 1))}
                want = [[position[tuple(row)] for row in rows[:, others[p]].tolist()]
                        for p in range(j)]
                assert stacked.T.tolist() == want

    def test_empty_subset_has_rank_zero(self):
        for n in range(6):
            assert lex_rank(k_subsets(n, 0), n).tolist() == [0]


class TestColumnLayout:
    # guards the layout the graph build's one-dimensional passes rely on
    @pytest.mark.parametrize("k,n", [(1, 5), (3, 7), (4, 8), (6, 9), (9, 10)])
    def test_per_particle_columns_are_contiguous(self, k, n):
        p = GrassmannianParams(k, n)
        assert k_subsets(n, k).T.flags.c_contiguous
        assert ring_states(p)[0].T.flags.c_contiguous
        assert build_graph(p).states.T.flags.c_contiguous


class TestRingStates:
    def test_key_is_weight_then_reflected_lex_rank(self):
        # the colex key on the whole small domain
        for n in range(2, 13):
            for k in range(1, n):
                states, ranks = ring_states(GrassmannianParams(k, n))
                want_states, want_ranks = ring_states_by_sort(k, n)
                assert np.array_equal(states, want_states)
                assert np.array_equal(ranks, want_ranks)


class TestKSubsets:
    def test_whole_small_domain_matches_itertools(self):
        # r = 0 is one empty row, r = n the single full one
        for n in range(15):
            for r in range(n + 1):
                rows = k_subsets(n, r)
                assert rows.dtype == np.intp
                assert rows.shape == (comb(n, r), r)
                want = list(combinations(range(n), r))
                assert list(map(tuple, rows.tolist())) == want


class TestRingRotation:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_every_particle_one_site_on_sorted(self, n):
        for r in range(1, n):
            rows = list(combinations(range(n), r))
            position = {row: i for i, row in enumerate(rows)}
            want = [position[tuple(sorted((s + 1) % n for s in row))] for row in rows]
            holds_last = np.array([row[-1] == n - 1 for row in rows])
            assert lex_rotation(holds_last).tolist() == want


class TestCovers:
    def test_examples(self):
        p = GrassmannianParams(2, 4)
        assert set(covers((1, 0), p)) == {(2, 0), (1, 1)}
        assert covers((2, 2), p) == []
        p36 = GrassmannianParams(3, 6)
        assert set(covers((2, 1, 0), p36)) == {(3, 1, 0), (2, 2, 0), (2, 1, 1)}

    @given(small_params, st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, p, data):
        lam = data.draw(partitions_of(p))
        assert sorted(covers(lam, p)) == sorted(covers_by_filter(lam, p))


class TestQuantumTarget:
    def test_examples(self):
        assert quantum_target((2, 1), GrassmannianParams(2, 4)) == (0, 0)
        assert quantum_target((1, 1), GrassmannianParams(2, 4)) is None
        assert quantum_target((3, 3), GrassmannianParams(2, 5)) == (2, 0)

    @given(small_params, st.data())
    @settings(max_examples=60, deadline=None)
    def test_existence_and_weight(self, p, data):
        lam = data.draw(partitions_of(p))
        star = quantum_target(lam, p)
        exists = lam[0] == p.box_width and lam[-1] > 0
        assert (star is not None) == exists
        if star is not None:
            assert is_valid_partition(star, p)
            assert sum(star) == sum(lam) - (p.n - 1)


class TestDuality:
    def test_examples(self):
        assert dual_partition((0, 0), GrassmannianParams(2, 4)) == (0, 0)
        assert dual_partition((2, 0), GrassmannianParams(2, 4)) == (1, 1)
        assert dual_partition((3, 1), GrassmannianParams(2, 5)) == (2, 1, 1)

    @given(small_params, st.data())
    @settings(max_examples=60, deadline=None)
    def test_involution(self, p, data):
        lam = data.draw(partitions_of(p))
        mu = dual_partition(lam, p)
        assert is_valid_partition(mu, p.dual())
        assert dual_partition(mu, p.dual()) == lam

    @given(small_params)
    @settings(max_examples=30, deadline=None)
    def test_bijection(self, p):
        images = {dual_partition(lam, p) for lam in enumerate_partitions(p)}
        assert images == set(enumerate_partitions(p.dual()))

    @given(small_params, st.data())
    @settings(max_examples=40, deadline=None)
    def test_covers_commute_with_duality(self, p, data):
        lam = data.draw(partitions_of(p))
        q = p.dual()
        dual_covers = {dual_partition(mu, p) for mu in covers(lam, p)}
        assert dual_covers == set(covers(dual_partition(lam, p), q))
        star = quantum_target(lam, p)
        dual_star = quantum_target(dual_partition(lam, p), q)
        if star is None:
            assert dual_star is None
        else:
            assert dual_star == dual_partition(star, p)
