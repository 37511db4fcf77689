import json
from itertools import product
from math import comb

import numpy as np
import pytest
import scipy.sparse as sp

from chevalley import bruhat
from chevalley.bruhat import (IncidenceOperator, build_graph, export_graph,
                              incidence_matrix, is_strongly_connected)
from chevalley.combinatorics import GrassmannianParams, ring_states
from oracles import (build_graph_by_particles, covers, dense, dual_partition,
                     edge_triples, quantum_target, strongly_connected_by_csgraph)


def all_params(n_max):
    for n in range(2, n_max + 1):
        for k in range(1, n):
            yield GrassmannianParams(k, n)


class TestBuildGraph:
    def test_gr24_counts(self):
        g = build_graph(GrassmannianParams(2, 4))
        assert len(g.vertices) == 6
        assert len(g.edges) == 8
        assert g.quantum_edge_count == 2

    def test_gr25_counts(self):
        g = build_graph(GrassmannianParams(2, 5))
        assert len(g.vertices) == 10
        assert len(g.edges) == 15
        assert g.quantum_edge_count == 3

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_gr1n_is_cycle(self, n):
        g = build_graph(GrassmannianParams(1, n))
        assert g.quantum_edge_count == 1
        succ = {s: t for s, t, _ in edge_triples(g)}
        assert len(succ) == n  # out-degree one everywhere
        assert all(succ[(j,)] == ((j + 1) % n,) for j in range(n))

    def test_edge_count_identity(self):
        for p in all_params(10):
            g = build_graph(p)
            cover_total = sum(len(covers(lam, p)) for lam in g.vertices)
            q_total = sum(1 for lam in g.vertices
                          if quantum_target(lam, p) is not None)
            assert len(g.edges) == cover_total + q_total
            assert g.quantum_edge_count == q_total == comb(p.n - 2, p.k - 1)

    @pytest.mark.parametrize("k,n", [(2, 5), (4, 8), (6, 8), (82, 85)])
    def test_edges_are_the_rows_of_the_edge_table(self, k, n):
        # len(graph.edges) is the edge count the benchmark's tracer reads
        g = build_graph(GrassmannianParams(k, n))
        assert g.edges.shape == (n * comb(n - 2, k - 1), 3)
        assert np.shares_memory(g.edges, g.edge_table)
        assert list(map(tuple, g.edges.tolist())) == list(zip(*g.edge_table.tolist()))

    def test_vertex_out_edges_are_chevalley_terms(self):
        p = GrassmannianParams(3, 6)
        g = build_graph(p)
        edges = edge_triples(g)
        for lam in g.vertices:
            targets = {(t, d) for s, t, d in edges if s == lam}
            expected = {(mu, 0) for mu in covers(lam, p)}
            star = quantum_target(lam, p)
            if star is not None:
                expected.add((star, 1))
            assert targets == expected


class TestReferenceRule:
    """The particle-hop graph against the per-partition rule."""

    def test_ordered_vertices_and_edges(self):
        for p in all_params(10):
            boxed = [lam for lam in product(range(p.n - p.k, -1, -1), repeat=p.k)
                     if all(a >= b for a, b in zip(lam, lam[1:]))]
            vertices = sorted(boxed, key=lambda lam: (sum(lam), [-x for x in lam]))
            index = {lam: i for i, lam in enumerate(vertices)}
            expected = []
            for lam in vertices:
                expected.extend((lam, mu, 0) for mu in
                                sorted(covers(lam, p), key=index.__getitem__))
                star = quantum_target(lam, p)
                if star is not None:
                    expected.append((lam, star, 1))
            g = build_graph(p)
            assert g.vertices == vertices
            assert edge_triples(g) == expected

    @pytest.mark.parametrize("k,n", [(2, 70), (69, 70), (3, 64)])
    def test_more_than_63_sites(self, k, n):
        g = build_graph(GrassmannianParams(k, n))
        assert len(g.edges) == n * comb(n - 2, k - 1)
        assert g.quantum_edge_count == comb(n - 2, k - 1)
        assert is_strongly_connected(incidence_matrix(g))


@pytest.mark.parametrize("k,n", [(9, 18), (2, 160), (3, 60), (17, 20), (5, 25)])
class TestLargeInstances:
    """Invariants of the hop graph, checked edge by edge on instances past the
    reach of the per-partition rule."""

    @staticmethod
    def occupied(sites, n):
        mask = np.zeros((len(sites), n), dtype=bool)
        mask[np.arange(len(sites))[:, None], sites] = True
        return mask

    def test_each_edge_is_one_clockwise_hop(self, k, n):
        g = build_graph(GrassmannianParams(k, n))
        source, target, degree = g.edge_table
        before = self.occupied(g.states[source], n)
        after = self.occupied(g.states[target], n)
        left, arrived = before & ~after, after & ~before
        assert np.all(left.sum(axis=1) == 1) and np.all(arrived.sum(axis=1) == 1)
        site = left.argmax(axis=1)
        assert np.array_equal(arrived.argmax(axis=1), (site + 1) % n)
        assert np.array_equal(degree, (site == n - 1).astype(degree.dtype))

    def test_out_degree_is_free_next_sites(self, k, n):
        g = build_graph(GrassmannianParams(k, n))
        occupied = self.occupied(g.states, n)
        ahead = np.take_along_axis(occupied, (g.states + 1) % n, axis=1)
        out_degree = np.bincount(g.edge_table[0], minlength=len(g.states))
        assert np.array_equal(out_degree, (~ahead).sum(axis=1))

    def test_export_order(self, k, n):
        source, target, degree = build_graph(GrassmannianParams(k, n)).edge_table
        same = source[1:] == source[:-1]
        assert np.all(source[1:] >= source[:-1])
        # per source: cover targets increasing, the q-edge last
        assert np.all(~same | (degree[:-1] == 0))
        covers = same & (degree[1:] == 0)
        assert np.all(target[1:][covers] > target[:-1][covers])

    def test_counts(self, k, n):
        g = build_graph(GrassmannianParams(k, n))
        m = incidence_matrix(g)
        assert len(g.edges) == m.nnz == n * comb(n - 2, k - 1)
        assert g.quantum_edge_count == comb(n - 2, k - 1)

    def test_in_neighbour_table(self, k, n):
        # the operator's in-neighbours are the edge table's rows, not a copy
        g = build_graph(GrassmannianParams(k, n))
        m = incidence_matrix(g)
        assert np.array_equal(m.source, g.edge_table[0])
        assert np.array_equal(m.target, g.edge_table[1])
        assert np.shares_memory(m.source, g.edge_table)
        assert np.shares_memory(m.target, g.edge_table)


class TestIncidenceMatrix:
    def test_gr12(self):
        m = incidence_matrix(build_graph(GrassmannianParams(1, 2)))
        assert dense(m).tolist() == [[0, 1], [1, 0]]

    def test_gr24(self):
        g = build_graph(GrassmannianParams(2, 4))
        m = incidence_matrix(g)
        matrix = dense(m)
        assert matrix.sum() == 8
        assert set(matrix[matrix != 0]) == {1}
        # out-degree of (1,0): two covers, no quantum edge
        col = g.vertices.index((1, 0))
        assert matrix[:, col].sum() == 2

    def test_support_equals_edges(self):
        for p in all_params(7):
            g = build_graph(p)
            rows, cols = np.nonzero(dense(incidence_matrix(g)))
            support = {(int(r), int(c)) for r, c in zip(rows, cols)}
            index = {lam: i for i, lam in enumerate(g.vertices)}
            edges = {(index[t], index[s]) for s, t, _ in edge_triples(g)}
            assert support == edges


class TestIncidenceOperator:
    def test_dense_form_matches_edge_table(self):
        for p in all_params(10):
            g = build_graph(p)
            source, target, _ = g.edge_table
            want = np.zeros((len(g.states),) * 2)
            want[target, source] = 1.0
            m = incidence_matrix(g)
            assert np.array_equal(dense(m), want)
            assert m.shape == want.shape and m.nnz == len(g.edges)

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 7), (4, 9), (5, 10)])
    def test_products_match_dense(self, k, n):
        rng = np.random.default_rng(k * 100 + n)
        m = incidence_matrix(build_graph(GrassmannianParams(k, n)))
        matrix = dense(m)
        for v in (rng.standard_normal(m.shape[0]),
                  rng.standard_normal(m.shape[0])
                  + 1j * rng.standard_normal(m.shape[0])):
            assert np.max(np.abs(m @ v - matrix @ v)) < 1e-12

    def test_edge_list_keeps_given_order_and_weight(self):
        m = IncidenceOperator([2, 0, 1], [1, 1, 0], 3, weight=2.5)
        assert (m.source.tolist(), m.target.tolist()) == ([2, 0, 1], [1, 1, 0])
        assert dense(m).tolist() == [[0, 2.5, 0], [2.5, 0, 2.5], [0, 0, 0]]
        assert (m @ np.array([1.0, 10.0, 100.0])).tolist() == [25.0, 252.5, 0.0]

    def test_integer_vector_sums_exactly(self):
        # an int64 v stays int64, exact past float's 2**53
        m = incidence_matrix(build_graph(GrassmannianParams(2, 5)))
        v = np.arange(m.shape[0], dtype=np.int64) + 2**60
        assert (m @ v).dtype == np.int64
        assert np.array_equal(m @ v, dense(m).astype(np.int64) @ v)

    def test_repeated_edge_sums_in_dense_form(self):
        # a repeated edge counts twice; the product and the dense form agree
        m = IncidenceOperator([0, 0, 1], [1, 1, 0], 2, weight=3.0)
        assert dense(m).tolist() == [[0, 3.0], [6.0, 0]]
        assert (m @ np.array([1.0, 2.0])).tolist() == [6.0, 6.0]

    # (size, 2), (size + 2,) and (size - 1,) for Gr(2,4), of size 6
    @pytest.mark.parametrize("shape", [(6, 2), (8,), (5,)])
    def test_rejects_any_shape_but_size(self, shape):
        m = incidence_matrix(build_graph(GrassmannianParams(2, 4)))
        with pytest.raises(ValueError, match=r"need shape \(6,\)"):
            m @ np.ones(shape)


class TestRotationQuotient:
    """Moving every particle one site on around the ring is an automorphism
    of the graph, so the Perron vector is constant on its orbits."""

    @staticmethod
    def rotation(g):
        # canonical index of each vertex's rotation, from plain tuples
        index = {tuple(row): i for i, row in enumerate(g.states.tolist())}
        n = g.params.n
        return np.array([index[tuple(sorted((s + 1) % n for s in row))]
                         for row in g.states.tolist()])

    def test_rotation_maps_edges_onto_edges(self):
        # the q-degree is not invariant: the hop n-2 -> n-1 maps to the wrap
        for p in all_params(10):
            g = build_graph(p)
            perm = self.rotation(g)
            source, target, _ = g.edge_table
            pairs = set(zip(source.tolist(), target.tolist()))
            assert set(zip(perm[source].tolist(), perm[target].tolist())) == pairs


class TestPerronStart:
    """incidence_matrix attaches the closed-form Perron vector as `start`."""

    def test_positive_and_parallel_to_the_dense_perron_vector(self):
        # k > n/2 takes the product over the empty sites
        for p in all_params(10):
            m = incidence_matrix(build_graph(p), float(p.n))
            values, vectors = np.linalg.eig(dense(m))
            top = np.argmax(values.real)
            assert abs(values[top] - np.abs(values).max()) < 1e-9 * p.n
            want = vectors[:, top].real
            want /= want.sum()
            start = m.start / m.start.sum()
            assert np.all(m.start > 0) and m.start.shape == (p.rank,)
            assert np.max(np.abs(start - want)) < 1e-12 * start.max()


def digraph(m, edges):
    """Operator with A[t, s] = 1 for each edge s -> t, the incidence convention."""
    return IncidenceOperator([s for s, _ in edges], [t for _, t in edges], m)


class TestConnectivity:
    def test_all_small_instances(self):
        for p in all_params(10):
            m = incidence_matrix(build_graph(p))
            assert is_strongly_connected(m)
            assert strongly_connected_by_csgraph(dense(m))

    def test_directed_path(self):
        assert not is_strongly_connected(digraph(4, [(0, 1), (1, 2), (2, 3)]))
        # the same path reversed: vertex 0 is reached by all, reaches none
        assert not is_strongly_connected(digraph(4, [(3, 2), (2, 1), (1, 0)]))

    def test_two_cycles_joined_one_way(self):
        cycles = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3)]
        assert not is_strongly_connected(digraph(5, cycles + [(2, 3)]))
        assert not is_strongly_connected(digraph(5, cycles + [(3, 2)]))
        assert is_strongly_connected(digraph(5, cycles + [(2, 3), (4, 0)]))

    def test_isolated_vertex(self):
        assert not is_strongly_connected(digraph(4, [(0, 1), (1, 2), (2, 0)]))
        assert not is_strongly_connected(digraph(4, [(1, 2), (2, 3), (3, 1)]))
        assert is_strongly_connected(digraph(1, []))

    def test_matches_csgraph_on_random_digraphs(self):
        rng = np.random.default_rng(2024)
        verdicts = set()
        for _ in range(400):
            m = int(rng.integers(1, 16))
            a = sp.random(m, m, density=rng.uniform(0.0, 0.4), random_state=rng,
                          format="csr")
            want = strongly_connected_by_csgraph(a)
            rows, cols = a.nonzero()
            assert is_strongly_connected(digraph(m, list(zip(cols, rows)))) == want
            verdicts.add(want)
        assert verdicts == {True, False}


class TestDualityIsomorphism:
    def test_edge_and_degree_preserving(self):
        for p in all_params(10):
            g = build_graph(p)
            gd = build_graph(p.dual())
            mapped = {(dual_partition(s, p), dual_partition(t, p), d)
                      for s, t, d in edge_triples(g)}
            actual = set(edge_triples(gd))
            assert mapped == actual


class TestDualBuild:
    """For k > n/2 the graph is the dual Gr(n-k,n)'s hop table relabelled;
    it must match the build by one pass per occupied site byte for byte."""

    @staticmethod
    def assert_same(g, want):
        assert g.edge_table.dtype == want.edge_table.dtype
        assert g.edge_table.tobytes() == want.edge_table.tobytes()
        assert (incidence_matrix(g).start.tobytes()
                == incidence_matrix(want).start.tobytes())

    def test_matches_the_per_particle_build(self):
        for p in [*all_params(18), GrassmannianParams(82, 85)]:
            if 2 * p.k > p.n:
                g = build_graph(p)
                self.assert_same(g, build_graph_by_particles(p))
                assert np.array_equal(g.states, ring_states(p)[0])
                assert g.states.T.flags.c_contiguous

    @pytest.mark.parametrize("k,n", [(2, 3), (5, 8), (9, 16)])
    def test_dual_takes_the_held_table(self, k, n):
        p = GrassmannianParams(k, n)
        bruhat._held.clear()
        fresh_dual = build_graph(p.dual())
        assert not bruhat._held  # a k <= n/2 build holds nothing
        g = build_graph(p)
        assert list(bruhat._held) == [p.dual()]
        self.assert_same(build_graph(p), g)  # a repeat reuses the table
        paired = build_graph(p.dual())
        assert not bruhat._held
        self.assert_same(paired, fresh_dual)
        assert np.array_equal(paired.states, fresh_dual.states)

    def test_other_builds_drop_the_held_table(self):
        build_graph(GrassmannianParams(5, 8))
        self.assert_same(build_graph(GrassmannianParams(2, 5)),
                         build_graph_by_particles(GrassmannianParams(2, 5)))
        assert not bruhat._held


class TestExport:
    def test_dot_gr12(self):
        text = export_graph(build_graph(GrassmannianParams(1, 2)), "dot")
        assert '"(0)";' in text and '"(1)";' in text
        assert '"(0)" -> "(1)" [q=0];' in text
        assert '"(1)" -> "(0)" [q=1];' in text

    def test_json_gr24(self):
        obj = json.loads(export_graph(build_graph(GrassmannianParams(2, 4)), "json"))
        assert obj["vertex_count"] == 6
        assert obj["edge_count"] == 8
        assert obj["quantum_edge_count"] == 2
        assert len(obj["vertices"]) == 6 and len(obj["edges"]) == 8
        assert all(set(e) == {"src", "dst", "q"} for e in obj["edges"])

    def test_json_gr25_quantum_count(self):
        obj = json.loads(export_graph(build_graph(GrassmannianParams(2, 5)), "json"))
        assert obj["quantum_edge_count"] == 3

    def test_deterministic(self):
        g1 = build_graph(GrassmannianParams(3, 7))
        g2 = build_graph(GrassmannianParams(3, 7))
        for fmt in ("dot", "json"):
            assert export_graph(g1, fmt) == export_graph(g2, fmt)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export_graph(build_graph(GrassmannianParams(1, 2)), "yaml")
