import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp

from chevalley.combinatorics import GrassmannianParams, rotation_orbits
from chevalley.errors import IterationFailureError
from chevalley.galkin import delta0_sine
from chevalley import spectral, symfunc
from chevalley.spectral import (DEFAULT_MAX_ITER, DEFAULT_POWER_TOL,
                                PROPERTY_O_TOL, _power_iteration, c1_operator,
                                eigen_residual, principal_eigenvalue,
                                property_o_check, spectral_report,
                                spectrum_closed_form)
from chevalley.symfunc import (central_index, enumerate_indices,
                               rietsch_eigenvector, roots_tuple)

from oracles import (NOT_AN_INDEX, NOT_AN_INDEX_IDS, dense,
                     eigen_residual_by_product, multiset_invariant_under,
                     shifted, top_on_roots_by_scan)


def sorted_complex(values):
    return np.array(sorted(values, key=lambda z: (round(z.real, 8), round(z.imag, 8))))


class TestOperator:
    def test_gr12(self):
        m = c1_operator(GrassmannianParams(1, 2))
        assert dense(m).tolist() == [[0.0, 2.0], [2.0, 0.0]]

    def test_gr24_entries(self):
        m = c1_operator(GrassmannianParams(2, 4))
        matrix = dense(m)
        assert matrix.shape == (6, 6)
        assert np.count_nonzero(matrix) == 8
        assert set(np.unique(matrix)) == {0.0, 4.0}

    def test_gr25_entries(self):
        m = c1_operator(GrassmannianParams(2, 5))
        assert m.shape == (10, 10)
        assert np.count_nonzero(dense(m)) == 15


    @pytest.mark.parametrize("k,n", [(6, 12), (2, 40), (5, 11)])
    def test_products_round_as_csr(self, k, n):
        # the gather sums each row's in-neighbours in increasing order from
        # +0, as scipy's CSR product does, so verify outputs stay
        # byte-identical; -0.0 entries (eigenvectors have them) included
        rng = np.random.default_rng(n)
        m = c1_operator(GrassmannianParams(k, n))
        csr = sp.csr_matrix(dense(m))
        size = m.shape[0]
        for v in (rng.standard_normal(size),
                  rng.standard_normal(size) + 1j * rng.standard_normal(size)):
            v[rng.random(size) < 0.5] = -0.0
            assert (m @ v).tobytes() == (csr @ v).tobytes()

    def test_dual_pair_peaks_stay_under_the_middle_one(self):
        # a memory guard: sweep builds Gr(9,16), which holds its dual's hop
        # table, right before Gr(7,16); neither may peak above Gr(8,16)
        peaks = {}
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for k in (8, 9, 7):
                tracemalloc.reset_peak()
                c1_operator(GrassmannianParams(k, 16))
                peaks[k] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert max(peaks[9], peaks[7]) <= peaks[8], peaks


class TestPrincipalEigenvalue:
    def test_two_cycle(self):
        m = sp.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert abs(principal_eigenvalue(m, shift=1.0) - 2.0) < 1e-9

    def test_gr24(self):
        val = principal_eigenvalue(c1_operator(GrassmannianParams(2, 4)), shift=4.0)
        assert abs(val - 4 * np.sqrt(2)) < 1e-9

    def test_gr25(self):
        val = principal_eigenvalue(c1_operator(GrassmannianParams(2, 5)), shift=5.0)
        assert abs(val - 5 * (1 + np.sqrt(5)) / 2) < 1e-9

    def test_random_non_normal_matrix(self):
        # no ring structure: a seeded sparse nonnegative matrix plus a
        # directed cycle through every vertex (so it is irreducible)
        rng = np.random.default_rng(7)
        m = 300
        cycle = sp.csr_matrix((np.ones(m), (np.roll(np.arange(m), 1), np.arange(m))))
        a = (sp.random(m, m, density=0.02, random_state=rng) + cycle).tocsr()
        dense = a.toarray()
        assert np.abs(dense @ dense.T - dense.T @ dense).max() > 0.1
        want = max(np.linalg.eigvals(dense).real)
        value, products, (lo, hi) = _power_iteration(
            a, 1.0, DEFAULT_POWER_TOL, DEFAULT_MAX_ITER)
        assert abs(value - want) < 1e-11 * want
        assert hi - lo < DEFAULT_POWER_TOL * value
        assert principal_eigenvalue(a, shift=1.0) == value

    @pytest.mark.parametrize("k,n", [(1, 2), (2, 5)])
    def test_rank_at_most_basis_size(self, k, n):
        # instances of rank 2 and 10, the smallest the route sees
        p = GrassmannianParams(k, n)
        value, products, (lo, hi) = _power_iteration(
            c1_operator(p), float(n), DEFAULT_POWER_TOL, DEFAULT_MAX_ITER)
        assert products <= p.rank + 1
        assert abs(value - delta0_sine(k, float(n))) < 1e-13 * value
        assert lo <= value <= hi

    def test_matrix_route_at_rank_79800(self):
        # Gr(2,400), under the rank cap
        m = c1_operator(GrassmannianParams(2, 400))
        assert m.shape == (79_800, 79_800)
        value = principal_eigenvalue(m, shift=400.0)
        want = delta0_sine(2, 400.0)
        assert abs(value - want) < 1e-8 * want

    @pytest.mark.parametrize("k,n", [(k, n) for n in range(2, 19)
                                     for k in range(1, n)]
                             + [(2, 160), (9, 18), (17, 20)])
    def test_one_product_from_the_closed_form_start(self, k, n):
        # a speed guard: the closed-form Perron vector meets the stop at once
        value, products, (lo, hi) = _power_iteration(
            c1_operator(GrassmannianParams(k, n)), float(n),
            DEFAULT_POWER_TOL, DEFAULT_MAX_ITER)
        assert products == 1
        assert hi - lo < 1e-12 * value

    def test_start_is_read_not_written(self):
        m = c1_operator(GrassmannianParams(3, 7))
        start = m.start.copy()
        _power_iteration(m, 7.0, DEFAULT_POWER_TOL, DEFAULT_MAX_ITER)
        assert np.array_equal(m.start, start)

    def test_nonconvergence_raises(self, monkeypatch):
        # only principal_eigenvalue raises at the cap; _power_iteration
        # returns its last bracket, which spectral_report fails as `converged`
        monkeypatch.setattr(spectral, "DEFAULT_POWER_TOL", 0.0)
        monkeypatch.setattr(spectral, "DEFAULT_MAX_ITER", 5)
        m = sp.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        with pytest.raises(IterationFailureError, match="after 5 operator products"):
            principal_eigenvalue(m, 1.0)

    def test_no_products_allowed_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "DEFAULT_MAX_ITER", 0)
        m = c1_operator(GrassmannianParams(2, 5))
        with pytest.raises(IterationFailureError, match="after 0 operator products"):
            principal_eigenvalue(m, 5.0)

    def test_the_cap_returns_the_last_bracket(self):
        m = sp.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        value, products, (lo, hi) = _power_iteration(m, 1.0, 0.0, 5)
        assert products == 5 and lo <= 2.0 <= hi and value == 0.5 * (lo + hi)
        value, products, bracket = _power_iteration(
            c1_operator(GrassmannianParams(2, 5)), 5.0, DEFAULT_POWER_TOL, 0)
        assert products == 0 and np.isnan([value, *bracket]).all()

    def test_a_collapsed_iterate_stops_without_raising(self):
        # a nilpotent matrix sends the iterate to zero after two products
        m = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        value, products, (lo, hi) = _power_iteration(m, 0.0, DEFAULT_POWER_TOL, 10)
        assert products == 2 and not hi - lo < DEFAULT_POWER_TOL


def bracket_instances():
    for n in range(2, 13):
        for k in range(1, n):
            yield k, n
    yield from [(2, 40), (2, 100), (2, 140), (2, 161), (9, 18)]


def sine_form(k, n):
    with mpmath.workdps(30):
        return float(n * mpmath.sinpi(mpmath.mpf(k) / n)
                     / mpmath.sinpi(mpmath.mpf(1) / n))


class TestCollatzWielandtBracket:
    @pytest.mark.parametrize("k,n", list(bracket_instances()))
    def test_narrow_and_contains_sine_form(self, k, n):
        value, _, (lo, hi) = _power_iteration(
            c1_operator(GrassmannianParams(k, n)), float(n),
            DEFAULT_POWER_TOL, DEFAULT_MAX_ITER)
        # the float sine form is several ulps off at k = n-1
        want = sine_form(k, n)
        ulps = 4 * np.spacing(want)
        assert hi - lo < 1e-12 * max(1.0, value)
        assert lo - ulps <= want <= hi + ulps
        assert value == 0.5 * (lo + hi)

    @pytest.mark.parametrize("k,n", [(2, 7), (3, 8)])
    @pytest.mark.parametrize("wrong", ["ones", "one_scaled", "reversed"])
    def test_bad_starts_cannot_move_the_bracket(self, k, n, wrong):
        # the start only sets the number of products: the bracket comes from
        # a product with the operator, so it never certifies a wrong value
        m = c1_operator(GrassmannianParams(k, n))
        if wrong == "ones":
            m.start = None
        elif wrong == "one_scaled":
            m.start[m.shape[0] // 2] *= 1e3
        else:  # the start of the reversed vertex order
            m.start = m.start[::-1].copy()
        value, products, (lo, hi) = _power_iteration(
            m, float(n), DEFAULT_POWER_TOL, DEFAULT_MAX_ITER)
        assert products > 1
        want = sine_form(k, n)
        ulps = 4 * np.spacing(want)
        assert hi - lo < 1e-12 * max(1.0, value)
        assert lo - ulps <= want <= hi + ulps

    def test_report_carries_bracket(self):
        r = spectral_report(GrassmannianParams(3, 7))
        lo, hi = r.matrix_bracket
        assert lo <= r.delta0_matrix <= hi
        assert hi - lo < 1e-12 * r.delta0_matrix


class TestClosedFormSpectrum:
    def test_gr24(self):
        spec = spectrum_closed_form(GrassmannianParams(2, 4))
        r = 4 * np.sqrt(2)
        expected = np.array([r, r * 1j, -r, -r * 1j, 0.0, 0.0])
        assert np.allclose(sorted_complex(spec), sorted_complex(expected))

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_gr1n_is_scaled_roots_of_unity(self, n):
        spec = spectrum_closed_form(GrassmannianParams(1, n))
        expected = n * np.exp(2j * np.pi * np.arange(n) / n)
        assert np.allclose(sorted_complex(spec), sorted_complex(expected))

    def test_matches_per_index_sum(self):
        for n in range(2, 11):
            for k in range(1, n):
                p = GrassmannianParams(k, n)
                want = [n * np.sum(roots_tuple(I, p)) for I in enumerate_indices(p)]
                assert np.array_equal(spectrum_closed_form(p), want)

    def test_length_is_rank(self):
        for n in range(2, 10):
            for k in range(1, n):
                p = GrassmannianParams(k, n)
                assert len(spectrum_closed_form(p)) == p.rank


class TestEigenResidual:
    def test_gr12(self):
        p = GrassmannianParams(1, 2)
        assert eigen_residual((0,), p, c1_operator(p)) < 1e-12

    def test_gr24_central(self):
        p = GrassmannianParams(2, 4)
        assert eigen_residual((-1, 1), p, c1_operator(p)) < 1e-9

    def test_gr25_all(self):
        p = GrassmannianParams(2, 5)
        op = c1_operator(p)
        for I in enumerate_indices(p):
            assert eigen_residual(I, p, op) < 1e-9

    @pytest.mark.parametrize("I,kn", NOT_AN_INDEX, ids=NOT_AN_INDEX_IDS)
    def test_rejects_a_tuple_that_is_not_an_index(self, I, kn):
        p = GrassmannianParams(*kn)
        with pytest.raises(ValueError):
            eigen_residual(I, p, c1_operator(p))

    @pytest.mark.parametrize("k,n", [(29, 30), (28, 30), (7, 12), (10, 13)])
    def test_all_indices(self, k, n):
        # k > n/2 runs on the n-k complementary roots (one row at
        # Gr(29,30)), whose wraps would carry a sign (-1)^n that odd n shows
        p = GrassmannianParams(k, n)
        op = c1_operator(p)
        for I in enumerate_indices(p):
            assert eigen_residual(I, p, op) < 1e-8

    def test_rank_above_the_cli_default_cap(self):
        # Gr(2,450), rank 101 025: the library enumerates whatever it is
        # asked to; only the CLI's --rank-cap refuses an instance
        p = GrassmannianParams(2, 450)
        assert len(rietsch_eigenvector(central_index(p), p)) == 101_025
        op = c1_operator(p)
        for I in (central_index(p), enumerate_indices(p)[12345]):
            assert eigen_residual(I, p, op) < 1e-10


class TestOrbitWalk:
    def test_every_index_once_in_lex_order(self):
        # the chunked walk rounds as one operator product per index: bit for
        # bit, one index per call and by the per-index product itself
        for k, n in [(k, n) for n in range(2, 11) for k in range(1, n)] + [
                (2, 40), (7, 14)]:
            p = GrassmannianParams(k, n)
            op = c1_operator(p)
            indices = enumerate_indices(p)
            got = spectral_report(p).eigen_residuals
            assert len(got) == p.rank
            assert np.array_equal(got, [eigen_residual(I, p, op) for I in indices])
            assert np.array_equal(
                got, [eigen_residual_by_product(I, p, op) for I in indices])

    def test_residual_checks_the_printed_eigenvalue(self):
        # each residual is the one-product residual against the same
        # report's spectrum entry, bit for bit
        for k, n in [(k, n) for n in range(2, 11) for k in range(1, n)] + [(2, 40)]:
            p = GrassmannianParams(k, n)
            op, report = c1_operator(p), spectral_report(p)
            for I, eig, got in zip(enumerate_indices(p), report.spectrum,
                                   report.eigen_residuals):
                v = rietsch_eigenvector(I, p)
                r = op @ v
                r -= eig * v
                assert got == np.abs(r).max() / np.abs(v).max(), (k, n, I)

    @pytest.mark.parametrize("k,n", [(6, 12), (2, 40), (1, 30), (5, 11)])
    def test_chunks_of_any_length(self, k, n, monkeypatch):
        # a list in any order, with a short last chunk: residuals in list order
        p = GrassmannianParams(k, n)
        op = c1_operator(p)
        indices = enumerate_indices(p)[::-3]
        want = [eigen_residual_by_product(I, p, op) for I in indices]
        row = 24 * op.nnz + 48 * p.rank
        for budget in (1, 3 * row, 64 * row):
            monkeypatch.setattr(spectral, "_CHUNK_BYTES", budget)
            assert np.array_equal(eigen_residual(indices, p, op), want)

    @pytest.mark.parametrize("k,n", [(6, 12), (2, 40)])
    def test_residual_stage_stays_within_the_chunk_budget(self, k, n, monkeypatch):
        # the chunk buffers (at most _CHUNK_BYTES) beside the index tuples and
        # one vector's temporaries; every row at once would be rank times
        # 24 B per edge and 48 B per vertex, ~108 MB at Gr(6,12)
        stage, peaks = spectral._eigen_residuals, []

        def traced(params, operator):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                residuals = stage(params, operator)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            return residuals

        p = GrassmannianParams(k, n)
        spectral_report(p)  # the per-instance caches, outside the trace
        monkeypatch.setattr(spectral, "_eigen_residuals", traced)
        spectral_report(p)
        assert peaks[0] <= spectral._CHUNK_BYTES + 160 * 1024, peaks

    @pytest.mark.parametrize("k,n", [(1, 2000), (2, 80), (7, 14)])
    def test_each_stage_is_linear_in_rank_k_plus_nnz(self, k, n, monkeypatch):
        # with every per-instance table built inside the report, no stage
        # holds more than 160 B per unit of rank*k + nnz beyond the residual
        # chunk (_CHUNK_BYTES): 8 B per table entry, and at k = 1 ~120 B per
        # index tuple the residual stage walks
        peaks = {}

        def traced(name, stage):
            def run(*args, **kwargs):
                if tracemalloc.is_tracing():  # nested in a traced stage
                    return stage(*args, **kwargs)
                tracemalloc.start()
                try:
                    out = stage(*args, **kwargs)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                peaks[name] = max(peaks.get(name, 0), peak)
                return out
            return run

        stages = ("c1_operator", "is_strongly_connected", "_power_iteration",
                  "schur_eval", "_eigen_residuals", "property_o_check",
                  "spectrum_closed_form")
        for name in stages:
            monkeypatch.setattr(spectral, name, traced(name, getattr(spectral, name)))
        for cached in (rotation_orbits, symfunc._vertex_tables, symfunc._orbit_vector):
            cached.cache_clear()
        p = GrassmannianParams(k, n)
        spectral_report(p)
        assert set(peaks) == set(stages)
        peaks["_eigen_residuals"] -= spectral._CHUNK_BYTES
        assert max(peaks.values()) <= 160 * (p.rank * k + c1_operator(p).nnz), peaks

    # orbits = binary necklaces, (1/n) sum over d | gcd(n, k) of
    # phi(d) C(n/d, k/d); periods below n where gcd(n, k) > 1
    @pytest.mark.parametrize("k,n,orbits", [
        (6, 12, 80), (4, 8, 10), (5, 10, 26), (3, 9, 10), (2, 4, 2),
        (1, 7, 1), (29, 30, 1), (7, 9, 4)])
    def test_one_expansion_per_orbit(self, k, n, orbits, monkeypatch):
        p = GrassmannianParams(k, n)
        calls = []
        counted = lambda I, params: calls.append(I) or rietsch_eigenvector(I, params)
        monkeypatch.setattr(spectral, "rietsch_eigenvector", counted)
        symfunc._orbit_vector.cache_clear()
        spectral_report(p)
        assert sorted(calls) == enumerate_indices(p)
        assert symfunc._orbit_vector.cache_info().misses == orbits


class TestPropertyO:
    @pytest.mark.parametrize("k,n", [(1, 2), (2, 4), (2, 5)])
    def test_examples(self, k, n):
        assert property_o_check(GrassmannianParams(k, n)) == (1, True, True)

    def test_rotation_is_the_shift_of_doubled_exponents(self):
        for n in range(2, 11):
            for k in range(1, n):
                p = GrassmannianParams(k, n)
                rot = rotation_orbits(p)[1]
                assert sorted(rot.tolist()) == list(range(p.rank))
                indices = enumerate_indices(p)
                assert [indices[r] for r in rot] == [shifted(I, n) for I in indices]

    def test_rotation_agrees_with_greedy_oracle(self):
        for n in range(2, 11):
            for k in range(1, n):
                p = GrassmannianParams(k, n)
                zeta = np.exp(2j * np.pi / n)
                want = multiset_invariant_under(spectrum_closed_form(p), zeta, 1e-8)
                assert property_o_check(p)[1] == want

    def test_moved_eigenvalue_breaks_closure(self, monkeypatch):
        p = GrassmannianParams(2, 5)
        spectrum = spectrum_closed_form(p)
        spectrum[-1] += 1e-6
        monkeypatch.setattr(spectral, "spectrum_closed_form", lambda params: spectrum)
        zeta = np.exp(2j * np.pi / 5)
        assert not multiset_invariant_under(spectrum, zeta, 1e-8)
        assert property_o_check(p) == (1, False, True)

    def test_top_value_off_the_roots(self, monkeypatch):
        p = GrassmannianParams(2, 5)
        spectrum = spectrum_closed_form(p)
        on_top = np.flatnonzero(np.abs(np.abs(spectrum) - np.abs(spectrum).max()) < 1e-8)
        moved = on_top[np.argmax(spectrum[on_top].imag)]  # not the real top
        spectrum[moved] *= np.exp(1j * np.pi / 5)  # half a root on: still top modulus
        monkeypatch.setattr(spectral, "spectrum_closed_form", lambda params: spectrum)
        assert property_o_check(p) == (1, False, False)

    def test_top_circle_matches_the_scan_oracle(self):
        for n in range(2, 15):
            for k in range(1, n):
                p = GrassmannianParams(k, n)
                want = top_on_roots_by_scan(spectrum_closed_form(p), n, PROPERTY_O_TOL)
                assert property_o_check(p)[2] == want

    @pytest.mark.parametrize("k,n", [(1, 7), (2, 5), (3, 7), (4, 9), (2, 14)])
    @pytest.mark.parametrize("step,want", [(2e-8, False), (-2e-8, False),
                                           (5e-9, True), (-5e-9, True)])
    def test_top_value_moved_along_the_circle(self, k, n, step, want, monkeypatch):
        # each top value in turn moved `step` along the top circle: off its
        # root by |step|, so found on the roots only within PROPERTY_O_TOL
        p = GrassmannianParams(k, n)
        real = spectrum_closed_form(p)
        delta0 = np.abs(real).max()
        for i in np.flatnonzero(np.abs(np.abs(real) - delta0) < PROPERTY_O_TOL):
            spectrum = real.copy()
            spectrum[i] *= np.exp(1j * step / delta0)
            monkeypatch.setattr(spectral, "spectrum_closed_form", lambda params: spectrum)
            assert property_o_check(p)[2] == want
            assert top_on_roots_by_scan(spectrum, n, PROPERTY_O_TOL) == want

    def test_duplicated_top_eigenvalue(self, monkeypatch):
        p = GrassmannianParams(3, 7)
        spectrum = spectrum_closed_form(p)
        top = np.argmax(spectrum.real)
        spectrum[(top + 1) % p.rank] = spectrum[top]
        monkeypatch.setattr(spectral, "spectrum_closed_form", lambda params: spectrum)
        assert property_o_check(p)[0] == 2

    def test_small_sweep(self):
        for n in range(2, 11):
            for k in range(1, n):
                top, closed, on_roots = property_o_check(GrassmannianParams(k, n))
                assert top == 1 and closed and on_roots


class TestSpectralReport:
    def test_gr24_agreement(self):
        r = spectral_report(GrassmannianParams(2, 4))
        for v in (r.delta0_matrix, r.delta0_schur, r.delta0_sine, r.delta0_cosine):
            assert abs(v - 4 * np.sqrt(2)) < 1e-8

    def test_gr15_exact(self):
        r = spectral_report(GrassmannianParams(1, 5))
        assert abs(r.delta0_sine - 5.0) < 1e-9
        assert abs(r.delta0_matrix - 5.0) < 1e-8

    def test_gr36(self):
        r = spectral_report(GrassmannianParams(3, 6))
        assert abs(r.delta0_matrix - 12.0) < 1e-8
        assert r.top_multiplicity == 1
        assert r.max_eigen_residual < 1e-8

    def test_gr612_residual(self):
        assert spectral_report(GrassmannianParams(6, 12)).max_eigen_residual < 1e-8

    def test_duality_of_delta0(self):
        for n in range(2, 13):
            for k in range(1, n):
                a = delta0_sine(k, float(n))
                b = delta0_sine(n - k, float(n))
                assert abs(a - b) < 1e-10
