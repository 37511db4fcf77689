import mpmath
import numpy as np
import pytest
import scipy.sparse as sp

from chevalley.combinatorics import GrassmannianParams
from chevalley.errors import IterationFailureError
from chevalley.galkin import delta0_sine
from chevalley import spectral, symfunc
from chevalley.spectral import (DEFAULT_MAX_ITER, DEFAULT_POWER_TOL,
                                _power_iteration, c1_operator,
                                eigen_residual, principal_eigenvalue,
                                property_o_check, spectral_report,
                                spectrum_closed_form)
from chevalley.symfunc import (_index_table, enumerate_indices,
                               rietsch_eigenvector, roots_tuple)

from oracles import multiset_invariant_under, shifted


def sorted_complex(values):
    return np.array(sorted(values, key=lambda z: (round(z.real, 8), round(z.imag, 8))))


class TestOperator:
    def test_gr12(self):
        m = c1_operator(GrassmannianParams(1, 2))
        assert m.toarray().tolist() == [[0.0, 2.0], [2.0, 0.0]]

    def test_gr24_entries(self):
        m = c1_operator(GrassmannianParams(2, 4))
        dense = m.toarray()
        assert dense.shape == (6, 6)
        assert np.count_nonzero(dense) == 8
        assert set(np.unique(dense)) == {0.0, 4.0}

    def test_gr25_entries(self):
        m = c1_operator(GrassmannianParams(2, 5))
        assert m.shape == (10, 10)
        assert np.count_nonzero(m.toarray()) == 15


    @pytest.mark.parametrize("k,n", [(6, 12), (2, 40), (5, 11)])
    def test_products_round_as_csr(self, k, n):
        # the gather sums each row's in-neighbours in increasing order from
        # +0, as scipy's CSR product does, so verify outputs stay
        # byte-identical; -0.0 entries (eigenvectors have them) included
        rng = np.random.default_rng(n)
        m = c1_operator(GrassmannianParams(k, n))
        csr = sp.csr_matrix(m.toarray())
        size = m.shape[0]
        for v in (rng.standard_normal(size),
                  rng.standard_normal(size) + 1j * rng.standard_normal(size)):
            v[rng.random(size) < 0.5] = -0.0
            assert (m @ v).tobytes() == (csr @ v).tobytes()


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

    def test_nonconvergence_raises(self):
        m = sp.csr_matrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        with pytest.raises(IterationFailureError) as info:
            _power_iteration(m, 1.0, 0.0, 5)
        assert info.value.last_vector is not None

    def test_no_products_allowed_raises(self):
        m = c1_operator(GrassmannianParams(2, 5))
        with pytest.raises(IterationFailureError) as info:
            _power_iteration(m, 5.0, DEFAULT_POWER_TOL, 0)
        assert info.value.iterations == 0


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
        try:
            value, products, (lo, hi) = _power_iteration(
                m, float(n), DEFAULT_POWER_TOL, DEFAULT_MAX_ITER)
        except IterationFailureError:
            return
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

    @pytest.mark.parametrize("I", [(0, 2), (-1, 1, 3), (1, 1), (9, 11),
                                   (1, -1), (7, 9)])
    def test_rejects_a_tuple_that_is_not_an_index(self, I):
        p = GrassmannianParams(2, 5)
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


class TestOrbitWalk:
    def test_every_index_once_in_lex_order(self):
        for n in range(2, 11):
            for k in range(1, n):
                p = GrassmannianParams(k, n)
                op = c1_operator(p)
                want = [eigen_residual(I, p, op) for I in enumerate_indices(p)]
                got = spectral_report(p).eigen_residuals
                assert len(got) == p.rank
                assert np.max(np.abs(got - want)) <= 1e-13

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
                rot = _index_table(p)[1]
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
