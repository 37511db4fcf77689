import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chevalley import galkin
from chevalley.combinatorics import GrassmannianParams
from oracles import (concavity_monotonicity_by_two_grids,
                     forward_differences_by_two_grids, fk_second_difference,
                     second_proof_lemma_by_grid, second_proof_margin)
from chevalley.galkin import (check_boundary_equality, check_concavity_monotonicity,
                              check_k2_inequality, check_limit,
                              delta0_cosine_sum, delta0_sine, fk,
                              fk_second_derivative, fk_table,
                              second_proof_margins, verify_galkin, _grid,
                              _grid_count)

LEMMA_STEPS = [0.01, 0.37, 2.5, 1e9]  # 1e9: the one-point grid x = 3

RNG = np.random.default_rng(7)


class TestClosedForms:
    def test_sine_examples(self):
        assert abs(delta0_sine(1, 9.0) - 9.0) < 1e-12
        assert abs(delta0_sine(2, 4.0) - 4 * math.sqrt(2)) < 1e-12
        assert abs(delta0_sine(3, 6.0) - 12.0) < 1e-12

    def test_cosine_examples(self):
        assert delta0_cosine_sum(1, 7.5) == 7.5
        assert abs(delta0_cosine_sum(2, 3.0) - 3.0) < 1e-12
        assert abs(delta0_cosine_sum(4, 6.0) - 6 * math.sqrt(3)) < 1e-12

    def test_sine_equals_cosine_at_integers(self):
        for n in range(2, 61):
            for k in range(1, n):
                assert abs(delta0_cosine_sum(k, float(n))
                           - delta0_sine(k, float(n))) < 1e-10

    @given(st.integers(1, 12), st.floats(2.0, 500.0))
    @settings(max_examples=100, deadline=None)
    def test_sine_equals_cosine_at_reals(self, k, x):
        # the Dirichlet-kernel identity holds for real arguments too
        assert abs(delta0_cosine_sum(k, x) - delta0_sine(k, x)) \
            < 1e-10 * max(1.0, abs(delta0_sine(k, x)))

    def test_sine_duality_is_exact(self):
        for n in range(2, 201):
            for k in range(1, n):
                assert delta0_sine(n - k, float(n)) == delta0_sine(k, float(n))

    def test_projective_margin_matches_dual(self):
        # x * (sin(pi/x) / sin(pi/x)) is x exactly; x*sin(pi/x)/sin(pi/x)
        # rounded off x at n = 3, 26, 110, 122, 125
        for n in range(2, 201):
            assert verify_galkin(GrassmannianParams(n - 1, n)).margin == 0.0
            assert verify_galkin(GrassmannianParams(1, n)).margin == 0.0
        assert verify_galkin(GrassmannianParams(11, 12)).margin == 0.0

    def test_sine_accurate_for_every_small_instance(self):
        # measured worst case 4.4e-16 relative (Gr(k,n) and Gr(n-k,n) agree)
        with mpmath.workdps(40):
            for n in range(2, 201):
                for k in range(1, n // 2 + 1):
                    want = float(n * mpmath.sinpi(mpmath.mpf(k) / n)
                                 / mpmath.sinpi(mpmath.mpf(1) / n))
                    assert abs(delta0_sine(k, float(n)) - want) <= 6e-16 * want

    @pytest.mark.parametrize("n", [12, 30, 101, 198])
    def test_sine_accurate_for_k_near_n(self, n):
        # sin near pi loses relative accuracy: Gr(197,198) was 3.2e-14 off
        with mpmath.workdps(40):
            for k in range(n // 2, n):
                want = float(n * mpmath.sinpi(mpmath.mpf(k) / n)
                             / mpmath.sinpi(mpmath.mpf(1) / n))
                assert abs(delta0_sine(k, float(n)) - want) <= 1e-15 * want


class TestFk:
    def test_paper_values(self):
        for x in range(2, 51):
            assert abs(fk(1, float(x))) < 1e-9
        assert abs(fk(2, 3.0)) < 1e-9
        assert abs(fk(3, 4.0)) < 1e-9
        assert abs(fk(4, 6.0) - (6 * math.sqrt(3) - 9)) < 1e-9

    def test_second_derivative_trivial(self):
        assert fk_second_derivative(1, 5.0) == 0.0

    def test_second_derivative_k2(self):
        # F''(x) = -2 pi^2/x^3 cos(pi/x) for k=2
        x = 4.0
        want = -2 * math.pi ** 2 / 64 * math.cos(math.pi / 4)
        assert abs(fk_second_derivative(2, x) - want) < 1e-12

    def test_second_derivative_vs_finite_difference(self):
        for _ in range(50):
            k = int(RNG.integers(2, 11))
            x = float(RNG.uniform(2 * (k - 1) + 0.5, 100.0))
            assert abs(fk_second_derivative(k, x)
                       - fk_second_difference(k, x)) < 1e-5

    def test_second_derivative_k4_x6(self):
        assert abs(fk_second_derivative(4, 6.0)
                   - fk_second_difference(4, 6.0)) < 1e-6


class TestVerify:
    def test_projective_space_equality(self):
        r = verify_galkin(GrassmannianParams(1, 7))
        assert r.verdict == "holds_equality"
        assert r.is_projective_space
        assert abs(r.margin) < 1e-12

    def test_gr24_strict(self):
        r = verify_galkin(GrassmannianParams(2, 4))
        assert r.verdict == "holds_strict"
        assert abs(r.margin - (4 * math.sqrt(2) - 5)) < 1e-9

    def test_gr25_strict(self):
        r = verify_galkin(GrassmannianParams(2, 5))
        assert abs(r.margin - (5 * (1 + math.sqrt(5)) / 2 - 7)) < 1e-9

    def test_desk_scale_theorem(self):
        for n in range(2, 61):
            for k in range(1, n):
                r = verify_galkin(GrassmannianParams(k, n))
                assert r.margin >= -1e-9
                assert r.equality == (k in (1, n - 1))
                assert r.verdict == ("holds_equality" if r.equality else "holds_strict")

    def test_equality_off_projective_space_is_a_violation(self, monkeypatch):
        monkeypatch.setattr(galkin, "TAU_NUM", 1.0)  # Gr(2,4)'s margin 0.66 reads as 0
        r = verify_galkin(GrassmannianParams(2, 4))
        assert r.equality and not r.is_projective_space
        assert r.verdict == "VIOLATION"

    def test_missed_equality_on_projective_space_is_a_violation(self, monkeypatch):
        monkeypatch.setattr(galkin, "delta0_sine", lambda k, x: x * (1 + 1e-6))
        r = verify_galkin(GrassmannianParams(1, 7))
        assert r.margin > 0 and not r.equality and r.is_projective_space
        assert r.verdict == "VIOLATION"

    @pytest.mark.parametrize("k,n", [(1, 7), (2, 4), (3, 7)])
    def test_nan_delta0_is_a_violation(self, k, n, monkeypatch):
        # every comparison with NaN is false: a gate written as its failing
        # condition would let it through as holds_strict
        monkeypatch.setattr(galkin, "delta0_sine", lambda k, x: float("nan"))
        r = verify_galkin(GrassmannianParams(k, n))
        assert math.isnan(r.margin) and not r.equality
        assert r.verdict == "VIOLATION"

    def test_reduction_preserves_report(self):
        for n in range(2, 30):
            for k in range(1, n):
                p = GrassmannianParams(k, n)
                q = p if p.k <= p.n - p.k else p.dual()
                assert q.k <= q.n // 2 or q.n - q.k == q.k
                ra, rb = verify_galkin(p), verify_galkin(q)
                assert abs(ra.delta0 - rb.delta0) < 1e-10
                assert ra.bound == rb.bound


class TestLemmaChecks:
    def test_boundary_equality(self):
        assert check_boundary_equality(3) < 1e-12
        for k in range(3, 13):
            assert check_boundary_equality(k) < 1e-9
        with pytest.raises(ValueError):
            check_boundary_equality(2)

    def test_limits(self):
        assert check_limit(1)
        for k in range(2, 13):
            assert check_limit(k)

    def test_concavity_monotonicity(self):
        for k in range(2, 13):
            assert check_concavity_monotonicity(k)

    @pytest.mark.parametrize("step", [0.1, 0.05])
    def test_monotonicity_matches_the_two_grid_oracle(self, monkeypatch, step):
        # the forward differences of the check's one F^k evaluation against
        # F^k on the grid moved by step; then the verdicts, also with F^k
        # tilted until the oracle's least difference is 2 TAU_NUM either side
        # of the bound
        real, tau = galkin.fk, galkin.TAU_NUM
        for k in range(2, 13):
            seen = []
            monkeypatch.setattr(galkin, "fk",
                                lambda k, x: seen.append(real(k, x)) or seen[-1])
            assert check_concavity_monotonicity(k, 100.0, step)
            monkeypatch.setattr(galkin, "fk", real)
            (values,) = seen
            want = forward_differences_by_two_grids(k, 100.0, step)
            assert np.abs(np.diff(values) - want).max() < 1e-12
            assert concavity_monotonicity_by_two_grids(k, 100.0, step)
            for side in (1, -1):
                c = (want.min() + tau - 2 * side * tau) / step
                monkeypatch.setattr(galkin, "fk", lambda k, x: real(k, x) - c * x)
                verdict = concavity_monotonicity_by_two_grids(k, 100.0, step)
                assert verdict == (side == 1), (k, side)
                assert check_concavity_monotonicity(k, 100.0, step) == verdict, (k, side)

    def test_concavity_monotonicity_evaluates_fk_once(self, monkeypatch):
        # one array-valued F^k per k: the grid and one point past its end
        real, calls = galkin.fk, []
        monkeypatch.setattr(galkin, "fk",
                            lambda k, x: calls.append(np.ndim(x)) or real(k, x))
        for k in range(2, 13):
            assert check_concavity_monotonicity(k)
        assert calls == [1] * 11

    def test_concavity_monotonicity_on_an_empty_grid_raises(self):
        # the grid starts at 2(k-1) + step, past x_max here; np.all([]) once
        # passed both checks
        with pytest.raises(ValueError, match="empty grid range"):
            check_concavity_monotonicity(60)
        with pytest.raises(ValueError, match="empty grid range"):
            check_concavity_monotonicity(2, x_max=1.0)

    def test_second_proof_lemma(self):
        margins = second_proof_margins([6, 12, 20, 60], 0.01)
        assert len(margins) == 4 and min(margins) >= -galkin.TAU_NUM
        with pytest.raises(ValueError):
            second_proof_margins([5], 0.01)
        with pytest.raises(ValueError):
            second_proof_margins([6, 7, 5], 0.01)
        assert second_proof_margins([], 0.01) == []

    @pytest.mark.parametrize("step", LEMMA_STEPS)
    def test_second_proof_lemma_matches_the_pointwise_oracle(self, step):
        ns = range(6, 401)
        for n, m in zip(ns, second_proof_margins(ns, step)):
            assert (m >= -galkin.TAU_NUM) == second_proof_lemma_by_grid(n, step), n

    @pytest.mark.parametrize("step", LEMMA_STEPS)
    def test_second_proof_margins_match_the_per_n_oracle_bitwise(self, step):
        ns = range(6, 401)
        want = np.array([second_proof_margin(n, step) for n in ns]).tobytes()
        assert np.array(second_proof_margins(ns, step)).tobytes() == want

    def test_second_proof_margins_take_n_in_any_order(self):
        ns = [400, 6, 77, 77, 13]
        want = [second_proof_margin(n, 0.01) for n in ns]
        assert second_proof_margins(ns, 0.01) == want
        # n*n past int64 rounds as the per-n Python int does, without wrapping
        n = 4_000_000_000
        assert second_proof_margins([n], 1e9) == [second_proof_margin(n, 1e9)]

    @pytest.mark.parametrize("step", LEMMA_STEPS)
    def test_second_proof_margins_do_not_depend_on_the_chunk(self, monkeypatch, step):
        ns = range(6, 401)
        chunked = np.array(second_proof_margins(ns, step)).tobytes()
        monkeypatch.setattr(galkin, "_CHUNK", 1)
        assert np.array(second_proof_margins(ns, step)).tobytes() == chunked

    def test_second_proof_lemma_fails_where_the_oracle_does(self, monkeypatch):
        # TAU_NUM = -5 asks every grid point for a margin of at least 5, which
        # some n in 6..99 have and others lack; no n has a margin of 8.5
        ns = range(6, 100)
        margins = second_proof_margins(ns, 0.01)
        monkeypatch.setattr(galkin, "TAU_NUM", -5.0)
        passing = {n for n, m in zip(ns, margins) if m >= -galkin.TAU_NUM}
        assert passing == {n for n in ns if second_proof_lemma_by_grid(n, 0.01)}
        assert 0 < len(passing) < len(ns)
        monkeypatch.setattr(galkin, "TAU_NUM", -8.5)
        assert not any(m >= -galkin.TAU_NUM for m in margins)

    @pytest.mark.parametrize("step", LEMMA_STEPS[:3])
    def test_second_proof_lemma_brackets_the_least_margin(self, step):
        # m is the pointwise least margin; the block's least margin, the same
        # points summed in another order, lies within 1e-8 below or above it
        ns = range(6, 401)
        for n, margin in zip(ns, second_proof_margins(ns, step)):
            x = _grid(3.0, n / 2, step)
            m = float(np.min(delta0_sine(x, n) - x * (n - x) - 1.0))
            assert m - 1e-8 <= margin < m + 1e-8, n

    def test_second_proof_lemma_takes_sqrt_count_sines(self, monkeypatch):
        # 19 701 points at n = 400 in a 140 x 141 block: sin and cos of each
        # row and column angle, and sin(pi/n); a chunk of n makes three calls
        sizes = []
        for name in ("sin", "cos"):
            f = getattr(galkin, name)
            monkeypatch.setattr(galkin, name,
                                lambda x, f=f: sizes.append(np.size(x)) or f(x))
        assert second_proof_margins([400], 0.01)[0] >= -galkin.TAU_NUM
        assert sum(sizes) == 2 * (140 + 141) + 1
        sizes.clear()
        ns = range(6, 401)
        second_proof_margins(ns, 0.01)
        counts = [_grid_count(3.0, n / 2, 0.01) for n in ns]
        widths = [math.isqrt(count - 1) + 1 for count in counts]
        assert sum(sizes) == sum(2 * (-(-count // w) + w) + 1
                                 for count, w in zip(counts, widths))
        assert len(sizes) == 3 * -(-len(ns) // galkin._CHUNK)

    @staticmethod
    def _traced_peak(ns):
        second_proof_margins(ns, 0.01)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert min(second_proof_margins(ns, 0.01)) >= -galkin.TAU_NUM
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_second_proof_lemma_makes_no_grid_sized_temporaries(self):
        # at n = 400 the 140 x 141 margin block is the one grid-sized array;
        # x or the bound as a 19 701-point array would add 157 608 B each
        peak = self._traced_peak([400])
        assert peak <= 140 * 141 * 8 + 32 * 1024, peak

    def test_second_proof_margins_of_a_pass_stay_small(self):
        # one margin block at a time, beside one chunk's angle vector and factors
        peak = self._traced_peak(range(6, 401))
        assert peak <= 512 * 1024, peak

    @pytest.mark.parametrize("step", LEMMA_STEPS)
    def test_grid_count_is_the_grid_length(self, step):
        for n in range(6, 61):
            assert _grid_count(3.0, n / 2, step) == len(_grid(3.0, n / 2, step))

    def test_lemma_grid_reaches_n_over_2(self):
        for n in range(6, 401):
            x = _grid(3.0, n / 2, 0.01)
            assert len(x) == round((n / 2 - 3.0) / 0.01) + 1
            assert abs(x[-1] - n / 2) < 1e-9

    def test_k2_inequality(self):
        assert check_k2_inequality(4)
        assert check_k2_inequality(100)
        ns = np.arange(4, 10_001)
        assert np.all(2 * ns * np.cos(np.pi / ns) >= 2 * ns - 3 - 1e-9)
        # the paper's intermediate bound at n=4
        assert 8 - math.pi ** 2 / 4 > 5


class TestFkTable:
    def test_rows(self):
        rows = fk_table(2, 3.0, 100.0, 1.0)
        assert len(rows) == 98
        assert rows[0][0] == 3.0 and abs(rows[0][1]) < 1e-9

    def test_single_row_k4(self):
        rows = fk_table(4, 6.0, 6.0, 1.0)
        assert len(rows) == 1
        assert abs(rows[0][1] - 1.392304845413264) < 1e-9

    def test_k1_all_zero(self):
        assert all(abs(f) < 1e-9 for _, f in fk_table(1, 2.0, 5.0, 1.0))

    def test_bad_range(self):
        with pytest.raises(ValueError):
            fk_table(2, -1.0, 5.0, 1.0)
        with pytest.raises(ValueError):
            fk_table(2, 10.0, 5.0, 1.0)

    def test_endpoint_included(self):
        rows = fk_table(2, 3.0, 24.5, 0.01)
        assert len(rows) == 2151
        assert rows[-1][0] == 24.5

    def test_integer_indexed_x(self):
        xs = [x for x, _ in fk_table(4, 6.1, 100.0, 0.1)]
        assert xs == [6.1 + 0.1 * i for i in range(len(xs))]
        assert len(xs) == 940
