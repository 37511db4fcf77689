"""Closed-form delta0 formulas, the gap functions F^k, and the numeric
checks behind both proofs of the lower bound.

delta0 for Gr(k,n) has two closed forms: the sine ratio n*sin(pi k/n)/sin(pi/n)
and an even/odd cosine sum.  F^k(x) = delta0^k(x) - k(x-k) - 1 measures the
gap over the bound dim+1; its nonnegativity at integer points is the bound.
These formulas apply elementwise to numpy arrays, so each grid-sampled lemma
check is one comparison over an integer-indexed grid; the second-proof lemma's
grid is a (rows, width) block whose margins are one rank-5 matrix product,
the factors of consecutive n filled in chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np
from numpy import cos, pi, sin

from .combinatorics import GrassmannianParams

TAU_NUM = 1e-9  # slack for grid-sampled inequality checks
_CHUNK = 10  # n per second-proof chunk: at step 0.01 no chunk array tops ~128 KB


def _grid_count(lo: float, hi: float, step: float) -> int:
    if (count := np.floor((hi - lo) / step + 1e-9) + 1) > 2 ** 53:  # beyond memory
        raise MemoryError(f"a grid of {count:.3g} points does not fit in memory")
    if count < 1:
        raise ValueError("empty grid range")
    return int(count)


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo + i*step for i = 0 .. floor((hi - lo)/step), indexed so no sum drifts."""
    return lo + step * np.arange(_grid_count(lo, hi, step))


def delta0_sine(k: int, x: float) -> float:
    """x * (sin(pi m / x) / sin(pi / x)) with m = min(k, x - k), real x: no
    angle near pi, where float sin loses relative accuracy, and exactly x for
    m = 1.  Accurate for x up to ~1e12 (sin(pi/x) underflows)."""
    return x * (sin(pi * np.minimum(k, x - k) / x) / sin(pi / x))


def _cosine_terms(k: int, x: float) -> float:
    return sum(cos((k - 2 * j + 1) * pi / x) for j in range(1, k // 2 + 1))


def delta0_cosine_sum(k: int, x: float) -> float:
    """Even k: 2x * sum_j cos((k-2j+1) pi / x); odd k gains a leading x."""
    s = 2.0 * x * _cosine_terms(k, x)
    return s if k % 2 == 0 else x + s


def fk(k: int, x: float) -> float:
    """Gap over the bound: delta0^k(x) - k(x-k) - 1."""
    return delta0_cosine_sum(k, x) - k * (x - k) - 1.0


def fk_second_derivative(k: int, x: float) -> float:
    """d^2/dx^2 of fk.  Each cosine term 2x*cos(a pi/x) contributes
    -2 a^2 pi^2 / x^3 * cos(a pi / x); the linear parts vanish."""
    return -sum(2.0 * (k - 2 * j + 1) ** 2 * pi ** 2 / x ** 3
                * cos((k - 2 * j + 1) * pi / x)
                for j in range(1, k // 2 + 1))


HOLDS = ("holds_strict", "holds_equality")  # the passing verdicts


@dataclass(frozen=True)
class GalkinReport:
    delta0: float
    bound: float
    margin: float
    equality: bool
    is_projective_space: bool
    verdict: str  # one of HOLDS, or VIOLATION


def verify_galkin(params: GrassmannianParams) -> GalkinReport:
    """Check delta0 >= dim + 1 with equality exactly on P^{n-1}, equality
    detected to TAU_NUM relative: VIOLATION below the bound, or on equality
    off P^{n-1} or missed on it."""
    k, n = params.k, params.n
    delta0 = float(delta0_sine(k, float(n)))
    bound = float(k * (n - k) + 1)
    margin = delta0 - bound
    eq_tol = TAU_NUM * max(1.0, bound)
    equality = abs(margin) <= eq_tol
    is_pn = k == 1 or k == n - 1
    holds = margin >= -eq_tol and equality == is_pn  # so NaN fails
    verdict = ("holds_equality" if equality else "holds_strict") if holds else "VIOLATION"
    return GalkinReport(delta0, bound, margin, equality, is_pn, verdict)


def second_proof_margins(ns, grid_step: float) -> list[float]:
    """Least margin delta0(x) - x(n-x) - 1 over _grid(3, n/2) of each n in ns
    (n >= 6); the lemma holds up to rounding where it is >= -TAU_NUM.  The grid
    of n is a (rows, width) block whose margin delta0 + (x-n/2)^2 - n^2/4 - 1 at
    x = head[q] + tail[r] is (left @ right)[q, r].  A chunk of _CHUNK n fills its
    factors from one sin and one cos of one angle vector (heads, then tails), each
    entry as for its n alone; each n then takes one product of its slices."""
    margins = []
    for lo in range(0, len(ns), _CHUNK):
        if (n := np.array(ns[lo:lo + _CHUNK], float)).min() < 6:  # n*n cannot wrap
            raise ValueError("lemma requires n >= 6")
        count = [_grid_count(3.0, m / 2, grid_step) for m in n.tolist()]
        width = np.array([isqrt(c - 1) + 1 for c in count])
        rows = -(-np.array(count) // width)
        sizes = np.concatenate([rows, width])  # every head, then every tail
        starts, h = np.cumsum(sizes) - sizes, rows.sum()
        t = np.arange(sizes.sum(), dtype=float) - np.repeat(starts, sizes)  # q; r
        t *= np.repeat(np.concatenate([grid_step * width, [grid_step] * len(n)]), sizes)
        t[:h] += 3.0  # heads 3 + (step*width)*q; tails step*r
        s, c = sin(a := pi * t / np.repeat(np.tile(n, 2), sizes)), cos(a)
        e, scale = t[:h] - np.repeat(n / 2, rows), np.repeat(n / sin(pi / n), rows)
        left, right = np.empty((h, 5)), np.empty((5, t.size - h))
        left[:, 0], left[:, 1], left[:, 2], left[:, 3], left[:, 4] = (
            scale * s[:h], scale * c[:h], 2 * e, 1,
            e * e - np.repeat(n * n / 4, rows) - 1)
        right[0], right[1], right[2], right[3], right[4] = (
            c[h:], s[h:], t[h:], t[h:] * t[h:], 1)
        for q, b, r, w, k in zip(starts.tolist(), (starts[len(n):] - h).tolist(),
                                 rows.tolist(), width.tolist(), count):
            margins.append(float((left[q:q + r] @ right[:, b:b + w]).ravel()[:k].min()))
    return margins


def check_k2_inequality(n: int) -> bool:
    """2n cos(pi/n) >= 2n - 3, the k=2 reduction."""
    if n < 4:
        raise ValueError("requires n >= 4")
    return bool(2 * n * cos(pi / n) >= 2 * n - 3 - TAU_NUM)


def check_boundary_equality(k: int) -> float:
    """|F^k(2(k-1)) - F^{k-2}(2(k-1))|, which should vanish for k >= 3."""
    if k < 3:
        raise ValueError("requires k >= 3")
    x = 2.0 * (k - 1)
    return abs(fk(k, x) - fk(k - 2, x))


def check_limit(k: int) -> bool:
    """F^k(1e8) is within 1e-4 of the limit value k^2 - 1 as x -> inf."""
    return bool(abs(fk(k, 1e8) - (k * k - 1)) < 1e-4)


def check_concavity_monotonicity(k: int, x_max: float = 100.0,
                                 grid_step: float = 0.1) -> bool:
    """Sampled concavity and monotonicity of F^k on (2(k-1), x_max].

    At every grid point: second derivative below TAU_NUM and forward
    difference above -TAU_NUM, from one F^k evaluation over the grid and one
    point past its end.  The open left endpoint is excluded.
    """
    if k < 2:
        raise ValueError("requires k >= 2")
    lo = 2.0 * (k - 1) + grid_step
    x = lo + grid_step * np.arange(_grid_count(lo, x_max, grid_step) + 1)
    return bool(np.all(fk_second_derivative(k, x[:-1]) < TAU_NUM)
                and np.all(np.diff(fk(k, x)) > -TAU_NUM))


def fk_table(k: int, x_min: float, x_max: float,
             step: float) -> list[tuple[float, float]]:
    """Grid samples (x, F^k(x)) for CSV emission."""
    if x_min <= 0 or step <= 0:
        raise ValueError("need x_min > 0 and step > 0")
    x = _grid(x_min, x_max, step)
    return list(zip(x.tolist(), fk(k, x).tolist()))
