"""Schur polynomial evaluation at tuples of roots of unity.

Index tuples are stored in doubled form: an index set element
I = (i_1 < ... < i_k) with i_j integers (k odd) or half-integers (k even) is
kept as the tuple of exact integers d_j = 2*i_j.  Complex numbers appear
only at evaluation time.

Two independent evaluators are kept: Jacobi-Trudi determinants
(schur_eval, schur_values_box), one masked assembly over a table of complete
homogeneous polynomials, which serve the Schur route and the tests, and the
bialternant numerators behind rietsch_eigenvector, the k x k minors of the
matrix (z_i^c).  Indices and box partitions are both k-subsets of n ring
sites under one rotation (every doubled exponent +2, wrapping past 2n-k-1
by -2n; every site one on), so one lex table of k-subsets (_index_table)
holds the index set, its rotation and each orbit's start for both.  Per
orbit of indices one stacked determinant over the first members of the
partitions' orbits gives the minors; the rest follow by exact phases: the
orbit's other eigenvectors are its first one times zeta^{-m |lam|}, zeta =
e^{2 pi i / n}, and a partition's other minors its first one times
(prod z)^m.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .combinatorics import (GrassmannianParams, Partition, enumerate_partitions,
                            k_subsets, lex_rotation, ring_states)

SpectralIndex = tuple[int, ...]  # doubled exponents, strictly increasing


def enumerate_indices(params: GrassmannianParams) -> list[SpectralIndex]:
    """All normalized exponent tuples, lexicographically, count = rank.

    Doubled values run over -(k-1), -(k-1)+2, ..., 2n-(k+1): exactly n
    candidates of the correct parity, from which k distinct are chosen.
    """
    subsets = _index_table(params)[0]
    return list(zip(*(2 * subsets.T - (params.k - 1)).tolist()))


@lru_cache(maxsize=1)
def _index_table(params: GrassmannianParams):
    """(subsets, rotation, start, m) per index, in lex order: its pool
    positions a = (d + k - 1)/2, the position of I+ (every particle one site
    on around the ring), the position of its orbit's lex-least member R and
    the least m with I = R rotated m times.  A running minimum over I rotated
    j = 1..n times: R rotated n - j times is I, so the last tie is least m."""
    n = params.n
    subsets = k_subsets(n, params.k)
    rotation = lex_rotation(subsets[:, -1] == n - 1)
    start = pos = np.arange(params.rank)
    m = np.zeros(params.rank, dtype=np.intp)
    for j in range(1, n + 1):
        pos = rotation[pos]
        least = pos <= start
        start = np.where(least, pos, start)
        m[least] = n - j
    return subsets, rotation, start, m


def central_index(params: GrassmannianParams) -> SpectralIndex:
    """The symmetric tuple (-(k-1)/2, ..., (k-1)/2), doubled."""
    k = params.k
    return tuple(range(-(k - 1), k - 1 + 1, 2))


def roots_tuple(I: SpectralIndex, params: GrassmannianParams) -> np.ndarray:
    """The k-tuple (e^{i pi d_j / n})_j of n-th roots of (-1)^{k+1}.

    A stack of indices (shape (m, k)) gives the stack of tuples.
    """
    d = np.asarray(I, dtype=float)
    return np.exp(1j * np.pi * d / params.n)


def homogeneous_table(x, m_max: int) -> np.ndarray:
    """h_0, ..., h_{m_max} evaluated at x via Newton's identity
    m*h_m = sum_{j=1..m} p_j h_{m-j}, with the power sums p_j."""
    x = np.asarray(x, dtype=complex)
    p = np.array([np.sum(x ** j) for j in range(1, m_max + 1)])
    h = np.zeros(m_max + 1, dtype=complex)
    h[0] = 1.0
    for m in range(1, m_max + 1):
        h[m] = np.dot(p[:m], h[m - 1::-1]) / m
    return h


def _jt_exponents(lams: np.ndarray) -> np.ndarray:
    """Jacobi-Trudi exponents lam_r - r + c over the last axis: partitions
    of shape (..., k) give (..., k, k); negative entries mark vanishing h's."""
    k = lams.shape[-1]
    return lams[..., :, None] - np.arange(k)[:, None] + np.arange(k)


def _jacobi_trudi(E: np.ndarray, x) -> np.ndarray:
    """det(h_E) at the point x for a stack of exponent matrices E."""
    h = homogeneous_table(x, int(E.max()))
    return np.linalg.det(np.where(E >= 0, h[np.maximum(E, 0)], 0.0))


def schur_eval(lam: Partition, x) -> complex:
    """Jacobi-Trudi determinant det(h_{lam_r - r + c}) at the point x."""
    if len(lam) != len(x):
        raise ValueError("partition length must match tuple length")
    return complex(_jacobi_trudi(_jt_exponents(np.array(lam)), x))


@lru_cache(maxsize=64)
def _box_exponents(params: GrassmannianParams) -> np.ndarray:
    """Stacked Jacobi-Trudi exponents over all box partitions, (rank, k, k)."""
    return _jt_exponents(np.array(enumerate_partitions(params)))


def schur_values_box(params: GrassmannianParams, x) -> np.ndarray:
    """Schur values at the point x for every box partition, canonical order:
    one stacked Jacobi-Trudi determinant, exponents cached per instance."""
    return _jacobi_trudi(_box_exponents(params), x)


@lru_cache(maxsize=1)
def _vertex_tables(params: GrassmannianParams):
    """Tables of the determinants behind rietsch_eigenvector.

    Returns (columns, orbit, turns, weights, phases).  The vertices, box
    partitions lam at their sites S = {lam_j + k - j}, are k-subsets of the
    n ring sites under the same rotation as the indices, so _index_table
    holds their orbits too: columns lists the sites of each orbit's lex-least
    member (for k > n/2 the n-k empty sites, complement reversing lex order),
    and the box partition at canonical position c is the member of row
    orbit[c] rotated turns[c] times.  weights holds the exact integer
    |lam| = sum S - k(k-1)/2 of each box partition and phases[m, g] =
    zeta^{-m g}, zeta = e^{2 pi i / n}, read from the n powers at the
    integer m g mod n: row m takes each grade |lam| = g of an orbit's first
    eigenvector to its m-th rotation.
    """
    k, n = params.k, params.n
    subsets, _, start, m = _index_table(params)
    states, lex = ring_states(params)
    reps = np.flatnonzero(start == np.arange(params.rank))
    columns = (k_subsets(n, n - k)[params.rank - 1 - reps] if 2 * k > n
               else subsets[reps])
    orbit = np.searchsorted(reps, start[lex])
    weights = states.sum(axis=1) - k * (k - 1) // 2
    phases = np.exp(-2j * np.pi * np.arange(n) / n)[
        np.outer(np.arange(n), np.arange(params.dim + 1)) % n]
    return columns, orbit, m[lex], weights, phases


def rietsch_eigenvector(I: SpectralIndex, params: GrassmannianParams) -> np.ndarray:
    """Coordinate vector of the eigenbasis element labeled by I: the
    conjugated Schur values over all box partitions in canonical order.

    The vector is computed once per rotation orbit (_orbit_vector, at the
    orbit's lex-least member R) and reached from there by an exact phase:
    if I is R rotated m times, v_I = zeta^{-m |lam|} * v_R coordinate by
    coordinate, zeta = e^{2 pi i / n}.  One rotation multiplies every root
    z_i by zeta (the wrap by -2n is a full turn), so the homogeneous
    s_lam(z) gains zeta^{|lam|}, conjugated here.  The phase is read from a
    per-grade table of the n powers of zeta^{-1} at the integer m|lam| mod
    n (_vertex_tables), so no error accumulates along the orbit.  R and m
    are read from _index_table at I's lex position (lex_rank's comb sum);
    ValueError unless I is a strictly increasing k-tuple from the pool.
    """
    k, n = params.k, params.n
    pool = range(-(k - 1), 2 * n - k, 2)
    if len(I) != k or any(d not in pool for d in I) or any(
            a >= b for a, b in zip(I, I[1:])):
        raise ValueError(f"{I} is not a strictly increasing {k}-tuple from {pool}")
    pos = params.rank - 1 - sum(comb(n - 1 - (d + k - 1) // 2, k - i)
                                for i, d in enumerate(I))
    _, _, start, m = _index_table(params)
    *_, weights, phases = _vertex_tables(params)
    v = _orbit_vector(int(start[pos]), params)
    return phases[m[pos]].take(weights) * v


@lru_cache(maxsize=1)
def _orbit_vector(pos: int, params: GrassmannianParams) -> np.ndarray:
    """rietsch_eigenvector at the index I of lex position pos by the
    bialternant, read-only and cached for the rest of I's orbit in a walk.

    s_lam(z) is the bialternant det(z_i^{s_j}) / det(z_i^{j-1}) over the
    sorted sites S of lam, z = zeta^I.  Rotating S one site on multiplies
    the numerator by prod z exactly: the wrapped column gains z^n =
    (-1)^{k-1} and passes k-1 columns.  So one stacked determinant over
    the vertex orbits' first members (_vertex_tables) gives every
    numerator, times (prod z)^turns read at the integer turns * sum d mod
    2n, and they are divided by the empty partition's, the Vandermonde.
    For k > n/2 the determinants run on the n-k complementary roots
    instead, so none exceeds min(k, n-k) rows: the n x n matrix (w_a^c)
    over all n candidate roots w_a is sqrt(n) times a unitary (a twisted
    DFT), so by Jacobi's complementary-minor identity minor(I, S) is, up to
    a factor fixed by I, (-1)^{sum S} conj(minor(I^c, S^c)).  The roots are
    conjugated and negated, -conj(w) = zeta^{(n - d)/2}: the negation turns
    (-1)^{sum S} into a factor fixed by I and cancels the (-1)^n each wrap
    of the n-k complementary columns would add.
    """
    columns, orbit, turns, _, _ = _vertex_tables(params)
    k, n = params.k, params.n
    sites = _index_table(params)[0][pos]
    d = (n + k - 1 - 2 * np.setdiff1d(np.arange(n), sites) if 2 * k > n
         else 2 * sites - (k - 1))
    unit = np.exp(1j * np.pi * np.arange(2 * n) / n)
    # z_i^c at c d_i mod 2n, so large n loses no accuracy; row c of powers
    # is site c, so powers[columns] stacks the transposed minors
    powers = unit.take(np.outer(np.arange(n), d) % (2 * n))
    minors = np.linalg.det(powers[columns])
    v = unit.take(turns * d.sum() % (2 * n)) * minors.take(orbit)
    v = np.conj(v / v[0])
    v.flags.writeable = False
    return v
