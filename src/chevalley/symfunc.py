"""Schur polynomial evaluation at tuples of roots of unity.

Index tuples are stored in doubled form: an index set element
I = (i_1 < ... < i_k) with i_j integers (k odd) or half-integers (k even) is
kept as the tuple of exact integers d_j = 2*i_j.  Complex numbers appear
only at evaluation time.

Two independent evaluators are kept: the Jacobi-Trudi determinant
(schur_eval, one masked assembly over a table of complete homogeneous
polynomials), which serves the Schur route, and the bialternant numerators
behind rietsch_eigenvector, the k x k minors of the matrix (z_i^c).
Indices and box partitions are both k-subsets of n ring sites under one
rotation (every doubled exponent +2, wrapping past 2n-k-1 by -2n; every
site one on), so one lex table of k-subsets (combinatorics.rotation_orbits)
holds the index set, its rotation and each orbit's start for both, and
_vertex_tables the rest (from it, ring_states and empty_sites).  Per orbit
of indices one stacked determinant over the first members of the partitions'
orbits gives the minors; the rest follow by exact phases: the orbit's other
eigenvectors are its first one times zeta^{-m |lam|}, zeta = e^{2 pi i / n},
and a partition's other minors its first one times (prod z)^m.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .combinatorics import (GrassmannianParams, Partition, empty_sites,
                            ring_states, rotation_orbits)

SpectralIndex = tuple[int, ...]  # doubled exponents, strictly increasing


def enumerate_indices(params: GrassmannianParams) -> list[SpectralIndex]:
    """All normalized exponent tuples, lexicographically, count = rank.

    Doubled values run over -(k-1), -(k-1)+2, ..., 2n-(k+1): exactly n
    candidates of the correct parity, from which k distinct are chosen.
    """
    subsets = rotation_orbits(params)[0]
    return list(zip(*(2 * subsets.T - (params.k - 1)).tolist()))


def central_index(params: GrassmannianParams) -> SpectralIndex:
    """The symmetric tuple (-(k-1)/2, ..., (k-1)/2), doubled."""
    return tuple(range(1 - params.k, params.k, 2))


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


def schur_eval(lam: Partition, x) -> complex:
    """Jacobi-Trudi determinant det(h_{lam_r - r + c}) at x, h_m = 0 for m < 0."""
    if len(lam) != len(x):
        raise ValueError("partition length must match tuple length")
    k = len(lam)
    E = np.array(lam)[:, None] - np.arange(k)[:, None] + np.arange(k)
    h = homogeneous_table(x, int(E.max()))
    return complex(np.linalg.det(np.where(E >= 0, h[np.maximum(E, 0)], 0.0)))


@lru_cache(maxsize=1)
def _vertex_tables(params: GrassmannianParams):
    """Tables of the determinants behind rietsch_eigenvector.

    Returns (columns, orbit, turns, row, m, grades, powers).  The vertices,
    box partitions lam at their sites S = {lam_j + k - j}, are k-subsets of
    the n ring sites under the same rotation as the indices, so rotation_orbits
    holds their orbits too: columns lists the sites of each orbit's lex-least
    member (for k > n/2 its n-k empty sites, from empty_sites; 8 min(k, n-k)
    B per orbit).  The k-subset of lex rank i, index or vertex, is row row[i]
    rotated m[i] times (rotation_orbits' m); orbit and turns are row and m at
    each vertex's lex rank (ring_states).  grades holds |lam| mod n, |lam| =
    sum S - k(k-1)/2; row, orbit, turns and grades take 8 B per vertex each.
    powers holds zeta^{-j}, zeta = e^{2 pi i / n}, for j < n: 16 B per ring site.
    """
    k, n = params.k, params.n
    subsets, _, start, m = rotation_orbits(params)
    states, lex = ring_states(params)
    reps = np.flatnonzero(start == np.arange(params.rank))
    columns = (empty_sites(n, k) if 2 * k > n else subsets)[reps]
    row = np.searchsorted(reps, start)
    grades = (states.sum(axis=1) - k * (k - 1) // 2) % n
    powers = np.exp(-2j * np.pi * np.arange(n) / n)
    return columns, row[lex], m[lex], row, m, grades, powers


def rietsch_eigenvector(I: SpectralIndex, params: GrassmannianParams) -> np.ndarray:
    """Coordinate vector of the eigenbasis element labeled by I: the
    conjugated Schur values over all box partitions in canonical order.

    The vector is computed once per rotation orbit (_orbit_vector, at the
    orbit's lex-least member R) and reached from there by an exact phase:
    if I is R rotated m times, v_I = zeta^{-m |lam|} * v_R coordinate by
    coordinate, zeta = e^{2 pi i / n}.  One rotation multiplies every root
    z_i by zeta (the wrap by -2n is a full turn), so the homogeneous
    s_lam(z) gains zeta^{|lam|}, conjugated here.  The phases are the n
    powers of zeta^{-1} (_vertex_tables) gathered at the integers m g mod n,
    g < n, and read at each grade |lam| mod n: no error accumulates along
    the orbit.  R and m are read from _vertex_tables at I's lex position,
    summed in the one pass that checks I: ValueError unless I is a strictly
    increasing k-tuple of ints from the pool -(k-1), -(k-1)+2, ..., 2n-k-1.
    """
    k, n = params.k, params.n
    pos, low = params.rank - 1, -k
    for i, d in enumerate(I if len(I) == k else [None]):  # other lengths fail on None
        if not (isinstance(d, (int, np.integer)) and low < d < 2 * n - k and (d + k) % 2):
            raise ValueError(f"{I} is not a strictly increasing {k}-tuple from "
                             f"{range(-(k - 1), 2 * n - k, 2)}")
        pos, low = pos - comb(n - 1 - (d + k - 1) // 2, k - i), d
    *_, row, m, grades, powers = _vertex_tables(params)
    v = _orbit_vector(int(row[pos]), params)
    return powers.take(m[pos] * np.arange(n) % n).take(grades) * v


@lru_cache(maxsize=1)
def _orbit_vector(row: int, params: GrassmannianParams) -> np.ndarray:
    """rietsch_eigenvector at the lex-least index I of orbit `row` by the
    bialternant, cached read-only for the rest of its orbit: 16 B per vertex.

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
    columns, orbit, turns, *_ = _vertex_tables(params)
    k, n, sites = params.k, params.n, columns[row]
    d = n + k - 1 - 2 * sites if 2 * k > n else 2 * sites - (k - 1)
    unit = np.exp(1j * np.pi * np.arange(2 * n) / n)
    # z_i^c at c d_i mod 2n, so large n loses no accuracy; row c of powers
    # is site c, so powers[columns] stacks the transposed minors
    powers = unit.take(np.outer(np.arange(n), d) % (2 * n))
    minors = np.linalg.det(powers[columns])
    v = unit.take(turns * d.sum() % (2 * n)) * minors.take(orbit)
    v = np.conj(v / v[0])
    v.flags.writeable = False
    return v
