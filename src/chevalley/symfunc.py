"""Schur polynomial evaluation at tuples of roots of unity.

Index tuples are stored in doubled form: an index set element
I = (i_1 < ... < i_k) with i_j integers (k odd) or half-integers (k even) is
kept as the tuple of exact integers d_j = 2*i_j.  Complex numbers appear
only at evaluation time.

Two independent evaluators are kept: Jacobi-Trudi determinants
(schur_eval, schur_values_box), one masked assembly over a table of complete
homogeneous polynomials, which serve the Schur route and the tests, and the
bialternant numerators behind rietsch_eigenvector, the k x k minors of the
matrix (z_i^c) computed by Laplace expansion.  That expansion runs once per
orbit of the ring rotation I -> I+ (every doubled exponent +2, wrapping past
2n-k-1 by -2n): the orbit's other eigenvectors are its first one times the
exact phases zeta^{-m |lam|}, zeta = e^{2 pi i / n}.  The index set, its
rotation and each orbit's start are one lex table of k-subsets (_index_table).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .combinatorics import (GrassmannianParams, Partition, enumerate_partitions,
                            k_subsets, lex_rank, lex_rotation, ring_states)

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


@lru_cache(maxsize=64)
def _minor_tables(params: GrassmannianParams):
    """Index tables of the Laplace expansion behind rietsch_eigenvector.

    Returns (levels, perm, sign, complement, weights, phases).  Level j lists
    the j-subsets T of range(n) lexicographically as (col, child, alt, work):
    col[T, p] = T[p], child[T, p] the rank of T without T[p] one level down,
    alt[p] the cofactor sign (-1)^{j-1+p} of expanding along row j-1, and
    work scratch every call overwrites (fresh arrays regrow the heap per
    call).  The top level is m = min(k, n-k); perm takes the box partitions
    in canonical order to the top-level subsets, and sign is their factor.
    weights holds the exact integer |lam| = sum S - k(k-1)/2 of each box
    partition and phases[m, g] = zeta^{-m g}, zeta = e^{2 pi i / n}, read
    from the n powers at the integer m g mod n: row m takes each grade
    |lam| = g of an orbit's first eigenvector to its m-th rotation.

    For k <= n/2 partition lam maps to its column set S = {lam_j + k - j}.
    Otherwise (complement) it maps to the complement of S, and sign is
    (-1)^{|lam|}: the n x n matrix (w_a^c) over all n candidate roots w_a is
    sqrt(n) times a unitary (a twisted DFT), so by Jacobi's
    complementary-minor identity minor(I, S) is, up to a factor fixed by I,
    (-1)^{sum S} conj(minor(I^c, S^c)), and sum S = |lam| + sum S_empty.
    """
    k, n = params.k, params.n
    m = min(k, n - k)
    states, perm = ring_states(params)
    weights = states.sum(axis=1) - k * (k - 1) // 2
    sign = np.ones(len(perm))
    if m < k:  # complement reverses lex order
        perm = params.rank - 1 - perm
        sign = (-1.0) ** weights
    levels = []
    for j in range(1, m + 1):
        subsets = k_subsets(n, j)
        others = np.array([[q for q in range(j) if q != p] for p in range(j)],
                          dtype=np.intp).reshape(j, j - 1)
        child = lex_rank(subsets[:, others], n)
        alt = (-1.0) ** (j - 1 + np.arange(j))
        work = np.empty((2,) + subsets.shape, dtype=complex)
        levels.append((subsets, child, alt, work))
    phases = np.exp(-2j * np.pi * np.arange(n) / n)[
        np.outer(np.arange(n), np.arange(params.dim + 1)) % n]
    return tuple(levels), perm, sign, m < k, weights, phases


def rietsch_eigenvector(I: SpectralIndex, params: GrassmannianParams) -> np.ndarray:
    """Coordinate vector of the eigenbasis element labeled by I: the
    conjugated Schur values over all box partitions in canonical order.

    The vector is computed once per rotation orbit (_laplace_expansion, at
    the orbit's lex-least member R) and reached from there by an exact
    phase: if I is R rotated m times, v_I = zeta^{-m |lam|} * v_R coordinate
    by coordinate, zeta = e^{2 pi i / n}.  One rotation multiplies every
    root z_i by zeta (the wrap by -2n is a full turn), so the homogeneous
    s_lam(z) gains zeta^{|lam|}, conjugated here.  The phase is read from a
    per-grade table of the n powers of zeta^{-1} at the integer m|lam| mod
    n (_minor_tables), so no error accumulates along the orbit.  R and m
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
    *_, weights, phases = _minor_tables(params)
    v = _laplace_expansion(int(start[pos]), params)
    return phases[m[pos]].take(weights) * v


@lru_cache(maxsize=1)
def _laplace_expansion(pos: int, params: GrassmannianParams) -> np.ndarray:
    """rietsch_eigenvector at the index I of lex position pos by the
    bialternant, read-only and cached for the rest of I's orbit in a walk.

    s_lam(z) is the bialternant det(z_i^{lam_j + k - j}) / det(z_i^{k-j}).
    All numerators at z = zeta^I are the k x k minors of the k x n matrix
    (z_i^c); they come from one Laplace expansion, row by row, and are
    divided by the empty partition's coordinate, the Vandermonde.  For
    k > n/2 the expansion runs on the n-k conjugated complementary roots
    instead (see _minor_tables), so no level exceeds min(k, n-k) rows.
    """
    levels, perm, sign, complement, _, _ = _minor_tables(params)
    k, n = params.k, params.n
    top = levels[-1][0]  # complement reverses lex order; conjugate its roots
    d = 2 * top[params.rank - 1 - pos if complement else pos] - (k - 1)
    if complement:
        d = -d
    # z^c with the exponent reduced mod 2n, so large n loses no accuracy
    powers = np.exp(1j * np.pi * (np.outer(d, np.arange(n)) % (2 * n)) / n)
    minors = np.ones(1, dtype=complex)
    for z, (col, child, alt, work) in zip(powers, levels):
        terms = np.take(z, col, out=work[0], mode="clip")  # "raise" buffers out
        terms *= np.take(minors, child, out=work[1], mode="clip")
        minors = terms @ alt
    v = sign * minors[perm]
    v = np.conj(v / v[0])
    v.flags.writeable = False
    return v
