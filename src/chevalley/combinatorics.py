"""Partitions in the k x (n-k) box: the index set of Schubert classes of Gr(k,n).

A partition is a plain tuple of exactly k weakly decreasing nonnegative
integers with first part at most n-k.  The canonical ordering used for all
matrix indexing is: graded by weight, lexicographically descending within
each weight.

Tables of sites are column-major, (k, rank) arrays seen as (rank, k), so
each particle's sites are one contiguous row and every per-particle pass is
one-dimensional.  Canonical order comes from a colex key (ring_states), the
ring's rotation orbits from rotation_orbits, complements from empty_sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

Partition = tuple[int, ...]


@dataclass(frozen=True)
class GrassmannianParams:
    """The pair (k, n) defining Gr(k,n), with derived quantities."""

    k: int
    n: int

    def __post_init__(self):
        if not (1 <= self.k <= self.n - 1):
            raise ValueError(f"need 1 <= k <= n-1, got k={self.k}, n={self.n}")

    @property
    def dim(self) -> int:
        return self.k * (self.n - self.k)

    @property
    def rank(self) -> int:
        return comb(self.n, self.k)

    def dual(self) -> "GrassmannianParams":
        """Parameters of the isomorphic Grassmannian Gr(n-k, n)."""
        return GrassmannianParams(self.n - self.k, self.n)


@lru_cache(maxsize=64)
def banded_binomials(n: int, r: int) -> np.ndarray:
    """C(x, y) for x < n, y <= r where x - y < n - r, zero elsewhere, by
    Pascal's rule: band row y, C(y+d, y) for d < n - r, is the running sum of
    row y - 1.  OverflowError if C(n-1, r) exceeds int64; 64 tables cached."""
    if n and comb(n - 1, r) > np.iinfo(np.int64).max:
        raise OverflowError(f"C({n - 1},{r}) does not fit in int64")
    table = np.zeros((n, r + 1), dtype=np.int64)
    band = np.lib.stride_tricks.as_strided(  # band[y, d] is table[y + d, y]
        table, (r + 1, n - r), (sum(table.strides), table.strides[0]))
    band[0] = 1
    for y in range(1, r + 1):
        np.cumsum(band[y - 1], out=band[y])
    table.flags.writeable = False
    return table


def lex_rank(subsets: np.ndarray, n: int) -> np.ndarray:
    """Position of each sorted r-subset of range(n) (the last axis, of any
    leading shape) in the lexicographic list of all r-subsets:
    C(n,r) - 1 - sum_i C(n-1-a_i, r-i), one 1-D gather per position i, fast
    on column-major input.  Only C(x, y) <= C(n,r) with x - y < n - r occur;
    the rest is zeroed, so no table entry overflows int64."""
    r = subsets.shape[-1]
    binom = banded_binomials(n, r)
    return np.full(subsets.shape[:-1], comb(n, r) - 1) - sum(
        binom[:, r - i].take(n - 1 - subsets[..., i]) for i in range(r))


def k_subsets(n: int, r: int) -> np.ndarray:
    """All r-subsets of range(n) as sorted rows, row i of lex rank i: a
    (r, C(n,r)) table filled a row at a time, returned transposed, so each
    column .T[j] is contiguous.  Site b in column j-1 goes on with b+1, ...,
    n-r+j in column j, and site a in column j heads C(n-1-a, r-1-j) rows."""
    binom = banded_binomials(n + 1, r)
    columns = np.empty((r, comb(n, r)), dtype=np.intp)
    last = np.full(1, -1, dtype=np.intp)
    for j in range(r):
        counts = n - r + j - last
        starts = np.cumsum(counts) - counts
        last = np.arange(counts.sum()) - np.repeat(starts - last - 1, counts)
        columns[j] = np.repeat(last, binom[:, r - 1 - j].take(n - 1 - last))
    return columns.T


def empty_sites(n: int, k: int) -> np.ndarray:
    """The n-k empty sites of each k-subset of range(n), row i for the
    subset of lex rank i: complement reverses lex order, so these are the
    (n-k)-subsets read from the last."""
    return k_subsets(n, n - k)[::-1]


@lru_cache(maxsize=1)
def rotation_orbits(params: GrassmannianParams):
    """The k-subsets of the ring's n sites, in lex order, under the rotation
    (every particle one site on): read-only (subsets, rotation, start, m),
    the lex rank of each subset rotated, of its orbit's lex-least member R,
    and the least m with the subset = R rotated m times.  Those holding site
    n-1 rotate, in order, to the first ranks, the rest to the last.  start
    and m are a running minimum over the subset rotated j = 1..n times: R
    rotated n - j times is the subset, so the last tie is least m."""
    n = params.n
    subsets = k_subsets(n, params.k)
    holds_last = subsets[:, -1] == n - 1
    before = np.cumsum(holds_last) - holds_last
    rotation = np.where(holds_last, before,
                        holds_last.sum() + np.arange(params.rank) - before)
    start = pos = np.arange(params.rank)
    m = np.zeros(params.rank, dtype=np.intp)
    for j in range(1, n + 1):
        pos = rotation[pos]
        least = pos <= start
        start = np.where(least, pos, start)
        m[least] = n - j
    for table in (subsets, rotation, start, m):  # shared by every caller
        table.flags.writeable = False
    return subsets, rotation, start, m


def ring_states(params: GrassmannianParams) -> tuple[np.ndarray, np.ndarray]:
    """Each box partition lam as k particles on a ring of n sites, at the
    sorted sites S = {lam_j + k - j}: (states, ranks) in canonical order,
    with the lex rank of each, states column-major.  Canonical order is
    weight, then lam lex-descending: the reflected sites n-1-S in lex order,
    of lex rank C(n,k) - 1 - colex(S) with colex(S) = sum_j C(s_j, j+1), so
    the key is weight * C(n,k) - colex(S), one gather per column, and every
    key is distinct."""
    k, n = params.k, params.n
    states = k_subsets(n, k)
    weighted = params.rank * np.arange(n) - banded_binomials(n, k)[:, 1:].T
    ranks = np.argsort(sum(weighted[j].take(states[:, j]) for j in range(k)))
    return states.T.take(ranks, axis=1).T, ranks


def partitions_of(states: np.ndarray) -> list[Partition]:
    """The partitions lam_j = S_{k+1-j} - (k - j) of rows of sorted sites."""
    lams = (states - np.arange(states.shape[1]))[:, ::-1]
    return list(map(tuple, lams.tolist()))
