"""Partitions in the k x (n-k) box: the index set of Schubert classes of Gr(k,n).

A partition is a plain tuple of exactly k weakly decreasing nonnegative
integers with first part at most n-k.  The canonical ordering used for all
matrix indexing is: graded by weight, lexicographically descending within
each weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from math import comb

import numpy as np

from .errors import InstanceTooLargeError

DEFAULT_RANK_CAP = 100_000

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

    @property
    def box_width(self) -> int:
        return self.n - self.k

    def dual(self) -> "GrassmannianParams":
        """Parameters of the isomorphic Grassmannian Gr(n-k, n)."""
        return GrassmannianParams(self.n - self.k, self.n)


@lru_cache(maxsize=None)
def _banded_binomials(n: int, r: int) -> np.ndarray:
    """C(x, y) for x < n, y <= r where x - y < n - r, zero elsewhere."""
    table = np.array([[comb(x, y) if x - y < n - r else 0 for y in range(r + 1)]
                      for x in range(n)], dtype=np.int64)
    table.flags.writeable = False
    return table


def lex_rank(subsets: np.ndarray, n: int) -> np.ndarray:
    """Position of each sorted r-subset of range(n) (the last axis) in the
    lexicographic list of all r-subsets: C(n,r) - 1 - sum_i C(n-1-a_i, r-i).
    Only C(x, y) <= C(n,r) with x - y < n - r occur; the rest is zeroed, so
    no table entry overflows int64."""
    r = subsets.shape[-1]
    binom = _banded_binomials(n, r)
    return comb(n, r) - 1 - binom[n - 1 - subsets, r - np.arange(r)].sum(axis=-1)


def k_subsets(n: int, r: int) -> np.ndarray:
    """All r-subsets of range(n) as sorted rows, row i of lex rank i."""
    flat = chain.from_iterable(combinations(range(n), r))
    return np.fromiter(flat, dtype=np.intp, count=comb(n, r) * r).reshape(-1, r)


def ring_rotation(sites: np.ndarray, n: int) -> np.ndarray:
    """Every particle one site on, kept sorted: a roll when the top one wraps."""
    on = (sites + 1) % n
    return np.where(on[..., -1:] == 0, np.roll(on, 1, axis=-1), on)


def ring_states(params: GrassmannianParams,
                rank_cap: int = DEFAULT_RANK_CAP) -> tuple[np.ndarray, np.ndarray]:
    """Each box partition lam as k particles on a ring of n sites, at the
    sorted sites S = {lam_j + k - j}: (states, ranks) in canonical order,
    with the lex rank of each.  The rank cap is checked before enumerating."""
    if params.rank > rank_cap:
        raise InstanceTooLargeError(
            f"rank C({params.n},{params.k}) = {params.rank} exceeds cap {rank_cap}")
    states = k_subsets(params.n, params.k)
    # lexsort's last key is the primary one: weight, then lam lex-descending,
    # which is the sites from the top one down, each descending
    ranks = np.lexsort((*(-states.T), states.sum(axis=1)))
    return states[ranks], ranks


def partitions_of(states: np.ndarray) -> list[Partition]:
    """The partitions lam_j = S_{k+1-j} - (k - j) of rows of sorted sites."""
    lams = (states - np.arange(states.shape[1]))[:, ::-1]
    return list(map(tuple, lams.tolist()))


def enumerate_partitions(params: GrassmannianParams) -> list[Partition]:
    """All partitions in the k x (n-k) box in canonical order.

    Canonical order: increasing weight, then lexicographically descending
    within a weight class.  Length is always binomial(n, k).
    """
    return partitions_of(ring_states(params)[0])


def dual_partition(lam: Partition, params: GrassmannianParams) -> Partition:
    """Conjugate (transpose) diagram, a partition for Gr(n-k, n)."""
    return tuple(sum(1 for x in lam if x > j) for j in range(params.box_width))
