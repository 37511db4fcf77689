"""Brute-force reference implementations used only for testing.

These deliberately avoid the algorithms of the package: box partitions by
sorting itertools' weakly decreasing tuples, binomial tables by one
math.comb per entry, covers by filtering full enumeration, complete
homogeneous polynomials by explicit monomial sums, determinants by Laplace
expansion, strong connectivity by scipy's csgraph, rotation closure of a
spectrum by greedy nearest-neighbour matching.  The per-partition rules
(covers, quantum_target, is_valid_partition, dual_partition) are the
textbook description of the quantum Bruhat graph that the particle-hop
construction must reproduce.  The one exception is the Jacobi-Trudi box
oracle schur_values_box: it reads symfunc.homogeneous_table, which
test_symfunc checks against the monomial sums of h_monomial.
build_graph_by_particles is a second kind of reference: the graph build by
one pass per occupied site for every k, on combinatorics.ring_states (which
test_combinatorics checks against ring_states_by_sort), that the build for
k > n/2 from the dual's hop table must reproduce byte for byte.  dense and
edge_triples are the views of an operator and a graph that only tests read:
the dense matrix, and the edges with partition endpoints.
second_proof_margin is the second-proof lemma one n per call, the reference
that the chunked galkin.second_proof_margins must match bit for bit, and
eigen_residual_by_product is one eigenpair's residual by one operator
product, the reference that the chunked spectral.eigen_residual must match
bit for bit.  concavity_monotonicity_by_two_grids is the F^k concavity and
monotonicity check with F^k evaluated on its grid and on the grid moved by
one step, the reference for galkin's check from one F^k evaluation.
top_on_roots_by_scan is property O's top-circle finding by comparing each
top eigenvalue with all n scaled roots of unity, the reference for
spectral.property_o_check's nearest root by angle.
"""

from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, isqrt

import mpmath
import numpy as np
from scipy.sparse.csgraph import connected_components

from chevalley import galkin
from chevalley.bruhat import QuantumBruhatGraph
from chevalley.combinatorics import (banded_binomials, empty_sites, lex_rank,
                                     ring_states)
from chevalley.symfunc import homogeneous_table, rietsch_eigenvector, roots_tuple

TAU_ALG = 1e-9  # absolute/relative tolerance for complex identities

# (I, (k, n)) with I no index of Gr(k,n): Gr(2,5)'s are the strictly
# increasing pairs from -1, 1, 3, 5, 7, Gr(1,3)'s the singletons 0, 2, 4,
# and an integral float is no index; -3 lies below the pool, 9 above it
NOT_AN_INDEX = [((0, 2), (2, 5)), ((-1, 1, 3), (2, 5)), ((1, 1), (2, 5)),
                ((9, 11), (2, 5)), ((1, -1), (2, 5)), ((7, 9), (2, 5)),
                ((-1.0, 1.0), (2, 5)), ((0.0,), (1, 3)), ((-3, 1), (2, 5))]
# the ids pytest gives a lone tuple parameter
NOT_AN_INDEX_IDS = [f"I{i}" for i in range(len(NOT_AN_INDEX))]


def is_valid_partition(lam, params):
    if len(lam) != params.k:
        return False
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        return False
    return 0 <= lam[-1] and lam[0] <= params.n - params.k


def enumerate_partitions(params):
    """All partitions in the k x (n-k) box in canonical order: increasing
    weight, then lexicographically descending within a weight class."""
    parts = combinations_with_replacement(range(params.n - params.k, -1, -1), params.k)
    return sorted(parts, key=lambda lam: (sum(lam), [-x for x in lam]))


def dual_partition(lam, params):
    """Conjugate (transpose) diagram, a partition for Gr(n-k, n)."""
    return tuple(sum(1 for x in lam if x > j) for j in range(params.n - params.k))


def covers(lam, params):
    """Partitions obtained from lam by adding one box, staying in the box."""
    out = []
    for i in range(params.k):
        ceiling = params.n - params.k if i == 0 else lam[i - 1]
        if lam[i] < ceiling:
            out.append(lam[:i] + (lam[i] + 1,) + lam[i + 1:])
    return out


def quantum_target(lam, params):
    """The q-edge target: strip the full first row and one box from each
    remaining row.  Exists only when the first row is full and the last row
    is nonempty; always returned with exactly k parts (trailing zero)."""
    if lam[0] != params.n - params.k or lam[-1] == 0:
        return None
    return tuple(x - 1 for x in lam[1:]) + (0,)


def covers_by_filter(lam, params):
    """All mu with |mu| = |lam| + 1 and lam contained in mu, by full scan."""
    out = []
    for mu in enumerate_partitions(params):
        if sum(mu) == sum(lam) + 1 and all(a <= b for a, b in zip(lam, mu)):
            out.append(mu)
    return out


def banded_binomials_by_comb(n, r):
    """C(x, y) for x < n, y <= r where x - y < n - r, zero elsewhere: one
    math.comb per entry, converted to int64 (OverflowError past 2**63 - 1)."""
    return np.array([[comb(x, y) if x - y < n - r else 0 for y in range(r + 1)]
                     for x in range(n)], dtype=np.int64)


def ring_states_by_sort(k, n):
    """Sorted sites of the box partitions in canonical order and their lex
    ranks: itertools.combinations, sorted by weight * C(n,k) plus the lex
    position of the reflected sites n-1-S, read off the same list."""
    rows = np.array(list(combinations(range(n), k)), dtype=np.intp).reshape(-1, k)
    position = {row: i for i, row in enumerate(map(tuple, rows.tolist()))}
    reflected = [position[row] for row in map(tuple, (n - 1 - rows[:, ::-1]).tolist())]
    order = np.argsort(rows.sum(axis=1) * len(rows) + np.array(reflected))
    return rows[order], order


def build_graph_by_particles(params):
    """The quantum Bruhat graph from one (rank, k+1) table of the moves out
    of each vertex, for every k: column c < k hops particle k-1-c, the top
    one first, column k wraps the top one from n-1 to 0, and the hops are
    exported source-major.  Its sites are the occupied ones, or for k > n/2
    the empty ones (empty_sites, read at each vertex's lex rank)."""
    k, n = params.k, params.n
    states, ranks = ring_states(params)
    sites, binom = states.T, banded_binomials(n, k)
    hops = np.empty((len(ranks), k + 1), dtype=bool)
    lex = np.empty(hops.shape, dtype=ranks.dtype)
    # particle p covers if the site on is empty (the top one: if below n-1),
    # adding C(n-2-a, k-1-p) to the lex rank from site a >= p (a = n-1 wraps)
    for p, c in zip(range(k), range(k - 1, -1, -1)):
        np.greater((sites[p + 1] if c else n) - sites[p], 1, out=hops[:, c])
        np.add(ranks, binom[:, c].take(n - 2 - sites[p], mode="wrap"), out=lex[:, c])
    # the top one wraps from n-1 into (0, T), T = sites[:-1] >= 1: rank T-1
    np.logical_and(sites[-1] == n - 1, sites[0] > 0, out=hops[:, k])
    wraps = np.flatnonzero(hops[:, k])
    lex[wraps, k] = lex_rank(sites[:-1].take(wraps, axis=1).T - 1, n - 1)
    vertex = np.empty_like(ranks)
    vertex[ranks] = np.arange(len(ranks))
    source, column = np.nonzero(hops)
    table = np.stack([source, vertex[lex[source, column]], column == k])
    if 2 * k > n:
        states = empty_sites(n, k)[ranks]
    return QuantumBruhatGraph(params, states, table.astype(ranks.dtype))


def dense(operator):
    """The operator's dense matrix: its weight added once per edge at
    [target, source], so a repeated edge counts twice."""
    matrix = np.zeros(operator.shape)
    np.add.at(matrix, (operator.target, operator.source), operator.weight)
    return matrix


def edge_triples(graph):
    """(source, target, degree) of each edge in edge order, with the
    endpoints as partition tuples."""
    v = graph.vertices
    return [(v[s], v[t], d) for s, t, d in graph.edges.tolist()]


def strongly_connected_by_csgraph(matrix):
    """One strong component, by Tarjan-style search in scipy.sparse.csgraph."""
    ncomp, _ = connected_components(matrix, directed=True, connection="strong")
    return ncomp == 1


def h_monomial(x, m):
    """h_m by summing all degree-m monomials x_{i1}...x_{im}, i1<=...<=im."""
    if m < 0:
        return 0.0 + 0.0j
    x = np.asarray(x, dtype=complex)
    total = 0.0 + 0.0j
    for idx in combinations_with_replacement(range(len(x)), m):
        total += np.prod(x[list(idx)])
    return total


def laplace_det(mat):
    """Determinant by first-row Laplace expansion."""
    mat = np.asarray(mat, dtype=complex)
    k = mat.shape[0]
    if k == 1:
        return mat[0, 0]
    total = 0.0 + 0.0j
    for c in range(k):
        minor = np.delete(np.delete(mat, 0, axis=0), c, axis=1)
        total += (-1) ** c * mat[0, c] * laplace_det(minor)
    return total


def fk_mp(k, x):
    """The gap function in 50-digit arithmetic, from its even/odd cosine form."""
    x = mpmath.mpf(x)
    s = 2 * x * mpmath.fsum(mpmath.cos((k - 2 * j + 1) * mpmath.pi / x)
                            for j in range(1, k // 2 + 1))
    if k % 2 == 1:
        s += x
    return s - k * (x - k) - 1


def fk_second_difference(k, x, h=1e-5):
    """Central second difference of the gap function at step h.

    Evaluated in extended precision: at double precision the cancellation
    noise (~eps*|F|/h^2) would swamp the 1e-5 comparison tolerance.
    """
    with mpmath.workdps(50):
        h = mpmath.mpf(h)
        val = (fk_mp(k, mpmath.mpf(x) + h) - 2 * fk_mp(k, x)
               + fk_mp(k, mpmath.mpf(x) - h)) / h ** 2
        return float(val)


def second_proof_margin(n, grid_step):
    """The least second-proof margin of one n, computed alone: the margin
    delta0 + (x-n/2)^2 - n^2/4 - 1 at x = head[q] + tail[r] of the (rows, width)
    block is (left @ right)[q, r], both factors filled in place from one sin
    and one cos of one angle vector (head, then tail).
    galkin.second_proof_margins must reproduce it bit for bit."""
    if n < 6:
        raise ValueError("lemma requires n >= 6")
    count = galkin._grid_count(3.0, n / 2, grid_step)
    width = isqrt(count - 1) + 1
    rows = -(-count // width)
    t = np.arange(rows + width, dtype=float)  # q for the head, rows + r for the tail
    head, tail = t[:rows], t[rows:]
    head[:], tail[:] = 3.0 + grid_step * width * head, grid_step * (tail - rows)
    s, c = np.sin(a := np.pi * t / n), np.cos(a)
    e, scale = head - n / 2, n / np.sin(np.pi / n)
    left, right = np.empty((rows, 5)), np.empty((5, width))
    left[:, 0], left[:, 1], left[:, 2], left[:, 3], left[:, 4] = (
        scale * s[:rows], scale * c[:rows], 2 * e, 1, e * e - n * n / 4 - 1)
    right[0], right[1], right[2], right[3], right[4] = (
        c[rows:], s[rows:], tail, tail * tail, 1)
    return float((left @ right).ravel()[:count].min())


def eigen_residual_by_product(I, params, operator):
    """max|operator @ v - eig * v| / max|v| for v = rietsch_eigenvector(I),
    with eig = n * S_(1)(zeta^I) = n * sum roots_tuple(I), the eigenvalue
    that spectrum_closed_form returns and `spectrum` prints."""
    v = rietsch_eigenvector(I, params)
    eig = params.n * np.sum(roots_tuple(I, params))
    r = operator @ v
    r -= eig * v
    return float(np.abs(r).max() / np.abs(v).max())


def second_proof_lemma_by_grid(n, step):
    """The second-proof lemma one point at a time: the sine form delta0_sine(x, n)
    at every point of _grid(3, n/2, step) against x(n-x)+1, less galkin's
    TAU_NUM as it reads when called."""
    x = galkin._grid(3.0, n / 2, step)
    bound = x * (n - x) + 1.0 - galkin.TAU_NUM
    return bool(np.all(galkin.delta0_sine(x, n) >= bound))


def forward_differences_by_two_grids(k, x_max, step):
    """F^k(x + step) - F^k(x) over the concavity grid x of
    galkin.check_concavity_monotonicity, from two F^k evaluations."""
    x = galkin._grid(2.0 * (k - 1) + step, x_max, step)
    return galkin.fk(k, x + step) - galkin.fk(k, x)


def concavity_monotonicity_by_two_grids(k, x_max, step):
    """F^k'' below TAU_NUM on the concavity grid and every two-grid forward
    difference above -TAU_NUM."""
    x = galkin._grid(2.0 * (k - 1) + step, x_max, step)
    tau = galkin.TAU_NUM
    return bool(np.all(galkin.fk_second_derivative(k, x) < tau)
                and np.all(forward_differences_by_two_grids(k, x_max, step) > -tau))


def schur_brute(lam, x):
    """Jacobi-Trudi determinant with h entries from explicit monomial sums."""
    k = len(lam)
    mat = np.array([[h_monomial(x, lam[r] - r + c) for c in range(k)]
                    for r in range(k)])
    return laplace_det(mat)


@lru_cache(maxsize=64)
def _box_exponents(params):
    """Stacked Jacobi-Trudi exponents lam_r - r + c over all box partitions,
    (rank, k, k); negative entries mark vanishing h's."""
    k = params.k
    lams = np.array(enumerate_partitions(params))
    return lams[:, :, None] - np.arange(k)[:, None] + np.arange(k)


def schur_values_box(params, x):
    """Schur values at the point x for every box partition, canonical order:
    one stacked Jacobi-Trudi determinant, exponents cached per instance."""
    E = _box_exponents(params)
    h = homogeneous_table(x, int(E.max()))
    return np.linalg.det(np.where(E >= 0, h[np.maximum(E, 0)], 0.0))


def multiset_invariant_under(spectrum, factor, tol):
    """Whether spectrum * factor matches spectrum as a multiset within tol,
    pairing each rotated value with its nearest unused original: O(rank^2)."""
    rotated = spectrum * factor
    used = np.zeros(len(spectrum), dtype=bool)
    for z in rotated:
        dist = np.abs(spectrum - z)
        dist[used] = np.inf
        j = int(np.argmin(dist))
        if dist[j] > tol:
            return False
        used[j] = True
    return True


def shifted(I, n):
    """I+: every doubled exponent plus 2, wrapped past 2n-k-1 by -2n."""
    top = 2 * n - len(I) - 1
    return tuple(sorted(d + 2 if d + 2 <= top else d + 2 - 2 * n for d in I))


def top_on_roots_by_scan(spectrum, n, tol):
    """Every eigenvalue within tol of the top modulus delta0 lies within tol
    of one of the n values delta0 * zeta^j, each compared with all of them."""
    delta0 = float(np.max(np.abs(spectrum)))
    roots = delta0 * np.exp(2j * np.pi * np.arange(n) / n)
    top = spectrum[np.abs(np.abs(spectrum) - delta0) < tol]
    return all(np.min(np.abs(roots - z)) < tol for z in top)
