"""The oriented quantum Bruhat graph of Gr(k,n) and its incidence matrix.

Vertices are the box partitions; there is an edge lam -> mu whenever sigma_mu
appears in the divisor multiplication sigma_(1) * sigma_lam.  On the ring of
combinatorics.ring_states each edge is one particle hopping clockwise to an
empty site: a cover (degree 0) adds one box, and the single wrap from site
n-1 to site 0 is the q-edge (degree 1).  For k > n/2 the holes hop instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .combinatorics import (GrassmannianParams, Partition, banded_binomials,
                            empty_sites, lex_rank, partitions_of, ring_states)


@dataclass(eq=False)
class QuantumBruhatGraph:
    """sites[i]: vertex i's k occupied sites, or for k > n/2 its n-k empty ones,
    ascending; states (the occupied ones) and partition tuples are made when
    read.  Column e of edge_table is edge e's (source, target, degree), and
    edges is its (nnz, 3) transposed view: one row per edge."""

    params: GrassmannianParams
    sites: np.ndarray
    edge_table: np.ndarray

    @cached_property
    def states(self) -> np.ndarray:
        n, k = self.params.n, self.params.k  # complement reverses lex order
        return self.sites if 2 * k <= n else empty_sites(n, n - k).T.take(
            lex_rank(self.sites, n), axis=1).T

    @cached_property
    def vertices(self) -> list[Partition]:
        return partitions_of(self.states)

    @property
    def edges(self) -> np.ndarray:
        return self.edge_table.T

    @property
    def quantum_edge_count(self) -> int:
        return int(self.edge_table[2].sum())


def _hop_table(params: GrassmannianParams):
    """(states, ranks, hops, lex): the ring states, their lex ranks, and the
    (rank, k+1) tables of each vertex's moves, whether each exists and its
    target's lex rank, a column per 1-D pass over one particle's sites: c < k
    hops particle k-1-c (the top one first: covers in canonical order), k wraps."""
    k, n = params.k, params.n
    states, ranks = ring_states(params)
    sites, binom = states.T, banded_binomials(n, k)  # sites[p]: particle p
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
    return states, ranks, hops, lex


def _edge_table(hops, lex, ranks, order=None, cols=None) -> np.ndarray:
    """(source, target, degree) of each hop, source-major as np.nonzero
    exports: hop (r, c) has the target of lex rank lex[order[r], cols[c]]
    (lex[r, c] without them), and lex rank ranks[i] is vertex i."""
    flat = np.flatnonzero(hops)
    table = np.empty((3, len(flat)), dtype=ranks.dtype)
    np.divmod(flat, hops.shape[1], out=(table[0], table[2]))
    if order is not None:  # each hop's place in lex: no reordered copy of it
        np.take(order * hops.shape[1], table[0], out=flat)
        flat += cols.take(table[2])
    vertex = np.empty_like(ranks)  # the inverse permutation
    vertex[ranks] = np.arange(len(ranks))
    np.take(vertex, lex.ravel().take(flat), out=table[1], mode="clip")
    np.equal(table[2], hops.shape[1] - 1, out=table[2])
    return table


_held = {}  # the hop table of a k > n/2 build's dual, until the next build
release_held = _held.clear  # drops that table; the CLI calls it as a command ends


def build_graph(params: GrassmannianParams) -> QuantumBruhatGraph:
    """All particle hops, from the hop table of Gr(k,n), or for k > n/2 of
    its dual Gr(n-k,n): lam's conjugate sits at n-1-(lam's empty sites), a
    particle's hop is a hole's hop back, and canonical order is weight, then
    the conjugate's lex rank descending.  So one argsort orders the rows and
    the dual's covers, read bottom particle first, keep the targets in order.
    The dual's table is held for the next build, to reuse if it is either.

    Edges are emitted in deterministic order: sources in canonical vertex
    order, cover targets by canonical index, then the degree-1 edge.
    """
    k, n = params.k, params.n
    key = params if 2 * k <= n else params.dual()
    sites, ranks, hops, lex = _held.pop(key, None) or _hop_table(key)
    _held.clear()
    if key == params:
        return QuantumBruhatGraph(params, sites, _edge_table(hops, lex, ranks))
    _held[key] = sites, ranks, hops, lex
    order = np.argsort(params.rank * sum(sites.T) - ranks)
    cols = np.arange(n - k - 1, -2, -1) % (n - k + 1)  # covers bottom first, wrap last
    hops = hops[:, cols].take(order, 0)
    table = _edge_table(hops, lex, ranks.take(order), order, cols)
    holes = sites.T.take(order, 1)[::-1]  # reversed rows, each still contiguous
    return QuantumBruhatGraph(params, np.subtract(n - 1, holes, out=holes).T, table)


class IncidenceOperator:
    """weight * A for the 0/1 matrix with A[t, s] = 1 per edge s -> t, held
    as the edge list itself: rows `source` and `target`, in the order given.
    A product adds each edge's weighted source entry into its target in
    edge order from +0 (np.add.at is unbuffered): for edges sorted by
    source, the rounding of a CSR product.  `start` is a vector > 0 for the
    power steps to start from, None (all ones) unless incidence_matrix
    attaches the closed-form Perron vector."""

    def __init__(self, source, target, size: int, weight: float = 1):
        self.source = np.asarray(source, np.intp)
        self.target = np.asarray(target, np.intp)
        self.shape, self.weight, self.nnz = (size, size), weight, len(self.source)
        self.start = None

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        if np.shape(v) != self.shape[1:]:
            raise ValueError(f"need shape {self.shape[1:]}, got {np.shape(v)}")
        out = np.zeros(self.shape[0], np.result_type(v, self.weight))
        np.add.at(out, self.target, np.multiply(v, self.weight).take(self.source))
        return out


def _perron_vector(graph: QuantumBruhatGraph) -> np.ndarray:
    """The Perron vector of the hop operator, up to scale: the product of
    sin(pi (s_j - s_i) / n) over pairs i < j of occupied sites, the Schur
    values at Rietsch's totally positive point, or for k > n/2 of the empty
    sites, ascending as the graph keeps them, which agrees up to scale.
    Every factor lies in (0, 1], so the vector is > 0."""
    n, columns = graph.params.n, graph.sites.T
    sine = np.sin(np.pi * np.arange(n) / n)
    vector = np.ones(columns.shape[1])
    for j in range(1, len(columns)):
        for i in range(j):  # one pair at a time: no (size, pairs) table
            vector *= sine.take(columns[j] - columns[i])
    return vector


def incidence_matrix(graph: QuantumBruhatGraph,
                     weight: float = 1) -> IncidenceOperator:
    """weight * A with A[target, source] = 1 per edge (canonical indexing):
    the rows of edge_table, shared, not copied; columns are sources, so A
    acts on coefficient vectors by left multiplication.  Its `start` is the
    closed-form Perron vector of the ring states."""
    source, target, _ = graph.edge_table
    operator = IncidenceOperator(source, target, graph.params.rank, weight)
    operator.start = _perron_vector(graph)
    return operator


def is_strongly_connected(operator: IncidenceOperator) -> bool:
    """Whether vertex 0 reaches every vertex along the edges and against
    them: per level, one scatter of the frontier over the edge list."""
    size = operator.shape[0]
    for tail, head in ((operator.source, operator.target),
                       (operator.target, operator.source)):
        seen = np.arange(size) == 0
        frontier = seen.copy()
        while frontier.any():
            reached = np.zeros(size, dtype=bool)
            reached[head[frontier[tail]]] = True
            frontier = reached & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


def export_graph(graph: QuantumBruhatGraph, format: str) -> str:
    """Serialize to DOT or JSON, byte-deterministic for a fixed instance: one
    pass over the rows of graph.edges, each vertex's DOT name made once."""
    if format == "dot":
        names = [f'"({",".join(map(str, lam))})"' for lam in graph.vertices]
        edge = lambda s, t, d: f"  {names[s]} -> {names[t]} [q={d}];"
    elif format == "json":
        edge = lambda s, t, d: {"src": s, "dst": t, "q": d}
    else:
        raise ValueError(f"unknown format {format!r} (expected 'dot' or 'json')")
    edges = [edge(s, t, d) for s, t, d in graph.edges.tolist()]
    if format == "dot":
        return "\n".join(["digraph g {", *(f"  {v};" for v in names), *edges, "}\n"])
    obj = {
        "k": graph.params.k,
        "n": graph.params.n,
        "vertex_count": len(graph.vertices),
        "edge_count": len(edges),
        "quantum_edge_count": graph.quantum_edge_count,
        "vertices": [list(lam) for lam in graph.vertices],
        "edges": edges,
    }
    return json.dumps(obj, separators=(",", ":")) + "\n"
