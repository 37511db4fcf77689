"""The oriented quantum Bruhat graph of Gr(k,n) and its incidence matrix.

Vertices are the box partitions; there is an edge lam -> mu whenever sigma_mu
appears in the divisor multiplication sigma_(1) * sigma_lam.  On the ring of
combinatorics.ring_states each edge is one particle hopping clockwise to an
empty site: a cover (degree 0) adds one box, and the single wrap from site
n-1 to site 0 is the q-edge (degree 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .combinatorics import (GrassmannianParams, Partition, banded_binomials,
                            empty_sites, lex_rank, partitions_of, ring_states)


@dataclass(frozen=True)
class QuantumEdge:
    source: Partition
    target: Partition
    degree: int  # power of q contributed, 0 or 1


@dataclass(eq=False)
class QuantumBruhatGraph:
    """Vertex i sits at the sites states[i], of lex rank ranks[i]; column e
    of edge_table holds (source, target, degree) of edge e in export order.
    Partition tuples and QuantumEdges are made only when read."""

    params: GrassmannianParams
    states: np.ndarray
    ranks: np.ndarray
    edge_table: np.ndarray

    @cached_property
    def vertices(self) -> list[Partition]:
        return partitions_of(self.states)

    @property
    def edges(self) -> _Edges:
        return _Edges(self)

    @property
    def quantum_edge_count(self) -> int:
        return int(self.edge_table[2].sum())


@dataclass
class _Edges:
    graph: QuantumBruhatGraph

    def __len__(self) -> int:
        return self.graph.edge_table.shape[1]

    def __iter__(self):
        v = self.graph.vertices
        for s, t, d in zip(*self.graph.edge_table.tolist()):
            yield QuantumEdge(v[s], v[t], d)


def _vertex_of(ranks: np.ndarray) -> np.ndarray:
    """Canonical index of each lex rank: the inverse permutation."""
    vertex = np.empty_like(ranks)
    vertex[ranks] = np.arange(len(ranks))
    return vertex


def build_graph(params: GrassmannianParams) -> QuantumBruhatGraph:
    """All particle hops, from one (rank, k+1) table of the moves out of
    each vertex: column c < k hops particle k-1-c, the top one first, so the
    cover targets come in canonical order; column k wraps the top one to 0.
    Each column is filled by 1-D passes over one particle's contiguous sites.

    Edges are emitted in deterministic order: sources in canonical vertex
    order, cover targets by canonical index, then the degree-1 edge.
    """
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
    flat = np.flatnonzero(hops)  # source-major, as np.nonzero exports
    table = np.empty((3, len(flat)), dtype=ranks.dtype)
    np.divmod(flat, k + 1, out=(table[0], table[2]))
    np.take(_vertex_of(ranks), lex.ravel().take(flat), out=table[1], mode="clip")
    np.equal(table[2], k, out=table[2])
    return QuantumBruhatGraph(params, states, ranks, table)


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

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        np.add.at(dense, (self.target, self.source), self.weight)
        return dense

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape[0], np.result_type(v, self.weight))
        np.add.at(out, self.target, np.multiply(v, self.weight).take(self.source))
        return out


def _perron_vector(graph: QuantumBruhatGraph) -> np.ndarray:
    """The Perron vector of the hop operator, up to scale: the product of
    sin(pi (s_j - s_i) / n) over pairs i < j of occupied sites, the Schur
    values at Rietsch's totally positive point.  When the empty sites are
    fewer (k > n/2) the product runs over them (combinatorics.empty_sites,
    read at each vertex's lex rank), which agrees up to scale.  Every factor
    lies in (0, 1], so the vector is > 0."""
    k, n = graph.params.k, graph.params.n
    columns = graph.states.T
    if 2 * k > n:
        columns = empty_sites(n, k).T.take(graph.ranks, axis=1)
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
    operator = IncidenceOperator(source, target, len(graph.states), weight)
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


def _fmt(lam: Partition) -> str:
    return "(" + ",".join(str(x) for x in lam) + ")"


def export_graph(graph: QuantumBruhatGraph, format: str) -> str:
    """Serialize to DOT or JSON; byte-deterministic for a fixed instance."""
    if format == "dot":
        lines = ["digraph g {"]
        lines.extend(f'  "{_fmt(lam)}";' for lam in graph.vertices)
        lines.extend(f'  "{_fmt(e.source)}" -> "{_fmt(e.target)}" [q={e.degree}];'
                     for e in graph.edges)
        lines.append("}")
        return "\n".join(lines) + "\n"
    if format == "json":
        obj = {
            "k": graph.params.k,
            "n": graph.params.n,
            "vertex_count": len(graph.vertices),
            "edge_count": len(graph.edges),
            "quantum_edge_count": graph.quantum_edge_count,
            "vertices": [list(lam) for lam in graph.vertices],
            "edges": [{"src": s, "dst": t, "q": d}
                      for s, t, d in zip(*graph.edge_table.tolist())],
        }
        return json.dumps(obj, separators=(",", ":")) + "\n"
    raise ValueError(f"unknown format {format!r} (expected 'dot' or 'json')")
