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

from .combinatorics import (DEFAULT_RANK_CAP, GrassmannianParams, Partition,
                            lex_rank, partitions_of, ring_rotation, ring_states)


@dataclass(frozen=True)
class QuantumEdge:
    source: Partition
    target: Partition
    degree: int  # power of q contributed, 0 or 1


@dataclass(eq=False)
class QuantumBruhatGraph:
    """Vertex i sits at the sites states[i]; column e of edge_table holds
    (source, target, degree) of edge e in export order.  Partition tuples and
    QuantumEdges are made only when read."""

    params: GrassmannianParams
    states: np.ndarray
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


def build_graph(params: GrassmannianParams,
                rank_cap: int = DEFAULT_RANK_CAP) -> QuantumBruhatGraph:
    """All particle hops, one vectorized pass per particle.

    Edges are emitted in deterministic order: sources in canonical vertex
    order, cover targets by canonical index, then the degree-1 edge.
    """
    k, n = params.k, params.n
    states, ranks = ring_states(params, rank_cap)
    # the site after the top particle's is the bottom one's, a turn further
    ahead = np.column_stack([states[:, 1:], states[:, 0] + n])
    sources, targets, degrees = [], [], []
    # Top particle first: its cover adds a box to an earlier row, so the
    # target is lex-larger, earlier in canonical order.
    for p in reversed(range(k)):
        movers = np.flatnonzero(states[:, p] + 1 < ahead[:, p])
        hopped = states[movers]
        degrees.append(hopped[:, p] == n - 1)
        hopped[:, p] = (hopped[:, p] + 1) % n
        if p == k - 1:
            hopped.sort(axis=1)  # a wrap to site 0 makes the new bottom
        sources.append(movers)
        targets.append(lex_rank(hopped, n))
    source, degree = np.concatenate(sources), np.concatenate(degrees)
    table = np.array([source, np.argsort(ranks)[np.concatenate(targets)], degree])
    return QuantumBruhatGraph(params, states, table[:, np.argsort(
        2 * source + degree, kind="stable")])


class IncidenceOperator:
    """weight * A for the 0/1 matrix with A[t, s] = 1 per edge s -> t.

    Row d of `sources` (at least one row) holds the d-th in-neighbour of
    every vertex in the order the edges are given, or `size`, which points at
    a padded zero.  A product gathers the table and sums its rows in that
    order: for increasing in-neighbours, the rounding of a CSR product.
    `fold(orbit)` attaches `orbit` (vertex -> orbit index) and `quotient`,
    the operator on each orbit's first vertex with the table
    orbit[sources[:, first]], None until then.  For the orbits of a graph
    automorphism, (quotient @ u)[orbit] = self @ u[orbit]: eigenvectors lift."""

    def __init__(self, source, target, size: int, weight: float = 1):
        source, target = np.asarray(source, int), np.asarray(target, int)
        order = np.argsort(target, kind="stable")
        counts = np.bincount(target, minlength=size)
        slot = np.arange(len(order)) - (np.cumsum(counts) - counts)[target[order]]
        self.sources = np.full((max(counts.max(initial=0), 1), size), size)
        self.sources[slot, target[order]] = source[order]
        self.shape, self.weight, self.nnz = (size, size), weight, len(source)
        self.orbit = self.quotient = None

    @property
    def T(self) -> IncidenceOperator:
        target, level = np.nonzero(self.sources.T < self.shape[0])
        return IncidenceOperator(target, self.sources[level, target],
                                 self.shape[0], self.weight)

    def toarray(self) -> np.ndarray:
        dense = np.zeros((self.shape[0], self.shape[0] + 1))
        np.add.at(dense, (np.arange(self.shape[0]), self.sources), self.weight)
        return dense[:, :-1]

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        padded = np.zeros(self.shape[0] + 1, np.result_type(v, self.weight))
        np.multiply(v, self.weight, out=padded[:-1])
        # rows summed in order from +0, as a CSR product sums each row
        return padded.take(self.sources).sum(axis=0, initial=0.0)

    def fold(self, orbit: np.ndarray) -> IncidenceOperator:
        first = np.unique(orbit, return_index=True)[1]
        level, col = np.nonzero(self.sources[:, first] < self.shape[0])
        self.orbit, self.quotient = orbit, IncidenceOperator(
            orbit[self.sources[level, first[col]]], col, len(first), self.weight)
        return self


def incidence_matrix(graph: QuantumBruhatGraph,
                     weight: float = 1) -> IncidenceOperator:
    """weight * A with A[target, source] = 1 per edge (canonical indexing),
    in-edges in edge_table order; columns are sources, so A acts on
    coefficient vectors by left multiplication.  Folded by the orbits of ring
    rotation, which maps hops to hops, each labelled by its least vertex."""
    source, target, _ = graph.edge_table
    states, n = graph.states, graph.params.n
    step = np.argsort(lex_rank(states, n))[lex_rank(ring_rotation(states, n), n)]
    label = np.arange(len(states))
    for _ in range((n - 1).bit_length()):  # pointer jumping; orbit sizes divide n
        label, step = np.minimum(label, label[step]), step[step]
    return IncidenceOperator(source, target, len(states), weight).fold(
        np.unique(label, return_inverse=True)[1])


def is_strongly_connected(operator: IncidenceOperator) -> bool:
    """Whether vertex 0 reaches every vertex along the edges and against
    them: one gather of in-neighbours per level, the padding never reached."""
    for table in (operator.sources, operator.T.sources):
        size = table.shape[1]
        seen = np.arange(size + 1) == 0
        frontier = seen.copy()
        while frontier.any():
            frontier[:size] = frontier.take(table).any(axis=0) & ~seen[:size]
            seen |= frontier
        if not seen[:size].all():
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
