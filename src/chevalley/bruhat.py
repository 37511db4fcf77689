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
import scipy.sparse as sp

from .combinatorics import (DEFAULT_RANK_CAP, GrassmannianParams, Partition,
                            lex_rank, partitions_of, ring_states)


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


def incidence_matrix(graph: QuantumBruhatGraph) -> sp.csr_matrix:
    """0/1 matrix with A[target, source] = 1 per edge (canonical indexing).

    Columns are sources so the operator acts on coefficient vectors by left
    multiplication.
    """
    m = len(graph.states)
    source, target, _ = graph.edge_table
    data = np.ones(len(source), dtype=np.int64)
    return sp.csr_matrix((data, (target, source)), shape=(m, m))


def _reaches_all(pattern: sp.spmatrix) -> bool:
    """Whether vertex 0 reaches every vertex along pattern's edges, with
    pattern[t, s] > 0 for an edge s -> t: one sparse product per level."""
    seen = np.zeros(pattern.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.astype(float)
    while frontier.any():
        new = (pattern @ frontier > 0) & ~seen
        seen |= new
        frontier = new.astype(float)
    return bool(seen.all())


def is_strongly_connected(matrix: sp.spmatrix) -> bool:
    """Whether the directed graph of the matrix's nonzeros is strongly connected:
    vertex 0 reaches every vertex along the edges and against them."""
    pattern = abs(sp.csr_matrix(matrix))
    return _reaches_all(pattern) and _reaches_all(pattern.T)


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
