"""Outside-in tracing of the chevalley package's public functions.

The tracer wraps named public functions from outside the package and patches
the wrapper into every ``chevalley`` module namespace that holds the original
(``spectral`` and ``cli`` keep their own references to ``build_graph`` and
friends).  Each call records a span with a parent link; self time is a span's
duration minus the durations of its direct children.

Hot intra-module helpers (``galkin.fk``, ``galkin.delta0_cosine_sum``, the
private ``_power_iteration``) are deliberately not wrapped: they run tens of
thousands of times per command and a wrapper would distort what it measures.
"""

from __future__ import annotations

import inspect
import math
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

# Public functions wrapped by the traced pass, per module.
TRACED = {
    "combinatorics": ["enumerate_partitions"],
    "bruhat": ["build_graph", "incidence_matrix", "is_strongly_connected"],
    "symfunc": ["rietsch_eigenvector"],
    "spectral": ["c1_operator", "principal_eigenvalue", "spectrum_closed_form",
                 "eigen_residual", "property_o_check", "spectral_report"],
    "galkin": ["verify_galkin", "check_second_proof_lemma",
               "check_k2_inequality", "check_boundary_equality",
               "check_limit", "check_concavity_monotonicity"],
    "cli": ["main"],
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = math.nan


def self_times(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Per span name: (total self time in seconds, number of calls)."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    out: dict[str, tuple[float, int]] = {}
    for s in spans:
        total, calls = out.get(s.name, (0.0, 0))
        out[s.name] = (total + own[s.id], calls + 1)
    return out


class CountingOperator:
    """Counts ``operator @ v`` products; every other attribute is the matrix's."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.matvecs = 0

    def __getattr__(self, name):
        return getattr(self.matrix, name)

    def __matmul__(self, v):
        self.matvecs += 1
        return self.matrix @ v


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def operator_nnz(k: int, n: int) -> int:
    """Nonzeros of the Gr(k,n) operator: edges of the quantum Bruhat graph.

    On the ring picture an edge moves a particle at site s to an empty site
    s+1 (mod n); n choices of s times C(n-2, k-1) placements of the others.
    """
    return n * math.comb(n - 2, k - 1)


def grid_points(lo: float, hi: float, step: float) -> int:
    """Points of the grid lo, lo+step, ... <= hi, counted by integer index."""
    return max(0, math.floor((hi - lo) / step + 1e-9) + 1)


class Tracer:
    """Records spans and exact work counts for one traced workload pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------------
    def wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        name, perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if after is not None:
                try:
                    after(fn, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    # A count this benchmark cannot read from a changed
                    # return type is a measurement miss, not a program fault.
                    self.counts["tracer.hook_errors"] += 1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- count hooks: _before_<function> and _after_<function> ---------------
    def _after_build_graph(self, fn, args, kwargs, graph):
        self.counts["bruhat.edges"] += len(graph.edges)

    def _after_incidence_matrix(self, fn, args, kwargs, matrix):
        self.counts["bruhat.nnz"] += matrix.nnz

    def _after_rietsch_eigenvector(self, fn, args, kwargs, vector):
        self.counts["symfunc.jt_determinants"] += len(vector)

    def _after_spectral_report(self, fn, args, kwargs, report):
        params = _bound_args(fn, args, kwargs)["params"]
        self._power_iterations(report.power_iterations,
                               operator_nnz(params.k, params.n))

    @staticmethod
    def _before_principal_eigenvalue(args, kwargs):
        if args:
            return (CountingOperator(args[0]),) + tuple(args[1:]), kwargs
        return args, dict(kwargs, matrix=CountingOperator(kwargs["matrix"]))

    def _after_principal_eigenvalue(self, fn, args, kwargs, value):
        op = args[0] if args else kwargs["matrix"]
        self._power_iterations(op.matvecs, op.nnz)

    def _power_iterations(self, iterations: int, nnz: int):
        self.counts["spectral.power_iterations"] += iterations
        self.counts["spectral.matvec_flops"] += iterations * 2 * nnz

    def _after_check_second_proof_lemma(self, fn, args, kwargs, ok):
        a = _bound_args(fn, args, kwargs)
        self.counts["galkin.grid_points"] += grid_points(3.0, a["n"] / 2,
                                                         a["grid_step"])

    def _after_check_concavity_monotonicity(self, fn, args, kwargs, ok):
        a = _bound_args(fn, args, kwargs)
        step = a["grid_step"]
        self.counts["galkin.grid_points"] += grid_points(
            2.0 * (a["k"] - 1) + step, a["x_max"], step)

    # -- patching ------------------------------------------------------------
    def install(self):
        """Wrap every function in TRACED wherever the package refers to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "chevalley"
                                         or name.startswith("chevalley."))]
        for mod_name, fn_names in TRACED.items():
            module = sys.modules.get(f"chevalley.{mod_name}")
            for fn_name in fn_names:
                original = getattr(module, fn_name, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self.wrap(
                    f"{mod_name}.{fn_name}", original,
                    before=getattr(self, f"_before_{fn_name}", None),
                    after=getattr(self, f"_after_{fn_name}", None))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patches.append((m, attr, value))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, value in reversed(self._patches):
            setattr(m, attr, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------
    def summary(self) -> dict:
        """Self time and calls per function, plus the exact work counts."""
        return {"self": {name: list(v) for name, v in self_times(self.spans).items()},
                "counts": dict(self.counts),
                "spans": len(self.spans),
                "missing": self.missing}

    def span_records(self) -> list[dict]:
        return [{"id": s.id, "parent": s.parent, "name": s.name,
                 "start": s.start, "end": s.end} for s in self.spans]
