"""The divisor-class operator at q=1, its spectrum and consistency checks.

The operator is n times the quantum Bruhat incidence matrix.  Its principal
eigenvalue is certified by shifted power steps (a positive shift: n
eigenvalues share the top modulus) from the closed-form Perron vector that
incidence_matrix attaches, stopped on the width of the Collatz-Wielandt
bracket of a product with the operator.  The bracket holds rho for any
v > 0, so the start only sets the number of products (one, when it is
exact), never the value.  The full spectrum is the closed form n*S_(1) over
the index table combinatorics.rotation_orbits.  Every closed-form eigenpair,
with the eigenvalue that spectrum lists, is checked by residual against the
built operator, orbit by orbit of the rotation I -> I+ (rietsch_eigenvector:
one stacked determinant per orbit), in chunks of rows, one np.add.at each.
spectral_report raises on no failed check: it decides every check from one
table of named passing conditions and lists the names that fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bruhat import (IncidenceOperator, build_graph, incidence_matrix,
                     is_strongly_connected)
from .combinatorics import GrassmannianParams, rotation_orbits
from .errors import IterationFailureError
from . import galkin
from .symfunc import (SpectralIndex, central_index, enumerate_indices,
                      rietsch_eigenvector, roots_tuple, schur_eval)

DEFAULT_POWER_TOL = 1e-12
DEFAULT_MAX_ITER = 1_000_000
_CHUNK_BYTES = 256 * 1024  # eigen_residual's chunk: 24 B per edge, 48 per vertex a row
PROPERTY_O_TOL = 1e-8  # property_o_check's band, apart from --tol


@dataclass
class SpectralReport:
    delta0_matrix: float
    delta0_schur: float
    delta0_sine: float
    delta0_cosine: float
    spectrum: np.ndarray
    top_multiplicity: int
    rotation_closed: bool
    top_arguments_are_roots: bool
    eigen_residuals: np.ndarray  # per index, in enumerate_indices order
    max_eigen_residual: float
    power_iterations: int  # operator products of the power steps
    matrix_bracket: tuple[float, float]  # Collatz-Wielandt [lo, hi] on delta0
    failed: list[str]  # the checks of spectral_report that did not pass


def c1_operator(params: GrassmannianParams) -> IncidenceOperator:
    """n * (incidence matrix), entries in {0, n}, columns act as sources."""
    graph = build_graph(params)
    return incidence_matrix(graph, float(params.n))


def _narrow(bracket, tol) -> bool:
    """The power steps' stop: a bracket narrower than tol*max(1, midpoint)."""
    lo, hi = bracket
    return hi - lo < tol * max(1.0, 0.5 * (lo + hi))


def _power_iteration(matrix, shift, tol, max_iter):
    """(value, operator products, Collatz-Wielandt bracket) of the Perron root.

    From v = matrix.start, or all ones for a matrix without one, shifted
    power steps v <- (Av + shift*v)/||.||.  For A >= 0 irreducible and
    v > 0, min_i (Av)_i/v_i <= rho(A) <= max_i (Av)_i/v_i after every
    product.  Stops once the bracket is _narrow, after max_iter products or
    on an iterate of no positive norm, and returns the last bracket (NaN
    before any product) with its midpoint.
    """
    start = getattr(matrix, "start", None)
    v = np.ones(matrix.shape[0]) if start is None else np.array(start, float)
    products, lo, hi = 0, np.nan, np.nan
    while products < max_iter and (norm := np.linalg.norm(v)) > 0:
        v /= norm
        av = matrix @ v
        products += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = av / v
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        if _narrow((lo, hi), tol):
            break
        v = av + shift * v
    return 0.5 * (lo + hi), products, (lo, hi)


def principal_eigenvalue(matrix, shift: float) -> float:
    """Largest real eigenvalue of a nonnegative irreducible matrix (anything
    with `shape` and `@` on vectors): the midpoint of _power_iteration's
    Collatz-Wielandt bracket once narrower than DEFAULT_POWER_TOL relative;
    IterationFailureError if it is not within DEFAULT_MAX_ITER products."""
    value, products, bracket = _power_iteration(
        matrix, shift, DEFAULT_POWER_TOL, DEFAULT_MAX_ITER)
    if not _narrow(bracket, DEFAULT_POWER_TOL):
        raise IterationFailureError(
            f"no convergence after {products} operator products")
    return value


def spectrum_closed_form(params: GrassmannianParams) -> np.ndarray:
    """All eigenvalues n * S_(1)(zeta^I) over the index set, with multiplicity."""
    roots = roots_tuple(2 * np.arange(params.n) - (params.k - 1), params)
    return params.n * roots.take(rotation_orbits(params)[0]).sum(axis=1)


def eigen_residual(I: SpectralIndex | list[SpectralIndex], params: GrassmannianParams,
                   operator: IncidenceOperator) -> float | np.ndarray:
    """Relative sup-norm residual of the closed-form eigenpair labeled by I
    against operator = c1_operator(params); for a list, the array of theirs.
    The eigenvalue n * sum roots_tuple(I) is spectrum_closed_form's, and row
    i of a chunk takes its weighted, gathered edges by one unbuffered
    np.add.at at i*rank + target in edge order from +0, as operator @ v."""
    indices = I if isinstance(I, list) else [I]
    rank, nnz = params.rank, operator.nnz
    rows = max(1, min(len(indices), _CHUNK_BYTES // (24 * nnz + 48 * rank)))
    eigs = params.n * roots_tuple(indices, params).sum(axis=1)
    vectors, products, gathered = (np.empty((rows, m), complex) for m in (rank, rank, nnz))
    at = np.add.outer(rank * np.arange(rows), operator.target)
    residuals = np.empty(len(indices))
    for lo in range(0, len(indices), rows):
        chunk = indices[lo:lo + rows]
        v, r, g = vectors[:len(chunk)], products[:len(chunk)], gathered[:len(chunk)]
        for row, J in zip(v, chunk):
            row[:] = rietsch_eigenvector(J, params)
        np.take(v * operator.weight, operator.source, axis=1, out=g,
                mode="clip")  # "raise" copies
        r.fill(0)
        np.add.at(r.reshape(-1), at[:len(chunk)].reshape(-1), g.reshape(-1))
        r -= eigs[lo:lo + rows, None] * v  # eig first, as eig * v
        residuals[lo:lo + rows] = np.abs(r).max(axis=1) / np.abs(v).max(axis=1)
    return residuals if isinstance(I, list) else float(residuals[0])


def _eigen_residuals(params: GrassmannianParams,
                     operator: IncidenceOperator) -> np.ndarray:
    """eigen_residual of every index, in enumerate_indices order, from one
    call on them stably sorted by orbit start (rotation_orbits), so that
    rietsch_eigenvector expands each orbit once and reaches the rest by
    phases; only each index's own residual checks its phase, so all are run."""
    indices = enumerate_indices(params)
    order = np.argsort(rotation_orbits(params)[2], kind="stable")
    walked = eigen_residual([indices[i] for i in order], params, operator)
    return walked[np.argsort(order)]


def property_o_check(params: GrassmannianParams) -> tuple[int, bool, bool]:
    """(top multiplicity, rotation closure, top circle lands on roots of unity).

    Expected findings, to PROPERTY_O_TOL: the largest real eigenvalue is
    simple, the spectrum is invariant under rotation by zeta = e^{2 pi i / n},
    and every eigenvalue of top modulus is that value times an n-th root of
    unity.  Closure is certified by the bijection I -> I+ of the index set
    (rotation_orbits), where I+ adds 2 to every doubled exponent and wraps
    past 2n-k-1 by -2n: spectrum[I+] = zeta * spectrum[I] maps the multiset
    onto its rotation.
    """
    n = params.n
    spectrum = spectrum_closed_form(params)
    delta0 = float(np.max(np.abs(spectrum)))
    top_multiplicity = int(np.sum(np.abs(spectrum - delta0) < PROPERTY_O_TOL))
    zeta = np.exp(2j * np.pi / n)
    rotation_closed = bool(np.all(
        np.abs(spectrum[rotation_orbits(params)[1]] - zeta * spectrum) < PROPERTY_O_TOL))
    top = spectrum[np.abs(np.abs(spectrum) - delta0) < PROPERTY_O_TOL]
    nearest = np.rint(n * np.angle(top) / (2 * np.pi)) % n  # by angle = by distance
    top_arguments_are_roots = bool(np.all(
        np.abs(delta0 * np.exp(2j * np.pi * nearest / n) - top) < PROPERTY_O_TOL))
    return top_multiplicity, rotation_closed, top_arguments_are_roots


def spectral_report(params: GrassmannianParams, tol: float = 1e-8,
                    shift: float | None = None,
                    max_iter: int = DEFAULT_MAX_ITER) -> SpectralReport:
    """Compute delta0 by all four routes, check every closed-form eigenpair
    (_eigen_residuals, orbit by orbit of the rotation, each residual stored
    at its index's lex position) and property O, and evaluate every check
    into one table; no failed check raises, its name goes to `failed`."""
    k, n = params.k, params.n
    matrix = c1_operator(params)
    d_matrix, iterations, bracket = _power_iteration(
        matrix, float(n) if shift is None else shift, DEFAULT_POWER_TOL, max_iter)
    one_box = (1,) + (0,) * (k - 1)
    s1 = schur_eval(one_box, roots_tuple(central_index(params), params))
    routes = (d_matrix, n * s1.real, galkin.delta0_sine(k, float(n)),
              galkin.delta0_cosine_sum(k, float(n)))  # the delta0_* fields
    residuals = _eigen_residuals(params, matrix)
    top_mult, rot_closed, top_roots = property_o_check(params)
    checks = {  # each as its passing condition, so NaN fails it
        "strongly_connected": is_strongly_connected(matrix),  # so the bracket holds
        "converged": _narrow(bracket, DEFAULT_POWER_TOL),
        "schur_real": abs(s1.imag) <= tol * max(1.0, abs(s1)),
        "routes_agree": all(abs(a - b) <= tol * max(1.0, abs(a))
                            for a in routes for b in routes),
        "residuals": residuals.max() < tol,
        "top_simple": top_mult == 1,
        "rotation_closed": rot_closed,
        "top_on_roots": top_roots,
    }
    return SpectralReport(
        *routes,
        spectrum=spectrum_closed_form(params),
        top_multiplicity=top_mult,
        rotation_closed=rot_closed,
        top_arguments_are_roots=top_roots,
        eigen_residuals=residuals,
        max_eigen_residual=float(residuals.max()),
        power_iterations=iterations,
        matrix_bracket=bracket,
        failed=[name for name, passed in checks.items() if not passed],
    )
