"""The divisor-class operator at q=1, its spectrum and consistency checks.

The operator is n times the quantum Bruhat incidence matrix.  Its principal
eigenvalue is certified by shifted power steps (a positive shift: n
eigenvalues share the top modulus) from the closed-form Perron vector that
incidence_matrix attaches, stopped on the width of the Collatz-Wielandt
bracket of a product with the operator.  The bracket holds rho for any
v > 0, so the start only sets the number of products (one, when it is
exact), never the value.  The full spectrum is the closed form n*S_(1) over
the index table symfunc._index_table, and every closed-form eigenpair is
validated by residual against the built operator, orbit by orbit of its
rotation I -> I+, so that symfunc.rietsch_eigenvector takes one stacked
determinant per orbit; a wrong phase shows up as a residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bruhat import (IncidenceOperator, build_graph, incidence_matrix,
                     is_strongly_connected)
from .combinatorics import DEFAULT_RANK_CAP, GrassmannianParams
from .errors import CrossCheckError, IterationFailureError
from . import galkin
from .symfunc import (SpectralIndex, _index_table, central_index,
                      enumerate_indices, rietsch_eigenvector, roots_tuple,
                      schur_eval)

DEFAULT_POWER_TOL = 1e-12
DEFAULT_MAX_ITER = 1_000_000


@dataclass
class SpectralReport:
    params: GrassmannianParams
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


def c1_operator(params: GrassmannianParams,
                rank_cap: int = DEFAULT_RANK_CAP) -> IncidenceOperator:
    """n * (incidence matrix), entries in {0, n}, columns act as sources."""
    graph = build_graph(params, rank_cap=rank_cap)
    return incidence_matrix(graph, float(params.n))


def _power_iteration(matrix, shift, tol, max_iter):
    """(value, operator products, Collatz-Wielandt bracket) of the Perron root.

    From v = matrix.start, or all ones for a matrix without one, shifted
    power steps v <- (Av + shift*v)/||.||.  For A >= 0 irreducible and
    v > 0, min_i (Av)_i/v_i <= rho(A) <= max_i (Av)_i/v_i after every
    product; the midpoint is returned once the width is below
    tol*max(1, midpoint).
    """
    start = getattr(matrix, "start", None)
    v = np.ones(matrix.shape[0]) if start is None else np.array(start, float)
    lo = hi = np.nan
    for products in range(1, max_iter + 1):
        norm = np.linalg.norm(v)
        if not norm > 0:
            raise IterationFailureError("iterate collapsed to zero",
                                        last_vector=v, iterations=products - 1)
        v /= norm
        av = matrix @ v
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = av / v
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        mid = 0.5 * (lo + hi)
        if hi - lo < tol * max(1.0, mid):
            return mid, products, (lo, hi)
        v = av + shift * v
    raise IterationFailureError(
        f"no convergence after {max_iter} operator products",
        last_value=0.5 * (lo + hi), last_vector=v, iterations=max_iter)


def principal_eigenvalue(matrix, shift: float) -> float:
    """Largest real eigenvalue of a nonnegative irreducible matrix (anything
    with `shape` and `@` on vectors): the midpoint of _power_iteration's
    Collatz-Wielandt bracket once narrower than DEFAULT_POWER_TOL relative,
    within DEFAULT_MAX_ITER operator products."""
    return _power_iteration(matrix, shift, DEFAULT_POWER_TOL,
                            DEFAULT_MAX_ITER)[0]


def spectrum_closed_form(params: GrassmannianParams) -> np.ndarray:
    """All eigenvalues n * S_(1)(zeta^I) over the index set, with multiplicity."""
    roots = roots_tuple(2 * np.arange(params.n) - (params.k - 1), params)
    return params.n * roots.take(_index_table(params)[0]).sum(axis=1)


def eigen_residual(I: SpectralIndex, params: GrassmannianParams,
                   operator: IncidenceOperator) -> float:
    """Relative sup-norm residual of the closed-form eigenpair labeled by I
    against operator, which is c1_operator(params)."""
    n = params.n
    v = rietsch_eigenvector(I, params)
    # n * S_(1)(zeta^I) in scalars: numpy's per-call cost dominates k values
    eig = n * sum(complex(math.cos(math.pi * d / n), math.sin(math.pi * d / n))
                  for d in I)
    r = operator @ v
    r -= eig * v
    return float(np.abs(r).max() / np.abs(v).max())


def _eigen_residuals(params: GrassmannianParams,
                     operator: IncidenceOperator) -> np.ndarray:
    """eigen_residual of every index, in enumerate_indices order, walked
    stably sorted by _index_table's orbit starts: each orbit stays together,
    so rietsch_eigenvector computes its lex-least member's vector once and
    reaches the others by phases.  The index list is freed before property O."""
    indices = enumerate_indices(params)
    residuals = np.empty(params.rank)
    for pos in np.argsort(_index_table(params)[2], kind="stable").tolist():
        residuals[pos] = eigen_residual(indices[pos], params, operator)
    return residuals


def property_o_check(params: GrassmannianParams,
                     tol: float = 1e-8) -> tuple[int, bool, bool]:
    """(top multiplicity, rotation closure, top circle lands on roots of unity).

    Expected findings: the largest real eigenvalue is simple, the spectrum is
    invariant under rotation by zeta = e^{2 pi i / n}, and every eigenvalue of
    top modulus is that value times an n-th root of unity.  Closure is
    certified by the bijection I -> I+ of the index set (_index_table), where
    I+ adds 2 to every doubled exponent and wraps past 2n-k-1 by -2n:
    spectrum[I+] = zeta * spectrum[I] maps the multiset onto its rotation.
    """
    n = params.n
    spectrum = spectrum_closed_form(params)
    delta0 = float(np.max(np.abs(spectrum)))
    top_multiplicity = int(np.sum(np.abs(spectrum - delta0) < tol))
    zeta = np.exp(2j * np.pi / n)
    rotation_closed = bool(np.all(
        np.abs(spectrum[_index_table(params)[1]] - zeta * spectrum) < tol))
    roots = delta0 * np.exp(2j * np.pi * np.arange(n) / n)
    top = spectrum[np.abs(np.abs(spectrum) - delta0) < tol]
    top_arguments_are_roots = all(
        np.min(np.abs(roots - z)) < tol for z in top)
    return top_multiplicity, rotation_closed, top_arguments_are_roots


def spectral_report(params: GrassmannianParams, tol: float = 1e-8,
                    shift: float | None = None,
                    max_iter: int = DEFAULT_MAX_ITER,
                    rank_cap: int = DEFAULT_RANK_CAP) -> SpectralReport:
    """Compute delta0 by all four routes and cross-check them pairwise,
    then check every closed-form eigenpair (_eigen_residuals, orbit by orbit
    of the rotation, each residual stored at its index's lex position) and
    property O."""
    k, n = params.k, params.n
    matrix = c1_operator(params, rank_cap=rank_cap)
    if not is_strongly_connected(matrix):
        raise CrossCheckError(
            f"quantum Bruhat graph of Gr({k},{n}) is not strongly connected; "
            "Perron-Frobenius reasoning does not apply")
    if shift is None:
        shift = float(n)
    d_matrix, iterations, bracket = _power_iteration(
        matrix, shift, DEFAULT_POWER_TOL, max_iter)

    one_box = (1,) + (0,) * (k - 1)
    s1 = schur_eval(one_box, roots_tuple(central_index(params), params))
    if abs(s1.imag) > tol * max(1.0, abs(s1)):
        raise CrossCheckError(f"S_(1) at the central index is not real: {s1}")
    d_schur = n * s1.real
    d_sine = galkin.delta0_sine(k, float(n))
    d_cosine = galkin.delta0_cosine_sum(k, float(n))

    routes = {"matrix": d_matrix, "schur": d_schur,
              "sine": d_sine, "cosine": d_cosine}
    for a in routes:
        for b in routes:
            if abs(routes[a] - routes[b]) > tol * max(1.0, abs(routes[a])):
                raise CrossCheckError(
                    f"delta0 routes disagree: {a}={routes[a]!r} vs {b}={routes[b]!r}")

    residuals = _eigen_residuals(params, matrix)
    top_mult, rot_closed, top_roots = property_o_check(params, tol)
    return SpectralReport(
        params=params,
        delta0_matrix=d_matrix,
        delta0_schur=d_schur,
        delta0_sine=d_sine,
        delta0_cosine=d_cosine,
        spectrum=spectrum_closed_form(params),
        top_multiplicity=top_mult,
        rotation_closed=rot_closed,
        top_arguments_are_roots=top_roots,
        eigen_residuals=residuals,
        max_eigen_residual=float(residuals.max()),
        power_iterations=iterations,
        matrix_bracket=bracket,
    )
