"""The divisor-class operator at q=1, its spectrum and consistency checks.

The operator is n times the quantum Bruhat incidence matrix.  Its principal
eigenvalue is computed by shifted power iteration (the unshifted operator has
n eigenvalues of equal top modulus, so a positive shift is required for
convergence), the full spectrum comes from the closed form n*S_(1) evaluated
over the index set, and every closed-form eigenpair is validated by residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .bruhat import build_graph, incidence_matrix, is_strongly_connected
from .combinatorics import DEFAULT_RANK_CAP, GrassmannianParams
from .errors import CrossCheckError, IterationFailureError
from . import galkin
from .symfunc import (SpectralIndex, central_index, enumerate_indices,
                      rietsch_eigenvector, roots_tuple, schur_eval)

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
    max_eigen_residual: float
    power_iterations: int


def c1_operator(params: GrassmannianParams,
                rank_cap: int = DEFAULT_RANK_CAP) -> sp.csr_matrix:
    """n * (incidence matrix), entries in {0, n}, columns act as sources."""
    graph = build_graph(params, rank_cap=rank_cap)
    return params.n * incidence_matrix(graph).astype(float)


def _power_iteration(matrix, shift, tol, max_iter):
    m = matrix.shape[0]
    v = np.full(m, 1.0 / np.sqrt(m))
    rq_prev = None
    for it in range(1, max_iter + 1):
        w = matrix @ v + shift * v
        rq = float(v @ w)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            raise IterationFailureError("iterate collapsed to zero",
                                        last_value=rq, last_vector=v, iterations=it)
        v = w / nw
        if rq_prev is not None and abs(rq - rq_prev) < tol * max(1.0, abs(rq)):
            return rq - shift, it, v
        rq_prev = rq
    raise IterationFailureError(
        f"no convergence after {max_iter} iterations",
        last_value=rq_prev - shift, last_vector=v, iterations=max_iter)


def principal_eigenvalue(matrix, shift: float,
                         tol: float = DEFAULT_POWER_TOL,
                         max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Largest real eigenvalue of a nonnegative irreducible matrix.

    Power iteration runs on matrix + shift*I from the all-ones start vector
    until the Rayleigh quotient settles; the shift is subtracted back off.
    """
    value, _, _ = _power_iteration(matrix, shift, tol, max_iter)
    return value


def spectrum_closed_form(params: GrassmannianParams) -> np.ndarray:
    """All eigenvalues n * S_(1)(zeta^I) over the index set, with multiplicity."""
    return params.n * np.sum(roots_tuple(enumerate_indices(params), params),
                             axis=1)


def eigen_residual(I: SpectralIndex, params: GrassmannianParams,
                   operator: sp.csr_matrix | None = None) -> float:
    """Relative sup-norm residual of the closed-form eigenpair labeled by I."""
    if operator is None:
        operator = c1_operator(params)
    v = rietsch_eigenvector(I, params)
    eig = params.n * np.sum(roots_tuple(I, params))
    r = operator @ v - eig * v
    return float(np.max(np.abs(r)) / np.max(np.abs(v)))


def _multiset_invariant_under(spectrum: np.ndarray, factor: complex,
                              tol: float) -> bool:
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


def property_o_check(params: GrassmannianParams,
                     tol: float = 1e-8) -> tuple[int, bool, bool]:
    """(top multiplicity, rotation closure, top circle lands on roots of unity).

    Expected findings: the largest real eigenvalue is simple, the spectrum is
    invariant under rotation by e^{2 pi i / n}, and every eigenvalue of top
    modulus is that value times an n-th root of unity.
    """
    n = params.n
    spectrum = spectrum_closed_form(params)
    delta0 = float(np.max(np.abs(spectrum)))
    top_multiplicity = int(np.sum(np.abs(spectrum - delta0) < tol))
    zeta = np.exp(2j * np.pi / n)
    rotation_closed = _multiset_invariant_under(spectrum, zeta, tol)
    roots = delta0 * np.exp(2j * np.pi * np.arange(n) / n)
    top = spectrum[np.abs(np.abs(spectrum) - delta0) < tol]
    top_arguments_are_roots = all(
        np.min(np.abs(roots - z)) < tol for z in top)
    return top_multiplicity, rotation_closed, top_arguments_are_roots


def spectral_report(params: GrassmannianParams, tol: float = 1e-8,
                    shift: float | None = None,
                    power_tol: float = DEFAULT_POWER_TOL,
                    max_iter: int = DEFAULT_MAX_ITER,
                    rank_cap: int = DEFAULT_RANK_CAP) -> SpectralReport:
    """Compute delta0 by all four routes and cross-check them pairwise."""
    k, n = params.k, params.n
    matrix = c1_operator(params, rank_cap=rank_cap)
    if not is_strongly_connected(matrix):
        raise CrossCheckError(
            f"quantum Bruhat graph of Gr({k},{n}) is not strongly connected; "
            "Perron-Frobenius reasoning does not apply")
    if shift is None:
        shift = float(n)
    d_matrix, iterations, _ = _power_iteration(matrix, shift, power_tol, max_iter)

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

    max_residual = max(eigen_residual(I, params, matrix)
                       for I in enumerate_indices(params))
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
        max_eigen_residual=max_residual,
        power_iterations=iterations,
    )
