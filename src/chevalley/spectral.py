"""The divisor-class operator at q=1, its spectrum and consistency checks.

The operator is n times the quantum Bruhat incidence matrix.  Its principal
eigenvalue is seeded by thick-restart Arnoldi on the ring-rotation quotient
and certified by shifted power steps on the full operator (a positive shift:
n eigenvalues share the top modulus) that stop on the width of the
Collatz-Wielandt bracket, which holds rho for any v > 0, so no seed can move
it.  The full spectrum is the closed form n*S_(1) over the index set, and
every closed-form eigenpair is validated by residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bruhat import (IncidenceOperator, build_graph, incidence_matrix,
                     is_strongly_connected)
from .combinatorics import (DEFAULT_RANK_CAP, GrassmannianParams, k_subsets,
                            lex_rotation)
from .errors import CrossCheckError, IterationFailureError
from . import galkin
from .symfunc import (SpectralIndex, central_index, enumerate_indices,
                      rietsch_eigenvector, roots_tuple, schur_eval)

DEFAULT_POWER_TOL = 1e-12
DEFAULT_MAX_ITER = 1_000_000
KRYLOV_BASIS = 20  # Arnoldi vectors held at once
KRYLOV_KEEP = 10  # Ritz directions kept across a restart


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
    power_iterations: int  # operator products, Arnoldi and power steps
    matrix_bracket: tuple[float, float]  # Collatz-Wielandt [lo, hi] on delta0


def c1_operator(params: GrassmannianParams,
                rank_cap: int = DEFAULT_RANK_CAP) -> IncidenceOperator:
    """n * (incidence matrix), entries in {0, n}, columns act as sources."""
    graph = build_graph(params, rank_cap=rank_cap)
    return incidence_matrix(graph, float(params.n))


def _arnoldi_seed(matrix, tol, max_iter):
    """Rightmost Ritz vector of matrix and the operator products it took.

    Thick-restart Arnoldi from the all-ones vector: a basis of at most
    KRYLOV_BASIS vectors, restarted on an orthonormal basis of the real
    invariant subspace of the KRYLOV_KEEP rightmost Ritz values (each
    conjugate pair taken once, as its real and imaginary parts).  It stops
    when the rightmost Ritz residual is below tol/100 relative, when the basis
    spans an invariant subspace (always, by rank <= KRYLOV_BASIS), or at
    max_iter products.  The vector is only a start: the certifying power
    steps make the value; _power_iteration runs it on the rotation quotient.
    """
    size = matrix.shape[0]
    m = min(KRYLOV_BASIS, size)
    basis = np.empty((m + 1, size))
    h = np.zeros((m + 1, m))
    basis[0] = 1.0 / np.sqrt(size)
    if max_iter < 1:
        return basis[0], 0
    j = products = 0
    while True:
        invariant = False
        while j < m and products < max_iter:
            w = matrix @ basis[j]
            products += 1
            scale = beta = np.linalg.norm(w)
            # classical Gram-Schmidt, repeated once if it shrank w below
            # 1/sqrt(2) of its norm (Daniel-Gragg-Kaufman-Stewart)
            for _ in range(2):
                c = basis[:j + 1] @ w
                w -= c @ basis[:j + 1]
                h[:j + 1, j] += c
                before, beta = beta, np.linalg.norm(w)
                if beta * np.sqrt(2) > before:
                    break
            j += 1
            # a remainder at rounding level (measured <= 1e-14 of ||Av||):
            # the basis spans an invariant subspace
            if j == size or beta <= 1e-12 * scale:
                invariant = True
                break
            h[j, j - 1] = beta
            basis[j] = w / beta
        theta, y = np.linalg.eig(h[:j, :j])
        order = np.argsort(-theta.real, kind="stable")
        theta, y = theta[order], y[:, order]
        top = y[:, 0].real @ basis[:j]
        residual = 0.0 if invariant else abs(h[j, :j] @ y[:, 0])
        if (invariant or products >= max_iter
                or residual <= tol / 100 * abs(theta[0])):
            return top, products
        keep = []
        for value, vec in zip(theta, y.T):
            if len(keep) >= KRYLOV_KEEP:
                break
            if value.imag >= 0:  # imag < 0: the partner of a pair taken
                keep += [vec.real, vec.imag] if value.imag > 0 else [vec.real]
        q, _ = np.linalg.qr(np.column_stack(keep))
        p = q.shape[1]
        # A V Q = V Q (Q^T H Q) + v_m (h_m Q): a Krylov decomposition of size p
        h[:p, :p], h[p, :p] = q.T @ h[:m, :m] @ q, h[m, :m] @ q
        h[:p + 1, p:] = h[p + 1:, :] = 0.0
        basis[:p], basis[p] = q.T @ basis[:m], basis[m]
        j = p


def _power_iteration(matrix, shift, tol, max_iter):
    """(value, operator products, Collatz-Wielandt bracket) of the Perron root.

    From the Arnoldi seed, v = |Re(Ritz vector)| (of matrix.quotient, lifted
    through matrix.orbit, if matrix has one) takes shifted power steps
    v <- (Av + shift*v)/||.||.  For A >= 0 irreducible and v > 0,
    min_i (Av)_i/v_i <= rho(A) <= max_i (Av)_i/v_i after every product; the
    midpoint is returned once the width is below tol*max(1, midpoint).
    """
    quotient = getattr(matrix, "quotient", None)
    v, products = _arnoldi_seed(quotient or matrix, tol, max_iter)
    v = np.abs(v if quotient is None else v[matrix.orbit])
    lo = hi = np.nan
    while products < max_iter:
        norm = np.linalg.norm(v)
        if not norm > 0:
            raise IterationFailureError("iterate collapsed to zero",
                                        last_vector=v, iterations=products)
        v /= norm
        av = matrix @ v
        products += 1
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
    return params.n * np.sum(roots_tuple(enumerate_indices(params), params),
                             axis=1)


def eigen_residual(I: SpectralIndex, params: GrassmannianParams,
                   operator: IncidenceOperator) -> float:
    """Relative sup-norm residual of the closed-form eigenpair labeled by I
    against operator, which is c1_operator(params)."""
    v = rietsch_eigenvector(I, params)
    eig = params.n * np.sum(roots_tuple(I, params))
    r = operator @ v - eig * v
    return float(np.max(np.abs(r)) / np.max(np.abs(v)))


def _rotation(params: GrassmannianParams) -> np.ndarray:
    """Position of I+ for each index I: every particle of I (its pool positions,
    listed in the lex order of k_subsets) moves one site on around the ring."""
    return lex_rotation(k_subsets(params.n, params.k)[:, -1] == params.n - 1)


def property_o_check(params: GrassmannianParams,
                     tol: float = 1e-8) -> tuple[int, bool, bool]:
    """(top multiplicity, rotation closure, top circle lands on roots of unity).

    Expected findings: the largest real eigenvalue is simple, the spectrum is
    invariant under rotation by zeta = e^{2 pi i / n}, and every eigenvalue of
    top modulus is that value times an n-th root of unity.  Closure is
    certified by the bijection I -> I+ of the index set (_rotation), where I+
    adds 2 to every doubled exponent and wraps past 2n-k-1 by -2n:
    spectrum[I+] = zeta * spectrum[I] maps the multiset onto its rotation.
    """
    n = params.n
    spectrum = spectrum_closed_form(params)
    delta0 = float(np.max(np.abs(spectrum)))
    top_multiplicity = int(np.sum(np.abs(spectrum - delta0) < tol))
    zeta = np.exp(2j * np.pi / n)
    rotation_closed = bool(np.all(
        np.abs(spectrum[_rotation(params)] - zeta * spectrum) < tol))
    roots = delta0 * np.exp(2j * np.pi * np.arange(n) / n)
    top = spectrum[np.abs(np.abs(spectrum) - delta0) < tol]
    top_arguments_are_roots = all(
        np.min(np.abs(roots - z)) < tol for z in top)
    return top_multiplicity, rotation_closed, top_arguments_are_roots


def spectral_report(params: GrassmannianParams, tol: float = 1e-8,
                    shift: float | None = None,
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

    residuals = np.array([eigen_residual(I, params, matrix)
                          for I in enumerate_indices(params)])
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
