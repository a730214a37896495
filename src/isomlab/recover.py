"""Decompose isometries of the classified norms into canonical data.

On the traceless Hermitian space every isometry of a non-Euclidean invariant
norm is ``A -> eta U (A or -A.T) U^{-1} + B``; on the real skew space it is
``A -> sign Q psi^f(A) Q.T``, with the entry swap psi only at n = 4.  So the
linear part lies on one of at most four branches, and each decomposition
tries them in a fixed order: the first branch on which an explicit inversion
of the conjugation (congruence) action succeeds wins.  Both inversions are
one closed form: the conjugating matrix is an extreme eigenvector of the
rearranged superoperator of the branch's linear part, and the
``RESIDUAL_TOL`` reconstruction residual alone rejects the wrong branches.
A map that no branch reproduces (an isometry of the Euclidean norm, say) is
outside the classified family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, NotAdjointImage, NotInClassifiedForm, NotIsometry
from .groups import ad_matrix, cartan_matrix, psi_matrix, so_adjoint_matrix
from .matspace import (  # noqa: F401 (vectorize: perfbench/tracing.py wraps recover's binding)
    HERMITIAN_TRACELESS,
    SKEW_REAL,
    Basis,
    apply_map,
    basis_for,
    devectorize,
    gell_mann_basis,
    random_element,
    skew_basis,
    vectorize,
)
from .norms import NormSpec, norm_value

#: accepted end-to-end reconstruction residual for recovered forms
RESIDUAL_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class IsometryDecomposition:
    """Canonical data of a Hermitian-space isometry.

    The decomposed map is ``A -> eta * U (sigma-branch of A) U^{-1} + B``
    where the sigma branch applies A -> -A.T first when ``sigma_flag`` is
    set.  ``unitary`` is determined up to an n-th root of unity and is
    normalized to determinant one; ``residual`` is the max coordinate
    deviation of the rebuilt linear part from the input.
    """

    eta: int
    sigma_flag: bool
    unitary: np.ndarray
    translation: np.ndarray
    residual: float


@dataclass(frozen=True, eq=False)
class SkewIsometryDecomposition:
    """Canonical data of a skew-space isometry: ``A -> sign * Q psi^f(A) Q.T``
    with ``orthogonal`` determined up to global sign and ``psi_flag`` only
    ever set at n = 4."""

    sign: int
    psi_flag: bool
    orthogonal: np.ndarray
    residual: float


def unitary_phase_distance(U: np.ndarray, V: np.ndarray) -> float:
    """min over n-th roots of unity zeta of max-entry |U - zeta V|."""
    n = U.shape[0]
    zetas = np.exp(2j * np.pi * np.arange(n) / n)
    return min(float(np.max(np.abs(U - z * V))) for z in zetas)


def orthogonal_sign_distance(Q: np.ndarray, P: np.ndarray) -> float:
    """min over s in {+1, -1} of max-entry |Q - s P|."""
    return min(
        float(np.max(np.abs(Q - P))), float(np.max(np.abs(Q + P)))
    )


def _polar_orthogonal(B: np.ndarray) -> np.ndarray:
    """Nearest orthogonal matrix (unitary, for complex B): W Vh of B's SVD."""
    W, _, Vh = np.linalg.svd(B)
    return W @ Vh


def _coordinate_map(M: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(M):
        raise InvalidDimension("a coordinate map is real, got a complex matrix")
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not np.all(np.isfinite(M)):
        raise InvalidDimension(
            f"a coordinate map is a finite square matrix, got shape {M.shape}"
        )
    return M


def _conjugator(M: np.ndarray, basis: Basis) -> np.ndarray:
    """Read the conjugating matrix of an adjoint image M off its rearranged
    superoperator.

    With ``images[i]`` the matrix that column i of M represents, the
    rearrangement ``T[(a, c), (b, d)] = sum_i images[i][a, b] B_i[d, c]``
    is Hermitian for every real M (C. F. Van Loan and N. Pitsianis,
    "Approximation with Kronecker products", 1993).  For ``M =
    ad_matrix(U)`` it is ``vec(U) vec(U)* - I/n`` (the identity is what the
    traceless basis misses, and only shifts the spectrum), so vec(U) is its
    top eigenvector.  For ``M = so_adjoint_matrix(Q)`` it is ``-(vec(Q)
    vec(Q).T - P)/2`` with the involution ``P: Y -> Q Y.T Q``, so vec(Q) is
    the top eigenvector of -T, (n - 2)/2 above the rest of its spectrum.
    That eigenvector, reshaped to (n, n), is polished to the nearest unitary
    (orthogonal) matrix; whether M was an adjoint image at all is left to
    the caller's reconstruction residual.  Raises :class:`InvalidDimension`
    unless M is a finite real (d, d) matrix for the basis.
    """
    M = _coordinate_map(M)
    n, d = basis.n, basis.d
    if M.shape != (d, d):
        raise InvalidDimension(
            f"a map on the n = {n} space has shape ({d}, {d}), got {M.shape}"
        )
    images = devectorize(M.T, basis)
    T = images.reshape(d, n * n).T @ basis.mats.reshape(d, n * n)
    T = T.reshape(n, n, n, n).transpose(0, 3, 1, 2).reshape(n * n, n * n)
    if basis.space == SKEW_REAL:
        T = -T
    _, V = np.linalg.eigh(T)
    return _polar_orthogonal(V[:, -1].reshape(n, n))


def recover_unitary_from_ad(M: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Invert the conjugation action: find U with ``ad_matrix(U) = M``.

    U is the top eigenvector of M's rearranged superoperator (see
    :func:`_conjugator`), normalized to determinant one.  Returns ``(U,
    residual)`` with U in SU(n) up to an n-th root of unity and
    ``residual`` the max coordinate deviation of ``ad_matrix(U)`` from M.
    Raises :class:`InvalidDimension` unless M is a finite real
    (n^2 - 1)-square matrix, and :class:`NotAdjointImage` when the residual
    exceeds ``RESIDUAL_TOL``.
    """
    basis = gell_mann_basis(n)
    U = _conjugator(M, basis)
    U = U * np.linalg.det(U) ** (-1.0 / n)
    residual = float(np.max(np.abs(ad_matrix(U, basis) - M)))
    if residual > RESIDUAL_TOL:
        raise NotAdjointImage(
            f"reconstruction residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}",
            residual=residual,
        )
    return U, residual


def _first_branch(branches, recover, n: int):
    """``(branch, recover(candidate, n))`` for the first ``(branch,
    candidate)`` pair whose recovery succeeds; :class:`NotAdjointImage`
    moves on to the next pair, and
    :class:`NotInClassifiedForm` is raised when every pair fails."""
    for branch, candidate in branches:
        try:
            return branch, recover(candidate, n)
        except NotAdjointImage:
            continue
    raise NotInClassifiedForm(
        "no branch of the canonical family reproduces the map"
    )


def classify_eta_sigma(M: np.ndarray, n: int) -> tuple[int, bool, np.ndarray]:
    """Find the branch (eta, sigma_flag) of a Hermitian-space linear map and
    its conjugating unitary.

    Tries ``(M @ cartan if sigma_flag else M) / eta`` in the fixed order
    (1, False), (-1, False), (1, True), (-1, True), the sigma branches only
    for n >= 3 (at n = 2 the involution is itself a conjugation), and
    returns ``(eta, sigma_flag, U)`` from the first branch that
    :func:`recover_unitary_from_ad` inverts.  Raises
    :class:`NotInClassifiedForm` when no branch does.
    """
    # candidates are built as they are tried: a map on a sigma-free branch
    # never forms M @ cartan, and a rejected map's traceback keeps only the
    # last candidate alive
    def branches():
        for sigma_flag in (False, True) if n >= 3 else (False,):
            linear = M @ cartan_matrix(gell_mann_basis(n)) if sigma_flag else M
            for eta in (1, -1):
                yield (eta, sigma_flag), linear / eta

    (eta, sigma_flag), (U, _) = _first_branch(branches(), recover_unitary_from_ad, n)
    return eta, sigma_flag, U


def _check_isometry(M: np.ndarray, spec: NormSpec, n: int, seed, pairs: int = 50) -> None:
    """Distance test on random pairs.  An affine map L with linear part M
    has L(A) - L(B) = M(A - B), so the test compares the norms of M(D) and
    D over one stack of ``pairs`` random differences D, drawn from
    ``seed`` (a seed or a Generator, drawn from in place): two stacked norm
    evaluations in all."""
    D = random_element(spec.space, n, seed, count=pairs)
    lhs = norm_value(apply_map(M, D, basis_for(spec.space, n)), spec)
    rhs = norm_value(D, spec)
    dev = np.abs(lhs - rhs)
    if not np.all(dev <= 1e-8 * np.maximum(rhs, 1e-30)):
        raise NotIsometry(
            f"distance deviation {np.max(dev):.3e} on random pair"
        )


def decompose_isometry(
    M: np.ndarray,
    spec: NormSpec,
    offset: np.ndarray | None = None,
    seed=0,
) -> IsometryDecomposition:
    """Decompose an affine isometry of a Hermitian-space norm.

    ``M`` is the linear part in coordinates, ``offset`` the coordinate
    vector of the translation (defaults to zero; anything but a finite
    vector of shape (d,) raises :class:`InvalidDimension`).  The map is
    first checked to be an isometry of ``spec`` on random pairs drawn from
    ``seed`` (the only random numbers a decomposition uses), then
    :func:`classify_eta_sigma` finds the branch and the conjugating
    unitary.  At n = 2 the involution branch coincides with a conjugation,
    so ``sigma_flag`` is always False there.

    Raises :class:`NotIsometry`, or :class:`NotInClassifiedForm` for
    isometries outside the canonical family (the Euclidean / inner-product
    case admits a full orthogonal group of them).
    """
    M = _coordinate_map(M)
    d = M.shape[0]
    if spec.space != HERMITIAN_TRACELESS:
        raise InvalidDimension("decompose_isometry acts on the Hermitian space")
    n = int(round(np.sqrt(d + 1)))
    if n * n - 1 != d:
        raise InvalidDimension(f"map size {d} is not of the form n^2 - 1")
    basis = gell_mann_basis(n)
    if offset is None:
        offset = np.zeros(d)
    offset = np.asarray(offset, dtype=float)
    if offset.shape != (d,) or not np.all(np.isfinite(offset)):
        raise InvalidDimension(
            f"offset must be a finite coordinate vector of shape ({d},), "
            f"got shape {offset.shape}"
        )
    _check_isometry(M, spec, n, seed)
    translation = devectorize(offset, basis)

    eta, sigma_flag, U = classify_eta_sigma(M, n)
    rebuilt = eta * ad_matrix(U, basis)
    if sigma_flag:
        rebuilt = rebuilt @ cartan_matrix(basis)
    residual = float(np.max(np.abs(rebuilt - M)))
    return IsometryDecomposition(
        eta=eta,
        sigma_flag=sigma_flag,
        unitary=U,
        translation=translation,
        residual=residual,
    )


def recover_orthogonal_from_adso(M: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Invert the congruence action on the skew space: find Q with
    ``so_adjoint_matrix(Q) = M``, up to global sign.

    Q is the top eigenvector of M's negated rearranged superoperator (see
    :func:`_conjugator`), which is separated from the rest of the spectrum
    only for n >= 3; :class:`InvalidDimension` is raised below that, and
    unless M is a finite real (n(n-1)/2)-square matrix.  Returns ``(Q,
    residual)`` with Q in SO(n) and ``residual`` the max coordinate
    deviation of the congruence by Q from M.  Raises
    :class:`NotAdjointImage` when the residual exceeds ``RESIDUAL_TOL``, or
    when M is the congruence by a reflection at even n, which no rotation
    reproduces (at odd n the rotation -Q is returned instead).
    """
    if n < 3:
        raise InvalidDimension("orthogonal recovery needs n >= 3")
    basis = skew_basis(n)
    Q = _conjugator(M, basis)
    residual = float(
        np.max(np.abs(so_adjoint_matrix(Q, basis, allow_reflection=True) - M))
    )
    if residual > RESIDUAL_TOL:
        raise NotAdjointImage(
            f"reconstruction residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}",
            residual=residual,
        )
    if np.linalg.det(Q) < 0:
        if n % 2 == 1:
            # congruence is even in Q; report the det +1 representative
            Q = -Q
        else:
            raise NotAdjointImage(
                "map is the congruence by a reflection, which no rotation "
                f"reproduces at even n (residual {residual:.3e})",
                residual=residual,
            )
    return Q, residual


def decompose_skew_isometry(
    M: np.ndarray, spec: NormSpec, seed=0
) -> SkewIsometryDecomposition:
    """Decompose a linear isometry of a skew-space norm into its canonical
    form ``A -> sign * Q psi^f(A) Q.T``.

    Branches are tried in the fixed order (M, -M, M psi, -M psi), the psi
    branches only at n = 4, and the first branch whose congruence recovery
    succeeds wins.  Raises :class:`NotIsometry` or, when every branch fails
    (as for multiples of the Euclidean norm), :class:`NotInClassifiedForm`.
    """
    M = _coordinate_map(M)
    m = M.shape[0]
    n = int(round((1 + np.sqrt(1 + 8 * m)) / 2))
    if n * (n - 1) // 2 != m:
        raise InvalidDimension(f"map size {m} is not of the form n(n-1)/2")
    if spec.space != SKEW_REAL:
        raise InvalidDimension("decompose_skew_isometry acts on the skew space")
    _check_isometry(M, spec, n, seed)

    branches = [((1, False), M), ((-1, False), -M)]
    if n == 4:
        P = psi_matrix()
        branches += [((1, True), M @ P), ((-1, True), -M @ P)]
    (sign, flag), (Q, residual) = _first_branch(branches, recover_orthogonal_from_adso, n)
    return SkewIsometryDecomposition(
        sign=sign, psi_flag=flag, orthogonal=Q, residual=residual
    )
