"""Decompose isometries of the classified norms into canonical data.

On the traceless Hermitian space every isometry of a non-Euclidean invariant
norm is ``A -> eta U (A or -A.T) U^{-1} + B``; on the real skew space it is
``A -> sign Q psi^f(A) Q.T``, with the entry swap psi only at n = 4.  Both
decompositions share one path: the same input checks, then one branch
search over ``(M @ involution if flag else M) / sign`` (involution -A.T or
psi) in the order (1, F), (-1, F), (1, T), (-1, T), where the first branch
whose rebuilt map reproduces M within ``RESIDUAL_TOL`` wins and gives the
reported residual.  A map that no branch reproduces (an isometry of the
Euclidean norm, say) is outside the classified family.

The conjugating matrix of a branch is one closed form: an extreme
eigenvector of the rearranged superoperator T of the branch's linear part
(see :func:`_rearranged`), polished to the nearest unitary or orthogonal
matrix.  T is linear in the map, so ``T(-L) = -T(L)``, and one ``eigh`` per
involution flag serves both signs: the top eigenvector for sign +1, the
bottom one for sign -1.

Residual certificate.  Let R be the map rebuilt from the winning branch
and ``r = max |R - M|`` its residual.  R is ``+-Ad(U)``, ``+-Ad(U) sigma``
or ``+-Q psi^f(.) Q.T``, and each of these keeps singular values, so
``N(R D) = N(D)`` for every norm N of the package.  Each such N is a
symmetric gauge function phi of the n singular values s, with
``|s|_inf <= phi(s) / phi(e_1) <= |s|_1``, so ``N(X)`` lies within a
factor ``sqrt(n)`` of ``phi(e_1) |X|_F`` either way.  The bases are
trace-orthonormal, so ``|(M - R) D|_F <= d r |D|_F``.  Together these give
``|N(M D) - N(D)| <= N((M - R) D) <= n d r N(D)`` for every D.  So when
``n d r`` is within ``ISOMETRY_TOL`` the distance test (:func:`_check_isometry`)
cannot fail on any sample, and it is skipped; otherwise it runs after the
branch search on the same draws it would have made first.  When every
branch fails it runs before :class:`NotInClassifiedForm` is raised, so a
non-isometry is still reported as :class:`NotIsometry`.  The distance test
is the only consumer of random numbers, so a ``Generator`` passed as
``seed`` is drawn from only when it runs.
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
    space_dim,
    vectorize,
)
from .norms import NormSpec, _check_parameters, norm_value

#: accepted end-to-end reconstruction residual for recovered forms
RESIDUAL_TOL = 1e-6

#: accepted relative norm deviation of the isometry distance test; the
#: residual certificate holds ``n d residual`` to the same bound
ISOMETRY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class IsometryDecomposition:
    """Canonical data of a Hermitian-space isometry.

    The decomposed map is ``A -> eta * U (sigma-branch of A) U^{-1} + B``
    where the sigma branch applies A -> -A.T first when ``sigma_flag`` is
    set.  ``unitary`` is determined up to an n-th root of unity and is
    normalized to determinant one; ``residual`` is the max coordinate
    deviation of the rebuilt linear part from the input (up to rounding).
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


def _reconstruction_residual(rebuilt: np.ndarray, M: np.ndarray) -> float:
    """Max coordinate deviation of ``rebuilt`` from M; raises
    :class:`NotAdjointImage` when it exceeds ``RESIDUAL_TOL``."""
    residual = float(np.max(np.abs(rebuilt - M)))
    if residual > RESIDUAL_TOL:
        raise NotAdjointImage(
            f"reconstruction residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}",
            residual=residual,
        )
    return residual


def _rearranged(M: np.ndarray, basis: Basis) -> np.ndarray:
    """The rearranged superoperator of a coordinate map M, negated on the
    skew space.

    With ``images[i]`` the matrix that column i of M represents, the
    rearrangement ``T[(a, c), (b, d)] = sum_i images[i][a, b] B_i[d, c]``
    is Hermitian for every real M (C. F. Van Loan and N. Pitsianis,
    "Approximation with Kronecker products", 1993).  For ``M =
    ad_matrix(U)`` it is ``vec(U) vec(U)* - I/n`` (the identity is what the
    traceless basis misses, and only shifts the spectrum), so vec(U) is its
    top eigenvector.  For ``M = so_adjoint_matrix(Q)`` it is ``-(vec(Q)
    vec(Q).T - P)/2`` with the involution ``P: Y -> Q Y.T Q``, so vec(Q) is
    the top eigenvector of -T (what the skew space gets back), (n - 2)/2
    above the rest of its spectrum.  Whether M was an adjoint image at all
    is left to the caller's reconstruction residual.  Raises :class:`InvalidDimension`
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
    return -T if basis.space == SKEW_REAL else T


def _conjugator(M: np.ndarray, basis: Basis) -> np.ndarray:
    """The top eigenvector of M's rearranged superoperator, reshaped to
    (n, n) and polished to the nearest unitary (orthogonal) matrix."""
    _, V = np.linalg.eigh(_rearranged(M, basis))
    return _polar_orthogonal(V[:, -1].reshape(basis.n, basis.n))


def _unitary_fit(U: np.ndarray, M: np.ndarray, basis: Basis) -> tuple[np.ndarray, float]:
    """``(U, residual)`` with the unitary U normalized to determinant one
    and ``residual`` the max coordinate deviation of ``ad_matrix(U)`` from
    M; raises :class:`NotAdjointImage` when it exceeds ``RESIDUAL_TOL``."""
    U = U * np.linalg.det(U) ** (-1.0 / basis.n)
    return U, _reconstruction_residual(ad_matrix(U, basis), M)


def _rotation_fit(Q: np.ndarray, M: np.ndarray, basis: Basis) -> tuple[np.ndarray, float]:
    """``(Q, residual)`` with ``residual`` the max coordinate deviation of
    the congruence by the orthogonal Q from M and Q made a rotation; raises
    :class:`NotAdjointImage` when the residual exceeds ``RESIDUAL_TOL``, or
    when Q is a reflection at even n, which no rotation reproduces (at odd
    n the rotation -Q gives the same congruence)."""
    residual = _reconstruction_residual(so_adjoint_matrix(Q, basis, allow_reflection=True), M)
    if np.linalg.det(Q) < 0:
        if basis.n % 2 == 1:
            Q = -Q
        else:
            raise NotAdjointImage(
                "map is the congruence by a reflection, which no rotation "
                f"reproduces at even n (residual {residual:.3e})",
                residual=residual,
            )
    return Q, residual


def recover_unitary_from_ad(M: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Invert the conjugation action: find U with ``ad_matrix(U) = M``.

    U is the top eigenvector of M's rearranged superoperator (see
    :func:`_rearranged`), normalized to determinant one.  Returns ``(U,
    residual)`` with U in SU(n) up to an n-th root of unity and
    ``residual`` the max coordinate deviation of ``ad_matrix(U)`` from M.
    Raises :class:`InvalidDimension` unless M is a finite real
    (n^2 - 1)-square matrix, and :class:`NotAdjointImage` when the residual
    exceeds ``RESIDUAL_TOL``.
    """
    basis = gell_mann_basis(n)
    return _unitary_fit(_conjugator(M, basis), M, basis)


def recover_orthogonal_from_adso(M: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Invert the congruence action on the skew space: find Q with
    ``so_adjoint_matrix(Q) = M``, up to global sign.

    Q is the top eigenvector of M's negated rearranged superoperator (see
    :func:`_rearranged`), which is separated from the rest of the spectrum
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
    return _rotation_fit(_conjugator(M, basis), M, basis)


def _signed_branch(linear: np.ndarray, basis: Basis, fit):
    """``(sign, *fit(conjugator, linear / sign, basis))`` for the first sign
    in (1, -1) that ``fit`` accepts, or None when it refuses both with
    :class:`NotAdjointImage`.  One ``eigh`` of linear's rearranged
    superoperator serves both signs: its top eigenvector for +1, its bottom
    one (the top one of ``-linear``'s) for -1.  The eigenvectors live only
    in this frame, which has ended before any caller raises, so a rejected
    map's traceback keeps no eigen array alive."""
    _, V = np.linalg.eigh(_rearranged(linear, basis))
    for sign, column in ((1, -1), (-1, 0)):
        conjugator = _polar_orthogonal(V[:, column].reshape(basis.n, basis.n))
        try:
            return (sign, *fit(conjugator, linear / sign, basis))
        except NotAdjointImage:
            continue
    return None


def _first_branch(M: np.ndarray, involution: np.ndarray | None, basis: Basis, fit):
    """``(sign, flag, conjugator, residual)`` for the first branch
    ``(M @ involution if flag else M) / sign`` in the order (1, F), (-1, F),
    (1, T), (-1, T) that ``fit`` accepts (:func:`_unitary_fit` or
    :func:`_rotation_fit`), the flag branches only when ``involution`` is
    given; None when every branch fails.  Each flag's candidate is built
    as it is tried."""
    for flag in (False, True) if involution is not None else (False,):
        found = _signed_branch(M @ involution if flag else M, basis, fit)
        if found is not None:
            sign, conjugator, residual = found
            return sign, flag, conjugator, residual
    return None


def classify_eta_sigma(M: np.ndarray, n: int) -> tuple[int, bool, np.ndarray]:
    """Find the branch (eta, sigma_flag) of a Hermitian-space linear map and
    its conjugating unitary.

    The branch search of :func:`decompose_isometry` on M alone: the
    involution A -> -A.T is tried only for n >= 3 (at n = 2 it is itself a
    conjugation).  Returns ``(eta, sigma_flag, U)`` from the first branch
    whose rebuilt map reproduces M within ``RESIDUAL_TOL``; raises
    :class:`InvalidDimension` unless M is a finite real (n^2 - 1)-square
    matrix, and :class:`NotInClassifiedForm` when no branch does.
    """
    basis = gell_mann_basis(n)
    M = _coordinate_map(M)
    involution = cartan_matrix(basis) if n >= 3 else None
    found = _first_branch(M, involution, basis, _unitary_fit)
    if found is None:
        raise NotInClassifiedForm("no branch of the canonical family reproduces the map")
    eta, sigma_flag, U, _ = found
    return eta, sigma_flag, U


def _check_isometry(M: np.ndarray, spec: NormSpec, n: int, seed) -> None:
    """Distance test on random pairs.  An affine map L with linear part M
    has L(A) - L(B) = M(A - B), so the test compares the norms of M(D) and
    D over one stack of 50 random differences D, drawn from ``seed`` (a
    seed or a Generator, drawn from in place): two stacked norm evaluations
    in all.  Raises :class:`NotIsometry` when a relative deviation exceeds
    ``ISOMETRY_TOL``."""
    D = random_element(spec.space, n, seed, count=50)
    lhs = norm_value(apply_map(M, D, basis_for(spec.space, n)), spec)
    rhs = norm_value(D, spec)
    dev = np.abs(lhs - rhs)
    if not np.all(dev <= ISOMETRY_TOL * np.maximum(rhs, 1e-30)):
        raise NotIsometry(
            f"distance deviation {np.max(dev):.3e} on random pair"
        )


def _checked_input(M, spec: NormSpec, space: str, seed, offset=None):
    """Both decompositions' input checks, in order: a finite real square M,
    a ``spec`` on ``space``, M's size d equal to ``space_dim(space, n)`` for
    some n >= 2, a finite ``offset`` of shape (d,) (zero when None), a
    ``seed`` that ``np.random.default_rng`` accepts, and spec parameters
    that fit n.  Returns ``(M, n, offset, rng)`` with ``rng`` the generator
    made from ``seed`` (``seed`` itself when it is one), nothing drawn from
    it yet.  Every failure before the seed raises
    :class:`InvalidDimension`.  The distance test is not among these
    checks: it runs after the branch search, and only when the residual
    cannot certify the map (see the module docstring)."""
    M = _coordinate_map(M)
    d = M.shape[0]
    if spec.space != space:
        raise InvalidDimension(f"the norm acts on {spec.space}, the map on {space}")
    n = 2
    while space_dim(space, n) < d:
        n += 1
    if space_dim(space, n) != d:
        raise InvalidDimension(f"map size {d} is not the dimension of {space} at any n >= 2")
    offset = np.zeros(d) if offset is None else np.asarray(offset, dtype=float)
    if offset.shape != (d,) or not np.all(np.isfinite(offset)):
        raise InvalidDimension(f"offset must be a finite vector of shape ({d},), got {offset.shape}")
    rng = np.random.default_rng(seed)
    _check_parameters(spec, n)
    return M, n, offset, rng


def _certified_branch(M, spec: NormSpec, rng, involution, basis: Basis, fit):
    """:func:`_first_branch`'s winner, after the distance test when ``n d
    residual`` exceeds ``ISOMETRY_TOL``.  When every branch fails the
    distance test runs first, then :class:`NotInClassifiedForm` is raised."""
    found = _first_branch(M, involution, basis, fit)
    if found is None or basis.n * basis.d * found[-1] > ISOMETRY_TOL:
        _check_isometry(M, spec, basis.n, rng)
    if found is None:
        raise NotInClassifiedForm("no branch of the canonical family reproduces the map")
    return found


def decompose_isometry(
    M: np.ndarray,
    spec: NormSpec,
    offset: np.ndarray | None = None,
    seed=0,
) -> IsometryDecomposition:
    """Decompose an affine isometry of a Hermitian-space norm.

    ``M`` is the linear part in coordinates, ``offset`` the coordinate
    vector of the translation (defaults to zero; anything but a finite
    vector of shape (d,) raises :class:`InvalidDimension`).  The branch
    search of :func:`classify_eta_sigma` finds the branch, the conjugating
    unitary and the residual.  A residual with ``n d residual`` within
    ``ISOMETRY_TOL`` certifies that M is an isometry of ``spec``; otherwise
    M is checked to be one on random pairs drawn from ``seed`` (the only
    random numbers a decomposition uses, so a Generator passed as ``seed``
    is drawn from only then).  At n = 2 the involution branch coincides
    with a conjugation, so ``sigma_flag`` is always False there.

    Raises :class:`NotIsometry`, or :class:`NotInClassifiedForm` for
    isometries outside the canonical family (the Euclidean / inner-product
    case admits a full orthogonal group of them); the distance test runs
    before the latter is raised, so a non-isometry is always
    :class:`NotIsometry`.
    """
    M, n, offset, rng = _checked_input(M, spec, HERMITIAN_TRACELESS, seed, offset)
    basis = gell_mann_basis(n)
    involution = cartan_matrix(basis) if n >= 3 else None
    eta, sigma_flag, U, residual = _certified_branch(M, spec, rng, involution, basis, _unitary_fit)
    return IsometryDecomposition(
        eta=eta,
        sigma_flag=sigma_flag,
        unitary=U,
        translation=devectorize(offset, basis),
        residual=residual,
    )


def decompose_skew_isometry(
    M: np.ndarray, spec: NormSpec, seed=0
) -> SkewIsometryDecomposition:
    """Decompose a linear isometry of a skew-space norm into its canonical
    form ``A -> sign * Q psi^f(A) Q.T``.

    Branches are tried in the fixed order (M, -M, M psi, -M psi), the psi
    branches only at n = 4, and the first branch whose congruence recovery
    succeeds wins and gives ``residual``.  As in :func:`decompose_isometry`,
    the distance test on random pairs drawn from ``seed`` runs only when
    ``n d residual`` exceeds ``ISOMETRY_TOL`` or every branch fails.
    Raises :class:`NotIsometry` or, when every branch fails (as for
    multiples of the Euclidean norm), :class:`NotInClassifiedForm`; at
    n = 2 an isometry raises :class:`InvalidDimension`, since congruence
    recovery needs n >= 3.
    """
    M, n, _, rng = _checked_input(M, spec, SKEW_REAL, seed)
    if n < 3:
        _check_isometry(M, spec, n, rng)
        raise InvalidDimension("orthogonal recovery needs n >= 3")
    involution = psi_matrix() if n == 4 else None
    sign, flag, Q, residual = _certified_branch(
        M, spec, rng, involution, skew_basis(n), _rotation_fit
    )
    return SkewIsometryDecomposition(
        sign=sign, psi_flag=flag, orthogonal=Q, residual=residual
    )
