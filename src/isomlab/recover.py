"""Decompose isometries of the classified norms into canonical data.

On the traceless Hermitian space every isometry of a non-Euclidean invariant
norm is ``A -> eta U (A or -A.T) U^{-1} + B``.  The linear part is classified
by two conjugation-invariant discriminants, evaluated on random samples:

* the cubic trace ``tr(X^3)``, which conjugation preserves, negation of the
  map flips, and the negative-transpose involution flips;
* the bracket trace ``tr([X, Y] Z)`` (purely imaginary on Hermitian
  triples), which conjugation and the involution preserve and negation
  flips.

The sign pair of the two ratios therefore separates the four branches, and
any map for which either ratio is not of modulus one is provably outside the
classified family.  The conjugating matrix is then read off by inverting the
adjoint action on rank-one projectors.  The skew-space analogue tries the
four branches (identity / negation, with or without the n = 4 entry swap)
against an explicit inversion of the congruence action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidDimension,
    NotAdjointImage,
    NotInClassifiedForm,
    NotIsometry,
    RecoveryFailed,
)
from .groups import ad_matrix, cartan_matrix, psi_matrix, so_adjoint_matrix
from .matspace import (  # noqa: F401 (vectorize: perfbench/tracing.py wraps recover's binding)
    HERMITIAN_TRACELESS,
    SKEW_REAL,
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

#: number of consistent discriminant votes required by the classifier
CLASSIFIER_VOTES = 9

#: relative floor below which a discriminant denominator is resampled
DENOMINATOR_FLOOR = 1e-6


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


def _trace(X: np.ndarray) -> np.ndarray:
    return np.trace(X, axis1=-2, axis2=-1)


def _discriminants(M: np.ndarray, basis, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cubic (row 0) and bracket (row 1) discriminants of the images under M
    and of the originals, with the originals' denominator floors, on one
    stacked block of ``CLASSIFIER_VOTES`` random triples; each is a
    (2, CLASSIFIER_VOTES) array."""
    n = basis.n
    triples = random_element(HERMITIAN_TRACELESS, n, rng, count=3 * CLASSIFIER_VOTES)
    block = (3, CLASSIFIER_VOTES, n, n)
    X, Y, Z = triples.reshape(block)
    MX, MY, MZ = apply_map(M, triples, basis).reshape(block)
    nx, ny, nz = np.linalg.norm(triples.reshape(3, CLASSIFIER_VOTES, -1), axis=-1)
    # the bracket trace of Hermitian triples is purely imaginary; the ratio
    # of the two imaginary parts carries the sign
    num = np.stack([_trace(MX @ MX @ MX).real, _trace((MX @ MY - MY @ MX) @ MZ).imag])
    den = np.stack([_trace(X @ X @ X).real, _trace((X @ Y - Y @ X) @ Z).imag])
    return num, den, DENOMINATOR_FLOOR * np.stack([nx**3, nx * ny * nz])


def classify_eta_sigma(M: np.ndarray, n: int, seed=0) -> tuple[int, bool]:
    """Classify the branch (eta, sigma_flag) of a Hermitian-space isometry.

    Evaluates the cubic and bracket discriminants on random triples until
    enough well-conditioned votes accumulate; all votes must agree, else the
    map is outside the classified family and
    :class:`NotInClassifiedForm` is raised.  So it is too when a ratio of
    image to original discriminant has modulus away from one (NaN
    included), which no classified form gives.  The triples come from one
    generator in stacked blocks of ``CLASSIFIER_VOTES``, at most
    ``40 * CLASSIFIER_VOTES`` of them; a triple votes when both of its
    denominators clear their floors.  Requires n >= 3 (the cubic trace
    vanishes identically at n = 2).
    """
    if n < 3:
        raise InvalidDimension("classification needs n >= 3; handle n = 2 by determinant")
    basis = gell_mann_basis(n)
    rng = np.random.default_rng(seed)
    votes: list[tuple[int, int]] = []
    for _ in range(40):
        num, den, floor = _discriminants(M, basis, rng)
        usable = np.abs(den) > floor
        ratio = num[usable] / den[usable]
        off = ~(np.abs(np.abs(ratio) - 1.0) <= 1e-4)
        if off.any():
            raise NotInClassifiedForm(
                f"discriminant ratio {ratio[off][0]:.6f} has modulus away from one"
            )
        signs = np.zeros(den.shape, dtype=int)
        signs[usable] = np.where(ratio > 0, 1, -1)
        keep = usable.all(axis=0)
        votes += zip(signs[0, keep].tolist(), signs[1, keep].tolist())
        if len(votes) >= CLASSIFIER_VOTES:
            break
    else:
        raise NotInClassifiedForm("could not collect well-conditioned votes")
    if len(set(votes)) != 1:
        raise NotInClassifiedForm(f"inconsistent discriminant votes: {set(votes)}")
    s3, sb = votes[0]
    eta = sb
    sigma_flag = (s3 != sb)
    return eta, sigma_flag


def _as_projection(P: np.ndarray, tol: float = 1e-6) -> None:
    """Require P to be (numerically) a rank-one orthogonal projection."""
    dev = float(np.max(np.abs(P @ P - P)))
    tr = float(np.trace(P).real)
    if dev > tol or abs(tr - 1.0) > tol:
        raise NotAdjointImage(
            f"image of a rank-one projector is not one (defect {dev:.2e}, "
            f"trace {tr:.6f})",
            residual=dev,
        )


def recover_unitary_from_ad(M: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Invert the conjugation action: find U with ``ad_matrix(U) = M``.

    Column j of U is read off as the top eigenvector of the image of the
    rank-one projector onto coordinate j; relative phases are fixed through
    the images of the symmetric pair matrices coupling coordinate 1 to the
    others, and the determinant is normalized to one.  Returns ``(U,
    residual)`` with U in SU(n) up to an n-th root of unity.  Raises
    :class:`NotAdjointImage` when the input is provably not an adjoint
    image, :class:`RecoveryFailed` on eigen-gap breakdowns.
    """
    basis = gell_mann_basis(n)
    eye = np.eye(n)
    cols = []
    for j in range(n):
        E = np.outer(eye[j], eye[j]) - eye / n
        P = apply_map(M, E, basis) + eye / n
        _as_projection(P)
        w, V = np.linalg.eigh(P)
        if w[-1] - w[-2] < 1e-6:
            raise RecoveryFailed(
                f"top eigenvalue of recovered projection not separated "
                f"(gap {w[-1] - w[-2]:.2e})"
            )
        cols.append(V[:, -1])
    U = np.zeros((n, n), dtype=complex)
    U[:, 0] = cols[0]
    for k in range(1, n):
        # the symmetric pair (0, k) sits at slot k - 1 of the basis order
        T = devectorize(M[:, k - 1], basis)
        c = np.sqrt(2.0) * np.vdot(cols[0], T @ cols[k])
        if abs(abs(c) - 1.0) > 1e-6:
            raise NotAdjointImage(
                f"phase coupling has modulus {abs(c):.6f}, expected one",
                residual=abs(abs(c) - 1.0),
            )
        U[:, k] = cols[k] * np.conj(c)
    # polish to the nearest unitary, then normalize the determinant
    W, _, Vh = np.linalg.svd(U)
    U = W @ Vh
    U = U * np.linalg.det(U) ** (-1.0 / n)
    residual = float(np.max(np.abs(ad_matrix(U, basis) - M)))
    if residual > RESIDUAL_TOL:
        raise NotAdjointImage(
            f"reconstruction residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}",
            residual=residual,
        )
    return U, residual


def _check_isometry(M: np.ndarray, spec: NormSpec, n: int, seed, pairs: int = 50) -> None:
    """Distance test on random pairs.  An affine map L with linear part M
    has L(A) - L(B) = M(A - B), so the test compares the norms of M(D) and
    D over one stack of ``pairs`` random differences D, drawn from one
    generator: two stacked norm evaluations in all."""
    D = random_element(spec.space, n, [seed, 7000], count=pairs)
    lhs = norm_value(apply_map(M, D, basis_for(spec.space, n)), spec)
    rhs = norm_value(D, spec)
    dev = np.abs(lhs - rhs)
    if not np.all(dev <= 1e-8 * np.maximum(rhs, 1e-30)):
        raise NotIsometry(
            f"distance deviation {np.max(dev):.3e} on random pair"
        )


def _coordinate_map(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not np.all(np.isfinite(M)):
        raise InvalidDimension(
            f"a coordinate map is a finite square matrix, got shape {M.shape}"
        )
    return M


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
    first checked to be an isometry of ``spec`` on random pairs, the branch
    is classified, the involution is peeled off, and the conjugating
    unitary is recovered.  For n = 2 the involution branch coincides with a conjugation and only
    (eta, U) is reported, with eta read from the determinant.

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

    if n == 2:
        eta = 1 if np.linalg.det(M) > 0 else -1
        sigma_flag = False
    else:
        eta, sigma_flag = classify_eta_sigma(M, n, seed=seed)
    linear = M.copy()
    if sigma_flag:
        linear = linear @ cartan_matrix(basis)
    linear = linear / eta
    U, _ = recover_unitary_from_ad(linear, n)

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


def _polar_orthogonal(B: np.ndarray) -> np.ndarray:
    W, _, Vh = np.linalg.svd(B)
    return W @ Vh


def recover_orthogonal_from_adso(M: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """Invert the congruence action on the skew space: find Q with
    ``so_adjoint_matrix(Q) = M``, up to global sign.

    The images of the pair matrices F_1j span the planes <q_1, q_j>; q_1 is
    the common line of the planes from F_12 and F_13 (the null vector of the
    stacked complement projectors), and the remaining columns follow as
    ``sqrt(2) G_j.T q_1``.  Raises :class:`RecoveryFailed` when the plane
    intersection is degenerate and :class:`NotAdjointImage` (carrying the
    residual) when the rebuilt map does not match.
    """
    if n < 3:
        raise InvalidDimension("orthogonal recovery needs n >= 3")
    basis = skew_basis(n)
    G = [devectorize(M[:, j - 1], basis) for j in range(1, n)]

    planes = []
    for Gj in G[:2]:
        W, s, _ = np.linalg.svd(Gj)
        planes.append(W[:, :2])
    stacked = np.vstack(
        [np.eye(n) - P @ P.T for P in planes]
    )
    _, svals, Vh = np.linalg.svd(stacked)
    if svals[-2] < 1e-6:
        raise RecoveryFailed(
            f"plane intersection degenerate (second singular value {svals[-2]:.2e})"
        )
    q1 = Vh[-1]
    cols = [q1]
    for Gj in G:
        cols.append(np.sqrt(2.0) * (Gj.T @ q1))
    Q = np.column_stack(cols)
    ortho_defect = float(np.max(np.abs(Q @ Q.T - np.eye(n))))
    Q = _polar_orthogonal(Q)
    residual = float(
        np.max(np.abs(so_adjoint_matrix(Q, basis, allow_reflection=True) - M))
    )
    if residual > RESIDUAL_TOL:
        raise NotAdjointImage(
            f"reconstruction residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e} "
            f"(orthogonality defect before polishing {ortho_defect:.3e})",
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

    branches = [(M, 1, False), (-M, -1, False)]
    if n == 4:
        P = psi_matrix()
        branches += [(M @ P, 1, True), (-M @ P, -1, True)]
    for candidate, sign, flag in branches:
        try:
            Q, residual = recover_orthogonal_from_adso(candidate, n)
        except RecoveryFailed:
            continue
        if residual < RESIDUAL_TOL:
            return SkewIsometryDecomposition(
                sign=sign, psi_flag=flag, orthogonal=Q, residual=residual
            )
    raise NotInClassifiedForm(
        "no branch of the canonical family reproduces the map"
    )
