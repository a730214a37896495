"""Group elements acting on the matrix spaces, as coordinate maps.

Constructs the generators of every isometry group handled by the package:
adjoint conjugation maps of (special) unitary and orthogonal matrices, the
negative-transpose involution on the Hermitian space, the transpose map and
the n = 4 entry swap on the skew space, plus Haar sampling and elementary
map algebra.  All maps are (d, d) real arrays relative to the package bases.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDimension, NotSpecialOrthogonal, SingularMap
from .matspace import (
    HERMITIAN_TRACELESS,
    Basis,
    gell_mann_basis,
    random_element,
    skew_basis,
    vectorize,
)

#: orthogonality tolerance for unitary/orthogonal matrix checks
UNITARY_TOL = 1e-11


def haar_unitary(n: int, seed, special: bool = False, count: int | None = None) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix.

    The diagonal phases of R are absorbed into Q (Mezzadri's correction),
    which makes the law exactly Haar on U(n).  With ``special`` the result
    is divided by an n-th root of its determinant and lands in SU(n).  With
    ``count`` the result is a (count, n, n) stack of independent draws from
    one generator: all real parts first, then all imaginary parts.
    """
    rng = np.random.default_rng(seed)
    shape = (n, n) if count is None else (count, n, n)
    Z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    Q, R = np.linalg.qr(Z)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    Q = Q * (diag / np.abs(diag))[..., None, :]
    if special:
        Q = Q * (np.linalg.det(Q) ** (-1.0 / n))[..., None, None]
    return Q


def haar_orthogonal(n: int, seed, special: bool = False) -> np.ndarray:
    """Haar-random orthogonal matrix; ``special`` forces det = +1 by
    flipping the sign of the last column when needed."""
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diagonal(R))
    if special and np.linalg.det(Q) < 0:
        Q = Q.copy()
        Q[:, -1] = -Q[:, -1]
    return Q


def is_unitary(U: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    n = U.shape[0]
    return float(np.max(np.abs(U @ U.conj().T - np.eye(n)))) <= tol


def ad_matrix(U: np.ndarray, basis: Basis | None = None) -> np.ndarray:
    """Coordinate matrix of A -> U A U^{-1} on the traceless Hermitian space.

    The result is real orthogonal with determinant +1, and depends on U only
    through its class modulo n-th roots of unity.
    """
    n = U.shape[0]
    if basis is None:
        basis = gell_mann_basis(n)
    if basis.n != n:
        raise InvalidDimension(f"basis n={basis.n} does not match U n={n}")
    conjugated = U @ basis.mats @ U.conj().T
    return np.einsum("ajk,ikj->ai", basis.mats, conjugated).real


def cartan_matrix(basis: Basis) -> np.ndarray:
    """Coordinate matrix of the involution A -> -A.T on the Hermitian space."""
    return np.ascontiguousarray(vectorize(-np.swapaxes(basis.mats, 1, 2), basis).T)


def verify_sigma_normalizes(U: np.ndarray, trials: int, seed) -> float:
    """Max deviation of -(U A U^{-1}).T from (U.T)^{-1} (-A.T) U.T over
    random traceless Hermitian A."""
    n = U.shape[0]
    Ut = U.T
    Ut_inv = np.linalg.inv(Ut)
    worst = 0.0
    for t in range(trials):
        A = random_element(HERMITIAN_TRACELESS, n, [seed, t])
        lhs = -(U @ A @ np.linalg.inv(U)).T
        rhs = Ut_inv @ (-A.T) @ Ut
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def so_adjoint_matrix(
    Q: np.ndarray, basis: Basis | None = None, allow_reflection: bool = False
) -> np.ndarray:
    """Coordinate matrix of A -> Q A Q.T on the real skew-symmetric space.

    Q must lie in SO(n); congruence by a reflection (det -1) is only built
    when ``allow_reflection`` is set, for orthogonal-orbit experiments.
    """
    n = Q.shape[0]
    if basis is None:
        basis = skew_basis(n)
    if basis.n != n:
        raise InvalidDimension(f"basis n={basis.n} does not match Q n={n}")
    det = np.linalg.det(Q)
    if det < 0 and not allow_reflection:
        raise NotSpecialOrthogonal(f"det Q = {det:.6f}; expected +1")
    conjugated = Q @ basis.mats @ Q.T
    return np.einsum("ajk,ijk->ai", basis.mats, conjugated)


def psi_matrix() -> np.ndarray:
    """The extra n = 4 skew-space isometry as a coordinate map: the
    transposition of coordinates a_14 and a_23 (positions 2 and 3 in the
    skew basis order).  Involution with determinant -1."""
    P = np.eye(6)
    P[[2, 3]] = P[[3, 2]]
    return P


def tau_matrix(basis: Basis) -> np.ndarray:
    """Coordinate matrix of the transpose map on the skew space; equals -I
    since A.T = -A there."""
    return -np.eye(basis.d)


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Composition a after b of two coordinate maps."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise InvalidDimension(f"cannot compose shapes {a.shape} and {b.shape}")
    return a @ b


def invert(a: np.ndarray) -> np.ndarray:
    """Inverse map; rejects maps with condition number >= 1e12."""
    a = np.asarray(a, dtype=float)
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond >= 1e12:
        raise SingularMap(f"condition number {cond:.3e} too large to invert")
    return np.linalg.inv(a)


def scale(a: np.ndarray, t: float) -> np.ndarray:
    """Scalar multiple of a coordinate map."""
    return np.asarray(a, dtype=float) * float(t)
