"""Group elements acting on the matrix spaces, as coordinate maps.

Constructs the generators of every isometry group handled by the package:
conjugation maps, the negative-transpose involution on the Hermitian space
and the n = 4 entry swap on the skew space, plus Haar sampling.  All maps
are (d, d) real arrays relative to the package bases (the transpose map of
the skew space is -I there, since A.T = -A).

Both kernels work on whole stacks.  A Haar draw is the Q factor, with R's
diagonal positive, of a Ginibre matrix, found by Gram-Schmidt with each
column projected twice; that Q has exactly the Haar law (Mezzadri 2007).
Conjugation is one action on both spaces, A -> U A U* by a unitary U on
the traceless Hermitians and A -> Q A Q.T by a real orthogonal Q on the
skew matrices, so one kernel (:func:`_conjugation_map`, which
:func:`ad_matrix` calls after its checks) builds both maps: the Kronecker
product kron(U, conj(U)) between the basis rows vec(E_a), two matrix
products per call.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidDimension, NotSpecialOrthogonal
from .matspace import (
    HERMITIAN_TRACELESS,
    Basis,
    _dimension,
    _rng,
    _square_stack,
    _trial_count,
    gell_mann_basis,
    random_element,
    skew_basis,
    vectorize,
)


def _haar_shape(n, count) -> tuple:
    """``(n, n)``, or ``(count, n, n)`` for a stack: the shape a Haar
    sampler draws.  An n that is not an integer >= 1, or a count that is
    not an integer >= 0, raises InvalidDimension."""
    n = _dimension(n, 1)
    return (n, n) if count is None else (_trial_count(count), n, n)


def _orthonormal_columns(Z: np.ndarray) -> np.ndarray:
    """Q of the factorisation Z = QR with R's diagonal positive, for each
    member of a stack of square matrices of full rank: classical
    Gram-Schmidt over the columns, each column projected out of the ones
    before it twice, which leaves Q orthonormal to rounding (Giraud, Langou
    and Rozloznik 2005: "twice is enough").  Every step is an elementwise
    or einsum product over the stack, so a member gets the bits it gets
    alone."""
    Q = np.empty_like(Z)
    for j in range(Z.shape[-1]):
        v = Z[..., :, j]
        done = Q[..., :, :j]
        adjoint = done.conj()
        for _ in range(2):
            v = v - np.einsum("...ij,...j->...i", done, np.einsum("...ij,...i->...j", adjoint, v))
        Q[..., :, j] = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return Q


def haar_unitary(n: int, seed, special: bool = False, count: int | None = None) -> np.ndarray:
    """Haar-random unitary: the Q factor of a complex Ginibre matrix with
    R's diagonal positive.

    Gram-Schmidt (:func:`_orthonormal_columns`) gives R a positive diagonal
    by construction.  That Q is unique, and Mezzadri ("How to generate
    random matrices from the classical compact groups", 2007) shows that its
    law is exactly Haar on U(n).  With ``special`` the result is divided by
    an n-th root of its determinant and lands in SU(n).  With ``count`` the
    result is a (count, n, n) stack of independent draws from one
    generator, each member the bits of a single call.
    """
    rng = _rng(seed)
    shape = _haar_shape(n, count)
    # each member's real block, then its imaginary block: k single draws in turn
    G = rng.standard_normal(shape[:-2] + (2,) + shape[-2:])
    Q = _orthonormal_columns((G[..., 0, :, :] + 1j * G[..., 1, :, :]) / np.sqrt(2))
    if special:
        Q = Q * (np.linalg.det(Q) ** (-1.0 / n))[..., None, None]
    return Q


def haar_orthogonal(n: int, seed, special: bool = False, count: int | None = None) -> np.ndarray:
    """Haar-random orthogonal matrix: the Q factor of a real Ginibre matrix
    with R's diagonal positive (:func:`_orthonormal_columns`), which is
    exactly Haar on O(n) by Mezzadri's argument.  ``special`` forces det =
    +1 by flipping the sign of the last column when needed.  With ``count``
    the result is a (count, n, n) stack of independent draws from one
    generator, each member the bits of a single call."""
    rng = _rng(seed)
    Q = _orthonormal_columns(rng.standard_normal(_haar_shape(n, count)))
    if special:
        Q[..., -1] *= np.sign(np.linalg.det(Q))[..., None]
    return Q


def _kron(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """kron(U, V) per member of two (..., n, n) stacks: the (..., n^2, n^2)
    matrix that sends vec(X) to vec(U X V.T), with vec the row-major
    flattening."""
    n = U.shape[-1]
    K = U[..., :, None, :, None] * V[..., None, :, None, :]
    return K.reshape(U.shape[:-2] + (n * n, n * n))


def ad_matrix(U: np.ndarray, basis: Basis | None = None) -> np.ndarray:
    """Coordinate matrix of A -> U A U* on the space of ``basis`` (the
    traceless Hermitian space when None), which is the conjugation A -> U A
    U^{-1} for a unitary U.  For any other square U it is still U A U*
    (``ad_matrix(2 * np.eye(n))`` is 4 I), not a conjugation.

    It is ``Re(conj(B) kron(U, conj(U)) B.T)``, B the (d, n^2) rows vec(E_a)
    of the basis: ``kron(U, conj(U)) vec(E)`` is vec(U E U*), and row a of
    conj(B) pairs it with E_a by the trace form tr(E_a* X).  For a unitary
    U on the Hermitian space the map is in SO(d) and depends on U only
    modulo n-th roots of unity.  For a real orthogonal Q on the skew space
    conj and Re change nothing: the map is the congruence ``B kron(Q, Q)
    B.T``, a reflection's included (:func:`so_adjoint_matrix` refuses one).
    ``U`` is one (n, n) matrix, giving a (d, d) map, or a (k, n, n) stack,
    giving the (k, d, d) stack of their maps; a member gets the bits it
    gets alone.  Any other U raises InvalidDimension.
    """
    U = _square_stack(U, "U: need a finite (n, n) matrix or (k, n, n) stack")
    n = U.shape[-1]
    if basis is None:
        basis = gell_mann_basis(n)
    if basis.n != n:
        raise InvalidDimension(f"basis n={basis.n} does not match U n={n}")
    return _conjugation_map(U, basis)


def _conjugation_map(U: np.ndarray, basis: Basis) -> np.ndarray:
    """The one conjugation kernel, ``Re(conj(B) kron(U, conj(U)) B.T)``,
    on a (..., n, n) array U that is already checked and a basis of its n:
    :func:`ad_matrix` after its checks, and the branch search of
    ``recover`` on the polar factors it builds."""
    B, B_conj = _basis_rows(basis)
    return (B_conj @ _kron(U, U.conj()) @ B.T).real


@functools.lru_cache(maxsize=None)
def _basis_rows(basis: Basis) -> tuple[np.ndarray, np.ndarray]:
    """``(B, conj(B))``, B the (d, n^2) rows vec(E_a) of the basis: built
    once per basis, as :func:`cartan_matrix` is, and read-only."""
    B = basis.mats.reshape(basis.d, basis.n * basis.n)
    B_conj = B.conj()
    B_conj.setflags(write=False)
    return B, B_conj


@functools.lru_cache(maxsize=None)
def cartan_matrix(basis: Basis) -> np.ndarray:
    """Coordinate matrix of the involution A -> -A.T on the Hermitian space.

    Built once per basis (bases are cached per n) and returned read-only,
    since every Hermitian decomposition at n >= 3 uses it."""
    sigma = np.ascontiguousarray(vectorize(-np.swapaxes(basis.mats, 1, 2), basis).T)
    sigma.setflags(write=False)
    return sigma


def verify_sigma_normalizes(U: np.ndarray, trials: int, seed) -> float:
    """Max deviation of -(U A U^{-1}).T from (U.T)^{-1} (-A.T) U.T over
    ``trials`` random traceless Hermitian A per unitary.  ``U`` is one
    (n, n) matrix or a (k, n, n) stack; all k * trials samples come from
    one generator.  A negative or non-integer ``trials``, or a U that is
    singular or not a finite square matrix or stack, raises InvalidDimension."""
    trials = _trial_count(trials)
    U = _square_stack(U, "U: need a finite (n, n) matrix or (k, n, n) stack")[..., None, :, :]
    n = U.shape[-1]
    lead = U.shape[:-3]
    A = random_element(HERMITIAN_TRACELESS, n, seed, count=int(np.prod(lead)) * trials)
    A = A.reshape(*lead, trials, n, n)
    Ut = np.swapaxes(U, -1, -2)
    try:
        lhs = -np.swapaxes(U @ A @ np.linalg.inv(U), -1, -2)
        rhs = np.linalg.inv(Ut) @ -np.swapaxes(A, -1, -2) @ Ut
    except np.linalg.LinAlgError:
        raise InvalidDimension("U is singular") from None
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


def so_adjoint_matrix(Q: np.ndarray, basis: Basis | None = None) -> np.ndarray:
    """Coordinate matrix of A -> Q A Q.T on the real skew-symmetric space
    for Q in SO(n): :func:`ad_matrix` on the skew basis, after a check
    that raises NotSpecialOrthogonal for a reflection (det -1), one in a
    stack included.  The congruence by a reflection is
    ``ad_matrix(Q, skew_basis(n))``.
    """
    Q = _square_stack(Q, "Q: need a finite (n, n) matrix or (k, n, n) stack")
    det = np.linalg.det(Q)
    if (det < 0).any():
        raise NotSpecialOrthogonal(f"det Q = {np.min(det):.6f}; expected +1")
    return ad_matrix(Q, skew_basis(Q.shape[-1]) if basis is None else basis)


def psi_matrix() -> np.ndarray:
    """The extra n = 4 skew-space isometry as a coordinate map: the
    transposition of coordinates a_14 and a_23 (positions 2 and 3 in the
    skew basis order).  Involution with determinant -1."""
    P = np.eye(6)
    P[[2, 3]] = P[[3, 2]]
    return P
