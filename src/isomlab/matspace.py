"""Matrix spaces, trace-orthonormal bases, and coordinate isomorphisms.

Two real inner-product spaces underlie everything in this package:

* ``hermitian_traceless`` -- complex n x n self-adjoint traceless matrices,
  real dimension n**2 - 1, with the trace form ``<A, B> = tr(AB)``;
* ``skew_real`` -- real n x n skew-symmetric matrices, dimension n(n-1)/2,
  with ``<A, B> = tr(A.T B)``.

Bases are normalized to ``<B_i, B_j> = delta_ij`` so that the Euclidean norm
of a coordinate vector equals the Frobenius norm of the matrix it represents.
Coordinate vectors are plain float arrays; linear maps on a space are plain
(d, d) float arrays acting on those coordinates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, NotHermitian

HERMITIAN_TRACELESS = "hermitian_traceless"
SKEW_REAL = "skew_real"

#: structural tolerance for space-membership checks (scaled by magnitude)
STRUCT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Basis:
    """Ordered trace-orthonormal basis of one of the two matrix spaces.

    ``mats`` stacks the basis elements into a read-only (d, n, n) array;
    the ordering is frozen (see :func:`gell_mann_basis`, :func:`skew_basis`)
    because every coordinate object in the package is relative to it.
    """

    space: str
    n: int
    mats: np.ndarray

    def __post_init__(self):
        self.mats.setflags(write=False)

    @property
    def d(self) -> int:
        return self.mats.shape[0]


@functools.lru_cache(maxsize=None)
def gell_mann_basis(n: int) -> Basis:
    """Trace-orthonormal basis of the traceless Hermitian n x n matrices.

    Ordering convention, fixed for the whole package:

    1. symmetric pairs ``(E_jk + E_kj)/sqrt(2)`` for j < k, lexicographic;
    2. antisymmetric pairs ``i(E_kj - E_jk)/sqrt(2)`` for j < k (the sign is
       chosen so the n = 2 basis is exactly the Pauli matrices over sqrt(2));
    3. diagonal ladder ``diag(1, ..., 1, -l, 0, ..., 0)/sqrt(l(l+1))`` for
       l = 1..n-1.
    """
    if n < 2:
        raise InvalidDimension(f"need n >= 2, got n={n}")
    mats = []
    rt2 = np.sqrt(2.0)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / rt2
            mats.append(m)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = -1j / rt2
            m[k, j] = 1j / rt2
            mats.append(m)
    for l in range(1, n):
        m = np.zeros((n, n), dtype=complex)
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -float(l)
        mats.append(m / np.sqrt(l * (l + 1.0)))
    return Basis(HERMITIAN_TRACELESS, n, np.stack(mats))


@functools.lru_cache(maxsize=None)
def skew_basis(n: int) -> Basis:
    """Trace-orthonormal basis F_jk = (E_jk - E_kj)/sqrt(2) of the real
    skew-symmetric matrices, pairs (j, k) with j < k in lexicographic order.

    For n = 4 this puts the six coordinates in the order
    (a_12, a_13, a_14, a_23, a_24, a_34).
    """
    if n < 2:
        raise InvalidDimension(f"need n >= 2, got n={n}")
    mats = []
    rt2 = np.sqrt(2.0)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n))
            m[j, k] = 1.0 / rt2
            m[k, j] = -1.0 / rt2
            mats.append(m)
    return Basis(SKEW_REAL, n, np.stack(mats))


def basis_for(space: str, n: int) -> Basis:
    """Return the package-wide basis for the given space tag."""
    if space == HERMITIAN_TRACELESS:
        return gell_mann_basis(n)
    if space == SKEW_REAL:
        return skew_basis(n)
    raise InvalidDimension(f"unknown space tag {space!r}")


def space_dim(space: str, n: int) -> int:
    """Real dimension of the space: n**2 - 1 or n(n-1)/2."""
    if space == HERMITIAN_TRACELESS:
        return n * n - 1
    if space == SKEW_REAL:
        return n * (n - 1) // 2
    raise InvalidDimension(f"unknown space tag {space!r}")


def trace_inner(A: np.ndarray, B: np.ndarray, space: str) -> float:
    """Trace form: tr(AB) on the Hermitian space, tr(A.T B) on the skew one."""
    if space == HERMITIAN_TRACELESS:
        return float(np.real(np.sum(A * B.T)))
    return float(np.sum(A * B))


def vectorize(A: np.ndarray, basis: Basis) -> np.ndarray:
    """Coordinates of A in the given basis: coords[i] = <B_i, A>.

    ``A`` is one (n, n) matrix, giving a (d,) vector, or a (k, n, n) stack,
    giving a (k, d) array of the members' coordinates.
    """
    A = np.asarray(A)
    if A.ndim not in (2, 3) or A.shape[-2:] != (basis.n, basis.n):
        raise InvalidDimension(
            f"matrix shape {A.shape} does not match basis n={basis.n}"
        )
    if basis.space == HERMITIAN_TRACELESS:
        return np.einsum("ijk,...kj->...i", basis.mats, A).real
    coords = np.einsum("ijk,...jk->...i", basis.mats, A)
    return np.asarray(coords.real if np.iscomplexobj(coords) else coords, dtype=float)


def devectorize(v: np.ndarray, basis: Basis) -> np.ndarray:
    """Matrix represented by coordinate vector v: sum_i v[i] B_i.

    ``v`` is one (d,) vector, giving an (n, n) matrix, or a (k, d) array of
    coordinate vectors, giving the (k, n, n) stack of their matrices.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != basis.d:
        raise InvalidDimension(
            f"coordinate length {v.shape} does not match basis d={basis.d}"
        )
    return np.tensordot(v, basis.mats, axes=1)


def apply_map(M: np.ndarray, A: np.ndarray, basis: Basis) -> np.ndarray:
    """Apply a (d, d) coordinate map to a matrix-space element, or to each
    member of a (k, n, n) stack."""
    return devectorize(vectorize(A, basis) @ np.transpose(M), basis)


def hermiticity_defect(A: np.ndarray) -> float | np.ndarray:
    """Max-entry deviation of A from its conjugate transpose; per member
    (a (k,) array) for a (k, n, n) stack."""
    return np.abs(A - A.swapaxes(-1, -2).conj()).max(axis=(-2, -1))


def skewness_defect(A: np.ndarray) -> float | np.ndarray:
    """Max-entry deviation of A + A.T from zero; per member for a stack."""
    return np.abs(A + A.swapaxes(-1, -2)).max(axis=(-2, -1))


def is_element(A: np.ndarray, space: str, tol: float | np.ndarray | None = None):
    """Whether A satisfies the structural invariants of the given space.

    The answer is a numpy boolean for one matrix and a (k,) boolean array,
    one entry per member, for a (k, n, n) stack; ``tol`` may then be a (k,)
    array.  By default each matrix is held to ``STRUCT_TOL`` times (1 + its
    own largest entry modulus).
    """
    A = np.asarray(A)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2] or A.shape[-1] < 2:
        return np.False_
    if tol is None:
        tol = STRUCT_TOL * (1.0 + np.abs(A).max(axis=(-2, -1)))
    if space == HERMITIAN_TRACELESS:
        trace = np.abs(A.trace(axis1=-2, axis2=-1))
        return (hermiticity_defect(A) <= tol) & (trace <= tol)
    if space == SKEW_REAL:
        return (skewness_defect(A) <= tol) & (not np.iscomplexobj(A))
    return np.False_


def project_traceless(A: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Project a Hermitian matrix onto the traceless Hermitian space.

    Symmetrizes roundoff and subtracts tr(A)/n times the identity; idempotent,
    and the identity on inputs that are already traceless.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidDimension(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    scale = 1.0 + float(np.max(np.abs(A))) if A.size else 1.0
    tol = STRUCT_TOL * scale if tol is None else tol
    defect = hermiticity_defect(A)
    if defect > tol:
        raise NotHermitian(f"hermiticity defect {defect:.3e} exceeds {tol:.3e}")
    H = (A + A.conj().T) / 2.0
    return H - (np.trace(H).real / n) * np.eye(n)


def random_element(space: str, n: int, seed, count: int | None = None) -> np.ndarray:
    """Random space element with i.i.d. standard normal coordinates.

    The distribution is invariant under the adjoint/congruence actions and
    has almost surely simple spectrum; deterministic in the seed.  (For the
    Hermitian space this coincides with symmetrizing a complex Ginibre matrix
    with unit-variance real and imaginary parts and projecting traceless.)
    With ``count`` the result is a (count, n, n) stack of such elements,
    drawn from one generator.
    """
    basis = basis_for(space, n)
    rng = np.random.default_rng(seed)
    shape = basis.d if count is None else (count, basis.d)
    return devectorize(rng.standard_normal(shape), basis)
