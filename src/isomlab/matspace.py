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
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, InvalidSeed, NotHermitian

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


def _dimension(n, least: int = 2) -> int:
    """``n`` as a matrix size: an integer >= ``least``, else InvalidDimension."""
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidDimension(f"need an integer n, got {n!r}") from None
    if n < least:
        raise InvalidDimension(f"need n >= {least}, got n={n}")
    return n


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
    n = _dimension(n)
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
    n = _dimension(n)
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
    n = _dimension(n)
    if space == HERMITIAN_TRACELESS:
        return n * n - 1
    if space == SKEW_REAL:
        return n * (n - 1) // 2
    raise InvalidDimension(f"unknown space tag {space!r}")


def vectorize(A: np.ndarray, basis: Basis) -> np.ndarray:
    """Coordinates of A in the given basis: coords[i] = <B_i, A>, the real
    part of the space's trace form, tr(B_i A) or tr(B_i.T A).

    ``A`` is one (n, n) matrix, giving a (d,) vector, or a (k, n, n) stack,
    giving a (k, d) array of the members' coordinates.
    """
    A = _numeric(A, "a matrix to vectorize is a numeric array")
    if A.ndim not in (2, 3) or A.shape[-2:] != (basis.n, basis.n):
        raise InvalidDimension(
            f"matrix shape {A.shape} does not match basis n={basis.n}"
        )
    pairing = "ijk,...kj->...i" if basis.space == HERMITIAN_TRACELESS else "ijk,...jk->...i"
    return np.einsum(pairing, basis.mats, A).real


def devectorize(v: np.ndarray, basis: Basis) -> np.ndarray:
    """Matrix represented by coordinate vector v: sum_i v[i] B_i.

    ``v`` is one (d,) vector, giving an (n, n) matrix, or a (k, d) array of
    coordinate vectors, giving the (k, n, n) stack of their matrices.
    """
    v = _numeric(v, "a coordinate vector is a real array", real=True)
    if v.ndim not in (1, 2) or v.shape[-1] != basis.d:
        raise InvalidDimension(f"coordinate length {v.shape} does not match basis d={basis.d}")
    return _combination(v, basis)


def _combination(v: np.ndarray, basis: Basis) -> np.ndarray:
    """The matrices ``sum_i v[..., i] B_i`` of already checked float
    coordinates v of shape (..., d): :func:`devectorize` after its checks.
    One (1, d) product per vector, so a stack member gets a single call's
    bits."""
    n = basis.n
    rows = v.reshape(-1, 1, basis.d) @ basis.mats.reshape(basis.d, n * n)
    return rows.reshape(v.shape[:-1] + (n, n))


def hermiticity_defect(A: np.ndarray) -> float | np.ndarray:
    """Max-entry deviation of A from its conjugate transpose; per member
    (a (k,) array) for a (k, n, n) stack."""
    return np.abs(A - A.swapaxes(-1, -2).conj()).max(axis=(-2, -1))


def _require_hermitian(A: np.ndarray, name: str) -> None:
    """Raise InvalidDimension unless A is an (n, n) matrix or (k, n, n)
    stack, n >= 1, then NotHermitian unless every member has finite entries
    and a Hermiticity defect within STRUCT_TOL times (1 + its largest entry
    modulus).  Finiteness comes first, since a NaN defect would pass."""
    if A.ndim not in (2, 3) or not A.shape[-1] == A.shape[-2] >= 1:
        raise InvalidDimension(f"{name}: need an (n, n) matrix or (k, n, n) stack, got shape {A.shape}")
    size = np.abs(A).max(axis=(-2, -1), initial=0.0)
    if not np.isfinite(size).all():
        raise NotHermitian(f"{name}: non-finite entries")
    defect = hermiticity_defect(A)
    if np.any(defect > STRUCT_TOL * (1.0 + size)):
        raise NotHermitian(f"{name}: hermiticity defect {np.max(defect):.3e} exceeds its tolerance")


def _skewness_defect(A: np.ndarray) -> float | np.ndarray:
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
        return (_skewness_defect(A) <= tol) & (not np.iscomplexobj(A))
    return np.False_


def project_traceless(A: np.ndarray) -> np.ndarray:
    """Project a Hermitian matrix, or each member of a (k, n, n) stack,
    onto the traceless Hermitian space.

    Symmetrizes roundoff and subtracts tr(A)/n times the identity; idempotent,
    and the identity on inputs that are already traceless.  Each member
    must pass :func:`_require_hermitian`.
    """
    A = np.asarray(A, dtype=complex)
    _require_hermitian(A, "A")
    n = A.shape[-1]
    H = (A + A.swapaxes(-1, -2).conj()) / 2.0
    return H - (H.trace(axis1=-2, axis2=-1).real / n)[..., None, None] * np.eye(n)


def _seed(seed):
    """``seed`` checked as ``np.random.default_rng`` checks it, without
    building a Generator, so ``default_rng(_seed(seed))`` draws what
    ``default_rng(seed)`` draws.  A non-negative Python int, or a list or
    tuple of them, comes back unchanged: numpy takes each as it is, and
    checking it costs less than the entropy mixing of a SeedSequence.  A
    Generator, BitGenerator, SeedSequence or RandomState comes back
    unchanged too, and anything else as the SeedSequence that default_rng
    makes of it.  A seed numpy refuses raises InvalidSeed, as in
    :func:`_rng`."""
    if isinstance(seed, (list, tuple)):
        if all(isinstance(word, int) and word >= 0 for word in seed):
            return seed
    elif isinstance(seed, int) and seed >= 0:
        return seed
    # np.random is read here, not imported, so importing isomlab leaves it unloaded
    kinds = (
        np.random.Generator,
        np.random.BitGenerator,
        np.random.bit_generator.ISeedSequence,
        np.random.RandomState,
    )
    if isinstance(seed, kinds):
        return seed
    try:
        return np.random.SeedSequence(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidSeed(f"cannot seed a generator from {seed!r}: {exc}") from None


def _rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``: a Generator comes back unchanged
    (and is then drawn from in place).  A seed numpy refuses, such as a
    negative integer, raises InvalidSeed."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InvalidSeed(f"cannot seed a generator from {seed!r}: {exc}") from None


def _trial_count(trials) -> int:
    """``trials`` as a count: an integer >= 0, else InvalidDimension (a
    float such as 2.5 or a negative count would otherwise reach numpy).
    Every function that draws checks its count here."""
    try:
        trials = operator.index(trials)
    except TypeError:
        raise InvalidDimension(f"need an integer trial count, got {trials!r}") from None
    if trials < 0:
        raise InvalidDimension(f"need trials >= 0, got {trials}")
    return trials


def _numeric(x, refusal: str, real: bool = False) -> np.ndarray:
    """x as an array whose dtype numpy casts to complex (to float, with
    ``real``) by the ``same_kind`` rule, else InvalidDimension(refusal):
    the one conversion rule of array inputs.  So a string, object or
    ragged x is refused, and with ``real`` a complex one, rather than
    parsed or stripped of its imaginary part.  With ``real`` the array
    comes back as float, else with its own dtype."""
    try:
        x = np.asarray(x)
    except (TypeError, ValueError) as exc:
        raise InvalidDimension(f"{refusal}: {exc}") from None
    if not np.can_cast(x.dtype, float if real else complex, casting="same_kind"):
        raise InvalidDimension(f"{refusal}, got dtype {x.dtype}")
    return x.astype(float, copy=False) if real else x


def _square_stack(U) -> np.ndarray:
    """U as a finite (n, n) matrix or (k, n, n) stack, n >= 1, of a numeric
    dtype (:func:`_numeric`), else InvalidDimension: the shape check of
    group elements."""
    return _finite_square(_numeric(U, "need a finite (n, n) matrix or (k, n, n) stack"))


def _finite_square(U: np.ndarray) -> np.ndarray:
    """The converted array U if it is a finite (n, n) matrix or (k, n, n)
    stack, n >= 1, else InvalidDimension: the shape check of group elements
    (:func:`_square_stack`) and coordinate maps."""
    if U.ndim in (2, 3) and U.shape[-1] == U.shape[-2] >= 1 and np.isfinite(U).all():
        return U
    raise InvalidDimension(f"need a finite (n, n) matrix or (k, n, n) stack, got shape {U.shape}")


def random_element(space: str, n: int, seed, count: int | None = None) -> np.ndarray:
    """Random space element with i.i.d. standard normal coordinates.

    The distribution is invariant under the adjoint/congruence actions and
    has almost surely simple spectrum; deterministic in the seed.  (For the
    Hermitian space this coincides with symmetrizing a complex Ginibre matrix
    with unit-variance real and imaginary parts and projecting traceless.)
    With ``count`` the result is a (count, n, n) stack of such elements,
    drawn from one generator; a count that is not an integer >= 0 raises
    InvalidDimension.
    """
    basis = basis_for(space, n)
    rng = _rng(seed)
    shape = basis.d if count is None else (_trial_count(count), basis.d)
    return devectorize(rng.standard_normal(shape), basis)
