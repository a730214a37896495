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
    """``n`` as a matrix size: an integer >= ``least``, else InvalidDimension (a bool too)."""
    try:
        if isinstance(n, bool):
            raise TypeError
        n = operator.index(n)
    except TypeError:
        raise InvalidDimension(f"need an integer n, got {n!r}") from None
    if n < least:
        raise InvalidDimension(f"need n >= {least}, got n={n}")
    return n


def gell_mann_basis(n: int) -> Basis:
    """Trace-orthonormal basis of the traceless Hermitian n x n matrices.

    Ordering convention, fixed for the whole package:

    1. symmetric pairs ``(E_jk + E_kj)/sqrt(2)`` for j < k, lexicographic;
    2. antisymmetric pairs ``i(E_kj - E_jk)/sqrt(2)`` for j < k (the sign is
       chosen so the n = 2 basis is exactly the Pauli matrices over sqrt(2));
    3. diagonal ladder ``diag(1, ..., 1, -l, 0, ..., 0)/sqrt(l(l+1))`` for
       l = 1..n-1.
    """
    return basis_for(HERMITIAN_TRACELESS, n)


def skew_basis(n: int) -> Basis:
    """Trace-orthonormal basis F_jk = (E_jk - E_kj)/sqrt(2) of the real
    skew-symmetric matrices, pairs (j, k) with j < k in lexicographic order.

    For n = 4 this puts the six coordinates in the order
    (a_12, a_13, a_14, a_23, a_24, a_34).
    """
    return basis_for(SKEW_REAL, n)


def basis_for(space: str, n: int) -> Basis:
    """The package-wide basis of the space tag at size n, from one cache;
    an unknown tag or an n that :func:`_dimension` refuses raises InvalidDimension."""
    if space not in (HERMITIAN_TRACELESS, SKEW_REAL):
        raise InvalidDimension(f"unknown space tag {space!r}")
    return _built_basis(space, _dimension(n))


@functools.lru_cache(maxsize=None)
def _built_basis(space: str, n: int) -> Basis:
    """:func:`basis_for` after its checks, built once per (space, n)."""
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    rt2 = np.sqrt(2.0)
    if space == SKEW_REAL:
        mats = np.zeros((len(pairs), n, n))
        for m, (j, k) in zip(mats, pairs):
            m[j, k] = 1.0 / rt2
            m[k, j] = -1.0 / rt2
        return Basis(SKEW_REAL, n, mats)
    mats = np.zeros((2 * len(pairs) + n - 1, n, n), dtype=complex)
    for m, (j, k) in zip(mats, pairs):
        m[j, k] = m[k, j] = 1.0 / rt2
    for m, (j, k) in zip(mats[len(pairs):], pairs):
        m[j, k] = -1j / rt2
        m[k, j] = 1j / rt2
    for m, l in zip(mats[2 * len(pairs):], range(1, n)):
        m[np.arange(l), np.arange(l)] = 1.0
        m[l, l] = -float(l)
        m /= np.sqrt(l * (l + 1.0))
    return Basis(HERMITIAN_TRACELESS, n, mats)


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

    ``A`` is one finite (n, n) matrix, giving a (d,) vector, or a (k, n, n)
    stack, giving a (k, d) array of the members' coordinates.
    """
    A = _numeric(A, "a matrix to vectorize is a numeric array")
    if A.ndim not in (2, 3) or A.shape[-2:] != (basis.n, basis.n) or not np.isfinite(A).all():
        raise InvalidDimension(f"need finite matrices of basis n={basis.n}, got shape {A.shape}")
    return _coordinates(A, basis)


def _coordinates(A: np.ndarray, basis: Basis) -> np.ndarray:
    """:func:`vectorize` after its checks, on a (..., n, n) array A."""
    pairing = "ijk,...kj->...i" if basis.space == HERMITIAN_TRACELESS else "ijk,...jk->...i"
    return np.einsum(pairing, basis.mats, A).real


def devectorize(v: np.ndarray, basis: Basis) -> np.ndarray:
    """Matrix represented by coordinate vector v: sum_i v[i] B_i.

    ``v`` is one finite (d,) vector, giving an (n, n) matrix, or a (k, d)
    array of coordinate vectors, giving the (k, n, n) stack of their matrices.
    """
    v = _numeric(v, "a coordinate vector is a real array", real=True)
    if v.ndim not in (1, 2) or v.shape[-1] != basis.d or not np.isfinite(v).all():
        raise InvalidDimension(f"need finite coordinates of basis d={basis.d}, got shape {v.shape}")
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


def _require_hermitian(A, name: str) -> np.ndarray:
    """A by :func:`_numeric` if it is an (n, n) matrix or (k, n, n) stack, n
    >= 1, else InvalidDimension, and if every member has finite entries and
    a Hermiticity defect within STRUCT_TOL times (1 + its largest entry
    modulus), else NotHermitian; finiteness first, as a NaN defect passes."""
    A = _numeric(A, f"{name}: need a numeric array")
    if A.ndim not in (2, 3) or not A.shape[-1] == A.shape[-2] >= 1:
        raise InvalidDimension(f"{name}: need an (n, n) matrix or (k, n, n) stack, got shape {A.shape}")
    size = np.abs(A).max(axis=(-2, -1), initial=0.0)
    if not np.isfinite(size).all():
        raise NotHermitian(f"{name}: non-finite entries")
    defect = hermiticity_defect(A)
    if np.any(defect > STRUCT_TOL * (1.0 + size)):
        raise NotHermitian(f"{name}: hermiticity defect {np.max(defect):.3e} exceeds its tolerance")
    return A


def _skewness_defect(A: np.ndarray) -> float | np.ndarray:
    """Max-entry deviation of A + A.T from zero; per member for a stack."""
    return np.abs(A + A.swapaxes(-1, -2)).max(axis=(-2, -1))


def is_element(A: np.ndarray, space: str, tol: float | np.ndarray | None = None):
    """Whether A satisfies the structural invariants of the given space.

    The answer is a numpy boolean for one matrix and a (k,) boolean array,
    one entry per member, for a (k, n, n) stack; ``tol`` may then be a (k,)
    array.  By default each matrix is held to ``STRUCT_TOL`` times (1 + its
    own largest entry modulus).  :func:`_numeric` converts A and tol.
    """
    A = _numeric(A, "a matrix to test is a numeric array")
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2] or A.shape[-1] < 2:
        return np.False_
    if tol is None:
        tol = STRUCT_TOL * (1.0 + np.abs(A).max(axis=(-2, -1)))
    tol = _numeric(tol, "a tolerance is a real numeric array", real=True)
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
    A = _require_hermitian(A, "A").astype(complex, copy=False)
    n = A.shape[-1]
    H = (A + A.swapaxes(-1, -2).conj()) / 2.0
    return H - (H.trace(axis1=-2, axis2=-1).real / n)[..., None, None] * np.eye(n)


def _seed(seed):
    """``seed`` checked as ``np.random.default_rng`` checks it, without
    building a Generator, so ``default_rng(_seed(seed))`` draws what
    ``default_rng(seed)`` draws.  A non-negative Python int (not a
    subclass), or a list or tuple of them, comes back unchanged: numpy
    takes each as it is, and checking it costs less than the entropy
    mixing of a SeedSequence.  A
    Generator, BitGenerator, SeedSequence or RandomState comes back
    unchanged too, and anything else as the SeedSequence that default_rng
    makes of it.  A seed numpy refuses raises InvalidSeed, and so does a
    bool, alone or in a list or tuple, which numpy would read as 0 or 1."""
    # ``type(word) is int`` leaves bools (and other int subclasses) to the
    # slower checks below
    if isinstance(seed, (list, tuple)):
        if all(type(word) is int and word >= 0 for word in seed):
            return seed
    elif type(seed) is int and seed >= 0:
        return seed
    if any(isinstance(word, bool) for word in (seed if isinstance(seed, (list, tuple)) else (seed,))):
        raise InvalidSeed(f"cannot seed a generator from {seed!r}: a bool is not a seed")
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
    """``np.random.default_rng(seed)`` after :func:`_seed`: a Generator comes
    back unchanged (and is then drawn from in place).  A seed numpy refuses,
    such as a negative integer, raises InvalidSeed."""
    return np.random.default_rng(_seed(seed))


def _trial_count(trials) -> int:
    """``trials`` as a count: an integer >= 0, else InvalidDimension (a bool
    too; a float such as 2.5 or a negative count would otherwise reach
    numpy).  Every function that draws checks its count here."""
    try:
        if isinstance(trials, bool):
            raise TypeError
        trials = operator.index(trials)
    except TypeError:
        raise InvalidDimension(f"need an integer trial count, got {trials!r}") from None
    if trials < 0:
        raise InvalidDimension(f"need trials >= 0, got {trials}")
    return trials


def _numeric(x, refusal: str, real: bool = False) -> np.ndarray:
    """x as an array of an integer, float or (unless ``real``) complex dtype,
    else InvalidDimension(refusal): the one conversion rule of array inputs.
    So a string, object, bool or ragged x is refused, and with ``real`` a
    complex one, rather than parsed, read as 0 and 1 or stripped of its
    imaginary part.  With ``real`` the array comes back as float, else with
    its own dtype."""
    try:
        x = np.asarray(x)
    except (TypeError, ValueError) as exc:
        raise InvalidDimension(f"{refusal}: {exc}") from None
    if x.dtype.kind not in ("iuf" if real else "iufc"):
        raise InvalidDimension(f"{refusal}, got dtype {x.dtype}")
    return x.astype(float, copy=False) if real else x


def _square_stack(x, refusal: str, real: bool = False) -> np.ndarray:
    """x converted by :func:`_numeric` (to float, with ``real``), if it is a
    finite (n, n) matrix or (k, n, n) stack, n >= 1, else
    InvalidDimension(refusal): the check of group elements and coordinate
    maps."""
    x = _numeric(x, refusal, real)
    if x.ndim in (2, 3) and x.shape[-1] == x.shape[-2] >= 1 and np.isfinite(x).all():
        return x
    raise InvalidDimension(f"{refusal}, got shape {x.shape}")


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
