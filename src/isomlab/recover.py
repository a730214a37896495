"""Decompose isometries of the classified norms into canonical data.

On the traceless Hermitian space every isometry of a non-Euclidean invariant
norm is ``A -> eta U (A or -A.T) U^{-1} + B``; on the real skew space it is
``A -> sign Q psi^f(A) Q.T`` with Q in O(n), with the entry swap psi only at
n = 4.  A reflection's congruence is a rotation's at odd n (that of -Q), but
not at even n, where Q keeps determinant -1.  Both
decompositions share one path: the same input checks, then one branch
search over ``(M @ involution if flag else M) / sign`` (involution -A.T or
psi) in the order (1, F), (-1, F), (1, T), (-1, T), where the first branch
whose rebuilt map reproduces M within ``RESIDUAL_TOL`` wins and gives the
reported residual.  A map that no branch reproduces (an isometry of the
Euclidean norm, say) is outside the classified family.

The conjugating matrix of a branch is one closed form, read off the
rearranged superoperator T of the branch's linear part (see
:func:`_rearranged`).  Its square is rank one after a shift:
``(T^2 - I/n^2) / (n - 2/n) = vec(U) vec(U)*`` on the Hermitian space and
``(4 T^2 - I) / (n - 2) = vec(Q) vec(Q).T`` on the skew space (n >= 3).  So
the conjugator is one column of that square over the square root of its
diagonal entry, polished to the nearest unitary or orthogonal matrix (see
:func:`_candidate` and :func:`_polished`); no eigendecomposition is
needed.  T is linear in the map, so ``T(-L)^2 = T(L)^2``, and one
candidate, one polar fit and one rebuild per involution flag serve both
signs.

Length test.  The candidate column c of an adjoint image is vec(U) or
vec(Q) up to phase, so ``|c|^2 = n``; the branch search refuses a flag for
a member, before its polar fit and rebuild, when ``||c|^2 - n| >
LENGTH_WINDOW n``.  This never refuses a map that the residual test would
accept.  Let R be the map the polished conjugator rebuilds, an exact image,
and ``r = max |R - M|`` its residual.  The rearrangement keeps the
Frobenius norm (the bases are trace-orthonormal), so ``|T - T0|_2 <= |M -
R|_F <= d r = e`` with T0 that of R, and the rank-one forms S, S0 differ by
at most ``delta = a (2 |T0|_2 e + e^2) / c`` in the spectral norm, with
``|T0|_2 <= n`` (Hermitian) or ``(n + 1) / 2`` (skew).  The pivot, S's
largest diagonal entry, is at least ``1/n - delta`` (a unitary's largest
entry has squared modulus at least 1/n), and ``|S e_j|`` is within delta
of ``|S0 e_j| = sqrt(n S0_jj)``, so ``|c|^2 / n`` is within ``(n + 2
sqrt(n)) delta / (1 - n delta)`` of 1.  At ``r = RESIDUAL_TOL`` that is at
most 1.8e-3 (Hermitian) and 2.3e-3 (skew) for n <= 8, and below the window
1/4 for every n <= 42.  A map far from every image has no such bound.
Measured over 200 maps each, ``|c|^2 / n`` reads 0.03-0.47 for a Haar
rotation of so(d) (an isometry of the Euclidean norm) on the Hermitian
space at n >= 3 and 0.017-0.21 for an image on the wrong involution flag;
on the skew space an image on the wrong psi flag at n = 4 reads
0.63-0.71, so none of these branches makes an SVD.  A Haar rotation on the
skew space reads 0.10-0.75 at n >= 4 (0.17-0.82 over 2000 at n = 4, 0.4 %
of them inside the window), so a few still take the polish and fail on
the residual.  At d = 3 every rotation is an adjoint image, and it passes.

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
is the only consumer of random numbers: the seed is checked up front, but
a generator is built from it, or a ``Generator`` passed as ``seed`` drawn
from, only when the test runs.  The test works in coordinates, and a map so
large that it moves a difference out of the floating-point range fails it.

What depends only on the basis (the bases, the conjugation kernel's basis
rows, the involutions) is built once per n, each input is converted and
checked once, and the kernels behind ``devectorize``, ``ad_matrix`` and
``norm_value`` run without those functions' checks on what is checked.

Stacks.  Both decompositions and the inversions take a (k, d, d) stack of
maps through the same code as one map (k = 1): one stacked candidate per
flag over the members still open, one polar fit and rebuild over those the
length test keeps, and one distance test over the uncertified members,
which draws their samples in member order from one generator call, as k
single calls would in turn.  Every stacked numpy call used gives a member
the bits it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, NotAdjointImage, NotInClassifiedForm, NotIsometry
# ad_matrix, so_adjoint_matrix, devectorize, random_element, vectorize and
# norm_value: unused here, but perfbench/tracing.py wraps each of them in
# recover's namespace; the work they did runs in their private kernels
# (_conjugation_map, _combination, _norm_values) on inputs already checked
from .groups import _conjugation_map, ad_matrix, cartan_matrix, psi_matrix, so_adjoint_matrix  # noqa: F401
from .matspace import (  # noqa: F401
    HERMITIAN_TRACELESS,
    SKEW_REAL,
    Basis,
    _combination,
    _numeric,
    _rng,
    _seed,
    _square_stack,
    basis_for,
    devectorize,
    random_element,
    space_dim,
    vectorize,
)
from .norms import NormSpec, _check_parameters, _norm_values, norm_value  # noqa: F401

#: accepted end-to-end reconstruction residual for recovered forms
RESIDUAL_TOL = 1e-6

#: accepted relative norm deviation of the isometry distance test; the
#: residual certificate holds ``n d residual`` to the same bound
ISOMETRY_TOL = 1e-8

#: the branch search polishes a candidate only when its squared length is
#: within this fraction of n from n (see the module docstring)
LENGTH_WINDOW = 0.25

#: the message with which :func:`matspace._square_stack` refuses a coordinate map
_MAP = "a coordinate map is a real numeric array: a finite (d, d) map or (k, d, d) stack"

#: the skew involution psi at n = 4, built once for every branch search
_PSI = psi_matrix()
_PSI.setflags(write=False)


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
    with ``orthogonal`` in O(n), determined up to global sign (so a
    rotation at odd n, where -Q flips the determinant, and of determinant
    -1 at even n for a reflection's congruence), and ``psi_flag`` only ever
    set at n = 4."""

    sign: int
    psi_flag: bool
    orthogonal: np.ndarray
    residual: float


def _center_distance(U, V, unitary: bool) -> float | np.ndarray:
    """min over z in the action's kernel (the n-th roots of unity when
    ``unitary``, else +-1) of max-entry |U - z V|: U's distance from V
    modulo that kernel; per member, a (k,) array, for a stack.  U and V
    pass :func:`_square_stack` with one n (one k if both are stacks)."""
    U, V = (_square_stack(W, "need a finite (n, n) matrix or (k, n, n) stack") for W in (U, V))
    n = U.shape[-1]
    if V.shape[-1] != n or (U.ndim == V.ndim == 3 and len(U) != len(V)):
        raise InvalidDimension(f"cannot compare shapes {U.shape} and {V.shape}")
    roots = np.exp(2j * np.pi * np.arange(n) / n) if unitary else np.array([1.0, -1.0])
    dist = np.abs(U[..., None, :, :] - roots[:, None, None] * V[..., None, :, :])
    dist = dist.max(axis=(-2, -1)).min(axis=-1)
    return float(dist) if dist.ndim == 0 else dist


def unitary_phase_distance(U: np.ndarray, V: np.ndarray) -> float | np.ndarray:
    """min over n-th roots of unity z of max-entry |U - z V| (:func:`_center_distance`)."""
    return _center_distance(U, V, unitary=True)


def orthogonal_sign_distance(Q: np.ndarray, P: np.ndarray) -> float | np.ndarray:
    """min over s = +-1 of max-entry |Q - s P| (:func:`_center_distance`)."""
    return _center_distance(Q, P, unitary=False)


def _map_basis(M: np.ndarray, space: str) -> Basis:
    """The basis of ``space`` at the n >= 2 with ``space_dim(space, n)`` the
    size d of the checked map M, else InvalidDimension: the one d -> n rule.
    n is read off d in closed form, the integer root of ``d = n^2 - 1`` or
    ``d = n(n - 1)/2``, and d must then be exactly that dimension."""
    d = M.shape[-1]
    n = math.isqrt(d + 1) if space == HERMITIAN_TRACELESS else (1 + math.isqrt(1 + 8 * d)) // 2
    if n < 2 or space_dim(space, n) != d:
        raise InvalidDimension(f"map size {d} is not the dimension of {space} at any n >= 2")
    return basis_for(space, n)


def _rearranged(M: np.ndarray, basis: Basis) -> np.ndarray:
    """The rearranged superoperators of a (k, d, d) stack of coordinate
    maps.

    With ``images[i]`` the matrix that column i of a map M represents, the
    rearrangement ``T[(a, c), (b, d)] = sum_i images[i][a, b] B_i[d, c]``
    is Hermitian for every real M (C. F. Van Loan and N. Pitsianis,
    "Approximation with Kronecker products", 1993).  For ``M =
    ad_matrix(U)`` it is ``vec(U) vec(U)* - I/n`` (the identity is what the
    traceless basis misses).  For ``M = so_adjoint_matrix(Q)`` it is
    ``-(vec(Q) vec(Q).T - P)/2`` with the involution ``P: Y -> Q Y.T Q``,
    which fixes vec(Q).  Squared, with ``|vec|^2 = n``, these give the
    rank-one forms ``(T^2 - I/n^2) / (n - 2/n) = vec(U) vec(U)*`` and ``(4
    T^2 - I) / (n - 2) = vec(Q) vec(Q).T``, the same for M and -M.  Whether
    M was an adjoint image at all is left to the caller's reconstruction
    residual.  The images are devectorize's (1, d) product per column
    (``matspace._combination``), on columns the caller has already checked.
    """
    n, d, k = basis.n, basis.d, len(M)
    images = _combination(M.swapaxes(-1, -2), basis).reshape(k, d, n * n)
    T = images.swapaxes(-1, -2) @ basis.mats.reshape(d, n * n)
    return T.reshape(k, n, n, n, n).transpose(0, 1, 4, 2, 3).reshape(k, n * n, n * n)


def _candidate(M: np.ndarray, basis: Basis):
    """``(column, refused)`` for each map of the (k, d, d) stack M: its
    candidate conjugator before the polish, a (k, n, n) stack, and where
    that candidate is refused.

    With T the map's rearranged superoperator, the rank-one form ``S = (a
    T^2 - b I) / c`` of :func:`_rearranged` is ``vec vec*`` for an adjoint
    image.  Only its diagonal is formed, the squared row norms of T shifted
    and scaled; at its largest entry j the candidate is column j of S,
    ``(a T T[:, j] - b e_j) / c``, over ``sqrt(S_jj)``: vec up to a phase
    (sign), of squared length n.  Where ``S_jj`` is not positive and finite
    the column is zero and the member refused, so no NaN reaches the
    polish.  The basis's space picks the constants; T is real on the skew
    space, so its squared row norms are then taken without a conjugate."""
    n, k = basis.n, len(M)
    skew = basis.space == SKEW_REAL
    a, b, c = (4.0, 1.0, n - 2.0) if skew else (1.0, 1.0 / n**2, n - 2.0 / n)
    members = np.arange(k)
    # a huge map overflows here, in T or its square; its pivot is then not
    # finite and refused
    with np.errstate(over="ignore", invalid="ignore"):
        T = _rearranged(M, basis)
        squares = T * T if skew else (T * T.conj()).real
        diagonal = (a * squares.sum(axis=-1) - b) / c
        j = np.argmax(diagonal, axis=-1)
        pivot = diagonal[members, j]
        refused = ~(np.isfinite(pivot) & (pivot > 0))
        column = a * (T @ T[members, :, j, None])[..., 0]
        column[members, j] -= b
        column /= (c * np.sqrt(pivot))[:, None]
    column[refused] = 0.0
    return column.reshape(k, n, n), refused


def _polished(column: np.ndarray, basis: Basis):
    """``(C, rebuilt)`` for a (k, n, n) stack of candidates: the nearest
    unitary (orthogonal) matrix ``W Vh`` of each candidate's SVD, after the
    determinant step, and the map it rebuilds by the conjugation kernel
    (``groups._conjugation_map``) on the basis, with no second check of the
    polar factors.  On the Hermitian space C is normalized to determinant
    one.  On the skew space a reflection is kept at even n, where it is the
    only matrix that reproduces its congruence (the public inversion
    refuses it, see :func:`_inverted`), and flipped at odd n, where the
    rotation -Q gives the same congruence."""
    W, _, Vh = np.linalg.svd(column)
    C = W @ Vh
    if basis.space != SKEW_REAL:
        C = C * (np.linalg.det(C) ** (-1.0 / basis.n))[:, None, None]
    elif basis.n % 2:
        C = np.where((np.linalg.det(C) < 0)[:, None, None], -C, C)
    return C, _conjugation_map(C, basis)


def _inverted(M: np.ndarray, basis: Basis):
    """The public inversions' path on a checked M and its basis: each map's
    :func:`_candidate` through :func:`_polished`, refused or not (a refused
    member's zero column polishes to some unitary, so its residual is
    finite); no involution is tried here.  Returns ``(conjugator, residual)``, one of each for one map and
    stacked for a stack, or raises :class:`NotAdjointImage` for the first
    member refused.  On the skew space that includes a reflection, which
    the conjugator keeps only at even n: the skew inversion returns a
    rotation."""
    single = M.ndim == 2
    M = M.reshape(-1, *M.shape[-2:])
    column, refused = _candidate(M, basis)
    C, rebuilt = _polished(column, basis)
    if basis.space == SKEW_REAL:
        refused = refused | (np.linalg.det(C) < 0)
    residual = np.max(np.abs(rebuilt - M), axis=(-2, -1))
    accepted = ~refused & (residual <= RESIDUAL_TOL)
    if not accepted.all():
        r = float(residual[np.argmin(accepted)])
        if r > RESIDUAL_TOL:
            message = f"reconstruction residual {r:.3e} exceeds {RESIDUAL_TOL:.0e}"
        else:
            message = (
                "map is the congruence by a reflection, which no rotation "
                f"reproduces at even n (residual {r:.3e})"
            )
        raise NotAdjointImage(message, residual=r)
    return (C[0], float(residual[0])) if single else (C, residual)


def recover_unitary_from_ad(M: np.ndarray) -> tuple[np.ndarray, float]:
    """Invert the conjugation action: find U with ``ad_matrix(U) = M``.

    vec(U) is, up to phase, a column of the rank-one form ``(T^2 - I/n^2) /
    (n - 2/n)`` of M's rearranged superoperator T (see :func:`_rearranged`
    and :func:`_candidate`), polished to a unitary and normalized to
    determinant one.  Returns ``(U, residual)`` with U in SU(n) up to an
    n-th root of unity and ``residual`` the max coordinate deviation of
    ``ad_matrix(U)`` from M.  Raises :class:`InvalidDimension` unless M is a
    finite real d-square matrix, n read off d = n^2 - 1, and
    :class:`NotAdjointImage` when the residual exceeds ``RESIDUAL_TOL`` or
    the form has no positive diagonal entry (the zero map, say).  A (k, d,
    d) stack is taken as :func:`recover_orthogonal_from_adso` takes one.
    """
    M = _square_stack(M, _MAP, real=True)
    return _inverted(M, _map_basis(M, HERMITIAN_TRACELESS))


def recover_orthogonal_from_adso(M: np.ndarray):
    """Invert the congruence action on the skew space: find Q with
    ``so_adjoint_matrix(Q) = M``, up to global sign.

    vec(Q) is, up to sign, a column of the rank-one form ``(4 T^2 - I) / (n
    - 2)`` of M's rearranged superoperator T (see :func:`_rearranged` and
    :func:`_candidate`), polished to an orthogonal matrix.  The form needs
    n >= 3, read off d = n(n-1)/2; :class:`InvalidDimension` is raised below
    that, and unless M is a finite real d-square map or a (k, d, d) stack.
    Returns ``(Q, residual)`` with Q in SO(n) and ``residual`` the max
    coordinate deviation of the congruence by Q from M; for a stack, a (k,
    n, n) stack of rotations and a (k,) array of residuals, each member what
    it gets alone.  Raises :class:`NotAdjointImage` when a residual exceeds
    ``RESIDUAL_TOL``, when the form has no positive diagonal entry, or when
    M is the congruence by a reflection at even n, which no rotation
    reproduces (at odd n the rotation -Q is returned instead); in a stack,
    for the first member refused.
    """
    M = _square_stack(M, _MAP, real=True)
    basis = _map_basis(M, SKEW_REAL)
    if basis.n < 3:
        raise InvalidDimension("orthogonal recovery needs n >= 3")
    return _inverted(M, basis)


def _branch_search(M: np.ndarray, basis: Basis):
    """``(sign, flag, conjugator, residual)``, one entry per member of the
    (k, d, d) stack M, for the first branch ``(M @ involution if flag else
    M) / sign`` in the order (1, F), (-1, F), (1, T), (-1, T) whose rebuilt
    map reproduces it within ``RESIDUAL_TOL``.  Where every branch fails,
    ``sign`` is 0 and ``residual`` infinite.

    The basis picks the involution: A -> -A.T (``cartan_matrix``) on the
    Hermitian space at n >= 3, where at n = 2 it is itself a conjugation,
    and psi on the skew space at n = 4; elsewhere there are no flag
    branches.  The candidate of :func:`_candidate` is the same for a map
    and its negative, so per flag there is one stacked candidate over the
    members still open.  A member whose candidate's squared length is
    farther than ``LENGTH_WINDOW * n`` from n is refused for that flag
    (see the module docstring); the others get one stacked polish and
    rebuild (:func:`_polished`), tested against ``linear`` for sign +1 and
    ``-linear`` for sign -1, and a flag none passes makes no SVD.  Every
    subset is taken by indexing, so a member gets the bits it gets alone,
    and a single map takes the same code with k = 1.  The candidates live
    only in this frame, which has ended before any caller raises, so a
    rejected map's traceback keeps none of them alive."""
    k, n = len(M), basis.n
    if basis.space == SKEW_REAL:
        involution = _PSI if n == 4 else None
    else:
        involution = cartan_matrix(basis) if n >= 3 else None
    sign = np.zeros(k, dtype=int)
    flag = np.zeros(k, dtype=bool)
    conjugator = np.zeros((k, n, n), dtype=basis.mats.dtype)
    residual = np.full(k, np.inf)
    todo = np.arange(k)  # the members no branch has reproduced yet
    for f in (False, True) if involution is not None else (False,):
        linear = M[todo] @ involution if f else M
        column, _ = _candidate(linear, basis)
        # |c|^2 as the sum of squares of the real and imaginary parts; a
        # refused candidate is zero, so outside the window
        length = np.square(column.view(np.float64)).sum(axis=(-2, -1))
        tried = np.abs(length - n) <= LENGTH_WINDOW * n
        every = tried.all()
        if every:
            members = todo
        elif tried.any():
            members, linear, column = todo[tried], linear[tried], column[tried]
        else:
            continue
        C, rebuilt = _polished(column, basis)
        for s in (1, -1):
            res = np.max(np.abs(rebuilt - s * linear), axis=(-2, -1))
            accepted = res <= RESIDUAL_TOL
            if not accepted.any():
                continue
            won = members[accepted]
            sign[won], flag[won] = s, f
            conjugator[won], residual[won] = C[accepted], res[accepted]
            if accepted.all():
                if every:  # no member of todo is left
                    return sign, flag, conjugator, residual
                break
            keep = ~accepted
            members, linear, C, rebuilt = members[keep], linear[keep], C[keep], rebuilt[keep]
        todo = np.flatnonzero(sign == 0)
    return sign, flag, conjugator, residual


def classify_eta_sigma(M: np.ndarray) -> tuple[int, bool, np.ndarray]:
    """Find the branch (eta, sigma_flag) of a Hermitian-space linear map and
    its conjugating unitary.

    The branch search of :func:`decompose_isometry` on M alone: the
    involution A -> -A.T is tried only for n >= 3 (at n = 2 it is itself a
    conjugation).  Returns ``(eta, sigma_flag, U)`` from the first branch
    whose rebuilt map reproduces M within ``RESIDUAL_TOL``; raises
    :class:`InvalidDimension` unless M is one finite real d-square matrix
    (a stack is refused), n read off d = n^2 - 1, and
    :class:`NotInClassifiedForm` when no branch does.
    """
    M = _square_stack(M, _MAP, real=True)
    if M.ndim != 2:
        raise InvalidDimension(f"classify_eta_sigma takes one map, got shape {M.shape}")
    eta, sigma_flag, U, _ = _branch_search(M[None], _map_basis(M, HERMITIAN_TRACELESS))
    if not eta[0]:
        raise NotInClassifiedForm("no branch of the canonical family reproduces the map", members=(0,))
    return int(eta[0]), bool(sigma_flag[0]), U[0]


def _check_isometry(M: np.ndarray, spec: NormSpec, basis: Basis, seed, members=None) -> None:
    """Distance test on random pairs.  An affine map L with linear part M
    has L(A) - L(B) = M(A - B), so the test compares the norms of M(D) and
    D over 50 random differences D per member of M, one map or a (k, d, d)
    stack on ``basis``.  It works in coordinates: the (50 k, d) standard normal
    coordinates of the differences are drawn from ``seed`` (a seed or a
    Generator, drawn from in place) in one call, member after member, the
    draws that ``random_element(spec.space, n, seed, count=50 k)`` makes
    and so the stream k one-member tests draw in turn.  M moves them, and
    one devectorize product (``matspace._combination``) builds the moved
    differences followed by the differences, whose norms come from one
    stacked evaluation (``norms._norm_values``: the matrices are in the
    space by construction, and the caller has checked the spec's
    parameters), in which every member gets the bits it gets alone.

    Raises :class:`NotIsometry` when a relative deviation exceeds
    ``ISOMETRY_TOL``, or when a moved difference is not finite (a map so
    large that it leaves the floating-point range; no overflow warning
    escapes), naming the failing members by their entries in ``members``
    (M's indices in the caller's stack; ``range(k)`` when None)."""
    M = M.reshape(-1, basis.d, basis.d)
    k, d = len(M), basis.d
    x = _rng(seed).standard_normal((50 * k, d))
    with np.errstate(over="ignore", invalid="ignore"):
        moved = (x.reshape(k, 50, d) @ M.swapaxes(-1, -2)).reshape(50 * k, d)
        D = _combination(np.concatenate([moved, x]), basis)
        del x, moved  # the norm evaluation is the peak; only D is needed there
        finite = np.isfinite(D[: 50 * k]).reshape(k, -1).all(axis=1)
        # an overflowed member is evaluated as zero, then failed below
        D[: 50 * k][np.repeat(~finite, 50)] = 0.0
        lhs, rhs = np.split(_norm_values(D, np.abs(D).max(axis=(-2, -1)), spec), 2)
    dev = np.abs(lhs - rhs).reshape(k, 50)
    dev[~finite] = np.inf
    failed = ~(dev <= ISOMETRY_TOL * np.maximum(rhs, 1e-30).reshape(k, 50)).all(axis=1)
    if failed.any():
        members = np.arange(k) if members is None else np.asarray(members)
        raise NotIsometry(
            f"distance deviation {np.max(dev):.3e} on random pair", members=members[failed]
        )


def _checked_input(M, spec: NormSpec, space: str, seed, offset=None):
    """Both decompositions' input checks, in order: a finite real square M
    (one map or a (k, d, d) stack), a ``spec`` on ``space``, M's size d
    equal to ``space_dim(space, n)`` for some n >= 2, a finite ``offset``
    of M's leading shape by d (zero when None; a real numeric array, by
    :func:`_numeric`), a ``seed`` that ``np.random.default_rng`` accepts,
    and spec parameters that fit n.  Returns ``(M, basis, offset, seed)``
    with M the checked map or stack, ``basis`` the space's at that n
    (:func:`_map_basis`), ``offset`` a (k, d) array and ``seed`` checked
    but no generator built from it (:func:`matspace._seed`), so a
    decomposition that the residual certifies builds none.  Every failure
    before the seed raises :class:`InvalidDimension`, a refused seed
    :class:`InvalidSeed`.  The distance test's norm kernel takes the spec's
    parameters as checked here.
    The distance test is not among these checks: it runs after the branch
    search, and only when the residual cannot certify the map (see the
    module docstring)."""
    M = _square_stack(M, _MAP, real=True)
    if spec.space != space:
        raise InvalidDimension(f"the norm acts on {spec.space}, the map on {space}")
    basis = _map_basis(M, space)
    if offset is None:
        offset = np.zeros(M.shape[:-1])
    else:
        offset = _numeric(offset, "offset is a real numeric array", real=True)
        if offset.shape != M.shape[:-1] or not np.isfinite(offset).all():
            raise InvalidDimension(f"offset must be a finite array of shape {M.shape[:-1]}, got {offset.shape}")
    seed = _seed(seed)
    _check_parameters(spec, basis.n)
    return M, basis, offset.reshape(-1, basis.d), seed


def _certified_branches(M, spec: NormSpec, seed, basis: Basis):
    """:func:`_branch_search`'s winners ``(sign, flag, conjugator,
    residual)``, after one distance test over the members whose ``n d
    residual`` exceeds ``ISOMETRY_TOL``, those that no branch reproduces
    (infinite residual) among them.  Then :class:`NotInClassifiedForm`
    names the latter in ``members``.  M is one checked map or a stack."""
    M = M.reshape(-1, basis.d, basis.d)
    sign, flag, conjugator, residual = _branch_search(M, basis)
    uncertified = basis.n * basis.d * residual > ISOMETRY_TOL
    if uncertified.any():
        _check_isometry(M[uncertified], spec, basis, seed, np.flatnonzero(uncertified))
        missing = np.flatnonzero(sign == 0)
        if missing.size:
            raise NotInClassifiedForm(
                "no branch of the canonical family reproduces the map", members=missing
            )
    return sign, flag, conjugator, residual


def decompose_isometry(M: np.ndarray, spec: NormSpec, offset: np.ndarray | None = None, seed=0):
    """Decompose an affine isometry of a Hermitian-space norm.

    ``M`` is the linear part in coordinates, ``offset`` the coordinate
    vector of the translation (defaults to zero; anything but a finite
    vector of shape (d,) raises :class:`InvalidDimension`).  The branch
    search (:func:`_branch_search`, the module docstring's order) finds the
    branch, the conjugating unitary and the residual.  A residual with ``n
    d residual`` within ``ISOMETRY_TOL`` certifies that M is an isometry of
    ``spec``; otherwise M is checked to be one on random pairs drawn from
    ``seed`` (the only random numbers a decomposition uses: ``seed`` is
    checked first, but a generator is built from it, or a Generator passed
    as ``seed`` drawn from, only then).  At n = 2 the involution
    branch coincides with a conjugation, so ``sigma_flag`` is always False
    there.

    ``M`` may also be a (k, d, d) stack of maps, with ``offset`` then of
    shape (k, d); the result is a tuple of k decompositions, each what its
    member gets alone, from one branch search and at most one distance test
    over the stack, whose draws are those of k single calls in turn.

    Raises :class:`NotIsometry` (for a stack, when any member is not an
    isometry, with ``exc.members`` naming those members), or
    :class:`NotInClassifiedForm` for isometries outside the
    canonical family (the Euclidean / inner-product case admits a full
    orthogonal group of them), with ``exc.members`` naming the members no
    branch reproduces; the distance test runs before the latter is raised,
    so a non-isometry is always :class:`NotIsometry`.
    """
    M, basis, offset, seed = _checked_input(M, spec, HERMITIAN_TRACELESS, seed, offset)
    eta, sigma_flag, U, residual = _certified_branches(M, spec, seed, basis)
    translation = _combination(offset, basis)
    # copies, so that a decomposition kept alone keeps no stack alive
    decompositions = tuple(
        IsometryDecomposition(e, f, u.copy(), b.copy(), r)
        for e, f, u, b, r in zip(eta.tolist(), sigma_flag.tolist(), U, translation, residual.tolist())
    )
    return decompositions[0] if M.ndim == 2 else decompositions


def decompose_skew_isometry(M: np.ndarray, spec: NormSpec, seed=0):
    """Decompose a linear isometry of a skew-space norm into its canonical
    form ``A -> sign * Q psi^f(A) Q.T``, Q in O(n): at even n the congruence
    by a reflection gives a Q of determinant -1 (where
    :func:`recover_orthogonal_from_adso` refuses it).

    Branches are tried in the fixed order (M, -M, M psi, -M psi), the psi
    branches only at n = 4, and the first branch whose congruence recovery
    succeeds wins and gives ``residual``.  As in :func:`decompose_isometry`,
    the distance test on random pairs drawn from ``seed`` runs only when
    ``n d residual`` exceeds ``ISOMETRY_TOL`` or every branch fails, and a
    (k, d, d) stack of maps gives a tuple of k decompositions.  Raises
    :class:`NotIsometry`, naming the non-isometries in ``exc.members``, or,
    when every branch fails for some member (as
    for multiples of the Euclidean norm), :class:`NotInClassifiedForm` with
    those members in ``exc.members``; at n = 2 an isometry raises
    :class:`InvalidDimension`, since congruence recovery needs n >= 3.
    """
    M, basis, _, seed = _checked_input(M, spec, SKEW_REAL, seed)
    if basis.n < 3:
        _check_isometry(M, spec, basis, seed)
        raise InvalidDimension("orthogonal recovery needs n >= 3")
    sign, flag, Q, residual = _certified_branches(M, spec, seed, basis)
    decompositions = tuple(
        SkewIsometryDecomposition(sign=s, psi_flag=f, orthogonal=q.copy(), residual=r)
        for s, f, q, r in zip(sign.tolist(), flag.tolist(), Q, residual.tolist())
    )
    return decompositions[0] if M.ndim == 2 else decompositions
