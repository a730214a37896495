"""Canonical forms and invariants of real skew-symmetric matrices.

The central object is the orthogonal block decomposition A = Q S Q.T where
S is a zero block of size n - 2r followed by r blocks [[0, a_i], [-a_i, 0]]
with a_1 >= ... >= a_r > 0.  The block parameters a_i double as singular
values (each appears twice in the SVD of A) and are a complete invariant of
the orthogonal congruence orbit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension
from .matspace import SKEW_REAL, _numeric, is_element

#: relative eigenvalue threshold separating zero modes from blocks
ZERO_MODE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class YoulaForm:
    """Orthogonal canonical decomposition A = Q S Q.T of a skew-symmetric
    matrix, S as in the module docstring (``n`` and ``a`` determine it).

    Attributes
    ----------
    n : ambient dimension
    orthogonal : (n, n) orthogonal matrix Q (det may be -1 for full-rank
        even-n inputs; see :func:`youla_decompose`)
    a : descending positive block parameters, length r
    r : number of 2 x 2 blocks (2r <= n)
    residual : max-entry error of Q S Q.T against the input
    """

    n: int
    orthogonal: np.ndarray
    a: np.ndarray
    r: int
    residual: float

    @property
    def singular_values(self) -> np.ndarray:
        """All n singular values, descending: each block parameter twice,
        padded with zeros.  Agrees with the general SVD."""
        return np.concatenate([np.repeat(self.a, 2), np.zeros(self.n - 2 * self.r)])


def _skew_stack(A) -> np.ndarray:
    """A as float (:func:`_numeric`) if it is one real skew-symmetric (n, n)
    matrix or a (k, n, n) stack of them, else :class:`InvalidDimension`."""
    refusal = "input is not a real skew-symmetric matrix or a stack of them"
    A = _numeric(A, refusal, real=True)
    if A.ndim not in (2, 3) or not np.all(is_element(A, SKEW_REAL)):
        raise InvalidDimension(refusal)
    return A


def youla_decompose(A: np.ndarray):
    """Compute the orthogonal block canonical form of a skew matrix.

    Works through the Hermitian eigendecomposition of iA, whose eigenvalues
    come in pairs +-a_i plus zeros.  For each positive eigenvalue a with
    unit eigenvector v = x + i y, ``iA v = a v`` reads ``A x = a y`` and
    ``A y = -a x``, so the real pair (sqrt(2) y, sqrt(2) x) spans an
    invariant plane carrying the block [[0, a], [-a, 0]].  These pairs are
    orthonormal as they come, tied a_i included: since A is real, conj(v)
    is an eigenvector for -a, so for unit eigenvectors v, w of positive
    eigenvalues (the same one or not) ``v.T w = conj(v)* w = 0``, and with
    ``v* w = delta`` the real and imaginary parts of these two identities
    give ``x.x' = y.y' = delta / 2`` and ``x.y' = y.x' = 0``.  The in-plane
    rotation freedom is fixed by rotating both columns of each pair by one
    angle, which keeps its block, so that the pair's dominant row loads
    positively on the first column and not at all on the second.
    The kernel block is an orthonormal basis of the complement: the right
    singular vectors of the 2r block columns past the first 2r.  When det
    Q = -1 a kernel column is flipped; for full-rank even-n inputs no
    sign-preserving correction exists (the stabilizer of S is a product of
    plane rotations) and Q is returned with det -1.

    Tied a_i are not reordered: within a tied group, Q is whichever valid
    choice the eigendecomposition gives.  ``A`` may also be a (k, n, n)
    stack, giving a tuple of k forms from one stacked ``eigh``, each what
    its member gets alone.
    """
    A = _skew_stack(A)
    n = A.shape[-1]
    stack = A.reshape(-1, n, n)
    w, V = np.linalg.eigh(1j * stack)
    tol = ZERO_MODE_TOL * np.max(np.abs(w), axis=-1)
    order = np.argsort(-w, axis=-1)
    w = np.take_along_axis(w, order, axis=-1)
    V = np.take_along_axis(V, order[:, None, :], axis=-1)
    ranks = np.count_nonzero(w > tol[:, None], axis=-1)
    Q = np.broadcast_to(np.eye(n), stack.shape).copy()
    S = np.zeros_like(stack)
    for r in np.unique(ranks[ranks > 0]):
        # the members with r blocks share every array shape below
        members = np.flatnonzero(ranks == r)
        a = w[members, :r]
        q1 = np.sqrt(2.0) * V[members, :, :r].imag
        q2 = np.sqrt(2.0) * V[members, :, :r].real
        # the in-plane rotation of each pair (Q = I on canonical input)
        j0 = np.argmax(q1**2 + q2**2, axis=1)[:, None, :]
        theta = np.arctan2(np.take_along_axis(q2, j0, 1), np.take_along_axis(q1, j0, 1))
        q1, q2 = np.cos(theta) * q1 + np.sin(theta) * q2, np.cos(theta) * q2 - np.sin(theta) * q1
        block = np.stack([q1, q2], axis=-1).reshape(len(members), n, 2 * r)
        kernel = np.linalg.svd(block.swapaxes(-1, -2))[2][:, 2 * r :].swapaxes(-1, -2)
        Q[members] = np.concatenate([kernel, block], axis=-1)
        rows = n - 2 * r + 2 * np.arange(r)
        S[members[:, None], rows, rows + 1] = a
        S[members[:, None], rows + 1, rows] = -a
    flip = (np.linalg.det(Q) < 0) & (2 * ranks < n)
    Q[flip, :, 0] *= -1.0
    residual = np.max(np.abs(Q @ S @ Q.swapaxes(-1, -2) - stack), axis=(-2, -1))
    forms = tuple(
        YoulaForm(n=n, orthogonal=q.copy(), a=row[:r].copy(), r=int(r), residual=float(res))
        for q, row, r, res in zip(Q, w, ranks, residual)
    )
    return forms[0] if A.ndim == 2 else forms


def psi_apply(A: np.ndarray) -> np.ndarray:
    """The n = 4 entry swap a_14 <-> a_23 (skew-symmetry restored), on one
    4 x 4 matrix or on each member of a (k, 4, 4) stack; raises
    :class:`InvalidDimension` unless every member is real skew-symmetric."""
    A = _skew_stack(A)
    if A.shape[-2:] != (4, 4):
        raise InvalidDimension(f"entry swap is defined on 4 x 4 only, got {A.shape[-2:]}")
    B = A.copy()
    B[..., 0, 3], B[..., 1, 2] = A[..., 1, 2], A[..., 0, 3]
    B[..., 3, 0], B[..., 2, 1] = -A[..., 1, 2], -A[..., 0, 3]
    return B


def char_poly_skew(A: np.ndarray) -> np.ndarray:
    """Coefficients of det(x I - A), descending powers, leading 1.

    Uses the Faddeev-LeVerrier recursion (exact in exact arithmetic, stable
    for the n <= 8 sizes supported here).  ``A`` is one matrix, giving an
    (n + 1,) array, or a (k, n, n) stack, giving (k, n + 1), each row what
    its member gets alone.
    """
    A = _skew_stack(A)
    n = A.shape[-1]
    if n > 8:
        raise InvalidDimension(f"characteristic polynomial supported for n <= 8, got {n}")
    stack = A.reshape(-1, n, n)
    coeffs = np.zeros((len(stack), n + 1))
    coeffs[:, 0] = 1.0
    M = np.zeros_like(stack)
    for k in range(1, n + 1):
        M = stack @ M + coeffs[:, k - 1, None, None] * np.eye(n)
        coeffs[:, k] = -np.trace(stack @ M, axis1=-2, axis2=-1) / k
    return coeffs[0] if A.ndim == 2 else coeffs


def pfaffian4(A: np.ndarray) -> float | np.ndarray:
    """Pfaffian of a 4 x 4 skew matrix: a12 a34 - a13 a24 + a14 a23; per
    member (a (k,) array) for a (k, 4, 4) stack.

    Its square is the constant coefficient of the characteristic polynomial,
    which for n = 4 reads x**4 + p x**2 + pf**2 with p the sum of squared
    independent entries.  Raises :class:`InvalidDimension` unless every
    member is real skew-symmetric.
    """
    A = _skew_stack(A)
    if A.shape[-2:] != (4, 4):
        raise InvalidDimension(f"Pfaffian implemented for 4 x 4 only, got {A.shape[-2:]}")
    pf = A[..., 0, 1] * A[..., 2, 3] - A[..., 0, 2] * A[..., 1, 3] + A[..., 0, 3] * A[..., 1, 2]
    return float(pf) if A.ndim == 2 else pf
