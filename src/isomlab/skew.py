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
from .matspace import SKEW_REAL, is_element

#: relative eigenvalue threshold separating zero modes from blocks
ZERO_MODE_TOL = 1e-10


def _null_space(B: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of B, as columns: the right
    singular vectors past the numerical rank, with singular values above
    max(s) * max(B.shape) * eps counted in the rank."""
    _, s, vh = np.linalg.svd(B, full_matrices=True)
    rank = int(np.sum(s > np.max(s, initial=0.0) * max(B.shape) * np.finfo(float).eps))
    return vh[rank:].T.conj()


@dataclass(frozen=True, eq=False)
class YoulaForm:
    """Orthogonal canonical decomposition of a skew-symmetric matrix.

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

    def sigma(self) -> np.ndarray:
        """The canonical middle factor S: zero block, then the 2 x 2 blocks."""
        S = np.zeros((self.n, self.n))
        off = self.n - 2 * self.r
        for i, ai in enumerate(self.a):
            j = off + 2 * i
            S[j, j + 1] = ai
            S[j + 1, j] = -ai
        return S

    def reconstruct(self) -> np.ndarray:
        return self.orthogonal @ self.sigma() @ self.orthogonal.T

    @property
    def singular_values(self) -> np.ndarray:
        """All n singular values, descending: each block parameter twice,
        padded with zeros.  Agrees with the general SVD."""
        return np.concatenate([np.repeat(self.a, 2), np.zeros(self.n - 2 * self.r)])


def _tie_groups(values: np.ndarray, tol: float):
    """Split a descending sequence into runs of values equal within tol."""
    groups, start = [], 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[start] - values[i] > tol:
            groups.append(range(start, i))
            start = i
    return groups


def youla_decompose(A: np.ndarray) -> YoulaForm:
    """Compute the orthogonal block canonical form of a skew matrix.

    Works through the Hermitian eigendecomposition of iA, whose eigenvalues
    come in pairs +-a_i plus zeros.  For each positive eigenvalue a with
    unit eigenvector v, the real pair (sqrt(2) Im v, sqrt(2) Re v) spans an
    invariant plane carrying the block [[0, a], [-a, 0]]; block columns are
    re-orthonormalized within tied groups, the in-plane rotation freedom is
    fixed by aligning each pair with its dominant row, and the second column
    is regenerated as -A q / a so the (1, 2) entry of every block is exactly
    +a.  The kernel block is an orthonormal basis of the complement.  When
    det Q = -1 a kernel column is flipped; for full-rank even-n inputs no
    sign-preserving correction exists (the stabilizer of S is a product of
    plane rotations) and Q is returned with det -1.

    Ties among the a_i are ordered deterministically by comparing rounded
    leading entries of the candidate plane vectors.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or not is_element(A, SKEW_REAL):
        raise InvalidDimension("input is not a real skew-symmetric matrix")
    n = A.shape[0]
    w, V = np.linalg.eigh(1j * A)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    tol = ZERO_MODE_TOL * scale

    order = np.argsort(-w)
    pos = [i for i in order if w[i] > tol]
    a = np.array([w[i] for i in pos])
    r = len(a)

    # deterministic order within tied block parameters
    for group in _tie_groups(a, tol if tol > 0 else ZERO_MODE_TOL):
        if len(group) > 1:
            idx = list(group)
            keys = [tuple(np.round(np.abs(V[:, pos[i]]), 8)) for i in idx]
            ranked = sorted(range(len(idx)), key=lambda j: keys[j], reverse=True)
            reordered = [pos[idx[j]] for j in ranked]
            for slot, src in zip(idx, reordered):
                pos[slot] = src

    cols = []
    for i in pos:
        ai = w[i]
        q1 = np.sqrt(2.0) * V[:, i].imag
        # a unit vector, since v is orthogonal to conj(v) (the eigenvector of
        # -ai); re-orthonormalize against previously selected columns (exact
        # for simple eigenvalues, needed within tied groups)
        for c in cols:
            q1 = q1 - (c @ q1) * c
        q1 = q1 / np.linalg.norm(q1)
        q2 = -A @ q1 / ai
        # fix the in-plane rotation freedom: align the pair so its dominant
        # row loads positively on the first column (Q = I on canonical input)
        j0 = int(np.argmax(q1**2 + q2**2))
        theta = np.arctan2(q2[j0], q1[j0])
        q1 = np.cos(theta) * q1 + np.sin(theta) * q2
        q2 = -A @ q1 / ai
        for c in cols:
            q2 = q2 - (c @ q2) * c
        q2 = q2 / np.linalg.norm(q2)
        cols.extend([q1, q2])

    if r:
        block = np.column_stack(cols)
        kernel = _null_space(block.T)
    else:
        block = np.zeros((n, 0))
        kernel = np.eye(n)
    Q = np.hstack([kernel, block]) if kernel.size else block
    if np.linalg.det(Q) < 0 and kernel.shape[1] > 0:
        Q = Q.copy()
        Q[:, 0] = -Q[:, 0]

    form = YoulaForm(n=n, orthogonal=Q, a=a, r=r, residual=0.0)
    residual = float(np.max(np.abs(form.reconstruct() - A))) if n else 0.0
    return YoulaForm(n=n, orthogonal=Q, a=a, r=r, residual=residual)


def psi_apply(A: np.ndarray) -> np.ndarray:
    """The n = 4 entry swap a_14 <-> a_23 (skew-symmetry restored)."""
    A = np.asarray(A, dtype=float)
    if A.shape != (4, 4):
        raise InvalidDimension(f"entry swap is defined on 4 x 4 only, got {A.shape}")
    B = A.copy()
    B[0, 3], B[1, 2] = A[1, 2], A[0, 3]
    B[3, 0], B[2, 1] = -A[1, 2], -A[0, 3]
    return B


def char_poly_skew(A: np.ndarray) -> np.ndarray:
    """Coefficients of det(x I - A), descending powers, leading 1.

    Uses the Faddeev-LeVerrier recursion (exact in exact arithmetic, stable
    for the n <= 8 sizes supported here).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or not is_element(A, SKEW_REAL):
        raise InvalidDimension("input is not a real skew-symmetric matrix")
    n = A.shape[0]
    if n > 8:
        raise InvalidDimension(f"characteristic polynomial supported for n <= 8, got {n}")
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    M = np.zeros_like(A)
    for k in range(1, n + 1):
        M = A @ M + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(A @ M) / k
    return coeffs


def pfaffian4(A: np.ndarray) -> float:
    """Pfaffian of a 4 x 4 skew matrix: a12 a34 - a13 a24 + a14 a23.

    Its square is the constant coefficient of the characteristic polynomial,
    which for n = 4 reads x**4 + p x**2 + pf**2 with p the sum of squared
    independent entries.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (4, 4):
        raise InvalidDimension(f"Pfaffian implemented for 4 x 4 only, got {A.shape}")
    return float(A[0, 1] * A[2, 3] - A[0, 2] * A[1, 3] + A[0, 3] * A[1, 2])
