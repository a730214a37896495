"""Numerical estimation of isometry-group Lie-algebra dimensions and
C-numerical quantities.

The dimension estimator turns the first-order isometry condition along
``t -> exp(tT)`` into one linear constraint per random sample: if g_X is the
norm gradient at X, a generator T of a one-parameter isometry group must
satisfy ``<g_X, T X> = 0``.  Stacking many samples gives a constraint matrix
on the d*d unknowns of T whose numerical null space is the Lie algebra of
the (linear) isometry group; its dimension is read off a singular-value gap.
For the classified norms the answer is dichotomous: the adjoint-group
dimension for genuinely invariant norms, the full rotation-group dimension
d(d-1)/2 for the Euclidean one, never anything in between.

The C-numerical range ``W_C(A) = {tr(A U C U*) : U unitary}`` of Hermitian
A and C is computed in closed form: tr(A U C U*) = sum_ij a_i c_j |u_ij|^2 is
linear in a doubly stochastic matrix, so by Birkhoff-von Neumann and the
rearrangement inequality W_C(A) is exactly the interval
``[a_desc . c_asc, a_desc . c_desc]`` over the sorted eigenvalues, and the
C-numerical radius is the larger modulus of its two endpoints (C.-K. Li,
"C-numerical ranges and C-numerical radii", Linear Multilinear Algebra 37
(1994); M. Goldberg and E. G. Straus, "Elementary inclusion relations for
generalized numerical ranges", Linear Algebra Appl. 18 (1977)).  A Haar
sample of the orbit stays available as an independent containment check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePoint, InconclusiveDimension, InvalidDimension, NotHermitian
from .matspace import (
    HERMITIAN_TRACELESS,
    SKEW_REAL,
    STRUCT_TOL,
    basis_for,
    hermiticity_defect,
    random_element,
    vectorize,
)
from .norms import NormSpec, norm_gradient
from .groups import haar_unitary

#: smallest acceptable ratio across the singular-value gap
GAP_RATIO_MIN = 1e3

#: resampling budget per constraint row before giving up
MAX_RESAMPLE = 20


@dataclass(frozen=True, eq=False)
class DimensionReport:
    """Outcome of one Lie-algebra dimension estimation run."""

    space: str
    n: int
    spec: NormSpec
    estimated_dim: int
    singular_values: np.ndarray
    gap_ratio: float
    samples_used: int
    matched_case: str


@dataclass(frozen=True, eq=False)
class RangeSample:
    """Exact endpoints and radius of a C-numerical range, with Haar-sampled
    orbit values."""

    values: np.ndarray
    lo: float
    hi: float
    radius: float


def _constraint_rows(spec: NormSpec, n: int, basis, indices, seed):
    rows = np.empty((len(indices), basis.d * basis.d))
    for out, i in enumerate(indices):
        for attempt in range(MAX_RESAMPLE):
            X = random_element(spec.space, n, [seed, int(i), attempt])
            try:
                g = norm_gradient(X, spec)
            except DegeneratePoint:
                continue
            rows[out] = np.outer(vectorize(g, basis), vectorize(X, basis)).ravel()
            break
        else:
            raise DegeneratePoint(
                f"no generic sample found for row {i} after {MAX_RESAMPLE} tries"
            )
    return rows


def _null_space_dimension(svals: np.ndarray):
    """Largest-gap cut through a descending singular-value sequence.

    Returns (null_dim, gap_ratio); the ratio must clear GAP_RATIO_MIN.
    """
    best_k, best_ratio = None, 0.0
    for k in range(1, len(svals)):
        hi, lo = svals[k - 1], svals[k]
        ratio = math.inf if lo == 0.0 else hi / lo
        if ratio > best_ratio:
            best_ratio, best_k = ratio, k
    if best_k is None or best_ratio < GAP_RATIO_MIN:
        raise InconclusiveDimension(
            f"no singular-value gap of ratio >= {GAP_RATIO_MIN:.0e} "
            f"(best {best_ratio:.2e})"
        )
    return len(svals) - best_k, float(best_ratio)


def _algebra_dimension(
    spec: NormSpec,
    n: int,
    num_samples: int | None,
    seed,
    adjoint_dim: int,
) -> DimensionReport:
    basis = basis_for(spec.space, n)
    d = basis.d
    if num_samples is None:
        num_samples = 3 * d * d
    if num_samples < d * d:
        raise InvalidDimension(
            f"need at least d^2 = {d * d} samples to resolve the spectrum"
        )
    rows = _constraint_rows(spec, n, basis, np.arange(num_samples), seed)
    svals = np.linalg.svd(rows, compute_uv=False)
    null_dim, gap_ratio = _null_space_dimension(svals)
    full_dim = d * (d - 1) // 2
    if null_dim == adjoint_dim:
        matched = "adjoint_group"
    elif null_dim == full_dim:
        matched = "full_orthogonal"
    else:
        matched = "inconclusive"
    return DimensionReport(
        space=spec.space,
        n=n,
        spec=spec,
        estimated_dim=null_dim,
        singular_values=svals,
        gap_ratio=gap_ratio,
        samples_used=int(num_samples),
        matched_case=matched,
    )


def isometry_algebra_dimension(
    spec: NormSpec, n: int, num_samples: int | None = None, seed=0
) -> DimensionReport:
    """Estimate the Lie-algebra dimension of the isometry group of a
    Hermitian-space norm; the adjoint-group target is n**2 - 1."""
    if spec.space != HERMITIAN_TRACELESS:
        raise InvalidDimension("spec lives on the skew space; use the skew estimator")
    return _algebra_dimension(spec, n, num_samples, seed, n * n - 1)


def skew_isometry_algebra_dimension(
    spec: NormSpec, n: int, num_samples: int | None = None, seed=0
) -> DimensionReport:
    """Skew-space analogue; the adjoint-group target is n(n-1)/2."""
    if spec.space != SKEW_REAL:
        raise InvalidDimension("spec lives on the Hermitian space; use the Hermitian estimator")
    return _algebra_dimension(spec, n, num_samples, seed, n * (n - 1) // 2)


def _range_endpoints(A: np.ndarray, C: np.ndarray) -> tuple[float, float]:
    """Exact endpoints (lo, hi) of W_C(A) for Hermitian A and C.

    With eigenvalues sorted ascending, hi pairs them in the same order and
    lo in opposite orders (rearrangement inequality over the doubly
    stochastic matrix |u_ij|^2).  Fails closed on non-square, mismatched or
    non-Hermitian inputs, where the formula does not hold.
    """
    A = np.asarray(A)
    C = np.asarray(C)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != C.shape:
        raise InvalidDimension(
            f"need two square matrices of one shape, got {A.shape} and {C.shape}"
        )
    for name, M in (("A", A), ("C", C)):
        tol = STRUCT_TOL * (1.0 + float(np.max(np.abs(M), initial=0.0)))
        defect = hermiticity_defect(M)
        if defect > tol:
            raise NotHermitian(f"{name}: hermiticity defect {defect:.3e} exceeds {tol:.3e}")
    lam_a = np.linalg.eigvalsh(A)
    lam_c = np.linalg.eigvalsh(C)
    return float(lam_a @ lam_c[::-1]), float(lam_a @ lam_c)


def c_numerical_range_sample(
    A: np.ndarray, C: np.ndarray, trials: int, seed=0
) -> RangeSample:
    """Exact endpoints of the C-numerical range of Hermitian A and C, plus
    ``trials`` values tr(A U C U*) at Haar unitaries U.

    ``lo`` and ``hi`` are the closed-form endpoints (see the module
    docstring); ``values`` holds only the Monte Carlo orbit values, an
    independent sample that must lie in ``[lo, hi]``.
    """
    A = np.asarray(A)
    C = np.asarray(C)
    lo, hi = _range_endpoints(A, C)
    values = np.empty(0)
    if trials > 0:
        U = haar_unitary(A.shape[0], seed, count=trials)
        orbit = U @ C @ np.conj(np.transpose(U, (0, 2, 1)))
        values = np.einsum("ij,kji->k", A, orbit).real
    return RangeSample(values=values, lo=lo, hi=hi, radius=max(abs(lo), abs(hi)))


def c_numerical_radius(A: np.ndarray, C: np.ndarray) -> float:
    """Maximum modulus over the C-numerical range of Hermitian A and C.

    W_C(A) is the interval ``[lo, hi]`` of :func:`_range_endpoints`, so the
    radius is ``max(|lo|, |hi|)`` (C.-K. Li 1994; Goldberg-Straus 1977).
    """
    lo, hi = _range_endpoints(A, C)
    return max(abs(lo), abs(hi))


@dataclass(frozen=True, eq=False)
class PreserverReport:
    """Max deviations of the C-numerical quantities under the canonical
    preserver forms (conjugation / involution branches, both signs)."""

    radius_dev: dict = field(default_factory=dict)
    wc_interval_dev: float = 0.0
    wc_pointwise_dev: float = 0.0
    trials: int = 0


def verify_preserver_forms(C: np.ndarray, n: int, trials: int, seed=0) -> PreserverReport:
    """Check that both canonical forms preserve the C-numerical radius, and
    that conjugation preserves the C-numerical range as an interval.

    For each trial a random element A and Haar unitary U are drawn; the
    radius is compared across ``A -> eta U A U*`` and
    ``A -> eta U (-A.T) U*`` for both signs, and for the plain conjugation
    the range endpoints and the conjugation-invariance of individual orbit
    values are checked.
    """
    radius_dev = {"conj_plus": 0.0, "conj_minus": 0.0, "cartan_plus": 0.0, "cartan_minus": 0.0}
    wc_interval = 0.0
    wc_pointwise = 0.0
    for t in range(trials):
        A = random_element(HERMITIAN_TRACELESS, n, [seed, t, 0])
        U = haar_unitary(n, [seed, t, 1])
        r0 = c_numerical_radius(A, C)
        images = {
            "conj_plus": U @ A @ U.conj().T,
            "conj_minus": -(U @ A @ U.conj().T),
            "cartan_plus": U @ (-A.T) @ U.conj().T,
            "cartan_minus": -(U @ (-A.T) @ U.conj().T),
        }
        for key, LA in images.items():
            r1 = c_numerical_radius(LA, C)
            radius_dev[key] = max(radius_dev[key], abs(r1 - r0))
        scale = float(np.linalg.norm(A)) * float(np.linalg.norm(C))
        lo0, hi0 = _range_endpoints(A, C)
        lo1, hi1 = _range_endpoints(images["conj_plus"], C)
        wc_interval = max(
            wc_interval, max(abs(lo0 - lo1), abs(hi0 - hi1)) / max(scale, 1e-30)
        )
        # conjugation moves each orbit point to another: values match exactly
        V = haar_unitary(n, [seed, t, 6])
        X = V @ C @ V.conj().T
        val_moved = float(np.trace(images["conj_plus"] @ (U @ X @ U.conj().T)).real)
        val_base = float(np.trace(A @ X).real)
        wc_pointwise = max(wc_pointwise, abs(val_moved - val_base))
    return PreserverReport(
        radius_dev=radius_dev,
        wc_interval_dev=wc_interval,
        wc_pointwise_dev=wc_pointwise,
        trials=trials,
    )
