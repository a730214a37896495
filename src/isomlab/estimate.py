"""Numerical estimation of isometry-group Lie-algebra dimensions and
C-numerical quantities.

The dimension estimator turns the first-order isometry condition along
``t -> exp(tT)`` into one linear constraint per random sample: if g_X is the
norm gradient at X, a generator T of a one-parameter isometry group must
satisfy ``<g_X, T X> = 0``.  Why T is sought in so(d) only, and what the
dimension check then shows:

1. The linear isometry group G of a norm on R^d is compact, so it preserves
   the unit ball's John ellipsoid, which is unique (F. John 1948;
   A. C. Thompson, *Minkowski Geometry*, 1996).
2. The adjoint group (Ad SU(n) on the traceless Hermitians, O(n)
   congruence on so(n)) lies in G and acts irreducibly; at n = 4 on the
   skew space, reflections swap the two 3-dim summands.  So the ellipsoid
   is a Frobenius ball, G lies in O(d) and Lie(G) in so(d).  Both bases are
   trace-orthonormal, so in coordinates so(d) is the skew d x d matrices.
3. Each sample X, with coordinates x and gradient coordinates g, gives one
   row over the d(d-1)/2 upper entries t_ab of a skew T: ``<g, T x> =
   sum_{a<b} t_ab (g_a x_b - g_b x_a)``.  The null space of the stacked rows
   is Lie(G).  Its dimension is read off the largest gap in the singular
   values, preceded by a row scale: the Euclidean norm's rows vanish
   identically, so its whole so(d) is null and the gap sits before the
   first singular value.  For the classified norms the answer is
   dichotomous: the adjoint-group dimension d for genuinely invariant
   norms, d(d-1)/2 for the Euclidean one, never anything in between.
4. Sign blocks: the adjoint group contains X -> D X D for every
   D = diag(+-1) of determinant 1 (D lies in SO(n), inside SU(n)), and in
   both bases that map flips coordinate signs: D B D = chi_B(D) B, with
   chi_B(D) = s_j s_k for an off-diagonal pair {j, k} and 1 on the
   diagonal ladder.  Its coordinate map S is then a diagonal +-1 matrix,
   and t_ab moves by chi_a chi_b under T -> S T S; on determinant-1 D a
   mask and its complement give one sign, so the characters are the masks
   {j, k} xor {j', k'} taken up to complement.  The gradient is equivariant
   (grad N(S x) = S grad N(x)), so Lie(G) is invariant under T -> S T S and
   is the direct sum of its parts in the character blocks; each part is the
   null space of the rows restricted to that block's columns.  One sample
   gives one row to every block, so the estimator draws the largest
   block's size plus d samples (84 at Hermitian n = 7, where so(d) has 1128
   unknowns), takes the singular values of each block in one stacked SVD
   per block size, and reads the gap off all of them merged and sorted.
5. Containment: the adjoint algebra's generators T_j, X -> i[B_j, X] on
   the Hermitian space and X -> [B_j, X] on the skew space, must lie in
   that null space; the report carries their residual over the full rows.
   Row i paired with T_j needs no coordinate matrix of T_j: by the trace
   form's invariance, ``g_i . T_j x_i = <G_i, i[B_j, X_i]> = <B_j,
   i[X_i, G_i]>`` (``<B_j, [X_i, G_i]>`` on the skew space), so all
   pairings are the coordinates of one stack of commutators, one per
   sample.  T_j's size comes from the Killing form, 2n tr(XY) on su(n)
   and (n - 2) tr(XY) on so(n): T_j is skew, so for a trace-orthonormal
   B_j, |T_j|_F^2 = -tr(T_j^2) is 2n, resp. n - 2, and the upper entries
   of every T_j have norm sqrt(n), resp. sqrt((n - 2)/2).  A matching
   dimension plus containment gives Lie(G) = ad(g), so G normalizes the
   adjoint group.
6. By Schur's lemma G then lies in +-Aut(su(n)), which is +-Ad(U) and
   +-Ad(U) sigma (on the skew side +-Q psi^f(.) Q^T, psi only at n = 4).
   Those are exactly the branches the decompose suite tries, so the
   dimension, containment and invariance records together check the whole
   classification, not only its identity component.

The rows' samples are one stack from one generator, and every function
here that draws takes ``seed`` as an int, a list of ints or a numpy
Generator, which it draws from in place.

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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePoint, InconclusiveDimension, InvalidDimension
from .matspace import (
    HERMITIAN_TRACELESS,
    SKEW_REAL,
    _coordinates,
    _numeric,
    _require_hermitian,
    _rng,
    _trial_count,
    basis_for,
    random_element,
    vectorize,
)
from .norms import NormSpec, frobenius, norm_gradient, norm_value
from .groups import _kron, haar_unitary

#: smallest acceptable ratio across the singular-value gap
GAP_RATIO_MIN = 1e3

#: resampling budget per constraint row before giving up
MAX_RESAMPLE = 20


@dataclass(frozen=True, eq=False)
class DimensionReport:
    """Outcome of one Lie-algebra dimension estimation run.

    ``samples_used`` is the number of constraint rows built: the largest
    sign block's size plus d.  ``singular_values`` holds every sign
    block's singular values merged in descending order, d(d-1)/2 of them,
    one per so(d) unknown.  ``containment_residual`` is the largest pairing
    ``<g, T x>`` of a known generator T of the adjoint algebra with a
    constraint row, relative to that row's ``|g| |x|`` and to T's size;
    about 1e-16 when the null space contains the adjoint algebra.  It is
    read off the commutators ``i[X, G]`` (``[X, G]`` on the skew space) of
    the samples and their gradients, over T's Killing-form size sqrt(n)
    (sqrt((n - 2)/2)); see the module docstring, step 5."""

    space: str
    n: int
    spec: NormSpec
    estimated_dim: int
    singular_values: np.ndarray
    gap_ratio: float
    samples_used: int
    containment_residual: float


@dataclass(frozen=True, eq=False)
class RangeSample:
    """Exact endpoints of a C-numerical range, with Haar-sampled orbit
    values; the radius is :func:`c_numerical_radius`."""

    values: np.ndarray
    lo: float
    hi: float


@functools.lru_cache(maxsize=None)
def _sign_blocks(basis) -> tuple[np.ndarray, ...]:
    """The so(d) unknowns t_ab grouped by sign character (module docstring,
    step 4), as read-only index arrays into the ``np.triu_indices(d, 1)``
    order: one (k, s) array per distinct block size s, largest first, each
    row one block.

    D B D = s_r s_c B for any nonzero entry (r, c) of a basis element B, so
    B's mask is {r} xor {c}; t_ab's is m_a xor m_b, up to complement (each
    mask is complemented so that it leaves out coordinate 0).  Cached per
    basis, which is cached per (space, n)."""
    n, d = basis.n, basis.d
    r, c = np.divmod(np.abs(basis.mats).reshape(d, n * n).argmax(axis=1), n)
    masks = np.zeros((d, n), dtype=bool)
    masks[np.arange(d), r] = True
    masks[np.arange(d), c] ^= True
    upper_a, upper_b = np.triu_indices(d, 1)
    chars = masks[upper_a] ^ masks[upper_b]
    chars ^= chars[:, :1]
    _, block_of, sizes = np.unique(chars, axis=0, return_inverse=True, return_counts=True)
    blocks = np.split(np.argsort(block_of.ravel(), kind="stable"), np.cumsum(sizes)[:-1])
    stacks = tuple(
        np.stack([block for block in blocks if len(block) == size])
        for size in sorted(set(sizes.tolist()), reverse=True)
    )
    for stack in stacks:
        stack.setflags(write=False)
    return stacks


def _so_rows(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row i holds ``g_a x_b - g_b x_a`` for the pairs a < b, in
    ``np.triu_indices`` order, of the coordinate rows g[i] and x[i]: the
    pairing <g, T x> as a linear form in the upper entries of a skew T.
    Filled one a at a time, so no temporary is wider than d."""
    m, d = g.shape
    rows = np.empty((m, d * (d - 1) // 2))
    start = 0
    for a in range(d - 1):
        block = rows[:, start:start + d - 1 - a]
        np.multiply(g[:, a, None], x[:, a + 1:], out=block)
        block -= x[:, a, None] * g[:, a + 1:]
        start += d - 1 - a
    return rows


def _constraint_rows(spec: NormSpec, basis, num_samples: int, seed):
    """The so(d) constraint rows (:func:`_so_rows`) of one stack of samples
    at n = ``basis.n`` drawn from ``default_rng(seed)`` (``seed`` may be a
    Generator, which is drawn from in place), each row's scale ``|g| |x|``,
    and the (num_samples, n, n) stacks X of samples and G of their
    gradients that the rows were built from; all gradients come from one
    stacked call.  A sample at which the norm is not smooth is redrawn from
    the same generator after the stack, so only its row changes, up to
    MAX_RESAMPLE tries per row.  A zero or non-finite row scale raises
    InconclusiveDimension."""
    rng = _rng(seed)
    X = random_element(spec.space, basis.n, rng, count=num_samples)
    attempt = np.zeros(num_samples, dtype=int)
    while True:
        try:
            G = norm_gradient(X, spec)
            break
        except DegeneratePoint as exc:
            redraw = list(exc.members)
            if not redraw:
                raise
            attempt[redraw] += 1
            if attempt.max() >= MAX_RESAMPLE:
                row = int(np.argmax(attempt))
                raise DegeneratePoint(
                    f"no generic sample found for row {row} after {MAX_RESAMPLE} tries"
                ) from exc
            X[redraw] = random_element(spec.space, basis.n, rng, count=len(redraw))
    # a non-finite gradient is refused below, by its row scale
    g, x = _coordinates(G, basis), _coordinates(X, basis)
    # |g| of g scaled by 2^-e, 2^e >= its largest entry: exact, and no overflow
    _, e = np.frexp(np.max(np.abs(g), initial=0.0))
    scales = np.ldexp(np.linalg.norm(np.ldexp(g, -e), axis=1), e) * np.linalg.norm(x, axis=1)
    bad = ~(np.isfinite(scales) & (scales > 0.0))
    if bad.any():
        row = int(np.argmax(bad))
        raise InconclusiveDimension(f"row {row} has scale |g| |x| = {scales[row]!r}")
    return _so_rows(g, x), scales, X, G


def _null_space_dimension(svals: np.ndarray, scale: float):
    """Largest-gap cut through ``scale`` followed by the descending
    singular values.

    ``scale`` is the size the rows would have if nothing cancelled (the
    largest |g| |x|); a cut right after it reads every unknown as null, the
    Euclidean case.  Every value is floored at eps times the largest, so
    rounding noise that happens to hold an exact 0 is not an infinite gap,
    and no ratio exceeds 1/eps.

    Returns (null_dim, gap_ratio); the ratio must clear GAP_RATIO_MIN.
    """
    seq = np.concatenate(([scale], svals))
    seq = np.maximum(seq, np.finfo(float).eps * seq.max())
    ratios = seq[:-1] / seq[1:]
    k = int(np.argmax(ratios))
    if ratios[k] < GAP_RATIO_MIN:
        raise InconclusiveDimension(
            f"no singular-value gap of ratio >= {GAP_RATIO_MIN:.0e} "
            f"(best {ratios[k]:.2e})"
        )
    return len(svals) - k, float(ratios[k])


def _adjoint_pairings(X: np.ndarray, G: np.ndarray, scales: np.ndarray, basis) -> np.ndarray:
    """Entry (i, j) is row i of the constraint matrix paired with the
    upper entries of the adjoint generator T_j, relative to the row's
    scale and to T_j's size (module docstring, step 5): the coordinates of
    ``i[X_i, G_i]`` (``[X_i, G_i]`` on the skew space) over ``scales[i]``
    times sqrt(n) (sqrt((n - 2)/2))."""
    comm = X @ G - G @ X
    if basis.space == HERMITIAN_TRACELESS:
        comm = 1j * comm
        size = math.sqrt(basis.n)
    else:
        size = math.sqrt((basis.n - 2) / 2)
    return vectorize(comm, basis) / (scales[:, None] * size)


def _algebra_dimension(spec: NormSpec, n: int, seed) -> DimensionReport:
    basis = basis_for(spec.space, n)
    if basis.d == 1:
        raise InvalidDimension(
            f"the {spec.space} space at n = {n} is a line: its isometry algebra "
            "is 0, and one singular value has no gap to read"
        )
    blocks = _sign_blocks(basis)
    num_samples = blocks[0].shape[1] + basis.d
    rows, scales, X, G = _constraint_rows(spec, basis, num_samples, seed)
    # one stacked SVD per block size, each over a (k, rows, s) stack
    svals = np.concatenate([
        np.linalg.svd(rows[:, idx].swapaxes(0, 1), compute_uv=False).ravel()
        for idx in blocks
    ])
    svals = np.sort(svals)[::-1]
    null_dim, gap_ratio = _null_space_dimension(svals, float(scales.max()))
    pairing = _adjoint_pairings(X, G, scales, basis)
    return DimensionReport(
        space=spec.space,
        n=n,
        spec=spec,
        estimated_dim=null_dim,
        singular_values=svals,
        gap_ratio=gap_ratio,
        samples_used=num_samples,
        containment_residual=float(np.max(np.abs(pairing))),
    )


def isometry_algebra_dimension(spec: NormSpec, n: int, seed=0) -> DimensionReport:
    """Estimate the Lie-algebra dimension of the isometry group of a
    Hermitian-space norm; the adjoint-group target is n**2 - 1."""
    if spec.space != HERMITIAN_TRACELESS:
        raise InvalidDimension("spec lives on the skew space; use the skew estimator")
    return _algebra_dimension(spec, n, seed)


def skew_isometry_algebra_dimension(spec: NormSpec, n: int, seed=0) -> DimensionReport:
    """Skew-space analogue; the adjoint-group target is n(n-1)/2."""
    if spec.space != SKEW_REAL:
        raise InvalidDimension("spec lives on the Hermitian space; use the Hermitian estimator")
    return _algebra_dimension(spec, n, seed)


def _range_endpoints(A: np.ndarray, C: np.ndarray):
    """Exact endpoints (lo, hi) of W_C(A) for Hermitian A and C.

    With eigenvalues sorted ascending, hi pairs them in the same order and
    lo in opposite orders (rearrangement inequality over the doubly
    stochastic matrix |u_ij|^2).  ``A`` is one matrix, giving two floats,
    or a (k, n, n) stack against the one C, giving two (k,) arrays from one
    stacked eigvalsh; a member gets the bits it gets alone.  Fails closed on
    mismatched inputs and on what :func:`_require_hermitian` refuses, where
    the formula does not hold.
    """
    A, C = _numeric(A, "A is a numeric array"), _numeric(C, "C is a numeric array")
    if A.shape[-2:] != C.shape:
        raise InvalidDimension(f"need matrices of one shape, got {A.shape} and {C.shape}")
    _require_hermitian(A, "A")
    _require_hermitian(C, "C")
    lam_a = np.linalg.eigvalsh(A)[..., None, :]
    lam_c = np.linalg.eigvalsh(C)
    lo = (lam_a @ lam_c[::-1, None])[..., 0, 0]
    hi = (lam_a @ lam_c[:, None])[..., 0, 0]
    return (float(lo), float(hi)) if A.ndim == 2 else (lo, hi)


def _one_matrix(A, name: str) -> np.ndarray:
    """A by :func:`_numeric` as one matrix; anything else raises InvalidDimension."""
    A = _numeric(A, f"{name} is a numeric array")
    if A.ndim != 2:
        raise InvalidDimension(f"need one square matrix {name}, got shape {A.shape}")
    return A


def c_numerical_range_sample(
    A: np.ndarray, C: np.ndarray, trials: int, seed=0
) -> RangeSample:
    """Exact endpoints of the C-numerical range of Hermitian A and C, plus
    ``trials`` values tr(A U C U*) at Haar unitaries U.

    ``lo`` and ``hi`` are the closed-form endpoints (see the module
    docstring); ``values`` holds only the Monte Carlo orbit values, an
    independent sample that must lie in ``[lo, hi]``, and is empty for
    ``trials = 0``.  Each value is the quadratic form
    ``Re(conj(u) . kron(A, C.T) u)`` at u = vec(U), since
    ``kron(A, C.T) vec(U) = vec(A U C)``: one product of the (trials, n^2)
    rows u with ``kron(A, C.T).T = kron(A.T, C)``.  It is built from A, C and U
    alone, not from eigenvalues, so the sample stays independent of the
    endpoints.  A negative or non-integer ``trials`` raises
    InvalidDimension.
    """
    trials = _trial_count(trials)
    A, C = _one_matrix(A, "A"), _one_matrix(C, "C")
    lo, hi = _range_endpoints(A, C)
    n = len(A)
    u = haar_unitary(n, seed, count=trials).reshape(trials, n * n)
    values = np.einsum("ti,ti->t", u.conj(), u @ _kron(A.T, C)).real
    return RangeSample(values=values, lo=lo, hi=hi)


def c_numerical_radius(A: np.ndarray, C: np.ndarray) -> float:
    """Maximum modulus over the C-numerical range of Hermitian A and C.

    W_C(A) is the interval ``[lo, hi]`` of :func:`_range_endpoints`, so the
    radius is ``max(|lo|, |hi|)`` (C.-K. Li 1994; Goldberg-Straus 1977).
    """
    lo, hi = _range_endpoints(_one_matrix(A, "A"), C)
    return max(abs(lo), abs(hi))


@dataclass(frozen=True, eq=False)
class PreserverReport:
    """Max deviations of the C-numerical quantities under the canonical
    preserver forms (conjugation / involution branches, both signs)."""

    radius_dev: dict = field(default_factory=dict)
    wc_interval_dev: float = 0.0
    wc_pointwise_dev: float = 0.0
    trials: int = 0


def verify_preserver_forms(C: np.ndarray, trials: int, seed=0) -> PreserverReport:
    """Check that both canonical forms preserve the C-numerical radius, and
    that conjugation preserves the C-numerical range as an interval.

    n is read off C, one finite Hermitian matrix, checked before anything
    is drawn.  Random elements A and Haar unitaries U and V are drawn as
    three stacks from one generator; the radius is compared across ``A ->
    eta U A U*`` and ``A -> eta U (-A.T) U*`` for both signs, and for the
    plain conjugation the range endpoints and the conjugation-invariance
    of individual orbit values (at V C V*) are checked.  The endpoints of
    A and its four images come from one :func:`_range_endpoints` call on
    their (5 trials, n, n) stack.  A negative or non-integer ``trials``
    raises InvalidDimension.
    """
    trials = _trial_count(trials)
    C = _require_hermitian(_one_matrix(C, "C"), "C")
    n = len(C)
    rng = _rng(seed)
    A = random_element(HERMITIAN_TRACELESS, n, rng, count=trials)
    U = haar_unitary(n, rng, count=trials)
    V = haar_unitary(n, rng, count=trials)
    Uh = U.conj().swapaxes(-1, -2)
    conj, cartan = U @ A @ Uh, U @ -A.swapaxes(-1, -2) @ Uh
    lo, hi = _range_endpoints(np.concatenate([A, conj, -conj, cartan, -cartan]), C)
    lo, hi = lo.reshape(5, trials), hi.reshape(5, trials)
    radius = np.maximum(np.abs(lo), np.abs(hi))
    radius_dev = np.max(np.abs(radius[1:] - radius[0]), axis=1, initial=0.0)
    fro = norm_value(A, frobenius())
    scale = np.maximum(fro * float(np.linalg.norm(C)), 1e-30)
    interval = np.maximum(np.abs(lo[0] - lo[1]), np.abs(hi[0] - hi[1])) / scale
    # conjugation moves each orbit point to another: values match exactly
    X = V @ C @ V.conj().swapaxes(-1, -2)
    moved = np.trace(conj @ (U @ X @ Uh), axis1=-2, axis2=-1).real
    base = np.trace(A @ X, axis1=-2, axis2=-1).real
    return PreserverReport(
        radius_dev=dict(zip(("conj_plus", "conj_minus", "cartan_plus", "cartan_minus"), radius_dev.tolist())),
        wc_interval_dev=float(np.max(interval, initial=0.0)),
        wc_pointwise_dev=float(np.max(np.abs(moved - base), initial=0.0)),
        trials=trials,
    )
