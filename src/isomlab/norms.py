"""Invariant norms on the two matrix spaces, their gradients, and
invariance checks.

Four families are implemented.  On the traceless Hermitian space: Frobenius,
Schatten-p (p in [1, inf]) and Ky Fan k, all functions of the eigenvalue
moduli and invariant under unitary similarity.  On the real skew space:
Frobenius, Schatten/Ky Fan of the singular values, and the c-spectral norm
``sum_i c_i a_i`` applied to the descending canonical block parameters a_i
(each counted once), invariant under orthogonal congruence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePoint, InvalidNormSpec, SpecMismatch
from .matspace import (
    HERMITIAN_TRACELESS,
    SKEW_REAL,
    basis_for,
    devectorize,
    is_element,
    project_traceless,
    random_element,
)

FROBENIUS = "frobenius"
SCHATTEN = "schatten"
KY_FAN = "kyfan"
C_SPECTRAL = "cspec"

#: relative spectral-gap floor below which nonsmooth gradients are refused
GENERIC_GAP = 1e-8

#: relative central-difference step for finite-difference gradients
FD_STEP = 1e-6


@dataclass(frozen=True)
class NormSpec:
    """An invariant norm: family tag, space tag, and family parameters.

    Use the constructors :func:`frobenius`, :func:`schatten`, :func:`ky_fan`,
    :func:`c_spectral` or :func:`parse_norm` rather than building directly.
    """

    family: str
    space: str
    p: float | None = None
    k: int | None = None
    c: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.space not in (HERMITIAN_TRACELESS, SKEW_REAL):
            raise InvalidNormSpec(f"unknown space tag {self.space!r}")
        if self.family == SCHATTEN:
            if self.p is None or not self.p >= 1:
                raise InvalidNormSpec(f"Schatten needs p >= 1, got {self.p}")
        elif self.family == KY_FAN:
            if self.k is None or self.k < 1:
                raise InvalidNormSpec(f"Ky Fan needs k >= 1, got {self.k}")
        elif self.family == C_SPECTRAL:
            if self.space != SKEW_REAL:
                raise SpecMismatch("c-spectral norms live on the skew space")
            c = self.c
            if not c or any(x < 0 for x in c) or all(x == 0 for x in c):
                raise InvalidNormSpec(
                    "c must be nonnegative and not identically zero"
                )
            if any(c[i] < c[i + 1] for i in range(len(c) - 1)):
                raise InvalidNormSpec(f"c must be nonincreasing, got {c}")
        elif self.family != FROBENIUS:
            raise InvalidNormSpec(f"unknown norm family {self.family!r}")

    def token(self) -> str:
        """Command-line token for this spec (inverse of :func:`parse_norm`)."""
        if self.family == FROBENIUS:
            return "frobenius"
        if self.family == SCHATTEN:
            p = "inf" if math.isinf(self.p) else f"{self.p:g}"
            return f"schatten:{p}"
        if self.family == KY_FAN:
            return f"kyfan:{self.k}"
        return "cspec:" + ",".join(f"{x:g}" for x in self.c)


def frobenius(space: str = HERMITIAN_TRACELESS) -> NormSpec:
    return NormSpec(FROBENIUS, space)


def schatten(p: float, space: str = HERMITIAN_TRACELESS) -> NormSpec:
    return NormSpec(SCHATTEN, space, p=float(p))


def ky_fan(k: int, space: str = HERMITIAN_TRACELESS) -> NormSpec:
    return NormSpec(KY_FAN, space, k=int(k))


def c_spectral(c) -> NormSpec:
    return NormSpec(C_SPECTRAL, SKEW_REAL, c=tuple(float(x) for x in c))


def parse_norm(token: str, space: str | None = None) -> NormSpec:
    """Parse a command-line norm token.

    Grammar: ``frobenius``, ``schatten:<p>`` (``schatten:inf`` allowed),
    ``kyfan:<k>``, ``cspec:<c1,c2,...>``.  ``cspec`` always lives on the
    skew space; the others default to the Hermitian space unless ``space``
    says otherwise.
    """
    name, _, arg = token.partition(":")
    name = name.strip().lower()
    try:
        if name == "frobenius":
            return frobenius(space or HERMITIAN_TRACELESS)
        if name == "schatten":
            p = math.inf if arg.strip().lower() == "inf" else float(arg)
            return schatten(p, space or HERMITIAN_TRACELESS)
        if name == "kyfan":
            return ky_fan(int(arg), space or HERMITIAN_TRACELESS)
        if name == "cspec":
            if space not in (None, SKEW_REAL):
                raise InvalidNormSpec("cspec norms live on the skew space")
            return c_spectral(float(x) for x in arg.split(","))
    except (ValueError, TypeError) as exc:
        raise InvalidNormSpec(f"cannot parse norm token {token!r}") from exc
    raise InvalidNormSpec(f"unknown norm family in token {token!r}")


def _check_space(A: np.ndarray, spec: NormSpec, batch: bool = True) -> np.ndarray:
    """A as an array, if it is one element of the spec's space or, with
    ``batch``, a (k, n, n) stack of them.  Each member is held to 1e-10
    times (1 + its own largest entry modulus); one non-member fails the
    whole argument."""
    A = np.asarray(A)
    member = A.ndim in ((2, 3) if batch else (2,)) and is_element(
        A, spec.space, tol=1e-10 * (1.0 + np.abs(A).max(axis=(-2, -1), initial=0.0))
    ).all()
    if not member:
        raise SpecMismatch(
            f"argument is not a {spec.space} element within tolerance"
        )
    return A


def _hermitian_singvals(A: np.ndarray) -> np.ndarray:
    """Singular values of a Hermitian matrix: |eigenvalues|, descending
    (along the last axis, for a stack)."""
    return np.sort(np.abs(np.linalg.eigvalsh(A)), axis=-1)[..., ::-1]


def _youla_values(A: np.ndarray) -> np.ndarray:
    """Descending canonical block parameters a_i of a skew matrix, each
    counted once and zero-padded to length floor(n/2).

    Computed from the SVD, where each a_i appears as a doubled singular
    value; this keeps the route independent of the eigen-based canonical
    decomposition used elsewhere.
    """
    n = A.shape[-1]
    svals = np.linalg.svd(A, compute_uv=False)
    return svals[..., ::2][..., : n // 2]


def _relevant_values(A: np.ndarray, spec: NormSpec) -> np.ndarray:
    if spec.space == HERMITIAN_TRACELESS:
        return _hermitian_singvals(A)
    return _youla_values(A)


def _scaled(s: np.ndarray, s_max: np.ndarray):
    """``(s / scale, scale)`` for values about to be raised to a power
    p >= 1, so that no power overflows or underflows.  ``s_max`` holds each
    member's largest modulus as a trailing axis of length 1; ``scale`` is
    s_max (1 for a zero member) without that axis."""
    scale = s_max + (s_max == 0)
    return s / scale, scale[..., 0]


def _frobenius(A: np.ndarray) -> np.ndarray:
    # x @ x.T per member is the BLAS dot that np.linalg.norm(A) takes, so a
    # single matrix gets the value it has always had
    x = A.reshape(A.shape[:-2] + (1, -1))
    square = x.real @ x.real.swapaxes(-1, -2)
    if np.iscomplexobj(A):
        square = square + x.imag @ x.imag.swapaxes(-1, -2)
    return np.sqrt(square[..., 0, 0])


def norm_value(A: np.ndarray, spec: NormSpec):
    """Evaluate the norm.  Degree-1 homogeneous; zero only at A = 0.

    ``A`` is one (n, n) space element, giving a float, or a (k, n, n)
    stack of them, giving a (k,) array of their norms from one stacked
    eigvalsh/svd call.  Both shapes take the same code, so a member of a
    stack gets the value it would get alone.  Schatten-p values are
    ``s_max * ||s / s_max||_p``, so no power leaves the floating-point
    range.
    """
    A = _check_space(A, spec)
    n = A.shape[-1]
    if spec.family == FROBENIUS:
        value = _frobenius(A)
    elif spec.family == C_SPECTRAL:
        c = np.asarray(spec.c)
        if len(c) != n // 2:
            raise InvalidNormSpec(
                f"c has length {len(c)}; need floor(n/2) = {n // 2} for n={n}"
            )
        value = (c @ _youla_values(A)[..., None])[..., 0]
    else:
        if spec.space == HERMITIAN_TRACELESS:
            s = _hermitian_singvals(A)
        else:
            s = np.linalg.svd(A, compute_uv=False)
        if spec.family == SCHATTEN:
            if math.isinf(spec.p):
                value = s[..., 0]
            else:
                t, scale = _scaled(s, s[..., :1])
                value = scale * (t ** spec.p).sum(axis=-1) ** (1.0 / spec.p)
        else:  # Ky Fan
            if spec.k > n:
                raise InvalidNormSpec(f"Ky Fan k={spec.k} exceeds ambient n={n}")
            value = s[..., : spec.k].sum(axis=-1)
    return float(value) if A.ndim == 2 else value


def _require_generic(A: np.ndarray, spec: NormSpec, scale: float) -> None:
    """Refuse nonsmooth-variant gradients at spectrally degenerate points."""
    vals = _relevant_values(A, spec)
    floor = GENERIC_GAP * scale
    gaps = np.diff(np.concatenate([vals, [0.0]]))
    if np.min(np.abs(gaps)) <= floor:
        raise DegeneratePoint(
            "degenerate spectrum: minimum gap "
            f"{np.min(np.abs(gaps)):.3e} at or below {floor:.3e}"
        )


def _fd_gradient(A: np.ndarray, spec: NormSpec) -> np.ndarray:
    basis = basis_for(spec.space, A.shape[0])
    h = FD_STEP * (1.0 + float(np.linalg.norm(A)))
    coords = np.empty(basis.d)
    for i in range(basis.d):
        step = h * basis.mats[i]
        coords[i] = (norm_value(A + step, spec) - norm_value(A - step, spec)) / (2 * h)
    return devectorize(coords, basis)


def _schatten_gradient_hermitian(A: np.ndarray, p: float) -> np.ndarray:
    # the gradient is homogeneous of degree 0, so its weights and the norm
    # factor may both be built from the scaled values
    lam, V = np.linalg.eigh(A)
    t, _ = _scaled(lam, np.abs(lam).max(keepdims=True))
    weights = np.sign(t) * np.abs(t) ** (p - 1.0)
    G = (V * weights) @ V.conj().T
    value = float(np.sum(np.abs(t) ** p) ** (1.0 / p))
    return project_traceless(G) * value ** (1.0 - p)


def _schatten_gradient_skew(A: np.ndarray, p: float) -> np.ndarray:
    U, s, Vt = np.linalg.svd(A)
    t, _ = _scaled(s, s[:1])
    W = (U * t ** (p - 1.0)) @ Vt
    value = float(np.sum(t ** p) ** (1.0 / p))
    G = (W - W.T) / 2.0
    return G * value ** (1.0 - p)


def norm_gradient(A: np.ndarray, spec: NormSpec) -> np.ndarray:
    """Trace-form gradient g of the norm at A: d/dt ||A + tH|| at 0 equals
    <g, H> for every direction H in the space.

    Analytic for Frobenius and for Schatten p in (1, inf); all other
    variants use projected central finite differences and require a
    spectrally generic point, else :class:`DegeneratePoint` is raised.
    By homogeneity the gradient satisfies <g, A> = ||A||.  ``A`` is one
    (n, n) space element; a stack raises :class:`SpecMismatch`.
    """
    A = _check_space(A, spec, batch=False)
    fro = float(np.linalg.norm(A))
    if fro == 0.0:
        raise DegeneratePoint("gradient undefined at the zero matrix")
    if spec.family == FROBENIUS:
        return A / fro
    if spec.space == HERMITIAN_TRACELESS and A.shape[0] == 2:
        # 2 x 2 traceless eigenvalues form a +-lambda pair, so every
        # invariant norm is a Frobenius multiple; the gradient is exact
        return A * (norm_value(A, spec) / fro**2)
    if spec.family == SCHATTEN and 1.0 < spec.p < math.inf:
        if spec.space == HERMITIAN_TRACELESS:
            return _schatten_gradient_hermitian(A, spec.p)
        return _schatten_gradient_skew(A, spec.p)
    _require_generic(A, spec, fro)
    return _fd_gradient(A, spec)


def check_invariance(spec: NormSpec, n: int, trials: int, seed) -> float:
    """Max relative deviation of the norm over random group moves.

    Samples Haar unitaries acting by similarity (Hermitian space) or Haar
    orthogonal matrices acting by congruence (skew space) on random space
    elements; every implemented spec stays below 1e-10.
    """
    from .groups import haar_orthogonal, haar_unitary

    worst = 0.0
    for t in range(trials):
        A = random_element(spec.space, n, [seed, 2 * t])
        if spec.space == HERMITIAN_TRACELESS:
            U = haar_unitary(n, [seed, 2 * t + 1])
            moved = U @ A @ U.conj().T
        else:
            Q = haar_orthogonal(n, [seed, 2 * t + 1])
            moved = Q @ A @ Q.T
        base = norm_value(A, spec)
        worst = max(worst, abs(norm_value(moved, spec) - base) / base)
    return worst
