"""Invariant norms on the two matrix spaces, their gradients, and
invariance checks.

Four families are implemented.  On the traceless Hermitian space: Frobenius,
Schatten-p (p in [1, inf]) and Ky Fan k, all functions of the eigenvalue
moduli and invariant under unitary similarity.  On the real skew space:
Frobenius, Schatten/Ky Fan of the singular values, and the c-spectral norm
``sum_i c_i a_i`` applied to the descending canonical block parameters a_i
(each counted once), invariant under orthogonal congruence.

Both spaces take one spectral route, through the Hermitian matrix H = A
(Hermitian space) or H = iA (skew space).  The eigenvalues of iA are the
pairs +-a_i (and 0 at odd n), so their moduli are A's singular values.
Values and gradients take one matrix or a (k, n, n) stack through one code
path.  Every gradient is closed-form: ``G = V diag(f'(lam)) V*`` over the
eigenvalues of H (A. S. Lewis, "Derivatives of spectral functions", Math.
Oper. Res. 21 (1996)), projected back onto the space.  On the skew space
that projection is Im G, since <G, iX> = <Im G, X> for real skew X.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePoint, InvalidDimension, InvalidNormSpec, SpecMismatch
from .matspace import (  # noqa: F401  devectorize: perfbench/tracing.py wraps norms.devectorize
    HERMITIAN_TRACELESS,
    SKEW_REAL,
    _numeric,
    _rng,
    _traceless_part,
    _trial_count,
    _within,
    devectorize,
    random_element,
)

FROBENIUS = "frobenius"
SCHATTEN = "schatten"
KY_FAN = "kyfan"
C_SPECTRAL = "cspec"

#: relative spectral-gap floor below which nonsmooth gradients are refused
GENERIC_GAP = 1e-8


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
            if not all(math.isfinite(x) for x in c):
                raise InvalidNormSpec(f"c must be finite, got {c}")
            if any(c[i] < c[i + 1] for i in range(len(c) - 1)):
                raise InvalidNormSpec(f"c must be nonincreasing, got {c}")
        elif self.family != FROBENIUS:
            raise InvalidNormSpec(f"unknown norm family {self.family!r}")

    def token(self) -> str:
        """Command-line token for this spec (inverse of :func:`parse_norm`:
        ``parse_norm(spec.token(), spec.space) == spec``)."""
        if self.family == FROBENIUS:
            return "frobenius"
        if self.family == SCHATTEN:
            return f"schatten:{_number_token(self.p)}"
        if self.family == KY_FAN:
            return f"kyfan:{self.k}"
        return "cspec:" + ",".join(_number_token(x) for x in self.c)


def _number_token(x: float) -> str:
    """``x`` printed with ``:g`` when that reads back as x (``3``, ``inf``,
    ``0.5``), else with ``repr``, which always does."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def frobenius(space: str = HERMITIAN_TRACELESS) -> NormSpec:
    return NormSpec(FROBENIUS, space)


def schatten(p: float, space: str = HERMITIAN_TRACELESS) -> NormSpec:
    try:
        p = float(p)
    except (TypeError, ValueError):
        raise InvalidNormSpec(f"Schatten needs a number p, got {p!r}") from None
    return NormSpec(SCHATTEN, space, p=p)


def ky_fan(k: int, space: str = HERMITIAN_TRACELESS) -> NormSpec:
    try:
        if isinstance(k, bool):  # operator.index(True) is 1
            raise TypeError
        k = operator.index(k)
    except TypeError:
        raise InvalidNormSpec(f"Ky Fan needs an integer k, got {k!r}") from None
    return NormSpec(KY_FAN, space, k=k)


def c_spectral(c) -> NormSpec:
    try:
        c = tuple(float(x) for x in c)
    except (TypeError, ValueError):
        raise InvalidNormSpec(f"c-spectral needs a sequence of numbers, got {c!r}") from None
    return NormSpec(C_SPECTRAL, SKEW_REAL, c=c)


def parse_norm(token: str, space: str | None = None) -> NormSpec:
    """Parse a command-line norm token.

    Grammar: ``frobenius``, ``schatten:<p>`` (``schatten:inf`` allowed),
    ``kyfan:<k>``, ``cspec:<c1,c2,...>``.  ``frobenius`` takes no
    argument, not even an empty one.  ``cspec`` always lives on the skew
    space; the others default to the Hermitian space unless ``space`` says
    otherwise.
    """
    if not isinstance(token, str):
        raise InvalidNormSpec(f"a norm token is a string, got {token!r}")
    name, colon, arg = token.partition(":")
    name = name.strip().lower()
    try:
        if name == "frobenius":
            if colon:
                raise InvalidNormSpec(f"frobenius takes no argument, got {token!r}")
            return frobenius(space or HERMITIAN_TRACELESS)
        if name == "schatten":
            return schatten(arg, space or HERMITIAN_TRACELESS)
        if name == "kyfan":
            return ky_fan(int(arg), space or HERMITIAN_TRACELESS)
        if name == "cspec":
            if space not in (None, SKEW_REAL):
                raise InvalidNormSpec("cspec norms live on the skew space")
            return c_spectral(arg.split(","))
    except (ValueError, TypeError) as exc:
        raise InvalidNormSpec(f"cannot parse norm token {token!r}") from exc
    raise InvalidNormSpec(f"unknown norm family in token {token!r}")


def _check_space(A, spec: NormSpec):
    """``(A, largest, shape)``: A by :func:`_numeric` as a (k, n, n) stack
    (k = 1 for one matrix) if it is one element of the spec's space or a
    stack of them, each member's largest entry modulus, a (k,) array, and
    A's own shape.  Each member is held to 1e-10 times (1 + its largest
    entry modulus); one non-member, or one entry that is not finite, fails
    the whole argument.  One matrix becomes a stack of one, so it gets the
    bits it gets inside any stack."""
    A = _numeric(A, "a norm's argument is a numeric array")
    square = A.ndim in (2, 3) and A.shape[-1] == A.shape[-2] >= 2
    largest = np.abs(A).max(axis=(-2, -1)) if square else None
    # a NaN or infinite entry makes its member's largest modulus non-finite
    # and is refused first; the structural test is is_element's, on A as
    # converted here
    if (
        largest is None
        or not np.isfinite(largest).all()
        or not _within(A, spec.space, 1e-10 * (1.0 + largest)).all()
    ):
        raise SpecMismatch(
            f"argument is not a {spec.space} element within tolerance"
        )
    return A.reshape((-1,) + A.shape[-2:]), largest.reshape(-1), A.shape


def _check_parameters(spec: NormSpec, n: int) -> None:
    """Refuse family parameters that do not fit the ambient size n."""
    if spec.family == C_SPECTRAL and len(spec.c) != n // 2:
        raise InvalidNormSpec(
            f"c has length {len(spec.c)}; need floor(n/2) = {n // 2} for n={n}"
        )
    if spec.family == KY_FAN and spec.k > n:
        raise InvalidNormSpec(f"Ky Fan k={spec.k} exceeds ambient n={n}")


def _moduli(A: np.ndarray, space: str) -> np.ndarray:
    """Descending eigenvalue moduli of H = A (Hermitian space) or H = iA
    (skew space), along the last axis: A's singular values, which on the
    skew space come as the pairs a_1, a_1, a_2, a_2, ... (then 0 at odd n)."""
    H = A if space == HERMITIAN_TRACELESS else 1j * A
    return np.sort(np.abs(np.linalg.eigvalsh(H)), axis=-1)[..., ::-1]


def _scaled(s: np.ndarray, s_max: np.ndarray):
    """``(s / scale, scale)`` for values about to be raised to a power
    p >= 1, so that no power overflows or underflows.  ``s_max`` holds each
    member's largest modulus as a trailing axis of length 1; ``scale`` is
    s_max (1 for a zero member) without that axis."""
    scale = s_max + (s_max == 0)
    return s / scale, scale[..., 0]


def _ldexp(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """x * 2^e entrywise, for complex x too; exact unless a result leaves
    the normal range."""
    if np.iscomplexobj(x):
        return np.ldexp(x.real, e) + 1j * np.ldexp(x.imag, e)
    return np.ldexp(x, e)


def _frobenius(A: np.ndarray, largest: np.ndarray) -> np.ndarray:
    # x @ x.T per member, on the strided real and imaginary views, is the
    # BLAS dot that np.linalg.norm(A) takes.  Each member is first scaled by
    # 2^-e, 2^e the power of two at or above its largest modulus (``largest``,
    # one per member, as _check_space returns it), so no square over- or
    # underflows; the scaling is exact, so a sum that stays in range keeps
    # the bits it has unscaled
    x = A.reshape(A.shape[:-2] + (1, A.shape[-2] * A.shape[-1]))
    _, e = np.frexp(largest[..., None, None])
    x = _ldexp(x, -e)
    if np.iscomplexobj(x):
        square = x.real @ x.real.swapaxes(-1, -2) + x.imag @ x.imag.swapaxes(-1, -2)
    else:
        square = x @ x.swapaxes(-1, -2)
    return np.ldexp(np.sqrt(square[..., 0, 0]), e[..., 0, 0])


def norm_value(A: np.ndarray, spec: NormSpec):
    """Evaluate the norm.  Degree-1 homogeneous; zero only at A = 0.

    ``A`` is one (n, n) space element, giving a float, or a (k, n, n)
    stack of them, giving a (k,) array of their norms from one stacked
    eigvalsh call on H = A or iA.  Both shapes take the same code, so a
    member of a stack gets the value it would get alone.  Schatten-p values
    are ``s_max * ||s / s_max||_p``, so no power leaves the floating-point
    range.  A norm that leaves that range all the same (the trace norm of
    ``diag(1.5e308, -1.5e308, 0)``, say) raises :class:`InvalidDimension`
    rather than returning inf; the argument itself is finite, by
    :func:`_check_space`.
    """
    A, largest, shape = _check_space(A, spec)
    _check_parameters(spec, A.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        value = _norm_values(A, largest, spec)
    if not np.isfinite(value).all():
        raise InvalidDimension(
            f"the {spec.token()} norm of an argument with entries up to "
            f"{largest.max():.3e} leaves the floating-point range"
        )
    return float(value[0]) if len(shape) == 2 else value


def _norm_values(A: np.ndarray, largest: np.ndarray, spec: NormSpec) -> np.ndarray:
    """The (k,) norms of a (k, n, n) stack A of the spec's space, whose
    members' largest entry moduli are ``largest``: :func:`norm_value` after
    its checks of A and of the spec's parameters, for a caller that built
    A in the space and has checked the parameters itself."""
    if spec.family == FROBENIUS:
        return _frobenius(A, largest)
    s = _moduli(A, spec.space)
    if spec.family == C_SPECTRAL:  # the first member of each +-a_i pair
        return (np.asarray(spec.c) @ s[..., : 2 * len(spec.c) : 2, None])[..., 0]
    if spec.family == SCHATTEN:
        if math.isinf(spec.p):
            return s[..., 0]
        t, scale = _scaled(s, s[..., :1])
        return scale * (t ** spec.p).sum(axis=-1) ** (1.0 / spec.p)
    return s[..., : spec.k].sum(axis=-1)  # Ky Fan


def _refuse(bad: np.ndarray, what: str) -> None:
    """Raise :class:`DegeneratePoint` naming the stack members flagged in ``bad``."""
    members = np.flatnonzero(bad)
    if members.size:
        raise DegeneratePoint(f"{what} at member(s) {members.tolist()}", members=members)


def _require_generic(vals: np.ndarray, scale: np.ndarray) -> None:
    """Refuse nonsmooth-variant gradients at spectrally degenerate points:
    a member fails when two of its descending relevant values ``vals``, or
    the smallest of them and 0, lie within GENERIC_GAP times its scale."""
    padded = np.concatenate([vals, np.zeros_like(vals[..., :1])], axis=-1)
    gap = np.abs(np.diff(padded, axis=-1)).min(axis=-1)
    _refuse(gap <= GENERIC_GAP * scale,
            f"degenerate spectrum: a gap at or below {GENERIC_GAP:.0e} times the Frobenius norm")


def _spectral_weights(lam: np.ndarray, rank: np.ndarray, spec: NormSpec):
    """Derivative of the norm with respect to each eigenvalue in ``lam`` (of
    H = A or iA), whose descending modulus order is ``rank``; returns the
    weights and a per-member factor that multiplies the projected gradient."""
    sign = np.sign(lam)
    if spec.family == SCHATTEN and not math.isinf(spec.p):
        # degree-0 homogeneous, so built from the scaled values; the factor
        # ||t||_p^(1-p) is one power of sum(t^p), which keeps p out of its error
        t, _ = _scaled(lam, np.abs(lam).max(axis=-1, keepdims=True))
        total = (np.abs(t) ** spec.p).sum(axis=-1)
        return sign * np.abs(t) ** (spec.p - 1.0), total ** ((1.0 - spec.p) / spec.p)
    n = lam.shape[-1]
    if spec.family == SCHATTEN:
        table = np.arange(n) == 0
    elif spec.family == KY_FAN:
        table = np.arange(n) < spec.k
    else:  # c-spectral: c_i at the first rank of the i-th +-a_i pair
        table = np.zeros(n)
        table[: 2 * len(spec.c) : 2] = spec.c
    return sign * table[rank], np.ones(lam.shape[:-1])


def _spectral_gradient(A: np.ndarray, spec: NormSpec, fro: np.ndarray) -> np.ndarray:
    """G = V diag(f'(lam)) V* from one stacked eigh of H = A (Hermitian
    space) or iA (skew space), projected back onto the space (Lewis 1996).

    The members of a +-lambda pair of H (each pair of iA, and the one pair
    at Hermitian n = 2) have tied moduli, so either may rank first; the
    projection makes that immaterial.  On the skew space the eigenvectors
    of +-a are v and conj(v), which add (w+ - w-) Im(v v*) to Im G; on the
    Hermitian space at n = 2 the traceless part of the pair's term is
    (w+ - w-) (v+ v+* - v- v-*) / 2."""
    n = A.shape[-1]
    skew = spec.space == SKEW_REAL
    lam, V = np.linalg.eigh(1j * A if skew else A)
    order = np.argsort(-np.abs(lam), axis=-1)
    rank = np.argsort(order, axis=-1)
    if not (spec.family == SCHATTEN and 1.0 < spec.p < math.inf):
        vals = np.take_along_axis(np.abs(lam), order, axis=-1)
        # a +-lambda pair is one relevant value
        _require_generic(vals[..., : 2 * (n // 2) : 2] if skew or n == 2 else vals, fro)
    weights, factor = _spectral_weights(lam, rank, spec)
    G = (V * weights[..., None, :]) @ V.conj().swapaxes(-1, -2)
    if skew:  # <G, iX> = <Im G, X> for real skew X
        J = G.imag
        G = (J - J.swapaxes(-1, -2)) / 2.0
    else:
        G = _traceless_part(G)
    return G * factor[..., None, None]


def norm_gradient(A: np.ndarray, spec: NormSpec) -> np.ndarray:
    """Trace-form gradient g of the norm at A: d/dt ||A + tH|| at 0 equals
    <g, H> for every direction H in the space.

    Closed form for every family (see :func:`_spectral_gradient`).  ``A``
    is one (n, n) space element or a (k, n, n) stack, which takes the same
    code; each member gets the gradient it gets alone.  The nonsmooth
    variants (Schatten 1 and inf, Ky Fan, c-spectral) need a spectrally
    generic point: a zero or degenerate member raises
    :class:`DegeneratePoint` naming it in ``members``.  <g, A> = ||A||.
    The gradient is homogeneous of degree 0, so it is taken at each member
    scaled by 2^-e, 2^e the power of two at or above its largest entry
    modulus: an exact scaling after which no spectral step over- or
    underflows, so every nonzero finite member has a gradient, and 2^j A
    gets the bits of A.
    """
    A, largest, shape = _check_space(A, spec)
    _check_parameters(spec, A.shape[-1])
    scaled, e = np.frexp(largest)  # scaled: each member's largest modulus after the scaling
    A = _ldexp(A, -e[:, None, None])
    fro = _frobenius(A, scaled)
    _refuse(fro == 0.0, "gradient undefined at the zero matrix")
    if spec.family == FROBENIUS:
        G = A / fro[:, None, None]
    else:
        G = _spectral_gradient(A, spec, fro)
    return G.reshape(shape)


def check_invariance(spec: NormSpec, n: int, trials: int, seed) -> float:
    """Max relative deviation of the norm over random group moves.

    Samples Haar unitaries acting by similarity (Hermitian space) or Haar
    orthogonal matrices acting by congruence (skew space) on random space
    elements, both drawn as stacks from one generator, and evaluates the
    moved and the unmoved elements in one stacked norm call; every
    implemented spec stays below 1e-10.  ``trials = 0`` gives 0.0; a
    negative or non-integer count raises InvalidDimension.
    """
    from .groups import haar_orthogonal, haar_unitary

    trials = _trial_count(trials)
    if trials == 0:
        return 0.0
    rng = _rng(seed)
    A = random_element(spec.space, n, rng, count=trials)
    haar = haar_unitary if spec.space == HERMITIAN_TRACELESS else haar_orthogonal
    U = haar(n, rng, count=trials)
    moved = U @ A @ U.conj().swapaxes(-1, -2)
    # one stacked evaluation, in which each member gets the bits it gets alone
    values = norm_value(np.concatenate([moved, A]), spec)
    base = values[trials:]
    return float(np.max(np.abs(values[:trials] - base) / base))
