"""The benchmark's workloads: inputs made from a seed, the library calls a
pass makes one at a time, and the checks on their outputs.

Every library function is looked up in its isomlab module at call time, so a
traced pass goes through the same wrappers as the library's own consumers.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

#: tolerances of the decompose_stream checks
RECOVERY_TOL = 1e-9
RESIDUAL_TOL = 1e-8


def lib(module: str):
    return importlib.import_module(f"isomlab.{module}")


@dataclass
class Call:
    """One library call of a pass.

    ``check`` maps the call's result, or the exception it raised, to a list
    of ``(check_id, passed)``; ``span`` names the benchmark's own span
    around the call in a traced pass.
    """

    label: str
    module: str
    func: str
    args: tuple
    check: Callable
    kwargs: dict = field(default_factory=dict)
    span: str | None = None

    def __call__(self):
        return getattr(lib(self.module), self.func)(*self.args, **self.kwargs)


@dataclass
class Workload:
    """A workload; why each exists is stated in BENCHMARK.json and README.md."""

    name: str
    build: Callable  # seed -> list[Call]
    warmup: Callable  # seed -> list[Call], small calls on the same paths
    accuracy: Callable  # list of pass results -> decimal digits


def _raised(out) -> bool:
    return isinstance(out, BaseException)


def _error_check(label, out):
    return [(f"{label}/raised:{type(out).__name__}", False)]


# ---------------------------------------------------------------- suite_all

SUITES = ("invariance", "dimension", "decompose", "skew", "cnr")


def _suite_check(label):
    def check(doc):
        if _raised(doc):
            return _error_check(label, doc)
        if not doc.records:
            return [(f"{label}/no_records", False)]
        return [(f"{label}/{r.check_id}", bool(r.passed)) for r in doc.records]

    return check


def _suite_calls(seed, **config):
    cli = lib("cli")
    return [
        Call(
            label=f"suite/{s}",
            module="cli",
            func="run_suite",
            args=(cli.SuiteConfig(suite=s, seed=seed, **config),),
            check=_suite_check(f"suite/{s}"),
            span=f"cli.suite.{s}",
        )
        for s in SUITES
    ]


def _suite_accuracy(results):
    """log10 of the smallest singular-value gap ratio among the dimension
    records."""
    gaps = [
        r.value
        for doc in results
        if not _raised(doc)
        for r in doc.records
        if r.check_id.endswith("/gap")
    ]
    return math.log10(min(gaps)) if gaps else 0.0


# ---------------------------------------------------------- dimension_large

# (span key, norm token, n, expected dimension)
DIMENSION_CASES = (
    ("schatten3_n7", "schatten:3", 7, 48),
    ("schatten1_n5", "schatten:1", 5, 24),
    ("cspec_n8", "cspec:3,2,1,0", 8, 28),
    ("frobenius_n5", "frobenius", 5, 276),
)


def _dimension_call(key, token, n, expected, seed, span):
    norms = lib("norms")
    spec = norms.parse_norm(token)
    func = (
        "isometry_algebra_dimension"
        if spec.space == lib("matspace").HERMITIAN_TRACELESS
        else "skew_isometry_algebra_dimension"
    )
    label = f"dimension/{key}"

    def check(rep):
        if _raised(rep):
            return _error_check(label, rep)
        return [(f"{label}/dim={expected}", rep.estimated_dim == expected)]

    return Call(
        label=label, module="estimate", func=func, args=(spec, n),
        kwargs={"seed": [seed, n]}, check=check, span=span,
    )


def _dimension_calls(seed):
    return [
        _dimension_call(key, token, n, expected, seed, f"estimate.dim.{key}")
        for key, token, n, expected in DIMENSION_CASES
    ]


def _dimension_warmup(seed):
    small = (
        ("schatten3_n3", "schatten:3", 3, 8),
        ("schatten1_n3", "schatten:1", 3, 8),
        ("cspec_n4", "cspec:2,1", 4, 6),
        ("frobenius_n3", "frobenius", 3, 28),
    )
    return [_dimension_call(k, t, n, e, seed, None) for k, t, n, e in small]


def _dimension_accuracy(results):
    gaps = [rep.gap_ratio for rep in results if not _raised(rep)]
    return math.log10(min(gaps)) if gaps else 0.0


# --------------------------------------------------------- decompose_stream

STREAM_N = (3, 4, 5, 6)
PER_N = 40
EUCLIDEAN_MAPS = 40


def _hermitian_call(seed, n, t):
    groups, matspace, norms, recover = lib("groups"), lib("matspace"), lib("norms"), lib("recover")
    rng = np.random.default_rng([seed, 1, n, t])
    eta = 1 if rng.integers(2) else -1
    flag = bool(rng.integers(2))
    basis = matspace.gell_mann_basis(n)
    U = groups.haar_unitary(n, [seed, 2, n, t], special=True)
    B = matspace.random_element(matspace.HERMITIAN_TRACELESS, n, [seed, 3, n, t])
    M = eta * groups.ad_matrix(U, basis)
    if flag:
        M = M @ groups.cartan_matrix(basis)
    label = f"decompose/hermitian/n={n}/{t}"

    def check(dec):
        if _raised(dec):
            return _error_check(label, dec)
        return [
            (f"{label}/branch", (dec.eta, dec.sigma_flag) == (eta, flag)),
            (f"{label}/unitary", recover.unitary_phase_distance(U, dec.unitary) <= RECOVERY_TOL),
            (f"{label}/residual", dec.residual <= RESIDUAL_TOL),
        ]

    return Call(
        label=label, module="recover", func="decompose_isometry",
        args=(M, norms.schatten(3)),
        kwargs={"offset": matspace.vectorize(B, basis), "seed": [seed, 4, n, t]},
        check=check,
    )


def _skew_call(seed, n, t):
    groups, matspace, norms, recover = lib("groups"), lib("matspace"), lib("norms"), lib("recover")
    rng = np.random.default_rng([seed, 5, n, t])
    sign = 1 if rng.integers(2) else -1
    flag = n == 4 and bool(rng.integers(2))
    basis = matspace.skew_basis(n)
    Q = groups.haar_orthogonal(n, [seed, 6, n, t], special=True)
    M = sign * groups.so_adjoint_matrix(Q, basis)
    if flag:
        M = M @ groups.psi_matrix()
    spec = norms.c_spectral([float(n // 2 - i) for i in range(n // 2)])
    label = f"decompose/skew/n={n}/{t}"

    def check(dec):
        if _raised(dec):
            return _error_check(label, dec)
        return [
            (f"{label}/branch", (dec.sign, dec.psi_flag) == (sign, flag)),
            (f"{label}/orthogonal", recover.orthogonal_sign_distance(Q, dec.orthogonal) <= RECOVERY_TOL),
            (f"{label}/residual", dec.residual <= RESIDUAL_TOL),
        ]

    return Call(
        label=label, module="recover", func="decompose_skew_isometry",
        args=(M, spec), kwargs={"seed": [seed, 7, n, t]}, check=check,
    )


def _euclidean_call(seed, t):
    groups, norms, errors = lib("groups"), lib("norms"), lib("errors")
    M = groups.haar_orthogonal(15, [seed, 8, t], special=True)
    label = f"decompose/euclidean/n=4/{t}"

    def check(out):
        return [(f"{label}/rejected", isinstance(out, errors.NotInClassifiedForm))]

    return Call(
        label=label, module="recover", func="decompose_isometry",
        args=(M, norms.frobenius()), kwargs={"seed": [seed, 9, t]}, check=check,
    )


def _decompose_calls(seed, n_values=STREAM_N, per_n=PER_N, euclidean=EUCLIDEAN_MAPS):
    calls = [_hermitian_call(seed, n, t) for n in n_values for t in range(per_n)]
    calls += [_skew_call(seed, n, t) for n in n_values for t in range(per_n)]
    calls += [_euclidean_call(seed, t) for t in range(euclidean)]
    return calls


def _decompose_accuracy(results):
    """-log10 of the largest reconstruction residual."""
    res = [d.residual for d in results if not _raised(d)]
    return -math.log10(max(max(res), 1e-300)) if res else 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "suite_all",
            _suite_calls,
            lambda seed: _suite_calls(seed, n_values=(2, 3), samples=2),
            _suite_accuracy,
        ),
        Workload(
            "dimension_large",
            _dimension_calls,
            _dimension_warmup,
            _dimension_accuracy,
        ),
        Workload(
            "decompose_stream",
            _decompose_calls,
            lambda seed: _decompose_calls(seed, n_values=(3, 4), per_n=1, euclidean=1),
            _decompose_accuracy,
        ),
    )
}
