"""Command-line verification suites with machine-readable reports.

Each suite runs a seeded batch of checks against the classified isometry
structure and emits a report whose records carry a check id, a theorem tag
(one of T1i, T1ii, C2, T3, CK_i, CK_ii, S4_psi, S4_youla), the measured
value, the expected value, and the tolerance.  Identical configuration and
seed give identical records; the process exits 0 only when every record
passes (1 on failure, 2 on usage errors).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import IsomlabError, InvalidNormSpec, NotAdjointImage, NotInClassifiedForm
from .estimate import (
    c_numerical_radius,
    c_numerical_range_sample,
    isometry_algebra_dimension,
    skew_isometry_algebra_dimension,
    verify_preserver_forms,
)
from .groups import (
    ad_matrix,
    cartan_matrix,
    haar_orthogonal,
    haar_unitary,
    psi_matrix,
    so_adjoint_matrix,
    tau_matrix,
    verify_sigma_normalizes,
)
from .matspace import (
    HERMITIAN_TRACELESS,
    SKEW_REAL,
    gell_mann_basis,
    random_element,
    skew_basis,
    space_dim,
    vectorize,
)
from .norms import (
    FROBENIUS,
    SCHATTEN,
    NormSpec,
    _check_parameters,
    c_spectral,
    check_invariance,
    frobenius,
    norm_value,
    parse_norm,
)
from .recover import (
    decompose_isometry,
    decompose_skew_isometry,
    recover_orthogonal_from_adso,
    unitary_phase_distance,
)
from .skew import char_poly_skew, pfaffian4, psi_apply, youla_decompose

DEFAULT_NORMS = ("schatten:1", "schatten:3", "frobenius", "cspec:1,0")

DEFAULT_TOL = {
    "invariance": 1e-10,
    "sigma_identity": 1e-11,
    "gap_ratio": 1e3,
    "roundtrip": 1e-8,
    "unitary_err": 1e-9,
    "youla": 1e-10,
    "charpoly": 1e-10,
    "reject_residual": 0.1,
    "radius": 1e-10,
    "perm_bound": 1e-9,
    "wc_interval": 1e-12,
}


@dataclass
class SuiteConfig:
    """Echoed verbatim into every report."""

    suite: str
    n_values: tuple[int, ...] = (2, 3, 4)
    norms: tuple[str, ...] = DEFAULT_NORMS
    space: str = "hermitian"
    samples: int = 0  # 0 means per-suite default
    seed: int = 0
    tol: dict = field(default_factory=dict)

    def validate(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        if not self.n_values:
            raise ValueError("at least one n value is needed")
        if any(n < 2 or n > 8 for n in self.n_values):
            raise ValueError("n values must lie in [2, 8]")
        if self.samples < 0:
            raise ValueError("samples must be >= 0 (0 picks the per-suite default)")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        for token in self.norms:
            try:
                _parse_token(token, self.space)
            except IsomlabError as exc:
                raise ValueError(str(exc)) from exc

    def tolerance(self, key: str) -> float:
        return float(self.tol.get(key, DEFAULT_TOL[key]))


@dataclass
class CheckRecord:
    check_id: str
    theorem_tag: str
    n: int
    spec: str
    value: float
    expected: float
    tolerance: float
    passed: bool
    error: str | None = None  # "Class: message" of an exception the check raised

    def as_dict(self) -> dict:
        out = {
            "check_id": self.check_id,
            "theorem_tag": self.theorem_tag,
            "n": self.n,
            "spec": self.spec,
            "value": self.value,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass
class ReportDocument:
    suite: str
    config: dict
    records: list
    runtime_ms: float
    version: str

    @property
    def overall_pass(self) -> bool:
        # a report with no records checked nothing, so it does not pass
        return bool(self.records) and all(r.passed for r in self.records)

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config": self.config,
            "records": [r.as_dict() for r in self.records],
            "runtime_ms": self.runtime_ms,
            "version": self.version,
        }


def _fmt_scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        # JSON has no NaN or infinity; a record holding one fails (_record)
        return format(x, ".17g") if math.isfinite(x) else "null"
    if isinstance(x, str):
        return json.dumps(x)
    if x is None:
        return "null"
    raise TypeError(f"cannot serialize {type(x)}")


def _fmt_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(k)}: {_fmt_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_fmt_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    return _fmt_scalar(obj)


def emit_report(doc: ReportDocument, fmt: str = "json") -> str:
    """Serialize a report; JSON has fixed key order and floats rendered
    with 17 significant digits, text is a human-readable table."""
    if fmt == "json":
        return _fmt_json(doc.as_dict()) + "\n"
    lines = [
        f"suite: {doc.suite}   version: {doc.version}   runtime: {doc.runtime_ms:.1f} ms",
        f"{'status':6s}  {'check':44s} {'tag':8s} {'n':>2s}  {'value':>12s}  {'expected':>12s}  {'tol':>9s}",
    ]
    for r in doc.records:
        lines.append(
            f"{'PASS' if r.passed else 'FAIL':6s}  {r.check_id:44s} {r.theorem_tag:8s} "
            f"{r.n:2d}  {r.value:12.5g}  {r.expected:12.5g}  {r.tolerance:9.2g}"
            + (f"  {r.error}" if r.error is not None else "")
        )
    n_pass = sum(r.passed for r in doc.records)
    lines.append(f"{n_pass}/{len(doc.records)} checks passed")
    return "\n".join(lines) + "\n"


def _record(check_id, tag, n, spec, value, expected, tol, mode="abs", error=None) -> CheckRecord:
    value = float(value)
    expected = float(expected)
    if mode == "abs":
        passed = abs(value - expected) <= tol
    elif mode == "eq":
        passed = value == expected
    else:  # "ge": value must be at least expected - tol
        passed = value >= expected - tol
    # a NaN or infinite entry is serialized as null and never passes
    passed = passed and error is None and all(math.isfinite(x) for x in (value, expected, tol))
    return CheckRecord(check_id, tag, n, spec, value, expected, float(tol), bool(passed), error)


#: exceptions a check may raise that become failing records, not an aborted report
CHECK_ERRORS = (IsomlabError, np.linalg.LinAlgError)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _guarded(rows, compute):
    """One record per row, from the values ``compute()`` returns in row
    order; compute runs at once, inside this call.  A row is
    ``(check_id, tag, n, spec, expected, tol[, mode])``.  If compute raises
    one of CHECK_ERRORS, every row becomes a failing record with a null
    value and the error attached."""
    try:
        values, error = compute(), None
    except CHECK_ERRORS as exc:
        values, error = [math.nan] * len(rows), _describe(exc)
    return [
        _record(check_id, tag, n, spec, value, *rest, error=error)
        for (check_id, tag, n, spec, *rest), value in zip(rows, values, strict=True)
    ]


def _parse_token(token: str, space: str) -> NormSpec:
    """Parse a norm token on the configured space ("hermitian" or "skew");
    cspec tokens always live on the skew space."""
    skew = space == "skew" or token.startswith("cspec")
    return parse_norm(token, SKEW_REAL if skew else HERMITIAN_TRACELESS)


def _specs(tokens, space: str, n: int):
    """(index, spec) of each norm token that, parsed on ``space``
    ("hermitian" or "skew"), fits n; a weight vector of the wrong length,
    say, is skipped.  Tokens that do not parse at all are usage errors
    (SuiteConfig.validate)."""
    for idx, token in enumerate(tokens):
        spec = _parse_token(token, space)
        try:
            _check_parameters(spec, n)
        except InvalidNormSpec:
            continue
        yield idx, spec


def _is_euclidean(spec: NormSpec) -> bool:
    return spec.family == FROBENIUS or (spec.family == SCHATTEN and spec.p == 2.0)


def _tag(spec: NormSpec, n: int) -> str:
    """Theorem tag of a check of ``spec`` at n: the Euclidean case T1ii
    needs n > 2 on the Hermitian space; the entry swap CK_ii needs a
    non-Euclidean norm at n = 4 on the skew space."""
    if spec.space == HERMITIAN_TRACELESS:
        return "T1ii" if (_is_euclidean(spec) and n > 2) else "T1i"
    return "CK_ii" if (n == 4 and not _is_euclidean(spec)) else "CK_i"


def _sigma_identity_worst(cfg: SuiteConfig, n: int, pairs: int):
    worst = 0.0
    for i in range(pairs):
        U = haar_unitary(n, [cfg.seed, n, 10_000 + i], special=True)
        worst = max(worst, verify_sigma_normalizes(U, 1, [cfg.seed, n, 20_000 + i]))
    return [worst]


def _invariance_records(cfg: SuiteConfig):
    trials = cfg.samples or 100
    records = []
    for n in cfg.n_values:
        for idx, spec in _specs(cfg.norms, cfg.space, n):
            tag = _tag(spec, n)
            check = f"invariance/{spec.token()}/n={n}"
            records += _guarded(
                [(check, tag, n, spec.token(), 0.0, cfg.tolerance("invariance"))],
                lambda: [check_invariance(spec, n, trials, [cfg.seed, n, idx])],
            )
        records += _guarded(
            [(f"sigma_identity/n={n}", "T1i", n, "", 0.0, cfg.tolerance("sigma_identity"))],
            lambda: _sigma_identity_worst(cfg, n, max(10, min(trials, 50))),
        )
    return records


def _dimension_and_gap(spec: NormSpec, n: int, seed):
    """Estimated isometry-algebra dimension and gap ratio, an exact gap
    (ratio inf) capped at 1e308 so that it passes as a finite value."""
    if spec.space == HERMITIAN_TRACELESS:
        rep = isometry_algebra_dimension(spec, n, seed=seed)
    else:
        rep = skew_isometry_algebra_dimension(spec, n, seed=seed)
    return [rep.estimated_dim, min(rep.gap_ratio, 1e308)]


def _dimension_records(cfg: SuiteConfig):
    records = []
    for n in cfg.n_values:
        for _, spec in _specs(cfg.norms, cfg.space, n):
            d = space_dim(spec.space, n)
            if d == 1:
                # so(2) is a line: every norm on it is a multiple of |x|, whose
                # isometries are +-1, and its one singular value has no gap to read
                continue
            tag = _tag(spec, n)
            token = spec.token()
            # the adjoint group has the dimension d of the space, its Lie algebra
            expected = d * (d - 1) // 2 if _is_euclidean(spec) else d
            check = f"dimension/{token}/n={n}"
            records += _guarded(
                [
                    (check, tag, n, token, expected, 0, "eq"),
                    (check + "/gap", tag, n, token, cfg.tolerance("gap_ratio"), 0.0, "ge"),
                ],
                lambda: _dimension_and_gap(spec, n, [cfg.seed, n]),
            )
    return records


def _hermitian_round_trips(cfg: SuiteConfig, spec: NormSpec, n: int, count: int):
    """Branch matches, worst residual and worst unitary error over ``count``
    random affine isometries of the Hermitian space."""
    basis = gell_mann_basis(n)
    sigma = cartan_matrix(basis)
    matches, worst_res, worst_uerr = 0, 0.0, 0.0
    for t in range(count):
        rng = np.random.default_rng([cfg.seed, n, t])
        eta = 1 if rng.integers(2) else -1
        flag = bool(rng.integers(2)) and n >= 3
        U = haar_unitary(n, [cfg.seed, n, t, 1], special=True)
        B = random_element(HERMITIAN_TRACELESS, n, [cfg.seed, n, t, 2])
        M = eta * ad_matrix(U, basis)
        if flag:
            M = M @ sigma
        dec = decompose_isometry(M, spec, offset=vectorize(B, basis), seed=[cfg.seed, n, t, 3])
        if dec.eta == eta and dec.sigma_flag == flag:
            matches += 1
        worst_res = max(worst_res, dec.residual)
        worst_uerr = max(worst_uerr, unitary_phase_distance(U, dec.unitary))
    return [matches, worst_res, worst_uerr]


def _frobenius_deviation(cfg: SuiteConfig, n: int, rotations):
    """Worst relative change of the Frobenius norm under the rotations."""
    fro = frobenius()
    basis = gell_mann_basis(n)
    worst_dev = 0.0
    for t, M in enumerate(rotations):
        for i in range(10):
            A = random_element(HERMITIAN_TRACELESS, n, [cfg.seed, 32, t, i])
            moved = M @ vectorize(A, basis)
            dev = abs(float(np.linalg.norm(moved)) - norm_value(A, fro)) / norm_value(A, fro)
            worst_dev = max(worst_dev, dev)
    return [worst_dev]


def _euclidean_rejections(cfg: SuiteConfig, rotations):
    """How many of the rotations decompose_isometry rejects as having no
    canonical form."""
    fro = frobenius()
    rejected = 0
    for t, M in enumerate(rotations):
        try:
            decompose_isometry(M, fro, seed=[cfg.seed, 33, t])
        except NotInClassifiedForm:
            rejected += 1
    return [rejected]


def _skew_round_trips(cfg: SuiteConfig, spec: NormSpec, n: int, count: int, use_psi: bool):
    """Branch matches and worst residual over ``count`` random skew-space
    isometries, with the n = 4 coordinate swap when ``use_psi``."""
    basis = skew_basis(n)
    psi = psi_matrix() if use_psi else None
    matches, worst_res = 0, 0.0
    for t in range(count):
        rng = np.random.default_rng([cfg.seed, 41, n, t])
        sign = 1 if rng.integers(2) else -1
        flag = bool(rng.integers(2)) if use_psi else False
        Q = haar_orthogonal(n, [cfg.seed, 42, n, t], special=True)
        M = sign * so_adjoint_matrix(Q, basis)
        if flag:
            M = M @ psi
        dec = decompose_skew_isometry(M, spec, seed=[cfg.seed, 43, n, t])
        if (dec.sign, dec.psi_flag) == (sign, flag):
            matches += 1
        worst_res = max(worst_res, dec.residual)
    return [matches, worst_res]


def _first_non_euclidean(cfg: SuiteConfig, space: str, n: int, target: str) -> NormSpec | None:
    """The first configured norm that, parsed on ``space``, fits n, lives
    on the ``target`` matrix space and is not Euclidean; None if none does."""
    for _, spec in _specs(cfg.norms, space, n):
        if spec.space == target and not _is_euclidean(spec):
            return spec
    return None


def _decompose_records(cfg: SuiteConfig):
    count = cfg.samples or 20
    records = []
    # parsed on the configured space, so under --space skew this falls back
    spec = _first_non_euclidean(cfg, cfg.space, min(cfg.n_values), HERMITIAN_TRACELESS)
    if spec is None:
        spec = parse_norm("schatten:3")

    for n in cfg.n_values:
        token = spec.token()
        records += _guarded(
            [
                (f"decompose/branch_match/n={n}", "C2", n, token, count, 0, "eq"),
                (f"decompose/residual/n={n}", "C2", n, token, 0.0, cfg.tolerance("roundtrip")),
                (f"decompose/unitary_err/n={n}", "C2", n, token, 0.0, cfg.tolerance("unitary_err")),
            ],
            lambda: _hermitian_round_trips(cfg, spec, n, count),
        )

    # negative control: generic rotations preserve only the Euclidean norm
    n = 3 if 3 in cfg.n_values else max(cfg.n_values[0], 3)
    rotations = [haar_orthogonal(n * n - 1, [cfg.seed, 31, t], special=True) for t in range(count)]
    records += _guarded(
        [
            (
                f"negative_control/frobenius_isometry/n={n}", "T1ii", n, "frobenius",
                0.0, cfg.tolerance("invariance"),
            )
        ],
        lambda: _frobenius_deviation(cfg, n, rotations),
    )
    records += _guarded(
        [
            (
                f"negative_control/rejected/n={n}", "T1ii", n, "frobenius",
                math.ceil(0.99 * count), 0.0, "ge",
            )
        ],
        lambda: _euclidean_rejections(cfg, rotations),
    )

    # skew round trips
    for n in cfg.n_values:
        if n < 3:
            continue
        skew_spec = _first_non_euclidean(cfg, "skew", n, SKEW_REAL)
        if skew_spec is None:
            weights = tuple(float(n // 2 - i) for i in range(n // 2))
            skew_spec = c_spectral(weights)
        for tag, use_psi in (("CK_i", False), ("CK_ii", True)):
            if use_psi and n != 4:
                continue
            suffix = "psi" if use_psi else "plain"
            token = skew_spec.token()
            records += _guarded(
                [
                    (f"decompose_skew/{suffix}/branch_match/n={n}", tag, n, token, count, 0, "eq"),
                    (
                        f"decompose_skew/{suffix}/residual/n={n}", tag, n,
                        token, 0.0, cfg.tolerance("roundtrip"),
                    ),
                ],
                lambda: _skew_round_trips(cfg, skew_spec, n, count, use_psi),
            )
    return records


def _youla_worst(cfg: SuiteConfig, n: int, count: int):
    """Worst scaled reconstruction residual and worst singular-value error of
    the block canonical form over ``count`` random skew matrices."""
    worst_rec, worst_sv = 0.0, 0.0
    for t in range(count):
        A = random_element(SKEW_REAL, n, [cfg.seed, 51, n, t])
        form = youla_decompose(A)
        worst_rec = max(worst_rec, form.residual / (1.0 + float(np.max(np.abs(A)))))
        sv_ref = np.linalg.svd(A, compute_uv=False)
        worst_sv = max(worst_sv, float(np.max(np.abs(form.singular_values - sv_ref))))
    return [worst_rec, worst_sv]


def _psi_charpoly_worst(cfg: SuiteConfig, count: int):
    """Worst scaled change of the characteristic polynomial under psi, and
    worst miss of its Pfaffian form, over ``count`` random 4 x 4 skew
    matrices."""
    worst_cp, worst_pf = 0.0, 0.0
    for t in range(count):
        A = random_element(SKEW_REAL, 4, [cfg.seed, 52, t])
        ca = char_poly_skew(A)
        cb = char_poly_skew(psi_apply(A))
        scale = 1.0 + float(np.max(np.abs(ca)))
        worst_cp = max(worst_cp, float(np.max(np.abs(ca - cb))) / scale)
        p = float(np.sum(np.triu(A, 1) ** 2))
        ident = np.array([1.0, 0.0, p, 0.0, pfaffian4(A) ** 2])
        worst_pf = max(worst_pf, float(np.max(np.abs(ca - ident))) / scale)
    return [worst_cp, worst_pf]


def _psi_closure_worst(cfg: SuiteConfig, count: int):
    psi = psi_matrix()
    worst_cl = 0.0
    for t in range(count):
        Q = haar_orthogonal(4, [cfg.seed, 53, t], special=True)
        _, res = recover_orthogonal_from_adso(psi @ so_adjoint_matrix(Q) @ psi, 4)
        worst_cl = max(worst_cl, res)
    return [worst_cl]


def _psi_reject_residual():
    """Smallest residual with which psi and -psi are refused as congruence
    images (0 if either is accepted).  Only a failed recovery counts as a
    refusal; any other error fails the check."""
    psi = psi_matrix()
    reject_res = math.inf
    for M in (psi, -psi):
        try:
            recover_orthogonal_from_adso(M, 4)
            reject_res = 0.0
        except NotAdjointImage as exc:
            reject_res = min(reject_res, exc.residual)
    return [reject_res]


def _skew_records(cfg: SuiteConfig):
    count = cfg.samples or 50
    records = []
    for n in cfg.n_values:
        records += _guarded(
            [
                (f"youla/reconstruction/n={n}", "S4_youla", n, "", 0.0, cfg.tolerance("youla")),
                (f"youla/singular_values/n={n}", "S4_youla", n, "", 0.0, cfg.tolerance("youla")),
            ],
            lambda: _youla_worst(cfg, n, count),
        )
        basis = skew_basis(n)
        records += _guarded(
            [(f"tau_is_negation/n={n}", "CK_i", n, "", 0.0, 0.0)],
            lambda: [float(np.max(np.abs(tau_matrix(basis) + np.eye(basis.d))))],
        )

    if 4 in cfg.n_values:
        records += _guarded(
            [
                ("psi/charpoly_invariant/n=4", "S4_psi", 4, "", 0.0, cfg.tolerance("charpoly")),
                ("psi/pfaffian_identity/n=4", "S4_psi", 4, "", 0.0, cfg.tolerance("charpoly")),
            ],
            lambda: _psi_charpoly_worst(cfg, cfg.samples or 200),
        )
        records += _guarded(
            [("psi/normalizer_closure/n=4", "S4_psi", 4, "", 0.0, cfg.tolerance("roundtrip"))],
            lambda: _psi_closure_worst(cfg, min(count, 100)),
        )
        records += _guarded(
            [("psi/not_adjoint_image/n=4", "S4_psi", 4, "", cfg.tolerance("reject_residual"), 0, "ge")],
            _psi_reject_residual,
        )
    return records


def _range_containment_worst(cfg: SuiteConfig, n: int, trials: int):
    """Largest excursion of a 400-draw Haar orbit sample outside the exact
    range, over ``trials`` random pairs."""
    worst = 0.0
    for t in range(trials):
        A = random_element(HERMITIAN_TRACELESS, n, [cfg.seed, 63, n, t])
        C = random_element(HERMITIAN_TRACELESS, n, [cfg.seed, 64, n, t])
        s = c_numerical_range_sample(A, C, 400, seed=[cfg.seed, 65, n, t])
        worst = max(worst, s.lo - np.min(s.values), np.max(s.values) - s.hi)
    return [worst]


def _preserver_deviations(cfg: SuiteConfig, n: int, trials: int):
    C = random_element(HERMITIAN_TRACELESS, n, [cfg.seed, 66])
    rep = verify_preserver_forms(C, n, trials=trials, seed=[cfg.seed, 67])
    return [max(rep.radius_dev.values()), rep.wc_interval_dev, rep.wc_pointwise_dev]


def _cnr_records(cfg: SuiteConfig):
    records = []
    trials = cfg.samples or 10
    rng = np.random.default_rng([cfg.seed, 61])
    a, c = 0.5 + rng.random(2)
    A = np.diag([a, -a]).astype(complex)
    C = np.diag([c, -c]).astype(complex)
    records += _guarded(
        [("cnr/n2_analytic", "T3", 2, "", 2 * a * c, cfg.tolerance("radius"))],
        lambda: [c_numerical_radius(A, C)],
    )
    for n in cfg.n_values:
        records += _guarded(
            [(f"cnr/range_containment/n={n}", "T3", n, "", 0.0, cfg.tolerance("perm_bound"))],
            lambda: _range_containment_worst(cfg, n, min(trials, 10)),
        )
    n = 3 if 3 in cfg.n_values else cfg.n_values[0]
    records += _guarded(
        [
            (f"cnr/preserver_radius/n={n}", "T3", n, "", 0.0, cfg.tolerance("radius")),
            (f"cnr/preserver_wc_interval/n={n}", "T3", n, "", 0.0, cfg.tolerance("wc_interval")),
            (f"cnr/preserver_wc_pointwise/n={n}", "T3", n, "", 0.0, 1e-12),
        ],
        lambda: _preserver_deviations(cfg, n, min(trials, 20)),
    )
    return records


#: each suite's record builder, in the order "all" runs them
_SUITE_RECORDS = {
    "invariance": _invariance_records,
    "dimension": _dimension_records,
    "decompose": _decompose_records,
    "skew": _skew_records,
    "cnr": _cnr_records,
}

SUITES = (*_SUITE_RECORDS, "all")


def run_suite(config: SuiteConfig) -> ReportDocument:
    """Execute a suite deterministically under its seed and assemble the
    report document."""
    config.validate()
    t0 = time.perf_counter()
    records = []
    for suite, build in _SUITE_RECORDS.items():
        if config.suite in (suite, "all"):
            records += build(config)
    runtime_ms = (time.perf_counter() - t0) * 1e3
    echo = {
        "suite": config.suite,
        "n_values": list(config.n_values),
        "norms": list(config.norms),
        "space": config.space,
        "samples": config.samples,
        "seed": config.seed,
        "tol": {k: float(v) for k, v in sorted(config.tol.items())},
    }
    return ReportDocument(
        suite=config.suite,
        config=echo,
        records=records,
        runtime_ms=runtime_ms,
        version=__version__,
    )


def _parse_tol(pairs):
    tol = {}
    for p in pairs or ():
        key, _, val = p.partition("=")
        if key not in DEFAULT_TOL:
            raise argparse.ArgumentTypeError(f"unknown tolerance key {key!r}")
        tol[key] = float(val)
        if not (math.isfinite(tol[key]) and tol[key] >= 0):
            raise argparse.ArgumentTypeError(f"tolerance {key} must be finite and >= 0, got {val!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isomlab",
        description="Seeded verification suites for isometry groups of invariant matrix norms.",
    )
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument(
        "--n",
        default="2,3,4",
        help="comma-separated matrix sizes in [2, 8] (default 2,3,4)",
    )
    parser.add_argument(
        "--norm",
        action="append",
        help="norm token: frobenius | schatten:<p> | kyfan:<k> | cspec:<c1,c2,...>; repeatable",
    )
    parser.add_argument(
        "--space",
        choices=("hermitian", "skew"),
        default="hermitian",
        help="space for frobenius/schatten/kyfan tokens (cspec is always skew)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=0,
        help="sample/trial count (0 = suite default); unbounded work in the "
        "invariance, decompose, skew and cnr suites; the dimension suite ignores "
        "it and always uses d^2 + d constraint rows",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed (64-bit unsigned)")
    parser.add_argument("--tol", action="append", metavar="KEY=VALUE", help="tolerance override; repeatable")
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = SuiteConfig(
            suite=args.suite,
            n_values=tuple(int(x) for x in args.n.split(",")),
            norms=tuple(args.norm) if args.norm else DEFAULT_NORMS,
            space=args.space,
            samples=args.samples,
            seed=args.seed,
            tol=_parse_tol(args.tol),
        )
        config.validate()
    except (ValueError, argparse.ArgumentTypeError) as exc:
        parser.error(str(exc))  # exits 2
    out = None
    if args.out:
        # an unwritable report is a usage error, found before any suite runs
        try:
            out = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            parser.error(f"cannot write report: {exc}")
    doc = run_suite(config)
    text = emit_report(doc, args.fmt)
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with out:
                out.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 1
        print(f"{sum(r.passed for r in doc.records)}/{len(doc.records)} checks passed")
    return 0 if doc.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
