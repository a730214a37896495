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
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .errors import IsomlabError, InvalidNormSpec, NotAdjointImage, NotInClassifiedForm
from .estimate import (
    GAP_RATIO_MIN,
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
    verify_sigma_normalizes,
)
from .matspace import (
    HERMITIAN_TRACELESS,
    SKEW_REAL,
    gell_mann_basis,
    random_element,
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
    "gap_ratio": GAP_RATIO_MIN,
    "containment": 1e-12,
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
        for val in (self.seed, self.samples, *self.n_values):
            if not isinstance(val, int) or isinstance(val, bool):
                raise ValueError(f"seed, samples and n values must be integers, got {val!r}")
        if any(n < 2 or n > 8 for n in self.n_values):
            raise ValueError("n values must lie in [2, 8]")
        if len(set(self.n_values)) < len(self.n_values):
            raise ValueError(f"n values must be distinct, got {list(self.n_values)}")
        if self.samples < 0:
            raise ValueError("samples must be >= 0 (0 picks the per-suite default)")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.space not in ("hermitian", "skew"):
            raise ValueError(f"unknown space {self.space!r}")
        for key, val in self.tol.items():
            if key not in DEFAULT_TOL:
                raise ValueError(f"unknown tolerance key {key!r}")
            if isinstance(val, bool) or not (isinstance(val, (int, float)) and math.isfinite(val) and val >= 0):
                raise ValueError(f"tolerance {key} must be finite and >= 0, got {val!r}")
        seen = {}  # token() of each norm -> the token that named it
        for token in self.norms:
            try:
                name = _parse_token(token, self.space).token()
            except IsomlabError as exc:
                raise ValueError(str(exc)) from exc
            if name in seen:
                raise ValueError(f"norm tokens {seen[name]!r} and {token!r} both name {name}")
            seen[name] = token

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
        out = asdict(self)
        error = out.pop("error")
        out["pass"] = out.pop("passed")
        if error is not None:
            out["error"] = error
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
        return {**vars(self), "records": [r.as_dict() for r in self.records]}


def emit_report(doc: ReportDocument, fmt: str = "json") -> str:
    """Serialize a report; JSON has fixed key order, floats in shortest
    round-trip form and null for a non-finite value, text is a
    human-readable table."""
    if fmt == "json":
        out = doc.as_dict()
        for rec in out["records"]:
            # JSON has no NaN or infinity; a record holding one fails (_record)
            for key in ("value", "expected", "tolerance"):
                if not math.isfinite(rec[key]):
                    rec[key] = None
        return json.dumps(out, indent=2, allow_nan=False) + "\n"
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
    # mode "ge": value must be at least expected - tol
    passed = abs(value - expected) <= tol if mode == "abs" else value >= expected - tol
    # a NaN or infinite entry is serialized as null and never passes
    passed = passed and error is None and all(math.isfinite(x) for x in (value, expected, tol))
    return CheckRecord(check_id, tag, n, spec, value, expected, float(tol), bool(passed), error)


#: exceptions a check may raise that become failing records, not an aborted report
CHECK_ERRORS = (IsomlabError, np.linalg.LinAlgError)


def _group(cfg: SuiteConfig, tag: str, n: int, spec: str, rows, compute, rng=None):
    """The records of one group of checks, all with theorem tag ``tag``,
    size n and norm token ``spec`` ("" for none).  A row is
    ``(check_id, expected, tol[, mode])``, tol a DEFAULT_TOL key or a
    number.  ``compute(rng)`` runs at once and returns one value per row, in
    row order; rng is the group's stream (_stream of its first check id)
    unless the caller built it.  If compute raises one of CHECK_ERRORS,
    every row becomes a failing record with a null value and the error
    attached."""
    try:
        values, error = compute(_stream(cfg, rows[0][0]) if rng is None else rng), None
    except CHECK_ERRORS as exc:
        values, error = [math.nan] * len(rows), f"{type(exc).__name__}: {exc}"
    return [
        _record(
            check_id, tag, n, spec, value, expected,
            cfg.tolerance(tol) if isinstance(tol, str) else tol, *mode, error=error,
        )
        for (check_id, expected, tol, *mode), value in zip(rows, values, strict=True)
    ]


def _parse_token(token: str, space: str) -> NormSpec:
    """Parse a norm token on the configured space ("hermitian" or "skew");
    under "hermitian" ``parse_norm`` picks the space (skew for cspec)."""
    return parse_norm(token, SKEW_REAL if space == "skew" else None)


def _specs(tokens, space: str, n: int):
    """Each norm token that, parsed on ``space`` ("hermitian" or "skew"),
    fits n; a weight vector of the wrong length, say, is skipped.  Tokens
    that do not parse at all are usage errors (SuiteConfig.validate)."""
    for token in tokens:
        spec = _parse_token(token, space)
        try:
            _check_parameters(spec, n)
        except InvalidNormSpec:
            continue
        yield spec


def _stream(cfg: SuiteConfig, check_id: str) -> np.random.Generator:
    """The one generator a record group draws all its inputs from, keyed by
    the master seed and the group's first check id, so that no two groups
    of a report share a stream."""
    key = tuple(check_id.encode())
    return np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=key))


def _is_euclidean(spec: NormSpec) -> bool:
    return spec.family == FROBENIUS or (spec.family == SCHATTEN and spec.p == 2.0)


def _tag(spec: NormSpec, n: int) -> str:
    """Theorem tag of a check of ``spec`` at n: the Euclidean case T1ii
    needs n > 2 on the Hermitian space; the entry swap CK_ii needs a
    non-Euclidean norm at n = 4 on the skew space."""
    if spec.space == HERMITIAN_TRACELESS:
        return "T1ii" if (_is_euclidean(spec) and n > 2) else "T1i"
    return "CK_ii" if (n == 4 and not _is_euclidean(spec)) else "CK_i"


def _sigma_identity_worst(n: int, pairs: int, rng):
    U = haar_unitary(n, rng, special=True, count=pairs)
    return [verify_sigma_normalizes(U, 1, rng)]


def _invariance_records(cfg: SuiteConfig):
    trials = cfg.samples or 100
    records = []
    for n in cfg.n_values:
        for spec in _specs(cfg.norms, cfg.space, n):
            records += _group(
                cfg, _tag(spec, n), n, spec.token(),
                [(f"invariance/{spec.token()}/n={n}", 0.0, "invariance")],
                lambda rng: [check_invariance(spec, n, trials, rng)],
            )
        records += _group(
            cfg, "T1i", n, "", [(f"sigma_identity/n={n}", 0.0, "sigma_identity")],
            lambda rng: _sigma_identity_worst(n, max(10, min(trials, 50)), rng),
        )
    return records


def _dimension_values(spec: NormSpec, n: int, seed):
    """Estimated isometry-algebra dimension, gap ratio and containment
    residual of the adjoint algebra's generators."""
    if spec.space == HERMITIAN_TRACELESS:
        rep = isometry_algebra_dimension(spec, n, seed=seed)
    else:
        rep = skew_isometry_algebra_dimension(spec, n, seed=seed)
    return [rep.estimated_dim, rep.gap_ratio, rep.containment_residual]


def _dimension_records(cfg: SuiteConfig):
    records = []
    for n in cfg.n_values:
        for spec in _specs(cfg.norms, cfg.space, n):
            d = space_dim(spec.space, n)
            if d == 1:
                # so(2) is a line: every norm on it is a multiple of |x|, whose
                # isometries are +-1, and its one singular value has no gap to read
                continue
            # the adjoint group has the dimension d of the space, its Lie algebra
            expected = d * (d - 1) // 2 if _is_euclidean(spec) else d
            check = f"dimension/{spec.token()}/n={n}"
            records += _group(
                cfg, _tag(spec, n), n, spec.token(),
                [
                    (check, expected, 0),
                    (check + "/gap", cfg.tolerance("gap_ratio"), 0.0, "ge"),
                    (check + "/containment", 0.0, "containment"),
                ],
                lambda rng: _dimension_values(spec, n, rng),
            )
    return records


def _hermitian_round_trips(spec: NormSpec, n: int, count: int, rng):
    """Branch matches, worst residual and worst unitary error over ``count``
    random affine isometries of the Hermitian space, decomposed as one
    stack."""
    basis = gell_mann_basis(n)
    eta = 1 - 2 * rng.integers(2, size=count)
    flag = rng.integers(2, size=count).astype(bool) & (n >= 3)
    U = haar_unitary(n, rng, special=True, count=count)
    B = vectorize(random_element(HERMITIAN_TRACELESS, n, rng, count=count), basis)
    M = eta[:, None, None] * ad_matrix(U, basis)
    M[flag] = M[flag] @ cartan_matrix(basis)
    decs = decompose_isometry(M, spec, offset=B, seed=rng)
    found = np.array([(dec.eta, dec.sigma_flag, dec.residual) for dec in decs])
    matches = np.count_nonzero((found[:, 0] == eta) & (found[:, 1] == flag))
    uerr = unitary_phase_distance(U, np.stack([dec.unitary for dec in decs]))
    return [matches, np.max(found[:, 2], initial=0.0), np.max(uerr, initial=0.0)]


def _frobenius_deviation(n: int, count: int, rng):
    """Worst relative change of the Frobenius norm under ``count`` Haar
    rotations of the coordinates, 10 random elements each."""
    basis = gell_mann_basis(n)
    rotations = haar_orthogonal(basis.d, rng, special=True, count=count)
    A = random_element(HERMITIAN_TRACELESS, n, rng, count=10 * count)
    moved = rotations @ vectorize(A, basis).reshape(count, 10, basis.d).swapaxes(1, 2)
    fro = norm_value(A, frobenius())
    return [float(np.max(np.abs(np.linalg.norm(moved, axis=1).ravel() - fro) / fro))]


def _euclidean_rejections(n: int, count: int, rng):
    """How many of ``count`` Haar rotations of the coordinates, decomposed
    as one stack, decompose_isometry rejects as having no canonical form."""
    rotations = haar_orthogonal(n * n - 1, rng, special=True, count=count)
    try:
        decompose_isometry(rotations, frobenius(), seed=rng)
    except NotInClassifiedForm as exc:
        return [len(exc.members)]
    return [0]


def _skew_round_trips(spec: NormSpec, n: int, count: int, use_psi: bool, rng):
    """Branch matches and worst residual over ``count`` random skew-space
    isometries, with the n = 4 coordinate swap when ``use_psi``, decomposed
    as one stack."""
    sign = 1 - 2 * rng.integers(2, size=count)
    flag = rng.integers(2, size=count).astype(bool) & use_psi
    Q = haar_orthogonal(n, rng, special=True, count=count)
    M = sign[:, None, None] * so_adjoint_matrix(Q)
    if use_psi:
        M[flag] = M[flag] @ psi_matrix()
    decs = decompose_skew_isometry(M, spec, seed=rng)
    found = np.array([(dec.sign, dec.psi_flag, dec.residual) for dec in decs])
    matches = np.count_nonzero((found[:, 0] == sign) & (found[:, 1] == flag))
    return [matches, np.max(found[:, 2], initial=0.0)]


def _decompose_records(cfg: SuiteConfig):
    count = cfg.samples or 20
    records = []
    # the first non-Euclidean Hermitian norm that fits; parsed on the
    # configured space, so under --space skew this falls back
    specs = _specs(cfg.norms, cfg.space, min(cfg.n_values))
    spec = next((s for s in specs if s.space == HERMITIAN_TRACELESS and not _is_euclidean(s)), None)
    spec = spec or parse_norm("schatten:3")

    for n in cfg.n_values:
        records += _group(
            cfg, "C2", n, spec.token(),
            [
                (f"decompose/branch_match/n={n}", count, 0),
                (f"decompose/residual/n={n}", 0.0, "roundtrip"),
                (f"decompose/unitary_err/n={n}", 0.0, "unitary_err"),
            ],
            lambda rng: _hermitian_round_trips(spec, n, count, rng),
        )

    # negative control: generic rotations preserve only the Euclidean norm
    n = 3 if 3 in cfg.n_values else max(cfg.n_values[0], 3)
    records += _group(
        cfg, "T1ii", n, "frobenius",
        [(f"negative_control/frobenius_isometry/n={n}", 0.0, "invariance")],
        lambda rng: _frobenius_deviation(n, count, rng),
    )
    records += _group(
        cfg, "T1ii", n, "frobenius",
        [(f"negative_control/rejected/n={n}", math.ceil(0.99 * count), 0.0, "ge")],
        lambda rng: _euclidean_rejections(n, count, rng),
    )

    # skew round trips
    for n in cfg.n_values:
        if n < 3:
            continue
        skew_spec = next((s for s in _specs(cfg.norms, "skew", n) if not _is_euclidean(s)), None)
        skew_spec = skew_spec or c_spectral(float(n // 2 - i) for i in range(n // 2))
        for tag, use_psi in (("CK_i", False), ("CK_ii", True)):
            if use_psi and n != 4:
                continue
            suffix = "psi" if use_psi else "plain"
            records += _group(
                cfg, tag, n, skew_spec.token(),
                [
                    (f"decompose_skew/{suffix}/branch_match/n={n}", count, 0),
                    (f"decompose_skew/{suffix}/residual/n={n}", 0.0, "roundtrip"),
                ],
                lambda rng: _skew_round_trips(skew_spec, n, count, use_psi, rng),
            )
    return records


def _youla_worst(n: int, count: int, rng):
    """Worst scaled reconstruction residual and worst singular-value error of
    the block canonical form over ``count`` random skew matrices, decomposed
    as one stack."""
    A = random_element(SKEW_REAL, n, rng, count=count)
    forms = youla_decompose(A)
    residual = np.array([form.residual for form in forms])
    sv = np.stack([form.singular_values for form in forms])
    worst_rec = residual / (1.0 + np.max(np.abs(A), axis=(-2, -1)))
    worst_sv = np.abs(sv - np.linalg.svd(A, compute_uv=False))
    return [np.max(worst_rec, initial=0.0), np.max(worst_sv, initial=0.0)]


def _psi_charpoly_worst(count: int, rng):
    """Worst scaled change of the characteristic polynomial under psi, and
    worst miss of its Pfaffian form, over ``count`` random 4 x 4 skew
    matrices."""
    A = random_element(SKEW_REAL, 4, rng, count=count)
    ca = char_poly_skew(A)
    cb = char_poly_skew(psi_apply(A))
    scale = 1.0 + np.max(np.abs(ca), axis=1)
    ident = np.zeros_like(ca)
    ident[:, 0] = 1.0
    ident[:, 2] = np.sum(np.triu(A, 1) ** 2, axis=(1, 2))
    ident[:, 4] = pfaffian4(A) ** 2
    worst_cp = np.max(np.abs(ca - cb), axis=1) / scale
    worst_pf = np.max(np.abs(ca - ident), axis=1) / scale
    return [np.max(worst_cp, initial=0.0), np.max(worst_pf, initial=0.0)]


def _psi_closure_worst(count: int, rng):
    """Worst residual of the congruence recovery of psi Ad(Q) psi over
    ``count`` Haar rotations, recovered as one stack."""
    psi = psi_matrix()
    Q = haar_orthogonal(4, rng, special=True, count=count)
    _, residual = recover_orthogonal_from_adso(psi @ so_adjoint_matrix(Q) @ psi)
    return [np.max(residual, initial=0.0)]


def _psi_reject_residual():
    """Smallest residual with which psi and -psi are refused as congruence
    images (0 if either is accepted).  Only a failed recovery counts as a
    refusal; any other error fails the check."""
    psi = psi_matrix()
    reject_res = math.inf
    for M in (psi, -psi):
        try:
            recover_orthogonal_from_adso(M)
            reject_res = 0.0
        except NotAdjointImage as exc:
            reject_res = min(reject_res, exc.residual)
    return [reject_res]


def _skew_records(cfg: SuiteConfig):
    count = cfg.samples or 50
    records = []
    for n in cfg.n_values:
        records += _group(
            cfg, "S4_youla", n, "",
            [(f"youla/reconstruction/n={n}", 0.0, "youla"), (f"youla/singular_values/n={n}", 0.0, "youla")],
            lambda rng: _youla_worst(n, count, rng),
        )

    if 4 in cfg.n_values:
        records += _group(
            cfg, "S4_psi", 4, "",
            [("psi/charpoly_invariant/n=4", 0.0, "charpoly"), ("psi/pfaffian_identity/n=4", 0.0, "charpoly")],
            lambda rng: _psi_charpoly_worst(cfg.samples or 200, rng),
        )
        records += _group(
            cfg, "S4_psi", 4, "", [("psi/normalizer_closure/n=4", 0.0, "roundtrip")],
            lambda rng: _psi_closure_worst(min(count, 100), rng),
        )
        records += _group(
            cfg, "S4_psi", 4, "",
            [("psi/not_adjoint_image/n=4", cfg.tolerance("reject_residual"), 0, "ge")],
            lambda rng: _psi_reject_residual(),
        )
    return records


def _range_containment_worst(n: int, trials: int, rng):
    """Largest excursion of a 400-draw Haar orbit sample outside the exact
    range, over ``trials`` random pairs."""
    A = random_element(HERMITIAN_TRACELESS, n, rng, count=trials)
    C = random_element(HERMITIAN_TRACELESS, n, rng, count=trials)
    worst = 0.0
    for a, c in zip(A, C):
        s = c_numerical_range_sample(a, c, 400, seed=rng)
        worst = max(worst, s.lo - np.min(s.values), np.max(s.values) - s.hi)
    return [worst]


def _preserver_deviations(n: int, trials: int, rng):
    C = random_element(HERMITIAN_TRACELESS, n, rng)
    rep = verify_preserver_forms(C, trials=trials, seed=rng)
    return [max(rep.radius_dev.values()), rep.wc_interval_dev, rep.wc_pointwise_dev]


def _cnr_records(cfg: SuiteConfig):
    records = []
    trials = cfg.samples or 10
    # the expected radius is drawn, so this group builds its stream first
    rng = _stream(cfg, "cnr/n2_analytic")
    a, c = 0.5 + rng.random(2)
    A = np.diag([a, -a]).astype(complex)
    C = np.diag([c, -c]).astype(complex)
    records += _group(
        cfg, "T3", 2, "", [("cnr/n2_analytic", 2 * a * c, "radius")],
        lambda rng: [c_numerical_radius(A, C)], rng=rng,
    )
    for n in cfg.n_values:
        records += _group(
            cfg, "T3", n, "", [(f"cnr/range_containment/n={n}", 0.0, "perm_bound")],
            lambda rng: _range_containment_worst(n, min(trials, 10), rng),
        )
    n = 3 if 3 in cfg.n_values else cfg.n_values[0]
    records += _group(
        cfg, "T3", n, "",
        [
            (f"cnr/preserver_radius/n={n}", 0.0, "radius"),
            (f"cnr/preserver_wc_interval/n={n}", 0.0, "wc_interval"),
            (f"cnr/preserver_wc_pointwise/n={n}", 0.0, 1e-12),
        ],
        lambda rng: _preserver_deviations(n, min(trials, 20), rng),
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
    echo = {**asdict(config), "tol": {k: float(v) for k, v in sorted(config.tol.items())}}
    return ReportDocument(
        suite=config.suite,
        config=echo,
        records=records,
        runtime_ms=runtime_ms,
        version=__version__,
    )


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
        help="sample/trial count (0 = suite default); work grows with it in the "
        "invariance, decompose and skew suites, but sigma_identity clamps it to "
        "[10, 50], psi/normalizer_closure caps it at 100, and cnr at 10 range "
        "pairs and 20 preserver trials; the dimension suite ignores it and uses "
        "the largest sign block plus d constraint rows",
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
            tol={key: float(val) for key, _, val in (p.partition("=") for p in args.tol or ())},
        )
        config.validate()
    except ValueError as exc:
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
