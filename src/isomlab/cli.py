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
from .errors import InconclusiveDimension, IsomlabError, NotInClassifiedForm
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
    vectorize,
)
from .norms import (
    C_SPECTRAL,
    FROBENIUS,
    KY_FAN,
    SCHATTEN,
    NormSpec,
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

SUITES = ("invariance", "dimension", "decompose", "skew", "cnr", "all")

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
    out: str | None = None
    fmt: str = "json"

    def validate(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        if any(n < 2 or n > 8 for n in self.n_values):
            raise ValueError("n values must lie in [2, 8]")
        if self.samples < 0:
            raise ValueError("samples must be >= 1 (or omitted)")
        if self.seed < 0:
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

    def as_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "theorem_tag": self.theorem_tag,
            "n": self.n,
            "spec": self.spec,
            "value": self.value,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class ReportDocument:
    suite: str
    config: dict
    records: list
    runtime_ms: float
    version: str

    @property
    def overall_pass(self) -> bool:
        return all(r.passed for r in self.records)

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
        )
    n_pass = sum(r.passed for r in doc.records)
    lines.append(f"{n_pass}/{len(doc.records)} checks passed")
    return "\n".join(lines) + "\n"


def _record(check_id, tag, n, spec, value, expected, tol, mode="abs") -> CheckRecord:
    value = float(value)
    expected = float(expected)
    if mode == "abs":
        passed = abs(value - expected) <= tol
    elif mode == "eq":
        passed = value == expected
    else:  # "ge": value must be at least expected - tol
        passed = value >= expected - tol
    # a NaN or infinite entry is serialized as null and never passes
    passed = passed and all(math.isfinite(x) for x in (value, expected, tol))
    return CheckRecord(check_id, tag, n, spec, value, expected, float(tol), bool(passed))


def _parse_token(token: str, space: str) -> NormSpec:
    """Parse a norm token on the configured space ("hermitian" or "skew");
    cspec tokens always live on the skew space."""
    skew = space == "skew" or token.startswith("cspec")
    return parse_norm(token, SKEW_REAL if skew else HERMITIAN_TRACELESS)


def _resolve_spec(token: str, cfg: SuiteConfig, n: int) -> NormSpec | None:
    """Parse a norm token against the configured space; None when the spec
    is not valid at this n (e.g. a weight vector of the wrong length).
    Tokens that do not parse at all are usage errors (SuiteConfig.validate)."""
    spec = _parse_token(token, cfg.space)
    if spec.family == KY_FAN and spec.k > n:
        return None
    if spec.family == C_SPECTRAL and len(spec.c) != n // 2:
        return None
    return spec


def _is_euclidean(spec: NormSpec) -> bool:
    return spec.family == FROBENIUS or (spec.family == SCHATTEN and spec.p == 2.0)


def _herm_tag(spec: NormSpec, n: int) -> str:
    return "T1ii" if (_is_euclidean(spec) and n > 2) else "T1i"


def _skew_tag(spec: NormSpec, n: int) -> str:
    if _is_euclidean(spec):
        return "CK_i"
    return "CK_ii" if n == 4 else "CK_i"


def _invariance_records(cfg: SuiteConfig):
    trials = cfg.samples or 100
    records = []
    for n in cfg.n_values:
        for idx, token in enumerate(cfg.norms):
            spec = _resolve_spec(token, cfg, n)
            if spec is None:
                continue
            tag = (
                _herm_tag(spec, n)
                if spec.space == HERMITIAN_TRACELESS
                else _skew_tag(spec, n)
            )
            dev = check_invariance(spec, n, trials, [cfg.seed, n, idx])
            records.append(
                _record(
                    f"invariance/{spec.token()}/n={n}",
                    tag,
                    n,
                    spec.token(),
                    dev,
                    0.0,
                    cfg.tolerance("invariance"),
                )
            )
        pairs = max(10, min(trials, 50))
        worst = 0.0
        for i in range(pairs):
            U = haar_unitary(n, [cfg.seed, n, 10_000 + i], special=True)
            worst = max(worst, verify_sigma_normalizes(U, 1, [cfg.seed, n, 20_000 + i]))
        records.append(
            _record(
                f"sigma_identity/n={n}",
                "T1i",
                n,
                "",
                worst,
                0.0,
                cfg.tolerance("sigma_identity"),
            )
        )
    return records


def _dimension_records(cfg: SuiteConfig):
    records = []
    for n in cfg.n_values:
        for token in cfg.norms:
            spec = _resolve_spec(token, cfg, n)
            if spec is None:
                continue
            if spec.space == HERMITIAN_TRACELESS:
                estimator = isometry_algebra_dimension
                d = n * n - 1
                expected = d * (d - 1) // 2 if _is_euclidean(spec) else n * n - 1
                tag = _herm_tag(spec, n)
            else:
                estimator = skew_isometry_algebra_dimension
                m = n * (n - 1) // 2
                expected = m * (m - 1) // 2 if _is_euclidean(spec) else m
                tag = _skew_tag(spec, n)
            # the estimator needs at least d^2 rows; --samples can only add
            d_space = n * n - 1 if spec.space == HERMITIAN_TRACELESS else n * (n - 1) // 2
            num_samples = max(cfg.samples, 3 * d_space * d_space)
            check = f"dimension/{spec.token()}/n={n}"
            try:
                rep = estimator(spec, n, num_samples=num_samples, seed=[cfg.seed, n])
            except InconclusiveDimension:
                records.append(_record(check, tag, n, spec.token(), -1, expected, 0, "eq"))
                continue
            records.append(
                _record(check, tag, n, spec.token(), rep.estimated_dim, expected, 0, "eq")
            )
            records.append(
                _record(
                    check + "/gap",
                    tag,
                    n,
                    spec.token(),
                    min(rep.gap_ratio, 1e308),
                    cfg.tolerance("gap_ratio"),
                    0.0,
                    "ge",
                )
            )
    return records


def _decompose_records(cfg: SuiteConfig):
    count = cfg.samples or 20
    records = []
    spec = None
    for token in cfg.norms:
        cand = _resolve_spec(token, cfg, min(cfg.n_values))
        if cand is not None and cand.space == HERMITIAN_TRACELESS and not _is_euclidean(cand):
            spec = cand
            break
    if spec is None:
        spec = parse_norm("schatten:3")

    for n in cfg.n_values:
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
        records.append(
            _record(f"decompose/branch_match/n={n}", "C2", n, spec.token(), matches, count, 0, "eq")
        )
        records.append(
            _record(
                f"decompose/residual/n={n}", "C2", n, spec.token(),
                worst_res, 0.0, cfg.tolerance("roundtrip"),
            )
        )
        records.append(
            _record(
                f"decompose/unitary_err/n={n}", "C2", n, spec.token(),
                worst_uerr, 0.0, cfg.tolerance("unitary_err"),
            )
        )

    # negative control: generic rotations preserve only the Euclidean norm
    n = 3 if 3 in cfg.n_values else max(cfg.n_values[0], 3)
    d = n * n - 1
    fro = frobenius()
    rejected, worst_dev = 0, 0.0
    for t in range(count):
        M = haar_orthogonal(d, [cfg.seed, 31, t], special=True)
        basis = gell_mann_basis(n)
        for i in range(10):
            A = random_element(HERMITIAN_TRACELESS, n, [cfg.seed, 32, t, i])
            moved = (M @ vectorize(A, basis))
            dev = abs(float(np.linalg.norm(moved)) - norm_value(A, fro)) / norm_value(A, fro)
            worst_dev = max(worst_dev, dev)
        try:
            decompose_isometry(M, fro, seed=[cfg.seed, 33, t])
        except NotInClassifiedForm:
            rejected += 1
    records.append(
        _record(
            f"negative_control/frobenius_isometry/n={n}", "T1ii", n, "frobenius",
            worst_dev, 0.0, cfg.tolerance("invariance"),
        )
    )
    records.append(
        _record(
            f"negative_control/rejected/n={n}", "T1ii", n, "frobenius",
            rejected, math.ceil(0.99 * count), 0.0, "ge",
        )
    )

    # skew round trips
    for n in cfg.n_values:
        if n < 3:
            continue
        skew_spec = None
        for token in cfg.norms:
            cand = _resolve_spec(token, SuiteConfig(cfg.suite, space="skew"), n)
            if cand is not None and cand.space == SKEW_REAL and not _is_euclidean(cand):
                skew_spec = cand
                break
        if skew_spec is None:
            weights = tuple(float(n // 2 - i) for i in range(n // 2))
            skew_spec = c_spectral(weights)
        basis = skew_basis(n)
        psi = psi_matrix() if n == 4 else None
        for tag, use_psi in (("CK_i", False), ("CK_ii", True)):
            if use_psi and psi is None:
                continue
            matches, worst_res = 0, 0.0
            for t in range(count):
                rng = np.random.default_rng([cfg.seed, 41, n, t])
                sign = 1 if rng.integers(2) else -1
                flag = bool(rng.integers(2)) if use_psi else False
                Q = haar_orthogonal(n, [cfg.seed, 42, n, t], special=True)
                M = sign * so_adjoint_matrix(Q, basis)
                if flag:
                    M = M @ psi
                dec = decompose_skew_isometry(M, skew_spec, seed=[cfg.seed, 43, n, t])
                if (dec.sign, dec.psi_flag) == (sign, flag):
                    matches += 1
                worst_res = max(worst_res, dec.residual)
            suffix = "psi" if use_psi else "plain"
            records.append(
                _record(
                    f"decompose_skew/{suffix}/branch_match/n={n}", tag, n,
                    skew_spec.token(), matches, count, 0, "eq",
                )
            )
            records.append(
                _record(
                    f"decompose_skew/{suffix}/residual/n={n}", tag, n,
                    skew_spec.token(), worst_res, 0.0, cfg.tolerance("roundtrip"),
                )
            )
    return records


def _skew_records(cfg: SuiteConfig):
    count = cfg.samples or 50
    records = []
    for n in cfg.n_values:
        worst_rec, worst_sv = 0.0, 0.0
        for t in range(count):
            A = random_element(SKEW_REAL, n, [cfg.seed, 51, n, t])
            form = youla_decompose(A)
            worst_rec = max(worst_rec, form.residual / (1.0 + float(np.max(np.abs(A)))))
            sv = np.concatenate([np.repeat(form.a, 2), np.zeros(n - 2 * form.r)])
            sv_ref = np.linalg.svd(A, compute_uv=False)
            worst_sv = max(worst_sv, float(np.max(np.abs(sv - sv_ref))))
        records.append(
            _record(
                f"youla/reconstruction/n={n}", "S4_youla", n, "",
                worst_rec, 0.0, cfg.tolerance("youla"),
            )
        )
        records.append(
            _record(
                f"youla/singular_values/n={n}", "S4_youla", n, "",
                worst_sv, 0.0, cfg.tolerance("youla"),
            )
        )
        basis = skew_basis(n)
        tau_dev = float(np.max(np.abs(tau_matrix(basis) + np.eye(basis.d))))
        records.append(
            _record(f"tau_is_negation/n={n}", "CK_i", n, "", tau_dev, 0.0, 0.0)
        )

    if 4 in cfg.n_values:
        cp_count = cfg.samples or 200
        worst_cp, worst_pf = 0.0, 0.0
        for t in range(cp_count):
            A = random_element(SKEW_REAL, 4, [cfg.seed, 52, t])
            ca = char_poly_skew(A)
            cb = char_poly_skew(psi_apply(A))
            scale = 1.0 + float(np.max(np.abs(ca)))
            worst_cp = max(worst_cp, float(np.max(np.abs(ca - cb))) / scale)
            p = float(np.sum(np.triu(A, 1) ** 2))
            ident = np.array([1.0, 0.0, p, 0.0, pfaffian4(A) ** 2])
            worst_pf = max(worst_pf, float(np.max(np.abs(ca - ident))) / scale)
        records.append(
            _record(
                "psi/charpoly_invariant/n=4", "S4_psi", 4, "",
                worst_cp, 0.0, cfg.tolerance("charpoly"),
            )
        )
        records.append(
            _record(
                "psi/pfaffian_identity/n=4", "S4_psi", 4, "",
                worst_pf, 0.0, cfg.tolerance("charpoly"),
            )
        )
        psi = psi_matrix()
        closure_count = min(count, 100)
        worst_cl = 0.0
        for t in range(closure_count):
            Q = haar_orthogonal(4, [cfg.seed, 53, t], special=True)
            _, res = recover_orthogonal_from_adso(psi @ so_adjoint_matrix(Q) @ psi, 4)
            worst_cl = max(worst_cl, res)
        records.append(
            _record(
                "psi/normalizer_closure/n=4", "S4_psi", 4, "",
                worst_cl, 0.0, cfg.tolerance("roundtrip"),
            )
        )
        reject_res = math.inf
        for M in (psi, -psi):
            try:
                recover_orthogonal_from_adso(M, 4)
                reject_res = 0.0
            except IsomlabError as exc:
                res = getattr(exc, "residual", None)
                reject_res = min(reject_res, res if res is not None else math.inf)
        records.append(
            _record(
                "psi/not_adjoint_image/n=4", "S4_psi", 4, "",
                min(reject_res, 1e308), cfg.tolerance("reject_residual"), 0.0, "ge",
            )
        )
    return records


def _cnr_records(cfg: SuiteConfig):
    records = []
    trials = cfg.samples or 10
    rng = np.random.default_rng([cfg.seed, 61])
    a, c = 0.5 + rng.random(2)
    A = np.diag([a, -a]).astype(complex)
    C = np.diag([c, -c]).astype(complex)
    r = c_numerical_radius(A, C)
    records.append(
        _record(
            "cnr/n2_analytic", "T3", 2, "", r, 2 * a * c, cfg.tolerance("radius")
        )
    )
    for n in cfg.n_values:
        worst = 0.0
        for t in range(min(trials, 10)):
            A = random_element(HERMITIAN_TRACELESS, n, [cfg.seed, 63, n, t])
            C = random_element(HERMITIAN_TRACELESS, n, [cfg.seed, 64, n, t])
            s = c_numerical_range_sample(A, C, 400, seed=[cfg.seed, 65, n, t])
            worst = max(worst, s.lo - np.min(s.values), np.max(s.values) - s.hi)
        records.append(
            _record(
                f"cnr/range_containment/n={n}", "T3", n, "",
                worst, 0.0, cfg.tolerance("perm_bound"),
            )
        )
    n = 3 if 3 in cfg.n_values else cfg.n_values[0]
    C = random_element(HERMITIAN_TRACELESS, n, [cfg.seed, 66])
    rep = verify_preserver_forms(C, n, trials=min(trials, 20), seed=[cfg.seed, 67])
    records.append(
        _record(
            f"cnr/preserver_radius/n={n}", "T3", n, "",
            max(rep.radius_dev.values()), 0.0, cfg.tolerance("radius"),
        )
    )
    records.append(
        _record(
            f"cnr/preserver_wc_interval/n={n}", "T3", n, "",
            rep.wc_interval_dev, 0.0, cfg.tolerance("wc_interval"),
        )
    )
    records.append(
        _record(
            f"cnr/preserver_wc_pointwise/n={n}", "T3", n, "",
            rep.wc_pointwise_dev, 0.0, 1e-12,
        )
    )
    return records


def run_suite(config: SuiteConfig) -> ReportDocument:
    """Execute a suite deterministically under its seed and assemble the
    report document."""
    config.validate()
    t0 = time.perf_counter()
    records = []
    if config.suite in ("invariance", "all"):
        records += _invariance_records(config)
    if config.suite in ("dimension", "all"):
        records += _dimension_records(config)
    if config.suite in ("decompose", "all"):
        records += _decompose_records(config)
    if config.suite in ("skew", "all"):
        records += _skew_records(config)
    if config.suite in ("cnr", "all"):
        records += _cnr_records(config)
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
    parser.add_argument("--samples", type=int, default=0, help="sample/trial count (0 = suite default)")
    parser.add_argument("--seed", type=int, default=0, help="master seed (64-bit unsigned)")
    parser.add_argument("--tol", action="append", metavar="KEY=VALUE", help="tolerance override; repeatable")
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        n_values = tuple(int(x) for x in str(args.n).split(",") if x.strip())
        config = SuiteConfig(
            suite=args.suite,
            n_values=n_values,
            norms=tuple(args.norm) if args.norm else DEFAULT_NORMS,
            space=args.space,
            samples=args.samples,
            seed=args.seed,
            tol=_parse_tol(args.tol),
            out=args.out,
            fmt=args.fmt,
        )
        config.validate()
    except (ValueError, argparse.ArgumentTypeError) as exc:
        parser.error(str(exc))  # exits 2
    doc = run_suite(config)
    text = emit_report(doc, config.fmt)
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 1
        summary = f"{sum(r.passed for r in doc.records)}/{len(doc.records)} checks passed"
        print(summary)
    else:
        sys.stdout.write(text)
    return 0 if doc.overall_pass else 1


if __name__ == "__main__":
    sys.exit(main())
