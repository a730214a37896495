import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isomlab.cli import (
    DEFAULT_TOL,
    SUITES,
    ReportDocument,
    SuiteConfig,
    _parse_token,
    _record,
    build_parser,
    emit_report,
    main,
    run_suite,
)
from isomlab.errors import (
    DegeneratePoint,
    InconclusiveDimension,
    InvalidDimension,
    NotHermitian,
)
from isomlab.norms import c_spectral

TAGS = {"T1i", "T1ii", "C2", "T3", "CK_i", "CK_ii", "S4_psi", "S4_youla"}


def small_config(suite, **kw):
    defaults = dict(n_values=(3,), samples=5, seed=7)
    defaults.update(kw)
    return SuiteConfig(suite=suite, **defaults)


@pytest.mark.parametrize("norm", ["cspec:1e150,1e149", "cspec:1e200,1e199", "cspec:1e300,1e299"])
def test_dimension_suite_passes_with_large_c_spectral_weights(norm):
    doc = run_suite(SuiteConfig(suite="dimension", n_values=(4,), norms=(norm,), seed=0))
    assert len(doc.records) == 3 and doc.overall_pass


def test_dimension_record_matches_expected():
    cfg = SuiteConfig(suite="dimension", n_values=(3,), norms=("schatten:3",), seed=7)
    doc = run_suite(cfg)
    rec = doc.records[0]
    assert rec.check_id == "dimension/schatten:3/n=3"
    assert rec.theorem_tag == "T1i"
    assert rec.value == 8 and rec.expected == 8 and rec.passed
    assert doc.overall_pass


def test_invariance_suite_passes():
    doc = run_suite(small_config("invariance", n_values=(2, 3), samples=20))
    assert doc.records and doc.overall_pass
    ids = [r.check_id for r in doc.records]
    assert any(i.startswith("sigma_identity") for i in ids)


def test_skew_suite_psi_records():
    doc = run_suite(small_config("skew", n_values=(4,), samples=20))
    assert doc.overall_pass
    by_id = {r.check_id: r for r in doc.records}
    assert by_id["psi/charpoly_invariant/n=4"].theorem_tag == "S4_psi"
    assert by_id["psi/not_adjoint_image/n=4"].value >= 0.1
    assert "youla/reconstruction/n=4" in by_id


def test_all_suite_exercises_every_tag():
    doc = run_suite(SuiteConfig(suite="all", samples=3, seed=1))
    assert doc.overall_pass
    assert {r.theorem_tag for r in doc.records} == TAGS


def test_determinism_identical_records():
    cfg = lambda: small_config("decompose", n_values=(3,), samples=3, seed=99)
    a = run_suite(cfg())
    b = run_suite(cfg())
    # byte-identical serialization apart from the runtime field
    a.runtime_ms = b.runtime_ms = 0.0
    assert emit_report(a, "json") == emit_report(b, "json")
    assert emit_report(a, "text") == emit_report(b, "text")


def test_emit_report_round_trip():
    doc = run_suite(small_config("invariance", n_values=(2,), samples=5))
    text = emit_report(doc, "json")
    parsed = json.loads(text)
    assert parsed["suite"] == "invariance"
    assert parsed["version"] == doc.version
    assert [r["check_id"] for r in parsed["records"]] == [r.check_id for r in doc.records]
    # serialize(parse(serialize(x))) is stable
    assert list(parsed["records"][0].keys()) == [
        "check_id", "theorem_tag", "n", "spec", "value", "expected", "tolerance", "pass",
    ]


def test_record_dict_puts_an_error_last():
    record = _record("x/n=2", "T1i", 2, "frobenius", 1.0, 1.0, 0.0, error="NotIsometry: far")
    assert list(record.as_dict()) == [
        "check_id", "theorem_tag", "n", "spec", "value", "expected", "tolerance", "pass", "error",
    ]
    assert record.as_dict()["pass"] is False


@pytest.mark.parametrize("space", ["hermitian", "skew"])
def test_a_cspec_token_picks_the_skew_space_in_any_case(space):
    """parse_norm decides a token's space; an upper-case CSPEC is a cspec
    token under either --space."""
    spec = _parse_token("CSPEC:1,0", space)
    assert spec == c_spectral((1.0, 0.0))
    SuiteConfig(suite="skew", space=space, norms=("CSPEC:1,0",)).validate()


def test_empty_suite_emits_valid_json():
    # no compatible (n, norm) combination leaves the record list empty
    cfg = SuiteConfig(suite="invariance", n_values=(3,), norms=("cspec:1,0",), samples=2)
    doc = run_suite(cfg)
    only_sigma = [r for r in doc.records if not r.check_id.startswith("sigma")]
    assert only_sigma == []
    parsed = json.loads(emit_report(doc, "json"))
    assert isinstance(parsed["records"], list)


def test_float_serialization_round_trips():
    doc = run_suite(small_config("invariance", n_values=(2,), samples=2))
    text = emit_report(doc, "json")
    val = json.loads(text)["records"][0]["value"]
    assert json.loads(format(val, ".17g")) == val


def test_non_finite_values_serialize_as_null_and_fail():
    records = [
        _record("nan_value", "T3", 2, "", float("nan"), 0.0, 1e-10),
        _record("inf_value", "T1i", 2, "", float("inf"), 1e3, 0.0, "ge"),
        _record("ninf_value", "T3", 2, "", float("-inf"), 0.0, 1e-10),
    ]
    assert not any(r.passed for r in records)
    doc = ReportDocument("cnr", {}, records, 1.0, "0")
    assert not doc.overall_pass

    def no_constants(token):
        raise AssertionError(f"non-standard JSON constant {token}")

    parsed = json.loads(emit_report(doc, "json"), parse_constant=no_constants)
    assert [r["value"] for r in parsed["records"]] == [None, None, None]
    assert [r["pass"] for r in parsed["records"]] == [False, False, False]
    assert "nan" in emit_report(doc, "text")


def test_text_format():
    doc = run_suite(small_config("invariance", n_values=(2,), samples=2))
    text = emit_report(doc, "text")
    assert "PASS" in text and "checks passed" in text


def test_main_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["invariance", "--n", "2", "--samples", "5", "--seed", "3", "--out", str(out)])
    assert code == 0
    parsed = json.loads(out.read_text())
    assert parsed["config"]["seed"] == 3
    # impossible tolerance forces a failing record -> exit 1
    code = main(
        ["invariance", "--n", "2", "--samples", "5", "--tol", "invariance=1e-30"]
    )
    capsys.readouterr()
    assert code == 1


def test_main_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["destroy"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["invariance", "--n", "1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["invariance", "--tol", "nonsense=1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["skew", "--seed", "-1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["invariance", "--norm", "schatten:nan"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["invariance", "--norm", "bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["invariance", "--norm", "cspec:1,nan"],
        ["invariance", "--norm", "cspec:inf,1"],
        ["cnr", "--tol", "radius=nan"],
        ["invariance", "--tol", "invariance=-1"],
        ["decompose", "--n", ","],
        ["all", "--n", ","],
        ["cnr", "--n", ","],
        ["invariance", "--n", "2,,3"],
        ["skew", "--seed", str(2**64)],
        ["invariance", "--n", "3,3"],
        ["invariance", "--norm", "schatten:3", "--norm", "schatten:3.0"],
        ["all", "--norm", "frobenius:3"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_main_rejects_bad_input_with_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "error:" in capsys.readouterr().err


def _capture_dimension_rows(monkeypatch):
    """Wrap both estimators in cli; the returned list collects
    (token, n, samples_used) of each report they give."""
    import isomlab.cli as cli

    seen = []

    def capturing(real):
        def estimator(spec, n, seed=0):
            rep = real(spec, n, seed=seed)
            seen.append((spec.token(), n, rep.samples_used))
            return rep

        return estimator

    for name in ("isometry_algebra_dimension", "skew_isometry_algebra_dimension"):
        monkeypatch.setattr(cli, name, capturing(getattr(cli, name)))
    return seen


def test_dimension_suite_ignores_a_huge_sample_count(monkeypatch, capsys):
    seen = _capture_dimension_rows(monkeypatch)
    assert main(["dimension", "--n", "2", "--samples", "100000000"]) == 0
    capsys.readouterr()
    # d = 3 at n = 2, one sign block of all 3 unknowns, so 3 + d = 6 rows;
    # cspec:1,0 does not fit n = 2
    assert seen == [("schatten:1", 2, 6), ("schatten:3", 2, 6), ("frobenius", 2, 6)]


@pytest.mark.parametrize(
    "argv",
    [
        ["dimension", "--n", "2", "--norm", "kyfan:3"],
        ["dimension", "--space", "skew", "--n", "2"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_a_report_with_no_records_fails(argv, capsys):
    assert main(argv + ["--format", "text"]) == 1
    assert "0/0 checks passed" in capsys.readouterr().out


def test_all_suites_pass_on_the_skew_space(capsys):
    # the one-dimensional skew space at n = 2 has no dimension check
    assert main(["all", "--space", "skew"]) == 0
    ids = [r["check_id"] for r in json.loads(capsys.readouterr().out)["records"]]
    assert not [i for i in ids if i.startswith("dimension/") and i.endswith("/n=2")]
    assert "dimension/schatten:1/n=3" in ids


@pytest.mark.parametrize("seed", [11, 16, 27, 32, 36, 76])
def test_skew_trace_norm_dimension_at_n4_is_six(seed):
    # so(4) splits into two 3-dim summands and each trace-norm gradient lies
    # in one of them; d^2 + d rows over gl(6) read 7 to 10 at these seeds,
    # while every so(6) row constrains the 9 unknowns across the summands
    doc = run_suite(
        SuiteConfig(suite="dimension", space="skew", n_values=(4,), norms=("schatten:1",), seed=seed)
    )
    dims = [r for r in doc.records if r.check_id == "dimension/schatten:1/n=4"]
    assert [r.value for r in dims] == [6.0]


@pytest.mark.parametrize("seed", [2, 9])
def test_euclidean_only_spaces_read_their_whole_rotation_algebra(seed):
    # every norm on the traceless Hermitian 2 x 2 matrices is Euclidean, so
    # all constraint rows are rounding noise; at these seeds that noise holds
    # exact zeros, which must not read as an infinite gap
    doc = run_suite(SuiteConfig(suite="dimension", n_values=(2,), seed=seed))
    dims = [r.value for r in doc.records if r.check_id.count("/") == 2]
    assert dims == [3.0, 3.0, 3.0]
    assert doc.overall_pass


def test_every_dimension_check_writes_a_passing_containment_record():
    doc = run_suite(SuiteConfig(suite="dimension", n_values=(3, 4), seed=3))
    checks = [r.check_id for r in doc.records if r.check_id.count("/") == 2]
    contained = [r for r in doc.records if r.check_id.endswith("/containment")]
    assert [r.check_id for r in contained] == [c + "/containment" for c in checks]
    assert all(r.passed and r.tolerance == 1e-12 and r.value <= 1e-12 for r in contained)


def test_unwritable_out_is_a_usage_error_before_any_suite_runs(monkeypatch, tmp_path, capsys):
    import isomlab.cli as cli

    def never(config):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(cli, "run_suite", never)
    with pytest.raises(SystemExit) as err:
        main(["invariance", "--n", "2", "--out", str(tmp_path / "missing" / "x.json")])
    assert err.value.code == 2
    assert "cannot write report" in capsys.readouterr().err


def test_config_validation_bounds():
    with pytest.raises(ValueError, match="n value"):
        run_suite(SuiteConfig(suite="cnr", n_values=()))
    SuiteConfig(suite="skew", seed=2**64 - 1).validate()
    SuiteConfig(suite="all", n_values=(2, 8)).validate()
    SuiteConfig(suite="invariance", n_values=(2,), samples=10**12).validate()
    SuiteConfig(suite="invariance", samples=0).validate()
    with pytest.raises(ValueError, match=r"samples must be >= 0 \(0 picks the per-suite default\)"):
        SuiteConfig(suite="invariance", samples=-1).validate()


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(space="skwe"), "unknown space 'skwe'"),
        (dict(tol={"invarance": 1e-3}), "unknown tolerance key 'invarance'"),
        (dict(tol={"invariance": -1.0}), "tolerance invariance must be finite and >= 0"),
        (dict(tol={"radius": math.nan}), "tolerance radius must be finite and >= 0"),
        (dict(tol={"radius": "1e-3"}), "tolerance radius must be finite and >= 0"),
        (dict(samples=2.5), "seed, samples and n values must be integers, got 2.5"),
        (dict(seed=1.5), "seed, samples and n values must be integers, got 1.5"),
        (dict(n_values=(3.0,)), "seed, samples and n values must be integers, got 3.0"),
        (dict(samples=True), "seed, samples and n values must be integers, got True"),
    ],
    ids=["space", "tol-key", "tol-negative", "tol-nan", "tol-string", "samples-float", "seed-float",
         "n-float", "samples-bool"],
)
def test_run_suite_refuses_an_unknown_space_or_a_bad_tolerance(kw, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        run_suite(SuiteConfig(**{"suite": "invariance", "n_values": (2,), "samples": 2, **kw}))


def test_norms_that_differ_past_six_digits_are_two_norms():
    cfg = SuiteConfig(
        suite="invariance", n_values=(3,), norms=("schatten:3.0000001", "schatten:3"), samples=2
    )
    doc = run_suite(cfg)
    ids = [r.check_id for r in doc.records]
    assert "invariance/schatten:3.0000001/n=3" in ids
    assert "invariance/schatten:3/n=3" in ids


def test_record_groups_draw_from_independent_streams(monkeypatch):
    """Every seeded generator of one report is built once, by one record
    group, and no two of them start in the same state."""
    real = np.random.default_rng
    states = []

    def spy(seed=None):
        rng = real(seed)
        if not isinstance(seed, np.random.Generator):
            states.append(rng.bit_generator.state["state"]["state"])
        return rng

    monkeypatch.setattr(np.random, "default_rng", spy)
    doc = run_suite(SuiteConfig(suite="all"))
    assert doc.overall_pass
    assert len(states) <= len(doc.records)
    assert len(set(states)) == len(states)


@pytest.mark.parametrize("seed", [2, 2**32 + 1, 2**63, 2**64 - 1])
def test_all_suites_pass_at_edge_seeds(seed):
    doc = run_suite(SuiteConfig(suite="all", seed=seed))
    assert [r.check_id for r in doc.records if not r.passed] == []


def test_parser_defaults():
    args = build_parser().parse_args(["all"])
    assert args.n == "2,3,4"
    assert args.fmt == "json"
    assert args.seed == 0



@pytest.mark.parametrize(
    "error",
    [
        DegeneratePoint("no generic sample"),
        NotHermitian("defect"),
        np.linalg.LinAlgError("SVD did not converge"),
        InconclusiveDimension("no gap"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_dimension_suite_writes_a_failing_record_when_the_estimator_raises(monkeypatch, error):
    import isomlab.cli as cli

    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "isometry_algebra_dimension", broken)
    cfg = SuiteConfig(suite="dimension", n_values=(3, 4), norms=("schatten:3", "cspec:1,0"), seed=7)
    doc = run_suite(cfg)
    # the dimension, gap and containment records all fail, with null values
    assert _failing_ids(doc, error) == [
        "dimension/schatten:3/n=3",
        "dimension/schatten:3/n=3/gap",
        "dimension/schatten:3/n=3/containment",
        "dimension/schatten:3/n=4",
        "dimension/schatten:3/n=4/gap",
        "dimension/schatten:3/n=4/containment",
    ]
    skew = [r for r in doc.records if r.spec == "cspec:1,0"]
    assert [r.check_id for r in skew] == [
        "dimension/cspec:1,0/n=4",
        "dimension/cspec:1,0/n=4/gap",
        "dimension/cspec:1,0/n=4/containment",
    ]
    assert all(r.passed for r in skew)
    assert not doc.overall_pass


def test_dimension_suite_passes_the_default_row_count(monkeypatch):
    seen = _capture_dimension_rows(monkeypatch)
    norms = ("schatten:3", "cspec:1,0")
    doc = run_suite(SuiteConfig(suite="dimension", n_values=(2, 3, 4), norms=norms, seed=7))
    assert doc.overall_pass
    # d = n^2 - 1 on the Hermitian space, n(n-1)/2 on the skew space; the
    # largest sign block plus d rows: 3 + 3, 8 + 8, 28 + 15 and 4 + 6
    assert seen == [
        ("schatten:3", 2, 6), ("schatten:3", 3, 16), ("schatten:3", 4, 43), ("cspec:1,0", 4, 10),
    ]
    seen.clear()
    # --samples does not change the row count
    cfg = SuiteConfig(suite="dimension", n_values=(3, 4), norms=("schatten:3",), samples=100, seed=7)
    run_suite(cfg)
    assert seen == [("schatten:3", 3, 16), ("schatten:3", 4, 43)]


def _failing_ids(doc, error):
    """Check ids of the failing records, each of which must carry ``error``
    and a null value; the report must serialize the same bytes twice."""
    failing = [r for r in doc.records if not r.passed]
    assert all(r.error == f"{type(error).__name__}: {error}" and math.isnan(r.value) for r in failing)
    assert all(r.error is None for r in doc.records if r.passed)
    parsed = json.loads(emit_report(doc, "json"))["records"]
    assert [r.get("error") for r in parsed] == [r.error for r in doc.records]
    assert all(r["value"] is None for r in parsed if "error" in r)
    assert f"{type(error).__name__}: {error}" in emit_report(doc, "text")
    return [r.check_id for r in failing]


def _run_twice(cfg):
    a, b = run_suite(cfg), run_suite(cfg)
    b.runtime_ms = a.runtime_ms
    assert emit_report(a, "json") == emit_report(b, "json")
    return a


def test_invariance_suite_writes_a_failing_record_when_a_check_raises(monkeypatch):
    import isomlab.cli as cli

    error = DegeneratePoint("no generic sample")
    real = cli.check_invariance

    def broken(spec, n, trials, seed):
        if spec.token() == "schatten:1":
            raise error
        return real(spec, n, trials, seed)

    monkeypatch.setattr(cli, "check_invariance", broken)
    doc = _run_twice(small_config("invariance", n_values=(2, 3), norms=("schatten:1", "frobenius")))
    assert _failing_ids(doc, error) == ["invariance/schatten:1/n=2", "invariance/schatten:1/n=3"]
    assert len(doc.records) == 6 and not doc.overall_pass


def test_decompose_suite_writes_failing_records_when_a_decomposition_raises(monkeypatch):
    import isomlab.cli as cli

    error = np.linalg.LinAlgError("SVD did not converge")

    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "decompose_isometry", broken)
    doc = _run_twice(small_config("decompose", n_values=(3,), samples=3))
    assert _failing_ids(doc, error) == [
        "decompose/branch_match/n=3",
        "decompose/residual/n=3",
        "decompose/unitary_err/n=3",
        "negative_control/rejected/n=3",
    ]
    # the Euclidean deviation and the skew round trips still ran and passed
    assert [r.check_id for r in doc.records if r.passed] == [
        "negative_control/frobenius_isometry/n=3",
        "decompose_skew/plain/branch_match/n=3",
        "decompose_skew/plain/residual/n=3",
    ]


def test_skew_suite_writes_failing_records_when_the_block_form_raises(monkeypatch):
    import isomlab.cli as cli

    error = InvalidDimension("no block form")

    def broken(A):
        raise error

    monkeypatch.setattr(cli, "youla_decompose", broken)
    doc = _run_twice(small_config("skew", n_values=(3, 4), samples=5))
    assert _failing_ids(doc, error) == [
        "youla/reconstruction/n=3",
        "youla/singular_values/n=3",
        "youla/reconstruction/n=4",
        "youla/singular_values/n=4",
    ]
    assert len(doc.records) == 8


def test_skew_suite_counts_only_a_failed_recovery_as_a_rejection(monkeypatch):
    import isomlab.cli as cli

    error = InvalidDimension("orthogonal recovery needs n >= 3")

    def broken(M):
        raise error

    monkeypatch.setattr(cli, "recover_orthogonal_from_adso", broken)
    doc = _run_twice(small_config("skew", n_values=(4,), samples=5))
    assert _failing_ids(doc, error) == ["psi/normalizer_closure/n=4", "psi/not_adjoint_image/n=4"]


def test_cnr_suite_writes_failing_records_when_a_range_sample_raises(monkeypatch):
    import isomlab.cli as cli

    error = NotHermitian("hermiticity defect")
    real = cli.c_numerical_range_sample

    def broken(A, C, trials, seed=0):
        if A.shape[0] == 3:
            raise error
        return real(A, C, trials, seed=seed)

    monkeypatch.setattr(cli, "c_numerical_range_sample", broken)
    doc = _run_twice(small_config("cnr", n_values=(2, 3), samples=3))
    assert _failing_ids(doc, error) == ["cnr/range_containment/n=3"]
    assert [r.check_id for r in doc.records if r.passed] == [
        "cnr/n2_analytic",
        "cnr/range_containment/n=2",
        "cnr/preserver_radius/n=3",
        "cnr/preserver_wc_interval/n=3",
        "cnr/preserver_wc_pointwise/n=3",
    ]


NORM_TOKENS = (
    "frobenius", "schatten:1", "schatten:3", "schatten:inf", "schatten:nan", "schatten:0.5",
    "kyfan:1", "kyfan:3", "kyfan:0", "cspec:1", "cspec:1,0", "cspec:1,nan", "cspec:inf,1",
    "cspec:-1", "cspec:0", "bogus", "", "schatten:", "kyfan:x",
)

OPTIONS = st.one_of(
    st.tuples(st.just("--n"), st.sampled_from(["2", "3", "2,3", "3,2", ",", "2,,3", "2,", "", "1", "9", "x"])),
    st.tuples(st.just("--norm"), st.one_of(st.sampled_from(NORM_TOKENS), st.text(max_size=12))),
    st.tuples(st.just("--space"), st.sampled_from(["hermitian", "skew", "real"])),
    st.tuples(st.just("--seed"), st.sampled_from(["0", "5", "-1", str(2**64 - 1), str(2**64), "x"])),
    st.tuples(
        st.just("--tol"),
        st.builds(
            "{}={}".format,
            st.sampled_from([*DEFAULT_TOL, "bogus"]),
            st.sampled_from(["0", "1e-30", "1", "1e3", "inf", "nan", "-1", "x", ""]),
        ),
    ),
    st.tuples(st.just("--format"), st.sampled_from(["json", "text", "xml"])),
)


@settings(max_examples=60)
@given(
    suite=st.sampled_from([*SUITES, "nosuch"]),
    n=st.sampled_from(["2", "3", "2,3"]),
    samples=st.sampled_from(["1", "2", "3", "-1", "x"]),
    options=st.lists(OPTIONS, max_size=4),
)
def test_main_never_raises(suite, n, samples, options):
    # every --n value that parses is 2 or 3 and every --samples value that
    # parses is at most 3, so the runs that get past validation stay small
    argv = [suite, "--n", n, "--samples", samples] + [x for pair in options for x in pair]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    assert status in (0, 1, 2), (argv, err.getvalue())


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(norms=(3,)), "a norm token is a string, got 3"),
        (dict(norms=(None,)), "a norm token is a string, got None"),
        (dict(tol={"radius": True}), "tolerance radius must be finite and >= 0, got True"),
        (dict(tol={"invariance": False}), "tolerance invariance must be finite and >= 0, got False"),
    ],
    ids=["norm-int", "norm-none", "tol-true", "tol-false"],
)
def test_run_suite_refuses_a_token_or_tolerance_it_cannot_read(kw, message):
    """Both are usage errors (ValueError), like a bool seed or sample count."""
    with pytest.raises(ValueError, match=re.escape(message)):
        run_suite(SuiteConfig(**{"suite": "invariance", "n_values": (2,), "samples": 2, **kw}))
