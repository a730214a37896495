"""tools/bench_record.py: parsing of a run's output and the summary of
alternating pairs, on canned output lines (no benchmark is run)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "bench_record.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _output(wall_ref, peak_rss_mb, failed=0):
    """The last lines of one run's standard output."""
    metrics = {
        "setup_s": {"value": 0.2, "unit": "s"},
        "wall_ref": {"value": wall_ref, "unit": "ref"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        "accuracy_digits": {"value": 15.05, "unit": "digits"},
    }
    detail = {"detail": {"passes": 3, "machine": {"nproc": 2}}}
    result = {"correct": failed == 0, "attempted": 1000, "failed": failed, "metrics": metrics}
    return "warm-up noise\n" + json.dumps(detail) + "\n" + json.dumps(result) + "\n"


def _pairs(tool, parent, change, change_failed=0):
    """Alternating pairs of canned runs with the given wall_ref values; the
    change fails ``change_failed`` checks in its first run."""
    return [
        {
            "first": "parent" if i % 2 == 0 else "change",
            "parent": tool.parse_run(_output(p, 50.0))[1],
            "change": tool.parse_run(_output(c, 50.0, failed=change_failed if i == 0 else 0))[1],
        }
        for i, (p, c) in enumerate(zip(parent, change))
    ]


WALL = [{"name": "wall_ref", "unit": "ref", "better": "lower", "bound": 0.25}]
PARENT = [110.0, 108.0, 112.0, 109.0, 111.0, 107.0, 110.0, 113.0, 109.0, 100.0]
CHANGE = [96.0, 95.0, 97.0, 96.0, 98.0, 94.0, 95.0, 99.0, 96.0, 101.0]


def test_a_run_is_read_off_its_last_two_lines():
    detail, result = _tool().parse_run(_output(100.0, 50.0))
    assert detail == {"passes": 3, "machine": {"nproc": 2}}
    assert result["metrics"]["wall_ref"]["value"] == 100.0
    with pytest.raises(ValueError):
        _tool().parse_run("only one line\n")


def test_the_summary_of_alternating_pairs():
    tool = _tool()
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = [
        {
            "first": "parent" if i % 2 == 0 else "change",
            "parent": tool.parse_run(_output(p, 50.0))[1],
            "change": tool.parse_run(_output(c, 51.0, failed=i == 3))[1],
        }
        for i, (p, c) in enumerate(zip(PARENT, CHANGE))
    ]
    summary = tool.summarize(pairs, end_to_end)
    wall = summary["metrics"]["wall_ref"]
    assert summary["pairs"] == 10
    # exclusive quartiles: positions 2.75, 5.5 and 8.25 of the sorted runs
    assert wall["parent"] == pytest.approx({"median": 109.5, "q1": 107.75, "q3": 111.25})
    assert wall["change"]["median"] == 96.0
    assert wall["change_wins"] == 9
    assert wall["relative_change"] == pytest.approx(96.0 / 109.5 - 1)
    assert wall["within_bound"] is True
    assert not wall["gain_shown"]  # the change fails a larger share of its checks
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 0 and not rss["gain_shown"]
    assert rss["within_bound"]  # +2 %, bound 10 %
    assert summary["metrics"]["accuracy_digits"]["change_wins"] == 0  # ties count for neither
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["attempted"] == {"parent": 10000, "change": 10000}
    assert summary["per_pair"][1] == {
        "first": "change",
        "parent": {"setup_s": 0.2, "wall_ref": 108.0, "peak_rss_mb": 50.0, "accuracy_digits": 15.05},
        "change": {"setup_s": 0.2, "wall_ref": 95.0, "peak_rss_mb": 51.0, "accuracy_digits": 15.05},
    }


def test_a_worse_median_beyond_its_bound_is_flagged():
    tool = _tool()
    spec = [{"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1}]
    pairs = [
        {"first": "parent", "parent": tool.parse_run(_output(1.0, 50.0))[1],
         "change": tool.parse_run(_output(1.0, 56.0))[1]},
    ]
    rss = tool.summarize(pairs, spec)["metrics"]["peak_rss_mb"]
    assert rss["parent"] == {"median": 50.0, "q1": 50.0, "q3": 50.0}
    assert not rss["within_bound"] and not rss["gain_shown"]


def test_a_gain_needs_ten_pairs_and_no_larger_failed_share():
    tool = _tool()
    wall = tool.summarize(_pairs(tool, PARENT, CHANGE), WALL)["metrics"]["wall_ref"]
    assert wall["within_bound"] is True and wall["gain_shown"]
    nine = tool.summarize(_pairs(tool, PARENT[:9], CHANGE[:9]), WALL)["metrics"]["wall_ref"]
    assert nine["change_wins"] == 9 and not nine["gain_shown"]
    failing = tool.summarize(_pairs(tool, PARENT, CHANGE, change_failed=1), WALL)
    assert failing["failed"] == {"parent": 0, "change": 1}
    assert not failing["metrics"]["wall_ref"]["gain_shown"]


def test_runs_too_spread_to_tell_are_unresolved():
    tool = _tool()
    # parent quartile spread 50 against a bound of 0.25 x 100 = 25
    parent = [60.0, 80.0, 100.0, 120.0, 140.0] * 2
    mixed = tool.summarize(_pairs(tool, parent, [100.0] * 10), WALL)["metrics"]["wall_ref"]
    assert mixed["within_bound"] == "unresolved" and not mixed["gain_shown"]
    # every change run better than every parent run: no spread hides that
    apart = tool.summarize(_pairs(tool, parent, [50.0] * 10), WALL)["metrics"]["wall_ref"]
    assert apart["within_bound"] is True
    # a spread within the bound resolves even a worse median
    narrow = tool.summarize(_pairs(tool, [100.0] * 10, [130.0] * 10), WALL)["metrics"]["wall_ref"]
    assert narrow["within_bound"] is False
