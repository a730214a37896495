"""The README's Python quick start runs and prints what its comments say,
and its CLI option table and tolerance keys match the code."""

import contextlib
import io
import re
from pathlib import Path

from isomlab.cli import DEFAULT_TOL, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_prints_its_claimed_values():
    code = _quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().split("\n")
    eta, flag, residual = lines[0].split()
    assert (eta, flag) == ("-1", "True")
    assert float(residual) < 1e-12
    assert float(lines[1]) < 1e-12
    assert lines[2:] == ["15", "105", ""]
    # the comments claim those values
    claims = re.findall(r"# ([^\n]*)", code)
    assert any(c.startswith("-1 True") for c in claims)
    assert sum(c.strip() == "15" for c in claims) == 1
    assert sum(c.strip() == "105" for c in claims) == 1


def _section(start: str) -> str:
    """README text from the line that starts with ``start`` to the next
    blank line."""
    text = README.read_text(encoding="utf-8")
    begin = text.index("\n" + start) + 1
    return text[begin:text.index("\n\n", begin)]


def test_readme_option_table_lists_every_cli_option():
    table = _section("| option | meaning |")
    documented = re.findall(r"^\| `(--[\w-]+)", table, re.M)
    actions = build_parser()._actions
    options = [opt for action in actions if action.dest != "help" for opt in action.option_strings]
    assert documented == options


def test_readme_tolerance_keys_are_the_defaults():
    listed = re.findall(r"`(\w+)` \(([^)\s]+)\)", _section("Tolerance override keys"))
    assert [(key, float(val)) for key, val in listed] == list(DEFAULT_TOL.items())
