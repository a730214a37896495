import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"


def test_digest_of_seed_zero_is_repeatable():
    """Seed 0 gives 77 Hermitian and 68 skew records, all passing, and two
    runs hash the same bytes."""
    spec = importlib.util.spec_from_file_location("report_digest", SCRIPT)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    first = tool.digest(1)
    assert first == tool.digest(1)
    records, passed, hexdigest = first
    assert records == passed == 77 + 68
    assert len(hexdigest) == 64
