"""Digest of the reports of ``isomlab all`` over a range of seeds.

For each seed s in 0..N-1 and each space (hermitian, then skew) it runs
``run_suite(SuiteConfig("all", seed=s, space=space))``, sets the report's
``runtime_ms`` to zero, and feeds its JSON and its text form to one
sha256.  It prints the record count, the pass count and that hex digest,
so two trees whose reports agree byte for byte print the same line:

    python3 tools/report_digest.py --seeds 100
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from isomlab.cli import SuiteConfig, emit_report, run_suite  # noqa: E402

SPACES = ("hermitian", "skew")


def digest(seeds: int) -> tuple[int, int, str]:
    """``(records, passed, sha256 hex)`` over seeds 0..seeds-1 in both spaces."""
    h = hashlib.sha256()
    records = passed = 0
    for seed in range(seeds):
        for space in SPACES:
            doc = run_suite(SuiteConfig("all", seed=seed, space=space))
            doc.runtime_ms = 0.0
            records += len(doc.records)
            passed += sum(r.passed for r in doc.records)
            for fmt in ("json", "text"):
                h.update(emit_report(doc, fmt).encode())
    return records, passed, h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="number of seeds, from 0 (default 20)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")
    records, passed, hexdigest = digest(args.seeds)
    print(f"records {records}  passed {passed}  sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
