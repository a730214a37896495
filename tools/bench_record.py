"""Alternating benchmark runs of two checkouts, summarised in one JSON file.

For each workload it runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

in a parent checkout and in a change checkout, one after the other, for
ten pairs: the parent runs first in the first, third, fifth ... pair and
second in the others.  T is the change checkout's ``BENCHMARK.json``
``run_seconds``, so every row is run as the benchmark runs it.  From each
run it reads the last two lines of standard output, the detail object and
the result object.

The summary of one workload and seed gives, for every end-to-end metric of
``BENCHMARK.json`` (its unit, its better direction and its bound), each
side's median and quartiles, the pairs the change won (ties count for
neither), the relative change of the medians, and two verdicts:

* ``within_bound``: ``"unresolved"`` when the parent's quartile spread is
  wider than the bound (bound x |parent median|) and not every change run
  is better than every parent run, so the runs spread too widely to tell;
  else whether the change's median is worse than the parent's by at most
  the bound.
* ``gain_shown``: the pairs are at least ten, the change fails no larger
  share of its checks than the parent, it won at least nine tenths of the
  pairs, and its median is better by more than the parent's quartile
  spread.

It also gives the per-pair values, the failed and attempted checks of each
side, and the machine block of the first run.

    python3 tools/bench_record.py --parent ../parent --change . \\
        --out bench.json --workload decompose_stream --seed 11

The summary goes into the output's ``measured`` list, replacing an entry
of the same workload and seed, so several invocations fill one file; every
other key already in the file (rows copied from CHANGES.md, say) is kept.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

# alternating pairs per workload and seed: the fewest that can show a gain
PAIRS = 10


def parse_run(stdout: str) -> tuple[dict, dict]:
    """``(detail, result)`` from the standard output of one run: its last
    two non-empty lines, ``{"detail": ...}`` and the result object."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("a run prints a detail line and a result line last")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``--trace 0`` run of ``perfbench/run.py`` in ``checkout``."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(command)} exited {done.returncode}: {done.stderr.strip()}")
    return parse_run(done.stdout)


def _spread(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, exclusive method)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """The summary of alternating pairs, each ``{"first": "parent" or
    "change", "parent": result, "change": result}`` with ``result`` a run's
    result object, over the metrics ``end_to_end`` (BENCHMARK.json's list)."""
    failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
    attempted = {side: sum(p[side]["attempted"] for p in pairs) for side in ("parent", "change")}
    # the benchmark's rule compares the share of checks that fail, not the count
    fails_more = failed["change"] * attempted["parent"] > failed["parent"] * attempted["change"]
    metrics = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        sides = {"parent": _spread(parent), "change": _spread(change)}
        base, new = sides["parent"]["median"], sides["change"]["median"]
        # the change's advantage, positive when it is better
        gain = base - new if lower else new - base
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        spread = sides["parent"]["q3"] - sides["parent"]["q1"]
        if lower:
            apart = max(change) < min(parent)
        else:
            apart = min(change) > max(parent)
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            **sides,
            "change_wins": wins,
            "relative_change": (new - base) / base if base else None,
            "within_bound": "unresolved"
            if spread > spec["bound"] * abs(base) and not apart
            else gain >= -spec["bound"] * abs(base),
            "gain_shown": len(pairs) >= PAIRS
            and not fails_more
            and wins >= math.ceil(0.9 * len(pairs))
            and gain > spread,
        }
    return {
        "pairs": len(pairs),
        "metrics": metrics,
        "failed": failed,
        "attempted": attempted,
        "per_pair": [
            {
                "first": p["first"],
                **{
                    side: {spec["name"]: p[side]["metrics"][spec["name"]]["value"] for spec in end_to_end}
                    for side in ("parent", "change")
                },
            }
            for p in pairs
        ],
    }


def record(parent: Path, change: Path, workload: str, seed: int, seconds: float):
    """``(pairs, machine)``: PAIRS alternating pairs of runs, and the
    machine block of the first run."""
    pairs, machine = [], None
    for i in range(PAIRS):
        first = "parent" if i % 2 == 0 else "change"
        order = ("parent", "change") if first == "parent" else ("change", "parent")
        pair = {"first": first}
        for side in order:
            detail, pair[side] = run_once(parent if side == "parent" else change, workload, seed, seconds)
            machine = machine or detail["machine"]
        pairs.append(pair)
        print(
            f"{workload} seed {seed} pair {i + 1}/{PAIRS}: wall_ref "
            f"{pair['parent']['metrics']['wall_ref']['value']:.1f} -> "
            f"{pair['change']['metrics']['wall_ref']['value']:.1f}",
            file=sys.stderr,
        )
    return pairs, machine


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write or update")
    parser.add_argument("--workload", action="append", help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=11, help="workload seed (default 11)")
    args = parser.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    known = [w["name"] for w in benchmark["workloads"]]
    workloads = args.workload or known
    if any(w not in known for w in workloads):
        parser.error(f"need workloads among {known}")
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    measured = doc.setdefault("measured", [])
    for workload in workloads:
        pairs, machine = record(args.parent, args.change, workload, args.seed, seconds)
        entry = {
            "workload": workload,
            "seed": args.seed,
            "command": f"python3 perfbench/run.py --workload {workload} --seed {args.seed} "
                       f"--seconds {seconds:g} --trace 0",
            **summarize(pairs, benchmark["end_to_end"]),
            "machine": machine,
        }
        measured[:] = [
            m for m in measured if (m["workload"], m["seed"]) != (workload, args.seed)
        ] + [entry]
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
