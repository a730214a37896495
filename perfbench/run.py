"""isomlab benchmark: one workload, one process, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Inputs are made from the seed before timing starts.  A pass makes
the workload's library calls one at a time (a closed loop with a single
caller and no threads of its own; BLAS keeps its default thread count, which
is recorded).  Passes repeat until the next one would end after S seconds,
with at least two.  Every output is checked after its pass; a check that
fails or raises is counted and the run goes on.

The host's speed drifts by up to 2x for seconds to minutes at a time, so
wall times are reported in units of a fixed reference kernel (small numpy
linear algebra driven from Python, no isomlab) timed between calls: each
call's latency is divided by the mean of the reference timings taken just
before and just after it.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones; it also checks that tracing leaves
every output unchanged, and writes the spans to ``.bench_out/``.

The second-to-last line of standard output is a JSON detail object (the
machine, sample counts, fail share, failed check ids); the last line is the
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracing import LAYER_UNITS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: fresh interpreters timed for setup_s; the median is reported
SETUP_SPAWNS = 5

#: fewest untraced passes in a --trace 0 run
MIN_PASSES = 2

#: the reference kernel is timed before a call once this long has passed
#: since its last timing, and after a pass's last call
REF_EVERY_S = 0.2

#: runs of the reference kernel in one timing; the median is taken
REF_BURST = 3

E2E_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MiB",
    "accuracy_digits": "digits",
}


def measure_setup() -> float:
    """Median wall time from a fresh interpreter to ``isomlab`` imported."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import isomlab"
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


_REF_RNG = np.random.default_rng(0)
_REF_SMALL = _REF_RNG.standard_normal((8, 8))
_REF_MEDIUM = _REF_RNG.standard_normal((24, 24))


def reference_kernel() -> float:
    """Fixed work in the workloads' style: small dense linear algebra driven
    from Python.  It does not touch isomlab, so a change to the library
    leaves its time alone.  It takes about a millisecond."""
    s = 0.0
    for _ in range(15):
        s += float(np.linalg.eigvalsh(_REF_SMALL @ _REF_SMALL.T)[-1])
        s += float(np.linalg.svd(_REF_MEDIUM, compute_uv=False)[0])
        s += sum(float(x) for x in _REF_SMALL[0])
    return s


def time_reference() -> float:
    """Median time of REF_BURST runs of the reference kernel."""
    times = []
    for _ in range(REF_BURST):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def blas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded, by library."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(p for p in paths if ".so" in p):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                found[Path(path).name] = fn()
                break
    return found


def machine() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
    }


def run_pass(calls, tracer=None):
    """Make each call in turn; returns (latencies, refs, outputs), where
    ``refs[i]`` is the mean of the two reference timings that bracket call i
    (taken outside the calls' timing and outside any span)."""
    latencies, outputs, samples, bracket = [], [], [], []
    ref_at = None
    for call in calls:
        if ref_at is None or time.perf_counter() - ref_at > REF_EVERY_S:
            samples.append(time_reference())
            ref_at = time.perf_counter()
        bracket.append(len(samples) - 1)
        t0 = time.perf_counter()
        try:
            if tracer is not None and call.span:
                with tracer.span(call.span):
                    out = call()
            else:
                out = call()
        except Exception as exc:  # a raising call is a failed check, not a crash
            out = exc
        latencies.append(time.perf_counter() - t0)
        outputs.append(out)
    samples.append(time_reference())
    refs = [(samples[j] + samples[j + 1]) / 2 for j in bracket]
    return latencies, refs, outputs


def fingerprint(obj, h=None) -> str:
    """Digest of a pass's outputs; wall-clock fields of reports are left out
    by digesting only their records."""
    top = h is None
    h = h or hashlib.sha256()
    if isinstance(obj, BaseException):
        h.update(f"raised {type(obj).__name__}: {obj}".encode())
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif hasattr(obj, "records") and hasattr(obj, "runtime_ms"):
        fingerprint(obj.records, h)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            fingerprint(getattr(obj, f.name), h)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            fingerprint(v, h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else ""


class Tally:
    """Checks attempted and failed over a run, with the first failed ids."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_ids: list[str] = []

    def add(self, check_id: str, passed: bool) -> None:
        self.attempted += 1
        if not passed:
            self.failed += 1
            if len(self.failed_ids) < 20:
                self.failed_ids.append(check_id)

    def check_pass(self, calls, outputs) -> None:
        for call, out in zip(calls, outputs):
            try:
                results = call.check(out)
            except Exception as exc:  # an output the check cannot read
                results = [(f"{call.label}/check_raised:{type(exc).__name__}", False)]
            for check_id, passed in results:
                self.add(check_id, passed)


def pass_time(latencies) -> float:
    """Typical pass time: the sum over calls of each call's median latency
    across the passes (``latencies`` holds one list per pass)."""
    return float(np.median(np.asarray(latencies), axis=0).sum())


def pass_refs(latencies, refs) -> float:
    """Typical pass time in reference units: the sum over calls of each
    call's median, across the passes, of its latency divided by its
    reference time (``refs`` is shaped like ``latencies``)."""
    return float(np.median(np.asarray(latencies) / np.asarray(refs), axis=0).sum())


def call_percentiles_ms(latencies) -> dict:
    """Median over passes of each pass's 50th and 95th percentile call
    latency."""
    per_pass = np.percentile(np.asarray(latencies), [50, 95], axis=1) * 1e3
    p50, p95 = np.median(per_pass, axis=1)
    return {"call_p50_ms": float(p50), "call_p95_ms": float(p95)}


def run_untraced(workload, calls, seconds, tally):
    latencies, refs = [], []
    start = time.perf_counter()
    while True:
        lat, ref, outs = run_pass(calls)
        tally.check_pass(calls, outs)
        latencies.append(lat)
        refs.append(ref)
        if len(latencies) >= MIN_PASSES and time.perf_counter() - start + sum(lat) > seconds:
            break
    metrics = {
        "wall_ref": pass_refs(latencies, refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "accuracy_digits": workload.accuracy(outs),
    }
    detail = {
        "passes": len(latencies),
        "wall_s": pass_time(latencies),
        "ref_ms": float(np.median(refs)) * 1e3,
        "pass_walls_s": [sum(lat) for lat in latencies],
        **call_percentiles_ms(latencies),
    }
    return metrics, detail


def run_traced(calls, seconds, tally, spans_path):
    tracer = Tracer()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        lat, _, outs = run_pass(calls)
        tally.check_pass(calls, outs)
        plain.append(lat)
        reference = fingerprint(outs)

        lo = len(tracer.start)
        tracer.reset_counters()
        with tracer.installed():
            lat_t, _, outs = run_pass(calls, tracer)
        tally.check_pass(calls, outs)
        tally.add(f"trace/pass{len(traced)}/outputs_match", fingerprint(outs) == reference)
        traced.append(lat_t)
        layers.append(tracer.layer_metrics(lo, len(tracer.start)))
        if time.perf_counter() - start + sum(lat) + sum(lat_t) > seconds:
            break
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    metrics["trace.overhead_s"] = pass_time(traced) - pass_time(plain)
    spans = tracer.write(spans_path)
    detail = {
        "pass_pairs": len(traced),
        "untraced_walls_s": [sum(lat) for lat in plain],
        "traced_walls_s": [sum(lat) for lat in traced],
        "spans": spans,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "missing_targets": tracer.missing,
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="isomlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "isomlab" / "__init__.py").is_file():
        print(f"error: no isomlab source at {SRC / 'isomlab'}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    import isomlab

    if Path(isomlab.__file__).resolve().parent != (SRC / "isomlab").resolve():
        print(f"error: imported isomlab from {isomlab.__file__}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    calls = workload.build(args.seed)
    run_pass(workload.warmup(args.seed))  # first-call costs: caches, lazy imports
    tally = Tally()
    if args.trace:
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        metrics, detail = run_traced(calls, args.seconds, tally, spans_path)
        units = LAYER_UNITS
    else:
        metrics, detail = run_untraced(workload, calls, args.seconds, tally)
        metrics["setup_s"] = setup_s
        detail["setup_spawns"] = SETUP_SPAWNS
        units = E2E_UNITS

    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        calls_per_pass=len(calls),
        fail_share=tally.failed / max(tally.attempted, 1),
        failed_ids=tally.failed_ids,
        machine=machine(),
    )
    print(json.dumps({"detail": detail}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
