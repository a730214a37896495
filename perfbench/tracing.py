"""In-memory spans around isomlab's public functions, and the per-layer
metrics derived from them.

A traced pass replaces each public function in the namespace of every
module that imported it (``isomlab.recover.norm_value`` is the isometry
pre-check's norm work, ``isomlab.estimate.norm_gradient`` the constraint-row
build's gradient work) with a wrapper that records a span: name, parent,
start and end.  A module's calls to its own functions stay unwrapped unless
``TARGETS`` lists that module too, so a layer's span covers the work its
consumers asked for.  The originals are put back when the pass ends.
Spans stay in memory and are written out once, when the run ends.

A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (layer, module, public function): the function is wrapped in that
# module's namespace.  groups is listed for the Haar samplers because
# norms.check_invariance imports them from groups at call time, and
# estimate for c_numerical_radius because verify_preserver_forms calls it.
TARGETS = (
    ("estimate.cnr.radius", "cli", "c_numerical_radius"),
    ("estimate.cnr.radius", "estimate", "c_numerical_radius"),
    ("estimate.cnr.range_sample", "estimate", "c_numerical_range_sample"),
    ("estimate.cnr.preserver", "cli", "verify_preserver_forms"),
    ("estimate.dim", "cli", "isometry_algebra_dimension"),
    ("estimate.dim", "cli", "skew_isometry_algebra_dimension"),
    ("estimate.dim", "estimate", "isometry_algebra_dimension"),
    ("estimate.dim", "estimate", "skew_isometry_algebra_dimension"),
    ("norms.gradient", "estimate", "norm_gradient"),
    ("norms.value", "cli", "norm_value"),
    ("norms.value", "recover", "norm_value"),
    ("norms.invariance", "cli", "check_invariance"),
    ("matspace.random_element", "cli", "random_element"),
    ("matspace.random_element", "estimate", "random_element"),
    ("matspace.random_element", "recover", "random_element"),
    ("matspace.random_element", "groups", "random_element"),
    ("matspace.random_element", "norms", "random_element"),
    ("matspace.coord", "cli", "vectorize"),
    ("matspace.coord", "estimate", "vectorize"),
    ("matspace.coord", "recover", "vectorize"),
    ("matspace.coord", "groups", "vectorize"),
    ("matspace.coord", "recover", "devectorize"),
    ("matspace.coord", "norms", "devectorize"),
    ("groups.haar", "cli", "haar_unitary"),
    ("groups.haar", "cli", "haar_orthogonal"),
    ("groups.haar", "estimate", "haar_unitary"),
    ("groups.haar", "groups", "haar_unitary"),
    ("groups.haar", "groups", "haar_orthogonal"),
    ("groups.adjoint", "cli", "ad_matrix"),
    ("groups.adjoint", "cli", "so_adjoint_matrix"),
    ("groups.adjoint", "recover", "ad_matrix"),
    ("groups.adjoint", "recover", "so_adjoint_matrix"),
    ("recover.decompose", "cli", "decompose_isometry"),
    ("recover.decompose", "cli", "decompose_skew_isometry"),
    ("recover.decompose", "recover", "decompose_isometry"),
    ("recover.decompose", "recover", "decompose_skew_isometry"),
    ("recover.classify", "recover", "classify_eta_sigma"),
    ("recover.unitary", "recover", "recover_unitary_from_ad"),
    ("recover.orthogonal", "cli", "recover_orthogonal_from_adso"),
    ("recover.orthogonal", "recover", "recover_orthogonal_from_adso"),
    ("skew.youla", "cli", "youla_decompose"),
)

# (metric, unit, how it is read off one traced pass, span or counter).
# calls: spans of that name; total: their summed time; self: that time
# minus the child spans; outside: that time minus the named child spans;
# raised: spans that raised (the named exception class, if given);
# count, peak: counters the wrappers keep.
LAYERS = (
    *((f"cli.suite.{s}_s", "s", "total", f"cli.suite.{s}")
      for s in ("invariance", "dimension", "decompose", "skew", "cnr")),
    ("estimate.cnr.radius_calls", "count", "calls", "estimate.cnr.radius"),
    ("estimate.cnr.radius_s", "s", "total", "estimate.cnr.radius"),
    ("estimate.cnr.expm_calls", "count", "count", "estimate.cnr.expm_calls"),
    ("estimate.cnr.range_sample_s", "s", "total", "estimate.cnr.range_sample"),
    ("estimate.cnr.preserver_s", "s", "total", "estimate.cnr.preserver"),
    ("estimate.dim.calls", "count", "calls", "estimate.dim"),
    ("estimate.dim.s", "s", "total", "estimate.dim"),
    ("estimate.dim.solve_self_s", "s", "self", "estimate.dim"),
    ("estimate.dim.rows", "count", "count", "estimate.dim.rows"),
    ("estimate.dim.row_matrix_mb", "MB", "peak", "estimate.dim.row_matrix_mb"),
    *((f"estimate.dim.{k}_s", "s", "total", f"estimate.dim.{k}")
      for k in ("schatten3_n7", "schatten1_n5", "cspec_n8", "frobenius_n5")),
    ("norms.gradient_calls", "count", "calls", "norms.gradient"),
    ("norms.gradient_s", "s", "total", "norms.gradient"),
    ("norms.gradient_degenerate", "count", "raised", "norms.gradient", "DegeneratePoint"),
    ("norms.value_calls", "count", "calls", "norms.value"),
    ("norms.value_s", "s", "total", "norms.value"),
    ("norms.invariance_s", "s", "total", "norms.invariance"),
    ("matspace.random_element_calls", "count", "calls", "matspace.random_element"),
    ("matspace.random_element_s", "s", "total", "matspace.random_element"),
    ("matspace.coord_calls", "count", "calls", "matspace.coord"),
    ("matspace.coord_s", "s", "total", "matspace.coord"),
    ("groups.haar_calls", "count", "calls", "groups.haar"),
    ("groups.haar_s", "s", "total", "groups.haar"),
    ("groups.adjoint_s", "s", "total", "groups.adjoint"),
    ("recover.decompose_calls", "count", "calls", "recover.decompose"),
    ("recover.decompose_s", "s", "total", "recover.decompose"),
    # decompose time outside its classify and recovery children: the
    # isometry pre-check plus the final rebuild
    ("recover.precheck_s", "s", "outside", "recover.decompose",
     ("recover.classify", "recover.unitary", "recover.orthogonal")),
    ("recover.classify_calls", "count", "calls", "recover.classify"),
    ("recover.classify_s", "s", "total", "recover.classify"),
    ("recover.classify_rejects", "count", "raised", "recover.classify", "NotInClassifiedForm"),
    ("recover.unitary_s", "s", "total", "recover.unitary"),
    ("recover.orthogonal_calls", "count", "calls", "recover.orthogonal"),
    ("recover.orthogonal_s", "s", "total", "recover.orthogonal"),
    ("recover.branch_failures", "count", "raised", "recover.orthogonal", None),
    ("skew.youla_calls", "count", "calls", "skew.youla"),
    ("skew.youla_s", "s", "total", "skew.youla"),
)

#: per-layer metric name -> unit, in the order they are reported;
#: trace.overhead_s comes from the run, not from the spans
LAYER_UNITS = {m[0]: m[1] for m in LAYERS} | {"trace.overhead_s": "s"}


class Tracer:
    """Spans of one process, held in parallel lists until :meth:`write`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.errors: dict[int, str] = {}
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int, exc: BaseException | None = None) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if exc is not None:
            self.errors[i] = type(exc).__name__

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        except BaseException as exc:
            self.close(i, exc)
            raise
        self.close(i)

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(i, exc)
                raise
            self.close(i)
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def _note_dimension(self, report) -> None:
        from isomlab.matspace import space_dim

        rows = getattr(report, "samples_used", None)
        if rows is None:
            return
        rows = int(rows)
        d = space_dim(report.space, report.n)
        self.counts["estimate.dim.rows"] += rows
        mb = rows * d * d * 8 / 1e6
        self.peaks["estimate.dim.row_matrix_mb"] = max(
            self.peaks.get("estimate.dim.row_matrix_mb", 0.0), mb
        )

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block.

        Targets a module no longer imports are skipped and listed in
        ``missing``; their layers then read zero.
        """
        import importlib

        import scipy.linalg

        saved = []
        self.missing = []
        try:
            for layer, mod_name, attr in TARGETS:
                mod = importlib.import_module(f"isomlab.{mod_name}")
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                hook = self._note_dimension if layer == "estimate.dim" else None
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(layer, fn, hook))
            expm = scipy.linalg.expm

            def counted_expm(*args, **kwargs):
                self.counts["estimate.cnr.expm_calls"] += 1
                return expm(*args, **kwargs)

            saved.append((scipy.linalg, "expm", expm))
            scipy.linalg.expm = counted_expm
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def reset_counters(self) -> None:
        self.counts = Counter()
        self.peaks = {}

    def layer_metrics(self, lo: int, hi: int) -> dict:
        """Per-layer metrics of the spans ``[lo, hi)`` and the current
        counters (one traced pass)."""
        names = np.asarray(self.name_id[lo:hi], dtype=np.int64)
        parent = np.asarray(self.parent[lo:hi], dtype=np.int64) - lo
        dur = np.asarray(self.end[lo:hi]) - np.asarray(self.start[lo:hi])
        errors = [(self.name_id[i], e) for i, e in self.errors.items() if lo <= i < hi]

        def ids(*span_names):
            wanted = [self._ids[n] for n in span_names if n in self._ids]
            return np.isin(names, wanted)

        def child_time(children):
            sel = children & (parent >= 0)
            return np.bincount(parent[sel], weights=dur[sel], minlength=len(dur))

        metrics = {}
        for metric, _, how, name, *arg in LAYERS:
            if how == "calls":
                value = int(np.count_nonzero(ids(name)))
            elif how == "total":
                value = float(np.sum(dur[ids(name)]))
            elif how == "self":
                value = float(np.sum((dur - child_time(np.ones(len(dur), bool)))[ids(name)]))
            elif how == "outside":
                value = float(np.sum((dur - child_time(ids(*arg[0])))[ids(name)]))
            elif how == "raised":
                nid = self._ids.get(name)
                value = sum(1 for i, e in errors if i == nid and arg[0] in (None, e))
            elif how == "count":
                value = int(self.counts[name])
            else:  # peak
                value = self.peaks.get(name, 0.0)
            metrics[metric] = value
        return metrics

    def write(self, path) -> int:
        """Write every span as one JSON line (name, parent, start, end in
        seconds from the first span, error class or null); returns the
        number of spans written."""
        t0 = self.start[0] if self.start else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i, nid in enumerate(self.name_id):
                fh.write(
                    json.dumps([
                        nid, self.parent[i], round(self.start[i] - t0, 9),
                        round(self.end[i] - t0, 9), self.errors.get(i),
                    ]) + "\n"
                )
        return len(self.name_id)
