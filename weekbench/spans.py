"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: ``Tracer.install`` swaps
each layer's public functions, in every ``orsched`` module that holds a
reference to them, for a wrapper that opens a span around the call, and
``uninstall`` puts the originals back. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import asdict, dataclass, field

LAYERS = ("cli", "ingest", "predict", "regressors", "solve", "evaluate")

# (module, function, span name, counter). A counter maps the call's result and
# positional arguments to the per-layer counts it adds. ``solve_auto``'s span
# name is completed with the method of the running ``schedule`` command.
WRAPPED = (
    ("orsched.ingest", "generate_synthetic_dataset", "ingest.generate", None),
    ("orsched.ingest", "generate_week", "ingest.generate", None),
    ("orsched.ingest", "generate_hospitalizations", "ingest.generate", None),
    ("orsched.ingest", "write_records_csv", "ingest.write_records", None),
    ("orsched.ingest", "write_registrations_csv", "ingest.write_records", None),
    ("orsched.ingest", "write_mss_csv", "ingest.write_records", None),
    ("orsched.ingest", "write_shifts_csv", "ingest.write_records", None),
    ("orsched.ingest", "read_records_csv", "ingest.read_records",
     lambda r, a: {"ingest.read_records_rows": len(r)}),
    ("orsched.ingest", "preprocess", "ingest.preprocess",
     lambda r, a: {"ingest.preprocess_rows_out": len(r[0].records)}),
    ("orsched.ingest", "load_instance", "ingest.load_instance",
     lambda r, a: {"ingest.registrations": len(r.registrations), "ingest.cells": len(r.mss)}),
    ("orsched.predict", "encode_features", "predict.encode",
     lambda r, a: {"predict.features": int(r[0].shape[1])}),
    ("orsched.predict", "FeatureEncoder.transform", "predict.transform", None),
    ("orsched.predict", "save_model", "predict.save_model",
     lambda r, a: {"predict.model_bytes": os.path.getsize(a[2])}),
    ("orsched.predict", "load_model", "predict.load_model", None),
    ("orsched.regressors", "fit", "regressors.fit",
     lambda r, a: {"regressors.fit_rows": int(a[1].shape[0]),
                   "regressors.trees": len(r.structure.get("trees", [None]))}),
    ("orsched.regressors", "predict", "regressors.predict",
     lambda r, a: {"regressors.predict_rows": int(a[1].shape[0])}),
    ("orsched.solve", "solve_auto", "solve.", None),
    ("orsched.solve", "write_schedule_csv", "solve.write", None),
    ("orsched.solve", "write_objective_json", "solve.write", None),
    ("orsched.evaluate", "apply_method_durations", "evaluate.apply_durations", None),
    ("orsched.solve", "read_schedule_csv", "evaluate.read_schedule", None),
    ("orsched.evaluate", "replay", "evaluate.replay",
     lambda r, a: {"evaluate.cells_replayed": len(r.cells)}),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory, in opening order; the open ones form a stack,
    so each span's parent is the span open when it started."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []
        #: lower-case method of the ``schedule`` command being run
        self.method = ""

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, counter):
        def traced(*args, **kwargs):
            span = self.open(name + self.method if name == "solve." else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span.counts = counter(result, args)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("orsched") and m is not None]
        for module_name, attr, name, counter in WRAPPED:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counter)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-name time (``<name>_s``), summed counts, and each layer's self time
    (``<layer>.self_s``) over a contiguous run of spans.

    A span's time counts towards its name only when no enclosing span has the
    same name (``generate_week`` calls ``generate_synthetic_dataset``, both
    ``ingest.generate``). A span's self time is its duration minus that of
    its direct children.
    """
    by_id = {s.id: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent in by_id:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        out[f"{s.name.split('.')[0]}.self_s"] += s.seconds - child_time.get(s.id, 0.0)
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            out[s.name + "_s"] = out.get(s.name + "_s", 0.0) + s.seconds
        for key, value in s.counts.items():
            out[key] = out.get(key, 0) + value
    return out
