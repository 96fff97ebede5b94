"""Spans recorded from outside rahar, around the calls into each layer.

``instrument`` replaces the public functions listed in ``LAYERS`` with
timing wrappers in every loaded ``rahar`` module namespace, so an
unmodified ``rahar.cli.main`` call runs under the tracer; ``restore``
puts the originals back.  Spans stay in memory until the caller writes
them out.  A layer's self time is its span's duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    workload: str = ""
    recording: str | None = None
    segment: int | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.recording: str | None = None
        self.segment: int | None = None
        self.segment_starts: dict[int, int] = {}  # awake start -> segment id
        self.observations: dict[tuple[str, int], object] = {}
        self.dataset = None

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, parent, 0.0, 0.0, self.workload, self.recording, self.segment, attrs)
        self.spans.append(s)
        self._stack.append(s.id)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals inside it."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def totals_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals


# --- what each wrapper records -------------------------------------------------


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _on_segments(tracer, span, args, kwargs, result):
    tracer.segment_starts = {s.awake_start_index: k for k, s in enumerate(result) if not s.empty_awake}
    span.attrs["segments"] = len(result)


def _on_observations(tracer, span, args, kwargs, result):
    tracer.observations[(tracer.recording, tracer.segment)] = result


def _before_observations(tracer, args, kwargs):
    tracer.segment = tracer.segment_starts.get(_arg(args, kwargs, 1, "start"))


def _on_e_divisive(tracer, span, args, kwargs, result):
    length = len(_arg(args, kwargs, 0, "span"))
    params, perm_cfg = _arg(args, kwargs, 1, "params"), _arg(args, kwargs, 2, "perm_cfg")
    m = params.min_segment
    skipped = length < 2 * m
    bounds = [0, *(cp.index for cp in result), length]
    # a failing test ends the loop whenever some segment is still splittable
    final_test = not skipped and any(b - a >= 2 * m for a, b in zip(bounds, bounds[1:]))
    tests = len(result) + final_test
    span.attrs.update(
        length=length,
        skipped=skipped,
        committed=len(result),
        tests=tests,
        permutations=tests * perm_cfg.n_permutations,
        dist_bytes=0 if skipped else 8 * length * length,
    )


def _on_dataset(tracer, span, args, kwargs, result):
    tracer.dataset = result
    span.attrs.update(
        rows=len(result),
        poor=int((result.y == 0).sum()),
        dropped=len(_arg(args, kwargs, 0, "segments")) - len(result),
    )


def _before_analyze(tracer, args, kwargs):
    tracer.recording = _arg(args, kwargs, 0, "name")
    tracer.segment = None


def _cv_name(args, kwargs):
    return f"models.cv_{_arg(args, kwargs, 2, 'kind')}"


# (module, function, span name or name(args, kwargs), before(tracer, args, kwargs),
#  after(tracer, span, args, kwargs, result))
LAYERS = [
    ("rahar.cli", "main", "cli.main", None, None),
    ("rahar.pipeline", "run_pipeline", "pipeline.run", None, None),
    ("rahar.pipeline", "load_series", "pipeline.load", None, None),
    ("rahar.ingest", "parse_epoch_csv", "ingest.parse", None, None),
    ("rahar.ingest", "validate_series", "ingest.validate", None,
     lambda t, s, a, k, r: s.attrs.update(epochs=len(r))),
    ("rahar.pipeline", "analyze_recording", "pipeline.analyze", _before_analyze, None),
    ("rahar.cutpoints", "classify_series", "cutpoints.classify", None, None),
    ("rahar.sleep", "candidate_mask", "sleep.mask", None, None),
    ("rahar.sleep", "detect_sleep_periods", "sleep.periods", None,
     lambda t, s, a, k, r: s.attrs.update(periods=len(r))),
    ("rahar.sleep", "compute_metrics", "sleep.metrics", None, None),
    ("rahar.segments", "segment_sleep_wake", "segments.segment", None, _on_segments),
    ("rahar.pipeline", "cp_observations", "pipeline.observations", _before_observations, _on_observations),
    ("rahar.changepoint", "e_divisive", "changepoint.e_divisive", None, _on_e_divisive),
    ("rahar.modes", "label_intervals", "modes.label", None, None),
    ("rahar.pipeline", "pooled_dataset", "pipeline.pooled", None, None),
    ("rahar.features", "build_dataset", "features.dataset", None, _on_dataset),
    ("rahar.reports", "write_json", "reports.write", None, None),
    ("rahar.reports", "write_csv", "reports.write", None, None),
    ("rahar.reports", "write_roc_outputs", "reports.write", None, None),
    ("rahar.pipeline", "train_and_report", "pipeline.train", None, None),
    ("rahar.models.validation", "cross_validate", _cv_name, None, None),
]


def _wrap(tracer: Tracer, fn, name, before, after):
    def wrapper(*args, **kwargs):
        if before:
            before(tracer, args, kwargs)
        label = name(args, kwargs) if callable(name) else name
        with tracer.span(label) as span:
            result = fn(*args, **kwargs)
        if after:
            after(tracer, span, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def instrument(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every LAYERS function wherever a rahar module refers to it.

    Returns the replaced bindings for ``restore``.  A function missing from
    the program is skipped; its layer then reads zero.
    """
    for module, *_ in LAYERS:
        importlib.import_module(module)
    replaced = []
    for module, attr, name, before, after in LAYERS:
        fn = getattr(sys.modules[module], attr, None)
        if fn is None:
            print(f"perfbench: {module}.{attr} not found; not traced", file=sys.stderr)
            continue
        wrapper = _wrap(tracer, fn, name, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "rahar":
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    replaced.append((mod, key, fn))
    return replaced


def restore(replaced: list[tuple[object, str, object]]) -> None:
    for mod, key, fn in reversed(replaced):
        setattr(mod, key, fn)
