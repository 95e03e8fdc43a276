"""In-memory layer tracer for the benchmark, installed from outside the library.

The library has no timers of its own, so the traced run wraps the public
function (or method) that forms each layer's boundary.  A function imported
by name into another module is a second reference to the same object, and a
wrapper installed only where the function is defined would miss every call
made through that second reference.  :meth:`Tracer.install` therefore
replaces *every* reference held by a loaded ``repro`` module, and
:meth:`Tracer.uninstall` puts the originals back.

Each call becomes a span: layer, function name, start, end, parent span and
the id of the request it belongs to.  Spans are kept in memory and exported
at the end, as Chrome trace-event JSON (:meth:`Tracer.chrome_trace`) and as
the per-layer aggregate (:meth:`Tracer.layer_metrics`).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Layer name -> the public calls whose spans make up the layer.  A target is
#: ``module:function`` or ``module:Class.method``.  A method target covers the
#: class and every subclass that overrides the method.
LAYERS: dict[str, tuple[str, ...]] = {
    "distances": ("repro.clustering.distances:pairwise_distances",),
    "distance_cache": ("repro.utils.cache:cached_pairwise_distances",),
    "core_distances": ("repro.clustering.distances:k_nearest_distances",),
    "mreach": ("repro.clustering.hierarchy:mutual_reachability",),
    "mst": ("repro.clustering.hierarchy:minimum_spanning_tree",),
    "condense": ("repro.clustering.kernels:condense_tree",),
    "structure": (
        "repro.clustering.hierarchy:cached_tree_structure",
        "repro.clustering.hierarchy:build_tree_structure",
    ),
    "structure_codec": (
        "repro.clustering.hierarchy:structure_payload",
        "repro.clustering.hierarchy:structure_from_payload",
    ),
    "store": (
        "repro.experiments.artifacts:ArtifactStore.get",
        "repro.experiments.artifacts:ArtifactStore.put",
        "repro.experiments.artifacts:ArtifactStore.contains",
        "repro.experiments.artifacts:ArtifactStore.delete",
    ),
    "closure": ("repro.constraints.closure:transitive_closure",),
    "folds": ("repro.core.folds:make_folds",),
    "extract": ("repro.clustering.fosc:FOSC.extract",),
    "score": ("repro.core.scoring:score_partition",),
    "silhouette": ("repro.evaluation.internal:silhouette_score",),
    "mpck": (
        "repro.clustering.mpckmeans:MPCKMeans.fit",
        "repro.clustering.kernels:mpck_assign",
    ),
    "executor": ("repro.core.executor:Executor.run",),
    "cvcp": ("repro.core.cvcp:CVCP.fit",),
    "report": ("repro.experiments.reporting:write_report",),
}

#: Layers measured outside the traced process (see ``run.py``).
PROBED_LAYERS = ("import",)

#: Per-layer metrics beyond ``<layer>.calls``/``.busy_s``/``.self_s``, with units.
EXTRA_METRICS: dict[str, str] = {
    "distances.computed_mb": "MB",
    "distance_cache.hit_ratio": "ratio",
    "mreach.computed_mb": "MB",
    "structure.builds": "count",
    "structure.hit_ratio": "ratio",
    "structure_codec.encode_s": "s",
    "structure_codec.decode_s": "s",
    "store.get.calls": "count",
    "store.get.busy_s": "s",
    "store.get.hit_ratio": "ratio",
    "store.get.read_mb": "MB",
    "store.put.calls": "count",
    "store.put.busy_s": "s",
    "store.put.write_mb": "MB",
    "store.contains.calls": "count",
    "store.contains.busy_s": "s",
    "store.delete.calls": "count",
    "store.delete.busy_s": "s",
    "store.errors": "count",
    "closure.constraints_out": "count",
    "mpck_assign.busy_s": "s",
    "executor.tasks": "count",
    "cvcp.cells": "count",
    "report.write_mb": "MB",
}

_MB = 1e6


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for layer in (*LAYERS, *PROBED_LAYERS):
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


class Span:
    """One traced call.  ``child_ns`` sums the durations of its direct children."""

    __slots__ = (
        "id", "layer", "name", "parent", "request", "start", "end", "child_ns",
        "outer", "child_layers", "error",
    )

    def __init__(self, id_, layer, name, parent, request, outer):
        self.id = id_
        self.layer = layer
        self.name = name
        self.parent = parent
        self.request = request
        self.outer = outer
        self.child_ns = 0
        self.child_layers = None
        self.error = False
        self.end = 0
        self.start = time.perf_counter_ns()

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


def _resolve(target: str):
    """``(owner, attribute, original)`` for a ``module:name`` target."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attribute = qualname.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attribute, getattr(owner, attribute)


def _overriding_classes(cls: type, attribute: str) -> list[type]:
    """``cls`` and its subclasses that define ``attribute`` concretely."""
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        pending.extend(current.__subclasses__())
        method = vars(current).get(attribute)
        if method is not None and not getattr(method, "__isabstractmethod__", False):
            found.append(current)
    return found


def _file_mb(path) -> float:
    try:
        return Path(path).stat().st_size / _MB
    except OSError:
        return 0.0


class Tracer:
    """Records spans around the layer boundaries while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.request: int | None = None
        self._stack: list[Span] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def open(self, layer: str, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._depth[layer] += 1
        span = Span(len(self.spans) + len(self._stack), layer, name, parent, self.request,
                    self._depth[layer] == 1)
        self._stack.append(span)
        return span

    def close(self, span: Span, *, error: bool = False) -> None:
        span.end = time.perf_counter_ns()
        span.error = error
        self._stack.pop()
        self._depth[span.layer] -= 1
        parent = span.parent
        if parent is not None:
            parent.child_ns += span.end - span.start
            if parent.child_layers is None:
                parent.child_layers = set()
            parent.child_layers.add(span.layer)
        self.spans.append(span)

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer target at every ``repro`` module that references it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, attribute, original = _resolve(target)
                label = target.partition(":")[2]
                if isinstance(owner, type):
                    for cls in _overriding_classes(owner, attribute):
                        method = vars(cls)[attribute]
                        self._patch(cls, attribute, self._wrap(layer, label, method), method)
                    continue
                wrapper = self._wrap(layer, label, original)
                for module in list(sys.modules.values()):
                    if not getattr(module, "__name__", "").startswith("repro"):
                        continue
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper, original)

    def uninstall(self) -> None:
        """Restore every reference :meth:`install` replaced."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, name, wrapper, original) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def _wrap(self, layer: str, label: str, fn):
        tracer = self
        record = _RECORDERS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.request is None:
                # Outside a request (the client generating its inputs).
                return fn(*args, **kwargs)
            span = tracer.open(layer, label)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(span, error=True)
                raise
            tracer.close(span)
            if record is not None:
                record(tracer.counters, args, kwargs, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    # -- export ------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, busy time (outermost spans) and self time, plus extras."""
        metrics = {name: 0.0 for name in per_layer_metric_units()}
        by_name: dict[str, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.layer not in LAYERS:
                continue
            by_name[span.name].append(span)
            metrics[f"{span.layer}.calls"] += 1
            if span.outer:
                metrics[f"{span.layer}.busy_s"] += span.duration_ns / 1e9
            metrics[f"{span.layer}.self_s"] += (span.duration_ns - span.child_ns) / 1e9
            if span.error and span.layer == "store":
                metrics["store.errors"] += 1

        def busy(name: str) -> float:
            return sum(span.duration_ns for span in by_name[name]) / 1e9

        def ratio(hits: float, calls: float) -> float:
            return hits / calls if calls else 0.0

        caches = by_name["cached_pairwise_distances"]
        metrics["distance_cache.hit_ratio"] = ratio(
            sum(1 for s in caches if "distances" not in (s.child_layers or ())), len(caches)
        )
        lookups = by_name["cached_tree_structure"]
        metrics["structure.builds"] = len(by_name["build_tree_structure"])
        metrics["structure.hit_ratio"] = ratio(
            sum(1 for s in lookups if not _has_build_child(s)), len(lookups)
        )
        metrics["structure_codec.encode_s"] = busy("structure_payload")
        metrics["structure_codec.decode_s"] = busy("structure_from_payload")
        for op in ("get", "put", "contains", "delete"):
            metrics[f"store.{op}.calls"] = len(by_name[f"ArtifactStore.{op}"])
            metrics[f"store.{op}.busy_s"] = busy(f"ArtifactStore.{op}")
        metrics["store.get.hit_ratio"] = ratio(
            self.counters["store.get.hits"], metrics["store.get.calls"]
        )
        metrics["mpck_assign.busy_s"] = busy("mpck_assign")
        for name in (
            "distances.computed_mb", "mreach.computed_mb", "store.get.read_mb",
            "store.put.write_mb", "closure.constraints_out", "executor.tasks",
            "cvcp.cells", "report.write_mb",
        ):
            metrics[name] = self.counters[name]
        return metrics

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (Perfetto / ``chrome://tracing``)."""
        origin = min((span.start for span in self.spans), default=0)
        events = [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start - origin) / 1000,
                "dur": span.duration_ns / 1000,
                "pid": 1,
                "tid": 1,
                "args": {
                    "id": span.id,
                    "parent": span.parent.id if span.parent is not None else None,
                    "request": span.request,
                },
            }
            for span in sorted(self.spans, key=lambda span: span.start)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _has_build_child(span: Span) -> bool:
    return "structure" in (span.child_layers or ())


# -- per-call counters -----------------------------------------------------
def _square_mb(counter: str):
    def record(counters, args, kwargs, result):
        n = args[0].shape[0]
        counters[counter] += 8.0 * n * n / _MB

    return record


def _store_get(counters, args, kwargs, result):
    if result is not None:
        store, kind, key = args[0], args[1], args[2]
        counters["store.get.hits"] += 1
        counters["store.get.read_mb"] += _file_mb(store.path_for(kind, key))


def _store_put(counters, args, kwargs, result):
    counters["store.put.write_mb"] += _file_mb(result)


def _closure(counters, args, kwargs, result):
    counters["closure.constraints_out"] += len(result)


def _executor(counters, args, kwargs, result):
    counters["executor.tasks"] += len(args[2] if len(args) > 2 else kwargs["tasks"])


def _cvcp(counters, args, kwargs, result):
    counters["cvcp.cells"] += sum(
        len(evaluation.fold_scores) for evaluation in args[0].cv_results_.evaluations
    )


def _report(counters, args, kwargs, result):
    counters["report.write_mb"] += sum(_file_mb(path) for path in result)


_RECORDERS = {
    "pairwise_distances": _square_mb("distances.computed_mb"),
    "mutual_reachability": _square_mb("mreach.computed_mb"),
    "ArtifactStore.get": _store_get,
    "ArtifactStore.put": _store_put,
    "transitive_closure": _closure,
    "Executor.run": _executor,
    "CVCP.fit": _cvcp,
    "write_report": _report,
}
