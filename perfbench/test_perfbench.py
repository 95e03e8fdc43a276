"""The benchmark's own tests: tracer coverage, per-workload layer counts, the CLI contract.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracing import LAYERS, Tracer, _resolve  # noqa: E402
from worker import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.utils.cache import clear_distance_cache  # noqa: E402

#: Modules that import a layer function by name (each must see the wrapper).
BY_NAME_IMPORTS = [
    ("repro.core.folds", "transitive_closure"),
    ("repro.clustering.fosc", "transitive_closure"),
    ("repro.clustering.mpckmeans", "transitive_closure"),
    ("repro.clustering.hierarchy", "k_nearest_distances"),
    ("repro.experiments.runner", "silhouette_score"),
    ("repro.core.model_selection", "silhouette_score"),
    ("repro.core.cvcp", "make_folds"),
    ("repro.core.cvcp", "score_partition"),
    ("repro.clustering.hierarchy", "cached_pairwise_distances"),
    ("repro.clustering.mpckmeans", "mpck_assign"),
    ("repro.experiments.pipeline", "write_report"),
]
RATIONALE = json.loads((BENCH / "rationale.json").read_text())


def _function_targets():
    for targets in LAYERS.values():
        for target in targets:
            owner, attribute, original = _resolve(target)
            if not isinstance(owner, type):
                yield target, original


def _references_to(original) -> list[str]:
    return [
        f"{module.__name__}.{name}"
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").startswith("repro")
        for name, value in list(vars(module).items())
        if value is original
    ]


def test_install_wraps_every_reference_and_uninstall_restores_them():
    originals = dict(_function_targets())
    assert originals, "no function targets resolved"
    with Tracer():
        for target, original in originals.items():
            assert _references_to(original) == [], f"{target} still reachable unwrapped"
        for module_name, name in BY_NAME_IMPORTS:
            value = getattr(importlib.import_module(module_name), name)
            assert getattr(value, "__wrapped_by_perfbench__", False), f"{module_name}.{name}"
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, attribute, _ = _resolve(target)
                if isinstance(owner, type):
                    for cls in [owner, *owner.__subclasses__()]:
                        method = vars(cls).get(attribute)
                        if method is not None and not getattr(method, "__isabstractmethod__", False):
                            assert getattr(method, "__wrapped_by_perfbench__", False), (layer, cls)
    for target, original in originals.items():
        module_name, _, name = target.partition(":")
        assert getattr(importlib.import_module(module_name), name) is original
        assert _references_to(original), target
    for module_name, name in BY_NAME_IMPORTS:
        value = getattr(importlib.import_module(module_name), name)
        assert not hasattr(value, "__wrapped_by_perfbench__")


def _traced(workload_name: str, requests: int, tmp_path: Path, seed: int = 1):
    """Digests of an untraced and a traced run of the same requests, and the layer table."""
    runs = []
    for traced in (False, True):
        clear_distance_cache()
        workload = WORKLOADS[workload_name](seed, tmp_path / f"traced-{traced}")
        workload.setup()
        plan = workload.plan()
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        try:
            result = measure(workload, plan, next(plan), requests=requests, tracer=tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        runs.append((result, tracer))
    (untraced, _), (traced_result, tracer) = runs
    assert traced_result["errors"] == untraced["errors"] == 0
    assert traced_result["digests"] == untraced["digests"]
    return traced_result, tracer.layer_metrics()


@pytest.fixture(scope="module")
def layer_tables(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perfbench")
    # Request counts are chosen to reach every job kind: paper_grid's first
    # 12 jobs of seed 1 include both algorithms and both scenarios.
    return {
        name: _traced(name, requests, tmp / name)
        for name, requests in (("paper_grid", 12), ("scale_fit", 1), ("constraint_stream", 8))
    }


def test_expected_nonzero_and_zero_counts(layer_tables):
    for name, (_, layers) in layer_tables.items():
        assert layers["mreach.calls"] > 0, name
        if name != "paper_grid":
            assert layers["mpck.calls"] == 0, name
            assert layers["silhouette.calls"] == 0, name
            assert layers["report.calls"] == 0, name
    assert layer_tables["scale_fit"][1]["store.put.calls"] == 0
    assert layer_tables["scale_fit"][1]["store.calls"] == 0
    assert layer_tables["paper_grid"][1]["mpck.calls"] > 0


def test_each_layer_is_busy_on_its_mostly_on_workloads(layer_tables):
    for layer, entry in RATIONALE["layers"].items():
        if layer == "import":
            continue
        for workload in entry["mostly_on"]:
            assert layer_tables[workload][1][f"{layer}.calls"] > 0, (layer, workload)


def test_requested_cells_bound_the_evaluated_grid(layer_tables):
    # Equal unless CVCP capped a fold count for scarce side information.
    for name, (result, layers) in layer_tables.items():
        assert 0 < layers["cvcp.cells"] <= sum(result["cells"]), name
    result, layers = layer_tables["scale_fit"]
    assert sum(result["cells"]) == layers["cvcp.cells"]


def test_self_time_never_exceeds_busy_time(layer_tables):
    for name, (_, layers) in layer_tables.items():
        for layer in LAYERS:
            assert layers[f"{layer}.self_s"] <= layers[f"{layer}.busy_s"] + 1e-9, (name, layer)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [entry["name"] for entry in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {entry["name"]: entry["unit"] for entry in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {entry["name"]: entry["unit"] for entry in spec["per_layer"]} == run.per_layer_units()
    assert set(RATIONALE["layers"]) == set(LAYERS) | {"import"}


def test_tail_is_the_highest_percentile_with_ten_requests_beyond_it():
    latencies = list(range(1, 101))
    value, percentile = run.tail(latencies)
    assert value == 90 and percentile == 90.0
    assert sum(1 for latency in latencies if latency > value) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail(list(range(20))) == (19, 100.0)
    assert run.tail(list(range(21)))[0] == 10  # the median: 10 requests beyond it


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
