"""Kernel micro-benchmarks + baseline regression gate for ``repro bench kernels``.

Times each of the four hot clustering kernels of
:mod:`repro.clustering.kernels` (the ``vectorized`` side: masked NumPy
array operations) against its interpreter-bound oracle in the private
``repro._reference`` module (the ``reference`` side) at three problem
sizes, asserts that the two produce bit-identical results, and records the
wall-clocks and speedups.  The record can be gated against the committed
``BENCH_kernels.json`` baseline, mirroring the ``BENCH_parallel.json``
protocol of the grid bench:

* a **parity mismatch** is always an error (raised during the run, or a
  gate failure when a loaded record flags one) — the kernels' contract is
  bit-identity, so a divergence is a bug, never noise;
* the **vectorized wall-clock** is gated against the baseline with a
  configurable slowdown budget (``--max-slowdown``);
* the **speedup** (reference / vectorized) is gated against per-kernel
  floors stored in the baseline — a machine-independent ratio, so it stays
  meaningful on runners much faster or slower than the recording machine.

Inputs are generated deterministically per size (blobs data set, memoised
distance matrix, constraint closure from a 10% label sample), and every
timing is best-of-``rounds`` on freshly prepared inputs, so records are
comparable across invocations.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro import _reference
from repro.clustering import kernels as kernel_module
from repro.clustering.distances import k_nearest_distances, pairwise_distances
from repro.clustering.hierarchy import mutual_reachability
from repro.clustering.kmeans import kmeans_plus_plus_init
from repro.clustering.mpckmeans import _EPS, MPCKMeans
from repro.constraints.closure import transitive_closure
from repro.constraints.constraint import MUST_LINK
from repro.constraints.generation import constraints_from_labels, sample_labeled_objects
from repro.datasets.synthetic import make_blobs
from repro.utils.specs import SpecError, check_spec_mapping

#: The four timed kernels, in pipeline order.
KERNEL_NAMES = ("optics", "single_linkage", "fosc", "mpck_assign")

#: Benchmark problem sizes (number of objects).  ``large`` is the size the
#: acceptance speedups are quoted at; ``small`` keeps CI smoke runs cheap.
KERNEL_BENCH_SIZES = {"small": 200, "medium": 500, "large": 1200}

#: Deterministic input-generation seeds (data set / labels / MPCK state).
KERNEL_BENCH_SEED = 20140324
_DATA_SEED = 11
_LABEL_SEED = 3
_MPCK_SEED = 7

#: MinPts / min-cluster-size used for the density kernels.
_MIN_PTS = 5

#: Key of the baseline section inside ``BENCH_kernels.json``.
BASELINE_SECTION = "bench_kernels"


class KernelBenchCase:
    """Prepared inputs + both implementations of one kernel at one size."""

    def __init__(
        self,
        kernel: str,
        reference: Callable[[], object],
        vectorized: Callable[[], object],
        equal: Callable[[object, object], bool],
    ) -> None:
        self.kernel = kernel
        self.reference = reference
        self.vectorized = vectorized
        self._equal = equal

    def assert_parity(self) -> None:
        """Run both implementations once and require bit-identical results."""
        if not self._equal(self.reference(), self.vectorized()):
            raise RuntimeError(
                f"kernel {self.kernel!r} diverged: vectorized and reference "
                "implementations produced different results (the contract is "
                "bit-identity, so this is a bug)"
            )


def make_cases(n_samples: int) -> dict[str, KernelBenchCase]:
    """Prepare deterministic inputs and timed callables for every kernel."""
    third = n_samples // 3
    dataset = make_blobs(
        [third, third, n_samples - 2 * third],
        4,
        center_spread=8.0,
        cluster_std=1.0,
        random_state=_DATA_SEED,
        name=f"bench-kernels-{n_samples}",
    )
    X, y = dataset.X, dataset.y
    distances = pairwise_distances(X)
    core = k_nearest_distances(distances, _MIN_PTS)
    edges = kernel_module.minimum_spanning_tree(distances, core)
    merges = kernel_module.single_linkage_tree(edges, n_samples)

    labeled = sample_labeled_objects(y, 0.1, random_state=_LABEL_SEED)
    closure = transitive_closure(constraints_from_labels(labeled), strict=False)
    i_idx, j_idx, kinds = closure.as_arrays()
    is_must = kinds == MUST_LINK

    def ordering_equal(a: object, b: object) -> bool:
        return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def fosc_reference() -> tuple:
        tree = _reference.CondensedTree(merges, n_samples, _MIN_PTS)
        selection = _reference.fosc_extract(tree, closure)
        return selection.selected_clusters, selection.labels, selection.objective

    def fosc_vectorized() -> tuple:
        data = kernel_module.condense_tree(merges, n_samples, _MIN_PTS)
        selected, labels, objective, _ = kernel_module.fosc_extract(
            data, i_idx, j_idx, is_must, 1e-3
        )
        return selected, labels, objective

    def fosc_equal(a: tuple, b: tuple) -> bool:
        return a[0] == b[0] and np.array_equal(a[1], b[1]) and a[2] == b[2]

    # MPCK assignment inputs: a mid-optimisation state (k-means++ centres,
    # perturbed metrics) so the sweep does non-trivial work.
    rng = np.random.default_rng(_MPCK_SEED)
    n_clusters = 3
    centers = kmeans_plus_plus_init(X, n_clusters, rng)
    weights = rng.lognormal(0.0, 0.3, size=(n_clusters, X.shape[1]))
    point_center = MPCKMeans._point_center_distances(X, centers, weights)
    labels0 = np.argmin(point_center, axis=1).astype(np.int64)
    log_det = np.array(
        [float(np.sum(np.log(np.maximum(weights[h], _EPS)))) for h in range(n_clusters)]
    )
    spans = X.max(axis=0) - X.min(axis=0)
    max_sq = np.array(
        [float(np.dot(spans * weights[h], spans)) for h in range(n_clusters)]
    )
    must_indptr, must_indices = kernel_module.build_neighbor_csr(
        closure.must_link_array(), n_samples
    )
    cannot_indptr, cannot_indices = kernel_module.build_neighbor_csr(
        closure.cannot_link_array(), n_samples
    )
    order = rng.permutation(n_samples)

    def mpck(module) -> Callable[[], np.ndarray]:
        def run() -> np.ndarray:
            return module.mpck_assign(
                X, weights, labels0, point_center, log_det, max_sq,
                must_indptr, must_indices, cannot_indptr, cannot_indices,
                order, 1.0,
            )
        return run

    # Each side times what it needs from (D, core): the oracle materialises
    # the mutual-reachability matrix first, the library's Prim derives each
    # row as it goes.
    def single_linkage_reference() -> np.ndarray:
        mreach = mutual_reachability(distances, core)
        tree_edges = _reference.minimum_spanning_tree(mreach)
        return _reference.single_linkage_tree(tree_edges, n_samples)

    def single_linkage_vectorized() -> np.ndarray:
        tree_edges = kernel_module.minimum_spanning_tree(distances, core)
        return kernel_module.single_linkage_tree(tree_edges, n_samples)

    def bytes_equal(a: np.ndarray, b: np.ndarray) -> bool:
        return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

    return {
        "optics": KernelBenchCase(
            "optics",
            lambda: _reference.optics_ordering(distances, core),
            lambda: kernel_module.optics_ordering(distances, core),
            ordering_equal,
        ),
        "single_linkage": KernelBenchCase(
            "single_linkage", single_linkage_reference, single_linkage_vectorized, bytes_equal
        ),
        "fosc": KernelBenchCase("fosc", fosc_reference, fosc_vectorized, fosc_equal),
        "mpck_assign": KernelBenchCase(
            "mpck_assign", mpck(_reference), mpck(kernel_module), np.array_equal
        ),
    }


def _best_of(fn: Callable[[], object], rounds: int) -> float:
    best = float("inf")
    for _ in range(max(1, rounds)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_bench_kernels(
    sizes: tuple[str, ...] = tuple(KERNEL_BENCH_SIZES),
    *,
    rounds: int = 1,
    kernels: tuple[str, ...] = KERNEL_NAMES,
) -> dict:
    """Time every kernel at every requested size and assert parity.

    Returns a fresh record in the CLI JSON format.  Raises
    ``RuntimeError`` if any kernel's implementations diverge (the
    bit-identity contract — a violation is always a bug, never noise).
    """
    unknown = [name for name in sizes if name not in KERNEL_BENCH_SIZES]
    if unknown:
        raise ValueError(
            f"unknown size(s) {', '.join(unknown)}; expected {', '.join(KERNEL_BENCH_SIZES)}"
        )
    unknown = [name for name in kernels if name not in KERNEL_NAMES]
    if unknown:
        raise ValueError(
            f"unknown kernel(s) {', '.join(unknown)}; expected {', '.join(KERNEL_NAMES)}"
        )

    results: dict[str, dict[str, dict]] = {kernel: {} for kernel in kernels}
    for size_name in sizes:
        cases = make_cases(KERNEL_BENCH_SIZES[size_name])
        for kernel in kernels:
            case = cases[kernel]
            case.assert_parity()
            reference_s = _best_of(case.reference, rounds)
            vectorized_s = _best_of(case.vectorized, rounds)
            results[kernel][size_name] = {
                "reference_s": reference_s,
                "vectorized_s": vectorized_s,
                "speedup": reference_s / vectorized_s,
                "parity": True,
                "rounds": max(1, rounds),
            }
    return {
        "kind": "repro-bench-kernels",
        "seed": KERNEL_BENCH_SEED,
        "sizes": {name: KERNEL_BENCH_SIZES[name] for name in sizes},
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version()},
        "results": results,
    }


def normalize_record(record: dict) -> dict[str, dict[str, dict]]:
    """Normalise a fresh record to ``{kernel: {size: {..timings..}}}``.

    Raises
    ------
    ValueError
        If the record is not a ``repro-bench-kernels`` JSON or is missing
        its ``results`` section (e.g. a truncated CI artifact).
    """
    if record.get("kind") != "repro-bench-kernels":
        raise ValueError(
            "unrecognised kernel benchmark record (expected repro-bench-kernels JSON)"
        )
    results = record.get("results")
    if not isinstance(results, dict):
        raise ValueError(
            "malformed kernel benchmark record: missing its 'results' section"
        )
    return results


def to_spec(record: dict) -> dict:
    """The kernel benchmark record as a JSON-ready mapping."""
    return dict(record)


def from_spec(spec: object) -> dict[str, dict[str, dict]]:
    """Validate and normalise a kernel benchmark record mapping.

    Spec-protocol counterpart of :func:`normalize_record`: raises
    :class:`repro.utils.specs.SpecError` instead of a bare ``ValueError``.
    """
    checked = check_spec_mapping(spec, "kernel bench record")
    try:
        return normalize_record(dict(checked))
    except ValueError as exc:
        raise SpecError("kernel bench record", [str(exc)]) from exc


def compare_records(
    fresh: dict[str, dict[str, dict]],
    baseline: dict,
    *,
    max_slowdown: float = 0.25,
    expected_sizes: tuple[str, ...] | None = None,
) -> list[str]:
    """Regression problems of a fresh kernel record against the baseline.

    Returns an empty list when, for every ``(kernel, size)`` present in
    the baseline: the fresh record covers it with parity intact, its
    vectorized wall-clock is at most ``max_slowdown`` slower than the
    baseline, and its speedup is at least the baseline's per-kernel
    ``speedup_floor`` (a machine-independent ratio gate).

    ``expected_sizes`` names the sizes the fresh record was meant to cover
    — baseline sizes outside it are not flagged as missing, so a
    deliberate ``--sizes small`` run can still be gated (mirroring the
    grid bench's ``expected_backends``).  ``None`` (the CI gate) requires
    every baselined size to be present.
    """
    section = baseline.get(BASELINE_SECTION)
    if not isinstance(section, dict):
        return [f"baseline is missing the {BASELINE_SECTION!r} section"]
    baseline_vectorized = section.get("vectorized_s", {})
    floors = section.get("speedup_floor", {})

    problems: list[str] = []
    for kernel in sorted(baseline_vectorized):
        fresh_kernel = fresh.get(kernel)
        if not fresh_kernel:
            problems.append(f"{kernel}: present in the baseline but missing from the fresh record")
            continue
        floor = floors.get(kernel)
        for size, base_s in sorted(baseline_vectorized[kernel].items()):
            if expected_sizes is not None and size not in expected_sizes:
                continue
            entry = fresh_kernel.get(size)
            if entry is None:
                problems.append(f"{kernel}/{size}: missing from the fresh record")
                continue
            vectorized_s = entry.get("vectorized_s")
            speedup = entry.get("speedup")
            if vectorized_s is None or speedup is None:
                problems.append(
                    f"{kernel}/{size}: malformed fresh entry (missing vectorized_s/speedup)"
                )
                continue
            if not entry.get("parity", False):
                problems.append(f"{kernel}/{size}: parity mismatch flagged in the fresh record")
            slowdown = vectorized_s / base_s - 1.0
            if slowdown > max_slowdown:
                problems.append(
                    f"{kernel}/{size}: vectorized {vectorized_s:.4f}s is "
                    f"{slowdown:+.0%} vs baseline {base_s:.4f}s (allowed {max_slowdown:+.0%})"
                )
            if floor is not None and speedup < floor:
                problems.append(
                    f"{kernel}/{size}: speedup {speedup:.2f}x is below the "
                    f"baseline floor {floor:.2f}x"
                )
    return problems


def load_json(path: str | Path) -> dict:
    """Load a kernel benchmark record or baseline from disk."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)


def format_kernel_table(
    fresh: dict[str, dict[str, dict]], baseline: dict | None = None
) -> str:
    """Fixed-width summary of a normalised record (optionally vs baseline)."""
    baseline_vectorized = {}
    if baseline is not None:
        baseline_vectorized = baseline.get(BASELINE_SECTION, {}).get("vectorized_s", {})
    lines = [
        f"{'kernel':<16} {'size':<8} {'reference':>11} {'vectorized':>11} "
        f"{'speedup':>8} {'vs baseline':>12}"
    ]
    for kernel in KERNEL_NAMES:
        if kernel not in fresh:
            continue
        for size in KERNEL_BENCH_SIZES:
            entry = fresh[kernel].get(size)
            if entry is None:
                continue
            base = baseline_vectorized.get(kernel, {}).get(size)
            nan = float("nan")
            reference_s = entry.get("reference_s", nan)
            vectorized_s = entry.get("vectorized_s", nan)
            speedup = entry.get("speedup", nan)
            delta = f"{vectorized_s / base - 1.0:+.0%}" if base else "-"
            lines.append(
                f"{kernel:<16} {size:<8} {reference_s:>10.4f}s "
                f"{vectorized_s:>10.4f}s {speedup:>7.2f}x {delta:>12}"
            )
    return "\n".join(lines)
