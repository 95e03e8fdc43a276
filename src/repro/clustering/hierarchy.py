"""Density-based cluster hierarchies (the "OPTICSDend" dendrogram).

The FOSC-OPTICSDend algorithm of the CVCP paper extracts a flat clustering
from the dendrogram induced by OPTICS.  That dendrogram is equivalent to a
single-linkage tree built over the *mutual reachability distance*

    d_mreach(a, b) = max(core_k(a), core_k(b), d(a, b))

with ``core_k`` the distance to the ``MinPts``-th nearest neighbour (this is
the construction used by HDBSCAN*, whose authors are the FOSC authors).  The
module provides:

* :func:`mutual_reachability` — the transformed distances, as the square
  matrix or one row block at a time;
* :func:`minimum_spanning_tree` — a dense Prim MST over the mutual
  reachability distance, computing one row per step from the raw
  distances (the square matrix is never built);
* :func:`build_single_linkage_tree` — the dendrogram as merge records;
* :class:`CondensedTreeArrays` — the hierarchy simplified with a minimum
  cluster size, exposing per-cluster membership, stability and the
  parent/child structure FOSC's dynamic program runs on;
* :class:`DensityHierarchy` — a convenience facade tying the steps together;
* :class:`TreeStructure` / :func:`cached_tree_structure` — the
  constraint-independent *structure phase* of a FOSC fit (core distances,
  MST merge records, condensed tree) as a slim memoised record that
  constraint deltas re-extract from without refitting, optionally backed
  by ``"structure"`` artifacts in an
  :class:`~repro.experiments.artifacts.ArtifactStore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.clustering import kernels as _kernels
from repro.clustering.distances import k_nearest_distances
from repro.clustering.kernels import minimum_spanning_tree
from repro.clustering.kernels import mutual_reachability as mutual_reachability  # re-export
from repro.clustering.kernels import single_linkage_tree as build_single_linkage_tree
from repro.utils.cache import MemoCache, array_fingerprint, cached_pairwise_distances
from repro.utils.validation import check_array_2d, check_positive_int


@dataclass
class CondensedCluster:
    """One cluster of the condensed hierarchy.

    Attributes
    ----------
    cluster_id:
        Identifier within the condensed tree (0 is the root).
    parent:
        Identifier of the parent cluster (``-1`` for the root).
    birth_lambda:
        Density level (``1 / distance``) at which the cluster appears.
    children:
        Identifiers of the child clusters (empty for leaves).
    split_lambda:
        Density level at which the cluster splits into its children
        (``inf`` if it never splits).
    point_lambdas:
        ``{point: lambda}`` for points that leave the cluster individually
        (fall out as noise of this cluster) before any split.
    members:
        All points contained in the cluster (its own fall-outs plus every
        point of every descendant cluster).  This is the flat cluster one
        obtains by *selecting* this node.
    """

    cluster_id: int
    parent: int
    birth_lambda: float
    children: list[int] = field(default_factory=list)
    split_lambda: float = np.inf
    point_lambdas: dict[int, float] = field(default_factory=dict)
    members: set[int] = field(default_factory=set)

    @property
    def size(self) -> int:
        return len(self.members)


class CondensedTreeArrays:
    """Condensed density hierarchy backed by flat arrays.

    The construction follows HDBSCAN*: walking the single-linkage dendrogram
    from the root towards the leaves, a split is *significant* only when
    both sides contain at least ``min_cluster_size`` points; otherwise the
    smaller side simply "falls out" of the current cluster at that density
    level.  Each significant cluster records its stability
    ``sum_p (lambda_p - lambda_birth)``, the classic excess-of-mass measure
    used for unsupervised extraction.

    Wraps the flat :class:`~repro.clustering.kernels.CondensedArrayData`
    produced by :func:`~repro.clustering.kernels.condense_tree` and exposes
    :attr:`clusters`, :attr:`root`, :meth:`leaves`, :meth:`stability`,
    :meth:`selectable_clusters` and :meth:`labels_for_selection`.  The
    per-cluster :class:`CondensedCluster` objects (with their Python sets
    and dicts) are only materialised lazily on first access to
    :attr:`clusters`; the FOSC extraction kernel never touches them.
    """

    def __init__(self, data: "_kernels.CondensedArrayData") -> None:
        self.arrays = data
        self.n_samples = data.n_samples
        self.min_cluster_size = data.min_cluster_size
        self._clusters: dict[int, CondensedCluster] | None = None
        self._stabilities: np.ndarray | None = None

    # -- queries ----------------------------------------------------------
    @property
    def clusters(self) -> dict[int, CondensedCluster]:
        """Per-cluster objects, materialised lazily from the flat arrays."""
        if self._clusters is None:
            data = self.arrays
            clusters = {
                cluster_id: CondensedCluster(
                    cluster_id=cluster_id,
                    parent=int(data.parent[cluster_id]),
                    birth_lambda=float(data.birth_lambda[cluster_id]),
                    children=list(data.children[cluster_id]),
                    split_lambda=float(data.split_lambda[cluster_id]),
                )
                for cluster_id in range(data.n_clusters)
            }
            for point, (cluster_id, level) in enumerate(
                zip(data.point_cluster.tolist(), data.point_lambda.tolist())
            ):
                clusters[cluster_id].point_lambdas[point] = level
            for cluster_id in range(data.n_clusters - 1, -1, -1):
                cluster = clusters[cluster_id]
                cluster.members.update(cluster.point_lambdas)
                for child_id in cluster.children:
                    cluster.members.update(clusters[child_id].members)
            self._clusters = clusters
        return self._clusters

    @property
    def root(self) -> CondensedCluster:
        """The root cluster (id ``0``)."""
        return self.clusters[0]

    def leaves(self) -> list[int]:
        """Identifiers of clusters without children."""
        return [
            cluster_id
            for cluster_id in range(self.arrays.n_clusters)
            if not self.arrays.children[cluster_id]
        ]

    def stability(self, cluster_id: int) -> float:
        """Excess-of-mass stability of a cluster (HDBSCAN*'s objective)."""
        if self._stabilities is None:
            self._stabilities = _kernels.stabilities(self.arrays)
        return float(self._stabilities[cluster_id])

    def selectable_clusters(self) -> list[int]:
        """Every cluster except the root (the root is the trivial solution)."""
        return list(range(1, self.arrays.n_clusters))

    def labels_for_selection(self, selected: list[int]) -> np.ndarray:
        """Flat labels for a set of selected clusters; unassigned points are noise."""
        return _kernels.labels_for_selection(self.arrays, list(selected))


class DensityHierarchy:
    """Facade: data matrix → condensed density hierarchy.

    Parameters
    ----------
    min_pts:
        Core-distance smoothing parameter (the paper's MinPts).
    min_cluster_size:
        Minimum size for a split to create new clusters; defaults to
        ``min_pts``, matching common HDBSCAN*/FOSC practice.
    metric:
        Distance metric.
    distance_backend:
        Storage tier for the pairwise-distance matrix — ``"dense"``
        (default) or its alias ``"blockwise"`` (in RAM), ``"memmap"``
        (out-of-core spill files) or ``"neighbors"`` (sparse
        epsilon-bounded k-NN graphs, no full matrix at all); ``None``
        consults ``REPRO_DISTANCE_BACKEND``.  The exact tiers build
        bit-identical hierarchies; the ``neighbors`` tier is
        approximate-by-contract (see :mod:`repro.core.neighbor_graph`).
    epsilon / k_neighbors:
        Neighbour-graph radius and out-degree for the ``"neighbors"`` tier
        (``None`` consults ``REPRO_NEIGHBOR_EPSILON``/``REPRO_NEIGHBOR_K``);
        ignored by the exact tiers.
    """

    def __init__(
        self,
        min_pts: int,
        *,
        min_cluster_size: int | None = None,
        metric: str = "euclidean",
        distance_backend: str | None = None,
        epsilon: float | None = None,
        k_neighbors: int | None = None,
    ) -> None:
        self.min_pts = check_positive_int(min_pts, name="min_pts")
        self.min_cluster_size = (
            max(2, min_pts) if min_cluster_size is None
            else check_positive_int(min_cluster_size, name="min_cluster_size", minimum=2)
        )
        self.metric = metric
        self.distance_backend = distance_backend
        self.epsilon = epsilon
        self.k_neighbors = k_neighbors

    def fit(self, X: np.ndarray) -> "DensityHierarchy":
        """Build the hierarchy for ``X``."""
        from repro.core.distance_backend import get_distance_backend

        X = check_array_2d(X)
        if self.min_pts > X.shape[0]:
            raise ValueError(
                f"min_pts={self.min_pts} exceeds the number of samples {X.shape[0]}"
            )
        n_samples = X.shape[0]
        backend = get_distance_backend(self.distance_backend)
        if backend.name == "neighbors":
            # Sparse tier: core distances, mutual reachability and the MST
            # are all derived from the epsilon-bounded k-NN graph — storage
            # and work scale with n·k, never n².  The merge records feed
            # the same single-linkage/condense kernels as the dense path.
            from repro.core.neighbor_graph import (
                cached_neighbor_graph,
                mutual_reachability_graph,
                sparse_mst_edges,
            )

            graph = cached_neighbor_graph(
                X, metric=self.metric, epsilon=self.epsilon, k_neighbors=self.k_neighbors
            )
            self.core_distances_ = graph.core_distances(self.min_pts)
            self.mst_edges_ = sparse_mst_edges(
                mutual_reachability_graph(graph.graph, self.core_distances_),
                self.core_distances_,
            )
        else:
            # Memoised: every (value × fold) grid cell of a CVCP sweep shares
            # the same O(n²) matrix, so only the first cell per process
            # computes it.
            distances = cached_pairwise_distances(
                X, metric=self.metric, distance_backend=backend.name
            )
            self.core_distances_ = k_nearest_distances(distances, self.min_pts)
            # Prim computes mutual reachability row by row, so no derived
            # (n, n) matrix exists.  The fit does not read the raw matrix
            # again: drop its page residency (memmap).
            self.mst_edges_ = minimum_spanning_tree(distances, self.core_distances_)
            backend.release(distances)
        self.single_linkage_tree_ = build_single_linkage_tree(self.mst_edges_, n_samples)
        self.condensed_tree_ = CondensedTreeArrays(
            _kernels.condense_tree(self.single_linkage_tree_, n_samples, self.min_cluster_size)
        )
        return self


# ---------------------------------------------------------------------------
# The cached structure phase: everything in a FOSC fit that does not depend
# on the constraint set.  A structure is O(n) (MST edges, merge records,
# core distances, condensed tree) — never an O(n²) matrix — so a
# per-process memo plus JSON artifacts in the store make constraint deltas
# re-extract instead of refit.


@dataclass
class TreeStructure:
    """The constraint-independent structure of one FOSC-OPTICSDend fit.

    Everything here is a pure deterministic function of ``(X, metric,
    min_pts, min_cluster_size)`` plus the distance tier — never of the
    constraint set, the oracle, the fold or any seed — which is what makes
    one structure shareable across every constraint delta, oracle and
    fold of a CVCP grid.

    Attributes
    ----------
    n_samples:
        Number of data objects.
    min_pts:
        The (effective, i.e. sample-count-clamped) MinPts the structure
        was built with.
    min_cluster_size:
        Resolved minimum cluster size of the condensed tree.
    metric:
        Distance metric.
    core_distances:
        ``(n,)`` core distance per object.
    mst_edges:
        ``(n-1, 3)`` mutual-reachability MST edges sorted by weight.
    single_linkage_tree:
        ``(n-1, 4)`` scipy-style merge records.
    condensed_tree:
        The condensed hierarchy FOSC extracts from.
    """

    n_samples: int
    min_pts: int
    min_cluster_size: int
    metric: str
    core_distances: np.ndarray
    mst_edges: np.ndarray
    single_linkage_tree: np.ndarray
    condensed_tree: CondensedTreeArrays


def resolve_min_cluster_size(min_pts: int, min_cluster_size: int | None) -> int:
    """The condensed tree's minimum cluster size, defaulted from MinPts."""
    if min_cluster_size is None:
        return max(2, min_pts)
    return check_positive_int(min_cluster_size, name="min_cluster_size", minimum=2)


def build_tree_structure(
    X: np.ndarray,
    min_pts: int,
    *,
    min_cluster_size: int | None = None,
    metric: str = "euclidean",
    distance_backend: str | None = None,
    epsilon: float | None = None,
    k_neighbors: int | None = None,
) -> TreeStructure:
    """Build the structure phase of one fit (no memo, no store)."""
    hierarchy = DensityHierarchy(
        min_pts,
        min_cluster_size=min_cluster_size,
        metric=metric,
        distance_backend=distance_backend,
        epsilon=epsilon,
        k_neighbors=k_neighbors,
    ).fit(X)
    # Only the O(n) outputs are retained; the hierarchy facade is dropped
    # here so memoised structures never hold whole matrices alive.
    return TreeStructure(
        n_samples=int(np.asarray(hierarchy.core_distances_).shape[0]),
        min_pts=int(hierarchy.min_pts),
        min_cluster_size=int(hierarchy.min_cluster_size),
        metric=metric,
        core_distances=np.asarray(hierarchy.core_distances_, dtype=np.float64),
        mst_edges=np.asarray(hierarchy.mst_edges_, dtype=np.float64),
        single_linkage_tree=np.asarray(hierarchy.single_linkage_tree_, dtype=np.float64),
        condensed_tree=hierarchy.condensed_tree_,
    )


def _encode_floats(array: np.ndarray) -> list:
    """JSON-ready float list; non-finite values spelled as strings.

    Python's JSON float encoding is shortest-roundtrip, so finite values
    survive exactly; JSON has no ``inf``/``nan`` literals, so those are
    spelled ``"inf"``/``"-inf"``/``"nan"``.
    """
    flat = np.asarray(array, dtype=np.float64)
    if np.isfinite(flat).all():
        return flat.tolist()

    def encode_value(value: float):
        if np.isfinite(value):
            return float(value)
        if np.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    if flat.ndim == 1:
        return [encode_value(value) for value in flat.tolist()]
    return [[encode_value(value) for value in row] for row in flat.tolist()]


def _decode_floats(values: list) -> np.ndarray:
    """Inverse of :func:`_encode_floats`."""
    def decode_value(value):
        if isinstance(value, str):
            return float(value)
        return float(value)
    if values and isinstance(values[0], list):
        return np.array([[decode_value(v) for v in row] for row in values], dtype=np.float64)
    return np.array([decode_value(v) for v in values], dtype=np.float64)


def structure_payload(structure: TreeStructure) -> dict:
    """JSON-serialisable form of a structure (exact float round-trip).

    The condensed tree is emitted as its flat
    :class:`~repro.clustering.kernels.CondensedArrayData` arrays, which
    :func:`structure_from_payload` restores directly.
    """
    data = structure.condensed_tree.arrays
    return {
        "n_samples": structure.n_samples,
        "min_pts": structure.min_pts,
        "min_cluster_size": structure.min_cluster_size,
        "metric": structure.metric,
        "core_distances": _encode_floats(structure.core_distances),
        "mst_edges": _encode_floats(structure.mst_edges),
        "single_linkage_tree": _encode_floats(structure.single_linkage_tree),
        "condensed": {
            "parent": data.parent.tolist(),
            "birth_lambda": _encode_floats(data.birth_lambda),
            "split_lambda": _encode_floats(data.split_lambda),
            "children": [list(child) for child in data.children],
            "sizes": data.sizes.tolist(),
            "point_cluster": data.point_cluster.tolist(),
            "point_lambda": _encode_floats(data.point_lambda),
            "event_cluster": data.event_cluster.tolist(),
            "event_lambda": _encode_floats(data.event_lambda),
            "enter": data.enter.tolist(),
            "exit": data.exit.tolist(),
        },
    }


def structure_from_payload(payload: dict) -> TreeStructure:
    """Rebuild a :class:`TreeStructure` from :func:`structure_payload` output."""
    n_samples = int(payload["n_samples"])
    min_cluster_size = int(payload["min_cluster_size"])
    condensed = payload["condensed"]
    data = _kernels.CondensedArrayData(
        n_samples=n_samples,
        min_cluster_size=min_cluster_size,
        parent=np.asarray(condensed["parent"], dtype=np.int64),
        birth_lambda=_decode_floats(condensed["birth_lambda"]),
        split_lambda=_decode_floats(condensed["split_lambda"]),
        children=[list(child) for child in condensed["children"]],
        sizes=np.asarray(condensed["sizes"], dtype=np.int64),
        point_cluster=np.asarray(condensed["point_cluster"], dtype=np.int64),
        point_lambda=_decode_floats(condensed["point_lambda"]),
        event_cluster=np.asarray(condensed["event_cluster"], dtype=np.int64),
        event_lambda=_decode_floats(condensed["event_lambda"]),
        enter=np.asarray(condensed["enter"], dtype=np.int64),
        exit=np.asarray(condensed["exit"], dtype=np.int64),
    )
    return TreeStructure(
        n_samples=n_samples,
        min_pts=int(payload["min_pts"]),
        min_cluster_size=min_cluster_size,
        metric=str(payload["metric"]),
        core_distances=_decode_floats(payload["core_distances"]),
        mst_edges=_decode_floats(payload["mst_edges"]).reshape(-1, 3),
        single_linkage_tree=_decode_floats(payload["single_linkage_tree"]).reshape(-1, 4),
        condensed_tree=CondensedTreeArrays(data),
    )


def structure_store_key(
    X: np.ndarray,
    min_pts: int,
    *,
    min_cluster_size: int | None = None,
    metric: str = "euclidean",
    distance_backend: str | None = None,
    epsilon: float | None = None,
    k_neighbors: int | None = None,
) -> dict:
    """Artifact-store key of one structure (kind ``"structure"``).

    The key pins exactly what the structure depends on — the data content,
    the metric, the (effective) MinPts and the minimum cluster size — and
    deliberately *excludes* the oracle, the constraint set, the fold, every
    and seed, so structures are shared across all of them.
    The exact distance tiers (dense/blockwise/memmap) are bit-identical and
    share keys; the approximate ``neighbors`` tier carries an ``approx``
    entry (mirroring :func:`repro.experiments.runner.trial_artifact_key`)
    and can never shadow (or be shadowed by) an exact-tier structure.
    """
    from repro.core.distance_backend import get_distance_backend

    key = {
        "x": array_fingerprint(X),
        "metric": str(metric),
        "min_pts": int(min_pts),
        "min_cluster_size": int(resolve_min_cluster_size(min_pts, min_cluster_size)),
    }
    if get_distance_backend(distance_backend).name == "neighbors":
        from repro.core.neighbor_graph import resolve_neighbor_epsilon, resolve_neighbor_k

        resolved_epsilon = resolve_neighbor_epsilon(epsilon)
        key["approx"] = {
            "distance_backend": "neighbors",
            # JSON has no inf literal; serialise it as the string "inf".
            "epsilon": "inf" if np.isinf(resolved_epsilon) else float(resolved_epsilon),
            "k_neighbors": resolve_neighbor_k(k_neighbors),
        }
    return key


#: Per-process memo of tree structures.  Structures are O(n) each, so the
#: bound is generous enough to hold a whole MinPts sweep per data set.
_structure_cache = MemoCache(max_items=64)


def _structure_memo_key(
    X: np.ndarray,
    min_pts: int,
    *,
    min_cluster_size: int | None,
    metric: str,
    distance_backend: str | None,
    epsilon: float | None,
    k_neighbors: int | None,
) -> tuple:
    from repro.core.distance_backend import get_distance_backend

    backend = get_distance_backend(distance_backend)
    if backend.name == "neighbors":
        from repro.core.neighbor_graph import resolve_neighbor_epsilon, resolve_neighbor_k

        tier: object = ("neighbors", resolve_neighbor_epsilon(epsilon), resolve_neighbor_k(k_neighbors))
    else:
        # The exact tiers build bit-identical structures; collapsing them to
        # one token lets e.g. a memmap grid reuse a dense-warmed structure.
        tier = "exact"
    return (
        array_fingerprint(X),
        str(metric),
        int(min_pts),
        int(resolve_min_cluster_size(min_pts, min_cluster_size)),
        tier,
    )


def cached_tree_structure(
    X: np.ndarray,
    min_pts: int,
    *,
    min_cluster_size: int | None = None,
    metric: str = "euclidean",
    distance_backend: str | None = None,
    epsilon: float | None = None,
    k_neighbors: int | None = None,
    store=None,
) -> TreeStructure:
    """The structure phase, memoised per process and optionally store-backed.

    Without ``store`` this is a plain memo lookup (the path
    :meth:`repro.clustering.fosc.FOSCOpticsDend.fit` takes — worker
    processes never touch the artifact store).  With a ``store``
    (:class:`~repro.experiments.artifacts.ArtifactStore`-compatible), the
    store is probed *first* so its per-kind hit/miss stats record every
    structure reuse, a persisted structure is decoded into the memo on a
    memo miss, and a freshly built structure is written through as a
    ``"structure"`` artifact.
    """
    memo_key = _structure_memo_key(
        X, min_pts, min_cluster_size=min_cluster_size, metric=metric,
        distance_backend=distance_backend, epsilon=epsilon, k_neighbors=k_neighbors,
    )

    def build() -> TreeStructure:
        return build_tree_structure(
            X, min_pts, min_cluster_size=min_cluster_size, metric=metric,
            distance_backend=distance_backend, epsilon=epsilon, k_neighbors=k_neighbors,
        )

    if store is None:
        return _structure_cache.get_or_compute(memo_key, build)

    key = structure_store_key(
        X, min_pts, min_cluster_size=min_cluster_size, metric=metric,
        distance_backend=distance_backend, epsilon=epsilon, k_neighbors=k_neighbors,
    )
    memoised = _structure_cache.peek(memo_key)
    if memoised is not None:
        # The memo already holds the decoded structure: a cheap existence
        # probe keeps the store's per-kind reuse accounting (and restores
        # a deleted artifact by writing through) without re-parsing the
        # payload on every warm call.
        if not store.contains("structure", key):
            store.put("structure", key, structure_payload(memoised))
        return memoised
    payload = store.get("structure", key)
    if payload is not None:
        return _structure_cache.get_or_compute(
            memo_key, lambda: structure_from_payload(payload)
        )
    structure = _structure_cache.get_or_compute(memo_key, build)
    store.put("structure", key, structure_payload(structure))
    return structure


def structure_cache_stats():
    """Hit/miss accounting of the per-process structure memo."""
    return _structure_cache.stats()


def clear_structure_cache() -> None:
    """Drop all memoised tree structures (mainly for tests and benchmarks)."""
    _structure_cache.clear()


def configure_structure_cache(max_items: int, max_bytes: int | None = None) -> None:
    """Re-bound the per-process structure memo; clears the current contents."""
    global _structure_cache
    _structure_cache = MemoCache(max_items=max_items, max_bytes=max_bytes)
