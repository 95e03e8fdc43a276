"""Reference implementations of the four hot clustering kernels (test oracles).

These are the interpreter-bound formulations the library first shipped with
— heaps, hash-based union–find, dict-based condensed trees and per-point
Python loops.  The library runs only the vectorized kernels of
:mod:`repro.clustering.kernels`; this private module keeps the reference
loops as an independent statement of the same semantics, so the parity
tests and ``repro bench kernels`` can assert that every vectorized kernel
stays bit-identical to them and measure how much faster it is.

Nothing in the library imports this module.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.clustering.fosc import FOSCSelection
from repro.clustering.hierarchy import CondensedCluster
from repro.clustering.kernels import _check_edge_count
from repro.constraints.constraint import ConstraintSet
from repro.utils.disjoint_set import DisjointSet
from repro.utils.validation import check_positive_int


# ======================================================================
# Kernel 1: OPTICS ordering + reachability
# ======================================================================

def optics_ordering(
    distances: np.ndarray, core_distances: np.ndarray, eps: float = np.inf
) -> tuple[np.ndarray, np.ndarray]:
    """Heap-based OPTICS sweep (lazy-deletion priority queue, per-neighbour pushes)."""
    n_samples = distances.shape[0]
    core = np.asarray(core_distances, dtype=np.float64)
    reachability = np.full(n_samples, np.inf)
    processed = np.zeros(n_samples, dtype=bool)
    ordering: list[int] = []

    for start in range(n_samples):
        if processed[start]:
            continue
        # Expand one connected component with a priority queue keyed by
        # the current reachability distance (ties broken by index for
        # determinism).
        heap: list[tuple[float, int]] = [(np.inf, start)]
        while heap:
            current_reach, index = heapq.heappop(heap)
            if processed[index]:
                continue
            processed[index] = True
            ordering.append(index)
            if core[index] > eps:
                continue
            neighbor_distances = distances[index]
            within = np.flatnonzero(~processed & (neighbor_distances <= eps))
            if within.size == 0:
                continue
            new_reach = np.maximum(core[index], neighbor_distances[within])
            improved = new_reach < reachability[within]
            for neighbor, reach in zip(within[improved], new_reach[improved]):
                reachability[neighbor] = reach
                heapq.heappush(heap, (float(reach), int(neighbor)))
    return np.asarray(ordering, dtype=np.int64), reachability


# ======================================================================
# Kernel 2: dense Prim MST + single-linkage merge records
# ======================================================================

def minimum_spanning_tree(distances: np.ndarray) -> np.ndarray:
    """Prim MST with an explicit in-tree mask re-applied every iteration."""
    distances = np.asarray(distances, dtype=np.float64)
    n_samples = distances.shape[0]
    if n_samples < 2:
        return np.empty((0, 3), dtype=np.float64)

    in_tree = np.zeros(n_samples, dtype=bool)
    best_distance = np.full(n_samples, np.inf)
    best_source = np.full(n_samples, -1, dtype=np.int64)

    in_tree[0] = True
    best_distance[:] = distances[0]
    best_source[:] = 0
    best_distance[0] = np.inf

    edges = np.empty((n_samples - 1, 3), dtype=np.float64)
    for edge_index in range(n_samples - 1):
        candidate = int(np.argmin(np.where(in_tree, np.inf, best_distance)))
        edges[edge_index] = (best_source[candidate], candidate, best_distance[candidate])
        in_tree[candidate] = True
        improved = ~in_tree & (distances[candidate] < best_distance)
        best_distance[improved] = distances[candidate][improved]
        best_source[improved] = candidate
    order = np.argsort(edges[:, 2], kind="stable")
    return edges[order]


def single_linkage_tree(mst_edges: np.ndarray, n_samples: int) -> np.ndarray:
    """Merge loop over a hash-based :class:`~repro.utils.disjoint_set.DisjointSet`."""
    mst_edges = _check_edge_count(mst_edges, n_samples)
    ds = DisjointSet(range(n_samples))
    current_node: dict[int, int] = {index: index for index in range(n_samples)}
    sizes: dict[int, int] = {index: 1 for index in range(n_samples)}
    merges = np.empty((n_samples - 1, 4), dtype=np.float64)

    next_node = n_samples
    for row, (u, v, weight) in enumerate(mst_edges):
        root_u = ds.find(int(u))
        root_v = ds.find(int(v))
        node_u = current_node[root_u]
        node_v = current_node[root_v]
        merged_size = sizes[node_u] + sizes[node_v]
        merges[row] = (node_u, node_v, weight, merged_size)
        new_root = ds.union(root_u, root_v)
        current_node[new_root] = next_node
        sizes[next_node] = merged_size
        next_node += 1
    return merges


# ======================================================================
# Kernel 3: dict-based condensed tree + FOSC dynamic program
# ======================================================================

class CondensedTree:
    """Hierarchy simplified with a minimum cluster size (dict-based).

    The construction follows HDBSCAN*: walking the single-linkage dendrogram
    from the root towards the leaves, a split is *significant* only when
    both sides contain at least ``min_cluster_size`` points; otherwise the
    smaller side simply "falls out" of the current cluster at that density
    level.  Exposes the same query interface as
    :class:`~repro.clustering.hierarchy.CondensedTreeArrays`.
    """

    def __init__(self, merges: np.ndarray, n_samples: int, min_cluster_size: int) -> None:
        self.n_samples = n_samples
        self.min_cluster_size = check_positive_int(
            min_cluster_size, name="min_cluster_size", minimum=2
        )
        self._merges = np.asarray(merges, dtype=np.float64)
        self.clusters: dict[int, CondensedCluster] = {}
        self._build()

    def _node_children(self, node: int) -> tuple[int, int, float]:
        row = self._merges[node - self.n_samples]
        return int(row[0]), int(row[1]), float(row[2])

    def _node_size(self, node: int) -> int:
        if node < self.n_samples:
            return 1
        return int(self._merges[node - self.n_samples][3])

    def _node_leaves(self, node: int) -> list[int]:
        stack = [node]
        leaves: list[int] = []
        while stack:
            current = stack.pop()
            if current < self.n_samples:
                leaves.append(current)
            else:
                left, right, _ = self._node_children(current)
                stack.extend((left, right))
        return leaves

    def _build(self) -> None:
        root_node = self.n_samples + self._merges.shape[0] - 1 if self._merges.shape[0] else 0
        root = CondensedCluster(cluster_id=0, parent=-1, birth_lambda=0.0)
        self.clusters[0] = root
        if self._merges.shape[0] == 0:
            root.members = set(range(self.n_samples))
            root.point_lambdas = {point: np.inf for point in range(self.n_samples)}
            return

        # Stack of (single-linkage node, condensed cluster id it belongs to).
        stack: list[tuple[int, int]] = [(root_node, 0)]
        next_cluster_id = 1
        while stack:
            node, cluster_id = stack.pop()
            cluster = self.clusters[cluster_id]
            if node < self.n_samples:
                cluster.point_lambdas[node] = np.inf
                continue
            left, right, distance = self._node_children(node)
            level = np.inf if distance <= 0 else 1.0 / distance
            big_left = self._node_size(left) >= self.min_cluster_size
            big_right = self._node_size(right) >= self.min_cluster_size

            if big_left and big_right:
                cluster.split_lambda = min(cluster.split_lambda, level)
                for child_node in (left, right):
                    child = CondensedCluster(
                        cluster_id=next_cluster_id, parent=cluster_id, birth_lambda=level
                    )
                    self.clusters[next_cluster_id] = child
                    cluster.children.append(next_cluster_id)
                    stack.append((child_node, next_cluster_id))
                    next_cluster_id += 1
            elif big_left or big_right:
                keep, drop = (left, right) if big_left else (right, left)
                for point in self._node_leaves(drop):
                    cluster.point_lambdas[point] = level
                stack.append((keep, cluster_id))
            else:
                for point in self._node_leaves(left) + self._node_leaves(right):
                    cluster.point_lambdas[point] = level

        # Children were created after their parents, so reversed id order is
        # a valid bottom-up order.
        for cluster_id in sorted(self.clusters, reverse=True):
            cluster = self.clusters[cluster_id]
            cluster.members.update(cluster.point_lambdas)
            for child_id in cluster.children:
                cluster.members.update(self.clusters[child_id].members)

    @property
    def root(self) -> CondensedCluster:
        return self.clusters[0]

    def leaves(self) -> list[int]:
        """Identifiers of clusters without children."""
        return [cid for cid, cluster in self.clusters.items() if not cluster.children]

    def stability(self, cluster_id: int) -> float:
        """Excess-of-mass stability of a cluster (HDBSCAN*'s objective)."""
        cluster = self.clusters[cluster_id]
        birth = cluster.birth_lambda
        end_level = cluster.split_lambda
        total = 0.0
        for point, level in cluster.point_lambdas.items():
            total += min(level, end_level) - birth if np.isfinite(min(level, end_level)) else 0.0
        # Points passed down to children leave this cluster at the split level.
        n_passed = sum(self.clusters[child].size for child in cluster.children)
        if n_passed and np.isfinite(end_level):
            total += n_passed * (end_level - birth)
        return float(total)

    def selectable_clusters(self) -> list[int]:
        """Every cluster except the root (the root is the trivial solution)."""
        return [cid for cid in self.clusters if cid != 0]

    def labels_for_selection(self, selected: list[int]) -> np.ndarray:
        """Flat labels for a set of selected clusters; unassigned points are noise."""
        labels = np.full(self.n_samples, -1, dtype=np.int64)
        for flat_label, cluster_id in enumerate(sorted(selected)):
            for point in self.clusters[cluster_id].members:
                labels[point] = flat_label
        return labels


def _constraint_satisfaction(members: set[int], constraints: ConstraintSet) -> float:
    """Constraint-endpoint satisfaction credit of one candidate cluster.

    A must-link is rewarded only when both endpoints are inside (weight 1),
    a cannot-link endpoint inside the cluster is rewarded with weight 1/2
    when its partner is outside; normalised by the number of constraints.
    """
    credit = 0.0
    for constraint in constraints:
        in_i = constraint.i in members
        in_j = constraint.j in members
        if constraint.is_must_link:
            if in_i and in_j:
                credit += 1.0
        else:
            if in_i and in_j:
                continue
            if in_i or in_j:
                credit += 0.5
    return credit / len(constraints)


def fosc_extract(
    tree: CondensedTree,
    constraints: ConstraintSet | None = None,
    stability_weight: float = 1e-3,
) -> FOSCSelection:
    """FOSC's bottom-up dynamic program over a dict-based condensed tree."""
    constraints = constraints if constraints is not None else ConstraintSet()
    use_constraints = len(constraints) > 0

    # Per-cluster quality: constraint satisfaction plus scaled stability.
    stabilities = {cid: tree.stability(cid) for cid in tree.selectable_clusters()}
    max_stability = max(stabilities.values(), default=0.0)
    if max_stability <= 0.0:
        max_stability = 1.0
    quality: dict[int, float] = {}
    for cluster_id in tree.selectable_clusters():
        normalised_stability = stabilities[cluster_id] / max_stability
        if use_constraints:
            satisfaction = _constraint_satisfaction(tree.clusters[cluster_id].members, constraints)
            quality[cluster_id] = satisfaction + stability_weight * normalised_stability
        else:
            quality[cluster_id] = normalised_stability

    # Children always have larger identifiers than their parents, so
    # descending id order is a valid bottom-up traversal.
    best_value: dict[int, float] = {}
    keep_node: dict[int, bool] = {}
    for cluster_id in sorted(tree.selectable_clusters(), reverse=True):
        cluster = tree.clusters[cluster_id]
        own = quality[cluster_id]
        children_value = sum(best_value[child] for child in cluster.children)
        if cluster.children and children_value > own:
            best_value[cluster_id] = children_value
            keep_node[cluster_id] = False
        else:
            best_value[cluster_id] = own
            keep_node[cluster_id] = True

    selected: list[int] = []
    stack = list(tree.root.children)
    objective = float(sum(best_value[child] for child in tree.root.children))
    while stack:
        cluster_id = stack.pop()
        if keep_node[cluster_id]:
            selected.append(cluster_id)
        else:
            stack.extend(tree.clusters[cluster_id].children)
    selected.sort()

    if not selected:
        # Degenerate hierarchy (no significant split): everything is one
        # cluster, noise for points outside the root.
        labels = np.full(tree.n_samples, -1, dtype=np.int64)
        labels[sorted(tree.root.members)] = 0
        return FOSCSelection([0], labels, objective, use_constraints)
    return FOSCSelection(selected, tree.labels_for_selection(selected), objective, use_constraints)


# ======================================================================
# Kernel 4: MPCK-Means greedy ICM assignment
# ======================================================================

def mpck_assign(
    X: np.ndarray,
    weights: np.ndarray,
    labels: np.ndarray,
    point_center_distances: np.ndarray,
    log_det: np.ndarray,
    max_sq: np.ndarray,
    must_indptr: np.ndarray,
    must_indices: np.ndarray,
    cannot_indptr: np.ndarray,
    cannot_indices: np.ndarray,
    order: np.ndarray,
    constraint_weight: float,
) -> np.ndarray:
    """Per-point, per-neighbour, per-cluster Python loop (the ICM baseline)."""
    n_clusters = weights.shape[0]
    w = constraint_weight
    labels = labels.copy()

    for index in order:
        costs = point_center_distances[index] - log_det
        for other in must_indices[must_indptr[index]:must_indptr[index + 1]]:
            other_label = labels[other]
            diff = X[index] - X[other]
            diff_sq = diff * diff
            partner = np.sum(diff_sq * weights[other_label])
            for h in range(n_clusters):
                if h != other_label:
                    # Violated must-link: penalty grows with the distance
                    # between the two points under both involved metrics.
                    pair_distance = 0.5 * (np.sum(diff_sq * weights[h]) + partner)
                    costs[h] += w * pair_distance
        for other in cannot_indices[cannot_indptr[index]:cannot_indptr[index + 1]]:
            other_label = labels[other]
            diff = X[index] - X[other]
            pair_distance = np.sum(diff * diff * weights[other_label])
            # Violated cannot-link: penalty is larger the closer the pair.
            costs[other_label] += w * max(max_sq[other_label] - pair_distance, 0.0)
        labels[index] = int(np.argmin(costs))
    return labels
