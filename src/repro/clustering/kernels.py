"""Vectorised clustering kernels — the four hot loops of the CVCP stack.

CVCP's cost is dominated by re-clustering every parameter value × fold, so
the per-fit kernels decide how far the paper's scalability argument
(Pourrajabi et al., EDBT 2014) carries.  Each kernel is written as masked
NumPy array operations over the memoised distance matrix, array-based
union–find, flat parent/lambda arrays, and CSR-style neighbour indexing:

1. :func:`optics_ordering` — the OPTICS core-distance + reachability
   update sweep (used by :class:`~repro.clustering.optics.OPTICS`);
2. :func:`minimum_spanning_tree` / :func:`single_linkage_tree` — dense
   Prim MST over the mutual reachability distance (each row computed by
   :func:`mutual_reachability` when Prim needs it) and its conversion
   into scipy-style merge records (used by
   :class:`~repro.clustering.hierarchy.DensityHierarchy`);
3. :func:`condense_tree` + :func:`fosc_extract` — the FOSC condensed-tree
   construction, stability computation and optimal-selection dynamic
   program over flat parent/lambda arrays (used by
   :class:`~repro.clustering.fosc.FOSCOpticsDend`);
4. :func:`mpck_assign` — the MPCK-Means greedy ICM assignment step with
   constraint-violation terms computed through CSR neighbour index arrays
   (used by :class:`~repro.clustering.mpckmeans.MPCKMeans`).

Bit-identical contract
----------------------
Every kernel is **bit-identical** to the interpreter-bound reference
formulation the library first shipped with (heaps, dict-based union–find,
per-point Python loops) — identical orderings, reachabilities, merge
records, condensed trees, selections and labels, not merely approximately
equal ones.  Argmin tie-breaking is preserved (first occurrence = smallest
index, matching the reference heaps and loops), and floating-point
reductions use the same operation sequences (elementwise products followed
by last-axis sums; ordered :func:`numpy.ufunc.at` accumulation where the
reference accumulates sequentially).

One implementation per kernel
-----------------------------
There is nothing to select: each kernel has exactly one implementation and
the estimators take no kernel option.  The reference loops live on only as
test oracles in the private ``repro._reference`` module, which nothing in
the library imports: the property-based parity suite in
``tests/test_clustering_kernels.py`` drives both with adversarial inputs
(duplicate points, tied distances, singleton clusters, empty constraint
sets), and ``repro bench kernels`` times each kernel against its oracle —
see ``docs/performance.md``.

Distance-matrix storage
-----------------------
Every kernel that consumes an ``(n, n)`` distance matrix reads it **one row
(or one row block) at a time** and never materialises a full-matrix
temporary: the OPTICS sweep and the Prim MST index single rows per
iteration (Prim derives each mutual-reachability row as it goes), and the
upstream core-distance pass streams in row blocks.  The matrices
handed in may therefore be plain in-RAM arrays *or* read-only
``np.memmap`` views from the ``memmap`` distance backend (see
:mod:`repro.core.distance_backend`) — NumPy indexing faults the needed
pages in on demand and the OS can evict them under pressure, which is what
lets the kernels run at ``n`` well past the dense-matrix RAM wall with
bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# ======================================================================
# Kernel 1: OPTICS ordering + reachability
# ======================================================================

def optics_ordering(
    distances: np.ndarray, core_distances: np.ndarray, eps: float = np.inf
) -> tuple[np.ndarray, np.ndarray]:
    """OPTICS visit ordering and reachability distances (masked-argmin sweep).

    Parameters
    ----------
    distances:
        ``(n, n)`` pairwise distance matrix.
    core_distances:
        ``(n,)`` core distance per object (``MinPts``-th nearest neighbour).
    eps:
        Maximum neighbourhood radius; ``inf`` computes the full hierarchy.

    Returns
    -------
    tuple
        ``(ordering, reachability)`` — the visit permutation and the
        reachability distance per object (indexed by object).  The first
        object of every connected component keeps ``inf``.

    Instead of a priority queue, a dense ``pending`` array holds the
    unprocessed objects: the next object is ``argmin(pending)`` (first
    occurrence, i.e. the smallest index on ties — exactly a heap's
    ``(reach, index)`` order), and each expansion updates all improved
    neighbours with one fancy-indexed assignment instead of per-neighbour
    heap pushes.
    """
    n_samples = distances.shape[0]
    core = np.asarray(core_distances, dtype=np.float64)
    # ``pending`` carries the current reachability of every unprocessed
    # object (processed objects are pinned at +inf so argmin skips them);
    # an object's final reachability is simply its pending value at the
    # moment it is popped, so no separate update pass is needed.
    pending = np.full(n_samples, np.inf)
    reachability = np.full(n_samples, np.inf)
    unprocessed = np.ones(n_samples, dtype=bool)
    ordering = np.empty(n_samples, dtype=np.int64)
    new_reach = np.empty(n_samples)
    improved = np.empty(n_samples, dtype=bool)
    unbounded = bool(np.isinf(eps))

    for step in range(n_samples):
        index = int(np.argmin(pending))
        if not np.isfinite(pending[index]):
            # Nothing reachable is left: start a new component at the
            # smallest unprocessed index, like the reference outer loop.
            index = int(np.argmax(unprocessed))
        reachability[index] = pending[index]
        unprocessed[index] = False
        pending[index] = np.inf
        ordering[step] = index
        if core[index] > eps:
            continue
        row = distances[index]
        np.maximum(core[index], row, out=new_reach)
        np.less(new_reach, pending, out=improved)
        improved &= unprocessed
        if not unbounded:
            improved &= row <= eps
        pending[improved] = new_reach[improved]
    return ordering, reachability


# ======================================================================
# Kernel 2: dense Prim MST + single-linkage merge records
# ======================================================================

def mutual_reachability(
    distances: np.ndarray,
    core_distances: np.ndarray,
    column_core_distances: np.ndarray | None = None,
) -> np.ndarray:
    """Mutual reachability distance ``max(d(a, b), core(a), core(b))``.

    Parameters
    ----------
    distances:
        ``(n, n)`` raw distance matrix, or an ``(m, n)`` row block of it
        (in-RAM or memmap).
    core_distances:
        Core distance of each row of ``distances``.
    column_core_distances:
        Core distance of each column.  ``None`` means ``distances`` is the
        square matrix over one point set: the columns take
        ``core_distances`` and the diagonal is zeroed.

    Both forms apply the same two maximums in the same order, so a row
    computed from a block is bit-identical to that row of the square
    matrix.  :func:`minimum_spanning_tree` computes one row per step this
    way; nothing in a fit builds the square form.
    """
    core_distances = np.asarray(core_distances, dtype=np.float64)
    mreach = np.maximum(np.asarray(distances, dtype=np.float64), core_distances[:, None])
    if column_core_distances is not None:
        np.maximum(mreach, column_core_distances, out=mreach)
        return mreach
    np.maximum(mreach, core_distances, out=mreach)
    np.fill_diagonal(mreach, 0.0)
    return mreach


def minimum_spanning_tree(distances: np.ndarray, core_distances: np.ndarray) -> np.ndarray:
    """Dense Prim minimum spanning tree over the mutual reachability distance.

    Parameters
    ----------
    distances:
        ``(n, n)`` symmetric distance matrix (in-RAM or a read-only
        ``np.memmap``); it is only read, one row per step.
    core_distances:
        ``(n,)`` core distance per object.

    Returns
    -------
    ndarray
        ``(n-1, 3)`` array of edges ``(u, v, weight)`` sorted by weight
        (stable, so tied weights keep discovery order).

    Each frontier row is the :func:`mutual_reachability` row of the point
    just added, computed when it is needed; no ``(n, n)`` temporary ever
    exists.  ``max`` is exact, so the tree is bit-identical to Prim over
    the materialised matrix.
    """
    distances = np.asarray(distances, dtype=np.float64)
    core = np.asarray(core_distances, dtype=np.float64)
    n_samples = distances.shape[0]
    if n_samples < 2:
        return np.empty((0, 3), dtype=np.float64)

    # ``frontier[j]`` is the best known edge weight from the tree to j.
    # In-tree points are pinned at +inf in ``frontier`` (so argmin skips
    # them) and in the column cores ``pending_core`` (so their row entries
    # come out +inf and can never improve): each step is one argmin plus
    # one comparison.
    pending_core = core.copy()
    pending_core[0] = np.inf
    frontier = mutual_reachability(distances[:1], core[:1], pending_core)[0]
    source = np.zeros(n_samples, dtype=np.int64)
    improved = np.empty(n_samples, dtype=bool)
    visit = np.empty(n_samples - 1, dtype=np.int64)
    weight = np.empty(n_samples - 1, dtype=np.float64)
    for step in range(n_samples - 1):
        candidate = int(np.argmin(frontier))
        visit[step] = candidate
        weight[step] = frontier[candidate]
        frontier[candidate] = np.inf
        pending_core[candidate] = np.inf
        row = mutual_reachability(
            distances[candidate : candidate + 1], core[candidate : candidate + 1], pending_core
        )[0]
        np.less(row, frontier, out=improved)
        np.copyto(frontier, row, where=improved)
        np.copyto(source, candidate, where=improved)
    # An in-tree point's source never changes again, so it is read at the end.
    order = np.argsort(weight, kind="stable")
    visit = visit[order]
    return np.column_stack([source[visit], visit, weight[order]])


def _check_edge_count(mst_edges: np.ndarray, n_samples: int) -> np.ndarray:
    mst_edges = np.asarray(mst_edges, dtype=np.float64)
    if mst_edges.shape[0] != n_samples - 1:
        raise ValueError(
            f"expected {n_samples - 1} MST edges for {n_samples} samples, got {mst_edges.shape[0]}"
        )
    return mst_edges


def single_linkage_tree(mst_edges: np.ndarray, n_samples: int) -> np.ndarray:
    """Convert sorted MST edges into scipy-style single-linkage merge records.

    Parameters
    ----------
    mst_edges:
        ``(n-1, 3)`` MST edges sorted by weight.
    n_samples:
        Number of leaves.

    Returns
    -------
    ndarray
        ``(n-1, 4)`` merge records; row ``m`` records the merge creating
        node ``n_samples + m`` from nodes ``(left, right)`` at ``distance``
        with ``size`` leaves, exactly like
        :func:`scipy.cluster.hierarchy.linkage` output for single linkage.

    The merge loop runs over flat array-based union–find (integer index
    lists with inline path halving); edge endpoints are bulk-converted once
    and the merge columns are assembled with whole-column array writes.
    The emitted records only depend on the *groups* (never on which root
    survives a union).
    """
    mst_edges = _check_edge_count(mst_edges, n_samples)
    n_edges = n_samples - 1
    if n_edges <= 0:
        return np.empty((0, 4), dtype=np.float64)

    parent = list(range(n_samples))
    node_of = list(range(n_samples))            # union-find root -> dendrogram node
    sizes = [1] * (2 * n_samples - 1)           # dendrogram node -> leaf count
    u_list = mst_edges[:, 0].astype(np.int64).tolist()
    v_list = mst_edges[:, 1].astype(np.int64).tolist()
    left = [0] * n_edges
    right = [0] * n_edges
    merged_sizes = [0] * n_edges

    next_node = n_samples
    for row in range(n_edges):
        x = u_list[row]
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        y = v_list[row]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        node_u = node_of[x]
        node_v = node_of[y]
        merged = sizes[node_u] + sizes[node_v]
        left[row] = node_u
        right[row] = node_v
        merged_sizes[row] = merged
        parent[y] = x
        node_of[x] = next_node
        sizes[next_node] = merged
        next_node += 1

    merges = np.empty((n_edges, 4), dtype=np.float64)
    merges[:, 0] = left
    merges[:, 1] = right
    merges[:, 2] = mst_edges[:, 2]
    merges[:, 3] = merged_sizes
    return merges


# ======================================================================
# Kernel 3: FOSC condensed tree + optimal extraction over flat arrays
# ======================================================================

@dataclass
class CondensedArrayData:
    """Flat-array representation of a condensed density hierarchy.

    Produced by :func:`condense_tree`; consumed by :func:`stabilities`,
    :func:`labels_for_selection` and :func:`fosc_extract`.  Cluster ``0``
    is the root; children always have larger identifiers than their
    parents, so reversed id order is a valid bottom-up traversal.

    Attributes
    ----------
    n_samples:
        Number of data objects.
    min_cluster_size:
        Minimum size for a split to create new clusters.
    parent:
        ``(k,)`` parent cluster id per cluster (``-1`` for the root).
    birth_lambda:
        ``(k,)`` density level at which each cluster appears.
    split_lambda:
        ``(k,)`` density level at which each cluster splits (``inf`` if
        it never splits).
    children:
        Child cluster ids per cluster, in creation order.
    sizes:
        ``(k,)`` member count per cluster (own fall-outs plus all
        descendants' members).
    point_cluster:
        ``(n,)`` cluster in which each point individually falls out.
    point_lambda:
        ``(n,)`` density level at which each point falls out.
    event_cluster / event_lambda:
        Per-point fall-out records in hierarchy *walk order* — the same
        order in which the reference build fills ``point_lambdas``, which
        is what makes the ordered stability accumulation bit-identical.
    enter / exit:
        DFS pre-order interval per cluster: cluster ``d`` is a
        descendant-or-self of ``c`` iff ``enter[c] <= enter[d] <= exit[c]``.
    """

    n_samples: int
    min_cluster_size: int
    parent: np.ndarray
    birth_lambda: np.ndarray
    split_lambda: np.ndarray
    children: list[list[int]]
    sizes: np.ndarray
    point_cluster: np.ndarray
    point_lambda: np.ndarray
    event_cluster: np.ndarray
    event_lambda: np.ndarray
    enter: np.ndarray
    exit: np.ndarray

    @property
    def n_clusters(self) -> int:
        """Number of condensed clusters, including the root."""
        return self.parent.shape[0]


def _leaf_intervals(
    merges: np.ndarray, n_samples: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leaf ordering of a single-linkage tree plus per-node leaf intervals.

    Returns ``(leaf_order, start, end)`` such that the leaves of dendrogram
    node ``v`` are exactly ``leaf_order[start[v]:end[v]]``, *in the same
    order* as the reference ``CondensedTree._node_leaves`` stack traversal
    (right subtree first).
    """
    n_nodes = 2 * n_samples - 1
    left = merges[:, 0].astype(np.int64).tolist()
    right = merges[:, 1].astype(np.int64).tolist()
    subtree = [1] * n_nodes
    for node in range(n_samples, n_nodes):
        row = node - n_samples
        subtree[node] = subtree[left[row]] + subtree[right[row]]

    leaf_order = np.empty(n_samples, dtype=np.int64)
    start = np.empty(n_nodes, dtype=np.int64)
    end = np.empty(n_nodes, dtype=np.int64)
    stack: list[tuple[int, int]] = [(n_nodes - 1, 0)]
    while stack:
        node, offset = stack.pop()
        start[node] = offset
        end[node] = offset + subtree[node]
        if node < n_samples:
            leaf_order[offset] = node
        else:
            row = node - n_samples
            # The reference emits the right subtree's leaves first.
            stack.append((right[row], offset))
            stack.append((left[row], offset + subtree[right[row]]))
    return leaf_order, start, end


def condense_tree(
    merges: np.ndarray, n_samples: int, min_cluster_size: int
) -> CondensedArrayData:
    """Condense a single-linkage tree into flat parent/lambda arrays.

    A top-down walk of the dendrogram decides which splits are significant
    (both sides at least ``min_cluster_size``); point fall-outs are recorded
    as leaf-order *intervals* instead of per-cluster Python sets, and the
    per-point lambda/cluster assignment happens in one bulk scatter at the
    end.  Cluster identifiers, birth/split levels and per-point fall-out
    levels are bit-identical to the reference build.
    """
    if min_cluster_size < 2:
        raise ValueError(f"min_cluster_size must be an integer >= 2, got {min_cluster_size}")
    merges = np.asarray(merges, dtype=np.float64)
    n_edges = merges.shape[0]
    point_cluster = np.zeros(n_samples, dtype=np.int64)
    point_lambda = np.full(n_samples, np.inf)

    if n_edges == 0:
        return CondensedArrayData(
            n_samples=n_samples,
            min_cluster_size=min_cluster_size,
            parent=np.array([-1], dtype=np.int64),
            birth_lambda=np.zeros(1),
            split_lambda=np.full(1, np.inf),
            children=[[]],
            sizes=np.array([n_samples], dtype=np.int64),
            point_cluster=point_cluster,
            point_lambda=point_lambda,
            event_cluster=np.zeros(n_samples, dtype=np.int64),
            event_lambda=np.full(n_samples, np.inf),
            enter=np.zeros(1, dtype=np.int64),
            exit=np.zeros(1, dtype=np.int64),
        )

    leaf_order, node_start, node_end = _leaf_intervals(merges, n_samples)
    left_nodes = merges[:, 0].astype(np.int64).tolist()
    right_nodes = merges[:, 1].astype(np.int64).tolist()
    node_sizes = merges[:, 3].astype(np.int64).tolist()
    distances = merges[:, 2]
    with np.errstate(divide="ignore"):
        levels_arr = np.where(distances <= 0.0, np.inf, np.divide(1.0, distances))
    levels = levels_arr.tolist()
    starts = node_start.tolist()
    ends = node_end.tolist()

    parent_ids = [-1]
    births = [0.0]
    splits = [np.inf]
    children: list[list[int]] = [[]]

    # Fall-out events: (cluster, leaf-interval, level), in walk order.
    ev_cluster: list[int] = []
    ev_lo: list[int] = []
    ev_hi: list[int] = []
    ev_level: list[float] = []

    def _size(node: int) -> int:
        return 1 if node < n_samples else node_sizes[node - n_samples]

    root_node = n_samples + n_edges - 1
    stack: list[tuple[int, int]] = [(root_node, 0)]
    while stack:
        node, cluster_id = stack.pop()
        if node < n_samples:
            ev_cluster.append(cluster_id)
            ev_lo.append(starts[node])
            ev_hi.append(ends[node])
            ev_level.append(np.inf)
            continue
        row = node - n_samples
        node_left = left_nodes[row]
        node_right = right_nodes[row]
        level = levels[row]
        big_left = _size(node_left) >= min_cluster_size
        big_right = _size(node_right) >= min_cluster_size

        if big_left and big_right:
            if level < splits[cluster_id]:
                splits[cluster_id] = level
            for child_node in (node_left, node_right):
                child_id = len(parent_ids)
                parent_ids.append(cluster_id)
                births.append(level)
                splits.append(np.inf)
                children[cluster_id].append(child_id)
                children.append([])
                stack.append((child_node, child_id))
        elif big_left or big_right:
            keep, drop = (node_left, node_right) if big_left else (node_right, node_left)
            ev_cluster.append(cluster_id)
            ev_lo.append(starts[drop])
            ev_hi.append(ends[drop])
            ev_level.append(level)
            stack.append((keep, cluster_id))
        else:
            for side in (node_left, node_right):
                ev_cluster.append(cluster_id)
                ev_lo.append(starts[side])
                ev_hi.append(ends[side])
                ev_level.append(level)

    # Expand the interval events into per-point arrays with one scatter.
    ev_cluster_arr = np.asarray(ev_cluster, dtype=np.int64)
    ev_lo_arr = np.asarray(ev_lo, dtype=np.int64)
    ev_hi_arr = np.asarray(ev_hi, dtype=np.int64)
    ev_level_arr = np.asarray(ev_level, dtype=np.float64)
    lengths = ev_hi_arr - ev_lo_arr
    rep = np.repeat(np.arange(ev_cluster_arr.shape[0]), lengths)
    offsets = np.concatenate(([0], np.cumsum(lengths)))[:-1]
    flat = np.arange(int(lengths.sum()), dtype=np.int64) - offsets[rep] + ev_lo_arr[rep]
    points = leaf_order[flat]
    event_cluster = ev_cluster_arr[rep]
    event_lambda = ev_level_arr[rep]
    point_cluster[points] = event_cluster
    point_lambda[points] = event_lambda

    n_clusters = len(parent_ids)
    parent = np.asarray(parent_ids, dtype=np.int64)
    birth_lambda = np.asarray(births, dtype=np.float64)
    split_lambda = np.asarray(splits, dtype=np.float64)

    # Member counts, bottom-up (children have larger ids than parents).
    sizes = np.bincount(point_cluster, minlength=n_clusters).astype(np.int64)
    for cluster_id in range(n_clusters - 1, -1, -1):
        for child_id in children[cluster_id]:
            sizes[cluster_id] += sizes[child_id]

    # DFS pre-order intervals for O(1) descendant-or-self membership tests.
    subtree_count = np.ones(n_clusters, dtype=np.int64)
    for cluster_id in range(n_clusters - 1, -1, -1):
        for child_id in children[cluster_id]:
            subtree_count[cluster_id] += subtree_count[child_id]
    enter = np.empty(n_clusters, dtype=np.int64)
    exit_ = np.empty(n_clusters, dtype=np.int64)
    dfs: list[int] = [0]
    counter = 0
    while dfs:
        cluster_id = dfs.pop()
        enter[cluster_id] = counter
        exit_[cluster_id] = counter + subtree_count[cluster_id] - 1
        counter += 1
        dfs.extend(reversed(children[cluster_id]))

    return CondensedArrayData(
        n_samples=n_samples,
        min_cluster_size=min_cluster_size,
        parent=parent,
        birth_lambda=birth_lambda,
        split_lambda=split_lambda,
        children=children,
        sizes=sizes,
        point_cluster=point_cluster,
        point_lambda=point_lambda,
        event_cluster=event_cluster,
        event_lambda=event_lambda,
        enter=enter,
        exit=exit_,
    )


def stabilities(data: CondensedArrayData) -> np.ndarray:
    """Excess-of-mass stability of every condensed cluster.

    Fall-out contributions are accumulated with :func:`numpy.ufunc.at` in
    hierarchy walk order — the same sequential order in which the
    reference ``CondensedTree.stability`` iterates ``point_lambdas`` — so
    each per-cluster total is the bit-identical floating-point sum.
    """
    totals = np.zeros(data.n_clusters)
    end_levels = data.split_lambda[data.event_cluster]
    capped = np.minimum(data.event_lambda, end_levels)
    contributions = np.where(
        np.isfinite(capped), capped - data.birth_lambda[data.event_cluster], 0.0
    )
    np.add.at(totals, data.event_cluster, contributions)

    # Points passed down to children leave their cluster at the split level.
    n_passed = np.zeros(data.n_clusters, dtype=np.int64)
    for cluster_id, cluster_children in enumerate(data.children):
        for child_id in cluster_children:
            n_passed[cluster_id] += data.sizes[child_id]
    passed_mask = (n_passed > 0) & np.isfinite(data.split_lambda)
    totals[passed_mask] += (
        n_passed[passed_mask] * (data.split_lambda[passed_mask] - data.birth_lambda[passed_mask])
    )
    return totals


def labels_for_selection(data: CondensedArrayData, selected: list[int]) -> np.ndarray:
    """Flat labels for a set of selected clusters; unassigned points are noise.

    Flat labels follow the sorted order of the selected cluster ids, and
    later clusters overwrite earlier ones (irrelevant for the antichains
    FOSC produces).
    """
    labels = np.full(data.n_samples, -1, dtype=np.int64)
    point_enter = data.enter[data.point_cluster]
    for flat_label, cluster_id in enumerate(sorted(selected)):
        members = (point_enter >= data.enter[cluster_id]) & (point_enter <= data.exit[cluster_id])
        labels[members] = flat_label
    return labels


def fosc_extract(
    data: CondensedArrayData,
    constraint_i: np.ndarray,
    constraint_j: np.ndarray,
    constraint_is_must: np.ndarray,
    stability_weight: float,
) -> tuple[list[int], np.ndarray, float, bool]:
    """FOSC optimal-selection dynamic program over flat condensed arrays.

    Parameters
    ----------
    data:
        Condensed hierarchy from :func:`condense_tree`.
    constraint_i, constraint_j:
        Constraint endpoint index arrays (may be empty).
    constraint_is_must:
        Boolean array marking must-link constraints.
    stability_weight:
        Weight of the normalised unsupervised stability term.

    Returns
    -------
    tuple
        ``(selected_clusters, labels, objective, used_constraints)``.
    """
    n_constraints = int(constraint_i.shape[0])
    use_constraints = n_constraints > 0
    n_clusters = data.n_clusters

    if n_clusters <= 1:
        # Degenerate hierarchy: everything is one cluster, like the reference.
        return [0], np.zeros(data.n_samples, dtype=np.int64), 0.0, use_constraints

    stability_all = stabilities(data)[1:]
    max_stability = float(stability_all.max()) if stability_all.size else 0.0
    if max_stability <= 0.0:
        max_stability = 1.0
    normalised = stability_all / max_stability

    if use_constraints:
        # Endpoint membership per (constraint, cluster) via DFS intervals.
        enter_i = data.enter[data.point_cluster[constraint_i]][:, None]
        enter_j = data.enter[data.point_cluster[constraint_j]][:, None]
        lo = data.enter[None, 1:]
        hi = data.exit[None, 1:]
        in_i = (enter_i >= lo) & (enter_i <= hi)
        in_j = (enter_j >= lo) & (enter_j <= hi)
        must = constraint_is_must[:, None]
        # Credits are exact multiples of 0.5, so the summation order of the
        # reference loop cannot change the totals.
        must_credit = (must & in_i & in_j).sum(axis=0)
        cannot_credit = (~must & (in_i ^ in_j)).sum(axis=0)
        satisfaction = (must_credit * 1.0 + cannot_credit * 0.5) / n_constraints
        quality = satisfaction + stability_weight * normalised
    else:
        quality = normalised

    # Bottom-up dynamic program (children have larger ids than parents).
    best_value = np.empty(n_clusters)
    keep_node = np.zeros(n_clusters, dtype=bool)
    for cluster_id in range(n_clusters - 1, 0, -1):
        own = quality[cluster_id - 1]
        cluster_children = data.children[cluster_id]
        children_value = sum(best_value[child] for child in cluster_children)
        if cluster_children and children_value > own:
            best_value[cluster_id] = children_value
        else:
            best_value[cluster_id] = own
            keep_node[cluster_id] = True

    selected: list[int] = []
    stack = list(data.children[0])
    total = sum(best_value[child] for child in data.children[0])
    while stack:
        cluster_id = stack.pop()
        if keep_node[cluster_id]:
            selected.append(cluster_id)
        else:
            stack.extend(data.children[cluster_id])
    selected = sorted(selected)

    if not selected:
        # Degenerate hierarchy (no significant split): one cluster, noise
        # for points outside the root — the root always contains every
        # point, so this is the all-zeros labelling of the reference.
        return [0], np.zeros(data.n_samples, dtype=np.int64), float(total), use_constraints

    labels = labels_for_selection(data, selected)
    return selected, labels, float(total), use_constraints


# ======================================================================
# Kernel 4: MPCK-Means greedy ICM assignment
# ======================================================================

def build_neighbor_csr(
    pairs: np.ndarray, n_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR-style adjacency ``(indptr, indices)`` from an ``(m, 2)`` pair array.

    The per-object neighbour order replicates the append order of the
    reference adjacency lists (pair by pair, ``i``'s entry before ``j``'s),
    so sequential penalty accumulation visits neighbours in that order.
    """
    pairs = np.asarray(pairs, dtype=np.intp)
    if pairs.size == 0:
        return np.zeros(n_samples + 1, dtype=np.intp), np.empty(0, dtype=np.intp)
    n_pairs = pairs.shape[0]
    rows = np.empty(2 * n_pairs, dtype=np.intp)
    cols = np.empty(2 * n_pairs, dtype=np.intp)
    rows[0::2] = pairs[:, 0]
    rows[1::2] = pairs[:, 1]
    cols[0::2] = pairs[:, 1]
    cols[1::2] = pairs[:, 0]
    order = np.argsort(rows, kind="stable")
    indices = cols[order]
    counts = np.bincount(rows, minlength=n_samples)
    indptr = np.zeros(n_samples + 1, dtype=np.intp)
    np.cumsum(counts, out=indptr[1:])
    return indptr, indices


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
    """One greedy ICM assignment sweep of MPCK-Means.

    Parameters
    ----------
    X:
        ``(n, d)`` data matrix.
    weights:
        ``(k, d)`` per-cluster diagonal metric weights.
    labels:
        ``(n,)`` labels entering the sweep (not modified).
    point_center_distances:
        ``(n, k)`` squared diagonal-metric distances to every centre.
    log_det:
        ``(k,)`` log-determinant normalisation term per metric.
    max_sq:
        ``(k,)`` maximum-distance scale for cannot-link penalties.
    must_indptr, must_indices, cannot_indptr, cannot_indices:
        CSR neighbour arrays from :func:`build_neighbor_csr` over the
        transitive-closure constraint pairs.
    order:
        Permutation in which objects are (conceptually) visited.
    constraint_weight:
        Penalty weight ``w``.

    Returns
    -------
    ndarray
        The updated ``(n,)`` label vector.

    Unconstrained objects read no other object's label and are read by no
    one (only constraint endpoints are ever consulted), so their updates
    commute with every other update in the sweep: they are assigned in one
    batched row-wise ``argmin``.  Constrained objects keep the sequential
    ICM semantics, but each visit computes all neighbour penalties under
    all metrics with one batched product and per-neighbour vector adds —
    the identical scalar operation sequence as the reference loop.
    """
    w = constraint_weight
    labels = labels.copy()

    base = point_center_distances - log_det[None, :]
    degree = (must_indptr[1:] - must_indptr[:-1]) + (cannot_indptr[1:] - cannot_indptr[:-1])
    constrained = degree > 0
    free = ~constrained
    if free.any():
        labels[free] = np.argmin(base[free], axis=1)
    if not constrained.any():
        return labels

    for index in order[constrained[order]]:
        costs = base[index].copy()
        must_nb = must_indices[must_indptr[index]:must_indptr[index + 1]]
        if must_nb.size:
            diffs = X[index] - X[must_nb]
            diff_sq = diffs * diffs
            # (m, k): squared distance of every violated pair under every
            # candidate metric; the partner term is the gather at the
            # neighbour's current label (same last-axis reduction as the
            # reference's per-metric sums).
            pair_all = (diff_sq[:, None, :] * weights[None, :, :]).sum(axis=2)
            neighbor_labels = labels[must_nb]
            partner = pair_all[np.arange(must_nb.size), neighbor_labels]
            for m in range(must_nb.size):
                term = w * (0.5 * (pair_all[m] + partner[m]))
                term[neighbor_labels[m]] = 0.0
                costs += term
        cannot_nb = cannot_indices[cannot_indptr[index]:cannot_indptr[index + 1]]
        if cannot_nb.size:
            diffs = X[index] - X[cannot_nb]
            neighbor_labels = labels[cannot_nb]
            pair = (diffs * diffs * weights[neighbor_labels]).sum(axis=1)
            contribution = w * np.maximum(max_sq[neighbor_labels] - pair, 0.0)
            np.add.at(costs, neighbor_labels, contribution)
        labels[index] = int(np.argmin(costs))
    return labels
