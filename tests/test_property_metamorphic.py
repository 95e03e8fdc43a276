"""Metamorphic properties of FOSC-OPTICSDend and CVCP on every exact tier.

Each property transforms the input in a way whose effect on the output is
known in advance, and checks that the library honours it:

* a point permutation of tie-free data gives the same FOSC partition up to
  relabelling (the hierarchy depends on the points, not their order);
* scaling ``X`` by a power of two is exact in floating point, so labels are
  bit-identical and CVCP selects the same parameter with the same scores;
* on well-separated data, translating ``X`` leaves CVCP's selected
  parameter unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.clustering.fosc import FOSCOpticsDend
from repro.constraints import ConstraintSet, cannot_link, must_link
from repro.constraints.generation import sample_labeled_objects
from repro.core.cvcp import CVCP
from repro.core.distance_backend import EXACT_DISTANCE_BACKENDS
from repro.core.executor import ExecutionSpec
from repro.datasets.synthetic import make_blobs

#: Hypothesis budget per property and tier (each example runs several fits).
_SETTINGS = settings(max_examples=10, deadline=None)


def grouped_points(seed: int, n_samples: int) -> np.ndarray:
    """Continuous (hence tie-free) 2-d points in three loose groups."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n_samples, 2)) + 6.0 * rng.integers(0, 3, size=(n_samples, 1))


def same_partition(left: np.ndarray, right: np.ndarray) -> bool:
    """Equal noise sets and equal co-membership: the same partition up to relabelling."""
    if not np.array_equal(left == -1, right == -1):
        return False
    return np.array_equal(left[:, None] == left[None, :], right[:, None] == right[None, :])


def cvcp_outcome(X: np.ndarray, y: np.ndarray, tier: str) -> tuple:
    search = CVCP(
        FOSCOpticsDend(min_pts=4),
        parameter_values=[2, 4, 8],
        n_folds=3,
        random_state=5,
        execution=ExecutionSpec(distance_backend=tier),
    )
    search.fit(X, labeled_objects=sample_labeled_objects(y, 0.25, random_state=2))
    return (
        dict(search.best_params_),
        [list(evaluation.fold_scores) for evaluation in search.cv_results_.evaluations],
        search.labels_,
    )


@pytest.mark.parametrize("tier", EXACT_DISTANCE_BACKENDS)
class TestMetamorphicProperties:
    @_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), n_samples=st.integers(6, 40), min_pts=st.integers(1, 2))
    def test_permutation_gives_the_same_partition_up_to_relabelling(
        self, tier, seed, n_samples, min_pts
    ):
        X = grouped_points(seed, n_samples)
        permutation = np.random.default_rng(seed + 1).permutation(n_samples)
        position = np.argsort(permutation)  # old index -> index in the permuted data
        pairs = [(0, n_samples - 1, must_link), (1, n_samples // 2, cannot_link)]
        constraints = ConstraintSet([kind(i, j) for i, j, kind in pairs])
        permuted_constraints = ConstraintSet(
            [kind(int(position[i]), int(position[j])) for i, j, kind in pairs]
        )

        base = FOSCOpticsDend(min_pts=min_pts, distance_backend=tier).fit(X, constraints)
        # Tie-free means distinct merge heights; a tie would let the
        # permutation decide the merge order, which FOSC is sensitive to.
        heights = np.sort(base.structure_.mst_edges[:, 2])
        assume((np.diff(heights) > 1e-9 * heights[-1]).all())
        permuted = FOSCOpticsDend(min_pts=min_pts, distance_backend=tier).fit(
            X[permutation], permuted_constraints
        )
        assert same_partition(base.labels_[permutation], permuted.labels_)

    @_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), exponent=st.sampled_from([k for k in range(-8, 9) if k]))
    def test_power_of_two_scaling_is_bit_identical(self, tier, seed, exponent):
        dataset = make_blobs(
            [12, 12, 12], 2, center_spread=8.0, cluster_std=1.0,
            random_state=seed % 1000, name="metamorphic-scale",
        )
        scaled = dataset.X * 2.0**exponent
        labels = FOSCOpticsDend(min_pts=3, distance_backend=tier).fit(dataset.X).labels_
        scaled_labels = FOSCOpticsDend(min_pts=3, distance_backend=tier).fit(scaled).labels_
        assert labels.tobytes() == scaled_labels.tobytes()

        params, scores, cvcp_labels = cvcp_outcome(dataset.X, dataset.y, tier)
        scaled_params, scaled_scores, scaled_cvcp_labels = cvcp_outcome(scaled, dataset.y, tier)
        assert params == scaled_params
        assert scores == scaled_scores
        assert cvcp_labels.tobytes() == scaled_cvcp_labels.tobytes()

    @_SETTINGS
    @given(
        seed=st.integers(0, 999),
        offset=st.tuples(*[st.floats(-100.0, 100.0, allow_nan=False)] * 2),
    )
    def test_translation_keeps_the_selected_parameter(self, tier, seed, offset):
        dataset = make_blobs(
            [12, 12, 12], 2, center_spread=30.0, cluster_std=0.5,
            random_state=seed, name="metamorphic-translate",
        )
        params, _, _ = cvcp_outcome(dataset.X, dataset.y, tier)
        translated, _, _ = cvcp_outcome(dataset.X + np.asarray(offset), dataset.y, tier)
        assert params == translated
