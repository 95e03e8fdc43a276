"""Tests for the shared structure phase: memo, store round-trip, sharing.

The incremental CVCP machinery rests on one invariant: a FOSC tree
structure depends only on the data content and the (effective) MinPts —
never on constraints, folds, seeds or oracles.  These
tests pin the payload round-trip (including non-finite lambdas), the
memo-first store path with its hit/miss accounting, the exact-tier key
collapse, and the approximate tier's key isolation.
"""

import json

import numpy as np
import pytest

from repro.clustering.fosc import FOSC
from repro.clustering.hierarchy import (
    build_tree_structure,
    cached_tree_structure,
    clear_structure_cache,
    structure_cache_stats,
    structure_from_payload,
    structure_payload,
    structure_store_key,
)
from repro.datasets import make_blobs
from repro.experiments.artifacts import ArtifactStore
from repro.utils.cache import MemoCache, clear_distance_cache


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_distance_cache()
    yield
    clear_distance_cache()


@pytest.fixture()
def X():
    data = make_blobs([12, 12, 12], 3, random_state=5).X
    # Duplicate a few rows: zero distances force infinite density lambdas,
    # which is exactly the non-finite regime JSON cannot spell natively.
    data[3] = data[0]
    data[17] = data[14]
    return data


def assert_structures_identical(left, right):
    assert left.n_samples == right.n_samples
    assert left.min_pts == right.min_pts
    assert left.min_cluster_size == right.min_cluster_size
    assert left.metric == right.metric
    np.testing.assert_array_equal(left.core_distances, right.core_distances)
    np.testing.assert_array_equal(left.mst_edges, right.mst_edges)
    np.testing.assert_array_equal(left.single_linkage_tree, right.single_linkage_tree)


class TestPayloadRoundTrip:
    def test_payload_survives_json_exactly(self, X):
        structure = build_tree_structure(X, 4)
        payload = json.loads(json.dumps(structure_payload(structure)))
        rebuilt = structure_from_payload(payload)
        assert_structures_identical(structure, rebuilt)

    def test_non_finite_lambdas_round_trip(self, X):
        structure = build_tree_structure(X, 4)
        payload = structure_payload(structure)
        text = json.dumps(payload)
        assert "Infinity" not in text  # the invalid-JSON spelling
        rebuilt = structure_from_payload(json.loads(text))
        assert_structures_identical(structure, rebuilt)

    def test_decoded_structure_extracts_identically(self, X):
        structure = build_tree_structure(X, 4)
        payload = json.loads(json.dumps(structure_payload(structure)))
        rebuilt = structure_from_payload(payload)
        assert_structures_identical(structure, rebuilt)
        assert structure_payload(rebuilt) == structure_payload(structure)
        expected = FOSC().extract(structure.condensed_tree)
        observed = FOSC().extract(rebuilt.condensed_tree)
        assert observed.selected_clusters == expected.selected_clusters
        assert np.array_equal(observed.labels, expected.labels)
        assert observed.objective == expected.objective


class TestMemoPeek:
    def test_peek_returns_none_without_counting_a_miss(self):
        cache = MemoCache(max_items=4)
        assert cache.peek("absent") is None
        assert cache.stats().misses == 0

    def test_peek_counts_a_hit_and_refreshes_lru(self):
        cache = MemoCache(max_items=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        assert cache.peek("a") == 1
        assert cache.stats().hits == 1
        cache.get_or_compute("c", lambda: 3)  # evicts the LRU entry: "b"
        assert cache.peek("b") is None
        assert cache.peek("a") == 1

    def test_peek_on_disabled_cache(self):
        assert MemoCache(max_items=0).peek("anything") is None


class TestCachedTreeStructure:
    def test_memoised_without_store(self, X):
        first = cached_tree_structure(X, 4)
        assert cached_tree_structure(X, 4) is first

    def test_fresh_build_writes_through(self, X, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        structure = cached_tree_structure(X, 4, store=store)
        key = structure_store_key(X, 4)
        assert store.count("structure") == 1
        assert store.stats_for("structure").misses >= 1
        rebuilt = structure_from_payload(store.get("structure", key))
        assert_structures_identical(structure, rebuilt)

    def test_memo_hit_counts_a_store_hit(self, X, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        cached_tree_structure(X, 4, store=store)
        before = store.stats_for("structure").hits
        cached_tree_structure(X, 4, store=store)
        assert store.stats_for("structure").hits == before + 1

    def test_memo_hit_repairs_a_deleted_artifact(self, X, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        structure = cached_tree_structure(X, 4, store=store)
        key = structure_store_key(X, 4)
        assert store.delete("structure", key)
        assert cached_tree_structure(X, 4, store=store) is structure
        assert store.count("structure") == 1

    def test_cold_memo_decodes_from_store_without_rebuilding(self, X, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        structure = cached_tree_structure(X, 4, store=store)
        clear_distance_cache()
        misses_before = structure_cache_stats().misses
        decoded = cached_tree_structure(X, 4, store=store)
        assert decoded is not structure
        assert_structures_identical(structure, decoded)
        # The memo recorded one miss (the decode) but the store served it.
        assert structure_cache_stats().misses == misses_before + 1
        assert store.stats_for("structure").hits >= 1

    def test_exact_tiers_share_one_memo_entry(self, X):
        dense = cached_tree_structure(X, 4, distance_backend="dense")
        blockwise = cached_tree_structure(X, 4, distance_backend="blockwise")
        assert blockwise is dense

    def test_neighbors_tier_never_shares_with_exact(self, X, tmp_path):
        exact_key = structure_store_key(X, 4)
        approx_key = structure_store_key(
            X, 4, distance_backend="neighbors", epsilon=1.5, k_neighbors=8
        )
        assert "approx" not in exact_key
        assert approx_key["approx"]["distance_backend"] == "neighbors"
        store = ArtifactStore(tmp_path / "store")
        cached_tree_structure(X, 4, store=store)
        assert not store.contains(
            "structure",
            structure_store_key(X, 4, distance_backend="neighbors", epsilon=1.5, k_neighbors=8),
        )


class TestStoreContains:
    def test_present_counts_hit_absent_counts_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = {"x": 1}
        assert not store.contains("structure", key)
        assert store.stats_for("structure").misses == 1
        store.put("structure", key, {"payload": True})
        assert store.contains("structure", key)
        assert store.stats_for("structure").hits == 1

    def test_refresh_mode_reports_absence(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = {"x": 1}
        store.put("structure", key, {"payload": True})
        refreshing = ArtifactStore(tmp_path / "store", refresh=True)
        assert not refreshing.contains("structure", key)
