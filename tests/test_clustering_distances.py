"""Unit tests for the distance utilities."""

import numpy as np
import pytest

from repro.clustering.distances import (
    DEFAULT_BLOCK_ROWS,
    diagonal_mahalanobis_distances,
    euclidean_distances,
    k_nearest_distances,
    pairwise_distances,
    weighted_squared_distance,
)


@pytest.fixture()
def points():
    return np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])


class TestEuclideanDistances:
    def test_known_values(self, points):
        distances = euclidean_distances(points)
        assert distances[0, 1] == pytest.approx(5.0)
        assert distances[0, 2] == pytest.approx(1.0)
        assert np.allclose(np.diag(distances), 0.0)

    def test_symmetry(self, points):
        distances = euclidean_distances(points)
        assert np.allclose(distances, distances.T)

    def test_squared_option(self, points):
        squared = euclidean_distances(points, squared=True)
        assert squared[0, 1] == pytest.approx(25.0)

    def test_cross_distances(self, points):
        other = np.array([[1.0, 0.0]])
        distances = euclidean_distances(points, other)
        assert distances.shape == (3, 1)
        assert distances[0, 0] == pytest.approx(1.0)

    def test_no_negative_from_rounding(self):
        X = np.random.default_rng(0).normal(size=(50, 20)) * 1e-8
        assert (euclidean_distances(X, squared=True) >= 0).all()


class TestPairwiseDistances:
    def test_metrics_agree_on_identity(self, points):
        for metric in ("euclidean", "sqeuclidean", "manhattan", "cosine"):
            distances = pairwise_distances(points, metric=metric)
            assert distances.shape == (3, 3)
            assert np.allclose(np.diag(distances), 0.0, atol=1e-12)

    def test_manhattan_known_value(self, points):
        distances = pairwise_distances(points, metric="manhattan")
        assert distances[0, 1] == pytest.approx(7.0)

    def test_cosine_orthogonal_vectors(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        distances = pairwise_distances(X, metric="cosine")
        assert distances[0, 1] == pytest.approx(1.0)

    def test_unknown_metric(self, points):
        with pytest.raises(ValueError):
            pairwise_distances(points, metric="chebyshev")


class TestDiagonalMahalanobis:
    def test_identity_weights_match_euclidean(self, points):
        centers = points[:2]
        weights = np.ones_like(centers)
        result = diagonal_mahalanobis_distances(points, centers, weights)
        expected = euclidean_distances(points, centers, squared=True)
        assert np.allclose(result, expected)

    def test_weighting_scales_dimensions(self):
        X = np.array([[1.0, 1.0]])
        centers = np.array([[0.0, 0.0]])
        weights = np.array([[4.0, 1.0]])
        assert diagonal_mahalanobis_distances(X, centers, weights)[0, 0] == pytest.approx(5.0)

    def test_shape_mismatch(self, points):
        with pytest.raises(ValueError):
            diagonal_mahalanobis_distances(points, points[:2], np.ones((3, 2)))

    def test_weighted_squared_distance(self):
        assert weighted_squared_distance([0, 0], [1, 2], [1, 1]) == pytest.approx(5.0)
        assert weighted_squared_distance([0, 0], [1, 2], [2, 0.5]) == pytest.approx(4.0)

    def test_batched_matches_per_cluster_loop(self):
        """Regression: the batched einsum equals the old O(n·k) Python loop."""
        rng = np.random.default_rng(42)
        X = rng.normal(size=(60, 5))
        centers = rng.normal(size=(4, 5))
        weights = rng.lognormal(0.0, 0.4, size=(4, 5))

        loop = np.empty((X.shape[0], centers.shape[0]))
        for h in range(centers.shape[0]):
            diff = X - centers[h]
            loop[:, h] = np.einsum("ij,j,ij->i", diff, weights[h], diff)

        batched = diagonal_mahalanobis_distances(X, centers, weights)
        assert np.allclose(batched, loop, rtol=1e-12, atol=1e-12)
        root = diagonal_mahalanobis_distances(X, centers, weights, squared=False)
        assert np.allclose(root, np.sqrt(loop), rtol=1e-12, atol=1e-12)

    def test_batched_faster_shapes_and_degenerate_inputs(self):
        """One cluster, one point and one dimension all keep their shapes."""
        assert diagonal_mahalanobis_distances(
            np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1))
        ).shape == (1, 1)
        out = diagonal_mahalanobis_distances(
            np.arange(6.0).reshape(6, 1), np.zeros((1, 1)), np.ones((1, 1))
        )
        assert out.shape == (6, 1)
        assert out[3, 0] == pytest.approx(9.0)


class TestKNearestDistances:
    def test_core_distance_semantics(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0]])
        distances = pairwise_distances(X)
        # k=1 is the point itself: distance 0.
        assert np.allclose(k_nearest_distances(distances, 1), 0.0)
        core2 = k_nearest_distances(distances, 2)
        assert core2[0] == pytest.approx(1.0)
        assert core2[3] == pytest.approx(8.0)

    def test_k_out_of_range(self):
        distances = pairwise_distances(np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            k_nearest_distances(distances, 3)
        with pytest.raises(ValueError):
            k_nearest_distances(distances, 0)


class TestPanelledComputation:
    """The canonical row-panel scheme behind the distance backends."""

    def test_out_and_block_rows_do_not_change_bits(self):
        X = np.random.default_rng(3).normal(size=(530, 4))  # spans two panels
        reference = pairwise_distances(X)
        into = np.empty_like(reference)
        assert pairwise_distances(X, out=into) is into
        assert np.array_equal(reference, into)
        for metric in ("euclidean", "sqeuclidean", "manhattan", "cosine"):
            ref = pairwise_distances(X, metric=metric)
            assert np.array_equal(ref, pairwise_distances(X, metric=metric, out=np.empty_like(ref)))

    def test_panel_done_callback_covers_every_row(self):
        X = np.random.default_rng(1).normal(size=(130, 3))
        seen = []
        pairwise_distances(X, block_rows=48, panel_done=lambda a, b: seen.append((a, b)))
        assert seen == [(0, 48), (48, 96), (96, 130)]

    def test_invalid_block_rows_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError, match="block_rows"):
            pairwise_distances(X, block_rows=0)

    def test_mismatched_out_shape_rejected(self):
        with pytest.raises(ValueError, match="out"):
            pairwise_distances(np.zeros((4, 2)), out=np.empty((3, 3)))

    def test_blocked_k_nearest_is_bitwise_identical(self):
        # More rows than one partition block, so the last block is partial.
        X = np.random.default_rng(9).normal(size=(DEFAULT_BLOCK_ROWS + 77, 5))
        distances = pairwise_distances(X)
        whole = np.partition(distances, 5, axis=1)[:, 5]
        assert np.array_equal(whole, k_nearest_distances(distances, 6))


class TestInputAcceptance:
    """float32 / non-contiguous inputs are accepted without hidden full copies."""

    def test_c_contiguous_float64_input_is_never_copied(self):
        """Regression: the input must not be duplicated (only bounded panel temps)."""
        import tracemalloc

        rng = np.random.default_rng(0)
        X = np.ascontiguousarray(rng.normal(size=(64, 4096)))  # input 2 MiB >> output 32 KiB
        pairwise_distances(X)  # warm numpy internals outside the traced window
        tracemalloc.start()
        pairwise_distances(X)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        output_bytes = 64 * 64 * 8
        # An input copy would add >= 2 MiB; allow the output, its panel
        # temporaries, and slack -- far below the input size.
        assert peak < 8 * output_bytes + 256 * 1024 < X.nbytes

    def test_float32_input_accepted_and_upcast_once(self):
        rng = np.random.default_rng(4)
        as32 = rng.normal(size=(90, 6)).astype(np.float32)
        for metric in ("euclidean", "manhattan", "cosine"):
            from32 = pairwise_distances(as32, metric=metric)
            from64 = pairwise_distances(as32.astype(np.float64), metric=metric)
            assert from32.dtype == np.float64
            assert np.array_equal(from32, from64)

    def test_non_contiguous_views_accepted(self):
        """Views are consumed in place; values match the contiguous copy.

        The comparison is allclose, not bitwise: BLAS may pick a different
        micro-kernel per memory layout, so the bit-identity contract is per
        input array (the same array gives the same bits in every tier), not
        across layouts of equal content.
        """
        rng = np.random.default_rng(8)
        base = rng.normal(size=(160, 8))
        strided = base[::2]
        fortran = np.asfortranarray(base)
        assert not strided.flags.c_contiguous and not fortran.flags.c_contiguous
        assert np.allclose(
            pairwise_distances(strided), pairwise_distances(strided.copy()),
            rtol=0, atol=1e-12,
        )
        assert np.allclose(
            pairwise_distances(fortran), pairwise_distances(base), rtol=0, atol=1e-12
        )

    def test_fingerprint_matches_between_view_and_copy(self):
        from repro.utils.cache import array_fingerprint

        base = np.random.default_rng(2).normal(size=(50, 6))
        strided = base[::2]
        assert array_fingerprint(strided) == array_fingerprint(strided.copy())
        assert array_fingerprint(base) != array_fingerprint(strided)
        assert array_fingerprint(base) != array_fingerprint(base.astype(np.float32))

    def test_cache_hit_never_stages_a_contiguous_copy(self):
        """Fingerprinting a non-contiguous input blocks the staging buffer."""
        import tracemalloc

        from repro.utils.cache import cached_pairwise_distances, clear_distance_cache

        base = np.random.default_rng(6).normal(size=(96, 65536))
        strided = base[:, ::2]  # 24 MiB view, non-contiguous
        clear_distance_cache()
        cached_pairwise_distances(strided)  # miss: computes and stores
        tracemalloc.start()
        cached_pairwise_distances(strided)  # hit: only fingerprints
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        clear_distance_cache()
        # The staging buffer is capped (~4 MiB); the old behaviour staged
        # one full contiguous copy of the view on every lookup.
        assert peak < 6 * 2**20 < strided.nbytes / 2

    def test_k_nearest_accepts_array_like_input(self):
        # Regression: .shape was read before the asarray conversion.
        out = k_nearest_distances([[0.0, 1.0], [1.0, 0.0]], 1)
        assert np.allclose(out, 0.0)
