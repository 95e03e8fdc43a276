"""Tiered distance backends: ``dense``/``blockwise``, ``memmap`` and ``neighbors``.

The CVCP protocol re-clusters every (parameter value × fold) cell, and every
density-based layer of this library — OPTICS, the single-linkage/Prim
hierarchy, FOSC, silhouette evaluation, the memoised distance cache — starts
from the full ``(n, n)`` pairwise-distance matrix.  Materialising that matrix
densely caps the reproduction at a few thousand points; this module makes the
matrix *provider* pluggable instead:

``dense`` / ``blockwise``
    Two names for one tier: the matrix lives in RAM, filled panel-at-a-time.
    Core distances stream in row blocks and Prim derives each
    mutual-reachability row as it goes, so the working set is the ``8·n²``
    matrix plus one row block — no derived ``(n, n)`` matrix and no
    full-matrix temporaries.  Both names stay accepted so configs, specs
    and reports keep the name the user wrote.
``memmap``
    Out-of-core: the matrix lives in a spill file under
    :func:`spill_directory` and is consumed through a read-only
    ``np.memmap`` view whose pages the OS can evict under memory
    pressure.  Spill files are written atomically (temp file + rename),
    cleaned up on exceptions, and keyed by the data fingerprint — so
    process-backend executor workers **map the same file** instead of
    recomputing or receiving the matrix over a pipe, and a re-run after a
    kill reuses the finished spill.
``neighbors``
    Sub-quadratic: no full matrix at all.  A KD-tree epsilon-bounded k-NN
    graph (:mod:`repro.core.neighbor_graph`) replaces the matrix with
    sparse CSR structures, making ``n = 100000`` fits feasible.  This tier
    is **approximate-by-contract**, not bit-identical — see below.

Bit-identity contract
---------------------
The three *exact* tiers (:data:`EXACT_DISTANCE_BACKENDS`) produce
**bit-identical** matrices — and therefore bit-identical clusterings — for
the same input, because the canonical computation is the fixed row-panel
scheme of :mod:`repro.clustering.distances`: every exact tier performs the
same per-panel NumPy/BLAS calls and differs only in where the result is
stored; every consumer reads it through the same row-block passes.  Parity
is enforced across backends *and* across the serial/thread/process
executors by ``tests/test_distance_backend.py`` (which also pins the
committed ``BENCH_scale.json`` label digests) and asserted before timing
by ``repro bench scale``.

The ``neighbors`` tier sits outside this contract: points only see their
``k_neighbors`` nearest neighbours within ``epsilon``.  Its own contract —
entry-for-entry equality with ``dense`` in the exhaustive
``k_neighbors >= n`` regime, ARI-vs-exact floors at practical settings —
is documented in ``docs/determinism.md`` and enforced by
``tests/test_neighbor_graph.py`` and the scale bench.

Selection
---------
Every consumer takes
``distance_backend="dense" | "blockwise" | "memmap" | "neighbors"``
(``None`` consults the ``REPRO_DISTANCE_BACKEND`` environment variable and
falls back to ``"dense"``).  The spill directory honours
``REPRO_DISTANCE_SPILL_DIR``; the ``neighbors`` tier additionally reads
``REPRO_NEIGHBOR_EPSILON``/``REPRO_NEIGHBOR_K``.  Worker processes inherit
all of these variables, so the process executor composes with every tier.
"""

from __future__ import annotations

import hashlib
import itertools
import mmap
import os
import tempfile
from pathlib import Path

import numpy as np

#: Per-process counter making spill temp names unique per fill.
_FILL_COUNTER = itertools.count()

#: The exact full-matrix tiers: bit-identical to each other by construction.
EXACT_DISTANCE_BACKENDS: tuple[str, ...] = ("dense", "blockwise", "memmap")

#: Recognised distance backends, in order of increasing scale.  The
#: ``neighbors`` tier is *approximate-by-contract* (sparse k-NN graphs; see
#: :mod:`repro.core.neighbor_graph`) — bit-identity loops and shared-cache
#: assumptions must iterate :data:`EXACT_DISTANCE_BACKENDS` instead.
DISTANCE_BACKENDS: tuple[str, ...] = EXACT_DISTANCE_BACKENDS + ("neighbors",)

#: Backend used when neither the argument nor the environment selects one.
DEFAULT_DISTANCE_BACKEND = "dense"

#: Environment variable consulted when ``distance_backend=None``.
DISTANCE_BACKEND_ENV_VAR = "REPRO_DISTANCE_BACKEND"

#: Environment variable overriding the spill-file directory.
SPILL_DIR_ENV_VAR = "REPRO_DISTANCE_SPILL_DIR"

#: Suffix of finished spill files.
SPILL_SUFFIX = ".dmm"


def resolve_distance_backend(backend: str | None = None) -> str:
    """Resolve a backend name from the argument, the environment, or the default.

    Parameters
    ----------
    backend:
        ``"dense"``, ``"blockwise"``, ``"memmap"``, ``"neighbors"``, or
        ``None``.  ``None`` reads ``REPRO_DISTANCE_BACKEND`` and falls back
        to :data:`DEFAULT_DISTANCE_BACKEND` when it is unset or empty.

    Raises
    ------
    ValueError
        If the argument or the environment variable names an unknown backend.
    """
    origin = "distance_backend"
    if backend is None:
        backend = os.environ.get(DISTANCE_BACKEND_ENV_VAR, "").strip() or (
            DEFAULT_DISTANCE_BACKEND
        )
        origin = DISTANCE_BACKEND_ENV_VAR
    if backend not in DISTANCE_BACKENDS:
        raise ValueError(f"{origin} must be one of {DISTANCE_BACKENDS}, got {backend!r}")
    return backend


def spill_directory() -> Path:
    """Directory holding memmap spill files (created on first use).

    ``REPRO_DISTANCE_SPILL_DIR`` overrides the default
    ``<tempdir>/repro-distance-spill``.  The path is deterministic — not
    per-process — which is what lets executor worker processes map the
    parent's spill files and lets an interrupted run resume from its
    finished spills.
    """
    configured = os.environ.get(SPILL_DIR_ENV_VAR, "").strip()
    path = Path(configured) if configured else Path(tempfile.gettempdir()) / "repro-distance-spill"
    path.mkdir(parents=True, exist_ok=True)
    return path


def clear_spill_directory() -> int:
    """Remove every spill file (finished and stale temporaries); returns the count."""
    removed = 0
    root = spill_directory()
    for path in list(root.iterdir()):
        if path.suffix == SPILL_SUFFIX or SPILL_SUFFIX + ".tmp-" in path.name:
            path.unlink(missing_ok=True)
            removed += 1
    return removed


def _advise_dontneed(matrix: np.ndarray) -> None:
    """Drop the page residency of a memmap (no-op for anything else).

    ``MADV_DONTNEED`` on a file-backed shared mapping is lossless: clean
    pages are discarded and fault back in from the file on the next read.
    """
    raw = getattr(matrix, "_mmap", None)
    if raw is None or not hasattr(raw, "madvise"):  # pragma: no cover - platform
        return
    try:
        raw.madvise(mmap.MADV_DONTNEED)
    except (ValueError, OSError):  # pragma: no cover - mapping already closed
        pass


class DistanceBackend:
    """One storage tier for pairwise-distance matrices.

    Subclasses override the hooks; consumers only ever talk to this
    interface (usually through
    :func:`repro.utils.cache.cached_pairwise_distances`, which adds the
    per-process memo on top).
    """

    #: Backend name (one of :data:`DISTANCE_BACKENDS`).
    name: str = ""

    def pairwise(self, X: np.ndarray, metric: str = "euclidean") -> np.ndarray:
        """The canonical ``(n, n)`` distance matrix of ``X`` in this tier's storage."""
        raise NotImplementedError

    def release(self, matrix: np.ndarray) -> None:
        """Hint that ``matrix`` will not be read for a while (drops memmap pages)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class InMemoryBackend(DistanceBackend):
    """In-RAM matrices: the one class behind both ``dense`` and ``blockwise``.

    Each name gets its own instance, whose ``name`` is the one the user
    wrote; the distance memo keys on it, so each tier sees its own
    hit/miss pattern.
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def pairwise(self, X: np.ndarray, metric: str = "euclidean") -> np.ndarray:
        from repro.clustering.distances import pairwise_distances

        return pairwise_distances(X, metric=metric)


class MemmapBackend(DistanceBackend):
    """Out-of-core matrices in atomically-written, fingerprint-keyed spill files."""

    name = "memmap"

    #: Flush-and-drop the dirty pages of a spill being written every this
    #: many panels, bounding the write-phase resident set.
    flush_panels = 16

    # -- spill protocol -------------------------------------------------
    def spill_path(self, X: np.ndarray, metric: str) -> Path:
        """Deterministic spill file for ``(X, metric)`` pairwise distances."""
        from repro.utils.cache import array_fingerprint

        digest = hashlib.blake2b(
            f"pairwise:{array_fingerprint(X)}:{metric}".encode(), digest_size=16
        ).hexdigest()
        return spill_directory() / f"{digest}-{X.shape[0]}{SPILL_SUFFIX}"

    def _fill_spill(self, path: Path, X: np.ndarray, metric: str) -> None:
        """Write the matrix into ``path`` atomically (temp file + rename)."""
        from repro.clustering.distances import pairwise_distances

        n = X.shape[0]
        # The temp name is unique per fill, not just per process: with the
        # memo disabled (configure_distance_cache(0)) two thread-backend
        # tasks can fill the same spill concurrently, and each must rename
        # its own finished temp (last writer wins with identical bytes).
        tmp = path.with_name(path.name + f".tmp-{os.getpid()}-{next(_FILL_COUNTER)}")
        matrix = np.memmap(tmp, dtype=np.float64, mode="w+", shape=(n, n))
        panels_written = 0

        def bound_dirty_pages(start: int, stop: int) -> None:
            # Flush and drop dirty pages every few panels so the write
            # phase never holds the whole matrix resident.
            nonlocal panels_written
            panels_written += 1
            if panels_written % self.flush_panels == 0:
                matrix.flush()
                _advise_dontneed(matrix)

        try:
            pairwise_distances(X, metric=metric, out=matrix, panel_done=bound_dirty_pages)
            matrix.flush()
            _advise_dontneed(matrix)
        except BaseException:
            # Safe cleanup: never leave a half-written temp file behind.
            del matrix
            tmp.unlink(missing_ok=True)
            raise
        del matrix
        os.replace(tmp, path)

    def pairwise(self, X: np.ndarray, metric: str = "euclidean") -> np.ndarray:
        from scipy import sparse

        if not sparse.issparse(X):
            X = np.asarray(X)
        n = X.shape[0]
        path = self.spill_path(X, metric)
        expected_bytes = n * n * np.dtype(np.float64).itemsize
        if not (path.exists() and path.stat().st_size == expected_bytes):
            self._fill_spill(path, X, metric)
        return np.memmap(path, dtype=np.float64, mode="r", shape=(n, n))

    def release(self, matrix: np.ndarray) -> None:
        _advise_dontneed(matrix)


class NeighborsBackend(DistanceBackend):
    """The sparse epsilon-bounded k-NN tier (:mod:`repro.core.neighbor_graph`).

    This tier never materialises the full pairwise matrix — consumers that
    know about it (OPTICS, :class:`~repro.clustering.hierarchy.DensityHierarchy`)
    branch to the sparse graph pipeline instead of calling :meth:`pairwise`;
    consumers that genuinely need all ``n²`` entries (the silhouette,
    MPCK-Means, non-Euclidean metrics) get a clear error pointing at the
    exact tiers.
    """

    name = "neighbors"

    def pairwise(self, X: np.ndarray, metric: str = "euclidean") -> np.ndarray:
        raise ValueError(
            "distance_backend='neighbors' builds a sparse neighbour graph and "
            "cannot materialise the full (n, n) pairwise-distance matrix; use "
            f"an exact distance backend ({', '.join(EXACT_DISTANCE_BACKENDS)}) "
            "for consumers that need every pairwise entry"
        )


_BACKENDS: dict[str, DistanceBackend] = {
    "dense": InMemoryBackend("dense"),
    "blockwise": InMemoryBackend("blockwise"),
    "memmap": MemmapBackend(),
    "neighbors": NeighborsBackend(),
}


def get_distance_backend(backend: str | None = None) -> DistanceBackend:
    """The shared backend instance for a name (``None`` = environment/default)."""
    return _BACKENDS[resolve_distance_backend(backend)]
