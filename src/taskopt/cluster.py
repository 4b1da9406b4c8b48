"""K-means clustering in PCA score space with silhouette-based model selection.

Lloyd iterations with k-means++ seeding; the best of several restarts
(by inertia, restart index breaking ties) is kept, so results are
deterministic for a given seed regardless of how restarts are executed.
Empty clusters are repaired by reseeding them with the point currently
farthest from its assigned centroid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


@dataclass
class ClusterModel:
    """A fitted k-means partition; ``select_k`` sets ``silhouette``, ``kmeans`` leaves it None."""

    k: int
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    silhouette: float | None
    inertia_history: list[float] = field(default_factory=list)


def _sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, clamped at zero, in one buffer."""
    d2 = (2.0 * points) @ centers.T
    np.subtract(np.sum(points**2, axis=1)[:, None], d2, out=d2)
    d2 += np.sum(centers**2, axis=1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _distances(points: np.ndarray) -> np.ndarray:
    """The n x n Euclidean distance matrix, with an exact zero diagonal."""
    dists = _sq_distances(points, points)
    np.sqrt(dists, out=dists)
    np.fill_diagonal(dists, 0.0)  # the Gram form leaves ~1e-6 there
    return dists


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    closest = _sq_distances(points, centers[:1]).ravel()
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))  # all remaining points coincide
        else:
            idx = int(rng.choice(n, p=closest / total))
        centers[i] = points[idx]
        closest = np.minimum(closest, _sq_distances(points, centers[i : i + 1]).ravel())
    return centers


_MAX_ITER = 300  # Lloyd iterations per restart


def _lloyd(
    points: np.ndarray,
    centers: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    k = centers.shape[0]
    prev: np.ndarray | None = None
    history: list[float] = []
    assign = np.zeros(points.shape[0], dtype=int)
    d2 = _sq_distances(points, centers)
    for _ in range(_MAX_ITER):
        assign = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(points.shape[0]), assign]
        # Repair empty clusters with the points farthest from their
        # centroids; never steal the last member of a donor cluster.
        counts = np.bincount(assign, minlength=k)
        missing = [c for c in range(k) if counts[c] == 0]
        if missing:
            point_d2 = point_d2.copy()
            order = np.argsort(point_d2, kind="stable")[::-1]
            pos = 0
            for c in missing:
                while counts[assign[order[pos]]] <= 1:
                    pos += 1
                idx = int(order[pos])
                pos += 1
                counts[assign[idx]] -= 1
                assign[idx] = c
                counts[c] += 1
                point_d2[idx] = 0.0
        inertia_before_update = float(point_d2.sum())
        if history and inertia_before_update > history[-1] * (1 + 1e-9) + 1e-12:
            raise RuntimeError(
                "k-means inertia increased between iterations; "
                f"{history[-1]} -> {inertia_before_update}"
            )
        for c in range(k):
            centers[c] = points[assign == c].mean(axis=0)
        d2 = _sq_distances(points, centers)  # also the next iteration's distances
        inertia = float(d2[np.arange(points.shape[0]), assign].sum())
        history.append(inertia)
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign.copy()
    return assign, centers, history[-1], history


def kmeans(
    scores: np.ndarray,
    k: int,
    seed: int = 0,
    restarts: int = 10,
) -> ClusterModel:
    """Best-of-``restarts`` k-means with k-means++ seeding.

    Deterministic given ``seed``: restart r draws from an independent
    stream keyed by (seed, r), and inertia ties between restarts go to
    the lower restart index.
    """
    points = np.asarray(scores, dtype=float)
    if points.ndim != 2:
        raise ValueError("scores must be a 2-D array")
    if not np.all(np.isfinite(points)):
        raise ValueError("scores contain non-finite entries")
    n = points.shape[0]
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points ({n})")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")

    best: tuple[float, int] | None = None
    best_state = None
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        centers = _kmeans_pp_init(points, k, rng)
        assign, centers, inertia, history = _lloyd(points, centers.copy())
        key = (inertia, r)
        if best is None or key < best:
            best = key
            best_state = (assign, centers, inertia, history)

    assign, centers, inertia, history = best_state
    return ClusterModel(
        k=k,
        centroids=centers,
        assignments=assign,
        inertia=inertia,
        silhouette=None,
        inertia_history=history,
    )


def silhouette_score(scores: np.ndarray, assignments: Sequence[int] | np.ndarray) -> float:
    """Mean silhouette coefficient (b - a) / max(a, b) over all points.

    ``a`` is the mean distance to the point's own cluster (excluding
    itself), ``b`` the smallest mean distance to another cluster.
    Singleton points contribute 0, as do points with a == b == 0.
    """
    points = np.asarray(scores, dtype=float)
    labels = np.asarray(assignments, dtype=int)
    n = points.shape[0]
    if n < 3:
        raise ValueError(f"silhouette needs at least 3 points, got {n}")
    if labels.shape[0] != n:
        raise ValueError("assignments length does not match scores")
    if np.unique(labels).size < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    return _silhouette(_distances(points), labels)


def _silhouette(dists: np.ndarray, labels: np.ndarray) -> float:
    """``silhouette_score`` from a precomputed distance matrix."""
    _, codes = np.unique(labels, return_inverse=True)
    rows = np.arange(codes.size)
    sizes = np.bincount(codes)
    sums = dists @ np.eye(sizes.size)[codes]  # [i, c]: summed distance from i to c
    own = sizes[codes]
    a = sums[rows, codes] / np.maximum(own - 1, 1)
    means = sums / sizes
    means[rows, codes] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    # Singletons, and points with a == b == 0, contribute 0.
    values = np.divide(b - a, denom, out=np.zeros(codes.size),
                       where=(own > 1) & (denom > 0.0))
    return float(values.mean())


@dataclass
class KScanResult:
    """Silhouette scan over candidate cluster counts."""

    best_k: int
    model: ClusterModel
    table: list[tuple[int, float]]  # (k, silhouette)


def select_k(
    scores: np.ndarray,
    k_values: Iterable[int],
    seed: int = 0,
    restarts: int = 10,
) -> KScanResult:
    """Fit k-means for each candidate K and keep the silhouette argmax.

    Every K is scored on one distance matrix, built after the fits (so
    ``kmeans`` has checked the points). Ties break toward the smaller K.
    """
    points = np.asarray(scores, dtype=float)
    ks = sorted(set(int(k) for k in k_values))
    if not ks:
        raise ValueError("empty K range")
    n = points.shape[0]
    for k in ks:
        if not (2 <= k <= n - 1):
            raise ValueError(f"k={k} outside the valid range [2, {n - 1}]")

    models = [kmeans(points, k, seed=seed, restarts=restarts) for k in ks]
    dists = _distances(points)
    for model in models:
        model.silhouette = _silhouette(dists, model.assignments)
    best = max(models, key=lambda m: m.silhouette)  # first maximum: smaller K wins ties
    return KScanResult(best_k=best.k, model=best,
                       table=[(m.k, m.silhouette) for m in models])


def adjusted_rand_index(labels_a: Sequence[int], labels_b: Sequence[int]) -> float:
    """Chance-corrected agreement between two partitions (label-free)."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise ValueError("label vectors differ in length")
    n = a.shape[0]
    _, a_idx = np.unique(a, return_inverse=True)
    _, b_idx = np.unique(b, return_inverse=True)
    contingency = np.zeros((a_idx.max() + 1, b_idx.max() + 1), dtype=np.int64)
    np.add.at(contingency, (a_idx, b_idx), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(contingency).sum()
    sum_a = comb2(contingency.sum(axis=1)).sum()
    sum_b = comb2(contingency.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(n)
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0  # both partitions trivial (all-singletons or single cluster)
    return float((sum_ij - expected) / (max_index - expected))
