"""Principal component analysis of the profile feature matrix.

Columns are centered and, by default, z-scored before the decomposition
because the matrix mixes Nm/kg, rad, and rad/s units. The component
basis is computed from the covariance matrix when the feature count is
at most the row count, and from the Gram matrix otherwise (the two
share their nonzero spectrum). Component signs are fixed so that each
component's largest-magnitude entry is positive, which makes the fit
deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class PcaModel:
    """Standardization parameters plus an orthonormal component basis."""

    mean: np.ndarray
    scale: np.ndarray
    components: np.ndarray  # p x d, rows are principal axes
    explained_variance_ratio: np.ndarray

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    @property
    def d(self) -> int:
        return self.components.shape[1]

    def to_json(self, path: str | Path) -> None:
        payload = {
            "mean": self.mean.tolist(),
            "scale": self.scale.tolist(),
            "components": self.components.tolist(),
            "explained_variance_ratio": self.explained_variance_ratio.tolist(),
        }
        Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n",
                              encoding="utf-8")

    @classmethod
    def from_json(cls, path: str | Path) -> "PcaModel":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(
            mean=np.array(raw["mean"], dtype=float),
            scale=np.array(raw["scale"], dtype=float),
            components=np.array(raw["components"], dtype=float),
            explained_variance_ratio=np.array(
                raw["explained_variance_ratio"], dtype=float
            ),
        )


def _as_array(matrix: np.ndarray) -> np.ndarray:
    rows = np.asarray(matrix, dtype=float)
    if rows.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return rows


def _fix_signs(components: np.ndarray) -> np.ndarray:
    # Flip each axis so its largest-magnitude entry is positive; argmax
    # breaks magnitude ties at the first index, keeping the fit
    # deterministic.
    out = components.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


def pca_fit(matrix: np.ndarray, standardize: bool = True) -> PcaModel:
    """Fit a PCA model on the column-centered (optionally z-scored) matrix.

    Zero-variance columns get scale 1.0 instead of dividing by zero.
    At most min(n - 1, d) components are kept; in the Gram-matrix route
    directions with numerically zero variance are dropped because they
    cannot be normalized.
    """
    rows = _as_array(matrix)
    n, d = rows.shape
    if n < 2:
        raise ValueError(f"need at least 2 rows to fit a PCA model, got {n}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("matrix contains non-finite entries")

    mean = rows.mean(axis=0)
    if standardize:
        scale = rows.std(axis=0)
        scale[scale == 0.0] = 1.0
    else:
        scale = np.ones(d)
    x = (rows - mean) / scale

    p_max = min(n - 1, d)
    if d <= n:
        cov = (x.T @ x) / (n - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        eigvals = np.clip(eigvals[order], 0.0, None)
        components = eigvecs[:, order].T[:p_max]
        kept = eigvals[:p_max]
        total = float(eigvals.sum())
    else:
        gram = (x @ x.T) / (n - 1)
        eigvals, eigvecs = np.linalg.eigh(gram)
        order = np.argsort(eigvals)[::-1]
        eigvals = np.clip(eigvals[order], 0.0, None)
        total = float(eigvals.sum())
        cutoff = eigvals[0] * 1e-12 if eigvals[0] > 0 else 0.0
        keep_idx = [i for i in range(p_max) if eigvals[i] > cutoff]
        u = eigvecs[:, order][:, keep_idx]
        kept = eigvals[keep_idx]
        # If G u = lambda u then X^T u / sqrt(lambda (n-1)) is a unit
        # eigenvector of the covariance matrix.
        components = (x.T @ u / np.sqrt(kept * (n - 1))).T

    ratios = kept / total if total > 0 else np.zeros_like(kept)
    return PcaModel(
        mean=mean,
        scale=scale,
        components=_fix_signs(components),
        explained_variance_ratio=ratios,
    )


def select_components(model: PcaModel, threshold: float) -> tuple[int, float]:
    """Smallest component count whose cumulative variance ratio meets ``threshold``.

    Returns the count and the cumulative value reached. If the full
    basis never reaches the threshold, all components are returned.
    """
    if not (0.0 < threshold <= 1.0):
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    cumulative = np.cumsum(model.explained_variance_ratio)
    hits = np.nonzero(cumulative >= threshold)[0]
    p_star = int(hits[0]) + 1 if hits.size else model.n_components
    return p_star, float(cumulative[p_star - 1])


def pca_transform(
    model: PcaModel,
    matrix: np.ndarray,
    p: int | None = None,
) -> np.ndarray:
    """Project rows onto the first ``p`` component axes."""
    rows = _as_array(matrix)
    if rows.shape[1] != model.d:
        raise ValueError(
            f"matrix has {rows.shape[1]} columns but the model expects {model.d}"
        )
    if p is None:
        p = model.n_components
    if not (1 <= p <= model.n_components):
        raise ValueError(
            f"p={p} out of range, model has {model.n_components} components"
        )
    x = (rows - model.mean) / model.scale
    return x @ model.components[:p].T
