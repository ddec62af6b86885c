"""RBF kernel, blanket-restricted local kernels, and the median heuristic.

The RBF convention throughout is k(x, y) = exp(-||x - y||^2 / (2 l^2)); all
bundled default lengthscales are interpreted under it.  A local kernel k_a is
the same RBF restricted to the coordinates of blanket S_a, so it is invariant
to every coordinate outside the blanket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .model.layout import FactorLayout

MEDIAN_SUBSAMPLE = 10_000


class DegenerateSampleError(ValueError):
    """All rows of a sample coincide; no lengthscale can be derived."""


@dataclass(frozen=True)
class KernelSpec:
    """RBF kernel with a single shared lengthscale (state-space units)."""

    lengthscale: float

    def __post_init__(self):
        if not (np.isfinite(self.lengthscale) and self.lengthscale > 0):
            raise ValueError("lengthscale must be positive and finite")


@dataclass(frozen=True)
class LocalKernelFamily:
    """Per-factor RBF kernels restricted to blanket coordinates."""

    kernel: KernelSpec
    layout: FactorLayout


def median_heuristic(samples: np.ndarray, seed: int = 0) -> float:
    """Median pairwise Euclidean distance over all distinct unordered pairs.

    Samples beyond MEDIAN_SUBSAMPLE rows are first reduced to a seeded
    uniform subsample so the O(n^2) pair scan stays bounded.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.shape[0] < 2:
        raise ValueError("median heuristic needs at least two rows")
    if samples.shape[0] > MEDIAN_SUBSAMPLE:
        rng = np.random.default_rng(seed)
        idx = rng.choice(samples.shape[0], size=MEDIAN_SUBSAMPLE, replace=False)
        samples = samples[np.sort(idx)]
    dists = pdist(samples)
    value = float(np.median(dists))
    if value == 0.0:
        raise DegenerateSampleError(
            "median pairwise distance is zero (coincident sample rows)"
        )
    return value


def rbf_matrix(
    X: np.ndarray,
    Y: np.ndarray,
    lengthscale: float,
    dims: np.ndarray | None = None,
) -> np.ndarray:
    """Kernel matrix K[i, j] = k(X[i], Y[j]), optionally over a coordinate subset."""
    if dims is not None:
        X = X[:, dims]
        Y = Y[:, dims]
    sq = squared_distances(X, Y)
    return np.exp(-0.5 * sq / lengthscale**2)


def squared_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped to be nonnegative."""
    xx = np.einsum("ij,ij->i", X, X)
    yy = np.einsum("ij,ij->i", Y, Y)
    sq = xx[:, None] + yy[None, :] - 2.0 * (X @ Y.T)
    np.maximum(sq, 0.0, out=sq)
    return sq
