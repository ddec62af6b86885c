"""RBF kernel and the median heuristic.

The RBF convention throughout is k(x, y) = exp(-||x - y||^2 / (2 l^2)); all
bundled default lengthscales are interpreted under it.  A local kernel k_a is
the same RBF restricted to the coordinates of blanket S_a of the target's
layout, so it is invariant to every coordinate outside the blanket.

Every kernel matrix in the package, the Stein contexts' and the MMD sums'
alike, comes from `rbf_matrix`: one matrix product of centred, augmented
rows, clipped at 0 and exponentiated in place, with a stated error bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

# ground truths above this many rows give the median of a seeded subsample
MEDIAN_SUBSAMPLE = 1000


class DegenerateSampleError(ValueError):
    """All rows of a sample coincide; no lengthscale can be derived."""


@dataclass(frozen=True)
class KernelSpec:
    """RBF kernel with a single shared lengthscale (state-space units)."""

    lengthscale: float

    def __post_init__(self):
        if not (np.isfinite(self.lengthscale) and self.lengthscale > 0):
            raise ValueError("lengthscale must be positive and finite")


def median_heuristic(samples: np.ndarray, seed: int = 0) -> float:
    """Median pairwise Euclidean distance over all distinct unordered pairs.

    Samples beyond MEDIAN_SUBSAMPLE rows are first reduced to a seeded
    uniform subsample, whose error in the median is already that of a
    statistic.  The value is exactly ``np.median(pdist(samples))``: one
    `pdist` of the (sub)sample, at most 4 MB, is partitioned in place once,
    at the upper middle rank.  For an even pair count the lower middle
    value is the largest distance below that rank, and the two are
    averaged with np.mean as np.median does; a one-rank partition costs a
    third or less of a two-rank one.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.shape[0] < 2:
        raise ValueError("median heuristic needs at least two rows")
    if not np.isfinite(samples).all():
        bad = np.flatnonzero(~np.isfinite(samples).all(axis=1))
        raise ValueError(
            f"median heuristic needs finite samples: {bad.size} row(s) hold "
            f"NaN or inf, the first is row {bad[0]}"
        )
    if samples.shape[0] > MEDIAN_SUBSAMPLE:
        rng = np.random.default_rng(seed)
        idx = rng.choice(samples.shape[0], size=MEDIAN_SUBSAMPLE, replace=False)
        samples = samples[np.sort(idx)]
    dists = pdist(samples)
    half = dists.size // 2
    dists.partition(half)
    value = dists[half]
    if dists.size % 2 == 0:
        value = np.mean([dists[:half].max(), value])
    value = float(value)
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
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Kernel matrix K[i, j] = k(X[i], Y[j]), optionally over a coordinate subset,
    written into `out` when given (a C-contiguous (len(X), len(Y)) array).

    Both sets are shifted by the column means of X over `dims` (so no other
    coordinate can change a bit of the result), and the exponent is one
    product, E = [x, |x|^2, 1] . [y / l^2, -1 / (2 l^2), -|y|^2 / (2 l^2)]
    = -|x - y|^2 / (2 l^2); E is clipped at 0 and exponentiated in place,
    three passes over the output in all.  With x and y the shifted rows and
    d coordinates, each entry is within (d + 5) eps (1 + (|x|^2 + |y|^2) / l^2)
    of the exact kernel value: the exponent is a sum of d + 2 rounded
    products, and exp(E) <= 1 passes its error on at most unchanged.  The
    shift makes the bound independent of any offset the two sets share.

    For two sets whose shifted norms allow an exponent below -745, where exp
    rounds to 0 on a slow path, exponents below -746 are set to -inf first;
    exp gives 0.0 for both, so no bit changes.
    """
    same = Y is X
    if dims is not None:
        X = X[:, dims]
    shift = X.mean(axis=0)
    X = X - shift
    xx = np.einsum("ij,ij->i", X, X)
    if same:
        Y, yy = X, xx
    else:
        Y = (Y if dims is None else Y[:, dims]) - shift
        yy = np.einsum("ij,ij->i", Y, Y)
    d = X.shape[1]
    inv_ls2 = 1.0 / lengthscale**2
    left = np.empty((X.shape[0], d + 2))
    left[:, :d] = X
    left[:, d] = xx
    left[:, d + 1] = 1.0
    right = np.empty((Y.shape[0], d + 2))
    np.multiply(Y, inv_ls2, out=right[:, :d])
    right[:, d] = -0.5 * inv_ls2
    np.multiply(yy, -0.5 * inv_ls2, out=right[:, d + 1])
    E = np.matmul(left, right.T, out=out)
    np.minimum(E, 0.0, out=E)
    if not same and (np.sqrt(xx.max(initial=0.0)) + np.sqrt(
            yy.max(initial=0.0)))**2 * (0.5 * inv_ls2) > 745.0:
        E[E < -746.0] = -np.inf
    return np.exp(E, out=E)
