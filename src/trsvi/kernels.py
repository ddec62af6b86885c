"""RBF kernel, blanket-restricted local kernels, and the median heuristic.

The RBF convention throughout is k(x, y) = exp(-||x - y||^2 / (2 l^2)); all
bundled default lengthscales are interpreted under it.  A local kernel k_a is
the same RBF restricted to the coordinates of blanket S_a, so it is invariant
to every coordinate outside the blanket.

A kernel matrix's exponent is one matrix product of centred, augmented rows,
clipped at 0 and exponentiated in place; `rbf_matrix` gives the form and its
error bound.  `squared_distances`, which the MMD sums use, keeps the
uncentred ||x||^2 + ||y||^2 - 2 x.y form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .model.layout import FactorLayout

MEDIAN_SUBSAMPLE = 10_000
# the median pair scan holds one block of rows against all later rows
_MEDIAN_BLOCK_ROWS = 256
# pairs drawn to bracket the median; at most four times as many pairs in
# all are scanned with the whole real line as their bracket
_MEDIAN_SAMPLE_PAIRS = 16_384
# sampled pairs differenced at a time, which bounds the (pairs, d) temporaries
_MEDIAN_SAMPLE_CHUNK = 2048
# bracket half-width, in standard deviations of the sample median's rank
_MEDIAN_BRACKET_SIGMAS = 5.0


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
    uniform subsample so the O(n^2) pair scan stays bounded.  The value is
    exactly ``np.median(pdist(samples))``, found without holding all pair
    distances at once: see `_median_pair_distance`.
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
    value = _median_pair_distance(samples, seed)
    if value == 0.0:
        raise DegenerateSampleError(
            "median pairwise distance is zero (coincident sample rows)"
        )
    return value


def _median_pair_distance(X: np.ndarray, seed: int) -> float:
    """``np.median(pdist(X))`` in O(n * _MEDIAN_BLOCK_ROWS) memory.

    A seeded sample of random pairs brackets the middle rank; one pass over
    row blocks counts the distances below the bracket and keeps those inside
    it; a partition of the kept values selects the middle one or two, which
    are averaged as np.median does.  Every distance comes from scipy's own
    pdist/cdist kernels, so the value is bitwise the one np.median(pdist(X))
    gives.  When the counts show that the bracket missed a middle rank, the
    missed side is widened and the pass repeated, so the sample sets only
    how much a pass keeps, never the value.  Few pairs get the whole real
    line as their bracket.
    """
    n = X.shape[0]
    pairs = n * (n - 1) // 2
    ranks = np.array([pairs // 2] if pairs % 2 else [pairs // 2 - 1, pairs // 2])
    sample = np.empty(0)
    if pairs > 4 * _MEDIAN_SAMPLE_PAIRS:
        sample = _sample_pair_distances(X, np.random.default_rng(seed))
    sigmas_lo = sigmas_hi = _MEDIAN_BRACKET_SIGMAS
    while True:
        lo, hi = _bracket(sample, sigmas_lo, sigmas_hi)
        below, kept = _count_and_keep(X, lo, hi)
        missed_lo = ranks[0] < below
        missed_hi = ranks[-1] >= below + kept.size
        if not (missed_lo or missed_hi):
            break
        if missed_lo:
            sigmas_lo *= 4.0
        if missed_hi:
            sigmas_hi *= 4.0
    kth = ranks - below
    kept.partition(kth)
    return float(np.mean(kept[kth]))


def _sample_pair_distances(X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sorted distances of _MEDIAN_SAMPLE_PAIRS uniform draws of i != j,
    differenced _MEDIAN_SAMPLE_CHUNK pairs at a time; each distance depends
    on its own pair only, so the chunking changes no bit."""
    n = X.shape[0]
    i = rng.integers(0, n, size=_MEDIAN_SAMPLE_PAIRS)
    j = rng.integers(0, n - 1, size=_MEDIAN_SAMPLE_PAIRS)
    j += j >= i
    sq = np.empty(_MEDIAN_SAMPLE_PAIRS)
    for start in range(0, _MEDIAN_SAMPLE_PAIRS, _MEDIAN_SAMPLE_CHUNK):
        pairs = slice(start, start + _MEDIAN_SAMPLE_CHUNK)
        diff = X[i[pairs]] - X[j[pairs]]
        np.einsum("ij,ij->i", diff, diff, out=sq[pairs])
    return np.sort(np.sqrt(sq))


def _bracket(sample: np.ndarray, sigmas_lo: float,
             sigmas_hi: float) -> tuple[float, float]:
    """Order statistics of the sorted pair sample that lie the given number
    of standard deviations of the sample median's rank (sqrt(s)/2 for s
    draws) below and above the middle; past either end, -inf or inf."""
    s = sample.size
    half = s / 2
    sd = np.sqrt(s) / 2
    i_lo = int(np.floor(half - sigmas_lo * sd))
    i_hi = int(np.ceil(half + sigmas_hi * sd))
    lo = float(sample[i_lo]) if 0 <= i_lo < s else -np.inf
    hi = float(sample[i_hi]) if i_hi < s else np.inf
    return lo, hi


def _count_and_keep(X: np.ndarray, lo: float, hi: float) -> tuple[int, np.ndarray]:
    """Number of pair distances below lo, and those in [lo, hi], from one
    pass over row blocks: pdist within a block, cdist against later rows."""
    n = X.shape[0]
    below = 0
    kept = []
    for start in range(0, n, _MEDIAN_BLOCK_ROWS):
        stop = min(start + _MEDIAN_BLOCK_ROWS, n)
        blocks = [pdist(X[start:stop])]
        if stop < n:
            blocks.append(cdist(X[start:stop], X[stop:]).ravel())
        for dists in blocks:
            if lo > -np.inf or hi < np.inf:
                inside = dists >= lo
                below += dists.size - int(np.count_nonzero(inside))
                inside &= dists <= hi
                dists = dists[inside]
            kept.append(dists)
    return below, np.concatenate(kept)


def rbf_matrix(
    X: np.ndarray,
    Y: np.ndarray,
    lengthscale: float,
    dims: np.ndarray | None = None,
) -> np.ndarray:
    """Kernel matrix K[i, j] = k(X[i], Y[j]), optionally over a coordinate subset.

    Both sets are shifted by the column means of X over `dims` (so no other
    coordinate can change a bit of the result), and the exponent is one
    product, E = [x, |x|^2, 1] . [y / l^2, -1 / (2 l^2), -|y|^2 / (2 l^2)]
    = -|x - y|^2 / (2 l^2); E is clipped at 0 and exponentiated in place,
    three passes over the output in all.  With x and y the shifted rows and
    d coordinates, each entry is within (d + 5) eps (1 + (|x|^2 + |y|^2) / l^2)
    of the exact kernel value: the exponent is a sum of d + 2 rounded
    products, and exp(E) <= 1 passes its error on at most unchanged.  The
    shift makes the bound independent of any offset the two sets share.
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
    E = left @ right.T
    np.minimum(E, 0.0, out=E)
    return np.exp(E, out=E)


def squared_distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, clipped to be nonnegative:
    ||x||^2 + ||y||^2 - 2 x.y, formed in one output buffer besides the
    product's."""
    xx = np.einsum("ij,ij->i", X, X)
    yy = np.einsum("ij,ij->i", Y, Y)
    G = X @ Y.T
    sq = np.add(xx[:, None], yy[None, :], out=np.empty_like(G))
    G *= 2.0
    sq -= G
    np.maximum(sq, 0.0, out=sq)
    return sq
