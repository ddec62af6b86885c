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
# the exact pair pass holds one block of rows against all later rows
_MEDIAN_BLOCK_ROWS = 256
# pairs drawn to bracket the median; at most four times as many pairs in
# all are scanned with the whole real line as their bracket
_MEDIAN_SAMPLE_PAIRS = 16_384
# sampled pairs differenced at a time, which bounds the (pairs, d) temporaries
_MEDIAN_SAMPLE_CHUNK = 2048
# bracket half-width, in standard deviations of the sample median's rank
_MEDIAN_BRACKET_SIGMAS = 3.0
# the tile scan's approximate squared distances come a tile at a time, and
# only rows with centred squared norms inside this range take it
_TILE_ROWS = 64
_TILE_COLS = 1024
_TILE_NORM_RANGE = (2.0**-900, 2.0**900)


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
    """``np.median(pdist(X))`` without holding all pair distances.

    Up to 362 rows (65,341 pairs) one exact pass (`_exact_select`) keeps
    every distance and a partition picks the middle one or two.  Beyond
    that a seeded sample of 16,384 random pairs brackets the middle rank at
    3 standard deviations of the sample median's rank, and a tile scan
    (`_TileScan`) finds the exact middle values: approximate squared
    distances from one product per tile narrow the bracket to a window
    that scipy's `cdist` recomputes.  The middle values are averaged as
    np.median does, so the value is bitwise ``np.median(pdist(X))``.  When
    the counts show that the bracket missed a middle rank, or that the
    window reaches past it, the missed side is widened fourfold and the
    pass repeated, so the sample sets only how much a pass keeps, never the
    value.  Rows whose centred squared norms leave [2^-900, 2^900], where
    the product could overflow or underflow, take the exact pass over
    256-row blocks with the sampled bracket, and so does a bracket that
    delta would more than double.
    """
    n = X.shape[0]
    pairs = n * (n - 1) // 2
    ranks = np.array([pairs // 2] if pairs % 2 else [pairs // 2 - 1, pairs // 2])
    sample = np.empty(0)
    scan = None
    if pairs > 4 * _MEDIAN_SAMPLE_PAIRS:
        sample = _sample_pair_distances(X, np.random.default_rng(seed))
        scan = _TileScan.of(X)
    sigmas_lo = sigmas_hi = _MEDIAN_BRACKET_SIGMAS
    while True:
        lo, hi = _bracket(sample, sigmas_lo, sigmas_hi)
        if scan is None:
            value, missed_lo, missed_hi = _exact_select(X, ranks, lo, hi)
        else:
            value, missed_lo, missed_hi = scan.select(ranks, lo, hi, sample)
        if value is not None:
            return value
        if missed_lo:
            sigmas_lo *= 4.0
        if missed_hi:
            sigmas_hi *= 4.0


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


def _exact_select(X: np.ndarray, ranks: np.ndarray, lo: float,
                  hi: float) -> tuple[float | None, bool, bool]:
    """The mean of the distances at `ranks` from one exact pass with the
    bracket [lo, hi], or None and which side of the bracket missed."""
    below, kept = _count_and_keep(X, lo, hi)
    missed_lo = ranks[0] < below
    missed_hi = ranks[-1] >= below + kept.size
    if missed_lo or missed_hi:
        return None, missed_lo, missed_hi
    kth = ranks - below
    kept.partition(kth)
    return float(np.mean(kept[kth])), False, False


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


def _squared_distance_error(d: int, top: float) -> float:
    """delta = 16 (2d + 8) eps top, a bound on |q - s^2| for every pair:
    q the tile product's squared distance of the centred rows, s scipy's
    distance of the original rows, d columns, top the largest centred
    squared norm.  Rounding contributes at most (3d + 4) eps top in the
    product (d + 2 terms of total size at most 4 top, two of them computed
    norms), 4 eps top from centring (each centred coordinate is off by at
    most eps/2 of itself) and 2 (d + 4) eps top in scipy's differences,
    sum, square root and its square: in all (5d + 16) eps top, which delta
    exceeds more than six times."""
    return 16.0 * (2 * d + 8) * np.finfo(float).eps * top


class _TileScan:
    """The exact middle pair distances through tiles of approximate ones.

    Scan: the rows are centred, and each 64 x 1024 tile of the upper
    triangle of pairs is one product [x, 1, |x|^2] . [-2 y, |y|^2, 1]^T of
    augmented centred rows, within delta (`_squared_distance_error`) of
    the square of scipy's distance.  Each tile's entries below the
    bracket's squared edges, widened by 3 delta, are counted, and those
    inside are copied into one buffer sized from the sample's share of the
    bracket, with each tile's end offset instead of a tile id per value.

    Window: a partition of a copy of the buffer gives the approximate
    middle values a.  An order statistic moves by at most delta when every
    value does, so each exact middle value s has |s^2 - a| <= delta and
    every pair that can hold it has its product within 2 delta of a.  The
    tiles holding products in that window are recomputed with `cdist`;
    the pairs of all other tiles are below or above the window, counted
    from the buffer and the per-tile counts, so a partition of the
    recomputed distances near the window picks the exact middle values.
    However many tiles hold window pairs (heavy tails make delta large
    against the middle), each is recomputed once, at most the work of one
    exact pass.  When delta rivals the bracket itself (rows far out of the
    rest), the scan would keep nearly every pair, and the exact pass runs
    with the bracket instead.

    Memory: one tile (0.5 MB), the kept products (about 2.3% of the pairs)
    and one copy of them for the partition: 8.4 MB of tracemalloc peak at
    6000 rows of 10 columns, where the full `pdist` vector alone is
    144 MB.
    """

    def __init__(self, X: np.ndarray, left: np.ndarray, right: np.ndarray,
                 delta: float):
        self.X, self.left, self.right, self.delta = X, left, right, delta
        n = X.shape[0]
        self.tiles = [
            (slice(r, min(r + _TILE_ROWS, n)), slice(c, min(c + _TILE_COLS, n)))
            for r in range(0, n, _TILE_ROWS)
            for c in range(r, n, _TILE_COLS)
        ]
        self._lower = np.tri(_TILE_ROWS, dtype=bool)

    @classmethod
    def of(cls, X: np.ndarray) -> "_TileScan | None":
        """The scan of X's centred rows, or None when their squared norms
        leave the range where delta bounds the product's error."""
        Xc = X - X.mean(axis=0)
        norms = np.einsum("ij,ij->i", Xc, Xc)
        top = norms.max()
        if not _TILE_NORM_RANGE[0] < top < _TILE_NORM_RANGE[1]:
            return None
        n, d = Xc.shape
        left = np.empty((n, d + 2))
        left[:, :d] = Xc
        left[:, d] = 1.0
        left[:, d + 1] = norms
        right = np.empty((d + 2, n))
        np.multiply(Xc.T, -2.0, out=right[:d])
        right[d] = norms
        right[d + 1] = 1.0
        return cls(X, left, right, _squared_distance_error(d, top))

    def _exact_near(self, t: int, w_lo: float,
                    w_hi: float) -> tuple[int, np.ndarray]:
        """Tile t's exact distances: how many have squares below w_lo, and
        those whose squares lie in [w_lo, w_hi]."""
        rows, cols = self.tiles[t]
        s = self._drop_lower(cdist(self.X[rows], self.X[cols]), rows, cols)
        sq = s * s
        inside = sq >= w_lo
        inside &= sq <= w_hi
        return int(np.count_nonzero(sq < w_lo)), s[inside]

    def _drop_lower(self, Q: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
        """NaN on a diagonal tile's pairs j <= i, which no comparison counts."""
        if rows.start == cols.start:
            r = rows.stop - rows.start
            Q[:, :r][self._lower[:r, :r]] = np.nan
        return Q

    def _scan(self, lo2: float, hi2: float,
              capacity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per tile, the count of products below lo2; the products in
        [lo2, hi2] in tile order; and each tile's end offset among them."""
        below = np.empty(len(self.tiles), dtype=np.int64)
        ends = np.empty(len(self.tiles), dtype=np.int64)
        kept = np.empty(capacity)
        size = 0
        buf = np.empty(_TILE_ROWS * _TILE_COLS)
        for t, (rows, cols) in enumerate(self.tiles):
            r, c = rows.stop - rows.start, cols.stop - cols.start
            Q = buf[: r * c].reshape(r, c)
            np.matmul(self.left[rows], self.right[:, cols], out=Q)
            self._drop_lower(Q, rows, cols)
            under = Q < lo2
            below[t] = np.count_nonzero(under)
            inside = Q <= hi2
            np.greater(inside, under, out=inside)
            count = int(np.count_nonzero(inside))
            if size + count > kept.size:
                grown = np.empty(max(size + count, kept.size + kept.size // 4))
                grown[:size] = kept[:size]
                kept = grown
            np.compress(inside.ravel(), Q.ravel(), out=kept[size:size + count])
            size += count
            ends[t] = size
        return below, kept[:size], ends

    def select(self, ranks: np.ndarray, lo: float, hi: float,
               sample: np.ndarray) -> tuple[float | None, bool, bool]:
        """The mean of the exact distances at `ranks`, or None and which
        side of the bracket [lo, hi] missed the middle or its window."""
        delta = self.delta
        # squared edges keep their sign, so an edge at -inf stays -inf
        lo2 = lo * abs(lo) - 3.0 * delta
        hi2 = hi * abs(hi) + 3.0 * delta

        def sampled(a, b):
            """How many sampled pair distances lie in [a, b]."""
            return (np.searchsorted(sample, b, "right")
                    - np.searchsorted(sample, a, "left"))

        wide = sampled(*np.sqrt(np.maximum((lo2, hi2), 0.0)))
        # a few sampled pairs of slack, so that a bracket holding almost no
        # sampled pair keeps the scan
        if wide > 2 * sampled(lo, hi) + 16:
            # delta rivals the bracket (rows far out of the rest): the scan
            # would keep most pairs, the exact pass keeps fewer
            return _exact_select(self.X, ranks, lo, hi)
        pairs = self.X.shape[0] * (self.X.shape[0] - 1) // 2
        # 20% over the sampled share, about four of its standard deviations
        capacity = min(int(1.2 * wide / sample.size * pairs) + _TILE_COLS, pairs)
        below, kept, ends = self._scan(lo2, hi2, capacity)
        total_below = int(below.sum())
        k = ranks - total_below
        if k[0] < 0 or k[-1] >= kept.size:
            return None, bool(k[0] < 0), bool(k[-1] >= kept.size)
        approx = np.partition(kept, k)[k]
        # every pair whose exact distance can be a middle value
        w_lo = approx[0] - 2.0 * delta
        w_hi = approx[-1] + 2.0 * delta
        if w_lo < lo2 or w_hi > hi2:
            return None, bool(w_lo < lo2), bool(w_hi > hi2)
        low = kept < w_lo
        window = ~low
        window &= kept <= w_hi
        hit = np.unique(np.searchsorted(ends, np.flatnonzero(window), "right"))
        starts = np.concatenate(([0], ends[:-1]))
        # pairs below the window outside the tiles that are recomputed
        n_below = total_below + int(np.count_nonzero(low)) - sum(
            int(below[t]) + int(np.count_nonzero(low[starts[t]:ends[t]]))
            for t in hit)
        del low, window   # before the recomputed tiles' temporaries
        middle = []
        for t in hit:
            n_low, values = self._exact_near(t, w_lo, w_hi)
            n_below += n_low
            middle.append(values)
        middle = np.concatenate(middle)
        kth = ranks - n_below
        middle.partition(kth)
        return float(np.mean(middle[kth])), False, False


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
