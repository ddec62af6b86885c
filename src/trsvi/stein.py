"""Stein functional gradients and second-variation Hessians over a particle set.

The graphical variants use one local kernel per factor, over that factor's
blanket in the target's layout, so each factor's gradient block and each
Hessian block depends only on blanket coordinates; the global variants use
a single kernel over full state vectors.  Every expectation over the
particle distribution is the empirical mean over all particles, including
the particle being updated, summed in ascending particle order so results
do not depend on how work is scheduled.

Factors whose blankets hold the same dimensions share one kernel: a local
context holds one per distinct blanket, U n^2 8 bytes for the layout's U
distinct blankets, and `FactorLayout.kernel_index` maps each factor to its
own.  The kernels are built a chunk of consecutive blankets at a time, by
one batched product of the blankets zero-padded to the chunk's widest,
bitwise each blanket's own `rbf_matrix`.  The field takes one product
K^T @ [scores | x | 1] per chunk of a group of `FactorLayout.factor_groups`,
whose kernels are consecutive, with the columns of every factor that shares
a kernel side by side; and one for the global kernel.  The Hessian reads
each pair's kernels through the map.  A chunk holds as many kernels as have
n x n matrices within _CHUNK_BYTES, which bounds the temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy import sparse

from .kernels import KernelSpec, rbf_matrix
from .model.layout import FactorLayout, HessianPattern, PairGroup, TargetModel

# kernels built, field products taken and Hessian pairs assembled for as
# many consecutive or equal-size factors, or pairs, at a time as keep their
# temporaries within this many bytes
_CHUNK_BYTES = 2 * 2**20
# the smallest normal float; global kernel weights below it are dropped
_TINY = np.finfo(float).tiny


@dataclass
class ParticleSet:
    """Evolving sample: n points in R^total_dim."""

    positions: np.ndarray
    iteration: int = 0
    seed: int | None = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[0] < 1:
            raise ValueError("positions must be a nonempty (n, total_dim) matrix")
        if not np.isfinite(self.positions).all():
            raise ValueError("particle positions must be finite")

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def advanced(self, positions: np.ndarray, steps: int = 1) -> "ParticleSet":
        """New set with updated positions and an advanced iteration counter."""
        return ParticleSet(positions, iteration=self.iteration + steps, seed=self.seed)


@dataclass
class SteinGradientField:
    """Per-particle functional-gradient vectors, stacked as an (n, dim) matrix."""

    layout: FactorLayout
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != self.layout.total_dim:
            raise ValueError("field values must be (n, total_dim)")
        if not np.isfinite(self.values).all():
            raise ValueError("gradient field must be finite")


@dataclass
class AssemblyContext:
    """Kernel matrices shared by gradient and Hessian assembly at one particle
    configuration: one per distinct blanket (a (U, n, n) array, factor a's
    at `layout.kernel_index[a]`), or the global kernel alone (a one-tuple)."""

    X: np.ndarray
    layout: FactorLayout
    lengthscale: float
    kmats: np.ndarray | tuple[np.ndarray]
    is_global: bool = False


def local_context(X: np.ndarray, layout: FactorLayout,
                  kernel: KernelSpec) -> AssemblyContext:
    """Every distinct blanket's kernel, bitwise its own
    `rbf_matrix(X, X, l, dims=blanket)`, as one (U, n, n) array in the
    layout's kernel order, filled one chunk of consecutive kernels at a
    time.  Factors whose blankets hold the same dimensions share one
    kernel, so the context takes U n^2 8 bytes for the layout's U distinct
    blankets."""
    ls = kernel.lengthscale
    n = X.shape[0]
    index, widths = layout.padded_blankets
    kmats = np.empty((index.shape[0], n, n))
    step = _factors_per_chunk(n)
    for start in range(0, index.shape[0], step):
        part = slice(start, start + step)
        _blanket_kernels(X, index[part], widths[part], ls, kmats[part])
    return AssemblyContext(X, layout, ls, kmats)


def _factors_per_chunk(n: int) -> int:
    """How many n x n kernels fit in _CHUNK_BYTES (at least one)."""
    return max(1, _CHUNK_BYTES // (8 * n * n))


def _blanket_kernels(X: np.ndarray, index: np.ndarray, widths: np.ndarray,
                     lengthscale: float, out: np.ndarray) -> None:
    """`rbf_matrix`'s product for F blankets at once, written into out
    (F, n, n): one gather of the blankets padded to the widest (w), centred
    by their column means, the padding then zeroed, and one batched product
    (F, n, w + 2) @ (F, w + 2, n).  Each blanket's coordinates come first and
    its squared norm and 1 last, so the padding adds exact zeros between
    them.  Like `rbf_matrix`'s gathered blanket, the gather varies fastest
    along the particles, so each squared norm is summed one coordinate after
    another and the padding's trailing zeros change no bit of it either."""
    w = widths.max()
    G = X[:, index[:, :w]]                          # (n, F, w)
    G -= G.mean(axis=0)
    G[:, np.arange(w) >= widths[:, None]] = 0.0
    F, n = index.shape[0], X.shape[0]
    left = np.empty((F, n, w + 2))
    left[..., :w] = G.transpose(1, 0, 2)
    left[..., w] = np.einsum("ifk,ifk->fi", G, G)
    left[..., w + 1] = 1.0
    inv_ls2 = 1.0 / lengthscale**2
    right = np.empty_like(left)
    np.multiply(left[..., :w], inv_ls2, out=right[..., :w])
    right[..., w] = -0.5 * inv_ls2
    np.multiply(left[..., w], -0.5 * inv_ls2, out=right[..., w + 1])
    np.matmul(left, right.transpose(0, 2, 1), out=out)
    np.minimum(out, 0.0, out=out)
    np.exp(out, out=out)


def global_context(
    X: np.ndarray, layout: FactorLayout, kernel: KernelSpec
) -> AssemblyContext:
    K = rbf_matrix(X, X, kernel.lengthscale)
    return AssemblyContext(X, layout, kernel.lengthscale, (K,), is_global=True)


def field_from_context(ctx: AssemblyContext, target: TargetModel) -> SteinGradientField:
    """Every particle's functional gradient,
    -sum_j [k(x_j, x_i) s_j + grad_j k(x_j, x_i)] / n over each factor's
    coordinates, from one product K^T @ [s | x | 1] per kernel: the
    kernel-weighted scores, the kernel-weighted positions and the column
    sums that expand the kernel gradients' sum_j K_ji (x_j - x_i) / l^2.
    A local kernel's product holds the [s | x] columns of every factor that
    shares it, side by side, and each group of the layout's
    `factor_groups` takes the product for a chunk of its consecutive
    kernels at once; the global kernel takes it once over all
    coordinates."""
    X, layout = ctx.X, ctx.layout
    scores = target.gradient_batch(X)
    if ctx.is_global:
        rhs = np.concatenate([scores, X, np.ones((X.shape[0], 1))], axis=1)
        return SteinGradientField(
            layout, _field_terms(ctx.kmats[0].T @ rhs, rhs, ctx.lengthscale))
    out = np.empty_like(X)
    step = _factors_per_chunk(X.shape[0])
    for group in layout.factor_groups:
        for start in range(0, group.kernels.size, step):
            g = group.chunk(slice(start, start + step))
            K = ctx.kmats[g.kernels[0]:g.kernels[-1] + 1]
            rhs = np.concatenate(
                [scores[:, g.dims], X[:, g.dims],
                 np.ones((X.shape[0], g.kernels.size, 1))], axis=2,
            ).transpose(1, 0, 2)                    # (F, n, 2W + 1)
            mom = np.matmul(K.transpose(0, 2, 1), rhs)
            terms = _field_terms(mom, rhs, ctx.lengthscale)
            out[:, g.dims] = terms.transpose(1, 0, 2)
    return SteinGradientField(layout, out)


def _field_terms(mom: np.ndarray, rhs: np.ndarray,
                 lengthscale: float) -> np.ndarray:
    """-(K^T s - (K^T x - x * colsum(K)) / l^2) / n from the product
    mom = K^T @ rhs of rhs = [s | x | 1], each (..., n, 2c + 1)."""
    c = (rhs.shape[-1] - 1) // 2
    n = rhs.shape[-2]
    x = rhs[..., c:2 * c]
    term2 = -(1.0 / lengthscale**2) * (mom[..., c:2 * c] - x * mom[..., -1:])
    return -(mom[..., :c] + term2) / n


class PatternHessians:
    """Every particle's symmetric Hessian as (n, nnz) values over a layout's
    `HessianPattern`.  `apply` gathers each direction's entries, multiplies
    and sums each row's segment, all particles in one block-diagonal sparse
    product whose rows sum their entries in column order."""

    def __init__(self, pattern: HessianPattern, values: np.ndarray):
        n = values.shape[0]
        self.shape = (n, pattern.dim)
        self._matrix = sparse.csr_matrix(
            (values.ravel(), *pattern.block_diagonal(n)),
            shape=(n * pattern.dim, n * pattern.dim))

    @property
    def nbytes(self) -> int:
        m = self._matrix
        return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes

    def apply(self, V: np.ndarray) -> np.ndarray:
        """Row i of the result is H_i @ V[i]."""
        return (self._matrix @ V.ravel()).reshape(V.shape)


class GlobalHessians:
    """Every particle's global-kernel Hessian, sum_j (G_ji G_ji^T
    - K_ji^2 H_j) / n with kernel gradients G_ji = (x_j - x_i) K_ji / l^2.

    The model term is stored over the pattern.  The kernel term is applied
    from the positions and W = K * K, never formed:
    sum_j W_ji (x_j - x_i) ((x_j - x_i) . v_i) / (n l^4) is, with
    S_ji = x_j . v_i - x_i . v_i and A = W * S,
    (A^T X - X * colsum(A)) / (n l^4): two (n, n, dim) products per apply.
    Positions are centred first so that the expansion cancels little.
    """

    def __init__(self, model: PatternHessians, X: np.ndarray, W: np.ndarray,
                 lengthscale: float):
        self.shape = X.shape
        self._model = model
        self._X = X - X.mean(axis=0)
        self._W = W
        self._scale = 1.0 / (X.shape[0] * lengthscale**4)

    @property
    def nbytes(self) -> int:
        return self._model.nbytes + self._X.nbytes + self._W.nbytes

    def apply(self, V: np.ndarray) -> np.ndarray:
        """Row i of the result is H_i @ V[i]."""
        X = self._X
        A = X @ V.T                                  # A[j, i] = x_j . v_i
        A -= np.einsum("ij,ij->i", X, V)
        A *= self._W
        kernel = A.T @ X
        kernel -= X * A.sum(axis=0)[:, None]
        kernel *= self._scale
        kernel += self._model.apply(V)
        return kernel


def hessian_stack_from_context(ctx: AssemblyContext, target: TargetModel):
    """Every particle's second-variation Hessian, as an operator with
    `apply(V)` (row i: H_i @ V[i]), `shape` (n, dim) and `nbytes`.

    Model Hessians come as (n, nnz) values over the layout's pattern and are
    read as (nnz, n) rows.  Local kernels give a `PatternHessians` over the
    same pattern, assembled with particles along the last axis: with
    weights W = K_a * K_b, formed in one reused n x n buffer, pair (a, b)
    takes one product [H_ab | x_a x_b^T | x_a | x_b | 1] @ W of moment rows
    gathered from the model rows and the centred positions (d, n): the
    kernel-weighted model Hessians plus the moments that expand the kernel
    cross term sum_j W_ji (x_j - x_i)_a (x_j - x_i)_b^T.  Centring makes the
    expansion cancel little.  A diagonal pair (a, a) of a block larger than
    1 x 1 takes only its upper triangle's moments and x_a, since x_b is x_a
    and its block is mirrored from the upper triangle (9 of 13 rows for
    2 x 2 blocks).  Pairs whose blocks share a shape, the diagonal ones
    apart, are computed together, as many at a time as keep their rows
    within _CHUNK_BYTES (every pair's terms are its own, so the chunking
    changes no bit), and written as (c_a, c_b, n) rows straight into one
    (nnz, n) array: off-diagonal blocks with their exact transpose,
    diagonal blocks' upper triangle at both its entries, so every matrix
    is exactly symmetric.  That array is transposed once, into the
    operator.  The global kernel gives a `GlobalHessians`.
    """
    X, layout = ctx.X, ctx.layout
    n = X.shape[0]
    pattern = layout.pattern
    model = target.hessian_batch(X)
    if ctx.is_global:
        return _global_hessians(ctx, pattern, model)

    model = np.ascontiguousarray(model.T)                # (nnz, n)
    XcT = np.subtract(X.T, X.mean(axis=0)[:, None],
                      out=np.empty(X.shape[::-1]))  # (d, n)
    inv_ls4 = (1.0 / ctx.lengthscale**2)**2
    values = np.empty((pattern.nnz, n))
    W = np.empty((n, n))
    for g in layout.pair_groups:
        step = _pairs_per_chunk(n, *g.mask.shape[1:])
        for start in range(0, g.a.size, step):
            _pair_rows(g, slice(start, start + step), ctx.kmats,
                       layout.kernel_index, model, XcT, inv_ls4, W, values)
    return PatternHessians(pattern, values.T)


def _pairs_per_chunk(n: int, ca: int, cb: int) -> int:
    """How many pairs of (ca, cb) blocks fit in _CHUNK_BYTES (at least
    one)."""
    return max(1, _CHUNK_BYTES // _pair_bytes(n, ca, cb))


def _pair_bytes(n: int, ca: int, cb: int) -> int:
    """One pair's row temporaries: its 2 ca cb + ca + cb + 1 moment rows of
    n, as many product rows, and three ca cb rows of cross-term
    factors."""
    return 8 * n * (2 * (2 * ca * cb + ca + cb + 1) + 3 * ca * cb)


@cache
def _block_entries(ca: int, cb: int, diagonal: bool):
    """The entries (p, q) of a (ca, cb) block that a pair's rows hold, and
    where x_q lies among its position rows.  An off-diagonal pair takes all
    ca cb entries and the rows [x_a | x_b]; a diagonal pair (a, a) takes its
    upper triangle and the rows x_a, since x_b is x_a."""
    if diagonal:
        p, q = np.triu_indices(ca)
        qx = q
    else:
        p, q = np.divmod(np.arange(ca * cb), cb)
        qx = ca + q
    for index in (p, q, qx):
        index.flags.writeable = False       # shared by every later call
    return p, q, qx


def _pair_rows(g: PairGroup, part: slice, kmats, kernel_index: np.ndarray,
               model: np.ndarray, XcT: np.ndarray, inv_ls4: float,
               W: np.ndarray, values: np.ndarray) -> None:
    """A slice of g's pairs as (P, e, n) rows of their block entries (p, q),
    written into values (nnz, n) at each entry and at its transpose's.
    Pair (a, b) weighs its moments by W = K_a * K_b of its factors'
    kernels, read through `kernel_index`."""
    p, q, qx = _block_entries(*g.mask.shape[1:], g.diagonal)
    kernels = [tuple(sorted(ab)) for ab in zip(
        kernel_index[g.a[part]].tolist(), kernel_index[g.b[part]].tolist())]
    dims = (g.rows[part] if g.diagonal else
            np.concatenate([g.rows[part], g.cols[part]], axis=1))
    P, e, n = len(kernels), p.size, XcT.shape[1]
    lhs = np.empty((P, 2 * e + dims.shape[1] + 1, n))
    lhs[:, :e] = model[g.entries[part, p, q]]
    x = lhs[:, 2 * e:-1]
    x[...] = XcT[dims]
    xp, xq = x[:, p], x[:, qx]
    outer = lhs[:, e:2 * e]
    np.multiply(xp, xq, out=outer)
    lhs[:, -1] = 1.0
    mom = np.empty_like(lhs)
    # pairs whose factors' kernels agree, in either order, share one weight
    # (a product of two floats does not depend on their order): taken in
    # order of their kernels, each distinct weight is formed once per chunk
    weight = None
    for k in sorted(range(P), key=kernels.__getitem__):
        if kernels[k] != weight:
            weight = kernels[k]
            np.multiply(kmats[weight[0]], kmats[weight[1]], out=W)
        np.matmul(lhs[k], W, out=mom[k])
    mx = mom[:, 2 * e:-1]
    term = mom[:, e:2 * e]                      # the cross term, in place
    term -= xp * mx[:, qx]
    term -= mx[:, p] * xq
    term += outer * mom[:, -1, None]
    # a diagonal pair's mask is all ones: every blanket holds its own factor
    term *= inv_ls4 if g.diagonal else inv_ls4 * g.mask[part, p, q, None]
    term -= mom[:, :e]
    term /= n
    values[g.entries[part, p, q]] = term
    values[g.twins[part, q, p]] = term


def _global_hessians(ctx: AssemblyContext, pattern: HessianPattern,
                     model: np.ndarray) -> GlobalHessians:
    """The model term -sum_j K_ji^2 H_j / n is one product over the
    pattern's upper-triangle columns, each entry then read from its
    upper-triangle twin, so both triangles come from the same values.

    Entries of W = K * K below the smallest normal float are set to 0
    first (1-2% of them at snlp50's n = 200), since subnormal operands
    make the product about 8 times slower.  A dropped term W_ji M_jk of
    model entry M_jk is below 2^-1022 |M_jk|, so each value, a sum of n
    such terms over n, changes by at most 2^-1022 max_j |M_jk|, and
    W * S in `apply` by at most 2^-1022 |S|."""
    n = ctx.X.shape[0]
    W = ctx.kmats[0] * ctx.kmats[0]
    W[W < _TINY] = 0.0
    upper = W.T @ model[:, pattern.upper] / n
    values = np.negative(upper[:, pattern.from_upper])
    return GlobalHessians(PatternHessians(pattern, values), ctx.X, W,
                          ctx.lengthscale)


def graphical_stein_gradient(
    particles: ParticleSet, target: TargetModel, kernel: KernelSpec
) -> SteinGradientField:
    """Functional gradient under the product of local-kernel spaces, one per
    blanket of the target's layout."""
    ctx = local_context(particles.positions, target.layout, kernel)
    return field_from_context(ctx, target)


def global_stein_gradient(
    particles: ParticleSet, target: TargetModel, kernel: KernelSpec
) -> SteinGradientField:
    """Functional gradient under a single kernel over full state vectors."""
    ctx = global_context(particles.positions, target.layout, kernel)
    return field_from_context(ctx, target)

