"""Stein functional gradients and second-variation Hessians over a particle set.

The graphical variants use one local kernel per factor, so each factor's
gradient block and each Hessian block depends only on blanket coordinates;
the global variants use a single kernel over full state vectors.  Every
expectation over the particle distribution is the empirical mean over all
particles, including the particle being updated, summed in ascending particle
order so results do not depend on how work is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .kernels import KernelSpec, LocalKernelFamily, rbf_matrix
from .model.layout import FactorLayout, HessianPattern, TargetModel


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


def _check_layouts(target: TargetModel, layout: FactorLayout) -> None:
    t = target.layout
    if t.total_dim != layout.total_dim or t.n_factors != layout.n_factors:
        raise ValueError("target and kernel layouts disagree")
    for fa, fb in zip(t.factors, layout.factors):
        if not np.array_equal(fa, fb):
            raise ValueError("target and kernel layouts disagree")


@dataclass
class AssemblyContext:
    """Kernel matrices shared by gradient and Hessian assembly at one particle
    configuration: one per factor, or the same global kernel for all."""

    X: np.ndarray
    layout: FactorLayout
    lengthscale: float
    kmats: list[np.ndarray]
    is_global: bool = False


def local_context(X: np.ndarray, family: LocalKernelFamily) -> AssemblyContext:
    layout = family.layout
    ls = family.kernel.lengthscale
    kmats = [
        rbf_matrix(X, X, ls, dims=layout.blankets[a])
        for a in range(layout.n_factors)
    ]
    return AssemblyContext(X, layout, ls, kmats)


def global_context(
    X: np.ndarray, layout: FactorLayout, kernel: KernelSpec
) -> AssemblyContext:
    K = rbf_matrix(X, X, kernel.lengthscale)
    return AssemblyContext(
        X, layout, kernel.lengthscale, [K] * layout.n_factors, is_global=True
    )


def field_from_context(ctx: AssemblyContext, target: TargetModel) -> SteinGradientField:
    X, layout = ctx.X, ctx.layout
    scores = target.gradient_batch(X)
    n = X.shape[0]
    out = np.empty_like(X)
    inv_ls2 = 1.0 / ctx.lengthscale**2
    for a, dims in enumerate(layout.factors):
        Ka = ctx.kmats[a]                   # Ka[j, i] = k_a(x_j, x_i)
        colsum = Ka.sum(axis=0)
        term1 = Ka.T @ scores[:, dims]
        term2 = -inv_ls2 * (Ka.T @ X[:, dims] - X[:, dims] * colsum[:, None])
        out[:, dims] = -(term1 + term2) / n
    return SteinGradientField(layout, out)


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

    Model Hessians come as (n, nnz) values over the layout's pattern.
    Local kernels give a `PatternHessians` over the same pattern.  With
    weights W = K_a * K_b, pair (a, b) takes one product
    W^T @ [H_ab | x_a x_b^T | x_a | x_b | 1]: the kernel-weighted model
    Hessians plus the moments that expand the kernel cross term
    sum_j W_ji (x_j - x_i)_a (x_j - x_i)_b^T.  Positions are centred first so
    the expansion cancels little.  Pairs whose blocks share a shape are
    computed together and written straight into their pattern entries;
    off-diagonal blocks are written with their exact transpose and diagonal
    blocks mirrored from their upper triangle, so every matrix is exactly
    symmetric.  The global kernel gives a `GlobalHessians`.
    """
    X, layout = ctx.X, ctx.layout
    n = X.shape[0]
    pattern = layout.pattern()
    model = target.hessian_batch(X)
    if ctx.is_global:
        return _global_hessians(ctx, pattern, model)

    inv_ls2 = 1.0 / ctx.lengthscale**2
    Xc = X - X.mean(axis=0)
    values = np.empty((n, pattern.nnz))
    for g in layout.pair_groups():
        P, ca, cb = g.mask.shape
        m = ca * cb
        xa, xb = Xc[:, g.rows], Xc[:, g.cols]             # (n, P, c)
        outer = xa[..., :, None] * xb[..., None, :]       # (n, P, ca, cb)
        rhs = np.concatenate(
            [model[:, g.entries].reshape(n, P, m),
             outer.reshape(n, P, m), xa, xb, np.ones((n, P, 1))],
            axis=2,
        ).transpose(1, 0, 2).copy()                       # (P, n, 2m+ca+cb+1)
        mom = np.empty_like(rhs)
        for p, (a, b) in enumerate(zip(g.a, g.b)):
            np.matmul((ctx.kmats[a] * ctx.kmats[b]).T, rhs[p], out=mom[p])
        mom = mom.transpose(1, 0, 2)
        ma, mb = mom[..., 2 * m:2 * m + ca], mom[..., 2 * m + ca:-1]
        cross = (
            mom[..., m:2 * m].reshape(n, P, ca, cb)
            - xa[..., :, None] * mb[..., None, :]
            - ma[..., :, None] * xb[..., None, :]
            + outer * mom[..., -1, None, None]
        )
        term = (inv_ls2**2 * g.mask * cross
                - mom[..., :m].reshape(n, P, ca, cb)) / n
        diag = g.a == g.b
        if diag.any():
            term[:, diag] = _mirror_upper(term[:, diag])
        values[:, g.entries] = term
        values[:, g.twins] = term.swapaxes(2, 3)
    return PatternHessians(pattern, values)


def _global_hessians(ctx: AssemblyContext, pattern: HessianPattern,
                     model: np.ndarray) -> GlobalHessians:
    """The model term -sum_j K_ji^2 H_j / n is one product over the
    pattern's upper-triangle columns, each entry then read from its
    upper-triangle twin, so both triangles come from the same values."""
    n = ctx.X.shape[0]
    W = ctx.kmats[0] * ctx.kmats[0]
    upper = W.T @ model[:, pattern.upper] / n
    values = np.negative(upper[:, pattern.from_upper])
    return GlobalHessians(PatternHessians(pattern, values), ctx.X, W,
                          ctx.lengthscale)


def _mirror_upper(stack: np.ndarray) -> np.ndarray:
    """Exact symmetry: keep each matrix's upper triangle, mirror it down."""
    return np.triu(stack) + np.triu(stack, 1).swapaxes(-1, -2)


def graphical_stein_gradient(
    particles: ParticleSet, target: TargetModel, local_kernels: LocalKernelFamily
) -> SteinGradientField:
    """Functional gradient under the product of local-kernel spaces."""
    _check_layouts(target, local_kernels.layout)
    return field_from_context(local_context(particles.positions, local_kernels), target)


def global_stein_gradient(
    particles: ParticleSet, target: TargetModel, kernel: KernelSpec
) -> SteinGradientField:
    """Functional gradient under a single kernel over full state vectors."""
    ctx = global_context(particles.positions, target.layout, kernel)
    return field_from_context(ctx, target)

