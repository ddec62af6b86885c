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

from .kernels import KernelSpec, LocalKernelFamily, rbf_matrix
from .model.layout import FactorLayout, TargetModel

# particles per batch of the global kernel term's symmetric products
_GLOBAL_CHUNK = 16


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


def hessian_stack_from_context(
    ctx: AssemblyContext, target: TargetModel
) -> np.ndarray:
    """Every particle's second-variation Hessian as one dense (n, dim, dim)
    stack, exactly symmetric.

    Local kernels fill only the blocks of overlapping factor pairs.  With
    weights W = K_a * K_b, pair (a, b) takes one product
    W^T @ [H_ab | x_a x_b^T | x_a | x_b | 1]: the kernel-weighted model
    Hessians plus the moments that expand the kernel cross term
    sum_j W_ji (x_j - x_i)_a (x_j - x_i)_b^T.  Positions are centred first so
    the expansion cancels little.  Pairs whose blocks share a shape are
    gathered, combined and scattered together; off-diagonal blocks are
    written with their exact transpose and diagonal blocks mirrored from
    their upper triangle.
    """
    X, layout = ctx.X, ctx.layout
    n, dim = X.shape
    model_hessians = target.hessian_batch(X)
    inv_ls2 = 1.0 / ctx.lengthscale**2
    if ctx.is_global:
        return _global_stack(X, ctx.kmats[0], model_hessians, layout, inv_ls2)

    Xc = X - X.mean(axis=0)
    stack = np.zeros((n, dim, dim))
    for g in layout.pair_groups():
        rows, cols = g.rows[:, :, None], g.cols[:, None, :]
        P, ca, cb = g.mask.shape
        m = ca * cb
        xa, xb = Xc[:, g.rows], Xc[:, g.cols]             # (n, P, c)
        outer = xa[..., :, None] * xb[..., None, :]       # (n, P, ca, cb)
        rhs = np.concatenate(
            [model_hessians[:, rows, cols].reshape(n, P, m),
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
        stack[:, rows, cols] = term
        stack[:, g.cols[:, :, None], g.rows[:, None, :]] = term.swapaxes(2, 3)
    return stack


def _global_stack(X, K, model_hessians, layout, inv_ls2) -> np.ndarray:
    """Global-kernel stack: sum_j (G_ji G_ji^T - K_ji^2 H_j) / n, where
    G_ji = (x_j - x_i) K_ji / l^2 is the kernel gradient.

    The model term is one product over only the upper-triangle columns of
    the layout's pattern, outside which every model Hessian is zero.  The
    kernel term is one symmetric product G_i^T G_i per particle, formed a
    few particles at a time so that no (n, n, dim) array is built.  Every
    entry is then read from its upper-triangle twin, so both triangles come
    from the same values.
    """
    n, dim = X.shape
    pattern = layout.upper_pattern()
    model = (K * K).T @ model_hessians.reshape(n, dim * dim)[:, pattern] / n
    r, c = np.divmod(np.arange(dim * dim), dim)
    upper_twin = np.minimum(r, c) * dim + np.maximum(r, c)
    stack = np.empty((n, dim * dim))
    for start in range(0, n, _GLOBAL_CHUNK):
        i = slice(start, start + _GLOBAL_CHUNK)
        G = (X[None, :, :] - X[i, None, :]) * (K[:, i].T * inv_ls2)[:, :, None]
        prods = np.matmul(G.transpose(0, 2, 1), G).reshape(-1, dim * dim) / n
        prods[:, pattern] -= model[i]
        stack[i] = prods[:, upper_twin]
    return stack.reshape(n, dim, dim)


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

