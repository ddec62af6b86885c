"""Toy targets implementing the evaluable-distribution contract for tests,
and every particle's Stein Hessian built the way the trust-region loop
builds it."""

from __future__ import annotations

import numpy as np

from trsvi.model.layout import FactorLayout, TargetModel
from trsvi.stein import global_context, hessian_stack_from_context, local_context


def local_hessians(particles, target, family) -> np.ndarray:
    """(n, dim, dim) local-kernel Stein Hessians of a particle set."""
    ctx = local_context(particles.positions, family)
    return hessian_stack_from_context(ctx, target)


def global_hessians(particles, target, kernel) -> np.ndarray:
    """(n, dim, dim) global-kernel Stein Hessians of a particle set."""
    ctx = global_context(particles.positions, target.layout, kernel)
    return hessian_stack_from_context(ctx, target)


def fully_connected_layout(dims_per_factor: list[int]) -> FactorLayout:
    """Every factor's blanket covers all dimensions."""
    n = len(dims_per_factor)
    neighbors = [[b for b in range(n) if b != a] for a in range(n)]
    return FactorLayout.from_factor_neighbors(dims_per_factor, neighbors)


def partial_blanket_layout() -> FactorLayout:
    """Factor 1 (dims 2..4) lies only partly in blanket 0 and factor 2 only
    partly in blanket 1, so several pair masks are not all ones."""
    factors = (np.arange(0, 2), np.arange(2, 5), np.arange(5, 7))
    blankets = (np.array([0, 1, 3]), np.array([1, 2, 3, 4, 6]),
                np.array([4, 5, 6]))
    return FactorLayout(factors=factors, blankets=blankets, total_dim=7)


class GaussianTarget(TargetModel):
    """Multivariate normal with an arbitrary factor layout."""

    def __init__(self, mean, cov, layout: FactorLayout | None = None):
        self.mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        self.precision = np.linalg.inv(cov)
        self.precision = 0.5 * (self.precision + self.precision.T)
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            raise ValueError("covariance must be positive definite")
        d = self.mean.size
        self._const = -0.5 * (d * np.log(2.0 * np.pi) + logdet)
        self.layout = layout if layout is not None else FactorLayout.single_factor(d)
        if self.layout.total_dim != d:
            raise ValueError("layout dimension mismatch")

    def log_density(self, x):
        x = self._check_point(x)
        diff = x - self.mean
        return float(self._const - 0.5 * diff @ self.precision @ diff)

    def gradient(self, x):
        x = self._check_point(x)
        return -self.precision @ (x - self.mean)

    def hessian(self, x):
        self._check_point(x)
        return -self.precision.copy()

    def log_density_batch(self, X):
        diff = np.asarray(X, dtype=float) - self.mean
        return self._const - 0.5 * np.einsum("ni,ij,nj->n", diff, self.precision, diff)

    def gradient_batch(self, X):
        diff = np.asarray(X, dtype=float) - self.mean
        return -diff @ self.precision

    def hessian_batch(self, X):
        n = np.asarray(X).shape[0]
        return np.broadcast_to(-self.precision, (n, *self.precision.shape)).copy()

    def dimension_names(self):
        return [f"x{j}" for j in range(self.mean.size)]
