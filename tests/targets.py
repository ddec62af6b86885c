"""Toy targets implementing the evaluable-distribution contract for tests,
the bundled configs' models, and every particle's Stein Hessian built the
way the trust-region loop builds it, as a dense stack."""

from __future__ import annotations

from functools import cache
from pathlib import Path

import numpy as np

from oracles import operator_matrix
from trsvi.experiment import build_problem, initialize_particles, make_model
from trsvi.model import load_yaml
from trsvi.model.layout import FactorLayout, TargetModel
from trsvi.stein import global_context, hessian_stack_from_context, local_context


@cache
def bundled(name: str):
    """The model of a bundled config and its first run's particles."""
    cfg = load_yaml(Path(__file__).parents[1] / "configs" / f"{name}.yaml")
    problem = build_problem(cfg["problem"])
    return make_model(problem), initialize_particles(problem, cfg["run"],
                                                     0).positions


def local_hessians(particles, target, kernel) -> np.ndarray:
    """(n, dim, dim) local-kernel Stein Hessians of a particle set."""
    ctx = local_context(particles.positions, target.layout, kernel)
    return operator_matrix(hessian_stack_from_context(ctx, target))


def global_hessians(particles, target, kernel) -> np.ndarray:
    """(n, dim, dim) global-kernel Stein Hessians of a particle set."""
    ctx = global_context(particles.positions, target.layout, kernel)
    return operator_matrix(hessian_stack_from_context(ctx, target))


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


def mixed_size_layout() -> FactorLayout:
    """A chain of one- and two-dimensional factors, interleaved so that
    neither size's factors are consecutive."""
    sizes = [1, 2, 1, 2, 2, 1, 1]
    neighbors = [[b for b in (a - 1, a + 1) if 0 <= b < len(sizes)]
                 for a in range(len(sizes))]
    return FactorLayout.from_factor_neighbors(sizes, neighbors)


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
        return float(self.log_density_batch(x[None, :])[0])

    def log_density_batch(self, X):
        """Each row's quadratic form is summed over that row's own d * d
        contiguous products, so it does not depend on the other rows (a
        three-operand einsum's order can)."""
        diff = np.asarray(X, dtype=float) - self.mean
        terms = diff[:, :, None] * diff[:, None, :] * self.precision
        return self._const - 0.5 * terms.reshape(diff.shape[0], -1).sum(axis=1)

    def gradient_batch(self, X):
        diff = np.asarray(X, dtype=float) - self.mean
        return -diff @ self.precision

    def hessian_batch(self, X):
        """The precision's entries on the layout's pattern; those off it
        are taken as zero."""
        n = np.asarray(X).shape[0]
        values = -self.precision.ravel()[self.layout.pattern.flat]
        return np.broadcast_to(values, (n, values.size)).copy()

    def dimension_names(self):
        return [f"x{j}" for j in range(self.mean.size)]


class HeavyTailTarget(TargetModel):
    """The one-dimensional density (1 + |x|)^-2 / 2.  Its log density is
    finite at every finite point, however large, so a chain can sit near
    the top of the float range, where proposals overflow."""

    def __init__(self):
        self.layout = FactorLayout.single_factor(1)

    def log_density(self, x):
        x = self._check_point(x)
        return float(self.log_density_batch(x[None, :])[0])

    def log_density_batch(self, X):
        return -np.log(2.0) - 2.0 * np.log1p(np.abs(np.asarray(X)[:, 0]))

    def gradient_batch(self, X):
        X = np.asarray(X, dtype=float)
        return -2.0 * np.sign(X) / (1.0 + np.abs(X))

    def hessian_batch(self, X):
        return 2.0 / (1.0 + np.abs(np.asarray(X))) ** 2

    def dimension_names(self):
        return ["x0"]
