"""Sensor network localization posteriors from range-only measurements.

Unknown sensors and anchors are scattered on a square; every pair closer
than the sensing radius shares a noisy distance measurement.  The state is
the flattened (x, y) positions of the unknown sensors; anchors are fixed.
The prior over positions is improper uniform (log-prior identically zero),
so the log-density is the measurement log-likelihood alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .layout import FactorLayout, SingularityError, TargetModel

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class SnlpConfig:
    unknowns: int
    anchors: int
    side: float
    radius: float
    noise_variance: float
    noiseless: bool = False
    seed: int = 0


@dataclass(frozen=True)
class SnlpEdge:
    """Measured pair; node ids place unknowns first, then anchors."""

    i: int
    j: int
    measured: float


@dataclass(frozen=True)
class SnlpProblem:
    true_positions: np.ndarray          # (unknowns, 2)
    anchor_positions: np.ndarray        # (anchors, 2)
    edges: tuple[SnlpEdge, ...]
    noise_variance: float
    radius: float
    side: float
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(
            self, "true_positions", np.asarray(self.true_positions, dtype=float)
        )
        object.__setattr__(
            self, "anchor_positions", np.asarray(self.anchor_positions, dtype=float)
        )
        if self.noise_variance <= 0:
            raise ValueError("noise variance must be positive")
        if self.radius <= 0:
            raise ValueError("sensing radius must be positive")
        n = self.n_unknowns + self.n_anchors
        for e in self.edges:
            if e.i == e.j or not (0 <= e.i < n and 0 <= e.j < n):
                raise ValueError("edges must join two distinct nodes")
            if e.measured < 0:
                raise ValueError("measurements must be nonnegative")

    @property
    def n_unknowns(self) -> int:
        return self.true_positions.shape[0]

    @property
    def n_anchors(self) -> int:
        return self.anchor_positions.shape[0]

    def position_of(self, node: int) -> np.ndarray:
        if node < self.n_unknowns:
            return self.true_positions[node]
        return self.anchor_positions[node - self.n_unknowns]


def build_snlp(config: SnlpConfig) -> SnlpProblem:
    """Scatter sensors uniformly and measure every pair within the radius.

    Anchor-anchor pairs are skipped: their measurements do not depend on the
    state and would only add a constant to the log-density.
    """
    if config.radius <= 0:
        raise ValueError("radius must be positive")
    if config.noise_variance <= 0:
        raise ValueError("noise_variance must be positive")
    if config.unknowns < 1:
        raise ValueError("need at least one unknown sensor")
    rng = np.random.default_rng(config.seed)
    unknowns = rng.uniform(0.0, config.side, size=(config.unknowns, 2))
    anchors = rng.uniform(0.0, config.side, size=(config.anchors, 2))
    positions = np.vstack([unknowns, anchors]) if config.anchors else unknowns

    edges = []
    n_total = positions.shape[0]
    for i in range(n_total):
        for j in range(i + 1, n_total):
            if i >= config.unknowns and j >= config.unknowns:
                continue
            dist = float(np.linalg.norm(positions[i] - positions[j]))
            if dist < config.radius:
                edges.append((i, j, dist))

    measured = np.array([d for _, _, d in edges])
    if not config.noiseless and edges:
        measured = measured + rng.normal(
            0.0, np.sqrt(config.noise_variance), size=len(edges)
        )
        measured = np.maximum(measured, 0.0)

    edge_objs = tuple(
        SnlpEdge(i, j, float(m)) for (i, j, _), m in zip(edges, measured)
    )
    degree = np.zeros(config.unknowns, dtype=int)
    for e in edge_objs:
        if e.i < config.unknowns:
            degree[e.i] += 1
        if e.j < config.unknowns:
            degree[e.j] += 1
    warnings = tuple(
        f"unknown sensor {k} has no measurements" for k in np.flatnonzero(degree == 0)
    )
    return SnlpProblem(
        true_positions=unknowns,
        anchor_positions=anchors,
        edges=edge_objs,
        noise_variance=config.noise_variance,
        radius=config.radius,
        side=config.side,
        warnings=warnings,
    )


def snlp_layout(problem: SnlpProblem) -> FactorLayout:
    """One 2-D factor per unknown sensor; blankets follow the measurement graph."""
    s = problem.n_unknowns
    neighbors = [set() for _ in range(s)]
    for e in problem.edges:
        if e.i < s and e.j < s:
            neighbors[e.i].add(e.j)
            neighbors[e.j].add(e.i)
    return FactorLayout.from_factor_neighbors([2] * s, neighbors)


class SnlpModel(TargetModel):
    """Range-measurement log-likelihood with hand-coded derivatives."""

    def __init__(self, problem: SnlpProblem):
        self.problem = problem
        self.layout = snlp_layout(problem)
        s = problem.n_unknowns
        # split edges into unknown-unknown and unknown-anchor groups
        uu, ua = [], []
        for e in problem.edges:
            i, j = sorted((e.i, e.j))
            if j < s:
                uu.append((i, j, e.measured))
            elif i < s:
                ua.append((i, j - s, e.measured))
        self._uu = (
            np.array([(i, j) for i, j, _ in uu], dtype=np.intp).reshape(-1, 2),
            np.array([m for _, _, m in uu]),
        )
        self._ua = (
            np.array([(i, a) for i, a, _ in ua], dtype=np.intp).reshape(-1, 2),
            np.array([m for _, _, m in ua]),
        )
        self._s2 = problem.noise_variance
        self._const_per_edge = -0.5 * (_LOG_2PI + np.log(self._s2))

    def dimension_names(self) -> list[str]:
        return [
            f"s{k}_{axis}" for k in range(self.problem.n_unknowns) for axis in "xy"
        ]

    def log_density(self, x: np.ndarray) -> float:
        x = self._check_point(x)
        return float(self.log_density_batch(x[None, :])[0])

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._check_point(x)
        return self.gradient_batch(x[None, :])[0]

    def hessian(self, x: np.ndarray) -> np.ndarray:
        x = self._check_point(x)
        return self.hessian_batch(x[None, :])[0]

    def _edge_geometry(self, P: np.ndarray, check_singular: bool = True):
        """Per-edge difference vectors and distances for a particle batch.

        P has shape (n, unknowns, 2).  With check_singular, zero distances
        raise: derivatives are undefined there (the density itself is not).
        """
        (uu_idx, uu_meas), (ua_idx, ua_meas) = self._uu, self._ua
        diffs, dists, meas = [], [], []
        if len(uu_idx):
            d = P[:, uu_idx[:, 0], :] - P[:, uu_idx[:, 1], :]
            diffs.append(d)
            dists.append(np.linalg.norm(d, axis=2))
            meas.append(uu_meas)
        if len(ua_idx):
            anchors = self.problem.anchor_positions[ua_idx[:, 1]]
            d = P[:, ua_idx[:, 0], :] - anchors[None, :, :]
            diffs.append(d)
            dists.append(np.linalg.norm(d, axis=2))
            meas.append(ua_meas)
        if check_singular:
            for dist in dists:
                if (dist == 0.0).any():
                    raise SingularityError(
                        "coincident positions on a measured edge"
                    )
        return diffs, dists, meas

    def log_density_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        P = X.reshape(X.shape[0], -1, 2)
        out = np.zeros(X.shape[0])
        _, dists, meas = self._edge_geometry(P, check_singular=False)
        for dist, m in zip(dists, meas):
            out += (
                self._const_per_edge - 0.5 * (m[None, :] - dist) ** 2 / self._s2
            ).sum(axis=1)
        return out

    def gradient_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        P = X.reshape(n, -1, 2)
        grad = np.zeros_like(P)
        diffs, dists, meas = self._edge_geometry(P)
        (uu_idx, _), (ua_idx, _) = self._uu, self._ua
        cursor = 0
        if len(uu_idx):
            d, dist, m = diffs[cursor], dists[cursor], meas[cursor]
            coef = (m[None, :] - dist) / (self._s2 * dist)   # (n, E)
            contrib = coef[:, :, None] * d
            np.add.at(grad, (slice(None), uu_idx[:, 0]), contrib)
            np.add.at(grad, (slice(None), uu_idx[:, 1]), -contrib)
            cursor += 1
        if len(ua_idx):
            d, dist, m = diffs[cursor], dists[cursor], meas[cursor]
            coef = (m[None, :] - dist) / (self._s2 * dist)
            np.add.at(grad, (slice(None), ua_idx[:, 0]), coef[:, :, None] * d)
        return grad.reshape(n, -1)

    def hessian_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        n, dim = X.shape
        diffs, dists, meas = self._edge_geometry(X.reshape(n, -1, 2))
        out = np.zeros((n, dim * dim))
        if diffs:
            d, dist = np.concatenate(diffs, axis=1), np.concatenate(dists, axis=1)
            m = np.concatenate(meas)
            u = d / dist[:, :, None]
            uut = u[:, :, :, None] * u[:, :, None, :]
            curv = (-uut + ((m - dist) / dist)[:, :, None, None]
                    * (np.eye(2) - uut)) / self._s2
            targets, scatter = self._hessian_scatter
            out[:, targets] = (scatter @ curv.reshape(n, -1).T).T
        return out.reshape(n, dim, dim)

    @cached_property
    def _hessian_scatter(self):
        """Where each edge's 2x2 curvature block lands in the flat Hessian.

        An edge term's curvature wrt its first endpoint, C, enters the
        Hessian as +C on both endpoints' diagonal blocks and -C on the two
        blocks joining them (anchor edges touch one diagonal block only).
        Returns the flat (row * dim + col) entries that any edge touches and
        a sparse +-1 matrix from the edges' stacked block entries to those
        entries; its rows sum edges in edge order.
        """
        dim = self.layout.total_dim
        # edge endpoints; an anchor edge's second entry is the anchor and
        # is never used
        ends = np.concatenate([self._uu[0], self._ua[0]])
        every = np.arange(len(ends))
        uu = every[:len(self._uu[0])]
        p, q = np.divmod(np.arange(4), 2)
        rows, cols, signs = [], [], []
        for first, second, sign, k in (
            (0, 0, 1.0, every), (1, 1, 1.0, uu), (0, 1, -1.0, uu), (1, 0, -1.0, uu),
        ):
            r = 2 * ends[k, first, None] + p
            c = 2 * ends[k, second, None] + q
            rows.append((r * dim + c).ravel())
            cols.append((4 * k[:, None] + np.arange(4)).ravel())
            signs.append(np.full(r.size, sign))
        rows, cols, signs = (np.concatenate(v) for v in (rows, cols, signs))
        targets, rows = np.unique(rows, return_inverse=True)
        scatter = sparse.csr_matrix(
            (signs, (rows, cols)), shape=(targets.size, 4 * len(ends))
        )
        return targets, scatter
