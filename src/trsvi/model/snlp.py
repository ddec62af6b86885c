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

from .layout import (FactorLayout, SingularityError, TargetModel,
                     csr_in_order, reciprocal_is_normal)

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
        if not reciprocal_is_normal(self.noise_variance):
            raise ValueError(f"noise_variance {self.noise_variance!r}: 1 / "
                             "noise_variance must be a finite normal number")
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
        # unknown-unknown edges first, then unknown-anchor edges; node ids
        # place unknowns first, then anchors
        uu, ua = [], []
        for e in problem.edges:
            i, j = sorted((e.i, e.j))
            if j < s:
                uu.append((i, j, e.measured))
            elif i < s:
                ua.append((i, j, e.measured))
        edges = uu + ua
        self._ends = np.array([(i, j) for i, j, _ in edges],
                              dtype=np.intp).reshape(-1, 2)
        self._measured = np.array([m for *_, m in edges])
        self._n_uu = len(uu)
        # node k's (x, y) are columns 2k, 2k + 1 of [X | anchors]; these are
        # the columns of each edge's first and second end, (2, E, 2)
        self._columns = 2 * self._ends.T[:, :, None] + np.arange(2)
        self._anchors = problem.anchor_positions.ravel()
        self._s2 = problem.noise_variance
        self._const_per_edge = -0.5 * (_LOG_2PI + np.log(self._s2))

    def dimension_names(self) -> list[str]:
        return [
            f"s{k}_{axis}" for k in range(self.problem.n_unknowns) for axis in "xy"
        ]

    def log_density(self, x: np.ndarray) -> float:
        x = self._check_point(x)
        return float(self.log_density_batch(x[None, :])[0])

    def _edge_geometry(self, X: np.ndarray, check_singular: bool = True):
        """Each edge's first end minus its second, (n, E, 2), and length,
        (n, E), for the rows of X, gathered in one `take` over [X | anchors].

        Both arrays are C-contiguous, so a sum over a run of edges reads
        each row's terms contiguously, in the same order for any row count.
        With check_singular, zero lengths raise, naming the first such row
        and edge: derivatives are undefined there (the density itself is not).
        """
        n, d = X.shape
        points = np.empty((n, d + self._anchors.size))
        points[:, :d] = X
        points[:, d:] = self._anchors
        ends = points.take(self._columns, axis=1)
        diff = ends[:, 0] - ends[:, 1]
        dist = np.sqrt(diff[:, :, 0] ** 2 + diff[:, :, 1] ** 2)
        if check_singular and (dist == 0.0).any():
            row, edge = np.argwhere(dist == 0.0)[0]
            s = self.problem.n_unknowns
            ends = " and ".join(f"sensor {k}" if k < s else f"anchor {k - s}"
                                for k in self._ends[edge])
            raise SingularityError(
                f"coincident positions on a measured edge: particle row {row}, "
                f"edge between {ends}")
        return diff, dist

    def log_density_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        _, dist = self._edge_geometry(X, check_singular=False)
        terms = (self._const_per_edge
                 - 0.5 * (self._measured - dist) ** 2 / self._s2)
        out = np.zeros(X.shape[0])
        out += terms[:, :self._n_uu].sum(axis=1)
        out += terms[:, self._n_uu:].sum(axis=1)
        return out

    def gradient_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        diff, dist = self._edge_geometry(X)
        coef = (self._measured - dist) / (self._s2 * dist)
        terms = (coef[:, :, None] * diff).reshape(n, 2 * dist.shape[1])
        return np.ascontiguousarray((self._gradient_scatter @ terms.T).T)

    def hessian_batch(self, X: np.ndarray) -> np.ndarray:
        """Each edge's curvature wrt its first end,
        (-u u^T + (m - r) / r (I - u u^T)) / s2 with u the unit difference,
        r its length and m the measurement, as its three distinct entries
        (xx, xy, yy) of (E, n) rows, scattered to the pattern's (nnz, n)
        rows and handed over as their (n, nnz) transpose, uncopied."""
        X = np.asarray(X, dtype=float)
        diff, dist = self._edge_geometry(X)
        e = (self._measured - dist) / dist
        u0, u1 = diff[:, :, 0] / dist, diff[:, :, 1] / dist
        curv = np.empty((3, dist.shape[1], X.shape[0]))
        for k, (uu, eye) in enumerate(((u0 * u0, 1.0), (u0 * u1, 0.0),
                                       (u1 * u1, 1.0))):
            np.divide((-uu + e * (eye - uu)).T, self._s2, out=curv[k])
        return (self._hessian_scatter @ curv.reshape(-1, X.shape[0])).T

    @cached_property
    def _gradient_scatter(self):
        """Sparse +-1 matrix from the edges' stacked (x, y) gradient terms
        to the state coordinates.

        An edge term g enters as +g at its first end and, for an
        unknown-unknown edge, -g at its second.  Each row adds its terms in
        a fixed order: the unknown-unknown edges at their first end, then at
        their second end, then the anchor edges, each in edge order.
        """
        every = np.arange(len(self._ends))
        uu = every[:self._n_uu]
        edge = np.concatenate([uu, uu, every[self._n_uu:]])
        end = np.repeat([0, 1, 0], [uu.size, uu.size, every.size - uu.size])
        rows = (2 * self._ends[edge, end, None] + np.arange(2)).ravel()
        cols = (2 * edge[:, None] + np.arange(2)).ravel()
        signs = np.repeat(1.0 - 2.0 * end, 2)
        return csr_in_order(signs, rows, cols,
                            (self.layout.total_dim, 2 * every.size))

    @cached_property
    def _hessian_scatter(self):
        """Sparse +-1 matrix from the edges' curvature entries, stacked as
        (xx, xy, yy) blocks of E rows, to the layout's pattern; its rows sum
        edges in edge order.

        An edge term's curvature wrt its first endpoint, C, enters the
        Hessian as +C on both endpoints' diagonal blocks and -C on the two
        blocks joining them (anchor edges touch one diagonal block only).
        Entry (p, q) of a block reads C's entry (p, q), the xy entry for
        both (0, 1) and (1, 0).
        """
        pattern = self.layout.pattern
        dim = pattern.dim
        # an anchor edge's second end is the anchor and is never used
        ends = self._ends
        every = np.arange(len(ends))
        uu = every[:self._n_uu]
        p, q = np.divmod(np.arange(4), 2)
        entry = p + q                           # xx 0, xy 1, yx 1, yy 2
        rows, cols, signs = [], [], []
        for first, second, sign, k in (
            (0, 0, 1.0, every), (1, 1, 1.0, uu), (0, 1, -1.0, uu), (1, 0, -1.0, uu),
        ):
            r = 2 * ends[k, first, None] + p
            c = 2 * ends[k, second, None] + q
            rows.append((r * dim + c).ravel())
            cols.append((entry * len(ends) + k[:, None]).ravel())
            signs.append(np.full(r.size, sign))
        rows, cols, signs = (np.concatenate(v) for v in (rows, cols, signs))
        rows = pattern.index(*np.divmod(rows, dim))
        return sparse.csr_matrix(
            (signs, (rows, cols)), shape=(pattern.nnz, 3 * len(ends))
        )
