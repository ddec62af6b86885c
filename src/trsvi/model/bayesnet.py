"""Randomly generated layered Bayes nets with Gaussian and two-component
Gaussian-mixture nodes.

Nodes live in layers; a non-root node is conditioned on a small subset of the
previous layer through a linear mean.  Variances are drawn log-uniformly over
a configurable order-of-magnitude range, which makes the joints deliberately
ill-conditioned.  The joint of a net without mixture nodes is Gaussian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .layout import (FactorLayout, TargetModel, csr_in_order,
                     reciprocal_is_normal)

ROOT = "root"
LINEAR = "linear"
GMM = "gmm"

_LOG_2PI = float(np.log(2.0 * np.pi))


def _logaddexp(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """log(exp(c0) + exp(c1)) as log1p(exp(lo - hi)) + hi: bitwise what
    `scipy.special.logsumexp` gives for the stacked pair, ties included
    (there log1p(0) + log(2) + hi, and log1p(1) == log(2)), at a twentieth
    of its cost for two terms."""
    hi = np.maximum(c0, c1)
    lo = np.minimum(c0, c1)
    lo -= hi
    np.exp(lo, out=lo)
    np.log1p(lo, out=lo)
    lo += hi
    return lo


@dataclass(frozen=True)
class BayesNode:
    """One conditional distribution in the net.

    kind: "root" (Gaussian marginal), "linear" (linear-Gaussian), or
        "gmm" (two-component mixture of linear Gaussians, shared variance).
    parents: global node indices, all from the immediately preceding layer.
    weights: one weight tuple per mixture component (one for root/linear).
    component_weights: mixture weights, summing to one.
    mean_offset: marginal mean, used by roots only.
    variance: conditional variance, strictly positive.
    """

    kind: str
    parents: tuple[int, ...]
    weights: tuple[tuple[float, ...], ...]
    component_weights: tuple[float, ...]
    mean_offset: float
    variance: float

    def __post_init__(self):
        if self.kind not in (ROOT, LINEAR, GMM):
            raise ValueError(f"unknown node kind {self.kind!r}")
        if not reciprocal_is_normal(self.variance):
            raise ValueError(f"variance {self.variance!r}: 1 / variance must "
                             "be a finite normal number")
        if self.kind == ROOT:
            if self.parents:
                raise ValueError("root nodes have no parents")
        else:
            if not self.parents:
                raise ValueError("non-root nodes need at least one parent")
            for w in self.weights:
                if len(w) != len(self.parents):
                    raise ValueError("one weight per parent per component")
        n_comp = 2 if self.kind == GMM else 1
        if len(self.component_weights) != n_comp or len(self.weights) != n_comp:
            raise ValueError(f"{self.kind} node needs {n_comp} component(s)")
        if self.kind == GMM:
            w1, w2 = self.component_weights
            if not (0.0 < w1 < 1.0 and 0.0 < w2 < 1.0):
                raise ValueError("mixture weights must lie in (0, 1)")
            if abs(w1 + w2 - 1.0) > 1e-12:
                raise ValueError("mixture weights must sum to one")


@dataclass(frozen=True)
class BayesNetSpec:
    """Layered net; node index = position in layer-major order."""

    layers: tuple[tuple[BayesNode, ...], ...]

    def __post_init__(self):
        if not self.layers or any(not layer for layer in self.layers):
            raise ValueError("every layer must contain at least one node")
        offsets = self.layer_offsets()
        for li, layer in enumerate(self.layers):
            prev_lo = offsets[li - 2] if li >= 2 else 0
            prev_hi = offsets[li - 1] if li >= 1 else 0
            for node in layer:
                if node.kind == ROOT:
                    continue
                if li == 0:
                    raise ValueError("first-layer nodes cannot have parents")
                for p in node.parents:
                    if not prev_lo <= p < prev_hi:
                        raise ValueError(
                            "parents must lie in the immediately preceding layer"
                        )

    def layer_offsets(self) -> list[int]:
        """Cumulative node counts; offsets[i] = first index of layer i+1."""
        out = []
        total = 0
        for layer in self.layers:
            total += len(layer)
            out.append(total)
        return out

    @property
    def nodes(self) -> tuple[BayesNode, ...]:
        return tuple(n for layer in self.layers for n in layer)

    @property
    def total_dim(self) -> int:
        return sum(len(layer) for layer in self.layers)


@dataclass(frozen=True)
class BayesNetConfig:
    layer_sizes: tuple[int, ...]
    max_parents: int = 3
    gmm_nodes: int = 0
    mean_range: tuple[float, float] = (0.0, 2.0)
    variance_range: tuple[float, float] = (1e-3, 1.0)
    seed: int = 0


def generate_bayes_net(config: BayesNetConfig) -> BayesNetSpec:
    """Draw a random layered net; deterministic given the config seed."""
    sizes = tuple(int(s) for s in config.layer_sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("layer sizes must all be >= 1")
    if config.max_parents < 1:
        raise ValueError("max_parents must be >= 1")
    n_non_root = sum(sizes[1:])
    if config.gmm_nodes < 0 or config.gmm_nodes > n_non_root:
        raise ValueError(
            f"gmm_nodes must be in [0, {n_non_root}] for these layer sizes"
        )
    lo, hi = config.variance_range
    if not (0 < lo <= hi):
        raise ValueError("variance_range must be positive with lo <= hi")

    rng = np.random.default_rng(config.seed)
    non_root_ids = np.arange(sizes[0], sum(sizes))
    gmm_ids = set(
        rng.choice(non_root_ids, size=config.gmm_nodes, replace=False).tolist()
    ) if config.gmm_nodes else set()

    def draw_variance() -> float:
        return float(10.0 ** rng.uniform(np.log10(lo), np.log10(hi)))

    layers = []
    node_id = 0
    for li, size in enumerate(sizes):
        prev_start = sum(sizes[: li - 1]) if li > 0 else 0
        layer = []
        for _ in range(size):
            if li == 0:
                mu = float(rng.uniform(*config.mean_range))
                layer.append(
                    BayesNode(ROOT, (), ((),), (1.0,), mu, draw_variance())
                )
            else:
                k = int(rng.integers(1, min(config.max_parents, sizes[li - 1]) + 1))
                parents = np.sort(
                    rng.choice(np.arange(prev_start, prev_start + sizes[li - 1]),
                               size=k, replace=False)
                )
                if node_id in gmm_ids:
                    w1 = float(rng.uniform(0.4, 0.6))
                    weights = tuple(
                        tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=k))
                        for _ in range(2)
                    )
                    layer.append(
                        BayesNode(GMM, tuple(int(p) for p in parents), weights,
                                  (w1, 1.0 - w1), 0.0, draw_variance())
                    )
                else:
                    weights = (tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=k)),)
                    layer.append(
                        BayesNode(LINEAR, tuple(int(p) for p in parents), weights,
                                  (1.0,), 0.0, draw_variance())
                    )
            node_id += 1
        layers.append(tuple(layer))
    return BayesNetSpec(layers=tuple(layers))


def ancestral_sample(spec: BayesNetSpec, count: int, seed: int) -> np.ndarray:
    """Draw i.i.d. joint samples in topological (layer) order."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    out = np.empty((count, spec.total_dim))
    j = 0
    for layer in spec.layers:
        for node in layer:
            sd = np.sqrt(node.variance)
            if node.kind == ROOT:
                mean = node.mean_offset
            elif node.kind == LINEAR:
                mean = out[:, node.parents] @ np.asarray(node.weights[0])
            else:
                pick = rng.random(count) < node.component_weights[0]
                m1 = out[:, node.parents] @ np.asarray(node.weights[0])
                m2 = out[:, node.parents] @ np.asarray(node.weights[1])
                mean = np.where(pick, m1, m2)
            out[:, j] = mean + sd * rng.standard_normal(count)
            j += 1
    return out


def bayes_net_layout(spec: BayesNetSpec) -> FactorLayout:
    """One 1-D factor per node; blankets from the moralized graph."""
    d = spec.total_dim
    nodes = spec.nodes
    neighbors = [set() for _ in range(d)]
    for j, node in enumerate(nodes):
        for p in node.parents:
            neighbors[j].add(p)
            neighbors[p].add(j)
        for p in node.parents:          # co-parents become neighbors
            for q in node.parents:
                if p != q:
                    neighbors[p].add(q)
    return FactorLayout.from_factor_neighbors([1] * d, neighbors)


@dataclass(frozen=True, eq=False)
class _Components:
    """Gaussian components of the net's conditionals, one per column of the
    (width, C) tables: component c's residual is x_owner[c] minus the sum
    over slots k of weights[k, c] times row parents[k, c] of XT = [X^T; 1].
    A root's mean is 1 times its mean offset; a padded slot adds 1 * 0."""

    owner: np.ndarray
    parents: np.ndarray
    weights: np.ndarray

    def residuals(self, XT: np.ndarray) -> np.ndarray:
        """(C, n) residuals at the particles, the columns of XT; each mean
        adds its slots in order, the same for any particle count."""
        width, count = self.parents.shape
        terms = XT.take(self.parents.ravel(), axis=0)
        terms *= self.weights.reshape(-1, 1)
        terms = terms.reshape(width, count, -1)
        mean = terms[0]
        for k in range(1, width):
            mean += terms[k]
        return np.subtract(XT.take(self.owner, axis=0), mean, out=mean)


class BayesNetModel(TargetModel):
    """Joint density of a layered net with hand-coded derivatives.

    Every node has one Gaussian component in x_j - m(x_pa), a mixture node
    a second one.  The batch methods work on all components at once, with
    the particles along the last axis; the tables they use are built here.
    """

    def __init__(self, spec: BayesNetSpec):
        self.spec = spec
        self.layout = bayes_net_layout(spec)
        nodes = spec.nodes
        d = len(nodes)
        self._mixtures = np.array([j for j, node in enumerate(nodes)
                                   if node.kind == GMM], dtype=np.intp)
        # components: each node's first, in node order, then each mixture
        # node's second
        comps = ([(j, 0) for j in range(d)]
                 + [(j, 1) for j in self._mixtures.tolist()])
        width = max(len(node.parents) for node in nodes) or 1
        parents = np.full((width, len(comps)), d, dtype=np.intp)
        weights = np.zeros((width, len(comps)))
        # log of the component's mixture weight plus its Gaussian constant
        offset = np.empty((len(comps), 1))
        variance = np.empty((len(comps), 1))
        for c, (j, l) in enumerate(comps):
            node = nodes[j]
            const = -0.5 * (_LOG_2PI + np.log(node.variance))
            k = len(node.parents)
            if node.kind == ROOT:
                weights[0, c] = node.mean_offset
            else:
                parents[:k, c] = node.parents
                weights[:k, c] = node.weights[l]
            if node.kind == GMM:
                const = np.log(np.asarray(node.component_weights)[l]) + const
            offset[c] = const
            variance[c] = node.variance
        owner = np.array([j for j, _ in comps], dtype=np.intp)
        self._components = _Components(owner, parents, weights)
        self._offset, self._variance = offset, variance
        # the mixture nodes' first components, then their second ones
        rows = np.concatenate([self._mixtures, np.arange(d, len(comps))])
        self._mixture_rows = rows
        self._mixture_components = _Components(owner[rows], parents[:, rows],
                                               weights[:, rows])
        self._mixture_offset = offset[rows].reshape(2, -1, 1)
        self._mixture_variance = variance[d:]
        self._gradient_scatter = self._build_gradient_scatter()
        self._hessian_constant, self._hessian_scatter = self._build_hessian()

    def dimension_names(self) -> list[str]:
        return [f"x{j}" for j in range(self.spec.total_dim)]

    # Each node contributes log N(x_j; m(x_pa), s2) with the full constant so
    # that density values are comparable across evaluation points.

    def log_density(self, x: np.ndarray) -> float:
        x = self._check_point(x)
        return float(self.log_density_batch(x[None, :])[0])

    def log_density_batch(self, X: np.ndarray) -> np.ndarray:
        """Each node's term as in a loop over nodes (a mixture node's by
        `_logaddexp`), added to the total in node order by a sequential
        cumsum."""
        XT = self._stacked(X)
        resid = self._components.residuals(XT)
        logp = self._offset - 0.5 * resid**2 / self._variance
        d = XT.shape[0] - 1
        terms = logp[:d]
        terms[self._mixtures] = _logaddexp(logp[self._mixtures], logp[d:])
        return np.cumsum(terms, axis=0)[-1]

    def gradient_batch(self, X: np.ndarray) -> np.ndarray:
        """Each component's r (x_j - m) / s2, r its responsibility (1 outside
        mixtures), scattered to -1 at x_j and +w_p at each parent."""
        XT = self._stacked(X)
        resid = self._components.residuals(XT)
        terms = resid / self._variance
        rows = self._mixture_rows
        if rows.size:
            n = resid.shape[1]
            terms[rows] *= self._mixture_responsibilities(
                resid[rows].reshape(2, -1, n)).reshape(rows.size, n)
        return np.ascontiguousarray((self._gradient_scatter @ terms).T)

    def hessian_batch(self, X: np.ndarray) -> np.ndarray:
        """A constant row (roots and linear nodes) plus, per mixture node,
        r_0 C_0 + r_1 C_1 + r_0 r_1 (g_0 - g_1)(g_0 - g_1)^T, with C_l and
        g_l = -e_l u_l component l's curvature and gradient, u_l = (1, -w_l)
        over (own, parents) and e_l = (x_j - m_l) / s2.  This equals
        sum_l r_l g_l g_l^T - gbar gbar^T exactly, without its cancellation,
        and enters as coefficients (r_0, r_1, r_0 r_1 e_l e_m) of constant
        pattern entries.  The values are built as (nnz, n) rows and handed
        over as their (n, nnz) transpose, uncopied."""
        XT = self._stacked(X)
        n = XT.shape[1]
        if not self._mixtures.size:
            return np.tile(self._hessian_constant[:, None], n).T
        resid = self._mixture_components.residuals(XT).reshape(2, -1, n)
        r = self._mixture_responsibilities(resid)
        e = resid / self._mixture_variance
        coef = np.empty((5,) + r.shape[1:])
        coef[:2] = r
        coef[2:] = r[0] * r[1] * e[[0, 0, 1]] * e[[0, 1, 1]]
        values = self._hessian_scatter @ coef.reshape(-1, n)
        values += self._hessian_constant[:, None]
        return values.T

    def _mixture_responsibilities(self, resid: np.ndarray) -> np.ndarray:
        """Responsibilities (2, G, n) of the mixture nodes' two components,
        a softmax of the components' log terms at their residuals (2, G, n):
        each exp is of a value <= 0, so any finite residuals give finite
        responsibilities, a saturated component's exactly 0 or 1."""
        logits = self._mixture_offset - 0.5 * resid**2 / self._mixture_variance
        logits -= np.maximum(logits[0], logits[1])
        np.exp(logits, out=logits)
        logits /= logits[0] + logits[1]
        return logits

    @staticmethod
    def _stacked(X: np.ndarray) -> np.ndarray:
        """[X^T; 1]: one row per coordinate, then a row of ones."""
        X = np.asarray(X, dtype=float)
        XT = np.empty((X.shape[1] + 1, X.shape[0]))
        XT[:-1] = X.T
        XT[-1] = 1.0
        return XT

    def _build_gradient_scatter(self) -> sparse.csr_matrix:
        """Sparse (dim, components) matrix: -1 at each component's own
        coordinate, its weight at each parent; a row adds its terms in
        component order."""
        comps = self._components
        d = self.layout.total_dim
        # per component: its own coordinate, then its parents' rows of XT
        rows = np.vstack([comps.owner, comps.parents]).T
        values = np.vstack([-np.ones(comps.owner.size), comps.weights]).T
        cols = np.broadcast_to(np.arange(comps.owner.size)[:, None], rows.shape)
        keep = rows < d                     # the row of ones is no coordinate
        return csr_in_order(values[keep], rows[keep], cols[keep],
                            (d, comps.owner.size))

    def _build_hessian(self):
        """The Hessian's x-independent pattern row, its roots' and linear
        nodes' terms added in node order, and the sparse (nnz, 5 G) matrix
        from each mixture node's coefficients (r_0, r_1, r_0 r_1 e_0^2,
        r_0 r_1 e_0 e_1, r_0 r_1 e_1^2) to pattern entries; a row adds
        them in mixture and coefficient order, so an entry and its
        transpose take the same steps."""
        pattern = self.layout.pattern
        constant = np.zeros(pattern.nnz)
        g = self._mixtures.size
        rows, cols, values = [], [], []
        for j, node in enumerate(self.spec.nodes):
            idx = np.array((j,) + node.parents, dtype=np.intp)
            family = pattern.index(idx[:, None], idx[None, :])
            s2 = node.variance
            if node.kind == ROOT:
                constant[family[0, 0]] -= 1.0 / s2
            elif node.kind == LINEAR:
                w = np.asarray(node.weights[0])
                constant[family[0, 0]] -= 1.0 / s2
                constant[family[0, 1:]] += w / s2
                constant[family[1:, 0]] += w / s2
                constant[family[1:, 1:]] -= np.outer(w, w) / s2
            else:
                u0, u1 = (np.concatenate(([1.0], -np.asarray(w)))
                          for w in node.weights)
                blocks = (-np.outer(u0, u0) / s2, -np.outer(u1, u1) / s2,
                          np.outer(u0, u0),
                          -(np.outer(u0, u1) + np.outer(u1, u0)),
                          np.outer(u1, u1))
                # coefficient t of mixture m is column t * G + m
                m = np.searchsorted(self._mixtures, j)
                for t, block in enumerate(blocks):
                    rows.append(family.ravel())
                    cols.append(np.full(family.size, t * g + m))
                    values.append(block.ravel())
        if not rows:
            return constant, None
        scatter = csr_in_order(np.concatenate(values), np.concatenate(rows),
                               np.concatenate(cols), (pattern.nnz, 5 * g))
        return constant, scatter
