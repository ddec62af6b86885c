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

from .layout import FactorLayout, TargetModel

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
        if self.variance <= 0 or not np.isfinite(self.variance):
            raise ValueError("variance must be positive and finite")
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


def _parent_sum(X: np.ndarray, parents: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_p w_p X[:, parents[p]], added in parent order.  Each row's value is
    then the same whatever the other rows; a gemv's order can change with
    the row count."""
    out = X[:, parents[0]] * w[0]
    for p, wp in zip(parents[1:], w[1:]):
        out += X[:, p] * wp
    return out


class BayesNetModel(TargetModel):
    """Joint density of a layered net with hand-coded derivatives."""

    def __init__(self, spec: BayesNetSpec):
        self.spec = spec
        self.layout = bayes_net_layout(spec)
        self._nodes = []
        for j, node in enumerate(spec.nodes):
            self._nodes.append(
                (
                    j,
                    node.kind,
                    np.asarray(node.parents, dtype=np.intp),
                    [np.asarray(w, dtype=float) for w in node.weights],
                    np.asarray(node.component_weights, dtype=float),
                    node.mean_offset,
                    node.variance,
                )
            )
        # pattern positions of each node's (own, parents) x (own, parents)
        # Hessian entries
        pattern = self.layout.pattern()
        self._families = [
            pattern.index(idx[:, None], idx[None, :])
            for idx in (np.concatenate(([j], parents))
                        for j, _, parents, *_ in self._nodes)
        ]

    def dimension_names(self) -> list[str]:
        return [f"x{j}" for j in range(self.spec.total_dim)]

    # Each node contributes log N(x_j; m(x_pa), s2) with the full constant so
    # that density values are comparable across evaluation points.

    def log_density(self, x: np.ndarray) -> float:
        x = self._check_point(x)
        return float(self.log_density_batch(x[None, :])[0])

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._check_point(x)
        return self.gradient_batch(x[None, :])[0]

    def log_density_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        total = np.zeros(X.shape[0])
        for j, kind, parents, weights, comp_w, mu, s2 in self._nodes:
            const = -0.5 * (_LOG_2PI + np.log(s2))
            if kind == ROOT:
                total += const - 0.5 * (X[:, j] - mu) ** 2 / s2
            elif kind == LINEAR:
                mean = _parent_sum(X, parents, weights[0])
                total += const - 0.5 * (X[:, j] - mean) ** 2 / s2
            else:
                c0, c1 = (
                    np.log(comp_w[l]) + const
                    - 0.5 * (X[:, j] - _parent_sum(X, parents, weights[l]))
                    ** 2 / s2
                    for l in range(2)
                )
                total += _logaddexp(c0, c1)
        return total

    def gradient_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.zeros_like(X)
        for j, kind, parents, weights, comp_w, mu, s2 in self._nodes:
            if kind == ROOT:
                out[:, j] -= (X[:, j] - mu) / s2
            elif kind == LINEAR:
                r = (X[:, j] - X[:, parents] @ weights[0]) / s2
                out[:, j] -= r
                out[:, parents] += r[:, None] * weights[0]
            else:
                resp, resid = self._responsibilities(X, j, parents, weights,
                                                     comp_w, s2)
                r = (resp * resid).sum(axis=0) / s2
                out[:, j] -= r
                out[:, parents] += np.einsum(
                    "ln,lp->np", resp * resid / s2, np.stack(weights)
                )
        return out

    def hessian_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        n = X.shape[0]
        out = np.zeros((n, self.layout.pattern().nnz))
        for (j, kind, parents, weights, comp_w, mu, s2), family in zip(
                self._nodes, self._families):
            if kind == ROOT:
                out[:, family[0, 0]] -= 1.0 / s2
            elif kind == LINEAR:
                w = weights[0]
                out[:, family[0, 0]] -= 1.0 / s2
                out[:, family[0, 1:]] += w / s2
                out[:, family[1:, 0]] += w / s2
                out[:, family[1:, 1:]] -= np.outer(w, w) / s2
            else:
                k = family.shape[0]
                resp, resid = self._responsibilities(X, j, parents, weights,
                                                     comp_w, s2)
                # per-component gradient over (own, parents) coordinates
                grads = np.empty((2, n, k))
                curv = np.empty((2, k, k))
                for l in range(2):
                    e = resid[l] / s2
                    grads[l, :, 0] = -e
                    grads[l, :, 1:] = e[:, None] * weights[l]
                    wl = weights[l]
                    curv[l, 0, 0] = -1.0 / s2
                    curv[l, 0, 1:] = wl / s2
                    curv[l, 1:, 0] = wl / s2
                    curv[l, 1:, 1:] = -np.outer(wl, wl) / s2
                gbar = np.einsum("ln,lnk->nk", resp, grads)
                # sqrt-weighted gradients keep the second-moment term exactly
                # transpose-symmetric in floating point
                sg = np.sqrt(resp)[:, :, None] * grads
                mix = np.einsum("ln,lkm->nkm", resp, curv)
                mix += np.einsum("lnk,lnm->nkm", sg, sg)
                mix -= np.einsum("nk,nm->nkm", gbar, gbar)
                out[:, family] += mix
        return out

    @staticmethod
    def _responsibilities(X, j, parents, weights, comp_w, s2):
        """Softmax weights of the two mixture components, in log space."""
        resid = np.stack(
            [X[:, j] - X[:, parents] @ weights[l] for l in range(2)]
        )
        logits = np.log(comp_w)[:, None] - 0.5 * resid**2 / s2
        logits -= logits.max(axis=0, keepdims=True)
        resp = np.exp(logits)
        resp /= resp.sum(axis=0, keepdims=True)
        return resp, resid
