"""Factor layouts and the evaluable target-distribution contract.

A target distribution factors its state space into contiguous blocks of
dimensions ("factors").  Each factor carries a blanket: the set of dimensions
that render it conditionally independent of everything else.  Local kernels,
blanket-sparse Hessians and the per-factor Stein updates are all driven by
this structure.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


class SingularityError(ValueError):
    """A log-density derivative is undefined at the requested point."""


def _index_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.intp)
    if arr.ndim != 1:
        raise ValueError("index sets must be one-dimensional")
    return arr


@dataclass(frozen=True, eq=False)
class PairGroup:
    """Overlapping factor pairs (a, b), a <= b, whose blocks share one shape.

    Attributes:
        a, b: (P,) factor indices of each pair.
        rows, cols: (P, |C_a|) and (P, |C_b|) state dimensions of the pair's
            block.
        mask: (P, |C_a|, |C_b|) 0/1 support of the kernel cross term: entry
            (p, q) is 1 iff C_a's dim p lies in blanket b and C_b's dim q lies
            in blanket a.
    """

    a: np.ndarray
    b: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    mask: np.ndarray


@dataclass(frozen=True, eq=False)
class FactorLayout:
    """Partition of the state dimensions into factors plus per-factor blankets.

    Attributes:
        factors: ordered contiguous index ranges covering every dimension.
        blankets: per-factor sorted index sets; blanket a contains factor a.
        total_dim: number of scalar dimensions.
    """

    factors: tuple[np.ndarray, ...]
    blankets: tuple[np.ndarray, ...]
    total_dim: int

    def __post_init__(self):
        factors = tuple(_index_array(f) for f in self.factors)
        blankets = tuple(np.unique(_index_array(b)) for b in self.blankets)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "blankets", blankets)
        if len(factors) == 0:
            raise ValueError("layout needs at least one factor")
        if len(blankets) != len(factors):
            raise ValueError("one blanket per factor required")
        concat = np.concatenate(factors)
        if concat.size != self.total_dim or not np.array_equal(
            concat, np.arange(self.total_dim)
        ):
            raise ValueError(
                "factors must be an ordered contiguous partition of all dimensions"
            )
        if any(f.size == 0 for f in factors):
            raise ValueError("factors must be nonempty")
        for a, bl in enumerate(blankets):
            if bl.size and (bl[0] < 0 or bl[-1] >= self.total_dim):
                raise ValueError(f"blanket {a} indexes outside the state space")
        owner = np.repeat(np.arange(len(factors)), self._sizes())
        own = self.membership()[owner, np.arange(self.total_dim)]
        if not own.all():
            a = owner[np.argmin(own)]
            raise ValueError(f"blanket {a} must contain its own factor")
        overlap = self.overlap_matrix()
        if not np.array_equal(overlap, overlap.T):
            raise ValueError("blanket structure must be symmetric at factor level")

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    def _sizes(self) -> list[int]:
        return [f.size for f in self.factors]

    def membership(self) -> np.ndarray:
        """Boolean (D, total_dim) matrix: entry (a, j) true iff dimension j
        lies in blanket a."""
        cached = getattr(self, "_membership", None)
        if cached is None:
            cached = np.zeros((self.n_factors, self.total_dim), dtype=bool)
            for a, bl in enumerate(self.blankets):
                cached[a, bl] = True
            object.__setattr__(self, "_membership", cached)
        return cached

    def overlap_matrix(self) -> np.ndarray:
        """Boolean (D, D) matrix: entry (a, b) true iff factor b meets blanket a."""
        cached = getattr(self, "_overlap_matrix", None)
        if cached is None:
            # factors are contiguous, so OR-ing each factor's run of columns
            # asks whether any of its dimensions lies in the blanket
            starts = np.cumsum([0] + self._sizes()[:-1])
            cached = np.logical_or.reduceat(self.membership(), starts, axis=1)
            object.__setattr__(self, "_overlap_matrix", cached)
        return cached

    def overlapping_pairs(self) -> list[tuple[int, int]]:
        """Factor pairs (a, b), a <= b, whose blocks can be nonzero."""
        cached = getattr(self, "_overlapping_pairs", None)
        if cached is None:
            upper = np.nonzero(np.triu(self.overlap_matrix()))
            cached = [(int(a), int(b)) for a, b in zip(*upper)]
            object.__setattr__(self, "_overlapping_pairs", cached)
        return cached

    def pair_groups(self) -> list[PairGroup]:
        """Overlapping pairs grouped by block shape, in pair order."""
        cached = getattr(self, "_pair_groups", None)
        if cached is None:
            f, member = self.factors, self.membership()
            by_shape: dict[tuple[int, int], list[tuple[int, int]]] = {}
            for a, b in self.overlapping_pairs():
                by_shape.setdefault((f[a].size, f[b].size), []).append((a, b))
            cached = []
            for pairs in by_shape.values():
                a = np.array([a for a, _ in pairs], dtype=np.intp)
                b = np.array([b for _, b in pairs], dtype=np.intp)
                rows = np.stack([f[k] for k in a])
                cols = np.stack([f[k] for k in b])
                in_b = member[b[:, None], rows]           # C_a's dims in blanket b
                in_a = member[a[:, None], cols]           # C_b's dims in blanket a
                mask = (in_b[:, :, None] & in_a[:, None, :]).astype(float)
                cached.append(PairGroup(a=a, b=b, rows=rows, cols=cols, mask=mask))
            object.__setattr__(self, "_pair_groups", cached)
        return cached

    def upper_pattern(self) -> np.ndarray:
        """Sorted flat (row * total_dim + col) indices, row <= col, of the
        entries that the blocks of overlapping factor pairs cover: where a
        model Hessian's upper triangle can be nonzero."""
        cached = getattr(self, "_upper_pattern", None)
        if cached is None:
            sizes = self._sizes()
            covered = np.repeat(np.repeat(self.overlap_matrix(), sizes, axis=0),
                                sizes, axis=1)
            cached = np.flatnonzero(np.triu(covered))
            object.__setattr__(self, "_upper_pattern", cached)
        return cached

    @classmethod
    def single_factor(cls, total_dim: int) -> "FactorLayout":
        dims = np.arange(total_dim)
        return cls(factors=(dims,), blankets=(dims,), total_dim=total_dim)

    @classmethod
    def from_factor_neighbors(
        cls, factor_sizes, neighbors
    ) -> "FactorLayout":
        """Build a layout from factor sizes and factor-level adjacency.

        ``neighbors[a]`` lists the factors (excluding a itself is fine) whose
        dimensions belong to blanket a.
        """
        starts = np.concatenate([[0], np.cumsum(factor_sizes)])
        total = int(starts[-1])
        factors = tuple(
            np.arange(starts[a], starts[a + 1]) for a in range(len(factor_sizes))
        )
        blankets = []
        for a in range(len(factor_sizes)):
            members = sorted(set(neighbors[a]) | {a})
            blankets.append(np.concatenate([factors[m] for m in members]))
        return cls(factors=factors, blankets=tuple(blankets), total_dim=total)


class TargetModel(ABC):
    """Evaluable log-density with analytic gradient and factor-pair Hessian blocks.

    Implementations must be pure functions of (model parameters, x): safe to
    call concurrently.  Derivatives are hand-coded, not autodiffed.
    """

    layout: FactorLayout

    @abstractmethod
    def log_density(self, x: np.ndarray) -> float:
        """Log p(x) including normalizing constants."""

    @abstractmethod
    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Analytic gradient of log p at x."""

    def hessian_block(self, a: int, b: int, x: np.ndarray) -> np.ndarray:
        """Second-derivative block over (factor a, factor b) coordinates."""
        layout = self.layout
        if not (0 <= a < layout.n_factors and 0 <= b < layout.n_factors):
            raise IndexError("factor index out of range")
        hess = self.hessian(x)
        return hess[np.ix_(layout.factors[a], layout.factors[b])]

    @abstractmethod
    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Dense Hessian of log p at x; blanket-sparse entries are exact zeros."""

    # Batched evaluation over a particle matrix.  The defaults loop; models
    # override these with vectorized versions where it matters.

    def log_density_batch(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.log_density(x) for x in X])

    def gradient_batch(self, X: np.ndarray) -> np.ndarray:
        return np.stack([self.gradient(x) for x in X])

    def hessian_batch(self, X: np.ndarray) -> np.ndarray:
        return np.stack([self.hessian(x) for x in X])

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.layout.total_dim,):
            raise ValueError(
                f"expected state vector of length {self.layout.total_dim}, "
                f"got shape {x.shape}"
            )
        if not np.isfinite(x).all():
            raise ValueError("state vector must be finite")
        return x


def eval_target(target: TargetModel, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Log-density and analytic gradient at a single point."""
    x = target._check_point(x)
    return target.log_density(x), target.gradient(x)


def target_hessian_block(
    target: TargetModel, a: int, b: int, x: np.ndarray
) -> np.ndarray:
    """|C_a| x |C_b| second-derivative block; zero when b is outside blanket a."""
    x = target._check_point(x)
    return target.hessian_block(a, b, x)


def markov_blanket(target: TargetModel, a: int) -> np.ndarray:
    """Dimension index set S_a: factor a's own dims plus its Markov blanket."""
    if not 0 <= a < target.layout.n_factors:
        raise IndexError("factor index out of range")
    return target.layout.blankets[a].copy()
