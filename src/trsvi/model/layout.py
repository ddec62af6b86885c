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
        entries, twins: (P, |C_a|, |C_b|) and (P, |C_b|, |C_a|) positions in
            the layout's `HessianPattern` of the block's entries and of its
            transpose's.
    """

    a: np.ndarray
    b: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    mask: np.ndarray
    entries: np.ndarray
    twins: np.ndarray


@dataclass(frozen=True, eq=False)
class HessianPattern:
    """Where a Hessian over a layout can be nonzero: both triangles of every
    overlapping factor pair's block.  A stack of such Hessians is stored as
    an (n, nnz) array of values whose columns follow `flat`.

    Attributes:
        dim: number of state dimensions.
        flat: (nnz,) sorted flat (row * dim + col) indices of the entries.
        rows, cols: (nnz,) row and column of each entry.
        starts: (dim + 1,) where each row's entries begin, then nnz; every
            row holds at least its diagonal entry.
        upper: ascending positions of the entries with row <= col.
        from_upper: (nnz,) for each entry, the index into `upper` of itself
            or, below the diagonal, of its transpose.
    """

    dim: int
    flat: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    starts: np.ndarray
    upper: np.ndarray
    from_upper: np.ndarray

    @classmethod
    def from_flat(cls, flat: np.ndarray, dim: int) -> "HessianPattern":
        rows, cols = np.divmod(flat, dim)
        upper = np.flatnonzero(rows <= cols)
        twin = np.searchsorted(flat, np.minimum(rows, cols) * dim
                               + np.maximum(rows, cols))
        return cls(dim=dim, flat=flat, rows=rows, cols=cols,
                   starts=np.searchsorted(rows, np.arange(dim + 1)),
                   upper=upper, from_upper=np.searchsorted(upper, twin))

    @property
    def nnz(self) -> int:
        return self.flat.size

    def index(self, rows, cols) -> np.ndarray:
        """Positions of the entries (rows, cols), broadcast together; each
        must lie in the pattern."""
        flat = (np.asarray(rows, dtype=np.intp) * self.dim
                + np.asarray(cols, dtype=np.intp))
        pos = np.searchsorted(self.flat, flat)
        if not np.array_equal(self.flat[np.minimum(pos, self.nnz - 1)], flat):
            raise ValueError("entry outside the Hessian pattern")
        return pos

    def block_diagonal(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR column indices and row pointers of n Hessians' (n, nnz)
        values laid along the diagonal of one (n * dim, n * dim) matrix.
        Kept for the last n asked, in the index type scipy would convert
        them to, so that building such a matrix copies nothing."""
        cached = getattr(self, "_block_diagonal", None)
        if cached is None or cached[0] != n:
            dtype = np.int32 if n * self.nnz < 2**31 else np.int64
            first = np.arange(n)[:, None]
            indices = (first * self.dim + self.cols).ravel().astype(dtype)
            indptr = np.append((first * self.nnz + self.starts[:-1]).ravel(),
                               n * self.nnz).astype(dtype)
            cached = (n, indices, indptr)
            object.__setattr__(self, "_block_diagonal", cached)
        return cached[1], cached[2]

    def dense(self, values: np.ndarray) -> np.ndarray:
        """The (n, dim, dim) matrices of (n, nnz) pattern values, zero off
        the pattern."""
        out = np.zeros((values.shape[0], self.dim * self.dim))
        out[:, self.flat] = values
        return out.reshape(-1, self.dim, self.dim)


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
            f, member, pattern = self.factors, self.membership(), self.pattern()
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
                cached.append(PairGroup(
                    a=a, b=b, rows=rows, cols=cols, mask=mask,
                    entries=pattern.index(rows[:, :, None], cols[:, None, :]),
                    twins=pattern.index(cols[:, :, None], rows[:, None, :])))
            object.__setattr__(self, "_pair_groups", cached)
        return cached

    def pattern(self) -> HessianPattern:
        """The entries that the blocks of overlapping factor pairs cover,
        in both triangles: where a model or Stein Hessian can be nonzero."""
        cached = getattr(self, "_pattern", None)
        if cached is None:
            sizes = self._sizes()
            covered = np.repeat(np.repeat(self.overlap_matrix(), sizes, axis=0),
                                sizes, axis=1)
            cached = HessianPattern.from_flat(np.flatnonzero(covered),
                                              self.total_dim)
            object.__setattr__(self, "_pattern", cached)
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
    """Evaluable log-density with analytic gradient and Hessians over the
    layout's pattern.

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

    @abstractmethod
    def hessian_batch(self, X: np.ndarray) -> np.ndarray:
        """Hessians of log p at the rows of X, as (n, nnz) values over
        `layout.pattern()`; every entry off the pattern is zero."""

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Dense Hessian of log p at x, scattered from `hessian_batch`."""
        x = self._check_point(x)
        return self.layout.pattern().dense(self.hessian_batch(x[None, :]))[0]

    # Batched evaluation over a particle matrix.  The defaults loop; models
    # override these with vectorized versions where it matters.

    def log_density_batch(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.log_density(x) for x in X])

    def gradient_batch(self, X: np.ndarray) -> np.ndarray:
        return np.stack([self.gradient(x) for x in X])

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
