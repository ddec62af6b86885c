"""Factor layouts and the evaluable target-distribution contract.

A target distribution factors its state space into contiguous blocks of
dimensions ("factors").  Each factor carries a blanket: the set of dimensions
that render it conditionally independent of everything else.  Local kernels,
blanket-sparse Hessians and the per-factor Stein updates are all driven by
this structure.  Factors whose blankets hold the same dimensions share one
local kernel.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse


class SingularityError(ValueError):
    """A log-density derivative is undefined at the requested point."""


def reciprocal_is_normal(value, power: int = 1) -> bool:
    """Whether 1 / value**power is a finite normal number: the floor of a
    variance, which the models divide by, and (power 4) of a kernel
    lengthscale, whose fourth power the local Hessians divide by."""
    try:
        return sys.float_info.min <= 1.0 / math.pow(value, power) < math.inf
    except (OverflowError, ZeroDivisionError):
        return False


def csr_in_order(values, rows, cols, shape) -> sparse.csr_matrix:
    """A CSR matrix whose rows keep their entries in the order given, so a
    product with it adds each row's terms in that order."""
    order = np.argsort(rows, kind="stable")
    return sparse.csr_matrix(
        (values[order], cols[order],
         np.searchsorted(rows[order], np.arange(shape[0] + 1))),
        shape=shape)


def _index_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.intp)
    if arr.ndim != 1:
        raise ValueError("index sets must be one-dimensional")
    return arr


@dataclass(frozen=True, eq=False)
class PairGroup:
    """Overlapping factor pairs (a, b), a <= b, whose blocks share one shape.

    Attributes:
        diagonal: every pair is (a, a) with a block larger than 1 x 1, so
            that its upper triangle determines it.  Other groups hold no
            such pair.
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

    diagonal: bool
    a: np.ndarray
    b: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    mask: np.ndarray
    entries: np.ndarray
    twins: np.ndarray


@dataclass(frozen=True, eq=False)
class FactorGroup:
    """Distinct blankets whose sharing factors have the same sizes, in
    order: one consecutive run of a local context's kernels.

    Attributes:
        kernels: (F,) consecutive ascending kernel indices.
        factors: (F, m) the ascending factors that share each kernel.
        dims: (F, W) the state dimensions of those factors, side by side.
    """

    kernels: np.ndarray
    factors: np.ndarray
    dims: np.ndarray

    def chunk(self, part: slice) -> "FactorGroup":
        """The group restricted to a slice of its kernels."""
        return FactorGroup(self.kernels[part], self.factors[part],
                           self.dims[part])


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
    The tables derived from them are cached properties, built on first use.
    Among them, `factor_groups` and `kernel_index` number the distinct
    blankets, one local kernel each, and map every factor to its kernel.

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
        own = self.membership[owner, np.arange(self.total_dim)]
        if not own.all():
            a = owner[np.argmin(own)]
            raise ValueError(f"blanket {a} must contain its own factor")
        overlap = self.overlap_matrix
        if not np.array_equal(overlap, overlap.T):
            raise ValueError("blanket structure must be symmetric at factor level")

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    def _sizes(self) -> list[int]:
        return [f.size for f in self.factors]

    @cached_property
    def membership(self) -> np.ndarray:
        """Boolean (D, total_dim) matrix: entry (a, j) true iff dimension j
        lies in blanket a."""
        member = np.zeros((self.n_factors, self.total_dim), dtype=bool)
        for a, bl in enumerate(self.blankets):
            member[a, bl] = True
        return member

    @cached_property
    def overlap_matrix(self) -> np.ndarray:
        """Boolean (D, D) matrix: entry (a, b) true iff factor b meets blanket a."""
        # factors are contiguous, so OR-ing each factor's run of columns
        # asks whether any of its dimensions lies in the blanket
        starts = np.cumsum([0] + self._sizes()[:-1])
        return np.logical_or.reduceat(self.membership, starts, axis=1)

    @cached_property
    def overlapping_pairs(self) -> list[tuple[int, int]]:
        """Factor pairs (a, b), a <= b, whose blocks can be nonzero."""
        upper = np.nonzero(np.triu(self.overlap_matrix))
        return [(int(a), int(b)) for a, b in zip(*upper)]

    @cached_property
    def factor_groups(self) -> list[FactorGroup]:
        """The distinct blankets, each with the factors whose blankets hold
        exactly its dimensions, grouped by those factors' sizes.  Groups and
        their blankets come in order of each blanket's first factor, and
        the blankets are numbered group after group: the kernel indices."""
        sharing: dict[bytes, list[int]] = {}
        for a, blanket in enumerate(self.blankets):
            sharing.setdefault(blanket.tobytes(), []).append(a)
        by_sizes: dict[tuple[int, ...], list[list[int]]] = {}
        for members in sharing.values():
            by_sizes.setdefault(tuple(self.factors[a].size for a in members),
                                []).append(members)
        groups, start = [], 0
        for runs in by_sizes.values():
            groups.append(FactorGroup(
                np.arange(start, start + len(runs)),
                np.array(runs, dtype=np.intp),
                np.stack([np.concatenate([self.factors[a] for a in members])
                          for members in runs])))
            start += len(runs)
        return groups

    @cached_property
    def kernel_index(self) -> np.ndarray:
        """(D,) each factor's index among the distinct blankets: where a
        local context holds its kernel.  Factors whose blankets hold the
        same dimensions share one kernel."""
        index = np.empty(self.n_factors, dtype=np.intp)
        for g in self.factor_groups:
            index[g.factors] = g.kernels[:, None]
        return index

    @cached_property
    def padded_blankets(self) -> tuple[np.ndarray, np.ndarray]:
        """Every distinct blanket, in kernel order, as a row of one (U, w)
        index array, w the widest blanket's size, each row padded past its
        blanket by repeating the blanket's last index; and the (U,) blanket
        sizes."""
        blankets = [self.blankets[a] for g in self.factor_groups
                    for a in g.factors[:, 0]]
        widths = np.array([b.size for b in blankets], dtype=np.intp)
        index = np.stack([np.pad(b, (0, widths.max() - b.size), mode="edge")
                          for b in blankets])
        return index, widths

    @cached_property
    def pair_groups(self) -> list[PairGroup]:
        """Overlapping pairs grouped by block shape, in pair order, with the
        diagonal pairs (a, a) of blocks larger than 1 x 1 apart."""
        f, member, pattern = self.factors, self.membership, self.pattern
        by_shape: dict[tuple[int, int, bool], list[tuple[int, int]]] = {}
        for a, b in self.overlapping_pairs:
            diagonal = a == b and f[a].size > 1
            by_shape.setdefault((f[a].size, f[b].size, diagonal),
                                []).append((a, b))
        groups = []
        for (*_, diagonal), pairs in by_shape.items():
            a = np.array([a for a, _ in pairs], dtype=np.intp)
            b = np.array([b for _, b in pairs], dtype=np.intp)
            rows = np.stack([f[k] for k in a])
            cols = np.stack([f[k] for k in b])
            in_b = member[b[:, None], rows]           # C_a's dims in blanket b
            in_a = member[a[:, None], cols]           # C_b's dims in blanket a
            mask = (in_b[:, :, None] & in_a[:, None, :]).astype(float)
            groups.append(PairGroup(
                diagonal=diagonal, a=a, b=b, rows=rows, cols=cols, mask=mask,
                entries=pattern.index(rows[:, :, None], cols[:, None, :]),
                twins=pattern.index(cols[:, :, None], rows[:, None, :])))
        return groups

    @cached_property
    def pattern(self) -> HessianPattern:
        """The entries that the blocks of overlapping factor pairs cover,
        in both triangles: where a model or Stein Hessian can be nonzero."""
        sizes = self._sizes()
        covered = np.repeat(np.repeat(self.overlap_matrix, sizes, axis=0),
                            sizes, axis=1)
        return HessianPattern.from_flat(np.flatnonzero(covered),
                                        self.total_dim)

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
    call concurrently.  Derivatives are hand-coded, not autodiffed.  The
    batch methods are the contract; `gradient` and `hessian` read one row.
    """

    layout: FactorLayout

    @abstractmethod
    def log_density(self, x: np.ndarray) -> float:
        """Log p(x) including normalizing constants."""

    @abstractmethod
    def log_density_batch(self, X: np.ndarray) -> np.ndarray:
        """Log p at each row of X.

        Row contract: for finite rows, row k equals `log_density(X[k])`
        bitwise, whatever the other rows and however many there are.  A
        vectorized form must fix each row's order of operations (a gemv or
        a strided sum can change it with the row count).
        `metropolis_reference` relies on this to prefetch proposals.
        """

    @abstractmethod
    def gradient_batch(self, X: np.ndarray) -> np.ndarray:
        """Analytic gradients of log p at the rows of X, (n, dim)."""

    @abstractmethod
    def hessian_batch(self, X: np.ndarray) -> np.ndarray:
        """Hessians of log p at the rows of X, as (n, nnz) values over
        `layout.pattern`; every entry off the pattern is zero.  The
        transpose of a C-ordered (nnz, n) array, the bundled models' form,
        is read as rows without a copy."""

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Analytic gradient of log p at x."""
        x = self._check_point(x)
        return self.gradient_batch(x[None, :])[0]

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """Dense Hessian of log p at x, scattered from `hessian_batch`."""
        x = self._check_point(x)
        return self.layout.pattern.dense(self.hessian_batch(x[None, :]))[0]

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
