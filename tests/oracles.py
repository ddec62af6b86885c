"""Independent reference implementations used only to check the package.

Everything here deliberately avoids the code paths under test: dense
eigendecompositions, explicit double loops, and finite differences.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy import sparse
from scipy.optimize import brentq
from scipy.spatial.distance import pdist

from trsvi import stein
from trsvi import trustregion as tr
from trsvi.evaluation import MetropolisResult, gradient_magnitude
from trsvi.kernels import (
    MEDIAN_SUBSAMPLE,
    DegenerateSampleError,
    KernelSpec,
    median_heuristic,
    rbf_matrix,
)
from trsvi.model.bayesnet import _logaddexp
from trsvi.stein import (
    ParticleSet,
    field_from_context,
    global_context,
    global_stein_gradient,
    graphical_stein_gradient,
    hessian_stack_from_context,
    local_context,
)
from trsvi.trustregion import (
    BOUNDARY,
    INTERIOR,
    NEG_CURVATURE,
    IterationRecord,
    RunTrace,
    solve_subproblems,
)


def fd_gradient(f, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        out[k] = (f(x + step) - f(x - step)) / (2.0 * h)
    return out


def fd_jacobian(g, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference Jacobian of a vector function (Hessian when g is a
    gradient)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = h
        cols.append((g(x + step) - g(x - step)) / (2.0 * h))
    return np.stack(cols, axis=1)


def model_value(H: np.ndarray, g: np.ndarray, w: np.ndarray) -> float:
    return float(g @ w + 0.5 * w @ H @ w)


def exact_trust_region(H: np.ndarray, g: np.ndarray, radius: float) -> np.ndarray:
    """Global minimizer of the quadratic model over the ball, by
    eigendecomposition plus a secular-equation root find (hard case included)."""
    lam, Q = np.linalg.eigh(H)
    gt = Q.T @ g
    if lam[0] > 0:
        newton = -gt / lam
        if np.linalg.norm(newton) <= radius:
            return Q @ newton

    nu0 = max(0.0, -lam[0])

    def norm_at(nu: float) -> float:
        return float(np.linalg.norm(gt / (lam + nu)))

    if nu0 > 0:
        critical = np.abs(lam + nu0) < 1e-12 * max(1.0, abs(nu0))
        if np.all(np.abs(gt[critical]) < 1e-13):
            # hard case: pseudo-inverse step plus a null-space component
            w_t = np.zeros_like(gt)
            safe = ~critical
            w_t[safe] = -gt[safe] / (lam[safe] + nu0)
            norm_sq = float(w_t @ w_t)
            if norm_sq <= radius**2:
                w_t[int(np.argmax(critical))] += np.sqrt(radius**2 - norm_sq)
                return Q @ w_t

    scale = max(1.0, abs(nu0))
    lo = nu0 + 1e-14 * scale
    tries = 0
    while norm_at(lo) <= radius and tries < 60:
        lo = nu0 + (lo - nu0) / 8.0 if lo > nu0 else nu0 + 1e-300
        tries += 1
        if lo == nu0:
            break
    hi = nu0 + scale
    while norm_at(hi) > radius:
        hi = nu0 + (hi - nu0) * 4.0
    nu = brentq(lambda v: norm_at(v) - radius, lo, hi, xtol=1e-14, rtol=1e-15,
                maxiter=400)
    return Q @ (-gt / (lam + nu))


def power_iteration_norm(apply, dim: int, iters: int = 300, seed: int = 0) -> float:
    """Spectral-norm estimate of a symmetric operator via power iteration."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    growth = 0.0
    for _ in range(iters):
        w = apply(v)
        growth = float(np.linalg.norm(w))
        if growth == 0.0:
            return 0.0
        v = w / growth
    return growth


def naive_mmd(X: np.ndarray, Y: np.ndarray, lengthscale: float) -> float:
    """Eq.-by-eq double-loop squared-MMD (row loop, no matrix tricks)."""
    inv = 0.5 / lengthscale**2

    def pair_sum(A, B):
        total = 0.0
        if A.shape[1] == 1:
            a, b = A[:, 0], B[:, 0]
            for i in range(a.size):
                total += float(np.exp(-inv * (b - a[i]) ** 2).sum())
        else:
            for i in range(A.shape[0]):
                total += float(np.exp(-inv * ((B - A[i]) ** 2).sum(axis=1)).sum())
        return total

    n, m = X.shape[0], Y.shape[0]
    return pair_sum(X, X) / n**2 - 2.0 * pair_sum(X, Y) / (n * m) \
        + pair_sum(Y, Y) / m**2


def _uncentred_strip_sum(block, Y, inv: float) -> float:
    terms = squared_distances_oracle(block, Y)
    terms *= -inv
    np.exp(terms, out=terms)
    return float(terms.sum())


def uncentred_kernel_sum(X, Y, lengthscale: float, strip_rows: int = 256) -> float:
    """The package's strip sum of k(x_i, y_j) before its strips came from
    `rbf_matrix`: each strip from uncentred squared distances, negated,
    scaled and exponentiated in place, bit for bit.  With 2048-row strips
    it is the pair sum from before the strips and the upper triangle."""
    inv = 0.5 / lengthscale**2
    total = 0.0
    for start in range(0, X.shape[0], strip_rows):
        total += _uncentred_strip_sum(X[start:start + strip_rows], Y, inv)
    return total


def uncentred_self_sum(X, lengthscale: float) -> float:
    """`uncentred_kernel_sum`'s counterpart for the upper-triangle
    self-sum: each diagonal strip once plus twice the strip against the
    later rows."""
    inv = 0.5 / lengthscale**2
    total = 0.0
    for start in range(0, X.shape[0], 256):
        stop = start + 256
        block = X[start:stop]
        total += _uncentred_strip_sum(block, block, inv)
        if stop < X.shape[0]:
            total += 2.0 * _uncentred_strip_sum(block, X[stop:], inv)
    return total


def longdouble_kernel_sum(X, Y, lengthscale: float):
    """Sum of k(x_i, y_j) over all pairs in long double, one row of X at a
    time from explicit differences: the reference for summed kernels."""
    Y = np.asarray(Y, dtype=np.longdouble)
    inv = 1 / (2 * np.longdouble(lengthscale) ** 2)
    total = np.longdouble(0)
    for x in np.asarray(X, dtype=np.longdouble):
        diff = Y - x
        total += np.exp(-inv * np.einsum("ij,ij->i", diff, diff)).sum()
    return total


def csv_writer_save_samples(path, samples: np.ndarray, names) -> None:
    """Sample CSV written one csv.writer row per sample."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in np.asarray(samples, dtype=float):
            writer.writerow([repr(float(v)) for v in row])


def repr_rows_save_samples(path, samples: np.ndarray, names) -> None:
    """Sample CSV whose body is one joined line of repr() values per row."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(names)
        fh.writelines(",".join(map(repr, row)) + "\r\n"
                      for row in np.asarray(samples, dtype=float).tolist())


def csv_reader_load_samples(path) -> tuple[np.ndarray, list[str]]:
    """Sample CSV read one csv.reader row at a time with float()."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader, None)
        if not names:
            raise ValueError(f"{path}: no header row of column names")
        try:
            rows = [[float(v) for v in row] for row in reader]
        except ValueError as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    for k, row in enumerate(rows):
        if len(row) != len(names):
            raise ValueError(f"{path}: data row {k + 1} has {len(row)} values, "
                             f"the header names {len(names)}")
    return np.asarray(rows, dtype=float).reshape(len(rows), len(names)), names


def pdist_median_heuristic(samples: np.ndarray, seed: int = 0) -> float:
    """The median heuristic as np.median over the full pdist vector, with
    the package's seeded subsample above MEDIAN_SUBSAMPLE rows."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.shape[0] < 2:
        raise ValueError("median heuristic needs at least two rows")
    if samples.shape[0] > MEDIAN_SUBSAMPLE:
        rng = np.random.default_rng(seed)
        idx = rng.choice(samples.shape[0], size=MEDIAN_SUBSAMPLE, replace=False)
        samples = samples[np.sort(idx)]
    value = float(np.median(pdist(samples)))
    if value == 0.0:
        raise DegenerateSampleError(
            "median pairwise distance is zero (coincident sample rows)"
        )
    return value


def linear_gaussian_moments(spec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic mean, covariance, and precision of a mixture-free layered net.

    With x = A x + b + e, A strictly lower-triangular in topological order and
    e ~ N(0, diag(v)):  mean = (I-A)^-1 b,  cov = (I-A)^-1 diag(v) (I-A)^-T,
    precision = (I-A)^T diag(1/v) (I-A).
    """
    d = spec.total_dim
    A = np.zeros((d, d))
    b = np.zeros(d)
    v = np.zeros(d)
    for j, node in enumerate(spec.nodes):
        v[j] = node.variance
        if node.kind == "root":
            b[j] = node.mean_offset
        elif node.kind == "linear":
            A[j, list(node.parents)] = node.weights[0]
        else:
            raise ValueError("net contains mixture nodes; joint is not Gaussian")
    M = np.linalg.inv(np.eye(d) - A)
    mean = M @ b
    cov = M @ np.diag(v) @ M.T
    precision = (np.eye(d) - A).T @ np.diag(1.0 / v) @ (np.eye(d) - A)
    return mean, cov, precision


class DenseHessians:
    """A dense (n, dim, dim) stack in the Hessian-operator form that
    `solve_subproblems` takes: `apply` is one batched matrix product."""

    def __init__(self, stack):
        self.stack = np.asarray(stack, dtype=float)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.stack.shape[:-1]

    @property
    def nbytes(self) -> int:
        return self.stack.nbytes

    def apply(self, V: np.ndarray) -> np.ndarray:
        return np.matmul(self.stack, V[..., None])[..., 0]


def operator_matrix(hessians) -> np.ndarray:
    """The (n, dim, dim) matrices of a Hessian operator, one column per
    apply to a unit direction."""
    n, dim = hessians.shape
    cols = [hessians.apply(np.broadcast_to(e, (n, dim)).copy())
            for e in np.eye(dim)]
    return np.stack(cols, axis=2)


def dense_model_hessians(target, X) -> np.ndarray:
    """The model Hessians of `target.hessian_batch` as a dense stack."""
    return target.layout.pattern.dense(target.hessian_batch(X))


def pair_loop_hessian_stack(X, target, kmats, lengthscale) -> np.ndarray:
    """Local-kernel second-variation Hessians, one factor pair at a time with
    explicit (n, n, c) difference tensors and a batched matmul.

    `kmats[a][j, i]` is k_a(x_j, x_i).  The kernel cross term of pair (a, b)
    keeps only coordinates inside the other factor's blanket.
    """
    layout = target.layout
    n, dim = X.shape
    model_hessians = dense_model_hessians(target, X)
    inv_ls2 = 1.0 / lengthscale**2
    factors = layout.factors
    stack = np.zeros((n, dim, dim))
    for a, b in layout.overlapping_pairs:
        Ca, Cb = factors[a], factors[b]
        model_block = model_hessians[np.ix_(np.arange(n), Ca, Cb)]
        weight = kmats[a] * kmats[b]
        term = -np.tensordot(weight, model_block, axes=(0, 0)) / n
        mask_a = np.isin(Ca, layout.blankets[b]).astype(float)
        mask_b = np.isin(Cb, layout.blankets[a]).astype(float)
        da = (X[:, None, Ca] - X[None, :, Ca]) * mask_a
        db = (X[:, None, Cb] - X[None, :, Cb]) * mask_b
        rows = -inv_ls2 * da * kmats[b][:, :, None]
        cols = -inv_ls2 * db * kmats[a][:, :, None]
        term += np.matmul(rows.transpose(1, 2, 0), cols.transpose(1, 0, 2)) / n
        stack[:, Ca[:, None], Cb[None, :]] = term
        if a != b:
            stack[:, Cb[:, None], Ca[None, :]] = term.transpose(0, 2, 1)
    return np.triu(stack) + np.triu(stack, 1).transpose(0, 2, 1)


def dense_global_hessian_stack(ctx, target) -> np.ndarray:
    """Global-kernel second-variation Hessians over all dim^2 entries: the
    model term as one tensordot, the kernel term from an explicit
    (n, n, dim) gradient tensor and a batched matmul, then the upper
    triangle mirrored down."""
    X, K = ctx.X, ctx.kmats[0]
    n = X.shape[0]
    inv_ls2 = 1.0 / ctx.lengthscale**2
    stack = -np.tensordot(K * K, dense_model_hessians(target, X),
                          axes=(0, 0)) / n
    grads = -inv_ls2 * (X[:, None, :] - X[None, :, :]) * K[:, :, None]
    stack += np.matmul(grads.transpose(1, 2, 0), grads.transpose(1, 0, 2)) / n
    return np.triu(stack) + np.triu(stack, 1).transpose(0, 2, 1)


def unflushed_global_hessians(ctx, target) -> stein.GlobalHessians:
    """The global-kernel operator with W = K * K kept whole, subnormal
    entries included, as the package built it before it dropped them."""
    pattern, n = ctx.layout.pattern, ctx.X.shape[0]
    model = target.hessian_batch(ctx.X)
    W = ctx.kmats[0] * ctx.kmats[0]
    upper = W.T @ model[:, pattern.upper] / n
    values = np.negative(upper[:, pattern.from_upper])
    return stein.GlobalHessians(stein.PatternHessians(pattern, values), ctx.X,
                                W, ctx.lengthscale)


def moment_hessian_stack(ctx, target) -> np.ndarray:
    """Every particle's second-variation Hessian as one dense
    (n, dim, dim) stack, as the package built it before it kept Hessians
    over the layout's pattern: local kernels take one moment GEMM per
    overlapping factor pair, gathered from and scattered into dense
    arrays; the global kernel takes the pattern-column model term and one
    symmetric kernel-gradient product per particle, each entry read from
    its upper-triangle twin."""
    X, layout = ctx.X, ctx.layout
    n, dim = X.shape
    model_hessians = dense_model_hessians(target, X)
    inv_ls2 = 1.0 / ctx.lengthscale**2
    if ctx.is_global:
        K = ctx.kmats[0]
        pattern = layout.pattern
        upper = pattern.flat[pattern.upper]
        model = (K * K).T @ model_hessians.reshape(n, dim * dim)[:, upper] / n
        r, c = np.divmod(np.arange(dim * dim), dim)
        upper_twin = np.minimum(r, c) * dim + np.maximum(r, c)
        stack = np.empty((n, dim * dim))
        for start in range(0, n, 16):
            i = slice(start, start + 16)
            G = (X[None, :, :] - X[i, None, :]) * (K[:, i].T * inv_ls2)[:, :, None]
            prods = np.matmul(G.transpose(0, 2, 1), G).reshape(-1, dim * dim) / n
            prods[:, upper] -= model[i]
            stack[i] = prods[:, upper_twin]
        return stack.reshape(n, dim, dim)

    kmats = ctx.kmats[layout.kernel_index]      # factor a's kernel at a
    Xc = X - X.mean(axis=0)
    stack = np.zeros((n, dim, dim))
    for g in layout.pair_groups:
        rows, cols = g.rows[:, :, None], g.cols[:, None, :]
        P, ca, cb = g.mask.shape
        m = ca * cb
        xa, xb = Xc[:, g.rows], Xc[:, g.cols]
        outer = xa[..., :, None] * xb[..., None, :]
        rhs = np.concatenate(
            [model_hessians[:, rows, cols].reshape(n, P, m),
             outer.reshape(n, P, m), xa, xb, np.ones((n, P, 1))],
            axis=2,
        ).transpose(1, 0, 2).copy()
        mom = np.empty_like(rhs)
        for p, (a, b) in enumerate(zip(g.a, g.b)):
            np.matmul((kmats[a] * kmats[b]).T, rhs[p], out=mom[p])
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
            d = term[:, diag]
            term[:, diag] = np.triu(d) + np.triu(d, 1).swapaxes(-1, -2)
        stack[:, rows, cols] = term
        stack[:, g.cols[:, :, None], g.rows[:, None, :]] = term.swapaxes(2, 3)
    return stack


def moment_rounding_bound(n: int) -> int:
    """How far the local assembly's pattern values may lie from
    `moment_hessian_stack`'s at n particles, in units of eps times
    `moment_term_magnitudes`: each moment is a sum of n products that the
    two forms' products may add in different orders, each order within
    (n - 1) eps of the exact sum relative to its terms' magnitudes, and the
    few operations that combine the moments round each side once more."""
    return 2 * (n + 4)


def moment_term_magnitudes(ctx, target) -> np.ndarray:
    """Every entry of `moment_hessian_stack` as a sum of magnitudes, dense
    (n, dim, dim): sum_j W_ji |H_j| / n plus, where the pair's mask is one,
    (sum_j W_ji |x_a x_b^T|_j + |x_a,i| sum_j W_ji |x_b,j|
    + sum_j W_ji |x_a,j| |x_b,i| + |x_a x_b^T|_i sum_j W_ji) / (n l^4) over
    centred positions: the terms each moment and the cross term sum."""
    X, layout = ctx.X, ctx.layout
    n, dim = X.shape
    H = np.abs(dense_model_hessians(target, X))
    A = np.abs(X - X.mean(axis=0))
    inv_ls4 = (1.0 / ctx.lengthscale**2) ** 2
    kmats = ctx.kmats[layout.kernel_index]      # factor a's kernel at a
    out = np.zeros((n, dim, dim))
    for a, b in layout.overlapping_pairs:
        Ca, Cb = layout.factors[a], layout.factors[b]
        W = kmats[a] * kmats[b]
        xa, xb = A[:, Ca], A[:, Cb]
        outer = xa[:, :, None] * xb[:, None, :]
        wsum = W.sum(axis=0)
        cross = (np.einsum("ji,jpq->ipq", W, outer)
                 + xa[:, :, None] * (W.T @ xb)[:, None, :]
                 + (W.T @ xa)[:, :, None] * xb[:, None, :]
                 + outer * wsum[:, None, None])
        block = (np.einsum("ji,jpq->ipq", W, H[:, Ca[:, None], Cb[None, :]])
                 + inv_ls4 * isin_pair_mask(layout, a, b) * cross) / n
        out[:, Ca[:, None], Cb[None, :]] = block
        out[:, Cb[:, None], Ca[None, :]] = block.transpose(0, 2, 1)
    return out


def isin_overlap_matrix(layout) -> np.ndarray:
    """Factor-level overlap, one np.isin per (blanket, factor) pair."""
    D = layout.n_factors
    overlap = np.zeros((D, D), dtype=bool)
    for a, bl in enumerate(layout.blankets):
        for b, fac in enumerate(layout.factors):
            overlap[a, b] = bool(np.isin(fac, bl).any())
    return overlap


def isin_pair_mask(layout, a: int, b: int) -> np.ndarray:
    """Cross-term support of pair (a, b): C_a's dims in blanket b times
    C_b's dims in blanket a."""
    f, bl = layout.factors, layout.blankets
    return np.outer(np.isin(f[a], bl[b]), np.isin(f[b], bl[a])).astype(float)


def loop_pattern(layout) -> np.ndarray:
    """Sorted flat entries, both triangles, of every overlapping pair's
    block, entry by entry."""
    dim, f = layout.total_dim, layout.factors
    overlap = isin_overlap_matrix(layout)
    entries = {
        r * dim + c
        for a in range(layout.n_factors)
        for b in range(layout.n_factors)
        if overlap[a, b]
        for r in f[a]
        for c in f[b]
    }
    return np.array(sorted(entries), dtype=np.intp)


def grouped_snlp_edges(problem):
    """SNLP edges split into unknown-unknown pairs (i, j) and unknown-anchor
    pairs (i, anchor index), each with its measurements."""
    s = problem.n_unknowns
    uu, ua = [], []
    for e in problem.edges:
        i, j = sorted((e.i, e.j))
        if j < s:
            uu.append((i, j, e.measured))
        elif i < s:
            ua.append((i, j - s, e.measured))
    return tuple(
        (np.array([(i, j) for i, j, _ in g], dtype=np.intp).reshape(-1, 2),
         np.array([m for *_, m in g]))
        for g in (uu, ua))


def grouped_snlp_geometry(problem, P: np.ndarray):
    """Per-group edge differences, distances and measurements for a
    particle batch P of shape (n, unknowns, 2), formed by indexing P, as
    `SnlpModel` did before it gathered every edge in one flat `take`."""
    (uu_idx, uu_meas), (ua_idx, ua_meas) = grouped_snlp_edges(problem)
    diffs, dists, meas = [], [], []
    if len(uu_idx):
        d = P[:, uu_idx[:, 0], :] - P[:, uu_idx[:, 1], :]
        diffs.append(d)
        dists.append(np.linalg.norm(d, axis=2))
        meas.append(uu_meas)
    if len(ua_idx):
        anchors = problem.anchor_positions[ua_idx[:, 1]]
        d = P[:, ua_idx[:, 0], :] - anchors[None, :, :]
        diffs.append(d)
        dists.append(np.linalg.norm(d, axis=2))
        meas.append(ua_meas)
    return diffs, dists, meas


def grouped_snlp_terms(model, X) -> list[np.ndarray]:
    """Each group's (n, E_g) per-edge log-likelihood terms at the rows of X."""
    X = np.asarray(X, dtype=float)
    problem = model.problem
    s2 = problem.noise_variance
    const = -0.5 * (float(np.log(2.0 * np.pi)) + np.log(s2))
    _, dists, meas = grouped_snlp_geometry(
        problem, X.reshape(X.shape[0], -1, 2))
    return [const - 0.5 * (m[None, :] - dist) ** 2 / s2
            for dist, m in zip(dists, meas)]


def grouped_snlp_log_density_batch(model, X) -> np.ndarray:
    """`SnlpModel.log_density_batch` as it was before it gathered every edge
    in one flat `take`: its one-row values are the package's, but with two
    or more rows the strided edge sums run in another order."""
    out = np.zeros(np.shape(X)[0])
    for terms in grouped_snlp_terms(model, X):
        out += terms.sum(axis=1)
    return out


def add_at_snlp_gradient_batch(model, X) -> np.ndarray:
    """`SnlpModel.gradient_batch` as it was before its precomputed scatter:
    per-group geometry and three `np.add.at` calls."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    problem = model.problem
    s2 = problem.noise_variance
    P = X.reshape(n, -1, 2)
    grad = np.zeros_like(P)
    diffs, dists, meas = grouped_snlp_geometry(problem, P)
    (uu_idx, _), (ua_idx, _) = grouped_snlp_edges(problem)
    cursor = 0
    if len(uu_idx):
        d, dist, m = diffs[cursor], dists[cursor], meas[cursor]
        contrib = ((m[None, :] - dist) / (s2 * dist))[:, :, None] * d
        np.add.at(grad, (slice(None), uu_idx[:, 0]), contrib)
        np.add.at(grad, (slice(None), uu_idx[:, 1]), -contrib)
        cursor += 1
    if len(ua_idx):
        d, dist, m = diffs[cursor], dists[cursor], meas[cursor]
        coef = (m[None, :] - dist) / (s2 * dist)
        np.add.at(grad, (slice(None), ua_idx[:, 0]), coef[:, :, None] * d)
    return grad.reshape(n, -1)


def grouped_snlp_hessian_batch(model, X) -> np.ndarray:
    """`SnlpModel.hessian_batch` as it was before it shared the flat edge
    geometry: the groups' curvature concatenated, then the four-entry
    scatter to pattern values."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    diffs, dists, meas = grouped_snlp_geometry(model.problem,
                                               X.reshape(n, -1, 2))
    if not diffs:
        return np.zeros((n, model.layout.pattern.nnz))
    d, dist = np.concatenate(diffs, axis=1), np.concatenate(dists, axis=1)
    m = np.concatenate(meas)
    u = d / dist[:, :, None]
    uut = u[:, :, :, None] * u[:, :, None, :]
    curv = (-uut + ((m - dist) / dist)[:, :, None, None]
            * (np.eye(2) - uut)) / model.problem.noise_variance
    return np.ascontiguousarray(
        (four_entry_snlp_scatter(model) @ curv.reshape(n, -1).T).T)


def four_entry_snlp_hessian_batch(model, X) -> np.ndarray:
    """`SnlpModel.hessian_batch` as it was before it formed three distinct
    curvature entries per edge: all four entries of each edge's 2 x 2
    curvature as (n, E, 2, 2) arrays, scattered from (4 E, n) columns and
    copied to C order."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    diff, dist = model._edge_geometry(X)
    u = diff / dist[:, :, None]
    uut = u[:, :, :, None] * u[:, :, None, :]
    curv = (-uut + ((model._measured - dist) / dist)[:, :, None, None]
            * (np.eye(2) - uut)) / model._s2
    curv = curv.reshape(n, 4 * dist.shape[1])
    return np.ascontiguousarray((four_entry_snlp_scatter(model) @ curv.T).T)


def four_entry_snlp_scatter(model):
    """The former `SnlpModel._hessian_scatter`: a sparse +-1 matrix from
    each edge's four curvature entries, columns 4 k + 2 p + q, to the
    layout's pattern; its rows sum edges in edge order."""
    pattern = model.layout.pattern
    dim = pattern.dim
    ends = model._ends
    every = np.arange(len(ends))
    uu = every[:model._n_uu]
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
    rows = pattern.index(*np.divmod(rows, dim))
    return sparse.csr_matrix(
        (signs, (rows, cols)), shape=(pattern.nnz, 4 * len(ends)))


def per_edge_snlp_hessian_batch(model, X) -> np.ndarray:
    """SNLP log-likelihood Hessians accumulated edge by edge in a Python loop."""
    X = np.asarray(X, dtype=float)
    n, dim = X.shape
    problem = model.problem
    out = np.zeros((n, dim, dim))
    diffs, dists, meas = grouped_snlp_geometry(problem, X.reshape(n, -1, 2))
    (uu_idx, _), (ua_idx, _) = grouped_snlp_edges(problem)
    eye = np.eye(2)

    def edge_blocks(d, dist, m):
        u = d / dist[:, :, None]
        uut = u[:, :, :, None] * u[:, :, None, :]
        e = m[None, :] - dist
        return (-uut + (e / dist)[:, :, None, None] * (eye - uut)) \
            / problem.noise_variance

    cursor = 0
    if len(uu_idx):
        blocks = edge_blocks(diffs[cursor], dists[cursor], meas[cursor])
        for k, (i, j) in enumerate(uu_idx):
            bi, bj = 2 * i, 2 * j
            out[:, bi:bi + 2, bi:bi + 2] += blocks[:, k]
            out[:, bj:bj + 2, bj:bj + 2] += blocks[:, k]
            out[:, bi:bi + 2, bj:bj + 2] -= blocks[:, k]
            out[:, bj:bj + 2, bi:bi + 2] -= blocks[:, k]
        cursor += 1
    if len(ua_idx):
        blocks = edge_blocks(diffs[cursor], dists[cursor], meas[cursor])
        for k, (i, _) in enumerate(ua_idx):
            bi = 2 * i
            out[:, bi:bi + 2, bi:bi + 2] += blocks[:, k]
    return out


def _bayesnet_nodes(model):
    """(j, kind, parents, weights, component weights, mean offset, variance)
    of each node, in node order, as the model kept them before it batched its
    derivatives over nodes."""
    return [(j, node.kind, np.asarray(node.parents, dtype=np.intp),
             [np.asarray(w, dtype=float) for w in node.weights],
             np.asarray(node.component_weights, dtype=float),
             node.mean_offset, node.variance)
            for j, node in enumerate(model.spec.nodes)]


def _bayesnet_responsibilities(X, j, parents, weights, comp_w, s2):
    """Softmax weights of a mixture node's two components, in log space, and
    the components' residuals."""
    resid = np.stack(
        [X[:, j] - X[:, parents] @ weights[l] for l in range(2)]
    )
    logits = np.log(comp_w)[:, None] - 0.5 * resid**2 / s2
    logits -= logits.max(axis=0, keepdims=True)
    resp = np.exp(logits)
    resp /= resp.sum(axis=0, keepdims=True)
    return resp, resid


def _bayesnet_parent_sum(X, parents, w):
    out = X[:, parents[0]] * w[0]
    for p, wp in zip(parents[1:], w[1:]):
        out += X[:, p] * wp
    return out


def node_loop_bayesnet_log_density_batch(model, X) -> np.ndarray:
    """`BayesNetModel.log_density_batch` as a loop over nodes, each node's
    term added to the running total in node order."""
    X = np.asarray(X, dtype=float)
    total = np.zeros(X.shape[0])
    for j, kind, parents, weights, comp_w, mu, s2 in _bayesnet_nodes(model):
        const = -0.5 * (float(np.log(2.0 * np.pi)) + np.log(s2))
        if kind == "root":
            total += const - 0.5 * (X[:, j] - mu) ** 2 / s2
        elif kind == "linear":
            mean = _bayesnet_parent_sum(X, parents, weights[0])
            total += const - 0.5 * (X[:, j] - mean) ** 2 / s2
        else:
            c0, c1 = (
                np.log(comp_w[l]) + const
                - 0.5 * (X[:, j] - _bayesnet_parent_sum(X, parents, weights[l]))
                ** 2 / s2
                for l in range(2)
            )
            total += _logaddexp(c0, c1)
    return total


def node_loop_bayesnet_gradient_batch(model, X) -> np.ndarray:
    """`BayesNetModel.gradient_batch` as a loop over nodes, with a gemv per
    parent sum."""
    X = np.asarray(X, dtype=float)
    out = np.zeros_like(X)
    for j, kind, parents, weights, comp_w, mu, s2 in _bayesnet_nodes(model):
        if kind == "root":
            out[:, j] -= (X[:, j] - mu) / s2
        elif kind == "linear":
            r = (X[:, j] - X[:, parents] @ weights[0]) / s2
            out[:, j] -= r
            out[:, parents] += r[:, None] * weights[0]
        else:
            resp, resid = _bayesnet_responsibilities(X, j, parents, weights,
                                                     comp_w, s2)
            r = (resp * resid).sum(axis=0) / s2
            out[:, j] -= r
            out[:, parents] += np.einsum(
                "ln,lp->np", resp * resid / s2, np.stack(weights)
            )
    return out


def node_loop_bayesnet_hessian_batch(model, X) -> np.ndarray:
    """`BayesNetModel.hessian_batch` as a loop over nodes, writing pattern
    values: a mixture node adds sum_l r_l C_l + sum_l r_l g_l g_l^T - gbar
    gbar^T, which cancels when the components' gradients are large."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    pattern = model.layout.pattern
    out = np.zeros((n, pattern.nnz))
    for j, kind, parents, weights, comp_w, mu, s2 in _bayesnet_nodes(model):
        idx = np.concatenate(([j], parents))
        family = pattern.index(idx[:, None], idx[None, :])
        if kind == "root":
            out[:, family[0, 0]] -= 1.0 / s2
        elif kind == "linear":
            w = weights[0]
            out[:, family[0, 0]] -= 1.0 / s2
            out[:, family[0, 1:]] += w / s2
            out[:, family[1:, 0]] += w / s2
            out[:, family[1:, 1:]] -= np.outer(w, w) / s2
        else:
            out[:, family] += _loop_mixture_block(X, j, parents, weights,
                                                  comp_w, s2)
    return out


def _loop_mixture_block(X, j, parents, weights, comp_w, s2):
    """A mixture node's (n, k, k) Hessian over its (own, parents)
    coordinates, in the loop's cancelling form."""
    n, k = X.shape[0], 1 + parents.size
    resp, resid = _bayesnet_responsibilities(X, j, parents, weights, comp_w,
                                             s2)
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
    return mix


# Each form rounds its residual, gradient and Hessian sums within a few eps
# times `bayesnet_term_magnitudes`: the batched model and the node loop stay
# within this multiple of eps times them of each other.  Measured worst
# case: 2.4 (gradient) and 1.4 (Hessian) over the bn10_desk, bn30_paper and
# (10, 10, 10) paper nets, at their particles moved by up to 100 sd.
BAYESNET_ROUNDING_BOUND = 16


def bayesnet_term_magnitudes(model, X) -> tuple[np.ndarray, np.ndarray]:
    """Scales of the rounding errors of a net's gradient, (n, dim), and
    Hessian pattern values, (n, nnz), node by node, for any order of the
    sums.  Each error is a small multiple of eps times these.

    A residual x_j - m_l carries an error of order eps a_l, with a_l =
    |x_j| + sum_p |w_p x_p| (|x_j| + |mu| for a root), which can far exceed
    the residual.  With A_l = a_l / s2, u_l = (1, |w_l|) over (own,
    parents), responsibilities r_l (1 outside mixtures) and their
    sensitivity to those errors S = r_0 r_1 (e_0 a_0 + e_1 a_1), e_l the
    residual over s2 (0 outside mixtures):
      - gradient: the sum over components of (r_l + S) A_l u_l;
      - Hessian: the sum over components of (r_l + S) (u_l u_l^T / s2 +
        A_l^2 u_l u_l^T), plus B B^T per mixture node, B = sum_l (r_l + S)
        A_l u_l, which bounds both gbar gbar^T and r_0 r_1 e_l e_m u_l u_m^T.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    pattern = model.layout.pattern
    grad = np.zeros_like(X)
    hess = np.zeros((n, pattern.nnz))
    for j, kind, parents, weights, comp_w, mu, s2 in _bayesnet_nodes(model):
        idx = np.concatenate(([j], parents))
        family = pattern.index(idx[:, None], idx[None, :])
        us = [np.abs(np.concatenate(([1.0], w))) for w in weights]
        if kind == "root":
            grad[:, j] += (np.abs(X[:, j]) + abs(mu)) / s2
            hess[:, family[0, 0]] += 1.0 / s2
            continue
        scales = [np.abs(X[:, j]) + np.abs(X[:, parents]) @ np.abs(w)
                  for w in weights]
        if kind == "linear":
            resp, sens = np.ones((1, n)), 0.0
        else:
            resp, resid = _bayesnet_responsibilities(X, j, parents, weights,
                                                     comp_w, s2)
            sens = resp[0] * resp[1] * sum(np.abs(resid[l]) * scales[l]
                                           for l in range(2)) / s2
        B = np.zeros((n, idx.size))
        for l, u in enumerate(us):
            b = ((resp[l] + sens) * scales[l] / s2)[:, None] * u
            B += b
            hess[:, family] += (resp[l] + sens)[:, None, None] * (
                np.outer(u, u) / s2
                + (scales[l] / s2)[:, None, None] ** 2 * np.outer(u, u))
        grad[:, idx] += B
        if kind == "gmm":
            hess[:, family] += B[:, :, None] * B[:, None, :]
    return grad, hess


def dense_bayesnet_hessian_batch(model, X) -> np.ndarray:
    """Bayes-net log-density Hessians accumulated node by node into a dense
    (n, dim, dim) stack, as the model built them before it wrote pattern
    values."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    out = np.zeros((n, d, d))
    for j, kind, parents, weights, comp_w, mu, s2 in _bayesnet_nodes(model):
        if kind == "root":
            out[:, j, j] -= 1.0 / s2
        elif kind == "linear":
            w = weights[0]
            out[:, j, j] -= 1.0 / s2
            out[:, j, parents] += w / s2
            out[:, parents, j] += w / s2
            out[np.ix_(np.arange(n), parents, parents)] -= np.outer(w, w) / s2
        else:
            idx = np.concatenate(([j], parents))
            out[np.ix_(np.arange(n), idx, idx)] += _loop_mixture_block(
                X, j, parents, weights, comp_w, s2)
    return out


def _gemv_parent_sum(X, parents, w):
    return X[:, parents] @ w


def longdouble_bayesnet_hessian_batch(model, X, gemv=False) -> np.ndarray:
    """Bayes-net Hessians as (n, dim, dim) long doubles, each mixture node's
    block sum_l r_l (C_l + g_l g_l^T) - gbar gbar^T from its responsibilities
    r_l, component gradients g_l and curvatures C_l.

    Only the mixture residuals x_j - m_l are float64: parent sums in slot
    order, as the model forms them, or with gemv=True by a gemv, as the node
    loop did.  Both forms inherit those residuals' rounding (amplified in
    r_l at a far-out particle), so a reference from them measures the rest
    of each form's rounding."""
    parent_sum = _gemv_parent_sum if gemv else _bayesnet_parent_sum
    n, d = np.shape(X)
    out = np.zeros((n, d, d), dtype=np.longdouble)
    rows = np.arange(n)
    for j, node in enumerate(model.spec.nodes):
        s2 = np.longdouble(node.variance)
        idx = np.array((j,) + node.parents, dtype=np.intp)
        us = [np.concatenate(([np.longdouble(1)],
                              -np.asarray(w, dtype=np.longdouble)))
              for w in node.weights]
        if node.kind == "root":
            out[:, j, j] -= 1 / s2
            continue
        if node.kind == "linear":
            out[np.ix_(rows, idx, idx)] -= np.outer(us[0], us[0]) / s2
            continue
        resid = np.stack([
            X[:, j] - parent_sum(X, np.asarray(node.parents), np.asarray(w))
            for w in node.weights]).astype(np.longdouble)       # (2, n)
        logits = (np.log(np.asarray(node.component_weights,
                                    dtype=np.longdouble))[:, None]
                  - resid**2 / (2 * s2))
        logits -= logits.max(axis=0)
        resp = np.exp(logits)
        resp /= resp.sum(axis=0)
        grads = np.stack([-(resid[l] / s2)[:, None] * us[l]
                          for l in range(2)])                   # (2, n, k)
        gbar = resp[0][:, None] * grads[0] + resp[1][:, None] * grads[1]
        block = -gbar[:, :, None] * gbar[:, None, :]
        for l in range(2):
            block += resp[l][:, None, None] * (
                grads[l][:, :, None] * grads[l][:, None, :]
                - np.outer(us[l], us[l]) / s2)
        out[np.ix_(rows, idx, idx)] += block
    return out


def squared_distances_oracle(X, Y) -> np.ndarray:
    """Pairwise squared distances as one broadcast expression, with fresh
    temporaries for the norm sum, 2 x.y and their difference."""
    xx = np.einsum("ij,ij->i", X, X)
    yy = np.einsum("ij,ij->i", Y, Y)
    sq = xx[:, None] + yy[None, :] - 2.0 * (X @ Y.T)
    np.maximum(sq, 0.0, out=sq)
    return sq


def rbf_matrix_oracle(X, Y, lengthscale: float, dims=None) -> np.ndarray:
    """The RBF kernel matrix as one expression over the oracle distances:
    bitwise the package's kernel before it formed the exponent as one
    centred, augmented product."""
    if dims is not None:
        X = X[:, dims]
        Y = Y[:, dims]
    return np.exp(-0.5 * squared_distances_oracle(X, Y) / lengthscale**2)


def rbf_matrix_unguarded(X, Y, lengthscale: float, dims=None) -> np.ndarray:
    """`rbf_matrix` before its underflow guard: every clipped exponent,
    however far below -745, goes to exp as it is."""
    same = Y is X
    if dims is not None:
        X = X[:, dims]
    shift = X.mean(axis=0)
    X = X - shift
    xx = np.einsum("ij,ij->i", X, X)
    if same:
        Y, yy = X, xx
    else:
        Y = (Y if dims is None else Y[:, dims]) - shift
        yy = np.einsum("ij,ij->i", Y, Y)
    d = X.shape[1]
    inv_ls2 = 1.0 / lengthscale**2
    left = np.empty((X.shape[0], d + 2))
    left[:, :d] = X
    left[:, d] = xx
    left[:, d + 1] = 1.0
    right = np.empty((Y.shape[0], d + 2))
    np.multiply(Y, inv_ls2, out=right[:, :d])
    right[:, d] = -0.5 * inv_ls2
    np.multiply(yy, -0.5 * inv_ls2, out=right[:, d + 1])
    E = np.matmul(left, right.T)
    np.minimum(E, 0.0, out=E)
    return np.exp(E, out=E)


def blanket_loop_kmats(X, layout, lengthscale: float) -> np.ndarray:
    """Every blanket's local kernel from its own `rbf_matrix` call, stacked
    as (n_factors, n, n): the loop that built local contexts before the
    blankets were batched."""
    n = X.shape[0]
    kmats = np.empty((layout.n_factors, n, n))
    for a in range(layout.n_factors):
        rbf_matrix(X, X, lengthscale, dims=layout.blankets[a], out=kmats[a])
    return kmats


def factor_loop_field(ctx, target) -> np.ndarray:
    """The Stein field one factor at a time, two products and a column sum
    each, with factor a's kernel `k_a(x_j, x_i)` at
    `ctx.kmats[layout.kernel_index[a]][j, i]` (a global context's one
    kernel for every factor): the loop that computed local and global
    fields before factors were batched."""
    X = ctx.X
    scores = target.gradient_batch(X)
    n = X.shape[0]
    out = np.empty_like(X)
    inv_ls2 = 1.0 / ctx.lengthscale**2
    for a, dims in enumerate(ctx.layout.factors):
        Ka = ctx.kmats[0 if ctx.is_global else ctx.layout.kernel_index[a]]
        colsum = Ka.sum(axis=0)
        term1 = Ka.T @ scores[:, dims]
        term2 = -inv_ls2 * (Ka.T @ X[:, dims] - X[:, dims] * colsum[:, None])
        out[:, dims] = -(term1 + term2) / n
    return out


def per_factor_field(X, target, kmats, lengthscale: float) -> np.ndarray:
    """The local Stein field from one kernel per factor, `kmats[a][j, i] =
    k_a(x_j, x_i)` (n_factors, n, n), as the package took it before
    factors with one blanket shared a kernel: one product
    K^T @ [s | x | 1] per chunk of equal-size factors, in factor order."""
    layout = target.layout
    n = X.shape[0]
    scores = target.gradient_batch(X)
    by_size: dict[int, list[int]] = {}
    for a, f in enumerate(layout.factors):
        by_size.setdefault(f.size, []).append(a)
    out = np.empty_like(X)
    step = stein._factors_per_chunk(n)
    for members in by_size.values():
        for start in range(0, len(members), step):
            factors = members[start:start + step]
            dims = np.stack([layout.factors[a] for a in factors])
            rhs = np.concatenate(
                [scores[:, dims], X[:, dims], np.ones((n, len(factors), 1))],
                axis=2).transpose(1, 0, 2)
            mom = np.matmul(kmats[factors].transpose(0, 2, 1), rhs)
            c = dims.shape[1]
            term2 = -(1.0 / lengthscale**2) * (
                mom[..., c:2 * c] - rhs[..., c:2 * c] * mom[..., -1:])
            out[:, dims] = (-(mom[..., :c] + term2) / n).transpose(1, 0, 2)
    return out


def per_factor_hessian_values(X, target, kmats, lengthscale: float):
    """The local Stein Hessians' (n, nnz) pattern values from one kernel per
    factor, as the package assembled them before factors with one blanket
    shared a kernel: pair (a, b) takes the product of its moment rows
    [H_ab | x_a x_b^T | x_a | x_b | 1] with W = K_a * K_b, formed for every
    pair in pair order, chunk by chunk of each pair group."""
    layout = target.layout
    n = X.shape[0]
    model = np.ascontiguousarray(target.hessian_batch(X).T)
    XcT = np.subtract(X.T, X.mean(axis=0)[:, None],
                      out=np.empty(X.shape[::-1]))
    inv_ls4 = (1.0 / lengthscale**2)**2
    values = np.empty((layout.pattern.nnz, n))
    W = np.empty((n, n))
    for g in layout.pair_groups:
        step = stein._pairs_per_chunk(n, *g.mask.shape[1:])
        for start in range(0, g.a.size, step):
            part = slice(start, start + step)
            ca, cb = g.mask.shape[1:]
            if g.diagonal:              # the upper triangle, and x_a alone
                p, q = np.triu_indices(ca)
                qx = q
            else:
                p, q = np.divmod(np.arange(ca * cb), cb)
                qx = ca + q
            pairs = list(zip(g.a[part], g.b[part]))
            dims = (g.rows[part] if g.diagonal else
                    np.concatenate([g.rows[part], g.cols[part]], axis=1))
            P, e = len(pairs), p.size
            lhs = np.empty((P, 2 * e + dims.shape[1] + 1, n))
            lhs[:, :e] = model[g.entries[part, p, q]]
            x = lhs[:, 2 * e:-1]
            x[...] = XcT[dims]
            xp, xq = x[:, p], x[:, qx]
            outer = lhs[:, e:2 * e]
            np.multiply(xp, xq, out=outer)
            lhs[:, -1] = 1.0
            mom = np.empty_like(lhs)
            for k, (a, b) in enumerate(pairs):
                np.multiply(kmats[a], kmats[b], out=W)
                np.matmul(lhs[k], W, out=mom[k])
            mx = mom[:, 2 * e:-1]
            term = mom[:, e:2 * e]
            term -= xp * mx[:, qx]
            term -= mx[:, p] * xq
            term += outer * mom[:, -1, None]
            term *= inv_ls4 if g.diagonal else inv_ls4 * g.mask[part, p, q, None]
            term -= mom[:, :e]
            term /= n
            values[g.entries[part, p, q]] = term
            values[g.twins[part, q, p]] = term
    return values.T


def rbf_matrix_longdouble(X, Y, lengthscale: float, dims=None) -> np.ndarray:
    """The RBF kernel matrix from explicit differences in long double,
    returned in long double: the reference for kernel rounding errors."""
    if dims is not None:
        X = X[:, dims]
        Y = Y[:, dims]
    X = np.asarray(X, dtype=np.longdouble)
    Y = np.asarray(Y, dtype=np.longdouble)
    sq = np.zeros((X.shape[0], Y.shape[0]), dtype=np.longdouble)
    for k in range(X.shape[1]):
        diff = X[:, k, None] - Y[None, :, k]
        sq += diff * diff
    ls2 = np.longdouble(lengthscale) ** 2
    return np.exp(-sq / (2 * ls2))


def kernel_error_bound(X, Y, lengthscale, dims=None, centred=True):
    """The stated bound on |K - k| for `rbf_matrix`, entry by entry:
    (d + 5) eps (1 + (|x~|^2 + |y~|^2) / l^2), with x~ and y~ the rows less
    the column means of X over the kernel's d coordinates.

    The exponent is a sum of d + 2 products of rounded factors, so its error
    is at most about (d + 3) u (|x~|^2 + |y~|^2) / l^2 (u = eps / 2, and
    |x~ . y~| <= (|x~|^2 + |y~|^2) / 2); centring adds at most 2 u times the
    same; exp(E) <= 1 passes an exponent error on at most unchanged and
    rounds within a few u.  The uncentred expression of `rbf_matrix_oracle`
    meets the same bound with the raw rows in place of x~ and y~
    (centred=False), which is what a large common offset costs it."""
    if dims is not None:
        X, Y = X[:, dims], Y[:, dims]
    shift = X.mean(axis=0) if centred else 0.0
    xx = np.sum((X - shift) ** 2, axis=1)
    yy = np.sum((Y - shift) ** 2, axis=1)
    c = (X.shape[1] + 5) * np.finfo(float).eps
    return c * (1.0 + (xx[:, None] + yy[None, :]) / lengthscale**2)


def eval_target(target, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Log-density and analytic gradient at a single point."""
    x = target._check_point(x)
    return target.log_density(x), target.gradient(x)


def target_hessian_block(target, a: int, b: int, x: np.ndarray) -> np.ndarray:
    """|C_a| x |C_b| second-derivative block of the dense Hessian; zero when
    b is outside blanket a."""
    layout = target.layout
    if not (0 <= a < layout.n_factors and 0 <= b < layout.n_factors):
        raise IndexError("factor index out of range")
    x = target._check_point(x)
    return target.hessian(x)[np.ix_(layout.factors[a], layout.factors[b])]


def markov_blanket(target, a: int) -> np.ndarray:
    """Dimension index set S_a: factor a's own dims plus its Markov blanket."""
    if not 0 <= a < target.layout.n_factors:
        raise IndexError("factor index out of range")
    return target.layout.blankets[a].copy()


def rbf_eval(x, y, lengthscale: float):
    """Kernel value and its gradient with respect to x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError("x and y must have equal length")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("kernel inputs must be finite")
    if lengthscale <= 0:
        raise ValueError("lengthscale must be positive")
    diff = x - y
    value = float(np.exp(-0.5 * diff @ diff / lengthscale**2))
    return value, -diff / lengthscale**2 * value


def local_kernel_eval(layout, kernel, a: int, x, y):
    """Value of k_a, the kernel restricted to blanket S_a of the layout,
    plus the x-gradient sliced over C_a and over S_a.

    Both state vectors are full-length; only the S_a coordinates matter.
    """
    if not 0 <= a < layout.n_factors:
        raise IndexError("factor index out of range")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (layout.total_dim,) or y.shape != (layout.total_dim,):
        raise ValueError("state vectors must have length total_dim")
    blanket = layout.blankets[a]
    value, grad_s = rbf_eval(x[blanket], y[blanket], kernel.lengthscale)
    factor = layout.factors[a]
    grad_c = np.zeros(factor.size)
    pos = np.searchsorted(blanket, factor)
    grad_c[:] = grad_s[pos]
    return value, grad_c, grad_s


def baseline_loop_run(method_cfg, particles, model, kernel):
    """The runner's three per-method baseline loops as they were before the
    baselines shared one loop: SVGD, the message-passing SVGD step rules
    (static / decayed / AdaGrad) and SVN-CTR, whose records now also carry
    the model decrease and CG counts of its subproblems.  Returns the final
    particles and the trace records."""
    name = method_cfg["name"]
    records = []
    current = particles
    if name == "svn-ctr":
        radius = method_cfg["radius"]
        for t in range(method_cfg["iterations"]):
            ctx = global_context(current.positions, model.layout, kernel)
            field = field_from_context(ctx, model)
            hessians = hessian_stack_from_context(ctx, model)
            solution = solve_subproblems(field, hessians, radius)
            current = current.advanced(current.positions + solution.steps)
            records.append(IterationRecord(
                iteration=t, gradient_magnitude=gradient_magnitude(field),
                radius_or_step=radius, accepted=True,
                model_decrease=solution.decrease, **solution.trace_counts()))
        return current, records
    step = method_cfg["step"]
    if name == "svgd":
        for t in range(method_cfg["iterations"]):
            field = global_stein_gradient(current, model, kernel)
            current = current.advanced(current.positions - step * field.values)
            records.append(IterationRecord(
                iteration=t, gradient_magnitude=gradient_magnitude(field),
                radius_or_step=step, accepted=True))
        return current, records
    accumulator = None
    for t in range(method_cfg["iterations"]):
        field = graphical_stein_gradient(current, model, kernel)
        direction = -field.values
        scale = step
        if name == "mp-svgd-static":
            displacement = step * direction
        elif name == "mp-svgd-dlr":
            scale = step * method_cfg["decay"]**t
            displacement = step * method_cfg["decay"]**t * direction
        else:
            if accumulator is None:
                accumulator = np.zeros_like(direction)
            accumulator = accumulator + direction**2
            displacement = step * direction / (np.sqrt(accumulator) + 1e-8)
        current = current.advanced(current.positions + displacement)
        records.append(IterationRecord(
            iteration=t, gradient_magnitude=gradient_magnitude(field),
            radius_or_step=scale, accepted=True))
    return current, records


def scalar_cg_steihaug(
    hessian_apply,
    g: np.ndarray,
    radius: float,
    tol: float = 0.1,
    max_iters: int | None = None,
) -> tuple[np.ndarray, str]:
    """One system at a time, as the package solved them before CG worked on
    all particles at once: truncated conjugate gradients that stop on a
    relative residual below tol, on crossing the boundary, or on negative
    curvature, where the step runs to the boundary along the current
    direction."""
    g = np.asarray(g, dtype=float)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not np.isfinite(g).all():
        raise ValueError("gradient must be finite")
    dim = g.size
    if max_iters is None:
        max_iters = dim
    z = np.zeros(dim)
    gnorm = float(np.linalg.norm(g))
    if gnorm == 0.0:
        return z, INTERIOR
    r = g.copy()
    d = -g
    rr = gnorm**2
    threshold = tol * gnorm
    for _ in range(max_iters):
        dd = float(d @ d)
        if dd == 0.0:
            return z, INTERIOR
        Hd = hessian_apply(d)
        dHd = float(d @ Hd)
        if dHd <= 0.0:
            w = _best_boundary_point(hessian_apply, g, z, d, radius)
            return w, NEG_CURVATURE
        alpha = rr / dHd
        z_next = z + alpha * d
        if float(np.linalg.norm(z_next)) >= radius:
            tau = _boundary_tau(z, d, radius)
            return z + tau * d, BOUNDARY
        r = r + alpha * Hd
        rr_next = float(r @ r)
        z = z_next
        if math.sqrt(rr_next) < threshold:
            return z, INTERIOR
        d = -r + (rr_next / rr) * d
        rr = rr_next
    return z, INTERIOR


def _boundary_tau(z: np.ndarray, d: np.ndarray, radius: float) -> float:
    """Positive root of ||z + tau d|| = radius."""
    dd = float(d @ d)
    zd = float(z @ d)
    zz = float(z @ z)
    disc = zd**2 + dd * (radius**2 - zz)
    return (-zd + math.sqrt(max(disc, 0.0))) / dd


def _best_boundary_point(hessian_apply, g, z, d, radius) -> np.ndarray:
    """Boundary point along +-d from z with the lower model value."""
    dd = float(d @ d)
    zd = float(z @ d)
    zz = float(z @ z)
    disc = math.sqrt(max(zd**2 + dd * (radius**2 - zz), 0.0))
    best, best_val = None, np.inf
    for tau in ((-zd + disc) / dd, (-zd - disc) / dd):
        p = z + tau * d
        val = float(g @ p + 0.5 * p @ hessian_apply(p))
        if val < best_val:
            best, best_val = p, val
    return best


def per_particle_solve_subproblems(G, hessians, radius):
    """The per-particle loop over `scalar_cg_steihaug` that solve_subproblems
    ran before: returns steps, statuses, the decrease summed in particle
    order, and each particle's CG iteration count (its Hessian products,
    less the two that rank the boundary points on negative curvature)."""
    n, dim = G.shape
    steps = np.zeros_like(G)
    statuses, iterations = [], []
    decrease = 0.0
    for i in range(n):
        g = G[i]
        calls = [0]

        def apply(v, H=hessians[i]):
            calls[0] += 1
            return H @ v

        tol = min(0.1, math.sqrt(float(np.linalg.norm(g))))
        w, status = scalar_cg_steihaug(apply, g, radius, tol=tol, max_iters=dim)
        steps[i] = w
        statuses.append(status)
        iterations.append(calls[0] - (2 if status == NEG_CURVATURE else 0))
        decrease += float(g @ w + 0.5 * w @ (hessians[i] @ w))
    return steps, statuses, decrease, np.array(iterations)


def tr_svi_kl_oracle(particles, target, kernel, initial_radius,
                     iterations, seed, nystrom_size=None):
    """The KL trust-region driver as its own loop, before the trust-region
    methods shared one: every iteration rebuilds the kernel context, field
    and Hessian stack and computes both median kernels of its KL ratio.
    `solve_subproblems` and `approx_kl` are looked up in `trustregion`, so a
    test that scripts them there scripts this loop too."""
    state = tr.TrustRegionKLState(radius=initial_radius)
    trace = RunTrace()
    current = particles
    nystrom = max(1, current.n // 10) if nystrom_size is None else int(nystrom_size)
    rng = np.random.default_rng(seed)
    for t in range(iterations):
        ctx = local_context(current.positions, target.layout, kernel)
        field = field_from_context(ctx, target)
        hessians = hessian_stack_from_context(ctx, target)
        gmag = gradient_magnitude(field)
        radius_used = state.radius
        solution = tr.solve_subproblems(field, hessians, radius_used)
        model = solution.decrease
        cg = solution.trace_counts()
        subset_seed = int(rng.integers(0, 2**63 - 1))
        if model == 0.0 and gmag == 0.0:
            trace.append(IterationRecord(
                iteration=t, gradient_magnitude=gmag,
                radius_or_step=radius_used, accepted=False,
                model_decrease=0.0, **cg))
            break
        if model >= 0.0:
            state.radius /= 2.0
            current = current.advanced(current.positions)
            trace.append(IterationRecord(
                iteration=t, gradient_magnitude=gmag,
                radius_or_step=radius_used, accepted=False,
                model_decrease=model, **cg))
            continue
        proposed = current.positions + solution.steps
        proposed_set = ParticleSet(proposed, iteration=current.iteration,
                                   seed=current.seed)
        u = tr.approx_kl(proposed_set, target, nystrom,
                         KernelSpec(median_heuristic(proposed)), subset_seed)
        o = tr.approx_kl(current, target, nystrom,
                         KernelSpec(median_heuristic(current.positions)),
                         subset_seed)
        rho = (u - o) / model
        accepted = state.update(rho)
        current = current.advanced(proposed if accepted else current.positions)
        trace.append(IterationRecord(
            iteration=t, gradient_magnitude=gmag, radius_or_step=radius_used,
            accepted=accepted, rho=rho, approx_kl_u=u,
            approx_kl_o=o, model_decrease=model, **cg))
    return current, trace


def tr_svi_at_oracle(particles, target, kernel, iterations):
    """The AdaTrust driver as its own loop, before the trust-region methods
    shared one; its records now also carry the model decrease."""
    trace = RunTrace()
    ctx = local_context(particles.positions, target.layout, kernel)
    field = field_from_context(ctx, target)
    g0 = gradient_magnitude(field)
    if g0 == 0.0:
        trace.warnings.append("initial gradient magnitude is zero; nothing to do")
        return particles, trace
    state = tr.AdaTrustState.initialize(g0)
    if g0 < state.b_min:
        trace.warnings.append(
            f"initial gradient magnitude {g0:.3e} is below b_min={state.b_min}; "
            "early radii may exceed the problem scale"
        )
    current = particles
    for t in range(iterations):
        hessians = hessian_stack_from_context(ctx, target)
        radius_used = state.radius()
        solution = tr.solve_subproblems(field, hessians, radius_used)
        current = current.advanced(current.positions + solution.steps)
        ctx = local_context(current.positions, target.layout, kernel)
        field = field_from_context(ctx, target)
        g_new = gradient_magnitude(field)
        state.update(g_new)
        trace.append(IterationRecord(
            iteration=t, gradient_magnitude=g_new, radius_or_step=radius_used,
            accepted=True, b=state.b,
            model_decrease=solution.decrease, **solution.trace_counts()))
    return current, trace


def serial_metropolis_reference(
    target,
    chain_length: int,
    proposal_scale: float,
    burn_in: int = 0,
    thinning: int = 1,
    seed: int = 0,
    initial: np.ndarray | None = None,
) -> MetropolisResult:
    """`evaluation.metropolis_reference` one step at a time, with one
    `log_density` call per proposal, as it ran before it prefetched."""
    dim = target.layout.total_dim
    rng = np.random.default_rng(seed)
    x = np.zeros(dim) if initial is None else np.asarray(initial, dtype=float)
    logp = target.log_density(x)
    if not np.isfinite(logp):
        raise ValueError("log-density is not finite at the initial point")
    total = burn_in + chain_length
    n_keep = (chain_length + thinning - 1) // thinning
    kept = np.empty((n_keep, dim))
    accepted = 0
    out = 0
    increments = rng.normal(0.0, proposal_scale, size=(total, dim))
    log_uniforms = np.log(1.0 - rng.random(total))   # uniform over (0, 1]
    for step in range(total):
        proposal = x + increments[step]
        try:
            logp_prop = target.log_density(proposal)
        except ValueError:
            logp_prop = -np.inf
        if logp_prop - logp >= log_uniforms[step]:
            x = proposal
            logp = logp_prop
            accepted += 1
        if step >= burn_in and (step - burn_in) % thinning == 0:
            kept[out] = x
            out += 1
    return MetropolisResult(samples=kept, acceptance_rate=accepted / total)
