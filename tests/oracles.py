"""Independent reference implementations used only to check the package.

Everything here deliberately avoids the code paths under test: dense
eigendecompositions, explicit double loops, and finite differences.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.optimize import brentq
from scipy.spatial.distance import pdist

from trsvi import trustregion as tr
from trsvi.evaluation import gradient_magnitude
from trsvi.kernels import (
    MEDIAN_SUBSAMPLE,
    DegenerateSampleError,
    KernelSpec,
    median_heuristic,
    squared_distances,
)
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


def block_kernel_sum(X: np.ndarray, Y: np.ndarray, lengthscale: float) -> float:
    """Sum of k(x_i, y_j) over all pairs, reduced over 2048-row blocks of X
    against the whole of Y (the package's pair sum before strips and the
    upper triangle)."""
    inv = 0.5 / lengthscale**2
    total = 0.0
    for start in range(0, X.shape[0], 2048):
        block = X[start:start + 2048]
        total += float(np.exp(-inv * squared_distances(block, Y)).sum())
    return total


def csv_writer_save_samples(path, samples: np.ndarray, names) -> None:
    """Sample CSV written one csv.writer row per sample."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in np.asarray(samples, dtype=float):
            writer.writerow([repr(float(v)) for v in row])


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
    return target.layout.pattern().dense(target.hessian_batch(X))


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
    for a, b in layout.overlapping_pairs():
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
        pattern = layout.pattern()
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

    Xc = X - X.mean(axis=0)
    stack = np.zeros((n, dim, dim))
    for g in layout.pair_groups():
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
            np.matmul((ctx.kmats[a] * ctx.kmats[b]).T, rhs[p], out=mom[p])
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


def per_edge_snlp_hessian_batch(model, X) -> np.ndarray:
    """SNLP log-likelihood Hessians accumulated edge by edge in a Python loop."""
    X = np.asarray(X, dtype=float)
    n, dim = X.shape
    P = X.reshape(n, -1, 2)
    out = np.zeros((n, dim, dim))
    diffs, dists, meas = model._edge_geometry(P)
    (uu_idx, _), (ua_idx, _) = model._uu, model._ua
    eye = np.eye(2)

    def edge_blocks(d, dist, m):
        u = d / dist[:, :, None]
        uut = u[:, :, :, None] * u[:, :, None, :]
        e = m[None, :] - dist
        return (-uut + (e / dist)[:, :, None, None] * (eye - uut)) / model._s2

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


def dense_bayesnet_hessian_batch(model, X) -> np.ndarray:
    """Bayes-net log-density Hessians accumulated node by node into a dense
    (n, dim, dim) stack, as the model built them before it wrote pattern
    values."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    out = np.zeros((n, d, d))
    for j, kind, parents, weights, comp_w, mu, s2 in model._nodes:
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
            resp, resid = model._responsibilities(X, j, parents, weights,
                                                  comp_w, s2)
            grads = np.empty((2, n, idx.size))
            curv = np.empty((2, idx.size, idx.size))
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
            sg = np.sqrt(resp)[:, :, None] * grads
            mix = np.einsum("ln,lkm->nkm", resp, curv)
            mix += np.einsum("lnk,lnm->nkm", sg, sg)
            mix -= np.einsum("nk,nm->nkm", gbar, gbar)
            out[np.ix_(np.arange(n), idx, idx)] += mix
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
    """The RBF kernel matrix as one expression over the oracle distances."""
    if dims is not None:
        X = X[:, dims]
        Y = Y[:, dims]
    return np.exp(-0.5 * squared_distances_oracle(X, Y) / lengthscale**2)


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


def local_kernel_eval(family, a: int, x, y):
    """Value of k_a plus the x-gradient sliced over C_a and over S_a.

    Both state vectors are full-length; only the S_a coordinates matter.
    """
    layout = family.layout
    if not 0 <= a < layout.n_factors:
        raise IndexError("factor index out of range")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (layout.total_dim,) or y.shape != (layout.total_dim,):
        raise ValueError("state vectors must have length total_dim")
    blanket = layout.blankets[a]
    value, grad_s = rbf_eval(x[blanket], y[blanket], family.kernel.lengthscale)
    factor = layout.factors[a]
    grad_c = np.zeros(factor.size)
    pos = np.searchsorted(blanket, factor)
    grad_c[:] = grad_s[pos]
    return value, grad_c, grad_s


def baseline_loop_run(method_cfg, particles, model, kernel, family):
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
                t, gradient_magnitude(field), radius, accepted=True,
                model_decrease=solution.decrease, **solution.trace_counts()))
        return current, records
    step = method_cfg["step"]
    if name == "svgd":
        for t in range(method_cfg["iterations"]):
            field = global_stein_gradient(current, model, kernel)
            current = current.advanced(current.positions - step * field.values)
            records.append(IterationRecord(t, gradient_magnitude(field), step,
                                           accepted=True))
        return current, records
    accumulator = None
    for t in range(method_cfg["iterations"]):
        field = graphical_stein_gradient(current, model, family)
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
        records.append(IterationRecord(t, gradient_magnitude(field), scale,
                                       accepted=True))
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


def tr_svi_kl_oracle(particles, target, local_kernels, initial_radius,
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
        ctx = local_context(current.positions, local_kernels)
        field = field_from_context(ctx, target)
        hessians = hessian_stack_from_context(ctx, target)
        gmag = gradient_magnitude(field)
        radius_used = state.radius
        solution = tr.solve_subproblems(field, hessians, radius_used)
        model = solution.decrease
        cg = solution.trace_counts()
        subset_seed = int(rng.integers(0, 2**63 - 1))
        if model == 0.0 and gmag == 0.0:
            trace.append(IterationRecord(t, gmag, radius_used, accepted=False,
                                         model_decrease=0.0, **cg))
            break
        if model >= 0.0:
            state.radius /= 2.0
            current = current.advanced(current.positions)
            trace.append(IterationRecord(t, gmag, radius_used, accepted=False,
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
            t, gmag, radius_used, accepted=accepted, rho=rho, approx_kl_u=u,
            approx_kl_o=o, model_decrease=model, **cg))
    return current, trace


def tr_svi_at_oracle(particles, target, local_kernels, iterations):
    """The AdaTrust driver as its own loop, before the trust-region methods
    shared one; its records now also carry the model decrease."""
    trace = RunTrace()
    ctx = local_context(particles.positions, local_kernels)
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
        ctx = local_context(current.positions, local_kernels)
        field = field_from_context(ctx, target)
        g_new = gradient_magnitude(field)
        state.update(g_new)
        trace.append(IterationRecord(
            t, g_new, radius_used, accepted=True, b=state.b,
            model_decrease=solution.decrease, **solution.trace_counts()))
    return current, trace
