"""Trust-region machinery: the CG-Steihaug subproblem solver, the Nystrom
KL-divergence estimate, and the two step-control drivers.

Both drivers solve one decoupled Newton system per particle inside a shared
radius; the max-over-particles step norm makes the joint trust-region problem
separable, so the per-particle solves are independent.  The KL driver adjusts
the radius from the agreement between predicted and estimated KL change and
can reject steps; the gradient driver adapts the radius purely from gradient
magnitudes and always applies its steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .evaluation import gradient_magnitude
from .kernels import KernelSpec, LocalKernelFamily, median_heuristic, rbf_matrix
from .model.layout import TargetModel
from .stein import (
    ParticleSet,
    SteinGradientField,
    field_from_context,
    hessian_stack_from_context,
    local_context,
)

INTERIOR = "interior"
BOUNDARY = "boundary"
NEG_CURVATURE = "neg-curvature"


def cg_steihaug(
    hessian_apply,
    g: np.ndarray,
    radius: float,
    tol: float = 0.1,
    max_iters: int | None = None,
) -> tuple[np.ndarray, str]:
    """Approximately minimize g.w + 0.5 w.H.w over the ball ||w|| <= radius.

    Truncated conjugate gradients: stops on a relative residual below tol,
    on crossing the boundary, or on encountering negative curvature, in which
    case the step runs to the boundary along the current direction.
    """
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
            return _best_boundary_point(hessian_apply, g, z, d, radius), NEG_CURVATURE
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


def approx_kl(
    particles: ParticleSet,
    target: TargetModel,
    nystrom_size: int,
    kernel: KernelSpec,
    seed: int,
) -> float:
    """KL(q || p) estimate: empirical cross term plus a Nystrom kernel-entropy
    term from the eigenvalues of the scaled kernel matrix on a random subset."""
    X = particles.positions
    n = X.shape[0]
    m = int(nystrom_size)
    if not 1 <= m <= n:
        raise ValueError(f"nystrom size must be in [1, {n}]")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=m, replace=False))
    K = rbf_matrix(X[idx], X[idx], kernel.lengthscale)
    lam = np.linalg.eigvalsh(K / n)
    keep = lam > 1e-12
    entropy_term = float(np.sum(lam[keep] * np.log(lam[keep])))
    cross = float(np.mean(target.log_density_batch(X)))
    return -cross + entropy_term


@dataclass
class TrustRegionKLState:
    """Shared radius of the KL driver plus its last agreement ratio."""

    radius: float
    iteration: int = 0
    last_rho: float | None = None

    SHRINK_BELOW = 1e-4
    EXPAND_ABOVE = 0.7

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def update(self, rho: float) -> bool:
        """Apply the radius transition for one agreement ratio; returns
        whether the step is accepted (any nonnegative ratio)."""
        if rho < self.SHRINK_BELOW:
            self.radius = self.radius / 2.0
        elif rho > self.EXPAND_ABOVE:
            self.radius = 1.5 * self.radius
        self.last_rho = rho
        self.iteration += 1
        return not rho < 0.0


@dataclass
class AdaTrustState:
    """Gradient-magnitude driver state: radius is g / b.

    b grows (up to the frozen b_max) while the gradient stalls and shrinks
    (down to b_min) whenever a new lowest gradient magnitude is seen.
    """

    b: float
    w: float
    g: float
    b_max: float
    b_min: float = 0.1

    @classmethod
    def initialize(cls, g0: float) -> "AdaTrustState":
        return cls(b=g0, w=g0, g=g0, b_max=g0)

    def radius(self) -> float:
        return self.g / self.b

    def update(self, g_new: float) -> None:
        if g_new < 0.999 * self.w:
            self.b = max(self.b_min, 0.9 * self.b)
            self.w = g_new
        else:
            self.b = min(self.b_max, self.b + g_new**2 / self.b)
        self.g = g_new


@dataclass
class IterationRecord:
    """One driver iteration; fields not meaningful for a driver stay None."""

    iteration: int
    gradient_magnitude: float
    radius_or_step: float
    accepted: bool
    rho: float | None = None
    approx_kl_u: float | None = None
    approx_kl_o: float | None = None
    model_decrease: float | None = None
    b: float | None = None
    wall_ms: float | None = None


@dataclass
class RunTrace:
    records: list[IterationRecord] = dataclass_field(default_factory=list)
    warnings: list[str] = dataclass_field(default_factory=list)

    def append(self, record: IterationRecord) -> None:
        self.records.append(record)

    def gradient_magnitudes(self) -> np.ndarray:
        return np.array([r.gradient_magnitude for r in self.records])


def solve_subproblems(
    field: SteinGradientField, hessians: np.ndarray, radius: float
) -> tuple[np.ndarray, list[str], float]:
    """Solve every particle's subproblem at a shared radius.

    `hessians` is the (n, dim, dim) stack of per-particle Hessians.  Returns
    the stacked steps, per-particle termination statuses, and the total
    predicted model decrease.  CG is forced to a relative residual of
    min(0.1, sqrt(||g_i||)) and at most dim iterations per particle.
    """
    n, dim = field.values.shape
    if not isinstance(hessians, np.ndarray) or hessians.shape != (n, dim, dim):
        raise ValueError(f"hessians must be an ({n}, {dim}, {dim}) stack")
    steps = np.zeros_like(field.values)
    statuses = []
    decrease = 0.0
    for i in range(n):
        g = field.values[i]
        apply = hessians[i].__matmul__
        tol = min(0.1, math.sqrt(float(np.linalg.norm(g))))
        w, status = cg_steihaug(apply, g, radius, tol=tol, max_iters=dim)
        steps[i] = w
        statuses.append(status)
        decrease += float(g @ w + 0.5 * w @ apply(w))
    return steps, statuses, decrease


def _median_kernel(X: np.ndarray) -> KernelSpec:
    return KernelSpec(median_heuristic(X))


def tr_svi_kl_run(
    particles: ParticleSet,
    target: TargetModel,
    local_kernels: LocalKernelFamily,
    initial_radius: float,
    iterations: int,
    seed: int,
    nystrom_size: int | None = None,
) -> tuple[ParticleSet, RunTrace]:
    """Trust-region driver with KL-estimate step control.

    Each iteration solves the per-particle systems inside the shared radius,
    compares the predicted quadratic decrease against the estimated KL change
    of the proposed set, and shrinks/expands the radius accordingly; steps
    with a negative agreement ratio are rejected outright.
    """
    if initial_radius <= 0:
        raise ValueError("initial radius must be positive")
    state = TrustRegionKLState(radius=initial_radius)
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
        steps, _, model = solve_subproblems(field, hessians, radius_used)
        subset_seed = int(rng.integers(0, 2**63 - 1))
        if model == 0.0 and gmag == 0.0:
            trace.append(
                IterationRecord(t, gmag, radius_used, accepted=False,
                                model_decrease=0.0)
            )
            break
        if model >= 0.0:
            # quadratic model predicts no decrease: treat as a failed model,
            # shrink, and keep the particles
            state.radius /= 2.0
            state.iteration += 1
            current = current.advanced(current.positions)
            trace.append(
                IterationRecord(t, gmag, radius_used, accepted=False,
                                model_decrease=model)
            )
            continue
        proposed = current.positions + steps
        proposed_set = ParticleSet(proposed, iteration=current.iteration,
                                   seed=current.seed)
        u = approx_kl(proposed_set, target, nystrom, _median_kernel(proposed),
                      subset_seed)
        o = approx_kl(current, target, nystrom,
                      _median_kernel(current.positions), subset_seed)
        rho = (u - o) / model
        accepted = state.update(rho)
        current = current.advanced(proposed if accepted else current.positions)
        trace.append(
            IterationRecord(
                t, gmag, radius_used, accepted=accepted, rho=rho,
                approx_kl_u=u, approx_kl_o=o, model_decrease=model,
            )
        )
    return current, trace


def tr_svi_at_run(
    particles: ParticleSet,
    target: TargetModel,
    local_kernels: LocalKernelFamily,
    iterations: int,
) -> tuple[ParticleSet, RunTrace]:
    """Trust-region driver with gradient-magnitude step control.

    Needs no objective evaluations: the radius g/b expands while new lowest
    gradient magnitudes keep arriving and contracts otherwise.  Every step is
    applied unconditionally.
    """
    trace = RunTrace()
    ctx = local_context(particles.positions, local_kernels)
    field = field_from_context(ctx, target)
    g0 = gradient_magnitude(field)
    if g0 == 0.0:
        trace.warnings.append("initial gradient magnitude is zero; nothing to do")
        return particles, trace
    state = AdaTrustState.initialize(g0)
    if g0 < state.b_min:
        trace.warnings.append(
            f"initial gradient magnitude {g0:.3e} is below b_min={state.b_min}; "
            "early radii may exceed the problem scale"
        )
    current = particles
    for t in range(iterations):
        hessians = hessian_stack_from_context(ctx, target)
        radius_used = state.radius()
        steps, _, _ = solve_subproblems(field, hessians, radius_used)
        current = current.advanced(current.positions + steps)
        ctx = local_context(current.positions, local_kernels)
        field = field_from_context(ctx, target)
        g_new = gradient_magnitude(field)
        state.update(g_new)
        trace.append(
            IterationRecord(
                t, g_new, radius_used, accepted=True, b=state.b,
            )
        )
    return current, trace
