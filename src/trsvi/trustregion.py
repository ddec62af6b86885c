"""Trust-region machinery: the CG-Steihaug subproblem solver, the Nystrom
KL-divergence estimate, and the one driver loop of every method.

Each iteration of `trust_region_run` solves one decoupled Newton system per
particle inside a shared radius; the max-over-particles step norm makes the
joint problem separable.  The controller sets the radius and judges each
proposal: `AdaTrustState` (tr-svi-at) from gradient magnitudes alone, taking
every step; `TrustRegionKLState` (tr-svi-kl) from the agreement between
predicted and estimated KL change, rejecting some steps; `ConstantRadius`
(svn-ctr, under the global kernel) keeps one radius and takes every step;
a `StepSchedule` (svgd, mp-svgd) steps along the field and solves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import NamedTuple

import numpy as np

from .evaluation import gradient_magnitude
from .kernels import (DegenerateSampleError, KernelSpec, median_heuristic,
                      rbf_matrix)
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
STATUSES = (INTERIOR, BOUNDARY, NEG_CURVATURE)

DECAYED = "decayed"
ADAGRAD = "adagrad"


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def cg_steihaug_rows(
    apply,
    G: np.ndarray,
    radius: float,
    tol,
    max_iters: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CG-Steihaug on every row of G at once, each row its own system.

    Row i approximately minimizes G_i.w + 0.5 w.H_i.w over ||w|| <= radius;
    `apply` maps an (n, dim) matrix of directions to the (n, dim) matrix of
    the rows' Hessian products, and `tol` is a scalar or one relative
    residual per row.  Each row stops on its own: at a residual below
    tol_i * ||G_i|| (at once for G_i = 0), on d.d == 0, at the boundary when
    an iterate would leave the ball, or on negative curvature, where it takes
    the better of the two boundary points along +-d.  Finished rows stay
    frozen behind a mask and their directions are zeroed, so `apply` always
    sees the whole (n, dim) matrix.  Returns the steps, each row's status as
    an index into STATUSES, and each row's CG iteration count.
    """
    G = np.asarray(G, dtype=float)
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not np.isfinite(G).all():
        raise ValueError("gradient must be finite")
    n = G.shape[0]
    Z = np.zeros_like(G)
    Z_next = np.empty_like(G)
    R = G.copy()
    D = -G
    rr = _row_dot(G, G)
    threshold = tol * np.sqrt(rr)
    status = np.zeros(n, dtype=np.intp)
    iters = np.zeros(n, dtype=np.int64)
    active = rr != 0.0
    # Z, Z_next, R and D are updated in place: fresh (n, dim) arrays on
    # every step fragmented the heap enough to raise peak RSS by ~15 MB at
    # n = 200, dim = 100.
    for _ in range(max_iters):
        active &= _row_dot(D, D) != 0.0
        if not active.any():
            break
        D[~active] = 0.0
        HD = apply(D)
        dHd = _row_dot(D, HD)
        iters += active
        neg = active & (dHd <= 0.0)
        if neg.any():
            best = _best_boundary_points(apply, G, Z, D, radius, neg)
            Z[neg] = best[neg]
            status[neg] = STATUSES.index(NEG_CURVATURE)
            active &= ~neg
        alpha = np.divide(rr, dHd, out=np.zeros(n), where=active)[:, None]
        np.multiply(alpha, D, out=Z_next)
        Z_next += Z
        hit = active & (np.sqrt(_row_dot(Z_next, Z_next)) >= radius)
        if hit.any():
            tau = _boundary_tau(Z[hit], D[hit], radius)
            Z_next[hit] = Z[hit] + tau[:, None] * D[hit]
            status[hit] = STATUSES.index(BOUNDARY)
            active &= ~hit
        Z, Z_next = Z_next, Z
        R += alpha * HD
        rr_next = _row_dot(R, R)
        active &= ~(np.sqrt(rr_next) < threshold)
        D *= np.divide(rr_next, rr, out=np.zeros(n), where=active)[:, None]
        D -= R
        rr = rr_next
    return Z, status, iters


def _boundary_tau(Z: np.ndarray, D: np.ndarray, radius: float) -> np.ndarray:
    """Per row, the positive root of ||z + tau d|| = radius."""
    dd = _row_dot(D, D)
    zd = _row_dot(Z, D)
    disc = zd**2 + dd * (radius**2 - _row_dot(Z, Z))
    return (-zd + np.sqrt(np.maximum(disc, 0.0))) / dd


def _best_boundary_points(apply, G, Z, D, radius, rows) -> np.ndarray:
    """On `rows`, the boundary point along +-d from z with the lower model
    value (+d on a tie); zero on the other rows."""
    dd = _row_dot(D, D)
    zd = _row_dot(Z, D)
    root = np.sqrt(np.maximum(zd**2 + dd * (radius**2 - _row_dot(Z, Z)), 0.0))
    points, values = [], []
    for sign in (1.0, -1.0):
        tau = np.divide(-zd + sign * root, dd, out=np.zeros_like(dd), where=rows)
        P = np.where(rows[:, None], Z + tau[:, None] * D, 0.0)
        points.append(P)
        values.append(_row_dot(G, P) + 0.5 * _row_dot(P, apply(P)))
    return np.where((values[1] < values[0])[:, None], points[1], points[0])


def cg_steihaug(
    hessian_apply,
    g: np.ndarray,
    radius: float,
    tol: float = 0.1,
    max_iters: int | None = None,
) -> tuple[np.ndarray, str]:
    """Approximately minimize g.w + 0.5 w.H.w over the ball ||w|| <= radius.

    The one-system form of `cg_steihaug_rows`: `hessian_apply` maps a vector
    to its Hessian product, and at most `max_iters` (default: the dimension)
    CG iterations run.
    """
    g = np.asarray(g, dtype=float).reshape(1, -1)
    steps, status, _ = cg_steihaug_rows(
        lambda V: np.asarray(hessian_apply(V[0]), dtype=float)[None, :],
        g, radius, tol, g.shape[1] if max_iters is None else max_iters,
    )
    return steps[0], STATUSES[status[0]]


def default_nystrom_size(particles: int) -> int:
    """The KL estimate's Nystrom subset size when none is set: a tenth of
    the particles, at least one."""
    return max(1, particles // 10)


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


@dataclass(kw_only=True)
class IterationRecord:
    """One iteration of a method; fields it does not set stay None.  The
    fields, in order, are the columns of the trace CSV."""

    iteration: int
    gradient_magnitude: float
    radius_or_step: float
    rho: float | None = None
    approx_kl_u: float | None = None
    approx_kl_o: float | None = None
    accepted: bool
    model_decrease: float | None = None
    b: float | None = None
    cg_iters: int | None = None
    cg_boundary: int | None = None
    cg_neg_curvature: int | None = None
    wall_ms: float | None = None


@dataclass
class RunTrace:
    records: list[IterationRecord] = dataclass_field(default_factory=list)
    warnings: list[str] = dataclass_field(default_factory=list)

    def append(self, record: IterationRecord) -> None:
        self.records.append(record)

    def gradient_magnitudes(self) -> np.ndarray:
        return np.array([r.gradient_magnitude for r in self.records])


class Subproblems(NamedTuple):
    """Every particle's trust-region step and how its CG solve ended."""

    steps: np.ndarray
    statuses: list[str]
    decrease: float
    iterations: np.ndarray

    def trace_counts(self) -> dict[str, int]:
        """The per-iteration CG totals that go into an IterationRecord."""
        return {
            "cg_iters": int(self.iterations.sum()),
            "cg_boundary": self.statuses.count(BOUNDARY),
            "cg_neg_curvature": self.statuses.count(NEG_CURVATURE),
        }


def solve_subproblems(field: SteinGradientField, hessians,
                      radius: float) -> Subproblems:
    """Solve every particle's subproblem at a shared radius.

    `hessians` is the per-particle Hessian operator of
    `hessian_stack_from_context`: `hessians.apply(V)` returns the rows
    H_i @ V[i], and `hessians.shape` is (n, dim).  One batched CG runs over
    all particles.  Returns the stacked steps, the per-particle termination
    statuses, the total predicted model decrease and the per-particle CG
    iteration counts.  CG is forced to a relative residual of
    min(0.1, sqrt(||g_i||)) and at most dim iterations per particle.
    """
    n, dim = field.values.shape
    if not callable(getattr(hessians, "apply", None)) or tuple(
            getattr(hessians, "shape", ())) != (n, dim):
        raise ValueError(f"hessians must be a Hessian operator of shape "
                         f"({n}, {dim})")
    apply = hessians.apply
    G = field.values
    tol = np.minimum(0.1, np.sqrt(np.sqrt(_row_dot(G, G))))
    steps, status, iterations = cg_steihaug_rows(apply, G, radius, tol, dim)
    decrease = float(np.sum(_row_dot(G, steps)
                            + 0.5 * _row_dot(steps, apply(steps))))
    statuses = [STATUSES[k] for k in status]
    return Subproblems(steps, statuses, decrease, iterations)


class Trial(NamedTuple):
    """One solved iteration, as a controller judges it."""

    particles: ParticleSet
    field: SteinGradientField
    solution: Subproblems
    proposal: np.ndarray


class Verdict(NamedTuple):
    """Acceptance, the controller's own IterationRecord fields, and a stop."""

    accepted: bool
    record: dict
    stop: bool = False


def _median_kernel(X: np.ndarray) -> KernelSpec | None:
    """The median-heuristic kernel of X; None where over half of its row
    pairs coincide."""
    try:
        return KernelSpec(median_heuristic(X))
    except DegenerateSampleError:
        return None


@dataclass
class TrustRegionKLState:
    """KL-ratio step control (tr-svi-kl): the shared radius, the Nystrom
    subset size of the KL estimate (None: `default_nystrom_size`) and the
    seed of the per-iteration subset seeds."""

    radius: float
    nystrom_size: int | None = None
    seed: int = 0
    _rng: np.random.Generator = dataclass_field(init=False)
    # (positions, median kernel) of the current particles, matched by identity
    _kernel: tuple = dataclass_field(default=(None, None), init=False, compare=False)

    SHRINK_BELOW = 1e-4
    EXPAND_ABOVE = 0.7

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        self._rng = np.random.default_rng(self.seed)

    def update(self, rho: float) -> bool:
        """Apply the radius transition for one agreement ratio; returns
        whether the step is accepted (any nonnegative ratio)."""
        if rho < self.SHRINK_BELOW:
            self.radius = self.radius / 2.0
        elif rho > self.EXPAND_ABOVE:
            self.radius = 1.5 * self.radius
        return not rho < 0.0

    def trial_radius(self) -> float:
        return self.radius

    def judge(self, trial: Trial, target: TargetModel, field_at) -> Verdict:
        """rho = (u - o) / model, with KL estimates u of the proposal and o
        of the current particles; a model predicting no decrease, or a
        proposal on which over half the particle pairs coincide (no median
        lengthscale, so no u), halves the radius and keeps the particles,
        and a zero model at a zero gradient stops."""
        gmag = gradient_magnitude(trial.field)
        model = trial.solution.decrease
        subset_seed = int(self._rng.integers(0, 2**63 - 1))
        if model == 0.0 and gmag == 0.0:
            return Verdict(False, {"gradient_magnitude": gmag}, stop=True)
        kernel_u = _median_kernel(trial.proposal) if model < 0.0 else None
        if kernel_u is None:
            self.radius /= 2.0
            return Verdict(False, {"gradient_magnitude": gmag})
        current = trial.particles
        m = (default_nystrom_size(current.n) if self.nystrom_size is None
             else int(self.nystrom_size))
        u = approx_kl(ParticleSet(trial.proposal, current.iteration,
                                  current.seed), target, m, kernel_u, subset_seed)
        if self._kernel[0] is not current.positions:
            self._kernel = (current.positions,
                            KernelSpec(median_heuristic(current.positions)))
        o = approx_kl(current, target, m, self._kernel[1], subset_seed)
        rho = (u - o) / model
        accepted = self.update(rho)
        if accepted:
            self._kernel = (trial.proposal, kernel_u)
        return Verdict(accepted, {"gradient_magnitude": gmag, "rho": rho,
                                  "approx_kl_u": u, "approx_kl_o": o})


@dataclass
class AdaTrustState:
    """Gradient-magnitude step control (tr-svi-at): radius is g / b.

    b grows (up to the frozen b_max) while the gradient stalls and shrinks
    (down to b_min) whenever a new lowest gradient magnitude is seen.  All
    fields start at the first gradient magnitude (`initialize`, `begin`).
    """

    b: float = float("nan")
    w: float = float("nan")
    g: float = float("nan")
    b_max: float = float("nan")
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

    def begin(self, g0: float, warnings: list[str]) -> bool:
        if g0 == 0.0:
            warnings.append("initial gradient magnitude is zero; nothing to do")
            return False
        self.b = self.w = self.g = self.b_max = g0
        if g0 < self.b_min:
            warnings.append(f"initial gradient magnitude {g0:.3e} is below b_min="
                            f"{self.b_min}; early radii may exceed the problem scale")
        return True

    def trial_radius(self) -> float:
        return self.radius()

    def judge(self, trial: Trial, target: TargetModel, field_at) -> Verdict:
        """The gradient magnitude at the proposal sets the next radius; the
        run stops on the proposal once that radius g / b is 0, where no
        subproblem has a step."""
        g_new = gradient_magnitude(field_at(trial.proposal))
        self.update(g_new)
        return Verdict(True, {"gradient_magnitude": g_new, "b": self.b},
                       stop=self.radius() == 0.0)


@dataclass
class ConstantRadius:
    """Constant step control (svn-ctr): one radius, every step taken."""

    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def trial_radius(self) -> float:
        return self.radius

    def judge(self, trial: Trial, target: TargetModel, field_at) -> Verdict:
        return Verdict(True, {"gradient_magnitude": gradient_magnitude(trial.field)})


@dataclass
class StepSchedule:
    """First-order step rule: geometrically decayed (constant at decay 1.0)
    or AdaGrad.  As the controller of svgd and mp-svgd it takes every step."""

    kind: str
    initial_step: float
    decay: float = 1.0
    epsilon: float = 1e-8
    accumulator: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (DECAYED, ADAGRAD):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.initial_step <= 0:
            raise ValueError("initial step must be positive")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError("decay must lie in (0, 1]")

    def step_size(self, t: int) -> float:
        """Step size of update t; AdaGrad's is its initial step."""
        if self.kind == DECAYED:
            return self.initial_step * self.decay**t
        return self.initial_step

    def scaled_step(self, direction: np.ndarray, t: int) -> np.ndarray:
        """Displacement for one update; AdaGrad accumulates squared directions."""
        if self.kind == DECAYED:
            return self.step_size(t) * direction
        if self.accumulator is None:
            self.accumulator = np.zeros_like(direction)
        self.accumulator = self.accumulator + direction**2
        return self.initial_step * direction / (np.sqrt(self.accumulator) + self.epsilon)


def trust_region_run(particles: ParticleSet, target: TargetModel, build_context,
                     controller, iterations: int) -> tuple[ParticleSet, RunTrace]:
    """The driver loop of every method.

    Each iteration builds the kernel context (`build_context(positions)`),
    Stein field and Hessian operator at the current particles, solves the
    subproblems at `controller.trial_radius()`, and lets
    `controller.judge(trial, target, field_at)` take or reject the proposal;
    `controller.begin(g0, warnings)`, if defined, may end the run early, and
    a verdict's `stop` ends it after its iteration, on the proposal if it
    was taken.  The three are kept with the positions array they were built
    at, so nothing is rebuilt after a rejection or at a proposal `field_at`
    already evaluated.
    Only one context is held: the old one is dropped before the next is
    built.  No rebuild comes of that, since tr-svi-at takes every proposal
    it evaluates and tr-svi-kl evaluates none.  A `StepSchedule` controller
    steps along the negative field instead, with no Hessian operator.
    """
    trace = RunTrace()
    built = {"X": None}

    def field_at(X):
        if X is not built["X"]:
            built.update(X=None, ctx=None, field=None, hessians=None)
            ctx = build_context(X)
            built.update(X=X, ctx=ctx, field=field_from_context(ctx, target))
        return built["field"]

    begin = getattr(controller, "begin", None)
    if begin and not begin(gradient_magnitude(field_at(particles.positions)),
                           trace.warnings):
        return particles, trace
    current = particles
    for t in range(iterations):
        field = field_at(current.positions)
        if isinstance(controller, StepSchedule):
            trace.append(IterationRecord(
                iteration=t, gradient_magnitude=gradient_magnitude(field),
                radius_or_step=controller.step_size(t), accepted=True))
            current = current.advanced(
                current.positions + controller.scaled_step(-field.values, t))
            continue
        if built["hessians"] is None:
            built["hessians"] = hessian_stack_from_context(built["ctx"], target)
        radius = controller.trial_radius()
        solution = solve_subproblems(field, built["hessians"], radius)
        trial = Trial(current, field, solution,
                      current.positions + solution.steps)
        verdict = controller.judge(trial, target, field_at)
        trace.append(IterationRecord(
            iteration=t, radius_or_step=radius, accepted=verdict.accepted,
            model_decrease=solution.decrease, **solution.trace_counts(),
            **verdict.record))
        if verdict.stop:
            if verdict.accepted:
                current = current.advanced(trial.proposal)
            break
        current = current.advanced(
            trial.proposal if verdict.accepted else current.positions)
        del trial, solution     # free their arrays before the next assembly
    return current, trace


def tr_svi_kl_run(
    particles: ParticleSet,
    target: TargetModel,
    kernel: KernelSpec,
    initial_radius: float,
    iterations: int,
    seed: int,
    nystrom_size: int | None = None,
) -> tuple[ParticleSet, RunTrace]:
    """Local-kernel trust-region run with KL-ratio step control."""
    return trust_region_run(
        particles, target, lambda X: local_context(X, target.layout, kernel),
        TrustRegionKLState(initial_radius, nystrom_size, seed), iterations)


def tr_svi_at_run(
    particles: ParticleSet,
    target: TargetModel,
    kernel: KernelSpec,
    iterations: int,
) -> tuple[ParticleSet, RunTrace]:
    """Local-kernel trust-region run with gradient-magnitude step control."""
    return trust_region_run(
        particles, target, lambda X: local_context(X, target.layout, kernel),
        AdaTrustState(), iterations)
