"""First-order SVI updates used as ablations: plain SVGD, and message-passing
SVGD with static / decayed / AdaGrad step rules.  (The SVN-CTR ablation is
the trust-region loop with a constant radius, in `trustregion`.)

Every update is synchronous: all particle moves are computed from the
pre-step particle matrix, then applied at once.  Each step function returns
the moved particles, the Stein field at the old positions and the step size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, LocalKernelFamily
from .model.layout import TargetModel
from .stein import (ParticleSet, SteinGradientField, global_stein_gradient,
                    graphical_stein_gradient)

# Not called here; perfbench/tracing.py patches these names in this module.
from .stein import (  # noqa: F401
    field_from_context, global_context, hessian_stack_from_context)
from .trustregion import solve_subproblems  # noqa: F401

DECAYED = "decayed"
ADAGRAD = "adagrad"


@dataclass
class StepSchedule:
    """First-order step rule: geometrically decayed (constant at decay 1.0)
    or AdaGrad."""

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


def svgd_step(
    particles: ParticleSet,
    target: TargetModel,
    kernel: KernelSpec,
    step: float,
) -> tuple[ParticleSet, SteinGradientField, float]:
    """One SVGD update: kernel-weighted score plus kernel repulsion."""
    if step <= 0:
        raise ValueError("step size must be positive")
    field = global_stein_gradient(particles, target, kernel)
    moved = particles.advanced(particles.positions - step * field.values)
    return moved, field, step


def mp_svgd_step(
    particles: ParticleSet,
    target: TargetModel,
    local_kernels: LocalKernelFamily,
    schedule: StepSchedule,
    t: int,
) -> tuple[ParticleSet, SteinGradientField, float]:
    """One first-order update along the local-kernel functional gradient."""
    field = graphical_stein_gradient(particles, target, local_kernels)
    displacement = schedule.scaled_step(-field.values, t)
    return (particles.advanced(particles.positions + displacement), field,
            schedule.step_size(t))

