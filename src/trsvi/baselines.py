"""First-order SVI updates used as ablations: plain SVGD, and message-passing
SVGD with static / decayed / AdaGrad step rules.  Each is one update of the
loop in `trustregion`, which the runner drives with a `StepSchedule`.

Every update is synchronous: all particle moves are computed from the
pre-step particle matrix, then applied at once.  Each step function returns
the moved particles, the Stein field at the old positions and the step size.
"""

from __future__ import annotations

from .kernels import KernelSpec
from .model.layout import TargetModel
from .stein import (ParticleSet, SteinGradientField, global_stein_gradient,
                    graphical_stein_gradient)
# the step rules that callers of the step functions build schedules from
from .trustregion import ADAGRAD, DECAYED, StepSchedule  # noqa: F401

# Not called here; perfbench/tracing.py patches these names in this module.
from .stein import (  # noqa: F401
    field_from_context, global_context, hessian_stack_from_context)
from .trustregion import solve_subproblems  # noqa: F401


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
    kernel: KernelSpec,
    schedule: StepSchedule,
    t: int,
) -> tuple[ParticleSet, SteinGradientField, float]:
    """One first-order update along the local-kernel functional gradient."""
    field = graphical_stein_gradient(particles, target, kernel)
    displacement = schedule.scaled_step(-field.values, t)
    return (particles.advanced(particles.positions + displacement), field,
            schedule.step_size(t))

