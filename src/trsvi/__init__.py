"""Trust-region Stein variational inference on factor-structured targets.

Particle-based posterior approximation that exploits conditional-independence
structure through local kernels, second-order information through blanket-
sparse Hessians, and adaptive step control on one trust-region loop, plus
the first-order and global-kernel baselines it is compared against.
"""

from . import baselines, evaluation, kernels, model, stein, trustregion

__all__ = ["baselines", "evaluation", "kernels", "model", "stein", "trustregion"]
__version__ = "0.1.0"
