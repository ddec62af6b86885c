"""Quantitative evaluation: MMD against ground truth, gradient-magnitude
diagnostics, and a random-walk Metropolis reference sampler for desk-scale
oracles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, rbf_matrix
from .model.layout import TargetModel
from .stein import SteinGradientField

# Rows per strip of the kernel sums. A strip against m rows is one (256, m)
# `rbf_matrix`, so memory is O(256 m) for any sample size. Every bundled
# particle count (100-200) fits in one strip, so a cross term against the
# reference is one plain sum.
_MMD_STRIP_ROWS = 256


def _kernel_sum(X: np.ndarray, Y: np.ndarray, lengthscale: float) -> float:
    """Sum of k(x_i, y_j) over all pairs, reduced strip by strip in fixed order."""
    total = 0.0
    for start in range(0, X.shape[0], _MMD_STRIP_ROWS):
        block = X[start:start + _MMD_STRIP_ROWS]
        total += float(rbf_matrix(block, Y, lengthscale).sum())
    return total


def _self_sum(X: np.ndarray, lengthscale: float) -> float:
    """Sum of k(x_i, x_j) over all ordered pairs, read from the upper
    triangle: each diagonal strip once plus twice the strip against the
    later rows, in fixed order. Up to 256 rows this is _kernel_sum(X, X)."""
    total = 0.0
    for start in range(0, X.shape[0], _MMD_STRIP_ROWS):
        stop = start + _MMD_STRIP_ROWS
        block = X[start:stop]
        total += float(rbf_matrix(block, block, lengthscale).sum())
        if stop < X.shape[0]:
            total += 2.0 * float(rbf_matrix(block, X[stop:], lengthscale).sum())
    return total


def _mmd_from_self_sums(X: np.ndarray, sxx: float, Y: np.ndarray, syy: float,
                        lengthscale: float) -> float:
    """Squared MMD from both self-sums and the cross term.

    The arguments are put in a canonical order (fewer rows first, then the
    smaller bytes) before the cross term is summed and the three terms are
    combined, so the value does not depend on which sample is X. Byte-equal
    samples take the cross term from the self-sum, which makes it exactly 0.
    """
    n, m = X.shape[0], Y.shape[0]
    swap = m < n
    if m == n:
        xb, yb = X.tobytes(), Y.tobytes()
        if xb == yb:
            return sxx / n**2 - 2.0 * sxx / (n * m) + syy / m**2
        swap = yb < xb
    if swap:
        X, sxx, Y, syy, n, m = Y, syy, X, sxx, m, n
    sxy = _kernel_sum(X, Y, lengthscale)
    return sxx / n**2 - 2.0 * sxy / (n * m) + syy / m**2


def mmd(X: np.ndarray, Y: np.ndarray, kernel: KernelSpec) -> float:
    """Biased squared-MMD estimate with all pair terms included.

    The value is exactly symmetric in (X, Y) and exactly zero when X and Y
    are the same matrix; for a row permutation of the same matrix it is zero
    within rounding, as the pair sums then run in another order.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ValueError("samples must share a column count")
    if X.shape[0] < 1 or Y.shape[0] < 1:
        raise ValueError("samples must be nonempty")
    return MmdReference(Y, kernel).value(X)


class MmdReference:
    """Repeated MMD evaluations against one fixed reference sample.

    Precomputes the reference self-term once; `mmd` is one such value.
    """

    def __init__(self, reference: np.ndarray, kernel: KernelSpec):
        self.reference = np.atleast_2d(np.asarray(reference, dtype=float))
        self.kernel = kernel
        self._self_sum = _self_sum(self.reference, kernel.lengthscale)

    def value(self, X: np.ndarray) -> float:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.reference.shape[1]:
            raise ValueError("samples must share a column count")
        ell = self.kernel.lengthscale
        return _mmd_from_self_sums(X, _self_sum(X, ell), self.reference,
                                   self._self_sum, ell)


def gradient_magnitude(field: SteinGradientField) -> float:
    """Root of the summed squared per-particle gradient norms.

    The sum is numpy's own, not a BLAS dot, whose threaded reduction order
    would make the value depend on the BLAS thread count.
    """
    v = field.values
    return float(np.sqrt(np.einsum("ij,ij->", v, v)))


@dataclass
class MetropolisResult:
    samples: np.ndarray
    acceptance_rate: float


# Proposals that metropolis_reference evaluates per log_density_batch call.
# A call on a few rows costs little more than a call on one, and the rows
# after the first acceptance are wasted.  Over whole chains (2 vCPUs, 2 to
# 8 rows tried), 6 was within 5% of the best on the snlp50 benchmark chain
# (acceptance 0.51) and 10-20% faster than 4 on the snlp_small chain (0.27)
# and on a one-dimensional normal chain (0.44).
_PREFETCH = 6


def metropolis_reference(
    target: TargetModel,
    chain_length: int,
    proposal_scale: float,
    burn_in: int = 0,
    thinning: int = 1,
    seed: int = 0,
    initial: np.ndarray | None = None,
) -> MetropolisResult:
    """Random-walk Metropolis with isotropic Gaussian proposals.

    A stand-in reference sampler for problems whose ground truth cannot be
    drawn directly; deterministic given the seed.  The increments and
    uniforms are drawn up front, so the chain prefetches (Brockwell, 2006):
    it evaluates the next few proposals from the current state in one
    `log_density_batch` call and takes them up to the first acceptance.
    By the row contract of `TargetModel.log_density_batch`, the samples and
    the acceptance rate are bitwise those of the one-step-at-a-time chain.
    A proposal that is not finite gets log density -inf, as the
    `ValueError` of the one-point `log_density` would give.
    """
    if proposal_scale <= 0:
        raise ValueError("proposal scale must be positive")
    if chain_length < 1:
        raise ValueError("chain length must be >= 1")
    if thinning < 1:
        raise ValueError("thinning must be >= 1")
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
    increments = rng.normal(0.0, proposal_scale, size=(total, dim))
    log_uniforms = np.log(1.0 - rng.random(total))   # uniform over (0, 1]
    log_density_batch = target.log_density_batch
    out = 0          # states kept so far: those of the kept steps before `step`
    step = 0
    while step < total:
        stop = min(step + _PREFETCH, total)
        proposals = x + increments[step:stop]
        if np.isfinite(proposals).all():
            logp_props = log_density_batch(proposals)
        else:
            finite = np.isfinite(proposals).all(axis=1)
            logp_props = np.full(stop - step, -np.inf)
            if finite.any():
                logp_props[finite] = log_density_batch(proposals[finite])
        accepts = (logp_props - logp >= log_uniforms[step:stop]).tolist()
        k = accepts.index(True) if True in accepts else None
        end = stop if k is None else step + k + 1
        # the steps before `end` keep x, except an acceptance at end - 1;
        # kept_end counts the kept steps before `end`
        kept_end = max(0, -((burn_in - end) // thinning))
        kept[out:kept_end] = x
        if k is not None:
            x = proposals[k]
            logp = logp_props[k]
            accepted += 1
            if end > burn_in and (end - 1 - burn_in) % thinning == 0:
                kept[kept_end - 1] = x
        out = kept_end
        step = end
    return MetropolisResult(samples=kept, acceptance_rate=accepted / total)
