"""Memory regression: the trust-region methods hold every Hessian as values
over the layout's pattern (tr-svi-at, tr-svi-kl) or as a matrix-free
operator (svn-ctr), and one kernel context at a time, so no dense
(n, dim, dim) array is ever built.  At the snlp50 problem (n = 200,
dim = 100) one such array is 16 MB, which each bound below would not
absorb."""

import tracemalloc
from functools import cache
from pathlib import Path

import pytest
import yaml

from trsvi.config import validate_config
from trsvi.experiment import (build_problem, execute_method,
                              initialize_particles, make_model)
from trsvi.kernels import KernelSpec
from trsvi.stein import local_context

DENSE_STACK = 200 * 100 * 100 * 8

# tracemalloc peaks of two-iteration runs at particle seed 3 (numpy 2.4):
# tr-svi-at 29.1 MB, tr-svi-kl 29.1 MB, svn-ctr 7.3 MB (the dense stacks
# gave 57.9, 57.9 and 42.9 MB).  Each bound is the peak plus half of one
# dense stack.
PEAK_BOUNDS = {
    "tr-svi-at": 29.1e6 + DENSE_STACK / 2,
    "tr-svi-kl": 29.1e6 + DENSE_STACK / 2,
    "svn-ctr": 7.3e6 + DENSE_STACK / 2,
}

METHODS = {
    "tr-svi-at": {"name": "tr-svi-at"},
    "tr-svi-kl": {"name": "tr-svi-kl", "initial_radius": 1.0,
                  "nystrom_size": None},
    "svn-ctr": {"name": "svn-ctr", "radius": 0.1},
}


@cache
def _snlp50():
    path = Path(__file__).parents[1] / "configs" / "snlp_large.yaml"
    cfg = validate_config(yaml.safe_load(path.read_text()))
    return build_problem(cfg["problem"]), cfg["run"]


@pytest.mark.parametrize("label", list(METHODS))
def test_snlp50_run_peak_stays_below_one_dense_stack(label):
    problem, run_cfg = _snlp50()
    dim = 2 * problem.n_unknowns
    assert run_cfg["particles"] * dim * dim * 8 == DENSE_STACK
    method = {**METHODS[label], "label": label, "iterations": 2}
    tracemalloc.start()
    try:
        _, trace = execute_method(problem, method, 3.0, run_cfg, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.records) == 2
    assert peak < PEAK_BOUNDS[label], f"{label}: peak {peak / 1e6:.1f} MB"


def test_snlp50_local_context_holds_one_kernel_per_distinct_blanket():
    """At snlp50 (n = 200) a local context holds one n x n kernel per
    distinct blanket: 41 of the 50 blankets are distinct, so U n^2 8 =
    13.1 MB where one kernel per factor took 16 MB.  The chunked build's
    temporaries add 0.58 MB (numpy 2.4); the bound allows 1 MiB."""
    problem, run_cfg = _snlp50()
    layout = make_model(problem).layout
    X = initialize_particles(problem, run_cfg, 3).positions
    n = X.shape[0]
    distinct = len({b.tobytes() for b in layout.blankets})
    assert (n, layout.n_factors, distinct) == (200, 50, 41)
    layout.padded_blankets          # the layout's tables, built once
    tracemalloc.start()
    try:
        ctx = local_context(X, layout, KernelSpec(3.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < distinct * n * n * 8 + 2**20, f"peak {peak / 1e6:.2f} MB"
    assert ctx.kmats.nbytes == distinct * n * n * 8
