"""The benchmark's span tracing wraps program names by lookup; renaming one
of them must fail here rather than inside a benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from trsvi import baselines, experiment, stein, trustregion
from trsvi.kernels import KernelSpec, LocalKernelFamily
from trsvi.model import BayesNetModel, SnlpModel

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# (namespace, name) pairs the benchmark's traced run relies on
HOOKS = [
    (ns, name)
    for ns in (trustregion, experiment, baselines)
    for name in ("hessian_stack_from_context", "solve_subproblems",
                 "field_from_context")
] + [(trustregion, "cg_steihaug")] + [
    (cls, "hessian_batch") for cls in (BayesNetModel, SnlpModel)
]


@pytest.fixture()
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_uninstall_restores(tracing, mixed_bn):
    originals = {(id(ns), name): vars(ns)[name] for ns, name in HOOKS}
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        for ns, name in HOOKS:
            assert vars(ns)[name] is not originals[(id(ns), name)], name
        X = np.random.default_rng(0).normal(size=(4, mixed_bn.layout.total_dim))
        ctx = stein.local_context(
            X, LocalKernelFamily(KernelSpec(1.0), mixed_bn.layout))
        stack = trustregion.hessian_stack_from_context(ctx, mixed_bn)
        assert isinstance(stack, np.ndarray)
        assert tracer.counts["hessian_stack.out_bytes"] == stack.nbytes
        spans = tracer.aggregate()
        assert spans["stein.hessian_stack_from_context"]["calls"] == 1
        assert spans["model.hessian_batch"]["calls"] == 1
    finally:
        tracer.uninstall()
    for ns, name in HOOKS:
        assert vars(ns)[name] is originals[(id(ns), name)], name
