"""The benchmark's span tracing wraps program names by lookup; renaming one
of them must fail here rather than inside a benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
import yaml

from trsvi import baselines, cli, evaluation, experiment, stein, trustregion
from trsvi.kernels import KernelSpec, LocalKernelFamily
from trsvi.model import BayesNetModel, SnlpModel
from trsvi.stein import ParticleSet

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# (namespace, name) pairs the benchmark's traced run relies on
HOOKS = [
    (ns, name)
    for ns in (trustregion, experiment, baselines)
    for name in ("hessian_stack_from_context", "solve_subproblems",
                 "field_from_context")
] + [(trustregion, "cg_steihaug")] + [
    (ns, "median_heuristic") for ns in (trustregion, experiment)
] + [
    (cls, "hessian_batch") for cls in (BayesNetModel, SnlpModel)
] + [
    (experiment, name) for name in ("save_samples_csv", "load_samples_csv",
                                    "metropolis_reference")
] + [
    (evaluation.MmdReference, name) for name in ("__init__", "value")
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
        assert stack.shape == X.shape and stack.nbytes > 0
        assert tracer.counts["hessian_stack.out_bytes"] == stack.nbytes
        spans = tracer.aggregate()
        assert spans["stein.hessian_stack_from_context"]["calls"] == 1
        assert spans["model.hessian_batch"]["calls"] == 1
    finally:
        tracer.uninstall()
    for ns, name in HOOKS:
        assert vars(ns)[name] is originals[(id(ns), name)], name


def test_baseline_runs_record_their_spans(tracing, mixed_bn):
    """The runner's baseline loop reaches the step, Hessian and subproblem
    layers through names the tracer wraps."""
    run_cfg = {"particles": 8, "init_center": None, "init_scale": None}
    methods = [
        {"name": "mp-svgd-dlr", "iterations": 3, "step": 0.05, "decay": 0.99},
        {"name": "svn-ctr", "iterations": 2, "radius": 0.1},
    ]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        for method in methods:
            experiment.execute_method(mixed_bn.spec, method, 1.0, run_cfg, 0)
        spans = tracer.aggregate()
    finally:
        tracer.uninstall()
    assert spans["experiment.execute_method"]["calls"] == 2
    assert spans["baselines.mp_svgd_step"]["calls"] == 3
    assert spans["trustregion.solve_subproblems"]["calls"] == 2
    assert spans["stein.hessian_stack_from_context"]["calls"] == 2
    assert tracer.counts["cg.statuses"] == 2 * 8


def test_trust_region_runs_record_their_spans(tracing, mixed_bn):
    """All three trust-region methods reach the context, subproblem and KL
    layers through names the tracer wraps; svn-ctr builds its global
    context through the runner's own name."""
    run_cfg = {"particles": 8, "init_center": None, "init_scale": None}
    methods = [
        {"name": "svn-ctr", "iterations": 2, "radius": 0.1},
        {"name": "tr-svi-at", "iterations": 3},
        {"name": "tr-svi-kl", "iterations": 3, "initial_radius": 1.0,
         "nystrom_size": 2},
    ]
    spans = {}
    for method in methods:
        tracer = tracing.Tracer()
        try:
            tracing.install(tracer)
            _, trace = experiment.execute_method(mixed_bn.spec, method, 1.0,
                                                 run_cfg, 0)
            spans[method["name"]] = tracer.aggregate()
        finally:
            tracer.uninstall()
        assert spans[method["name"]]["trustregion.solve_subproblems"][
            "calls"] == method["iterations"]
        if method["name"] == "tr-svi-kl":
            estimated = sum(r.rho is not None for r in trace.records)
            assert spans["tr-svi-kl"]["trustregion.approx_kl"]["calls"] == (
                2 * estimated) > 0
    assert spans["svn-ctr"]["stein.global_context"]["calls"] == 2
    assert spans["svn-ctr"]["stein.local_context"]["calls"] == 0
    assert spans["tr-svi-at"]["stein.local_context"]["calls"] == 3 + 1
    assert spans["tr-svi-kl"]["stein.local_context"]["calls"] >= 1


def test_svn_ctr_stack_spans_see_one_operator_per_iteration(tracing,
                                                            small_snlp):
    """svn-ctr's global Hessians reach the tracer as one
    `stein.hessian_stack_from_context` span per iteration whose result is an
    (n, dim) operator, and the span's out_bytes sums the operators'
    `nbytes`."""
    n, iterations = 12, 3
    dim = small_snlp.layout.total_dim
    run_cfg = {"particles": n, "init_center": None, "init_scale": None}
    method = {"name": "svn-ctr", "iterations": iterations, "radius": 0.1}
    results = []
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        traced = trustregion.hessian_stack_from_context

        def capture(*args):
            results.append(traced(*args))
            return results[-1]

        trustregion.hessian_stack_from_context = capture
        experiment.execute_method(small_snlp.problem, method, 1.0, run_cfg, 0)
        spans = tracer.aggregate()
    finally:
        trustregion.hessian_stack_from_context = traced
        tracer.uninstall()
    assert spans["stein.global_context"]["calls"] == iterations
    assert spans["stein.hessian_stack_from_context"]["calls"] == len(results) \
        == iterations
    for hessians in results:
        assert hessians.shape == (n, dim)
        assert hessians.apply(np.ones((n, dim))).shape == (n, dim)
    assert tracer.counts["hessian_stack.out_bytes"] == sum(
        h.nbytes for h in results) > 0


def test_traced_cli_run_completes(tracing, tmp_path):
    """A traced `trsvi run` of every method on a small SNLP config, as the
    benchmark's traced repetitions run it, completes and records the Hessian
    spans of all three trust-region methods."""
    config = {
        "problem": {"kind": "snlp", "unknowns": 4, "anchors": 3, "side": 6.0,
                    "radius": 3.5, "noise_variance": 0.01, "seed": 3},
        "kernel": {"lengthscale": 1.0},
        "method": [
            {"name": "tr-svi-at", "iterations": 3},
            {"name": "tr-svi-kl", "iterations": 3, "initial_radius": 1.0},
            {"name": "svn-ctr", "iterations": 3, "radius": 0.1},
            {"name": "mp-svgd-dlr", "iterations": 3, "step": 0.05,
             "decay": 0.99},
        ],
        "run": {"particles": 10, "seeds": [0]},
        "output": {"ground_truth": {"samples": 200, "burn_in": 100}},
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        rc = cli.main(["run", "--config", str(path), "--output-dir",
                       str(tmp_path / "out"), "--workers", "1"])
        spans = tracer.aggregate()
    finally:
        tracer.uninstall()
    assert rc == 0
    assert (tmp_path / "out" / "metrics.yaml").exists()
    assert spans["stein.hessian_stack_from_context"]["calls"] >= 3 + 1 + 3
    assert spans["model.hessian_batch"]["calls"] == \
        spans["stein.hessian_stack_from_context"]["calls"]
    assert tracer.counts["hessian_stack.out_bytes"] > 0


def test_cg_hooks_see_the_batched_solver(tracing, mixed_bn):
    """`cg_steihaug` stays bound, the traced `solve_subproblems` span gets a
    statuses list of one entry per particle at result[1], and the tracer's
    CG counts equal the statuses and the driver's trace columns."""
    assert callable(vars(trustregion)["cg_steihaug"])
    n = 10
    fam = LocalKernelFamily(KernelSpec(1.0), mixed_bn.layout)
    X = np.random.default_rng(3).normal(size=(n, mixed_bn.layout.total_dim))
    results = []
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        traced = trustregion.solve_subproblems

        def capture(*args):
            results.append(traced(*args))
            return results[-1]

        trustregion.solve_subproblems = capture
        _, trace = trustregion.tr_svi_at_run(ParticleSet(X), mixed_bn, fam, 4)
        spans = tracer.aggregate()
    finally:
        trustregion.solve_subproblems = traced
        tracer.uninstall()
    assert spans["trustregion.solve_subproblems"]["calls"] == len(results) == 4
    statuses = [s for result in results for s in result[1]]
    assert all(isinstance(result[1], list) and len(result[1]) == n
               for result in results)
    assert tracer.counts["cg.statuses"] == len(statuses) == 4 * n
    boundary = statuses.count(trustregion.BOUNDARY)
    negative = statuses.count(trustregion.NEG_CURVATURE)
    assert tracer.counts["cg.boundary"] == boundary
    assert tracer.counts["cg.neg_curvature"] == negative
    assert sum(r.cg_boundary for r in trace.records) == boundary
    assert sum(r.cg_neg_curvature for r in trace.records) == negative
    assert [r.cg_iters for r in trace.records] == [
        int(result.iterations.sum()) for result in results]


def test_evaluate_records_one_median_heuristic_span(tracing, tmp_path):
    """`trsvi evaluate` reaches the median heuristic and the MMD reference
    through the names the tracer wraps, once per artifact, and loads the
    ground truth and every final sample through the wrapped CSV loader."""
    config = {
        "problem": {"kind": "bayes_net", "layer_sizes": [2, 2],
                    "max_parents": 2, "gmm_nodes": 1, "seed": 5},
        "kernel": {"lengthscale": 1.0},
        "method": [{"name": "tr-svi-at", "iterations": 2}],
        "run": {"particles": 6, "seeds": [0]},
        "output": {"ground_truth": {"samples": 300}, "mmd": False},
    }
    artifact = experiment.run_experiment(config, tmp_path / "run")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        report = experiment.evaluate_artifact(artifact)
        spans = tracer.aggregate()
    finally:
        tracer.uninstall()
    assert spans["kernels.median_heuristic"]["calls"] == 1
    assert spans["evaluation.mmd_reference_init"]["calls"] == 1
    assert tracer.counts["load_samples_csv.rows"] == 300 + 6
    assert report["kernel_lengthscale"] > 0
