"""Acceptance suite: one test per criterion, each printing a summary line.

The heavyweight ordering experiment (criteria 7 and 9) runs through the full
experiment runner into a shared artifact directory.
"""

import time

import numpy as np
import pytest
import yaml

from oracles import (
    exact_trust_region,
    fd_gradient,
    fd_jacobian,
    linear_gaussian_moments,
    model_value,
    power_iteration_norm,
)
from targets import GaussianTarget, global_hessians, local_hessians
from trsvi import trustregion as tr
from trsvi.baselines import DECAYED, StepSchedule, mp_svgd_step
from trsvi.evaluation import gradient_magnitude
from trsvi.experiment import run_experiment
from trsvi.kernels import KernelSpec, median_heuristic
from trsvi.model import (
    BayesNetConfig,
    BayesNetModel,
    BayesNetSpec,
    BayesNode,
    SnlpConfig,
    SnlpModel,
    ancestral_sample,
    build_snlp,
    generate_bayes_net,
)
from trsvi.stein import (
    ParticleSet,
    global_stein_gradient,
    graphical_stein_gradient,
)


def _report(criterion, detail):
    print(f"[criterion {criterion}] PASS - {detail}")


def _derivative_problems():
    yield "mixed 6-dim net", BayesNetModel(generate_bayes_net(
        BayesNetConfig(layer_sizes=(3, 3), max_parents=2, gmm_nodes=2,
                       variance_range=(1e-2, 1.0), seed=11)))
    yield "30-dim net", BayesNetModel(generate_bayes_net(
        BayesNetConfig(layer_sizes=(10, 10, 10), max_parents=3, gmm_nodes=6,
                       variance_range=(1e-3, 1.0), seed=42)))
    yield "linear 6-dim net", BayesNetModel(generate_bayes_net(
        BayesNetConfig(layer_sizes=(3, 3), max_parents=2, gmm_nodes=0,
                       variance_range=(0.1, 1.0), seed=5)))
    yield "small snlp", SnlpModel(build_snlp(
        SnlpConfig(unknowns=6, anchors=4, side=6.0, radius=3.0,
                   noise_variance=0.01, noiseless=True, seed=7)))
    yield "noisy snlp", SnlpModel(build_snlp(
        SnlpConfig(unknowns=10, anchors=4, side=8.0, radius=3.0,
                   noise_variance=0.01, noiseless=False, seed=3)))


def test_criterion_1_derivative_correctness():
    started = time.perf_counter()
    worst_grad, worst_hess = 0.0, 0.0
    for name, model in _derivative_problems():
        rng = np.random.default_rng(77)
        dim = model.layout.total_dim
        if hasattr(model, "problem"):
            base = model.problem.true_positions.reshape(-1)
            points = base + rng.normal(scale=0.4, size=(20, dim))
        else:
            # random points from the model's own distribution; far off-support
            # points sit on mixture-switching ridges where the h^2 truncation
            # of central differences dominates the comparison
            points = ancestral_sample(model.spec, 20, seed=77)
        for x in points:
            grad = model.gradient(x)
            fd_g = fd_gradient(model.log_density, x, h=1e-4)
            rel_g = np.linalg.norm(grad - fd_g) / max(np.linalg.norm(fd_g), 1.0)
            assert rel_g < 1e-5, f"{name}: gradient rel err {rel_g:.2e}"
            hess = model.hessian(x)
            fd_h = fd_jacobian(model.gradient, x, h=1e-4)
            rel_h = np.linalg.norm(hess - fd_h) / max(np.linalg.norm(fd_h), 1.0)
            assert rel_h < 1e-4, f"{name}: hessian rel err {rel_h:.2e}"
            worst_grad = max(worst_grad, rel_g)
            worst_hess = max(worst_hess, rel_h)
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _report(1, f"worst gradient rel err {worst_grad:.2e}, worst hessian rel "
               f"err {worst_hess:.2e}, {elapsed:.1f}s")


def test_criterion_2_reduction_equivalence():
    cov = np.array([[1.0, 0.5, 0.2], [0.5, 1.1, -0.3], [0.2, -0.3, 0.7]])
    target = GaussianTarget(np.zeros(3), cov)   # single all-dims factor
    rng = np.random.default_rng(0)
    ps = ParticleSet(rng.normal(size=(10, 3)))
    kernel = KernelSpec(1.0)

    field_g = graphical_stein_gradient(ps, target, kernel)
    field_glob = global_stein_gradient(ps, target, kernel)
    grad_diff = np.abs(field_g.values - field_glob.values).max()
    assert grad_diff <= 1e-12

    hess_diff = 0.0
    for hg, hglob in zip(local_hessians(ps, target, kernel),
                         global_hessians(ps, target, kernel)):
        hess_diff = max(hess_diff, np.abs(hg - hglob).max())
    assert hess_diff <= 1e-12
    _report(2, f"gradient max diff {grad_diff:.2e}, hessian max diff "
               f"{hess_diff:.2e}")


def test_criterion_3_algorithm_fidelity():
    # KL driver transitions on a scripted (u, o, m) sequence
    script = [
        (1.0, 2.0, -1.0),    # rho 1.0      -> expand, accept
        (2.0, 2.0, -1.0),    # rho 0.0      -> shrink, accept
        (3.0, 2.0, -0.5),    # rho -2.0     -> shrink, reject
        (1.9, 2.0, -0.2),    # rho 0.5      -> hold, accept
        (2.0 - 0.71, 2.0, -1.0),   # rho 0.71 -> expand, accept
        (2.0 - 7e-5, 2.0, -1.0),   # rho 7e-5 -> shrink, accept
    ]
    state = tr.TrustRegionKLState(radius=1.0)
    radii, accepts = [], []
    for u, o, m in script:
        accepts.append(state.update((u - o) / m))
        radii.append(state.radius)
    assert radii == [1.5, 0.75, 0.375, 0.375, 0.5625, 0.28125]
    assert accepts == [True, True, False, True, True, True]

    # exact threshold boundaries: 0.7 and 1e-4 themselves change nothing
    state = tr.TrustRegionKLState(radius=2.0)
    state.update(0.7)
    state.update(1e-4)
    assert state.radius == 2.0

    # gradient driver transitions on a scripted g sequence
    g0 = 4.0
    at = tr.AdaTrustState.initialize(g0)
    assert at.b == at.w == at.g == at.b_max == g0   # init equality
    assert at.radius() == 1.0
    at.update(2.0)                       # 2.0 < 0.999*4.0: improvement
    assert at.b == 0.9 * 4.0 and at.w == 2.0
    at.update(2.0)                       # equal to w: stall branch
    assert at.b == min(g0, 3.6 + 4.0 / 3.6) and at.w == 2.0
    at.update(2.0 * 0.999)               # exactly 0.999*w: stall, not improve
    assert at.w == 2.0
    stalled_b = at.b
    assert stalled_b == min(g0, 4.0)     # clamped at b_max
    tiny = tr.AdaTrustState.initialize(0.05)
    tiny.update(0.04)
    assert tiny.b == 0.1                 # clamped at b_min

    # rejection semantics in the running driver: particles stay bitwise put
    root = BayesNode("root", (), ((),), (1.0,), 1.0, 1.0)
    child = BayesNode("linear", (0,), ((0.8,),), (1.0,), 0.0, 0.5)
    target = BayesNetModel(BayesNetSpec(layers=((root,), (child,))))
    kernel = KernelSpec(1.0)
    ps = ParticleSet(np.random.default_rng(1).normal(size=(10, 2)), seed=1)
    original_approx_kl = tr.approx_kl
    try:
        values = iter([10.0, 0.0] * 3)
        tr.approx_kl = lambda *a, **k: next(values)
        before = ps.positions.tobytes()
        final, trace = tr.tr_svi_kl_run(ps, target, kernel, 1.0, 3, seed=0)
    finally:
        tr.approx_kl = original_approx_kl
    assert final.positions.tobytes() == before
    assert [r.accepted for r in trace.records] == [False] * 3
    assert [r.radius_or_step for r in trace.records] == [1.0, 0.5, 0.25]
    _report(3, "KL radius/acceptance and gradient-driver state transitions "
               "match the specified rules exactly")


def test_criterion_4_approx_kl_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    target = GaussianTarget(np.zeros(5), np.eye(5))
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 15))
        X = rng.normal(size=(n, 5))
        ls = float(rng.uniform(0.5, 2.0))
        value = tr.approx_kl(ParticleSet(X), target, n, KernelSpec(ls),
                             seed=trial)
        K = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                diff = X[i] - X[j]
                K[i, j] = np.exp(-0.5 * diff @ diff / ls**2)
        lam = np.real(np.linalg.eig(K / n).eigenvalues)
        entropy = float(np.sum(lam[lam > 1e-12] * np.log(lam[lam > 1e-12])))
        expected = -float(np.mean(target.log_density_batch(X))) + entropy
        worst = max(worst, abs(value - expected))
        assert abs(value - expected) < 1e-8
    elapsed = time.perf_counter() - started
    _report(4, f"100 particle sets, worst |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_trust_region_subproblem():
    started = time.perf_counter()
    rng = np.random.default_rng(123)
    interior_checked = 0
    for trial in range(200):
        dim = int(rng.integers(1, 11))
        A = rng.normal(size=(dim, dim))
        H = 0.5 * (A + A.T)
        if trial % 2:
            H = H @ H.T + 0.1 * np.eye(dim)
        g = rng.normal(size=dim)
        radius = float(rng.uniform(0.05, 3.0))
        w, _ = tr.cg_steihaug(lambda v: H @ v, g, radius,
                              tol=min(0.1, np.sqrt(np.linalg.norm(g))),
                              max_iters=dim)
        assert np.linalg.norm(w) <= radius * (1 + 1e-10)
        decrease = model_value(H, g, w)
        assert decrease <= 1e-12
        hnorm = power_iteration_norm(lambda v: H @ v, dim, seed=trial)
        gnorm = np.linalg.norm(g)
        cauchy = -0.5 * gnorm * min(radius, gnorm / max(hnorm, 1e-300))
        assert decrease <= cauchy * (1 - 1e-9) + 1e-12

        if dim == 2:
            w_exact = exact_trust_region(H, g, radius)
            # the truncated solver can never beat the global minimizer
            assert model_value(H, g, w) >= model_value(H, g, w_exact) - 1e-8

    # exactness against the eigendecomposition oracle holds where CG runs to
    # convergence: positive-definite systems with interior solutions
    rng = np.random.default_rng(7)
    while interior_checked < 50:
        A = rng.normal(size=(2, 2))
        H = 0.5 * (A + A.T)
        H = H @ H.T + 0.1 * np.eye(2)
        g = rng.normal(size=2)
        radius = float(np.linalg.norm(np.linalg.solve(H, g)) * rng.uniform(1.5, 4.0))
        w, status = tr.cg_steihaug(lambda v: H @ v, g, radius, tol=1e-12)
        assert status == tr.INTERIOR
        w_exact = exact_trust_region(H, g, radius)
        assert abs(model_value(H, g, w) - model_value(H, g, w_exact)) < 1e-8
        interior_checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    _report(5, f"200 mixed systems within bounds; {interior_checked} interior "
               f"2x2 systems match the exact oracle to 1e-8, {elapsed:.1f}s")


def test_criterion_6_gaussian_convergence():
    started = time.perf_counter()
    root = BayesNode("root", (), ((),), (1.0,), 1.0, 1.0)
    child = BayesNode("linear", (0,), ((0.8,),), (1.0,), 0.0, 0.5)
    spec = BayesNetSpec(layers=((root,), (child,)))
    model = BayesNetModel(spec)
    true_mean, true_cov, _ = linear_gaussian_moments(spec)

    ground_truth = ancestral_sample(spec, 20_000, seed=99)
    kernel = KernelSpec(median_heuristic(ground_truth))
    rng = np.random.default_rng(0)
    ps = ParticleSet(rng.standard_normal((100, 2)), seed=0)
    final, trace = tr.tr_svi_at_run(ps, model, kernel, 300)

    emp_mean = final.positions.mean(axis=0)
    emp_cov = np.cov(final.positions.T, ddof=1)
    mean_err = np.abs(emp_mean - true_mean).max()
    cov_rel = np.abs((emp_cov - true_cov) / true_cov).max()
    mags = trace.gradient_magnitudes()
    ratio = mags[-1] / mags[0]
    elapsed = time.perf_counter() - started
    assert mean_err < 0.05
    assert cov_rel < 0.10
    assert ratio < 0.01
    assert elapsed < 120
    _report(6, f"mean err {mean_err:.4f}, cov rel err {cov_rel:.4f}, "
               f"gradient ratio {ratio:.2e}, {elapsed:.1f}s")


CRITERION7_CONFIG = {
    "problem": {
        "kind": "bayes_net",
        "layer_sizes": [5, 5],
        "max_parents": 3,
        "gmm_nodes": 2,
        "mean_range": [0.0, 2.0],
        "variance_range": [1.0e-3, 1.0],
        "seed": 7,
    },
    "kernel": {"lengthscale": 1.0},
    "method": [
        {"name": "tr-svi-at", "iterations": 300},
        {"name": "mp-svgd-dlr", "label": "mp-svgd-dlr-a", "iterations": 1000,
         "step": 0.1, "decay": 0.99},
        {"name": "mp-svgd-dlr", "label": "mp-svgd-dlr-b", "iterations": 1000,
         "step": 0.05, "decay": 0.995},
        {"name": "mp-svgd-dlr", "label": "mp-svgd-dlr-c", "iterations": 1000,
         "step": 0.01, "decay": 0.999},
        {"name": "svn-ctr", "label": "svn-ctr-a", "iterations": 300,
         "radius": 0.05},
        {"name": "svn-ctr", "label": "svn-ctr-b", "iterations": 300,
         "radius": 0.1},
        {"name": "svn-ctr", "label": "svn-ctr-c", "iterations": 300,
         "radius": 1.0},
    ],
    "run": {"particles": 100, "seeds": [0, 1, 2, 3, 4]},
    "output": {
        "ground_truth": {"samples": 100_000, "seed": 1000},
        "mmd": True,
        "mmd_subsample_cap": 20_000,
        "mmd_seed": 0,
    },
}


@pytest.fixture(scope="module")
def criterion7_artifact(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "bn10"
    started = time.perf_counter()
    artifact = run_experiment(CRITERION7_CONFIG, out, workers=2)
    return artifact, time.perf_counter() - started


def test_criterion_7_mmd_ordering_at_desk_scale(criterion7_artifact):
    artifact, elapsed = criterion7_artifact
    metrics = yaml.safe_load((artifact / "metrics.yaml").read_text())
    means = {label: stats["mean"]
             for label, stats in metrics["methods"].items()}
    at = means["tr-svi-at"]
    best_dlr = min(v for k, v in means.items() if k.startswith("mp-svgd-dlr"))
    best_ctr = min(v for k, v in means.items() if k.startswith("svn-ctr"))
    assert at < best_dlr, f"AT {at:.4f} vs best grid-tuned DLR {best_dlr:.4f}"
    assert at < best_ctr, f"AT {at:.4f} vs best grid-tuned CTR {best_ctr:.4f}"
    assert elapsed < 900
    _report(7, f"mean MMD: TR-SVI-AT {at:.4f} < MP-SVGD-DLR {best_dlr:.4f} "
               f"and < SVN-CTR {best_ctr:.4f}, experiment {elapsed:.0f}s")


def test_criterion_8_small_snlp_convergence_behavior():
    started = time.perf_counter()
    problem = build_snlp(SnlpConfig(unknowns=6, anchors=4, side=6.0,
                                    radius=3.0, noise_variance=0.01,
                                    noiseless=True, seed=7))
    model = SnlpModel(problem)
    kernel = KernelSpec(1.0)
    center = np.tile([3.0, 3.0], 6)
    rng = np.random.default_rng(0)
    ps = ParticleSet(center + 1.5 * rng.standard_normal((200, 12)), seed=0)

    _, trace = tr.tr_svi_at_run(ps, model, kernel, 500)
    mags = trace.gradient_magnitudes()
    g0 = mags[0]
    below = np.nonzero(mags < 1e-2 * g0)[0]
    assert below.size, "gradient magnitude never fell below 1% of initial"
    first_below = int(below[0])

    # static-step first-order baseline oscillates on the same instance
    static = ParticleSet(center + 1.5 * np.random.default_rng(0)
                         .standard_normal((200, 12)), seed=0)
    schedule = StepSchedule(DECAYED, 0.1)   # decay 1.0: a static step
    static_mags = []
    bumped = False
    for t in range(500):
        static, field, _ = mp_svgd_step(static, model, kernel, schedule, t)
        static_mags.append(gradient_magnitude(field))
        if t > 0 and static_mags[-1] >= 1.1 * static_mags[-2]:
            bumped = True
            break
    assert bumped, "static step never increased the gradient magnitude by 10%"
    elapsed = time.perf_counter() - started
    assert elapsed < 600
    _report(8, f"adaptive driver below 1% of initial gradient at iteration "
               f"{first_below}; static step grew >=10% at iteration "
               f"{len(static_mags) - 1}; {elapsed:.1f}s")


def test_criterion_9_determinism_across_worker_counts(criterion7_artifact,
                                                      tmp_path_factory):
    artifact, _ = criterion7_artifact
    out = tmp_path_factory.mktemp("acceptance") / "bn10_rerun"
    rerun = run_experiment(CRITERION7_CONFIG, out, workers=1)
    compared = 0
    for method in CRITERION7_CONFIG["method"]:
        label = method["label"] if "label" in method else method["name"]
        for seed in CRITERION7_CONFIG["run"]["seeds"]:
            for name in ("trace.csv", "final.csv", "final.bin"):
                a = artifact / "runs" / label / f"seed_{seed}" / name
                b = rerun / "runs" / label / f"seed_{seed}" / name
                assert a.read_bytes() == b.read_bytes(), f"{label}/{seed}/{name}"
                compared += 1
    for seed in CRITERION7_CONFIG["run"]["seeds"]:
        a = artifact / "inits" / f"seed_{seed}.csv"
        b = rerun / "inits" / f"seed_{seed}.csv"
        assert a.read_bytes() == b.read_bytes()
        compared += 1
    for name in ("ground_truth.csv", "ground_truth.bin", "samples.sha256"):
        assert (artifact / name).read_bytes() == (rerun / name).read_bytes()
        compared += 1
    _report(9, f"{compared} files byte-identical between 2-worker and "
               f"1-worker runs")
