import numpy as np
import pytest

from oracles import baseline_loop_run
from targets import GaussianTarget
from test_trust_region_loop import METHODS as LOOP_METHODS
from trsvi import baselines as bl
from trsvi import config
from trsvi import trustregion as tr
from trsvi.experiment import execute_method, initialize_particles
from trsvi.kernels import KernelSpec
from trsvi.model import (
    BayesNetModel,
    BayesNetSpec,
    BayesNode,
    SnlpConfig,
    SnlpModel,
    build_snlp,
)
from trsvi.stein import (
    ParticleSet,
    global_context,
    global_stein_gradient,
    graphical_stein_gradient,
)


def standard_normal_1d():
    node = BayesNode("root", (), ((),), (1.0,), 0.0, 1.0)
    return BayesNetModel(BayesNetSpec(layers=((node,),)))


def svn_ctr(particles, target, radius, iterations=1):
    """SVN-CTR as the runner builds it: the trust-region loop under a global
    unit-lengthscale kernel with a constant radius."""
    kernel = KernelSpec(1.0)
    return tr.trust_region_run(
        particles, target, lambda X: global_context(X, target.layout, kernel),
        tr.ConstantRadius(radius), iterations)


class TestStepSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            bl.StepSchedule("nope", 0.1)
        with pytest.raises(ValueError):
            bl.StepSchedule(bl.DECAYED, -0.1)
        with pytest.raises(ValueError):
            bl.StepSchedule(bl.DECAYED, 0.1, decay=0.0)

    def test_decay_one_reduces_to_static(self):
        rng = np.random.default_rng(0)
        d = rng.normal(size=(4, 3))
        decayed = bl.StepSchedule(bl.DECAYED, 0.2, decay=1.0)
        for t in (0, 3, 10):
            np.testing.assert_array_equal(decayed.scaled_step(d, t), 0.2 * d)
            assert decayed.step_size(t) == 0.2

    def test_adagrad_first_step(self):
        d = np.array([[2.0, -0.5]])
        schedule = bl.StepSchedule(bl.ADAGRAD, 0.1)
        step = schedule.scaled_step(d, 0)
        np.testing.assert_allclose(step, 0.1 * d / (np.abs(d) + 1e-8),
                                   rtol=1e-12)

    def test_adagrad_accumulator_monotone(self):
        rng = np.random.default_rng(1)
        schedule = bl.StepSchedule(bl.ADAGRAD, 0.1)
        prev = np.zeros((3, 2))
        for t in range(20):
            schedule.scaled_step(rng.normal(size=(3, 2)), t)
            assert np.all(schedule.accumulator >= prev)
            prev = schedule.accumulator.copy()


class TestSvgdStep:
    def test_lone_particle_gradient_ascent(self):
        target = standard_normal_1d()
        ps = ParticleSet(np.array([[2.0]]))
        moved, field, step = bl.svgd_step(ps, target, KernelSpec(1.0), 0.1)
        assert moved.positions[0, 0] == pytest.approx(1.8, rel=1e-12)
        assert field.values[0, 0] == pytest.approx(2.0, rel=1e-12)
        assert step == 0.1

    def test_symmetric_pair_stays_symmetric(self):
        target = standard_normal_1d()
        ps = ParticleSet(np.array([[1.3], [-1.3]]))
        moved, _, _ = bl.svgd_step(ps, target, KernelSpec(1.0), 0.05)
        assert moved.positions[0, 0] == pytest.approx(-moved.positions[1, 0],
                                                      rel=1e-12)

    def test_equals_negative_scaled_global_field(self, mixed_bn):
        rng = np.random.default_rng(2)
        ps = ParticleSet(rng.normal(size=(9, mixed_bn.layout.total_dim)))
        kernel = KernelSpec(1.2)
        field = global_stein_gradient(ps, mixed_bn, kernel)
        moved, own_field, _ = bl.svgd_step(ps, mixed_bn, kernel, 0.3)
        np.testing.assert_allclose(
            moved.positions, ps.positions - 0.3 * field.values, atol=1e-12
        )
        np.testing.assert_array_equal(own_field.values, field.values)


class TestMpSvgdStep:
    def test_paper_small_snlp_schedule(self):
        schedule = bl.StepSchedule(bl.DECAYED, 0.1, decay=0.99)
        assert schedule.initial_step == 0.1
        assert schedule.decay == 0.99

    def test_moves_along_negative_field(self, mixed_bn):
        kernel = KernelSpec(1.0)
        rng = np.random.default_rng(3)
        ps = ParticleSet(rng.normal(size=(7, mixed_bn.layout.total_dim)))
        field = graphical_stein_gradient(ps, mixed_bn, kernel)
        schedule = bl.StepSchedule(bl.DECAYED, 0.1, decay=0.5)
        moved, own_field, step = bl.mp_svgd_step(ps, mixed_bn, kernel,
                                                 schedule, t=2)
        np.testing.assert_allclose(
            moved.positions,
            ps.positions - 0.1 * 0.5**2 * field.values,
            atol=1e-12,
        )
        np.testing.assert_array_equal(own_field.values, field.values)
        assert step == 0.1 * 0.5**2

    def test_synchronous_update_permutation_invariant(self, mixed_bn):
        kernel = KernelSpec(1.0)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(11, mixed_bn.layout.total_dim))
        perm = rng.permutation(11)
        schedule = bl.StepSchedule(bl.DECAYED, 0.05)
        moved, _, _ = bl.mp_svgd_step(ParticleSet(X), mixed_bn, kernel,
                                      schedule, 0)
        moved_p, _, _ = bl.mp_svgd_step(ParticleSet(X[perm]), mixed_bn, kernel,
                                        bl.StepSchedule(bl.DECAYED, 0.05), 0)
        np.testing.assert_allclose(moved_p.positions, moved.positions[perm],
                                   rtol=1e-10, atol=1e-12)


class TestSvnCtrStep:
    def test_unconstrained_newton_when_radius_huge(self):
        cov = np.array([[1.5, 0.4], [0.4, 0.8]])
        precision = np.linalg.inv(cov)
        target = GaussianTarget(np.zeros(2), cov)
        x = np.array([1.0, -1.0])

        # with a tight residual tolerance the interior CG solve is the exact
        # Newton step, which lands a lone Gaussian particle on the mean
        g = precision @ x
        w, status = tr.cg_steihaug(lambda v: precision @ v, g, radius=1e9,
                                   tol=1e-12)
        assert status == tr.INTERIOR
        np.testing.assert_allclose(x + w, [0.0, 0.0], atol=1e-12)

        # the driver's forcing tolerance (10% relative residual) is looser:
        # one step covers most of the distance, a few steps converge
        ps = ParticleSet(x[None, :])
        moved, trace = svn_ctr(ps, target, radius=1e9)
        assert trace.records[0].radius_or_step == 1e9
        assert np.linalg.norm(moved.positions) < 0.3 * np.linalg.norm(x)
        moved, _ = svn_ctr(moved, target, radius=1e9, iterations=4)
        assert np.linalg.norm(moved.positions) < 1e-4

    def test_single_factor_matches_frozen_radius_at_iteration(self):
        cov = np.array([[1.0, 0.3], [0.3, 0.9]])
        target = GaussianTarget(np.zeros(2), cov)  # single all-dims factor
        rng = np.random.default_rng(5)
        X = rng.normal(size=(6, 2))
        kernel = KernelSpec(1.0)

        # one gradient-driven iteration starts at radius g0/b0 = 1 exactly
        final_at, _ = tr.tr_svi_at_run(ParticleSet(X), target, kernel, 1)
        final_svn, _ = svn_ctr(ParticleSet(X), target, radius=1.0)
        np.testing.assert_allclose(final_at.positions, final_svn.positions,
                                   rtol=1e-12, atol=1e-12)

    def test_radius_validation(self):
        target = standard_normal_1d()
        with pytest.raises(ValueError):
            svn_ctr(ParticleSet(np.zeros((1, 1))), target, radius=0.0)


class TestStaticStepInstability:
    def test_static_mp_svgd_non_monotone_on_small_snlp(self):
        problem = build_snlp(
            SnlpConfig(unknowns=6, anchors=4, side=6.0, radius=3.0,
                       noise_variance=0.01, noiseless=True, seed=7)
        )
        model = SnlpModel(problem)
        kernel = KernelSpec(1.0)
        rng = np.random.default_rng(0)
        center = np.tile([3.0, 3.0], 6)
        ps = ParticleSet(center + 1.5 * rng.standard_normal((50, 12)), seed=0)
        schedule = bl.StepSchedule(bl.DECAYED, 0.1)   # static: decay 1.0
        mags = []
        for t in range(200):
            ps, field, _ = bl.mp_svgd_step(ps, model, kernel, schedule, t)
            mags.append(np.linalg.norm(field.values))
            if len(mags) > 2 and mags[-1] >= 1.1 * mags[-2]:
                break
        mags = np.array(mags)
        increases = mags[1:] >= 1.1 * mags[:-1]
        assert increases.any(), "static step should oscillate on this problem"


BASELINES = [
    {"name": "svgd", "step": 0.05},
    {"name": "mp-svgd-static", "step": 0.1},
    {"name": "mp-svgd-dlr", "step": 0.1, "decay": 0.97},
    {"name": "mp-svgd-ag", "step": 0.5},
    {"name": "svn-ctr", "radius": 0.5},
]


def test_oracle_lists_name_every_method():
    """Every method the runner knows is checked bitwise against an oracle
    loop, here or in test_trust_region_loop."""
    names = [m["name"] for m in BASELINES + LOOP_METHODS]
    assert set(names) == set(config.METHODS)


class TestRunnerLoopMatchesOracle:
    """The runner's driver loop against the per-method loops it replaced:
    bitwise equal final positions and trace records."""

    @pytest.mark.parametrize("method", BASELINES, ids=lambda m: m["name"])
    @pytest.mark.parametrize("fixture", ["mixed_bn", "small_snlp"])
    def test_bitwise_equal(self, method, fixture, request):
        model = request.getfixturevalue(fixture)
        problem = getattr(model, "spec", None) or model.problem
        cfg = {**method, "label": method["name"], "iterations": 12}
        run_cfg = {"particles": 30, "init_center": None, "init_scale": None}
        final, trace = execute_method(problem, cfg, 1.0, run_cfg, seed=3)
        kernel = KernelSpec(1.0)
        ref, records = baseline_loop_run(
            cfg, initialize_particles(problem, run_cfg, 3), model, kernel)
        np.testing.assert_array_equal(final.positions, ref.positions)
        assert trace.records == records
