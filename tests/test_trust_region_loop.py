"""The one trust-region loop of tr-svi-at, tr-svi-kl and svn-ctr against the
three loops it replaced, kept in oracles.py: bitwise equal final particles
and equal trace records, on the paths every step takes and on the rare ones
(rejections, a model predicting no decrease, zero gradients)."""

import weakref

import numpy as np
import pytest

from oracles import baseline_loop_run, tr_svi_at_oracle, tr_svi_kl_oracle
from trsvi import trustregion as tr
from trsvi.experiment import execute_method, initialize_particles
from trsvi.evaluation import gradient_magnitude
from trsvi.kernels import DegenerateSampleError, KernelSpec, median_heuristic
from trsvi.model import BayesNetModel, BayesNetSpec, BayesNode
from trsvi.stein import ParticleSet, SteinGradientField, local_context

METHODS = [
    {"name": "tr-svi-at"},
    {"name": "tr-svi-kl", "initial_radius": 1.0, "nystrom_size": 3},
    {"name": "svn-ctr", "radius": 0.5},
]


def oracle_run(cfg, particles, model, kernel, seed):
    if cfg["name"] == "tr-svi-at":
        return tr_svi_at_oracle(particles, model, kernel, cfg["iterations"])
    if cfg["name"] == "tr-svi-kl":
        return tr_svi_kl_oracle(particles, model, kernel,
                                cfg["initial_radius"], cfg["iterations"], seed,
                                cfg["nystrom_size"])
    final, records = baseline_loop_run(cfg, particles, model, kernel)
    return final, tr.RunTrace(records)


def assert_same_run(got, ref):
    (final, trace), (ref_final, ref_trace) = got, ref
    assert final.positions.tobytes() == ref_final.positions.tobytes()
    assert final.iteration == ref_final.iteration
    assert trace.records == ref_trace.records
    assert trace.warnings == ref_trace.warnings


def chain_target():
    root = BayesNode("root", (), ((),), (1.0,), 1.0, 1.0)
    child = BayesNode("linear", (0,), ((0.8,),), (1.0,), 0.0, 0.5)
    return BayesNetModel(BayesNetSpec(layers=((root,), (child,))))


def standard_normal_1d():
    node = BayesNode("root", (), ((),), (1.0,), 0.0, 1.0)
    return BayesNetModel(BayesNetSpec(layers=((node,),)))


KERNEL = KernelSpec(1.0)


class TestLoopMatchesOracles:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("method", METHODS, ids=lambda m: m["name"])
    @pytest.mark.parametrize("fixture", ["mixed_bn", "small_snlp"])
    def test_bitwise_equal(self, fixture, method, seed, request):
        model = request.getfixturevalue(fixture)
        problem = getattr(model, "spec", None) or model.problem
        cfg = {**method, "label": method["name"], "iterations": 12}
        run_cfg = {"particles": 20, "init_center": None, "init_scale": None}
        got = execute_method(problem, cfg, 1.0, run_cfg, seed)
        ref = oracle_run(cfg, initialize_particles(problem, run_cfg, seed),
                         model, KERNEL, seed)
        assert_same_run(got, ref)
        # every trust-region method fills the subproblem columns
        assert len(got[1].records) == 12
        assert all(r.model_decrease is not None and r.cg_iters is not None
                   for r in got[1].records)


class Counter:
    """Wraps a `trustregion` name and counts the calls through it."""

    def __init__(self, monkeypatch, name):
        self.calls = 0
        original = getattr(tr, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(tr, name, counted)


def scripted_kl(monkeypatch, values):
    """Make every approx_kl call return the next of `values`; returns the
    function that restarts the script."""
    state = {}

    def restart():
        state["it"] = iter(values)

    restart()
    monkeypatch.setattr(tr, "approx_kl",
                        lambda *args, **kwargs: next(state["it"]))
    return restart


class TestKLPaths:
    def test_rejections_reuse_the_assembly_and_the_median_kernel(
            self, monkeypatch):
        target = chain_target()
        ps = ParticleSet(np.random.default_rng(0).normal(size=(12, 2)), seed=0)
        # (u, o) per iteration: u < o accepts, u > o rejects
        accept, reject = [0.0, 1.0], [10.0, 0.0]
        script = accept + reject + reject + accept + accept + reject + accept
        restart = scripted_kl(monkeypatch, script)
        ref = tr_svi_kl_oracle(ps, target, KERNEL, 1.0, 7, seed=4)
        restart()
        kl_calls = Counter(monkeypatch, "approx_kl")
        medians = Counter(monkeypatch, "median_heuristic")
        contexts = Counter(monkeypatch, "local_context")
        stacks = Counter(monkeypatch, "hessian_stack_from_context")
        got = tr.tr_svi_kl_run(ps, target, KERNEL, 1.0, 7, seed=4)
        assert_same_run(got, ref)
        accepted = [r.accepted for r in got[1].records]
        assert accepted == [True, False, False, True, True, False, True]
        assert kl_calls.calls == len(script)
        # one median kernel per proposal, plus the initial particles' one
        assert medians.calls == 7 + 1
        # rebuilt only where the particles moved
        assert contexts.calls == stacks.calls == 1 + sum(accepted[:-1])

    def test_model_without_decrease_shrinks_and_keeps(self, monkeypatch):
        target = chain_target()
        ps = ParticleSet(np.random.default_rng(1).normal(size=(10, 2)), seed=1)
        real_solve = tr.solve_subproblems
        count = {"n": 0}

        def second_predicts_increase(field, hessians, radius):
            out = real_solve(field, hessians, radius)
            count["n"] += 1
            if count["n"] == 2:
                return out._replace(decrease=abs(out.decrease))
            return out

        monkeypatch.setattr(tr, "solve_subproblems", second_predicts_increase)
        ref = tr_svi_kl_oracle(ps, target, KERNEL, 1.0, 4, seed=2)
        count["n"] = 0
        stacks = Counter(monkeypatch, "hessian_stack_from_context")
        got = tr.tr_svi_kl_run(ps, target, KERNEL, 1.0, 4, seed=2)
        assert_same_run(got, ref)
        second, third = got[1].records[1:3]
        assert not second.accepted and second.model_decrease > 0
        assert second.rho is None and second.approx_kl_u is None
        assert third.radius_or_step == second.radius_or_step / 2.0
        # the second iteration's re-solve reused the first one's stack
        assert stacks.calls == 1 + sum(r.accepted for r in got[1].records[:-1])

    def test_degenerate_proposal_shrinks_and_keeps(self):
        """A proposal on which over half the particle pairs coincide has no
        median lengthscale, so no KL estimate: judge rejects it and halves
        the radius, as for a model predicting no decrease, after drawing the
        iteration's subset seed as every judged iteration does."""
        target = chain_target()
        X = np.random.default_rng(3).normal(size=(5, 2))
        proposal = np.repeat(X[:1], 5, axis=0)
        proposal[4] += 1.0                  # 6 of the 10 pairs coincide
        with pytest.raises(DegenerateSampleError):
            median_heuristic(proposal)
        field = SteinGradientField(target.layout, -X)
        solution = tr.Subproblems(proposal - X, [tr.INTERIOR] * 5, -1.0,
                                  np.ones(5, dtype=int))
        state = tr.TrustRegionKLState(radius=1.0, seed=7)
        verdict = state.judge(tr.Trial(ParticleSet(X), field, solution,
                                       proposal), target, None)
        assert verdict == tr.Verdict(
            False, {"gradient_magnitude": gradient_magnitude(field)})
        assert state.radius == 0.5
        fresh = np.random.default_rng(7)
        fresh.integers(0, 2**63 - 1)
        assert state._rng.integers(0, 2**63 - 1) == fresh.integers(0, 2**63 - 1)

    def test_run_through_a_degenerate_proposal(self, monkeypatch):
        """The loop carries on past a proposal that collapses the particles:
        the iteration is rejected and the next one runs at half the radius
        from the same particles."""
        target = chain_target()
        ps = ParticleSet(np.random.default_rng(1).normal(size=(10, 2)), seed=1)
        real_solve = tr.solve_subproblems
        calls = {"n": 0}

        def second_collapses(field, hessians, radius):
            out = real_solve(field, hessians, radius)
            calls["n"] += 1
            if calls["n"] == 2:
                return out._replace(steps=calls["X"][0] - calls["X"])
            return out

        real_context = tr.local_context

        def context(X, layout, kernel):
            calls["X"] = X
            return real_context(X, layout, kernel)

        monkeypatch.setattr(tr, "solve_subproblems", second_collapses)
        monkeypatch.setattr(tr, "local_context", context)
        final, trace = tr.tr_svi_kl_run(ps, target, KERNEL, 1.0, 4, seed=2)
        first, second, third = trace.records[:3]
        assert first.accepted and not second.accepted
        assert second.model_decrease < 0 and second.rho is None
        assert third.radius_or_step == second.radius_or_step / 2.0
        assert len(trace.records) == 4 and np.isfinite(final.positions).all()

    def test_zero_model_at_zero_gradient_stops(self):
        # a lone particle at the mode of a symmetric target has zero field
        target = standard_normal_1d()
        ps = ParticleSet(np.array([[0.0]]))
        got = tr.tr_svi_kl_run(ps, target, KERNEL, 1.0, 5, seed=0)
        assert_same_run(got, tr_svi_kl_oracle(ps, target, KERNEL,
                                              1.0, 5, seed=0))
        (record,) = got[1].records
        assert not record.accepted and record.model_decrease == 0.0
        assert record.gradient_magnitude == 0.0


class TestATPaths:
    def test_zero_initial_gradient_returns_input(self):
        target = standard_normal_1d()
        ps = ParticleSet(np.array([[0.0]]))
        got = tr.tr_svi_at_run(ps, target, KERNEL, 5)
        assert_same_run(got, tr_svi_at_oracle(ps, target, KERNEL, 5))
        assert got[0] is ps and got[1].warnings

    def test_small_initial_gradient_warns(self):
        target = standard_normal_1d()
        ps = ParticleSet(np.array([[1e-4], [-2e-4]]))
        got = tr.tr_svi_at_run(ps, target, KERNEL, 3)
        assert_same_run(got, tr_svi_at_oracle(ps, target, KERNEL, 3))
        assert any("b_min" in w for w in got[1].warnings)

    def test_proposal_field_is_the_next_iterations(self, monkeypatch):
        target = chain_target()
        ps = ParticleSet(np.random.default_rng(2).normal(size=(8, 2)))
        contexts = Counter(monkeypatch, "local_context")
        stacks = Counter(monkeypatch, "hessian_stack_from_context")
        tr.tr_svi_at_run(ps, target, KERNEL, 5)
        assert contexts.calls == 5 + 1
        assert stacks.calls == 5

    def test_zero_radius_stops_on_the_proposal(self, monkeypatch):
        """A gradient magnitude of 0 at a proposal makes the next radius
        g / b 0: judge takes the proposal and stops the run there, one
        iteration early, instead of handing CG a zero radius."""
        target = chain_target()
        ps = ParticleSet(np.random.default_rng(4).normal(size=(8, 2)))
        reference = tr.tr_svi_at_run(ps, target, KERNEL, 3)
        real = tr.gradient_magnitude
        calls = {"n": 0}

        def third_judged_is_zero(field):
            calls["n"] += 1             # call 1 is begin's
            return 0.0 if calls["n"] == 4 else real(field)

        monkeypatch.setattr(tr, "gradient_magnitude", third_judged_is_zero)
        final, trace = tr.tr_svi_at_run(ps, target, KERNEL, 6)
        assert len(trace.records) == 3
        assert trace.records[:2] == reference[1].records[:2]
        last = trace.records[-1]
        assert last.accepted and last.gradient_magnitude == 0.0
        assert last.model_decrease == reference[1].records[2].model_decrease
        assert final.positions.tobytes() == reference[0].positions.tobytes()
        assert final.iteration == 3

    def test_judge_stops_at_zero_radius(self):
        target = chain_target()
        X = np.random.default_rng(6).normal(size=(5, 2))
        field = SteinGradientField(target.layout, -X)
        solution = tr.Subproblems(np.zeros_like(X), [tr.INTERIOR] * 5, 0.0,
                                  np.zeros(5, dtype=int))
        trial = tr.Trial(ParticleSet(X), field, solution, X + 1.0)
        state = tr.AdaTrustState.initialize(2.0)
        zero = SteinGradientField(target.layout, np.zeros_like(X))
        verdict = state.judge(trial, target, lambda P: field)
        assert verdict.accepted and not verdict.stop
        verdict = state.judge(trial, target, lambda P: zero)
        assert verdict == tr.Verdict(
            True, {"gradient_magnitude": 0.0, "b": state.b}, stop=True)
        assert state.radius() == 0.0


def test_constant_radius_must_be_positive():
    for radius in (0.0, -1.0):
        with pytest.raises(ValueError, match="radius"):
            tr.ConstantRadius(radius)


@pytest.mark.parametrize("controller", [
    lambda: tr.AdaTrustState(),
    lambda: tr.TrustRegionKLState(radius=1.0, nystrom_size=2, seed=3),
    lambda: tr.ConstantRadius(0.5),
], ids=["tr-svi-at", "tr-svi-kl", "svn-ctr"])
def test_one_kernel_context_at_a_time(controller):
    """The loop drops the previous context, and everything built from it,
    before it builds the next one."""
    target = chain_target()
    ps = ParticleSet(np.random.default_rng(5).normal(size=(10, 2)), seed=5)
    built = []

    def build_context(X):
        assert all(ref() is None for ref in built)
        ctx = local_context(X, target.layout, KERNEL)
        built.append(weakref.ref(ctx))
        return ctx

    tr.trust_region_run(ps, target, build_context, controller(), 6)
    assert len(built) > 1
