import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from oracles import (
    DenseHessians,
    exact_trust_region,
    model_value,
    per_particle_solve_subproblems,
    power_iteration_norm,
)
from targets import GaussianTarget, local_hessians
from trsvi import trustregion as tr
from trsvi.kernels import KernelSpec
from trsvi.model import BayesNetModel, BayesNetSpec, BayesNode
from trsvi.model.layout import FactorLayout
from trsvi.stein import (
    ParticleSet,
    SteinGradientField,
    graphical_stein_gradient,
)


def random_symmetric(rng, dim, indefinite):
    A = rng.normal(size=(dim, dim))
    H = 0.5 * (A + A.T)
    if not indefinite:
        H = H @ H.T + 0.1 * np.eye(dim)
    return H


class TestCgSteihaug:
    def test_identity_huge_radius_gives_newton_step(self):
        g = np.array([3.0, -4.0, 1.0])
        w, status = tr.cg_steihaug(lambda v: v, g, radius=1e9)
        assert status == tr.INTERIOR
        np.testing.assert_allclose(w, -g, rtol=1e-14)

    def test_identity_small_radius_hits_boundary(self):
        g = np.array([3.0, 4.0])
        w, status = tr.cg_steihaug(lambda v: v, g, radius=1.0)
        assert status == tr.BOUNDARY
        np.testing.assert_allclose(w, -g / 5.0, rtol=1e-12)

    def test_zero_gradient(self):
        w, status = tr.cg_steihaug(lambda v: v, np.zeros(4), radius=1.0)
        assert status == tr.INTERIOR
        np.testing.assert_array_equal(w, np.zeros(4))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            tr.cg_steihaug(lambda v: v, np.ones(2), radius=0.0)
        with pytest.raises(ValueError):
            tr.cg_steihaug(lambda v: v, np.array([np.nan, 0.0]), radius=1.0)

    def test_indefinite_aligned_gradient(self):
        # the gradient is an eigenvector here, so the Krylov space is the
        # g-axis; the solver must land on the boundary along -g, which is the
        # exact solution of the subproblem restricted to that line
        H = np.diag([1.0, -1.0])
        g = np.array([1.0, 0.0])
        w, status = tr.cg_steihaug(lambda v: H @ v, g, radius=1.0)
        assert status == tr.BOUNDARY
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(w, [-1.0, 0.0], atol=1e-12)
        assert model_value(H, g, w) == pytest.approx(-0.5, abs=1e-12)
        # the unrestricted minimizer is strictly better; the truncated solver
        # can never beat it
        w_exact = exact_trust_region(H, g, 1.0)
        assert model_value(H, g, w) >= model_value(H, g, w_exact) - 1e-8

    def test_negative_curvature_from_origin(self):
        H = np.diag([-2.0, -1.0])
        g = np.array([1.0, 1.0])
        w, status = tr.cg_steihaug(lambda v: H @ v, g, radius=2.0)
        assert status == tr.NEG_CURVATURE
        assert np.linalg.norm(w) == pytest.approx(2.0, rel=1e-10)
        assert model_value(H, g, w) < 0

    def test_properties_on_random_systems(self):
        rng = np.random.default_rng(123)
        for trial in range(200):
            dim = int(rng.integers(1, 11))
            H = random_symmetric(rng, dim, indefinite=trial % 2 == 0)
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

    def test_pd_interior_2x2_matches_exact_oracle(self):
        rng = np.random.default_rng(7)
        count = 0
        while count < 50:
            H = random_symmetric(rng, 2, indefinite=False)
            g = rng.normal(size=2)
            newton = np.linalg.solve(H, -g)
            radius = float(np.linalg.norm(newton) * rng.uniform(1.5, 4.0))
            w, status = tr.cg_steihaug(lambda v: H @ v, g, radius, tol=1e-12)
            assert status == tr.INTERIOR
            w_exact = exact_trust_region(H, g, radius)
            assert abs(model_value(H, g, w) - model_value(H, g, w_exact)) < 1e-8
            count += 1

    def test_never_beats_exact_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            dim = 2
            H = random_symmetric(rng, dim, indefinite=trial % 2 == 0)
            g = rng.normal(size=dim)
            radius = float(rng.uniform(0.1, 2.0))
            w, _ = tr.cg_steihaug(lambda v: H @ v, g, radius, tol=1e-10)
            w_exact = exact_trust_region(H, g, radius)
            assert model_value(H, g, w) >= model_value(H, g, w_exact) - 1e-8


class TestSeparability:
    def test_max_norm_joint_equals_independent_blocks(self):
        # two particles, 2-dim blocks; the joint trust-region problem under
        # the max-of-block-norms ball must decompose into per-block solves
        rng = np.random.default_rng(5)
        H1 = random_symmetric(rng, 2, indefinite=False)
        H2 = random_symmetric(rng, 2, indefinite=True)
        g1, g2 = rng.normal(size=2), rng.normal(size=2)
        radius = 0.8

        w1 = exact_trust_region(H1, g1, radius)
        w2 = exact_trust_region(H2, g2, radius)
        block_total = model_value(H1, g1, w1) + model_value(H2, g2, w2)

        def joint_model(w):
            return model_value(H1, g1, w[:2]) + model_value(H2, g2, w[2:])

        constraints = [
            {"type": "ineq", "fun": lambda w: radius**2 - w[:2] @ w[:2]},
            {"type": "ineq", "fun": lambda w: radius**2 - w[2:] @ w[2:]},
        ]
        best = np.inf
        for attempt in range(8):
            x0 = rng.uniform(-radius / 2, radius / 2, size=4)
            res = minimize(joint_model, x0, method="SLSQP",
                           constraints=constraints,
                           options={"maxiter": 400, "ftol": 1e-14})
            if res.success:
                best = min(best, res.fun)
        assert best == pytest.approx(block_total, abs=1e-6)


class TestApproxKl:
    def test_single_particle(self):
        target = GaussianTarget(np.zeros(2), np.eye(2))
        ps = ParticleSet(np.array([[0.5, -0.5]]))
        value = tr.approx_kl(ps, target, 1, KernelSpec(1.0), seed=0)
        assert value == pytest.approx(-target.log_density(ps.positions[0]),
                                      rel=1e-12)

    def test_duplicate_particles_clamp(self):
        target = GaussianTarget(np.zeros(1), np.eye(1))
        ps = ParticleSet(np.array([[0.3], [0.3]]))
        value = tr.approx_kl(ps, target, 2, KernelSpec(1.0), seed=0)
        # (1/2)K has eigenvalues {1, 0}; the zero eigenvalue is skipped
        expected = -float(np.mean(target.log_density_batch(ps.positions)))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_full_subset_matches_direct_eigendecomposition(self):
        rng = np.random.default_rng(0)
        target = GaussianTarget(np.zeros(5), np.eye(5))
        for trial in range(100):
            n = int(rng.integers(2, 12))
            X = rng.normal(size=(n, 5))
            ls = float(rng.uniform(0.5, 2.0))
            value = tr.approx_kl(ParticleSet(X), target, n, KernelSpec(ls),
                                 seed=trial)
            # independent oracle: explicit double-loop kernel matrix and a
            # general (non-symmetric) eigendecomposition
            K = np.empty((n, n))
            for i in range(n):
                for j in range(n):
                    diff = X[i] - X[j]
                    K[i, j] = np.exp(-0.5 * diff @ diff / ls**2)
            lam = np.real(np.linalg.eig(K / n).eigenvalues)
            entropy = float(np.sum(lam[lam > 1e-12] * np.log(lam[lam > 1e-12])))
            expected = -float(np.mean(target.log_density_batch(X))) + entropy
            assert value == pytest.approx(expected, abs=1e-8)

    def test_subset_size_validation(self):
        target = GaussianTarget(np.zeros(1), np.eye(1))
        ps = ParticleSet(np.zeros((3, 1)))
        with pytest.raises(ValueError):
            tr.approx_kl(ps, target, 4, KernelSpec(1.0), seed=0)
        with pytest.raises(ValueError):
            tr.approx_kl(ps, target, 0, KernelSpec(1.0), seed=0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        target = GaussianTarget(np.zeros(3), np.eye(3))
        ps = ParticleSet(rng.normal(size=(30, 3)))
        a = tr.approx_kl(ps, target, 3, KernelSpec(1.0), seed=5)
        b = tr.approx_kl(ps, target, 3, KernelSpec(1.0), seed=5)
        c = tr.approx_kl(ps, target, 3, KernelSpec(1.0), seed=6)
        assert a == b
        assert a != c


class TestKLStateTransitions:
    def test_scripted_sequences_follow_thresholds(self):
        # (u, o, m) -> rho; check radius transitions and acceptance exactly
        script = [
            (1.0, 2.0, -1.0),      # rho = 1.0: exact model -> expand, accept
            (2.0, 2.0, -1.0),      # rho = 0.0: shrink, accept
            (3.0, 2.0, -0.5),      # rho = -2.0: shrink, reject
            (1.9, 2.0, -0.2),      # rho = 0.5: keep radius, accept
            (1.0, 2.0, -1.3),      # rho ~ 0.769: expand, accept
        ]
        state = tr.TrustRegionKLState(radius=1.0)
        radii, accepts = [], []
        for u, o, m in script:
            accepts.append(state.update((u - o) / m))
            radii.append(state.radius)
        assert radii == [1.5, 0.75, 0.375, 0.375, 0.5625]
        assert accepts == [True, True, False, True, True]

    def test_boundary_thresholds_exact(self):
        state = tr.TrustRegionKLState(radius=1.0)
        state.update(0.7)            # not > 0.7: unchanged
        assert state.radius == 1.0
        state.update(1e-4)           # not < 1e-4: unchanged
        assert state.radius == 1.0
        state.update(np.nextafter(0.7, 1.0))
        assert state.radius == 1.5
        state.update(np.nextafter(1e-4, 0.0))
        assert state.radius == 0.75
        assert state.update(-0.0)    # -0.0 is not < 0: still accepted
        assert state.radius == 0.375


class TestAdaTrustState:
    def test_initialization_ties_all_fields(self):
        state = tr.AdaTrustState.initialize(3.7)
        assert state.b == state.w == state.g == state.b_max == 3.7
        assert state.radius() == 1.0

    def test_improvement_branch(self):
        state = tr.AdaTrustState.initialize(2.0)
        state.update(1.0)            # 1.0 < 0.999 * 2.0
        assert state.b == max(0.1, 0.9 * 2.0)
        assert state.w == 1.0
        assert state.g == 1.0

    def test_stall_branch(self):
        state = tr.AdaTrustState.initialize(2.0)
        g = 2.0                      # not an improvement
        state.update(g)
        assert state.b == min(2.0, 2.0 + g**2 / 2.0)   # clamped at b_max
        assert state.w == 2.0

    def test_b_min_clamp(self):
        state = tr.AdaTrustState.initialize(0.05)
        state.update(0.01)
        assert state.b == 0.1        # 0.9 * 0.05 clamps up to b_min

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=1e-6, max_value=100), min_size=1,
                    max_size=40))
    def test_w_nonincreasing_and_b_clamped(self, gs):
        state = tr.AdaTrustState.initialize(10.0)
        prev_w = state.w
        for g in gs:
            state.update(g)
            assert state.w <= prev_w
            prev_w = state.w
            assert 0.1 * (1 - 1e-12) <= state.b <= state.b_max


def gaussian_chain_target():
    root = BayesNode("root", (), ((),), (1.0,), 1.0, 1.0)
    child = BayesNode("linear", (0,), ((0.8,),), (1.0,), 0.0, 0.5)
    return BayesNetModel(BayesNetSpec(layers=((root,), (child,))))


def standard_normal_1d():
    node = BayesNode("root", (), ((),), (1.0,), 0.0, 1.0)
    return BayesNetModel(BayesNetSpec(layers=((node,),)))


class TestKLDriver:
    def test_rejected_iteration_keeps_particles_bitwise(self, monkeypatch):
        target = gaussian_chain_target()
        kernel = KernelSpec(1.0)
        rng = np.random.default_rng(0)
        ps = ParticleSet(rng.normal(size=(12, 2)), seed=0)
        # estimated KL increases a lot -> rho < 0 on every iteration
        values = iter([10.0, 0.0] * 5)
        monkeypatch.setattr(tr, "approx_kl",
                            lambda *args, **kwargs: next(values))
        before = ps.positions.tobytes()
        final, trace = tr.tr_svi_kl_run(ps, target, kernel, 1.0, 3, seed=0)
        assert final.positions.tobytes() == before
        assert [r.accepted for r in trace.records] == [False] * 3
        assert [r.radius_or_step for r in trace.records] == [1.0, 0.5, 0.25]
        assert all(r.rho < 0 for r in trace.records)

    def test_exact_model_expands_and_accepts(self, monkeypatch):
        target = gaussian_chain_target()
        kernel = KernelSpec(1.0)
        rng = np.random.default_rng(1)
        ps = ParticleSet(rng.normal(size=(10, 2)), seed=1)

        real_solve = tr.solve_subproblems
        models = []

        def capture(field, hessians, radius):
            out = real_solve(field, hessians, radius)
            models.append(out[2])
            return out

        monkeypatch.setattr(tr, "solve_subproblems", capture)
        # u - o equals the captured model decrease: rho = 1 exactly
        monkeypatch.setattr(
            tr, "approx_kl",
            lambda *args, **kwargs: models[-1] if len(models) else 0.0,
        )

        # first call after solve returns m (u), second returns 0 (o)... here we
        # script via closure: u = m, o = 0 -> (u-o)/m = 1 -> expand + accept
        calls = {"count": 0}

        def scripted(*args, **kwargs):
            calls["count"] += 1
            return models[-1] if calls["count"] % 2 == 1 else 0.0

        monkeypatch.setattr(tr, "approx_kl", scripted)
        before = ps.positions.copy()
        final, trace = tr.tr_svi_kl_run(ps, target, kernel, 1.0, 1, seed=0)
        rec = trace.records[0]
        assert rec.rho == pytest.approx(1.0, rel=1e-12)
        assert rec.accepted
        assert not np.array_equal(final.positions, before)
        # 1.0 -> 1.5 after the expansion
        _, trace2 = tr.tr_svi_kl_run(ps, target, kernel, 1.0, 2, seed=0)
        assert trace2.records[1].radius_or_step == 1.5

    def test_gaussian_smoke_gradient_drops(self):
        target = standard_normal_1d()
        kernel = KernelSpec(1.0)
        rng = np.random.default_rng(3)
        ps = ParticleSet(rng.normal(loc=2.0, size=(50, 1)), seed=3)
        final, trace = tr.tr_svi_kl_run(ps, target, kernel, 1.0, 100, seed=3)
        mags = trace.gradient_magnitudes()
        assert mags[-1] < 0.05 * mags[0]

    def test_deterministic(self):
        target = gaussian_chain_target()
        kernel = KernelSpec(1.0)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(15, 2))
        a, ta = tr.tr_svi_kl_run(ParticleSet(X), target, kernel, 1.0, 10,
                                 seed=9)
        b, tb = tr.tr_svi_kl_run(ParticleSet(X), target, kernel, 1.0, 10,
                                 seed=9)
        np.testing.assert_array_equal(a.positions, b.positions)
        assert [r.rho for r in ta.records] == [r.rho for r in tb.records]

    def test_invalid_radius(self):
        target = standard_normal_1d()
        kernel = KernelSpec(1.0)
        with pytest.raises(ValueError):
            tr.tr_svi_kl_run(ParticleSet(np.zeros((2, 1))), target, kernel,
                             0.0, 1, seed=0)


class TestATDriver:
    def test_first_iteration_radius_is_one(self):
        target = gaussian_chain_target()
        kernel = KernelSpec(1.0)
        rng = np.random.default_rng(0)
        ps = ParticleSet(rng.normal(size=(8, 2)))
        _, trace = tr.tr_svi_at_run(ps, target, kernel, 1)
        assert trace.records[0].radius_or_step == 1.0

    def test_zero_initial_gradient_returns_input(self):
        # a lone particle at the mode of a symmetric target has zero field
        target = standard_normal_1d()
        kernel = KernelSpec(1.0)
        ps = ParticleSet(np.array([[0.0]]))
        final, trace = tr.tr_svi_at_run(ps, target, kernel, 5)
        assert final is ps
        assert trace.records == []
        assert trace.warnings

    def test_small_initial_gradient_flagged(self):
        target = standard_normal_1d()
        kernel = KernelSpec(1.0)
        ps = ParticleSet(np.array([[1e-4]]))
        _, trace = tr.tr_svi_at_run(ps, target, kernel, 1)
        assert any("b_min" in w for w in trace.warnings)

    def test_gaussian_smoke_converges(self):
        target = gaussian_chain_target()
        kernel = KernelSpec(1.0)
        rng = np.random.default_rng(5)
        ps = ParticleSet(rng.normal(size=(40, 2)), seed=5)
        _, trace = tr.tr_svi_at_run(ps, target, kernel, 60)
        mags = trace.gradient_magnitudes()
        assert mags[-1] < 0.02 * mags[0]

    def test_deterministic(self):
        target = gaussian_chain_target()
        kernel = KernelSpec(1.0)
        rng = np.random.default_rng(6)
        X = rng.normal(size=(10, 2))
        a, ta = tr.tr_svi_at_run(ParticleSet(X), target, kernel, 15)
        b, tb = tr.tr_svi_at_run(ParticleSet(X), target, kernel, 15)
        np.testing.assert_array_equal(a.positions, b.positions)
        assert ta.gradient_magnitudes().tolist() == tb.gradient_magnitudes().tolist()


class TestSolveSubproblems:
    def test_steps_respect_radius_and_model(self, mixed_bn):
        kernel = KernelSpec(1.0)
        rng = np.random.default_rng(7)
        ps = ParticleSet(rng.normal(size=(12, mixed_bn.layout.total_dim)))
        field = graphical_stein_gradient(ps, mixed_bn, kernel)
        hessians = local_hessians(ps, mixed_bn, kernel)
        radius = 0.5
        steps, statuses, decrease, _ = tr.solve_subproblems(
            field, DenseHessians(hessians), radius)
        assert decrease <= 0
        norms = np.linalg.norm(steps, axis=1)
        assert np.all(norms <= radius * (1 + 1e-10))
        assert len(statuses) == 12
        expected = sum(model_value(H, g, w) for H, g, w
                       in zip(hessians, field.values, steps))
        assert decrease == pytest.approx(expected, rel=1e-12)


def spd_stack(rng, n, dim):
    A = rng.normal(size=(n, dim, dim))
    return A @ A.transpose(0, 2, 1) + 0.1 * np.eye(dim)


def indefinite_stack(rng, n, dim):
    A = rng.normal(size=(n, dim, dim))
    return 0.5 * (A + A.transpose(0, 2, 1))


def rank_deficient_stack(rng, n, dim):
    """SPD on a random half of the coordinates and exactly zero elsewhere, so
    curvature along the null space is exactly zero, not rounding noise of
    either sign (for which the oracle's and the batched status could
    legitimately differ)."""
    rank = max(1, dim // 2)
    H = np.zeros((n, dim, dim))
    for i in range(n):
        keep = rng.permutation(dim)[:rank]
        H[i][np.ix_(keep, keep)] = spd_stack(rng, 1, rank)[0]
    return H


def oracle_systems(seed):
    """(name, gradients, Hessian stack, radius) cases for the batched solver:
    every row is its own system, and each case mixes rows that stop
    differently within one call."""
    rng = np.random.default_rng(seed)
    n, dim = 24, 8
    cases = []
    for radius in (1e-12, 0.3, 3.0, 1e12):
        cases.append(("spd", rng.normal(size=(n, dim)),
                      spd_stack(rng, n, dim), radius))
        cases.append(("indefinite", rng.normal(size=(n, dim)),
                      indefinite_stack(rng, n, dim), radius))
    # below ||g|| = 0.01 the relative tolerance sqrt(||g||) is the tighter one
    cases.append(("small gradients", 10.0**rng.uniform(-8, -1, size=(n, 1))
                  * rng.normal(size=(n, dim)), spd_stack(rng, n, dim), 1.0))
    H = rank_deficient_stack(rng, n, dim)
    G = rng.normal(size=(n, dim))
    null = np.all(H == 0.0, axis=1)          # coordinates outside the range
    G[::4] *= null[::4]                      # gradients in the null space
    G[1::4] *= ~null[1::4]                   # consistent systems
    cases.append(("rank-deficient", G, H, 1.0))
    H = np.concatenate([spd_stack(rng, n // 2, dim),
                        indefinite_stack(rng, n // 2, dim)])
    G = rng.normal(size=(n, dim))
    G[::3] = 0.0
    cases.append(("zero-gradient rows", G, H, 1.0))
    # large curvature keeps the Newton step inside, small curvature pushes
    # it out, and negated SPD rows give negative curvature at once
    scale = np.repeat([100.0, 1e-2, -1.0], n // 3)
    cases.append(("three statuses", rng.normal(size=(n, dim)),
                  scale[:, None, None] * spd_stack(rng, n, dim), 1.0))
    h = rng.normal(size=(n, 1, 1))
    h[:3] = 0.0
    g = rng.normal(size=(n, 1))
    g[3:6] = 0.0
    cases.append(("dim 1", g, h, 0.5))
    # the hard case of exact_trust_region: g orthogonal to the eigenvector
    # of the negative eigenvalue, which CG then never sees
    lam = np.array([-1.0, 1.0, 2.0, 3.0])
    H = np.repeat(np.diag(lam)[None], n, axis=0)
    G = rng.normal(size=(n, 4))
    G[:, 0] = 0.0
    cases.append(("hard case", G, H, 2.0))
    return cases


# Measured worst case of the batched solver against the per-particle oracle,
# over oracle_systems(seed) for seeds 0..299 and over the mixed_bn stacks of
# test_stein_hessian_stacks for particle seeds 0..99: statuses and iteration
# counts always equal; step difference 2.8e-9 of the oracle's step norm
# (SPD rows that run many CG iterations; 1.8e-14 on the mixed_bn stacks);
# per-row model value difference 1.3e-13 relative, summed decrease 7.1e-15.
# The two differ only in the summation order of their dot products (einsum
# against BLAS ddot), which CG amplifies along weakly curved directions; the
# model value barely depends on those.  Each bound is its worst case rounded
# up to the next power of ten.
STEP_RTOL = 1e-8
MODEL_RTOL = 1e-12


def field_of(G):
    """A Stein field holding G under a single-factor layout."""
    dim = G.shape[1]
    whole = np.arange(dim)
    return SteinGradientField(FactorLayout((whole,), (whole,), dim), G)


def assert_matches_oracle(G, H, radius):
    field = field_of(G)
    got = tr.solve_subproblems(field, DenseHessians(H), radius)
    steps, statuses, decrease, iterations = per_particle_solve_subproblems(
        G, H, radius)
    assert got.statuses == statuses
    np.testing.assert_array_equal(got.iterations, iterations)
    norms = np.linalg.norm(steps, axis=1)
    assert np.all(np.linalg.norm(got.steps - steps, axis=1)
                  <= STEP_RTOL * norms)
    assert np.all(np.linalg.norm(got.steps, axis=1) <= radius * (1 + 1e-12))
    models = [model_value(h, g, w) for h, g, w in zip(H, G, steps)]
    got_models = [model_value(h, g, w) for h, g, w in zip(H, G, got.steps)]
    assert np.all(np.abs(np.subtract(got_models, models))
                  <= MODEL_RTOL * np.abs(models))
    assert abs(got.decrease - decrease) <= MODEL_RTOL * abs(decrease)
    return got


class TestBatchedMatchesOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_and_adversarial_systems(self, seed):
        for name, G, H, radius in oracle_systems(seed):
            got = assert_matches_oracle(G, H, radius)
            if name == "three statuses":
                assert set(got.statuses) == set(tr.STATUSES)
            if name == "zero-gradient rows":
                assert not got.steps[::3].any()
                assert not got.iterations[::3].any()

    def test_hard_case_stays_in_the_gradient_subspace(self):
        _, G, H, radius = oracle_systems(0)[-1]
        got = assert_matches_oracle(G, H, radius)
        assert not got.steps[:, 0].any()
        for g, h, w in zip(G, H, got.steps):
            exact = exact_trust_region(h, g, radius)
            assert model_value(h, g, w) >= model_value(h, g, exact) - 1e-12

    @pytest.mark.parametrize("radius", [0.05, 0.5, 5.0])
    def test_stein_hessian_stacks(self, mixed_bn, radius):
        kernel = KernelSpec(1.0)
        rng = np.random.default_rng(17)
        ps = ParticleSet(rng.normal(size=(30, mixed_bn.layout.total_dim)))
        field = graphical_stein_gradient(ps, mixed_bn, kernel)
        assert_matches_oracle(field.values,
                              local_hessians(ps, mixed_bn, kernel), radius)

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(0)
        G = rng.normal(size=(3, 2))
        H = spd_stack(rng, 3, 2)
        field = field_of(G)
        for radius in (0.0, -1.0):
            with pytest.raises(ValueError, match="radius"):
                tr.solve_subproblems(field, DenseHessians(H), radius)
        for bad in (DenseHessians(H[0]), DenseHessians(H[:, :1]),
                    DenseHessians(H[:2]), list(H), H):
            with pytest.raises(ValueError, match="operator"):
                tr.solve_subproblems(field, bad, 1.0)
        # the field checks finiteness itself; the solver checks again for
        # values changed after construction
        field.values[1, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            tr.solve_subproblems(field, DenseHessians(H), 1.0)
