from functools import cache

import numpy as np
import pytest

from oracles import (
    DenseHessians,
    dense_bayesnet_hessian_batch,
    dense_global_hessian_stack,
    moment_hessian_stack,
    operator_matrix,
    pair_loop_hessian_stack,
    per_edge_snlp_hessian_batch,
)
from targets import (
    GaussianTarget,
    fully_connected_layout,
    global_hessians,
    local_hessians,
    partial_blanket_layout,
)
from trsvi.kernels import KernelSpec, LocalKernelFamily
from trsvi.model import (
    BayesNetConfig,
    BayesNetModel,
    BayesNetSpec,
    BayesNode,
    FactorLayout,
    SnlpConfig,
    SnlpModel,
    build_snlp,
    generate_bayes_net,
)
from trsvi.stein import (
    ParticleSet,
    global_context,
    global_stein_gradient,
    graphical_stein_gradient,
    hessian_stack_from_context,
    local_context,
)
from trsvi.trustregion import solve_subproblems


def standard_normal_1d():
    node = BayesNode("root", (), ((),), (1.0,), 0.0, 1.0)
    return BayesNetModel(BayesNetSpec(layers=((node,),)))


def family_for(target, lengthscale=1.0):
    return LocalKernelFamily(KernelSpec(lengthscale), target.layout)


class TestParticleSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParticleSet(np.empty((0, 2)))
        with pytest.raises(ValueError):
            ParticleSet(np.array([[np.inf, 0.0]]))

    def test_advanced_tracks_iteration_and_seed(self):
        ps = ParticleSet(np.zeros((2, 2)), seed=9)
        nxt = ps.advanced(np.ones((2, 2)))
        assert nxt.iteration == 1 and nxt.seed == 9


class TestGradient:
    def test_single_particle_is_negative_score(self):
        target = standard_normal_1d()
        ps = ParticleSet(np.array([[2.0]]))
        field = graphical_stein_gradient(ps, target, family_for(target))
        # k(x,x)=1 and the kernel gradient vanishes at zero distance
        np.testing.assert_allclose(field.values, [[2.0]], rtol=1e-14)

        gfield = global_stein_gradient(ps, target, KernelSpec(1.0))
        np.testing.assert_allclose(gfield.values, [[2.0]], rtol=1e-14)

    def test_update_direction_moves_lone_particle_uphill(self):
        target = standard_normal_1d()
        ps = ParticleSet(np.array([[2.0]]))
        field = global_stein_gradient(ps, target, KernelSpec(1.0))
        moved = 2.0 - 0.1 * field.values[0, 0]
        assert target.log_density(np.array([moved])) > target.log_density(
            np.array([2.0])
        )

    def test_two_particle_hand_sum(self):
        target = standard_normal_1d()
        x1, x2 = 0.5, -1.0
        ps = ParticleSet(np.array([[x1], [x2]]))
        field = graphical_stein_gradient(ps, target, family_for(target, 1.0))

        def k(a, b):
            return np.exp(-0.5 * (a - b) ** 2)

        def dk(a, b):   # d/da k(a, b)
            return -(a - b) * k(a, b)

        # block for particle 1: -(1/2) sum_j [k(x_j,x_1) * (-x_j) + dk(x_j,x_1)]
        expected_1 = -0.5 * (
            k(x1, x1) * (-x1) + dk(x1, x1) + k(x2, x1) * (-x2) + dk(x2, x1)
        )
        expected_2 = -0.5 * (
            k(x1, x2) * (-x1) + dk(x1, x2) + k(x2, x2) * (-x2) + dk(x2, x2)
        )
        np.testing.assert_allclose(
            field.values, [[expected_1], [expected_2]], rtol=1e-12
        )

    def test_single_factor_matches_global(self):
        rng = np.random.default_rng(0)
        cov = np.array([[1.0, 0.4, 0.1], [0.4, 1.2, -0.2], [0.1, -0.2, 0.8]])
        target = GaussianTarget(np.zeros(3), cov)
        ps = ParticleSet(rng.normal(size=(10, 3)))
        fam = family_for(target, 1.3)
        graph = graphical_stein_gradient(ps, target, fam)
        glob = global_stein_gradient(ps, target, KernelSpec(1.3))
        np.testing.assert_allclose(graph.values, glob.values, atol=1e-12)

    def test_vanishes_in_expectation_at_equilibrium(self):
        target = standard_normal_1d()
        rng = np.random.default_rng(42)
        ps = ParticleSet(rng.standard_normal((2000, 1)))
        from trsvi.kernels import median_heuristic

        fam = family_for(target, median_heuristic(ps.positions))
        field = graphical_stein_gradient(ps, target, fam)
        mean_norm = np.linalg.norm(field.values, axis=1).mean()
        assert mean_norm < 0.1

    def test_permutation_invariance(self, mixed_bn):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(15, mixed_bn.layout.total_dim))
        fam = family_for(mixed_bn, 1.0)
        field = graphical_stein_gradient(ParticleSet(X), mixed_bn, fam)
        perm = rng.permutation(15)
        field_p = graphical_stein_gradient(ParticleSet(X[perm]), mixed_bn, fam)
        np.testing.assert_allclose(field_p.values, field.values[perm],
                                   rtol=1e-10, atol=1e-12)

    def test_block_depends_only_on_blanket_coordinates(self, mixed_bn):
        layout = mixed_bn.layout
        fam = family_for(mixed_bn, 1.0)
        rng = np.random.default_rng(12)
        X = rng.normal(size=(9, layout.total_dim))
        field = graphical_stein_gradient(ParticleSet(X), mixed_bn, fam)
        for a in range(layout.n_factors):
            outside = np.setdiff1d(np.arange(layout.total_dim),
                                   layout.blankets[a])
            if outside.size == 0:
                continue
            X2 = X.copy()
            X2[:, outside] += rng.normal(size=(9, outside.size))
            field2 = graphical_stein_gradient(ParticleSet(X2), mixed_bn, fam)
            dims = layout.factors[a]
            np.testing.assert_array_equal(field2.values[:, dims],
                                          field.values[:, dims])

    def test_layout_mismatch_rejected(self, mixed_bn):
        other = FactorLayout.single_factor(mixed_bn.layout.total_dim)
        fam = LocalKernelFamily(KernelSpec(1.0), other)
        ps = ParticleSet(np.zeros((2, mixed_bn.layout.total_dim)))
        with pytest.raises(ValueError):
            graphical_stein_gradient(ps, mixed_bn, fam)


class TestHessian:
    def test_single_particle_is_negative_log_hessian(self, mixed_bn):
        rng = np.random.default_rng(2)
        x = rng.normal(size=mixed_bn.layout.total_dim)
        ps = ParticleSet(x[None, :])
        hess = local_hessians(ps, mixed_bn, family_for(mixed_bn))[0]
        np.testing.assert_allclose(hess, -mixed_bn.hessian(x), atol=1e-12)

    def test_gaussian_single_particle_gives_precision(self):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        target = GaussianTarget(np.zeros(2), cov)
        ps = ParticleSet(np.array([[0.3, -0.7]]))
        hess = global_hessians(ps, target, KernelSpec(1.0))[0]
        precision = np.linalg.inv(cov)
        np.testing.assert_allclose(hess, precision, rtol=1e-10)
        assert np.all(np.linalg.eigvalsh(hess) > 0)

    def test_assembled_matrix_is_exactly_symmetric(self, mixed_bn):
        rng = np.random.default_rng(3)
        ps = ParticleSet(rng.normal(size=(8, mixed_bn.layout.total_dim)))
        for hess in local_hessians(ps, mixed_bn, family_for(mixed_bn)):
            np.testing.assert_array_equal(hess, hess.T)

    def test_block_transpose_symmetry_under_index_swap(self, mixed_bn):
        rng = np.random.default_rng(4)
        ps = ParticleSet(rng.normal(size=(6, mixed_bn.layout.total_dim)))
        hess = local_hessians(ps, mixed_bn, family_for(mixed_bn))[2]
        factors = mixed_bn.layout.factors
        for Ca in factors:
            for Cb in factors:
                np.testing.assert_array_equal(hess[np.ix_(Ca, Cb)],
                                              hess[np.ix_(Cb, Ca)].T)

    def test_single_factor_matches_global(self):
        cov = np.array([[1.0, 0.3, 0.0], [0.3, 0.9, 0.2], [0.0, 0.2, 1.4]])
        target = GaussianTarget(np.ones(3), cov)
        rng = np.random.default_rng(5)
        ps = ParticleSet(rng.normal(size=(10, 3)))
        fam = family_for(target, 0.8)
        graph = local_hessians(ps, target, fam)
        glob = global_hessians(ps, target, KernelSpec(0.8))
        for hg, hgl in zip(graph, glob):
            np.testing.assert_allclose(hg, hgl, atol=1e-12)

    def test_graphical_equals_global_entrywise_under_full_blankets(self):
        # 3-dim target, per-dim factors with all-covering blankets: every
        # local kernel equals the global kernel, so the two second-variation
        # formulas must agree entry by entry.
        cov = np.array([[1.0, 0.5, 0.2], [0.5, 1.1, -0.3], [0.2, -0.3, 0.7]])
        layout = fully_connected_layout([1, 1, 1])
        target = GaussianTarget(np.zeros(3), cov, layout)
        rng = np.random.default_rng(6)
        ps = ParticleSet(rng.normal(size=(7, 3)))
        fam = LocalKernelFamily(KernelSpec(1.0), layout)
        graph = local_hessians(ps, target, fam)
        glob = global_hessians(ps, target, KernelSpec(1.0))
        for hg, hgl in zip(graph, glob):
            np.testing.assert_allclose(hg, hgl, atol=1e-13)

    def test_only_overlapping_pairs_materialized(self, mixed_bn):
        layout = mixed_bn.layout
        rng = np.random.default_rng(7)
        ps = ParticleSet(rng.normal(size=(5, layout.total_dim)))
        hess = local_hessians(ps, mixed_bn, family_for(mixed_bn))[0]
        pairs = set(layout.overlapping_pairs())
        for a, Ca in enumerate(layout.factors):
            for b, Cb in enumerate(layout.factors):
                block = hess[np.ix_(Ca, Cb)]
                if (min(a, b), max(a, b)) in pairs:
                    assert np.any(block != 0.0)
                else:
                    assert np.all(block == 0.0)

    def test_index_guards(self, mixed_bn):
        ps = ParticleSet(np.zeros((2, mixed_bn.layout.total_dim)))
        with pytest.raises(IndexError):
            local_hessians(ps, mixed_bn, family_for(mixed_bn))[5]


class TestHessianApply:
    """The stack is applied per particle in the trust-region subproblems."""

    def _field_and_stack(self, mixed_bn, n=6, seed=0):
        rng = np.random.default_rng(seed)
        ps = ParticleSet(rng.normal(size=(n, mixed_bn.layout.total_dim)))
        fam = family_for(mixed_bn)
        return (graphical_stein_gradient(ps, mixed_bn, fam),
                local_hessians(ps, mixed_bn, fam))

    def test_zero_vector(self, mixed_bn):
        ps = ParticleSet(np.random.default_rng(0).normal(
            size=(6, mixed_bn.layout.total_dim)))
        fam = family_for(mixed_bn)
        field = graphical_stein_gradient(ps, mixed_bn, fam)
        hessians = hessian_stack_from_context(local_context(ps.positions, fam),
                                              mixed_bn)
        field.values[:] = 0.0
        steps, statuses, decrease, _ = solve_subproblems(field, hessians, 1.0)
        np.testing.assert_array_equal(steps, np.zeros_like(steps))
        assert statuses == ["interior"] * 6 and decrease == 0.0

    def test_identity_like(self):
        target = GaussianTarget(np.zeros(3), np.eye(3))
        ps = ParticleSet(np.array([[0.1, 0.2, -0.3]]))
        hess = global_hessians(ps, target, KernelSpec(1.0))[0]
        v = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(hess @ v, v, rtol=1e-12)

    def test_matches_dense_product(self, mixed_bn):
        # the product over overlapping pair blocks alone, each used with its
        # transpose, reproduces the full matrix-vector product
        layout = mixed_bn.layout
        rng = np.random.default_rng(8)
        _, stack = self._field_and_stack(mixed_bn, seed=8)
        for hess in stack:
            v = rng.normal(size=layout.total_dim)
            out = np.zeros_like(v)
            for a, b in layout.overlapping_pairs():
                Ca, Cb = layout.factors[a], layout.factors[b]
                block = hess[np.ix_(Ca, Cb)]
                out[Ca] += block @ v[Cb]
                if a != b:
                    out[Cb] += block.T @ v[Ca]
            assert np.abs(out - hess @ v).max() < 1e-12

    def test_dimension_mismatch(self, mixed_bn):
        field, stack = self._field_and_stack(mixed_bn)
        for bad in (stack[:, :5, :5], stack[:5], stack[0]):
            with pytest.raises(ValueError):
                solve_subproblems(field, DenseHessians(bad), 1.0)

    def test_non_stack_operand_rejected(self, mixed_bn):
        field, stack = self._field_and_stack(mixed_bn)
        for bad in (list(stack), stack):
            with pytest.raises(ValueError, match="operator"):
                solve_subproblems(field, bad, 1.0)


@cache
def _snlp50():
    """The instance of configs/snlp_large.yaml (d = 100, 50 factors)."""
    return SnlpModel(build_snlp(SnlpConfig(
        unknowns=50, anchors=12, side=20.0, radius=3.0, noise_variance=0.01,
        seed=0)))


def _assembly_cases(mixed_bn, small_snlp):
    rng = np.random.default_rng(21)
    yield "mixed_bn", mixed_bn, rng.normal(size=(9, 6)), 1.0
    base = small_snlp.problem.true_positions.reshape(-1)
    yield "small snlp", small_snlp, base + rng.normal(scale=0.5, size=(11, 12)), 1.0
    X = 10.0 + 5.0 * rng.standard_normal((40, 100))
    yield "snlp50", _snlp50(), X, 3.0
    layout = partial_blanket_layout()
    A = rng.normal(size=(7, 7))
    cov = A @ A.T + 7.0 * np.eye(7)
    yield "partial blankets", GaussianTarget(np.ones(7), cov, layout), \
        rng.normal(size=(12, 7)), 0.9


class TestStackAssembly:
    """The moment-GEMM assembly against the per-pair difference-tensor loop."""

    def test_partial_blanket_masks_are_not_all_ones(self):
        groups = partial_blanket_layout().pair_groups()
        assert any(0.0 < m.mean() < 1.0 for g in groups for m in g.mask)

    def test_matches_pair_loop_oracle(self, mixed_bn, small_snlp):
        for name, target, X, ls in _assembly_cases(mixed_bn, small_snlp):
            fam = LocalKernelFamily(KernelSpec(ls), target.layout)
            ctx = local_context(X, fam)
            stack = operator_matrix(hessian_stack_from_context(ctx, target))
            oracle = pair_loop_hessian_stack(X, target, ctx.kmats, ls)
            assert stack.shape == oracle.shape
            scale = np.abs(oracle).max()
            assert np.abs(stack - oracle).max() <= 1e-12 * scale, name
            np.testing.assert_array_equal(stack, stack.transpose(0, 2, 1))
            # the pattern values are the former dense stack's entries
            np.testing.assert_array_equal(stack, moment_hessian_stack(ctx, target))

    def test_snlp_hessian_batch_matches_per_edge_loop(self, small_snlp,
                                                      noisy_snlp):
        rng = np.random.default_rng(22)
        for model in (small_snlp, noisy_snlp):
            base = model.problem.true_positions.reshape(-1)
            X = base + rng.normal(scale=0.5, size=(13, base.size))
            oracle = per_edge_snlp_hessian_batch(model, X)
            batch = model.layout.pattern().dense(model.hessian_batch(X))
            assert np.abs(batch - oracle).max() <= 1e-12 * np.abs(oracle).max()
            np.testing.assert_array_equal(batch, batch.transpose(0, 2, 1))


def _global_cases(mixed_bn, small_snlp, seed=24):
    rng = np.random.default_rng(seed)
    yield "mixed_bn", mixed_bn, rng.normal(size=(30, 6))
    base = small_snlp.problem.true_positions.reshape(-1)
    yield "small snlp", small_snlp, base + rng.normal(scale=0.5, size=(40, 12))
    # snlp50's default particle initialisation (centre side/2, scale side/4)
    yield "snlp50", _snlp50(), 10.0 + 5.0 * rng.standard_normal((60, 100))


class TestGlobalStack:
    """The matrix-free global operator against the dense tensordot form."""

    @pytest.mark.parametrize("lengthscale", [0.5, 3.0])
    def test_matches_dense_oracle(self, mixed_bn, small_snlp, lengthscale):
        for name, target, X in _global_cases(mixed_bn, small_snlp):
            ctx = global_context(X, target.layout, KernelSpec(lengthscale))
            stack = operator_matrix(hessian_stack_from_context(ctx, target))
            oracle = dense_global_hessian_stack(ctx, target)
            assert stack.shape == oracle.shape, name
            scale = np.abs(oracle).max(axis=(1, 2))
            err = np.abs(stack - oracle).max(axis=(1, 2))
            assert np.all(err <= 1e-12 * scale), name
            asym = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
            assert np.all(asym <= OPERATOR_RTOL * scale), name

    def test_snlp50_weights_include_subnormals(self, mixed_bn, small_snlp):
        """The oracle comparison covers K * K with subnormal entries (at
        lengthscale 3.0) and a diagonal kernel (at 0.5)."""
        *_, (_, target, X) = _global_cases(mixed_bn, small_snlp)
        W = global_context(X, target.layout, KernelSpec(3.0)).kmats[0] ** 2
        assert np.mean((W > 0.0) & (W < np.finfo(float).tiny)) > 0.005
        K = global_context(X, target.layout, KernelSpec(0.5)).kmats[0]
        np.testing.assert_array_equal(K, np.diag(np.diag(K)))

    def test_model_hessians_vanish_outside_the_pattern(self, mixed_bn,
                                                       small_snlp, noisy_snlp):
        """The premise of storing model Hessians over the pattern: every
        dense oracle Hessian is exactly zero off the layout's pattern, and
        its pattern entries are bitwise the model's values."""
        rng = np.random.default_rng(25)
        nets = [
            BayesNetModel(generate_bayes_net(BayesNetConfig(
                layer_sizes=sizes, max_parents=3, gmm_nodes=gmm, seed=seed)))
            for sizes, gmm, seed in (((5, 5), 2, 7), ((10, 10, 10), 6, 0))
        ]
        for model in [mixed_bn, *nets]:
            X = rng.normal(size=(20, model.layout.total_dim))
            self._check_pattern(model, X, dense_bayesnet_hessian_batch(model, X))
        for model in (small_snlp, noisy_snlp, _snlp50()):
            base = model.problem.true_positions.reshape(-1)
            X = base + rng.normal(size=(20, base.size))
            # the per-edge loop sums in another order: compare within 1e-12
            self._check_pattern(model, X, per_edge_snlp_hessian_batch(model, X),
                                rtol=1e-12)

    @staticmethod
    def _check_pattern(model, X, dense, rtol=0.0):
        pattern = model.layout.pattern()
        inside = np.zeros(pattern.dim**2, dtype=bool)
        inside[pattern.flat] = True
        flat = dense.reshape(X.shape[0], -1)
        assert np.all(flat[:, ~inside] == 0.0)
        assert np.all(np.any(flat[:, inside] != 0.0, axis=0))
        values = model.hessian_batch(X)
        assert values.shape == (X.shape[0], pattern.nnz)
        err = np.abs(values - flat[:, inside]).max()
        assert err <= rtol * np.abs(flat).max()


# Measured worst case over _global_cases for seeds 0..49, lengthscales 0.5
# and 3.0, and unit-normal directions.  Error of apply(V) against the dense
# oracle's product, relative to the largest entry of that particle's
# product: 1.6e-15 for the local operator (its values are the former dense
# stack's, bit for bit; only the order of each row's sum differs) and
# 6.6e-16 for the global one (the kernel term's expansion into two GEMMs).
# Asymmetry |u.Hv - v.Hu| relative to ||u|| ||Hv||: 4.3e-16 and 4.1e-16.
# The bound is the worst case rounded up to the next power of ten.
OPERATOR_RTOL = 1e-14


def _check_operator(hessians, oracle, rng):
    """apply(V) against the oracle's product, and the operator's symmetry:
    u.H v against v.H u, both relative to max|H_i v_i| per particle."""
    n, dim = hessians.shape
    U, V = rng.normal(size=(2, n, dim))
    HV, HU = hessians.apply(V), hessians.apply(U)
    ref = np.matmul(oracle, V[..., None])[..., 0]
    scale = np.abs(ref).max(axis=1)
    err = np.abs(HV - ref).max(axis=1)
    asym = np.abs(np.einsum("ij,ij->i", U, HV) - np.einsum("ij,ij->i", V, HU))
    asym_scale = np.linalg.norm(U, axis=1) * np.linalg.norm(ref, axis=1)
    assert np.all(err <= OPERATOR_RTOL * scale)
    assert np.all(asym <= OPERATOR_RTOL * asym_scale)
    return (err / scale).max()


class TestHessianOperators:
    """The operators the trust-region loop applies, against the dense
    stacks they replace (`moment_hessian_stack`, kept as the oracle)."""

    @pytest.mark.parametrize("lengthscale", [0.5, 3.0])
    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_apply_matches_dense_oracle(self, mixed_bn, small_snlp, kind,
                                        lengthscale):
        rng = np.random.default_rng(31)
        for name, target, X in _global_cases(mixed_bn, small_snlp, 30):
            kernel = KernelSpec(lengthscale)
            ctx = (local_context(X, LocalKernelFamily(kernel, target.layout))
                   if kind == "local" else
                   global_context(X, target.layout, kernel))
            hessians = hessian_stack_from_context(ctx, target)
            assert hessians.shape == X.shape, name
            _check_operator(hessians, moment_hessian_stack(ctx, target), rng)

    def test_operators_store_pattern_values(self, small_snlp):
        """Memory is O(n * nnz): at snlp50 the local operator holds 768
        values per particle where the dense stack held 10,000."""
        X = 10.0 + 5.0 * np.random.default_rng(32).standard_normal((40, 100))
        target = _snlp50()
        assert target.layout.pattern().nnz == 768
        kernel = KernelSpec(3.0)
        local = hessian_stack_from_context(
            local_context(X, LocalKernelFamily(kernel, target.layout)), target)
        glob = hessian_stack_from_context(
            global_context(X, target.layout, kernel), target)
        dense = 40 * 100 * 100 * 8
        assert local.nbytes < dense / 5
        assert glob.nbytes < dense / 3
