from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    BAYESNET_ROUNDING_BOUND,
    DenseHessians,
    bayesnet_term_magnitudes,
    blanket_loop_kmats,
    dense_bayesnet_hessian_batch,
    dense_global_hessian_stack,
    factor_loop_field,
    four_entry_snlp_hessian_batch,
    moment_hessian_stack,
    moment_rounding_bound,
    moment_term_magnitudes,
    operator_matrix,
    pair_loop_hessian_stack,
    per_edge_snlp_hessian_batch,
    per_factor_field,
    per_factor_hessian_values,
)
from targets import (
    GaussianTarget,
    bundled,
    fully_connected_layout,
    global_hessians,
    local_hessians,
    mixed_size_layout,
    partial_blanket_layout,
)
from trsvi import stein
from trsvi.kernels import KernelSpec, rbf_matrix
from trsvi.model import (
    BayesNetConfig,
    FactorLayout,
    BayesNetModel,
    BayesNetSpec,
    BayesNode,
    SnlpConfig,
    SnlpModel,
    build_snlp,
    generate_bayes_net,
)
from trsvi.stein import (
    ParticleSet,
    field_from_context,
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
        field = graphical_stein_gradient(ps, target, KernelSpec(1.0))
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
        field = graphical_stein_gradient(ps, target, KernelSpec(1.0))

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
        kernel = KernelSpec(1.3)
        graph = graphical_stein_gradient(ps, target, kernel)
        glob = global_stein_gradient(ps, target, kernel)
        np.testing.assert_allclose(graph.values, glob.values, atol=1e-12)

    def test_vanishes_in_expectation_at_equilibrium(self):
        target = standard_normal_1d()
        rng = np.random.default_rng(42)
        ps = ParticleSet(rng.standard_normal((2000, 1)))
        from trsvi.kernels import median_heuristic

        kernel = KernelSpec(median_heuristic(ps.positions))
        field = graphical_stein_gradient(ps, target, kernel)
        mean_norm = np.linalg.norm(field.values, axis=1).mean()
        assert mean_norm < 0.1

    def test_permutation_invariance(self, mixed_bn):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(15, mixed_bn.layout.total_dim))
        kernel = KernelSpec(1.0)
        field = graphical_stein_gradient(ParticleSet(X), mixed_bn, kernel)
        perm = rng.permutation(15)
        field_p = graphical_stein_gradient(ParticleSet(X[perm]), mixed_bn,
                                           kernel)
        np.testing.assert_allclose(field_p.values, field.values[perm],
                                   rtol=1e-10, atol=1e-12)

    def test_block_depends_only_on_blanket_coordinates(self, mixed_bn):
        layout = mixed_bn.layout
        kernel = KernelSpec(1.0)
        rng = np.random.default_rng(12)
        X = rng.normal(size=(9, layout.total_dim))
        field = graphical_stein_gradient(ParticleSet(X), mixed_bn, kernel)
        for a in range(layout.n_factors):
            outside = np.setdiff1d(np.arange(layout.total_dim),
                                   layout.blankets[a])
            if outside.size == 0:
                continue
            X2 = X.copy()
            X2[:, outside] += rng.normal(size=(9, outside.size))
            field2 = graphical_stein_gradient(ParticleSet(X2), mixed_bn,
                                              kernel)
            dims = layout.factors[a]
            np.testing.assert_array_equal(field2.values[:, dims],
                                          field.values[:, dims])


class TestHessian:
    def test_single_particle_is_negative_log_hessian(self, mixed_bn):
        rng = np.random.default_rng(2)
        x = rng.normal(size=mixed_bn.layout.total_dim)
        ps = ParticleSet(x[None, :])
        hess = local_hessians(ps, mixed_bn, KernelSpec(1.0))[0]
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
        for hess in local_hessians(ps, mixed_bn, KernelSpec(1.0)):
            np.testing.assert_array_equal(hess, hess.T)

    def test_block_transpose_symmetry_under_index_swap(self, mixed_bn):
        rng = np.random.default_rng(4)
        ps = ParticleSet(rng.normal(size=(6, mixed_bn.layout.total_dim)))
        hess = local_hessians(ps, mixed_bn, KernelSpec(1.0))[2]
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
        kernel = KernelSpec(0.8)
        graph = local_hessians(ps, target, kernel)
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
        kernel = KernelSpec(1.0)
        graph = local_hessians(ps, target, kernel)
        glob = global_hessians(ps, target, KernelSpec(1.0))
        for hg, hgl in zip(graph, glob):
            np.testing.assert_allclose(hg, hgl, atol=1e-13)

    def test_only_overlapping_pairs_materialized(self, mixed_bn):
        layout = mixed_bn.layout
        rng = np.random.default_rng(7)
        ps = ParticleSet(rng.normal(size=(5, layout.total_dim)))
        hess = local_hessians(ps, mixed_bn, KernelSpec(1.0))[0]
        pairs = set(layout.overlapping_pairs)
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
            local_hessians(ps, mixed_bn, KernelSpec(1.0))[5]


class TestHessianApply:
    """The stack is applied per particle in the trust-region subproblems."""

    def _field_and_stack(self, mixed_bn, n=6, seed=0):
        rng = np.random.default_rng(seed)
        ps = ParticleSet(rng.normal(size=(n, mixed_bn.layout.total_dim)))
        kernel = KernelSpec(1.0)
        return (graphical_stein_gradient(ps, mixed_bn, kernel),
                local_hessians(ps, mixed_bn, kernel))

    def test_zero_vector(self, mixed_bn):
        ps = ParticleSet(np.random.default_rng(0).normal(
            size=(6, mixed_bn.layout.total_dim)))
        kernel = KernelSpec(1.0)
        field = graphical_stein_gradient(ps, mixed_bn, kernel)
        hessians = hessian_stack_from_context(
            local_context(ps.positions, mixed_bn.layout, kernel), mixed_bn)
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
            for a, b in layout.overlapping_pairs:
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


def test_local_context_kernels_share_one_array(mixed_bn, small_snlp):
    """A local context's kernels are views of one (U, n, n) array, one per
    distinct blanket; factor a's, read through `layout.kernel_index`, is
    bitwise its blanket's own `rbf_matrix`."""
    for name, target, X, ls in _assembly_cases(mixed_bn, small_snlp):
        layout = target.layout
        ctx = local_context(X, layout, KernelSpec(ls))
        distinct = {b.tobytes() for b in layout.blankets}
        base = ctx.kmats[0].base
        assert base is not None
        assert base.shape == (len(distinct), len(X), len(X))
        for a in range(layout.n_factors):
            K = ctx.kmats[layout.kernel_index[a]]
            assert K.base is base, (name, a)
            separate = rbf_matrix(X, X, ls, dims=layout.blankets[a])
            assert K.tobytes() == separate.tobytes(), (name, a)


BUNDLED = ["bn10_desk", "bn30_paper", "snlp_small", "snlp_large"]


def _context(kind, X, target, lengthscale):
    kernel = KernelSpec(lengthscale)
    if kind == "local":
        return local_context(X, target.layout, kernel)
    return global_context(X, target.layout, kernel)


def field_bound(ctx, target) -> np.ndarray:
    """Per entry, how far the batched field may lie from the factor loop's:
    2 (n + 4) eps (K^T |s| + (K^T |x| + |x| colsum(K)) / l^2) / n.  The two
    form K^T s, K^T x and colsum(K), each a sum of n terms, in different
    orders (the loop's one-column products are matrix-vector products);
    each order is within (n - 1) eps of the exact sum relative to the sum
    of its terms' magnitudes, and the five operations that combine the
    three sums round each side once more.  Worst observed over the first
    ten particle seeds of bn10_desk and bn30_paper, lengthscales 0.5-10,
    local and global kernels: 0.041 of the bound (1.2e-15 relative to the
    field's largest entry)."""
    X = ctx.X
    n = X.shape[0]
    S, A = np.abs(target.gradient_batch(X)), np.abs(X)
    scale = np.empty_like(X)
    for a, dims in enumerate(ctx.layout.factors):
        K = ctx.kmats[0 if ctx.is_global else ctx.layout.kernel_index[a]]
        scale[:, dims] = (K.T @ S[:, dims] + (
            K.T @ A[:, dims] + A[:, dims] * K.sum(axis=0)[:, None]
        ) / ctx.lengthscale**2) / n
    return 2 * (n + 4) * np.finfo(float).eps * scale


def _mixed_size_target():
    layout = mixed_size_layout()
    A = np.random.default_rng(26).normal(size=(layout.total_dim,) * 2)
    cov = A @ A.T + layout.total_dim * np.eye(layout.total_dim)
    return GaussianTarget(np.full(layout.total_dim, 0.5), cov, layout)


class TestFactorBatching:
    """Kernels built a chunk of blankets at a time, and the field a chunk of
    equal-size factors at a time, against the per-blanket `rbf_matrix` and
    per-factor loops they replace (`blanket_loop_kmats`,
    `factor_loop_field`)."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_kernels_bitwise_at_bundled_sizes(self, name):
        target, X = bundled(name)
        kernel_index = target.layout.kernel_index
        for ls in (0.5, 3.0):
            ctx = _context("local", X, target, ls)
            assert ctx.kmats[kernel_index].tobytes() == \
                blanket_loop_kmats(X, target.layout, ls).tobytes(), ls

    @pytest.mark.parametrize("name, distinct", [
        ("bn10_desk", 9), ("bn30_paper", 30), ("snlp_small", 6),
        ("snlp_large", 41)])
    def test_bundled_contexts_hold_one_kernel_per_distinct_blanket(
            self, name, distinct):
        """snlp_large's 50 blankets hold 41 distinct dimension sets (two
        sensors with one closed neighbourhood share one) and bn10_desk's 10
        hold 9; bn30_paper's and snlp_small's are all distinct, and their
        kernels and field groups are those of one kernel per factor."""
        target, X = bundled(name)
        layout = target.layout
        ctx = _context("local", X, target, 1.0)
        assert ctx.kmats.shape == (distinct, len(X), len(X))
        assert np.unique(layout.kernel_index).size == distinct
        if distinct == layout.n_factors:
            np.testing.assert_array_equal(layout.kernel_index,
                                          np.arange(distinct))
            assert all(g.factors.shape[1] == 1 for g in layout.factor_groups)

    @pytest.mark.parametrize("kind", ["local", "global"])
    @pytest.mark.parametrize("name", BUNDLED)
    def test_field_against_factor_loop(self, name, kind):
        """Bitwise on SNLP (two-coordinate factors: both sides take
        matrix-matrix products); on the nets within `field_bound`."""
        target, X = bundled(name)
        for ls in (0.5, 3.0):
            ctx = _context(kind, X, target, ls)
            field = field_from_context(ctx, target).values
            oracle = factor_loop_field(ctx, target)
            if isinstance(target, SnlpModel):
                assert field.tobytes() == oracle.tobytes(), ls
            else:
                assert np.all(np.abs(field - oracle) <= field_bound(ctx, target))

    def test_mixed_factor_sizes_take_consecutive_kernels(self):
        """Interleaved one- and two-dimensional factors: neither size's
        factors are consecutive, but each group's kernels are one run of
        the context, so the field reads them as a view."""
        target = _mixed_size_target()
        layout = target.layout
        groups = layout.factor_groups
        assert [g.dims.shape[1] for g in groups] == [1, 2]
        assert all(np.any(np.diff(g.factors[:, 0]) > 1) for g in groups)
        assert np.concatenate([g.kernels for g in groups]).tolist() == \
            list(range(layout.n_factors))
        X = np.random.default_rng(27).normal(size=(30, layout.total_dim))
        for kind in ("local", "global"):
            ctx = _context(kind, X, target, 1.2)
            if kind == "local":
                assert ctx.kmats[layout.kernel_index].tobytes() == \
                    blanket_loop_kmats(X, layout, 1.2).tobytes()
            field = field_from_context(ctx, target).values
            oracle = factor_loop_field(ctx, target)
            assert np.all(np.abs(field - oracle) <= field_bound(ctx, target))

    @pytest.mark.parametrize("per_chunk", [1, 3])
    def test_chunks_change_no_bit(self, mixed_bn, small_snlp, monkeypatch,
                                  per_chunk):
        """Groups cut into chunks of one or three factors give bitwise the
        kernels and field of whole groups (at these sizes every group fits
        one chunk of the default budget; bn30 and snlp50 at n = 200 take
        six factors a chunk, as the bundled cases above do)."""
        cases = [(name, target, X, ls) for name, target, X, ls
                 in _assembly_cases(mixed_bn, small_snlp)]
        rng = np.random.default_rng(28)
        cases.append(("mixed sizes", _mixed_size_target(),
                      rng.normal(size=(30, 10)), 1.2))
        assert stein._factors_per_chunk(200) == 6
        whole = {}
        for name, target, X, ls in cases:
            assert stein._factors_per_chunk(X.shape[0]) >= target.layout.n_factors
            ctx = _context("local", X, target, ls)
            whole[name] = (ctx.kmats.tobytes(),
                           field_from_context(ctx, target).values.tobytes())
        for name, target, X, ls in cases:
            monkeypatch.setattr(stein, "_CHUNK_BYTES",
                                per_chunk * 8 * X.shape[0] ** 2)
            ctx = _context("local", X, target, ls)
            got = (ctx.kmats.tobytes(),
                   field_from_context(ctx, target).values.tobytes())
            assert got == whole[name], name


@st.composite
def clique_layouts(draw):
    """`from_factor_neighbors` layouts of 2-8 factors of sizes 1-3 over a
    graph of cliques: each factor is drawn into a clique, some cliques are
    joined whole, and at most two single edges are added.  Members of one
    clique that no single edge reaches share one closed neighbourhood, so
    one blanket."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=8))
    D = len(sizes)
    clique = draw(st.lists(st.integers(0, D - 1), min_size=D, max_size=D))
    pairs = st.tuples(st.integers(0, D - 1), st.integers(0, D - 1))
    joins = draw(st.sets(pairs, max_size=4))
    edges = draw(st.sets(pairs, max_size=2))
    neighbors = [
        {b for b in range(D) if clique[a] == clique[b]
         or (clique[a], clique[b]) in joins or (clique[b], clique[a]) in joins}
        for a in range(D)]
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    return FactorLayout.from_factor_neighbors(sizes, neighbors)


class TestSharedKernels:
    """Factors whose blankets hold the same dimensions share one kernel;
    the field and Hessian operator read it through `layout.kernel_index`
    and give bitwise what one kernel per factor gave (`per_factor_field`,
    `per_factor_hessian_values`)."""

    @settings(max_examples=60, deadline=None)
    @given(clique_layouts(), st.integers(2, 12), st.integers(0, 2**32 - 1),
           st.floats(0.3, 3.0))
    @example(FactorLayout.from_factor_neighbors(
        [2, 1, 2, 3, 1], [[1, 2], [0, 2], [0, 1], [4], [3]]), 9, 0, 1.0)
    def test_bitwise_one_kernel_per_factor(self, layout, n, seed, ls):
        rng = np.random.default_rng(seed)
        d = layout.total_dim
        A = rng.normal(size=(d, d))
        target = GaussianTarget(rng.normal(size=d), A @ A.T + d * np.eye(d),
                                layout)
        X = rng.normal(size=(n, d))
        ctx = local_context(X, layout, KernelSpec(ls))
        assert ctx.kmats.shape[0] == len({b.tobytes() for b in layout.blankets})
        per_factor = np.empty((layout.n_factors, n, n))
        for a in range(layout.n_factors):
            rbf_matrix(X, X, ls, dims=layout.blankets[a], out=per_factor[a])
        assert ctx.kmats[layout.kernel_index].tobytes() == per_factor.tobytes()
        field = field_from_context(ctx, target).values
        assert field.tobytes() == per_factor_field(
            X, target, per_factor, ls).tobytes()
        values = hessian_stack_from_context(ctx, target)._matrix.data
        assert values.tobytes() == per_factor_hessian_values(
            X, target, per_factor, ls).tobytes()

    def test_bundled_field_and_hessians_bitwise_one_kernel_per_factor(self):
        """snlp_large at its bundled size (n = 200, 9 of 50 blankets
        repeated), bitwise against one kernel per factor."""
        target, X = bundled("snlp_large")
        layout = target.layout
        ctx = local_context(X, layout, KernelSpec(3.0))
        per_factor = ctx.kmats[layout.kernel_index]
        assert field_from_context(ctx, target).values.tobytes() == \
            per_factor_field(X, target, per_factor, 3.0).tobytes()
        assert hessian_stack_from_context(ctx, target)._matrix.data.tobytes() \
            == per_factor_hessian_values(X, target, per_factor, 3.0).tobytes()


class TestStackAssembly:
    """The moment-GEMM assembly against the per-pair difference-tensor loop."""

    def test_partial_blanket_masks_are_not_all_ones(self):
        groups = partial_blanket_layout().pair_groups
        assert any(0.0 < m.mean() < 1.0 for g in groups for m in g.mask)

    def test_matches_pair_loop_oracle(self, mixed_bn, small_snlp):
        for name, target, X, ls in _assembly_cases(mixed_bn, small_snlp):
            ctx = local_context(X, target.layout, KernelSpec(ls))
            stack = operator_matrix(hessian_stack_from_context(ctx, target))
            oracle = pair_loop_hessian_stack(
                X, target, ctx.kmats[target.layout.kernel_index], ls)
            assert stack.shape == oracle.shape
            scale = np.abs(oracle).max()
            assert np.abs(stack - oracle).max() <= 1e-12 * scale, name
            np.testing.assert_array_equal(stack, stack.transpose(0, 2, 1))
            # the pattern values are the former dense stack's entries
            np.testing.assert_array_equal(stack, moment_hessian_stack(ctx, target))

    @pytest.mark.parametrize("chunk", [1, 7, 10**6])
    def test_pair_chunks_change_no_bit(self, mixed_bn, small_snlp,
                                       monkeypatch, chunk):
        """Pairs of one group taken a chunk at a time, from one pair to the
        whole group, give bitwise the assembly of the default budget.  The
        budget is patched to `chunk` pairs of 2 x 2 blocks: snlp50's 121
        pairs form a group of 50 diagonal and one of 71 off-diagonal
        pairs, more than one default chunk holds at n = 200."""
        cases = list(_assembly_cases(mixed_bn, small_snlp))
        n50 = cases[2][2].shape[0]
        sizes = [g.a.size for g in _snlp50().layout.pair_groups]
        assert sorted(sizes) == [50, 71]
        assert stein._pairs_per_chunk(200, 2, 2) < 50
        whole = {}
        for name, target, X, ls in cases:
            ctx = local_context(X, target.layout, KernelSpec(ls))
            whole[name] = operator_matrix(
                hessian_stack_from_context(ctx, target)).tobytes()
        monkeypatch.setattr(stein, "_CHUNK_BYTES",
                            chunk * stein._pair_bytes(n50, 2, 2))
        assert stein._pairs_per_chunk(n50, 2, 2) == chunk
        for name, target, X, ls in cases:
            ctx = local_context(X, target.layout, KernelSpec(ls))
            stack = operator_matrix(hessian_stack_from_context(ctx, target))
            assert stack.tobytes() == whole[name], name

    @pytest.mark.parametrize("name", BUNDLED)
    def test_pattern_values_against_moment_oracle(self, name):
        """The rows form against the former (P, n, C) assembly, kept as
        `moment_hessian_stack`, at the bundled layouts and particle counts.
        Both take every moment as one product per pair over the same
        particles; they differ only in its operand order,
        [H | x_a x_b^T | x_a | x_b | 1] @ W against W^T @ its transpose,
        and in a diagonal pair's rows (its upper triangle and x_a only).
        At n = 200 (bn30_paper and both SNLP configs) this BLAS sums each
        entry in the same order either way and the values are bitwise the
        oracle's; at bn10_desk's n = 100 the products take another order,
        and every value lies within `moment_rounding_bound(n)` eps times
        `moment_term_magnitudes` (worst seen 4.2 eps, 0.02 of the bound,
        over bn10_desk's first ten particle seeds at lengthscales 0.5, 1 and
        3).  Every matrix is exactly symmetric."""
        target, X = bundled(name)
        n = X.shape[0]
        pattern = target.layout.pattern
        eps = np.finfo(float).eps
        for ls in (0.5, 3.0):
            ctx = local_context(X, target.layout, KernelSpec(ls))
            hessians = hessian_stack_from_context(ctx, target)
            values = pattern.dense(hessians._matrix.data.reshape(n, -1))
            oracle = moment_hessian_stack(ctx, target)
            np.testing.assert_array_equal(values, values.transpose(0, 2, 1))
            np.testing.assert_array_equal(operator_matrix(hessians), values)
            bound = (moment_rounding_bound(n) * eps
                     * moment_term_magnitudes(ctx, target))
            assert np.all(np.abs(values - oracle) <= bound), ls
            if n == 200:
                assert values.tobytes() == oracle.tobytes(), ls

    def test_snlp_hessian_batch_matches_per_edge_loop(self, small_snlp,
                                                      noisy_snlp):
        rng = np.random.default_rng(22)
        for model in (small_snlp, noisy_snlp):
            base = model.problem.true_positions.reshape(-1)
            X = base + rng.normal(scale=0.5, size=(13, base.size))
            oracle = per_edge_snlp_hessian_batch(model, X)
            batch = model.layout.pattern.dense(model.hessian_batch(X))
            assert np.abs(batch - oracle).max() <= 1e-12 * np.abs(oracle).max()
            np.testing.assert_array_equal(batch, batch.transpose(0, 2, 1))

    def test_snlp_hessian_batch_bitwise_four_entry_form(self, small_snlp,
                                                        noisy_snlp):
        """Three distinct curvature entries per edge, each with the
        per-element operations of the former four, and the same edge order
        in every pattern row's sum: bitwise the former body, for one row,
        two and many.  The values come as the transpose of (nnz, n) rows."""
        rng = np.random.default_rng(23)
        for model in (small_snlp, noisy_snlp, _snlp50()):
            base = model.problem.true_positions.reshape(-1)
            X = base + rng.normal(scale=0.5, size=(200, base.size))
            for rows in (X[:1], X[:2], X):
                values = model.hessian_batch(rows)
                assert values.T.flags.c_contiguous
                assert values.tobytes() == \
                    four_entry_snlp_hessian_batch(model, rows).tobytes()


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
        its pattern entries are the model's values up to rounding: the
        batched net Hessian sums in another order (see `test_bayesnet`)."""
        rng = np.random.default_rng(25)
        nets = [
            BayesNetModel(generate_bayes_net(BayesNetConfig(
                layer_sizes=sizes, max_parents=3, gmm_nodes=gmm, seed=seed)))
            for sizes, gmm, seed in (((5, 5), 2, 7), ((10, 10, 10), 6, 0))
        ]
        for model in [mixed_bn, *nets]:
            X = rng.normal(size=(20, model.layout.total_dim))
            _, scale = bayesnet_term_magnitudes(model, X)
            bound = BAYESNET_ROUNDING_BOUND * np.finfo(float).eps * scale
            self._check_pattern(model, X, dense_bayesnet_hessian_batch(model, X),
                                bound=bound)
        for model in (small_snlp, noisy_snlp, _snlp50()):
            base = model.problem.true_positions.reshape(-1)
            X = base + rng.normal(size=(20, base.size))
            # the per-edge loop sums in another order: compare within 1e-12
            self._check_pattern(model, X, per_edge_snlp_hessian_batch(model, X),
                                rtol=1e-12)

    @staticmethod
    def _check_pattern(model, X, dense, rtol=0.0, bound=None):
        pattern = model.layout.pattern
        inside = np.zeros(pattern.dim**2, dtype=bool)
        inside[pattern.flat] = True
        flat = dense.reshape(X.shape[0], -1)
        assert np.all(flat[:, ~inside] == 0.0)
        assert np.all(np.any(flat[:, inside] != 0.0, axis=0))
        values = model.hessian_batch(X)
        assert values.shape == (X.shape[0], pattern.nnz)
        err = np.abs(values - flat[:, inside])
        assert np.all(err <= (rtol * np.abs(flat).max() if bound is None
                              else bound))


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
            ctx = (local_context(X, target.layout, kernel)
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
        assert target.layout.pattern.nnz == 768
        kernel = KernelSpec(3.0)
        local = hessian_stack_from_context(
            local_context(X, target.layout, kernel), target)
        glob = hessian_stack_from_context(
            global_context(X, target.layout, kernel), target)
        dense = 40 * 100 * 100 * 8
        assert local.nbytes < dense / 5
        assert glob.nbytes < dense / 3
