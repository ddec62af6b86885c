import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

from oracles import (
    BAYESNET_ROUNDING_BOUND,
    bayesnet_term_magnitudes,
    eval_target,
    fd_gradient,
    fd_jacobian,
    linear_gaussian_moments,
    longdouble_bayesnet_hessian_batch,
    node_loop_bayesnet_gradient_batch,
    node_loop_bayesnet_hessian_batch,
    node_loop_bayesnet_log_density_batch,
    target_hessian_block,
)
from targets import bundled
from trsvi.model import (
    BayesNetConfig,
    BayesNetModel,
    BayesNetSpec,
    BayesNode,
    ancestral_sample,
    generate_bayes_net,
)
from trsvi.model.bayesnet import _logaddexp

PAPER_30DIM_CONFIG = BayesNetConfig(
    layer_sizes=(10, 10, 10), max_parents=3, gmm_nodes=6,
    mean_range=(0.0, 2.0), variance_range=(1e-3, 1.0), seed=42,
)


class TestGeneration:
    def test_paper_scale_config(self):
        spec = generate_bayes_net(PAPER_30DIM_CONFIG)
        assert spec.total_dim == 30
        assert len(spec.layers) == 3
        kinds = [n.kind for n in spec.nodes]
        assert kinds.count("root") == 10
        assert kinds.count("gmm") == 6
        for node in spec.nodes:
            if node.kind != "root":
                assert 1 <= len(node.parents) <= 3
            assert 1e-3 <= node.variance <= 1.0
            if node.kind == "gmm":
                w1, w2 = node.component_weights
                assert 0.4 <= w1 <= 0.6
                assert w1 + w2 == pytest.approx(1.0, abs=1e-15)

    def test_single_root_degenerate_net(self):
        spec = generate_bayes_net(BayesNetConfig(layer_sizes=(1,), seed=0))
        assert spec.total_dim == 1
        node = spec.nodes[0]
        assert node.kind == "root"
        model = BayesNetModel(spec)
        x = np.array([node.mean_offset])
        expected = -0.5 * np.log(2 * np.pi * node.variance)
        assert model.log_density(x) == pytest.approx(expected, rel=1e-12)

    def test_same_seed_identical_specs(self):
        a = generate_bayes_net(PAPER_30DIM_CONFIG)
        b = generate_bayes_net(PAPER_30DIM_CONFIG)
        assert a == b

    def test_different_seed_differs(self):
        other = BayesNetConfig(layer_sizes=(10, 10, 10), max_parents=3,
                               gmm_nodes=6, seed=43)
        assert generate_bayes_net(PAPER_30DIM_CONFIG) != generate_bayes_net(other)

    def test_rejections(self):
        with pytest.raises(ValueError):
            generate_bayes_net(BayesNetConfig(layer_sizes=(), seed=0))
        with pytest.raises(ValueError):
            generate_bayes_net(BayesNetConfig(layer_sizes=(2, 2), max_parents=0))
        with pytest.raises(ValueError):
            generate_bayes_net(
                BayesNetConfig(layer_sizes=(2, 2), gmm_nodes=3)
            )

    def test_variances_span_orders_of_magnitude(self):
        spec = generate_bayes_net(
            BayesNetConfig(layer_sizes=(20, 20), max_parents=3, gmm_nodes=0,
                           variance_range=(1e-3, 1.0), seed=1)
        )
        variances = np.array([n.variance for n in spec.nodes])
        # log-uniform draws should cover the range, not cluster near the top
        assert variances.min() < 1e-2
        assert variances.max() > 1e-1


class TestEvalTarget:
    def test_standard_normal_mode(self):
        node = BayesNode("root", (), ((),), (1.0,), 0.0, 1.0)
        model = BayesNetModel(BayesNetSpec(layers=((node,),)))
        logp, grad = eval_target(model, np.array([0.0]))
        assert logp == pytest.approx(-0.5 * np.log(2 * np.pi), rel=1e-12)
        assert grad == pytest.approx(0.0)

    def test_two_node_chain_hand_oracle(self):
        mu, s1, alpha, s2 = 0.3, 0.8, -1.2, 0.25
        root = BayesNode("root", (), ((),), (1.0,), mu, s1)
        child = BayesNode("linear", (0,), ((alpha,),), (1.0,), 0.0, s2)
        model = BayesNetModel(BayesNetSpec(layers=((root,), (child,))))
        x = np.array([0.7, -1.0])
        expected_logp = (
            -0.5 * np.log(2 * np.pi * s1) - 0.5 * (x[0] - mu) ** 2 / s1
            - 0.5 * np.log(2 * np.pi * s2) - 0.5 * (x[1] - alpha * x[0]) ** 2 / s2
        )
        # hand-differentiated: d/dx0 = -(x0-mu)/s1 + alpha (x1 - a x0)/s2
        expected_grad = np.array(
            [
                -(x[0] - mu) / s1 + alpha * (x[1] - alpha * x[0]) / s2,
                -(x[1] - alpha * x[0]) / s2,
            ]
        )
        logp, grad = eval_target(model, x)
        assert logp == pytest.approx(expected_logp, rel=1e-12)
        np.testing.assert_allclose(grad, expected_grad, rtol=1e-12)

    @pytest.mark.parametrize("fixture", ["mixed_bn", "linear_bn"])
    def test_gradient_matches_finite_differences(self, fixture, request):
        model = request.getfixturevalue(fixture)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(scale=1.5, size=model.layout.total_dim)
            grad = model.gradient(x)
            fd = fd_gradient(model.log_density, x)
            assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1.0) < 1e-5


class TestHessian:
    def test_block_outside_blanket_is_zero(self, mixed_bn):
        layout = mixed_bn.layout
        overlap = layout.overlap_matrix
        x = np.random.default_rng(0).normal(size=layout.total_dim)
        pairs = [(a, b) for a in range(layout.n_factors)
                 for b in range(layout.n_factors) if not overlap[a, b]]
        assert pairs, "fixture net should have at least one independent pair"
        for a, b in pairs:
            block = target_hessian_block(mixed_bn, a, b, x)
            assert np.all(block == 0.0)

    def test_transpose_symmetry(self, mixed_bn):
        layout = mixed_bn.layout
        x = np.random.default_rng(1).normal(size=layout.total_dim)
        for a in range(layout.n_factors):
            for b in range(layout.n_factors):
                ab = target_hessian_block(mixed_bn, a, b, x)
                ba = target_hessian_block(mixed_bn, b, a, x)
                np.testing.assert_array_equal(ab, ba.T)

    def test_linear_net_constant_hessian_vs_sampled_precision(self, linear_bn):
        rng = np.random.default_rng(2)
        d = linear_bn.layout.total_dim
        h1 = linear_bn.hessian(rng.normal(size=d))
        h2 = linear_bn.hessian(rng.normal(size=d))
        np.testing.assert_allclose(h1, h2, atol=1e-14)

        _, _, precision = linear_gaussian_moments(linear_bn.spec)
        np.testing.assert_allclose(h1, -precision, rtol=1e-10, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(h1) < 0)

        # brute force: precision from the covariance of a large ancestral draw
        samples = ancestral_sample(linear_bn.spec, 1_000_000, seed=9)
        sampled_precision = np.linalg.inv(np.cov(samples.T))
        rel = np.linalg.norm(sampled_precision + h1) / np.linalg.norm(h1)
        assert rel < 0.02

    @pytest.mark.parametrize("fixture", ["mixed_bn", "linear_bn"])
    def test_hessian_matches_finite_differences(self, fixture, request):
        model = request.getfixturevalue(fixture)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(scale=1.5, size=model.layout.total_dim)
            hess = model.hessian(x)
            fd = fd_jacobian(model.gradient, x)
            assert np.linalg.norm(hess - fd) / max(np.linalg.norm(fd), 1.0) < 1e-4


class TestAncestralSampling:
    def test_single_root_clt_bound(self):
        mu, var = 1.3, 0.49
        node = BayesNode("root", (), ((),), (1.0,), mu, var)
        spec = BayesNetSpec(layers=((node,),))
        draws = ancestral_sample(spec, 1_000_000, seed=13)
        assert abs(draws.mean() - mu) < 4 * np.sqrt(var) / 1e3

    def test_chain_conditional_variance(self):
        root = BayesNode("root", (), ((),), (1.0,), 0.0, 1.0)
        child = BayesNode("linear", (0,), ((0.9,),), (1.0,), 0.0, 0.3)
        spec = BayesNetSpec(layers=((root,), (child,)))
        draws = ancestral_sample(spec, 400_000, seed=3)
        resid = draws[:, 1] - 0.9 * draws[:, 0]
        assert resid.var() == pytest.approx(0.3, rel=0.02)

    def test_deterministic_given_seed(self, mixed_bn):
        a = ancestral_sample(mixed_bn.spec, 500, seed=21)
        b = ancestralsample = ancestral_sample(mixed_bn.spec, 500, seed=21)
        np.testing.assert_array_equal(a, b)

    def test_linear_net_moments_within_5_se(self, linear_bn):
        mean, cov, _ = linear_gaussian_moments(linear_bn.spec)
        n = 1_000_000
        samples = ancestral_sample(linear_bn.spec, n, seed=17)
        emp_mean = samples.mean(axis=0)
        emp_cov = np.cov(samples.T)
        se_mean = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(emp_mean - mean) < 5 * se_mean)
        d = cov.shape[0]
        se_cov = np.sqrt(
            (np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n
        )
        assert np.all(np.abs(emp_cov - cov) < 5 * se_cov + 1e-12)

    def test_rejects_bad_count(self, mixed_bn):
        with pytest.raises(ValueError):
            ancestral_sample(mixed_bn.spec, 0, seed=0)

    def test_gmm_marginal_is_bimodal_mixture(self):
        # root feeding a GMM child with well-separated component means
        root = BayesNode("root", (), ((),), (1.0,), 4.0, 0.01)
        child = BayesNode("gmm", (0,), ((1.0,), (-1.0,)), (0.5, 0.5), 0.0, 0.01)
        spec = BayesNetSpec(layers=((root,), (child,)))
        draws = ancestral_sample(spec, 200_000, seed=5)
        share_high = (draws[:, 1] > 0).mean()
        assert 0.47 < share_high < 0.53


def test_two_term_logaddexp_is_bitwise_scipy_logsumexp():
    """The mixture nodes' log(exp(c0) + exp(c1)) against
    `scipy.special.logsumexp` of the stacked pair: ties, gaps from zero to
    far past exp's underflow, either order, and both signs."""
    rng = np.random.default_rng(0)
    hi = rng.normal(scale=50.0, size=4000)
    gaps = np.concatenate([
        np.zeros(500),                                 # ties
        rng.uniform(0.0, 1e-12, 500),                  # near-ties
        rng.uniform(0.0, 40.0, 1000),
        rng.uniform(700.0, 760.0, 1000),               # exp subnormal or 0
        rng.uniform(1e3, 1e300, 1000),                 # exp underflows to 0
    ])
    lo = hi - gaps
    for c0, c1 in [(hi, lo), (lo, hi), (-lo, -hi)]:
        expected = logsumexp(np.stack([c0, c1]), axis=0)
        assert _logaddexp(c0, c1).tobytes() == expected.tobytes()


def node_batching_cases():
    for name in ("bn10_desk", "bn30_paper"):
        yield pytest.param(lambda name=name: bundled(name), id=name)
    yield pytest.param(lambda: (
        BayesNetModel(generate_bayes_net(PAPER_30DIM_CONFIG)),
        np.random.default_rng(0).normal(size=(100, 30))), id="paper 30-dim")


def moved(X, scale, seed=1):
    return X + scale * np.random.default_rng(seed).normal(size=X.shape)


@pytest.mark.parametrize("make", list(node_batching_cases()))
class TestNodeBatching:
    """The derivatives batched over nodes against the loop over nodes they
    replaced (`oracles.node_loop_bayesnet_*`), at the bundled particles and
    at particles moved by 1, 3 and 100 standard deviations."""

    def test_log_density_bitwise_node_loop(self, make):
        model, X = make()
        for Y in (X, moved(X, 1.0), moved(X, 100.0)):
            np.testing.assert_array_equal(
                model.log_density_batch(Y),
                node_loop_bayesnet_log_density_batch(model, Y))

    def test_derivatives_within_rounding_bound_of_node_loop(self, make):
        """|batched - loop| <= BAYESNET_ROUNDING_BOUND eps M per entry, M
        the sum of the magnitudes of the terms the entry adds up."""
        model, X = make()
        eps = np.finfo(float).eps
        for scale in (0.0, 1.0, 3.0, 100.0):
            Y = moved(X, scale)
            grad_scale, hess_scale = bayesnet_term_magnitudes(model, Y)
            for batch, loop, magnitude in (
                    (model.gradient_batch, node_loop_bayesnet_gradient_batch,
                     grad_scale),
                    (model.hessian_batch, node_loop_bayesnet_hessian_batch,
                     hess_scale)):
                err = np.abs(batch(Y) - loop(model, Y))
                assert np.all(err <= BAYESNET_ROUNDING_BOUND * eps * magnitude)

    def test_mixture_hessian_no_less_accurate_than_node_loop(self, make):
        """Against long-double Hessians from each form's own float64 mixture
        residuals, the r_0 r_1 (g_0 - g_1)(g_0 - g_1)^T form errs no more
        than the loop's cancelling sum_l r_l g_l g_l^T - gbar gbar^T."""
        model, X = make()
        flat = model.layout.pattern.flat
        for scale in (0.0, 1.0, 3.0):
            Y = moved(X, scale)
            errors = [
                np.abs(values - longdouble_bayesnet_hessian_batch(
                    model, Y, gemv=gemv).reshape(len(Y), -1)[:, flat]).max()
                for values, gemv in (
                    (model.hessian_batch(Y), False),
                    (node_loop_bayesnet_hessian_batch(model, Y), True))]
            assert errors[0] <= errors[1]

    def test_hessian_exactly_symmetric(self, make):
        model, X = make()
        pattern = model.layout.pattern
        twin = pattern.upper[pattern.from_upper]
        for Y in (X, moved(X, 3.0)):
            values = model.hessian_batch(Y)
            np.testing.assert_array_equal(values, values[:, twin])


def test_saturated_mixture_responsibilities_stay_finite_without_warnings():
    """A mixture component whose logit trails the other's by far more than
    710 (exp's overflow point) gets responsibility exactly 0: the node's
    derivatives are those of the other component alone, finite, and no
    RuntimeWarning is raised.  The same holds for bn30_paper's particles
    moved 100 standard deviations out."""
    s2 = 0.01
    root = BayesNode("root", (), ((),), (1.0,), 0.0, 1.0)
    child = BayesNode("gmm", (0,), ((1.0,), (-1.0,)), (0.5, 0.5), 0.0, s2)
    model = BayesNetModel(BayesNetSpec(layers=((root,), (child,))))
    # component 0 fits exactly; component 1's residual is 2 x0
    X = np.array([[10.0, 10.0], [-30.0, -30.0], [3.0, 3.0]])
    assert np.all(0.5 * (2.0 * X[:, 0]) ** 2 / s2 > 710.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grad = model.gradient_batch(X)
        hess = model.layout.pattern.dense(model.hessian_batch(X))
        logp = model.log_density_batch(X)
        bn30, P = bundled("bn30_paper")
        far = moved(P, 100.0)
        far_values = [bn30.log_density_batch(far), bn30.gradient_batch(far),
                      bn30.hessian_batch(far)]
    for values in (grad, hess, logp, *far_values):
        assert np.isfinite(values).all()
    # log 0.5 + log N(0; 0, s2) + log N(x0; 0, 1), and component 0's
    # derivatives: the child's residual is zero
    expected_logp = (np.log(0.5) - 0.5 * np.log(2 * np.pi * s2)
                     - 0.5 * np.log(2 * np.pi) - 0.5 * X[:, 0] ** 2)
    np.testing.assert_allclose(logp, expected_logp, rtol=1e-13)
    np.testing.assert_array_equal(grad, np.column_stack([-X[:, 0],
                                                         np.zeros(3)]))
    curvature = -np.array([[1.0 + 1.0 / s2, -1.0 / s2], [-1.0 / s2, 1.0 / s2]])
    np.testing.assert_allclose(hess, np.broadcast_to(curvature, hess.shape),
                               rtol=1e-15)
