import numpy as np
import pytest

from oracles import eval_target, fd_gradient, fd_jacobian, markov_blanket
from trsvi.model import (
    SingularityError,
    SnlpConfig,
    SnlpModel,
    SnlpProblem,
    SnlpEdge,
    build_snlp,
)


class TestBuild:
    def test_paper_small_instance(self):
        p = build_snlp(SnlpConfig(unknowns=6, anchors=4, side=6.0, radius=3.0,
                                  noise_variance=0.01, noiseless=True, seed=7))
        assert p.true_positions.shape == (6, 2)
        assert p.anchor_positions.shape == (4, 2)
        assert np.all(p.true_positions >= 0) and np.all(p.true_positions <= 6)
        for e in p.edges:
            true_dist = np.linalg.norm(p.position_of(e.i) - p.position_of(e.j))
            assert true_dist < 3.0
            assert e.measured == pytest.approx(true_dist)   # noiseless

    def test_paper_large_instance(self):
        p = build_snlp(SnlpConfig(unknowns=50, anchors=12, side=20.0,
                                  radius=3.0, noise_variance=0.01, seed=0))
        assert p.true_positions.shape == (50, 2)
        assert p.anchor_positions.shape == (12, 2)
        assert all(e.measured >= 0 for e in p.edges)

    def test_out_of_range_pair_gets_no_edge(self):
        # shrink the square until two specific sensors are far apart
        p = build_snlp(SnlpConfig(unknowns=2, anchors=0, side=10.0, radius=3.0,
                                  noise_variance=0.01, noiseless=True, seed=4))
        d = np.linalg.norm(p.true_positions[0] - p.true_positions[1])
        edge_present = any({e.i, e.j} == {0, 1} for e in p.edges)
        assert edge_present == (d < 3.0)

    def test_noise_is_applied_and_deterministic(self):
        cfg = SnlpConfig(unknowns=6, anchors=4, side=6.0, radius=3.0,
                         noise_variance=0.01, noiseless=False, seed=7)
        a, b = build_snlp(cfg), build_snlp(cfg)
        assert a.edges == b.edges
        clean = build_snlp(SnlpConfig(unknowns=6, anchors=4, side=6.0,
                                      radius=3.0, noise_variance=0.01,
                                      noiseless=True, seed=7))
        noisy = np.array([e.measured for e in a.edges])
        exact = np.array([e.measured for e in clean.edges])
        assert noisy.shape == exact.shape
        assert not np.allclose(noisy, exact)

    def test_disconnected_unknown_warns_not_errors(self):
        p = build_snlp(SnlpConfig(unknowns=8, anchors=0, side=100.0,
                                  radius=1.0, noise_variance=0.01,
                                  noiseless=True, seed=0))
        assert p.warnings   # isolated sensors on a huge square
        assert any("no measurements" in w for w in p.warnings)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            build_snlp(SnlpConfig(unknowns=2, anchors=0, side=1.0, radius=0.0,
                                  noise_variance=0.01))
        with pytest.raises(ValueError):
            build_snlp(SnlpConfig(unknowns=2, anchors=0, side=1.0, radius=1.0,
                                  noise_variance=0.0))


class TestLayout:
    def test_blanket_is_measurement_graph_adjacency(self, small_snlp):
        problem = small_snlp.problem
        s = problem.n_unknowns
        for a in range(s):
            neighbors = {a}
            for e in problem.edges:
                if e.i < s and e.j < s:
                    if e.i == a:
                        neighbors.add(e.j)
                    if e.j == a:
                        neighbors.add(e.i)
            dims = sorted(d for k in neighbors for d in (2 * k, 2 * k + 1))
            assert np.array_equal(markov_blanket(small_snlp, a), np.array(dims))

    def test_factors_are_2d_per_sensor(self, small_snlp):
        layout = small_snlp.layout
        assert layout.n_factors == small_snlp.problem.n_unknowns
        for a, dims in enumerate(layout.factors):
            assert np.array_equal(dims, np.array([2 * a, 2 * a + 1]))


class TestDensity:
    def test_truth_is_stationary_for_noiseless(self, small_snlp):
        x = small_snlp.problem.true_positions.reshape(-1)
        _, grad = eval_target(small_snlp, x)
        assert np.linalg.norm(grad) < 1e-8

    @pytest.mark.parametrize("fixture", ["small_snlp", "noisy_snlp"])
    def test_gradient_matches_finite_differences(self, fixture, request):
        model = request.getfixturevalue(fixture)
        rng = np.random.default_rng(8)
        truth = model.problem.true_positions.reshape(-1)
        for _ in range(20):
            x = truth + rng.normal(scale=0.4, size=truth.size)
            grad = model.gradient(x)
            fd = fd_gradient(model.log_density, x)
            assert np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1.0) < 1e-5

    @pytest.mark.parametrize("fixture", ["small_snlp", "noisy_snlp"])
    def test_hessian_matches_finite_differences(self, fixture, request):
        model = request.getfixturevalue(fixture)
        rng = np.random.default_rng(9)
        truth = model.problem.true_positions.reshape(-1)
        for _ in range(20):
            x = truth + rng.normal(scale=0.4, size=truth.size)
            hess = model.hessian(x)
            fd = fd_jacobian(model.gradient, x)
            assert np.linalg.norm(hess - fd) / max(np.linalg.norm(fd), 1.0) < 1e-4

    def test_hessian_blocks_zero_outside_blanket(self, small_snlp):
        layout = small_snlp.layout
        overlap = layout.overlap_matrix()
        x = small_snlp.problem.true_positions.reshape(-1)
        hess = small_snlp.hessian(x)
        for a in range(layout.n_factors):
            for b in range(layout.n_factors):
                block = hess[np.ix_(layout.factors[a], layout.factors[b])]
                if not overlap[a, b]:
                    assert np.all(block == 0.0)

    def test_coincident_edge_positions_raise(self, small_snlp):
        problem = small_snlp.problem
        edge = next(e for e in problem.edges
                    if e.i < problem.n_unknowns and e.j < problem.n_unknowns)
        x = problem.true_positions.copy()
        x[edge.j] = x[edge.i]
        with pytest.raises(SingularityError):
            small_snlp.gradient(x.reshape(-1))

    def test_log_density_defined_at_coincidence(self, small_snlp):
        problem = small_snlp.problem
        edge = next(e for e in problem.edges
                    if e.i < problem.n_unknowns and e.j < problem.n_unknowns)
        x = problem.true_positions.copy()
        x[edge.j] = x[edge.i]
        assert np.isfinite(small_snlp.log_density(x.reshape(-1)))


def test_problem_invariant_validation():
    with pytest.raises(ValueError):
        SnlpProblem(
            true_positions=np.zeros((1, 2)), anchor_positions=np.zeros((0, 2)),
            edges=(SnlpEdge(0, 0, 1.0),), noise_variance=0.01, radius=1.0,
            side=1.0,
        )
    with pytest.raises(ValueError):
        SnlpProblem(
            true_positions=np.zeros((2, 2)), anchor_positions=np.zeros((0, 2)),
            edges=(SnlpEdge(0, 1, -0.5),), noise_variance=0.01, radius=1.0,
            side=1.0,
        )
