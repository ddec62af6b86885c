import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import fd_gradient, local_kernel_eval, rbf_eval
from trsvi.kernels import (
    DegenerateSampleError,
    KernelSpec,
    LocalKernelFamily,
    median_heuristic,
    rbf_matrix,
)
from trsvi.model import FactorLayout

# bounded so the kernel exponent stays above float underflow
finite_floats = st.floats(min_value=-5, max_value=5, allow_nan=False)


class TestRbf:
    def test_same_point(self):
        value, grad = rbf_eval(np.ones(3), np.ones(3), 2.0)
        assert value == 1.0
        np.testing.assert_array_equal(grad, np.zeros(3))

    def test_unit_distance_closed_form(self):
        value, _ = rbf_eval(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 1.0)
        assert value == pytest.approx(np.exp(-0.5), rel=1e-12)
        assert value == pytest.approx(0.606531, abs=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = rng.normal(size=(2, 4))
            ls = float(rng.uniform(0.5, 3.0))
            _, grad = rbf_eval(x, y, ls)
            fd = fd_gradient(lambda v: rbf_eval(v, y, ls)[0], x, h=1e-5)
            assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-6

    def test_rejections(self):
        with pytest.raises(ValueError):
            rbf_eval(np.zeros(2), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            rbf_eval(np.array([np.inf]), np.array([0.0]), 1.0)
        with pytest.raises(ValueError):
            rbf_eval(np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            KernelSpec(-1.0)

    @settings(max_examples=40, deadline=None)
    @given(arrays(float, 3, elements=finite_floats),
           arrays(float, 3, elements=finite_floats),
           st.floats(min_value=0.5, max_value=5))
    def test_symmetry_and_range(self, x, y, ls):
        vxy, _ = rbf_eval(x, y, ls)
        vyx, _ = rbf_eval(y, x, ls)
        assert vxy == vyx
        assert 0.0 < vxy <= 1.0


class TestLocalKernel:
    @pytest.fixture
    def family(self):
        layout = FactorLayout.from_factor_neighbors([1, 2, 1], [[1], [0], []])
        return LocalKernelFamily(KernelSpec(1.5), layout)

    def test_match_on_blanket_means_unit_value(self, family):
        rng = np.random.default_rng(1)
        x = rng.normal(size=4)
        y = x.copy()
        y[3] = 99.0   # outside blanket of factor 0 ({0,1,2})
        value, grad_c, grad_s = local_kernel_eval(family, 0, x, y)
        assert value == 1.0
        np.testing.assert_array_equal(grad_c, 0.0)
        np.testing.assert_array_equal(grad_s, 0.0)

    def test_single_factor_reduces_to_rbf(self):
        layout = FactorLayout.single_factor(3)
        family = LocalKernelFamily(KernelSpec(0.7), layout)
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(2, 3))
        value, grad_c, grad_s = local_kernel_eval(family, 0, x, y)
        ref_value, ref_grad = rbf_eval(x, y, 0.7)
        assert value == ref_value
        np.testing.assert_array_equal(grad_c, ref_grad)
        np.testing.assert_array_equal(grad_s, ref_grad)

    def test_invariant_to_out_of_blanket_coordinates(self, family):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(2, 4))
        before = local_kernel_eval(family, 0, x, y)
        x2 = x.copy()
        x2[3] += rng.normal()    # factor 2 is outside factor 0's blanket
        after = local_kernel_eval(family, 0, x2, y)
        assert before[0] == after[0]
        np.testing.assert_array_equal(before[1], after[1])
        np.testing.assert_array_equal(before[2], after[2])

    def test_gradient_slices_match_full_rbf(self, family):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(2, 4))
        layout = family.layout
        a = 1
        blanket = layout.blankets[a]
        value, grad_c, grad_s = local_kernel_eval(family, a, x, y)
        ref_value, ref_grad = rbf_eval(x[blanket], y[blanket], 1.5)
        assert value == ref_value
        np.testing.assert_array_equal(grad_s, ref_grad)
        pos = np.searchsorted(blanket, layout.factors[a])
        np.testing.assert_array_equal(grad_c, ref_grad[pos])


class TestMedianHeuristic:
    def test_two_points(self):
        assert median_heuristic(np.array([[0.0], [1.0]])) == 1.0

    def test_three_points_enumerated(self):
        # pairwise distances {1, 2, 3} -> median 2
        assert median_heuristic(np.array([[0.0], [1.0], [3.0]])) == 2.0

    def test_identical_rows_error(self):
        with pytest.raises(DegenerateSampleError):
            median_heuristic(np.ones((5, 2)))

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            median_heuristic(np.ones((1, 2)))

    def test_subsampling_kicks_in_and_is_seeded(self):
        rng = np.random.default_rng(0)
        big = rng.normal(size=(10_050, 2))
        a = median_heuristic(big, seed=1)
        b = median_heuristic(big, seed=1)
        c = median_heuristic(big, seed=2)
        assert a == b
        assert a != c    # different subsample
        assert a == pytest.approx(median_heuristic(big[:10_000]), rel=0.05)


class TestKernelMatrix:
    def test_psd_smoke(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        K = rbf_matrix(X, X, 1.0)
        assert np.linalg.eigvalsh(K).min() > -1e-10

    def test_matches_pointwise_eval(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(7, 3))
        Y = rng.normal(size=(5, 3))
        K = rbf_matrix(X, Y, 0.9)
        for i in range(7):
            for j in range(5):
                assert K[i, j] == pytest.approx(rbf_eval(X[i], Y[j], 0.9)[0],
                                                rel=1e-12, abs=1e-15)

    def test_dims_subset(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(6, 4))
        dims = np.array([1, 3])
        K = rbf_matrix(X, X, 1.1, dims=dims)
        ref = rbf_matrix(X[:, dims], X[:, dims], 1.1)
        np.testing.assert_array_equal(K, ref)
