import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist

from oracles import (fd_gradient, kernel_error_bound, local_kernel_eval,
                     pdist_median_heuristic, rbf_eval, rbf_matrix_longdouble,
                     rbf_matrix_oracle, rbf_matrix_unguarded)
from trsvi import kernels
from trsvi.config import validate_config
from trsvi.experiment import (build_problem, ground_truth_sample,
                              initialize_particles, make_model)
from trsvi.kernels import (
    MEDIAN_SUBSAMPLE,
    DegenerateSampleError,
    KernelSpec,
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
    KERNEL = KernelSpec(1.5)

    @pytest.fixture
    def layout(self):
        return FactorLayout.from_factor_neighbors([1, 2, 1], [[1], [0], []])

    def test_match_on_blanket_means_unit_value(self, layout):
        rng = np.random.default_rng(1)
        x = rng.normal(size=4)
        y = x.copy()
        y[3] = 99.0   # outside blanket of factor 0 ({0,1,2})
        value, grad_c, grad_s = local_kernel_eval(layout, self.KERNEL, 0, x, y)
        assert value == 1.0
        np.testing.assert_array_equal(grad_c, 0.0)
        np.testing.assert_array_equal(grad_s, 0.0)

    def test_single_factor_reduces_to_rbf(self):
        layout = FactorLayout.single_factor(3)
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=(2, 3))
        value, grad_c, grad_s = local_kernel_eval(layout, KernelSpec(0.7), 0,
                                                  x, y)
        ref_value, ref_grad = rbf_eval(x, y, 0.7)
        assert value == ref_value
        np.testing.assert_array_equal(grad_c, ref_grad)
        np.testing.assert_array_equal(grad_s, ref_grad)

    def test_invariant_to_out_of_blanket_coordinates(self, layout):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=(2, 4))
        before = local_kernel_eval(layout, self.KERNEL, 0, x, y)
        x2 = x.copy()
        x2[3] += rng.normal()    # factor 2 is outside factor 0's blanket
        after = local_kernel_eval(layout, self.KERNEL, 0, x2, y)
        assert before[0] == after[0]
        np.testing.assert_array_equal(before[1], after[1])
        np.testing.assert_array_equal(before[2], after[2])

    def test_gradient_slices_match_full_rbf(self, layout):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(2, 4))
        a = 1
        blanket = layout.blankets[a]
        value, grad_c, grad_s = local_kernel_eval(layout, self.KERNEL, a, x, y)
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


def _same_as_oracle(X, seed=0):
    """median_heuristic equals the pdist + np.median oracle bitwise, or both
    reject the sample as degenerate."""
    try:
        expected = pdist_median_heuristic(X, seed=seed)
    except DegenerateSampleError:
        with pytest.raises(DegenerateSampleError):
            median_heuristic(X, seed=seed)
        return
    assert median_heuristic(X, seed=seed) == expected


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=2 * MEDIAN_SUBSAMPLE),
       d=st.integers(min_value=1, max_value=12),
       log_scale=st.integers(min_value=-6, max_value=6),
       rounded=st.booleans(),
       duplicated=st.booleans(),
       offset=st.sampled_from([0.0, 1e6, -1e6]),
       flat=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(n=MEDIAN_SUBSAMPLE, d=3, log_scale=0, rounded=False,
         duplicated=False, offset=0.0, flat=False, seed=1)
@example(n=MEDIAN_SUBSAMPLE + 1, d=3, log_scale=0, rounded=False,
         duplicated=False, offset=0.0, flat=False, seed=1)
@example(n=3, d=2, log_scale=0, rounded=False, duplicated=False,
         offset=0.0, flat=False, seed=2)     # odd pair count
@example(n=700, d=2, log_scale=0, rounded=True, duplicated=False,
         offset=0.0, flat=False, seed=2)     # ties at the middle
@example(n=2 * MEDIAN_SUBSAMPLE, d=4, log_scale=0, rounded=False,
         duplicated=True, offset=0.0, flat=False, seed=3)
@example(n=1200, d=5, log_scale=0, rounded=False, duplicated=False,
         offset=1e6, flat=False, seed=4)     # a large common offset
@example(n=1500, d=1, log_scale=6, rounded=True, duplicated=False,
         offset=-1e6, flat=True, seed=5)     # 1-D input
# even pair counts: the lower middle distance repeats below a larger upper
# one (400 rows), and the two middle distances are equal (401 rows)
@example(n=400, d=2, log_scale=0, rounded=False, duplicated=True,
         offset=0.0, flat=False, seed=0)
@example(n=401, d=2, log_scale=0, rounded=False, duplicated=True,
         offset=0.0, flat=False, seed=1)
def test_median_heuristic_is_bitwise_pdist_median(n, d, log_scale, rounded,
                                                   duplicated, offset, flat,
                                                   seed):
    """Up to MEDIAN_SUBSAMPLE rows the sample itself, past it the seeded
    subsample: with ties, duplicate rows (every odd row repeats the row
    before it), a large common offset and 1-D input."""
    X = np.random.default_rng(seed).normal(size=(n, d))
    if rounded:
        X = np.round(X)   # tied and zero distances
    if duplicated:
        X[1::2] = X[0:n - 1:2]
    X = X * 10.0 ** log_scale + offset
    _same_as_oracle(X[:, 0] if flat else X)


class TestMedianHeuristicExact:
    def test_bn10_desk_ground_truth(self):
        """The 6000-row ground truth the desk benchmark evaluates with."""
        root = Path(__file__).resolve().parents[1]
        cfg = yaml.safe_load((root / "configs" / "bn10_desk.yaml").read_text())
        X = ground_truth_sample(build_problem(cfg["problem"]),
                                {"samples": 6000, "seed": 1000})
        _same_as_oracle(X)

    def test_snlp50_large_ground_truth(self):
        """The d = 100 benchmark's 2000-row Metropolis ground truth, whose
        rejected proposals repeat rows: 1516 of them are distinct."""
        root = Path(__file__).resolve().parents[1]
        cfg = validate_config(yaml.safe_load(
            (root / "configs" / "snlp_large.yaml").read_text()))
        X = ground_truth_sample(build_problem(cfg["problem"]),
                                {"samples": 2000, "seed": 1000,
                                 "proposal_scale": 0.01, "burn_in": 1000,
                                 "thinning": 2})
        assert X.shape == (2000, 100)
        assert np.unique(X, axis=0).shape[0] == 1516
        _same_as_oracle(X)

    def test_above_subsample_cap(self):
        X = np.random.default_rng(8).normal(size=(MEDIAN_SUBSAMPLE + 50, 3))
        _same_as_oracle(X, seed=5)

    # bracket edges: offsets from the lower (lo) and upper (hi) middle rank
    # of the sorted exact distances, a fixed float, or None (open side)
    @pytest.mark.parametrize("n", [40, 600, 602])
    @pytest.mark.parametrize("edges, missed", [
        ((-3, 3), None),
        ((0, 0), None),        # edges on the middle values themselves
        ((-3, None), None),
        ((None, 3), None),
        ((1, None), "lo"),     # the lower middle value lies below lo
        ((None, -1), "hi"),    # the upper middle value lies above hi
        ((np.inf, None), "lo"),
        ((None, -np.inf), "hi"),
    ])
    def test_bracket_edges_on_pair_distances(self, n, edges, missed):
        """Partitioning at the middle ranks picks the order statistics of a
        full sort, for even (40 and 600 rows) and odd (602 rows) pair
        counts: the value is the mean of the two middle sorted distances,
        it lies in a bracket of sorted distances exactly when the bracket
        holds both middle ranks, and past the edge that misses one."""
        X = np.random.default_rng(9).normal(size=(n, 4))
        exact = np.sort(pdist(X))
        pairs = exact.size
        middle = (pairs // 2 - 1 + pairs % 2, pairs // 2)

        def edge(k, offset, open_value):
            if offset is None:
                return open_value
            if isinstance(offset, float):
                return offset
            return exact[middle[k] + offset]

        lo, hi = edge(0, edges[0], -np.inf), edge(1, edges[1], np.inf)
        value = median_heuristic(X)
        assert value == (exact[middle[0]] + exact[middle[1]]) / 2
        assert (lo <= value <= hi) == (missed is None)
        if missed == "lo":
            assert value < lo
        elif missed == "hi":
            assert value > hi

    def test_peak_memory_within_two_pdist_vectors(self):
        """The 1000-row subsample's pdist vector is 4 MB (499,500 pairs);
        the peak stays within twice that, whatever the sample size."""
        vector = MEDIAN_SUBSAMPLE * (MEDIAN_SUBSAMPLE - 1) // 2 * 8
        for n, d in [(6000, 10), (2000, 100), (100_000, 2)]:
            X = np.random.default_rng(10).normal(size=(n, d))
            tracemalloc.start()
            try:
                median_heuristic(X)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * vector, (n, d, peak)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_are_named(self, bad):
        X = np.random.default_rng(11).normal(size=(30, 2))
        X[17, 1] = bad
        with pytest.raises(ValueError, match="finite.*row 17") as err:
            median_heuristic(X)
        assert not isinstance(err.value, DegenerateSampleError)
        with pytest.raises(ValueError, match="row 17"):
            median_heuristic(X[:, 1])


class PdistCounter:
    """Wraps kernels.pdist, recording the rows of each call."""

    def __init__(self, monkeypatch):
        self.rows = []
        self._real = kernels.pdist
        monkeypatch.setattr(kernels, "pdist", self)

    def __call__(self, X):
        self.rows.append(X.shape[0])
        return self._real(X)


class TestTileScan:
    """Samples that are hard for any scan of the pair distances in tiles
    from one approximate product each: heavy tails, a far outlier, a large
    common offset, ties shared by the whole sample, and norms near
    overflow.  The median comes from one exact `pdist` of at most
    MEDIAN_SUBSAMPLE rows, so each is bitwise the oracle; the one product
    per kernel block left in the package, `rbf_matrix`'s, is held to its
    stated bound on the same kind of rows."""

    @pytest.mark.parametrize("offset, scale", [
        (0.0, 1.0), (1e6, 1.0), (-1e6, 1e-3), (0.0, 1e-9), (3.0, 1e9)])
    @pytest.mark.parametrize("d", [1, 7, 100])
    def test_products_within_stated_bound(self, offset, scale, d):
        """Cauchy rows at a common offset and scale, lengthscale the
        median heuristic: every entry of `rbf_matrix` is within the stated
        bound of the long-double reference."""
        rng = np.random.default_rng(d)
        X = offset + scale * rng.standard_cauchy(size=(400, d))
        ls = median_heuristic(X)
        K = rbf_matrix(X, X, ls)
        ref = rbf_matrix_longdouble(X, X, ls)
        assert np.all(np.abs(K - ref) <= kernel_error_bound(X, X, ls))
        assert np.all((K >= 0.0) & (K <= 1.0))

    @pytest.mark.parametrize("seed", range(4))
    def test_cauchy_rows(self, monkeypatch, seed):
        """Heavy tails put a few distances far above the middle ones; the
        subsample takes one pdist call of MEDIAN_SUBSAMPLE rows."""
        X = np.random.default_rng(seed).standard_cauchy(size=(3000, 10))
        expected = pdist_median_heuristic(X)
        calls = PdistCounter(monkeypatch)
        assert median_heuristic(X) == expected
        assert calls.rows == [MEDIAN_SUBSAMPLE]

    def test_far_outlier_takes_the_exact_pass(self):
        """One row at 1e7, far beyond every other distance."""
        X = np.random.default_rng(15).normal(size=(900, 3))
        X[450] = 1e7
        _same_as_oracle(X)

    @pytest.mark.parametrize("offset", [1e6, -1e6])
    def test_common_offset(self, offset):
        X = np.random.default_rng(16).normal(size=(1200, 5)) + offset
        _same_as_oracle(X)

    @pytest.mark.parametrize("d", [1, 3])
    def test_ties_across_tiles(self, d):
        """Rows on a 0/1 grid: the middle distance is shared by pairs all
        over the sample, and the value is the square root of an integer or
        the mean of two such roots."""
        X = np.random.default_rng(17).integers(0, 2, size=(700, d)) * 1.0
        _same_as_oracle(X)
        roots = np.sqrt(np.arange(d + 1))
        means = (roots[:, None] + roots[None, :]) / 2
        assert median_heuristic(X) in means

    @pytest.mark.parametrize("n", [363, 10_050])
    def test_first_sampled_sizes(self, n):
        """A sample below the cap, taken whole, and one reduced to
        MEDIAN_SUBSAMPLE rows first."""
        X = np.random.default_rng(18).normal(size=(n, 4))
        _same_as_oracle(X, seed=3)

    def test_norms_out_of_range_take_the_exact_pass(self):
        """Squared norms near 2^930, where a product of augmented rows
        could overflow; pdist's differences do not."""
        X = np.random.default_rng(20).normal(size=(600, 2)) * 1e140
        _same_as_oracle(X)


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


class TestUnderflowGuard:
    """Exponents below -746 go to exp as -inf once the two sets are far
    enough apart; the kernel stays bitwise that of the unguarded form."""

    @staticmethod
    def strips():
        rng = np.random.default_rng(11)
        X = rng.normal(size=(64, 5))
        far = X[::-1] + 40.0                       # every exponent < -746
        # one axis spreads Y from X's cloud to far past it, so its entries
        # are normal, subnormal (exponents -708 to -745) and zero
        mixed = rng.normal(size=(300, 5))
        mixed[:, 0] = np.linspace(-5.0, 60.0, 300)
        return X, {"far": far, "mixed": mixed}

    @pytest.mark.parametrize("case", ["far", "mixed"])
    @pytest.mark.parametrize("subset", [False, True])
    def test_bitwise_unguarded(self, case, subset):
        X, strips = self.strips()
        Y = strips[case]
        dims = np.array([0, 2, 3]) if subset else None
        ref = rbf_matrix_unguarded(X, Y, 1.0, dims=dims)
        out = np.empty((X.shape[0], Y.shape[0]))
        K = rbf_matrix(X, Y, 1.0, dims=dims, out=out)
        assert K is out
        np.testing.assert_array_equal(K, ref)
        if case == "far":
            assert not ref.any()
        else:
            tiny = np.finfo(float).tiny
            assert (ref >= tiny).any() and (ref == 0.0).any()
            assert ((ref > 0.0) & (ref < tiny)).any()


@st.composite
def point_sets(draw):
    """Two point sets of one dimension, sometimes one and the same array."""
    d = draw(st.integers(1, 6))
    elements = st.floats(min_value=-50, max_value=50, allow_nan=False)
    X = draw(arrays(float, (draw(st.integers(1, 12)), d), elements=elements))
    if draw(st.booleans()):
        return X, X
    return X, draw(arrays(float, (draw(st.integers(1, 12)), d),
                          elements=elements))


EPS = np.finfo(float).eps


def kernel_error(K, X, Y, lengthscale, dims=None):
    ref = rbf_matrix_longdouble(X, Y, lengthscale, dims=dims)
    return np.abs(K.astype(np.longdouble) - ref).astype(float)


class TestInPlaceKernels:
    """`rbf_matrix` forms its exponent as one centred, augmented product,
    which rounds differently from the former expression
    (`rbf_matrix_oracle`): both are held to the stated bound against a
    long-double reference."""

    @settings(max_examples=200, deadline=None)
    @given(point_sets(), st.floats(min_value=0.05, max_value=20.0),
           st.booleans(),
           st.sampled_from([0.0, 1e3, -1e6]))
    @example(sets=(np.array([[1.0, 2.0], [1.0, 2.0], [3.0, -4.0]]),) * 2,
             lengthscale=0.7, subset=False, offset=0.0)   # coincident rows
    @example(sets=(np.array([[0.0], [500.0]]), np.array([[0.0], [-500.0]])),
             lengthscale=1.0, subset=False, offset=1e3)   # exact zeros
    @example(sets=(np.array([[0.3, -1.2], [1.7, 0.4], [-0.8, 2.1]]),) * 2,
             lengthscale=1.0, subset=False, offset=-1e6)  # common offset
    @example(sets=(np.full((3, 4), 49.0),) * 2, lengthscale=0.05,
             subset=True, offset=-1e6)
    def test_within_bound_of_long_double_and_oracle(self, sets, lengthscale,
                                                    subset, offset):
        X, Y = sets
        same = X is Y
        X = X + offset
        Y = X if same else Y + offset
        dims = np.arange(0, X.shape[1], 2) if subset else None
        K = rbf_matrix(X, Y, lengthscale, dims=dims)
        bound = kernel_error_bound(X, Y, lengthscale, dims)
        ref = rbf_matrix_longdouble(X, Y, lengthscale, dims=dims)
        assert np.all(np.abs(K - ref) <= bound)
        assert np.all((K >= 0.0) & (K <= 1.0))
        # far below exp's underflow the kernel is exactly 0
        assert np.all(K[ref < np.exp(np.longdouble(-800.0))] == 0.0)
        oracle = rbf_matrix_oracle(X, Y, lengthscale, dims=dims)
        slack = bound + kernel_error_bound(X, Y, lengthscale, dims,
                                           centred=False)
        assert np.all(np.abs(K - oracle) <= slack)

    @pytest.mark.parametrize("config", ["bn10_desk", "bn30_paper",
                                        "snlp_small", "snlp_large"])
    def test_every_blanket_kernel_of_a_bundled_config(self, config):
        """Each local kernel of a run's first iteration is within the stated
        bound of the long-double reference, and its worst error is at most
        the former expression's worst error plus one ulp of 1."""
        cfg = yaml.safe_load(
            (Path(__file__).parents[1] / "configs" / f"{config}.yaml").read_text())
        cfg = validate_config(cfg)
        problem = build_problem(cfg["problem"])
        layout = make_model(problem).layout
        X = initialize_particles(problem, cfg["run"], 0).positions
        ls = cfg["kernel"]["lengthscale"]
        for dims in layout.blankets:
            err = kernel_error(rbf_matrix(X, X, ls, dims=dims), X, X, ls, dims)
            assert np.all(err <= kernel_error_bound(X, X, ls, dims))
            old = kernel_error(rbf_matrix_oracle(X, X, ls, dims=dims),
                               X, X, ls, dims)
            assert err.max() <= old.max() + EPS
