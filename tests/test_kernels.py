import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import pdist, squareform

from oracles import (fd_gradient, local_kernel_eval, pdist_median_heuristic,
                     rbf_eval, rbf_matrix_longdouble, rbf_matrix_oracle,
                     sample_pair_distances_oracle, squared_distances_oracle)
from trsvi import kernels
from trsvi.config import validate_config
from trsvi.experiment import (build_problem, ground_truth_sample,
                              initialize_particles, make_model)
from trsvi.kernels import (
    MEDIAN_SUBSAMPLE,
    DegenerateSampleError,
    KernelSpec,
    LocalKernelFamily,
    median_heuristic,
    rbf_matrix,
    squared_distances,
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


# the whole real line brackets up to 362 rows (65 341 pairs); blocks are
# 256 rows, so the explicit examples sit on both sides of each switch
@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=1500),
       d=st.integers(min_value=1, max_value=12),
       log_scale=st.integers(min_value=-6, max_value=6),
       rounded=st.booleans(),
       flat=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(n=362, d=3, log_scale=0, rounded=False, flat=False, seed=1)
@example(n=363, d=3, log_scale=0, rounded=False, flat=False, seed=1)
@example(n=256, d=2, log_scale=0, rounded=True, flat=False, seed=2)
@example(n=257, d=2, log_scale=0, rounded=True, flat=False, seed=2)
@example(n=1500, d=1, log_scale=6, rounded=True, flat=True, seed=3)
@example(n=1025, d=12, log_scale=-6, rounded=False, flat=False, seed=4)
def test_median_heuristic_is_bitwise_pdist_median(n, d, log_scale, rounded,
                                                   flat, seed):
    X = np.random.default_rng(seed).normal(size=(n, d))
    if rounded:
        X = np.round(X)   # tied and zero distances
    X *= 10.0 ** log_scale
    _same_as_oracle(X[:, 0] if flat else X)


class TestMedianHeuristicExact:
    def test_bn10_desk_ground_truth(self):
        """The 6000-row ground truth the desk benchmark evaluates with."""
        root = Path(__file__).resolve().parents[1]
        cfg = yaml.safe_load((root / "configs" / "bn10_desk.yaml").read_text())
        X = ground_truth_sample(build_problem(cfg["problem"]),
                                {"samples": 6000, "seed": 1000})
        _same_as_oracle(X)

    def test_above_subsample_cap(self):
        X = np.random.default_rng(8).normal(size=(MEDIAN_SUBSAMPLE + 50, 3))
        _same_as_oracle(X, seed=5)

    # first bracket edges: offsets from the lower (lo) and upper (hi) middle
    # rank of the sorted exact distances, a fixed float, or None (open side)
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
    def test_bracket_edges_on_pair_distances(self, monkeypatch, n, edges,
                                             missed):
        """Bracket edges that are themselves pair distances (ties at lo and
        hi) give the exact value; a bracket that misses a middle rank is
        widened on the missed side only and the pass repeated."""
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

        calls = []
        real = kernels._bracket

        def first_given(sample, sigmas_lo, sigmas_hi):
            calls.append((sigmas_lo, sigmas_hi))
            if len(calls) == 1:
                return edge(0, edges[0], -np.inf), edge(1, edges[1], np.inf)
            return real(sample, sigmas_lo, sigmas_hi)

        monkeypatch.setattr(kernels, "_bracket", first_given)
        _same_as_oracle(X)
        assert len(calls) == (1 if missed is None else 2)
        if missed is not None:
            (lo0, hi0), (lo1, hi1) = calls
            if missed == "lo":
                assert lo1 > lo0 and hi1 == hi0
            else:
                assert hi1 > hi0 and lo1 == lo0

    def test_peak_memory_is_a_few_row_blocks(self):
        # the full pdist vector alone is 144 MB for 6000 rows; for 2000 rows
        # of 100 columns (the snlp50 ground truth's shape) differencing all
        # 16,384 sampled pairs at once peaked at 26.5 MB, in chunks 5.3 MB
        for (n, d), bound in [((6000, 10), 48e6), ((2000, 100), 16e6)]:
            X = np.random.default_rng(10).normal(size=(n, d))
            tracemalloc.start()
            try:
                median_heuristic(X)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound, (n, d, peak)

    @pytest.mark.parametrize("n, d", [(400, 100), (3000, 2)])
    def test_sampled_pairs_are_bitwise_the_unchunked_draws(self, n, d):
        """The pair sample, differenced a chunk at a time, is bitwise the
        one from all pairs at once, and so is the median it brackets (both
        shapes have more than 65,536 pairs, so the sample is drawn)."""
        X = np.random.default_rng(13).normal(size=(n, d))
        chunked = kernels._sample_pair_distances(X, np.random.default_rng(14))
        whole = sample_pair_distances_oracle(X, np.random.default_rng(14))
        assert chunked.tobytes() == whole.tobytes()
        _same_as_oracle(X)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_are_named(self, bad):
        X = np.random.default_rng(11).normal(size=(30, 2))
        X[17, 1] = bad
        with pytest.raises(ValueError, match="finite.*row 17") as err:
            median_heuristic(X)
        assert not isinstance(err.value, DegenerateSampleError)
        with pytest.raises(ValueError, match="row 17"):
            median_heuristic(X[:, 1])


class CdistCounter:
    """Wraps kernels.cdist, recording the number of distances per call."""

    def __init__(self, monkeypatch):
        self.sizes = []
        self._real = kernels.cdist
        monkeypatch.setattr(kernels, "cdist", self)

    def __call__(self, A, B):
        self.sizes.append(A.shape[0] * B.shape[0])
        return self._real(A, B)


def _tile_area(n):
    """Distances one cdist per tile of the scan would compute: every pair
    once, plus the lower half and diagonal of each diagonal tile."""
    scan = kernels._TileScan.of(np.arange(n, dtype=float)[:, None])
    return sum((rows.stop - rows.start) * (cols.stop - cols.start)
               for rows, cols in scan.tiles)


class TestTileScan:
    """The sampled path (more than 362 rows): approximate squared distances
    from one product per tile, and the exact median through a window that
    scipy recomputes."""

    @pytest.mark.parametrize("offset, scale", [
        (0.0, 1.0), (1e6, 1.0), (-1e6, 1e-3), (0.0, 1e-9), (3.0, 1e9)])
    @pytest.mark.parametrize("d", [1, 7, 100])
    def test_products_within_stated_bound(self, offset, scale, d):
        """|q - s^2| <= delta for every pair: q the tile product, s scipy's
        distance of the uncentred rows (`_squared_distance_error`)."""
        rng = np.random.default_rng(d)
        X = offset + scale * rng.standard_cauchy(size=(400, d))
        scan = kernels._TileScan.of(X)
        s = squareform(pdist(X))
        worst = 0.0
        for rows, cols in scan.tiles:
            Q = scan._drop_lower(scan.left[rows] @ scan.right[:, cols], rows, cols)
            err = np.abs(Q - s[rows, cols] ** 2)
            worst = max(worst, np.nanmax(err))
        assert worst <= scan.delta, (worst, scan.delta)

    @pytest.mark.parametrize("seed", range(4))
    def test_cauchy_rows(self, monkeypatch, seed):
        """Heavy tails make delta large against the middle distances, so the
        window spans several tiles; each is recomputed at most once."""
        X = np.random.default_rng(seed).standard_cauchy(size=(3000, 10))
        cdists = CdistCounter(monkeypatch)
        _same_as_oracle(X)
        assert sum(cdists.sizes) <= _tile_area(3000)

    def test_far_outlier_takes_the_exact_pass(self, monkeypatch):
        """One row at 1e7 makes delta about 1e3, wider than the bracket: the
        scan would keep nearly every pair, so the exact block pass runs."""
        X = np.random.default_rng(15).normal(size=(900, 3))
        X[450] = 1e7
        passes = []
        real = kernels._count_and_keep
        monkeypatch.setattr(kernels, "_count_and_keep",
                            lambda *args: passes.append(args) or real(*args))
        _same_as_oracle(X)
        assert len(passes) == 1

    def test_window_past_the_bracket_widens_it(self, monkeypatch):
        """A lower edge 2 delta above the lower middle value keeps that
        pair's product (the edge is widened by 3 delta) but leaves the
        window of middle values past the bracket: the lower side is widened
        and the pass repeated."""
        real_delta = kernels._squared_distance_error
        monkeypatch.setattr(kernels, "_squared_distance_error",
                            lambda d, top: 1e6 * real_delta(d, top))
        X = np.random.default_rng(21).normal(size=(600, 4))
        delta = kernels._TileScan.of(X).delta
        exact = np.sort(pdist(X))
        middle = exact.size // 2 - 1
        calls = []
        real = kernels._bracket

        def first_given(sample, sigmas_lo, sigmas_hi):
            calls.append((sigmas_lo, sigmas_hi))
            if len(calls) == 1:
                return np.sqrt(exact[middle] ** 2 + 2 * delta), exact[middle + 4]
            return real(sample, sigmas_lo, sigmas_hi)

        monkeypatch.setattr(kernels, "_bracket", first_given)
        _same_as_oracle(X)
        (lo0, hi0), (lo1, hi1) = calls
        assert lo1 > lo0 and hi1 == hi0

    @pytest.mark.parametrize("offset", [1e6, -1e6])
    def test_common_offset(self, offset):
        X = np.random.default_rng(16).normal(size=(1200, 5)) + offset
        _same_as_oracle(X)

    @pytest.mark.parametrize("d", [1, 3])
    def test_ties_across_tiles(self, monkeypatch, d):
        """Rows on a 0/1 grid: the middle distance is shared by pairs in
        every tile, which all hold window pairs."""
        X = np.random.default_rng(17).integers(0, 2, size=(700, d)) * 1.0
        cdists = CdistCounter(monkeypatch)
        _same_as_oracle(X)
        assert len(cdists.sizes) > 1

    @pytest.mark.parametrize("n", [363, MEDIAN_SUBSAMPLE + 50])
    def test_first_sampled_sizes(self, n):
        """363 rows, the fewest the tile scan takes, and a sample reduced to
        MEDIAN_SUBSAMPLE rows first."""
        X = np.random.default_rng(18).normal(size=(n, 4))
        _same_as_oracle(X, seed=3)

    @pytest.mark.parametrize("factor", [1e9, 1e10])
    def test_wide_delta_gives_a_multi_tile_window(self, monkeypatch, factor):
        """A delta far above the stated bound widens the window over many
        tiles; the value stays exact."""
        real = kernels._squared_distance_error
        monkeypatch.setattr(kernels, "_squared_distance_error",
                            lambda d, top: factor * real(d, top))
        X = np.random.default_rng(19).normal(size=(1000, 3))
        cdists = CdistCounter(monkeypatch)
        _same_as_oracle(X)
        assert len(cdists.sizes) > 2

    def test_norms_out_of_range_take_the_exact_pass(self):
        """Centred squared norms beyond 2^900 could overflow the product:
        such rows get the exact block pass, with the sampled bracket."""
        X = np.random.default_rng(20).normal(size=(600, 2)) * 1e140
        assert kernels._TileScan.of(X) is None
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


def kernel_error_bound(X, Y, lengthscale, dims=None, centred=True):
    """The stated bound on |K - k| for `rbf_matrix`, entry by entry:
    (d + 5) eps (1 + (|x~|^2 + |y~|^2) / l^2), with x~ and y~ the rows less
    the column means of X over the kernel's d coordinates.

    The exponent is a sum of d + 2 products of rounded factors, so its error
    is at most about (d + 3) u (|x~|^2 + |y~|^2) / l^2 (u = eps / 2, and
    |x~ . y~| <= (|x~|^2 + |y~|^2) / 2); centring adds at most 2 u times the
    same; exp(E) <= 1 passes an exponent error on at most unchanged and
    rounds within a few u.  The uncentred expression of `rbf_matrix_oracle`
    meets the same bound with the raw rows in place of x~ and y~
    (centred=False), which is what a large common offset costs it."""
    if dims is not None:
        X, Y = X[:, dims], Y[:, dims]
    shift = X.mean(axis=0) if centred else 0.0
    xx = np.sum((X - shift) ** 2, axis=1)
    yy = np.sum((Y - shift) ** 2, axis=1)
    c = X.shape[1] + 5
    return c * EPS * (1.0 + (xx[:, None] + yy[None, :]) / lengthscale**2)


def kernel_error(K, X, Y, lengthscale, dims=None):
    ref = rbf_matrix_longdouble(X, Y, lengthscale, dims=dims)
    return np.abs(K.astype(np.longdouble) - ref).astype(float)


class TestInPlaceKernels:
    """`squared_distances` works in one output buffer with the operations
    and order of the former expression, kept in oracles.py, so every entry
    is bitwise the same.  `rbf_matrix` forms its exponent as one centred,
    augmented product, which rounds differently from the former expression
    (`rbf_matrix_oracle`): both are held to the stated bound against a
    long-double reference."""

    @settings(max_examples=200, deadline=None)
    @given(point_sets())
    def test_bitwise_equal_to_expression_oracle(self, sets):
        X, Y = sets
        assert squared_distances(X, Y).tobytes() == \
            squared_distances_oracle(X, Y).tobytes()

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
