import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (kernel_error_bound, longdouble_kernel_sum, naive_mmd,
                     serial_metropolis_reference, uncentred_kernel_sum,
                     uncentred_self_sum)
from targets import GaussianTarget, HeavyTailTarget, bundled
from trsvi import evaluation as ev
from trsvi.kernels import KernelSpec
from trsvi.model import BayesNetModel, BayesNetSpec, BayesNode
from trsvi.stein import ParticleSet, SteinGradientField, graphical_stein_gradient
from trsvi.model.layout import FactorLayout


def standard_normal_1d():
    node = BayesNode("root", (), ((),), (1.0,), 0.0, 1.0)
    return BayesNetModel(BayesNetSpec(layers=((node,),)))


class TestMmd:
    def test_identical_samples_zero(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 3))
        assert ev.mmd(X, X, KernelSpec(1.0)) == 0.0
        Y = rng.normal(size=(700, 3))
        assert ev.mmd(Y, Y.copy(), KernelSpec(1.0)) == 0.0

    def test_permuted_copy_zero_nonidentical_positive(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 2))
        perm = rng.permutation(40)
        assert abs(ev.mmd(X, X[perm], KernelSpec(0.8))) < 1e-12
        Y = X + 0.3
        assert ev.mmd(X, Y, KernelSpec(0.8)) > 1e-4

    def test_singletons_three_term_expansion(self):
        x = np.array([[0.0, 0.0]])
        y = np.array([[1.0, 1.0]])
        kernel = KernelSpec(1.3)
        k_xy = np.exp(-0.5 * 2.0 / 1.3**2)
        assert ev.mmd(x, y, kernel) == pytest.approx(2.0 - 2.0 * k_xy, rel=1e-12)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(33, 2))
        Y = rng.normal(size=(57, 2)) + 0.5
        kernel = KernelSpec(1.1)
        assert ev.mmd(X, Y, kernel) == ev.mmd(Y, X, kernel)

    def test_nonnegative_up_to_slack(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            X = rng.normal(size=(rng.integers(1, 30), 2))
            Y = rng.normal(size=(rng.integers(1, 30), 2))
            assert ev.mmd(X, Y, KernelSpec(1.0)) > -1e-12

    def test_monotone_in_mean_shift_vs_double_loop_oracle(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(10_000, 1))
        kernel = KernelSpec(1.0)
        values = []
        for delta in (0.0, 0.5, 1.0, 2.0):
            Y = rng.normal(size=(10_000, 1)) + delta
            value = ev.mmd(X, Y, kernel)
            assert value == pytest.approx(
                naive_mmd(X, Y, 1.0), rel=1e-9, abs=1e-12
            )
            values.append(value)
        assert values == sorted(values)
        assert values[0] < values[1] < values[2] < values[3]

    def test_column_mismatch(self):
        with pytest.raises(ValueError):
            ev.mmd(np.zeros((3, 2)), np.zeros((3, 3)), KernelSpec(1.0))

    def test_cached_reference_matches_plain_mmd_exactly(self):
        rng = np.random.default_rng(6)
        Y = rng.normal(size=(500, 3))
        kernel = KernelSpec(1.2)
        scorer = ev.MmdReference(Y, kernel)
        for _ in range(5):
            X = rng.normal(size=(rng.integers(2, 60), 3))
            assert scorer.value(X) == ev.mmd(X, Y, kernel)


# row counts around the strip edges
STRIP_ROWS = st.sampled_from([1, 2, 17, 255, 256, 257, 511, 512, 513, 700])
LENGTHSCALES = st.floats(0.2, 5.0)


@st.composite
def sample_pair(draw):
    """Two samples with one column count, drawn from seeds at a scale."""
    cols = draw(st.integers(1, 6))

    def sample():
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
        return scale * rng.normal(size=(draw(STRIP_ROWS), cols))

    return sample(), sample()


EPS = np.finfo(float).eps


def strips(X, Y, rows):
    """The (strip, against) pairs a kernel sum builds, each with its
    multiplicity: X's strips against Y, or for a self-sum (Y is None) each
    diagonal strip once and its strip against the later rows twice."""
    for start in range(0, X.shape[0], rows):
        block = X[start:start + rows]
        if Y is not None:
            yield block, Y, 1.0
            continue
        yield block, block, 1.0
        if start + rows < X.shape[0]:
            yield block, X[start + rows:], 2.0


def strip_sum_bound(X, Y, ell, total, centred=True,
                    rows=ev._MMD_STRIP_ROWS):
    """The stated bound on a strip sum's error: `rbf_matrix`'s per-entry
    bound (`kernel_error_bound`, each strip centred on its own rows' means;
    uncentred for the former form) summed over the pairs, plus the sum's
    rounding.  Within a strip each term passes through at most
    r + log2(r m) + 20 roundings (numpy's pairwise sum, or its row sums
    added in turn, for an (r, m) strip), and through one more per strip in
    the running total.  The former 2048-row block sum is the uncentred
    form over strips of 2048 rows."""
    entries = 0.0
    roundings = 0
    for block, against, times in strips(X, Y, rows):
        entries += times * kernel_error_bound(block, against, ell,
                                              centred=centred).sum()
        r, m = block.shape[0], against.shape[0]
        roundings = max(roundings, r + np.log2(r * m) + 20)
    roundings += X.shape[0] // rows + 2
    return entries + roundings * EPS * abs(total)


class TestMmdStrips:
    """The strip and upper-triangle sums from `rbf_matrix` against a
    long-double reference, the former uncentred strips and the 2048-row
    block sum."""

    @settings(max_examples=40, deadline=None)
    @given(pair=sample_pair(), ell=LENGTHSCALES)
    def test_sums_within_stated_bound_of_long_double(self, pair, ell):
        X, Y = pair
        exact = longdouble_kernel_sum(X, Y, ell)
        new = ev._kernel_sum(X, Y, ell)
        assert abs(new - exact) <= strip_sum_bound(X, Y, ell, new)
        exact = longdouble_kernel_sum(X, X, ell)
        new = ev._self_sum(X, ell)
        assert abs(new - exact) <= strip_sum_bound(X, None, ell, new)

    @pytest.mark.parametrize("offset", [10.0, 1000.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_offset_sums_no_less_accurate_than_uncentred(self, offset, seed):
        """A common offset costs the former uncentred form its accuracy;
        the centred strips keep theirs."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(300, 3)) + offset
        Y = rng.normal(size=(520, 3)) + offset + 0.5
        for new, old, exact in [
            (ev._kernel_sum(X, Y, 1.0), uncentred_kernel_sum(X, Y, 1.0),
             longdouble_kernel_sum(X, Y, 1.0)),
            (ev._self_sum(Y, 1.0), uncentred_self_sum(Y, 1.0),
             longdouble_kernel_sum(Y, Y, 1.0)),
        ]:
            assert abs(new - exact) <= abs(old - exact)

    @settings(max_examples=40, deadline=None)
    @given(pair=sample_pair(), ell=LENGTHSCALES)
    def test_self_sum_within_stated_bound_of_block_sum(self, pair, ell):
        X, _ = pair
        old = uncentred_kernel_sum(X, X, ell, strip_rows=2048)
        new = ev._self_sum(X, ell)
        bound = (strip_sum_bound(X, None, ell, new)
                 + strip_sum_bound(X, X, ell, old, centred=False, rows=2048))
        assert abs(new - old) <= bound

    @settings(max_examples=40, deadline=None)
    @given(pair=sample_pair(), ell=LENGTHSCALES)
    def test_cross_sum_within_stated_bound_of_block_sum(self, pair, ell):
        X, Y = pair
        old = uncentred_kernel_sum(X, Y, ell, strip_rows=2048)
        new = ev._kernel_sum(X, Y, ell)
        bound = (strip_sum_bound(X, Y, ell, new)
                 + strip_sum_bound(X, Y, ell, old, centred=False, rows=2048))
        assert abs(new - old) <= bound

    @settings(max_examples=40, deadline=None)
    @given(pair=sample_pair(), ell=LENGTHSCALES)
    def test_exact_identities(self, pair, ell):
        X, Y = pair
        kernel = KernelSpec(ell)
        value = ev.mmd(X, Y, kernel)
        assert ev.MmdReference(Y, kernel).value(X) == value
        assert ev.mmd(Y, X, kernel) == value
        assert ev.mmd(X, X.copy(), kernel) == 0.0
        assert ev.MmdReference(X, kernel).value(X.copy()) == 0.0

    def test_reference_memory_stays_within_strips(self):
        """A reference of m rows makes a few (256, m) temporaries at a time;
        one (2048, m) block of the pair sum is already over the bound."""
        m, d = 8000, 3
        Y = np.random.default_rng(7).normal(size=(m, d))
        bound = 4 * ev._MMD_STRIP_ROWS * m * 8
        assert 2048 * m * 8 > bound
        tracemalloc.start()
        try:
            ev.MmdReference(Y, KernelSpec(1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestGradientMagnitude:
    def _field(self, values):
        layout = FactorLayout.single_factor(values.shape[1])
        return SteinGradientField(layout, values)

    def test_zero_field(self):
        assert ev.gradient_magnitude(self._field(np.zeros((4, 2)))) == 0.0

    def test_three_four_five(self):
        assert ev.gradient_magnitude(self._field(np.array([[3.0, 4.0]]))) == 5.0

    def test_matches_flattened_norm(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(7, 3))
        assert ev.gradient_magnitude(self._field(values)) == pytest.approx(
            np.linalg.norm(values.reshape(-1)), rel=1e-15
        )

    def test_matches_summed_square_formula(self, mixed_bn):
        kernel = KernelSpec(1.0)
        rng = np.random.default_rng(6)
        ps = ParticleSet(rng.normal(size=(9, mixed_bn.layout.total_dim)))
        field = graphical_stein_gradient(ps, mixed_bn, kernel)
        expected = np.sqrt(sum(np.linalg.norm(g) ** 2 for g in field.values))
        assert ev.gradient_magnitude(field) == pytest.approx(expected, rel=1e-12)


class TestMetropolis:
    def test_standard_normal_moments(self):
        target = standard_normal_1d()
        result = ev.metropolis_reference(
            target, chain_length=1_000_000, proposal_scale=2.4,
            burn_in=1_000, thinning=1, seed=0,
        )
        samples = result.samples[:, 0]
        assert abs(samples.mean()) < 0.02
        assert 0.95 < samples.var() < 1.05
        assert 0.2 < result.acceptance_rate < 0.8

    def test_matches_reference_chain_and_accepts_uphill(self):
        # replay the chain against a straightforward reference implementation
        # sharing the same draws; an uphill proposal (ratio >= 0) can never be
        # rejected because log U <= 0
        target = standard_normal_1d()
        seed, scale, total = 1, 1.5, 400
        result = ev.metropolis_reference(
            target, chain_length=total, proposal_scale=scale, burn_in=0,
            thinning=1, seed=seed, initial=np.array([3.0]),
        )
        rng = np.random.default_rng(seed)
        increments = rng.normal(0.0, scale, size=(total, 1))
        log_uniforms = np.log(1.0 - rng.random(total))
        x = np.array([3.0])
        logp = target.log_density(x)
        saw_uphill = False
        for step in range(total):
            proposal = x + increments[step]
            ratio = target.log_density(proposal) - logp
            if ratio >= 0:
                saw_uphill = True
                accept = True        # the rule: uphill is unconditional
            else:
                accept = ratio >= log_uniforms[step]
            if accept:
                x = proposal
                logp = target.log_density(x)
            np.testing.assert_array_equal(result.samples[step], x)
        assert saw_uphill

    def test_deterministic_given_seed(self):
        target = standard_normal_1d()
        kwargs = dict(chain_length=2_000, proposal_scale=1.0, burn_in=100,
                      thinning=3, seed=11)
        a = ev.metropolis_reference(target, **kwargs)
        b = ev.metropolis_reference(target, **kwargs)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.acceptance_rate == b.acceptance_rate

    def test_thinning_and_burn_in_shape(self):
        target = standard_normal_1d()
        result = ev.metropolis_reference(target, chain_length=100,
                                         proposal_scale=1.0, burn_in=10,
                                         thinning=5, seed=2)
        assert result.samples.shape == (20, 1)

    def test_invalid_inputs(self):
        target = standard_normal_1d()
        with pytest.raises(ValueError):
            ev.metropolis_reference(target, 10, proposal_scale=0.0)
        with pytest.raises(ValueError):
            ev.metropolis_reference(target, 0, proposal_scale=1.0)


def assert_chains_equal(target, **kwargs):
    result = ev.metropolis_reference(target, **kwargs)
    oracle = serial_metropolis_reference(target, **kwargs)
    np.testing.assert_array_equal(result.samples, oracle.samples)
    assert result.acceptance_rate == oracle.acceptance_rate
    return result


class TestPrefetchedChain:
    """The prefetching chain against the one-step-at-a-time oracle, bitwise
    in samples and acceptance rate."""

    @pytest.mark.parametrize("name, scale", [("snlp_small", 0.05),
                                             ("snlp_large", 0.01),
                                             ("bn10_desk", 0.05)])
    def test_bundled_problems(self, name, scale):
        model, particles = bundled(name)
        initial = (model.problem.true_positions.reshape(-1)
                   if name.startswith("snlp") else particles[0])
        # 417 steps: not a multiple of the prefetch, and burn-in and
        # thinning boundaries fall inside batches
        result = assert_chains_equal(model, chain_length=400,
                                     proposal_scale=scale, burn_in=17,
                                     thinning=3, seed=4, initial=initial)
        assert 0.05 < result.acceptance_rate < 0.95

    def test_every_boundary_of_short_chains(self):
        target = GaussianTarget(np.zeros(2), np.eye(2))
        for chain_length in range(1, 12):
            for burn_in in range(0, 6):
                for thinning in (1, 2, 3, 5):
                    assert_chains_equal(target, chain_length=chain_length,
                                        proposal_scale=1.5, burn_in=burn_in,
                                        thinning=thinning, seed=chain_length)

    @pytest.mark.parametrize("scale, low, high", [(1e-3, 0.99, 1.0),
                                                  (40.0, 0.0, 0.01)])
    def test_acceptance_near_one_and_near_zero(self, scale, low, high):
        target = GaussianTarget(np.zeros(3), np.diag([1.0, 2.0, 0.5]))
        result = assert_chains_equal(target, chain_length=3001,
                                     proposal_scale=scale, burn_in=2,
                                     thinning=2, seed=6)
        assert low <= result.acceptance_rate <= high

    def test_overflowing_proposals_are_rejected(self):
        """Proposals that overflow to +-inf take the -inf path: the
        one-point log density raises ValueError on them."""
        target = HeavyTailTarget()
        kwargs = dict(chain_length=2000, proposal_scale=1e308, burn_in=3,
                      thinning=2, seed=2, initial=np.array([1e308]))
        with np.errstate(over="ignore"):
            result = assert_chains_equal(target, **kwargs)
        assert np.isfinite(result.samples).all()
        assert 0.0 < result.acceptance_rate < 1.0
        # many of the draws themselves overflow
        rng = np.random.default_rng(2)
        with np.errstate(over="ignore"):
            increments = rng.normal(0.0, 1e308, size=2003)
        assert np.isinf(increments).sum() > 50
