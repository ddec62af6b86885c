import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (eval_target, isin_overlap_matrix, isin_pair_mask,
                     loop_pattern, markov_blanket)
from targets import partial_blanket_layout
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
from trsvi.model.layout import TargetModel


def test_single_factor_layout():
    layout = FactorLayout.single_factor(4)
    assert layout.n_factors == 1
    assert np.array_equal(layout.factors[0], np.arange(4))
    assert layout.overlapping_pairs() == [(0, 0)]


def test_partition_must_be_contiguous_and_exhaustive():
    with pytest.raises(ValueError):
        FactorLayout(factors=(np.array([0, 2]), np.array([1])),
                     blankets=(np.array([0, 2]), np.array([1])), total_dim=3)
    with pytest.raises(ValueError):
        FactorLayout(factors=(np.array([0]),), blankets=(np.array([0]),),
                     total_dim=2)


def test_blanket_must_contain_factor():
    with pytest.raises(ValueError):
        FactorLayout(factors=(np.array([0]), np.array([1])),
                     blankets=(np.array([1]), np.array([1])), total_dim=2)


def test_blanket_symmetry_enforced():
    # factor 1 sees factor 0, but not vice versa
    with pytest.raises(ValueError):
        FactorLayout(
            factors=(np.array([0]), np.array([1])),
            blankets=(np.array([0]), np.array([0, 1])),
            total_dim=2,
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_layouts_satisfy_invariants(seed):
    spec = generate_bayes_net(
        BayesNetConfig(layer_sizes=(3, 4, 2), max_parents=3, gmm_nodes=2,
                       seed=seed)
    )
    layout = BayesNetModel(spec).layout
    concat = np.concatenate(layout.factors)
    assert np.array_equal(concat, np.arange(layout.total_dim))
    for a in range(layout.n_factors):
        assert np.isin(layout.factors[a], layout.blankets[a]).all()
    overlap = layout.overlap_matrix()
    assert np.array_equal(overlap, overlap.T)


def _four_node_net():
    """pa -> a, plus child c with parents {a, q}; q is a second-layer root."""
    pa = BayesNode("root", (), ((),), (1.0,), 0.5, 1.0)
    a = BayesNode("linear", (0,), ((0.7,),), (1.0,), 0.0, 0.5)
    q = BayesNode("root", (), ((),), (1.0,), -1.0, 2.0)
    c = BayesNode("linear", (1, 2), ((0.3, -0.4),), (1.0,), 0.0, 0.25)
    return BayesNetSpec(layers=((pa,), (a, q), (c,)))


def test_markov_blanket_by_hand_moralization():
    model = BayesNetModel(_four_node_net())
    # node 1 (a): parent pa=0, child c=3, co-parent q=2
    assert np.array_equal(markov_blanket(model, 1), np.array([0, 1, 2, 3]))
    # node 0 (pa): only its child a=1
    assert np.array_equal(markov_blanket(model, 0), np.array([0, 1]))
    # node 2 (q): child c=3 and co-parent a=1
    assert np.array_equal(markov_blanket(model, 2), np.array([1, 2, 3]))


def test_isolated_root_blanket_is_itself():
    lone = BayesNode("root", (), ((),), (1.0,), 0.0, 1.0)
    model = BayesNetModel(BayesNetSpec(layers=((lone,),)))
    assert np.array_equal(markov_blanket(model, 0), np.array([0]))


def test_markov_blanket_rejects_bad_index(mixed_bn):
    with pytest.raises(IndexError):
        markov_blanket(mixed_bn, mixed_bn.layout.n_factors)


def test_eval_target_rejects_nonfinite(mixed_bn):
    x = np.zeros(mixed_bn.layout.total_dim)
    x[0] = np.nan
    with pytest.raises(ValueError):
        eval_target(mixed_bn, x)
    with pytest.raises(ValueError):
        eval_target(mixed_bn, np.zeros(3))


def test_target_model_is_abstract():
    with pytest.raises(TypeError):
        TargetModel()


def _assert_matches_isin_oracles(layout):
    """Overlap, pair masks and pattern equal their np.isin / loop oracles
    bit for bit."""
    overlap = layout.overlap_matrix()
    assert overlap.dtype == bool
    np.testing.assert_array_equal(overlap, isin_overlap_matrix(layout))
    pairs = []
    for g in layout.pair_groups():
        assert g.mask.dtype == float
        for p, (a, b) in enumerate(zip(g.a, g.b)):
            pairs.append((a, b))
            np.testing.assert_array_equal(g.mask[p], isin_pair_mask(layout, a, b))
    assert sorted(pairs) == layout.overlapping_pairs()
    pattern = layout.pattern()
    np.testing.assert_array_equal(pattern.flat, loop_pattern(layout))
    dim = layout.total_dim
    np.testing.assert_array_equal(pattern.flat, pattern.rows * dim + pattern.cols)
    np.testing.assert_array_equal(pattern.upper,
                                  np.flatnonzero(pattern.rows <= pattern.cols))
    # each entry's upper-triangle twin, and each row's first entry
    twin = pattern.flat[pattern.upper[pattern.from_upper]]
    np.testing.assert_array_equal(
        twin, np.minimum(pattern.rows, pattern.cols) * dim
        + np.maximum(pattern.rows, pattern.cols))
    np.testing.assert_array_equal(
        pattern.starts, [np.searchsorted(pattern.rows, r) for r in range(dim + 1)])
    assert np.all(np.diff(pattern.starts) > 0)
    for g in layout.pair_groups():
        np.testing.assert_array_equal(
            pattern.flat[g.entries], g.rows[:, :, None] * dim + g.cols[:, None, :])
        np.testing.assert_array_equal(
            pattern.flat[g.twins], g.cols[:, :, None] * dim + g.rows[:, None, :])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([(3, 4, 2), (5, 5), (2, 3, 3, 2), (1,)]),
       st.integers(min_value=1, max_value=3))
def test_bayes_net_layouts_match_isin_oracles(seed, sizes, max_parents):
    spec = generate_bayes_net(BayesNetConfig(
        layer_sizes=sizes, max_parents=max_parents, gmm_nodes=min(2, sum(sizes[1:])),
        seed=seed))
    _assert_matches_isin_oracles(BayesNetModel(spec).layout)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=5),
       st.floats(min_value=1.5, max_value=6.0), st.integers(0, 10_000))
@example(50, 12, 3.0, 0)    # the instance of configs/snlp_large.yaml
def test_snlp_layouts_match_isin_oracles(unknowns, anchors, radius, seed):
    problem = build_snlp(SnlpConfig(unknowns=unknowns, anchors=anchors,
                                    side=20.0 if unknowns == 50 else 6.0,
                                    radius=radius, noise_variance=0.01, seed=seed))
    _assert_matches_isin_oracles(SnlpModel(problem).layout)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=8),
       st.data())
def test_neighbor_layouts_match_isin_oracles(sizes, data):
    D = len(sizes)
    edges = data.draw(st.sets(st.tuples(st.integers(0, D - 1),
                                        st.integers(0, D - 1))))
    neighbors = [set() for _ in range(D)]
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    _assert_matches_isin_oracles(
        FactorLayout.from_factor_neighbors(sizes, neighbors))


@pytest.mark.parametrize("layout", [
    FactorLayout.single_factor(1),
    FactorLayout.single_factor(5),
    partial_blanket_layout(),
], ids=["single1", "single5", "partial"])
def test_fixed_layouts_match_isin_oracles(layout):
    _assert_matches_isin_oracles(layout)


def test_asymmetric_blankets_raise_the_symmetry_error():
    # blanket 0 reaches one dimension of factor 1; blanket 1 stays home
    with pytest.raises(ValueError,
                       match="blanket structure must be symmetric at factor level"):
        FactorLayout(
            factors=(np.arange(0, 2), np.arange(2, 5), np.arange(5, 6)),
            blankets=(np.array([0, 1, 3]), np.array([2, 3, 4, 5]),
                      np.array([2, 5])),
            total_dim=6,
        )


def test_pattern_index_rejects_entries_off_the_pattern():
    # factors 0 (dims 0, 1) and 2 (dims 5, 6) of the partial layout do not
    # overlap, so their block is off the pattern; the last entry is past it
    pattern = partial_blanket_layout().pattern()
    assert pattern.flat[pattern.index(0, 1)] == 1
    for rows, cols in ((0, 5), ([1, 6], [1, 0]), (6, 7)):
        with pytest.raises(ValueError, match="outside the Hessian pattern"):
            pattern.index(rows, cols)
