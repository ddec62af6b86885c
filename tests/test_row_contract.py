"""The row contract of `log_density_batch`, and the SNLP model's batches
against the bodies they replaced."""

import numpy as np
import pytest

from oracles import (
    add_at_snlp_gradient_batch,
    grouped_snlp_hessian_batch,
    grouped_snlp_log_density_batch,
    grouped_snlp_terms,
)
from targets import GaussianTarget, bundled, partial_blanket_layout

EPS = np.finfo(float).eps


def gaussian(layout=None, dim=7):
    rng = np.random.default_rng(5)
    A = rng.normal(size=(dim, dim))
    return GaussianTarget(rng.normal(size=dim), A @ A.T + dim * np.eye(dim),
                          layout)


def contract_cases():
    for name in ("bn10_desk", "bn30_paper", "snlp_small", "snlp_large"):
        yield pytest.param(lambda name=name: bundled(name), id=name)
    for dim in (2, 3):
        yield pytest.param(lambda dim=dim: (
            gaussian(dim=dim), np.random.default_rng(dim).normal(size=(40, dim))),
            id=f"gaussian{dim}")
    yield pytest.param(lambda: (
        gaussian(partial_blanket_layout()),
        np.random.default_rng(7).normal(size=(40, 7))),
        id="gaussian partial blankets")


@pytest.mark.parametrize("make", list(contract_cases()))
def test_batch_rows_equal_one_point_values(make):
    """Row k of log_density_batch(X) is log_density(X[k]) bitwise, for
    batch sizes 1-33 and every position in each batch."""
    target, X = make()
    X = X[:33]
    one = np.array([target.log_density(x) for x in X])
    for size in range(1, 34):
        rows = (np.arange(size) + 5 * size) % len(X)
        np.testing.assert_array_equal(target.log_density_batch(X[rows]),
                                      one[rows], err_msg=f"size {size}")


def snlp_batches():
    rng = np.random.default_rng(31)
    for name in ("snlp_small", "snlp_large"):
        model, X = bundled(name)
        truth = model.problem.true_positions.reshape(-1)
        yield pytest.param(model, X, id=name)
        yield pytest.param(model, truth + 0.3 * rng.standard_normal(
            (17, truth.size)), id=name + " near truth")


@pytest.mark.parametrize("model, X", list(snlp_batches()))
def test_snlp_batches_against_replaced_bodies(model, X):
    """The flat edge geometry gives the one-row log density, the gradient
    (scattered in np.add.at's order) and the Hessian of the per-group bodies
    bitwise.  Only the multi-row log density differs: its strided edge sums
    ran in another order, and the difference stays within
    E * eps * sum_e |t_e| for E edges with terms t_e."""
    for rows in (X[:1], X[:2], X):
        np.testing.assert_array_equal(model.gradient_batch(rows),
                                      add_at_snlp_gradient_batch(model, rows))
        np.testing.assert_array_equal(model.hessian_batch(rows),
                                      grouped_snlp_hessian_batch(model, rows))
    one = np.array([grouped_snlp_log_density_batch(model, x[None])[0]
                    for x in X])
    batch = model.log_density_batch(X)
    np.testing.assert_array_equal(batch, one)

    terms = np.concatenate(grouped_snlp_terms(model, X), axis=1)
    bound = terms.shape[1] * EPS * np.abs(terms).sum(axis=1)
    old = grouped_snlp_log_density_batch(model, X)
    assert np.all(np.abs(batch - old) <= bound)
