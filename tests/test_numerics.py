"""Core math ops and their backward passes against the finite-difference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eyedx import NumericError
from eyedx.numerics import (
    cross_entropy,
    cross_entropy_backward,
    silu,
    silu_backward,
    softmax,
    softmax_backward,
)
from oracles import finite_difference, grad_relative_error

RNG = np.random.default_rng(42)


def test_oracle_agrees_with_known_analytic_gradient():
    # sanity-check the oracle itself before trusting it anywhere else
    x = RNG.standard_normal((4, 3))
    grad = finite_difference(lambda v: float((v**2).sum()), x)
    assert grad_relative_error(2 * x, grad) < 1e-8


# ------------------------------------------------------------- softmax


def test_softmax_uniform_logits_give_uniform_distribution():
    y = softmax(np.zeros((3, 5)))
    assert np.allclose(y, 0.2)


def test_softmax_rows_sum_to_one():
    y = softmax(RNG.standard_normal((10, 17)) * 30)
    assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-6)
    assert np.isfinite(y).all()


@given(
    arrays(np.float64, (3, 4), elements=st.floats(-50, 50)),
    st.floats(-100, 100),
)
@settings(max_examples=100, deadline=None)
def test_softmax_shift_invariance(x, c):
    assert np.allclose(softmax(x + c), softmax(x), atol=1e-9)


def test_softmax_backward_vs_oracle():
    x = RNG.standard_normal((3, 6))
    dy = RNG.standard_normal((3, 6))
    dx = softmax_backward(softmax(x), dy)
    num = finite_difference(lambda v: float((softmax(v) * dy).sum()), x.copy())
    assert grad_relative_error(dx, num) < 1e-6


# ------------------------------------------------------------- silu


def test_silu_values():
    assert silu(np.array([0.0]))[0] == 0.0
    z = np.array([30.0])
    assert np.isclose(silu(z)[0], 30.0, atol=1e-8)


def test_silu_backward_vs_oracle():
    z = RNG.standard_normal(20) * 3
    dy = RNG.standard_normal(20)
    dz = silu_backward(z, dy)
    num = finite_difference(lambda v: float((silu(v) * dy).sum()), z.copy())
    assert grad_relative_error(dz, num) < 1e-6


# ------------------------------------------------------------- cross entropy


def perfect_logits(targets, vocab=7, sharp=200.0):
    logits = np.zeros(targets.shape + (vocab,))
    np.put_along_axis(logits, targets[..., None], sharp, axis=-1)
    return logits


def test_cross_entropy_zero_when_target_certain():
    targets = np.array([[1, 3, 5]])
    mask = np.ones_like(targets, dtype=bool)
    assert cross_entropy(perfect_logits(targets)[mask], targets, mask) < 1e-12


def test_cross_entropy_uniform_is_log_vocab():
    targets = np.array([[0, 1, 2]])
    mask = np.ones_like(targets, dtype=bool)
    loss = cross_entropy(np.zeros((3, 9)), targets, mask)
    assert np.isclose(loss, np.log(9))


def test_cross_entropy_averages_over_unmasked_only():
    targets = np.array([[0, 1]])
    mask = np.array([[False, True]])
    logits = np.zeros((1, 2, 4))
    logits[0, 0] = [100, 0, 0, 0]  # masked position, would be loss 0
    loss = cross_entropy(logits[mask], targets, mask)
    assert np.isclose(loss, np.log(4))  # only the uniform unmasked position counts


def test_cross_entropy_shape_mismatch():
    with pytest.raises(NumericError, match="shape"):
        cross_entropy(np.zeros((2, 3, 5)), np.zeros((2, 4), dtype=int), np.ones((2, 4), bool))
    # logits hold the mask's rows alone: not the grid, nor another count of rows
    for logits in (np.zeros((2, 4, 5)), np.zeros((7, 5))):
        with pytest.raises(NumericError, match="shape"):
            cross_entropy(logits, np.zeros((2, 4), dtype=int), np.ones((2, 4), bool))


def test_cross_entropy_empty_mask_rejected():
    with pytest.raises(NumericError, match="mask"):
        cross_entropy(np.zeros((0, 4)), np.zeros((1, 2), int), np.zeros((1, 2), bool))


def test_cross_entropy_backward_closed_form():
    # gradient = (softmax - onehot)/n on unmasked positions
    logits = RNG.standard_normal((2, 4, 6))
    targets = RNG.integers(0, 6, (2, 4))
    mask = np.array([[True, True, False, True], [False, True, True, True]])
    grad = cross_entropy_backward(logits[mask], targets, mask)
    n = mask.sum()
    expect = softmax(logits, axis=-1)
    for b in range(2):
        for t in range(4):
            expect[b, t, targets[b, t]] -= 1.0
    expect *= mask[..., None] / n
    assert np.allclose(grad, expect[mask], atol=1e-12)


def test_cross_entropy_backward_vs_oracle_and_masked_zeros():
    logits = RNG.standard_normal((2, 3, 5))
    targets = RNG.integers(0, 5, (2, 3))
    mask = np.array([[True, False, True], [True, True, False]])
    grad = cross_entropy_backward(logits[mask], targets, mask)
    # differenced over the whole grid: the masked positions' logits reach no loss
    num = finite_difference(lambda v: cross_entropy(v[mask], targets, mask), logits.copy())
    assert grad_relative_error(grad, num[mask]) < 1e-6
    assert np.all(num[~mask] == 0.0)


def test_cross_entropy_backward_keeps_float32():
    logits = RNG.standard_normal((2, 3, 5)).astype(np.float32)
    targets = RNG.integers(0, 5, (2, 3))
    mask = np.array([[True, False, True], [True, True, False]])
    assert cross_entropy_backward(logits[mask], targets, mask).dtype == np.float32
