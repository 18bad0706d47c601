"""Core math ops and their backward passes against the finite-difference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eyedx import NumericError
from eyedx.model import _apply_rope, _rmsnorm_bwd, _rmsnorm_fwd, _rope_tables
from eyedx.numerics import (
    cross_entropy,
    cross_entropy_backward,
    silu,
    silu_backward,
    softmax,
    softmax_backward,
)
from oracles import (
    apply_rope_plain,
    finite_difference,
    grad_relative_error,
    rmsnorm_bwd_plain,
    rmsnorm_fwd_plain,
    silu_backward_plain,
    silu_plain,
    softmax_backward_plain,
    softmax_plain,
)

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
    assert silu(np.array([0.0]))[0][0] == 0.0
    z = np.array([30.0])
    assert np.isclose(silu(z)[0][0], 30.0, atol=1e-8)


def test_silu_backward_vs_oracle():
    z = RNG.standard_normal(20) * 3
    dy = RNG.standard_normal(20)
    dz = silu_backward(*silu(z), dy.copy())
    num = finite_difference(lambda v: float((silu(v)[0] * dy).sum()), z.copy())
    assert grad_relative_error(dz, num) < 1e-6


def test_silu_at_extreme_z_in_float32():
    """exp(-z) overflows float32 at z = -100 and -1e4: den is inf there, act
    is -0 and the gradient 0; at z = 100 and 1e4 den is 1 and the gradient 1."""
    z = np.array([-1e4, -100.0, 100.0, 1e4], dtype=np.float32)
    with np.errstate(over="ignore"):
        act, den = silu(z)
        want = silu_backward_plain(z, np.ones_like(z))
    assert act.dtype == den.dtype == np.float32
    assert np.isfinite(act).all() and np.array_equal(act, [0.0, 0.0, 100.0, 1e4])
    assert np.isinf(den[:2]).all() and np.array_equal(den[2:], [1.0, 1.0])
    grad = silu_backward(act, den, np.ones_like(z))
    assert np.array_equal(grad, [0.0, 0.0, 1.0, 1.0])
    assert np.array_equal(grad, want)


def test_silu_backward_writes_into_dy():
    z = RNG.standard_normal(12)
    dy = RNG.standard_normal(12)
    want = silu_backward_plain(z, dy)
    act, den = silu(z)
    got = silu_backward(act, den, dy)
    assert got is dy
    assert np.max(np.abs(dy - want)) <= 1e-12 * np.max(np.abs(want))


# ------------------------------------------------------------- against the plain expressions

# the layouts the model runs: (1, N, ...) token rows, (N, 1, ...) cached steps,
# and the attention's (B, KV, G, T, S) scores with the causal mask's -inf
DTYPES = [np.float32, np.float64]


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def masked_scores(dtype):
    scores = RNG.standard_normal((2, 2, 3, 7, 9)) * 4
    positions = np.array([np.arange(2, 9), np.arange(7)])
    hidden = (np.arange(9) > positions[..., None])[:, None, None]
    return np.where(hidden, -np.inf, scores).astype(dtype)


def unchanged(*arrays):
    """Copies of arrays, and a check that they still hold the same bytes."""
    copies = [a.copy() for a in arrays]
    return lambda: all(same_bits(a, c) for a, c in zip(arrays, copies))


@pytest.mark.parametrize("dtype", DTYPES)
def test_forward_helpers_equal_the_plain_expressions_bit_for_bit(dtype):
    scores = masked_scores(dtype)
    rows = (RNG.standard_normal((5, 31)) * 20).astype(dtype)  # filter_logits' (R, V) rows
    z = (RNG.standard_normal((1, 37, 24)) * 6).astype(dtype)
    gain = (1 + RNG.standard_normal(16) * 0.3).astype(dtype)
    kept = unchanged(scores, rows, z, gain)
    for x in (scores, rows):
        assert same_bits(softmax(x), softmax_plain(x, axis=-1))
    act, den = silu(z)
    assert same_bits(act, silu_plain(z))
    assert same_bits(den, 1.0 + np.exp(-z))
    for lead in ((1, 11), (11, 1)):
        x = (RNG.standard_normal((*lead, 16)) * 3).astype(dtype)
        y, inv = _rmsnorm_fwd(x, gain, 1e-5)
        want_y, want_inv = rmsnorm_fwd_plain(x, gain, 1e-5)
        assert same_bits(y, want_y) and same_bits(inv, want_inv)
        cos, sin = _rope_tables(np.arange(11).reshape(lead) + 3, 8, 10000.0, dtype)
        q = RNG.standard_normal((*lead, 4, 8)).astype(dtype)
        assert same_bits(_apply_rope(q, cos, sin), apply_rope_plain(q, cos, sin))
        assert same_bits(_apply_rope(q, cos, -sin), apply_rope_plain(q, cos, -sin))
    assert kept()


def close(got, want, tol=1e-12):
    return got.shape == want.shape and np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def test_backward_helpers_match_the_plain_expressions_in_float64():
    y = softmax_plain(masked_scores(np.float64))
    dy = RNG.standard_normal(y.shape)
    kept = unchanged(y, dy)
    assert close(softmax_backward(y, dy), softmax_backward_plain(y, dy, axis=-1))
    assert kept()

    z = RNG.standard_normal((1, 37, 24)) * 6
    act, den = silu(z)
    dy = RNG.standard_normal(z.shape)
    want = silu_backward_plain(z, dy)
    kept = unchanged(act, den)
    assert close(silu_backward(act, den, dy), want)
    assert kept()

    x = RNG.standard_normal((1, 11, 16)) * 3
    gain = 1 + RNG.standard_normal(16) * 0.3
    _, inv = _rmsnorm_fwd(x, gain, 1e-5)
    dy = RNG.standard_normal(x.shape)
    kept = unchanged(x, gain, inv, dy)
    assert close(_rmsnorm_bwd(x, gain, inv, dy), rmsnorm_bwd_plain(x, gain, inv, dy))
    assert kept()


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
    expect = softmax(logits)
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
