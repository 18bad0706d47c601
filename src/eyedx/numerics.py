"""Dense-array math for the mini transformer: forwards and hand-derived backwards.

Everything operates on plain numpy arrays and preserves the input dtype, so
the same code runs in float32 for training and float64 for gradient checks.
Backward functions return gradients of a scalar loss given upstream grads;
there is no tape, callers wire the chain rule by hand in model.py.

The forwards run the plain expressions' arithmetic in the same order, but
with out= and in-place ufuncs in buffers of their own, so their values are
the plain expressions' bit for bit with fewer temporaries. The backwards
reuse buffers too; silu_backward overwrites the upstream gradient it is
given.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError


def softmax(x: np.ndarray) -> np.ndarray:
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_backward(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Backward through softmax given its forward output y: y (dy - sum(dy y))."""
    t = dy * y
    np.subtract(dy, t.sum(axis=-1, keepdims=True), out=t)
    t *= y
    return t


def _loss_rows(logits, targets, mask):
    """The targets of the mask=True positions and their count n, once logits
    is checked to be (n, V): those positions' rows, in row-major order."""
    n = int(mask.sum())
    if targets.shape != mask.shape or logits.shape[:-1] != (n,):
        raise NumericError(
            f"cross_entropy shape mismatch: logits {logits.shape}, "
            f"targets {targets.shape}, mask {mask.shape}"
        )
    if n == 0:
        raise NumericError("cross_entropy: mask selects no positions")
    return targets[mask], n


def cross_entropy(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> float:
    """Mean of -log p(target) over positions where mask is true.

    logits holds the mask=True positions' rows alone (_loss_rows); prompt and
    padding positions contribute nothing, to the loss or to its gradient. The
    per-position losses are summed in mask's shape, zeros at mask=False.
    """
    targets, n = _loss_rows(logits, targets, mask)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1))
    nll = np.zeros(mask.shape, dtype=logits.dtype)
    nll[mask] = logz - np.take_along_axis(shifted, targets[:, None], axis=-1)[:, 0]
    return float(nll.sum() / n)


def cross_entropy_backward(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """d loss / d logits, shaped like logits: (softmax - onehot) / n."""
    targets, n = _loss_rows(logits, targets, mask)
    probs = softmax(logits)
    np.put_along_axis(
        probs, targets[:, None], np.take_along_axis(probs, targets[:, None], axis=-1) - 1.0, axis=-1
    )
    # 1 / n divided in the logits' dtype; a Python 1 / n would round twice on the way to float32
    probs *= probs.dtype.type(1) / n
    return probs


def silu(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """act = z sigmoid(z) = z / den, and den = 1 + exp(-z) for the backward.
    den overflows to inf for very negative z, where act is then -0."""
    den = np.negative(z)
    np.exp(den, out=den)
    den += 1.0
    return z / den, den


def silu_backward(act: np.ndarray, den: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """dy times silu's derivative, written into dy and returned. With s =
    1/den = sigmoid(z), the derivative s + z s (1 - s) is (1 - s) act + s;
    it is 0 where den is inf."""
    s = 1.0 / den
    g = 1.0 - s
    g *= act
    g += s
    dy *= g
    return dy
