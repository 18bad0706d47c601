"""Dense-array math for the mini transformer: forwards and hand-derived backwards.

Everything operates on plain numpy arrays and preserves the input dtype, so
the same code runs in float32 for training and float64 for gradient checks.
Backward functions return gradients of a scalar loss given upstream grads;
there is no tape, callers wire the chain rule by hand in model.py.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(y: np.ndarray, dy: np.ndarray, axis: int = -1) -> np.ndarray:
    """Backward through softmax given its forward output y."""
    return y * (dy - (dy * y).sum(axis=axis, keepdims=True))


def cross_entropy(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> float:
    """Mean of -log p(target) over positions where mask is true.

    logits: (..., V); targets/mask: logits.shape[:-1]. Prompt and padding
    positions carry mask=False and contribute nothing, to the loss or to
    its gradient.
    """
    if logits.shape[:-1] != targets.shape or targets.shape != mask.shape:
        raise NumericError(
            f"cross_entropy shape mismatch: logits {logits.shape}, "
            f"targets {targets.shape}, mask {mask.shape}"
        )
    n = int(mask.sum())
    if n == 0:
        raise NumericError("cross_entropy: mask selects no positions")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1))
    target_logit = np.take_along_axis(shifted, targets[..., None], axis=-1)[..., 0]
    nll = logz - target_logit
    return float((nll * mask).sum() / n)


def cross_entropy_backward(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """d loss / d logits: (softmax - onehot) / n on unmasked rows, zero elsewhere."""
    n = int(mask.sum())
    if n == 0:
        raise NumericError("cross_entropy: mask selects no positions")
    probs = softmax(logits, axis=-1)
    np.put_along_axis(
        probs, targets[..., None], np.take_along_axis(probs, targets[..., None], axis=-1) - 1.0, axis=-1
    )
    # cast first: a bool mask over a Python int would promote to float64
    return probs * (mask[..., None].astype(probs.dtype) / n)


def silu(z: np.ndarray) -> np.ndarray:
    return z / (1.0 + np.exp(-z))


def silu_backward(z: np.ndarray, dy: np.ndarray) -> np.ndarray:
    s = 1.0 / (1.0 + np.exp(-z))
    return dy * s * (1.0 + z * (1.0 - s))
