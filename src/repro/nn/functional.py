"""Stateless numerical primitives used by the neural-network layers.

Everything here is pure NumPy and fully vectorized; the hot paths
(``im2col``/``col2im``) follow the classic stride-trick formulation so that
convolutions reduce to a single GEMM, which is the dominant cost and maps
onto BLAS.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "relu",
    "softmax",
    "log_softmax",
    "im2col",
    "col2im",
    "conv_out_size",
]


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise rectified linear unit, ``max(x, 0)``."""
    return np.maximum(x, 0.0)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis`` with the max-subtraction stability trick."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log-softmax along ``axis``, computed without materializing softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def conv_out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Output spatial size of a convolution/pooling window sweep."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size {out} for input={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


# Patch-gather index plans, keyed on everything the index layout depends
# on: (c, h, w, kh, kw, stride, pad) — the batch size does not enter. Every
# round and every eval batch hits the same handful of shapes, so Conv2d and
# the pooling layers (which all unfold through im2col) stop recomputing the
# window geometry on each call. Bounded: a training run touches only a few
# distinct shapes; the guard keeps pathological shape churn from leaking.
_IM2COL_PLANS: dict[tuple, np.ndarray] = {}
_MAX_PLANS = 64


def _im2col_plan(
    c: int, h: int, w: int, kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    """Cached flat gather indices: padded ``(c, hp, wp)`` -> patch rows.

    Returns an ``(oh * ow, c * kh * kw)`` int array; entry ``[o, q]`` is the
    flat position (within one padded sample) of element ``q`` of receptive
    field ``o``, with columns in ``(c, kh, kw)`` order.
    """
    key = (c, h, w, kh, kw, stride, pad)
    idx = _IM2COL_PLANS.get(key)
    if idx is None:
        oh = conv_out_size(h, kh, stride, pad)
        ow = conv_out_size(w, kw, stride, pad)
        hp, wp = h + 2 * pad, w + 2 * pad
        oy = stride * np.arange(oh, dtype=np.intp)
        ox = stride * np.arange(ow, dtype=np.intp)
        ky = np.arange(kh, dtype=np.intp)
        kx = np.arange(kw, dtype=np.intp)
        ci = np.arange(c, dtype=np.intp)
        y = oy[:, None, None, None, None] + ky[None, None, None, :, None]
        x_ = ox[None, :, None, None, None] + kx[None, None, None, None, :]
        flat = (ci[None, None, :, None, None] * hp + y) * wp + x_
        idx = np.ascontiguousarray(flat.reshape(oh * ow, c * kh * kw))
        if len(_IM2COL_PLANS) >= _MAX_PLANS:
            _IM2COL_PLANS.clear()
        _IM2COL_PLANS[key] = idx
    return idx


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Unfold image patches into a matrix for GEMM-based convolution.

    Parameters
    ----------
    x : array of shape ``(n, c, h, w)``.
    kh, kw : kernel height/width.
    stride, pad : stride and symmetric zero padding.

    Returns
    -------
    Array of shape ``(n * oh * ow, c * kh * kw)`` where ``oh, ow`` are the
    output spatial dims. Row ``i`` holds one receptive field, flattened in
    ``(c, kh, kw)`` order.
    """
    n, c, h, w = x.shape
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    idx = _im2col_plan(c, h, w, kh, kw, stride, pad)
    flat = np.ascontiguousarray(x).reshape(n, -1)
    return flat[:, idx].reshape(n * oh * ow, c * kh * kw)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add patch gradients back to image.

    ``cols`` has shape ``(n * oh * ow, c * kh * kw)``; returns gradient with
    respect to the original ``(n, c, h, w)`` input (padding stripped).
    """
    n, c, h, w = x_shape
    oh = conv_out_size(h, kh, stride, pad)
    ow = conv_out_size(w, kw, stride, pad)
    cols = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    # Scatter-add each kernel offset as one strided slice assignment; the
    # loop is over the (small) kernel window, not the image.
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            padded[:, :, i:i_max:stride, j:j_max:stride] += cols[:, :, i, j]
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded
