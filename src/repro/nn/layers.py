"""Neural-network layers with hand-derived backpropagation.

Each layer follows a minimal protocol:

* ``forward(x, training=True)`` computes the output and caches whatever the
  backward pass needs;
* ``backward(grad_out)`` returns the gradient with respect to the layer
  input and fills ``self.grads`` (same keys as ``self.params``) with the
  parameter gradients for the *last* forward batch.

Gradients are *written*, never accumulated, so one forward/backward pair
per batch is the contract (matching how the FL workers use the substrate).
All parameters are float64 ``ndarray``s stored in ``self.params`` so the
federated layer can flatten them into the gradient vectors that the FIFL
mechanism consumes.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import initializers as init

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Flatten",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "BatchNorm",
]


class Layer:
    """Base class: a differentiable, optionally parameterized transform.

    ``params`` are trainable (they appear in the flat parameter/gradient
    vectors the FL protocol ships); ``buffers`` are non-trainable state
    (BatchNorm running statistics) that federated averaging synchronizes
    out-of-band, mirroring FedAvg-BN practice.
    """

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def num_params(self) -> int:
        """Total number of scalar parameters in this layer."""
        return sum(int(p.size) for p in self.params.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(params={self.num_params})"


class Dense(Layer):
    """Fully connected layer ``y = x @ W + b``.

    Input ``(n, in_features)``, output ``(n, out_features)``.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Dense features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.params["W"] = init.he_normal(rng, (in_features, out_features), in_features)
        self.params["b"] = init.zeros((out_features,))
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expected (n, {self.in_features}), got {x.shape}"
            )
        self._x = x if training else None
        return x @ self.params["W"] + self.params["b"]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before a training forward pass")
        self.grads["W"] = self._x.T @ grad_out
        self.grads["b"] = grad_out.sum(axis=0)
        return grad_out @ self.params["W"].T


class ReLU(Layer):
    """Elementwise rectifier."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if training:
            self._mask = x > 0.0
            return np.where(self._mask, x, 0.0)
        return F.relu(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        return np.where(self._mask, grad_out, 0.0)


class LeakyReLU(Layer):
    """Leaky rectifier: ``x`` if positive else ``alpha * x``."""

    def __init__(self, alpha: float = 0.01):
        super().__init__()
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {alpha}")
        self.alpha = alpha
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        mask = x > 0.0
        if training:
            self._mask = mask
        return np.where(mask, x, self.alpha * x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training forward pass")
        return np.where(self._mask, grad_out, self.alpha * grad_out)


class Tanh(Layer):
    """Hyperbolic tangent (the original LeNet's nonlinearity)."""

    def __init__(self) -> None:
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        out = np.tanh(x)
        if training:
            self._out = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before a training forward pass")
        return grad_out * (1.0 - self._out**2)


class Flatten(Layer):
    """Collapse all non-batch dimensions: ``(n, ...) -> (n, prod(...))``."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._shape)


class Conv2d(Layer):
    """2-D convolution over ``(n, c, h, w)`` input via im2col + GEMM."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        stride: int = 1,
        padding: int = 0,
    ):
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise ValueError("Conv2d dims must be positive")
        if padding < 0:
            raise ValueError("padding must be non-negative")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.params["W"] = init.he_normal(
            rng, (out_channels, in_channels, kernel_size, kernel_size), fan_in
        )
        self.params["b"] = init.zeros((out_channels,))
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected (n, {self.in_channels}, h, w), got {x.shape}"
            )
        n, _, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        oh = F.conv_out_size(h, k, s, p)
        ow = F.conv_out_size(w, k, s, p)
        cols = F.im2col(x, k, k, s, p)  # (n*oh*ow, c*k*k)
        w_mat = self.params["W"].reshape(self.out_channels, -1)  # (oc, c*k*k)
        out = cols @ w_mat.T + self.params["b"]  # (n*oh*ow, oc)
        out = out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        if training:
            self._cols = cols
            self._x_shape = x.shape
        else:
            self._cols = None
            self._x_shape = None
        return np.ascontiguousarray(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        n, oc, oh, ow = grad_out.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(-1, oc)  # (n*oh*ow, oc)
        w_mat = self.params["W"].reshape(oc, -1)
        self.grads["W"] = (grad_mat.T @ self._cols).reshape(self.params["W"].shape)
        self.grads["b"] = grad_mat.sum(axis=0)
        grad_cols = grad_mat @ w_mat  # (n*oh*ow, c*k*k)
        return F.col2im(grad_cols, self._x_shape, k, k, s, p)


class MaxPool2d(Layer):
    """Max pooling with square window; window == stride (non-overlapping)."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._argmax: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        oh = F.conv_out_size(h, k, s, 0)
        ow = F.conv_out_size(w, k, s, 0)
        cols = F.im2col(x, k, k, s, 0).reshape(n * oh * ow, c, k * k)
        # Track per-window argmax for routing the gradient back.
        arg = cols.argmax(axis=2)  # (n*oh*ow, c)
        out = np.take_along_axis(cols, arg[:, :, None], axis=2)[:, :, 0]
        out = out.reshape(n, oh, ow, c).transpose(0, 3, 1, 2)
        if training:
            self._argmax = arg
            self._x_shape = x.shape
        return np.ascontiguousarray(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        n, c, oh, ow = grad_out.shape
        k, s = self.kernel_size, self.stride
        grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(n * oh * ow, c)
        cols = np.zeros((n * oh * ow, c, k * k), dtype=grad_out.dtype)
        np.put_along_axis(cols, self._argmax[:, :, None], grad_flat[:, :, None], axis=2)
        cols = cols.reshape(n * oh * ow, c * k * k)
        return F.col2im(cols, self._x_shape, k, k, s, 0)


class AvgPool2d(Layer):
    """Average pooling with square window; window == stride by default.

    The original LeNet-5 used average (sub-sampling) pooling; provided for
    faithful variants alongside :class:`MaxPool2d`.
    """

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        oh = F.conv_out_size(h, k, s, 0)
        ow = F.conv_out_size(w, k, s, 0)
        cols = F.im2col(x, k, k, s, 0).reshape(n * oh * ow, c, k * k)
        out = cols.mean(axis=2).reshape(n, oh, ow, c).transpose(0, 3, 1, 2)
        if training:
            self._x_shape = x.shape
        return np.ascontiguousarray(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before a training forward pass")
        n, c, oh, ow = grad_out.shape
        k, s = self.kernel_size, self.stride
        scale = 1.0 / (k * k)
        grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(n * oh * ow, c, 1)
        cols = np.broadcast_to(grad_flat * scale, (n * oh * ow, c, k * k))
        cols = cols.reshape(n * oh * ow, c * k * k)
        return F.col2im(cols, self._x_shape, k, k, s, 0)


class GlobalAvgPool2d(Layer):
    """Average over spatial dims: ``(n, c, h, w) -> (n, c)``."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        scale = 1.0 / (h * w)
        return np.broadcast_to(
            grad_out[:, :, None, None] * scale, self._x_shape
        ).copy()


class BatchNorm(Layer):
    """Batch normalization over the channel axis.

    Works for both 2-D ``(n, features)`` and 4-D ``(n, c, h, w)`` input; in
    the 4-D case statistics are computed per channel over ``(n, h, w)``.
    Running statistics are used at evaluation time.
    """

    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5):
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        if not 0.0 < momentum < 1.0:
            raise ValueError("momentum must be in (0, 1)")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.params["gamma"] = np.ones(num_features)
        self.params["beta"] = np.zeros(num_features)
        self.buffers["running_mean"] = np.zeros(num_features)
        self.buffers["running_var"] = np.ones(num_features)
        self._cache: tuple | None = None

    @property
    def running_mean(self) -> np.ndarray:
        return self.buffers["running_mean"]

    @running_mean.setter
    def running_mean(self, value: np.ndarray) -> None:
        self.buffers["running_mean"] = value

    @property
    def running_var(self) -> np.ndarray:
        return self.buffers["running_var"]

    @running_var.setter
    def running_var(self, value: np.ndarray) -> None:
        self.buffers["running_var"] = value

    def _moveaxis(self, x: np.ndarray) -> np.ndarray:
        """Reshape input to (m, num_features) rows for stats."""
        if x.ndim == 2:
            return x
        if x.ndim == 4:
            return x.transpose(0, 2, 3, 1).reshape(-1, self.num_features)
        raise ValueError(f"BatchNorm supports 2-D or 4-D input, got {x.ndim}-D")

    def _restore(self, rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        if len(shape) == 2:
            return rows
        n, c, h, w = shape
        return rows.reshape(n, h, w, c).transpose(0, 3, 1, 2)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        rows = self._moveaxis(x)
        if rows.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} features, got {rows.shape[1]}"
            )
        if training:
            mean = rows.mean(axis=0)
            var = rows.var(axis=0)
            self.running_mean = (
                self.momentum * self.running_mean + (1 - self.momentum) * mean
            )
            self.running_var = (
                self.momentum * self.running_var + (1 - self.momentum) * var
            )
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (rows - mean) * inv_std
        out = xhat * self.params["gamma"] + self.params["beta"]
        if training:
            self._cache = (xhat, inv_std, x.shape)
        return self._restore(out, x.shape)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        xhat, inv_std, shape = self._cache
        grad_rows = self._moveaxis(grad_out)
        m = grad_rows.shape[0]
        self.grads["gamma"] = (grad_rows * xhat).sum(axis=0)
        self.grads["beta"] = grad_rows.sum(axis=0)
        # Standard batchnorm input gradient.
        g = grad_rows * self.params["gamma"]
        grad_in = (
            inv_std
            / m
            * (m * g - g.sum(axis=0) - xhat * (g * xhat).sum(axis=0))
        )
        return self._restore(grad_in, shape)
