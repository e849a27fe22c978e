"""Fleet-batched kernels: N model replicas trained as one stacked model.

Federated simulation runs N workers through the *same architecture* each
round; doing that as N sequential forward/backward passes leaves almost
all of the hardware idle (the FedJAX / ``jax.vmap`` observation). This
module stacks all replicas' parameters along a leading worker axis —
Dense weights become ``(N, in, out)``, Conv kernels ``(N, oc, c, k, k)``
— and runs every local SGD step for the whole fleet as single NumPy
calls: batched ``matmul`` for Dense, grouped im2col + batched GEMM for
Conv2d, per-worker-axis reductions for BatchNorm and the loss.

Activations carry the layout ``(N, B, ...)`` — worker axis first, then
the per-worker minibatch. Layers without per-worker state (activations,
pooling, flatten) are *merged-batch* wrappers around the scalar layers:
the input is viewed as one ``(N * B, ...)`` batch, so their numerics are
identical to the per-worker loop by construction. Layers with per-worker
parameters or statistics (Dense, Conv2d, BatchNorm) get dedicated batched
implementations whose per-worker slices perform exactly the scalar ops.

:func:`fleet_signature` decides eligibility: it names the first layer of
an architecture that has no fleet kernel in a ``ValueError``. Local
training has no other path, so such a model cannot train.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .layers import (
    AvgPool2d,
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    GlobalAvgPool2d,
    Layer,
    LeakyReLU,
    MaxPool2d,
    ReLU,
    Tanh,
)
from .model import Residual, Sequential

__all__ = [
    "FleetLayer",
    "FleetDense",
    "FleetConv2d",
    "FleetBatchNorm",
    "FleetResidual",
    "FleetSequential",
    "FleetSoftmaxCrossEntropy",
    "fleet_signature",
]


def fleet_signature(model: Sequential) -> tuple:
    """Structural signature of a model.

    Two workers may share a fleet if and only if their models produce the
    same signature: identical layer sequence, shapes and hyperparameters.
    A layer type without a fleet kernel raises ``ValueError`` naming it.
    """
    return tuple(_layer_signature(layer) for layer in model.layers)


def _unsupported(layer: Layer) -> ValueError:
    return ValueError(
        f"architecture is not fleet-eligible: no fleet kernel for "
        f"layer {type(layer).__name__}"
    )


def _layer_signature(layer: Layer) -> tuple:
    if isinstance(layer, Dense):
        return ("Dense", layer.in_features, layer.out_features)
    if isinstance(layer, Conv2d):
        return (
            "Conv2d",
            layer.in_channels,
            layer.out_channels,
            layer.kernel_size,
            layer.stride,
            layer.padding,
        )
    if isinstance(layer, BatchNorm):
        return ("BatchNorm", layer.num_features, layer.momentum, layer.eps)
    if isinstance(layer, ReLU):
        return ("ReLU",)
    if isinstance(layer, LeakyReLU):
        return ("LeakyReLU", layer.alpha)
    if isinstance(layer, Tanh):
        return ("Tanh",)
    if isinstance(layer, Flatten):
        return ("Flatten",)
    if isinstance(layer, MaxPool2d):
        return ("MaxPool2d", layer.kernel_size, layer.stride)
    if isinstance(layer, AvgPool2d):
        return ("AvgPool2d", layer.kernel_size, layer.stride)
    if isinstance(layer, GlobalAvgPool2d):
        return ("GlobalAvgPool2d",)
    if isinstance(layer, Residual):
        return (
            "Residual",
            tuple(_layer_signature(l) for l in layer.body),
            tuple(_layer_signature(l) for l in layer.shortcut),
        )
    raise _unsupported(layer)


class FleetLayer:
    """Base fleet layer: params/buffers/grads stacked on a worker axis."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sgd_step(self, lr: np.ndarray) -> None:
        """In-place ``p -= lr_i * grad`` per worker; ``lr`` has shape (N,).

        The step is scaled inside the layer's own gradient arrays, so
        after this call ``grads`` hold ``lr_i * grad``, not the gradient.
        """
        for name, p in self.params.items():
            g = self.grads[name]
            g *= lr.reshape((self.n,) + (1,) * (p.ndim - 1))
            p -= g


class _MergedLayer(FleetLayer):
    """Wrap a parameter-free scalar layer over the merged ``(N*B, ...)`` batch.

    Activations, pooling and flatten treat every sample independently, so
    flattening the worker axis into the batch axis runs the *same* scalar
    code once for the whole fleet — numerics match the per-worker loop
    exactly because it literally is the same computation.
    """

    def __init__(self, n: int, inner: Layer) -> None:
        super().__init__(n)
        self.inner = inner
        self._batch: int | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        self._batch = x.shape[1]
        merged = x.reshape((self.n * x.shape[1],) + x.shape[2:])
        out = self.inner.forward(merged, training=training)
        return out.reshape((self.n, self._batch) + out.shape[1:])

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._batch is None:
            raise RuntimeError("backward called before forward")
        merged = grad_out.reshape(
            (self.n * self._batch,) + grad_out.shape[2:]
        )
        g = self.inner.backward(merged)
        return g.reshape((self.n, self._batch) + g.shape[1:])


class FleetDense(FleetLayer):
    """Batched fully connected layer: ``(N,B,in) @ (N,in,out) + (N,1,out)``."""

    def __init__(self, template: Dense, n: int) -> None:
        super().__init__(n)
        self.in_features = template.in_features
        self.out_features = template.out_features
        self.params["W"] = np.empty((n, self.in_features, self.out_features))
        self.params["b"] = np.empty((n, self.out_features))
        self.grads["W"] = np.empty_like(self.params["W"])
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 3 or x.shape[0] != self.n or x.shape[2] != self.in_features:
            raise ValueError(
                f"FleetDense expected ({self.n}, b, {self.in_features}), "
                f"got {x.shape}"
            )
        self._x = x if training else None
        return x @ self.params["W"] + self.params["b"][:, None, :]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called before a training forward pass")
        np.matmul(self._x.transpose(0, 2, 1), grad_out, out=self.grads["W"])
        self.grads["b"] = grad_out.sum(axis=1)
        return grad_out @ self.params["W"].transpose(0, 2, 1)


class FleetConv2d(FleetLayer):
    """Batched conv: merged im2col (cached indices) + per-worker GEMM.

    The im2col unfold is worker-agnostic, so it runs once over the merged
    ``(N*B, c, h, w)`` batch through the shared index-plan cache; only the
    GEMM against the per-worker kernels is batched, as
    ``(N, B*oh*ow, c*k*k) @ (N, c*k*k, oc)``.
    """

    def __init__(self, template: Conv2d, n: int) -> None:
        super().__init__(n)
        self.in_channels = template.in_channels
        self.out_channels = template.out_channels
        self.kernel_size = template.kernel_size
        self.stride = template.stride
        self.padding = template.padding
        kk = self.in_channels * self.kernel_size * self.kernel_size
        self.params["W"] = np.empty(
            (n, self.out_channels, self.in_channels, self.kernel_size, self.kernel_size)
        )
        self.params["b"] = np.empty((n, self.out_channels))
        self.grads["W"] = np.empty_like(self.params["W"])
        self._kk = kk
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        if x.ndim != 5 or x.shape[0] != self.n or x.shape[2] != self.in_channels:
            raise ValueError(
                f"FleetConv2d expected ({self.n}, b, {self.in_channels}, h, w), "
                f"got {x.shape}"
            )
        n, b, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        oh = F.conv_out_size(h, k, s, p)
        ow = F.conv_out_size(w, k, s, p)
        merged = x.reshape(n * b, c, h, w)
        cols = F.im2col(merged, k, k, s, p).reshape(n, b * oh * ow, self._kk)
        w_mat = self.params["W"].reshape(n, self.out_channels, self._kk)
        out = cols @ w_mat.transpose(0, 2, 1) + self.params["b"][:, None, :]
        out = out.reshape(n, b, oh, ow, self.out_channels).transpose(0, 1, 4, 2, 3)
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
        n, b, oc, oh, ow = grad_out.shape
        _, _, c, h, w = self._x_shape
        k, s, p = self.kernel_size, self.stride, self.padding
        grad_mat = grad_out.transpose(0, 1, 3, 4, 2).reshape(n, b * oh * ow, oc)
        w_mat = self.params["W"].reshape(n, oc, self._kk)
        np.matmul(
            grad_mat.transpose(0, 2, 1),
            self._cols,
            out=self.grads["W"].reshape(n, oc, self._kk),
        )
        self.grads["b"] = grad_mat.sum(axis=1)
        grad_cols = (grad_mat @ w_mat).reshape(n * b * oh * ow, self._kk)
        grad_merged = F.col2im(grad_cols, (n * b, c, h, w), k, k, s, p)
        return grad_merged.reshape(self._x_shape)


class FleetBatchNorm(FleetLayer):
    """Batched batchnorm: statistics per worker over that worker's batch."""

    def __init__(self, template: BatchNorm, n: int) -> None:
        super().__init__(n)
        self.num_features = template.num_features
        self.momentum = template.momentum
        self.eps = template.eps
        self.params["gamma"] = np.empty((n, self.num_features))
        self.params["beta"] = np.empty((n, self.num_features))
        self.buffers["running_mean"] = np.empty((n, self.num_features))
        self.buffers["running_var"] = np.empty((n, self.num_features))
        self._cache: tuple | None = None

    def _rows(self, x: np.ndarray) -> np.ndarray:
        """View input as ``(N, m, C)`` rows for per-worker statistics."""
        if x.ndim == 3:
            return x
        if x.ndim == 5:
            n, b, c, h, w = x.shape
            return x.transpose(0, 1, 3, 4, 2).reshape(n, b * h * w, c)
        raise ValueError(
            f"FleetBatchNorm supports (N,B,C) or (N,B,C,H,W), got {x.ndim}-D"
        )

    def _restore(self, rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        if len(shape) == 3:
            return rows
        n, b, c, h, w = shape
        return rows.reshape(n, b, h, w, c).transpose(0, 1, 4, 2, 3)

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        rows = self._rows(x)
        if rows.shape[2] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} features, got {rows.shape[2]}"
            )
        if training:
            mean = rows.mean(axis=1)
            var = rows.var(axis=1)
            self.buffers["running_mean"] = (
                self.momentum * self.buffers["running_mean"]
                + (1 - self.momentum) * mean
            )
            self.buffers["running_var"] = (
                self.momentum * self.buffers["running_var"]
                + (1 - self.momentum) * var
            )
        else:
            mean = self.buffers["running_mean"]
            var = self.buffers["running_var"]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (rows - mean[:, None, :]) * inv_std[:, None, :]
        out = xhat * self.params["gamma"][:, None, :] + self.params["beta"][:, None, :]
        if training:
            self._cache = (xhat, inv_std, x.shape)
        return self._restore(out, x.shape)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before a training forward pass")
        xhat, inv_std, shape = self._cache
        grad_rows = self._rows(grad_out)
        m = grad_rows.shape[1]
        self.grads["gamma"] = (grad_rows * xhat).sum(axis=1)
        self.grads["beta"] = grad_rows.sum(axis=1)
        g = grad_rows * self.params["gamma"][:, None, :]
        grad_in = (
            inv_std[:, None, :]
            / m
            * (
                m * g
                - g.sum(axis=1, keepdims=True)
                - xhat * (g * xhat).sum(axis=1, keepdims=True)
            )
        )
        return self._restore(grad_in, shape)


class FleetResidual(FleetLayer):
    """Batched residual container: ``y = body(x) + shortcut(x)``."""

    def __init__(self, body: list[FleetLayer], shortcut: list[FleetLayer], n: int):
        super().__init__(n)
        self.body = body
        self.shortcut = shortcut

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        out = x
        for layer in self.body:
            out = layer.forward(out, training=training)
        sc = x
        for layer in self.shortcut:
            sc = layer.forward(sc, training=training)
        return out + sc

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_body = grad_out
        for layer in reversed(self.body):
            grad_body = layer.backward(grad_body)
        grad_sc = grad_out
        for layer in reversed(self.shortcut):
            grad_sc = layer.backward(grad_sc)
        return grad_body + grad_sc

    def _sublayers(self):
        yield from self.body
        yield from self.shortcut


def _fresh_scalar(layer: Layer) -> Layer:
    """A state-free clone of a shape-agnostic scalar layer for merged use."""
    if isinstance(layer, ReLU):
        return ReLU()
    if isinstance(layer, LeakyReLU):
        return LeakyReLU(layer.alpha)
    if isinstance(layer, Tanh):
        return Tanh()
    if isinstance(layer, Flatten):
        return Flatten()
    if isinstance(layer, MaxPool2d):
        return MaxPool2d(layer.kernel_size, layer.stride)
    if isinstance(layer, AvgPool2d):
        return AvgPool2d(layer.kernel_size, layer.stride)
    if isinstance(layer, GlobalAvgPool2d):
        return GlobalAvgPool2d()
    raise _unsupported(layer)


def _convert(layer: Layer, n: int) -> FleetLayer:
    if isinstance(layer, Dense):
        return FleetDense(layer, n)
    if isinstance(layer, Conv2d):
        return FleetConv2d(layer, n)
    if isinstance(layer, BatchNorm):
        return FleetBatchNorm(layer, n)
    if isinstance(layer, Residual):
        return FleetResidual(
            [_convert(l, n) for l in layer.body],
            [_convert(l, n) for l in layer.shortcut],
            n,
        )
    return _MergedLayer(n, _fresh_scalar(layer))


def _walk(layers) :
    for layer in layers:
        if isinstance(layer, FleetResidual):
            yield from _walk(layer._sublayers())
        else:
            yield layer


class FleetSoftmaxCrossEntropy:
    """Batched softmax cross-entropy: per-worker mean loss over its batch.

    ``forward(logits (N,B,C), labels (N,B))`` returns per-worker losses
    ``(N,)``; ``backward()`` returns ``d loss_i / d logits_i`` stacked.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._labels: np.ndarray | None = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        if logits.ndim != 3:
            raise ValueError(f"logits must be (n, b, classes), got {logits.shape}")
        labels = np.asarray(labels)
        if labels.shape != logits.shape[:2]:
            raise ValueError(
                f"labels shape {labels.shape} does not match {logits.shape[:2]}"
            )
        logp = F.log_softmax(logits, axis=2)
        self._probs = np.exp(logp)
        self._labels = labels
        picked = np.take_along_axis(logp, labels[:, :, None], axis=2)[:, :, 0]
        return -picked.mean(axis=1)

    def backward(self) -> np.ndarray:
        if self._probs is None or self._labels is None:
            raise RuntimeError("backward called before forward")
        b = self._labels.shape[1]
        grad = self._probs.copy()
        np.put_along_axis(
            grad,
            self._labels[:, :, None],
            np.take_along_axis(grad, self._labels[:, :, None], axis=2) - 1.0,
            axis=2,
        )
        grad /= b
        return grad

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        return self.forward(logits, labels)


class FleetSequential:
    """N stacked replicas of one :class:`Sequential` architecture.

    Parameter/buffer ordering matches the scalar model's flat-vector
    convention exactly (layer order, then sorted name), so ``(N, D)``
    stacks interoperate with the per-worker flat vectors the federated
    protocol ships.
    """

    def __init__(self, template: Sequential, n: int):
        if n <= 0:
            raise ValueError("fleet size must be positive")
        self.n = n
        self.signature = fleet_signature(template)
        self.layers = [_convert(layer, n) for layer in template.layers]
        # (layer, name) slots in the scalar flat-vector order.
        self._param_slots: list[tuple[FleetLayer, str]] = [
            (layer, name)
            for layer in _walk(self.layers)
            if layer.params
            for name in sorted(layer.params)
        ]
        self._buffer_slots: list[tuple[FleetLayer, str]] = [
            (layer, name)
            for layer in _walk(self.layers)
            if layer.buffers
            for name in sorted(layer.buffers)
        ]
        self.num_params = sum(
            layer.params[name][0].size for layer, name in self._param_slots
        )
        self.num_buffer_values = sum(
            layer.buffers[name][0].size for layer, name in self._buffer_slots
        )

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = True) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = grad_out
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def sgd_step(self, lr: np.ndarray) -> None:
        """Per-worker SGD update from the last backward pass; ``lr`` is (N,)."""
        lr = np.asarray(lr, dtype=np.float64)
        if lr.shape != (self.n,):
            raise ValueError(f"lr must have shape ({self.n},), got {lr.shape}")
        for layer in _walk(self.layers):
            if layer.params:
                layer.sgd_step(lr)

    # -- stacked flat vectors -----------------------------------------------

    def _load(self, slots, vec: np.ndarray, expected: int) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        broadcast = vec.ndim == 1
        if vec.shape != ((expected,) if broadcast else (self.n, expected)):
            raise ValueError(
                f"expected ({self.n}, {expected}) or ({expected},), got {vec.shape}"
            )
        offset = 0
        for layer, name in slots:
            target = (
                layer.params[name] if name in layer.params else layer.buffers[name]
            )
            size = target[0].size
            chunk = vec[..., offset : offset + size]
            if broadcast:
                # One shared row, broadcast-assigned across the worker axis.
                target[:] = chunk.reshape(target.shape[1:])
            else:
                target[:] = chunk.reshape(target.shape)
            offset += size

    def _gather(self, slots, total: int) -> np.ndarray:
        if not slots:
            return np.empty((self.n, 0))
        out = np.empty((self.n, total))
        offset = 0
        for layer, name in slots:
            source = (
                layer.params[name] if name in layer.params else layer.buffers[name]
            )
            size = source[0].size
            out[:, offset : offset + size] = source.reshape(self.n, size)
            offset += size
        return out

    def load_flat_params(self, vec: np.ndarray) -> None:
        """Load from a ``(D,)`` vector (broadcast to all workers) or ``(N, D)``."""
        self._load(self._param_slots, vec, self.num_params)

    def get_flat_params(self) -> np.ndarray:
        """Stacked ``(N, D)`` parameter matrix (copy)."""
        return self._gather(self._param_slots, self.num_params)

    def load_flat_buffers(self, vec: np.ndarray) -> None:
        self._load(self._buffer_slots, vec, self.num_buffer_values)

    def get_flat_buffers(self) -> np.ndarray:
        return self._gather(self._buffer_slots, self.num_buffer_values)

    def get_flat_grads(self) -> np.ndarray:
        """Stacked ``(N, D)`` gradients from the last backward pass."""
        out = np.empty((self.n, self.num_params))
        offset = 0
        for layer, name in self._param_slots:
            if name not in layer.grads:
                raise RuntimeError(
                    f"{type(layer).__name__}.{name} has no gradient; "
                    "run forward(training=True) + backward first"
                )
            g = layer.grads[name]
            size = g[0].size
            out[:, offset : offset + size] = g.reshape(self.n, size)
            offset += size
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(type(l).__name__ for l in self.layers)
        return f"FleetSequential(n={self.n}, [{inner}], params={self.num_params})"
