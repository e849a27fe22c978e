"""Fleet kernels vs per-worker scalar models.

The fleet engine's correctness claim is *differential*: stacking N
replicas' parameters and running one batched kernel must reproduce the
N scalar forward/backward/step computations to <= 1e-8 (and usually
bit-exactly, since the per-worker GEMM slices perform the same scalar
BLAS calls). These tests pin that claim per architecture, check the
finite-difference gradient at the N=1 and B=1 edge cases, and cover the
eligibility rule of :func:`fleet_signature`: a layer without a fleet
kernel raises ``ValueError`` naming it.
"""

import numpy as np
import pytest

from repro.nn import (
    Dense,
    FleetSequential,
    FleetSoftmaxCrossEntropy,
    Layer,
    ReLU,
    Residual,
    Sequential,
    SoftmaxCrossEntropy,
    build_lenet,
    build_logreg,
    build_mini_resnet,
    build_mlp,
    fleet_signature,
)

from tests.nn.gradcheck import max_relative_error

TOL = 1e-8

#: name -> (model factory(seed), per-sample feature shape)
ARCHS = {
    "logreg": (lambda seed: build_logreg(6, 3, seed=seed), (6,)),
    "mlp": (lambda seed: build_mlp(5, 4, hidden=(7,), seed=seed), (5,)),
    "lenet": (
        lambda seed: build_lenet(
            num_classes=3, in_channels=1, image_size=14, seed=seed
        ),
        (1, 14, 14),
    ),
    "resnet": (
        lambda seed: build_mini_resnet(
            num_classes=3, in_channels=2, width=4, num_blocks=1, seed=seed
        ),
        (2, 8, 8),
    ),
}


def _make_case(arch, n, b, seed=0):
    """N scalar replicas with *distinct* params + per-worker batches."""
    factory, feat = ARCHS[arch]
    models = [factory(seed + i) for i in range(n)]
    num_classes = models[0].forward(np.zeros((1,) + feat)).shape[1]
    rng = np.random.default_rng(seed + 99)
    xs = rng.normal(size=(n, b) + feat)
    ys = rng.integers(0, num_classes, size=(n, b))
    fleet = FleetSequential(models[0], n)
    fleet.load_flat_params(np.stack([m.get_flat_params() for m in models]))
    if fleet.num_buffer_values:
        fleet.load_flat_buffers(np.stack([m.get_flat_buffers() for m in models]))
    return models, fleet, xs, ys


def _scalar_pass(models, xs, ys):
    """Per-worker forward/backward; stacked (logits, losses, grads, buffers)."""
    logits, losses, grads, buffers = [], [], [], []
    for model, x, y in zip(models, xs, ys):
        loss_fn = SoftmaxCrossEntropy()
        out = model.forward(x, training=True)
        losses.append(loss_fn(out, y))
        model.backward(loss_fn.backward())
        logits.append(out)
        grads.append(model.get_flat_grads())
        buffers.append(model.get_flat_buffers())
    return (
        np.stack(logits),
        np.asarray(losses),
        np.stack(grads),
        np.stack(buffers),
    )


class _Double(Layer):
    """A parameter-free layer the fleet has no kernel for."""

    def forward(self, x, training=True):
        return 2.0 * x

    def backward(self, grad_out):
        return 2.0 * grad_out


class TestSignature:
    def test_same_architecture_same_signature(self):
        a = build_mlp(5, 4, hidden=(7,), seed=0)
        b = build_mlp(5, 4, hidden=(7,), seed=3)
        assert fleet_signature(a) == fleet_signature(b)

    def test_different_widths_differ(self):
        a = build_mlp(5, 4, hidden=(7,), seed=0)
        b = build_mlp(5, 4, hidden=(8,), seed=0)
        assert fleet_signature(a) != fleet_signature(b)

    def test_layer_without_fleet_kernel_is_ineligible(self):
        rng = np.random.default_rng(0)
        model = Sequential([Dense(5, 7, rng), ReLU(), _Double(), Dense(7, 3, rng)])
        with pytest.raises(ValueError, match="no fleet kernel for layer _Double"):
            fleet_signature(model)
        with pytest.raises(ValueError, match="_Double"):
            FleetSequential(model, 2)

    def test_ineligible_layer_inside_residual_is_named(self):
        rng = np.random.default_rng(0)
        model = Sequential([Dense(5, 5, rng), Residual([_Double()]), Dense(5, 3, rng)])
        with pytest.raises(ValueError, match="_Double"):
            fleet_signature(model)

    def test_residual_signature_recurses(self):
        a = build_mini_resnet(num_classes=3, in_channels=2, width=4, num_blocks=1)
        b = build_mini_resnet(num_classes=3, in_channels=2, width=8, num_blocks=1)
        assert fleet_signature(a) is not None
        assert fleet_signature(a) != fleet_signature(b)


class TestDifferential:
    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_forward_backward_matches_scalar(self, arch):
        models, fleet, xs, ys = _make_case(arch, n=3, b=4)
        s_logits, s_losses, s_grads, s_buffers = _scalar_pass(models, xs, ys)

        loss_fn = FleetSoftmaxCrossEntropy()
        f_logits = fleet.forward(xs, training=True)
        f_losses = loss_fn(f_logits, ys)
        fleet.backward(loss_fn.backward())

        assert np.abs(f_logits - s_logits).max() <= TOL
        assert np.abs(f_losses - s_losses).max() <= TOL
        assert np.abs(fleet.get_flat_grads() - s_grads).max() <= TOL
        if fleet.num_buffer_values:
            assert np.abs(fleet.get_flat_buffers() - s_buffers).max() <= TOL

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_sgd_step_matches_scalar(self, arch):
        models, fleet, xs, ys = _make_case(arch, n=3, b=4, seed=1)
        _scalar_pass(models, xs, ys)
        loss_fn = FleetSoftmaxCrossEntropy()
        loss_fn(fleet.forward(xs, training=True), ys)
        fleet.backward(loss_fn.backward())

        lrs = np.array([0.1, 0.05, 0.2])
        fleet.sgd_step(lrs)
        for model, lr in zip(models, lrs):
            model.apply_flat_grads(model.get_flat_grads(), lr)
        want = np.stack([m.get_flat_params() for m in models])
        assert np.abs(fleet.get_flat_params() - want).max() <= TOL

    def test_broadcast_load_equals_tiled_load(self):
        _, fleet, _, _ = _make_case("mlp", n=4, b=2)
        theta = build_mlp(5, 4, hidden=(7,), seed=9).get_flat_params()
        fleet.load_flat_params(theta)  # (D,) broadcast
        want = np.tile(theta, (4, 1))
        np.testing.assert_array_equal(fleet.get_flat_params(), want)


class TestGradcheckEdges:
    """Finite differences on the stacked parameters at fleet edge cases."""

    @pytest.mark.parametrize("n,b", [(1, 4), (3, 1), (1, 1)])
    def test_fd_gradient(self, n, b):
        _, fleet, xs, ys = _make_case("mlp", n=n, b=b, seed=2)
        theta = fleet.get_flat_params()

        loss_fn = FleetSoftmaxCrossEntropy()
        loss_fn(fleet.forward(xs, training=True), ys)
        fleet.backward(loss_fn.backward())
        analytic = fleet.get_flat_grads()

        def losses_at(mat):
            fleet.load_flat_params(mat)
            return FleetSoftmaxCrossEntropy()(fleet.forward(xs, training=True), ys)

        rng = np.random.default_rng(7)
        flat_idx = rng.choice(theta.size, size=min(25, theta.size), replace=False)
        eps = 1e-5
        for fi in flat_idx:
            i, j = divmod(int(fi), theta.shape[1])
            plus, minus = theta.copy(), theta.copy()
            plus[i, j] += eps
            minus[i, j] -= eps
            num = (losses_at(plus)[i] - losses_at(minus)[i]) / (2 * eps)
            err = max_relative_error(
                np.array([analytic[i, j]]), np.array([num]), floor=1e-6
            )
            assert err < 1e-4, f"param ({i},{j}): fd={num} analytic={analytic[i, j]}"

    def test_fd_gradient_conv_n1(self):
        _, fleet, xs, ys = _make_case("lenet", n=1, b=2, seed=3)
        theta = fleet.get_flat_params()
        loss_fn = FleetSoftmaxCrossEntropy()
        loss_fn(fleet.forward(xs, training=True), ys)
        fleet.backward(loss_fn.backward())
        analytic = fleet.get_flat_grads()

        rng = np.random.default_rng(8)
        eps = 1e-5
        for fi in rng.choice(theta.size, size=15, replace=False):
            i, j = divmod(int(fi), theta.shape[1])
            plus, minus = theta.copy(), theta.copy()
            plus[i, j] += eps
            minus[i, j] -= eps
            fleet.load_flat_params(plus)
            lp = FleetSoftmaxCrossEntropy()(fleet.forward(xs, training=True), ys)[i]
            fleet.load_flat_params(minus)
            lm = FleetSoftmaxCrossEntropy()(fleet.forward(xs, training=True), ys)[i]
            num = (lp - lm) / (2 * eps)
            err = max_relative_error(
                np.array([analytic[i, j]]), np.array([num]), floor=1e-6
            )
            assert err < 5e-4


class TestErrors:
    def test_rejects_nonpositive_fleet_size(self):
        with pytest.raises(ValueError):
            FleetSequential(build_mlp(5, 4, hidden=(7,), seed=0), 0)

    def test_rejects_wrong_lr_shape(self):
        _, fleet, xs, ys = _make_case("mlp", n=3, b=2)
        loss_fn = FleetSoftmaxCrossEntropy()
        loss_fn(fleet.forward(xs, training=True), ys)
        fleet.backward(loss_fn.backward())
        with pytest.raises(ValueError):
            fleet.sgd_step(np.ones(2))

    def test_rejects_wrong_param_shape(self):
        _, fleet, _, _ = _make_case("mlp", n=3, b=2)
        with pytest.raises(ValueError):
            fleet.load_flat_params(np.zeros((2, fleet.num_params)))

    def test_backward_before_forward_raises(self):
        _, fleet, xs, ys = _make_case("mlp", n=2, b=2)
        with pytest.raises(RuntimeError):
            fleet.backward(np.zeros((2, 2, 4)))

    def test_grads_before_backward_raise(self):
        _, fleet, _, _ = _make_case("mlp", n=2, b=2)
        with pytest.raises(RuntimeError):
            fleet.get_flat_grads()

    def test_eval_forward_does_not_retain_cache(self):
        _, fleet, xs, ys = _make_case("mlp", n=2, b=2)
        fleet.forward(xs, training=False)
        with pytest.raises(RuntimeError):
            fleet.backward(np.zeros((2, 2, 4)))
