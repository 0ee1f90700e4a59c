"""Numeric core: layer math against finite differences and hand arithmetic."""

import numpy as np
import pytest

from stanza.tensor_core import (ConfigError, Conv2d, CorruptCheckpoint,
                                Flatten, FullyConnected, MaxPool2d,
                                OptimizerState, ReLU, ShapeMismatch,
                                SoftmaxCrossEntropy,
                                backward, block_backward, block_forward,
                                deserialize_params, forward, out_shape,
                                param_count, param_shapes, seeded_init,
                                serialize_params, sgd_step)

from stanza.model_partition import tiny_cnn
from oracles import (conv2d_patch_reference, conv2d_reference,
                     finite_diff_grad, maxpool2d_reference,
                     rel_err, relu_backward_reference)


def check_grads(layer, params, x, rng, labels=None, tol=1e-3, eps=1e-3):
    """Finite-difference check of input and parameter gradients.

    Reduces the layer output to a scalar through a fixed random projection so
    backward() can be driven with a known upstream gradient.
    """
    y0, cache = forward(layer, params, x, labels=labels)
    if isinstance(layer, SoftmaxCrossEntropy):
        proj = None
        gy = None

        def f():
            y, _ = forward(layer, params, x, labels=labels)
            return float(np.asarray(y, dtype=np.float64).sum())
    else:
        proj = rng.standard_normal(y0.shape)

        def f():
            y, _ = forward(layer, params, x, labels=labels)
            return float((np.asarray(y, dtype=np.float64) * proj).sum())

        gy = proj.astype(np.float32)

    gx, gparams = backward(layer, params, cache, gy)
    assert rel_err(gx, finite_diff_grad(f, x, eps)) < tol, type(layer).__name__
    for p, gp in zip(params, gparams):
        assert rel_err(gp, finite_diff_grad(f, p, eps)) < tol, type(layer).__name__


class TestHandArithmetic:
    def test_conv_single_window(self):
        """2x2 identity-corner kernel over a 2x2 image: 1*1 + 4*1 + 0.5."""
        layer = Conv2d(1, 1, 2)
        w = np.array([[[[1.0, 0.0], [0.0, 1.0]]]], dtype=np.float32)
        b = np.array([0.5], dtype=np.float32)
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)
        y, _ = forward(layer, [w, b], x)
        assert y.shape == (1, 1, 1, 1)
        assert y[0, 0, 0, 0] == pytest.approx(5.5)

    def test_fully_connected(self):
        layer = FullyConnected(2, 2)
        w = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        b = np.array([0.5, -0.5], dtype=np.float32)
        x = np.array([[1.0, 1.0]], dtype=np.float32)
        y, _ = forward(layer, [w, b], x)
        np.testing.assert_allclose(y, [[4.5, 5.5]])

    def test_maxpool_picks_max(self):
        layer = MaxPool2d(2, 2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        y, _ = forward(layer, [], x)
        np.testing.assert_array_equal(y[0, 0], [[5, 7], [13, 15]])

    def test_softmax_ce_uniform_logits(self):
        """Logits [0, 0] with label 0: loss ln 2, per-sample grad [-0.5, 0.5]."""
        layer = SoftmaxCrossEntropy()
        x = np.zeros((1, 2), dtype=np.float32)
        labels = np.array([0])
        losses, cache = forward(layer, [], x, labels=labels)
        assert losses[0] == pytest.approx(np.log(2.0), rel=1e-6)
        g, _ = backward(layer, [], cache, None)
        np.testing.assert_allclose(g, [[-0.5, 0.5]], atol=1e-7)

    def test_relu(self):
        x = np.array([[-1.0, 0.0, 2.0]], dtype=np.float32)
        y, cache = forward(ReLU(), [], x)
        np.testing.assert_array_equal(y, [[0.0, 0.0, 2.0]])
        gx, _ = backward(ReLU(), [], cache, np.ones_like(x))
        np.testing.assert_array_equal(gx, [[0.0, 0.0, 1.0]])


class TestFiniteDifferences:
    def test_conv2d(self, rng):
        layer = Conv2d(3, 4, 3, stride=1, padding=1)
        params = seeded_init([layer], 0)[0]
        x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        check_grads(layer, params, x, rng)

    def test_conv2d_strided_unpadded(self, rng):
        layer = Conv2d(2, 3, 3, stride=2, padding=0)
        params = seeded_init([layer], 1)[0]
        x = rng.standard_normal((2, 2, 7, 7)).astype(np.float32)
        check_grads(layer, params, x, rng)

    def test_fully_connected(self, rng):
        layer = FullyConnected(11, 7)
        params = seeded_init([layer], 2)[0]
        x = rng.standard_normal((3, 11)).astype(np.float32)
        check_grads(layer, params, x, rng)

    def test_relu(self, rng):
        # keep inputs away from the kink at zero
        x = rng.uniform(0.1, 1.0, (4, 9)).astype(np.float32)
        x *= rng.choice([-1.0, 1.0], x.shape).astype(np.float32)
        check_grads(ReLU(), [], x, rng)

    def test_maxpool(self, rng):
        # distinct values with gaps far above eps so the argmax never flips
        vals = rng.permutation(np.arange(2 * 2 * 6 * 6, dtype=np.float32)) * 0.1
        x = vals.reshape(2, 2, 6, 6)
        check_grads(MaxPool2d(2, 2), [], x, rng)

    def test_maxpool_overlapping_windows(self, rng):
        vals = rng.permutation(np.arange(1 * 2 * 5 * 5, dtype=np.float32)) * 0.1
        x = vals.reshape(1, 2, 5, 5)
        check_grads(MaxPool2d(3, 2), [], x, rng)

    def test_flatten(self, rng):
        x = rng.standard_normal((3, 2, 4, 4)).astype(np.float32)
        check_grads(Flatten(), [], x, rng)

    def test_softmax_ce(self, rng):
        x = rng.standard_normal((5, 7)).astype(np.float32)
        labels = rng.integers(0, 7, 5)
        check_grads(SoftmaxCrossEntropy(), [], x, rng, labels=labels)


class TestBatchSemantics:
    def test_param_grads_are_batch_sums(self, rng):
        """Backward over a batch equals the sum of per-sample backward passes."""
        layers = [Conv2d(2, 3, 3, 1, 1), ReLU(), MaxPool2d(2, 2), Flatten(),
                  FullyConnected(3 * 3 * 3, 8), SoftmaxCrossEntropy()]
        params = seeded_init(layers, 3)
        x = rng.standard_normal((6, 2, 6, 6)).astype(np.float32)
        labels = rng.integers(0, 8, 6)
        out, caches = block_forward(layers, params, x, labels=labels)
        _, grads = block_backward(layers, params, caches, None)

        summed = None
        for i in range(6):
            _, c1 = block_forward(layers, params, x[i:i + 1], labels=labels[i:i + 1])
            _, g1 = block_backward(layers, params, c1, None)
            if summed is None:
                summed = g1
            else:
                summed = [[a + b for a, b in zip(la, lb)]
                          for la, lb in zip(summed, g1)]
        for la, lb in zip(grads, summed):
            for a, b in zip(la, lb):
                assert rel_err(a, b) < 1e-5

    def test_forward_finite_on_finite_inputs(self, rng):
        layers = [Conv2d(3, 4, 3, 1, 1), ReLU(), MaxPool2d(2, 2), Flatten(),
                  FullyConnected(4 * 4 * 4, 10), SoftmaxCrossEntropy()]
        params = seeded_init(layers, 4)
        x = (rng.standard_normal((8, 3, 8, 8)) * 50).astype(np.float32)
        labels = rng.integers(0, 10, 8)
        out, caches = block_forward(layers, params, x, labels=labels)
        assert np.isfinite(out).all()
        gx, grads = block_backward(layers, params, caches, None,
                                   input_grad=True)
        assert np.isfinite(gx).all()
        assert all(np.isfinite(t).all() for layer in grads for t in layer)


def conv_pair(layer, params, x, gy):
    """(library, reference) results as flat lists: output, gx, gw, gb."""
    y, cache = forward(layer, params, x)
    gx, grads = backward(layer, params, cache, gy)
    ry, rgx, rgrads = conv2d_reference(layer, params, x, gy)
    return [y, gx] + grads, [ry, rgx] + rgrads


def conv_inputs(layer, n, hw, draw):
    params = [draw(shape) for shape in param_shapes(layer)]
    x = draw((n, layer.in_ch) + hw)
    gy = draw((n,) + out_shape(layer, x.shape[1:]))
    return params, x, gy


class TestConv2dAgainstReference:
    """The patch-matrix Conv2d against the direct loop over kernel taps.

    Batches 16, 17 and 64 cross the patch-matrix chunk edge."""

    BATCHES = (1, 7, 16, 17, 64)

    @pytest.mark.parametrize("kernel", [1, 2, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_exact_on_integer_inputs(self, rng, kernel, stride, padding):
        """Integer-valued float32 sums are exact in float64 in any order."""
        layer = Conv2d(3, 4, kernel, stride, padding)

        def draw(shape):
            return rng.integers(-3, 4, shape).astype(np.float32)

        for n in self.BATCHES:
            params, x, gy = conv_inputs(layer, n, (9, 8), draw)
            for got, want in zip(*conv_pair(layer, params, x, gy)):
                assert got.dtype == np.float32 and got.shape == want.shape
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kernel,stride,padding",
                             [(3, 1, 1), (2, 2, 0), (5, 3, 2), (1, 1, 0)])
    def test_within_one_ulp_on_gaussian_inputs(self, rng, kernel, stride,
                                               padding):
        layer = Conv2d(3, 5, kernel, stride, padding)

        def draw(shape):
            return rng.standard_normal(shape).astype(np.float32)

        for n in self.BATCHES:
            params, x, gy = conv_inputs(layer, n, (11, 10), draw)
            for got, want in zip(*conv_pair(layer, params, x, gy)):
                ulp = np.maximum(np.spacing(np.abs(got)),
                                 np.spacing(np.abs(want)))
                assert (np.abs(got - want) <= ulp).all()

    @pytest.mark.parametrize("n", [16, 64])
    def test_exact_at_tiny_cnn_shapes(self, rng, n):
        """Gaussian data and seeded weights at the model's two Conv2d
        shapes, where the pinned training digests run."""
        spec = tiny_cnn()
        layers = spec.require_layers()
        params = seeded_init(layers, 5)
        shape = spec.input_shape
        for layer, p in zip(layers, params):
            if isinstance(layer, Flatten):
                break
            if isinstance(layer, Conv2d):
                x = rng.standard_normal((n,) + shape).astype(np.float32)
                gy = rng.standard_normal(
                    (n,) + out_shape(layer, shape)).astype(np.float32)
                for got, want in zip(*conv_pair(layer, p, x, gy)):
                    np.testing.assert_array_equal(got, want)
            shape = out_shape(layer, shape)


def pool_pair(layer, x, gy):
    """(library, reference) results as flat lists: output, gx."""
    y, cache = forward(layer, [], x)
    gx, grads = backward(layer, [], cache, gy)
    assert grads == []
    return [y, gx], list(maxpool2d_reference(layer, x, gy))


def assert_same_bytes(got, want):
    """float32 arrays equal bit for bit, so -0.0 differs from +0.0 and each
    NaN keeps its payload."""
    assert got.dtype == np.float32 and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint32), want.view(np.uint32))


# every kind of NaN a window can hold: quiet, negative, and with a payload
NANS = np.array([0x7FC00000, 0xFFC00000, 0x7FC00123],
                dtype=np.uint32).view(np.float32)


class TestMaxPool2dAgainstReference:
    """The strided-view MaxPool2d against an argmax over gathered windows
    and per-tap masked adds, compared as bytes."""

    # disjoint windows (kernel <= stride) and overlapping ones
    POOLS = [(2, 2), (3, 2), (3, 1), (2, 1), (3, 3), (2, 3)]

    def check_exact(self, layer, n, hw, draw_x, draw_gy):
        x = draw_x((n, 3) + hw)
        gy = draw_gy((n,) + out_shape(layer, x.shape[1:]))
        for got, want in zip(*pool_pair(layer, x, gy)):
            assert_same_bytes(got, want)

    @pytest.mark.parametrize("kernel,stride", POOLS)
    def test_exact_on_integer_inputs(self, rng, kernel, stride):
        """Few distinct values make ties, so overlapping windows often route
        to one cell and its gradient is a sum."""
        layer = MaxPool2d(kernel, stride)

        def draw(shape):
            return rng.integers(-3, 4, shape).astype(np.float32)

        for n in (1, 5, 16):
            self.check_exact(layer, n, (9, 8), draw, draw)

    @pytest.mark.parametrize("kernel,stride", POOLS)
    def test_within_one_ulp_on_gaussian_inputs(self, rng, kernel, stride):
        """The output is a copy and exact; an overlapping cell's gradient is
        a float64 sum in another order, so it may move by one ulp."""
        layer = MaxPool2d(kernel, stride)

        def draw(shape):
            return rng.standard_normal(shape).astype(np.float32)

        for n in (1, 7, 16):
            x = draw((n, 3, 11, 10))
            gy = draw((n,) + out_shape(layer, x.shape[1:]))
            (y, gx), (y_ref, gx_ref) = pool_pair(layer, x, gy)
            assert_same_bytes(y, y_ref)
            if kernel <= stride:
                assert_same_bytes(gx, gx_ref)
            ulp = np.maximum(np.spacing(np.abs(gx)), np.spacing(np.abs(gx_ref)))
            assert (np.abs(gx - gx_ref) <= ulp).all()

    @pytest.mark.parametrize("kernel,stride", POOLS)
    def test_signed_zero_ties(self, rng, kernel, stride):
        """A window of -0.0 and +0.0 returns its first zero; a -0.0
        gradient lands as +0.0."""
        layer = MaxPool2d(kernel, stride)

        def draw(shape):
            return rng.choice(np.float32([0.0, -0.0, -1.0]), shape)

        def draw_gy(shape):
            return rng.choice(np.float32([0.0, -0.0, -2.0, 3.0]), shape)

        for n in (1, 6):
            self.check_exact(layer, n, (9, 8), draw, draw_gy)

    @pytest.mark.parametrize("kernel,stride", POOLS)
    def test_nan_windows(self, rng, kernel, stride):
        """A window holding NaNs returns its first NaN, bits and all, and
        routes the gradient there; infinities order as numbers."""
        layer = MaxPool2d(kernel, stride)
        values = np.concatenate([NANS, np.float32(
            [np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0])])

        def draw(shape):
            return rng.choice(values, shape)

        def draw_gy(shape):
            return rng.choice(np.float32([0.0, -0.0, -2.0, 3.0]), shape)

        for n in (1, 6):
            self.check_exact(layer, n, (9, 8), draw, draw_gy)

    @pytest.mark.parametrize("kernel,stride", [(12, 12), (12, 5), (17, 4)])
    def test_wide_kernels(self, rng, kernel, stride):
        """Tap numbers past 127 and past 255: rising inputs put every
        window's max on its last tap, a permutation anywhere."""
        layer = MaxPool2d(kernel, stride)
        hw = (kernel + 9, kernel + 7)
        rising = np.arange(2 * 3 * hw[0] * hw[1], dtype=np.float32)

        def draw(shape):
            return rng.standard_normal(shape).astype(np.float32)

        for x in (rising.reshape((2, 3) + hw),
                  rng.permutation(rising).reshape((2, 3) + hw)):
            gy = draw((2,) + out_shape(layer, x.shape[1:]))
            for got, want in zip(*pool_pair(layer, x, gy)):
                assert_same_bytes(got, want)

    def test_exact_at_tiny_cnn_shapes(self, rng):
        """Gaussian data at the model's pooling shapes, batch 16."""
        spec = tiny_cnn()
        shape = spec.input_shape
        pools = 0
        for layer in spec.require_layers():
            if isinstance(layer, MaxPool2d):
                x = rng.standard_normal((16,) + shape).astype(np.float32)
                gy = rng.standard_normal(
                    (16,) + out_shape(layer, shape)).astype(np.float32)
                for got, want in zip(*pool_pair(layer, x, gy)):
                    assert_same_bytes(got, want)
                pools += 1
            shape = out_shape(layer, shape)
        assert pools == 2


class TestReLUAgainstReference:
    """The bit-masked ReLU backward against np.where, compared as bytes."""

    SPECIALS = np.concatenate([NANS, np.float32(
        [0.0, -0.0, np.inf, -np.inf, 1.5, -2.5])])

    def check(self, x, gy):
        _, mask = forward(ReLU(), [], x)
        gx, grads = backward(ReLU(), [], mask, gy)
        assert grads == []
        assert_same_bytes(gx, relu_backward_reference(mask, gy))

    def test_special_gradients_at_kept_and_dropped_cells(self):
        """Each special gradient once where the input is positive and once
        where it is not."""
        gy = np.stack([self.SPECIALS, self.SPECIALS])
        x = np.ones_like(gy)
        x[1] = -1.0
        self.check(x, gy)

    def test_random_mix(self, rng):
        x = rng.choice(self.SPECIALS, (5, 3, 7, 7))
        gy = rng.choice(self.SPECIALS, x.shape)
        self.check(x, gy)


class TestConv2dAgainstPatchReference:
    """Conv2d against the float32-pad, fresh-patch-matrix kernel it replaced,
    compared as bytes: every float64 sum keeps its order, so NaN bits and
    signed zeros must come out the same too."""

    BATCHES = (1, 7, 16, 17, 64)
    SPECIALS = np.concatenate([NANS, np.float32([np.inf, -np.inf, -0.0])])

    def check(self, layer, params, x, gy):
        with np.errstate(invalid="ignore", over="ignore"):
            y, cache = forward(layer, params, x)
            gx, grads = backward(layer, params, cache, gy)
            no_gx, grads_only = backward(layer, params, cache, gy,
                                         input_grad=False)
            ry, rgx, rgrads = conv2d_patch_reference(layer, params, x, gy)
        assert no_gx is None
        for got, want in zip([y, gx] + grads + grads_only,
                             [ry, rgx] + rgrads + rgrads):
            assert_same_bytes(got, want)

    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_gaussian(self, rng, kernel, stride, padding):
        layer = Conv2d(3, 4, kernel, stride, padding)

        def draw(shape):
            return rng.standard_normal(shape).astype(np.float32)

        for n in self.BATCHES:
            self.check(layer, *conv_inputs(layer, n, (9, 8), draw))

    @pytest.mark.parametrize("kernel", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("operand", ["x", "w", "gy"])
    def test_cancelling_sums(self, rng, kernel, stride, padding, operand):
        """+-1 everywhere and a few +-2**60 in one operand: every product is
        exact, and a float64 sum drops each 1 it adds while a 2**60 is
        pending, so where the big terms cancel the result counts the ones
        the summation order kept. Gaussian sums rarely show a reordering
        once rounded to float32; these show it at once."""
        layer = Conv2d(3, 4, kernel, stride, padding)
        ones = np.float32([1, -1])

        def draw(shape):
            return rng.choice(ones, shape)

        for n in self.BATCHES:
            (w, b), x, gy = conv_inputs(layer, n, (9, 8), draw)
            target = {"x": x, "w": w, "gy": gy}[operand]
            big = rng.random(target.shape) < 0.1
            target[big] *= np.float32(2**60)
            self.check(layer, [w, b], x, gy)

    @pytest.mark.parametrize("operand", ["x", "w", "gy"])
    @pytest.mark.parametrize("kernel,stride,padding",
                             [(3, 1, 1), (2, 2, 0), (5, 3, 2), (1, 1, 0),
                              (4, 1, 2)])
    def test_non_finite(self, rng, operand, kernel, stride, padding):
        """+-inf, three NaN bit patterns and -0.0 scattered through one
        operand of Gaussian data."""
        layer = Conv2d(3, 4, kernel, stride, padding)

        def draw(shape):
            return rng.standard_normal(shape).astype(np.float32)

        for n in self.BATCHES:
            (w, b), x, gy = conv_inputs(layer, n, (9, 8), draw)
            target = {"x": x, "w": w, "gy": gy}[operand]
            hit = rng.random(target.shape) < 0.05
            target[hit] = rng.choice(self.SPECIALS, int(hit.sum()))
            self.check(layer, [w, b], x, gy)


class TestInputGrad:
    LAYERS =[Conv2d(2, 3, 3, 1, 1), ReLU(), MaxPool2d(2, 2), Flatten(),
              FullyConnected(3 * 3 * 3, 8), SoftmaxCrossEntropy()]

    @pytest.mark.parametrize("start", [0, 4])
    def test_block_input_grad_only_when_asked(self, rng, start):
        """Skipping the input gradient leaves every parameter gradient
        bit-identical; starting at Conv2d or at FullyConnected."""
        layers = self.LAYERS[start:]
        params = seeded_init(layers, 6)
        x = rng.standard_normal(
            (5, 2, 6, 6) if start == 0 else (5, 27)).astype(np.float32)
        labels = rng.integers(0, 8, 5)
        _, caches = block_forward(layers, params, x, labels=labels)
        gx_off, grads_off = block_backward(layers, params, caches, None)
        gx_on, grads_on = block_backward(layers, params, caches, None,
                                         input_grad=True)
        assert gx_off is None
        assert gx_on.shape == x.shape
        for la, lb in zip(grads_off, grads_on):
            assert len(la) == len(lb)
            for a, b in zip(la, lb):
                np.testing.assert_array_equal(a, b)

    def test_single_layer_skips_input_grad(self, rng):
        for layer in self.LAYERS[:-1]:
            x = rng.standard_normal(
                (4, 27) if isinstance(layer, FullyConnected)
                else (4, 2, 6, 6)).astype(np.float32)
            params = seeded_init([layer], 7)[0]
            y, cache = forward(layer, params, x)
            gy = rng.standard_normal(y.shape).astype(np.float32)
            gx, grads = backward(layer, params, cache, gy, input_grad=False)
            assert gx is None
            _, want = backward(layer, params, cache, gy)
            assert len(grads) == len(want)
            for a, b in zip(grads, want):
                np.testing.assert_array_equal(a, b)


class TestShapeChecks:
    def test_conv_wrong_channels(self):
        layer = Conv2d(3, 8, 3)
        params = seeded_init([layer], 0)[0]
        with pytest.raises(ShapeMismatch):
            forward(layer, params, np.zeros((1, 4, 8, 8), dtype=np.float32))

    def test_fc_wrong_dim(self):
        layer = FullyConnected(4, 2)
        params = seeded_init([layer], 0)[0]
        with pytest.raises(ShapeMismatch):
            forward(layer, params, np.zeros((1, 5), dtype=np.float32))

    def test_pool_too_large(self):
        with pytest.raises(ShapeMismatch):
            forward(MaxPool2d(4, 4), [], np.zeros((1, 1, 3, 3), dtype=np.float32))

    @pytest.mark.parametrize("layer", [
        Conv2d(3, 4, 3), Conv2d(3, 4, 5, 2, 1), MaxPool2d(2, 2),
        MaxPool2d(3, 3), Flatten(), FullyConnected(6, 2), ReLU(),
        SoftmaxCrossEntropy()], ids=repr)
    def test_forward_rejects_where_out_shape_does(self, layer):
        params = seeded_init([layer], 0)[0]
        for shape in [(), (2,), (2, 6), (2, 5), (2, 3, 6), (2, 3, 4, 4),
                      (2, 3, 2, 2), (2, 3, 2, 7), (2, 4, 4, 4), (2, 6, 1, 1),
                      (2, 3, 4, 4, 1)]:
            x = np.ones(shape, dtype=np.float32)
            labels = np.zeros(shape[:1], dtype=np.int64)
            try:
                want = shape[:1] + out_shape(layer, shape[1:])
            except ShapeMismatch:
                with pytest.raises(ShapeMismatch):
                    forward(layer, params, x, labels=labels)
            else:
                out, _ = forward(layer, params, x, labels=labels)
                assert out.shape == want, shape

    def test_out_shape_chain(self):
        shape = (3, 16, 16)
        shape = out_shape(Conv2d(3, 8, 3, 1, 1), shape)
        assert shape == (8, 16, 16)
        shape = out_shape(MaxPool2d(2, 2), shape)
        assert shape == (8, 8, 8)
        assert out_shape(Flatten(), shape) == (512,)


class TestSgdStep:
    def test_momentum_two_steps_hand_computed(self):
        """v=g/n then 0.9v+g/n; w follows 2.0 -> 1.9 -> 1.71."""
        params = [[np.array([2.0], dtype=np.float32)]]
        opt = OptimizerState.for_params(params, lr=0.1, momentum=0.9)
        g = [[np.array([4.0], dtype=np.float32)]]
        sgd_step(params, g, 4, opt)
        assert params[0][0][0] == pytest.approx(1.9, rel=1e-6)
        sgd_step(params, g, 4, opt)
        assert params[0][0][0] == pytest.approx(1.71, rel=1e-6)

    def test_zero_momentum_is_plain_sgd(self, rng):
        w0 = rng.standard_normal(10).astype(np.float32)
        g = rng.standard_normal(10).astype(np.float32)
        params = [[w0.copy()]]
        opt = OptimizerState.for_params(params, lr=0.05, momentum=0.0)
        sgd_step(params, [[g.copy()]], 8, opt)
        expected = w0 - np.float32(0.05) * (g * (np.float32(1.0) / np.float32(8)))
        np.testing.assert_array_equal(params[0][0], expected)

    def test_momentum_range_checked(self):
        with pytest.raises(ValueError):
            OptimizerState(lr=0.1, momentum=1.0)

    @pytest.mark.parametrize("lr,momentum", [
        (0.0, 0.9), (-0.1, 0.9), (float("nan"), 0.9),
        (0.1, 1.5), (0.1, -0.1), (0.1, float("nan")),
    ])
    def test_settings_are_config_errors(self, lr, momentum):
        with pytest.raises(ConfigError):
            OptimizerState(lr=lr, momentum=momentum)

    def test_grad_shape_checked(self):
        params = [[np.zeros(3, dtype=np.float32)]]
        opt = OptimizerState.for_params(params, lr=0.1)
        with pytest.raises(ShapeMismatch):
            sgd_step(params, [[np.zeros(4, dtype=np.float32)]], 1, opt)


class TestSeededInit:
    def test_deterministic(self):
        layers = [Conv2d(3, 8, 3, 1, 1), ReLU(), FullyConnected(16, 4)]
        a = seeded_init(layers, 42)
        b = seeded_init(layers, 42)
        for la, lb in zip(a, b):
            for ta, tb in zip(la, lb):
                np.testing.assert_array_equal(ta, tb)
        c = seeded_init(layers, 43)
        assert any(not np.array_equal(ta, tc)
                   for la, lc in zip(a, c) for ta, tc in zip(la, lc))

    def test_negative_seed_is_config_error(self):
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            seeded_init([FullyConnected(4, 2)], -1)

    def test_fan_in_bounds(self):
        layers = [FullyConnected(100, 50)]
        (w, b), = seeded_init(layers, 0)
        s = np.sqrt(1.0 / 100)
        assert np.abs(w).max() <= s
        assert np.abs(b).max() <= s
        assert w.dtype == np.float32
        # uniform on [-s, s] has std s/sqrt(3)
        assert np.std(w) == pytest.approx(s / np.sqrt(3), rel=0.05)

    def test_param_shapes(self):
        assert param_shapes(Conv2d(3, 8, 5)) == [(8, 3, 5, 5), (8,)]
        assert param_shapes(FullyConnected(9216, 4096)) == [(9216, 4096), (4096,)]
        assert param_count(FullyConnected(9216, 4096)) == 37_752_832
        assert param_shapes(ReLU()) == []


class TestSerialization:
    def test_roundtrip_bit_exact(self, rng):
        layers = [Conv2d(3, 4, 3), ReLU(), FullyConnected(8, 2)]
        params = seeded_init(layers, 7)
        blob = serialize_params(params)
        back = deserialize_params(blob)
        assert len(back) == len(params)
        for la, lb in zip(params, back):
            assert len(la) == len(lb)
            for ta, tb in zip(la, lb):
                assert ta.shape == tb.shape
                np.testing.assert_array_equal(ta, tb)

    def test_deterministic_bytes(self):
        params = seeded_init([FullyConnected(6, 3)], 9)
        assert serialize_params(params) == serialize_params(params)

    def test_bad_magic(self):
        blob = serialize_params([[np.ones(3, dtype=np.float32)]])
        with pytest.raises(CorruptCheckpoint):
            deserialize_params(b"XXXX" + blob[4:])

    def test_truncated(self):
        blob = serialize_params([[np.ones(100, dtype=np.float32)]])
        with pytest.raises(CorruptCheckpoint):
            deserialize_params(blob[:-10])

    def test_trailing_garbage(self):
        blob = serialize_params([[np.ones(3, dtype=np.float32)]])
        with pytest.raises(CorruptCheckpoint):
            deserialize_params(blob + b"\x00\x00")
