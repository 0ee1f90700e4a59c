"""Numeric core: layers, gradients, momentum SGD, init, serialization.

All tensors are float32 numpy arrays in C (row-major) order with the batch
dimension leading. Layer contractions accumulate in float64 internally and
round results back to float32, so sharded-plus-summed gradients stay within a
few ulps of a monolithic pass over the same samples. Backward passes return
gradient *sums* over the batch; division by the global batch size happens
exactly once, inside sgd_step.

Conv2d runs as patch-matrix (im2col) contractions. The forward casts its
input once, into a zero-padded float64 copy, and caches that copy for the
backward, so no patch is cast again. Each call allocates one float64 patch
buffer of at most _CONV_CHUNK samples and refills it, chunk by chunk, from a
read-only strided view of the padded input: per sample, a row per kernel tap
(c, kh, kw) and a column per output cell (oh, ow). Forward is one matrix
product of the reshaped weight with a chunk's patches; backward builds them
again, contracts them with the output gradient for the weight gradient, and
scatters weight-times-gradient back over the k*k taps (col2im) for the input
gradient, writing that product into the spent patch buffer. float32 products
are exact in float64, so another summation order moves a sum only by float64
rounding: results are exact on integer-valued inputs, and move by at most one
float32 ulp elsewhere unless a sum cancels almost to zero.

MaxPool2d and ReLU copy no windows. Pooling reads its k*k taps as strided
views of the input, tap kh*k + kw holding cell (kh, kw) of every window. The
output is a running np.maximum over the taps, which returns its second
operand on a tie (the signed-zero tests pin this), so the earlier tap wins
+0.0 against -0.0 as under argmax. The cached tap number `arg`, of the
smallest unsigned type that holds k*k - 1, counts the leading taps that hold
neither the max nor a NaN; a NaN window thus picks its first NaN, and the
output takes that NaN's bits (of two NaNs np.maximum keeps the later). With
kernel <= stride the windows are disjoint, and the backward writes each
tap's view once: the gradient's bits where `arg` names the tap, zero bits
elsewhere (adding 0 first turns -0.0 into +0.0, as bincount's float64 sum
from zero does). Overlapping windows keep one bincount scatter. ReLU's
backward multiplies the gradient's uint32 bits by the forward's bool mask.
All three are byte-identical to an argmax over gathered windows and to
np.where, for every input.

backward() and block_backward() take `input_grad`. Without it the input
gradient is neither computed nor returned (it comes back as None); only the
layer-separated FC step reads the gradient at a block's input, so
block_backward leaves it off by default.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

FLOAT = np.float32

# Samples per Conv2d patch-matrix chunk, and so the size of the one float64
# patch buffer a call refills per chunk: 0.9 MB at tiny_cnn's first layer,
# where a whole 64-sample batch would take 3.5 MB.
_CONV_CHUNK = 16


class ConfigError(ValueError):
    """A bad run input; the command line exits 2 on it."""


class ShapeMismatch(ValueError):
    """Input shape is incompatible with the layer."""


class CorruptCheckpoint(ValueError):
    """Serialized parameter blob failed validation."""


# ---------------------------------------------------------------------------
# Layer kinds (architecture only; parameters live in separate arrays)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Conv2d:
    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class MaxPool2d:
    kernel: int
    stride: int


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class FullyConnected:
    in_dim: int
    out_dim: int


@dataclass(frozen=True)
class ReLU:
    pass


@dataclass(frozen=True)
class SoftmaxCrossEntropy:
    pass


LayerKind = Union[Conv2d, MaxPool2d, Flatten, FullyConnected, ReLU,
                  SoftmaxCrossEntropy]


def param_shapes(layer: LayerKind) -> list[tuple[int, ...]]:
    """Shapes of the layer's parameter tensors (weight first, then bias)."""
    if isinstance(layer, Conv2d):
        return [(layer.out_ch, layer.in_ch, layer.kernel, layer.kernel),
                (layer.out_ch,)]
    if isinstance(layer, FullyConnected):
        return [(layer.in_dim, layer.out_dim), (layer.out_dim,)]
    return []


def param_count(layer: LayerKind) -> int:
    return sum(int(np.prod(s)) for s in param_shapes(layer))


def fan_in(layer: LayerKind) -> int:
    if isinstance(layer, Conv2d):
        return layer.in_ch * layer.kernel * layer.kernel
    if isinstance(layer, FullyConnected):
        return layer.in_dim
    raise ValueError(f"{layer!r} has no parameters")


def out_shape(layer: LayerKind, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Per-sample output shape given a per-sample input shape.

    Raises ShapeMismatch when the input cannot feed the layer. Conv inputs are
    (C, H, W); FullyConnected inputs are (D,).
    """
    if isinstance(layer, Conv2d):
        if len(in_shape) != 3 or in_shape[0] != layer.in_ch:
            raise ShapeMismatch(f"Conv2d expects ({layer.in_ch}, H, W), got {in_shape}")
        _, h, w = in_shape
        oh = (h + 2 * layer.padding - layer.kernel) // layer.stride + 1
        ow = (w + 2 * layer.padding - layer.kernel) // layer.stride + 1
        if oh <= 0 or ow <= 0:
            raise ShapeMismatch(f"Conv2d kernel {layer.kernel} too large for {in_shape}")
        return (layer.out_ch, oh, ow)
    if isinstance(layer, MaxPool2d):
        if len(in_shape) != 3:
            raise ShapeMismatch(f"MaxPool2d expects (C, H, W), got {in_shape}")
        c, h, w = in_shape
        oh = (h - layer.kernel) // layer.stride + 1
        ow = (w - layer.kernel) // layer.stride + 1
        if oh <= 0 or ow <= 0:
            raise ShapeMismatch(f"MaxPool2d kernel {layer.kernel} too large for {in_shape}")
        return (c, oh, ow)
    if isinstance(layer, Flatten):
        if not in_shape:
            raise ShapeMismatch("Flatten expects a per-sample tensor, got ()")
        return (int(np.prod(in_shape)),)
    if isinstance(layer, FullyConnected):
        if len(in_shape) != 1 or in_shape[0] != layer.in_dim:
            raise ShapeMismatch(f"FullyConnected expects ({layer.in_dim},), got {in_shape}")
        return (layer.out_dim,)
    if isinstance(layer, ReLU):
        return in_shape
    if isinstance(layer, SoftmaxCrossEntropy):
        # per-sample scalar loss
        if len(in_shape) != 1:
            raise ShapeMismatch(f"SoftmaxCrossEntropy expects logits (C,), got {in_shape}")
        return ()
    raise TypeError(f"unknown layer kind {layer!r}")


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _patches(xp: np.ndarray, s: int, buf: np.ndarray) -> np.ndarray:
    """Fill buf[:n] with the patch matrices of a padded float64 batch of n
    samples and return them as (n, c*k*k, oh*ow): per sample, row (c, kh, kw)
    holds that tap's input under every output cell. buf is (chunk, c, k, k,
    oh, ow) float64, and the windows are read through one strided view."""
    sn, sc, sh, sw = xp.strides
    cols = buf[:len(xp)]
    cols[...] = as_strided(xp, cols.shape, (sn, sc, sh, sw, s * sh, s * sw),
                           writeable=False)
    n, c, k, _, oh, ow = cols.shape
    return cols.reshape(n, c * k * k, oh * ow)


def _taps(x: np.ndarray, k: int, s: int, oh: int, ow: int) -> list[np.ndarray]:
    """Strided views of a batch, one per pooling tap in (kh, kw) order: tap
    kh * k + kw holds that tap's cell under every (oh, ow) window."""
    return [x[:, :, kh:kh + s * oh:s, kw:kw + s * ow:s]
            for kh in range(k) for kw in range(k)]


def _max_index(arg: np.ndarray, k: int, s: int, x_shape) -> np.ndarray:
    """Flat input index of each pooling window's max, from its tap number."""
    n, c, h, w = x_shape
    rows = (np.arange(arg.shape[2]) * s)[:, None] + arg // k
    cols = np.arange(arg.shape[3]) * s + arg % k
    planes = np.arange(n * c).reshape(n, c, 1, 1) * (h * w)
    return planes + rows * w + cols


def forward(layer: LayerKind, params: Sequence[np.ndarray], x: np.ndarray,
            labels: np.ndarray | None = None):
    """Run one layer over a batch. Returns (output, cache).

    The cache is whatever backward() for the same layer needs. For
    SoftmaxCrossEntropy the output is the per-sample loss vector and `labels`
    (integer class ids) is required. out_shape checks the input's geometry
    and raises ShapeMismatch when it cannot feed the layer.
    """
    shape = out_shape(layer, x.shape[1:])
    if isinstance(layer, Conv2d):
        n, c, h, wd = x.shape
        w, b = params
        p, s, k = layer.padding, layer.stride, layer.kernel
        oh, ow = shape[1], shape[2]
        # the one float32 -> float64 cast; backward reads this pad too
        xp = np.zeros((n, c, h + 2 * p, wd + 2 * p))
        xp[:, :, p:p + h, p:p + wd] = x
        wmat = w.reshape(layer.out_ch, -1).astype(np.float64)
        b64 = b.astype(np.float64)[:, None]
        buf = np.empty((min(n, _CONV_CHUNK), c, k, k, oh, ow))
        ybuf = np.empty((len(buf), layer.out_ch, oh * ow))
        out = np.empty((n, *shape), dtype=FLOAT)
        rows = out.reshape(n, layer.out_ch, oh * ow)
        for lo in range(0, n, _CONV_CHUNK):
            cols = _patches(xp[lo:lo + _CONV_CHUNK], s, buf)
            y = np.matmul(wmat, cols, out=ybuf[:len(cols)])
            y += b64
            rows[lo:lo + _CONV_CHUNK] = y
        return out, xp

    if isinstance(layer, MaxPool2d):
        k, s = layer.kernel, layer.stride
        taps = _taps(x, k, s, shape[1], shape[2])
        # np.maximum returns its second operand on a tie (+0.0 vs -0.0), so
        # the earlier tap wins it, as it does for argmax
        out = taps[0].copy()
        for v in taps[1:]:
            np.maximum(v, out, out=out)
        # np.maximum propagates NaN, so no tap holds one unless out does
        nan = out != out
        has_nan = nan.any()
        # arg counts the leading taps that hold neither the max nor a NaN
        arg = np.zeros(out.shape, np.min_scalar_type(k * k - 1))
        miss = np.ones(out.shape, dtype=bool)
        for v in taps[:-1]:
            miss &= v != out
            if has_nan:
                miss &= v == v
            arg += miss
        # of two NaNs np.maximum keeps the later; argmax picks the first
        if has_nan:
            out[nan] = x.ravel()[_max_index(arg, k, s, x.shape)[nan]]
        return out, (arg, x.shape)

    if isinstance(layer, Flatten):
        return np.ascontiguousarray(x).reshape(len(x), -1), x.shape

    if isinstance(layer, FullyConnected):
        w, b = params
        y = x.astype(np.float64) @ w.astype(np.float64) + b.astype(np.float64)
        return y.astype(FLOAT), x

    if isinstance(layer, ReLU):
        return np.maximum(x, 0), (x > 0)

    if isinstance(layer, SoftmaxCrossEntropy):
        if labels is None:
            raise ValueError("SoftmaxCrossEntropy needs labels")
        if labels.shape[0] != x.shape[0]:
            raise ShapeMismatch(f"{labels.shape[0]} labels for batch of {x.shape[0]}")
        z = x.astype(np.float64)
        z = z - z.max(axis=1, keepdims=True)
        ez = np.exp(z)
        probs = ez / ez.sum(axis=1, keepdims=True)
        idx = np.arange(x.shape[0])
        losses = -np.log(probs[idx, labels])
        return losses.astype(FLOAT), (probs, labels)

    raise TypeError(f"unknown layer kind {layer!r}")


def backward(layer: LayerKind, params: Sequence[np.ndarray], cache,
             gy: np.ndarray | None, input_grad: bool = True):
    """Backward pass for one layer. Returns (grad_input, param_grad_list).

    gy is the gradient of the summed loss w.r.t. the layer output. For
    SoftmaxCrossEntropy gy is ignored (the layer is the loss head; its
    backward emits the gradient of the per-batch loss sum w.r.t. the logits).
    Param grads are sums over the batch. With input_grad False the input
    gradient is not computed and grad_input is None.
    """
    if not input_grad and not isinstance(layer, (Conv2d, FullyConnected)):
        return None, []

    if isinstance(layer, Conv2d):
        w, _ = params
        xp = cache
        k, s, p = layer.kernel, layer.stride, layer.padding
        n, c, hp, wp = xp.shape
        oh, ow = gy.shape[2], gy.shape[3]
        wmat = w.reshape(layer.out_ch, -1).astype(np.float64)
        g64 = gy.reshape(n, layer.out_ch, oh * ow).astype(np.float64)
        gw = np.zeros(wmat.shape)
        gxp = np.zeros(xp.shape) if input_grad else None
        buf = np.empty((min(n, _CONV_CHUNK), c, k, k, oh, ow))
        gwbuf = np.empty((len(buf), *wmat.shape))
        for lo in range(0, n, _CONV_CHUNK):
            g = g64[lo:lo + _CONV_CHUNK]
            cols = _patches(xp[lo:lo + _CONV_CHUNK], s, buf)
            gw += np.matmul(g, cols.transpose(0, 2, 1),
                            out=gwbuf[:len(g)]).sum(axis=0)
            if input_grad:
                # the chunk's patches are spent, so w^T g takes their buffer
                np.matmul(wmat.T, g, out=cols)
                gcols = buf[:len(g)]
                dst = gxp[lo:lo + _CONV_CHUNK]
                for kh in range(k):
                    for kw in range(k):
                        dst[:, :, kh:kh + s * oh:s, kw:kw + s * ow:s] += \
                            gcols[:, :, kh, kw]
        gb = g64.sum(axis=(0, 2))
        grads = [gw.reshape(w.shape).astype(FLOAT), gb.astype(FLOAT)]
        if not input_grad:
            return None, grads
        gx = gxp[:, :, p:hp - p, p:wp - p] if p else gxp
        return gx.astype(FLOAT), grads

    if isinstance(layer, MaxPool2d):
        arg, x_shape = cache
        k, s = layer.kernel, layer.stride
        if k > s:
            # overlapping windows: bincount sums a cell's gradients in float64
            gx = np.bincount(_max_index(arg, k, s, x_shape).ravel(),
                             weights=gy.ravel(), minlength=int(np.prod(x_shape)))
            return gx.reshape(x_shape).astype(FLOAT), []
        # disjoint windows: a cell takes at most one gradient; + 0 turns -0.0
        # into +0.0 as bincount's sum does
        g = (gy + 0).view(np.uint32)
        gx = np.zeros(x_shape, dtype=FLOAT)
        for t, view in enumerate(_taps(gx, k, s, arg.shape[2], arg.shape[3])):
            view[...] = (g * (arg == t)).view(FLOAT)
        return gx, []

    if isinstance(layer, Flatten):
        x_shape = cache
        return np.ascontiguousarray(gy).reshape(x_shape), []

    if isinstance(layer, FullyConnected):
        w, _ = params
        x = cache
        g64 = gy.astype(np.float64)
        gw = x.astype(np.float64).T @ g64
        gb = g64.sum(axis=0)
        grads = [gw.astype(FLOAT), gb.astype(FLOAT)]
        if not input_grad:
            return None, grads
        return (g64 @ w.astype(np.float64).T).astype(FLOAT), grads

    if isinstance(layer, ReLU):
        mask = cache
        return (gy.view(np.uint32) * mask).view(FLOAT), []

    if isinstance(layer, SoftmaxCrossEntropy):
        probs, labels = cache
        g = probs.copy()
        g[np.arange(len(labels)), labels] -= 1.0
        return g.astype(FLOAT), []

    raise TypeError(f"unknown layer kind {layer!r}")


def block_forward(layers: Sequence[LayerKind], params: Sequence[Sequence[np.ndarray]],
                  x: np.ndarray, labels: np.ndarray | None = None):
    """Forward through a list of layers. Returns (output, caches)."""
    caches = []
    for layer, p in zip(layers, params):
        x, cache = forward(layer, p, x, labels=labels)
        caches.append(cache)
    return x, caches


def block_backward(layers: Sequence[LayerKind], params: Sequence[Sequence[np.ndarray]],
                   caches, gy: np.ndarray | None, input_grad: bool = False):
    """Backward through a block. Returns (grad_input, per-layer param grads).

    gy is the upstream gradient w.r.t. the block output; pass None when the
    block ends with SoftmaxCrossEntropy. grad_input is None unless
    input_grad is set: the first layer's input gradient is skipped.
    """
    grads: list[list[np.ndarray]] = [[] for _ in layers]
    for i in range(len(layers) - 1, -1, -1):
        gy, g = backward(layers[i], params[i], caches[i], gy,
                         input_grad=input_grad or i > 0)
        grads[i] = g
    return gy, grads


# ---------------------------------------------------------------------------
# Init and optimizer
# ---------------------------------------------------------------------------

def seeded_init(layers: Sequence[LayerKind], seed: int) -> list[list[np.ndarray]]:
    """Deterministic fan-in uniform init: U[-s, s] with s = sqrt(1/fan_in).

    One generator seeded once; tensors drawn in layer order, weight before
    bias, so the same (layers, seed) always yields bit-identical parameters.
    A negative seed is a ConfigError.
    """
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    params: list[list[np.ndarray]] = []
    for layer in layers:
        tensors = []
        for shape in param_shapes(layer):
            s = float(np.sqrt(1.0 / fan_in(layer)))
            tensors.append(rng.uniform(-s, s, size=shape).astype(FLOAT))
        params.append(tensors)
    return params


@dataclass
class OptimizerState:
    """Momentum-SGD state for one parameter set (a list of layer param lists).

    The one check of the learning rate and momentum; NaN fails both, and
    an infinite learning rate fails too.
    """
    lr: float
    momentum: float = 0.9
    velocity: list[list[np.ndarray]] = field(default_factory=list)

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")

    @classmethod
    def for_params(cls, params, lr: float, momentum: float = 0.9) -> "OptimizerState":
        vel = [[np.zeros_like(t) for t in layer] for layer in params]
        return cls(lr=lr, momentum=momentum, velocity=vel)


def sgd_step(params, grads_sum, n: int, opt: OptimizerState):
    """One momentum-SGD step from gradient *sums* over n samples.

    v <- momentum * v + grads_sum / n
    w <- w - lr * v

    Updates params and opt.velocity in place (float32 arithmetic throughout)
    and returns params. With momentum 0 this is exactly
    w - (lr / n) * grads_sum.
    """
    inv_n = FLOAT(1.0) / FLOAT(n)
    lr = FLOAT(opt.lr)
    mu = FLOAT(opt.momentum)
    for li, layer_params in enumerate(params):
        for ti, w in enumerate(layer_params):
            g = grads_sum[li][ti]
            if g.shape != w.shape:
                raise ShapeMismatch(f"grad shape {g.shape} vs param shape {w.shape}")
            v = opt.velocity[li][ti]
            v *= mu
            v += g * inv_n
            w -= lr * v
    return params


# ---------------------------------------------------------------------------
# Serialization: flat little-endian binary
# ---------------------------------------------------------------------------

_MAGIC = b"STZT"
_VERSION = 1


def serialize_params(params) -> bytes:
    """Flat binary encoding of a parameter set.

    Layout (all little-endian): magic 'STZT', u32 version, u32 tensor count,
    then per tensor u32 ndim + u32 dims + raw float32 data in row-major order.
    Layer grouping is encoded as a leading u32 per layer via a layer-count
    header so the nested structure round-trips.
    """
    flat = []
    layer_sizes = []
    for layer_params in params:
        layer_sizes.append(len(layer_params))
        flat.extend(layer_params)
    out = [_MAGIC, struct.pack("<II", _VERSION, len(flat))]
    out.append(struct.pack("<I", len(layer_sizes)))
    out.append(struct.pack(f"<{len(layer_sizes)}I", *layer_sizes) if layer_sizes else b"")
    for t in flat:
        a = np.ascontiguousarray(t, dtype=FLOAT)
        out.append(struct.pack("<I", a.ndim))
        out.append(struct.pack(f"<{a.ndim}I", *a.shape) if a.ndim else b"")
        out.append(a.tobytes())
    return b"".join(out)


def deserialize_params(blob: bytes) -> list[list[np.ndarray]]:
    """Inverse of serialize_params. Raises CorruptCheckpoint on bad data."""
    try:
        if blob[:4] != _MAGIC:
            raise CorruptCheckpoint("bad magic")
        version, count = struct.unpack_from("<II", blob, 4)
        if version != _VERSION:
            raise CorruptCheckpoint(f"unsupported version {version}")
        off = 12
        (n_layers,) = struct.unpack_from("<I", blob, off)
        off += 4
        layer_sizes = struct.unpack_from(f"<{n_layers}I", blob, off)
        off += 4 * n_layers
        if sum(layer_sizes) != count:
            raise CorruptCheckpoint("tensor count disagrees with layer table")
        tensors = []
        for _ in range(count):
            (ndim,) = struct.unpack_from("<I", blob, off)
            off += 4
            shape = struct.unpack_from(f"<{ndim}I", blob, off)
            off += 4 * ndim
            size = int(np.prod(shape)) if ndim else 1
            nbytes = 4 * size
            if off + nbytes > len(blob):
                raise CorruptCheckpoint("truncated tensor data")
            a = np.frombuffer(blob, dtype="<f4", count=size, offset=off).reshape(shape)
            tensors.append(a.astype(FLOAT))
            off += nbytes
        if off != len(blob):
            raise CorruptCheckpoint(f"{len(blob) - off} trailing bytes")
    except struct.error as exc:
        raise CorruptCheckpoint(str(exc)) from exc
    params: list[list[np.ndarray]] = []
    i = 0
    for sz in layer_sizes:
        params.append(tensors[i:i + sz])
        i += sz
    return params


# ---------------------------------------------------------------------------
# Nested parameter-set utilities
# ---------------------------------------------------------------------------

def flatten_params(params) -> list[np.ndarray]:
    """All tensors of a nested parameter set, in layer order."""
    return [t for layer in params for t in layer]


def check_same_structure(reference, candidate, what: str) -> None:
    """Raise ShapeMismatch unless two nested sets have identical shapes."""
    ref_flat = flatten_params(reference)
    cand_flat = flatten_params(candidate)
    if len(ref_flat) != len(cand_flat):
        raise ShapeMismatch(f"{what}: expected {len(ref_flat)} tensors, "
                            f"got {len(cand_flat)}")
    for r, c in zip(ref_flat, cand_flat):
        if r.shape != c.shape:
            raise ShapeMismatch(f"{what}: tensor shape {c.shape} does not "
                                f"match model shape {r.shape}")


def pack_vector(params) -> np.ndarray:
    """Concatenate a nested parameter set into one flat float32 vector."""
    flat = flatten_params(params)
    if not flat:
        return np.zeros(0, dtype=FLOAT)
    return np.concatenate([np.ascontiguousarray(t, dtype=FLOAT).ravel()
                           for t in flat])


def unpack_vector(vec: np.ndarray, like) -> list[list[np.ndarray]]:
    """Slice a flat vector back into the nested shape of `like`."""
    nested: list[list[np.ndarray]] = []
    off = 0
    for layer in like:
        slots = []
        for t in layer:
            n = t.size
            slots.append(vec[off:off + n].reshape(t.shape))
            off += n
        nested.append(slots)
    if off != vec.size:
        raise ShapeMismatch(f"vector has {vec.size} elements, "
                            f"structure needs {off}")
    return nested
