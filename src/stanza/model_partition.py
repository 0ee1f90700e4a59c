"""Model specs, the CONV/FC split, parameter counting, and count profiles.

A ModelSpec is either *executable* (a concrete layer list that the numeric
core can run) or a *profile* (parameter/activation counts only, for byte
accounting and the performance model; no math can run on it).

Specs load from a small declarative text format, one `key value...` pair per
line; see parse_model_text for the grammar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .tensor_core import (ConfigError, Conv2d, Flatten, FullyConnected,
                          LayerKind, MaxPool2d, ReLU, ShapeMismatch,
                          SoftmaxCrossEntropy, out_shape, param_count)


class NoFcLayer(ConfigError):
    """Model has no FullyConnected layer to separate."""


class NoConvBlock(ConfigError):
    """Nothing precedes the first FullyConnected layer."""


class BadBoundary(ConfigError):
    """Requested split index does not separate the model into two blocks."""


class NotExecutable(ConfigError):
    """Operation needs concrete layers but the spec is a count profile."""


_PROFILE_COUNTS = ("params_total", "params_conv", "boundary_activations")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description.

    Executable specs carry `layers` plus the per-sample `input_shape`.
    Profiles carry counts: params_total, params_conv, boundary_activations.
    params_total is every spec's parameter count P; an executable spec
    computes it from its layers, and a conflicting value, or either of the
    other two counts, is a ConfigError.
    batch_k is the per-worker minibatch size the model is normally run with.

    Each construction, dataclasses.replace included, checks the spec and
    raises ConfigError, or ShapeMismatch for a stack that misfits its input.
    """
    name: str
    batch_k: int
    layers: tuple[LayerKind, ...] | None = None
    input_shape: tuple[int, ...] | None = None
    params_total: int | None = None
    params_conv: int | None = None
    boundary_activations: int | None = None

    def __post_init__(self):
        if self.batch_k < 1:
            raise ConfigError(f"batch_k must be at least 1, got {self.batch_k}")
        if self.layers is not None:
            if not self.layers:
                raise ConfigError("empty layer list")
            for count in ("params_conv", "boundary_activations"):
                if getattr(self, count) is not None:
                    raise ConfigError(f"{self.name} has layers, so it takes "
                                      f"no profile count {count}")
            shape = self.input_shape
            for layer in self.layers:  # raises ShapeMismatch on a misfit
                shape = out_shape(layer, shape)
            total = sum(param_count(layer) for layer in self.layers)
            if self.params_total not in (None, total):
                raise ConfigError(f"{self.name} has {total} parameters, not "
                                  f"params_total={self.params_total}")
            object.__setattr__(self, "params_total", total)
            return
        missing = [k for k in _PROFILE_COUNTS if getattr(self, k) is None]
        if missing:
            raise ConfigError(f"{self.name} has neither layers nor a full "
                              f"profile: missing {missing}")
        if not 0 < self.params_conv < self.params_total:
            raise ConfigError("need 0 < params_conv < params_total")
        if self.boundary_activations < 1:
            raise ConfigError("boundary_activations must be at least 1, got "
                              f"{self.boundary_activations}")

    @property
    def is_profile(self) -> bool:
        return self.layers is None

    def require_layers(self) -> tuple[LayerKind, ...]:
        if self.layers is None:
            raise NotExecutable(f"{self.name} is a count profile")
        return self.layers

    def check_batch(self, x) -> None:
        """ShapeMismatch unless x holds one worker batch of batch_k samples."""
        if x.shape[0] != self.batch_k:
            raise ShapeMismatch(f"batch has {x.shape[0]} samples, expected "
                                f"batch_k={self.batch_k}")


def executable_spec(name: str, layers: Iterable[LayerKind],
                    input_shape: tuple[int, ...], batch_k: int) -> ModelSpec:
    """An executable spec; ModelSpec shape-checks the whole stack."""
    return ModelSpec(name=name, batch_k=batch_k, layers=tuple(layers),
                     input_shape=tuple(input_shape))


def profile_spec(name: str, params_total: int, params_conv: int,
                 boundary_activations: int, batch_k: int) -> ModelSpec:
    return ModelSpec(name=name, batch_k=batch_k, params_total=int(params_total),
                     params_conv=int(params_conv),
                     boundary_activations=int(boundary_activations))


# ---------------------------------------------------------------------------
# Counting and splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """A model cut in two: a front (CONV-role) block and a back (FC-role) block.

    split_index: layers[:split_index] form the front block, layers[split_index:]
    the back block (None for profiles). boundary_activations is the per-sample
    element count crossing the cut.
    """
    spec: ModelSpec
    split_index: int | None
    conv_params: int
    fc_params: int
    boundary_activations: int

    @property
    def conv_block(self) -> tuple[LayerKind, ...]:
        return self.spec.require_layers()[:self.split_index]

    @property
    def fc_block(self) -> tuple[LayerKind, ...]:
        return self.spec.require_layers()[self.split_index:]


def _cut_at(spec: ModelSpec, cut: int) -> Partition:
    """An executable spec cut before layers[cut]; the back block holds the
    rest of P."""
    shape = spec.input_shape
    for layer in spec.layers[:cut]:
        shape = out_shape(layer, shape)
    conv = sum(param_count(layer) for layer in spec.layers[:cut])
    return Partition(spec=spec, split_index=cut, conv_params=conv,
                     fc_params=spec.params_total - conv,
                     boundary_activations=int(np.prod(shape)))


def split(spec: ModelSpec, boundary: int | None = None) -> Partition:
    """Separate the model at the last pooling/flatten stage before the FC stack.

    The front block ends at the last MaxPool2d or Flatten that precedes the
    first FullyConnected layer, so the boundary payload is the (flattened)
    activation of the final pooling stage. Raises NoFcLayer / NoConvBlock when
    the model has no FC stack or nothing in front of it. An explicit
    `boundary` layer index cuts there instead, through mlp_split; every
    caller picks its cut here.
    """
    if boundary is not None:
        return mlp_split(spec, boundary)
    if spec.is_profile:
        fc = spec.params_total - spec.params_conv
        return Partition(spec=spec, split_index=None,
                         conv_params=spec.params_conv, fc_params=fc,
                         boundary_activations=spec.boundary_activations)
    layers = spec.layers
    first_fc = next((i for i, l in enumerate(layers)
                     if isinstance(l, FullyConnected)), None)
    if first_fc is None:
        raise NoFcLayer(f"{spec.name} has no FullyConnected layer")
    cut = None
    for i in range(first_fc - 1, -1, -1):
        if isinstance(layers[i], (MaxPool2d, Flatten)):
            cut = i + 1
            break
    if cut is None:
        raise NoConvBlock(f"{spec.name} has no pooling/flatten stage before "
                          "its first FullyConnected layer")
    return _cut_at(spec, cut)


def mlp_split(spec: ModelSpec, boundary: int) -> Partition:
    """Split a fully-connected model at an explicit inter-layer index.

    layers[:boundary] form the front block, layers[boundary:] the back block.
    The boundary must leave at least one FullyConnected layer on each side.
    """
    layers = spec.require_layers()
    if not any(isinstance(l, FullyConnected) for l in layers):
        raise NoFcLayer(f"{spec.name} has no FullyConnected layer")
    if not 0 < boundary < len(layers):
        raise BadBoundary(f"boundary {boundary} outside (0, {len(layers)})")
    front, back = layers[:boundary], layers[boundary:]
    if not any(isinstance(l, FullyConnected) for l in front):
        raise BadBoundary("front block has no FullyConnected layer")
    if not any(isinstance(l, FullyConnected) for l in back):
        raise BadBoundary("back block has no FullyConnected layer")
    return _cut_at(spec, boundary)


# ---------------------------------------------------------------------------
# Declarative text format
# ---------------------------------------------------------------------------

# layer keyword -> (argument count, layer kind built from the arguments)
_LAYER_KINDS = {"conv": (5, Conv2d), "maxpool": (2, MaxPool2d),
                "flatten": (0, Flatten), "fc": (2, FullyConnected),
                "relu": (0, ReLU), "softmax_ce": (0, SoftmaxCrossEntropy)}


def parse_kv_text(text: str) -> list[tuple[str, list[str]]]:
    """Shared line grammar: `key value...` pairs, '#' comments, blank lines ok.
    Only `layer` may be given more than once."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0].lower()
        if key != "layer" and any(key == seen for seen, _ in rows):
            raise ConfigError(f"{key!r} is given twice")
        rows.append((key, parts[1:]))
    return rows


def parse_model_text(text: str) -> ModelSpec:
    """Parse a model/profile spec from declarative text.

    Grammar (one `key value...` per line, '#' starts a comment):

        name <ident>                    required
        batch_k <int>                   required
        input <C> <H> <W>  |  input <D> executable specs only
        layer conv <in> <out> <k> <stride> <pad>
        layer maxpool <k> <stride>
        layer flatten
        layer fc <in> <out>
        layer relu
        layer softmax_ce
        params_total <int>              profiles only
        params_conv <int>               profiles only
        boundary_activations <int>      profiles only

    A spec is a profile iff it has params_total; profiles must not list layers.
    """
    name = None
    batch_k = None
    input_shape = None
    layers: list[LayerKind] = []
    counts: dict[str, int] = {}
    for key, args in parse_kv_text(text):
        try:
            if key == "name":
                (name,) = args
            elif key == "batch_k":
                (batch_k,) = (int(a) for a in args)
            elif key == "input":
                input_shape = tuple(int(a) for a in args)
            elif key == "layer":
                kind = args[0].lower()
                if kind not in _LAYER_KINDS:
                    raise ConfigError(f"unknown layer kind {kind!r}")
                arity, make = _LAYER_KINDS[kind]
                vals = [int(a) for a in args[1:]]
                if len(vals) != arity:
                    raise ConfigError(f"layer {kind} takes {arity} args, got {len(vals)}")
                layers.append(make(*vals))
            elif key in _PROFILE_COUNTS:
                (counts[key],) = (int(a) for a in args)
            else:
                raise ConfigError(f"unknown key {key!r}")
        except (ValueError, IndexError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"bad arguments for {key!r}: {args}") from exc
    if name is None or batch_k is None:
        raise ConfigError("spec needs `name` and `batch_k`")
    if counts and layers:
        raise ConfigError("a spec is either a profile or a layer list, not both")
    if layers and input_shape is None:
        raise ConfigError("executable spec needs `input`")
    try:
        return ModelSpec(name=name, batch_k=batch_k,
                         layers=tuple(layers) or None,
                         input_shape=input_shape, **counts)
    except ShapeMismatch as exc:
        raise ConfigError(f"layer stack does not fit: {exc}") from None


def load_model_file(path) -> ModelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model_text(fh.read())


# ---------------------------------------------------------------------------
# Built-in specs
# ---------------------------------------------------------------------------

def tiny_cnn(batch_k: int = 4) -> ModelSpec:
    """Small executable CNN on 16x16x3 inputs; boundary activations = 256."""
    return executable_spec("tiny_cnn", [
        Conv2d(3, 8, 3, 1, 1), ReLU(), MaxPool2d(2, 2),
        Conv2d(8, 16, 3, 1, 1), ReLU(), MaxPool2d(2, 2),
        Flatten(),
        FullyConnected(256, 128), ReLU(), FullyConnected(128, 10),
        SoftmaxCrossEntropy(),
    ], input_shape=(3, 16, 16), batch_k=batch_k)


def tiny_mlp(batch_k: int = 4) -> ModelSpec:
    """Small executable MLP for layer-separation tests on flat inputs."""
    return executable_spec("tiny_mlp", [
        FullyConnected(64, 48), ReLU(),
        FullyConnected(48, 48), ReLU(),
        FullyConnected(48, 96), ReLU(),
        FullyConnected(96, 10),
        SoftmaxCrossEntropy(),
    ], input_shape=(64,), batch_k=batch_k)


# Count profiles for the standard ImageNet-scale models. Parameter counts are
# exact architecture arithmetic (conv/fc weight and bias elements); boundary
# activations are the flattened output of each network's last pooling stage.
PROFILES: dict[str, ModelSpec] = {
    "alexnet": profile_spec("alexnet", params_total=61_100_840,
                            params_conv=2_469_696,
                            boundary_activations=9216, batch_k=128),
    "vgg16": profile_spec("vgg16", params_total=138_357_544,
                          params_conv=14_714_688,
                          boundary_activations=25088, batch_k=64),
    "vgg19": profile_spec("vgg19", params_total=143_667_240,
                          params_conv=20_024_384,
                          boundary_activations=25088, batch_k=64),
    "inception_v3": profile_spec("inception_v3", params_total=27_161_264,
                                 params_conv=25_112_264,
                                 boundary_activations=2048, batch_k=32),
    "resnet152": profile_spec("resnet152", params_total=60_192_808,
                              params_conv=58_143_808,
                              boundary_activations=2048, batch_k=32),
}


def builtin_model(name: str) -> ModelSpec:
    """Look up a built-in spec by name (tiny_cnn, tiny_mlp, or a profile)."""
    if name == "tiny_cnn":
        return tiny_cnn()
    if name == "tiny_mlp":
        return tiny_mlp()
    if name in PROFILES:
        return PROFILES[name]
    raise ConfigError(f"unknown model {name!r} (built-ins: tiny_cnn, tiny_mlp, "
                      f"{', '.join(sorted(PROFILES))})")
