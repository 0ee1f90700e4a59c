"""Model specs, the pooling-boundary split, counting, and the text format."""

import dataclasses

import numpy as np
import pytest

from stanza.harness import resolve_model
from stanza.model_partition import (BadBoundary, ConfigError, ModelSpec,
                                    NoConvBlock, NoFcLayer, NotExecutable,
                                    PROFILES, builtin_model,
                                    executable_spec, load_model_file,
                                    mlp_split, parse_model_text, profile_spec,
                                    split, tiny_cnn, tiny_mlp)
from stanza.tensor_core import (Conv2d, Flatten, FullyConnected, MaxPool2d,
                                ReLU, ShapeMismatch, SoftmaxCrossEntropy,
                                param_count)


def imagenet_style_mlp():
    """MLP with hidden layers 1024, 1024, 4096 on 3072-dim inputs."""
    return executable_spec("mlp_3072", [
        FullyConnected(3072, 1024), ReLU(),
        FullyConnected(1024, 1024), ReLU(),
        FullyConnected(1024, 4096), ReLU(),
        FullyConnected(4096, 10),
        SoftmaxCrossEntropy(),
    ], input_shape=(3072,), batch_k=32)


class TestSplit:
    def test_tiny_cnn_boundary(self):
        """The cut lands after Flatten; boundary is 4*4*16 = 256 activations."""
        part = split(tiny_cnn())
        assert part.split_index == 7
        assert part.boundary_activations == 256
        assert isinstance(part.conv_block[-1], Flatten)
        assert isinstance(part.fc_block[0], FullyConnected)

    def test_tiny_cnn_param_split(self):
        part = split(tiny_cnn())
        # conv1: 8*3*9+8, conv2: 16*8*9+16, fc1: 256*128+128, fc2: 128*10+10
        assert part.conv_params == 224 + 1168
        assert part.fc_params == 32896 + 1290
        total = sum(param_count(layer) for layer in tiny_cnn().layers)
        assert part.conv_params + part.fc_params == total == 35578

    def test_all_conv_params_stay_in_front_block(self):
        """Convolutions after the last pool still land in the CONV block."""
        spec = executable_spec("convy", [
            Conv2d(3, 4, 3, 1, 1), MaxPool2d(2, 2),
            Conv2d(4, 4, 3, 1, 1), ReLU(), Flatten(),
            FullyConnected(4 * 4 * 4, 10), SoftmaxCrossEntropy(),
        ], input_shape=(3, 8, 8), batch_k=2)
        part = split(spec)
        assert not any(isinstance(l, Conv2d) for l in part.fc_block)
        assert part.boundary_activations == 64

    def test_no_fc_layer(self):
        spec = executable_spec("headless", [Conv2d(3, 4, 3, 1, 1), ReLU()],
                               input_shape=(3, 8, 8), batch_k=2)
        with pytest.raises(NoFcLayer):
            split(spec)

    def test_no_conv_block(self):
        with pytest.raises(NoConvBlock):
            split(imagenet_style_mlp())

    def test_profile_split(self):
        part = split(PROFILES["alexnet"])
        assert part.split_index is None
        assert part.conv_params == 2_469_696
        assert part.fc_params == 58_631_144
        assert part.boundary_activations == 9216
        with pytest.raises(NotExecutable):
            _ = part.conv_block


class TestMlpSplit:
    def test_split_after_second_hidden_layer(self):
        """1024-1024-4096 MLP cut after hidden layer 2: boundary 1024 wide."""
        part = mlp_split(imagenet_style_mlp(), 4)
        assert part.boundary_activations == 1024
        assert part.conv_params == (3072 * 1024 + 1024) + (1024 * 1024 + 1024)
        assert part.fc_params == (1024 * 4096 + 4096) + (4096 * 10 + 10)

    def test_bad_boundaries(self):
        spec = imagenet_style_mlp()
        with pytest.raises(BadBoundary):
            mlp_split(spec, 0)
        with pytest.raises(BadBoundary):
            mlp_split(spec, len(spec.layers))
        with pytest.raises(BadBoundary):
            mlp_split(spec, 7)  # back block would be the loss head only

    def test_needs_fc(self):
        spec = executable_spec("convy", [Conv2d(3, 4, 3, 1, 1), ReLU()],
                               input_shape=(3, 8, 8), batch_k=2)
        with pytest.raises(NoFcLayer):
            mlp_split(spec, 1)


class TestCounting:
    @pytest.mark.parametrize("spec,boundary", [
        (tiny_cnn(), None), (tiny_cnn(), 8), (tiny_mlp(), 2), (tiny_mlp(), 4),
        (tiny_mlp(), 6), (imagenet_style_mlp(), 4)],
        ids=["tiny_cnn", "tiny_cnn-8", "tiny_mlp-2", "tiny_mlp-4",
             "tiny_mlp-6", "mlp_3072-4"])
    def test_executable_split_keeps_every_parameter(self, spec, boundary):
        part = split(spec, boundary)
        assert spec.params_total == sum(param_count(l) for l in spec.layers)
        assert spec.params_total == part.conv_params + part.fc_params
        assert part.conv_params == sum(param_count(l)
                                       for l in part.conv_block)

    def test_executable_params_total_conflict(self):
        spec = tiny_cnn()
        assert dataclasses.replace(spec, params_total=35578) == spec
        with pytest.raises(ConfigError, match="35578 parameters"):
            dataclasses.replace(spec, params_total=35577)
        with pytest.raises(ConfigError, match="params_total=1"):
            ModelSpec(name="x", batch_k=2, layers=spec.layers,
                      input_shape=spec.input_shape, params_total=1)

    def test_alexnet_profile_counts(self):
        part = split(PROFILES["alexnet"])
        total = part.conv_params + part.fc_params
        assert total == pytest.approx(61.1e6, rel=1e-3)
        assert part.conv_params == pytest.approx(2.47e6, rel=1e-2)
        assert part.fc_params / total == pytest.approx(0.9596, abs=1e-3)

    def test_vgg16_profile_counts(self):
        part = split(PROFILES["vgg16"])
        total = part.conv_params + part.fc_params
        assert total == pytest.approx(138e6, rel=5e-3)
        assert part.conv_params / total == pytest.approx(0.106, abs=2e-3)


class TestSpecValidation:
    def test_shape_mismatch_inside_stack(self):
        with pytest.raises(ShapeMismatch):
            executable_spec("broken", [Conv2d(3, 8, 3, 1, 1), Flatten(),
                                       FullyConnected(100, 10)],
                            input_shape=(3, 8, 8), batch_k=2)

    @pytest.mark.parametrize("spec", [PROFILES["alexnet"], tiny_cnn()],
                             ids=["profile", "executable"])
    @pytest.mark.parametrize("batch_k", [0, -4])
    def test_replace_checks_batch_k_again(self, spec, batch_k):
        with pytest.raises(ConfigError, match="batch_k"):
            dataclasses.replace(spec, batch_k=batch_k)

    @pytest.mark.parametrize("boundary", [0, -5])
    def test_profile_needs_boundary_activations(self, boundary):
        with pytest.raises(ConfigError, match="boundary_activations"):
            profile_spec("bad", params_total=10, params_conv=5,
                         boundary_activations=boundary, batch_k=1)

    def test_needs_layers_or_counts(self):
        with pytest.raises(ConfigError, match="neither"):
            ModelSpec(name="bare", batch_k=1)

    def test_check_batch(self):
        spec = tiny_cnn(batch_k=4)
        spec.check_batch(np.zeros((4, *spec.input_shape), np.float32))
        with pytest.raises(ShapeMismatch, match="batch_k=4"):
            spec.check_batch(np.zeros((3, *spec.input_shape), np.float32))

    def test_profile_needs_positive_conv_share(self):
        with pytest.raises(ConfigError):
            profile_spec("bad", params_total=10, params_conv=10,
                         boundary_activations=1, batch_k=1)

    def test_builtin_lookup(self):
        assert builtin_model("alexnet").batch_k == 128
        assert resolve_model("alexnet", 32).batch_k == 32
        assert builtin_model("tiny_cnn").layers is not None
        with pytest.raises(ConfigError):
            builtin_model("lenet")


class TestTextFormat:
    TINY = """
    # a little model
    name tiny
    batch_k 4
    input 3 16 16
    layer conv 3 8 3 1 1
    layer relu
    layer maxpool 2 2
    layer conv 8 16 3 1 1
    layer relu
    layer maxpool 2 2
    layer flatten
    layer fc 256 128
    layer relu
    layer fc 128 10
    layer softmax_ce
    """

    def test_parse_executable(self):
        spec = parse_model_text(self.TINY)
        assert spec.layers == tiny_cnn().layers
        assert spec.input_shape == (3, 16, 16)

    def test_parse_profile(self):
        spec = parse_model_text("""
        name alex
        batch_k 128
        params_total 61100840
        params_conv 2469696
        boundary_activations 9216
        """)
        assert spec.is_profile
        assert split(spec).fc_params == 58_631_144

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "m.model"
        p.write_text(self.TINY)
        assert load_model_file(p).name == "tiny"

    @pytest.mark.parametrize("text,fragment", [
        ("batch_k 4\ninput 4\nlayer fc 4 2", "name"),
        ("name x\nbatch_k 4", "neither"),
        ("name x\nbatch_k 4\nlayer fc 4 2", "input"),
        ("name x\nbatch_k 4\ninput 4\nlayer dense 4 2", "unknown layer"),
        ("name x\nbatch_k 4\ninput 4\nlayer fc 4", "takes"),
        ("name x\nbatch_k 4\nwhat 1", "unknown key"),
        ("name x\nbatch_k 4\nparams_total 10\nparams_conv 5", "missing"),
        ("name x\nbatch_k 4\nparams_total ten\nparams_conv 5", "bad arguments"),
    ])
    def test_config_errors(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_model_text(text)

    def test_profile_with_layers_rejected(self):
        with pytest.raises(ConfigError):
            parse_model_text("name x\nbatch_k 1\nparams_total 10\n"
                             "params_conv 5\nboundary_activations 2\n"
                             "layer relu")
