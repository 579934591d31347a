"""Deterministic toy models and input batches for desk-scale evaluation.

All weights, biases, and inputs are drawn uniform(-1, 1) from seeded
substreams, so a given (arch, seed) pair always produces identical files.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .model import LayerSpec, ModelGraph, Tensor4
from .patterns import split_seed

ARCH_NAMES = ("toy-cnn", "toy-residual", "toy-1x1")

INPUT_SHAPE = (1, 16, 16)
DEFAULT_INPUT_COUNT = 64


def gen_fixture(arch: str, seed: int, n_inputs: int = DEFAULT_INPUT_COUNT):
    """Build one named toy model plus its seeded ``(n_inputs, *INPUT_SHAPE)``
    float32 input batch.

    toy-cnn:      conv3x3 -> relu -> conv3x3 -> conv3x3 -> gap -> linear
    toy-residual: conv3x3 forking into two conv3x3 joined by add, then gap -> linear
    toy-1x1:      conv3x3 -> conv1x1 (2 out, 9 in) -> gap -> linear
    """
    if arch not in ARCH_NAMES:
        raise ValidationError(f"unknown fixture arch {arch!r}; expected one of {ARCH_NAMES}")
    wrng = np.random.default_rng(split_seed(seed, f"{arch}:weights"))
    irng = np.random.default_rng(split_seed(seed, f"{arch}:inputs"))

    def conv(lid, out_ch, in_ch, k, inputs, padding):
        return LayerSpec(
            id=lid, kind="conv2d", inputs=inputs,
            weights=_uniform4(wrng, (out_ch, in_ch, k, k)),
            bias=_uniform1(wrng, out_ch),
            stride=1, padding=padding,
        )

    def linear(lid, out_ch, in_ch, inputs):
        return LayerSpec(
            id=lid, kind="linear", inputs=inputs,
            weights=_uniform4(wrng, (out_ch, in_ch, 1, 1)),
            bias=_uniform1(wrng, out_ch),
        )

    if arch == "toy-cnn":
        layers = [
            conv("conv1", 8, 1, 3, (), 1),
            LayerSpec(id="relu1", kind="relu", inputs=("conv1",)),
            conv("conv2", 16, 8, 3, ("relu1",), 1),
            conv("conv3", 8, 16, 3, ("conv2",), 1),
            LayerSpec(id="gap", kind="global_avg_pool", inputs=("conv3",)),
            linear("fc", 4, 8, ("gap",)),
        ]
    elif arch == "toy-residual":
        layers = [
            conv("conv_a", 8, 1, 3, (), 1),
            conv("conv_b", 8, 8, 3, ("conv_a",), 1),
            conv("conv_c", 8, 8, 3, ("conv_a",), 1),
            LayerSpec(id="add", kind="add", inputs=("conv_b", "conv_c")),
            LayerSpec(id="gap", kind="global_avg_pool", inputs=("add",)),
            linear("fc", 4, 8, ("gap",)),
        ]
    else:  # toy-1x1
        layers = [
            conv("conv_a", 9, 1, 3, (), 1),
            conv("conv_b", 2, 9, 1, ("conv_a",), 0),
            LayerSpec(id="gap", kind="global_avg_pool", inputs=("conv_b",)),
            linear("fc", 2, 2, ("gap",)),
        ]
    model = ModelGraph(name=arch, input_shape=INPUT_SHAPE, layers=layers)
    model.validate()
    return model, irng.uniform(-1.0, 1.0, (n_inputs, *INPUT_SHAPE)).astype(np.float32)


def _uniform4(rng, shape) -> Tensor4:
    return Tensor4(rng.uniform(-1.0, 1.0, shape).astype(np.float32))


def _uniform1(rng, size) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, size).astype(np.float32)
