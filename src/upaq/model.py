"""Neutral in-memory representation of a small convolutional model.

A model is an ordered list of layers whose list order is a valid topological
order of the (acyclic) computation graph.  Weights are dense float32 tensors
in row-major ``(out_ch, in_ch, kh, kw)`` layout.  Graphs are treated as
immutable after construction; copy a layer with :meth:`LayerSpec.copy`
before mutating it.  :func:`infer_shapes` is the one walk that checks a
graph, so validation, the engine and the cost model, which all take their
shapes from it, reject a malformed graph alike, naming the layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

LAYER_KINDS = ("conv2d", "relu", "add", "global_avg_pool", "linear")
WEIGHTED_KINDS = ("conv2d", "linear")


@dataclass
class Tensor4:
    """Dense 4-D weight tensor, C-contiguous float32 ``(out_ch, in_ch, kh, kw)``.

    Row-major layout means element ``(o, i, r, c)`` sits at flat offset
    ``((o * in_ch + i) * kh + r) * kw + c``.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 4:
            raise ValidationError(f"Tensor4 requires 4 dimensions, got {arr.ndim}")
        if arr.size == 0:
            raise ValidationError("Tensor4 must be non-empty")
        self.data = arr

    @property
    def out_ch(self) -> int:
        return self.data.shape[0]

    @property
    def in_ch(self) -> int:
        return self.data.shape[1]

    @property
    def kh(self) -> int:
        return self.data.shape[2]

    @property
    def kw(self) -> int:
        return self.data.shape[3]

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return tuple(self.data.shape)  # type: ignore[return-value]

    def copy(self) -> "Tensor4":
        return Tensor4(self.data.copy())


@dataclass
class LayerSpec:
    """One node of the computation graph.

    ``inputs`` lists producer layer ids; an empty tuple marks a graph source
    fed directly by the model input.  Only conv2d and linear layers carry
    weights (and optionally a bias); linear weights use ``kh == kw == 1``.
    """

    id: str
    kind: str
    inputs: tuple[str, ...] = ()
    weights: Tensor4 | None = None
    bias: np.ndarray | None = None
    stride: int = 1
    padding: int = 0

    def __post_init__(self) -> None:
        self.inputs = tuple(self.inputs)
        if self.bias is not None:
            self.bias = np.ascontiguousarray(self.bias, dtype=np.float32).reshape(-1)

    def copy(self) -> "LayerSpec":
        return LayerSpec(
            id=self.id,
            kind=self.kind,
            inputs=self.inputs,
            weights=self.weights.copy() if self.weights is not None else None,
            bias=self.bias.copy() if self.bias is not None else None,
            stride=self.stride,
            padding=self.padding,
        )


@dataclass
class ModelGraph:
    """A named, validated DAG of layers plus the model input shape (c, h, w)."""

    name: str
    input_shape: tuple[int, int, int]
    layers: list[LayerSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.input_shape = tuple(int(v) for v in self.input_shape)  # type: ignore[assignment]

    def by_id(self, layer_id: str) -> LayerSpec:
        for layer in self.layers:
            if layer.id == layer_id:
                return layer
        raise ValidationError(f"unknown layer id {layer_id!r}")

    def conv_layers(self) -> list[LayerSpec]:
        return [l for l in self.layers if l.kind == "conv2d"]

    def validate(self) -> None:
        infer_shapes(self)


def infer_shapes(model, weight_shapes: dict | None = None) -> dict[str, tuple[int, int, int]]:
    """Check the graph and propagate activation shapes (c, h, w) through it.

    ``model`` needs ``input_shape`` and ``layers``; ``weight_shapes`` gives
    the (out, in, kh, kw) of layers that carry no dense weights, such as the
    quantized layers of a compressed model.  A layer's weight shape is its
    dense one or its ``weight_shapes`` entry, never both, and only a weighted
    kind has one; its bias is checked against that shape's ``out_ch``.  Each
    layer's structure is checked, then its shapes; a checked graph has one
    sink, its last layer.
    Raises ValidationError naming the offending layer on the first fault.
    """
    if not model.layers:
        raise ValidationError("no sink layer (empty layer list)")
    weight_shapes = weight_shapes or {}
    shapes: dict[str, tuple[int, int, int]] = {}
    for layer in model.layers:
        if layer.id in shapes:
            raise ValidationError(f"duplicate layer id {layer.id!r}")
        if layer.kind not in LAYER_KINDS:
            raise ValidationError(f"layer {layer.id!r}: unknown kind {layer.kind!r}")
        for src in layer.inputs:
            # inputs must precede their consumer: enforces both acyclicity and
            # that the list order is a valid topological order
            if src not in shapes:
                raise ValidationError(
                    f"layer {layer.id!r}: input {src!r} does not precede it in the layer list"
                )
        arity = len(layer.inputs)
        if layer.kind == "add":
            if arity != 2:
                raise ValidationError(f"layer {layer.id!r}: add requires exactly 2 inputs, got {arity}")
        elif arity > 1:
            raise ValidationError(f"layer {layer.id!r}: {layer.kind} takes at most 1 input, got {arity}")
        if layer.weights is not None and layer.id in weight_shapes:
            raise ValidationError(f"layer {layer.id!r}: holds both dense weights and a payload")
        shape = layer.weights.shape if layer.weights is not None else weight_shapes.get(layer.id)
        if layer.kind in WEIGHTED_KINDS:
            if shape is None:
                raise ValidationError(f"layer {layer.id!r}: {layer.kind} requires weights")
            out_ch, in_ch, kh, kw = shape
        else:
            if shape is not None:
                raise ValidationError(f"layer {layer.id!r}: {layer.kind} must not carry weights")
            if layer.bias is not None:
                raise ValidationError(f"layer {layer.id!r}: {layer.kind} must not carry a bias")
        if layer.weights is not None and not np.isfinite(layer.weights.data).all():
            raise ValidationError(f"layer {layer.id!r}: non-finite weight values")
        if layer.bias is not None and not np.isfinite(layer.bias).all():
            raise ValidationError(f"layer {layer.id!r}: non-finite bias values")

        in_shapes = [shapes[src] for src in layer.inputs] or [model.input_shape]
        c, h, w = in_shapes[0]
        if layer.kind == "conv2d":
            if layer.stride < 1:
                raise ValidationError(f"layer {layer.id!r}: stride must be >= 1")
            if layer.padding < 0:
                raise ValidationError(f"layer {layer.id!r}: padding must be >= 0")
            if in_ch != c:
                raise ValidationError(
                    f"layer {layer.id!r}: expects {in_ch} input channels, got {c}"
                )
            # past the kernel edge, more padding only adds outputs whose window is all padding
            if layer.padding > max(kh, kw):
                raise ValidationError(
                    f"layer {layer.id!r}: padding {layer.padding} exceeds the kernel edge {max(kh, kw)}"
                )
            oh = (h + 2 * layer.padding - kh) // layer.stride + 1
            ow = (w + 2 * layer.padding - kw) // layer.stride + 1
            if oh < 1 or ow < 1:
                raise ValidationError(f"layer {layer.id!r}: kernel larger than padded input")
            shapes[layer.id] = (out_ch, oh, ow)
        elif layer.kind == "relu":
            shapes[layer.id] = (c, h, w)
        elif layer.kind == "add":
            if in_shapes[0] != in_shapes[1]:
                raise ValidationError(
                    f"layer {layer.id!r}: add operands differ: {in_shapes[0]} vs {in_shapes[1]}"
                )
            shapes[layer.id] = (c, h, w)
        elif layer.kind == "global_avg_pool":
            shapes[layer.id] = (c, 1, 1)
        else:  # linear
            if kh != 1 or kw != 1:
                raise ValidationError(f"layer {layer.id!r}: linear weights must be (out, in, 1, 1)")
            if c * h * w != in_ch:
                raise ValidationError(
                    f"layer {layer.id!r}: expects {in_ch} input features, got {c * h * w}"
                )
            shapes[layer.id] = (out_ch, 1, 1)
        # after the channel checks, so a payload that breaks the chain is named as such
        if layer.bias is not None and layer.bias.shape[0] != out_ch:
            raise ValidationError(f"layer {layer.id!r}: bias length {layer.bias.shape[0]} != out_ch {out_ch}")
    consumed = {src for l in model.layers for src in l.inputs}
    sinks = [l.id for l in model.layers if l.id not in consumed]
    if len(sinks) != 1:
        raise ValidationError(f"expected exactly one sink layer, found {len(sinks)}: {sinks}")
    return shapes

