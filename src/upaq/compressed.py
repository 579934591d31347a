"""In-memory form of a compressed model and its reconstruction.

A compressed model keeps the graph topology, biases, and any uncompressed
weights dense at float32, while every compressed conv layer is replaced by
integer weights plus quantization scales: its row-major weights cut into
``d x d`` slices, ``d`` being its group pattern's edge (see
:func:`slice_stack`), with one scale per slice.  Group records tie each
root and its leaves to the single shared pattern and bitwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import LayerSpec, ModelGraph, Tensor4, check_structure, infer_shapes
from .patterns import KernelPattern


@dataclass(frozen=True)
class CompressedGroup:
    root_id: str
    leaf_ids: tuple[str, ...]
    pattern: KernelPattern
    bitwidth: int

    @property
    def member_ids(self) -> tuple[str, ...]:
        return (self.root_id,) + self.leaf_ids


@dataclass
class QuantizedConv:
    """Integer payload of one compressed conv layer.

    ``q`` holds zeros at pruned positions and the signed quantized values at
    retained positions.  ``scales`` has one entry per ``d x d`` slice of
    :func:`slice_stack`, ``d`` being the group pattern's edge.
    """

    shape: tuple[int, int, int, int]
    bitwidth: int
    q: np.ndarray  # int32, shape == shape
    scales: np.ndarray  # float32 1-D

    def __post_init__(self) -> None:
        self.q = np.ascontiguousarray(self.q, dtype=np.int32)
        self.scales = np.ascontiguousarray(self.scales, dtype=np.float32).reshape(-1)
        self.shape = tuple(int(v) for v in self.shape)  # type: ignore[assignment]


def check_profile(quant_bits, candidates, es_weights) -> None:
    """The ranges a profile's bitwidths, candidate count and efficiency-score
    weights must keep, whether it drives a search or comes from a file."""
    if not quant_bits:
        raise ValidationError("profile declares no quantization bitwidths")
    for b in quant_bits:
        if b not in (4, 8, 16):
            raise ValidationError(f"profile bitwidth {b} outside supported {{4, 8, 16}}")
    if candidates < 1:
        raise ValidationError("candidate count must be >= 1")
    for w in es_weights:
        if not (0.0 <= w <= 1.0):
            raise ValidationError(f"efficiency-score weight {w} outside [0, 1]")
    if sum(es_weights) <= 0.0:
        raise ValidationError("efficiency-score weights must not all be zero")


@dataclass
class ProfileInfo:
    """Provenance of a compression run, enough to validate and re-score."""

    name: str
    quant_bits: tuple[int, ...]
    es_weights: tuple[float, float, float]
    seed: int
    candidates: int
    exhaustive: bool


@dataclass
class CompressedModel:
    """Graph metadata plus per-group quantized payloads."""

    name: str
    input_shape: tuple[int, int, int]
    layers: list[LayerSpec]
    groups: list[CompressedGroup]
    qlayers: dict[str, QuantizedConv]
    profile: ProfileInfo
    base_payload_nbytes: int = 0  # dense payload size of the source model

    def by_id(self, layer_id: str) -> LayerSpec:
        for layer in self.layers:
            if layer.id == layer_id:
                return layer
        raise ValidationError(f"unknown layer id {layer_id!r}")

    def validate(self) -> None:
        check_profile(self.profile.quant_bits, self.profile.candidates, self.profile.es_weights)
        check_structure(self.layers, weightless_ids=frozenset(self.qlayers))
        seen: dict[str, str] = {}
        for group in self.groups:
            for member in group.member_ids:
                if member in seen:
                    raise ValidationError(
                        f"layer {member!r} appears in groups rooted at {seen[member]!r} and {group.root_id!r}"
                    )
                seen[member] = group.root_id
                if member not in self.qlayers:
                    raise ValidationError(f"group member {member!r} has no quantized payload")
            if group.bitwidth not in self.profile.quant_bits:
                raise ValidationError(
                    f"group {group.root_id!r}: bitwidth {group.bitwidth} outside profile set {self.profile.quant_bits}"
                )
        for layer_id in self.qlayers:
            if layer_id not in seen:
                raise ValidationError(f"quantized layer {layer_id!r} belongs to no group")
        for group in self.groups:
            for member in group.member_ids:
                _check_payload(self.by_id(member), self.qlayers[member], group)
        infer_shapes(self, {layer_id: qc.shape for layer_id, qc in self.qlayers.items()})

    def group_for(self, layer_id: str) -> CompressedGroup:
        for group in self.groups:
            if layer_id in group.member_ids:
                return group
        raise ValidationError(f"layer {layer_id!r} is not compressed")


def _check_payload(layer: LayerSpec, qc: QuantizedConv, group: CompressedGroup) -> None:
    max_value = 2 ** (qc.bitwidth - 1) - 1
    if qc.q.shape != qc.shape:
        raise ValidationError(f"layer {layer.id!r}: q shape {qc.q.shape} != declared {qc.shape}")
    if qc.bitwidth != group.bitwidth:
        raise ValidationError(f"layer {layer.id!r}: bitwidth differs from its group")
    try:
        slots = stored_slots(qc.shape, group.pattern)
    except ValidationError as exc:
        raise ValidationError(f"layer {layer.id!r}: {exc}") from None
    if qc.scales.shape[0] != len(slots):
        raise ValidationError(f"layer {layer.id!r}: expected {len(slots)} scales, one per stacked slice")
    if int(np.abs(qc.q).max(initial=0)) > max_value:
        raise ValidationError(f"layer {layer.id!r}: quantized value outside symmetric {qc.bitwidth}-bit range")
    stack = slice_stack(qc.q, group.pattern.d).reshape(slots.shape)
    if np.any(stack[~slots]):
        raise ValidationError(f"layer {layer.id!r}: nonzero value outside the block pattern")
    # only a non-finite scale, or one above float32 max / max_value, can dequantize past float32
    scales = qc.scales.astype(np.float64)
    risky = ~(np.abs(scales) <= float(np.finfo(np.float32).max) / max_value)
    with np.errstate(over="ignore", invalid="ignore"):  # rounded as dequantized_weights rounds it
        largest = (np.abs(stack[risky]).max(axis=1) * scales[risky]).astype(np.float32)
    if not np.isfinite(largest).all():
        raise ValidationError(f"layer {layer.id!r}: a scale dequantizes to a non-finite weight")


def decompress_model(cm: CompressedModel) -> ModelGraph:
    """Materialize a dense ModelGraph with dequantized float32 weights."""
    layers: list[LayerSpec] = []
    for layer in cm.layers:
        copy = layer.copy()
        if layer.id in cm.qlayers:
            d = cm.group_for(layer.id).pattern.d
            copy.weights = Tensor4(dequantized_weights(cm.qlayers[layer.id], d))
        layers.append(copy)
    dense = ModelGraph(name=cm.name, input_shape=cm.input_shape, layers=layers)
    dense.validate()
    return dense


def slice_stack(w: np.ndarray, d: int) -> np.ndarray:
    """``w``'s row-major values as the stack of ``d x d`` slices a payload
    stores: a view when they fill whole slices, else a copy whose last slice
    is zero-padded.  Slice ``o*in + i`` of an (out, in, d, d) tensor is its
    kernel slice ``(o, i)``."""
    flat = w.reshape(-1)
    cells = d * d
    if flat.size % cells == 0:
        return flat.reshape(-1, d, d)
    padded = np.zeros(-(-flat.size // cells) * cells, dtype=w.dtype)
    padded[: flat.size] = flat
    return padded.reshape(-1, d, d)


def unstack(stack: np.ndarray, shape: tuple[int, int, int, int]) -> np.ndarray:
    """Inverse of :func:`slice_stack`: drop the pad cells, restore ``shape``."""
    return stack.reshape(-1)[: math.prod(shape)].reshape(shape)


def dequantized_weights(qc: QuantizedConv, d: int) -> np.ndarray:
    """Float32 weights of one payload whose group pattern has edge ``d``."""
    q = slice_stack(qc.q, d)
    deq = (q * qc.scales.astype(np.float64)[:, None, None]).astype(np.float32)
    return unstack(deq, qc.shape)


def stored_slots(shape: tuple[int, int, int, int], pattern: KernelPattern) -> np.ndarray:
    """The cells a payload stores, as an ``(S, d*d)`` bool array over its
    slice stack: ``pattern.mask() & valid``, where the pad cells of a 1 x 1
    layer's last block are not valid.  Each row lists its slice's cells in
    row-major order, the order the container packs the stored values in.
    Only a 1 x 1 or a ``d x d`` kernel stacks into the pattern's slices.
    """
    d = pattern.d
    if tuple(shape[2:]) not in ((1, 1), (d, d)):
        raise ValidationError(
            f"a {tuple(shape)} payload does not stack into {d}x{d} slices: its kernel is not 1x1 or {d}x{d}"
        )
    valid = slice_stack(np.ones(shape, dtype=bool), d)
    return (valid & pattern.mask()).reshape(len(valid), -1)
