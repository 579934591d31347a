"""In-memory form of a compressed model and its reconstruction.

A compressed model keeps the graph topology, biases, and any uncompressed
weights dense at float32, while every compressed conv layer is replaced by
integer weights plus quantization scales: one scale per (out, in) kernel
slice for k x k layers, one scale per 3 x 3 block for 1 x 1 layers that went
through the block transformation.  Group records tie each root and its
leaves to the single shared pattern and bitwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import LayerSpec, ModelGraph, Tensor4, check_structure
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
    retained positions.  ``block_k`` is None for k x k layers; for 1 x 1
    layers it records the block edge used by the flatten transformation, and
    ``scales`` then has one entry per block instead of per slice.
    """

    shape: tuple[int, int, int, int]
    bitwidth: int
    q: np.ndarray  # int32, shape == shape
    scales: np.ndarray  # float32 1-D
    block_k: int | None = None

    def __post_init__(self) -> None:
        self.q = np.ascontiguousarray(self.q, dtype=np.int32)
        self.scales = np.ascontiguousarray(self.scales, dtype=np.float32).reshape(-1)
        self.shape = tuple(int(v) for v in self.shape)  # type: ignore[assignment]


@dataclass
class ProfileInfo:
    """Provenance of a compression run, enough to validate and re-score."""

    name: str
    quant_bits: tuple[int, ...]
    es_weights: tuple[float, float, float]
    seed: int
    candidates: int
    exhaustive: bool
    block_k: int


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
    if qc.block_k is not None and qc.shape[2:] != (1, 1):
        raise ValidationError(f"layer {layer.id!r}: block payload on a non-1x1 layer")
    try:
        slots = stored_slots(qc.shape, qc.block_k, group.pattern)
    except ValidationError as exc:
        raise ValidationError(f"layer {layer.id!r}: {exc}") from None
    if qc.scales.shape[0] != len(slots):
        raise ValidationError(f"layer {layer.id!r}: expected {len(slots)} scales, one per stacked slice")
    if int(np.abs(qc.q).max(initial=0)) > max_value:
        raise ValidationError(f"layer {layer.id!r}: quantized value outside symmetric {qc.bitwidth}-bit range")
    if np.any(slice_stack(qc.q, qc.block_k).reshape(slots.shape)[~slots]):
        raise ValidationError(f"layer {layer.id!r}: nonzero value outside the block pattern")


def decompress_model(cm: CompressedModel) -> ModelGraph:
    """Materialize a dense ModelGraph with dequantized float32 weights."""
    layers: list[LayerSpec] = []
    for layer in cm.layers:
        copy = layer.copy()
        if layer.id in cm.qlayers:
            copy.weights = Tensor4(dequantized_weights(cm.qlayers[layer.id]))
        layers.append(copy)
    dense = ModelGraph(name=cm.name, input_shape=cm.input_shape, layers=layers)
    dense.validate()
    return dense


def slice_stack(w: np.ndarray, block_k: int | None) -> np.ndarray:
    """View an (out, in, kh, kw) tensor as the stack of slices its payload
    stores: the ``out*in`` kernel slices of a k x k layer in (out, in)
    order, or, for a 1 x 1 layer with ``block_k``, its row-major flat
    weights zero-padded to ``ceil(out*in / k^2)`` blocks of k x k.
    """
    if block_k is None:
        out_ch, in_ch, kh, kw = w.shape
        return w.reshape(out_ch * in_ch, kh, kw)
    flat = w.reshape(-1)
    cells = block_k * block_k
    padded = np.zeros(-(-flat.size // cells) * cells, dtype=w.dtype)
    padded[: flat.size] = flat
    return padded.reshape(-1, block_k, block_k)


def unstack(stack: np.ndarray, shape: tuple[int, int, int, int]) -> np.ndarray:
    """Inverse of :func:`slice_stack`: drop the pad cells, restore ``shape``."""
    return stack.reshape(-1)[: math.prod(shape)].reshape(shape)


def dequantized_weights(qc: QuantizedConv) -> np.ndarray:
    """Float32 weight tensor reconstructed from one quantized payload."""
    q = slice_stack(qc.q, qc.block_k)
    deq = (q * qc.scales.astype(np.float64)[:, None, None]).astype(np.float32)
    return unstack(deq, qc.shape)


def stored_slots(shape: tuple[int, int, int, int], block_k: int | None, pattern: KernelPattern) -> np.ndarray:
    """The cells a payload stores, as an ``(S, d*d)`` bool array over its
    slice stack: ``pattern.mask() & valid``, where the pad cells of a 1 x 1
    layer's last block are not valid.  Each row lists its slice's cells in
    row-major order, the order the container packs the stored values in.
    """
    valid = slice_stack(np.ones(shape, dtype=bool), block_k)
    if valid.shape[1:] != (pattern.d, pattern.d):
        raise ValidationError(
            f"a {tuple(shape)} payload with block_k={block_k} does not stack into {pattern.d}x{pattern.d} slices"
        )
    return (valid & pattern.mask()).reshape(len(valid), -1)


def stored_value_count(qc: QuantizedConv, pattern: KernelPattern) -> int:
    """Structural nonzero slots of one payload: the values actually stored.

    This is the sparsity a pattern-skipping engine sees; a retained weight
    that happens to quantize to integer zero still occupies a slot.  The pad
    cells of a 1 x 1 layer's last block hold no weight and store nothing.
    """
    return int(stored_slots(qc.shape, qc.block_k, pattern).sum())
