"""In-memory form of a compressed model and its reconstruction.

A compressed model keeps the graph topology, biases, and any uncompressed
weights dense at float32, while every compressed conv layer is replaced by
its integer slice stack, one scale per slice: its row-major weights cut into
``d x d`` slices, ``d`` being its pattern's edge (see :func:`slice_stack`),
one row of ``d*d`` cells each.  A layer holds dense weights or a payload,
never both, and its bias must match the ``out_ch`` of whichever it holds.
Each payload carries its group's pattern and bitwidth, so whatever reads a
payload takes ``d`` and the stored cells from it; group records tie each
root and its leaves to that shared decision, and a file stores it in the
group record alone.  The model keeps no dense size of its source: each
payload's shape gives it (see :func:`~upaq.container.dense_payload_nbytes`).

:class:`CompressedModel` is the one record of a compression: its
``profile`` is the :class:`CompressionProfile` that made it, and each group
carries its winner's :class:`EfficiencyScore` when it comes from the search.
A loaded file stores no score, so its groups' ``score`` is ``None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import LayerSpec, ModelGraph, Tensor4, infer_shapes
from .patterns import KernelPattern
from .quantizer import SUPPORTED_BITS, _max_value

BLOCK_K = 3  # pattern edge of 1x1 layers: their slices are 3x3 blocks of the flat weights
MAX_EDGE = 11  # largest kernel edge a compressed layer may have, checked before a payload is sized by it


@dataclass(frozen=True)
class CompressionProfile:
    """Search configuration, stored in a ``.upaqc`` as its provenance.

    The retained count per kernel edge follows from the name: hck keeps
    roughly two thirds of the edge, lck the full edge.
    """

    name: str
    quant_bits: tuple[int, ...]
    candidates: int = 16
    es_weights: tuple[float, float, float] = (0.3, 0.4, 0.3)
    seed: int = 0
    exhaustive: bool = False

    def validate(self) -> None:
        """The ranges the bitwidths, candidate count and efficiency-score
        weights must keep, whether the profile drives a search or comes from
        a file."""
        if not self.quant_bits:
            raise ValidationError("profile declares no quantization bitwidths")
        for b in self.quant_bits:
            if b not in SUPPORTED_BITS:
                raise ValidationError(f"profile bitwidth {b} outside supported {{{', '.join(map(str, SUPPORTED_BITS))}}}")
        if self.candidates < 1:
            raise ValidationError("candidate count must be >= 1")
        for w in self.es_weights:
            if not (0.0 <= w <= 1.0):
                raise ValidationError(f"efficiency-score weight {w} outside [0, 1]")
        if sum(self.es_weights) <= 0.0:
            raise ValidationError("efficiency-score weights must not all be zero")

    def n_for(self, d: int) -> int:
        if self.name == "hck":
            return max(1, (2 * d) // 3)
        if self.name == "lck":
            return d
        raise ValidationError(f"profile {self.name!r} defines no retained count for d={d}")


@dataclass
class EfficiencyScore:
    """Weighted sum of reconstruction quality and baseline-relative cost."""

    sqnr_term: float
    latency_term: float
    energy_term: float
    total: float


@dataclass(frozen=True)
class CompressedGroup:
    root_id: str
    leaf_ids: tuple[str, ...]
    pattern: KernelPattern
    bitwidth: int
    # the search winner's score; a loaded file stores none
    score: EfficiencyScore | None = field(default=None, compare=False)

    @property
    def member_ids(self) -> tuple[str, ...]:
        return (self.root_id,) + self.leaf_ids


@dataclass
class QuantizedConv:
    """Integer payload of one compressed conv layer.

    ``q`` is the ``(S, d*d)`` slice stack that :func:`stored_slots` indexes,
    ``d`` being the edge of ``pattern``, its group's: the quantized values on
    the stored cells, zeros elsewhere.  ``scales`` has one entry per slice.
    An integer ``q`` is stored as int32; any other ``q``, or a value outside
    int32, is a :class:`ValidationError`, not a silent cast.
    """

    shape: tuple[int, int, int, int]
    bitwidth: int
    q: np.ndarray  # int32 (S, d*d) slice stack; unstack(q, shape) has the layer's shape
    scales: np.ndarray  # float32 1-D
    pattern: KernelPattern

    def __post_init__(self) -> None:
        q = np.asarray(self.q)
        if not np.issubdtype(q.dtype, np.integer):
            raise ValidationError(f"quantized values of dtype {q.dtype} are not integers")
        int32 = np.iinfo(np.int32)
        if q.size and (q.min() < int32.min or q.max() > int32.max):
            raise ValidationError("a quantized value lies outside int32")
        self.q = np.ascontiguousarray(q, dtype=np.int32)
        self.scales = np.ascontiguousarray(self.scales, dtype=np.float32).reshape(-1)
        self.shape = tuple(int(v) for v in self.shape)  # type: ignore[assignment]


@dataclass
class CompressedModel:
    """Graph metadata plus per-group quantized payloads."""

    name: str
    input_shape: tuple[int, int, int]
    layers: list[LayerSpec]
    groups: list[CompressedGroup]
    qlayers: dict[str, QuantizedConv]
    profile: CompressionProfile

    def validate(self) -> None:
        self.profile.validate()
        shapes = infer_shapes(self, {layer_id: qc.shape for layer_id, qc in self.qlayers.items()})
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
                if member not in shapes:
                    raise ValidationError(f"group member {member!r} is not a layer")
            if group.bitwidth not in self.profile.quant_bits:
                raise ValidationError(
                    f"group {group.root_id!r}: bitwidth {group.bitwidth} outside profile set {self.profile.quant_bits}"
                )
        for layer_id in self.qlayers:
            if layer_id not in seen:
                raise ValidationError(f"quantized layer {layer_id!r} belongs to no group")
        for group in self.groups:
            for member in group.member_ids:
                _check_payload(member, self.qlayers[member], group)


def _check_payload(layer_id: str, qc: QuantizedConv, group: CompressedGroup) -> None:
    if qc.bitwidth != group.bitwidth:
        raise ValidationError(f"layer {layer_id!r}: bitwidth differs from its group")
    max_value = _max_value(qc.bitwidth)
    if qc.pattern != group.pattern:
        raise ValidationError(f"layer {layer_id!r}: pattern differs from its group")
    try:
        slots = stored_slots(qc.shape, qc.pattern)
    except ValidationError as exc:
        raise ValidationError(f"layer {layer_id!r}: {exc}") from None
    if qc.q.shape != slots.shape:
        raise ValidationError(f"layer {layer_id!r}: q shape {qc.q.shape} != its slice stack's {slots.shape}")
    if qc.scales.shape[0] != len(slots):
        raise ValidationError(f"layer {layer_id!r}: expected {len(slots)} scales, one per stacked slice")
    # min and max, not np.abs: the absolute value of int32's minimum overflows
    if qc.q.min(initial=0) < -max_value or qc.q.max(initial=0) > max_value:
        raise ValidationError(f"layer {layer_id!r}: quantized value outside symmetric {qc.bitwidth}-bit range")
    if np.any(qc.q[~slots]):
        raise ValidationError(f"layer {layer_id!r}: nonzero value outside the block pattern")
    # only a non-finite scale, or one above float32 max / max_value, can dequantize past float32
    scales = qc.scales.astype(np.float64)
    risky = ~(np.abs(scales) <= float(np.finfo(np.float32).max) / max_value)
    with np.errstate(over="ignore", invalid="ignore"):  # rounded as dequantized_weights rounds it
        largest = (np.abs(qc.q[risky]).max(axis=1) * scales[risky]).astype(np.float32)
    if not np.isfinite(largest).all():
        raise ValidationError(f"layer {layer_id!r}: a scale dequantizes to a non-finite weight")


def decompress_model(cm: CompressedModel) -> ModelGraph:
    """Materialize a dense ModelGraph with dequantized float32 weights."""
    layers: list[LayerSpec] = []
    for layer in cm.layers:
        copy = layer.copy()
        if layer.id in cm.qlayers:
            copy.weights = Tensor4(dequantized_weights(cm.qlayers[layer.id]))
        layers.append(copy)
    return ModelGraph(name=cm.name, input_shape=cm.input_shape, layers=layers)


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


def dequantized_weights(qc: QuantizedConv) -> np.ndarray:
    """Float32 weights of one payload, dequantized slice by slice."""
    return unstack((qc.q * qc.scales.astype(np.float64)[:, None]).astype(np.float32), qc.shape)


def slice_edge(shape: tuple[int, int, int, int]) -> int:
    """Edge of the slices a kernel is stored in: its own, or ``BLOCK_K``
    for a 1 x 1 kernel, whose flat weights form the blocks.  A non-square
    kernel is refused, and an edge over ``MAX_EDGE`` before anything is
    sized by it."""
    if shape[2] != shape[3]:
        raise ValidationError(f"a {shape[2]}x{shape[3]} kernel is non-square: only square kernels are stored")
    if shape[3] > MAX_EDGE:
        raise ValidationError(f"kernel edge {shape[3]} is over the bound of {MAX_EDGE}")
    return BLOCK_K if shape[3] == 1 else shape[3]


def stored_slots(shape: tuple[int, int, int, int], pattern: KernelPattern) -> np.ndarray:
    """The cells a payload stores, as an ``(S, d*d)`` bool array over its
    slice stack: ``pattern.mask()`` on each slice's :func:`valid_cells`.  Each
    row lists its cells in row-major order, the order the container packs the
    stored values in.  Only a kernel whose :func:`slice_edge` is ``d`` stacks into them.
    """
    d = pattern.d
    if (edge := slice_edge(shape)) != d:
        kind = "blocks" if shape[3] == 1 else "slices"
        raise ValidationError(f"a {tuple(shape)} payload is stored as {edge}x{edge} {kind}, not {d}x{d} slices")
    return valid_cells(shape, d) & pattern.mask().reshape(-1)


def valid_cells(shape: tuple[int, int, int, int], d: int) -> np.ndarray:
    """The cells of a kernel's ``(S, d*d)`` slice stack that hold a weight: not a 1 x 1 layer's pad."""
    return slice_stack(np.ones(shape, dtype=bool), d).reshape(-1, d * d)
