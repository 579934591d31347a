"""On-disk containers for dense (.upaq) and compressed (.upaqc) models.

Both formats are: 5-byte magic, u32 little-endian header length, a canonical
JSON header (sorted keys, no whitespace) holding the graph plus byte offsets,
then a single binary payload.  All multi-byte values are little-endian.

Dense payload: float32 weight and bias arrays, laid out per layer in list
order (weights then bias).  Compressed payload: per layer in list order, the
float32 bias, then either dense float32 weights (uncompressed layers) or the
float32 scale table followed by the packed integers; after the layer sections
come the per-group pattern masks, one bit per kernel cell in row-major order,
LSB first.

A compressed layer has one stored-slot layout whatever its kernel shape: its
row-major weights form a stack of ``d x d`` slices, ``d`` being its group
pattern's edge (the kernel slices of a d x d layer, or the zero-padded
blocks of a 1 x 1 layer's flat weights), one scale per slice, and
:func:`~upaq.compressed.stored_slots` marks the cells stored in each slice:
the group pattern's cells, less the pad cells of the last block.
Each slice's stored values are written in row-major cell order as
two's-complement 4/8/16-bit fields, LSB first, and each slice is padded to a
byte boundary.

Compression ratios compare payload lengths only; headers are excluded.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .compressed import (
    CompressedGroup,
    CompressedModel,
    ProfileInfo,
    QuantizedConv,
    slice_stack,
    stored_slots,
    unstack,
)
from .errors import FormatError, ValidationError
from .model import LayerSpec, ModelGraph, Tensor4
from .patterns import KernelPattern
from .quantizer import SUPPORTED_BITS

MAGIC_DENSE = b"UPAQ1"
MAGIC_COMPRESSED = b"UPQC1"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# bit packing
# ---------------------------------------------------------------------------

def _row_nbytes(slots: np.ndarray, bits: int) -> np.ndarray:
    """Packed bytes of each slice: its stored values, padded to a byte."""
    return -(-slots.sum(axis=1) * bits // 8)


def _field_bits(slots: np.ndarray, bits: int) -> np.ndarray:
    """Bit index of every bit of every stored field, ``(N, bits)``, in the
    order ``stack[slots]`` lists the values; each slice starts on a byte."""
    row_nbytes = _row_nbytes(slots, bits)
    row_start = 8 * (np.cumsum(row_nbytes) - row_nbytes)
    rank = (np.cumsum(slots, axis=1) - 1)[slots]
    first = row_start[np.nonzero(slots)[0]] + rank * bits
    return first[:, None] + np.arange(bits)


def pack_slots(stack: np.ndarray, slots: np.ndarray, bits: int) -> bytes:
    """Pack the stored cells of an ``(S, d*d)`` integer stack as
    two's-complement ``bits``-wide fields, LSB first, each slice byte-padded."""
    fields = (stack[slots].astype(np.int64)[:, None] >> np.arange(bits)) & 1
    bitstream = np.zeros(8 * int(_row_nbytes(slots, bits).sum()), dtype=np.uint8)
    bitstream[_field_bits(slots, bits)] = fields
    return np.packbits(bitstream, bitorder="little").tobytes()


def unpack_slots(data: bytes, slots: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of :func:`pack_slots`: an int32 ``(S, d*d)`` stack, zero off the slots.

    ``data`` must hold exactly the packed bytes of ``slots`` at ``bits``.
    """
    bitstream = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    raw = (bitstream[_field_bits(slots, bits)].astype(np.int32) << np.arange(bits)).sum(axis=1)
    stack = np.zeros(slots.shape, dtype=np.int32)
    stack[slots] = raw - ((raw >> (bits - 1)) << bits)  # sign-extend the top bit
    return stack


def pack_mask(pattern: KernelPattern) -> bytes:
    """d*d-cell bitmask, row-major cell order, LSB first within each byte."""
    nbits = pattern.d * pattern.d
    buf = bytearray(math.ceil(nbits / 8))
    for r, c in pattern.positions:
        bit = r * pattern.d + c
        buf[bit // 8] |= 1 << (bit % 8)
    return bytes(buf)


def _positions_from_mask(mask: bytes, d: int) -> tuple[tuple[int, int], ...]:
    positions = []
    for bit in range(d * d):
        if mask[bit // 8] >> (bit % 8) & 1:
            positions.append((bit // d, bit % d))
    return tuple(positions)


# ---------------------------------------------------------------------------
# dense container
# ---------------------------------------------------------------------------

def dense_payload_nbytes(model: ModelGraph) -> int:
    """Payload size of the dense container: 4 bytes per weight and bias value."""
    total = 0
    for layer in model.layers:
        if layer.weights is not None:
            total += 4 * layer.weights.data.size
        if layer.bias is not None:
            total += 4 * layer.bias.size
    return total


def serialize_model(model: ModelGraph) -> bytes:
    model.validate()
    blob = bytearray()
    layer_entries = []
    for layer in model.layers:
        entry = {
            "id": layer.id,
            "kind": layer.kind,
            "stride": layer.stride,
            "padding": layer.padding,
            "inputs": list(layer.inputs),
            "weights": None,
            "bias": None,
        }
        if layer.weights is not None:
            raw = layer.weights.data.astype("<f4").tobytes()
            entry["weights"] = {
                "shape": list(layer.weights.shape),
                "offset": len(blob),
                "nbytes": len(raw),
            }
            blob += raw
        if layer.bias is not None:
            raw = layer.bias.astype("<f4").tobytes()
            entry["bias"] = {"offset": len(blob), "nbytes": len(raw)}
            blob += raw
        layer_entries.append(entry)
    header = {
        "format_version": FORMAT_VERSION,
        "name": model.name,
        "input_shape": list(model.input_shape),
        "layers": layer_entries,
        "payload_nbytes": len(blob),
    }
    return _assemble(MAGIC_DENSE, header, bytes(blob))


def deserialize_model(data: bytes) -> ModelGraph:
    header, blob = _split(data, MAGIC_DENSE, "dense model")
    layers = []
    for entry in header["layers"]:
        weights = None
        if entry["weights"] is not None:
            weights = _read_weights(blob, entry["weights"], entry["id"])
        bias = None
        if entry["bias"] is not None:
            bias = _read_f32(blob, entry["bias"], entry["id"])
        layers.append(
            LayerSpec(
                id=entry["id"],
                kind=entry["kind"],
                inputs=tuple(entry["inputs"]),
                weights=weights,
                bias=bias,
                stride=entry["stride"],
                padding=entry["padding"],
            )
        )
    model = ModelGraph(
        name=header["name"],
        input_shape=tuple(header["input_shape"]),
        layers=layers,
    )
    model.validate()
    return model


def save_model(model: ModelGraph, path) -> None:
    Path(path).write_bytes(serialize_model(model))


def load_model(path) -> ModelGraph:
    return deserialize_model(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# compressed container
# ---------------------------------------------------------------------------

def packed_layer_nbytes(qc: QuantizedConv, pattern: KernelPattern) -> int:
    """Packed-integer byte count for one layer (each slice byte-padded)."""
    return int(_row_nbytes(stored_slots(qc.shape, pattern), qc.bitwidth).sum())


def compressed_payload_nbytes(cm: CompressedModel) -> int:
    """Payload size of the compressed container, by direct accounting."""
    total = 0
    for layer in cm.layers:
        if layer.bias is not None:
            total += 4 * layer.bias.size
        if layer.weights is not None:
            total += 4 * layer.weights.data.size
        if layer.id in cm.qlayers:
            qc = cm.qlayers[layer.id]
            total += 4 * qc.scales.size
            total += packed_layer_nbytes(qc, cm.group_for(layer.id).pattern)
    for group in cm.groups:
        total += math.ceil(group.pattern.d ** 2 / 8)
    return total


def serialize_compressed(cm: CompressedModel) -> bytes:
    cm.validate()
    blob = bytearray()
    layer_entries = []
    for layer in cm.layers:
        entry = {
            "id": layer.id,
            "kind": layer.kind,
            "stride": layer.stride,
            "padding": layer.padding,
            "inputs": list(layer.inputs),
            "bias": None,
            "weights": None,
            "quantized": None,
        }
        if layer.bias is not None:
            raw = layer.bias.astype("<f4").tobytes()
            entry["bias"] = {"offset": len(blob), "nbytes": len(raw)}
            blob += raw
        if layer.weights is not None:
            raw = layer.weights.data.astype("<f4").tobytes()
            entry["weights"] = {
                "shape": list(layer.weights.shape),
                "offset": len(blob),
                "nbytes": len(raw),
            }
            blob += raw
        if layer.id in cm.qlayers:
            qc = cm.qlayers[layer.id]
            pattern = cm.group_for(layer.id).pattern
            scales_raw = qc.scales.astype("<f4").tobytes()
            scales_ref = {"offset": len(blob), "nbytes": len(scales_raw)}
            blob += scales_raw
            slots = stored_slots(qc.shape, pattern)
            packed = pack_slots(slice_stack(qc.q, pattern.d).reshape(slots.shape), slots, qc.bitwidth)
            packed_ref = {"offset": len(blob), "nbytes": len(packed)}
            blob += packed
            entry["quantized"] = {
                "shape": list(qc.shape),
                "bitwidth": qc.bitwidth,
                "scales": scales_ref,
                "packed": packed_ref,
            }
        layer_entries.append(entry)
    group_entries = []
    for group in cm.groups:
        mask = pack_mask(group.pattern)
        group_entries.append(
            {
                "root": group.root_id,
                "leaves": list(group.leaf_ids),
                "bitwidth": group.bitwidth,
                "pattern": {
                    "kind": group.pattern.kind,
                    "d": group.pattern.d,
                    "mask_offset": len(blob),
                    "mask_nbytes": len(mask),
                },
            }
        )
        blob += mask
    header = {
        "format_version": FORMAT_VERSION,
        "name": cm.name,
        "input_shape": list(cm.input_shape),
        "profile": {
            "name": cm.profile.name,
            "quant_bits": list(cm.profile.quant_bits),
            "es_weights": list(cm.profile.es_weights),
            "seed": cm.profile.seed,
            "candidates": cm.profile.candidates,
            "exhaustive": cm.profile.exhaustive,
        },
        "base_payload_nbytes": cm.base_payload_nbytes,
        "layers": layer_entries,
        "groups": group_entries,
        "payload_nbytes": len(blob),
    }
    return _assemble(MAGIC_COMPRESSED, header, bytes(blob))


def deserialize_compressed(data: bytes) -> CompressedModel:
    header, blob = _split(data, MAGIC_COMPRESSED, "compressed model")
    groups = []
    patterns: dict[str, KernelPattern] = {}
    for entry in header["groups"]:
        pat = entry["pattern"]
        mask, d = _read_raw(blob, pat["mask_offset"], pat["mask_nbytes"], entry["root"]), pat["d"]
        if type(d) is not int or d < 1 or len(mask) != -(-d * d // 8):
            raise FormatError(f"group {entry['root']!r}: pattern d={d!r} does not fit its {len(mask)}-byte mask")
        try:
            pattern = KernelPattern(kind=pat["kind"], d=d, positions=_positions_from_mask(mask, d))
        except ValueError as exc:
            raise FormatError(f"group {entry['root']!r}: bad pattern: {exc}") from None
        group = CompressedGroup(
            root_id=entry["root"],
            leaf_ids=tuple(entry["leaves"]),
            pattern=pattern,
            bitwidth=entry["bitwidth"],
        )
        groups.append(group)
        for member in group.member_ids:
            patterns[member] = pattern

    layers = []
    qlayers: dict[str, QuantizedConv] = {}
    for entry in header["layers"]:
        weights = None
        if entry["weights"] is not None:
            weights = _read_weights(blob, entry["weights"], entry["id"])
        bias = None
        if entry["bias"] is not None:
            bias = _read_f32(blob, entry["bias"], entry["id"])
        layers.append(
            LayerSpec(
                id=entry["id"],
                kind=entry["kind"],
                inputs=tuple(entry["inputs"]),
                weights=weights,
                bias=bias,
                stride=entry["stride"],
                padding=entry["padding"],
            )
        )
        if entry["quantized"] is not None:
            if entry["id"] not in patterns:
                raise FormatError(f"quantized layer {entry['id']!r} missing from the group table")
            qlayers[entry["id"]] = _read_quantized(blob, entry, patterns[entry["id"]])

    profile = header["profile"]
    cm = CompressedModel(
        name=header["name"],
        input_shape=tuple(header["input_shape"]),
        layers=layers,
        groups=groups,
        qlayers=qlayers,
        profile=ProfileInfo(
            name=profile["name"],
            quant_bits=tuple(profile["quant_bits"]),
            es_weights=tuple(profile["es_weights"]),
            seed=profile["seed"],
            candidates=profile["candidates"],
            exhaustive=profile["exhaustive"],
        ),
        base_payload_nbytes=header["base_payload_nbytes"],
    )
    cm.validate()
    return cm


def _read_quantized(blob: bytes, entry: dict, pattern: KernelPattern) -> QuantizedConv:
    meta, layer_id = entry["quantized"], entry["id"]
    shape, bits = meta["shape"], meta["bitwidth"]
    # header fields are checked before anything is allocated from them
    if type(bits) is not int or bits not in SUPPORTED_BITS:
        raise FormatError(f"layer {layer_id!r}: bitwidth {bits!r} is not one of {SUPPORTED_BITS}")
    if not _is_shape4(shape):
        raise FormatError(f"layer {layer_id!r}: payload shape {shape!r} is not 4 positive integers")
    scales = _read_f32(blob, meta["scales"], layer_id)
    if scales.size != -(-math.prod(shape) // pattern.d ** 2):
        raise FormatError(f"layer {layer_id!r}: {scales.size} scales do not fit a {shape} payload")
    try:
        slots = stored_slots(tuple(shape), pattern)
    except ValidationError as exc:
        raise FormatError(f"layer {layer_id!r}: {exc}") from None
    nbytes = int(_row_nbytes(slots, bits).sum())
    if meta["packed"]["nbytes"] != nbytes:
        raise FormatError(f"layer {layer_id!r}: packed section holds {meta['packed']['nbytes']} bytes, expected {nbytes}")
    packed = _read_raw(blob, meta["packed"]["offset"], nbytes, layer_id)
    stack = unpack_slots(packed, slots, bits)
    q = unstack(stack, tuple(shape))
    return QuantizedConv(shape=tuple(shape), bitwidth=bits, q=q, scales=scales)


def save_compressed(cm: CompressedModel, path) -> None:
    Path(path).write_bytes(serialize_compressed(cm))


def load_compressed(path) -> CompressedModel:
    return deserialize_compressed(Path(path).read_bytes())


def sniff_format(path) -> str:
    """Return 'dense' or 'compressed' from a file's magic bytes."""
    with open(path, "rb") as fh:
        magic = fh.read(5)
    if magic == MAGIC_DENSE:
        return "dense"
    if magic == MAGIC_COMPRESSED:
        return "compressed"
    raise FormatError(f"{path}: unrecognized magic {magic!r}")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _assemble(magic: bytes, header: dict, blob: bytes) -> bytes:
    header_raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return magic + struct.pack("<I", len(header_raw)) + header_raw + blob


def _split(data: bytes, magic: bytes, what: str) -> tuple[dict, bytes]:
    if len(data) < 9 or data[:5] != magic:
        raise FormatError(f"not a {what} container (bad magic)")
    (header_len,) = struct.unpack("<I", data[5:9])
    if len(data) < 9 + header_len:
        raise FormatError(f"{what} container truncated inside the header")
    try:
        header = json.loads(data[9:9 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{what} header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{what} header is not a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(f"format-version mismatch: file has {version}, expected {FORMAT_VERSION}")
    blob = data[9 + header_len:]
    if len(blob) != header.get("payload_nbytes"):
        raise FormatError(
            f"{what} payload truncated: expected {header.get('payload_nbytes')} bytes, got {len(blob)}"
        )
    return header, blob


def _read_raw(blob: bytes, offset: int, nbytes: int, layer_id: str) -> bytes:
    if type(offset) is not int or type(nbytes) is not int:
        raise FormatError(f"layer {layer_id!r}: section offset {offset!r} or size {nbytes!r} is not an integer")
    if offset < 0 or nbytes < 0 or offset + nbytes > len(blob):
        raise FormatError(f"layer {layer_id!r}: section [{offset}, {offset + nbytes}) outside payload")
    return blob[offset:offset + nbytes]


def _read_f32(blob: bytes, ref: dict, layer_id: str) -> np.ndarray:
    nbytes = ref["nbytes"]
    if type(nbytes) is int and nbytes % 4:
        raise FormatError(f"layer {layer_id!r}: float32 section of {nbytes} bytes is not a multiple of 4")
    raw = _read_raw(blob, ref["offset"], nbytes, layer_id)
    return np.frombuffer(raw, dtype="<f4").astype(np.float32)


def _is_shape4(shape) -> bool:
    return isinstance(shape, list) and len(shape) == 4 and all(type(v) is int and v > 0 for v in shape)


def _read_weights(blob: bytes, ref: dict, layer_id: str) -> Tensor4:
    shape = ref["shape"]
    if not _is_shape4(shape) or 4 * math.prod(shape) != ref["nbytes"]:
        raise FormatError(f"layer {layer_id!r}: weight shape {shape!r} does not fit a {ref['nbytes']!r}-byte section")
    return Tensor4(_read_f32(blob, ref, layer_id).reshape(shape))
