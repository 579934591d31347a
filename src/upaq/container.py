"""On-disk containers for dense (.upaq) and compressed (.upaqc) models.

Both formats are: 5-byte magic, u32 little-endian header length, a canonical
JSON header (sorted keys, no whitespace) holding the graph plus byte offsets,
then a single binary payload.  All multi-byte values are little-endian.

Dense payload: float32 weight and bias arrays, laid out per layer in list
order (weights then bias).  Compressed payload: per layer in list order, the
float32 bias, then either dense float32 weights (uncompressed layers) or the
float32 scale table followed by the packed integers; after the layer sections
come the group masks, each its pattern's ``KernelPattern.mask()`` packed LSB
first, and left undecoded when the pattern's edge is over ``MAX_EDGE`` (11).

A compressed layer has one stored-slot layout whatever its kernel shape: its
row-major weights form a stack of ``d x d`` slices, ``d`` being its
pattern's edge (the kernel slices of a d x d layer, or the zero-padded
blocks of a 1 x 1 layer's flat weights), one scale per slice, and
:func:`~upaq.compressed.stored_slots` marks the cells stored in each slice:
the pattern's cells, less the pad cells of the last block.  That stack is
``QuantizedConv.q`` itself: the writer packs it and the reader hands the
unpacked stack to the payload as it is.  The file stores each pattern once,
in its group's record; the reader hands it to each member's payload.
Each slice's stored values are written in row-major cell order as
two's-complement 4/8/16-bit fields, LSB first, and each slice is padded to a
byte boundary.

Compression ratios compare payload lengths only; headers are excluded.

Both formats share one graph writer (:func:`_base_entry` and :func:`_append`,
each writer appending sections in the order above) and one graph reader,
:func:`_read_graph`; the compressed reader adds only its group table, profile
and quantized payloads.  Every header value goes through :func:`_get` or
:func:`_get_list`, which raise FormatError naming the layer, group or field
for a missing key or a wrong JSON type (a bool is not an int), and each reader
ends in :func:`_validated`, so a file that breaks a graph or payload
invariant is a FormatError too.  Every section is read through one
:class:`_Payload`, which rejects a section outside the payload or one that
overlaps a non-empty section read before it.
"""

from __future__ import annotations

import bisect
import json
import math
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .compressed import (
    MAX_EDGE,
    CompressedGroup,
    CompressedModel,
    CompressionProfile,
    QuantizedConv,
    stored_slots,
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


def _nibble_slots(slots: np.ndarray) -> np.ndarray:
    """``slots`` with one more column that marks the pad nibble of each slice
    holding an odd number of stored cells: in row-major order its True cells
    list the nibbles of 4-bit packed bytes, low nibble first."""
    return np.concatenate([slots, (slots.sum(axis=1) % 2 == 1)[:, None]], axis=1)


def pack_slots(stack: np.ndarray, slots: np.ndarray, bits: int) -> bytes:
    """Pack the stored cells of an ``(S, d*d)`` integer stack as
    two's-complement ``bits``-wide fields, LSB first, each slice byte-padded:
    8- and 16-bit fields are little-endian int8/int16, and 4-bit fields pair
    up in a byte, the first in the low nibble."""
    if bits != 4:
        return stack[slots].astype(f"<i{bits // 8}").tobytes()
    cells = np.zeros((len(slots), slots.shape[1] + 1), dtype=np.uint8)
    cells[:, :-1] = stack & 0xF
    nibbles = cells[_nibble_slots(slots)]
    return (nibbles[0::2] | (nibbles[1::2] << 4)).tobytes()


def unpack_slots(data: bytes, slots: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of :func:`pack_slots`: an int32 ``(S, d*d)`` stack, zero off the slots.

    ``data`` must hold exactly the packed bytes of ``slots`` at ``bits``.
    """
    if bits != 4:
        stack = np.zeros(slots.shape, dtype=np.int32)
        stack[slots] = np.frombuffer(data, dtype=f"<i{bits // 8}")
        return stack
    packed = np.frombuffer(data, dtype=np.uint8)
    nibbles = np.empty(2 * packed.size, dtype=np.int8)
    # a nibble moved to the top of an int8 is sign-extended by the arithmetic shift back
    nibbles[0::2] = (packed << 4).view(np.int8) >> 4
    nibbles[1::2] = packed.view(np.int8) >> 4
    cells = np.zeros((len(slots), slots.shape[1] + 1), dtype=np.int32)
    cells[_nibble_slots(slots)] = nibbles
    return cells[:, :-1]


def pack_mask(pattern: KernelPattern) -> bytes:
    """``pattern.mask()`` as bits: row-major cell order, LSB first within each byte."""
    return np.packbits(pattern.mask(), bitorder="little").tobytes()


def _positions_from_mask(mask: bytes, d: int) -> tuple[tuple[int, int], ...]:
    """Inverse of :func:`pack_mask`: the set cells of a d*d-bit mask, in row-major order."""
    bits = np.unpackbits(np.frombuffer(mask, dtype=np.uint8), count=d * d, bitorder="little")
    rows, cols = np.divmod(np.flatnonzero(bits), d)
    return tuple(zip(rows.tolist(), cols.tolist()))


# ---------------------------------------------------------------------------
# dense container
# ---------------------------------------------------------------------------

def dense_payload_nbytes(model: ModelGraph | CompressedModel) -> int:
    """Payload size of the dense container: 4 bytes per dense weight and bias value."""
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
    entries = []
    for layer in model.layers:
        entry = _base_entry(layer)
        if layer.weights is not None:
            entry["weights"] = _append_weights(blob, layer.weights)
        if layer.bias is not None:
            entry["bias"] = _append(blob, _f32(layer.bias))
        entries.append(entry)
    return _assemble(MAGIC_DENSE, model, entries, blob)


def deserialize_model(data: bytes) -> ModelGraph:
    header, payload = _split(data, MAGIC_DENSE, "dense model")
    name, input_shape, graph = _read_graph(header, payload)
    return _validated(ModelGraph(name=name, input_shape=input_shape, layers=[layer for layer, _ in graph]))


def save_model(model: ModelGraph, path) -> None:
    Path(path).write_bytes(serialize_model(model))


def load_model(path) -> ModelGraph:
    return deserialize_model(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# compressed container
# ---------------------------------------------------------------------------

def packed_layer_nbytes(qc: QuantizedConv) -> int:
    """Packed-integer byte count for one layer (each slice byte-padded)."""
    return int(_row_nbytes(stored_slots(qc.shape, qc.pattern), qc.bitwidth).sum())


def compressed_payload_nbytes(cm: CompressedModel) -> int:
    """Payload size of the compressed container, by direct accounting."""
    total = dense_payload_nbytes(cm)  # the biases and uncompressed weights
    for qc in cm.qlayers.values():
        total += 4 * qc.scales.size + packed_layer_nbytes(qc)
    return total + sum(len(pack_mask(group.pattern)) for group in cm.groups)


def serialize_compressed(cm: CompressedModel) -> bytes:
    cm.validate()
    blob = bytearray()
    entries = []
    for layer in cm.layers:
        entry = _base_entry(layer)
        entry["quantized"] = None
        if layer.bias is not None:
            entry["bias"] = _append(blob, _f32(layer.bias))
        if layer.weights is not None:
            entry["weights"] = _append_weights(blob, layer.weights)
        if layer.id in cm.qlayers:
            qc = cm.qlayers[layer.id]
            entry["quantized"] = {
                "shape": list(qc.shape),
                "bitwidth": qc.bitwidth,
                "scales": _append(blob, _f32(qc.scales)),
                "packed": _append(blob, pack_slots(qc.q, stored_slots(qc.shape, qc.pattern), qc.bitwidth)),
            }
        entries.append(entry)
    groups = []
    for group in cm.groups:
        mask = _append(blob, pack_mask(group.pattern))
        groups.append({
            "root": group.root_id,
            "leaves": list(group.leaf_ids),
            "bitwidth": group.bitwidth,
            "pattern": {"kind": group.pattern.kind, "d": group.pattern.d,
                        "mask_offset": mask["offset"], "mask_nbytes": mask["nbytes"]},
        })
    return _assemble(MAGIC_COMPRESSED, cm, entries, blob, groups=groups, profile=asdict(cm.profile),
                     base_payload_nbytes=cm.base_payload_nbytes)


def deserialize_compressed(data: bytes) -> CompressedModel:
    header, payload = _split(data, MAGIC_COMPRESSED, "compressed model")
    groups = [_read_group(payload, entry, i) for i, entry in enumerate(_get_list(header, "groups", "header", dict))]
    patterns = {member: group.pattern for group in groups for member in group.member_ids}
    name, input_shape, graph = _read_graph(header, payload)
    qlayers: dict[str, QuantizedConv] = {}
    for layer, entry in graph:
        meta = _get(entry, "quantized", f"layer {layer.id!r}", (dict, type(None)))
        if meta is not None:
            if layer.id not in patterns:
                raise FormatError(f"quantized layer {layer.id!r} missing from the group table")
            qlayers[layer.id] = _read_quantized(payload, meta, layer.id, patterns[layer.id])
    profile = _get(header, "profile", "header", dict)
    base_payload_nbytes = _get(header, "base_payload_nbytes", "header", int)
    if base_payload_nbytes < 0:
        raise FormatError(f"header: base_payload_nbytes {base_payload_nbytes} is negative")
    return _validated(CompressedModel(
        name=name, input_shape=input_shape, layers=[layer for layer, _ in graph], groups=groups, qlayers=qlayers,
        profile=CompressionProfile(
            name=_get(profile, "name", "profile", str),
            quant_bits=tuple(_get_list(profile, "quant_bits", "profile", int)),
            es_weights=tuple(_get_list(profile, "es_weights", "profile", (int, float), length=3)),
            seed=_get(profile, "seed", "profile", int),
            candidates=_get(profile, "candidates", "profile", int),
            exhaustive=_get(profile, "exhaustive", "profile", bool),
        ),
        base_payload_nbytes=base_payload_nbytes,
    ))


def _read_group(payload: _Payload, entry: dict, index: int) -> CompressedGroup:
    root = _get(entry, "root", f"groups[{index}]", str)
    where = f"group {root!r}"
    pat = _get(entry, "pattern", where, dict)
    d = _get(pat, "d", where)
    mask = payload.read(_get(pat, "mask_offset", where), _get(pat, "mask_nbytes", where), root, "group mask")
    if type(d) is not int or d < 1 or len(mask) != -(-d * d // 8):
        raise FormatError(f"{where}: pattern d={d!r} does not fit its {len(mask)}-byte mask")
    if d > MAX_EDGE:
        raise FormatError(f"{where}: pattern d={d} is over the bound of {MAX_EDGE}")
    try:
        pattern = KernelPattern(kind=_get(pat, "kind", where), d=d, positions=_positions_from_mask(mask, d))
    except ValueError as exc:
        raise FormatError(f"{where}: bad pattern: {exc}") from None
    leaves = tuple(_get_list(entry, "leaves", where, str))
    return CompressedGroup(root_id=root, leaf_ids=leaves, pattern=pattern, bitwidth=_get(entry, "bitwidth", where, int))


def _read_quantized(payload: _Payload, meta: dict, layer_id: str, pattern: KernelPattern) -> QuantizedConv:
    where = f"layer {layer_id!r}"
    # header fields are checked before anything is allocated from them
    bits = _get(meta, "bitwidth", where, int)
    if bits not in SUPPORTED_BITS:
        raise FormatError(f"{where}: bitwidth {bits!r} is not one of {SUPPORTED_BITS}")
    shape = _get_shape(meta, "shape", where, 4)
    scales = _read_f32(payload, _get(meta, "scales", where, dict), layer_id, "scales")
    if scales.size != -(-math.prod(shape) // pattern.d ** 2):
        raise FormatError(f"{where}: {scales.size} scales do not fit a {list(shape)} payload")
    try:
        slots = stored_slots(shape, pattern)
    except ValidationError as exc:
        raise FormatError(f"{where}: {exc}") from None
    nbytes = int(_row_nbytes(slots, bits).sum())
    packed = _get(meta, "packed", where, dict)
    if _get(packed, "nbytes", where, int) != nbytes:
        raise FormatError(f"{where}: packed section holds {packed['nbytes']} bytes, expected {nbytes}")
    q = unpack_slots(payload.read(_get(packed, "offset", where), nbytes, layer_id, "packed integers"), slots, bits)
    return QuantizedConv(shape=shape, bitwidth=bits, q=q, scales=scales, pattern=pattern)


def save_compressed(cm: CompressedModel, path) -> None:
    Path(path).write_bytes(serialize_compressed(cm))


def load_compressed(path) -> CompressedModel:
    return deserialize_compressed(Path(path).read_bytes())


def load_any(path) -> ModelGraph | CompressedModel:
    """Load a dense or a compressed model file, read once and told apart by
    its magic bytes."""
    data = Path(path).read_bytes()
    magic = data[:5]
    if magic == MAGIC_DENSE:
        return deserialize_model(data)
    if magic == MAGIC_COMPRESSED:
        return deserialize_compressed(data)
    raise FormatError(f"{path}: unrecognized magic {magic!r}")


# ---------------------------------------------------------------------------
# the shared graph writer
# ---------------------------------------------------------------------------

def _base_entry(layer: LayerSpec) -> dict:
    """A layer's header entry with no sections yet; each writer appends the
    layer's sections in its own order."""
    return {"id": layer.id, "kind": layer.kind, "stride": layer.stride, "padding": layer.padding,
            "inputs": list(layer.inputs), "weights": None, "bias": None}


def _append(blob: bytearray, raw: bytes) -> dict:
    """Append ``raw`` to the payload and return its section reference."""
    ref = {"offset": len(blob), "nbytes": len(raw)}
    blob.extend(raw)
    return ref


def _append_weights(blob: bytearray, weights: Tensor4) -> dict:
    return {"shape": list(weights.shape), **_append(blob, _f32(weights.data))}


def _f32(array: np.ndarray) -> bytes:
    return array.astype("<f4").tobytes()


def _assemble(magic: bytes, model, layer_entries: list[dict], blob: bytearray, **fields) -> bytes:
    """Container bytes: the graph fields both formats share plus ``fields``."""
    header = {
        "format_version": FORMAT_VERSION,
        "name": model.name,
        "input_shape": list(model.input_shape),
        "layers": layer_entries,
        "payload_nbytes": len(blob),
        **fields,
    }
    header_raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return magic + struct.pack("<I", len(header_raw)) + header_raw + bytes(blob)


# ---------------------------------------------------------------------------
# the shared graph reader
# ---------------------------------------------------------------------------

_JSON_NAMES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
               list: "a list", dict: "an object", type(None): "null"}


def _checked(value, kind, where: str, name: str):
    """``value`` if its JSON type is ``kind`` (a type, a tuple of types, or
    ``object`` for any), else FormatError; a bool is not an int."""
    if type(value) is kind or kind is object or (isinstance(kind, tuple) and type(value) in kind):
        return value
    kinds = kind if isinstance(kind, tuple) else (kind,)
    raise FormatError(f"{where}: {name} {value!r} is not {' or '.join(_JSON_NAMES[k] for k in kinds)}")


def _get(obj, key: str, where: str, kind=object):
    """``obj[key]`` from untrusted JSON, checked by :func:`_checked`; raises
    FormatError naming ``where`` and ``key`` when ``obj`` is not an object or
    the key is missing."""
    if not isinstance(obj, dict):
        raise FormatError(f"{where} is not a JSON object")
    if key not in obj:
        raise FormatError(f"{where}: missing {key!r}")
    return _checked(obj[key], kind, where, key)


def _get_list(obj, key: str, where: str, kind, length: int | None = None) -> list:
    """``obj[key]`` as a list whose items are each of JSON type ``kind``."""
    items = _get(obj, key, where, list)
    if length is not None and len(items) != length:
        raise FormatError(f"{where}: {key} holds {len(items)} values, not {length}")
    return [_checked(item, kind, where, f"{key}[{i}]") for i, item in enumerate(items)]


def _is_shape(value, ndim: int) -> bool:
    return isinstance(value, list) and len(value) == ndim and all(type(v) is int and v > 0 for v in value)


def _get_shape(obj, key: str, where: str, ndim: int) -> tuple[int, ...]:
    """``obj[key]`` as a tuple of ``ndim`` positive integers."""
    shape = _get(obj, key, where)
    if not _is_shape(shape, ndim):
        raise FormatError(f"{where}: {key} {shape!r} is not {ndim} positive integers")
    return tuple(shape)


def _split(data: bytes, magic: bytes, what: str) -> tuple[dict, _Payload]:
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
    version = _get(header, "format_version", "header")
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(f"format-version mismatch: file has {version}, expected {FORMAT_VERSION}")
    blob = data[9 + header_len:]
    payload_nbytes = _get(header, "payload_nbytes", "header", int)
    if len(blob) != payload_nbytes:
        raise FormatError(f"{what} payload truncated: expected {payload_nbytes} bytes, got {len(blob)}")
    return header, _Payload(blob)


def _read_graph(header: dict, payload: _Payload) -> tuple[str, tuple[int, ...], list[tuple[LayerSpec, dict]]]:
    """What both containers share: the model name, the input shape, and each
    layer with its dense weights and bias, paired with its header entry."""
    graph = []
    for i, entry in enumerate(_get_list(header, "layers", "header", dict)):
        layer_id = _get(entry, "id", f"layers[{i}]", str)
        where = f"layer {layer_id!r}"
        weights = _get(entry, "weights", where, (dict, type(None)))
        bias = _get(entry, "bias", where, (dict, type(None)))
        layer = LayerSpec(
            id=layer_id,
            kind=_get(entry, "kind", where, str),
            inputs=tuple(_get_list(entry, "inputs", where, str)),
            weights=None if weights is None else _read_weights(payload, weights, layer_id),
            bias=None if bias is None else _read_f32(payload, bias, layer_id, "bias"),
            stride=_get(entry, "stride", where, int),
            padding=_get(entry, "padding", where, int),
        )
        graph.append((layer, entry))
    return _get(header, "name", "header", str), _get_shape(header, "input_shape", "header", 3), graph


def _validated(model):
    """``model`` once it validates: a file that breaks a graph or payload
    invariant is a format error, like any other malformed file."""
    try:
        model.validate()
    except ValidationError as exc:
        raise FormatError(str(exc)) from None
    return model


class _Payload:
    """A container's payload bytes, handed out one checked section at a time."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.spans: list[tuple[int, int, str]] = []  # non-empty sections read so far, by offset

    def read(self, offset: int, nbytes: int, layer_id: str, section: str) -> bytes:
        """The ``nbytes`` at ``offset``, once they lie inside the payload and
        overlap no non-empty section read before; ``section`` names them."""
        if type(offset) is not int or type(nbytes) is not int:
            raise FormatError(f"layer {layer_id!r}: section offset {offset!r} or size {nbytes!r} is not an integer")
        end = offset + nbytes
        if offset < 0 or nbytes < 0 or end > len(self.blob):
            raise FormatError(f"layer {layer_id!r}: section [{offset}, {end}) outside payload")
        if nbytes:
            span = (offset, end, f"{section} of {layer_id!r}")
            at = bisect.bisect(self.spans, span)
            for other in self.spans[max(at - 1, 0):at + 1]:
                if other[0] < end and offset < other[1]:
                    first, second = sorted((other, span))
                    raise FormatError(f"payload sections overlap: {first[2]} [{first[0]}, {first[1]}) "
                                      f"and {second[2]} [{second[0]}, {second[1]})")
            self.spans.insert(at, span)
        return self.blob[offset:end]


def _read_f32(payload: _Payload, ref: dict, layer_id: str, section: str) -> np.ndarray:
    where = f"layer {layer_id!r}"
    nbytes = _get(ref, "nbytes", where)
    if type(nbytes) is int and nbytes % 4:
        raise FormatError(f"{where}: float32 section of {nbytes} bytes is not a multiple of 4")
    raw = payload.read(_get(ref, "offset", where), nbytes, layer_id, section)
    return np.frombuffer(raw, dtype="<f4").astype(np.float32)


def _read_weights(payload: _Payload, ref: dict, layer_id: str) -> Tensor4:
    where = f"layer {layer_id!r}"
    shape, nbytes = _get(ref, "shape", where), _get(ref, "nbytes", where)
    if not _is_shape(shape, 4) or 4 * math.prod(shape) != nbytes:
        raise FormatError(f"{where}: weight shape {shape!r} does not fit a {nbytes!r}-byte section")
    return Tensor4(_read_f32(payload, ref, layer_id, "weights").reshape(shape))
