"""On-disk containers for dense (.upaq) and compressed (.upaqc) models.

Both formats are: 5-byte magic, u32 header length, the u32 ``zlib.crc32`` of
the header and payload, a canonical JSON header (sorted keys, no whitespace)
holding the graph, then a single binary payload.  All multi-byte values are
little-endian.  The header states each fact once and no offset or size: the
payload's sections lie end to end in the order below, each sized by the
shapes, pattern edges and bitwidths the header holds.  Files of format
versions 1 and 2 are not read.

Every layer's header entry is ``{id, kind, inputs, stride, padding, weights,
bias}``: ``weights`` is its weight shape (a quantized layer's payload shape)
or null, ``bias`` whether it has one.  Both payloads hold, per layer in list
order, the float32 bias (``out_ch`` floats), then the weights section: dense
float32 weights, or a quantized layer's float32 scale table followed by its
packed integers.  A compressed file's layer is quantized if and only if a
group names it, and it takes that group's pattern and bitwidth, which the
group record alone states.  After the layer sections of a compressed payload
come the group masks, in group order, each its pattern's
``KernelPattern.mask()`` packed LSB first in ``ceil(d*d/8)`` bytes.

A compressed layer has one stored-slot layout whatever its kernel shape: its
row-major weights form a stack of ``d x d`` slices, ``d`` being its
pattern's edge (the kernel slices of a d x d layer, or the zero-padded
blocks of a 1 x 1 layer's flat weights), one scale per slice, and
:func:`~upaq.compressed.stored_slots` marks the cells stored in each slice:
the pattern's cells, less the pad cells of the last block.  That stack is
``QuantizedConv.q`` itself: the writer packs it and the reader hands the
unpacked stack to the payload as it is.  Each slice's stored values are written in row-major cell order as
two's-complement 4/8/16-bit fields, LSB first, and each slice is padded to a
byte boundary.

Compression ratios compare payload lengths only; headers are excluded.  A
file stores no ratio: :func:`compressed_payload_nbytes` is the length of
the payload the writer builds, and :func:`dense_payload_nbytes` counts a
quantized layer at 4 bytes per value of its payload shape, the dense size
of the model it came from.

Both formats share one layer writer, :func:`_layer_sections`, one sealer,
:func:`_assemble`, and one layer reader, :func:`_read_graph`.  :func:`_split`
checks the CRC before it parses the header.  The compressed reader first
takes the group masks from the payload's tail, each pattern's edge checked
against ``MAX_EDGE`` (11) and each bitwidth against ``SUPPORTED_BITS``
before any size is taken from them.
Every header value goes through :func:`_get` or :func:`_get_list`, which raise
FormatError naming the layer, group or field for a missing key or a wrong
JSON type (a bool is not an int), and each reader ends in :func:`_validated`,
so a file that breaks a graph or payload invariant is a FormatError too.  The
layer sections are read by one :class:`_Cursor`, which refuses a section
that runs past the payload before anything is sized by it, and the walk must
end exactly where the group masks begin (a dense file: at the payload's end).
"""

from __future__ import annotations

import json
import math
import struct
import zlib
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
FORMAT_VERSION = 3
PREAMBLE = struct.Struct("<5sII")  # magic, header length, CRC32 of the header and payload


# ---------------------------------------------------------------------------
# bit packing
# ---------------------------------------------------------------------------

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
    """Payload size of the dense container: 4 bytes per weight and bias
    value, a quantized layer's weights counted at its payload's shape."""
    qlayers = model.qlayers if isinstance(model, CompressedModel) else {}
    total = 0
    for layer in model.layers:
        if layer.id in qlayers:
            total += 4 * math.prod(qlayers[layer.id].shape)
        elif layer.weights is not None:
            total += 4 * layer.weights.data.size
        if layer.bias is not None:
            total += 4 * layer.bias.size
    return total


def serialize_model(model: ModelGraph) -> bytes:
    model.validate()
    return _assemble(MAGIC_DENSE, model, *_layer_sections(model.layers, {}))


def deserialize_model(data: bytes) -> ModelGraph:
    header, payload = _split(data, MAGIC_DENSE, "dense model")
    name, input_shape, layers, _ = _read_graph(header, _Cursor(payload), {})
    return _validated(ModelGraph(name=name, input_shape=input_shape, layers=layers))


def save_model(model: ModelGraph, path) -> None:
    Path(path).write_bytes(serialize_model(model))


def load_model(path) -> ModelGraph:
    return deserialize_model(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# compressed container
# ---------------------------------------------------------------------------

def compressed_payload_nbytes(cm: CompressedModel) -> int:
    """Payload size of the compressed container: the length of the sections its writer builds."""
    return len(_compressed_sections(cm)[1])


def serialize_compressed(cm: CompressedModel) -> bytes:
    cm.validate()
    groups = [{"root": group.root_id, "leaves": list(group.leaf_ids), "bitwidth": group.bitwidth,
               "pattern": {"kind": group.pattern.kind, "d": group.pattern.d}} for group in cm.groups]
    return _assemble(MAGIC_COMPRESSED, cm, *_compressed_sections(cm), groups=groups, profile=asdict(cm.profile))


def _compressed_sections(cm: CompressedModel) -> tuple[list[dict], bytearray]:
    """The layer entries, and the payload: the layer sections, then each group's mask."""
    entries, blob = _layer_sections(cm.layers, cm.qlayers)
    return entries, blob + b"".join(pack_mask(group.pattern) for group in cm.groups)


def deserialize_compressed(data: bytes) -> CompressedModel:
    header, payload = _split(data, MAGIC_COMPRESSED, "compressed model")
    entries = _get_list(header, "groups", "header", dict)
    edges = [_pattern_edge(entry, i) for i, entry in enumerate(entries)]
    tail = sum(_mask_nbytes(d) for d in edges)
    if tail > len(payload):
        raise FormatError(f"payload of {len(payload)} bytes is too short for its {tail}-byte group-mask tail")
    masks_at = len(payload) - tail
    masks = _Cursor(payload[masks_at:])
    groups = [_read_group(entry, d, masks) for entry, d in zip(entries, edges)]
    owners = {member: group for group in groups for member in group.member_ids}
    name, input_shape, layers, qlayers = _read_graph(header, _Cursor(payload[:masks_at]), owners)
    profile = _get(header, "profile", "header", dict)
    return _validated(CompressedModel(
        name=name, input_shape=input_shape, layers=layers, groups=groups, qlayers=qlayers,
        profile=CompressionProfile(
            name=_get(profile, "name", "profile", str),
            quant_bits=tuple(_get_list(profile, "quant_bits", "profile", int)),
            es_weights=tuple(_get_list(profile, "es_weights", "profile", (int, float), length=3)),
            seed=_get(profile, "seed", "profile", int),
            candidates=_get(profile, "candidates", "profile", int),
            exhaustive=_get(profile, "exhaustive", "profile", bool),
        ),
    ))


def _mask_nbytes(d: int) -> int:
    return -(-d * d // 8)


def _pattern_edge(entry: dict, index: int) -> int:
    """A group's pattern edge, checked before any size is taken from it."""
    where = f"group {_get(entry, 'root', f'groups[{index}]', str)!r}"
    d = _get(_get(entry, "pattern", where, dict), "d", where, int)
    if d < 1:
        raise FormatError(f"{where}: pattern d={d} is not positive")
    if d > MAX_EDGE:
        raise FormatError(f"{where}: pattern d={d} is over the bound of {MAX_EDGE}")
    return d


def _read_group(entry: dict, d: int, masks: _Cursor) -> CompressedGroup:
    """A group record, its bitwidth checked before any section is sized by it."""
    where = f"group {entry['root']!r}"
    bits = _get(entry, "bitwidth", where, int)
    if bits not in SUPPORTED_BITS:
        raise FormatError(f"{where}: bitwidth {bits!r} is not one of {SUPPORTED_BITS}")
    positions = _positions_from_mask(masks.take(_mask_nbytes(d), where, "group mask"), d)
    try:
        pattern = KernelPattern(kind=_get(entry["pattern"], "kind", where), d=d, positions=positions)
    except ValueError as exc:
        raise FormatError(f"{where}: bad pattern: {exc}") from None
    leaves = tuple(_get_list(entry, "leaves", where, str))
    return CompressedGroup(root_id=entry["root"], leaf_ids=leaves, pattern=pattern, bitwidth=bits)


def _read_quantized(sections: _Cursor, shape: tuple[int, ...], where: str, group: CompressedGroup) -> QuantizedConv:
    """A group member's payload, under its group's pattern and bitwidth."""
    pattern, bits = group.pattern, group.bitwidth
    # the scale table is taken before the slot stack is sized by the shape
    scales = sections.f32((-(-math.prod(shape) // pattern.d ** 2),), where, "scales")
    try:
        slots = stored_slots(shape, pattern)
    except ValidationError as exc:
        raise FormatError(f"{where}: {exc}") from None
    # each slice's stored values, padded to a byte
    packed = sections.take(int((-(-slots.sum(axis=1) * bits // 8)).sum()), where, "packed integers")
    return QuantizedConv(shape=shape, bitwidth=bits, q=unpack_slots(packed, slots, bits), scales=scales,
                         pattern=pattern)


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
# the shared layer writer
# ---------------------------------------------------------------------------

def _layer_sections(layers: list[LayerSpec], qlayers: dict[str, QuantizedConv]) -> tuple[list[dict], bytearray]:
    """Each layer's header entry, and its payload sections: the bias, then its
    dense weights or its ``qlayers`` payload's scales and packed integers."""
    entries, blob = [], bytearray()
    for layer in layers:
        qc = qlayers.get(layer.id)
        shape = qc.shape if qc is not None else (None if layer.weights is None else layer.weights.shape)
        entries.append({"id": layer.id, "kind": layer.kind, "stride": layer.stride, "padding": layer.padding,
                        "inputs": list(layer.inputs), "weights": None if shape is None else list(shape),
                        "bias": layer.bias is not None})
        if layer.bias is not None:
            blob += _f32(layer.bias)
        if qc is not None:
            blob += _f32(qc.scales) + pack_slots(qc.q, stored_slots(qc.shape, qc.pattern), qc.bitwidth)
        elif layer.weights is not None:
            blob += _f32(layer.weights.data)
    return entries, blob


def _f32(array: np.ndarray) -> bytes:
    return array.astype("<f4").tobytes()


def _assemble(magic: bytes, model, layer_entries: list[dict], blob: bytearray, **fields) -> bytes:
    """Container bytes, sealed by their CRC: the graph fields both formats share plus ``fields``."""
    header = {
        "format_version": FORMAT_VERSION,
        "name": model.name,
        "input_shape": list(model.input_shape),
        "layers": layer_entries,
        **fields,
    }
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return PREAMBLE.pack(magic, len(raw), zlib.crc32(blob, zlib.crc32(raw))) + raw + bytes(blob)


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


def _get_shape(obj, key: str, where: str, ndim: int, optional: bool = False) -> tuple[int, ...] | None:
    """``obj[key]`` as a tuple of ``ndim`` positive integers, or None if it is
    null and ``optional``."""
    shape = _get(obj, key, where)
    if optional and shape is None:
        return None
    if not (isinstance(shape, list) and len(shape) == ndim and all(type(v) is int and v > 0 for v in shape)):
        raise FormatError(f"{where}: {key} {shape!r} is not {ndim} positive integers")
    return tuple(shape)


def _split(data: bytes, magic: bytes, what: str) -> tuple[dict, memoryview]:
    """A container's header and payload, once its magic, CRC and format version hold."""
    if len(data) < PREAMBLE.size or data[:5] != magic:
        raise FormatError(f"not a {what} container (bad magic)")
    _, header_len, crc = PREAMBLE.unpack_from(data)
    start = PREAMBLE.size + header_len
    if len(data) < start:
        raise FormatError(f"{what} container truncated inside the header")
    if zlib.crc32(memoryview(data)[PREAMBLE.size:]) != crc:
        raise FormatError(f"{what} container is corrupt or truncated: its CRC32 does not match")
    try:
        header = json.loads(data[PREAMBLE.size:start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{what} header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{what} header is not a JSON object")
    version = _get(header, "format_version", "header")
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(f"format-version mismatch: file has {version}, expected {FORMAT_VERSION}")
    return header, memoryview(data)[start:]


def _read_graph(header: dict, sections: _Cursor, owners: dict[str, CompressedGroup]):
    """The model name, the input shape, and each layer with its bias and
    weights section: a payload if a group of ``owners`` (each member's group;
    none in a dense file) names the layer, else dense weights.  The sections
    must leave no byte of ``sections`` unread."""
    layers, qlayers = [], {}
    for i, entry in enumerate(_get_list(header, "layers", "header", dict)):
        layer_id = _get(entry, "id", f"layers[{i}]", str)
        where = f"layer {layer_id!r}"
        shape = _get_shape(entry, "weights", where, 4, optional=True)
        has_bias = _get(entry, "bias", where, bool)
        if has_bias and shape is None:
            raise FormatError(f"{where}: has a bias but no weights")
        bias = sections.f32(shape[:1], where, "bias") if has_bias else None
        weights = None
        if shape is not None and layer_id in owners:
            qlayers[layer_id] = _read_quantized(sections, shape, where, owners[layer_id])
        elif shape is not None:
            weights = Tensor4(sections.f32(shape, where, "weights"))
        layers.append(LayerSpec(id=layer_id, kind=_get(entry, "kind", where, str),
                                inputs=tuple(_get_list(entry, "inputs", where, str)), weights=weights, bias=bias,
                                stride=_get(entry, "stride", where, int), padding=_get(entry, "padding", where, int)))
    if sections.rest:
        raise FormatError(f"{len(sections.rest)} payload bytes follow the last layer section")
    return _get(header, "name", "header", str), _get_shape(header, "input_shape", "header", 3), layers, qlayers


def _validated(model):
    """``model`` once it validates: a file that breaks a graph or payload
    invariant is a format error, like any other malformed file."""
    try:
        model.validate()
    except ValidationError as exc:
        raise FormatError(str(exc)) from None
    return model


class _Cursor:
    """Payload sections read end to end; ``rest`` holds the bytes not yet read."""

    def __init__(self, rest: memoryview):
        self.rest = rest

    def take(self, nbytes: int, where: str, section: str) -> memoryview:
        """The next ``nbytes``, once they fit in ``rest``: nothing is sized by a
        section before it is known to fit.  ``section`` names them."""
        if nbytes > len(self.rest):
            raise FormatError(f"{where}: {section} section of {nbytes} bytes runs past the {len(self.rest)} bytes left")
        taken, self.rest = self.rest[:nbytes], self.rest[nbytes:]
        return taken

    def f32(self, shape: tuple[int, ...], where: str, section: str) -> np.ndarray:
        """The next float32 section of ``shape``."""
        raw = self.take(4 * math.prod(shape), where, section)
        return np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(shape)
