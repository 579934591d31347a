"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written as straight loops over scalars (or
raw struct/json parsing), sharing no code path with the implementation under
test beyond primitive operations the checks explicitly allow.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

F32 = np.float32


# ---------------------------------------------------------------------------
# symmetric quantizer reference
# ---------------------------------------------------------------------------

def quantize_reference(values, bits):
    """Plain-Python symmetric quantizer: returns (q list, scale, sqnr_linear).

    ``scale`` is the float64 scale the values are rounded with.  The SQNR is
    taken against the reconstruction a payload ships: each integer times the
    float32 scale, rounded to float32.
    """
    xs = [float(v) for v in values]
    alpha = max(abs(min(xs)), abs(max(xs)))
    max_value = 2 ** (bits - 1) - 1
    if alpha == 0.0:
        q = [0 for _ in xs]
        scale = 1.0
    else:
        scale = alpha / max_value
        q = []
        for v in xs:
            y = v / scale
            r = math.floor(abs(y) + 0.5)
            r = r if y >= 0 else -r
            q.append(int(max(-max_value, min(max_value, r))))
    scale32 = F32(scale)
    with np.errstate(over="ignore"):  # step down a scale whose largest weight overflows float32
        while not math.isfinite(F32(max_value * float(scale32))):
            scale32 = np.nextafter(scale32, F32(0.0))
    recon = [float(F32(qi * float(scale32))) for qi in q]
    err = [v - r for v, r in zip(xs, recon)]
    mean = sum(xs) / len(xs)
    var_x = sum((v - mean) ** 2 for v in xs) / len(xs)
    mean_e = sum(err) / len(err)
    var_e = sum((e - mean_e) ** 2 for e in err) / len(err)
    sqnr = 1e12 if var_e < 1e-30 else var_x / var_e
    return q, scale, min(sqnr, 1e12)


# ---------------------------------------------------------------------------
# straight-loop float32 forward pass
# ---------------------------------------------------------------------------

def forward_reference(model, input_data):
    """Scalar-loop forward in float32, same accumulation order as the engine."""
    acts = {}
    consumed = {s for l in model.layers for s in l.inputs}
    sink = [l for l in model.layers if l.id not in consumed][0]
    for layer in model.layers:
        srcs = [acts[s] for s in layer.inputs] if layer.inputs else [np.asarray(input_data, dtype=F32)]
        x = srcs[0]
        if layer.kind == "conv2d":
            acts[layer.id] = _conv_ref(x, layer)
        elif layer.kind == "relu":
            out = np.empty_like(x)
            flat_in, flat_out = x.reshape(-1), out.reshape(-1)
            for idx in range(flat_in.shape[0]):
                v = flat_in[idx]
                flat_out[idx] = v if v > 0 else F32(0.0)
            acts[layer.id] = out
        elif layer.kind == "add":
            a, b = srcs
            out = np.empty_like(a)
            fa, fb, fo = a.reshape(-1), b.reshape(-1), out.reshape(-1)
            for idx in range(fa.shape[0]):
                fo[idx] = fa[idx] + fb[idx]
            acts[layer.id] = out
        elif layer.kind == "global_avg_pool":
            c, h, w = x.shape
            out = np.empty((c, 1, 1), dtype=F32)
            for ch in range(c):
                acc = F32(0.0)
                for r in range(h):
                    for cc in range(w):
                        acc += x[ch, r, cc]
                out[ch, 0, 0] = acc / F32(h * w)
            acts[layer.id] = out
        elif layer.kind == "linear":
            wt = layer.weights.data
            o_ch, i_ch = wt.shape[0], wt.shape[1]
            flat = x.reshape(-1)
            out = np.empty((o_ch, 1, 1), dtype=F32)
            for o in range(o_ch):
                acc = layer.bias[o] if layer.bias is not None else F32(0.0)
                for j in range(i_ch):
                    acc += wt[o, j, 0, 0] * flat[j]
                out[o, 0, 0] = acc
            acts[layer.id] = out
        else:
            raise AssertionError(layer.kind)
    return acts[sink.id]


def _conv_ref(x, layer):
    wt = layer.weights.data
    o_ch, i_ch, kh, kw = wt.shape
    _, h, w = x.shape
    s, p = layer.stride, layer.padding
    oh = (h + 2 * p - kh) // s + 1
    ow = (w + 2 * p - kw) // s + 1
    out = np.empty((o_ch, oh, ow), dtype=F32)
    zero = F32(0.0)
    for o in range(o_ch):
        for y in range(oh):
            for xx in range(ow):
                acc = layer.bias[o] if layer.bias is not None else F32(0.0)
                for i in range(i_ch):
                    for r in range(kh):
                        for c in range(kw):
                            yy = y * s + r - p
                            xc = xx * s + c - p
                            v = x[i, yy, xc] if 0 <= yy < h and 0 <= xc < w else zero
                            acc += wt[o, i, r, c] * v
                out[o, y, xx] = acc
    return out


# ---------------------------------------------------------------------------
# analytical cost recount
# ---------------------------------------------------------------------------

def latency_reference(model, bits_by_layer=None):
    """Recount of nonzero-MAC latency with independent shape propagation."""
    bits_by_layer = bits_by_layer or {}
    shapes = {}
    total = 0.0
    for layer in model.layers:
        src_shape = shapes[layer.inputs[0]] if layer.inputs else model.input_shape
        c, h, w = src_shape
        if layer.kind == "conv2d":
            wt = layer.weights.data
            oh = (h + 2 * layer.padding - wt.shape[2]) // layer.stride + 1
            ow = (w + 2 * layer.padding - wt.shape[3]) // layer.stride + 1
            nnz = sum(1 for v in wt.reshape(-1) if v != 0)
            total += nnz * (bits_by_layer.get(layer.id, 32) / 32.0) * oh * ow
            shapes[layer.id] = (wt.shape[0], oh, ow)
        elif layer.kind in ("relu", "add"):
            shapes[layer.id] = src_shape
        elif layer.kind == "global_avg_pool":
            shapes[layer.id] = (c, 1, 1)
        elif layer.kind == "linear":
            shapes[layer.id] = (layer.weights.data.shape[0], 1, 1)
    return total


# ---------------------------------------------------------------------------
# raw container parsing / byte recount
# ---------------------------------------------------------------------------

def read_container(path):
    """Parse magic/header/payload of either container with struct + json only:
    a u32 header length at bytes 5..9, the CRC32 at 9..13 (skipped here), the
    header, then the payload."""
    data = open(path, "rb").read()
    magic = data[:5]
    (header_len,) = struct.unpack("<I", data[5:9])
    header = json.loads(data[13:13 + header_len].decode("utf-8"))
    payload = data[13 + header_len:]
    return magic, header, payload


def recount_dense_payload(path):
    """Recount the dense payload from weight shapes alone (4 bytes a value)."""
    magic, header, payload = read_container(path)
    assert magic == b"UPAQ1"
    total = 0
    for entry in header["layers"]:
        if entry["weights"] is not None:
            o, i, kh, kw = entry["weights"]
            total += 4 * o * i * kh * kw
        if entry["bias"]:
            # biases are one f32 per output channel of the owning layer
            total += 4 * entry["weights"][0]
    assert total == len(payload)
    return total


def recount_compressed_payload(path):
    """Recount the compressed payload from shapes, patterns, and bitwidths;
    a layer is quantized if a group names it, and the group masks are the
    payload's last bytes, in group order."""
    magic, header, payload = read_container(path)
    assert magic == b"UPQC1"
    pattern_by_member = {}
    mask_at = len(payload) - sum(math.ceil(g["pattern"]["d"] ** 2 / 8) for g in header["groups"])
    total = 0
    for g in header["groups"]:
        d = g["pattern"]["d"]
        mask = payload[mask_at:mask_at + math.ceil(d * d / 8)]
        mask_at += len(mask)
        n = sum(bin(byte).count("1") for byte in mask)
        keep = [bit for bit in range(d * d) if mask[bit // 8] >> (bit % 8) & 1]
        total += math.ceil(d * d / 8)
        for member in [g["root"]] + g["leaves"]:
            pattern_by_member[member] = (d, n, keep, g["bitwidth"])
    for entry in header["layers"]:
        if entry["bias"]:
            total += 4 * entry["weights"][0]
        if entry["weights"] is None:
            continue
        o, i, kh, kw = entry["weights"]
        if entry["id"] not in pattern_by_member:  # a layer no group names keeps dense weights
            total += 4 * o * i * kh * kw
            continue
        # a group member: its weights shape is its payload's
        d, n, keep, bits = pattern_by_member[entry["id"]]
        if (kh, kw) == (d, d):
            total += 4 * o * i  # one scale per slice
            total += o * i * math.ceil(n * bits / 8)
        else:  # a 1x1 layer: d x d blocks of its flat weights
            count = o * i
            n_blocks = math.ceil(count / (d * d))
            total += 4 * n_blocks
            for j in range(n_blocks):
                survivors = sum(1 for idx in keep if j * d * d + idx < count)
                total += math.ceil(survivors * bits / 8)
    assert total == len(payload), (total, len(payload))
    return total


# ---------------------------------------------------------------------------
# per-slice bit packing and payload recount
# ---------------------------------------------------------------------------

def pack_ints(values, bits):
    """Pack signed integers as two's-complement fields, LSB first, byte-padded."""
    mask = (1 << bits) - 1
    acc = 0
    pos = 0
    out = bytearray()
    for v in values:
        acc |= (int(v) & mask) << pos
        pos += bits
        while pos >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            pos -= 8
    if pos > 0:
        out.append(acc & 0xFF)
    return bytes(out)


def unpack_ints(data, count, bits):
    """Inverse of :func:`pack_ints` for ``count`` fields."""
    if len(data) * 8 < count * bits:
        raise ValueError(f"packed section holds {len(data)} bytes, needs {count} x {bits}-bit fields")
    half = 1 << (bits - 1)
    full = 1 << bits
    out = []
    acc = 0
    pos = 0
    it = iter(data)
    for _ in range(count):
        while pos < bits:
            acc |= next(it) << pos
            pos += 8
        raw = acc & (full - 1)
        acc >>= bits
        pos -= bits
        out.append(raw - full if raw >= half else raw)
    return out


def stored_values_reference(q, pattern):
    """Stored integers of one payload in container order, one list per slice
    (d x d layers) or per d x d block of the flat weights (1 x 1 layers),
    d being the pattern's edge."""
    out_ch, in_ch, kh, kw = q.shape
    if (kh, kw) == (pattern.d, pattern.d):
        flat = q.reshape(out_ch * in_ch, kh, kw)
        return [[int(flat[s, r, c]) for r, c in pattern.positions] for s in range(out_ch * in_ch)]
    k = pattern.d
    keep = sorted(r * k + c for r, c in pattern.positions)
    count = out_ch * in_ch
    q_flat = q.reshape(-1)
    n_blocks = math.ceil(count / (k * k))
    return [
        [int(q_flat[j * k * k + idx]) for idx in keep if j * k * k + idx < count]
        for j in range(n_blocks)
    ]


def recount_payload_nbytes(cm):
    """Independent payload recount: groups plus the dense remainder.

    Sums pattern masks, scale tables, and per-slice byte-padded integers per
    group member, then adds uncompressed weights and all biases; must equal
    the container payload length exactly.
    """
    total = 0
    for group in cm.groups:
        total += math.ceil(group.pattern.d ** 2 / 8)
        for member in group.member_ids:
            qc = cm.qlayers[member]
            total += 4 * qc.scales.size
            for values in stored_values_reference(qc.q.reshape(-1)[: math.prod(qc.shape)].reshape(qc.shape), group.pattern):
                total += math.ceil(len(values) * qc.bitwidth / 8)
    for layer in cm.layers:
        if layer.weights is not None:
            total += 4 * layer.weights.data.size
        if layer.bias is not None:
            total += 4 * layer.bias.size
    return total
