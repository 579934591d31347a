"""Minimal CPU forward pass for dense and compressed models.

The engine runs a batch in chunks, each held channel-major as ``(C, n, H,
W)``.  Convolution is direct (no im2col/FFT) with a fixed accumulation
order: every output element starts at its bias and accumulates one
``weight * input`` product per (in_ch, row, col) step, in that loop order.
A step gathers its input plane once into a row of ``n * oh * ow`` values,
then runs one multiply and one add for each out-channel tile of the
``(out_ch, n * oh * ow)`` accumulator; a tile's accumulator and product rows
fit in ``TILE_BYTES`` so that they stay in cache.  The order per element is
unchanged, so the result is bit-identical to a straight scalar loop.  relu
and add work on any layout, global average pooling sums each (c, n) plane,
and ``linear`` and the sink read each input back in (C, H, W) order.

The pattern-skipping path (``sparse=True``) does not execute a
(in_ch, row, col) step whose weight is zero for every output channel.  All
slices of a compressed group share one pattern, so on a pattern-pruned layer
only the retained cells run: 2 of 9 per 3x3 slice under ``hck``.  Skipping
is exact: adding a +-0.0 product leaves every float32 accumulator unchanged
except -0.0 (``-0.0 + 0.0`` is ``+0.0``), and ``0 * inf`` is NaN.  So a layer
skips nothing when one of its bias entries is -0.0 or its input holds a
non-finite value; an accumulator can only be -0.0 if it started at a -0.0
bias.

A chunk holds as many inputs as fit ``CHUNK_BYTES`` in the model's largest
activation (4 inputs of 64x32x32, rows of 4096 values).  Each activation is
dropped once its last consumer has run, and relu and add write over a source
nothing else reads, so memory stays bounded for any batch.  ``upaq run`` and
``upaq evaluate`` decompress a compressed model once and send the whole
batch through :func:`forward_batch` on the skipping path.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .compressed import CompressedModel, decompress_model
from .container import _get, _get_shape
from .errors import FormatError, ValidationError
from .model import LayerSpec, ModelGraph, infer_shapes

# Bytes one activation of a chunk may take: the chunk size is this over the
# model's largest per-input activation, so memory stays bounded for any batch.
CHUNK_BYTES = 1024 * 1024
# Bytes of one out-channel tile's accumulator rows plus its product rows.
TILE_BYTES = 512 * 1024


@dataclass
class Activation:
    """One (channels, height, width) float32 activation tensor."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 3:
            raise ValidationError(f"activation requires 3 dimensions, got {arr.ndim}")
        if not np.isfinite(arr).all():
            raise ValidationError("activation contains non-finite values")
        self.data = arr

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(self.data.shape)  # type: ignore[return-value]


def forward(model: ModelGraph, input_act: Activation) -> Activation:
    """Run the dense model; returns the sink layer's activation."""
    return forward_batch(model, [input_act])[0]


def forward_compressed(cm: CompressedModel, input_act: Activation, sparse: bool = False) -> Activation:
    """Run a compressed model on one input, on dequantized weights.

    This decompresses on every call; to run a batch, decompress once and
    call :func:`forward_batch` (as ``upaq run`` and ``upaq evaluate`` do).
    The reference path runs the densified model (zeros at pruned
    positions); ``sparse=True`` skips the pruned kernel cells instead, which
    is exact (see the module docstring, including the -0.0 bias rule).
    """
    return forward_batch(decompress_model(cm), [input_act], sparse=sparse)[0]


def forward_batch(model: ModelGraph, inputs: Sequence[Activation], sparse: bool = False) -> list[Activation]:
    """Run the model over a batch; returns one sink activation per input.

    ``sparse=True`` skips kernel cells that are zero for every output
    channel; the outputs are bit-identical either way.
    """
    shapes = infer_shapes(model)
    for idx, act in enumerate(inputs):
        if act.shape != model.input_shape:
            raise ValidationError(
                f"input shape {act.shape} of input {idx} does not match model input {model.input_shape}"
            )
    largest = max(math.prod(shape) for shape in (model.input_shape, *shapes.values()))
    chunk = max(1, CHUNK_BYTES // (4 * largest))
    steps = {layer.id: _conv_steps(layer, sparse) for layer in model.conv_layers()}
    last_use = {src: idx for idx, layer in enumerate(model.layers) for src in layer.inputs}
    sink_id = model.sink().id
    outputs: list[Activation] = []
    for lo in range(0, len(inputs), chunk):
        x = np.stack([act.data for act in inputs[lo:lo + chunk]], axis=1)
        # no name keeps this chunk's sink alive while the next chunk runs
        outputs.extend(Activation(row) for row in np.moveaxis(_run(model, x, steps, last_use)[sink_id], 1, 0))
    return outputs


def _run(model: ModelGraph, x: np.ndarray, steps, last_use: dict[str, int]) -> dict[str, np.ndarray]:
    """One channel-major chunk ``(c, n, h, w)`` through every layer; returns the live activations."""
    acts: dict[str, np.ndarray] = {}
    for idx, layer in enumerate(model.layers):
        srcs = [acts[s] for s in layer.inputs] if layer.inputs else [x]
        # a first source read for the last time here takes the output in place
        spent = srcs[0] if layer.inputs and last_use[layer.inputs[0]] == idx else None
        if layer.kind == "conv2d":
            out = _conv2d(srcs[0], layer, *steps[layer.id])
        elif layer.kind == "relu":
            out = np.maximum(srcs[0], np.float32(0.0), out=spent)
        elif layer.kind == "add":
            out = np.add(srcs[0], srcs[1], out=spent)
        elif layer.kind == "global_avg_pool":
            c, n, h, w = srcs[0].shape
            # add.accumulate sums strictly in row-major order; the trailing
            # + 0.0 turns an all -0.0 sum into the +0.0 of a sum started at 0.0
            total = np.add.accumulate(srcs[0].reshape(c, n, h * w), axis=2)[:, :, -1] + np.float32(0.0)
            out = (total / np.float32(h * w)).reshape(c, n, 1, 1)
        elif layer.kind == "linear":
            out = _linear(srcs[0], layer)
        else:  # pragma: no cover - validated earlier
            raise ValidationError(f"layer {layer.id!r}: unknown kind {layer.kind!r}")
        acts[layer.id] = out
        for src in layer.inputs:
            if last_use[src] == idx:
                acts.pop(src, None)
    return acts


def _conv_steps(layer: LayerSpec, sparse: bool):
    """The (in_ch, row, col, weight column) steps of one conv layer, in loop order.

    Returns ``(all steps, steps to run on a finite input)``.  The second
    drops the columns that are zero for every output channel when
    ``sparse`` is set and no bias entry is -0.0.
    """
    wt = layer.weights
    assert wt is not None
    cols = wt.data.reshape(wt.out_ch, -1)
    every = [
        (i, r, c, np.ascontiguousarray(cols[:, k]).reshape(wt.out_ch, 1))
        for k, (i, r, c) in enumerate(np.ndindex(wt.in_ch, wt.kh, wt.kw))
    ]
    negative_zero_bias = layer.bias is not None and bool(np.any((layer.bias == 0) & np.signbit(layer.bias)))
    live = np.any(cols != 0, axis=0)
    if not sparse or negative_zero_bias or live.all():
        return every, every
    return every, [step for step, keep in zip(every, live) if keep]


def _conv2d(x: np.ndarray, layer: LayerSpec, every, skipping) -> np.ndarray:
    wt = layer.weights
    assert wt is not None
    _, n, h, w = x.shape
    s, p = layer.stride, layer.padding
    oh = (h + 2 * p - wt.kh) // s + 1
    ow = (w + 2 * p - wt.kw) // s + 1
    rows = [_window(r, s, p, h, oh) for r in range(wt.kh)]
    cols = [_window(c, s, p, w, ow) for c in range(wt.kw)]
    row = n * oh * ow
    acc = np.empty((wt.out_ch, row), dtype=np.float32)
    acc[...] = layer.bias[:, None] if layer.bias is not None else np.float32(0.0)
    # out-channel tiles whose accumulator and product rows stay in cache
    tile = max(1, TILE_BYTES // (8 * row))
    product = np.empty((min(tile, wt.out_ch), row), dtype=np.float32)
    tiles = [(slice(lo, lo + tile), acc[lo:lo + tile], product[:len(acc[lo:lo + tile])])
             for lo in range(0, wt.out_ch, tile)]
    plane = np.empty((1, row), dtype=np.float32)
    # numpy buffers a broadcast multiply over rows shorter than half its ufunc
    # buffer, about 4x slower: a buffer of at most two rows keeps rows unbuffered
    bufsize = np.setbufsize(max(16, min(np.getbufsize(), row // 8 * 16)))
    try:
        # 0 * inf is NaN, so a zero column only skips over a finite input
        for i, r, c, wcol in (skipping if skipping is every or np.isfinite(x).all() else every):
            # the input plane under kernel cell (r, c), gathered once; cells over the padding read 0
            (y0, y1, ys), (x0, x1, xs) = rows[r], cols[c]
            if (y1 - y0, x1 - x0) != (oh, ow):
                plane.fill(0.0)
            plane.reshape(n, oh, ow)[:, y0:y1, x0:x1] = x[i, :, ys, xs]
            for part, acc_t, prod_t in tiles:
                np.multiply(wcol[part], plane, out=prod_t)
                np.add(acc_t, prod_t, out=acc_t)
    finally:
        np.setbufsize(bufsize)
    return acc.reshape(wt.out_ch, n, oh, ow)


def _window(k: int, stride: int, pad: int, size: int, out: int) -> tuple[int, int, slice]:
    """Outputs ``[lo, hi)`` whose kernel offset ``k`` lands inside the input, and their input slice."""
    lo = max(0, -((k - pad) // stride))
    hi = max(lo, min(out, (size - 1 + pad - k) // stride + 1))
    first = lo * stride + k - pad
    return lo, hi, slice(first, first + max(0, stride * (hi - lo - 1) + 1), stride)


def _linear(x: np.ndarray, layer: LayerSpec) -> np.ndarray:
    wt = layer.weights
    assert wt is not None
    c, n, h, w = x.shape
    # one row per feature, features in each input's (C, H, W) flatten order
    flat = x.transpose(0, 2, 3, 1).reshape(c * h * w, n)
    wmat = wt.data.reshape(wt.out_ch, wt.in_ch)
    acc = np.empty((wt.out_ch, n), dtype=np.float32)
    acc[...] = layer.bias[:, None] if layer.bias is not None else np.float32(0.0)
    for j in range(wt.in_ch):
        acc += wmat[:, j:j + 1] * flat[j]
    return acc.reshape(wt.out_ch, n, 1, 1)


# ---------------------------------------------------------------------------
# activation batches on disk: raw little-endian float32 blob + JSON sidecar
# ---------------------------------------------------------------------------

def sidecar_path(blob_path) -> Path:
    return Path(str(blob_path) + ".json")


def save_activations(path, acts: list[Activation]) -> None:
    """Write a batch as one f32 blob; shapes go to ``<path>.json``."""
    if not acts:
        raise ValidationError("empty activation batch")
    shape = acts[0].shape
    for idx, act in enumerate(acts):
        if act.shape != shape:
            raise ValidationError(f"input {idx}: shape {act.shape} differs from first input {shape}")
    blob = b"".join(a.data.astype("<f4").tobytes() for a in acts)
    Path(path).write_bytes(blob)
    sidecar_path(path).write_text(
        json.dumps({"count": len(acts), "shape": list(shape)}, indent=2) + "\n"
    )


def load_activations(path) -> list[Activation]:
    where = str(sidecar_path(path))
    try:
        meta = json.loads(sidecar_path(path).read_text())
    except ValueError as exc:
        raise FormatError(f"{where}: bad shape sidecar: {exc}") from exc
    shape = _get_shape(meta, "shape", where, 3)
    count = _get(meta, "count", where, int)
    if count < 1:
        raise FormatError(f"{where}: count {count!r} is not a positive integer")
    per = math.prod(shape)
    raw = Path(path).read_bytes()
    expected = count * per * 4
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes for {count} inputs, got {len(raw)}")
    flat = np.frombuffer(raw, dtype="<f4").astype(np.float32)
    return [Activation(flat[i * per:(i + 1) * per].reshape(shape)) for i in range(count)]
