"""Minimal CPU forward pass for dense and compressed models.

The engine runs a batch of inputs.  Convolution is direct (no im2col/FFT)
with a fixed accumulation order: every output element starts at its bias and
accumulates one ``weight * input`` product per (in_ch, row, col) step, in
that loop order.  Each step is one numpy operation over all output channels
and every input of a chunk, which leaves the order per element unchanged,
so the result is bit-identical to a straight scalar loop.

The pattern-skipping path (``sparse=True``) does not execute a
(in_ch, row, col) step whose weight is zero for every output channel.  All
slices of a compressed group share one pattern, so on a pattern-pruned layer
only the retained cells run: 2 of 9 per 3x3 slice under ``hck``.  Skipping
is exact: adding a +-0.0 product leaves every float32 accumulator unchanged
except -0.0 (``-0.0 + 0.0`` is ``+0.0``), and ``0 * inf`` is NaN.  So a layer
skips nothing when one of its bias entries is -0.0 or its input holds a
non-finite value; an accumulator can only be -0.0 if it started at a -0.0
bias.

Batches run in chunks of at most ``CHUNK_BYTES`` per activation, and each
activation is dropped once its last consumer has run.  ``upaq run`` and
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
from .errors import FormatError, ValidationError
from .model import LayerSpec, ModelGraph, infer_shapes

# Bytes one activation of a chunk may take: the chunk size is this over the
# model's largest per-input activation, so memory stays bounded for any batch.
CHUNK_BYTES = 128 * 1024


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
        x = np.stack([act.data for act in inputs[lo:lo + chunk]])
        out = _run(model, x, steps, last_use)[sink_id]
        outputs.extend(Activation(row) for row in out)
    return outputs


def _run(model: ModelGraph, x: np.ndarray, steps, last_use: dict[str, int]) -> dict[str, np.ndarray]:
    """One chunk ``(n, c, h, w)`` through every layer; returns the live activations."""
    acts: dict[str, np.ndarray] = {}
    for idx, layer in enumerate(model.layers):
        srcs = [acts[s] for s in layer.inputs] if layer.inputs else [x]
        if layer.kind == "conv2d":
            out = _conv2d(srcs[0], layer, *steps[layer.id])
        elif layer.kind == "relu":
            out = np.maximum(srcs[0], np.float32(0.0))
        elif layer.kind == "add":
            out = srcs[0] + srcs[1]
        elif layer.kind == "global_avg_pool":
            n, c, h, w = srcs[0].shape
            # add.accumulate sums strictly in row-major order; the trailing
            # + 0.0 turns an all -0.0 sum into the +0.0 of a sum started at 0.0
            total = np.add.accumulate(srcs[0].reshape(n, c, h * w), axis=2)[:, :, -1] + np.float32(0.0)
            out = (total / np.float32(h * w)).reshape(n, c, 1, 1)
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
        (i, r, c, np.ascontiguousarray(cols[:, k]).reshape(1, wt.out_ch, 1))
        for k, (i, r, c) in enumerate(np.ndindex(wt.in_ch, wt.kh, wt.kw))
    ]
    negative_zero_bias = layer.bias is not None and bool(np.any((layer.bias == 0) & np.signbit(layer.bias)))
    if not sparse or negative_zero_bias:
        return every, every
    live = np.any(cols != 0, axis=0)
    if live.all():
        return every, every
    return every, [step for step, keep in zip(every, live) if keep]


def _conv2d(x: np.ndarray, layer: LayerSpec, every, skipping) -> np.ndarray:
    wt = layer.weights
    assert wt is not None
    n, in_ch, h, w = x.shape
    s, p = layer.stride, layer.padding
    oh = (h + 2 * p - wt.kh) // s + 1
    ow = (w + 2 * p - wt.kw) // s + 1
    if p > 0:
        xp = np.zeros((n, in_ch, h + 2 * p, w + 2 * p), dtype=np.float32)
        xp[:, :, p:p + h, p:p + w] = x
    else:
        xp = x
    acc = np.empty((n, wt.out_ch, oh * ow), dtype=np.float32)
    acc[...] = layer.bias[:, None] if layer.bias is not None else np.float32(0.0)
    product = np.empty_like(acc)
    # 0 * inf is NaN, so a zero column only skips over a finite input
    for i, r, c, wcol in (skipping if skipping is every or np.isfinite(x).all() else every):
        plane = xp[:, i, r:r + s * (oh - 1) + 1:s, c:c + s * (ow - 1) + 1:s].reshape(n, 1, oh * ow)
        np.multiply(wcol, plane, out=product)
        np.add(acc, product, out=acc)
    return acc.reshape(n, wt.out_ch, oh, ow)


def _linear(x: np.ndarray, layer: LayerSpec) -> np.ndarray:
    wt = layer.weights
    assert wt is not None
    n = x.shape[0]
    flat = x.reshape(n, -1)
    wmat = wt.data.reshape(wt.out_ch, wt.in_ch)
    acc = np.empty((n, wt.out_ch), dtype=np.float32)
    acc[...] = layer.bias if layer.bias is not None else np.float32(0.0)
    for j in range(wt.in_ch):
        acc += wmat[:, j] * flat[:, j:j + 1]
    return acc.reshape(n, wt.out_ch, 1, 1)


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
    try:
        meta = json.loads(sidecar_path(path).read_text())
        shape = tuple(meta["shape"])
        count = meta["count"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise FormatError(f"{sidecar_path(path)}: bad shape sidecar: {exc}") from exc
    per = int(np.prod(shape))
    raw = Path(path).read_bytes()
    expected = count * per * 4
    if len(raw) != expected:
        raise ValidationError(f"{path}: expected {expected} bytes for {count} inputs, got {len(raw)}")
    flat = np.frombuffer(raw, dtype="<f4").astype(np.float32)
    return [Activation(flat[i * per:(i + 1) * per].reshape(shape)) for i in range(count)]
