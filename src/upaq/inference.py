"""Minimal CPU forward pass for dense and compressed models.

The engine runs a batch in chunks, each held channel-major as ``(C, n, H,
W)``.  Convolution is direct (no im2col/FFT) with a fixed accumulation
order: every output element starts at its bias and accumulates one
``weight * input`` product per (in_ch, row, col) step, in that loop order.
A step takes its input plane of ``n * oh * ow`` values once, then runs one
multiply and one add for each out-channel tile of the ``(out_ch, n * oh *
ow)`` accumulator; a tile's accumulator and product rows fit in
``TILE_BYTES`` so that they stay in cache.  A stride-1 conv with an output
plane the input's size takes the plane as its channel shifted by the cell's
offset (the centre cell reads the channel itself); any other conv gathers
the cell's window.  The order per element is unchanged, so the result is
bit-identical to a straight scalar loop.  relu
and add work on any layout, global average pooling sums each (c, n) plane
strictly in row-major order, and ``linear`` and the sink read each input back
in (C, H, W) order.

The pattern-skipping path (``sparse=True``) skips the products of zero
weights.  A (in_ch, row, col) step whose weight column is zero for every
output channel does not run: all slices of a compressed group share one
pattern, so on a pattern-pruned k x k layer only the retained cells run, 2 of
9 per 3x3 slice under ``hck``.  A 1x1 layer under the block transform has no
such column, but weight ``(o, i)`` is stored when ``(o * in_ch + i) mod 9`` is
a pattern cell, so for a fixed ``i`` the stored rows are a few residue
classes ``o0::m``.  A step whose nonzero rows fit at most ``MAX_PARTS`` such
classes runs over those strided parts of the accumulator only, with no
gather: 2 parts of 7 or 8 rows of 64 per column of a 64->64 layer under
``hck``.  Every other step runs one part, the full range, through the same
loop.  The parts are derived from the weight columns' nonzeros, so the
densified model is the engine's only input.  Skipping is exact: adding a
+-0.0 product leaves every float32 accumulator unchanged except -0.0
(``-0.0 + 0.0`` is ``+0.0``), and ``0 * inf`` is NaN.  So a layer skips
nothing when one of its bias entries is -0.0 or its input holds a
non-finite value; an accumulator can only be -0.0 if it started at a -0.0
bias.

A chunk holds as many inputs as fit ``CHUNK_BYTES`` in the model's largest
activation (4 inputs of 64x32x32, rows of 4096 values).  Each activation is
dropped once its last consumer has run, and relu and add write over a source
nothing else reads, so memory stays bounded for any batch.  ``upaq run`` and
``upaq evaluate`` read the blob into one ``(B, C, H, W)`` array, decompress a
compressed model once and run the array through :func:`run_batch` on the
skipping path, which slices each chunk from it and writes the sinks to one
``(B, *sink)`` array; :func:`forward_batch` wraps it for a list of inputs.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

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
# A weight column whose nonzero out-channels fit at most MAX_PARTS residue
# classes o0::m, m <= MAX_STRIDE, runs over those classes only.  The 3x3
# blocks of a 1x1 layer's flat weights repeat every 9 out-channels or fewer.
MAX_PARTS = 4
MAX_STRIDE = 9
# Bytes of the transposed block global average pooling sums at a time.
POOL_BYTES = 128 * 1024


@dataclass
class Activation:
    """One (channels, height, width) float32 activation tensor."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 3:
            raise ValidationError(f"activation requires 3 dimensions, got {arr.ndim}")
        self.data = _finite(arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(self.data.shape)  # type: ignore[return-value]


def _finite(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValidationError("activation contains non-finite values")
    return arr


def forward_compressed(cm: CompressedModel, input_act: Activation, sparse: bool = False) -> Activation:
    """Run a compressed model on one input, on dequantized weights.

    This decompresses on every call; to run a batch, decompress once and
    call :func:`run_batch` (as ``upaq run`` and ``upaq evaluate`` do).
    The reference path runs the densified model (zeros at pruned
    positions); ``sparse=True`` skips the pruned kernel cells instead, which
    is exact (see the module docstring, including the -0.0 bias rule).
    """
    return forward_batch(decompress_model(cm), [input_act], sparse=sparse)[0]


def forward_batch(model: ModelGraph, inputs: Sequence[Activation], sparse: bool = False) -> list[Activation]:
    """Run the model over a list of inputs; one sink activation per input, as :func:`run_batch` gives it."""
    return [Activation(row) for row in run_batch(model, inputs, sparse)]


def run_batch(model: ModelGraph, batch: np.ndarray | Sequence[Activation], sparse: bool = False) -> np.ndarray:
    """Run the model over a finite ``(B, C, H, W)`` array, as :func:`load_activations`
    gives it, or a list of inputs stacked a chunk at a time; returns the sinks
    as one ``(B, *sink)`` float32 array.

    ``sparse=True`` skips kernel cells that are zero for every output
    channel; the outputs are bit-identical either way.
    """
    is_array = isinstance(batch, np.ndarray)
    for idx, shape in enumerate([batch.shape[1:]] if is_array else [act.shape for act in batch]):
        if shape != model.input_shape:
            raise ValidationError(f"input shape {shape} of input {idx} does not match model input {model.input_shape}")
    shapes = infer_shapes(model)
    largest = max(math.prod(shape) for shape in (model.input_shape, *shapes.values()))
    chunk = max(1, CHUNK_BYTES // (4 * largest))
    steps = {layer.id: _conv_steps(layer, sparse) for layer in model.conv_layers()}
    last_use = {src: idx for idx, layer in enumerate(model.layers) for src in layer.inputs}
    sink_id = model.sink().id
    out = np.empty((len(batch), *shapes[sink_id]), dtype=np.float32)
    for lo in range(0, len(batch), chunk):
        part = batch[lo:lo + chunk]
        x = (np.ascontiguousarray(part.transpose(1, 0, 2, 3), dtype=np.float32) if is_array
             else np.stack([a.data for a in part], axis=1))
        # no name keeps this chunk's sink alive while the next chunk runs
        out[lo:lo + chunk] = np.moveaxis(_run(model, x, steps, last_use)[sink_id], 1, 0)
        _finite(out[lo:lo + chunk])
    return out


def _run(model: ModelGraph, x: np.ndarray, steps, last_use: dict[str, int]) -> dict[str, np.ndarray]:
    """One channel-major chunk ``(c, n, h, w)`` through every layer; returns the live activations."""
    acts: dict[str, np.ndarray] = {}
    for idx, layer in enumerate(model.layers):
        srcs = [acts[s] for s in layer.inputs] if layer.inputs else [x]
        # a first source read for the last time here takes the output in place
        spent = srcs[0] if layer.inputs and last_use[layer.inputs[0]] == idx else None
        if layer.kind == "conv2d":
            out = _conv2d(srcs[0], layer, steps[layer.id])
        elif layer.kind == "relu":
            out = np.maximum(srcs[0], np.float32(0.0), out=spent)
        elif layer.kind == "add":
            out = np.add(srcs[0], srcs[1], out=spent)
        elif layer.kind == "global_avg_pool":
            out = _global_avg_pool(srcs[0])
        elif layer.kind == "linear":
            out = _linear(srcs[0], layer)
        else:  # pragma: no cover - validated earlier
            raise ValidationError(f"layer {layer.id!r}: unknown kind {layer.kind!r}")
        acts[layer.id] = out
        for src in layer.inputs:
            if last_use[src] == idx:
                acts.pop(src, None)
    return acts


class ConvPlan(NamedTuple):
    """The steps of one conv layer, in (in_ch, row, col) loop order.

    A step is ``(in_ch, row, col, weight column, part set)``: the column is an
    ``(out_ch, 1)`` view and the part set indexes ``parts``, each entry a tuple
    of out-channel slices the step runs over.  ``parts[0]`` is the full range.
    """

    parts: list[tuple[slice, ...]]
    every: list[tuple]  # every step over the full range: the reference path
    skipping: list[tuple]  # the steps to run over a finite input


def _conv_steps(layer: LayerSpec, sparse: bool) -> ConvPlan:
    """The plan of one conv layer; ``skipping`` is ``every`` unless ``sparse``
    is set and no bias entry is -0.0.  Then it drops the columns that are zero
    for every out-channel and runs a column whose nonzero rows fit a few
    residue classes ``o0::m`` over those classes only.
    """
    wt = layer.weights
    assert wt is not None
    # one transposed copy: weight column k is row k, viewed as (out_ch, 1)
    columns = np.ascontiguousarray(wt.data.reshape(wt.out_ch, -1).T)
    every = [(i, r, c, col, 0) for (i, r, c), col in zip(np.ndindex(wt.in_ch, wt.kh, wt.kw), columns[:, :, None])]
    parts: list[tuple[slice, ...]] = [(slice(0, wt.out_ch),)]
    negative_zero_bias = layer.bias is not None and bool(np.any((layer.bias == 0) & np.signbit(layer.bias)))
    if not sparse or negative_zero_bias:
        return ConvPlan(parts, every, every)
    live = columns != 0
    nonzeros = live.sum(axis=1)
    part_set = np.where(nonzeros > 0, 0, -1)  # -1: the column is zero for every out-channel
    mixed = np.flatnonzero((nonzeros > 0) & (nonzeros < wt.out_ch))
    index = {}
    for k, classes in zip(mixed.tolist(), _residue_classes(live[mixed])):
        if classes:
            part_set[k] = index.setdefault(classes, len(parts) + len(index))
    parts += [tuple(slice(o0, wt.out_ch, m) for o0, m in classes) for classes in index]
    if (part_set == 0).all():
        return ConvPlan(parts, every, every)
    skipping = [(i, r, c, col, p) for (i, r, c, col, _), p in zip(every, part_set.tolist()) if p >= 0]
    return ConvPlan(parts, every, skipping)


def _residue_classes(live: np.ndarray) -> list[tuple[tuple[int, int], ...]]:
    """For each row of ``live`` (the nonzero out-channels of one weight column),
    the ``(o0, m)`` residue classes, at most ``MAX_PARTS`` of one stride
    ``m <= MAX_STRIDE``, that hold its nonzeros in the fewest rows; ``()``
    where no such cover saves a row over the full range.

    A 1x1 layer's weight ``(o, i)`` is stored when ``(o * in_ch + i) mod d*d``
    is a pattern cell, so its live rows are whole classes mod ``d*d / gcd(in_ch,
    d*d)``.  The search runs over every column of the layer at once.
    """
    count, out_ch = live.shape
    if not count:  # a column of one out-channel is all zero or all live
        return []
    # class (o0, m) of every stride m, numbered from starts[m - 2]: it holds out-channels o0::m
    strides = np.arange(2, min(MAX_STRIDE, out_ch) + 1)
    starts = np.cumsum(strides) - strides
    stride = np.repeat(strides, strides)
    first = np.arange(len(stride)) - np.repeat(starts, strides)
    held = np.zeros((count, len(stride)), dtype=bool)  # class holds a nonzero
    column, row = np.nonzero(live)
    held[column[:, None], starts + row[:, None] % strides] = True
    parts = np.add.reduceat(held, starts, axis=1, dtype=np.int64)
    rows = np.add.reduceat(held * ((out_ch - first + stride - 1) // stride), starts, axis=1)
    rows[parts > MAX_PARTS] = out_ch
    best = rows.argmin(axis=1)  # the smallest stride on a tie
    saves = rows[np.arange(count), best] < out_ch
    j, k = np.nonzero(held & (stride == strides[best][:, None]) & saves[:, None])
    classes: list[list[tuple[int, int]]] = [[] for _ in range(count)]
    for col, o0, m in zip(j.tolist(), first[k].tolist(), stride[k].tolist()):
        classes[col].append((o0, m))
    return [tuple(c) for c in classes]


def _conv2d(x: np.ndarray, layer: LayerSpec, plan: ConvPlan) -> np.ndarray:
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
    # each part cut into tiles whose accumulator and product rows stay in cache
    tile = max(1, TILE_BYTES // (8 * row))
    product = np.empty((min(tile, wt.out_ch), row), dtype=np.float32)
    runs = [[(t, acc[t], product[:len(acc[t])]) for part in part_set for t in _tiles(part, wt.out_ch, tile)]
            for part_set in plan.parts]
    plane = np.empty((1, row), dtype=np.float32)
    shifted = (s, oh, ow) == (1, h, w)
    source = x.reshape(len(x), 1, row) if shifted else x
    cells = _plane_cells(plane.reshape(n, oh, ow), p, rows, cols, shifted)
    # numpy buffers a broadcast multiply over rows shorter than half its ufunc
    # buffer, about 4x slower: a buffer of at most two rows keeps rows unbuffered
    bufsize = np.setbufsize(max(16, min(np.getbufsize(), row // 8 * 16)))
    try:
        # 0 * inf is NaN, so a zero weight only skips over a finite input
        steps = plan.skipping if plan.skipping is plan.every or np.isfinite(x).all() else plan.every
        for i, r, c, wcol, part_set in steps:
            # the input plane under kernel cell (r, c), taken once; cells over the padding read 0
            dst, span, blanks = cells[r][c]
            src = source[i] if dst is None else plane
            if dst is not None:
                dst[...] = source[i][span]
                for blank in blanks:
                    blank.fill(0.0)
            for t, acc_t, prod_t in runs[part_set]:
                np.multiply(wcol[t], src, out=prod_t)
                np.add(acc_t, prod_t, out=acc_t)
    finally:
        np.setbufsize(bufsize)
    return acc.reshape(wt.out_ch, n, oh, ow)


def _plane_cells(plane: np.ndarray, p: int, rows, cols, shifted: bool) -> list[list[tuple]]:
    """Per kernel cell (r, c), ``(dst, span, blanks)``: a step copies its channel's
    values ``[span]`` into the view ``dst`` of the ``(n, oh, ow)`` ``plane``, then
    zeroes the views ``blanks``, each image's rows and columns over the padding.
    A ``shifted`` conv reads the channel flat, shifted by ``(r - p) * ow + c - p``
    (each read that wraps into a neighbouring row or image, or off the plane,
    lands in a blank), and its centre cell reads the channel itself (``dst`` None).
    """
    (n, oh, ow), size = plane.shape, plane.size
    flat, images, lines = plane.reshape(1, size), plane.reshape(n, oh * ow), plane.reshape(n * oh, ow)
    cells: list[list[tuple]] = [[] for _ in rows]
    for (r, (y0, y1, ys)), (c, (x0, x1, xs)) in itertools.product(enumerate(rows), enumerate(cols)):
        blanks = [v for v in (images[:, :y0 * ow], images[:, y1 * ow:], lines[:, :x0], lines[:, x1:]) if v.size]
        if shifted:
            shift = (r - p) * ow + c - p
            k = min(abs(shift), size)  # a shift as long as the plane copies nothing
            dst, span = (flat[:, :size - k], slice(k, None)) if shift >= 0 else (flat[:, k:], slice(0, size - k))
            cells[r].append((dst, (slice(None), span), blanks) if blanks else (None, None, []))
        else:
            cells[r].append((plane[:, y0:y1, x0:x1], (slice(None), ys, xs), blanks))
    return cells


def _tiles(part: slice, out_ch: int, tile: int) -> list[slice]:
    """``part``'s out-channels in slices of at most ``tile`` rows, same stride."""
    rows = range(out_ch)[part]
    return [slice(t.start, t.stop, t.step) for t in (rows[lo:lo + tile] for lo in range(0, len(rows), tile))]


def _global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Each (c, n) plane's mean, its H*W values summed strictly in row-major order.

    Blocks of planes are copied transposed into one ``(H*W, m)`` buffer and
    summed down its rows: numpy adds along a slow axis strictly in order (it
    sums pairwise only along the fast one), and ``m >= 2`` keeps the planes
    the fast axis.  A stale column of a short last block is summed and
    dropped.  The trailing + 0.0 turns an all -0.0 sum into the +0.0 of a sum
    started at 0.0.
    """
    c, n, h, w = x.shape
    planes = x.reshape(c * n, h * w)
    m = max(2, POOL_BYTES // (4 * h * w))
    block = np.zeros((h * w, m), dtype=np.float32)
    total = np.empty(c * n, dtype=np.float32)
    for lo in range(0, c * n, m):
        size = len(planes[lo:lo + m])
        block[:, :size] = planes[lo:lo + m].T
        total[lo:lo + size] = np.add.reduce(block, axis=0)[:size]
    total += np.float32(0.0)
    return (total / np.float32(h * w)).reshape(c, n, 1, 1)


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


def save_activations(path, batch: np.ndarray | Sequence[Activation]) -> None:
    """Write a batch, a ``(B, C, H, W)`` array or a list of activations, as
    one f32 blob; shapes go to ``<path>.json``."""
    if not len(batch):
        raise ValidationError("empty activation batch")
    if not isinstance(batch, np.ndarray):
        for idx, act in enumerate(batch):
            if act.shape != batch[0].shape:
                raise ValidationError(f"input {idx}: shape {act.shape} differs from first input {batch[0].shape}")
        batch = np.stack([act.data for act in batch])
    Path(path).write_bytes(np.ascontiguousarray(batch, dtype="<f4"))
    sidecar_path(path).write_text(
        json.dumps({"count": len(batch), "shape": list(batch.shape[1:])}, indent=2) + "\n"
    )


def load_activations(path) -> np.ndarray:
    """A batch written by :func:`save_activations`, as one finite ``(B, C, H, W)`` float32 array."""
    where = str(sidecar_path(path))
    try:
        meta = json.loads(sidecar_path(path).read_text())
    except ValueError as exc:
        raise FormatError(f"{where}: bad shape sidecar: {exc}") from exc
    shape = _get_shape(meta, "shape", where, 3)
    count = _get(meta, "count", where, int)
    if count < 1:
        raise FormatError(f"{where}: count {count!r} is not a positive integer")
    expected = count * math.prod(shape) * 4
    # one copy of the blob: its size is checked before the batch is allocated, then read into it
    with open(path, "rb") as blob:
        size = os.fstat(blob.fileno()).st_size
        if size == expected:
            batch = np.empty((count, *shape), dtype="<f4")
            size = blob.readinto(batch)
    if size != expected:
        raise FormatError(f"{path}: expected {expected} bytes for {count} inputs, got {size}")
    return _finite(batch.astype(np.float32, copy=False))
