"""Minimal CPU forward pass for dense and compressed models.

The engine runs a batch in chunks, each held channel-major as ``(C, n, H,
W)``.  Convolution is direct (no im2col/FFT): every output element starts at
its bias and adds one ``weight * input`` product per (in_ch, row, col) step
in that order, each product and each sum rounded to float32, bit-identical to
a straight scalar loop.  Per block of output columns of at most
``BLOCK_BYTES``, each row group of a layer runs one ``np.einsum("ok,ke->oe",
W, X, optimize=False)``: ``W`` is its ``[bias | weight columns]`` and ``X`` a
ones row over the input plane under each column's kernel cell.  einsum adds
``W[o, k] * X[k, e]`` for ``k`` in order, rounding each product and each sum,
where numpy's SIMD baseline lacks fused multiply-add (x86-64 below FMA3, such
as X86_V2, but not aarch64): only there is the engine bit-exact, as
``tests/test_inference.py`` checks.  Over a lone column einsum would sum as a
dot product, in another order, so that column runs beside a copy.  It starts
at +0.0, not at the bias, so rows of a -0.0 bias, where the scalar loop may
end at -0.0, run again as that loop.  Each kernel cell a group runs fills its
rows of ``X`` with the window of the input it reads over the block's output
lines, whatever the stride and padding: a cell that reads padding has its
rows zeroed, one write each, then its window copied.  ``linear`` is the same
contraction over each input's (C, H, W) features; relu maps NaN to +0.0, as
the scalar ``v if v > 0 else 0``; global average pooling sums each (c, n)
plane strictly in row-major order.

Each layer runs only the weight columns nonzero in some row of a row group,
and no caller chooses: the weights, the bias signs and the input decide.  A
k x k layer under ``hck`` runs 2 of 9 cells per 3x3 slice.  A 1x1 layer under
the block transform stores weight ``(o, i)`` when ``(o * in_ch + i) mod 9`` is
a pattern cell, so its rows fall in 9 groups, each over its own 14 to 16 of
64 columns for a 64->64 layer under ``hck``.  A dense layer has one group over
every column.  Skipping is exact: an einsum sum is never -0.0, so adding a
+-0.0 product leaves it unchanged, but ``0 * inf`` is NaN, so a layer with a
-0.0 bias entry plans one group over every column, and a plan that skips a
column is swapped for such a plan, built then, over an activation that
overflowed.  A plan that skips nothing never scans its input.

A chunk holds as many inputs as fit ``CHUNK_BYTES`` in the model's largest
activation (4 inputs of 64x32x32).  Each activation is dropped after its last
consumer, and relu and add write over a source nothing else reads, so memory
stays bounded for any batch.  A batch of more than one chunk is split over
``workers = min(CPUs, chunk)`` threads, CPUs being those this process may run
on (:func:`usable_cpus`): each runs chunks of ``chunk // workers`` inputs,
worker ``w`` taking every ``workers``-th of them from the ``w``-th, and the
calling thread runs share 0.  At most ``chunk`` inputs are in flight, as on
one thread, plus one contraction buffer per extra thread; einsum releases the
GIL, so the shares overlap.  Each chunk writes only its own rows of the output
and the plans are built before any thread starts, so the bits are the same for
any CPU count.  A batch of one chunk starts no thread.  :func:`run_batch`
takes the ``(B, C, H, W)`` array that ``upaq run`` and ``upaq evaluate`` read
(:func:`load_activations` checks its size, not its values), and writes the
sinks to one ``(B, *sink)`` array.  It checks the graph it is given as it
takes its shapes (:func:`~upaq.model.infer_shapes`): a bad graph is a
ValidationError.  It is the one check of the values: it casts the batch to
float32 and checks it finite, naming the first bad input, before any thread
starts; an input past float32's range is inf, and named so.
"""

from __future__ import annotations

import json
import math
import os
import threading
import zlib
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
# Bytes of one block of a conv's contraction input: its ones row and one row
# per weight column run, over the block's output columns.
BLOCK_BYTES = 512 * 1024
# Bytes of the transposed block global average pooling sums at a time.
POOL_BYTES = 128 * 1024
# Row groups a skipping plan may have; past this many a layer runs as one group.
MAX_GROUPS = 9


# kept, with its finiteness check, only because perfbench/workloads.py builds inputs from it
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
    """Run a compressed model on one input, decompressing it on every call;
    a batch goes through :func:`run_batch` on a model decompressed once, as
    ``upaq run`` and ``upaq evaluate`` do.  ``sparse`` is ignored."""
    # kept, with Activation and its sparse keyword, only because perfbench/workloads.py calls it
    return Activation(run_batch(decompress_model(cm), input_act.data[None])[0])


def run_batch(model: ModelGraph, batch: np.ndarray) -> np.ndarray:
    """Run the model over a ``(B, C, H, W)`` array, as :func:`load_activations`
    gives it; returns the sinks as one ``(B, *sink)`` float32 array.

    A batch of more than one chunk is split over up to one thread per usable
    CPU, the calling thread running one share; every thread is joined before
    this returns or raises."""
    if batch.shape[1:] != model.input_shape:
        raise ValidationError(f"input shape {batch.shape[1:]} does not match model input {model.input_shape}")
    shapes = infer_shapes(model)
    largest = max(math.prod(shape) for shape in (model.input_shape, *shapes.values()))
    chunk = max(1, CHUNK_BYTES // (4 * largest))
    if batch.dtype != np.float32:  # an input past float32's range casts to inf, which the check below names
        with np.errstate(over="ignore"):
            batch = batch.astype(np.float32)
    for lo in range(0, len(batch), chunk):
        if not np.isfinite(part := batch[lo:lo + chunk]).all():
            bad = lo + int(np.flatnonzero(~np.isfinite(part).reshape(len(part), -1).all(axis=1))[0])
            raise ValidationError(f"input {bad} contains non-finite values")
    plans = {layer.id: _conv_steps(layer) for layer in model.layers if layer.weights is not None}
    last_use = {src: idx for idx, layer in enumerate(model.layers) for src in layer.inputs}
    sink_id = model.layers[-1].id  # a checked graph's one sink
    out = np.empty((len(batch), *shapes[sink_id]), dtype=np.float32)
    # each share runs chunks of chunk // workers inputs, so at most chunk inputs are in flight
    workers = min(usable_cpus(), chunk) if len(batch) > chunk else 1
    step = chunk // workers
    starts = range(0, len(batch), step)
    errors: list[BaseException | None] = [None] * workers

    def share(w: int) -> None:
        try:
            for lo in starts[w::workers]:
                x = np.ascontiguousarray(batch[lo:lo + step].transpose(1, 0, 2, 3))
                # no name keeps this chunk's sink alive while the next chunk runs
                out[lo:lo + step] = np.moveaxis(_run(model, x, plans, last_use)[sink_id], 1, 0)
                _finite(out[lo:lo + step])
        except BaseException as exc:  # re-raised by the caller once every share has stopped
            errors[w] = exc

    threads = [threading.Thread(target=share, args=(w,)) for w in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        share(0)
    finally:
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return out


def usable_cpus() -> int:
    """The CPUs this process may run on: :func:`run_batch` splits a batch of
    more than one chunk over up to this many threads."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run(model: ModelGraph, x: np.ndarray, plans, last_use: dict[str, int]) -> dict[str, np.ndarray]:
    """One channel-major chunk ``(c, n, h, w)`` through every layer; returns the live activations."""
    acts: dict[str, np.ndarray] = {}
    for idx, layer in enumerate(model.layers):
        srcs = [acts[s] for s in layer.inputs] if layer.inputs else [x]
        # a first source read for the last time here takes the output in place
        spent = srcs[0] if layer.inputs and last_use[layer.inputs[0]] == idx else None
        plan = plans.get(layer.id)
        # 0 * inf is NaN, so a plan that skips a column runs only over a finite input
        if plan is not None and plan.executed < layer.weights.data.size and not np.isfinite(srcs[0]).all():
            plan = _conv_steps(layer, every=True)
        if layer.kind == "conv2d":
            out = _conv2d(srcs[0], plan, layer.stride, layer.padding)
        elif layer.kind == "relu":
            out = np.fmax(srcs[0], np.float32(0.0), out=spent)  # NaN, -inf and -0.0 give +0.0
        elif layer.kind == "add":
            out = np.add(srcs[0], srcs[1], out=spent)
        elif layer.kind == "global_avg_pool":
            out = _global_avg_pool(srcs[0])
        else:  # linear, a 1x1 conv over each input's features in (C, H, W) order
            c, n, h, w = srcs[0].shape
            out = _conv2d(srcs[0].transpose(0, 2, 3, 1).reshape(c * h * w, n, 1, 1), plan, 1, 0)
        acts[layer.id] = out
        for src in layer.inputs:
            if last_use[src] == idx:
                acts.pop(src, None)
    return acts


class Group(NamedTuple):
    """Out-channels ``rows`` running the same weight columns: ``weights`` is
    their column-major float32 ``[bias | columns]``, so einsum runs ``k``
    outermost, and a fill ``(r, c, X rows, in_chs)`` names the rows of ``X``
    that hold kernel cell ``(r, c)``'s planes."""

    rows: slice | np.ndarray
    weights: np.ndarray
    fills: list[tuple[int, int, slice, slice]]


class ConvPlan(NamedTuple):
    """One conv or linear layer's row groups; rows ``negative_zero`` have a -0.0 bias."""

    kh: int
    kw: int
    groups: list[Group]
    negative_zero: np.ndarray

    @property
    def executed(self) -> int:
        """The weights the plan runs: rows times columns over its groups."""
        return sum(g.weights.shape[0] * (g.weights.shape[1] - 1) for g in self.groups)


def _conv_steps(layer: LayerSpec, every: bool = False) -> ConvPlan:
    """The plan of one conv or linear layer: the groups :func:`_row_groups`
    takes over its nonzero weights or, with ``every`` or a -0.0 bias, over
    every column, which is one group."""
    wt = layer.weights
    assert wt is not None
    flat = wt.data.reshape(wt.out_ch, -1)  # column k is step (in_ch, row, col) in loop order
    bias = layer.bias if layer.bias is not None else np.zeros(wt.out_ch, dtype=np.float32)
    negative_zero = np.flatnonzero((bias == 0) & np.signbit(bias))
    live = np.ones(flat.shape, dtype=bool) if every or negative_zero.size else flat != 0
    groups = [_group(flat, bias, wt.in_ch, wt.kw, rows, cols) for rows, cols in _row_groups(live)]
    return ConvPlan(wt.kh, wt.kw, groups, negative_zero)


def _row_groups(live: np.ndarray) -> list[tuple[slice | np.ndarray, np.ndarray]]:
    """``(rows, column mask)`` groups of the ``(out_ch, columns)`` nonzero mask
    ``live``: rows grouped by the set of columns they are nonzero in, a set
    inside another joining the largest such.  A 1x1 layer under the block
    transform has at most 9, one per row class mod 9; past ``MAX_GROUPS``,
    the layer is one group over every column nonzero in some row, as a k x k
    layer is: its rows share one pattern, so one row holds all those columns."""
    union, count = live.any(axis=0), live.sum(axis=1)
    one = [(slice(0, len(live)), union)]
    if count.max() == union.sum():
        return one
    first: dict[bytes, int] = {}  # each distinct set by the first row that holds it
    rep = np.array([first.setdefault(row.tobytes(), o) for o, row in enumerate(live)])
    kept: list[int] = []
    owner = np.empty(len(live), dtype=np.intp)
    for o in sorted(first.values(), key=lambda o: -count[o]):
        holders = np.flatnonzero(~(live[o] & ~live[kept]).any(axis=1))
        owner[o] = kept[holders[0]] if holders.size else o
        kept += [] if holders.size else [o]
        if len(kept) > MAX_GROUPS:
            return one
    return [(np.flatnonzero(owner[rep] == t), live[t]) for t in kept]


def _group(flat: np.ndarray, bias: np.ndarray, in_ch: int, kw: int, rows, cols: np.ndarray) -> Group:
    """The group of out-channels ``rows`` (a slice or ascending) over the columns set in ``cols``."""
    if not isinstance(rows, slice) and len(runs := _progressions(rows)) == 1:
        rows = runs[0][0]
    weights = np.asfortranarray(np.concatenate((bias[rows, None], flat[rows][:, cols]), axis=1))
    live = cols.reshape(in_ch, -1)
    chans, cell = np.nonzero(live)  # in the order of the columns
    fills = []
    for q in np.flatnonzero(live.any(axis=0)).tolist():
        at = np.flatnonzero(cell == q)
        fills += [(q // kw, q % kw, xrows, ins) for xrows, ins in _progressions(at + 1, chans[at])]
    return Group(rows, weights, fills)


def _progressions(*seqs: np.ndarray) -> list[tuple[slice, ...]]:
    """Ascending index arrays of one length, cut into the fewest interleaved
    parts ``[j::p]`` in which each array steps evenly: per part, one slice
    of each array."""
    a = [seq.tolist() for seq in seqs]
    n = len(a[0])
    # part j steps evenly when its step s[t + p] - s[t] repeats every p places
    p = next(p for p in range(1, n + 1)
             if all(s[t + 2 * p] - s[t + p] == s[t + p] - s[t] for s in a for t in range(n - 2 * p)))
    return [tuple(slice(s[j], s[j::p][-1] + 1, s[j + p] - s[j] if j + p < n else 1) for s in a)
            for j in range(min(p, n))]


def _conv2d(x: np.ndarray, plan: ConvPlan, s: int, p: int) -> np.ndarray:
    """One conv over channel-major ``x``: per block of output columns, each row
    group fills its rows of the contraction input ``X`` and runs one einsum."""
    _, n, h, w = x.shape
    oh, ow = (h + 2 * p - plan.kh) // s + 1, (w + 2 * p - plan.kw) // s + 1
    depth = max(g.weights.shape[1] for g in plan.groups)
    # blocks (j0, j1, y0, y1), lines y0:y1 of images j0:j1: whole images if one fits, else line ranges
    span = BLOCK_BYTES // (4 * depth)
    whole = oh * ow <= span
    total, most = (n, span // (oh * ow)) if whole else (oh, max(1, span // ow))
    per = -(-total // -(-total // most))
    blocks = ([(j, min(j + per, n), 0, oh) for j in range(0, n, per)] if whole
              else [(j, j + 1, y, min(y + per, oh)) for j in range(n) for y in range(0, oh, per)])
    acc = np.empty((sum(len(g.weights) for g in plan.groups), n * oh * ow), dtype=np.float32)
    buf = np.empty(depth * max(2, per * (oh * ow if whole else ow)), dtype=np.float32)
    for j0, j1, y0, y1 in blocks:
        e0, size = (j0 * oh + y0) * ow, (j1 - j0) * (y1 - y0) * ow
        # one output column would make einsum sum as a dot product: run it beside a copy
        X = buf[:depth * max(2, size)].reshape(depth, -1)
        X[0] = 1.0
        for g in plan.groups:
            for r, q, xrows, ins in g.fills:
                a, b, ys = _window(r, s, p, h, y0, y1)
                c, d, xs = _window(q, s, p, w, 0, ow)
                view = X[xrows, :size].reshape(-1, j1 - j0, y1 - y0, ow)
                if b - a < y1 - y0 or d - c < ow:  # the cell reads padding: zero its rows, each one write
                    view[...] = 0.0
                view[:, :, a:b, c:d] = x[ins, j0:j1, ys, xs]
            k = g.weights.shape[1]
            if size > 1 and isinstance(g.rows, slice):
                np.einsum("ok,ke->oe", g.weights, X[:k], out=acc[g.rows, e0:e0 + size], optimize=False)
            else:
                X[:k, size:] = X[:k, :1]  # the copy beside a lone column
                acc[g.rows, e0:e0 + size] = np.einsum("ok,ke->oe", g.weights, X[:k], optimize=False)[:, :size]
        if plan.negative_zero.size:  # then the one group runs every column, so X holds them all
            wz = plan.groups[0].weights[plan.negative_zero]
            sums = np.repeat(wz[:, :1], size, axis=1)
            for col in range(1, depth):
                sums += wz[:, col:col + 1] * X[col, :size]
            acc[plan.negative_zero, e0:e0 + size] = sums
    return acc.reshape(-1, n, oh, ow)


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


def _window(k: int, stride: int, pad: int, size: int, lo: int, hi: int) -> tuple[int, int, slice]:
    """Of the output lines ``[lo, hi)``, those ``a:b`` (counted from ``lo``)
    whose kernel offset ``k`` lands inside the input, and their input slice."""
    a = max(lo, -((k - pad) // stride))
    b = max(a, min(hi, (size - 1 + pad - k) // stride + 1))
    first = a * stride + k - pad
    return a - lo, b - lo, slice(first, first + max(0, stride * (b - a - 1) + 1), stride)


# ---------------------------------------------------------------------------
# activation batches on disk: raw little-endian float32 blob + JSON sidecar
# ---------------------------------------------------------------------------

def sidecar_path(blob_path) -> Path:
    return Path(str(blob_path) + ".json")


def save_activations(path, batch: np.ndarray) -> None:
    """Write a ``(B, C, H, W)`` batch as one f32 blob; its count, shape and
    ``zlib.crc32`` go to ``<path>.json``."""
    if not len(batch):
        raise ValidationError("empty activation batch")
    if not isinstance(batch, np.ndarray):  # kept only because perfbench/workloads.py saves a list of Activation
        for idx, act in enumerate(batch):
            if act.shape != batch[0].shape:
                raise ValidationError(f"input {idx}: shape {act.shape} differs from first input {batch[0].shape}")
        batch = np.stack([act.data for act in batch])
    if batch.ndim != 4:
        raise ValidationError(f"activation batch requires 4 dimensions (B, C, H, W), got {batch.ndim}")
    blob = np.ascontiguousarray(batch, dtype="<f4")
    Path(path).write_bytes(blob)
    sidecar_path(path).write_text(
        json.dumps({"count": len(batch), "shape": list(batch.shape[1:]), "crc32": zlib.crc32(blob)}, indent=2) + "\n"
    )


def load_activations(path) -> np.ndarray:
    """A batch written by :func:`save_activations`, its bits as one ``(B, C, H, W)`` float32 array."""
    where = str(sidecar_path(path))
    try:
        meta = json.loads(sidecar_path(path).read_text())
    except ValueError as exc:
        raise FormatError(f"{where}: bad shape sidecar: {exc}") from exc
    shape = _get_shape(meta, "shape", where, 3)
    count = _get(meta, "count", where, int)
    if count < 1:
        raise FormatError(f"{where}: count {count!r} is not a positive integer")
    crc = _get(meta, "crc32", where, int)
    expected = count * math.prod(shape) * 4
    # one copy of the blob: its size is checked before the batch is allocated, then read into it
    with open(path, "rb") as blob:
        size = os.fstat(blob.fileno()).st_size
        if size == expected:
            batch = np.empty((count, *shape), dtype="<f4")
            size = blob.readinto(batch)
    if size != expected:
        raise FormatError(f"{path}: expected {expected} bytes for {count} inputs, got {size}")
    if zlib.crc32(batch) != crc:
        raise FormatError(f"{path}: CRC32 does not match its sidecar")
    return batch.astype(np.float32, copy=False)
