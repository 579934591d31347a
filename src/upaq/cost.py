"""Analytical latency/energy proxies and byte-level compression accounting.

Real on-device measurement is out of scope for this toolkit; the default
cost model is a documented closed form over nonzero multiply-accumulates:

    latency = sum over conv layers of nnz(W) * (bits / 32) * out_h * out_w
    energy  = latency * E_MAC + moved_bytes * E_BYTE
    moved_bytes = sum over conv layers of nnz(W) * bits / 8

with E_MAC = 1 and E_BYTE = 0.1 in arbitrary units.  Dense float32 layers
count as 32-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compressed import CompressedModel, stored_slots
from .model import infer_shapes

E_MAC = 1.0
E_BYTE = 0.1
DENSE_BITS = 32


@dataclass
class CostSummary:
    """Nonzero-weight accounting in both the product and exact sum forms."""

    conv_layer_count: int
    mean_kernels_per_layer: float
    mean_nnz_per_kernel: float
    product: float  # conv_layer_count * mean_kernels * mean_nnz
    total_nnz: int  # exact sum over layers and kernel slices


def _conv_stats(model, bits=None):
    """Yield (layer_id, kernels, nnz, bits, out_h, out_w) per conv layer.

    Dense models count value-nonzeros.  Compressed models count stored
    slots, an upper bound on the pattern-skipping engine's work: it runs a
    retained weight that quantized to zero unless its whole row group is
    zero there, so on every fixture and wide-model layer it runs them all.
    """
    bits = dict(bits) if bits else {}
    qlayers = model.qlayers if isinstance(model, CompressedModel) else {}
    # shapes come from the layer specs and payload shapes: nothing is dequantized
    shapes = infer_shapes(model, {lid: qc.shape for lid, qc in qlayers.items()})
    for layer in (l for l in model.layers if l.kind == "conv2d"):
        if layer.id in qlayers:
            qc, group = qlayers[layer.id], model.group_for(layer.id)
            shape, nnz = qc.shape, int(stored_slots(qc.shape, group.pattern).sum())
            bits.setdefault(layer.id, group.bitwidth)
        else:
            assert layer.weights is not None
            shape, nnz = layer.weights.shape, int(np.count_nonzero(layer.weights.data))
        _, oh, ow = shapes[layer.id]
        yield layer.id, shape[0] * shape[1], nnz, int(bits.get(layer.id, DENSE_BITS)), oh, ow


@dataclass
class ModelCost:
    """Analytic latency and energy of one model, in arbitrary units."""

    latency: float
    energy: float


def layer_costs(model, bits: dict[str, int] | None = None) -> dict[str, tuple[int, int, int, int]]:
    """Each conv layer's ``(nnz, bits, out_h, out_w)``, in layer order, from
    one shape walk."""
    return {lid: (nnz, b, oh, ow) for lid, _, nnz, b, oh, ow in _conv_stats(model, bits)}


def sum_costs(costs: dict[str, tuple[int, int, int, int]]) -> ModelCost:
    """Latency and energy of per-layer stats, summed in layer order."""
    latency = moved_bytes = 0.0
    for nnz, b, oh, ow in costs.values():
        latency += nnz * (b / 32.0) * oh * ow
        moved_bytes += nnz * b / 8.0
    return ModelCost(latency, latency * E_MAC + moved_bytes * E_BYTE)


def model_cost(model, bits: dict[str, int] | None = None) -> ModelCost:
    """Latency and energy of a dense or compressed model, in one walk."""
    return sum_costs(layer_costs(model, bits))


def computational_cost(model) -> CostSummary:
    """Nonzero-weight cost in product form (layers x kernels x weights).

    Kernels are averaged over conv layers and nonzeros over all kernel
    slices, so the product form recovers the exact sum-form total.
    """
    stats = [(kernels, nnz) for _, kernels, nnz, _, _, _ in _conv_stats(model)]
    if not stats:
        return CostSummary(0, 0.0, 0.0, 0.0, 0)
    layer_count = len(stats)
    total_kernels = sum(k for k, _ in stats)
    total_nnz = sum(n for _, n in stats)
    mean_kernels = total_kernels / layer_count
    mean_nnz = total_nnz / total_kernels if total_kernels else 0.0
    return CostSummary(
        conv_layer_count=layer_count,
        mean_kernels_per_layer=mean_kernels,
        mean_nnz_per_kernel=mean_nnz,
        product=layer_count * mean_kernels * mean_nnz,
        total_nnz=total_nnz,
    )


def compression_ratio(dense_bytes: int, compressed_bytes: int) -> float:
    """Dense payload bytes over compressed payload bytes (headers excluded)."""
    if dense_bytes <= 0:
        raise ValueError("dense payload must be positive")
    if compressed_bytes <= 0:
        raise ValueError("compressed payload must be positive")
    return dense_bytes / compressed_bytes
