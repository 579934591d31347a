"""Analytical latency/energy proxies and byte-level compression accounting.

Real on-device measurement is out of scope for this toolkit; the default
cost model is a documented closed form over nonzero multiply-accumulates:

    latency = sum over conv layers of nnz(W) * (bits / 32) * out_h * out_w
    energy  = latency * E_MAC + moved_bytes * E_BYTE
    moved_bytes = sum over conv layers of nnz(W) * bits / 8

with E_MAC = 1 and E_BYTE = 0.1 in arbitrary units.  Dense float32 layers
count as 32-bit.  A measured mode (wall-clock over the bundled inference
engine) can be swapped in; it reports energy as unavailable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .compressed import CompressedModel, decompress_model, stored_value_count
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
    slots: a pattern-skipping engine executes every retained position, even
    one whose weight quantized to integer zero.
    """
    bits = dict(bits) if bits else {}
    if isinstance(model, CompressedModel):
        for g in model.groups:
            for m in g.member_ids:
                bits.setdefault(m, g.bitwidth)
        nnz_by_layer = {
            lid: stored_value_count(qc, model.group_for(lid).pattern)
            for lid, qc in model.qlayers.items()
        }
        dense = decompress_model(model)
    else:
        nnz_by_layer = {}
        dense = model
    shapes = infer_shapes(dense)
    for layer in dense.conv_layers():
        assert layer.weights is not None
        if layer.id in nnz_by_layer:
            nnz = nnz_by_layer[layer.id]
        else:
            nnz = int(np.count_nonzero(layer.weights.data))
        _, oh, ow = shapes[layer.id]
        kernels = layer.weights.out_ch * layer.weights.in_ch
        yield layer.id, kernels, nnz, int(bits.get(layer.id, DENSE_BITS)), oh, ow


class AnalyticCostModel:
    """Deterministic closed-form cost; the default for compression search."""

    mode = "analytic"

    def latency(self, model, bits: dict[str, int] | None = None) -> float:
        return _analytic_totals(model, bits)[0]

    def energy(self, model, bits: dict[str, int] | None = None) -> float | None:
        latency, moved_bytes = _analytic_totals(model, bits)
        return latency * E_MAC + moved_bytes * E_BYTE


def _analytic_totals(model, bits) -> tuple[float, float]:
    """Latency and moved bytes, summed in layer order in one walk."""
    latency = moved_bytes = 0.0
    for _, _, nnz, b, oh, ow in _conv_stats(model, bits):
        latency += nnz * (b / 32.0) * oh * ow
        moved_bytes += nnz * b / 8.0
    return latency, moved_bytes


class MeasuredCostModel:
    """Wall-clock latency over the bundled engine; energy is unavailable.

    Nondeterministic by nature: compression runs using this mode are not
    expected to be byte-reproducible.
    """

    mode = "measured"

    def __init__(self, repeats: int = 3):
        self.repeats = max(1, repeats)

    def latency(self, model, bits: dict[str, int] | None = None) -> float:
        from .inference import Activation, forward, forward_compressed

        probe = Activation(np.zeros(model.input_shape, dtype=np.float32))

        def run():
            if isinstance(model, CompressedModel):
                forward_compressed(model, probe, sparse=True)
            else:
                forward(model, probe)

        samples = []
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            run()
            samples.append(time.perf_counter() - t0)
        samples.sort()
        return samples[len(samples) // 2]

    def energy(self, model, bits: dict[str, int] | None = None) -> float | None:
        return None


def estimate_latency(model, bits: dict[str, int] | None = None) -> float:
    """Analytical latency of a dense or compressed model (default cost model)."""
    return AnalyticCostModel().latency(model, bits)


def estimate_energy(model, bits: dict[str, int] | None = None) -> float:
    """Analytical energy of a dense or compressed model (default cost model)."""
    energy = AnalyticCostModel().energy(model, bits)
    assert energy is not None
    return energy


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
