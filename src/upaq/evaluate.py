"""Fidelity and footprint evaluation of a compressed model against its base.

Object-detection metrics are out of reach at desk scale, so fidelity is
summarized by proxies over the sink activation: mean relative L2 error,
argmax (top-1) agreement, and cosine similarity, averaged over the input
batch.  The report also carries the byte-accounted compression ratio, the
analytical cost figures, and the final efficiency score of the model.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .compressed import CompressedModel, decompress_model, dequantized_weights
from .container import compressed_payload_nbytes, dense_payload_nbytes, packed_layer_nbytes
from .cost import AnalyticCostModel, compression_ratio
from .compressor import ModelCost, blocks_from_1x1, calculate_es
from .errors import ValidationError
from .inference import Activation, forward_batch
from .model import ModelGraph
from .patterns import apply_pattern
from .quantizer import ERR_VAR_FLOOR, SQNR_CAP, SQNR_CAP_DB

_NORM_FLOOR = 1e-30


@dataclass
class FidelityReport:
    mean_rel_err: float
    top1_agreement: float
    cosine_sim: float
    compression_ratio: float
    latency_units_base: float
    latency_units_compressed: float
    energy_units_base: float
    energy_units_compressed: float
    es_total: float
    n_inputs: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def evaluate_fidelity(base: ModelGraph, cm: CompressedModel, inputs: list[Activation]) -> FidelityReport:
    """Run both models over the batch and assemble the report.

    The compressed model is decompressed once; the base model runs the
    dense path and the densified model the pattern-skipping path, which
    gives the same bits.
    """
    if not inputs:
        raise ValidationError("evaluation requires at least one input")
    densified = decompress_model(cm)  # one materialization for the whole batch
    base_out = forward_batch(base, inputs)
    comp_out = forward_batch(densified, inputs, sparse=True)
    rel_errs = []
    cosines = []
    agreements = 0
    for out_b, out_c in zip(base_out, comp_out):
        yb = out_b.data.reshape(-1).astype(np.float64)
        yc = out_c.data.reshape(-1).astype(np.float64)
        base_norm = float(np.linalg.norm(yb))
        diff_norm = float(np.linalg.norm(yc - yb))
        rel_errs.append(diff_norm / base_norm if base_norm > _NORM_FLOOR else (0.0 if diff_norm <= _NORM_FLOOR else math.inf))
        comp_norm = float(np.linalg.norm(yc))
        if base_norm > _NORM_FLOOR and comp_norm > _NORM_FLOOR:
            cosines.append(float(np.dot(yb, yc)) / (base_norm * comp_norm))
        else:
            cosines.append(1.0 if base_norm <= _NORM_FLOOR and comp_norm <= _NORM_FLOOR else 0.0)
        if int(np.argmax(yb)) == int(np.argmax(yc)):
            agreements += 1

    cost = AnalyticCostModel()
    base_latency = cost.latency(base)
    base_energy = cost.energy(base)
    comp_latency = cost.latency(cm)
    comp_energy = cost.energy(cm)
    ratio = compression_ratio(dense_payload_nbytes(base), compressed_payload_nbytes(cm))
    es = calculate_es(
        cm, model_sqnr_db(base, cm), cost,
        ModelCost(base_latency, base_energy), cm.profile.es_weights,
    )
    return FidelityReport(
        mean_rel_err=float(np.mean(rel_errs)),
        top1_agreement=agreements / len(inputs),
        cosine_sim=float(np.mean(cosines)),
        compression_ratio=ratio,
        latency_units_base=base_latency,
        latency_units_compressed=comp_latency,
        energy_units_base=base_energy,
        energy_units_compressed=comp_energy,
        es_total=es.total,
        n_inputs=len(inputs),
    )


def model_sqnr_db(base: ModelGraph, cm: CompressedModel) -> float:
    """Mean per-slice SQNR (dB) across every compressed layer of the model.

    Recomputed from the stored payloads against the masked dense weights,
    using the same population-variance convention as the quantizer.
    """
    db: list[float] = []
    for group in cm.groups:
        for member in group.member_ids:
            wt = base.by_id(member).weights
            if wt is None:
                raise ValidationError(f"layer {member!r}: base model has no weights")
            qc = cm.qlayers[member]
            deq = dequantized_weights(qc)
            if qc.block_k is None:
                for o in range(wt.out_ch):
                    for i in range(wt.in_ch):
                        masked = apply_pattern(wt.data[o, i], group.pattern)
                        db.append(_slice_sqnr_db(masked, deq[o, i]))
            else:
                k = qc.block_k
                base_blocks = blocks_from_1x1(wt, k)
                deq_flat = deq.reshape(-1)
                count = wt.out_ch * wt.in_ch
                for j, block in enumerate(base_blocks):
                    masked = apply_pattern(block, group.pattern)
                    recon = np.zeros(k * k, dtype=np.float32)
                    lo = j * k * k
                    hi = min(lo + k * k, count)
                    recon[: hi - lo] = deq_flat[lo:hi]
                    db.append(_slice_sqnr_db(masked, recon.reshape(k, k)))
    if not db:
        return SQNR_CAP_DB
    return float(np.mean(db))


def _slice_sqnr_db(x: np.ndarray, recon: np.ndarray) -> float:
    x64 = x.astype(np.float64)
    err = x64 - recon.astype(np.float64)
    err_var = float(np.var(err))
    if err_var < ERR_VAR_FLOOR:
        return SQNR_CAP_DB
    linear = min(float(np.var(x64)) / err_var, SQNR_CAP)
    return 10.0 * math.log10(linear) if linear > 0 else -math.inf


def recount_payload_nbytes(cm: CompressedModel) -> int:
    """Independent payload recount: groups plus the dense remainder.

    Sums pattern masks, scale tables, and packed integers per group member,
    then adds uncompressed weights and all biases; must equal the container
    payload length exactly.
    """
    total = 0
    for group in cm.groups:
        total += math.ceil(group.pattern.d ** 2 / 8)
        for member in group.member_ids:
            qc = cm.qlayers[member]
            total += 4 * qc.scales.size
            total += packed_layer_nbytes(qc, group.pattern)
    for layer in cm.layers:
        if layer.weights is not None:
            total += 4 * layer.weights.data.size
        if layer.bias is not None:
            total += 4 * layer.bias.size
    return total
