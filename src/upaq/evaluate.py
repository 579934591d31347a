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

from .compressed import CompressedModel, QuantizedConv, decompress_model, dequantized_weights, slice_stack
from .container import compressed_payload_nbytes, dense_payload_nbytes
from .cost import compression_ratio, model_cost
from .compressor import calculate_es
from .errors import ValidationError
from .inference import run_batch
from .model import ModelGraph
from .patterns import KernelPattern
from .quantizer import SQNR_CAP_DB, slice_sqnr

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


def evaluate_fidelity(base: ModelGraph, cm: CompressedModel, inputs: np.ndarray) -> FidelityReport:
    """Run both models over the ``(B, C, H, W)`` batch and assemble the report.

    The compressed model is decompressed once.  The engine skips the cells
    the densified model's patterns prune, as it works out from its weights,
    and runs every cell of the base model: the same bits as running all.
    Each input's norms and dot product are taken over its float64 sink, as
    ``np.linalg.norm`` and ``np.dot`` take them.
    """
    if not len(inputs):
        raise ValidationError("evaluation requires at least one input")
    densified = decompress_model(cm)  # one materialization for the whole batch
    base_out = run_batch(base, inputs).reshape(len(inputs), -1).astype(np.float64)
    comp_out = run_batch(densified, inputs).reshape(len(inputs), -1).astype(np.float64)
    rel_errs = []
    cosines = []
    for yb, yc, diff in zip(base_out, comp_out, comp_out - base_out):
        base_norm, comp_norm, diff_norm = math.sqrt(yb @ yb), math.sqrt(yc @ yc), math.sqrt(diff @ diff)
        rel_errs.append(diff_norm / base_norm if base_norm > _NORM_FLOOR else (0.0 if diff_norm <= _NORM_FLOOR else math.inf))
        if base_norm > _NORM_FLOOR and comp_norm > _NORM_FLOOR:
            cosines.append(float(yb @ yc) / (base_norm * comp_norm))
        else:
            cosines.append(1.0 if base_norm <= _NORM_FLOOR and comp_norm <= _NORM_FLOOR else 0.0)
    agreements = int(np.count_nonzero(base_out.argmax(axis=1) == comp_out.argmax(axis=1)))

    base_cost, comp_cost = model_cost(base), model_cost(cm)
    ratio = compression_ratio(dense_payload_nbytes(base), compressed_payload_nbytes(cm))
    es = calculate_es(model_sqnr_db(base, cm), comp_cost, base_cost, cm.profile.es_weights)
    return FidelityReport(
        mean_rel_err=float(np.mean(rel_errs)),
        top1_agreement=agreements / len(inputs),
        cosine_sim=float(np.mean(cosines)),
        compression_ratio=ratio,
        latency_units_base=base_cost.latency,
        latency_units_compressed=comp_cost.latency,
        energy_units_base=base_cost.energy,
        energy_units_compressed=comp_cost.energy,
        es_total=es.total,
        n_inputs=len(inputs),
    )


def model_sqnr_db(base: ModelGraph, cm: CompressedModel) -> float:
    """Mean per-slice SQNR (dB) across every compressed layer of the model,
    each layer's from :func:`payload_sqnr_db`."""
    db: list[np.ndarray] = []
    for group in cm.groups:
        for member in group.member_ids:
            wt = base.by_id(member).weights
            if wt is None:
                raise ValidationError(f"layer {member!r}: base model has no weights")
            qc = cm.qlayers[member]
            if wt.shape != qc.shape:
                raise ValidationError(f"layer {member!r}: base weights {wt.shape} != compressed {qc.shape}")
            db.append(payload_sqnr_db(wt.data, qc, group.pattern))
    if not db:
        return SQNR_CAP_DB
    return float(np.mean(np.concatenate(db)))


def payload_sqnr_db(weights: np.ndarray, qc: QuantizedConv, pattern: KernelPattern) -> np.ndarray:
    """Per-slice SQNR (dB) of a stored payload against the dense ``weights``
    it was quantized from, by :func:`~upaq.quantizer.slice_sqnr`: the cells
    ``pattern`` keeps of each slice against their dequantized values, the
    same rule on the same cells that scored the search's candidates."""
    d = pattern.d
    keep = np.flatnonzero(pattern.mask())
    x = slice_stack(weights, d).reshape(-1, d * d).T[keep].astype(np.float64)
    err = x - slice_stack(dequantized_weights(qc, d), d).reshape(-1, d * d).T[keep]
    return slice_sqnr(x, err, d * d - keep.size)[1]
