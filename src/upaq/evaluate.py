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

from .compressed import CompressedModel, decompress_model, dequantized_weights, slice_stack
from .container import compressed_payload_nbytes, dense_payload_nbytes
from .cost import compression_ratio, model_cost
from .compressor import calculate_es
from .errors import ValidationError
from .inference import Activation, forward_batch
from .model import ModelGraph
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
    """Mean per-slice SQNR (dB) across every compressed layer of the model.

    Recomputed from the stored payloads against the masked dense weights,
    using the same population-variance convention as the quantizer.
    """
    db: list[np.ndarray] = []
    for group in cm.groups:
        d = group.pattern.d
        for member in group.member_ids:
            wt = base.by_id(member).weights
            if wt is None:
                raise ValidationError(f"layer {member!r}: base model has no weights")
            qc = cm.qlayers[member]
            if wt.shape != qc.shape:
                raise ValidationError(f"layer {member!r}: base weights {wt.shape} != compressed {qc.shape}")
            x = np.where(group.pattern.mask(), slice_stack(wt.data, d), 0).astype(np.float64)
            err = x - slice_stack(dequantized_weights(qc, d), d)
            db.append(_slice_sqnr_db(np.var(x.reshape(len(x), -1), axis=1), np.var(err.reshape(len(x), -1), axis=1)))
    if not db:
        return SQNR_CAP_DB
    return float(np.mean(np.concatenate(db)))


def _slice_sqnr_db(signal_var: np.ndarray, err_var: np.ndarray) -> np.ndarray:
    """Each slice's SQNR in dB: the cap below the error-variance floor, else
    the capped variance ratio in dB.  Each log goes through ``math.log10``,
    which ``np.log10`` can differ from in the last bit."""
    floor = err_var < ERR_VAR_FLOOR
    linear = np.minimum(signal_var / np.where(floor, 1.0, err_var), SQNR_CAP)
    db = np.where(floor, SQNR_CAP_DB, -math.inf)
    live = ~floor & (linear > 0)
    db[live] = [10.0 * math.log10(v) for v in linear[live].tolist()]
    return db
