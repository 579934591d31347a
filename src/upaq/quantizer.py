"""Symmetric per-slice quantizer with SQNR reporting.

Maps each float32 kernel slice onto signed integers centered at zero:
``scale = max_abs / (2^(b-1) - 1)``, values rounded half away from zero and
clipped to the symmetric range.  SQNR compares the slice against its
dequantized reconstruction using population variance over all h*w cells
(pattern zeros included), and is capped when the error variance vanishes so
downstream scoring stays finite.

:func:`quantize_slices` quantizes a whole ``(S, h, w)`` stack in one numpy
pass, every row on its own scale; :func:`mp_quantize` is the same
computation on a batch of one slice, so the two agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUPPORTED_BITS = (4, 8, 16)

SQNR_CAP = 1e12  # linear; 120 dB
SQNR_CAP_DB = 120.0
ERR_VAR_FLOOR = 1e-30  # below this error variance, SQNR is reported as the cap


@dataclass
class QuantResult:
    """Quantized slice: integers, per-slice scale, and reconstruction quality."""

    q_values: np.ndarray  # int32, same shape as the input slice
    scale: float
    bitwidth: int
    sqnr_linear: float
    sqnr_db: float


def _round_half_away(x: np.ndarray) -> np.ndarray:
    # np.round ties to even; quantization needs ties away from zero for
    # exact negation symmetry.  In-place ops keep a stack's temporaries few.
    r = np.abs(x)
    r += 0.5
    np.floor(r, out=r)
    return np.copysign(r, x, out=r)


def quantize_slices(x: np.ndarray, bits: int):
    """Quantize every slice of an ``(S, h, w)`` stack at one bitwidth.

    Returns ``(q, scale, sqnr_linear, sqnr_db)``: int32 integers shaped like
    the stack and float64 per-slice arrays of shape ``(S,)``.  An all-zero
    slice falls back to scale 1 with all-zero integers and a capped SQNR;
    this keeps the zero case well-defined without special-casing callers.
    """
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"unsupported bitwidth {bits}; expected one of {SUPPORTED_BITS}")
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 3:
        raise ValueError(f"expected a 3-D slice stack, got {x.ndim} dimensions")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input to quantizer")

    x64 = x.astype(np.float64).reshape(x.shape[0], x.shape[1] * x.shape[2])
    alpha = np.abs(x64).max(axis=1)
    max_value = 2 ** (bits - 1) - 1
    scale = np.where(alpha == 0.0, 1.0, alpha / max_value)
    r = _round_half_away(x64 / scale[:, None])
    q = np.clip(r, -max_value, max_value, out=r).astype(np.int32)

    # r's buffer holds the reconstruction, then the error
    err = np.subtract(x64, np.multiply(q, scale[:, None], out=r), out=r)
    signal_var = np.var(x64, axis=1)
    err_var = np.var(err, axis=1)
    live = err_var >= ERR_VAR_FLOOR
    sqnr_linear = np.full(x.shape[0], SQNR_CAP)
    sqnr_db = np.full(x.shape[0], SQNR_CAP_DB)
    sqnr_linear[live] = signal_var[live] / err_var[live]
    sqnr_db[live] = 10.0 * np.log10(sqnr_linear[live])
    return q.reshape(x.shape), scale, sqnr_linear, sqnr_db


def mp_quantize(kernel_slice: np.ndarray, bits: int) -> QuantResult:
    """Quantize one 2-D slice at the given bitwidth: a batch of one."""
    x = np.asarray(kernel_slice, dtype=np.float32)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D slice, got {x.ndim} dimensions")
    q, scale, sqnr_linear, sqnr_db = quantize_slices(x[None], bits)
    return QuantResult(q_values=q[0], scale=float(scale[0]), bitwidth=bits,
                       sqnr_linear=float(sqnr_linear[0]), sqnr_db=float(sqnr_db[0]))


def dequantize(q_values: np.ndarray, scale: float) -> np.ndarray:
    """Map integers back to real space: ``q * scale``, as float32."""
    q = np.asarray(q_values)
    return (q.astype(np.float64) * float(scale)).astype(np.float32)
