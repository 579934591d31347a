"""Symmetric per-slice quantizer with SQNR reporting.

Maps each float32 kernel slice onto signed integers centered at zero:
``scale = max_abs / (2^(b-1) - 1)``, values rounded half away from zero and
clipped to the symmetric range.  SQNR compares the slice against its
dequantized reconstruction using population variance over all h*w cells
(pattern zeros included), and is capped when the error variance vanishes so
downstream scoring stays finite.

:func:`quantize_slices` quantizes a whole ``(S, h, w)`` stack in one numpy
pass, every row on its own scale; a single slice is a stack of one.
:func:`masked_mean_sqnr_db` scores a pattern mask without building a
payload: it quantizes only the cells the mask keeps, and its mean SQNR is
bit-equal to that of :func:`quantize_slices` on the masked stack.  Both share
one scale/round/clip step.
"""

from __future__ import annotations

import numpy as np

SUPPORTED_BITS = (4, 8, 16)

SQNR_CAP = 1e12  # linear; 120 dB
SQNR_CAP_DB = 120.0
ERR_VAR_FLOOR = 1e-30  # below this error variance, SQNR is reported as the cap


def _round_half_away(x: np.ndarray) -> np.ndarray:
    # np.round ties to even; quantization needs ties away from zero for
    # exact negation symmetry.  In-place ops keep a stack's temporaries few.
    r = np.abs(x)
    r += 0.5
    np.floor(r, out=r)
    return np.copysign(r, x, out=r)


def stack_rows(x: np.ndarray) -> np.ndarray:
    """A finite ``(S, h, w)`` stack as float64 rows of shape ``(S, h*w)``."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 3:
        raise ValueError(f"expected a 3-D slice stack, got {x.ndim} dimensions")
    if not np.isfinite(x).all():
        raise ValueError("non-finite input to quantizer")
    return x.astype(np.float64).reshape(x.shape[0], x.shape[1] * x.shape[2])


def _scale_and_round(x64: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row scale of float64 rows and their clipped integers, as float64.

    An all-zero row falls back to scale 1, so its integers are all zero.
    """
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"unsupported bitwidth {bits}; expected one of {SUPPORTED_BITS}")
    max_value = 2 ** (bits - 1) - 1
    alpha = np.abs(x64).max(axis=1)
    scale = np.where(alpha == 0.0, 1.0, alpha / max_value)
    r = _round_half_away(x64 / scale[:, None])
    return np.clip(r, -max_value, max_value, out=r), scale


def _sqnr(signal_var: np.ndarray, err_var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    live = err_var >= ERR_VAR_FLOOR
    sqnr_linear = np.full(signal_var.shape[0], SQNR_CAP)
    sqnr_db = np.full(signal_var.shape[0], SQNR_CAP_DB)
    sqnr_linear[live] = signal_var[live] / err_var[live]
    sqnr_db[live] = 10.0 * np.log10(sqnr_linear[live])
    return sqnr_linear, sqnr_db


def quantize_slices(x: np.ndarray, bits: int):
    """Quantize every slice of an ``(S, h, w)`` stack at one bitwidth.

    Returns ``(q, scale, sqnr_linear, sqnr_db)``: int32 integers shaped like
    the stack and float64 per-slice arrays of shape ``(S,)``.  An all-zero
    slice falls back to scale 1 with all-zero integers and a capped SQNR;
    this keeps the zero case well-defined without special-casing callers.
    """
    x64 = stack_rows(x)
    r, scale = _scale_and_round(x64, bits)
    q = r.astype(np.int32)
    # r's buffer holds the reconstruction, then the error
    err = np.subtract(x64, np.multiply(q, scale[:, None], out=r), out=r)
    sqnr_linear, sqnr_db = _sqnr(np.var(x64, axis=1), np.var(err, axis=1))
    return q.reshape(np.shape(x)), scale, sqnr_linear, sqnr_db


def masked_mean_sqnr_db(rows: np.ndarray, mask: np.ndarray, bits_list) -> list[float]:
    """Mean SQNR (dB) over the slices of ``rows`` under ``mask``, per bitwidth.

    ``rows`` is a :func:`stack_rows` result and ``mask`` an ``(h, w)`` bool
    array.  For each ``bits`` the result is bit-equal to
    ``float(np.mean(quantize_slices(np.where(mask, stack, 0), bits)[3]))``:
    a pruned cell is +0.0, which quantizes to 0 and leaves an error of +0.0,
    so only the kept cells are quantized, and their errors are scattered into
    the masked rows so that the variances see the same values in the same
    layout (a kept -0.0 may leave an error of +0.0 where the payload path
    leaves -0.0; a variance squares the sign away).  The signal variance is
    taken once for all bitwidths.
    """
    keep = np.flatnonzero(mask)
    buf = np.where(mask.reshape(-1), rows, 0.0)  # the masked rows, later their errors
    signal_var = np.var(buf, axis=1)
    kept = buf[:, keep]
    means = []
    for bits in bits_list:
        r, scale = _scale_and_round(kept, bits)
        buf[:, keep] = np.subtract(kept, np.multiply(r, scale[:, None], out=r), out=r)
        means.append(float(np.mean(_sqnr(signal_var, np.var(buf, axis=1))[1])))
    return means

