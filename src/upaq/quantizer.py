"""Symmetric per-slice quantizer with SQNR reporting.

Maps each float32 kernel slice onto signed integers centered at zero:
``scale = max_abs / (2^(b-1) - 1)``, values rounded half away from zero and
clipped to the symmetric range.  A payload stores each scale as float32
(:func:`shipped_scales`), and a weight comes back as ``f32(q * f64(scale32))``.

One rule gives every SQNR in the package, :func:`slice_sqnr`: a slice's
signal is its masked cells, its error the gap to that float32
reconstruction, each a population variance over the whole ``d*d`` slice.

Kept cells are laid out cell-major, ``(n, S)``, one row per cell, in a
C-ordered array; one ``np.add.reduce`` down two or more such columns sums
each slice strictly row by row (:func:`_cell_sums`).  :func:`quantize_slices`
quantizes a whole ``(S, h, w)`` stack in one numpy pass, every slice on its
own scale.  :func:`mean_sqnr_db` scores all of a group's masks in one
cell-major pass on their kept cells, bit-equal to :func:`quantize_slices`.
"""

from __future__ import annotations

import math

import numpy as np

SUPPORTED_BITS = (4, 8, 16)

SQNR_CAP = 1e12  # linear; 120 dB
SQNR_CAP_DB = 120.0
ERR_VAR_FLOOR = 1e-30  # below this error variance, SQNR is reported as the cap
SCORE_BLOCK = 4096  # slice-mask columns mean_sqnr_db scores at a time

_F32_MAX = float(np.finfo(np.float32).max)


def _max_value(bits: int) -> int:
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"unsupported bitwidth {bits}; expected one of {SUPPORTED_BITS}")
    return 2 ** (bits - 1) - 1


def stack_rows(x: np.ndarray) -> np.ndarray:
    """A finite ``(S, h, w)`` stack as float64 rows of shape ``(S, h*w)``."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 3:
        raise ValueError(f"expected a 3-D slice stack, got {x.ndim} dimensions")
    rows = x.astype(np.float64).reshape(x.shape[0], x.shape[1] * x.shape[2])
    # a float64 sum of float32 values cannot overflow, so only a NaN or inf makes it non-finite
    if not math.isfinite(rows.sum()):
        raise ValueError("non-finite input to quantizer")
    return rows


def _scale_and_round(v: np.ndarray, alpha: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-slice scales of cell-major float64 ``v`` from its largest magnitudes
    ``alpha``, and its clipped integers as float64; an all-zero slice falls
    back to scale 1, so its integers are all zero."""
    max_value = _max_value(bits)
    scale = alpha / max_value
    scale[alpha == 0.0] = 1.0
    # np.round ties to even; quantization rounds ties away from zero, and
    # IEEE addition's sign symmetry keeps it exactly symmetric under negation
    r = v / scale
    r += np.copysign(0.5, r)
    np.trunc(r, out=r)
    return np.clip(r, -max_value, max_value, out=r), scale


def shipped_scales(scale: np.ndarray, bits: int) -> np.ndarray:
    """The float32 scales a payload stores for float64 ``scale``: each the
    nearest float32, stepped toward zero while the largest ``bits``-bit
    integer times it would dequantize past float32 max."""
    top = float(_max_value(bits))
    s32 = np.asarray(scale).astype(np.float32)
    # below the float32 nearest to float32-max / top, top * scale stays finite
    for i in np.nonzero(s32 >= np.float32(_F32_MAX / top))[0]:
        with np.errstate(over="ignore"):
            while not np.isfinite(np.float32(top * float(s32[i]))):
                s32[i] = np.nextafter(s32[i], np.float32(0.0))
    return s32


def _error(v: np.ndarray, r: np.ndarray, scale32: np.ndarray) -> np.ndarray:
    """Cell-major ``v`` less its float32 reconstruction ``f32(r * f64(scale32))``,
    the weights a payload dequantizes to; the result reuses ``r``'s buffer."""
    recon = np.multiply(r, scale32.astype(np.float64), out=r).astype(np.float32)
    return np.subtract(v, recon, out=r)


def _cell_sums(v: np.ndarray) -> np.ndarray:
    """Each slice (column) of cell-major ``v`` summed strictly row by row, so its
    bits do not depend on the slices beside it.  ``v`` is C-ordered, or a column
    slice of such an array: numpy adds whole rows in order down two or more
    columns but sums a lone column pairwise, so that is summed beside a copy."""
    return np.add.reduce(v if v.shape[1] > 1 else np.repeat(v, 2, axis=1), axis=0)[: v.shape[1]]


def _variance(v: np.ndarray, zeros: int) -> np.ndarray:
    """Population variance of each slice of cell-major ``v`` and ``zeros`` zero cells."""
    cells = len(v) + zeros
    mean = _cell_sums(v) / cells
    dev = v - mean
    return (_cell_sums(np.multiply(dev, dev, out=dev)) + zeros * (mean * mean)) / cells


def slice_sqnr(x: np.ndarray, err: np.ndarray, zeros: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-slice SQNR ``(linear, dB)`` of C-ordered cell-major float64 ``(n, S)``
    kept cells ``x`` and their reconstruction errors ``err``, each slice
    holding ``zeros`` more cells that are zero in both.

    The linear SQNR is the variance ratio capped at ``SQNR_CAP``, and the cap
    itself when the error variance is below ``ERR_VAR_FLOOR``; a zero signal
    variance over a live error gives ``-inf`` dB.
    """
    return _sqnr(_variance(x, zeros), _variance(err, zeros))


def _sqnr(signal_var: np.ndarray, err_var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    floor = err_var < ERR_VAR_FLOOR
    linear = np.minimum(signal_var / np.maximum(err_var, ERR_VAR_FLOOR), SQNR_CAP)
    linear[floor] = SQNR_CAP
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(linear)
    db[floor] = SQNR_CAP_DB
    return linear, db


def quantize_slices(x: np.ndarray, bits: int, mask: np.ndarray | None = None):
    """Quantize every slice of an ``(S, h, w)`` stack at one bitwidth.

    With an ``(h, w)`` bool ``mask`` only the cells it keeps are quantized
    and the others come out zero.  Returns ``(q, scale, sqnr_linear,
    sqnr_db, scale32)``: int32 integers shaped like the stack, the float64
    scales they were rounded with, each slice's :func:`slice_sqnr` against
    the reconstruction from ``scale32``, and ``scale32``, the float32 scales
    a payload stores (:func:`shipped_scales`); all but ``q`` are of shape
    ``(S,)``.  An all-zero slice falls back to scale 1 with all-zero integers
    and a capped SQNR, so callers need no zero case.
    """
    q, scale, scale32, kept, r = _quantize_masked(x, bits, mask)
    sqnr_linear, sqnr_db = slice_sqnr(kept, _error(kept, r, scale32), q.shape[1] - len(kept))
    return q.reshape(np.shape(x)), scale, sqnr_linear, sqnr_db, scale32


def _quantize_masked(x: np.ndarray, bits: int, mask: np.ndarray | None):
    """:func:`quantize_slices` without the SQNR, ``q`` in ``(S, h*w)`` rows:
    ``(q, scale, scale32)``, then the cell-major float64 kept cells and their
    clipped integers."""
    rows = stack_rows(x)
    keep = slice(None) if mask is None else np.flatnonzero(mask)
    kept = np.ascontiguousarray(rows.T[keep])  # C-ordered, as _cell_sums needs
    r, scale = _scale_and_round(kept, np.abs(kept).max(axis=0), bits)
    q = np.zeros(rows.shape, dtype=np.int32)
    q[:, keep] = r.T
    return q, scale, shipped_scales(scale, bits), kept, r


def mean_sqnr_db(rows: np.ndarray, keeps: np.ndarray, bits_list) -> np.ndarray:
    """Mean SQNR (dB) over the slices of ``rows`` (a :func:`stack_rows` result)
    under each of ``P`` masks, given as the ``(P, n)`` sorted flat indices of
    the cells they keep: ``[p, b]`` of the ``(P, len(bits_list))`` result is
    bit-equal to the mean of :func:`quantize_slices`' dB at ``bits_list[b]``
    under mask ``p``.  The kept cells are gathered into one ``(n, P*S)``
    cell-major array and scored ``SCORE_BLOCK`` slice-mask columns at a time:
    largest magnitude and signal variance once, error variance per bitwidth."""
    zeros = rows.shape[1] - keeps.shape[1]
    v = np.ascontiguousarray(rows.T)[keeps.T].reshape(keeps.shape[1], -1)
    db = np.empty((len(bits_list), v.shape[1]))
    for start in range(0, v.shape[1], SCORE_BLOCK):
        cols = slice(start, start + SCORE_BLOCK)
        block = v[:, cols]
        signal_var = _variance(block, zeros)
        alpha = np.abs(block).max(axis=0)
        for b, bits in enumerate(bits_list):
            r, scale = _scale_and_round(block, alpha, bits)
            err = _error(block, r, shipped_scales(scale, bits))
            db[b, cols] = _sqnr(signal_var, _variance(err, zeros))[1]
    return db.reshape(len(bits_list), len(keeps), -1).mean(axis=2).T
