import math

import numpy as np
import pytest

from oracles import quantize_reference
from upaq.quantizer import SQNR_CAP, SQNR_CAP_DB, dequantize, mp_quantize, quantize_slices

WORKED_X = np.array([[1.0, -2.0], [0.5, 0.0]], dtype=np.float32)


def test_worked_example_8bit():
    qr = mp_quantize(WORKED_X, 8)
    assert qr.scale == pytest.approx(2.0 / 127.0, rel=0, abs=0)
    assert qr.q_values.reshape(-1).tolist() == [64, -127, 32, 0]


def test_worked_example_matches_reference_script():
    q, scale, _ = quantize_reference([1.0, -2.0, 0.5, 0.0], 8)
    assert q == [64, -127, 32, 0]
    qr = mp_quantize(WORKED_X, 8)
    assert qr.q_values.reshape(-1).tolist() == q
    assert qr.scale == scale


def test_reference_agrees_on_random_slices():
    rng = np.random.default_rng(11)
    for bits in (4, 8, 16):
        for _ in range(200):
            x = rng.normal(size=(3, 3)).astype(np.float32)
            qr = mp_quantize(x, bits)
            q_ref, scale_ref, sqnr_ref = quantize_reference(x.reshape(-1).tolist(), bits)
            assert qr.q_values.reshape(-1).tolist() == q_ref
            assert qr.scale == scale_ref
            assert qr.sqnr_linear == pytest.approx(sqnr_ref, rel=1e-12)


def test_all_zero_slice_fallback():
    qr = mp_quantize(np.zeros((3, 3), dtype=np.float32), 4)
    assert qr.scale == 1.0
    assert not qr.q_values.any()
    assert qr.sqnr_linear == SQNR_CAP
    assert qr.sqnr_db == SQNR_CAP_DB


def test_exact_multiples_reach_the_cap():
    x = np.array([[-1.5, 0.0], [1.5, 0.0]], dtype=np.float32)  # +/- alpha and zeros
    qr = mp_quantize(x, 8)
    assert np.array_equal(dequantize(qr.q_values, qr.scale), x)
    assert qr.sqnr_linear == SQNR_CAP


def test_dequantize_worked_example():
    q = np.array([[64, -127], [32, 0]], dtype=np.int32)
    out = dequantize(q, 2.0 / 127.0)
    expect = np.array([[64 * 2.0 / 127.0, -2.0], [32 * 2.0 / 127.0, 0.0]], dtype=np.float32)
    assert np.array_equal(out, expect)


def test_16bit_roundtrip_bound_on_random_slices():
    rng = np.random.default_rng(12)
    for _ in range(100):
        x = rng.uniform(-1, 1, (3, 3)).astype(np.float32)
        qr = mp_quantize(x, 16)
        bound = qr.scale / 2.0
        assert np.all(np.abs(x.astype(np.float64) - dequantize(qr.q_values, qr.scale).astype(np.float64)) <= bound + 1e-7)


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_roundtrip_bound_and_sqnr_floor(bits):
    rng = np.random.default_rng(13)
    for _ in range(500):
        d = int(rng.integers(2, 6))
        # max-abs <= 1: the f32 dequantize error then stays below the 1e-7 slack
        x = (rng.uniform(-1.0, 1.0, (d, d)) * rng.uniform(0.05, 1.0)).astype(np.float32)
        qr = mp_quantize(x, bits)
        xhat = dequantize(qr.q_values, qr.scale).astype(np.float64)
        assert np.all(np.abs(x.astype(np.float64) - xhat) <= qr.scale / 2.0 + 1e-7)
        floor = float(np.var(x.astype(np.float64))) / (qr.scale / 2.0) ** 2
        assert qr.sqnr_linear >= floor * (1.0 - 1e-9)


def test_scale_shrinks_with_more_bits():
    rng = np.random.default_rng(14)
    for _ in range(50):
        x = rng.normal(size=(3, 3)).astype(np.float32)
        scales = [mp_quantize(x, b).scale for b in (4, 8, 16)]
        assert scales[2] < scales[1] < scales[0]


def test_negation_symmetry_exact():
    rng = np.random.default_rng(15)
    for bits in (4, 8, 16):
        for _ in range(200):
            x = rng.normal(size=(3, 3)).astype(np.float32)
            assert np.array_equal(mp_quantize(-x, bits).q_values, -mp_quantize(x, bits).q_values)


def test_sqnr_monotone_in_bits_on_fixture_slices(toy_cnn):
    model, _ = toy_cnn
    for layer in model.conv_layers():
        w = layer.weights
        for o in range(w.out_ch):
            for i in range(w.in_ch):
                dbs = [mp_quantize(w.data[o, i], b).sqnr_db for b in (4, 8, 16)]
                assert dbs[0] <= dbs[1] <= dbs[2]


def test_unsupported_bitwidth_and_nonfinite_input():
    with pytest.raises(ValueError, match="unsupported bitwidth"):
        mp_quantize(np.zeros((2, 2), dtype=np.float32), 5)
    bad = np.array([[np.inf, 0.0], [0.0, 0.0]], dtype=np.float32)
    with pytest.raises(ValueError, match="non-finite"):
        mp_quantize(bad, 8)


def test_half_away_from_zero_tie_handling():
    # 0.5/scale lands exactly on a representable tie for alpha = max_value/2
    x = np.array([[63.5, -63.5], [127.0, 0.0]], dtype=np.float32)
    qr = mp_quantize(x, 8)
    assert qr.scale == 1.0
    assert qr.q_values.reshape(-1).tolist() == [64, -64, 127, 0]
    assert 10.0 * math.log10(qr.sqnr_linear) == pytest.approx(qr.sqnr_db)


# ---------------------------------------------------------------------------
# batched slice stacks
# ---------------------------------------------------------------------------

def _edge_stacks():
    """Random stacks with the awkward rows mixed in: all-zero and all -0.0
    slices, -0.0 cells, values near 1e-20, a lone tiny cell, and ties."""
    rng = np.random.default_rng(31)
    for shape in ((3, 3), (5, 5), (2, 2), (2, 3)):
        x = (rng.normal(size=(48,) + shape) * rng.uniform(1e-3, 1e3, (48, 1, 1))).astype(np.float32)
        x[0] = 0.0
        x[1] = -0.0
        x[2, 0, 0] = -0.0
        x[3] *= np.float32(1e-20)
        x[4] = 0.0
        x[4, -1, -1] = 1e-20
        x[5] = 0.0
        x[5, 0, :2] = (62.5, -127.0)  # 8 bits: scale 1, a tie that ties-to-even would round down
        x[6, 0, 0] = -np.abs(x[6]).max() * 2  # the negative cell sets alpha
        yield x


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_quantize_slices_matches_per_slice_loop(bits):
    for x in _edge_stacks():
        q, scale, sqnr_linear, sqnr_db = quantize_slices(x, bits)
        assert q.shape == x.shape and q.dtype == np.int32
        for arr in (scale, sqnr_linear, sqnr_db):
            assert arr.shape == (x.shape[0],) and arr.dtype == np.float64
        for s in range(x.shape[0]):
            qr = mp_quantize(x[s], bits)
            assert np.array_equal(q[s], qr.q_values)
            assert scale[s] == qr.scale
            assert sqnr_linear[s] == qr.sqnr_linear
            assert sqnr_db[s] == qr.sqnr_db


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_quantize_slices_matches_reference(bits):
    for x in _edge_stacks():
        q, scale, _, sqnr_db = quantize_slices(x, bits)
        for s in range(x.shape[0]):
            q_ref, scale_ref, sqnr_ref = quantize_reference(x[s].reshape(-1).tolist(), bits)
            assert q[s].reshape(-1).tolist() == q_ref
            assert scale[s] == scale_ref
            # the reference sums variances in plain Python, numpy sums pairwise
            assert sqnr_db[s] == pytest.approx(10.0 * math.log10(sqnr_ref), rel=1e-12)
        assert scale[0] == scale[1] == 1.0 and not q[:2].any()
        assert sqnr_db[0] == sqnr_db[1] == sqnr_db[3] == sqnr_db[4] == SQNR_CAP_DB


def test_quantize_slices_and_mp_quantize_reject_bad_input():
    stack = np.zeros((2, 3, 3), dtype=np.float32)
    with pytest.raises(ValueError, match="unsupported bitwidth"):
        quantize_slices(stack, 2)
    with pytest.raises(ValueError, match="3-D"):
        quantize_slices(stack[0], 8)
    stack[1, 2, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        quantize_slices(stack, 8)
    with pytest.raises(ValueError, match="non-finite"):
        mp_quantize(np.array([[0.0, -np.inf]], dtype=np.float32), 4)
    with pytest.raises(ValueError, match="unsupported bitwidth"):
        mp_quantize(np.ones((3, 3), dtype=np.float32), 32)
    for bad in (np.ones(9, dtype=np.float32), np.ones((1, 3, 3), dtype=np.float32), np.float32(1.0)):
        with pytest.raises(ValueError, match="2-D"):
            mp_quantize(bad, 8)
