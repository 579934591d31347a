import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import upaq
from oracles import quantize_reference
from upaq.compressed import QuantizedConv, dequantized_weights
from upaq.compressor import _search_group, compress_model, hck_profile
from upaq.cost import layer_costs
from upaq.errors import ValidationError
from upaq.grouping import find_root_groups
from upaq.patterns import enumerate_all_patterns
from upaq.quantizer import (
    SCORE_BLOCK,
    SQNR_CAP,
    SQNR_CAP_DB,
    mean_sqnr_db,
    quantize_slices,
    shipped_scales,
    stack_rows,
)

WORKED_X = np.array([[1.0, -2.0], [0.5, 0.0]], dtype=np.float32)


def quantize_one(x, bits):
    """One 2-D slice through :func:`quantize_slices`, as a stack of one:
    ``(q, scale, sqnr_linear, sqnr_db)`` of row 0."""
    q, scale, sqnr_linear, sqnr_db, _ = quantize_slices(np.asarray(x)[None], bits)
    return q[0], float(scale[0]), float(sqnr_linear[0]), float(sqnr_db[0])


def dequantize(q, scale):
    return (q * np.float64(scale)).astype(np.float32)


def test_worked_example_8bit():
    q, scale, _, _ = quantize_one(WORKED_X, 8)
    assert scale == pytest.approx(2.0 / 127.0, rel=0, abs=0)
    assert q.reshape(-1).tolist() == [64, -127, 32, 0]


def test_worked_example_matches_reference_script():
    q_ref, scale_ref, _ = quantize_reference([1.0, -2.0, 0.5, 0.0], 8)
    assert q_ref == [64, -127, 32, 0]
    q, scale, _, _ = quantize_one(WORKED_X, 8)
    assert q.reshape(-1).tolist() == q_ref
    assert scale == scale_ref


def test_reference_agrees_on_random_slices():
    rng = np.random.default_rng(11)
    for bits in (4, 8, 16):
        for _ in range(200):
            x = rng.normal(size=(3, 3)).astype(np.float32)
            q, scale, sqnr_linear, _ = quantize_one(x, bits)
            q_ref, scale_ref, sqnr_ref = quantize_reference(x.reshape(-1).tolist(), bits)
            assert q.reshape(-1).tolist() == q_ref
            assert scale == scale_ref
            assert sqnr_linear == pytest.approx(sqnr_ref, rel=1e-12)


def test_all_zero_slice_fallback():
    q, scale, sqnr_linear, sqnr_db = quantize_one(np.zeros((3, 3), dtype=np.float32), 4)
    assert scale == 1.0
    assert not q.any()
    assert sqnr_linear == SQNR_CAP
    assert sqnr_db == SQNR_CAP_DB


def test_exact_multiples_reach_the_cap():
    x = np.array([[-1.5, 0.0], [1.5, 0.0]], dtype=np.float32)  # +/- alpha and zeros
    q, scale, sqnr_linear, _ = quantize_one(x, 8)
    assert np.array_equal(dequantize(q, scale), x)
    assert sqnr_linear == SQNR_CAP


def test_dequantize_worked_example():
    q = np.array([[64, -127], [32, 0]], dtype=np.int32)
    qc = QuantizedConv((1, 1, 2, 2), 8, q.reshape(1, 1, 2, 2), np.array([2.0 / 127.0]))
    out = dequantized_weights(qc, 2)[0, 0]
    expect = np.array([[64 * 2.0 / 127.0, -2.0], [32 * 2.0 / 127.0, 0.0]], dtype=np.float32)
    assert np.array_equal(out, expect)


def test_16bit_roundtrip_bound_on_random_slices():
    rng = np.random.default_rng(12)
    for _ in range(100):
        x = rng.uniform(-1, 1, (3, 3)).astype(np.float32)
        q, scale, _, _ = quantize_one(x, 16)
        bound = scale / 2.0
        assert np.all(np.abs(x.astype(np.float64) - dequantize(q, scale).astype(np.float64)) <= bound + 1e-7)


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_roundtrip_bound_and_sqnr_floor(bits):
    rng = np.random.default_rng(13)
    for _ in range(500):
        d = int(rng.integers(2, 6))
        # max-abs <= 1: the f32 dequantize error then stays below the 1e-7 slack
        x = (rng.uniform(-1.0, 1.0, (d, d)) * rng.uniform(0.05, 1.0)).astype(np.float32)
        q, scale, sqnr_linear, _ = quantize_one(x, bits)
        xhat = dequantize(q, scale).astype(np.float64)
        assert np.all(np.abs(x.astype(np.float64) - xhat) <= scale / 2.0 + 1e-7)
        floor = float(np.var(x.astype(np.float64))) / (scale / 2.0) ** 2
        assert sqnr_linear >= floor * (1.0 - 1e-9)


def test_scale_shrinks_with_more_bits():
    rng = np.random.default_rng(14)
    for _ in range(50):
        x = rng.normal(size=(3, 3)).astype(np.float32)
        scales = [quantize_one(x, b)[1] for b in (4, 8, 16)]
        assert scales[2] < scales[1] < scales[0]


def test_negation_symmetry_exact():
    rng = np.random.default_rng(15)
    for bits in (4, 8, 16):
        for _ in range(200):
            x = rng.normal(size=(3, 3)).astype(np.float32)
            assert np.array_equal(quantize_one(-x, bits)[0], -quantize_one(x, bits)[0])


def test_sqnr_monotone_in_bits_on_fixture_slices(toy_cnn):
    model, _ = toy_cnn
    for layer in model.conv_layers():
        w = layer.weights
        for o in range(w.out_ch):
            for i in range(w.in_ch):
                dbs = [quantize_one(w.data[o, i], b)[3] for b in (4, 8, 16)]
                assert dbs[0] <= dbs[1] <= dbs[2]


def test_unsupported_bitwidth_and_nonfinite_input():
    with pytest.raises(ValueError, match="unsupported bitwidth"):
        quantize_one(np.zeros((2, 2), dtype=np.float32), 5)
    bad = np.array([[np.inf, 0.0], [0.0, 0.0]], dtype=np.float32)
    with pytest.raises(ValueError, match="non-finite"):
        quantize_one(bad, 8)


def test_half_away_from_zero_tie_handling():
    # 0.5/scale lands exactly on a representable tie for alpha = max_value/2
    x = np.array([[63.5, -63.5], [127.0, 0.0]], dtype=np.float32)
    q, scale, sqnr_linear, sqnr_db = quantize_one(x, 8)
    assert scale == 1.0
    assert q.reshape(-1).tolist() == [64, -64, 127, 0]
    assert 10.0 * math.log10(sqnr_linear) == pytest.approx(sqnr_db)


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
        q, scale, sqnr_linear, sqnr_db, scale32 = quantize_slices(x, bits)
        assert q.shape == x.shape and q.dtype == np.int32
        for arr in (scale, sqnr_linear, sqnr_db):
            assert arr.shape == (x.shape[0],) and arr.dtype == np.float64
        assert np.array_equal(scale32, shipped_scales(scale, bits)) and scale32.dtype == np.float32
        for s in range(x.shape[0]):
            one = quantize_one(x[s], bits)
            assert np.array_equal(q[s], one[0])
            assert scale[s] == one[1]
            assert sqnr_linear[s] == one[2]
            assert sqnr_db[s] == one[3]


@pytest.mark.parametrize("bits", [4, 8, 16])
def test_quantize_slices_matches_reference(bits):
    for x in _edge_stacks():
        q, scale, _, sqnr_db, _ = quantize_slices(x, bits)
        for s in range(x.shape[0]):
            q_ref, scale_ref, sqnr_ref = quantize_reference(x[s].reshape(-1).tolist(), bits)
            assert q[s].reshape(-1).tolist() == q_ref
            assert scale[s] == scale_ref
            # the reference's plain-Python SQNR and math.log10 can differ in the last bit
            assert sqnr_db[s] == pytest.approx(10.0 * math.log10(sqnr_ref), rel=1e-12)
        assert scale[0] == scale[1] == 1.0 and not q[:2].any()
        assert sqnr_db[0] == sqnr_db[1] == sqnr_db[3] == sqnr_db[4] == SQNR_CAP_DB


def _loop_variance(values):
    """Population variance summed strictly left to right in plain Python."""
    total = values[0]
    for v in values[1:]:
        total += v
    mean = total / len(values)
    sq = (values[0] - mean) * (values[0] - mean)
    for v in values[1:]:
        sq += (v - mean) * (v - mean)
    return sq / len(values)


@pytest.mark.parametrize("d", [3, 5])
def test_slice_sums_run_cell_by_cell(d):
    """A whole slice of 9 or 25 cells sums in row order, one cell at a
    time as a plain-Python loop does, alone as in a stack, and not in
    numpy's pairwise blocks of 8."""
    rng = np.random.default_rng(50 + d)
    stack = (rng.normal(size=(200, d, d)) * 10.0 ** rng.uniform(-6, 6, (200, d, d))).astype(np.float32)
    for bits in (4, 8, 16):
        together = quantize_slices(stack, bits)[2]
        for s, x in enumerate(stack):
            q, _, sqnr_linear, _, scale32 = quantize_slices(x[None], bits)
            cells = [float(v) for v in x.reshape(-1)]
            recon = [float(np.float32(int(qi) * float(scale32[0]))) for qi in q.reshape(-1)]
            err_var = _loop_variance([v - r for v, r in zip(cells, recon)])
            expected = SQNR_CAP if err_var < 1e-30 else min(_loop_variance(cells) / err_var, SQNR_CAP)
            assert sqnr_linear[0] == together[s] == expected


def test_quantize_slices_rejects_bad_input():
    stack = np.zeros((2, 3, 3), dtype=np.float32)
    with pytest.raises(ValueError, match="unsupported bitwidth"):
        quantize_slices(stack, 2)
    with pytest.raises(ValueError, match="3-D"):
        quantize_slices(stack[0], 8)
    stack[1, 2, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        quantize_slices(stack, 8)
    with pytest.raises(ValueError, match="non-finite"):
        quantize_one(np.array([[0.0, -np.inf]], dtype=np.float32), 4)
    with pytest.raises(ValueError, match="unsupported bitwidth"):
        quantize_one(np.ones((3, 3), dtype=np.float32), 32)
    for bad in (np.ones(9, dtype=np.float32), np.ones((1, 3, 3), dtype=np.float32), np.float32(1.0)):
        with pytest.raises(ValueError, match="3-D"):
            quantize_one(bad, 8)


# ---------------------------------------------------------------------------
# scoring a mask from its kept cells
# ---------------------------------------------------------------------------

def _shipped_mean_db(stack, mask, bits):
    """The mean SQNR of the payload path, after checking that its integers
    and scales are those of quantizing the masked stack."""
    q, scale, _, sqnr_db, _ = quantize_slices(stack, bits, mask)
    q_masked, scale_masked, _, _, _ = quantize_slices(np.where(mask, stack, 0), bits)
    assert np.array_equal(q, q_masked) and np.array_equal(scale, scale_masked)
    return float(np.mean(sqnr_db))


def _score_stack(d):
    """A stack with all-zero and all -0.0 slices, -0.0 cells, constant
    slices, subnormal, tiny and huge magnitudes, and ties."""
    rng = np.random.default_rng(40 + d)
    x = (rng.normal(size=(40, d, d)) * 10.0 ** rng.uniform(-30, 30, (40, 1, 1))).astype(np.float32)
    x[0] = 0.0
    x[1] = -0.0
    x[2:8][rng.random((6, d, d)) < 0.4] = -0.0
    x[8] = np.float32(0.3)
    x[9] = np.float32(-1e-3)
    x[10] = np.float32(7e25)
    x[11] = rng.normal(size=(d, d)).astype(np.float32) * np.float32(1e-41)  # subnormal
    x[12] = np.float32(3e38) * np.sign(rng.normal(size=(d, d))).astype(np.float32)
    x[13] = rng.uniform(-3e38, 3e38, (d, d)).astype(np.float32)
    x[14] = 0.0
    x[14, 0] = np.float32(1e-38)
    x[14, -1] = np.float32(-3e38)
    x[15] = 62.5  # 8 bits: scale 127/127 when a 127 is kept, and a tie
    x[15, ::2, ::2] = 127.0
    return x


def _keeps(patterns):
    """The ``(P, n)`` kept flat cell indices of ``patterns``, as the search passes them."""
    return np.array([np.flatnonzero(p.mask()) for p in patterns])


@pytest.mark.parametrize("d,n", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (5, 4), (5, 5)])
def test_mask_score_equals_quantized_masked_stack(d, n):
    stack = _score_stack(d)
    rows = stack_rows(stack)
    patterns = enumerate_all_patterns(n, d)
    means = mean_sqnr_db(rows, _keeps(patterns), (4, 8, 16))
    assert means.shape == (len(patterns), 3)
    for pattern, mean in zip(patterns, means.tolist()):
        mask = pattern.mask()
        assert mean == [_shipped_mean_db(stack, mask, bits) for bits in (4, 8, 16)]
        for bits in (4, 8, 16):
            # the constant slices come back within float32 rounding: capped
            _, _, _, sqnr_db, _ = quantize_slices(stack[8:10], bits, mask)
            assert sqnr_db.tolist() == [SQNR_CAP_DB, SQNR_CAP_DB]
    assert (mean_sqnr_db(rows[8:10], _keeps(patterns), (4, 8, 16)) == SQNR_CAP_DB).all()


_CELLS = st.one_of(
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-45, -1e-38, 3.4e38, -0.5, 0.5, 1.0]),
)


@st.composite
def _masked_stacks(draw):
    d = draw(st.sampled_from((3, 5)))
    n = draw(st.integers(1, d))
    patterns = draw(st.lists(st.sampled_from(enumerate_all_patterns(n, d)), min_size=1, max_size=4))
    stack = draw(hnp.arrays(np.float32, (draw(st.integers(1, 6)), d, d), elements=_CELLS))
    bits = draw(st.lists(st.sampled_from((4, 8, 16)), min_size=1, max_size=3))
    return stack, patterns, bits


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_masked_stacks())
def test_mask_score_property(case):
    stack, patterns, bits = case
    means = mean_sqnr_db(stack_rows(stack), _keeps(patterns), bits).tolist()
    assert means == [[_shipped_mean_db(stack, p.mask(), b) for b in bits] for p in patterns]



@st.composite
def _blocked_cases(draw, slices):
    """A stack of ``slices`` hostile rows of :func:`_score_stack` under
    enough masks, repeats allowed, that the ``P * S`` slice-mask columns
    span several scorer blocks."""
    d = draw(st.sampled_from((3, 5)))
    n = draw(st.integers(1, d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hostile = _score_stack(d)
    stack = hostile[rng.integers(0, len(hostile), slices)]
    patterns = enumerate_all_patterns(n, d)
    count = -(-draw(st.integers(2, 4)) * SCORE_BLOCK // slices) + draw(st.integers(0, 2))
    chosen = rng.integers(0, len(patterns), count)
    return stack, [patterns[i] for i in chosen], draw(st.permutations((4, 8, 16)))


# slice counts that straddle numpy's pairwise-sum and buffer boundaries and the scorer's block edge
@pytest.mark.parametrize(
    "slices", (1, 7, 8, 9, 127, 128, 129, SCORE_BLOCK - 1, SCORE_BLOCK, SCORE_BLOCK + 1, 8191, 8192, 8193, 20000)
)
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_block_scorer_equals_per_mask_means(slices, data):
    stack, patterns, bits = data.draw(_blocked_cases(slices))
    means = mean_sqnr_db(stack_rows(stack), _keeps(patterns), bits).tolist()
    per_mask = {}
    for pattern, mean in zip(patterns, means):
        if pattern.positions not in per_mask:
            per_mask[pattern.positions] = [
                float(np.mean(quantize_slices(stack, b, pattern.mask())[3])) for b in bits
            ]
        assert mean == per_mask[pattern.positions]


def test_lone_slice_mask_column_sums_in_row_order():
    """One 9x9 slice under one 9-cell row mask is a single slice-mask column
    of 9 cells, which numpy would sum in pairwise blocks of 8; the score
    still equals quantizing the masked slice, also when ``rows`` is a
    column slice of a wider array."""
    rng = np.random.default_rng(61)
    mask = np.zeros((9, 9), dtype=bool)
    mask[4] = True
    keeps = np.flatnonzero(mask)[None]
    for _ in range(40):
        stack = (rng.normal(size=(1, 9, 9)) * 10.0 ** rng.uniform(-6, 6, (1, 9, 9))).astype(np.float32)
        expected = [float(np.mean(quantize_slices(stack, bits, mask)[3])) for bits in (4, 8, 16)]
        rows = stack_rows(stack)
        wider = np.concatenate((rows, rng.normal(size=(1, 19))), axis=1)
        for view in (rows, wider[:, :81]):
            assert mean_sqnr_db(view, keeps, (4, 8, 16)).tolist() == [expected]


def test_scorer_rejects_what_quantize_slices_rejects():
    rows = stack_rows(np.ones((2, 3, 3), dtype=np.float32))
    with pytest.raises(ValueError, match="unsupported bitwidth"):
        mean_sqnr_db(rows, np.array([[0, 4, 8]]), (8, 5))


@pytest.mark.parametrize("arch,kxk", [("toy-cnn", True), ("toy-1x1", False)], ids=["toy-cnn", "toy-1x1"])
def test_non_finite_root_weight_raises_as_before(arch, kxk):
    model, _ = upaq.gen_fixture(arch, 42)
    group = next(g for g in find_root_groups(model) if (model.by_id(g.root_id).weights.kw > 1) == kxk)
    model.by_id(group.root_id).weights.data.flat[4] = np.nan
    # compress_model validates the model before it searches a group
    with pytest.raises(ValidationError, match=f"layer '{group.root_id}': non-finite weight values"):
        compress_model(model, hck_profile(seed=42))
    with pytest.raises(ValueError, match="^non-finite input to quantizer$"):
        _search_group(group, model, hck_profile(seed=42), np.random.default_rng(0), layer_costs(model))
