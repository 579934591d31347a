import json
import math
import tracemalloc

import numpy as np
import pytest

import upaq
from oracles import forward_reference
from upaq import inference
from upaq.errors import FormatError, ValidationError
from upaq.inference import (
    Activation,
    forward_batch,
    forward_compressed,
    load_activations,
    save_activations,
)
from upaq.model import LayerSpec, ModelGraph, Tensor4, infer_shapes

# sink output of toy-cnn (seed 42) on fixture input 0, produced by the
# straight-loop reference implementation in oracles.py
TOY_CNN_GOLDEN = [
    -15.047511100769043,
    13.155098915100098,
    -51.90532684326172,
    -26.171005249023438,
]


def test_identity_1x1_conv_passes_input_through():
    w = Tensor4(np.ones((1, 1, 1, 1), dtype=np.float32))
    layer = LayerSpec("id", "conv2d", (), w, None, 1, 0)
    model = ModelGraph("identity", (1, 5, 5), [layer])
    model.validate()
    rng = np.random.default_rng(31)
    x = Activation(rng.normal(size=(1, 5, 5)).astype(np.float32))
    assert np.array_equal(forward_batch(model, [x])[0].data, x.data)


def test_all_zero_weights_give_zero_sink():
    layers = [
        LayerSpec("c", "conv2d", (), Tensor4(np.zeros((2, 1, 3, 3), dtype=np.float32)), None, 1, 1),
        LayerSpec("r", "relu", ("c",)),
        LayerSpec("g", "global_avg_pool", ("r",)),
        LayerSpec("fc", "linear", ("g",), Tensor4(np.zeros((2, 2, 1, 1), dtype=np.float32)), None),
    ]
    model = ModelGraph("zeros", (1, 6, 6), layers)
    model.validate()
    out = forward_batch(model, [Activation(np.ones((1, 6, 6), dtype=np.float32))])[0]
    assert not out.data.any()


def test_golden_output_matches_shipped_values(toy_cnn):
    model, inputs = toy_cnn
    out = forward_batch(model, [inputs[0]])[0].data.reshape(-1)
    assert np.allclose(out, TOY_CNN_GOLDEN, atol=1e-6, rtol=0)


def test_straight_loop_reference_reproduces_golden(toy_cnn):
    model, inputs = toy_cnn
    ref = forward_reference(model, inputs[0].data).reshape(-1)
    assert np.allclose(ref, TOY_CNN_GOLDEN, atol=1e-6, rtol=0)
    # engine and reference share the accumulation order, so they agree bitwise
    assert forward_batch(model, [inputs[0]])[0].data.tobytes() == forward_reference(model, inputs[0].data).tobytes()


def test_engine_matches_reference_on_all_fixtures(toy_residual, toy_1x1):
    for model, inputs in (toy_residual, toy_1x1):
        eng = forward_batch(model, [inputs[1]])[0].data
        ref = forward_reference(model, inputs[1].data)
        assert eng.tobytes() == ref.tobytes()


def test_strided_padded_conv_against_reference():
    rng = np.random.default_rng(33)
    layer = LayerSpec(
        "c", "conv2d", (),
        Tensor4(rng.normal(size=(3, 2, 3, 3)).astype(np.float32)),
        rng.normal(size=3).astype(np.float32),
        stride=2, padding=1,
    )
    model = ModelGraph("strided", (2, 9, 9), [layer])
    model.validate()
    x = Activation(rng.normal(size=(2, 9, 9)).astype(np.float32))
    assert forward_batch(model, [x])[0].data.tobytes() == forward_reference(model, x.data).tobytes()


def test_linearity_on_conv_only_graph():
    rng = np.random.default_rng(32)
    layers = [
        LayerSpec("a", "conv2d", (), Tensor4(rng.normal(size=(2, 1, 3, 3)).astype(np.float32)), None, 1, 1),
        LayerSpec("b", "conv2d", ("a",), Tensor4(rng.normal(size=(2, 2, 3, 3)).astype(np.float32)), None, 1, 1),
    ]
    model = ModelGraph("linear-graph", (1, 8, 8), layers)
    model.validate()
    x = rng.normal(size=(1, 8, 8)).astype(np.float32)
    y1 = forward_batch(model, [Activation(3.0 * x)])[0].data
    y2 = 3.0 * forward_batch(model, [Activation(x)])[0].data
    assert np.allclose(y1, y2, rtol=1e-5, atol=1e-6)


def test_forward_compressed_paths_agree_bitwise(toy_cnn, toy_cnn_hck):
    _, inputs = toy_cnn
    for act in inputs[:4]:
        dense_path = forward_compressed(toy_cnn_hck, act).data
        sparse_path = forward_compressed(toy_cnn_hck, act, sparse=True).data
        assert dense_path.tobytes() == sparse_path.tobytes()


def test_forward_compressed_equals_forward_on_decompressed(toy_cnn, toy_cnn_hck):
    _, inputs = toy_cnn
    dense = upaq.decompress_model(toy_cnn_hck)
    out_a = forward_compressed(toy_cnn_hck, inputs[0]).data
    out_b = forward_batch(dense, [inputs[0]])[0].data
    assert np.array_equal(out_a, out_b)


def test_input_shape_mismatch_rejected(toy_cnn):
    model, _ = toy_cnn
    with pytest.raises(ValidationError, match="input shape"):
        forward_batch(model, [Activation(np.zeros((2, 16, 16), dtype=np.float32))])


def test_layer_shape_error_names_layer():
    layers = [
        LayerSpec("front", "conv2d", (), Tensor4(np.ones((2, 1, 3, 3), dtype=np.float32)), None, 1, 1),
        LayerSpec("mismatched", "linear", ("front",), Tensor4(np.ones((2, 5, 1, 1), dtype=np.float32)), None),
    ]
    model = ModelGraph("bad", (1, 4, 4), layers)
    with pytest.raises(ValidationError, match="mismatched"):
        forward_batch(model, [Activation(np.zeros((1, 4, 4), dtype=np.float32))])


def test_activation_batch_roundtrip(tmp_path, toy_cnn):
    _, inputs = toy_cnn
    path = tmp_path / "inputs.bin"
    save_activations(path, inputs[:5])
    back = load_activations(path)
    assert len(back) == 5
    for a, b in zip(inputs[:5], back):
        assert a.data.tobytes() == b.data.tobytes()


@pytest.mark.parametrize("meta,message", [
    ({"count": 5, "shape": ["x", 2]}, "shape"),
    ({"count": 5, "shape": [1, 16]}, "shape"),
    ({"count": 5, "shape": [1, 16, 0]}, "shape"),
    ({"count": 5, "shape": [1, 16, 16.0]}, "shape"),
    ({"count": 5, "shape": [1, True, 16]}, "shape"),
    ({"count": 5, "shape": "1x16x16"}, "shape"),
    ({"count": 0, "shape": [1, 16, 16]}, "count"),
    ({"count": -5, "shape": [1, 16, 16]}, "count"),
    ({"count": "5", "shape": [1, 16, 16]}, "count"),
    ({"count": 5.0, "shape": [1, 16, 16]}, "count"),
])
def test_hostile_sidecar_raises_format_error(tmp_path, toy_cnn, meta, message):
    path = tmp_path / "inputs.bin"
    save_activations(path, toy_cnn[1][:5])
    inference.sidecar_path(path).write_text(json.dumps(meta))
    with pytest.raises(FormatError, match=f"{message} .* is not"):
        load_activations(path)


def test_blob_length_off_its_sidecar_raises_format_error(tmp_path, toy_cnn):
    path = tmp_path / "inputs.bin"
    save_activations(path, toy_cnn[1][:5])
    path.write_bytes(path.read_bytes() + bytes(4))
    with pytest.raises(FormatError, match="expected 5120 bytes for 5 inputs, got 5124"):
        load_activations(path)


def test_activation_batch_shape_consistency(tmp_path):
    a = Activation(np.zeros((1, 2, 2), dtype=np.float32))
    b = Activation(np.zeros((1, 3, 3), dtype=np.float32))
    with pytest.raises(ValidationError, match="input 1"):
        save_activations(tmp_path / "x.bin", [a, b])


# ---------------------------------------------------------------------------
# batched engine
# ---------------------------------------------------------------------------

def _largest_activation(model):
    return max(math.prod(s) for s in (model.input_shape, *infer_shapes(model).values()))


@pytest.fixture(scope="module", params=[
    (arch, kind) for arch in ("toy-cnn", "toy-residual", "toy-1x1") for kind in ("dense", "hck", "lck")
], ids=lambda p: "-".join(p))
def engine_case(request):
    arch, kind = request.param
    model, inputs = upaq.gen_fixture(arch, 42)
    if kind != "dense":
        profile = upaq.hck_profile if kind == "hck" else upaq.lck_profile
        model = upaq.decompress_model(upaq.compress_model(model, profile(seed=42)))
    return model, inputs


@pytest.mark.parametrize("sparse", [False, True], ids=["dense-path", "skipping-path"])
def test_batched_engine_matches_single_input_forward_and_oracle(engine_case, sparse, monkeypatch):
    model, inputs = engine_case
    assert len(inputs) == 64
    singles = [forward_batch(model, [act])[0].data.tobytes() for act in inputs]
    # default chunking, then chunks of 5: 64 inputs leave a partial last chunk of 4
    for budget in (inference.CHUNK_BYTES, 5 * 4 * _largest_activation(model)):
        monkeypatch.setattr(inference, "CHUNK_BYTES", budget)
        batched = forward_batch(model, inputs, sparse=sparse)
        assert [out.data.tobytes() for out in batched] == singles
    for idx in (0, 63):  # first chunk, last partial chunk
        assert singles[idx] == forward_reference(model, inputs[idx].data).tobytes()


def test_skipping_path_runs_only_retained_cells(toy_cnn_hck):
    dense = upaq.decompress_model(toy_cnn_hck)
    for layer in dense.conv_layers():
        _, every, skipping = inference._conv_steps(layer, sparse=True)
        assert len(every) == layer.weights.in_ch * 9
        assert len(skipping) == layer.weights.in_ch * 2  # hck keeps 2 of 9 cells


def test_batched_strided_padded_conv_with_pruned_cells_against_reference():
    rng = np.random.default_rng(34)
    weights = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
    weights[:, :, 0, :] = 0.0  # a pruned kernel row in every slice
    weights[:, :, 1, 1] = 0.0
    layer = LayerSpec("c", "conv2d", (), Tensor4(weights), rng.normal(size=3).astype(np.float32),
                      stride=2, padding=1)
    model = ModelGraph("strided", (2, 9, 9), [layer])
    model.validate()
    xs = [Activation(rng.normal(size=(2, 9, 9)).astype(np.float32)) for _ in range(3)]
    for sparse in (False, True):
        outs = forward_batch(model, xs, sparse=sparse)
        for x, out in zip(xs, outs):
            assert out.data.tobytes() == forward_reference(model, x.data).tobytes()


def _sign_bits(a):
    return int(np.signbit(a).sum())


def test_negative_zero_bias_keeps_oracle_sign_on_skipping_path():
    layer = LayerSpec("c", "conv2d", (), Tensor4(np.zeros((1, 1, 3, 3), dtype=np.float32)),
                      np.array([-0.0], dtype=np.float32), 1, 1)
    model = ModelGraph("negzero", (1, 4, 4), [layer])
    model.validate()
    x = Activation(np.ones((1, 4, 4), dtype=np.float32))
    ref = forward_reference(model, x.data)
    assert _sign_bits(ref) == 0
    for sparse in (False, True):
        out = forward_batch(model, [x], sparse=sparse)[0].data
        assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind", ["relu", "global_avg_pool"])
def test_negative_zero_input_gives_oracle_positive_zero(kind):
    model = ModelGraph(kind, (2, 2, 2), [LayerSpec("l", kind)])
    model.validate()
    x = Activation(np.full((2, 2, 2), -0.0, dtype=np.float32))
    ref = forward_reference(model, x.data)
    assert _sign_bits(ref) == 0
    assert forward_batch(model, [x])[0].data.tobytes() == ref.tobytes()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_zero_column_is_not_skipped_over_non_finite_input():
    # channel 0 of "a" overflows to inf; 0 * inf is NaN on the dense path, so
    # skipping "b"'s all-zero in-channel-0 columns would hide it
    a = LayerSpec("a", "conv2d", (), Tensor4(np.array([3e38, 1.0], dtype=np.float32).reshape(2, 1, 1, 1)))
    wb = np.ones((1, 2, 3, 3), dtype=np.float32)
    wb[:, 0] = 0.0
    b = LayerSpec("b", "conv2d", ("a",), Tensor4(wb), None, 1, 1)
    model = ModelGraph("overflow", (1, 3, 3), [a, b])
    model.validate()
    x = Activation(np.full((1, 3, 3), 10.0, dtype=np.float32))
    for sparse in (False, True):
        with pytest.raises(ValidationError, match="non-finite"):
            forward_batch(model, [x], sparse=sparse)


def test_batch_input_shape_mismatch_names_index(toy_cnn):
    model, inputs = toy_cnn
    bad = Activation(np.zeros((2, 16, 16), dtype=np.float32))
    with pytest.raises(ValidationError, match="of input 2 "):
        forward_batch(model, [inputs[0], inputs[1], bad])


# ---------------------------------------------------------------------------
# channel-major layout: flatten order, out-channel tiles, windows, chunk edges
# ---------------------------------------------------------------------------

def _conv(rng, lid, out_ch, in_ch, k, inputs=(), stride=1, padding=0, pruned=()):
    weights = rng.uniform(-1, 1, (out_ch, in_ch, k, k)).astype(np.float32)
    for r, c in pruned:  # a cell zero in every slice, which the skipping path drops
        weights[:, :, r, c] = 0.0
    return LayerSpec(lid, "conv2d", inputs, Tensor4(weights), rng.uniform(-1, 1, out_ch).astype(np.float32),
                     stride, padding)


def _assert_engine_matches(model, xs, oracle_idx):
    singles = [forward_batch(model, [x])[0].data.tobytes() for x in xs]
    for idx in oracle_idx:
        assert singles[idx] == forward_reference(model, xs[idx].data).tobytes()
    for sparse in (False, True):
        assert [out.data.tobytes() for out in forward_batch(model, xs, sparse=sparse)] == singles
    return singles


def _inputs(rng, shape, count):
    return [Activation(rng.uniform(-1, 1, shape).astype(np.float32)) for _ in range(count)]


def test_linear_on_spatial_activation_flattens_in_chw_order():
    rng = np.random.default_rng(36)
    layers = [
        _conv(rng, "c", 3, 2, 3, padding=1, pruned=[(0, 0)]),
        LayerSpec("r", "relu", ("c",)),
        LayerSpec("fc", "linear", ("r",), Tensor4(rng.uniform(-1, 1, (5, 3 * 4 * 5, 1, 1)).astype(np.float32)),
                  rng.uniform(-1, 1, 5).astype(np.float32)),
    ]
    model = ModelGraph("spatial-fc", (2, 4, 5), layers)
    model.validate()
    _assert_engine_matches(model, _inputs(rng, (2, 4, 5), 3), oracle_idx=(0, 2))


@pytest.mark.parametrize("out_ch", [10, 24])
@pytest.mark.parametrize("tile", [1, 4, 7, None], ids=lambda t: f"tile-{t or 'default'}")
def test_out_channels_not_a_multiple_of_the_tile(out_ch, tile, monkeypatch):
    rng = np.random.default_rng(37)
    model = ModelGraph("tiles", (3, 6, 6), [_conv(rng, "c", out_ch, 3, 3, padding=1, pruned=[(1, 1)])])
    model.validate()
    xs = _inputs(rng, (3, 6, 6), 3)
    if tile is not None:  # all three inputs share one chunk: rows of 3 * 6 * 6
        monkeypatch.setattr(inference, "TILE_BYTES", tile * 8 * 3 * 36)
    _assert_engine_matches(model, xs, oracle_idx=(1,))


@pytest.mark.parametrize("k, stride, padding, hw", [
    (3, 2, 1, (7, 8)), (3, 3, 2, (7, 8)), (3, 2, 3, (7, 8)), (2, 1, 2, (7, 8)), (5, 2, 1, (7, 8)),
    (3, 20, 3, (7, 8)),  # one output pixel, over the padding for every kernel cell
    (9, 3, 3, (5, 6)), (10, 2, 3, (4, 5)),  # kernel rows whose window holds no output row
])
def test_strided_padded_windows_against_reference(k, stride, padding, hw):
    # a kernel cell over the padding reads zeros: its products still accumulate
    rng = np.random.default_rng(38)
    model = ModelGraph("windows", (2, *hw), [_conv(rng, "c", 4, 2, k, stride=stride, padding=padding,
                                                 pruned=[(0, k - 1), (k - 1, 0)])])
    model.validate()
    _assert_engine_matches(model, _inputs(rng, (2, *hw), 2), oracle_idx=(0, 1))


def test_batch_sizes_around_the_chunk_on_a_32_channel_model():
    rng = np.random.default_rng(39)
    layers = [
        _conv(rng, "a", 32, 2, 3, padding=1, pruned=[(0, 1)]),
        LayerSpec("ra", "relu", ("a",)),
        _conv(rng, "b", 32, 32, 3, ("ra",), padding=1, pruned=[(2, 2)]),
        LayerSpec("sum", "add", ("b", "ra")),
        _conv(rng, "c", 10, 32, 3, ("sum",), stride=2, padding=1),
        LayerSpec("fc", "linear", ("c",), Tensor4(rng.uniform(-1, 1, (4, 10 * 3 * 3, 1, 1)).astype(np.float32))),
    ]
    model = ModelGraph("wide-small", (2, 6, 6), layers)
    model.validate()
    chunk = inference.CHUNK_BYTES // (4 * _largest_activation(model))
    assert chunk > 2
    xs = _inputs(rng, (2, 6, 6), chunk + 1)
    singles = _assert_engine_matches(model, xs, oracle_idx=(0, chunk))
    for size in (1, chunk - 1, chunk):
        for sparse in (False, True):
            outs = forward_batch(model, xs[:size], sparse=sparse)
            assert [out.data.tobytes() for out in outs] == singles[:size]


def test_conv_restores_the_ufunc_buffer_size():
    rng = np.random.default_rng(41)
    model = ModelGraph("short-rows", (2, 5, 5), [_conv(rng, "c", 4, 2, 3, padding=1)])
    model.validate()
    before = np.getbufsize()
    forward_batch(model, _inputs(rng, (2, 5, 5), 2))  # rows of 50 run with a smaller buffer
    assert np.getbufsize() == before


def _traced_peak(model, xs):
    tracemalloc.start()
    try:
        outs = forward_batch(model, xs)
        return tracemalloc.get_traced_memory()[1], outs
    finally:
        tracemalloc.stop()


def test_memory_stays_bounded_for_any_batch():
    rng = np.random.default_rng(40)
    model = ModelGraph("bounded", (1, 32, 32), [_conv(rng, "c", 32, 1, 3, padding=1)])
    model.validate()
    chunk = inference.CHUNK_BYTES // (4 * _largest_activation(model))
    xs = _inputs(rng, (1, 32, 32), 4 * chunk)
    forward_batch(model, xs[:chunk])  # warm up
    one_peak, one_out = _traced_peak(model, xs[:chunk])
    four_peak, four_out = _traced_peak(model, xs)
    row = one_out[0].data.nbytes
    # the three extra chunks may only add their output rows, not chunk working memory
    assert four_peak - one_peak <= 3 * chunk * row + 64 * 1024
    assert [o.data.tobytes() for o in four_out[:chunk]] == [o.data.tobytes() for o in one_out]


def test_global_avg_pool_sums_in_blocks_without_a_full_size_temporary():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(64, 4, 32, 32)).astype(np.float32)  # one wide 1 MiB chunk
    x[3, 1] = -0.0  # an all -0.0 plane averages to +0.0
    tracemalloc.start()
    try:
        out = inference._global_avg_pool(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= inference.POOL_BYTES + 16 * 1024 < x.nbytes // 4
    # the strictly row-major running sum of every plane, started at 0.0
    total = np.add.accumulate(x.reshape(64, 4, -1), axis=2)[:, :, -1] + np.float32(0.0)
    assert out.tobytes() == (total / np.float32(32 * 32)).reshape(64, 4, 1, 1).tobytes()
    assert not np.signbit(out[3, 1]).any()


# ---------------------------------------------------------------------------
# strided out-channel parts of 1x1 block-pattern layers
# ---------------------------------------------------------------------------

def _block_1x1(out_ch, in_ch, profile, seed=43, hw=(3, 4)):
    """One 1x1 conv "pw" compressed under ``profile``: it stores the pattern
    cells of the 3x3 blocks of its flat (out, in) weights."""
    rng = np.random.default_rng(seed)
    layer = LayerSpec("pw", "conv2d", (), Tensor4(rng.uniform(-1, 1, (out_ch, in_ch, 1, 1)).astype(np.float32)),
                      rng.uniform(-1, 1, out_ch).astype(np.float32))
    model = ModelGraph("pw", (in_ch, *hw), [layer])
    model.validate()
    return upaq.compress_model(model, profile(seed=42))


def _rows_run(plan, out_ch):
    return [sum(len(range(out_ch)[part]) for part in plan.parts[step[4]]) for step in plan.skipping]


@pytest.mark.parametrize("profile", [upaq.hck_profile, upaq.lck_profile], ids=["hck", "lck"])
@pytest.mark.parametrize("out_ch, in_ch", [(13, 10), (13, 12), (13, 18), (64, 64)],
                         ids=["gcd-1", "gcd-3", "gcd-9", "64x64"])
def test_strided_parts_of_1x1_layers_against_reference(out_ch, in_ch, profile):
    model = upaq.decompress_model(_block_1x1(out_ch, in_ch, profile))
    plan = inference._conv_steps(model.layers[0], sparse=True)
    if math.gcd(in_ch, 9) < 9:  # when 9 divides I, I * O does too and each column is all zero or all live
        assert (out_ch * in_ch) % 9, "the last 3x3 block of the flat weights is partial"
        assert len(plan.parts) > 1 and max(_rows_run(plan, out_ch)) < out_ch  # strided parts run
    rng = np.random.default_rng(44)
    _assert_engine_matches(model, _inputs(rng, model.input_shape, 3), oracle_idx=(0, 2))


@pytest.mark.parametrize("tile", [1, 2, 3])
def test_strided_parts_straddling_a_tile(tile, monkeypatch):
    model = upaq.decompress_model(_block_1x1(40, 10, upaq.lck_profile))  # classes of 4 or 5 rows mod 9
    rng = np.random.default_rng(45)
    xs = _inputs(rng, model.input_shape, 3)
    monkeypatch.setattr(inference, "TILE_BYTES", tile * 8 * 3 * 12)  # rows of 3 inputs * 3 * 4
    _assert_engine_matches(model, xs, oracle_idx=(1,))


def test_negative_zero_bias_turns_strided_parts_off():
    model = upaq.decompress_model(_block_1x1(13, 10, upaq.hck_profile))
    layer = model.layers[0]
    layer.weights.data[4] = 0.0  # out-channel 4 stays at its bias on a skipping path
    layer.bias[4] = -0.0
    plan = inference._conv_steps(layer, sparse=True)
    assert plan.skipping is plan.every and len(plan.parts) == 1
    rng = np.random.default_rng(46)
    xs = _inputs(rng, model.input_shape, 2)
    singles = _assert_engine_matches(model, xs, oracle_idx=(0, 1))
    # every product of out-channel 4 is +-0.0: -0.0 + 0.0 is +0.0 wherever its input is positive
    assert not np.signbit(np.frombuffer(singles[0], dtype=np.float32).reshape(13, 3, 4)[4][xs[0].data[0] > 0]).any()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_strided_parts_do_not_skip_over_a_non_finite_input():
    # in-channel 0 of "pw" overflows to inf: 0 * inf is NaN on every out-channel
    # its column skips, so a skipping path must run the full range there
    pw = upaq.decompress_model(_block_1x1(13, 10, upaq.hck_profile)).layers[0]
    pw = LayerSpec("pw", "conv2d", ("a",), pw.weights, pw.bias)
    scale = np.ones(10, dtype=np.float32)
    scale[0] = 3e38
    a = LayerSpec("a", "conv2d", (), Tensor4(np.diag(scale).reshape(10, 10, 1, 1)))
    model = ModelGraph("overflow", (10, 3, 4), [a, pw])
    model.validate()
    assert inference._conv_steps(pw, sparse=True).skipping[0][4] > 0  # column 0 runs strided parts
    x = np.full((10, 1, 3, 4), 10.0, dtype=np.float32)
    ref = forward_reference(model, x[:, 0])
    assert np.isnan(ref).any()
    last_use = {"a": 1}
    for sparse in (False, True):
        steps = {layer.id: inference._conv_steps(layer, sparse) for layer in model.conv_layers()}
        out = inference._run(model, x, steps, last_use)["pw"][:, 0]
        np.testing.assert_array_equal(out, ref)


@pytest.mark.parametrize("profile, parts", [(upaq.hck_profile, 2), (upaq.lck_profile, 3)], ids=["hck", "lck"])
def test_64x64_1x1_layer_runs_few_strided_parts(profile, parts):
    # a 64->64 1x1 layer keeps 2 (hck) or 3 (lck) cells of each 3x3 block of
    # its flat weights; gcd(64, 9) = 1, so each column's stored rows are that
    # many classes mod 9 of 7 or 8 rows: a fall-back to full tiles fails here
    cm = _block_1x1(64, 64, profile)
    plan = inference._conv_steps(upaq.decompress_model(cm).layers[0], sparse=True)
    assert len(plan.skipping) == 64
    assert all(0 < len(plan.parts[step[4]]) <= parts for step in plan.skipping)
    assert all(part.step == 9 for step in plan.skipping for part in plan.parts[step[4]])
    # the rows run are exactly the stored slots: 910 of 4096 (hck), 1365 (lck)
    assert sum(_rows_run(plan, 64)) == upaq.compressed.stored_value_count(cm.qlayers["pw"], cm.groups[0].pattern)
