import json
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import upaq
from oracles import forward_reference
from conftest import run_every, wide_model
from upaq import inference
from upaq.cost import layer_costs
from upaq.errors import FormatError, ValidationError
from upaq.compressed import stored_slots
from upaq.inference import Activation, load_activations, run_batch, save_activations
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
    x = rng.normal(size=(1, 1, 5, 5)).astype(np.float32)
    assert np.array_equal(run_batch(model, x), x)


def test_all_zero_weights_give_zero_sink():
    layers = [
        LayerSpec("c", "conv2d", (), Tensor4(np.zeros((2, 1, 3, 3), dtype=np.float32)), None, 1, 1),
        LayerSpec("r", "relu", ("c",)),
        LayerSpec("g", "global_avg_pool", ("r",)),
        LayerSpec("fc", "linear", ("g",), Tensor4(np.zeros((2, 2, 1, 1), dtype=np.float32)), None),
    ]
    model = ModelGraph("zeros", (1, 6, 6), layers)
    model.validate()
    out = run_batch(model, np.ones((1, 1, 6, 6), dtype=np.float32))
    assert not out.any()


def test_golden_output_matches_shipped_values(toy_cnn):
    model, inputs = toy_cnn
    out = run_batch(model, inputs[:1])[0].reshape(-1)
    assert np.allclose(out, TOY_CNN_GOLDEN, atol=1e-6, rtol=0)


def test_straight_loop_reference_reproduces_golden(toy_cnn):
    model, inputs = toy_cnn
    ref = forward_reference(model, inputs[0]).reshape(-1)
    assert np.allclose(ref, TOY_CNN_GOLDEN, atol=1e-6, rtol=0)
    # engine and reference share the accumulation order, so they agree bitwise
    assert run_batch(model, inputs[:1])[0].tobytes() == forward_reference(model, inputs[0]).tobytes()


def test_engine_matches_reference_on_all_fixtures(toy_residual, toy_1x1):
    for model, inputs in (toy_residual, toy_1x1):
        eng = run_batch(model, inputs[1:2])[0]
        ref = forward_reference(model, inputs[1])
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
    x = rng.normal(size=(1, 2, 9, 9)).astype(np.float32)
    assert run_batch(model, x)[0].tobytes() == forward_reference(model, x[0]).tobytes()


def test_linearity_on_conv_only_graph():
    rng = np.random.default_rng(32)
    layers = [
        LayerSpec("a", "conv2d", (), Tensor4(rng.normal(size=(2, 1, 3, 3)).astype(np.float32)), None, 1, 1),
        LayerSpec("b", "conv2d", ("a",), Tensor4(rng.normal(size=(2, 2, 3, 3)).astype(np.float32)), None, 1, 1),
    ]
    model = ModelGraph("linear-graph", (1, 8, 8), layers)
    model.validate()
    x = rng.normal(size=(1, 1, 8, 8)).astype(np.float32)
    y1 = run_batch(model, 3.0 * x)
    y2 = 3.0 * run_batch(model, x)
    assert np.allclose(y1, y2, rtol=1e-5, atol=1e-6)


def test_compressed_model_runs_bit_equal_to_the_oracle(toy_cnn, toy_cnn_hck):
    # the engine skips the cells hck prunes; the oracle runs every one
    _, inputs = toy_cnn
    dense = upaq.decompress_model(toy_cnn_hck)
    for run in (run_every, run_batch):
        for x, out in zip(inputs[:4], run(dense, inputs[:4])):
            assert out.tobytes() == forward_reference(dense, x).tobytes()


def test_input_shape_mismatch_rejected(toy_cnn):
    model, _ = toy_cnn
    with pytest.raises(ValidationError, match="input shape"):
        run_batch(model, np.zeros((1, 2, 16, 16), dtype=np.float32))


def test_layer_shape_error_names_layer():
    layers = [
        LayerSpec("front", "conv2d", (), Tensor4(np.ones((2, 1, 3, 3), dtype=np.float32)), None, 1, 1),
        LayerSpec("mismatched", "linear", ("front",), Tensor4(np.ones((2, 5, 1, 1), dtype=np.float32)), None),
    ]
    model = ModelGraph("bad", (1, 4, 4), layers)
    with pytest.raises(ValidationError, match="mismatched"):
        run_batch(model, np.zeros((1, 1, 4, 4), dtype=np.float32))


def test_activation_batch_roundtrip(tmp_path, toy_cnn):
    _, inputs = toy_cnn
    path = tmp_path / "inputs.bin"
    save_activations(path, inputs[:5])
    back = load_activations(path)
    assert back.shape == (5, *inputs.shape[1:]) and back.dtype == np.float32
    assert back.tobytes() == inputs[:5].tobytes()


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


@pytest.mark.parametrize("text,message", [
    ("{count: 5", "bad shape sidecar"),
    ("[5, [1, 16, 16]]", "is not a JSON object"),
], ids=["not-json", "json-list"])
def test_sidecar_that_is_not_a_json_object_raises_format_error(tmp_path, toy_cnn, text, message):
    path = tmp_path / "inputs.bin"
    save_activations(path, toy_cnn[1][:5])
    inference.sidecar_path(path).write_text(text)
    with pytest.raises(FormatError, match=rf"inputs\.bin\.json:? {message}"):
        load_activations(path)


def test_save_activations_rejects_an_empty_batch(tmp_path):
    with pytest.raises(ValidationError, match="^empty activation batch$"):
        save_activations(tmp_path / "x.bin", np.zeros((0, 1, 4, 4), dtype=np.float32))
    assert not (tmp_path / "x.bin").exists()


def test_blob_length_off_its_sidecar_raises_format_error(tmp_path, toy_cnn):
    path = tmp_path / "inputs.bin"
    save_activations(path, toy_cnn[1][:5])
    blob = path.read_bytes()
    path.write_bytes(blob + bytes(4))
    with pytest.raises(FormatError, match="expected 5120 bytes for 5 inputs, got 5124"):
        load_activations(path)
    path.write_bytes(blob[:-4])
    with pytest.raises(FormatError, match="expected 5120 bytes for 5 inputs, got 5116"):
        load_activations(path)


@pytest.mark.parametrize("damage", ["flip", "no-crc"])
def test_a_blob_off_its_sidecar_crc_raises_format_error(tmp_path, toy_cnn, damage):
    path = tmp_path / "inputs.bin"
    save_activations(path, toy_cnn[1][:5])
    if damage == "flip":
        blob = bytearray(path.read_bytes())
        blob[100] ^= 1
        path.write_bytes(blob)
        message = r"inputs\.bin: CRC32 does not match its sidecar$"
    else:
        meta = json.loads(inference.sidecar_path(path).read_text())
        del meta["crc32"]
        inference.sidecar_path(path).write_text(json.dumps(meta))
        message = r"inputs\.bin\.json: missing 'crc32'$"
    with pytest.raises(FormatError, match=message):
        load_activations(path)


def test_load_activations_holds_one_copy_of_the_blob(tmp_path):
    path = tmp_path / "inputs.bin"
    batch = np.random.default_rng(48).normal(size=(256, 1, 32, 32)).astype(np.float32)  # 1 MiB
    save_activations(path, batch)
    tracemalloc.start()
    try:
        back = load_activations(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.tobytes() == batch.tobytes()
    # the array itself and nothing batch-sized beside it
    assert peak <= 1.05 * batch.nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_load_activations_returns_a_non_finite_blob_bit_for_bit(tmp_path, bad):
    # the engine names the bad input (run_batch); the loader hands the blob on as it is
    batch = np.random.default_rng(49).normal(size=(8, 1, 4, 4)).astype(np.float32)
    batch[3, 0, 1, 2] = bad
    save_activations(tmp_path / "inputs.bin", batch)
    assert load_activations(tmp_path / "inputs.bin").tobytes() == batch.tobytes()


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(inference.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(inference.os, "cpu_count", lambda: 6)
    assert inference.usable_cpus() == 6
    monkeypatch.setattr(inference.os, "cpu_count", lambda: None)
    assert inference.usable_cpus() == 1


def test_save_activations_rejects_a_batch_that_is_not_4d(tmp_path, toy_cnn):
    # a single (C, H, W) input: its sidecar would say shape [16, 16], which load_activations refuses
    with pytest.raises(ValidationError, match=r"4 dimensions \(B, C, H, W\), got 3"):
        save_activations(tmp_path / "x.bin", toy_cnn[1][0])
    assert not (tmp_path / "x.bin").exists() and not inference.sidecar_path(tmp_path / "x.bin").exists()


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


@pytest.mark.parametrize("chunk", [None, 5], ids=["default-chunks", "chunks-of-5"])
def test_batched_engine_matches_single_input_forward_and_oracle(engine_case, chunk, monkeypatch):
    model, inputs = engine_case
    assert inputs.shape == (64, 1, 16, 16) and inputs.dtype == np.float32
    singles = [run_every(model, inputs[i:i + 1])[0].tobytes() for i in range(len(inputs))]
    if chunk is not None:  # 64 inputs in chunks of 5 leave a partial last chunk of 4
        monkeypatch.setattr(inference, "CHUNK_BYTES", chunk * 4 * _largest_activation(model))
    for run in (run_every, run_batch):
        assert [out.tobytes() for out in run(model, inputs)] == singles
    for idx in (0, 63):  # first chunk, last partial chunk
        assert singles[idx] == forward_reference(model, inputs[idx]).tobytes()


def test_skipping_path_runs_only_retained_cells(toy_cnn_hck):
    dense = upaq.decompress_model(toy_cnn_hck)
    for layer in dense.conv_layers():
        (every,) = inference._conv_steps(layer, every=True).groups  # a k x k layer runs as one row group
        (skipping,) = inference._conv_steps(layer).groups
        assert every.weights.shape == (layer.weights.out_ch, 1 + layer.weights.in_ch * 9)
        assert skipping.weights.shape == (layer.weights.out_ch, 1 + layer.weights.in_ch * 2)  # hck keeps 2 of 9 cells
        assert len(skipping.fills) == 2  # one fill per retained cell, over every in-channel


def test_a_plan_builds_only_the_groups_it_runs(toy_cnn_hck, monkeypatch):
    calls = []
    build = inference._group
    monkeypatch.setattr(inference, "_group", lambda *args: calls.append(args) or build(*args))
    for layer in upaq.decompress_model(toy_cnn_hck).layers:
        if layer.weights is not None:
            calls.clear()
            plan = inference._conv_steps(layer)
            assert len(calls) == len(plan.groups), layer.id


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_every_column_plan_is_built_only_for_a_skipping_layer_over_an_overflow(monkeypatch):
    # channel 0 of "a" overflows to inf on a nonzero input; "b" skips its pruned
    # kernel row, so it then runs every column; dense "c" skips nothing either way
    a = LayerSpec("a", "conv2d", (), Tensor4(np.array([3e38, 1.0], dtype=np.float32).reshape(2, 1, 1, 1)))
    wb = np.random.default_rng(50).uniform(-1, 1, (2, 2, 3, 3)).astype(np.float32)
    wb[:, :, 0, :] = 0.0
    b = LayerSpec("b", "conv2d", ("a",), Tensor4(wb), None, 1, 1)
    c = LayerSpec("c", "conv2d", ("b",), Tensor4(np.ones((1, 2, 1, 1), dtype=np.float32)))
    model = ModelGraph("overflow", (1, 3, 4), [a, b, c])
    model.validate()
    plans = {layer.id: inference._conv_steps(layer) for layer in model.conv_layers()}
    build, built = inference._conv_steps, []

    def steps(layer, every=False):
        built.append((layer.id, every))
        return build(layer, every)

    monkeypatch.setattr(inference, "_conv_steps", steps)
    for value, rebuilt in ((0.0, []), (10.0, [("b", True)])):
        built.clear()
        inference._run(model, np.full((1, 1, 3, 4), value, dtype=np.float32), plans, {"a": 1, "b": 2})
        assert built == rebuilt


def test_batched_strided_padded_conv_with_pruned_cells_against_reference():
    rng = np.random.default_rng(34)
    weights = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
    weights[:, :, 0, :] = 0.0  # a pruned kernel row in every slice
    weights[:, :, 1, 1] = 0.0
    layer = LayerSpec("c", "conv2d", (), Tensor4(weights), rng.normal(size=3).astype(np.float32),
                      stride=2, padding=1)
    model = ModelGraph("strided", (2, 9, 9), [layer])
    model.validate()
    xs = rng.normal(size=(3, 2, 9, 9)).astype(np.float32)
    assert inference._conv_steps(layer).executed == 3 * 2 * 5  # rows 1 and 2 of the kernel, less the centre
    for run in (run_every, run_batch):
        for x, out in zip(xs, run(model, xs)):
            assert out.tobytes() == forward_reference(model, x).tobytes()


def _sign_bits(a):
    return int(np.signbit(a).sum())


def test_negative_zero_bias_keeps_oracle_sign_on_skipping_path():
    layer = LayerSpec("c", "conv2d", (), Tensor4(np.zeros((1, 1, 3, 3), dtype=np.float32)),
                      np.array([-0.0], dtype=np.float32), 1, 1)
    model = ModelGraph("negzero", (1, 4, 4), [layer])
    model.validate()
    x = np.ones((1, 1, 4, 4), dtype=np.float32)
    ref = forward_reference(model, x[0])
    assert _sign_bits(ref) == 0
    for run in (run_every, run_batch):
        assert run(model, x)[0].tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind", ["conv2d", "linear"])
def test_negative_zero_bias_keeps_an_all_negative_zero_sum(kind):
    # 0 * -x is -0.0 and -0.0 + -0.0 stays -0.0: out-channel 0 ends at -0.0
    # only in the scalar order, as einsum starts every sum at +0.0
    rng = np.random.default_rng(53)
    weights = rng.uniform(-1, 1, (3, 2, 1, 1) if kind == "conv2d" else (3, 2 * 3 * 3, 1, 1)).astype(np.float32)
    weights[0] = 0.0
    layer = LayerSpec("l", kind, (), Tensor4(weights), np.array([-0.0, 0.5, -0.25], dtype=np.float32))
    model = ModelGraph("negzero-sum", (2, 3, 3), [layer])
    model.validate()
    xs = -rng.uniform(0.5, 1, (2, 2, 3, 3)).astype(np.float32)
    for run in (run_every, run_batch):
        for x, out in zip(xs, run(model, xs)):
            ref = forward_reference(model, x)
            assert np.signbit(ref[0]).all() and not ref[0].any()
            assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kind", ["relu", "global_avg_pool"])
def test_negative_zero_input_gives_oracle_positive_zero(kind):
    model = ModelGraph(kind, (2, 2, 2), [LayerSpec("l", kind)])
    model.validate()
    x = np.full((1, 2, 2, 2), -0.0, dtype=np.float32)
    ref = forward_reference(model, x[0])
    assert _sign_bits(ref) == 0
    assert run_batch(model, x)[0].tobytes() == ref.tobytes()


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
    assert inference._conv_steps(b).executed == 9  # "b"'s plan skips in-channel 0
    for run in (run_every, run_batch):
        with pytest.raises(ValidationError, match="non-finite"):
            run(model, np.full((1, 1, 3, 3), 10.0, dtype=np.float32))


def test_batch_without_its_batch_axis_is_rejected(toy_cnn):
    model, inputs = toy_cnn
    with pytest.raises(ValidationError, match=r"input shape \(16, 16\) does not match model input \(1, 16, 16\)"):
        run_batch(model, inputs[0])


@pytest.mark.parametrize("chunk", [None, 1], ids=["one-chunk", "chunks-of-1"])
def test_non_finite_input_is_rejected_naming_its_index(chunk, monkeypatch):
    # relu then pooling would turn -inf into 0.0: only a check of the input sees it
    model = ModelGraph("relu-gap", (1, 1, 1), [LayerSpec("r", "relu"), LayerSpec("g", "global_avg_pool", ("r",))])
    model.validate()
    if chunk is not None:
        monkeypatch.setattr(inference, "CHUNK_BYTES", chunk * 4)
    batch = np.zeros((4, 1, 1, 1), dtype=np.float32)
    assert run_batch(model, batch[:1]).tobytes() == forward_reference(model, batch[0]).tobytes()
    batch[2] = -np.inf
    batch[3] = np.nan
    with pytest.raises(ValidationError, match="^input 2 contains non-finite values$"):
        run_batch(model, batch)


def test_float64_input_past_float32_is_named_without_a_warning(toy_cnn):
    # 1e39 is finite in float64 but inf once cast to the engine's float32
    model, _ = toy_cnn
    batch = np.zeros((3, 1, 16, 16))
    batch[1, 0, 5, 5] = 1e39
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="^input 1 contains non-finite values$"):
            run_batch(model, batch)


# ---------------------------------------------------------------------------
# channel-major layout: flatten order, output blocks, windows, chunk edges
# ---------------------------------------------------------------------------

def _conv(rng, lid, out_ch, in_ch, k, inputs=(), stride=1, padding=0, pruned=()):
    weights = rng.uniform(-1, 1, (out_ch, in_ch, k, k)).astype(np.float32)
    for r, c in pruned:  # a cell zero in every slice, which the skipping path drops
        weights[:, :, r, c] = 0.0
    return LayerSpec(lid, "conv2d", inputs, Tensor4(weights), rng.uniform(-1, 1, out_ch).astype(np.float32),
                     stride, padding)


def _assert_engine_matches(model, xs, oracle_idx):
    singles = [run_every(model, xs[i:i + 1])[0].tobytes() for i in range(len(xs))]
    for idx in oracle_idx:
        assert singles[idx] == forward_reference(model, xs[idx]).tobytes()
    for run in (run_every, run_batch):
        assert [out.tobytes() for out in run(model, xs)] == singles
    return singles


def _inputs(rng, shape, count):
    return rng.uniform(-1, 1, (count, *shape)).astype(np.float32)


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
@pytest.mark.parametrize("span", [1, 12, 30, 36, 72, None], ids=lambda s: f"span-{s or 'default'}")
def test_output_blocks_of_any_size(out_ch, span, monkeypatch):
    # a block of at most ``span`` output columns: one line of 6 at the least,
    # line ranges of one 6x6 image below 36, whole images from 36 up
    rng = np.random.default_rng(37)
    model = ModelGraph("blocks", (3, 6, 6), [_conv(rng, "c", out_ch, 3, 3, padding=1, pruned=[(1, 1)])])
    model.validate()
    xs = _inputs(rng, (3, 6, 6), 3)
    if span is not None:  # the dense path's contraction input: a ones row and 27 weight columns
        monkeypatch.setattr(inference, "BLOCK_BYTES", span * 4 * 28)
    _assert_engine_matches(model, xs, oracle_idx=(1,))


@pytest.mark.parametrize("hw", [(1, 1), (5, 1), (1, 5)], ids=lambda hw: "x".join(map(str, hw)))
def test_lone_output_columns_against_reference(hw, monkeypatch):
    # with blocks of one line a 1-wide output runs one column per contraction,
    # and so does a single input whose conv and linear outputs are one pixel;
    # a one-row contraction over one column is einsum's dot-product loop
    rng = np.random.default_rng(50)
    layers = [
        _conv(rng, "c", 5, 3, 3, padding=1, pruned=[(0, 0)]),
        LayerSpec("r", "relu", ("c",)),
        LayerSpec("fc", "linear", ("r",), Tensor4(rng.uniform(-1, 1, (1, 5 * hw[0] * hw[1], 1, 1)).astype(np.float32)),
                  rng.uniform(-1, 1, 1).astype(np.float32)),
    ]
    model = ModelGraph("lone", (3, *hw), layers)
    model.validate()
    monkeypatch.setattr(inference, "BLOCK_BYTES", 4)
    _assert_engine_matches(model, _inputs(rng, (3, *hw), 3), oracle_idx=(0, 1, 2))


@pytest.mark.parametrize("out_ch", [1, 6])
def test_single_pixel_conv_of_a_single_input_against_reference(out_ch):
    # E = 1: einsum would take its dot-product loop, which sums in another order
    rng = np.random.default_rng(51)
    model = ModelGraph("pixel", (4, 3, 3), [_conv(rng, "c", out_ch, 4, 3)])
    model.validate()
    x = _inputs(rng, (4, 3, 3), 1)
    assert infer_shapes(model)["c"] == (out_ch, 1, 1)
    for run in (run_every, run_batch):
        assert run(model, x)[0].tobytes() == forward_reference(model, x[0]).tobytes()


def _two_rounding_loop(w, x):
    acc = np.zeros((w.shape[0], x.shape[1]), dtype=np.float32)
    for k in range(w.shape[1]):
        acc += w[:, k:k + 1] * x[k]  # a rounded float32 product, then a rounded sum
    return acc


def test_einsum_contraction_is_the_two_rounding_loop():
    """The engine's one numpy assumption: with two or more output columns,
    ``np.einsum("ok,ke->oe", optimize=False)`` adds the float32 products
    ``w[o, k] * x[k, e]`` for ``k`` in order, rounding each product and each
    sum, with no fused multiply-add."""
    rng = np.random.default_rng(52)
    shapes = [(1, 1, 2), (1, 7, 2), (5, 1, 3), (3, 40, 2)] + [
        (int(rng.integers(1, 40)), int(rng.integers(1, 300)), int(rng.integers(2, 600))) for _ in range(60)]
    for out, depth, cols in shapes:
        w = rng.normal(size=(out, depth)).astype(np.float32)
        x = rng.normal(size=(depth, cols)).astype(np.float32) * np.float32(1e3)
        w[rng.random(w.shape) < 0.2] = 0.0
        w[rng.random(w.shape) < 0.1] = -0.0
        x[rng.random(x.shape) < 0.1] = 0.0
        x[rng.random(x.shape) < 0.1] = -0.0
        for layout in (w, np.asfortranarray(w)):  # the engine's weights are column-major
            got = np.einsum("ok,ke->oe", layout, x, optimize=False)
            assert got.tobytes() == _two_rounding_loop(w, x).tobytes(), (
                f"np.einsum over {out}x{depth} by {depth}x{cols} is not the in-order k loop of rounded float32 "
                "products and sums: a SIMD baseline with fused multiply-add (FMA3, aarch64 NEON) fuses einsum's "
                "products into its sums, and the engine is bit-exact only on a baseline without it")


@pytest.mark.parametrize("k, stride, padding, hw", [
    (3, 2, 1, (7, 8)), (3, 3, 2, (7, 8)), (3, 2, 3, (7, 8)), (2, 1, 2, (7, 8)), (5, 2, 1, (7, 8)),
    (3, 20, 3, (7, 8)),  # one output pixel, over the padding for every kernel cell
    (9, 3, 3, (5, 6)), (10, 2, 3, (4, 5)),  # kernel rows whose window holds no output row
])
@pytest.mark.parametrize("block_bytes", [None, 4], ids=["default-blocks", "line-blocks"])
def test_strided_padded_windows_against_reference(k, stride, padding, hw, block_bytes, monkeypatch):
    # a kernel cell over the padding reads zeros: its products still accumulate;
    # with blocks of one output line, each block clips the cell's window to its line
    if block_bytes is not None:
        monkeypatch.setattr(inference, "BLOCK_BYTES", block_bytes)
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
        for run in (run_every, run_batch):
            assert [out.tobytes() for out in run(model, xs[:size])] == singles[:size]


def _traced_peak(model, xs):
    tracemalloc.start()
    try:
        outs = run_batch(model, xs)
        return tracemalloc.get_traced_memory()[1], outs
    finally:
        tracemalloc.stop()


def test_memory_stays_bounded_for_any_batch():
    rng = np.random.default_rng(40)
    model = ModelGraph("bounded", (1, 32, 32), [_conv(rng, "c", 32, 1, 3, padding=1)])
    model.validate()
    chunk = inference.CHUNK_BYTES // (4 * _largest_activation(model))
    xs = _inputs(rng, (1, 32, 32), 4 * chunk)
    run_batch(model, xs[:chunk])  # warm up
    one_peak, one_out = _traced_peak(model, xs[:chunk])
    four_peak, four_out = _traced_peak(model, xs)
    row = one_out[0].nbytes
    # the three extra chunks may only add their output rows, not chunk working memory
    assert four_peak - one_peak <= 3 * chunk * row + 64 * 1024
    assert four_out[:chunk].tobytes() == one_out.tobytes()


# ---------------------------------------------------------------------------
# a batch of more than one chunk split over threads
# ---------------------------------------------------------------------------

@pytest.fixture
def counted_threads(monkeypatch):
    """The list of every ``threading.Thread`` the test starts."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


def _no_thread(*args, **kwargs):
    raise AssertionError("a thread was started")


@pytest.fixture(scope="module")
def residual_case():
    """A pruned residual model over (2, 6, 6), 13 inputs, and each input run alone over every column."""
    rng = np.random.default_rng(41)
    layers = [
        _conv(rng, "a", 8, 2, 3, padding=1, pruned=[(0, 1)]),
        LayerSpec("ra", "relu", ("a",)),
        _conv(rng, "b", 8, 8, 3, ("ra",), padding=1, pruned=[(2, 2), (1, 0)]),
        LayerSpec("sum", "add", ("b", "ra")),
        LayerSpec("fc", "linear", ("sum",), Tensor4(rng.uniform(-1, 1, (4, 8 * 6 * 6, 1, 1)).astype(np.float32)),
                  rng.uniform(-1, 1, 4).astype(np.float32)),
    ]
    model = ModelGraph("residual-small", (2, 6, 6), layers)
    model.validate()
    xs = _inputs(rng, (2, 6, 6), 13)
    singles = [run_every(model, xs[i:i + 1])[0].tobytes() for i in range(len(xs))]
    for idx in (0, 12):
        assert singles[idx] == forward_reference(model, xs[idx]).tobytes()
    return model, xs, singles


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
@pytest.mark.parametrize("chunk", [5, 6])
def test_threaded_shares_give_the_bytes_of_one_input_at_a_time(residual_case, chunk, cpus, counted_threads,
                                                               monkeypatch):
    # 6, 11 and 13 inputs straddle the chunk edges; 8 CPUs are more threads than cores
    model, xs, singles = residual_case
    monkeypatch.setattr(inference, "CHUNK_BYTES", chunk * 4 * _largest_activation(model))
    monkeypatch.setattr(inference, "usable_cpus", lambda: cpus)
    run_chunk, sizes = inference._run, []
    monkeypatch.setattr(inference, "_run", lambda m, x, *rest: sizes.append(x.shape[1]) or run_chunk(m, x, *rest))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for size in (chunk, chunk + 1, 2 * chunk - 1, 13):
            workers = min(cpus, chunk) if size > chunk else 1
            for run in (run_every, run_batch):
                counted_threads.clear()
                sizes.clear()
                assert [out.tobytes() for out in run(model, xs[:size])] == singles[:size], (size, run)
                assert len(counted_threads) == workers - 1
                assert not any(thread.is_alive() for thread in counted_threads)
                # so at most one chunk of inputs is in flight over all the threads
                assert sum(sizes) == size and max(sizes) == min(size, chunk // workers)
    finally:
        sys.setswitchinterval(interval)


def test_a_batch_of_one_chunk_starts_no_thread(toy_cnn, monkeypatch):
    model, inputs = toy_cnn
    assert inference.CHUNK_BYTES // (4 * _largest_activation(model)) == len(inputs)
    monkeypatch.setattr(inference, "usable_cpus", lambda: 4)
    monkeypatch.setattr(threading, "Thread", _no_thread)
    for size in (1, len(inputs)):
        assert run_batch(model, inputs[:size]).tobytes() == run_every(model, inputs[:size]).tobytes()


def _overflow_model():
    """A 1x1 conv whose channel 0 overflows to inf on any input above 1.2."""
    layer = LayerSpec("a", "conv2d", (), Tensor4(np.array([3e38, 1.0], dtype=np.float32).reshape(2, 1, 1, 1)))
    model = ModelGraph("overflow", (1, 3, 4), [layer])
    model.validate()
    return model


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("bad", [0, 3, 6], ids=["caller-share", "worker-share", "last-worker-chunk"])
def test_an_overflow_in_any_share_raises_and_leaves_no_thread(bad, counted_threads, monkeypatch):
    # chunks of 2 over 2 CPUs: shares of 1 input, the caller taking even inputs and a thread odd ones
    model = _overflow_model()
    monkeypatch.setattr(inference, "CHUNK_BYTES", 2 * 4 * _largest_activation(model))
    monkeypatch.setattr(inference, "usable_cpus", lambda: 2)
    batch = np.zeros((7, 1, 3, 4), dtype=np.float32)
    baseline = threading.active_count()
    assert run_batch(model, batch).tobytes() == np.zeros((7, 2, 3, 4), dtype=np.float32).tobytes()
    batch[bad] = 10.0
    with pytest.raises(ValidationError, match="^activation contains non-finite values$"):
        run_batch(model, batch)
    assert len(counted_threads) == 2
    assert threading.active_count() == baseline


def test_a_non_finite_input_in_a_worker_chunk_is_named_before_any_thread(monkeypatch):
    model = _overflow_model()
    monkeypatch.setattr(inference, "CHUNK_BYTES", 2 * 4 * _largest_activation(model))
    monkeypatch.setattr(inference, "usable_cpus", lambda: 2)
    monkeypatch.setattr(threading, "Thread", _no_thread)
    batch = np.zeros((6, 1, 3, 4), dtype=np.float32)
    batch[3, 0, 1, 2] = np.nan  # in the second chunk, in the thread's share
    batch[5] = np.inf
    with pytest.raises(ValidationError, match="^input 3 contains non-finite values$"):
        run_batch(model, batch)


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
# out-channel row groups of 1x1 block-pattern layers
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


def _rows(group):
    return group.weights.shape[0]


def _runs_every_column(layer):
    """Whether the layer's plan is its every-column plan, group by group and fill by fill."""
    plan, every = inference._conv_steps(layer), inference._conv_steps(layer, every=True)
    return len(plan.groups) == len(every.groups) and all(
        g.rows == e.rows and g.weights.tobytes() == e.weights.tobytes() and g.fills == e.fills
        for g, e in zip(plan.groups, every.groups))


@pytest.mark.parametrize("profile", [upaq.hck_profile, upaq.lck_profile], ids=["hck", "lck"])
@pytest.mark.parametrize("out_ch, in_ch", [(13, 10), (13, 12), (13, 18), (64, 64)],
                         ids=["gcd-1", "gcd-3", "gcd-9", "64x64"])
def test_row_groups_of_1x1_layers_against_reference(out_ch, in_ch, profile):
    model = upaq.decompress_model(_block_1x1(out_ch, in_ch, profile))
    plan = inference._conv_steps(model.layers[0])
    if math.gcd(in_ch, 9) < 9:  # when 9 divides I, I * O does too and each column is all zero or all live
        assert (out_ch * in_ch) % 9, "the last 3x3 block of the flat weights is partial"
        assert len(plan.groups) > 1 and max(map(_rows, plan.groups)) < out_ch  # row groups run
    rng = np.random.default_rng(44)
    _assert_engine_matches(model, _inputs(rng, model.input_shape, 3), oracle_idx=(0, 2))


@pytest.mark.parametrize("size", [4, 160, 640], ids=["line", "two-lines", "two-images"])
def test_row_groups_over_blocks_of_any_size(size, monkeypatch):
    model = upaq.decompress_model(_block_1x1(40, 10, upaq.lck_profile))  # classes of 4 or 5 rows mod 9
    assert len(inference._conv_steps(model.layers[0]).groups) > 1
    rng = np.random.default_rng(45)
    xs = _inputs(rng, model.input_shape, 3)
    monkeypatch.setattr(inference, "BLOCK_BYTES", size)  # 3 inputs of 3 lines of 4
    _assert_engine_matches(model, xs, oracle_idx=(1,))


def test_negative_zero_bias_turns_row_groups_off():
    model = upaq.decompress_model(_block_1x1(13, 10, upaq.hck_profile))
    layer = model.layers[0]
    layer.weights.data[4] = 0.0  # out-channel 4 stays at its bias on a skipping path
    layer.bias[4] = -0.0
    plan = inference._conv_steps(layer)
    assert _runs_every_column(layer) and len(plan.groups) == 1
    assert plan.negative_zero.tolist() == [4]
    rng = np.random.default_rng(46)
    xs = _inputs(rng, model.input_shape, 2)
    singles = _assert_engine_matches(model, xs, oracle_idx=(0, 1))
    # every product of out-channel 4 is +-0.0: -0.0 + 0.0 is +0.0 wherever its input is positive
    assert not np.signbit(np.frombuffer(singles[0], dtype=np.float32).reshape(13, 3, 4)[4][xs[0][0] > 0]).any()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_row_groups_do_not_skip_over_a_non_finite_input():
    # in-channel 0 of "pw" overflows to inf: 0 * inf is NaN on every out-channel
    # whose group skips it, so a skipping path must run every row there
    pw = upaq.decompress_model(_block_1x1(13, 10, upaq.hck_profile)).layers[0]
    pw = LayerSpec("pw", "conv2d", ("a",), pw.weights, pw.bias)
    scale = np.ones(10, dtype=np.float32)
    scale[0] = 3e38
    a = LayerSpec("a", "conv2d", (), Tensor4(np.diag(scale).reshape(10, 10, 1, 1)))
    model = ModelGraph("overflow", (10, 3, 4), [a, pw])
    model.validate()
    plan = inference._conv_steps(pw)
    # some group skips in-channel 0: none of its fills starts at that channel
    assert any(all(ins.start != 0 for *_, ins in group.fills) for group in plan.groups)
    x = np.full((10, 1, 3, 4), 10.0, dtype=np.float32)
    ref = forward_reference(model, x[:, 0])
    assert np.isnan(ref).any()
    plans = {layer.id: inference._conv_steps(layer) for layer in model.conv_layers()}
    # the plans as built, then running every column
    for steps in (plans, {lid: inference._conv_steps(model.by_id(lid), every=True) for lid in plans}):
        out = inference._run(model, x, steps, {"a": 1})["pw"][:, 0]
        np.testing.assert_array_equal(out, ref)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("a_weights, b_weights", [((3e38, -3e38), (1.0, 1.0)), ((3e38, 1.0), (0.0, 1.0))],
                         ids=["inf-plus-minus-inf", "every-column-zero-times-inf"])
def test_relu_maps_nan_to_zero(a_weights, b_weights):
    # "a" overflows 10.0 to inf; "b" sums inf + -inf, or runs every column over
    # the overflowed input, where its skipped zero weight gives 0 * inf: NaN
    # either way, which relu, as the scalar loop's ``v if v > 0 else 0``, makes +0.0
    weights = lambda values, shape: Tensor4(np.array(values, dtype=np.float32).reshape(shape))
    layers = [
        LayerSpec("a", "conv2d", (), weights(a_weights, (2, 1, 1, 1))),
        LayerSpec("b", "conv2d", ("a",), weights(b_weights, (1, 2, 1, 1))),
        LayerSpec("r", "relu", ("b",)),
        LayerSpec("g", "global_avg_pool", ("r",)),
    ]
    model = ModelGraph("nan-relu", (1, 2, 2), layers)
    model.validate()
    x = np.full((1, 1, 2, 2), 10.0, dtype=np.float32)
    ref = forward_reference(model, x[0])
    assert ref.tobytes() == np.zeros((1, 1, 1), dtype=np.float32).tobytes()
    for run in (run_every, run_batch):
        assert run(model, x)[0].tobytes() == ref.tobytes()


@pytest.mark.parametrize("profile, cells", [(upaq.hck_profile, 2), (upaq.lck_profile, 3)], ids=["hck", "lck"])
def test_64x64_1x1_layer_runs_nine_row_groups(profile, cells):
    # a 64->64 1x1 layer keeps 2 (hck) or 3 (lck) cells of each 3x3 block of
    # its flat weights; gcd(64, 9) = 1, so row o's stored columns are that many
    # classes mod 9 of in-channels, set by o mod 9: 9 groups of 7 or 8 rows
    cm = _block_1x1(64, 64, profile)
    plan = inference._conv_steps(upaq.decompress_model(cm).layers[0])
    assert len(plan.groups) == 9
    assert sorted(group.rows.start for group in plan.groups) == list(range(9))
    assert all(group.rows.step == 9 for group in plan.groups)
    # each class of in-channels fills its rows of X as one strided copy
    assert all(len(group.fills) == cells for group in plan.groups)
    # the weights run are exactly the stored slots: 910 of 4096 (hck), 1365 (lck)
    assert plan.executed == int(stored_slots(cm.qlayers["pw"].shape, cm.groups[0].pattern).sum())


@pytest.mark.parametrize("out_ch", [inference.MAX_GROUPS, inference.MAX_GROUPS + 1], ids=["at-cap", "past-cap"])
def test_row_groups_past_the_cap_run_as_one_group(out_ch):
    # row o is zero at in-channel o, and every row at the last: out_ch sets,
    # none inside another, so each is its own group up to the cap
    rng = np.random.default_rng(53)
    w = rng.uniform(-1, 1, (out_ch, out_ch + 1, 1, 1)).astype(np.float32)
    w[np.arange(out_ch), np.arange(out_ch)] = 0.0
    w[:, -1] = 0.0
    layer = LayerSpec("pw", "conv2d", (), Tensor4(w), rng.uniform(-1, 1, out_ch).astype(np.float32))
    model = ModelGraph("pw", (out_ch + 1, 3, 4), [layer])
    model.validate()
    plan = inference._conv_steps(layer)
    if out_ch <= inference.MAX_GROUPS:
        assert len(plan.groups) == out_ch and plan.executed == out_ch * (out_ch - 1)
    else:  # one group over the columns nonzero in some row: all but the last
        assert len(plan.groups) == 1 and plan.executed == out_ch * out_ch
    _assert_engine_matches(model, _inputs(rng, model.input_shape, 3), oracle_idx=(0, 2))


@pytest.mark.parametrize("profile", [upaq.hck_profile, upaq.lck_profile], ids=["hck", "lck"])
@pytest.mark.parametrize("arch", ["toy-cnn", "toy-residual", "toy-1x1", "wide"])
def test_stored_slots_bound_the_weights_the_engine_runs(arch, profile):
    """The cost model's stored-slot count of each conv layer is an upper bound
    on the weights its skipping plan runs, and the plan runs at least every
    nonzero weight: it could fall short only by retained weights that
    quantized to zero.  Here it falls short nowhere: a k x k layer runs every
    row over each retained cell, so toy-1x1 hck ``conv_a`` runs its two such
    zeros, and each 1x1 row group runs its stored columns."""
    model = wide_model() if arch == "wide" else upaq.gen_fixture(arch, 42)[0]
    cm = upaq.compress_model(model, profile(seed=42))
    nnz = {lid: stats[0] for lid, stats in layer_costs(cm).items()}
    run = {}
    for layer in upaq.decompress_model(cm).conv_layers():
        run[layer.id] = inference._conv_steps(layer).executed
        assert np.count_nonzero(layer.weights.data) <= run[layer.id] <= nnz[layer.id]
    assert run == nnz
    if (arch, profile) == ("toy-1x1", upaq.hck_profile):
        assert (run["conv_a"], nnz["conv_a"]) == (18, 18)


# ---------------------------------------------------------------------------
# stride-1 convs whose output plane is the input's size
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("hw", [(1, 1), (1, 6), (6, 1), (2, 3), (4, 5), (6, 6)], ids=lambda hw: "x".join(map(str, hw)))
def test_same_convs_take_shifted_planes_bit_exactly(k, hw, monkeypatch):
    # the planes of every kernel cell are gathered windows, blank where the
    # cell reads the padding: here a whole row, a whole column or, for a
    # 5x5 kernel over a 1x1 image, all but the centre cell's
    rng = np.random.default_rng(47)
    p = (k - 1) // 2
    pruned = [(0, k - 1), (k - 1, 0)] if k > 1 else []
    layers = [
        _conv(rng, "a", 3, 2, k, padding=p, pruned=pruned),
        LayerSpec("ra", "relu", ("a",)),
        _conv(rng, "b", 4, 3, k, ("ra",), padding=p, pruned=pruned[:1]),
    ]
    layers[2].bias[1] = -0.0  # "b" skips nothing: every step runs over a -0.0 accumulator
    model = ModelGraph("same", (2, *hw), layers)
    model.validate()
    assert _runs_every_column(layers[2])
    monkeypatch.setattr(inference, "CHUNK_BYTES", 3 * 4 * _largest_activation(model))  # chunks of 3, 3 and 1
    _assert_engine_matches(model, _inputs(rng, (2, *hw), 7), oracle_idx=(0, 3, 6))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_same_convs_do_not_skip_over_a_non_finite_input():
    # channel 0 of "a" overflows to inf under "b"'s pruned cells: 0 * inf is
    # NaN, so the skipping path must run every step of "b" over its planes
    a = LayerSpec("a", "conv2d", (), Tensor4(np.array([3e38, 1.0], dtype=np.float32).reshape(2, 1, 1, 1)))
    wb = np.random.default_rng(49).uniform(-1, 1, (2, 2, 5, 5)).astype(np.float32)
    wb[:, :, 0, :] = 0.0
    b = LayerSpec("b", "conv2d", ("a",), Tensor4(wb), None, 1, 2)
    model = ModelGraph("overflow", (1, 3, 4), [a, b])
    model.validate()
    assert inference._conv_steps(b).executed < 2 * 2 * 25
    x = np.full((1, 3, 3, 4), 10.0, dtype=np.float32)
    x[0, 1] = 0.0  # the middle input of the chunk stays finite all through
    plans = {layer.id: inference._conv_steps(layer) for layer in model.conv_layers()}
    # the plans as built, then running every column
    for steps in (plans, {lid: inference._conv_steps(model.by_id(lid), every=True) for lid in plans}):
        out = inference._run(model, x, steps, {"a": 1})["b"]
        for j in range(3):
            ref = forward_reference(model, x[:, j])
            assert np.isnan(ref).any() != (j == 1)
            np.testing.assert_array_equal(out[:, j], ref)
