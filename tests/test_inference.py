import math

import numpy as np
import pytest

import upaq
from oracles import forward_reference
from upaq import inference
from upaq.errors import ValidationError
from upaq.inference import (
    Activation,
    forward,
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
    assert np.array_equal(forward(model, x).data, x.data)


def test_all_zero_weights_give_zero_sink():
    layers = [
        LayerSpec("c", "conv2d", (), Tensor4(np.zeros((2, 1, 3, 3), dtype=np.float32)), None, 1, 1),
        LayerSpec("r", "relu", ("c",)),
        LayerSpec("g", "global_avg_pool", ("r",)),
        LayerSpec("fc", "linear", ("g",), Tensor4(np.zeros((2, 2, 1, 1), dtype=np.float32)), None),
    ]
    model = ModelGraph("zeros", (1, 6, 6), layers)
    model.validate()
    out = forward(model, Activation(np.ones((1, 6, 6), dtype=np.float32)))
    assert not out.data.any()


def test_golden_output_matches_shipped_values(toy_cnn):
    model, inputs = toy_cnn
    out = forward(model, inputs[0]).data.reshape(-1)
    assert np.allclose(out, TOY_CNN_GOLDEN, atol=1e-6, rtol=0)


def test_straight_loop_reference_reproduces_golden(toy_cnn):
    model, inputs = toy_cnn
    ref = forward_reference(model, inputs[0].data).reshape(-1)
    assert np.allclose(ref, TOY_CNN_GOLDEN, atol=1e-6, rtol=0)
    # engine and reference share the accumulation order, so they agree bitwise
    assert forward(model, inputs[0]).data.tobytes() == forward_reference(model, inputs[0].data).tobytes()


def test_engine_matches_reference_on_all_fixtures(toy_residual, toy_1x1):
    for model, inputs in (toy_residual, toy_1x1):
        eng = forward(model, inputs[1]).data
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
    assert forward(model, x).data.tobytes() == forward_reference(model, x.data).tobytes()


def test_linearity_on_conv_only_graph():
    rng = np.random.default_rng(32)
    layers = [
        LayerSpec("a", "conv2d", (), Tensor4(rng.normal(size=(2, 1, 3, 3)).astype(np.float32)), None, 1, 1),
        LayerSpec("b", "conv2d", ("a",), Tensor4(rng.normal(size=(2, 2, 3, 3)).astype(np.float32)), None, 1, 1),
    ]
    model = ModelGraph("linear-graph", (1, 8, 8), layers)
    model.validate()
    x = rng.normal(size=(1, 8, 8)).astype(np.float32)
    y1 = forward(model, Activation(3.0 * x)).data
    y2 = 3.0 * forward(model, Activation(x)).data
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
    out_b = forward(dense, inputs[0]).data
    assert np.array_equal(out_a, out_b)


def test_input_shape_mismatch_rejected(toy_cnn):
    model, _ = toy_cnn
    with pytest.raises(ValidationError, match="input shape"):
        forward(model, Activation(np.zeros((2, 16, 16), dtype=np.float32)))


def test_layer_shape_error_names_layer():
    layers = [
        LayerSpec("front", "conv2d", (), Tensor4(np.ones((2, 1, 3, 3), dtype=np.float32)), None, 1, 1),
        LayerSpec("mismatched", "linear", ("front",), Tensor4(np.ones((2, 5, 1, 1), dtype=np.float32)), None),
    ]
    model = ModelGraph("bad", (1, 4, 4), layers)
    with pytest.raises(ValidationError, match="mismatched"):
        forward(model, Activation(np.zeros((1, 4, 4), dtype=np.float32)))


def test_activation_batch_roundtrip(tmp_path, toy_cnn):
    _, inputs = toy_cnn
    path = tmp_path / "inputs.bin"
    save_activations(path, inputs[:5])
    back = load_activations(path)
    assert len(back) == 5
    for a, b in zip(inputs[:5], back):
        assert a.data.tobytes() == b.data.tobytes()


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
    singles = [forward(model, act).data.tobytes() for act in inputs]
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
        every, skipping = inference._conv_steps(layer, sparse=True)
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
    assert forward(model, x).data.tobytes() == ref.tobytes()


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
