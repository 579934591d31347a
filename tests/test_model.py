from dataclasses import replace

import numpy as np
import pytest

from conftest import copy_model
from upaq.container import serialize_compressed, serialize_model
from upaq.cost import computational_cost, layer_costs, model_cost
from upaq.errors import ValidationError
from upaq.inference import run_batch
from upaq.model import LayerSpec, ModelGraph, Tensor4, infer_shapes


def _conv(lid, out_ch, in_ch, k=3, inputs=(), padding=1, fill=0.5):
    w = np.full((out_ch, in_ch, k, k), fill, dtype=np.float32)
    return LayerSpec(lid, "conv2d", inputs, Tensor4(w), np.zeros(out_ch, dtype=np.float32), 1, padding)


def test_tensor4_indexing_matches_flat_offset():
    out_ch, in_ch, kh, kw = 3, 2, 4, 5
    data = np.zeros((out_ch, in_ch, kh, kw), dtype=np.float32)
    counter = 0.0
    for o in range(out_ch):
        for i in range(in_ch):
            for r in range(kh):
                for c in range(kw):
                    data[o, i, r, c] = counter
                    counter += 1.0
    t = Tensor4(data)
    flat = t.data.reshape(-1)
    for o in range(out_ch):
        for i in range(in_ch):
            for r in range(kh):
                for c in range(kw):
                    offset = ((o * in_ch + i) * kh + r) * kw + c
                    assert flat[offset] == t.data[o, i, r, c]


def test_tensor4_rejects_wrong_rank():
    with pytest.raises(ValidationError):
        Tensor4(np.zeros((2, 2, 3), dtype=np.float32))


def test_empty_layer_list_is_rejected():
    model = ModelGraph("empty", (1, 4, 4), [])
    with pytest.raises(ValidationError, match="no sink layer"):
        model.validate()


def test_forward_reference_and_cycle_rejected():
    # an input that does not precede its consumer is exactly what a cycle
    # looks like in list form
    a = _conv("a", 1, 1, inputs=("b",))
    b = LayerSpec("b", "relu", ("a",))
    model = ModelGraph("cyclic", (1, 4, 4), [a, b])
    with pytest.raises(ValidationError, match="does not precede"):
        model.validate()


def test_add_arity_enforced():
    a = _conv("a", 1, 1)
    bad = LayerSpec("sum", "add", ("a",))
    with pytest.raises(ValidationError, match="add requires exactly 2"):
        ModelGraph("m", (1, 4, 4), [a, bad]).validate()


def test_conv_requires_weights_and_relu_must_not_have_them():
    with pytest.raises(ValidationError, match="requires weights"):
        ModelGraph("m", (1, 4, 4), [LayerSpec("c", "conv2d", ())]).validate()
    a = _conv("a", 1, 1)
    w = LayerSpec("r", "relu", ("a",), weights=Tensor4(np.ones((1, 1, 1, 1), dtype=np.float32)))
    with pytest.raises(ValidationError, match="must not carry weights"):
        ModelGraph("m", (1, 4, 4), [a, w]).validate()


def test_two_sinks_rejected():
    a = _conv("a", 1, 1)
    b = _conv("b", 1, 1, inputs=("a",))
    c = _conv("c", 1, 1, inputs=("a",))
    with pytest.raises(ValidationError, match="exactly one sink"):
        ModelGraph("m", (1, 4, 4), [a, b, c]).validate()


def test_channel_mismatch_names_layer():
    a = _conv("a", 2, 1)
    b = _conv("bad_channels", 2, 3, inputs=("a",))
    with pytest.raises(ValidationError, match="bad_channels"):
        ModelGraph("m", (1, 4, 4), [a, b]).validate()


def test_bias_length_checked():
    layer = _conv("a", 2, 1)
    layer.bias = np.zeros(3, dtype=np.float32)
    with pytest.raises(ValidationError, match="bias length"):
        ModelGraph("m", (1, 4, 4), [layer]).validate()


def test_nonfinite_weights_rejected():
    layer = _conv("a", 1, 1)
    layer.weights.data[0, 0, 0, 0] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        ModelGraph("m", (1, 4, 4), [layer]).validate()


def _relu(lid, inputs, **kw):
    return LayerSpec(lid, "relu", inputs, **kw)


@pytest.mark.parametrize("build,message", [
    (lambda: Tensor4(np.zeros((0, 1, 3, 3))), "Tensor4 must be non-empty"),
    (lambda: ModelGraph("m", (1, 4, 4), [_conv("a", 1, 1)]).by_id("b"), "unknown layer id 'b'"),
    (lambda: ModelGraph("m", (1, 4, 4), [_conv("a", 1, 1), _conv("a", 1, 1, inputs=("a",))]).validate(),
     "duplicate layer id 'a'"),
    (lambda: ModelGraph("m", (1, 4, 4), [_conv("a", 1, 1), _conv("b", 1, 1), _relu("r", ("a", "b"))]).validate(),
     "layer 'r': relu takes at most 1 input, got 2"),
    (lambda: ModelGraph("m", (1, 4, 4), [_conv("a", 1, 1), _relu("r", ("a",), bias=np.zeros(1))]).validate(),
     "layer 'r': relu must not carry a bias"),
    (lambda: ModelGraph("m", (1, 4, 4), [replace(_conv("a", 1, 1), bias=np.array([np.nan]))]).validate(),
     "layer 'a': non-finite bias values"),
    (lambda: ModelGraph("m", (1, 2, 2), [_conv("a", 1, 1, k=5, padding=0)]).validate(),
     "layer 'a': kernel larger than padded input"),
    (lambda: ModelGraph("m", (1, 4, 4), [_conv("a", 2, 1), _conv("b", 1, 1),
                                         LayerSpec("add", "add", ("a", "b"))]).validate(),
     r"layer 'add': add operands differ: \(2, 4, 4\) vs \(1, 4, 4\)"),
    (lambda: ModelGraph("m", (1, 4, 4), [LayerSpec("fc", "linear", (), Tensor4(np.ones((2, 1, 3, 3))))]).validate(),
     r"layer 'fc': linear weights must be \(out, in, 1, 1\)"),
], ids=["empty-tensor", "unknown-id", "duplicate-id", "relu-two-inputs", "relu-bias", "nan-bias",
        "kernel-over-input", "add-shapes", "linear-3x3"])
def test_each_graph_fault_raises_its_message(build, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build()


def _broken_graph(fault):
    """An unvalidated graph with one fault, and the message that names it."""
    if fault == "input after its consumer":
        return [_conv("a", 1, 1, inputs=("b",)), _conv("b", 1, 1)], "layer 'a': input 'b' does not precede it"
    if fault == "conv without weights":
        return [LayerSpec("c", "conv2d", ())], "layer 'c': conv2d requires weights"
    if fault == "relu carrying weights":
        relu = LayerSpec("r", "relu", ("a",), weights=Tensor4(np.ones((1, 1, 1, 1), dtype=np.float32)))
        return [_conv("a", 1, 1), relu], "layer 'r': relu must not carry weights"
    if fault == "two sinks":
        layers = [_conv("a", 1, 1), _conv("b", 1, 1, inputs=("a",)), _conv("c", 1, 1, inputs=("a",))]
        return layers, r"exactly one sink layer, found 2: \['b', 'c'\]"
    assert fault == "nan weight"
    layer = _conv("a", 1, 1)
    layer.weights.data[0, 0, 0, 0] = np.nan
    return [layer], "layer 'a': non-finite weight values"


@pytest.mark.parametrize("fault", [
    "input after its consumer", "conv without weights", "relu carrying weights", "two sinks", "nan weight",
])
@pytest.mark.parametrize("walk", [
    lambda m: run_batch(m, np.ones((1, *m.input_shape), dtype=np.float32)),
    layer_costs, model_cost, computational_cost, lambda m: m.validate(),
], ids=["run_batch", "layer_costs", "model_cost", "computational_cost", "validate"])
def test_every_walk_rejects_a_broken_graph_naming_the_layer(fault, walk):
    # the engine and the cost model check the graph they are given, as validate does
    layers, message = _broken_graph(fault)
    with pytest.raises(ValidationError, match=message):
        walk(ModelGraph("m", (1, 4, 4), layers))


def test_a_payload_shape_that_breaks_the_chain_raises_as_before(toy_cnn_hck):
    # conv3's (8, 16, 3, 3) payload restacked as (16, 8, 3, 3): the same slices and
    # scales, so every payload check passes and the shape walk names the layer
    qc = toy_cnn_hck.qlayers["conv3"]
    flipped = replace(qc, shape=(16, 8, 3, 3), q=qc.q.reshape(16, 8, 3, 3))
    cm = replace(toy_cnn_hck, qlayers={**toy_cnn_hck.qlayers, "conv3": flipped})
    with pytest.raises(ValidationError, match="^layer 'conv3': expects 8 input channels, got 16$"):
        cm.validate()


def test_a_bias_is_checked_against_the_payload_shape(toy_cnn_hck):
    # conv1's payload is (8, 1, 3, 3), so a 3-float bias is refused before the file is written
    layers = [replace(l, bias=np.zeros(3, dtype=np.float32)) if l.id == "conv1" else l for l in toy_cnn_hck.layers]
    with pytest.raises(ValidationError, match="^layer 'conv1': bias length 3 != out_ch 8$"):
        serialize_compressed(replace(toy_cnn_hck, layers=layers))


def test_a_payload_on_a_weightless_layer_is_refused(toy_cnn_hck):
    # relu1 given a copy of conv1's payload and named a leaf of its group
    group = toy_cnn_hck.groups[0]
    cm = replace(toy_cnn_hck, groups=[replace(group, leaf_ids=group.leaf_ids + ("relu1",))],
                 qlayers={**toy_cnn_hck.qlayers, "relu1": toy_cnn_hck.qlayers["conv1"]})
    with pytest.raises(ValidationError, match="^layer 'relu1': relu must not carry weights$"):
        cm.validate()


def test_a_layer_with_dense_weights_and_a_payload_is_refused(toy_cnn, toy_cnn_hck):
    dense = toy_cnn[0].by_id("conv1").weights
    layers = [replace(l, weights=dense) if l.id == "conv1" else l for l in toy_cnn_hck.layers]
    with pytest.raises(ValidationError, match="^layer 'conv1': holds both dense weights and a payload$"):
        replace(toy_cnn_hck, layers=layers).validate()


def test_infer_shapes_toy_cnn(toy_cnn):
    model, _ = toy_cnn
    shapes = infer_shapes(model)
    assert shapes["conv1"] == (8, 16, 16)
    assert shapes["conv2"] == (16, 16, 16)
    assert shapes["conv3"] == (8, 16, 16)
    assert shapes["gap"] == (8, 1, 1)
    assert shapes["fc"] == (4, 1, 1)


# ---------------------------------------------------------------------------
# copying a model layer by layer
# ---------------------------------------------------------------------------

def test_deep_copy_is_independent(toy_cnn):
    model, _ = toy_cnn
    before = serialize_model(model)
    copy = copy_model(model)
    copy.by_id("conv1").weights.data[0, 0, 0, 0] = 0.0
    assert serialize_model(model) == before


def test_copy_of_copy_equals_copy(toy_cnn):
    model, _ = toy_cnn
    c1 = copy_model(model)
    c2 = copy_model(c1)
    assert serialize_model(c1) == serialize_model(c2)


def test_deep_copy_preserves_layer_order(toy_cnn):
    model, _ = toy_cnn
    copy = copy_model(model)
    assert [l.id for l in copy.layers] == [l.id for l in model.layers]
