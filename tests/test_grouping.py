import re

import numpy as np
import pytest

from upaq.errors import ValidationError
from upaq.grouping import build_coupling_graph, find_root_groups
from upaq.model import LayerSpec, ModelGraph, Tensor4


def _conv(lid, out_ch, in_ch, k, inputs=(), padding=None):
    w = np.full((out_ch, in_ch, k, k), 0.25, dtype=np.float32)
    pad = (k // 2) if padding is None else padding
    return LayerSpec(lid, "conv2d", inputs, Tensor4(w), np.zeros(out_ch, dtype=np.float32), 1, pad)


def _model(layers, in_ch=1):
    m = ModelGraph("g", (in_ch, 8, 8), layers)
    m.validate()
    return m


def test_relu_is_transparent_for_coupling():
    m = _model([
        _conv("a", 2, 1, 3),
        LayerSpec("r", "relu", ("a",)),
        _conv("b", 2, 2, 3, ("r",)),
    ])
    adj = build_coupling_graph(m)
    assert adj == {"a": {"b"}, "b": {"a"}}


def test_dim_mismatch_breaks_coupling():
    m = _model([
        _conv("a", 9, 1, 3),
        _conv("b", 2, 9, 1, ("a",)),
    ])
    adj = build_coupling_graph(m)
    assert adj == {"a": set(), "b": set()}


def test_single_conv_has_no_edges():
    m = _model([_conv("a", 2, 1, 3)])
    assert build_coupling_graph(m) == {"a": set()}


def test_chain_of_three_forms_one_group():
    m = _model([
        _conv("a", 2, 1, 3),
        _conv("b", 2, 2, 3, ("a",)),
        _conv("c", 2, 2, 3, ("b",)),
    ])
    groups = find_root_groups(m)
    assert len(groups) == 1
    assert groups[0].root_id == "a"
    assert groups[0].leaf_ids == ("b", "c")


def test_residual_fork_groups_under_first_conv(toy_residual):
    model, _ = toy_residual
    groups = find_root_groups(model)
    assert [(g.root_id, g.leaf_ids) for g in groups] == [("conv_a", ("conv_b", "conv_c"))]


def test_mixed_kernel_sizes_stay_singletons(toy_1x1):
    model, _ = toy_1x1
    groups = find_root_groups(model)
    assert [(g.root_id, g.leaf_ids) for g in groups] == [("conv_a", ()), ("conv_b", ())]


def test_partition_and_root_minimality(toy_cnn, toy_residual, toy_1x1):
    for model, _ in (toy_cnn, toy_residual, toy_1x1):
        groups = find_root_groups(model)
        members = [m for g in groups for m in g.member_ids]
        conv_ids = [l.id for l in model.conv_layers()]
        assert sorted(members) == sorted(conv_ids)
        assert len(set(members)) == len(members)
        topo = {l.id: i for i, l in enumerate(model.layers)}
        for g in groups:
            assert all(topo[g.root_id] < topo[leaf] for leaf in g.leaf_ids)


def test_grouping_is_deterministic(toy_residual):
    model, _ = toy_residual
    assert find_root_groups(model) == find_root_groups(model)


@pytest.mark.parametrize("layers, message", [
    ([LayerSpec("a", "conv2d", (), None, None, 1, 1)], "layer 'a': conv2d requires weights"),
    ([_conv("a", 2, 1, 3, ("zz",))], "layer 'a': input 'zz' does not precede it"),
    ([_conv("b", 2, 2, 3, ("a",)), _conv("a", 2, 1, 3)], "layer 'b': input 'a' does not precede it"),
], ids=["weightless-conv", "unknown-input", "input-after-consumer"])
def test_grouping_rejects_an_unchecked_graph_naming_the_layer(layers, message):
    model = ModelGraph("g", (1, 8, 8), layers)  # built in memory and never validated
    for walk in (build_coupling_graph, find_root_groups):
        with pytest.raises(ValidationError, match=re.escape(message)):
            walk(model)
