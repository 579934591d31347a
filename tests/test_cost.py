import numpy as np
import pytest

import upaq
from oracles import latency_reference
from upaq.cost import compression_ratio, computational_cost, layer_costs, model_cost, sum_costs
from upaq.model import LayerSpec, ModelGraph, Tensor4


def _sparse_conv(lid, out_ch, in_ch, nnz_per_slice, inputs=()):
    w = np.zeros((out_ch, in_ch, 3, 3), dtype=np.float32)
    for o in range(out_ch):
        for i in range(in_ch):
            flat = w[o, i].reshape(-1)
            flat[:nnz_per_slice] = 1.0
    return LayerSpec(lid, "conv2d", inputs, Tensor4(w), np.zeros(out_ch, dtype=np.float32), 1, 1)


def _two_layer_model(nnz_per_slice=5):
    layers = [
        _sparse_conv("a", 2, 2, nnz_per_slice),
        _sparse_conv("b", 2, 2, nnz_per_slice, ("a",)),
    ]
    m = ModelGraph("cost", (2, 8, 8), layers)
    m.validate()
    return m


def test_product_form_example():
    # 2 layers x 4 kernels x 5 nonzero weights -> 40
    summary = computational_cost(_two_layer_model(5))
    assert summary.conv_layers == 2
    assert summary.mean_kernels_per_layer == 4.0
    assert summary.mean_nnz_per_kernel == 5.0
    assert summary.product == 40.0
    assert summary.total_nnz == 40


def test_fully_pruned_model_costs_zero():
    m = _two_layer_model(0)
    summary = computational_cost(m)
    assert summary.mean_nnz_per_kernel == 0.0
    assert summary.product == 0.0
    assert model_cost(m).latency == 0.0


def test_halving_nnz_halves_latency_exactly():
    assert model_cost(_two_layer_model(4)).latency == model_cost(_two_layer_model(8)).latency / 2.0


def test_bits_factor_is_exact_quarter():
    m = _two_layer_model(5)
    full = model_cost(m).latency
    # each layer at 8 bits, the way the search costs a candidate
    quarter = sum_costs({lid: (nnz, 8, oh, ow) for lid, (nnz, _, oh, ow) in layer_costs(m).items()}).latency
    assert quarter == full * 0.25


def test_latency_matches_independent_recount(toy_cnn, toy_cnn_hck):
    model, _ = toy_cnn
    assert model_cost(model).latency == latency_reference(model)
    # compressed models count stored slots: n pattern cells per slice, at the
    # group bitwidth, times the (unchanged) output plane of each conv
    cm = toy_cnn_hck
    group = cm.groups[0]
    expected = 0.0
    for member in group.member_ids:
        o, i, _, _ = cm.qlayers[member].shape
        expected += (o * i * group.pattern.n) * (group.bitwidth / 32.0) * 16 * 16
    assert model_cost(cm).latency == expected


def test_compressed_nnz_is_structural(toy_cnn_hck, toy_1x1):
    # sum form == groups x kernels x n_nonzero (+ dense remainder, none here)
    summary = computational_cost(toy_cnn_hck)
    slices = sum(qc.shape[0] * qc.shape[1] for qc in toy_cnn_hck.qlayers.values())
    assert summary.total_nnz == slices * 2
    model, _ = toy_1x1
    cm = upaq.compress_model(model, upaq.hck_profile(seed=42))
    # conv_a: 9 slices x 2 cells; conv_b: 18 weights -> 2 blocks x 2 survivors
    assert computational_cost(cm).total_nnz == 9 * 2 + 2 * 2


def test_energy_formula(toy_cnn):
    model, _ = toy_cnn
    moved = 0.0
    for layer in model.conv_layers():
        moved += np.count_nonzero(layer.weights.data) * 32 / 8.0
    assert model_cost(model).energy == model_cost(model).latency * 1.0 + moved * 0.1


def test_cost_accepts_compressed_models(toy_cnn_hck):
    summary = computational_cost(toy_cnn_hck)
    assert summary.total_nnz > 0
    assert model_cost(toy_cnn_hck).latency < model_cost(upaq.decompress_model(toy_cnn_hck)).latency


def test_compression_ratio_errors():
    with pytest.raises(ValueError):
        compression_ratio(100, 0)
    with pytest.raises(ValueError):
        compression_ratio(0, 100)
    assert compression_ratio(100, 25) == 4.0


def test_energy_walks_the_model_once(toy_cnn_hck, monkeypatch):
    from upaq import compressed as compressed_module
    from upaq import cost as cost_module

    dequantized, walks = [], []
    real_dequantized = compressed_module.dequantized_weights
    real_infer_shapes = cost_module.infer_shapes
    monkeypatch.setattr(compressed_module, "dequantized_weights",
                        lambda *a: dequantized.append(1) or real_dequantized(*a))
    monkeypatch.setattr(cost_module, "infer_shapes", lambda *a: walks.append(1) or real_infer_shapes(*a))
    energy = model_cost(toy_cnn_hck).energy
    assert len(walks) == 1
    assert not dequantized  # shapes come from the payload shapes, nothing is decompressed
    moved = sum(nnz * b / 8.0 for _, _, nnz, b, _, _ in cost_module._conv_stats(toy_cnn_hck))
    assert energy == model_cost(toy_cnn_hck).latency * 1.0 + moved * 0.1


@pytest.mark.parametrize("arch", ["toy-cnn", "toy-residual", "toy-1x1"])
@pytest.mark.parametrize("profile", [upaq.hck_profile, upaq.lck_profile], ids=["hck", "lck"])
def test_compressed_conv_stats_match_the_decompressed_graph(arch, profile):
    from upaq.compressed import stored_slots
    from upaq.cost import _conv_stats
    from upaq.model import infer_shapes

    model, _ = upaq.gen_fixture(arch, 42)
    cm = upaq.compress_model(model, profile(seed=42))
    dense = upaq.decompress_model(cm)
    shapes = infer_shapes(dense)
    expected = []
    group_of = {member: group for group in cm.groups for member in group.member_ids}
    for layer in dense.conv_layers():
        wt = layer.weights
        if layer.id in cm.qlayers:
            group = group_of[layer.id]
            nnz, bits = int(stored_slots(wt.shape, group.pattern).sum()), group.bitwidth
        else:
            nnz, bits = int(np.count_nonzero(wt.data)), 32
        expected.append((layer.id, wt.out_ch * wt.in_ch, nnz, bits, *shapes[layer.id][1:]))
    assert list(_conv_stats(cm)) == expected
