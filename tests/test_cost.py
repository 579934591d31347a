import numpy as np
import pytest

import upaq
from oracles import latency_reference
from upaq.cost import (
    AnalyticCostModel,
    MeasuredCostModel,
    compression_ratio,
    computational_cost,
    estimate_energy,
    estimate_latency,
)
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
    assert summary.conv_layer_count == 2
    assert summary.mean_kernels_per_layer == 4.0
    assert summary.mean_nnz_per_kernel == 5.0
    assert summary.product == 40.0
    assert summary.total_nnz == 40


def test_fully_pruned_model_costs_zero():
    m = _two_layer_model(0)
    summary = computational_cost(m)
    assert summary.mean_nnz_per_kernel == 0.0
    assert summary.product == 0.0
    assert estimate_latency(m) == 0.0


def test_halving_nnz_halves_latency_exactly():
    assert estimate_latency(_two_layer_model(4)) == estimate_latency(_two_layer_model(8)) / 2.0


def test_bits_factor_is_exact_quarter():
    m = _two_layer_model(5)
    full = estimate_latency(m)
    quarter = estimate_latency(m, bits={"a": 8, "b": 8})
    assert quarter == full * 0.25


def test_latency_matches_independent_recount(toy_cnn, toy_cnn_hck):
    model, _ = toy_cnn
    assert estimate_latency(model) == latency_reference(model)
    # compressed models count stored slots: n pattern cells per slice, at the
    # group bitwidth, times the (unchanged) output plane of each conv
    cm = toy_cnn_hck
    group = cm.groups[0]
    expected = 0.0
    for member in group.member_ids:
        o, i, _, _ = cm.qlayers[member].shape
        expected += (o * i * group.pattern.n) * (group.bitwidth / 32.0) * 16 * 16
    assert estimate_latency(cm) == expected


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
    assert estimate_energy(model) == estimate_latency(model) * 1.0 + moved * 0.1


def test_cost_accepts_compressed_models(toy_cnn_hck):
    summary = computational_cost(toy_cnn_hck)
    assert summary.total_nnz > 0
    assert estimate_latency(toy_cnn_hck) < estimate_latency(upaq.decompress_model(toy_cnn_hck))


def test_compression_ratio_errors():
    with pytest.raises(ValueError):
        compression_ratio(100, 0)
    with pytest.raises(ValueError):
        compression_ratio(0, 100)
    assert compression_ratio(100, 25) == 4.0


def test_measured_mode_reports_no_energy(toy_cnn):
    model, _ = toy_cnn
    cost = MeasuredCostModel(repeats=1)
    assert cost.latency(model) > 0.0
    assert cost.energy(model) is None
    assert AnalyticCostModel().energy(model) is not None


def test_energy_walks_the_model_once(toy_cnn_hck, monkeypatch):
    from upaq import cost as cost_module

    calls = []
    real = cost_module.decompress_model
    monkeypatch.setattr(cost_module, "decompress_model", lambda cm: calls.append(1) or real(cm))
    cost = AnalyticCostModel()
    energy = cost.energy(toy_cnn_hck)
    assert len(calls) == 1
    moved = sum(nnz * b / 8.0 for _, _, nnz, b, _, _ in cost_module._conv_stats(toy_cnn_hck))
    assert energy == cost.latency(toy_cnn_hck) * 1.0 + moved * 0.1
