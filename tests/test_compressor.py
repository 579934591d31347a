import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import upaq
from upaq.compressed import (
    CompressedGroup,
    CompressedModel,
    QuantizedConv,
    dequantized_weights,
    slice_stack,
    stored_slots,
    unstack,
)
from upaq.compressor import (
    BLOCK_K,
    CompressionProfile,
    ModelCost,
    calculate_es,
    compress_model,
    hck_profile,
    lck_profile,
)
from upaq.container import deserialize_compressed, serialize_compressed
from conftest import copy_model, tiny_model, wide_model
from upaq.cost import model_cost
from upaq.evaluate import payload_sqnr_db
from upaq.errors import ValidationError
from upaq.model import ModelGraph, Tensor4
from upaq.patterns import KernelPattern, enumerate_all_patterns, generate_pattern, split_seed
from upaq.quantizer import quantize_slices


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_preset_profiles():
    hck = hck_profile()
    lck = lck_profile()
    assert hck.n_for(3) == 2 and hck.quant_bits == (4, 8)
    assert lck.n_for(3) == 3 and lck.quant_bits == (8, 16)
    # fallback rule for unmapped kernel sizes
    assert hck.n_for(5) == 3 and hck.n_for(1) == 1
    assert lck.n_for(5) == 5


def test_profile_validation():
    with pytest.raises(ValidationError):
        CompressionProfile(name="x", quant_bits=(12,)).validate()
    with pytest.raises(ValidationError):
        CompressionProfile(name="x", quant_bits=(8,), candidates=0).validate()
    with pytest.raises(ValidationError):
        CompressionProfile(name="x", quant_bits=(8,), es_weights=(0.0, 0.0, 0.0)).validate()
    with pytest.raises(ValidationError):
        CompressionProfile(name="x", quant_bits=(8,), es_weights=(1.5, 0.0, 0.0)).validate()
    with pytest.raises(ValidationError):
        CompressionProfile(name="custom", quant_bits=(8,)).n_for(3)


# ---------------------------------------------------------------------------
# efficiency score
# ---------------------------------------------------------------------------

def test_calculate_es_worked_example():
    candidate = ModelCost(latency=100.0, energy=100.0)
    baseline = ModelCost(latency=200.0, energy=250.0)
    es = calculate_es(20.0, candidate, baseline, (0.3, 0.4, 0.3))
    assert es.sqnr_term == 0.5
    assert es.latency_term == 2.0
    assert es.energy_term == 2.5
    assert es.total == 0.3 * 0.5 + 0.4 * 2.0 + 0.3 * 2.5
    assert es.total == pytest.approx(1.70)


def test_calculate_es_degenerate_weights():
    es = calculate_es(20.0, ModelCost(100.0, 100.0), ModelCost(200.0, 250.0), (1.0, 0.0, 0.0))
    assert es.total == es.sqnr_term == 0.5


def test_calculate_es_monotone_in_sqnr():
    candidate = ModelCost(100.0, 100.0)
    baseline = ModelCost(200.0, 250.0)
    lo = calculate_es(20.0, candidate, baseline, (0.3, 0.4, 0.3))
    hi = calculate_es(30.0, candidate, baseline, (0.3, 0.4, 0.3))
    assert hi.total > lo.total


def test_calculate_es_caps_sqnr_and_rejects_zero_cost():
    capped = calculate_es(500.0, ModelCost(1.0, 1.0), ModelCost(1.0, 1.0), (1.0, 0.0, 0.0))
    assert capped.sqnr_term == 120.0 / 40.0
    with pytest.raises(ValueError, match="zero latency"):
        calculate_es(10.0, ModelCost(0.0, 1.0), ModelCost(1.0, 1.0), (0.3, 0.4, 0.3))
    with pytest.raises(ValueError, match="^candidate model has zero energy cost$"):
        calculate_es(10.0, ModelCost(1.0, 0.0), ModelCost(1.0, 1.0), (0.3, 0.4, 0.3))


def test_calculate_es_cost_terms_of_a_model_that_costs_nothing():
    """A cost term whose baseline and candidate both cost 0 is 1, since
    nothing was compressed; a zero cost against a nonzero baseline is refused."""
    es = calculate_es(120.0, ModelCost(0.0, 0.0), ModelCost(0.0, 0.0), (0.3, 0.4, 0.3))
    assert (es.latency_term, es.energy_term) == (1.0, 1.0)
    assert es.total == pytest.approx(0.3 * 3 + 0.4 + 0.3)
    with pytest.raises(ValueError, match="^candidate model has zero latency cost$"):
        calculate_es(10.0, ModelCost(0.0, 0.0), ModelCost(1.0, 1.0), (0.3, 0.4, 0.3))


# ---------------------------------------------------------------------------
# 1x1 block transformation
# ---------------------------------------------------------------------------

def _masked(sl, pattern):
    """A copy of one slice holding only the pattern's cells."""
    out = np.zeros_like(sl)
    for r, c in pattern.positions:
        out[r, c] = sl[r, c]
    return out


def _t1x1(flat_values):
    arr = np.asarray(flat_values, dtype=np.float32).reshape(len(flat_values), 1, 1, 1)
    return Tensor4(arr)


def test_blocks_from_18_weights(toy_1x1):
    model, _ = toy_1x1
    w = model.by_id("conv_b").weights
    assert w.shape == (2, 9, 1, 1)
    blocks = slice_stack(w.data, 3)
    assert len(blocks) == 2
    flat = w.data.reshape(-1)
    assert np.array_equal(blocks[0][0], flat[0:3])
    assert np.array_equal(blocks[1].reshape(-1), flat[9:18])


def test_blocks_remainder_is_zero_padded():
    blocks = slice_stack(_t1x1(range(1, 11)).data, 3)
    assert len(blocks) == 2
    assert blocks[1][0, 0] == 10.0
    assert np.count_nonzero(blocks[1]) == 1


def test_blocks_constant_input():
    blocks = slice_stack(_t1x1([2.5] * 9).data, 3)
    assert len(blocks) == 1
    assert np.all(blocks[0] == 2.5)


def test_flatten_roundtrip_identity():
    rng = np.random.default_rng(21)
    for count in (1, 5, 9, 10, 18, 26, 81):
        w = _t1x1(rng.normal(size=count).astype(np.float32))
        flat = unstack(slice_stack(w.data, 3), w.shape).reshape(-1)
        assert flat.shape == (count,)
        assert np.array_equal(flat, w.data.reshape(-1))


def test_flatten_masked_blocks_zero_the_right_flat_positions():
    rng = np.random.default_rng(22)
    pat = KernelPattern("main_diagonal", 3, ((0, 0), (1, 1), (2, 2)))
    keep_in_block = {r * 3 + c for r, c in pat.positions}
    for count in (9, 10, 20):
        w = _t1x1(rng.uniform(1, 2, count).astype(np.float32))  # nonzero everywhere
        masked = [_masked(b, pat) for b in slice_stack(w.data, 3)]
        flat = unstack(np.stack(masked), w.shape).reshape(-1)
        for f in range(count):
            if f % 9 in keep_in_block:
                assert flat[f] == w.data.reshape(-1)[f]
            else:
                assert flat[f] == 0.0
    # the 9-weight case keeps exactly flat indices {0, 4, 8}
    w9 = _t1x1(rng.uniform(1, 2, 9).astype(np.float32))
    masked9 = [_masked(b, pat) for b in slice_stack(w9.data, 3)]
    assert set(np.nonzero(unstack(np.stack(masked9), w9.shape).reshape(-1))[0].tolist()) == {0, 4, 8}


@pytest.mark.parametrize("k", [3, 5])
def test_kxk_slice_stack_is_a_view_of_the_kernel_slices(k):
    w = np.random.default_rng(k).normal(size=(4, 3, k, k)).astype(np.float32)
    stack = slice_stack(w, k)
    assert np.array_equal(stack, w.reshape(12, k, k))
    assert np.shares_memory(stack, w)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_1x1_slice_stack_round_trips_every_remainder(d):
    rng = np.random.default_rng(d)
    for r in range(d * d):
        w = rng.normal(size=(1, d * d + r, 1, 1)).astype(np.float32)
        stack = slice_stack(w, d)
        assert stack.shape == (1 + (r > 0), d, d)
        assert not stack.reshape(-1)[w.size:].any()
        assert np.array_equal(unstack(stack, w.shape), w)


# ---------------------------------------------------------------------------
# group compression
# ---------------------------------------------------------------------------

def test_hck_structure_on_toy_cnn(toy_cnn, toy_cnn_hck):
    cm = toy_cnn_hck
    assert len(cm.groups) == 1
    group = cm.groups[0]
    assert group.bitwidth in (4, 8)
    assert group.pattern.n == 2
    mask = group.pattern.mask()
    for member in group.member_ids:
        qc = cm.qlayers[member]
        per_slice = qc.q.reshape(-1, 3, 3)
        assert not per_slice[:, ~mask].any()  # zeros everywhere off-pattern
        assert set(stored_slots(qc.shape, group.pattern).sum(axis=1).tolist()) == {2}


def test_lck_structure_on_toy_cnn(toy_cnn_lck):
    assert len(toy_cnn_lck.groups) == 1
    group = toy_cnn_lck.groups[0]
    assert group.bitwidth in (8, 16)
    assert group.pattern.n == 3
    qc = toy_cnn_lck.qlayers[group.root_id]
    assert set(stored_slots(qc.shape, group.pattern).sum(axis=1).tolist()) == {3}


def test_lck_1x1_blockwise_density(toy_1x1):
    model, _ = toy_1x1
    cm = compress_model(model, lck_profile(seed=42))
    (group,) = [g for g in cm.groups if "conv_b" in g.member_ids]
    qc = cm.qlayers["conv_b"]
    counts = stored_slots(qc.shape, group.pattern).sum(axis=1).tolist()
    assert counts == [3, 3]  # two full blocks, ceil-blockwise 3 survivors each


def test_group_uniformity_on_residual(toy_residual):
    model, _ = toy_residual
    cm = compress_model(model, hck_profile(seed=42))
    assert [(g.root_id, g.leaf_ids) for g in cm.groups] == [("conv_a", ("conv_b", "conv_c"))]
    group = cm.groups[0]
    for member in group.member_ids:
        assert cm.qlayers[member].bitwidth == group.bitwidth


def test_root_only_group_applies_to_root_alone(toy_1x1):
    model, _ = toy_1x1
    cm = compress_model(model, hck_profile(seed=42))
    for group in cm.groups:
        assert group.leaf_ids == ()


def test_all_zero_1x1_layer_takes_first_candidate(toy_1x1):
    model, _ = toy_1x1
    frozen = copy_model(model)
    frozen.by_id("conv_b").weights.data[:] = 0.0
    profile = lck_profile(seed=7)
    cm = compress_model(frozen, profile)
    expected_rng = np.random.default_rng(split_seed(7, "conv_b"))
    expected_pattern = generate_pattern(3, 3, expected_rng)
    (group,) = [g for g in cm.groups if "conv_b" in g.member_ids]
    assert group.pattern.positions == expected_pattern.positions
    assert group.bitwidth == profile.quant_bits[0]
    assert not cm.qlayers["conv_b"].q.any()


def _dequantize_loop(qc, d):
    """Per-slice (or per-block) dequantize over a payload, scale by scale."""
    def dequantize(q, scale):
        return (q * np.float64(scale)).astype(np.float32)

    if qc.shape[2:] == (d, d):
        flat = qc.q.reshape(-1, qc.shape[2] * qc.shape[3])
        return np.stack([dequantize(flat[s], qc.scales[s]) for s in range(flat.shape[0])]).reshape(qc.shape)
    cells = d ** 2
    flat = qc.q.reshape(-1)
    parts = [dequantize(flat[b * cells:(b + 1) * cells], qc.scales[b]) for b in range(qc.scales.shape[0])]
    return np.concatenate(parts).reshape(qc.shape)


def test_leaves_requantize_with_own_scales(toy_cnn, toy_residual, toy_1x1):
    """Every group member, roots and 1x1 block layers included, holds what
    quantizing its masked slices (or blocks) one at a time gives, and
    decompresses to the slice-by-slice dequantization of that payload."""
    for model, _ in (toy_cnn, toy_residual, toy_1x1):
        for profile in (hck_profile, lck_profile):
            cm = compress_model(model, profile(seed=42))
            dense = upaq.decompress_model(cm)
            for group in cm.groups:
                for member in group.member_ids:
                    w = model.by_id(member).weights
                    qc = cm.qlayers[member]
                    d = group.pattern.d
                    if (w.kh, w.kw) == (d, d):
                        slices = [w.data[o, i] for o in range(w.out_ch) for i in range(w.in_ch)]
                        q_slices = qc.q.reshape(len(slices), w.kh, w.kw)
                    else:
                        slices = slice_stack(w.data, d)
                        q_slices = slice_stack(qc.q, d)
                    assert qc.scales.shape == (len(slices),)
                    for s, sl in enumerate(slices):
                        q, scale, _, _, _ = quantize_slices(_masked(sl, group.pattern)[None], group.bitwidth)
                        assert qc.scales[s] == np.float32(scale[0])
                        assert np.array_equal(q_slices[s], q[0])
                    assert np.array_equal(dense.by_id(member).weights.data, _dequantize_loop(qc, d))


def test_compression_is_deterministic(toy_cnn):
    model, _ = toy_cnn
    a = serialize_compressed(compress_model(model, hck_profile(seed=42)))
    b = serialize_compressed(compress_model(model, hck_profile(seed=42)))
    assert a == b


@pytest.mark.parametrize("arch", ["toy-cnn", "toy-residual", "toy-1x1"])
@pytest.mark.parametrize("profile", [hck_profile, lck_profile], ids=["hck", "lck"])
@pytest.mark.parametrize("exhaustive", [False, True], ids=["16", "all"])
def test_search_scores_what_ships(arch, profile, exhaustive, monkeypatch):
    """The winner's cost terms are those of the model that ships its root
    payload, its SQNR term is that of the shipped root's slices, and each
    distinct drawn mask is scored once, for all its bitwidths, while only
    the winner of each group member is quantized."""
    from upaq import compressor as compressor_module

    model, _ = upaq.gen_fixture(arch, 42)
    prof = profile(seed=42, candidates=16, exhaustive=exhaustive)
    scored, calls = [], []
    real_score = compressor_module.mean_sqnr_db
    real_quantize = compressor_module._quantize_masked
    monkeypatch.setattr(compressor_module, "mean_sqnr_db",
                        lambda rows, keeps, bits: scored.append((keeps.tolist(), tuple(bits)))
                        or real_score(rows, keeps, bits))
    monkeypatch.setattr(compressor_module, "_quantize_masked",
                        lambda x, bits, mask: calls.append(bits) or real_quantize(x, bits, mask))
    cm = compress_model(model, prof)
    monkeypatch.undo()

    base = model_cost(model)
    assert len(scored) == len(cm.groups)  # one scorer call per group
    for dec, (keeps, bits) in zip(cm.groups, scored):
        root_qc = cm.qlayers[dec.root_id]
        layers = [layer.copy() for layer in model.layers]
        for layer in layers:
            if layer.id == dec.root_id:
                layer.weights = None
        shipped = CompressedModel(
            name=model.name, input_shape=model.input_shape, layers=layers,
            groups=[CompressedGroup(dec.root_id, (), dec.pattern, dec.bitwidth)],
            qlayers={dec.root_id: root_qc}, profile=cm.profile,
        )
        shipped.validate()
        assert dec.score.latency_term == base.latency / model_cost(shipped).latency
        assert dec.score.energy_term == base.energy / model_cost(shipped).energy

        w = model.by_id(dec.root_id).weights
        sqnr_db = payload_sqnr_db(w.data, root_qc)
        assert dec.score.sqnr_term == min(float(np.mean(sqnr_db)), 120.0) / 40.0

        d = w.kw if w.kw > 1 else BLOCK_K
        if exhaustive:
            drawn = enumerate_all_patterns(prof.n_for(d), d)
        else:
            rng = np.random.default_rng(split_seed(42, dec.root_id))
            drawn = [generate_pattern(prof.n_for(d), d, rng) for _ in range(16)]
        masks = list(dict.fromkeys(p.positions for p in drawn))  # distinct, in draw order
        assert len(masks) < 16 or exhaustive  # 16 draws of a 3x3 pattern repeat some mask
        assert keeps == [[r * d + c for r, c in sorted(positions)] for positions in masks]
        assert bits == tuple(prof.quant_bits)
    assert calls == [dec.bitwidth for dec in cm.groups for _ in dec.member_ids]


@pytest.mark.parametrize("profile", [hck_profile, lck_profile], ids=["hck", "lck"])
@pytest.mark.parametrize("exhaustive", [False, True], ids=["16", "all"])
def test_every_payload_of_the_tiny_model_stores_a_weight(profile, exhaustive):
    # mix's 6 weights leave 3 pad cells in its one 3x3 block; a mask on them alone is no candidate
    cm = compress_model(tiny_model()[0], profile(seed=42, exhaustive=exhaustive))
    for layer_id, qc in cm.qlayers.items():
        assert stored_slots(qc.shape, qc.pattern).any(), layer_id


@st.composite
def conv_chains(draw):
    """1 to 3 chained convs on a 4x4 input: each k x k, k in {1, 3}, padding
    k // 2, 1 to 5 channels, some weights exactly zero, an optional relu after."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    channels = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    layers, inputs = [], ()
    for i, (in_ch, out_ch) in enumerate(zip(channels, channels[1:])):
        k = draw(st.sampled_from([1, 3]))
        w = rng.uniform(-1, 1, (out_ch, in_ch, k, k)).astype(np.float32)
        w[rng.random(w.shape) < draw(st.sampled_from([0.0, 0.3, 0.7]))] = 0.0
        layers.append(upaq.LayerSpec(f"conv{i}", "conv2d", inputs, Tensor4(w),
                                     rng.uniform(-1, 1, out_ch).astype(np.float32), padding=k // 2))
        inputs = (f"conv{i}",)
        if draw(st.booleans()):
            layers.append(upaq.LayerSpec(f"relu{i}", "relu", inputs))
            inputs = (f"relu{i}",)
    return ModelGraph("chain", (channels[0], 4, 4), layers)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(conv_chains())
def test_compress_of_a_small_chain_stores_a_weight_of_every_payload(model):
    """Compress succeeds, or in sampled mode finds no mask that stores a weight
    of every member; every payload stores a slot, and the file round-trips."""
    for profile in (hck_profile, lck_profile):
        for exhaustive in (False, True):
            try:
                cm = compress_model(model, profile(seed=42, exhaustive=exhaustive))
            except ValidationError as exc:
                assert not exhaustive
                assert re.fullmatch(r"group 'conv\d': no candidate pattern stores a weight of every member", str(exc))
                continue
            for qc in cm.qlayers.values():
                assert stored_slots(qc.shape, qc.pattern).any()
            data = serialize_compressed(cm)
            assert serialize_compressed(deserialize_compressed(data)) == data


def test_decompressed_weights_match_payload(toy_cnn, toy_cnn_hck):
    dense = upaq.decompress_model(toy_cnn_hck)
    for lid, qc in toy_cnn_hck.qlayers.items():
        assert np.array_equal(dense.by_id(lid).weights.data, dequantized_weights(qc))


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

def test_group_member_missing_from_the_layers_rejected(toy_cnn_hck):
    # a payload for a layer the graph does not hold is a ValidationError, not a KeyError
    cm = toy_cnn_hck
    group = cm.groups[0]
    ghost = CompressedGroup(group.root_id, group.leaf_ids + ("ghost",), group.pattern, group.bitwidth)
    broken = CompressedModel(
        name=cm.name, input_shape=cm.input_shape, layers=cm.layers, groups=[ghost],
        qlayers={**cm.qlayers, "ghost": cm.qlayers[group.root_id]}, profile=cm.profile,
    )
    with pytest.raises(ValidationError, match="^group member 'ghost' is not a layer$"):
        broken.validate()


def _payload_holding(qc, value, dtype):
    """``qc``'s integers as ``dtype`` with ``value`` at its first retained cell."""
    q = qc.q.astype(dtype)
    q.reshape(-1)[np.flatnonzero(qc.q)[0]] = value
    return q


def test_payload_of_integers_past_int32_rejected(toy_cnn_hck):
    qc = toy_cnn_hck.qlayers[toy_cnn_hck.groups[0].root_id]
    same = QuantizedConv(qc.shape, qc.bitwidth, qc.q.astype(np.int64), qc.scales, qc.pattern)
    assert same.q.dtype == np.int32 and np.array_equal(same.q, qc.q)
    with pytest.raises(ValidationError, match="outside int32"):  # not cast to 3
        QuantizedConv(qc.shape, qc.bitwidth, _payload_holding(qc, 2**32 + 3, np.int64), qc.scales, qc.pattern)


def test_payload_of_non_integers_rejected(toy_cnn_hck):
    qc = toy_cnn_hck.qlayers[toy_cnn_hck.groups[0].root_id]
    with pytest.raises(ValidationError, match="not integers"):  # not cast to 2
        QuantizedConv(qc.shape, qc.bitwidth, _payload_holding(qc, 2.7, np.float64), qc.scales, qc.pattern)


def test_payload_holding_int32_min_rejected(toy_cnn_hck):
    # np.abs(-2**31) overflows back to -2**31, which no range check sees
    cm, root = toy_cnn_hck, toy_cnn_hck.groups[0].root_id
    qc = replace(cm.qlayers[root], q=_payload_holding(cm.qlayers[root], -2**31, np.int32))
    broken = replace(cm, qlayers={**cm.qlayers, root: qc})
    with pytest.raises(ValidationError, match=f"^layer {root!r}: quantized value outside symmetric {qc.bitwidth}-bit range$"):
        broken.validate()
    with pytest.raises(ValidationError, match="outside symmetric"):
        serialize_compressed(broken)


def _broken_record(cm, fault):
    """``cm`` with one fault in its group table or a payload, and the message that names it."""
    group, conv2 = cm.groups[0], cm.qlayers["conv2"]
    if fault == "group listed twice":
        return replace(cm, groups=[group, group]), "layer 'conv1' appears in groups rooted at 'conv1' and 'conv1'"
    if fault == "member with dense weights and no payload":
        dense = Tensor4(dequantized_weights(conv2))
        layers = [replace(layer, weights=dense) if layer.id == "conv2" else layer for layer in cm.layers]
        qlayers = {k: v for k, v in cm.qlayers.items() if k != "conv2"}
        return replace(cm, layers=layers, qlayers=qlayers), "group member 'conv2' has no quantized payload"
    if fault == "payload in no group":
        return replace(cm, groups=[replace(group, leaf_ids=("conv2",))]), "quantized layer 'conv3' belongs to no group"
    if fault == "q of another shape":
        conv2 = replace(conv2, q=conv2.q.reshape(8, 16, 3, 3))
        message = r"layer 'conv2': q shape \(8, 16, 3, 3\) != its slice stack's \(128, 9\)"
    elif fault == "bitwidth off its group":
        conv2, message = replace(conv2, bitwidth=4), "layer 'conv2': bitwidth differs from its group"
    else:
        assert fault == "one scale short"
        conv2, message = replace(conv2, scales=conv2.scales[:-1]), "layer 'conv2': expected 128 scales, one per stacked slice"
    return replace(cm, qlayers={**cm.qlayers, "conv2": conv2}), message


@pytest.mark.parametrize("arch", ["toy-cnn", "toy-residual", "toy-1x1", "wide"])
@pytest.mark.parametrize("profile", [upaq.hck_profile, upaq.lck_profile], ids=["hck", "lck"])
def test_a_payload_is_its_slice_stack(arch, profile):
    """Each payload's ``q`` is the (S, d*d) stack ``stored_slots`` indexes, as
    built and as loaded; the same integers in the layer's shape are refused,
    naming the layer."""
    model = wide_model() if arch == "wide" else upaq.gen_fixture(arch, 42)[0]
    cm = upaq.compress_model(model, profile(seed=42))
    for built in (cm, deserialize_compressed(serialize_compressed(cm))):
        for qc in built.qlayers.values():
            assert qc.q.shape == stored_slots(qc.shape, qc.pattern).shape
    for layer_id, qc in cm.qlayers.items():
        layered = replace(qc, q=unstack(qc.q, qc.shape))
        message = f"layer {layer_id!r}: q shape {qc.shape} != its slice stack's {qc.q.shape}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            replace(cm, qlayers={**cm.qlayers, layer_id: layered}).validate()


@pytest.mark.parametrize("fault", [
    "group listed twice", "member with dense weights and no payload", "payload in no group",
    "q of another shape", "bitwidth off its group", "one scale short",
])
def test_a_broken_compressed_record_is_refused_by_validate_and_the_writer(toy_cnn_hck, fault):
    assert toy_cnn_hck.groups[0].bitwidth == 8
    broken, message = _broken_record(toy_cnn_hck, fault)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        broken.validate()
    with pytest.raises(ValidationError, match=f"^{message}$"):
        serialize_compressed(broken)


def test_empty_model_rejected():
    with pytest.raises(ValidationError, match="no sink layer"):
        compress_model(ModelGraph("m", (1, 4, 4), []), hck_profile())


def test_incompatible_profile_rejected(toy_cnn):
    model, _ = toy_cnn
    with pytest.raises(ValidationError, match="no retained count"):
        compress_model(model, CompressionProfile(name="custom", quant_bits=(8,)))
