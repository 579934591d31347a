import json
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import upaq
from conftest import copy_model, header_mutations, patch_header
from oracles import (
    pack_ints,
    read_container,
    recount_compressed_payload,
    recount_dense_payload,
    recount_payload_nbytes,
    stored_values_reference,
    unpack_ints,
)
from upaq import compressed
from upaq.compressed import BLOCK_K, MAX_EDGE, dequantized_weights, slice_stack, stored_slots
from upaq.compressor import _quantize_layer
from upaq.container import (
    _Payload,
    compressed_payload_nbytes,
    dense_payload_nbytes,
    deserialize_compressed,
    deserialize_model,
    load_model,
    pack_mask,
    pack_slots,
    save_compressed,
    save_model,
    serialize_compressed,
    serialize_model,
    unpack_slots,
)
from upaq.errors import FormatError, ValidationError
from upaq.patterns import KernelPattern, enumerate_all_patterns


# ---------------------------------------------------------------------------
# bit packing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bits,lo,hi", [(4, -7, 7), (8, -127, 127), (16, -32767, 32767)])
def test_pack_roundtrip_extremes(bits, lo, hi):
    values = [lo, hi, 0, lo + 1, hi - 1, -1, 1]
    assert unpack_ints(pack_ints(values, bits), len(values), bits) == values


def test_pack_roundtrip_random():
    rng = np.random.default_rng(7)
    for bits in (4, 8, 16):
        half = 2 ** (bits - 1) - 1
        for _ in range(50):
            n = int(rng.integers(1, 40))
            values = [int(v) for v in rng.integers(-half, half + 1, n)]
            packed = pack_ints(values, bits)
            assert len(packed) == (n * bits + 7) // 8
            assert unpack_ints(packed, n, bits) == values


def _check_stack_packing(q, pattern, bits):
    """Stack pack equals the per-slice oracle, and unpack restores the slots;
    a 1x1 layer stacks only into BLOCK_K x BLOCK_K blocks."""
    if q.shape[2:] == (1, 1) and pattern.d != BLOCK_K:
        with pytest.raises(ValidationError, match=r"stored as 3x3 blocks, not \d+x\d+ slices"):
            stored_slots(q.shape, pattern)
        return
    slots = stored_slots(q.shape, pattern)
    reference = stored_values_reference(q, pattern)
    packed = pack_slots(slice_stack(q, pattern.d).reshape(slots.shape), slots, bits)
    assert packed == b"".join(pack_ints(values, bits) for values in reference)
    stack = unpack_slots(packed, slots, bits)
    assert stack.dtype == np.int32
    assert [row[keep].tolist() for row, keep in zip(stack, slots)] == reference
    assert not stack[~slots].any()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_pack_slots_every_pattern_and_partial_block(d):
    rng = np.random.default_rng(d)
    for n in range(1, d + 1):
        for pattern in enumerate_all_patterns(n, d):
            for bits in (4, 8, 16):
                top = 2 ** (bits - 1) - 1
                # a k x k layer, then 1 x 1 layers leaving every remainder 0 .. d*d-1
                shapes = [(2, 3, d, d)] + [(1, d * d + r, 1, 1) for r in range(d * d)]
                for shape in shapes:
                    q = rng.integers(-top, top + 1, shape)
                    q = np.where(rng.random(shape) < 0.5, rng.choice([-top, top], shape), q)
                    _check_stack_packing(q.astype(np.int32), pattern, bits)


@st.composite
def _stacks(draw):
    d = draw(st.integers(2, 5))
    pattern = draw(st.sampled_from([p for n in range(1, d + 1) for p in enumerate_all_patterns(n, d)]))
    bits = draw(st.sampled_from((4, 8, 16)))
    if draw(st.booleans()):
        shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), d, d)
    else:
        shape = (draw(st.integers(1, 4)), draw(st.integers(1, 12)), 1, 1)
    top = 2 ** (bits - 1) - 1
    values = draw(st.lists(st.integers(-top, top), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(values, dtype=np.int32).reshape(shape), pattern, bits


@settings(max_examples=200, deadline=None)
@given(_stacks())
def test_pack_slots_property(case):
    _check_stack_packing(*case)


def test_mask_roundtrip_all_patterns():
    from upaq.container import _positions_from_mask

    for d in range(1, 6):
        for n in range(1, d + 1):
            for pat in enumerate_all_patterns(n, d):
                mask = pack_mask(pat)
                assert len(mask) == (d * d + 7) // 8
                assert _positions_from_mask(mask, d) == tuple(sorted(pat.positions))


# ---------------------------------------------------------------------------
# dense container
# ---------------------------------------------------------------------------

def test_dense_roundtrip_is_byte_identical(toy_cnn, tmp_path):
    model, _ = toy_cnn
    path = tmp_path / "toycnn_v1.upaq"
    save_model(model, path)
    reloaded = load_model(path)
    assert serialize_model(reloaded) == path.read_bytes()
    assert [l.id for l in reloaded.layers] == [l.id for l in model.layers]
    for a, b in zip(model.layers, reloaded.layers):
        if a.weights is not None:
            assert np.array_equal(a.weights.data, b.weights.data)


def test_fixture_file_shape(toy_cnn, tmp_path):
    model, _ = toy_cnn
    path = tmp_path / "toycnn_v1.upaq"
    save_model(model, path)
    reloaded = load_model(path)
    assert len(reloaded.layers) == 6
    assert reloaded.input_shape == (1, 16, 16)


def test_truncated_blob_rejected(toy_cnn):
    model, _ = toy_cnn
    data = serialize_model(model)
    with pytest.raises(FormatError, match="truncated"):
        deserialize_model(data[:-8])


def test_bad_magic_rejected(toy_cnn):
    model, _ = toy_cnn
    data = serialize_model(model)
    with pytest.raises(FormatError, match="magic"):
        deserialize_model(b"NOPE!" + data[5:])


def test_format_version_mismatch(toy_cnn):
    model, _ = toy_cnn
    data = serialize_model(model)
    (hlen,) = struct.unpack("<I", data[5:9])
    header = json.loads(data[9:9 + hlen])
    header["format_version"] = 99
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    patched = data[:5] + struct.pack("<I", len(raw)) + raw + data[9 + hlen:]
    with pytest.raises(FormatError, match="format-version mismatch"):
        deserialize_model(patched)


def test_nan_weight_refuses_to_serialize(toy_cnn):
    model, _ = toy_cnn
    broken = copy_model(model)
    broken.by_id("conv1").weights.data[0, 0, 0, 0] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        serialize_model(broken)


def test_unwritable_path_raises_oserror(toy_cnn):
    model, _ = toy_cnn
    with pytest.raises(OSError):
        save_model(model, "/nonexistent_dir_upaq/m.upaq")


def test_dense_payload_matches_independent_recount(toy_cnn, tmp_path):
    model, _ = toy_cnn
    path = tmp_path / "m.upaq"
    save_model(model, path)
    assert recount_dense_payload(path) == dense_payload_nbytes(model)


# ---------------------------------------------------------------------------
# compressed container
# ---------------------------------------------------------------------------

def test_compressed_roundtrip_bytes(toy_cnn_hck, tmp_path):
    data = serialize_compressed(toy_cnn_hck)
    cm2 = deserialize_compressed(data)
    assert serialize_compressed(cm2) == data


def test_compressed_roundtrip_preserves_dequantized_weights(toy_cnn_hck, tmp_path):
    path = tmp_path / "m.upaqc"
    save_compressed(toy_cnn_hck, path)
    reloaded = upaq.load_compressed(path)
    for layer_id, qc in toy_cnn_hck.qlayers.items():
        assert np.array_equal(dequantized_weights(qc), dequantized_weights(reloaded.qlayers[layer_id]))


@pytest.mark.parametrize("arch", ["toy-cnn", "toy-residual", "toy-1x1"])
@pytest.mark.parametrize("profile", [upaq.hck_profile, upaq.lck_profile], ids=["hck", "lck"])
def test_every_payload_carries_its_group_pattern(arch, profile):
    cm = upaq.compress_model(upaq.gen_fixture(arch, 42)[0], profile(seed=42))
    loaded = deserialize_compressed(serialize_compressed(cm))
    for model in (cm, loaded):
        assert sorted(model.qlayers) == sorted(m for group in model.groups for m in group.member_ids)
        for group in model.groups:
            for member in group.member_ids:
                assert model.qlayers[member].pattern == group.pattern
    for group in cm.groups:
        other = next(p for p in enumerate_all_patterns(group.pattern.n, group.pattern.d) if p != group.pattern)
        for member in group.member_ids:
            qc = replace(cm.qlayers[member], pattern=other)
            broken = replace(cm, qlayers={**cm.qlayers, member: qc})
            with pytest.raises(ValidationError, match=f"^layer {member!r}: pattern differs from its group$"):
                broken.validate()


def test_compressed_payload_matches_recounts(toy_cnn_hck, toy_cnn_lck, tmp_path):
    for name, cm in (("hck", toy_cnn_hck), ("lck", toy_cnn_lck)):
        path = tmp_path / f"{name}.upaqc"
        save_compressed(cm, path)
        _, header, payload = read_container(path)
        assert header["payload_nbytes"] == len(payload)
        assert compressed_payload_nbytes(cm) == len(payload)
        assert recount_payload_nbytes(cm) == len(payload)
        assert recount_compressed_payload(path) == len(payload)


def test_compressed_1x1_roundtrip(toy_1x1):
    model, _ = toy_1x1
    cm = upaq.compress_model(model, upaq.lck_profile(seed=42))
    data = serialize_compressed(cm)
    cm2 = deserialize_compressed(data)
    assert serialize_compressed(cm2) == data
    for lid in cm.qlayers:
        assert np.array_equal(dequantized_weights(cm.qlayers[lid]), dequantized_weights(cm2.qlayers[lid]))


def test_1x1_payload_rejects_nonzero_off_pattern_cell_in_last_partial_block():
    # 3 x 4 = 12 weights: one full 3x3 block and a last block holding 3 of its 9 cells
    rng = np.random.default_rng(35)
    layer = upaq.LayerSpec("pw", "conv2d", (), upaq.Tensor4(rng.uniform(-1, 1, (3, 4, 1, 1)).astype(np.float32)),
                           rng.uniform(-1, 1, 3).astype(np.float32))
    model = upaq.ModelGraph("pointwise", (4, 5, 5), [layer])
    model.validate()
    cm = upaq.compress_model(model, upaq.hck_profile(seed=42))
    qc = cm.qlayers["pw"]
    assert qc.pattern.d == 3 and qc.scales.shape == (2,)
    cm.validate()  # the pad cells past the 12th weight are not checked as payload
    keep = qc.pattern.mask().reshape(-1)
    off = [f for f in range(9, 12) if not keep[f - 9]]
    assert off, "hck keeps 2 cells, so one of the last block's 3 cells is off-pattern"
    qc.q.reshape(-1)[off[0]] = 1
    with pytest.raises(ValidationError, match="outside the block pattern"):
        cm.validate()


def test_truncated_compressed_rejected(toy_cnn_hck):
    data = serialize_compressed(toy_cnn_hck)
    with pytest.raises(FormatError, match="truncated"):
        deserialize_compressed(data[:-4])


@pytest.fixture(scope="module")
def toy_1x1_lck_bytes(toy_1x1):
    cm = upaq.compress_model(toy_1x1[0], upaq.lck_profile(seed=42))
    assert [(cm.qlayers[lid].shape[2:], cm.qlayers[lid].pattern.d) for lid in ("conv_a", "conv_b")] == [
        ((3, 3), 3), ((1, 1), 3),
    ]
    return serialize_compressed(cm)


def test_v1_header_with_cost_mode_loads_to_the_same_model(toy_cnn_hck, toy_1x1_lck_bytes):
    """Keys that older writers emitted, ``profile.cost_mode``,
    ``profile.block_k`` and each quantized layer's ``block_k``, are ignored."""
    data = serialize_compressed(toy_cnn_hck)
    for mode in ("analytic", "measured"):
        older = patch_header(data, lambda h: h["profile"].update(cost_mode=mode))
        assert older != data
        assert serialize_compressed(deserialize_compressed(older)) == data

    def with_block_k(value):
        def edit(header):
            header["profile"]["block_k"] = 3
            for entry in header["layers"]:
                if entry["quantized"] is not None:
                    entry["quantized"]["block_k"] = value
        return edit

    for value in (None, 3, 0, -1, 2, "x"):
        older = patch_header(toy_1x1_lck_bytes, with_block_k(value))
        assert older != toy_1x1_lck_bytes
        assert serialize_compressed(deserialize_compressed(older)) == toy_1x1_lck_bytes


def _set_quantized(layer_id, field, value):
    def edit(header):
        (meta,) = [e["quantized"] for e in header["layers"] if e["id"] == layer_id]
        if field.endswith("_nbytes"):
            meta[field[:-len("_nbytes")]]["nbytes"] += value
        else:
            meta[field] = value
    return edit


def test_kernel_dims_off_the_pattern_name_the_layer(toy_1x1_lck_bytes, toy_1x1):
    # 9x1x1x9 keeps conv_a's 81 cells and 9 scales, but its 1x9 kernel is neither 1x1 nor 3x3
    def flatten_kernel(header):
        header["layers"][0]["quantized"]["shape"] = [9, 1, 1, 9]

    with pytest.raises(FormatError, match="layer 'conv_a': .* does not stack into 3x3 slices"):
        deserialize_compressed(patch_header(toy_1x1_lck_bytes, flatten_kernel))
    cm = upaq.compress_model(toy_1x1[0], upaq.lck_profile(seed=42))
    qc = cm.qlayers["conv_a"]
    qc.shape, qc.q = (9, 1, 1, 9), qc.q.reshape(9, 1, 1, 9)
    with pytest.raises(ValidationError, match="layer 'conv_a': .* does not stack into 3x3 slices"):
        cm.validate()


def _toy_1x1_hck_in_4x4_rows(toy_1x1):
    """toy-1x1 under hck with conv_b's group and payload re-quantized under a
    4x4 row pattern: a 1x1 payload off the 3x3 blocks it is stored as."""
    model, _ = toy_1x1
    cm = upaq.compress_model(model, upaq.hck_profile(seed=42))
    pattern = KernelPattern("row", 4, ((0, 0), (0, 1)))
    (at,) = [i for i, group in enumerate(cm.groups) if group.root_id == "conv_b"]
    cm.groups[at] = replace(cm.groups[at], pattern=pattern)
    cm.qlayers["conv_b"] = _quantize_layer(model.by_id("conv_b").weights, pattern, cm.groups[at].bitwidth)
    return cm


def test_a_1x1_payload_off_3x3_blocks_fails_validation(toy_1x1):
    cm = _toy_1x1_hck_in_4x4_rows(toy_1x1)
    with pytest.raises(ValidationError, match=r"layer 'conv_b': .* stored as 3x3 blocks, not 4x4 slices"):
        cm.validate()


def test_a_1x1_payload_off_3x3_blocks_does_not_load(toy_1x1, monkeypatch):
    cm = _toy_1x1_hck_in_4x4_rows(toy_1x1)
    with monkeypatch.context() as patched:
        patched.setattr(compressed, "BLOCK_K", 4)  # written as if 1x1 layers were stored as 4x4 blocks
        data = serialize_compressed(cm)
    with pytest.raises(FormatError, match=r"layer 'conv_b': .* stored as 3x3 blocks, not 4x4 slices"):
        deserialize_compressed(data)


def test_a_kernel_edge_over_the_bound_does_not_load(toy_1x1):
    """toy-1x1's hck ``conv_a`` declared 1000x1000 under a 1000-edge row
    pattern: its 9 scales and its mask still fit, so only the kernel-edge
    bound keeps the loader from sizing a 9 M-cell slot stack by the header."""
    data = serialize_compressed(upaq.compress_model(toy_1x1[0], upaq.hck_profile(seed=42)))
    mask = pack_mask(KernelPattern("row", 1000, ((0, 0), (0, 1))))
    (hlen,) = struct.unpack("<I", data[5:9])

    def enlarge(header):
        header["payload_nbytes"] += len(mask)
        (group,) = [g for g in header["groups"] if g["root"] == "conv_a"]
        group["pattern"].update(kind="row", d=1000, mask_offset=len(data) - 9 - hlen, mask_nbytes=len(mask))
        (entry,) = [e for e in header["layers"] if e["id"] == "conv_a"]
        entry["quantized"]["shape"] = [9, 1, 1000, 1000]

    crafted = patch_header(data + mask, enlarge)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"layer 'conv_a': kernel edge 1000 is over the bound of {MAX_EDGE}"):
            deserialize_compressed(crafted)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("k", [MAX_EDGE, MAX_EDGE + 1])
def test_a_kernel_edge_over_the_bound_does_not_compress(k):
    rng = np.random.default_rng(11)
    weights = upaq.Tensor4(rng.uniform(-1, 1, (2, 1, k, k)).astype(np.float32))
    model = upaq.ModelGraph("edge", (1, k, k), [upaq.LayerSpec("big", "conv2d", (), weights)])
    if k <= MAX_EDGE:
        assert upaq.compress_model(model, upaq.hck_profile()).qlayers["big"].pattern.d == k
    else:
        with pytest.raises(ValidationError, match=f"layer 'big': kernel edge {k} is over the bound of {MAX_EDGE}"):
            upaq.compress_model(model, upaq.hck_profile())


@pytest.mark.parametrize("layer_id", ["conv_a", "conv_b"])  # a 3x3 layer and a 1x1 block layer
@pytest.mark.parametrize("field,value", [
    ("bitwidth", 0), ("bitwidth", -3), ("bitwidth", 64), ("bitwidth", 10**12),
    ("packed_nbytes", 1), ("packed_nbytes", -1), ("scales_nbytes", -1), ("scales_nbytes", 2),
])
def test_hostile_quantized_header_raises_format_error(toy_1x1_lck_bytes, layer_id, field, value):
    message = {"bitwidth": f"bitwidth {value} is not", "packed_nbytes": "packed section holds",
               "scales_nbytes": "float32 section of .* bytes is not a multiple of 4"}[field]
    with pytest.raises(FormatError, match=f"layer '{layer_id}': {message}"):
        deserialize_compressed(patch_header(toy_1x1_lck_bytes, _set_quantized(layer_id, field, value)))


@pytest.mark.parametrize("compressed", [False, True], ids=["upaq", "upaqc"])
@pytest.mark.parametrize("header", [[], 3, "x", None])
def test_non_object_header_raises_format_error(toy_cnn, toy_cnn_hck, compressed, header):
    data = serialize_compressed(toy_cnn_hck) if compressed else serialize_model(toy_cnn[0])
    (hlen,) = struct.unpack("<I", data[5:9])
    raw = json.dumps(header).encode()
    patched = data[:5] + struct.pack("<I", len(raw)) + raw + data[9 + hlen:]
    with pytest.raises(FormatError, match="header is not a JSON object"):
        (deserialize_compressed if compressed else deserialize_model)(patched)


def _edit_fc(section, field, value):
    """Header edit of the dense ``fc`` layer's weights or bias reference."""
    def edit(header):
        (entry,) = [e for e in header["layers"] if e["id"] == "fc"]
        if field == "nbytes":
            entry[section]["nbytes"] += value
        else:
            entry[section][field] = value
    return edit


@pytest.mark.parametrize("compressed", [False, True], ids=["upaq", "upaqc"])
@pytest.mark.parametrize("section,field,value,message", [
    ("bias", "nbytes", -1, "float32 section of 15 bytes is not a multiple of 4"),
    ("bias", "nbytes", 2, "float32 section of 18 bytes is not a multiple of 4"),
    ("weights", "nbytes", -1, r"weight shape \[4, 8, 1, 1\] does not fit a 127-byte section"),
    ("weights", "nbytes", -4, r"weight shape \[4, 8, 1, 1\] does not fit a 124-byte section"),
    ("weights", "shape", [4, 8, 2, 1], r"weight shape .* does not fit a 128-byte section"),
    ("weights", "shape", [32, 1, 1], r"weight shape .* does not fit a 128-byte section"),
    ("weights", "shape", [4, 8, 1, 0], r"weight shape .* does not fit a 128-byte section"),
    ("weights", "shape", [4, 8, 1, True], r"weight shape .* does not fit a 128-byte section"),
    ("weights", "shape", "4x8", r"weight shape .* does not fit a 128-byte section"),
])
def test_bad_f32_section_raises_format_error(toy_cnn, toy_cnn_hck, compressed, section, field, value, message):
    data = serialize_compressed(toy_cnn_hck) if compressed else serialize_model(toy_cnn[0])
    with pytest.raises(FormatError, match=f"layer 'fc': {message}"):
        (deserialize_compressed if compressed else deserialize_model)(
            patch_header(data, _edit_fc(section, field, value))
        )


@pytest.mark.parametrize("d", [5, 0, -3, 10**9, True, "3", None])
def test_group_pattern_d_off_its_mask_raises_format_error(toy_cnn_hck, d):
    data = serialize_compressed(toy_cnn_hck)
    with pytest.raises(FormatError, match="group 'conv1': pattern d=.* does not fit its 2-byte mask"):
        deserialize_compressed(patch_header(data, lambda h: h["groups"][0]["pattern"].update(d=d)))


@pytest.mark.parametrize("kind", ["column", "main_diagonal", "spiral", 7])
def test_group_pattern_kind_off_its_mask_raises_format_error(toy_cnn_hck, kind):
    assert toy_cnn_hck.groups[0].pattern.kind == "row"
    data = serialize_compressed(toy_cnn_hck)
    with pytest.raises(FormatError, match="group 'conv1': bad pattern"):
        deserialize_compressed(patch_header(data, lambda h: h["groups"][0]["pattern"].update(kind=kind)))


@pytest.mark.parametrize("field", ["mask_offset", "mask_nbytes"])
@pytest.mark.parametrize("value", ["0", None, 1.5, [2]])
def test_group_mask_section_not_an_int_raises_format_error(toy_cnn_hck, field, value):
    data = serialize_compressed(toy_cnn_hck)
    with pytest.raises(FormatError, match="layer 'conv1': section offset .* is not an integer"):
        deserialize_compressed(patch_header(data, lambda h: h["groups"][0]["pattern"].update({field: value})))


# ---------------------------------------------------------------------------
# hostile headers: every field type-checked, every broken invariant a FormatError
# ---------------------------------------------------------------------------

SWEEP_VALUES = (None, "x", -1, 2**40, 1.5, True, [], {})


def test_header_sweep_raises_only_format_error(toy_cnn, toy_cnn_hck):
    """Every header node of a .upaq and a .upaqc, set to each sweep value and
    deleted: each load either succeeds or raises FormatError."""
    others, loads = [], 0
    for data, load in ((serialize_model(toy_cnn[0]), deserialize_model),
                       (serialize_compressed(toy_cnn_hck), deserialize_compressed)):
        for path, patched in header_mutations(data, SWEEP_VALUES):
            loads += 1
            try:
                load(patched)
            except FormatError:
                pass
            except Exception as exc:
                others.append((path, f"{type(exc).__name__}: {exc}"))
    assert loads == 2160
    assert others == []


def test_compressed_graph_that_does_not_chain_fails_at_load(toy_cnn_hck):
    data = serialize_compressed(toy_cnn_hck)
    with pytest.raises(FormatError, match="layer 'conv1': expects 1 input channels, got 2"):
        deserialize_compressed(patch_header(data, lambda h: h.update(input_shape=[2, 16, 16])))
    cm = deserialize_compressed(data)
    cm.input_shape = (2, 16, 16)
    with pytest.raises(ValidationError, match="layer 'conv1': expects 1 input channels, got 2"):
        cm.validate()


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, 1e38])  # 1e38 * 127 overflows float32
def test_scale_that_dequantizes_to_non_finite_fails_at_load(toy_cnn_hck, scale):
    data = serialize_compressed(toy_cnn_hck)
    (hlen,) = struct.unpack("<I", data[5:9])
    scales = json.loads(data[9:9 + hlen])["layers"][0]["quantized"]["scales"]
    at = 9 + hlen + scales["offset"]
    patched = data[:at] + np.array([scale], dtype="<f4").tobytes() + data[at + 4:]
    with pytest.raises(FormatError, match="layer 'conv1': a scale dequantizes to a non-finite weight"):
        deserialize_compressed(patched)
    cm = deserialize_compressed(data)
    assert np.abs(cm.qlayers["conv1"].q[0, 0]).max() == 127
    cm.qlayers["conv1"].scales[0] = scale
    with pytest.raises(ValidationError, match="non-finite weight"):
        cm.validate()


def test_negative_base_payload_nbytes_raises_format_error(toy_cnn_hck):
    data = patch_header(serialize_compressed(toy_cnn_hck), lambda h: h.update(base_payload_nbytes=-1))
    with pytest.raises(FormatError, match="base_payload_nbytes -1 is negative"):
        deserialize_compressed(data)


PROFILE_OUT_OF_RANGE = [
    ("es_weights", [2**40, -1, 1.5], "efficiency-score weight 1099511627776 outside \\[0, 1\\]"),
    ("es_weights", [0, 0.0, 0], "efficiency-score weights must not all be zero"),
    ("candidates", -1, "candidate count must be >= 1"),
    ("quant_bits", [-1, 8], "profile bitwidth -1 outside supported \\{4, 8, 16\\}"),
    ("quant_bits", [], "profile declares no quantization bitwidths"),
]


@pytest.mark.parametrize("field,value,message", PROFILE_OUT_OF_RANGE,
                         ids=["es-weights", "es-weights-zero", "candidates", "quant-bits", "no-bits"])
def test_profile_out_of_range_raises_format_error(toy_cnn_hck, field, value, message):
    data = patch_header(serialize_compressed(toy_cnn_hck), lambda h: h["profile"].update({field: value}))
    with pytest.raises(FormatError, match=message):
        deserialize_compressed(data)


@pytest.mark.parametrize("compressed", [False, True], ids=["upaq", "upaqc"])
@pytest.mark.parametrize("layer_id", ["conv1", "conv2", "conv3"])
def test_padding_past_the_kernel_edge_raises_format_error(toy_cnn, toy_cnn_hck, compressed, layer_id):
    data = serialize_compressed(toy_cnn_hck) if compressed else serialize_model(toy_cnn[0])
    load = deserialize_compressed if compressed else deserialize_model

    def padded(value):
        def edit(header):
            (entry,) = [e for e in header["layers"] if e["id"] == layer_id]
            entry["padding"] = value
        return patch_header(data, edit)

    model = load(padded(3))  # padding up to the kernel edge loads
    for value in (4, 2**40):
        with pytest.raises(FormatError, match=f"layer '{layer_id}': padding {value} exceeds the kernel edge 3"):
            load(padded(value))
    (layer,) = [layer for layer in model.layers if layer.id == layer_id]
    layer.padding = 4
    with pytest.raises(ValidationError, match=f"layer '{layer_id}': padding 4 exceeds the kernel edge 3"):
        model.validate()


def _move_section(layer_id, key, offset):
    def edit(header):
        (entry,) = [e for e in header["layers"] if e["id"] == layer_id]
        ref = entry["quantized"][key] if key in ("scales", "packed") else entry[key]
        ref["offset"] = offset
    return edit


@pytest.mark.parametrize("edit,message", [
    (_move_section("fc", "bias", 9744), "weights of 'fc' [9632, 9760) and bias of 'fc' [9744, 9760)"),
    (_move_section("conv2", "weights", 0), "weights of 'conv1' [0, 288) and weights of 'conv2' [0, 4608)"),
], ids=["bias-in-weights", "weights-on-weights"])
def test_overlapping_dense_sections_raise_format_error(toy_cnn, edit, message):
    with pytest.raises(FormatError, match=f"^payload sections overlap: {re.escape(message)}$"):
        deserialize_model(patch_header(serialize_model(toy_cnn[0]), edit))


@pytest.mark.parametrize("edit,message", [
    (lambda h: h["groups"][0]["pattern"].update(mask_offset=0),
     "group mask of 'conv1' [0, 2) and bias of 'conv1' [0, 32)"),
    (_move_section("conv2", "packed", 1456),
     "packed integers of 'conv2' [1456, 1712) and packed integers of 'conv3' [1456, 1712)"),
    (_move_section("conv3", "scales", 900), "packed integers of 'conv2' [656, 912) and scales of 'conv3' [900, 1412)"),
], ids=["mask-in-bias", "packed-on-packed", "scales-into-packed"])
def test_overlapping_compressed_sections_raise_format_error(toy_cnn_hck, edit, message):
    with pytest.raises(FormatError, match=f"^payload sections overlap: {re.escape(message)}$"):
        deserialize_compressed(patch_header(serialize_compressed(toy_cnn_hck), edit))


def test_zero_length_and_adjacent_sections_do_not_overlap():
    payload = _Payload(bytes(16))
    assert payload.read(0, 8, "a", "weights") == bytes(8)
    assert payload.read(8, 8, "a", "bias") == bytes(8)  # touching, not overlapping
    assert payload.read(4, 0, "b", "bias") == b""  # zero-length sections are exempt
    assert payload.read(4, 0, "c", "bias") == b""
    with pytest.raises(FormatError, match=r"^payload sections overlap: weights of 'a' \[0, 8\) and scales of 'd' \[7, 9\)$"):
        payload.read(7, 2, "d", "scales")
