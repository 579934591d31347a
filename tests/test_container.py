import json
import re
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import upaq
from conftest import (
    copy_model,
    header_mutations,
    mask_spans,
    patch_header,
    seal,
    splice,
    split_container,
    tiny_model,
    with_group_mask,
    with_long_row_group,
)
from oracles import (
    pack_ints,
    read_container,
    recount_compressed_payload,
    recount_dense_payload,
    recount_payload_nbytes,
    stored_values_reference,
    unpack_ints,
)
from upaq import compressed, container
from upaq.compressed import BLOCK_K, MAX_EDGE, dequantized_weights, slice_stack, stored_slots
from upaq.compressor import _quantize_layer
from upaq.container import (
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
    """A version-1 or version-2 header is no longer read, nor is one from a later version."""
    data = serialize_model(toy_cnn[0])
    for version in (1, 2, 99):
        with pytest.raises(FormatError, match=f"^format-version mismatch: file has {version}, expected 3$"):
            deserialize_model(patch_header(data, lambda header: header.update(format_version=version)))


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


@pytest.mark.parametrize("arch", ["toy-cnn", "toy-residual", "toy-1x1", "tiny"])
@pytest.mark.parametrize("profile", [upaq.hck_profile, upaq.lck_profile], ids=["hck", "lck"])
@pytest.mark.parametrize("exhaustive", [False, True], ids=["16", "all"])
def test_compressed_payload_matches_recounts(tmp_path, arch, profile, exhaustive):
    model = tiny_model()[0] if arch == "tiny" else upaq.gen_fixture(arch, 42)[0]
    cm = upaq.compress_model(model, profile(seed=42, exhaustive=exhaustive))
    path = tmp_path / "m.upaqc"
    save_compressed(cm, path)
    _, _, payload = read_container(path)
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
    ``profile.block_k`` and each quantized layer's ``quantized`` record with
    its ``block_k``, are ignored in a header of the current version: a group
    alone makes a layer quantized and gives its bitwidth."""
    data = serialize_compressed(toy_cnn_hck)
    for mode in ("analytic", "measured"):
        older = patch_header(data, lambda h: h["profile"].update(cost_mode=mode))
        assert older != data
        assert serialize_compressed(deserialize_compressed(older)) == data

    def with_block_k(value):
        def edit(header):
            header["profile"]["block_k"] = 3
            for entry in header["layers"]:
                if entry["id"] in ("conv_a", "conv_b"):
                    entry["quantized"] = {"shape": entry["weights"], "bitwidth": 99, "block_k": value}
                else:
                    entry["quantized"] = None
        return edit

    for value in (None, 3, 0, -1, 2, "x"):
        older = patch_header(toy_1x1_lck_bytes, with_block_k(value))
        assert older != toy_1x1_lck_bytes
        assert serialize_compressed(deserialize_compressed(older)) == toy_1x1_lck_bytes


def test_kernel_dims_off_the_pattern_name_the_layer(toy_1x1_lck_bytes, toy_1x1):
    # 9x1x1x9 keeps conv_a's 81 cells and 9 scales, but its 1x9 kernel is not square
    def flatten_kernel(header):
        header["layers"][0]["weights"] = [9, 1, 1, 9]

    with pytest.raises(FormatError, match="^layer 'conv_a': a 1x9 kernel is non-square"):
        deserialize_compressed(patch_header(toy_1x1_lck_bytes, flatten_kernel))
    cm = upaq.compress_model(toy_1x1[0], upaq.lck_profile(seed=42))
    qc = cm.qlayers["conv_a"]
    qc.shape, qc.q = (9, 1, 1, 9), qc.q.reshape(9, 1, 1, 9)
    with pytest.raises(ValidationError, match="^layer 'conv_a': a 1x9 kernel is non-square"):
        cm.validate()


@pytest.mark.parametrize("kh,kw", [(3, 1), (1, 3), (3, 2), (1, 9)])
def test_a_non_square_kernel_is_refused_by_slice_edge_on_every_route(kh, kw):
    """One 1 -> 1 conv: a kernel of at most 9 cells is one 3x3 block, so its
    one scale fits the loader's count and only the kernel's shape is off."""
    message = f"^layer 'c': a {kh}x{kw} kernel is non-square: only square kernels are stored$"

    def conv(k):
        weights = upaq.Tensor4(np.arange(1, 1 + k[0] * k[1], dtype=np.float32).reshape(1, 1, *k))
        model = upaq.ModelGraph("m", (1, 9, 9), [upaq.LayerSpec("c", "conv2d", (), weights)])
        model.validate()
        return model

    with pytest.raises(ValidationError, match=message):
        upaq.compress_model(conv((kh, kw)), upaq.hck_profile())
    cm = upaq.compress_model(conv((3, 3)), upaq.hck_profile())
    data = serialize_compressed(cm)
    cm.qlayers["c"].shape = (1, 1, kh, kw)
    with pytest.raises(ValidationError, match=message):
        cm.validate()

    def reshape(header):
        header["layers"][0]["weights"] = [1, 1, kh, kw]

    with pytest.raises(FormatError, match=message):
        deserialize_compressed(patch_header(data, reshape))


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

    def enlarge(header):
        (entry,) = [e for e in header["layers"] if e["id"] == "conv_a"]
        entry["weights"] = [9, 1, 1000, 1000]

    crafted = patch_header(with_long_row_group(data, "conv_a", 1000), enlarge)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"group 'conv_a': pattern d=1000 is over the bound of {MAX_EDGE}"):
            deserialize_compressed(crafted)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_a_pattern_edge_over_the_bound_is_refused_before_its_mask_is_decoded(toy_1x1, monkeypatch):
    """A 1.1 MB file whose group declares a 3000-edge pattern: its 9 M-bit mask
    fits, so only the edge bound keeps the loader from decoding it."""
    data = serialize_compressed(upaq.compress_model(toy_1x1[0], upaq.hck_profile(seed=42)))
    crafted = with_long_row_group(data, "conv_a", 3000)
    assert len(crafted) > 2**20
    decoded = []
    decode = container._positions_from_mask
    monkeypatch.setattr(container, "_positions_from_mask", lambda mask, d: decoded.append(d) or decode(mask, d))
    deserialize_compressed(data)
    assert decoded  # the wrapper sees each group's decode
    decoded.clear()
    with pytest.raises(FormatError, match=f"^group 'conv_a': pattern d=3000 is over the bound of {MAX_EDGE}$"):
        deserialize_compressed(crafted)
    assert all(d <= MAX_EDGE for d in decoded)


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


@pytest.mark.parametrize("root", ["conv_a", "conv_b"])  # the groups of a 3x3 layer and of a 1x1 block layer
@pytest.mark.parametrize("field,value", [("bitwidth", 0), ("bitwidth", -3), ("bitwidth", 64), ("bitwidth", 10**12)])
def test_hostile_quantized_header_raises_format_error(toy_1x1_lck_bytes, root, field, value, monkeypatch):
    """A group's bitwidth, the one its members' payloads are sized by, is
    refused before its mask or any section is read."""
    def edit(header):
        (group,) = [g for g in header["groups"] if g["root"] == root]
        group[field] = value

    taken = []
    take = container._Cursor.take
    monkeypatch.setattr(container._Cursor, "take", lambda self, *args: taken.append(args) or take(self, *args))
    crafted = patch_header(toy_1x1_lck_bytes, edit)
    with pytest.raises(FormatError, match=rf"^group '{root}': bitwidth {value} is not one of \(4, 8, 16\)$"):
        deserialize_compressed(crafted)
    # only the masks of the groups before it were read
    assert [args[1:] for args in taken] == [("group 'conv_a'", "group mask")] * (root == "conv_b")


def _container(toy_cnn, toy_cnn_hck, compressed):
    """toy-cnn's .upaqc under hck or its .upaq, with its loader."""
    if compressed:
        return serialize_compressed(toy_cnn_hck), deserialize_compressed
    return serialize_model(toy_cnn[0]), deserialize_model


@pytest.mark.parametrize("compressed", [False, True], ids=["upaq", "upaqc"])
@pytest.mark.parametrize("header", [[], 3, "x", None])
def test_non_object_header_raises_format_error(toy_cnn, toy_cnn_hck, compressed, header):
    data, load = _container(toy_cnn, toy_cnn_hck, compressed)
    magic, _, payload = split_container(data)
    with pytest.raises(FormatError, match="header is not a JSON object"):
        load(seal(magic, json.dumps(header).encode(), payload))


def _fc_weights(shape):
    """Header edit of the dense ``fc`` layer's weight shape."""
    def edit(header):
        (entry,) = [e for e in header["layers"] if e["id"] == "fc"]
        entry["weights"] = shape
    return edit


@pytest.mark.parametrize("compressed", [False, True], ids=["upaq", "upaqc"])
@pytest.mark.parametrize("shape", [[32, 1, 1], [4, 8, 1, 0], [4, 8, 1, True], "4x8"], ids=["3d", "zero", "bool", "str"])
def test_bad_weight_shape_raises_format_error(toy_cnn, toy_cnn_hck, compressed, shape):
    data, load = _container(toy_cnn, toy_cnn_hck, compressed)
    with pytest.raises(FormatError, match=f"^layer 'fc': weights {re.escape(repr(shape))} is not 4 positive integers$"):
        load(patch_header(data, _fc_weights(shape)))


@pytest.mark.parametrize("d", [5, 0, -3, 10**9, True, "3", None])
def test_group_pattern_d_off_its_mask_raises_format_error(toy_cnn_hck, d):
    """The edge is checked before the mask tail is sized by it; d=5 takes the
    last 4 payload bytes as its mask, which keep 14 cells."""
    message = {5: "bad pattern: pattern must keep between 1 and d=5 positions, got 14",
               0: "pattern d=0 is not positive", -3: "pattern d=-3 is not positive",
               10**9: f"pattern d={10**9} is over the bound of {MAX_EDGE}"}.get(d, f"d {d!r} is not an integer")
    data = serialize_compressed(toy_cnn_hck)
    with pytest.raises(FormatError, match=f"^group 'conv1': {re.escape(message)}$"):
        deserialize_compressed(patch_header(data, lambda h: h["groups"][0]["pattern"].update(d=d)))


@pytest.mark.parametrize("kind", ["column", "main_diagonal", "spiral", 7])
def test_group_pattern_kind_off_its_mask_raises_format_error(toy_cnn_hck, kind):
    assert toy_cnn_hck.groups[0].pattern.kind == "row"
    data = serialize_compressed(toy_cnn_hck)
    with pytest.raises(FormatError, match="group 'conv1': bad pattern"):
        deserialize_compressed(patch_header(data, lambda h: h["groups"][0]["pattern"].update(kind=kind)))


@pytest.mark.parametrize("mask,kept", [(b"\x00\x00", 0), (b"\x0f\x00", 4), (b"\xff\x01", 9)],
                         ids=["no-cell", "d-plus-one", "every-cell"])
def test_group_mask_keeping_no_cell_or_more_than_d_raises_format_error(toy_cnn_hck, mask, kept):
    data = with_group_mask(serialize_compressed(toy_cnn_hck), "conv1", mask)
    message = f"group 'conv1': bad pattern: pattern must keep between 1 and d=3 positions, got {kept}"
    with pytest.raises(FormatError, match=f"^{message}$"):
        deserialize_compressed(data)


# ---------------------------------------------------------------------------
# hostile headers: every field type-checked, every broken invariant a FormatError
# ---------------------------------------------------------------------------

SWEEP_VALUES = (None, "x", -1, 2**40, 1.5, True, [], {})


def test_header_sweep_raises_only_format_error(toy_cnn, toy_cnn_hck):
    """Every header node of a .upaq and a .upaqc, set to each sweep value and
    deleted: each load either succeeds or raises FormatError."""
    others, sums, loads = [], [], 0
    for data, load in ((serialize_model(toy_cnn[0]), deserialize_model),
                       (serialize_compressed(toy_cnn_hck), deserialize_compressed)):
        for path, patched in header_mutations(data, SWEEP_VALUES):
            loads += 1
            try:
                load(patched)
            except FormatError as exc:
                if "CRC32" in str(exc):
                    sums.append(path)  # a patched file that stops at its checksum tests nothing
            except Exception as exc:
                others.append((path, f"{type(exc).__name__}: {exc}"))
    assert loads == 1566
    assert others == [] and sums == []


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
    # conv1's scales follow its bias, the payload's first section
    patched = splice(data, 4 * toy_cnn_hck.layers[0].bias.size, np.array([scale], dtype="<f4").tobytes())
    with pytest.raises(FormatError, match="layer 'conv1': a scale dequantizes to a non-finite weight"):
        deserialize_compressed(patched)
    cm = deserialize_compressed(data)
    assert np.abs(cm.qlayers["conv1"].q[0]).max() == 127
    cm.qlayers["conv1"].scales[0] = scale
    with pytest.raises(ValidationError, match="non-finite weight"):
        cm.validate()


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
    data, load = _container(toy_cnn, toy_cnn_hck, compressed)

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


# ---------------------------------------------------------------------------
# every section sized by the header and read end to end; one CRC32 seals the file
# ---------------------------------------------------------------------------

def _sections_end(data, compressed):
    """Where the layer sections end: at the group masks, or at the payload's end."""
    return min(at for at, _ in mask_spans(data).values()) if compressed else len(split_container(data)[2])


@pytest.mark.parametrize("compressed", [False, True], ids=["upaq", "upaqc"])
def test_a_section_that_runs_past_the_payload_raises_format_error(toy_cnn, toy_cnn_hck, compressed):
    """fc, the last layer, holds 16 bytes of bias and then 128 of weights, in
    both formats."""
    data, load = _container(toy_cnn, toy_cnn_hck, compressed)
    with pytest.raises(FormatError, match="^layer 'fc': weights section of 128 bytes runs past the 124 bytes left$"):
        load(splice(data, _sections_end(data, compressed) - 4, b"", 4))
    with pytest.raises(FormatError, match="^layer 'fc': weights section of 256 bytes runs past the 128 bytes left$"):
        load(patch_header(data, _fc_weights([4, 8, 2, 1])))


@pytest.mark.parametrize("compressed", [False, True], ids=["upaq", "upaqc"])
def test_bytes_after_the_last_section_raise_format_error(toy_cnn, toy_cnn_hck, compressed):
    data, load = _container(toy_cnn, toy_cnn_hck, compressed)
    with pytest.raises(FormatError, match="^4 payload bytes follow the last layer section$"):
        load(splice(data, _sections_end(data, compressed), bytes(4), 0))
    # fc declared 2x8 reads 64 bytes of weights and 8 of bias out of its 144
    with pytest.raises(FormatError, match="^72 payload bytes follow the last layer section$"):
        load(patch_header(data, _fc_weights([2, 8, 1, 1])))


def test_a_payload_too_short_for_its_mask_tail_raises_format_error(toy_cnn_hck):
    data = serialize_compressed(toy_cnn_hck)
    empty = splice(data, 0, b"", len(split_container(data)[2]))
    with pytest.raises(FormatError, match="^payload of 0 bytes is too short for its 2-byte group-mask tail$"):
        deserialize_compressed(empty)


@pytest.mark.parametrize("compressed", [False, True], ids=["upaq", "upaqc"])
def test_a_bias_on_a_layer_with_no_weights_raises_format_error(toy_cnn, toy_cnn_hck, compressed):
    data, load = _container(toy_cnn, toy_cnn_hck, compressed)
    with pytest.raises(FormatError, match="^layer 'relu1': has a bias but no weights$"):
        load(patch_header(data, lambda header: header["layers"][1].update(bias=True)))


def test_a_group_that_names_a_weightless_layer_does_not_load(toy_cnn_hck):
    """relu1 named a leaf of conv1's group, with conv1's shape and a copy of
    its scales and packed integers after conv1's sections: the payload reads
    end to end, and the loader refuses the weights on a relu."""
    qc = toy_cnn_hck.qlayers["conv1"]
    section = _f32_bytes(qc.scales) + pack_slots(qc.q, stored_slots(qc.shape, qc.pattern), qc.bitwidth)
    at = 4 * qc.shape[0] + len(section)  # after conv1's bias and weights sections

    def name_relu1(header):
        header["layers"][1]["weights"] = list(qc.shape)
        header["groups"][0]["leaves"].append("relu1")

    crafted = patch_header(splice(serialize_compressed(toy_cnn_hck), at, section, 0), name_relu1)
    with pytest.raises(FormatError, match="^layer 'relu1': relu must not carry weights$"):
        deserialize_compressed(crafted)
    no_payload = patch_header(serialize_compressed(toy_cnn_hck), lambda h: h["groups"][0]["leaves"].append("relu1"))
    with pytest.raises(FormatError, match="^group member 'relu1' has no quantized payload$"):
        deserialize_compressed(no_payload)


@pytest.mark.parametrize("compressed", [False, True], ids=["upaq", "upaqc"])
def test_a_file_that_fails_its_crc_raises_format_error(toy_cnn, toy_cnn_hck, compressed):
    data, load = _container(toy_cnn, toy_cnn_hck, compressed)
    assert data[9:13] == zlib.crc32(data[13:]).to_bytes(4, "little")  # the header and payload, after the preamble
    what = "compressed model" if compressed else "dense model"
    for at in (9, 13, len(data) - 1):  # the CRC itself, the header's first byte, the payload's last
        bad = bytearray(data)
        bad[at] ^= 1
        with pytest.raises(FormatError, match=f"^{what} container is corrupt or truncated: its CRC32 does not match$"):
            load(bytes(bad))


@pytest.mark.parametrize("compressed", [False, True], ids=["upaq", "upaqc"])
@pytest.mark.parametrize("how", ["preamble", "header", "payload", "cut", "extend"])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_no_flip_cut_or_extension_of_a_container_loads(toy_cnn, toy_cnn_hck, compressed, how, draw):
    """One to three bits flipped in the preamble, the header or the payload,
    the file cut short, or bytes appended: each raises FormatError alone."""
    data, load = _container(toy_cnn, toy_cnn_hck, compressed)
    header_end = len(data) - len(split_container(data)[2])
    if how == "cut":
        bad = data[:draw.draw(st.integers(0, len(data) - 1), label="length")]
    elif how == "extend":
        bad = data + draw.draw(st.binary(min_size=1, max_size=16), label="tail")
    else:
        lo, hi = {"preamble": (0, 13), "header": (13, header_end), "payload": (header_end, len(data))}[how]
        bad = bytearray(data)
        for bit in draw.draw(st.sets(st.integers(8 * lo, 8 * hi - 1), min_size=1, max_size=3), label="bits"):
            bad[bit // 8] ^= 1 << bit % 8
    with pytest.raises(FormatError):
        load(bytes(bad))


def _mask_bits(pattern):
    """A pattern's mask bytes, set bit by bit: cell ``r*d+c`` is bit ``(r*d+c) % 8``
    of byte ``(r*d+c) // 8``."""
    cells = [r * pattern.d + c for r, c in pattern.positions]
    return bytes(sum(1 << cell % 8 for cell in cells if cell // 8 == i) for i in range(-(-pattern.d ** 2 // 8)))


def _f32_bytes(array):
    return b"" if array is None else np.asarray(array, dtype="<f4").tobytes()


@pytest.mark.parametrize("arch", ["toy-cnn", "toy-residual", "toy-1x1"])
@pytest.mark.parametrize("profile", [None, upaq.hck_profile, upaq.lck_profile], ids=["dense", "hck", "lck"])
def test_the_payload_is_its_sections_end_to_end(arch, profile):
    """The payload holds the sections its header sizes, in the documented order
    and nothing else, the same in both formats: per layer the bias, then dense
    weights or the scales and packed integers; a .upaqc then every group mask."""
    model = upaq.gen_fixture(arch, 42)[0]
    cm = None if profile is None else upaq.compress_model(model, profile(seed=42))
    data = serialize_model(model) if cm is None else serialize_compressed(cm)
    parts = []
    for layer in model.layers if cm is None else cm.layers:
        parts.append(_f32_bytes(layer.bias))
        if cm is not None and layer.id in cm.qlayers:
            qc = cm.qlayers[layer.id]
            values = stored_values_reference(qc.q.reshape(-1)[:np.prod(qc.shape)].reshape(qc.shape), qc.pattern)
            parts += [_f32_bytes(qc.scales), b"".join(pack_ints(row, qc.bitwidth) for row in values)]
        elif layer.weights is not None:
            parts.append(_f32_bytes(layer.weights.data))
    parts += [] if cm is None else [_mask_bits(group.pattern) for group in cm.groups]
    assert split_container(data)[2] == b"".join(parts)
