"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

import hashlib
import math
import time

import numpy as np

import upaq
from conftest import single_conv_model
from oracles import recount_compressed_payload, recount_dense_payload
from upaq.cli import main
from upaq.compressed import CompressedGroup, CompressedModel, CompressionProfile, QuantizedConv, slice_stack, unstack
from upaq.compressor import _search_group, calculate_es
from upaq.container import save_compressed, save_model
from upaq.cost import layer_costs, model_cost, sum_costs
from upaq.grouping import find_root_groups
from upaq.model import LayerSpec, ModelGraph, Tensor4
from upaq.patterns import enumerate_all_patterns, generate_pattern, split_seed
from upaq.quantizer import quantize_slices


def _report(num, text):
    print(f"[acceptance] criterion {num}: PASS - {text}")


# ---------------------------------------------------------------------------
# 1. pattern suite
# ---------------------------------------------------------------------------

def test_criterion_1_pattern_suite():
    t0 = time.perf_counter()
    assert len(enumerate_all_patterns(3, 3)) == 8
    assert len(enumerate_all_patterns(2, 3)) == 14
    for d in range(1, 8):
        for n in range(1, d + 1):
            pats = enumerate_all_patterns(n, d)
            # independent closed form: dedup the generator's reachable set
            reachable = set()
            reachable.add(tuple((i, i) for i in range(n)))
            reachable.add(tuple((i, d - 1 - i) for i in range(n)))
            for line in range(d):
                for start in range(d - n + 1):
                    reachable.add(tuple((line, start + i) for i in range(n)))
                    reachable.add(tuple((start + i, line) for i in range(n)))
            assert {p.positions for p in pats} == reachable
            assert len(pats) == len(reachable)

            universe = reachable
            for seed in range(1000):
                rng = np.random.default_rng([n, d, seed])
                pat = generate_pattern(n, d, rng)
                # invariants, checked from scratch
                assert len(pat.positions) == min(n, d) == n
                assert len(set(pat.positions)) == n
                assert all(0 <= r < d and 0 <= c < d for r, c in pat.positions)
                if pat.kind == "main_diagonal":
                    assert pat.positions == tuple((i, i) for i in range(n))
                elif pat.kind == "anti_diagonal":
                    assert pat.positions == tuple((i, d - 1 - i) for i in range(n))
                elif pat.kind == "row":
                    rows = {r for r, _ in pat.positions}
                    cols = [c for _, c in pat.positions]
                    assert len(rows) == 1 and cols == list(range(cols[0], cols[0] + n))
                else:
                    cols = {c for _, c in pat.positions}
                    rows = [r for r, _ in pat.positions]
                    assert len(cols) == 1 and rows == list(range(rows[0], rows[0] + n))
                assert pat.positions in universe
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"pattern suite took {elapsed:.1f}s"
    _report(1, f"28 (n,d) combos x 1000 seeds in {elapsed:.1f}s, counts match closed form")


# ---------------------------------------------------------------------------
# 2. quantizer suite
# ---------------------------------------------------------------------------

def test_criterion_2_quantizer_suite():
    from oracles import quantize_reference

    t0 = time.perf_counter()
    q_ref, scale_ref, _ = quantize_reference([1.0, -2.0, 0.5, 0.0], 8)
    assert q_ref == [64, -127, 32, 0]
    q, scale, _, _, _ = quantize_slices(np.array([[[1.0, -2.0], [0.5, 0.0]]], dtype=np.float32), 8)
    assert q[0].reshape(-1).tolist() == q_ref and scale[0] == scale_ref

    rng = np.random.default_rng(20240)
    for bits in (4, 8, 16):
        for _ in range(10_000):
            d = int(rng.integers(2, 6))
            # max-abs <= 1 keeps the f32 dequantize representation error
            # strictly under the 1e-7 slack of the stated bound
            x = (rng.uniform(-1.0, 1.0, (d, d)) * rng.uniform(0.05, 1.0)).astype(np.float32)
            q, scale, sqnr_linear, _, _ = quantize_slices(x[None], bits)
            q, scale, sqnr_linear = q[0], float(scale[0]), float(sqnr_linear[0])
            xhat = (q * np.float64(scale)).astype(np.float32).astype(np.float64)
            assert np.all(np.abs(x.astype(np.float64) - xhat) <= scale / 2.0 + 1e-7)
            floor = float(np.var(x.astype(np.float64))) / (scale / 2.0) ** 2
            assert sqnr_linear >= floor * (1.0 - 1e-9)
            assert np.array_equal(quantize_slices(-x[None], bits)[0][0], -q)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"quantizer suite took {elapsed:.1f}s"
    _report(2, f"round-trip bound, SQNR floor, symmetry over 3x10^4 slices in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. oracle equivalence (exhaustive search vs brute force)
# ---------------------------------------------------------------------------

def test_criterion_3_oracle_equivalence():
    t0 = time.perf_counter()
    model = single_conv_model(seed=42)
    profile = CompressionProfile(
        name="hck", quant_bits=(4, 8, 16), seed=42, exhaustive=True,
    )
    cm = upaq.compress_model(model, profile)
    (decision,) = cm.groups

    # brute force: own loops, own masking, own argmax; scoring primitives
    # shared.  Each candidate is costed as the model that ships it: the root's
    # payload in a compressed model holding one group with no leaves.
    baseline = model_cost(model)
    weights = model.by_id("conv").weights
    layer = model.by_id("conv").copy()
    layer.weights = None
    best = None
    for pattern in enumerate_all_patterns(2, 3):
        for bits in (4, 8, 16):
            dbs = []
            q = np.zeros(weights.shape, dtype=np.int32)
            scales = np.zeros((weights.out_ch, weights.in_ch))
            for o in range(weights.out_ch):
                for i in range(weights.in_ch):
                    masked = np.zeros((3, 3), dtype=np.float32)
                    for r, c in pattern.positions:
                        masked[r, c] = weights.data[o, i, r, c]
                    res_q, res_scale, _, res_db, _ = quantize_slices(masked[None], bits, pattern.mask())
                    dbs.append(float(res_db[0]))
                    q[o, i], scales[o, i] = res_q[0], res_scale[0]
            shipped = CompressedModel(
                name=model.name, input_shape=model.input_shape, layers=[layer],
                groups=[CompressedGroup("conv", (), pattern, bits)],
                qlayers={"conv": QuantizedConv(weights.shape, bits, q.reshape(-1, 9), scales.reshape(-1), pattern)},
                profile=cm.profile,
            )
            shipped.validate()
            candidate = model_cost(shipped)
            es = calculate_es(sum(dbs) / len(dbs), candidate, baseline, profile.es_weights)
            if best is None or es.total > best[2]:
                best = (pattern, bits, es.total)

    assert cm.groups[0].pattern.positions == best[0].positions
    assert cm.groups[0].bitwidth == best[1]
    assert decision.pattern.positions == best[0].positions
    assert decision.bitwidth == best[1]
    assert decision.score.total == best[2]  # bit-equal
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.1f}s"
    _report(3, f"exhaustive search == brute force: {best[0].kind} @ {best[1]}-bit, Es bit-equal")


# ---------------------------------------------------------------------------
# 4. structural invariants on toy-residual + HCK
# ---------------------------------------------------------------------------

def test_criterion_4_residual_structure():
    model, _ = upaq.gen_fixture("toy-residual", 42)
    cm = upaq.compress_model(model, upaq.hck_profile(seed=42))
    assert [(g.root_id, g.leaf_ids) for g in cm.groups] == [("conv_a", ("conv_b", "conv_c"))]
    group = cm.groups[0]
    assert group.bitwidth in (4, 8)
    mask = group.pattern.mask()
    assert group.pattern.n == 2
    for member in group.member_ids:
        qc = cm.qlayers[member]
        assert qc.bitwidth == group.bitwidth
        slices = qc.q.reshape(-1, 3, 3)
        assert not slices[:, ~mask].any()  # exactly the 2 pattern cells may be nonzero
    _report(4, "one group {conv_a; [conv_b, conv_c]}, shared pattern (n=2) and bitwidth in {4,8}")


# ---------------------------------------------------------------------------
# 5. compression ratio with independent byte recount
# ---------------------------------------------------------------------------

def test_criterion_5_compression_ratio(tmp_path):
    model, _ = upaq.gen_fixture("toy-cnn", 42)
    base_path = tmp_path / "toy-cnn.upaq"
    save_model(model, base_path)
    dense_bytes = recount_dense_payload(base_path)

    ratios = {}
    for name, profile in (("hck", upaq.hck_profile(seed=42)), ("lck", upaq.lck_profile(seed=42))):
        cm = upaq.compress_model(model, profile)
        path = tmp_path / f"{name}.upaqc"
        save_compressed(cm, path)
        reported = upaq.compression_ratio(
            upaq.container.dense_payload_nbytes(model),
            upaq.container.compressed_payload_nbytes(cm),
        )
        recounted = dense_bytes / recount_compressed_payload(path)
        assert reported == recounted  # exact, same division of identical ints
        ratios[name] = reported
    assert ratios["hck"] >= 4.0
    assert ratios["lck"] >= 2.0
    _report(5, f"byte-recounted ratios: HCK {ratios['hck']:.2f}x >= 4.0, LCK {ratios['lck']:.2f}x >= 2.0")


# ---------------------------------------------------------------------------
# 6. cost model exactness
# ---------------------------------------------------------------------------

def _nnz_conv(lid, out_ch, in_ch, nnz, inputs=()):
    w = np.zeros((out_ch, in_ch, 3, 3), dtype=np.float32)
    for o in range(out_ch):
        for i in range(in_ch):
            w[o, i].reshape(-1)[:nnz] = 0.5
    return LayerSpec(lid, "conv2d", inputs, Tensor4(w), None, 1, 1)


def test_criterion_6_cost_model():
    layers = [_nnz_conv("a", 2, 2, 5), _nnz_conv("b", 2, 2, 5, ("a",))]
    model = ModelGraph("cost", (2, 8, 8), layers)
    model.validate()
    summary = upaq.computational_cost(model)
    assert (summary.conv_layers, summary.mean_kernels_per_layer, summary.mean_nnz_per_kernel) == (2, 4.0, 5.0)
    assert summary.product == 40.0

    full = ModelGraph("f", (2, 8, 8), [_nnz_conv("a", 2, 2, 8)])
    half = ModelGraph("h", (2, 8, 8), [_nnz_conv("a", 2, 2, 4)])
    full.validate(), half.validate()
    assert model_cost(half).latency == model_cost(full).latency / 2.0

    nnz, _, oh, ow = layer_costs(full)["a"]
    assert sum_costs({**layer_costs(full), "a": (nnz, 8, oh, ow)}).latency == model_cost(full).latency * 0.25
    _report(6, "product (2,4,5)->40, nnz halving halves latency, 8/32-bit factor 0.25, all exact")


# ---------------------------------------------------------------------------
# 7. fidelity ordering LCK vs HCK
# ---------------------------------------------------------------------------

def test_criterion_7_fidelity_ordering():
    model, inputs = upaq.gen_fixture("toy-cnn", 42)
    assert len(inputs) == 64
    hck = upaq.evaluate_fidelity(model, upaq.compress_model(model, upaq.hck_profile(seed=42)), inputs)
    lck = upaq.evaluate_fidelity(model, upaq.compress_model(model, upaq.lck_profile(seed=42)), inputs)
    assert lck.mean_rel_err <= hck.mean_rel_err
    assert lck.top1_agreement >= hck.top1_agreement
    _report(7, f"LCK err {lck.mean_rel_err:.3f} <= HCK {hck.mean_rel_err:.3f}; "
               f"LCK top1 {lck.top1_agreement:.2f} >= HCK {hck.top1_agreement:.2f}")


# ---------------------------------------------------------------------------
# 8. a group's decision does not depend on the other groups
# ---------------------------------------------------------------------------

def test_criterion_8_group_independence(tmp_path):
    model, _ = upaq.gen_fixture("toy-1x1", 42)
    groups = find_root_groups(model)
    assert len(groups) == 2
    for profile in (upaq.hck_profile(seed=42), upaq.lck_profile(seed=42)):
        cm = upaq.compress_model(model, profile)
        # each group searched on its own, last group first
        for group, dec in reversed(list(zip(groups, cm.groups))):
            rng = np.random.default_rng(split_seed(profile.seed, group.root_id))
            alone, _ = _search_group(group, model, profile, rng, layer_costs(model))
            assert (alone.root_id, alone.pattern, alone.bitwidth) == (dec.root_id, dec.pattern, dec.bitwidth)
            assert alone.score.total == dec.score.total  # bit-equal

    out_dir = tmp_path / "fx"
    assert main(["gen-fixture", "toy-1x1", "--seed", "42", "-o", str(out_dir)]) == 0
    model_path = out_dir / "toy-1x1.upaq"
    digests = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.upaqc"
        assert main(["compress", str(model_path), "-o", str(out),
                     "--profile", "hck", "--seed", "42", "--patterns", "16"]) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]
    _report(8, f"2 groups x hck/lck searched alone == in compress; sha256 {digests[0][:16]}... "
               "identical across two compresses")


# ---------------------------------------------------------------------------
# 9. 1x1 block transformation round trip
# ---------------------------------------------------------------------------

def test_criterion_9_block_transform_roundtrip():
    rng = np.random.default_rng(99)
    checked_remainders = 0
    for trial in range(1000):
        out_ch = int(rng.integers(1, 13))
        in_ch = int(rng.integers(1, 13))
        count = out_ch * in_ch
        w = Tensor4(rng.normal(size=(out_ch, in_ch, 1, 1)).astype(np.float32))
        blocks = slice_stack(w.data, 3)
        assert blocks.shape == (math.ceil(count / 9), 3, 3)
        flat = unstack(blocks, w.shape)
        assert np.array_equal(flat, w.data)  # exact
        if count % 9:
            checked_remainders += 1
            pad = blocks.reshape(-1)[count:]
            assert not pad.any()

        n = int(rng.integers(1, 4))
        pattern = generate_pattern(n, 3, rng)
        keep = {r * 3 + c for r, c in pattern.positions}
        masked = []
        for b in blocks:
            m = np.zeros_like(b)
            for r, c in pattern.positions:
                m[r, c] = b[r, c]
            masked.append(m)
        pruned = unstack(np.stack(masked), w.shape).reshape(-1)
        src = w.data.reshape(-1)
        for f in range(count):
            expect = src[f] if f % 9 in keep else 0.0
            assert pruned[f] == expect
    assert checked_remainders > 0
    _report(9, f"1000 round trips exact ({checked_remainders} with remainder blocks), pruned mapping verified")
