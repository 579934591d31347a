import json

import numpy as np
import pytest

import upaq
from upaq.compressed import CompressedGroup, CompressedModel, ProfileInfo, QuantizedConv
from upaq.container import compressed_payload_nbytes, dense_payload_nbytes
from upaq.cost import compression_ratio
from upaq.errors import ValidationError
from conftest import copy_model, run_every, single_conv_model, wide_model
from oracles import recount_payload_nbytes
from upaq.evaluate import evaluate_fidelity, model_sqnr_db, payload_sqnr_db
from upaq.model import LayerSpec, ModelGraph, Tensor4
from upaq.patterns import KernelPattern
from upaq.quantizer import SQNR_CAP_DB, quantize_slices


def _lossless_pair(seed=51):
    """A model whose weights already sit on a diagonal pattern at exact
    quantization points, so compression is lossless and SQNR saturates."""
    rng = np.random.default_rng(seed)
    w = np.zeros((2, 1, 3, 3), dtype=np.float32)
    for o in range(2):
        for i in range(3):
            w[o, 0, i, i] = 1.0 if rng.integers(0, 2) else -1.0
    layers = [
        LayerSpec("c", "conv2d", (), Tensor4(w), np.zeros(2, dtype=np.float32), 1, 1),
        LayerSpec("g", "global_avg_pool", ("c",)),
    ]
    base = ModelGraph("lossless", (1, 6, 6), layers)
    base.validate()

    pattern = KernelPattern("main_diagonal", 3, ((0, 0), (1, 1), (2, 2)))
    bits = 8
    q = np.zeros_like(w, dtype=np.int32)
    scales = np.empty(2, dtype=np.float32)
    for s in range(2):
        qs, scale, _, _, _ = quantize_slices(w[s, 0][None], bits)
        q[s, 0] = qs[0]
        scales[s] = scale[0]
    cm = CompressedModel(
        name="lossless",
        input_shape=(1, 6, 6),
        layers=[
            LayerSpec("c", "conv2d", (), None, np.zeros(2, dtype=np.float32), 1, 1),
            LayerSpec("g", "global_avg_pool", ("c",)),
        ],
        groups=[CompressedGroup("c", (), pattern, bits)],
        qlayers={"c": QuantizedConv((2, 1, 3, 3), bits, q, scales)},
        profile=ProfileInfo("custom", (8,), (0.3, 0.4, 0.3), 0, 1, True),
        base_payload_nbytes=dense_payload_nbytes(base),
    )
    cm.validate()
    inputs = rng.uniform(-1, 1, (10, 1, 6, 6)).astype(np.float32)
    return base, cm, inputs


def test_lossless_compression_reports_identity():
    base, cm, inputs = _lossless_pair()
    report = evaluate_fidelity(base, cm, inputs)
    assert report.mean_rel_err <= 1e-6
    assert report.top1_agreement == 1.0
    assert report.cosine_sim == pytest.approx(1.0, abs=1e-9)
    assert model_sqnr_db(base, cm) == SQNR_CAP_DB


def test_lck_beats_hck_on_fixture(toy_cnn, toy_cnn_hck, toy_cnn_lck):
    model, inputs = toy_cnn
    hck = evaluate_fidelity(model, toy_cnn_hck, inputs)
    lck = evaluate_fidelity(model, toy_cnn_lck, inputs)
    assert lck.mean_rel_err <= hck.mean_rel_err
    assert lck.top1_agreement >= hck.top1_agreement


def test_ratio_single_source_of_truth(toy_cnn, toy_cnn_hck):
    model, inputs = toy_cnn
    report = evaluate_fidelity(model, toy_cnn_hck, inputs[:4])
    expected = compression_ratio(dense_payload_nbytes(model), compressed_payload_nbytes(toy_cnn_hck))
    assert report.compression_ratio == expected


def test_payload_recount_invariant(toy_cnn_hck, toy_cnn_lck):
    for cm in (toy_cnn_hck, toy_cnn_lck):
        assert recount_payload_nbytes(cm) == compressed_payload_nbytes(cm)


def test_mismatched_input_shape_rejected(toy_cnn, toy_cnn_hck):
    model, _ = toy_cnn
    bad = np.zeros((1, 2, 16, 16), dtype=np.float32)
    with pytest.raises(ValidationError, match=r"input shape \(2, 16, 16\) does not match"):
        evaluate_fidelity(model, toy_cnn_hck, bad)


def test_empty_input_set_rejected(toy_cnn, toy_cnn_hck):
    model, _ = toy_cnn
    with pytest.raises(ValidationError, match="at least one input"):
        evaluate_fidelity(model, toy_cnn_hck, np.empty((0, 1, 16, 16), dtype=np.float32))


def test_report_serializes_to_json(toy_cnn, toy_cnn_hck):
    model, inputs = toy_cnn
    report = evaluate_fidelity(model, toy_cnn_hck, inputs[:2])
    parsed = json.loads(report.to_json())
    assert parsed["n_inputs"] == 2
    assert set(parsed) == {
        "mean_rel_err", "top1_agreement", "cosine_sim", "compression_ratio",
        "latency_units_base", "latency_units_compressed",
        "energy_units_base", "energy_units_compressed", "es_total", "n_inputs",
    }


def test_report_metrics_recomputable_from_run_blobs(tmp_path, toy_cnn, toy_cnn_hck):
    from upaq.cli import main
    from upaq.container import save_compressed, save_model
    from upaq.inference import save_activations

    model, inputs = toy_cnn
    save_model(model, tmp_path / "m.upaq")
    save_compressed(toy_cnn_hck, tmp_path / "m.upaqc")
    save_activations(tmp_path / "in.bin", inputs[:16])
    assert main(["run", str(tmp_path / "m.upaq"), "--inputs", str(tmp_path / "in.bin"),
                 "--out", str(tmp_path / "base.bin")]) == 0
    assert main(["run", str(tmp_path / "m.upaqc"), "--inputs", str(tmp_path / "in.bin"),
                 "--out", str(tmp_path / "comp.bin")]) == 0

    yb = np.frombuffer((tmp_path / "base.bin").read_bytes(), dtype="<f4").reshape(16, -1).astype(np.float64)
    yc = np.frombuffer((tmp_path / "comp.bin").read_bytes(), dtype="<f4").reshape(16, -1).astype(np.float64)
    rel = [np.linalg.norm(c - b) / np.linalg.norm(b) for b, c in zip(yb, yc)]
    top1 = np.mean([np.argmax(b) == np.argmax(c) for b, c in zip(yb, yc)])
    cos = [float(b @ c) / (np.linalg.norm(b) * np.linalg.norm(c)) for b, c in zip(yb, yc)]

    report = evaluate_fidelity(model, toy_cnn_hck, inputs[:16])
    assert report.mean_rel_err == pytest.approx(np.mean(rel), abs=1e-9)
    assert report.top1_agreement == pytest.approx(top1, abs=0)
    assert report.cosine_sim == pytest.approx(np.mean(cos), abs=1e-9)


@pytest.mark.parametrize("arch, profile", [("toy-cnn", upaq.hck_profile), ("toy-residual", upaq.lck_profile),
                                           ("toy-1x1", upaq.hck_profile)], ids=["toy-cnn", "toy-residual", "toy-1x1"])
def test_report_figures_bit_equal_a_per_input_recomputation(arch, profile):
    model, inputs = upaq.gen_fixture(arch, 42)
    cm = upaq.compress_model(model, profile(seed=42))
    base_out = run_every(model, inputs)
    comp_out = run_every(upaq.decompress_model(cm), inputs)
    rel, cos, agree = [], [], 0
    for b, c in zip(base_out, comp_out):
        yb, yc = b.reshape(-1).astype(np.float64), c.reshape(-1).astype(np.float64)
        rel.append(float(np.linalg.norm(yc - yb)) / float(np.linalg.norm(yb)))
        cos.append(float(np.dot(yb, yc)) / (float(np.linalg.norm(yb)) * float(np.linalg.norm(yc))))
        agree += int(np.argmax(yb)) == int(np.argmax(yc))
    report = evaluate_fidelity(model, cm, inputs)
    assert report.mean_rel_err == float(np.mean(rel))
    assert report.cosine_sim == float(np.mean(cos))
    assert report.top1_agreement == agree / len(inputs)
    # the same figures from a float64 copy of the batch, which the engine reads as float32
    assert evaluate_fidelity(model, cm, inputs.astype(np.float64)) == report


def _padded_variance(values, zeros):
    """Population variance of ``values`` plus ``zeros`` zero cells, in plain
    Python: each sum taken left to right, the zero cells' squared deviations
    added after the kept cells'."""
    cells = len(values) + zeros
    total = values[0]
    for v in values[1:]:
        total += v
    mean = total / cells
    sq = (values[0] - mean) * (values[0] - mean)
    for v in values[1:]:
        sq += (v - mean) * (v - mean)
    return (sq + zeros * (mean * mean)) / cells


def _slice_sqnr_db_loop(base, cm):
    """Slice-by-slice SQNR (dB) of every compressed layer, in
    :func:`model_sqnr_db`'s order: each slice's kept cells and their
    reconstruction errors, scored one slice at a time.  The variances and
    their capped ratio are plain Python; the dB are one ``np.log10`` over
    the ratios, as in the package, since ``math.log10`` may round the last
    bit differently."""
    from upaq.compressed import dequantized_weights

    linear, floor = [], []
    for group in cm.groups:
        d = group.pattern.d
        for member in group.member_ids:
            w = base.by_id(member).weights
            qc = cm.qlayers[member]
            deq = dequantized_weights(qc, d)
            if (w.kh, w.kw) == (d, d):
                pairs = [(w.data[o, i], deq[o, i]) for o in range(w.out_ch) for i in range(w.in_ch)]
            else:  # a 1x1 layer: zero-padded d x d blocks of the flat weights
                blocks = []
                for arr in (w.data, deq):
                    flat = np.zeros(qc.scales.size * d * d, dtype=np.float32)
                    flat[: arr.size] = arr.reshape(-1)
                    blocks.append(flat.reshape(-1, d, d))
                pairs = list(zip(*blocks))
            cells = sorted(group.pattern.positions)  # row-major: the order the rule sums in
            zeros = d * d - len(cells)
            for sl, rec in pairs:
                x = [float(sl[r, c]) for r, c in cells]
                err = [v - float(rec[r, c]) for v, (r, c) in zip(x, cells)]
                err_var = _padded_variance(err, zeros)
                floor.append(err_var < 1e-30)
                linear.append(1e12 if floor[-1] else min(_padded_variance(x, zeros) / err_var, 1e12))
    with np.errstate(divide="ignore"):  # a zero signal over a live error is -inf dB
        db = 10.0 * np.log10(np.array(linear))
    return np.where(floor, SQNR_CAP_DB, db).tolist()


def test_model_sqnr_db_equals_slice_loop(toy_cnn, toy_residual, toy_1x1):
    from upaq.compressor import compress_model, hck_profile, lck_profile

    def per_slice(base, cm):
        return np.concatenate([payload_sqnr_db(base.by_id(m).weights.data, cm.qlayers[m], g.pattern)
                               for g in cm.groups for m in g.member_ids]).tolist()

    for model, _ in (toy_cnn, toy_residual, toy_1x1):
        for profile in (hck_profile, lck_profile):
            cm = compress_model(model, profile(seed=42))
            loop = _slice_sqnr_db_loop(model, cm)
            assert per_slice(model, cm) == loop
            assert model_sqnr_db(model, cm) == float(np.mean(loop))
    base, lossless, _ = _lossless_pair()
    assert per_slice(base, lossless) == _slice_sqnr_db_loop(base, lossless)
    assert model_sqnr_db(base, lossless) == SQNR_CAP_DB


def test_model_sqnr_db_rejects_mismatched_base(toy_cnn, toy_cnn_hck):
    model, _ = toy_cnn
    other = copy_model(model)
    root = other.by_id(toy_cnn_hck.groups[0].root_id)
    root.weights = Tensor4(root.weights.data[:1])  # one out-channel fewer than the payload
    with pytest.raises(ValidationError, match="base weights"):
        model_sqnr_db(other, toy_cnn_hck)


@pytest.mark.parametrize("arch", ["toy-cnn", "toy-residual", "toy-1x1", "wide"])
def test_winner_sqnr_term_is_the_payload_sqnr(arch):
    """Each group's winning SQNR term is bit-equal to the SQNR the one rule
    recomputes from its root's payload in the saved and loaded container,
    capped at 120 dB and divided by 40."""
    from upaq.compressor import compress_with_decisions, hck_profile, lck_profile
    from upaq.container import deserialize_compressed, serialize_compressed

    model = wide_model() if arch == "wide" else upaq.gen_fixture(arch, 42)[0]
    for profile in (hck_profile, lck_profile):
        for exhaustive in (False, True):
            cm, decisions = compress_with_decisions(model, profile(seed=42, exhaustive=exhaustive))
            loaded = deserialize_compressed(serialize_compressed(cm))
            for dec in decisions:
                pattern = loaded.group_for(dec.root_id).pattern
                sqnr_db = payload_sqnr_db(model.by_id(dec.root_id).weights.data, loaded.qlayers[dec.root_id], pattern)
                assert dec.score.sqnr_term == min(float(np.mean(sqnr_db)), 120.0) / 40.0


def test_winner_sqnr_term_is_the_payload_sqnr_on_a_lone_9x9_slice():
    """A 1->1 9x9 conv keeping all 9 cells of a line under one candidate
    mask is scored as a single 9-cell slice-mask column: there numpy sums
    pairwise unless the scorer keeps the strict row order, and the winner's
    SQNR term would drift from the payload's in the last bit."""
    from upaq.compressor import CompressionProfile, compress_with_decisions

    for seed in range(48):
        model = single_conv_model(seed=seed, out_ch=1, in_ch=1, k=9)
        profile = CompressionProfile(name="lck", quant_bits=(8, 16), n_map={9: 9}, candidates=1, seed=seed)
        cm, (dec,) = compress_with_decisions(model, profile)
        sqnr_db = payload_sqnr_db(model.by_id("conv").weights.data, cm.qlayers["conv"], cm.group_for("conv").pattern)
        assert dec.score.sqnr_term == min(float(np.mean(sqnr_db)), 120.0) / 40.0
