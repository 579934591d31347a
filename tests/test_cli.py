import json
import struct

import pytest

from conftest import patch_header, run_every
from upaq.cli import main


def _gen(tmp_path, arch="toy-cnn", seed=42):
    out = tmp_path / arch
    assert main(["gen-fixture", arch, "--seed", str(seed), "-o", str(out)]) == 0
    return out / f"{arch}.upaq", out / "inputs.bin"


def test_gen_fixture_is_deterministic(tmp_path, capsys):
    p1, i1 = _gen(tmp_path / "a")
    p2, i2 = _gen(tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()
    assert i1.read_bytes() == i2.read_bytes()
    sidecar = json.loads((i1.parent / "inputs.bin.json").read_text())
    assert sidecar == {"count": 64, "shape": [1, 16, 16]}


def test_compress_run_evaluate_inspect_pipeline(tmp_path, capsys):
    model_path, inputs_path = _gen(tmp_path)
    capsys.readouterr()  # drop the gen-fixture summary
    out_model = tmp_path / "toy.upaqc"
    report_path = tmp_path / "report.json"
    rc = main([
        "compress", str(model_path), "-o", str(out_model),
        "--profile", "hck", "--seed", "42", "--report", str(report_path),
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["compression_ratio"] >= 4.0
    assert report["groups"][0]["root"] == "conv1"
    es = report["groups"][0]["es"]
    assert set(es) == {"sqnr_term", "latency_term", "energy_term", "total"}
    assert json.loads(report_path.read_text()) == report

    out_blob = tmp_path / "outputs.bin"
    assert main(["run", str(out_model), "--inputs", str(inputs_path), "--out", str(out_blob)]) == 0
    run_info = json.loads(capsys.readouterr().out)
    assert run_info["inputs"] == 64
    assert out_blob.exists() and (tmp_path / "outputs.bin.json").exists()

    assert main(["evaluate", str(model_path), str(out_model), "--inputs", str(inputs_path)]) == 0
    fidelity = json.loads(capsys.readouterr().out)
    assert fidelity["n_inputs"] == 64
    assert fidelity["compression_ratio"] == report["compression_ratio"]

    assert main(["inspect", str(model_path), "--groups"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert lines == [{"root": "conv1", "leaves": ["conv2", "conv3"]}]

    assert main(["inspect", str(out_model)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["format"] == "upaqc"
    assert summary["compression_ratio"] == report["compression_ratio"]


def test_exhaustive_pattern_flag(tmp_path, capsys):
    model_path, _ = _gen(tmp_path)
    capsys.readouterr()
    out = tmp_path / "all.upaqc"
    assert main(["compress", str(model_path), "-o", str(out), "--patterns", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["patterns"] == "all"


def test_missing_file_exits_1(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "missing.upaq")]) == 1
    assert main(["compress", str(tmp_path / "missing.upaq"), "-o", str(tmp_path / "x.upaqc")]) == 1


def test_corrupt_file_exits_1(tmp_path, capsys):
    _, inputs_path = _gen(tmp_path)
    bad = tmp_path / "bad.upaq"
    bad.write_bytes(b"not a container at all")
    for argv in (["inspect", str(bad)], ["run", str(bad), "--inputs", str(inputs_path), "--out", str(tmp_path / "y.bin")]):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"upaq: error: {bad}: unrecognized magic b'not a'\n"


def test_truncated_file_exits_1(tmp_path, capsys):
    model_path, _ = _gen(tmp_path)
    data = model_path.read_bytes()
    clipped = tmp_path / "clipped.upaq"
    clipped.write_bytes(data[:-16])
    assert main(["run", str(clipped), "--inputs", "x", "--out", "y"]) == 1


def test_bad_bitwidth_in_compressed_file_exits_1(tmp_path, capsys):
    model_path, inputs_path = _gen(tmp_path, arch="toy-1x1")
    good = tmp_path / "good.upaqc"
    assert main(["compress", str(model_path), "-o", str(good)]) == 0

    def zero_bits(header):
        header["layers"][0]["quantized"]["bitwidth"] = 0

    bad = tmp_path / "bad.upaqc"
    bad.write_bytes(patch_header(good.read_bytes(), zero_bits))
    capsys.readouterr()
    assert main(["run", str(bad), "--inputs", str(inputs_path), "--out", str(tmp_path / "y.bin")]) == 1
    assert "bitwidth 0" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda p: p.update(d=5),  # 25 cells do not fit the 2-byte mask
    lambda p: p.update(d="3"),
    lambda p: p.update(kind="column"),  # the mask's cells are one row's
], ids=["d5", "d-str", "kind"])
def test_bad_group_pattern_exits_1(tmp_path, capsys, edit):
    model_path, _ = _gen(tmp_path)
    capsys.readouterr()
    good = tmp_path / "good.upaqc"
    assert main(["compress", str(model_path), "-o", str(good), "--profile", "hck", "--seed", "42"]) == 0
    assert json.loads(capsys.readouterr().out)["groups"][0]["pattern"]["kind"] == "row"
    bad = tmp_path / "bad.upaqc"
    bad.write_bytes(patch_header(good.read_bytes(), lambda h: edit(h["groups"][0]["pattern"])))
    assert main(["inspect", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("upaq: error: group 'conv1'") and "Traceback" not in err


def _non_object_header(data):
    (hlen,) = struct.unpack("<I", data[5:9])
    return data[:5] + struct.pack("<I", 2) + b"[]" + data[9 + hlen:]


def _short_bias(data):
    def edit(header):
        header["layers"][-1]["bias"]["nbytes"] -= 1
    return patch_header(data, edit)


@pytest.mark.parametrize("compressed", [False, True], ids=["upaq", "upaqc"])
@pytest.mark.parametrize("corrupt,message", [
    (_non_object_header, "header is not a JSON object"),
    (_short_bias, "layer 'fc': float32 section of 15 bytes is not a multiple of 4"),
], ids=["non-object-header", "short-bias"])
def test_hostile_header_exits_1_with_one_line(tmp_path, capsys, compressed, corrupt, message):
    path, _ = _gen(tmp_path)
    if compressed:
        dense, path = path, tmp_path / "m.upaqc"
        assert main(["compress", str(dense), "-o", str(path)]) == 0
    bad = tmp_path / f"bad{path.suffix}"
    bad.write_bytes(corrupt(path.read_bytes()))
    capsys.readouterr()
    assert main(["inspect", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("upaq: error: ") and err.count("\n") == 1 and message in err


def _set_fc_bias_nbytes(header):
    (fc,) = [entry for entry in header["layers"] if entry["id"] == "fc"]
    fc["bias"]["nbytes"] = 12  # 3 floats for 4 out-channels


@pytest.mark.parametrize("compressed", [False, True], ids=["upaq", "upaqc"])
@pytest.mark.parametrize("edit,message", [
    (lambda h: h.update(layers=3), "header: layers 3 is not a list"),
    (lambda h: h["layers"][0].update(stride="1"), "layer 'conv1': stride '1' is not an integer"),
    (_set_fc_bias_nbytes, "layer 'fc': bias length 3 != out_ch 4"),
    (lambda h: h.update(input_shape=[1, 16]), "header: input_shape [1, 16] is not 3 positive integers"),
    (lambda h: h.update(input_shape=[2, 16, 16]), "layer 'conv1': expects 1 input channels, got 2"),
], ids=["layers-int", "stride-str", "short-fc-bias", "input-shape-2d", "input-shape-unchained"])
def test_hostile_header_field_exits_1_with_one_line(tmp_path, capsys, compressed, edit, message):
    path, inputs_path = _gen(tmp_path)
    if compressed:
        dense, path = path, tmp_path / "m.upaqc"
        assert main(["compress", str(dense), "-o", str(path)]) == 0
    bad = tmp_path / f"bad{path.suffix}"
    bad.write_bytes(patch_header(path.read_bytes(), edit))
    for argv in (["inspect", str(bad)], ["run", str(bad), "--inputs", str(inputs_path), "--out", str(tmp_path / "y.bin")]):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"upaq: error: {message}\n"


def test_group_leaves_not_a_list_exits_1(tmp_path, capsys):
    model_path, _ = _gen(tmp_path)
    good = tmp_path / "good.upaqc"
    assert main(["compress", str(model_path), "-o", str(good)]) == 0
    bad = tmp_path / "bad.upaqc"
    bad.write_bytes(patch_header(good.read_bytes(), lambda h: h["groups"][0].update(leaves=5)))
    capsys.readouterr()
    assert main(["inspect", str(bad)]) == 1
    assert capsys.readouterr().err == "upaq: error: group 'conv1': leaves 5 is not a list\n"


def test_blob_length_off_its_sidecar_exits_1(tmp_path, capsys):
    model_path, inputs_path = _gen(tmp_path)
    inputs_path.write_bytes(inputs_path.read_bytes()[:-4])
    capsys.readouterr()
    assert main(["run", str(model_path), "--inputs", str(inputs_path), "--out", str(tmp_path / "y.bin")]) == 1
    assert "expected 65536 bytes for 64 inputs, got 65532" in capsys.readouterr().err


def test_bad_sidecar_shape_exits_1(tmp_path, capsys):
    model_path, inputs_path = _gen(tmp_path)
    sidecar = inputs_path.parent / "inputs.bin.json"
    sidecar.write_text(json.dumps({"count": 64, "shape": ["x", 2]}))
    capsys.readouterr()
    assert main(["run", str(model_path), "--inputs", str(inputs_path), "--out", str(tmp_path / "y.bin")]) == 1
    assert "is not 3 positive integers" in capsys.readouterr().err


def test_workers_flag_is_gone(tmp_path, capsys):
    model_path, _ = _gen(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["compress", str(model_path), "-o", str(tmp_path / "x.upaqc"), "--workers", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 4" in capsys.readouterr().err


def test_bad_patterns_value_exits_2(tmp_path, capsys):
    model_path, _ = _gen(tmp_path)
    assert main(["compress", str(model_path), "-o", str(tmp_path / "x.upaqc"),
                 "--patterns", "zero"]) == 2
    assert main(["compress", str(model_path), "-o", str(tmp_path / "x.upaqc"),
                 "--patterns", "0"]) == 2


def test_unknown_arch_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen-fixture", "toy-unknown", "-o", str(tmp_path)])
    assert exc.value.code == 2


def test_run_and_evaluate_match_single_input_api(tmp_path, monkeypatch):
    import upaq
    from upaq import evaluate as evaluate_module
    import numpy as np

    from upaq.inference import load_activations

    model_path, inputs_path = _gen(tmp_path, arch="toy-residual")
    out_model = tmp_path / "m.upaqc"
    assert main(["compress", str(model_path), "-o", str(out_model), "--profile", "lck"]) == 0
    out_blob = tmp_path / "out.bin"
    report_path = tmp_path / "report.json"
    assert main(["run", str(out_model), "--inputs", str(inputs_path), "--out", str(out_blob)]) == 0
    assert main(["evaluate", str(model_path), str(out_model), "--inputs", str(inputs_path),
                 "-o", str(report_path)]) == 0

    cm = upaq.load_compressed(out_model)
    inputs = load_activations(inputs_path)
    dense = upaq.decompress_model(cm)
    expected = b"".join(run_every(dense, inputs[i:i + 1]).astype("<f4").tobytes() for i in range(len(inputs)))
    assert out_blob.read_bytes() == expected

    # the same report, with every forward pass made one input at a time over every weight column
    monkeypatch.setattr(evaluate_module, "run_batch",
                        lambda model, batch: np.stack([run_every(model, batch[i:i + 1])[0] for i in range(len(batch))]))
    single = evaluate_module.evaluate_fidelity(upaq.load_model(model_path), cm, inputs)
    assert report_path.read_text() == single.to_json() + "\n"


@pytest.mark.parametrize("field,value,message", [
    ("es_weights", [2**40, -1, 1.5], "efficiency-score weight 1099511627776 outside [0, 1]"),
    ("candidates", -1, "candidate count must be >= 1"),
    ("quant_bits", [-1, 8], "profile bitwidth -1 outside supported {4, 8, 16}"),
], ids=["es-weights", "candidates", "quant-bits"])
def test_profile_out_of_range_makes_evaluate_exit_1_with_one_line(tmp_path, capsys, field, value, message):
    model_path, inputs_path = _gen(tmp_path)
    good = tmp_path / "good.upaqc"
    assert main(["compress", str(model_path), "-o", str(good)]) == 0
    bad = tmp_path / "bad.upaqc"
    bad.write_bytes(patch_header(good.read_bytes(), lambda h: h["profile"].update({field: value})))
    capsys.readouterr()
    assert main(["evaluate", str(model_path), str(bad), "--inputs", str(inputs_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"upaq: error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("compressed", [False, True], ids=["upaq", "upaqc"])
def test_padding_past_the_kernel_edge_exits_1_with_one_line(tmp_path, capsys, compressed):
    path, inputs_path = _gen(tmp_path)
    if compressed:
        dense, path = path, tmp_path / "m.upaqc"
        assert main(["compress", str(dense), "-o", str(path)]) == 0
    bad = tmp_path / f"bad{path.suffix}"
    bad.write_bytes(patch_header(path.read_bytes(), lambda h: h["layers"][0].update(padding=2**40)))
    for argv in (["inspect", str(bad)], ["run", str(bad), "--inputs", str(inputs_path), "--out", str(tmp_path / "y.bin")]):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == "upaq: error: layer 'conv1': padding 1099511627776 exceeds the kernel edge 3\n"


@pytest.mark.parametrize("profile", ["hck", "lck"])
def test_weights_at_float32_max_compress_run_and_evaluate(tmp_path, capsys, profile):
    """A kernel slice of float32-max weights compresses: its stored scale is
    stepped down until the largest integer dequantizes to a finite weight.
    conv1's channel 0 is silenced (zero weights, bias -1, then relu), so the
    float32-max weights of conv2 meet zero activations and both models stay
    finite."""
    import numpy as np

    import upaq
    from upaq.inference import load_activations, save_activations

    model, inputs = upaq.gen_fixture("toy-cnn", 42, 8)
    model.by_id("conv2").weights.data[0, 0, :, :] = np.finfo(np.float32).max
    conv1 = model.by_id("conv1")
    conv1.weights.data[0] = 0.0
    conv1.bias[0] = -1.0
    model_path, inputs_path = tmp_path / "big.upaq", tmp_path / "inputs.bin"
    upaq.save_model(model, model_path)
    save_activations(inputs_path, inputs)

    out_model, out_blob = tmp_path / "big.upaqc", tmp_path / "out.bin"
    assert main(["compress", str(model_path), "-o", str(out_model), "--profile", profile]) == 0
    cm = upaq.load_compressed(out_model)
    assert np.isfinite(upaq.decompress_model(cm).by_id("conv2").weights.data).all()
    assert main(["run", str(out_model), "--inputs", str(inputs_path), "--out", str(out_blob)]) == 0
    assert np.isfinite(load_activations(out_blob)).all()
    capsys.readouterr()
    assert main(["evaluate", str(model_path), str(out_model), "--inputs", str(inputs_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert all(np.isfinite(value) for value in report.values())


# sha256 of `upaq compress <arch>.upaq --profile <profile> --patterns 16 --seed 42`
# on the seed-42 fixtures; a change that moves them moves every such file
GOLDEN_UPAQC_SHA256 = {
    ("toy-cnn", "hck"): "cca1ee62847ccda36e793fd147b1fb63867ea4a906e2e7a56c5c510be653d643",
    ("toy-cnn", "lck"): "0af6cce6c508c579c68fa1c3fb7bb4090e0beeaa2a94cd123169681a3ad2fe44",
    ("toy-residual", "hck"): "a9ce64b7da58694f26c2b99b1de7c6d71e6bd316fa381b54298ebf9c0d9ee091",
    ("toy-residual", "lck"): "ac859153f27bed4c6430492246a32a3dbd1a75f2c4bbf40778e9690295e729be",
    ("toy-1x1", "hck"): "fe2e89fbafe4fa3493e841fb66d450a74f068c03e0e8c3349c5a4f8c21bc5c04",
    ("toy-1x1", "lck"): "9716a88d1101aae02576115baf5b3e02c0de8f52a277823a5fa9c631a1052195",
}


@pytest.mark.parametrize("arch", ["toy-cnn", "toy-residual", "toy-1x1"])
def test_fixture_upaqc_bytes_are_pinned(tmp_path, arch):
    import hashlib

    model_path, _ = _gen(tmp_path, arch=arch)
    for profile in ("hck", "lck"):
        out = tmp_path / f"{arch}-{profile}.upaqc"
        argv = ["compress", str(model_path), "-o", str(out), "--profile", profile, "--patterns", "16", "--seed", "42"]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_UPAQC_SHA256[arch, profile]


def test_compress_validates_the_model_once(tmp_path, monkeypatch, capsys):
    import numpy as np

    import upaq
    from upaq.compressed import CompressedModel
    from upaq.container import serialize_compressed
    from upaq.errors import ValidationError

    calls = []
    real_validate = CompressedModel.validate
    monkeypatch.setattr(CompressedModel, "validate", lambda self: calls.append(self) or real_validate(self))
    model_path, _ = _gen(tmp_path)
    assert main(["compress", str(model_path), "-o", str(tmp_path / "toy.upaqc"), "--profile", "hck"]) == 0
    assert len(calls) == 1  # by serialize_compressed, as the file is written
    monkeypatch.undo()

    # the one check left still guards any model handed to serialize_compressed
    cm = upaq.compress_model(upaq.load_model(model_path), upaq.hck_profile(seed=42))
    group = cm.groups[0]
    qc = cm.qlayers[group.root_id]
    off = np.flatnonzero(~group.pattern.mask())[0]
    qc.q.reshape(-1, group.pattern.d ** 2)[0, off] = 1
    with pytest.raises(ValidationError, match="outside the block pattern"):
        serialize_compressed(cm)


def test_repeated_calls_build_no_parser(tmp_path, monkeypatch, capsys):
    import argparse

    model_path, inputs_path = _gen(tmp_path)  # the warm-up call
    built = []
    real_init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(a) or real_init(self, *a, **kw))
    out_model = tmp_path / "toy.upaqc"
    assert main(["compress", str(model_path), "-o", str(out_model)]) == 0
    assert main(["run", str(out_model), "--inputs", str(inputs_path), "--out", str(tmp_path / "y.bin")]) == 0
    assert main(["evaluate", str(model_path), str(out_model), "--inputs", str(inputs_path)]) == 0
    assert main(["inspect", str(out_model)]) == 0
    assert built == []


def test_rejected_arguments_leave_the_next_call_alone(tmp_path, capsys):
    import hashlib

    model_path, _ = _gen(tmp_path)
    out = tmp_path / "toy.upaqc"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["compress", str(model_path), "-o", str(out), "--workers", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: upaq [-h] [--version]")
    assert main(["compress", str(model_path), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_UPAQC_SHA256["toy-cnn", "hck"]


def test_version_and_help_repeat(capsys):
    import upaq

    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"upaq {upaq.__version__}\n"
    with pytest.raises(SystemExit) as exc:
        main(["compress", "--help"])
    assert exc.value.code == 0
    assert "--patterns PATTERNS" in capsys.readouterr().out
