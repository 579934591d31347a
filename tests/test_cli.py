import hashlib
import json
import struct

import pytest

from conftest import patch_header
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


def test_worker_flag_preserves_output_bytes(tmp_path, capsys):
    model_path, _ = _gen(tmp_path, arch="toy-1x1")
    outs = []
    for workers in ("1", "4"):
        out = tmp_path / f"w{workers}.upaqc"
        assert main(["compress", str(model_path), "-o", str(out), "--seed", "42",
                     "--workers", workers]) == 0
        capsys.readouterr()
        outs.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert outs[0] == outs[1]


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
    bad = tmp_path / "bad.upaq"
    bad.write_bytes(b"not a container at all")
    assert main(["inspect", str(bad)]) == 1


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


def test_worker_count_below_one_exits_2(tmp_path, capsys):
    model_path, _ = _gen(tmp_path)
    assert main(["compress", str(model_path), "-o", str(tmp_path / "x.upaqc"), "--workers", "0"]) == 2
    assert "worker count" in capsys.readouterr().err


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
    from upaq.inference import forward, forward_compressed, load_activations

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
    expected = b"".join(forward_compressed(cm, act).data.astype("<f4").tobytes() for act in inputs)
    assert out_blob.read_bytes() == expected

    # the same report, with every forward pass made one input at a time
    monkeypatch.setattr(evaluate_module, "forward_batch",
                        lambda model, acts, sparse=False: [forward(model, act) for act in acts])
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
