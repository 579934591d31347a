import json

import pytest

from conftest import (
    linear_only_model,
    mix_only_model,
    patch_header,
    run_every,
    seal,
    splice,
    split_container,
    with_group_mask,
    with_long_row_group,
)
from upaq.cli import main
from upaq.container import dense_payload_nbytes, load_model, save_model
from upaq.inference import load_activations, save_activations


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
    assert sidecar == {"count": 64, "shape": [1, 16, 16], "crc32": 3340727210}


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


def test_inspect_of_a_dense_model(tmp_path, capsys):
    model_path, _ = _gen(tmp_path)
    capsys.readouterr()
    assert main(["inspect", str(model_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["format"] == "upaq" and summary["name"] == "toy-cnn"
    assert (summary["layers"], summary["conv_layers"]) == (6, 3)
    assert summary["payload_nbytes"] == dense_payload_nbytes(load_model(model_path))


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


@pytest.mark.parametrize("compressed", [False, True], ids=["upaq", "upaqc"])
def test_a_flipped_bit_exits_1_with_one_line(tmp_path, capsys, compressed):
    path, inputs_path = _gen(tmp_path)
    if compressed:
        dense, path = path, tmp_path / "m.upaqc"
        assert main(["compress", str(dense), "-o", str(path)]) == 0
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(data)
    what = "compressed" if compressed else "dense"
    run = ["run", str(path), "--inputs", str(inputs_path), "--out", str(tmp_path / "y.bin")]
    for argv in (["inspect", str(path)], run):
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"upaq: error: {what} model container is corrupt or truncated: its CRC32 does not match\n"
        )


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
        header["groups"][0]["bitwidth"] = 0

    bad = tmp_path / "bad.upaqc"
    bad.write_bytes(patch_header(good.read_bytes(), zero_bits))
    capsys.readouterr()
    assert main(["run", str(bad), "--inputs", str(inputs_path), "--out", str(tmp_path / "y.bin")]) == 1
    assert capsys.readouterr().err == "upaq: error: group 'conv_a': bitwidth 0 is not one of (4, 8, 16)\n"


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
    magic, _, payload = split_container(data)
    return seal(magic, b"[]", payload)


def _cut_in_header(data):
    return data[:len(data) - len(split_container(data)[2]) - 1]


def _non_utf8_header(data):
    magic, header, payload = split_container(data)
    return seal(magic, b"\xff" * len(header), payload)


def _short_bias(data):
    """fc's bias cut by its last byte: fc is the last layer, with 16 bytes of
    bias after its 128 of weights in a .upaq, and before them in a .upaqc,
    whose 2-byte group mask follows.  The layer walk comes up a byte short."""
    end = len(split_container(data)[2]) - (0 if data[:5] == b"UPAQ1" else 2 + 128)
    return splice(data, end - 1, b"", 1)


@pytest.mark.parametrize("compressed", [False, True], ids=["upaq", "upaqc"])
@pytest.mark.parametrize("corrupt,message", [
    (_non_object_header, "header is not a JSON object"),
    (_cut_in_header, "container truncated inside the header"),
    (_non_utf8_header, "header is not valid JSON"),
    (_short_bias, "runs past the"),
], ids=["non-object-header", "cut-in-header", "non-utf8-header", "short-bias"])
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


@pytest.mark.parametrize("compressed", [False, True], ids=["upaq", "upaqc"])
@pytest.mark.parametrize("edit,message", [
    (lambda h: h.update(layers=3), "header: layers 3 is not a list"),
    (lambda h: h["layers"][0].update(stride="1"), "layer 'conv1': stride '1' is not an integer"),
    (lambda h: h.update(input_shape=[1, 16]), "header: input_shape [1, 16] is not 3 positive integers"),
    (lambda h: h.update(input_shape=[2, 16, 16]), "layer 'conv1': expects 1 input channels, got 2"),
], ids=["layers-int", "stride-str", "input-shape-2d", "input-shape-unchained"])
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


def test_a_pattern_edge_over_the_bound_exits_1_with_one_line(tmp_path, capsys):
    model_path, _ = _gen(tmp_path, arch="toy-1x1")
    good = tmp_path / "good.upaqc"
    assert main(["compress", str(model_path), "-o", str(good), "--profile", "hck", "--seed", "42"]) == 0
    bad = tmp_path / "bad.upaqc"
    bad.write_bytes(with_long_row_group(good.read_bytes(), "conv_a", 3000))
    capsys.readouterr()
    assert main(["inspect", str(bad)]) == 1
    assert capsys.readouterr().err == "upaq: error: group 'conv_a': pattern d=3000 is over the bound of 11\n"


@pytest.mark.parametrize("mask,kept", [(b"\x00\x00", 0), (b"\xff\x01", 9)], ids=["no-cell", "every-cell"])
def test_group_mask_keeping_no_cell_or_more_than_d_exits_1_with_one_line(tmp_path, capsys, mask, kept):
    model_path, _ = _gen(tmp_path)
    good = tmp_path / "good.upaqc"
    assert main(["compress", str(model_path), "-o", str(good)]) == 0
    bad = tmp_path / "bad.upaqc"
    bad.write_bytes(with_group_mask(good.read_bytes(), "conv1", mask))
    capsys.readouterr()
    assert main(["inspect", str(bad)]) == 1
    assert capsys.readouterr().err == (
        f"upaq: error: group 'conv1': bad pattern: pattern must keep between 1 and d=3 positions, got {kept}\n"
    )


def test_a_model_with_no_conv_layer_compresses_runs_and_evaluates(tmp_path, capsys):
    """Nothing is compressed and nothing costs: every verb exits 0, and each
    cost term of the efficiency score reads 1."""
    import upaq
    from upaq.inference import save_activations

    model, inputs = linear_only_model()
    model_path, inputs_path, out_model = tmp_path / "lin.upaq", tmp_path / "inputs.bin", tmp_path / "lin.upaqc"
    upaq.save_model(model, model_path)
    save_activations(inputs_path, inputs)
    assert main(["compress", str(model_path), "-o", str(out_model)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["groups"] == [] and report["compression_ratio"] == 1.0
    assert report["computational_cost"] == {
        "conv_layers": 0, "mean_kernels_per_layer": 0.0, "mean_nnz_per_kernel": 0.0, "product": 0.0, "total_nnz": 0,
    }
    assert main(["run", str(out_model), "--inputs", str(inputs_path), "--out", str(tmp_path / "y.bin")]) == 0
    assert main(["inspect", str(out_model)]) == 0
    capsys.readouterr()
    assert main(["evaluate", str(model_path), str(out_model), "--inputs", str(inputs_path)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    evaluated = json.loads(out.out)
    assert evaluated["compression_ratio"] == 1.0
    for key in ("latency_units_base", "latency_units_compressed", "energy_units_base", "energy_units_compressed"):
        assert evaluated[key] == 0.0
    assert evaluated["es_total"] == pytest.approx(0.3 * 3 + 0.4 + 0.3)


def test_a_model_with_no_weights_compresses_runs_and_evaluates(tmp_path, capsys):
    """A relu-only model's payloads are empty in both formats: every verb
    exits 0 and reports the ratio 1.0, nothing compressed."""
    import numpy as np

    import upaq

    model = upaq.ModelGraph("relu-only", (1, 4, 4), [upaq.LayerSpec("r", "relu")])
    model_path, inputs_path, out_model = tmp_path / "relu.upaq", tmp_path / "inputs.bin", tmp_path / "relu.upaqc"
    upaq.save_model(model, model_path)
    save_activations(inputs_path, np.linspace(-1, 1, 32, dtype=np.float32).reshape(2, 1, 4, 4))
    assert main(["compress", str(model_path), "-o", str(out_model)]) == 0
    assert json.loads(capsys.readouterr().out)["compression_ratio"] == 1.0
    assert main(["run", str(out_model), "--inputs", str(inputs_path), "--out", str(tmp_path / "y.bin")]) == 0
    capsys.readouterr()
    assert main(["inspect", str(out_model)]) == 0
    inspected = json.loads(capsys.readouterr().out)
    assert inspected["payload_nbytes"] == 0 and inspected["compression_ratio"] == 1.0
    assert main(["evaluate", str(model_path), str(out_model), "--inputs", str(inputs_path)]) == 0
    out = capsys.readouterr()
    assert out.err == "" and json.loads(out.out)["compression_ratio"] == 1.0


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


@pytest.mark.parametrize("crc", [None, 0], ids=["missing", "wrong"])
def test_a_blob_off_its_sidecar_crc_exits_1(tmp_path, capsys, crc):
    model_path, inputs_path = _gen(tmp_path)
    sidecar = inputs_path.parent / "inputs.bin.json"
    meta = json.loads(sidecar.read_text())
    if crc is None:
        del meta["crc32"]
    else:
        meta["crc32"] = crc
    sidecar.write_text(json.dumps(meta))
    capsys.readouterr()
    assert main(["run", str(model_path), "--inputs", str(inputs_path), "--out", str(tmp_path / "y.bin")]) == 1
    message = "missing 'crc32'" if crc is None else "CRC32 does not match its sidecar"
    err = capsys.readouterr().err
    assert err.startswith("upaq: error: ") and err.count("\n") == 1 and message in err


def test_bad_sidecar_shape_exits_1(tmp_path, capsys):
    model_path, inputs_path = _gen(tmp_path)
    sidecar = inputs_path.parent / "inputs.bin.json"
    sidecar.write_text(json.dumps({"count": 64, "shape": ["x", 2]}))
    capsys.readouterr()
    assert main(["run", str(model_path), "--inputs", str(inputs_path), "--out", str(tmp_path / "y.bin")]) == 1
    assert "is not 3 positive integers" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
def test_a_non_finite_input_is_named_by_run_and_evaluate(tmp_path, capsys, bad):
    out = tmp_path / "toy-cnn"
    assert main(["gen-fixture", "toy-cnn", "--inputs", "8", "-o", str(out)]) == 0
    model_path, inputs_path, compressed = out / "toy-cnn.upaq", out / "inputs.bin", tmp_path / "toy.upaqc"
    assert main(["compress", str(model_path), "-o", str(compressed)]) == 0
    batch = load_activations(inputs_path)
    batch[3, 0, 1, 1] = bad  # input 3, row 1, column 1; saved with its sidecar's CRC32
    save_activations(inputs_path, batch)
    capsys.readouterr()
    for argv in (["run", str(model_path), "--inputs", str(inputs_path), "--out", str(tmp_path / "y.bin")],
                 ["run", str(compressed), "--inputs", str(inputs_path), "--out", str(tmp_path / "y.bin")],
                 ["evaluate", str(model_path), str(compressed), "--inputs", str(inputs_path)]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "upaq: error: input 3 contains non-finite values\n")
    assert not (tmp_path / "y.bin").exists()


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


@pytest.mark.parametrize("count", ["0", "-3"])
def test_gen_fixture_refuses_a_non_positive_input_count_before_writing(tmp_path, capsys, count):
    assert main(["gen-fixture", "toy-cnn", "--inputs", count, "-o", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"upaq: error: input count {count} is not positive\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ["42", "7"])
@pytest.mark.parametrize("patterns", ["16", "all"])
@pytest.mark.parametrize("profile", ["hck", "lck"])
def test_a_1x1_layer_with_pad_cells_compresses(tmp_path, capsys, profile, patterns, seed):
    # a mask on the pad cells alone stores no weight: it is no candidate, not a zero-cost model
    save_model(mix_only_model(), tmp_path / "mix.upaq")
    argv = ["compress", str(tmp_path / "mix.upaq"), "-o", str(tmp_path / "mix.upaqc"),
            "--profile", profile, "--patterns", patterns, "--seed", seed]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_a_draw_that_stores_no_weight_exits_2_naming_the_group(tmp_path, capsys):
    save_model(mix_only_model(), tmp_path / "mix.upaq")
    argv = ["compress", str(tmp_path / "mix.upaq"), "-o", str(tmp_path / "mix.upaqc"), "--patterns", "1", "--seed", "37"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "upaq: error: group 'mix': no candidate pattern stores a weight of every member\n"
    assert not (tmp_path / "mix.upaqc").exists()


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


@pytest.mark.parametrize("patterns", ["16", "all"])
@pytest.mark.parametrize("profile", ["hck", "lck"])
@pytest.mark.parametrize("arch", ["toy-cnn", "toy-residual", "toy-1x1"])
def test_compressed_model_is_the_one_record_of_its_compression(tmp_path, capsys, arch, profile, patterns):
    """The compressed model carries the profile that made it, which the file
    round-trips, and each group's score, which the compress report prints
    and the file does not store: inspect prints the same groups without it."""
    from dataclasses import asdict

    import upaq
    from upaq.compressor import PROFILE_FACTORIES

    model_path, _ = _gen(tmp_path, arch=arch)
    out = tmp_path / "m.upaqc"
    capsys.readouterr()
    argv = ["compress", str(model_path), "-o", str(out), "--profile", profile, "--patterns", patterns, "--seed", "42"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    count, exhaustive = (1, True) if patterns == "all" else (int(patterns), False)
    factory = PROFILE_FACTORIES[profile]
    cm = upaq.compress_model(upaq.load_model(model_path), factory(seed=42, candidates=count, exhaustive=exhaustive))
    assert [asdict(group.score) for group in cm.groups] == [group["es"] for group in report["groups"]]

    loaded = upaq.load_compressed(out)
    assert loaded.profile == cm.profile
    assert loaded.groups == cm.groups
    assert [group.score for group in loaded.groups] == [None] * len(cm.groups)
    assert main(["inspect", str(out)]) == 0
    inspected = json.loads(capsys.readouterr().out)["groups"]
    assert inspected == [{k: v for k, v in group.items() if k != "es"} for group in report["groups"]]


# sha256 of `upaq compress <arch>.upaq --profile <profile> --patterns 16 --seed 42`
# on the seed-42 fixtures; a change that moves them moves every such file
GOLDEN_UPAQC_SHA256 = {
    ("toy-cnn", "hck"): "e223252a8525ce3d0fc99df6268316ede3e4c07e5f9aeecb2cc3bac138f36590",
    ("toy-cnn", "lck"): "f9faadacbecd50527f54304e58cff4928a26ce3db61bada66647d3046fd1ca06",
    ("toy-residual", "hck"): "c2da7b255b7a05f3feeaf754c37f0047dadea03cb47127281d264c1b55ef3549",
    ("toy-residual", "lck"): "e016371a763e05c0a519f558fe07e6b5ead4c80795bc72342f68084f4a12bfef",
    ("toy-1x1", "hck"): "518524686864821776838ee6a50584462b1668fb8a2f4429542b2eb79d121122",
    ("toy-1x1", "lck"): "3a839ec59f640dd1af915e72aa44411bc34dd81ca7a5384d83739fd8aeb579fe",
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
