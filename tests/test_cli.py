import hashlib
import json

import pytest

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
