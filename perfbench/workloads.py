"""The benchmark's three workloads.

Each workload sets up its files, runs timed passes of ``upaq`` CLI verbs,
and checks the outputs against references that do not come from the code
under test (``tests/oracles.py``).  Why each workload exists is in
``perfbench/README.md``.

The workload seed draws every input batch.  Model weights and the
``compress --seed`` are pinned to ``MODEL_SEED``: across model seeds the
fidelity of the compressed models (``mean_rel_err``) spreads by about 30%,
more than any bound the benchmark may set, while timing does not depend on
weight values.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import upaq
from upaq.cli import main as cli_main
from upaq.inference import save_activations

MODEL_SEED = 42  # the README walkthrough's seed
PROFILES = ("hck", "lck")
FIXTURES = ("toy-cnn", "toy-residual", "toy-1x1")
FIXTURE_INPUTS = 64
FIXTURE_COMPRESS_REPEATS = 3
WIDE_INPUT_SHAPE = (3, 32, 32)
WIDE_TAIL_RUN_INPUTS = 4
WIDE_TAIL_EVALUATE_INPUTS = 2
WIDE_BATCH_INPUTS = 8


class OpFailed(Exception):
    """A CLI verb raised or exited non-zero."""


class Cli:
    """Runs ``upaq`` verbs in-process, as ``upaq.cli.main(argv)``.

    Counts attempts and failures; when the tracer is installed each verb
    call is recorded as a ``cli.<verb>`` span.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def __call__(self, verb: str, *args) -> tuple[float, str]:
        """Run one verb; returns (wall seconds, captured stdout)."""
        argv = [verb, *map(str, args)]
        self.attempted += 1
        out = io.StringIO()
        traced = self.tracer is not None and self.tracer.installed
        span = self.tracer.span(f"cli.{verb}") if traced else contextlib.nullcontext()
        code = None
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out):
                code = cli_main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception:
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        if code != 0:
            self.failed += 1
            raise OpFailed(f"upaq {' '.join(argv)} exited with {code!r}")
        return elapsed, out.getvalue()


@dataclass
class Record:
    """What one set-up or one timed pass did, keyed by ``.upaqc`` file name."""

    seconds: dict = field(default_factory=dict)  # (verb, upaqc name) -> wall seconds of each call
    inputs: dict = field(default_factory=dict)  # (verb, upaqc name) -> inputs the call processed
    compress_reports: dict = field(default_factory=dict)
    run_outputs: dict = field(default_factory=dict)  # upaqc name -> (upaqc, output, inputs, batch size)
    evaluate_reports: dict = field(default_factory=dict)
    hashes: dict = field(default_factory=dict)  # file name -> sha256 of what was written
    repeat_mismatches: list = field(default_factory=list)  # files a repeated call wrote differently
    wall_s: float = 0.0
    traced: bool = False

    def compress(self, cli, upaq_path: Path, upaqc_path: Path, profile: str) -> None:
        elapsed, text = cli("compress", upaq_path, "-o", upaqc_path, "--profile", profile,
                            "--seed", MODEL_SEED)
        self.seconds.setdefault(("compress", upaqc_path.name), []).append(elapsed)
        report = json.loads(text)
        report["_source"] = str(upaq_path)
        self.compress_reports[upaqc_path.name] = report
        self.hash(upaqc_path)

    def run(self, cli, upaqc_path: Path, inputs: Path, out: Path, count: int) -> None:
        elapsed, _ = cli("run", upaqc_path, "--inputs", inputs, "--out", out)
        self.seconds.setdefault(("run", upaqc_path.name), []).append(elapsed)
        self.inputs["run", upaqc_path.name] = count
        self.run_outputs[upaqc_path.name] = (upaqc_path, out, inputs, count)
        self.hash(out)

    def evaluate(self, cli, upaq_path: Path, upaqc_path: Path, inputs: Path, count: int) -> None:
        elapsed, text = cli("evaluate", upaq_path, upaqc_path, "--inputs", inputs)
        self.seconds.setdefault(("evaluate", upaqc_path.name), []).append(elapsed)
        self.inputs["evaluate", upaqc_path.name] = count
        report = json.loads(text)
        report["_inputs"] = count
        self.evaluate_reports[upaqc_path.name] = report

    def hash(self, path: Path) -> None:
        digest = sha256(path)
        if self.hashes.setdefault(path.name, digest) != digest:
            self.repeat_mismatches.append(path.name)


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# the wide model
# ---------------------------------------------------------------------------

def wide_model(seed: int) -> upaq.ModelGraph:
    """A 3x32x32 model with every compressible kernel shape.

    5x5 stem 3->32, relu, 3x3 32->64, relu, 3x3 64->64, residual add with
    the second relu, 1x1 64->64, global average pool, linear 64->10.  The
    grouping gives a lone 5x5 group, a 3x3 root with one leaf, and a 1x1
    block group.  Weights and biases are uniform(-b, b), b = 1/sqrt(fan_in).
    """
    rng = np.random.default_rng(seed)

    def weighted(lid, kind, out_ch, in_ch, k, inputs, padding=0):
        bound = 1.0 / math.sqrt(in_ch * k * k)
        return upaq.LayerSpec(
            id=lid, kind=kind, inputs=inputs,
            weights=upaq.Tensor4(rng.uniform(-bound, bound, (out_ch, in_ch, k, k)).astype(np.float32)),
            bias=rng.uniform(-bound, bound, out_ch).astype(np.float32),
            padding=padding,
        )

    layers = [
        weighted("stem", "conv2d", 32, 3, 5, (), padding=2),
        upaq.LayerSpec(id="relu1", kind="relu", inputs=("stem",)),
        weighted("conv2", "conv2d", 64, 32, 3, ("relu1",), padding=1),
        upaq.LayerSpec(id="relu2", kind="relu", inputs=("conv2",)),
        weighted("conv3", "conv2d", 64, 64, 3, ("relu2",), padding=1),
        upaq.LayerSpec(id="add", kind="add", inputs=("conv3", "relu2")),
        weighted("conv4", "conv2d", 64, 64, 1, ("add",)),
        upaq.LayerSpec(id="gap", kind="global_avg_pool", inputs=("conv4",)),
        weighted("fc", "linear", 10, 64, 1, ("gap",)),
    ]
    model = upaq.ModelGraph(name="wide", input_shape=WIDE_INPUT_SHAPE, layers=layers)
    model.validate()
    return model


def write_wide_files(work: Path, seed: int, batch_sizes) -> tuple[Path, list[Path], Record]:
    """Save the wide model (pinned weights) and one seeded input batch per size."""
    work.mkdir(parents=True, exist_ok=True)
    model_path = work / "wide.upaq"
    upaq.save_model(wide_model(MODEL_SEED), model_path)
    rng = np.random.default_rng(seed)
    batches = []
    for i, size in enumerate(batch_sizes):
        batches.append(work / f"inputs{i}.bin")
        save_activations(batches[-1], [
            upaq.Activation(rng.uniform(-1.0, 1.0, WIDE_INPUT_SHAPE).astype(np.float32))
            for _ in range(size)
        ])
    record = Record(hashes={path.name: sha256(path) for path in (model_path, *batches)})
    return model_path, batches, record


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class FixturesCli:
    """The README walkthrough on all three shipped fixtures, both profiles.

    A tiny model compresses in about 40 ms, so each is compressed
    ``FIXTURE_COMPRESS_REPEATS`` times a pass to give ``compress_s`` more samples.
    """

    name = "fixtures-cli"
    setup_repeats = 9

    def setup(self, cli, work: Path, seed: int):
        state, record = [], Record()
        for arch in FIXTURES:
            cli("gen-fixture", arch, "--seed", MODEL_SEED, "-o", work / arch / "model")
            cli("gen-fixture", arch, "--seed", seed, "--inputs", FIXTURE_INPUTS, "-o", work / arch / "batch")
            model_path = work / arch / "model" / f"{arch}.upaq"
            inputs_path = work / arch / "batch" / "inputs.bin"
            record.hashes[f"{arch}.upaq"] = sha256(model_path)
            record.hashes[f"{arch}-inputs.bin"] = sha256(inputs_path)
            for profile in PROFILES:
                state.append((profile, model_path, work / arch / f"{arch}-{profile}.upaqc", inputs_path,
                              work / arch / f"{arch}-{profile}.out.bin"))
        return state, record

    def run_pass(self, cli, state) -> Record:
        record = Record()
        for profile, model_path, upaqc_path, inputs_path, out_path in state:
            for _ in range(FIXTURE_COMPRESS_REPEATS):
                record.compress(cli, model_path, upaqc_path, profile)
            record.run(cli, upaqc_path, inputs_path, out_path, FIXTURE_INPUTS)
            record.evaluate(cli, model_path, upaqc_path, inputs_path, FIXTURE_INPUTS)
        return record

    def check(self, record: Record, oracles, seed: int) -> list[dict]:
        """`upaq run` output bit-equal to the scalar-loop oracle on one seeded input per model."""
        rng = np.random.default_rng(seed)
        checks = []
        for upaqc_path, out_path, inputs_path, count in record.run_outputs.values():
            idx = int(rng.integers(0, count))
            dense = upaq.decompress_model(upaq.load_compressed(upaqc_path))
            x = read_blob(inputs_path, count)[idx].reshape(dense.input_shape)
            want = np.asarray(oracles.forward_reference(dense, x), dtype=np.float32).reshape(-1)
            got = read_blob(out_path, count)[idx]
            checks.append(_check(f"oracle_forward:{upaqc_path.name}[{idx}]",
                                 bit_equal(got, want)))
        return checks


class CompressWide:
    """Compress the wide model under both profiles; after each compress, run
    4 inputs and evaluate 2 on its output, so that every end-to-end metric
    is defined while the search does most of the work.  The short run and
    evaluate calls are spread over the pass, so their few samples fall at
    different moments of the run."""

    name = "compress-wide"
    setup_repeats = 9

    def setup(self, cli, work: Path, seed: int):
        model_path, (run_inputs, evaluate_inputs), record = write_wide_files(
            work, seed, (WIDE_TAIL_RUN_INPUTS, WIDE_TAIL_EVALUATE_INPUTS))
        return (work, model_path, run_inputs, evaluate_inputs), record

    def run_pass(self, cli, state) -> Record:
        work, model_path, run_inputs, evaluate_inputs = state
        record = Record()
        for profile in PROFILES:
            upaqc_path = work / f"wide-{profile}.upaqc"
            record.compress(cli, model_path, upaqc_path, profile)
            record.run(cli, upaqc_path, run_inputs, work / f"wide-{profile}.out.bin", WIDE_TAIL_RUN_INPUTS)
            record.evaluate(cli, model_path, upaqc_path, evaluate_inputs, WIDE_TAIL_EVALUATE_INPUTS)
        return record

    def check(self, record: Record, oracles, seed: int) -> list[dict]:
        return [c for profile in PROFILES
                for c in sparse_checks(record, f"wide-{profile}.upaqc", seed, samples=1)]


class InferWide:
    """Run and evaluate a seeded 8-input batch on the wide model, compressed
    once with hck during set-up."""

    name = "infer-wide"
    setup_repeats = 3

    def setup(self, cli, work: Path, seed: int):
        model_path, (inputs_path,), record = write_wide_files(work, seed, (WIDE_BATCH_INPUTS,))
        record.compress(cli, model_path, work / "wide-hck.upaqc", "hck")
        return (work, model_path, inputs_path), record

    def run_pass(self, cli, state) -> Record:
        work, model_path, inputs_path = state
        record = Record()
        record.run(cli, work / "wide-hck.upaqc", inputs_path, work / "wide-hck.out.bin", WIDE_BATCH_INPUTS)
        record.evaluate(cli, model_path, work / "wide-hck.upaqc", inputs_path, WIDE_BATCH_INPUTS)
        return record

    def check(self, record: Record, oracles, seed: int) -> list[dict]:
        return sparse_checks(record, "wide-hck.upaqc", seed, samples=2)


def sparse_checks(record: Record, upaqc_name: str, seed: int, samples: int) -> list[dict]:
    """The sparse engine path bit-equal to the dense path `upaq run` took, on seeded inputs."""
    rng = np.random.default_rng(seed)
    upaqc_path, out_path, inputs_path, count = record.run_outputs[upaqc_name]
    cm = upaq.load_compressed(upaqc_path)
    xs, dense_out = read_blob(inputs_path, count), read_blob(out_path, count)
    checks = []
    for idx in sorted(rng.choice(count, size=samples, replace=False).tolist()):
        act = upaq.Activation(xs[idx].reshape(cm.input_shape))
        sparse = upaq.forward_compressed(cm, act, sparse=True).data.reshape(-1)
        checks.append(_check(f"sparse_equals_dense:{upaqc_name}[{idx}]", bit_equal(sparse, dense_out[idx])))
    return checks


WORKLOADS = {w.name: w for w in (FixturesCli(), CompressWide(), InferWide())}


# ---------------------------------------------------------------------------
# checks shared by every workload
# ---------------------------------------------------------------------------

def read_blob(path: Path, count: int) -> np.ndarray:
    """A raw little-endian f32 batch as (count, values per item), read with numpy alone."""
    flat = np.fromfile(path, dtype="<f4")
    if flat.size % count:
        raise ValueError(f"{path}: {flat.size} values do not split into {count} items")
    return flat.reshape(count, -1)


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=np.float32)
    b = np.ascontiguousarray(b, dtype=np.float32)
    return a.shape == b.shape and bool(np.array_equal(a.view(np.uint32), b.view(np.uint32)))


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def common_checks(setups: list[Record], passes: list[Record], oracles) -> list[dict]:
    """Determinism across repeats, oracle payload recounts, cross-verb consistency."""
    checks = [
        _check("setup_outputs_identical_across_repeats",
               all(s.hashes == setups[0].hashes for s in setups)),
        _check("pass_outputs_identical_across_passes",
               all(p.hashes == passes[0].hashes for p in passes)),
        _check("evaluate_reports_identical_across_passes",
               all(p.evaluate_reports == passes[0].evaluate_reports for p in passes)),
        _check("repeated_calls_write_identical_files",
               not any(r.repeat_mismatches for r in (*setups, *passes)),
               repr(sorted({name for r in (*setups, *passes) for name in r.repeat_mismatches}))),
    ]
    traced = [p for p in passes if p.traced]
    if traced:
        untraced = [p for p in passes if not p.traced]
        checks.append(_check("traced_outputs_identical_to_untraced",
                             all(p.hashes == untraced[0].hashes for p in traced)))
    last = passes[-1]
    compress_reports = {**setups[-1].compress_reports, **last.compress_reports}
    for upaqc_name, report in compress_reports.items():
        upaqc_path = Path(report["output"])
        try:
            _, _, payload = oracles.read_container(upaqc_path)
            recount = oracles.recount_compressed_payload(upaqc_path)
            dense = oracles.recount_dense_payload(report["_source"])
        except AssertionError as exc:
            checks.append(_check(f"payload_recount:{upaqc_name}", False, repr(exc)))
            continue
        checks.append(_check(f"payload_recount:{upaqc_name}", recount == len(payload),
                             f"{recount} vs {len(payload)}"))
        checks.append(_check(f"reported_ratio:{upaqc_name}", report["compression_ratio"] == dense / recount,
                             f"{report['compression_ratio']} vs {dense}/{recount}"))
    for upaqc_name, report in last.evaluate_reports.items():
        finite = all(math.isfinite(v) for v in report.values() if isinstance(v, (int, float)))
        checks.append(_check(f"evaluate_report:{upaqc_name}",
                             finite and report["n_inputs"] == report["_inputs"]
                             and report["compression_ratio"] == compress_reports[upaqc_name]["compression_ratio"]))
    for _, out_path, _, count in last.run_outputs.values():
        values = read_blob(out_path, count)
        checks.append(_check(f"run_output:{out_path.name}", bool(np.isfinite(values).all())))
    return checks
