"""Command-line interface.

Verbs: gen-fixture, compress, run, evaluate, inspect.  JSON reports go to
stdout unless an output path is given.  Exit codes: 0 on success, 2 on
validation/parameter errors, 1 on IO or container-format errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .compressed import CompressedModel, decompress_model
from .container import (
    compressed_payload_nbytes,
    dense_payload_nbytes,
    load_any,
    load_compressed,
    load_model,
    save_compressed,
    save_model,
)
from .cost import compression_ratio, computational_cost, model_cost
from .compressor import PROFILE_FACTORIES, compress_with_decisions, compression_decisions
from .errors import FormatError, ValidationError
from .evaluate import evaluate_fidelity
from .fixtures import ARCH_NAMES, gen_fixture
from .grouping import find_root_groups
from .inference import load_activations, run_batch, save_activations


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one: argparse reads ``sys.argv`` and the output streams when it parses,
    not when it is built.  Callers must not add to it."""
    parser = argparse.ArgumentParser(prog="upaq", description="pattern-pruning + mixed-precision quantization toolkit")
    parser.add_argument("--version", action="version", version=f"upaq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-fixture", help="generate a deterministic toy model and input batch")
    p.add_argument("arch", choices=ARCH_NAMES)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--inputs", type=int, default=64, help="number of input tensors")
    p.add_argument("-o", "--out-dir", default=".", help="directory for the .upaq and inputs.bin files")
    p.set_defaults(handler=_cmd_gen_fixture)

    p = sub.add_parser("compress", help="prune and quantize a dense model")
    p.add_argument("model", help="input .upaq file")
    p.add_argument("-o", "--out", required=True, help="output .upaqc file")
    p.add_argument("--profile", choices=sorted(PROFILE_FACTORIES), default="hck")
    p.add_argument("--patterns", default="16", help="candidate patterns per group, or 'all' for exhaustive search")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--report", help="also write the JSON report to this path")
    p.set_defaults(handler=_cmd_compress)

    p = sub.add_parser("run", help="run a model over an input batch")
    p.add_argument("model", help=".upaq or .upaqc file")
    p.add_argument("--inputs", required=True, help="raw f32 blob with a .json sidecar")
    p.add_argument("--out", required=True, help="output blob path (sidecar written alongside)")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("evaluate", help="compare a compressed model against its base")
    p.add_argument("base", help="dense .upaq file")
    p.add_argument("compressed", help=".upaqc file")
    p.add_argument("--inputs", required=True, help="raw f32 blob with a .json sidecar")
    p.add_argument("-o", "--out", help="write the JSON report here instead of stdout")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("inspect", help="summarize a model file")
    p.add_argument("model", help=".upaq or .upaqc file")
    p.add_argument("--groups", action="store_true", help="print root-leaf groups as JSON lines")
    p.set_defaults(handler=_cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValidationError, ValueError) as exc:
        print(f"upaq: error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"upaq: error: {exc}", file=sys.stderr)
        return 1


def _cmd_gen_fixture(args) -> int:
    model, inputs = gen_fixture(args.arch, args.seed, args.inputs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model_path = out_dir / f"{args.arch}.upaq"
    inputs_path = out_dir / "inputs.bin"
    save_model(model, model_path)
    save_activations(inputs_path, inputs)
    print(json.dumps({
        "model": str(model_path),
        "inputs": str(inputs_path),
        "layers": len(model.layers),
        "input_shape": list(model.input_shape),
        "seed": args.seed,
    }, indent=2))
    return 0


def _parse_patterns(value: str) -> tuple[int, bool]:
    if value == "all":
        return 1, True
    try:
        count = int(value)
    except ValueError:
        raise ValidationError(f"--patterns expects an integer or 'all', got {value!r}") from None
    if count < 1:
        raise ValidationError("--patterns must be >= 1")
    return count, False


def _cmd_compress(args) -> int:
    model = load_model(args.model)
    candidates, exhaustive = _parse_patterns(args.patterns)
    profile = PROFILE_FACTORIES[args.profile](seed=args.seed, candidates=candidates, exhaustive=exhaustive)
    cm, decisions = compress_with_decisions(model, profile)
    save_compressed(cm, args.out)

    summary = computational_cost(cm)
    base_cost, comp_cost = model_cost(model), model_cost(cm)
    report = {
        "model": model.name,
        "output": str(args.out),
        "profile": args.profile,
        "seed": args.seed,
        "patterns": "all" if exhaustive else candidates,
        "groups": compression_decisions(cm, decisions),
        "compression_ratio": compression_ratio(dense_payload_nbytes(model), compressed_payload_nbytes(cm)),
        "computational_cost": {
            "conv_layers": summary.conv_layer_count,
            "mean_kernels_per_layer": summary.mean_kernels_per_layer,
            "mean_nnz_per_kernel": summary.mean_nnz_per_kernel,
            "product": summary.product,
            "total_nnz": summary.total_nnz,
        },
        "latency_units": {"base": base_cost.latency, "compressed": comp_cost.latency},
        "energy_units": {"base": base_cost.energy, "compressed": comp_cost.energy},
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.report:
        Path(args.report).write_text(text + "\n")
    return 0


def _cmd_run(args) -> int:
    inputs = load_activations(args.inputs)
    model = load_any(args.model)
    compressed = isinstance(model, CompressedModel)
    if compressed:
        # decompress once; the engine skips the pruned cells it finds, the same bits as running all
        model = decompress_model(model)
    outputs = run_batch(model, inputs)
    save_activations(args.out, outputs)
    print(json.dumps({
        "model": str(args.model),
        "format": "compressed" if compressed else "dense",
        "inputs": len(inputs),
        "output": str(args.out),
        "output_shape": list(outputs.shape[1:]),
    }, indent=2))
    return 0


def _cmd_evaluate(args) -> int:
    base = load_model(args.base)
    cm = load_compressed(args.compressed)
    inputs = load_activations(args.inputs)
    report = evaluate_fidelity(base, cm, inputs)
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _cmd_inspect(args) -> int:
    model = load_any(args.model)
    compressed = isinstance(model, CompressedModel)
    if args.groups:
        for group in model.groups if compressed else find_root_groups(model):
            print(json.dumps({"root": group.root_id, "leaves": list(group.leaf_ids)}))
        return 0
    if not compressed:
        print(json.dumps({
            "format": "upaq",
            "name": model.name,
            "input_shape": list(model.input_shape),
            "layers": len(model.layers),
            "conv_layers": len(model.conv_layers()),
            "payload_nbytes": dense_payload_nbytes(model),
        }, indent=2))
        return 0
    print(json.dumps({
        "format": "upaqc",
        "name": model.name,
        "input_shape": list(model.input_shape),
        "layers": len(model.layers),
        "groups": compression_decisions(model),
        "profile": model.profile.name,
        "payload_nbytes": compressed_payload_nbytes(model),
        "compression_ratio": (
            compression_ratio(model.base_payload_nbytes, compressed_payload_nbytes(model))
            if model.base_payload_nbytes else None
        ),
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
