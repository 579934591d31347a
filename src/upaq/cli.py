"""Command-line interface.

Verbs: gen-fixture, compress, run, evaluate, inspect.  JSON reports go to
stdout unless an output path is given.  Exit codes: 0 on success, 2 on
validation/parameter errors, 1 on IO or container-format errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .compressed import decompress_model
from .container import (
    compressed_payload_nbytes,
    dense_payload_nbytes,
    load_compressed,
    load_model,
    save_compressed,
    save_model,
    sniff_format,
)
from .cost import AnalyticCostModel, MeasuredCostModel, compression_ratio, computational_cost
from .compressor import PROFILE_FACTORIES, compress_with_decisions, compression_decisions
from .errors import FormatError, ValidationError
from .evaluate import evaluate_fidelity
from .fixtures import ARCH_NAMES, gen_fixture
from .grouping import find_root_groups
from .inference import forward_batch, load_activations, save_activations


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="upaq", description="pattern-pruning + mixed-precision quantization toolkit")
    parser.add_argument("--version", action="version", version=f"upaq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-fixture", help="generate a deterministic toy model and input batch")
    p.add_argument("arch", choices=ARCH_NAMES)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--inputs", type=int, default=64, help="number of input tensors")
    p.add_argument("-o", "--out-dir", default=".", help="directory for the .upaq and inputs.bin files")

    p = sub.add_parser("compress", help="prune and quantize a dense model")
    p.add_argument("model", help="input .upaq file")
    p.add_argument("-o", "--out", required=True, help="output .upaqc file")
    p.add_argument("--profile", choices=sorted(PROFILE_FACTORIES), default="hck")
    p.add_argument("--patterns", default="16", help="candidate patterns per group, or 'all' for exhaustive search")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cost", choices=("analytic", "measured"), default="analytic")
    p.add_argument("--workers", type=int, default=1, help="parallel group searches (output is identical for any value)")
    p.add_argument("--report", help="also write the JSON report to this path")

    p = sub.add_parser("run", help="run a model over an input batch")
    p.add_argument("model", help=".upaq or .upaqc file")
    p.add_argument("--inputs", required=True, help="raw f32 blob with a .json sidecar")
    p.add_argument("--out", required=True, help="output blob path (sidecar written alongside)")

    p = sub.add_parser("evaluate", help="compare a compressed model against its base")
    p.add_argument("base", help="dense .upaq file")
    p.add_argument("compressed", help=".upaqc file")
    p.add_argument("--inputs", required=True, help="raw f32 blob with a .json sidecar")
    p.add_argument("-o", "--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("inspect", help="summarize a model file")
    p.add_argument("model", help=".upaq or .upaqc file")
    p.add_argument("--groups", action="store_true", help="print root-leaf groups as JSON lines")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValidationError, ValueError) as exc:
        print(f"upaq: error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"upaq: error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "gen-fixture":
        return _cmd_gen_fixture(args)
    if args.command == "compress":
        return _cmd_compress(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "evaluate":
        return _cmd_evaluate(args)
    if args.command == "inspect":
        return _cmd_inspect(args)
    raise AssertionError(f"unhandled command {args.command!r}")


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
    cost = MeasuredCostModel() if args.cost == "measured" else AnalyticCostModel()
    cm, decisions = compress_with_decisions(model, profile, cost=cost, workers=args.workers)
    save_compressed(cm, args.out)

    analytic = AnalyticCostModel()
    summary = computational_cost(cm)
    report = {
        "model": model.name,
        "output": str(args.out),
        "profile": args.profile,
        "seed": args.seed,
        "patterns": "all" if exhaustive else candidates,
        "cost_mode": args.cost,
        "groups": compression_decisions(cm, decisions),
        "compression_ratio": compression_ratio(dense_payload_nbytes(model), compressed_payload_nbytes(cm)),
        "computational_cost": {
            "conv_layers": summary.conv_layer_count,
            "mean_kernels_per_layer": summary.mean_kernels_per_layer,
            "mean_nnz_per_kernel": summary.mean_nnz_per_kernel,
            "product": summary.product,
            "total_nnz": summary.total_nnz,
        },
        "latency_units": {"base": analytic.latency(model), "compressed": analytic.latency(cm)},
        "energy_units": {"base": analytic.energy(model), "compressed": analytic.energy(cm)},
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.report:
        Path(args.report).write_text(text + "\n")
    return 0


def _cmd_run(args) -> int:
    inputs = load_activations(args.inputs)
    kind = sniff_format(args.model)
    if kind == "dense":
        outputs = forward_batch(load_model(args.model), inputs)
    else:
        # decompress once, then skip the pruned cells: the same bits as the dense path
        outputs = forward_batch(decompress_model(load_compressed(args.model)), inputs, sparse=True)
    save_activations(args.out, outputs)
    print(json.dumps({
        "model": str(args.model),
        "format": kind,
        "inputs": len(inputs),
        "output": str(args.out),
        "output_shape": list(outputs[0].shape),
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
    kind = sniff_format(args.model)
    if kind == "dense":
        model = load_model(args.model)
        if args.groups:
            for group in find_root_groups(model):
                print(json.dumps({"root": group.root_id, "leaves": list(group.leaf_ids)}))
            return 0
        print(json.dumps({
            "format": "upaq",
            "name": model.name,
            "input_shape": list(model.input_shape),
            "layers": len(model.layers),
            "conv_layers": len(model.conv_layers()),
            "payload_nbytes": dense_payload_nbytes(model),
        }, indent=2))
        return 0
    cm = load_compressed(args.model)
    if args.groups:
        for group in cm.groups:
            print(json.dumps({"root": group.root_id, "leaves": list(group.leaf_ids)}))
        return 0
    print(json.dumps({
        "format": "upaqc",
        "name": cm.name,
        "input_shape": list(cm.input_shape),
        "layers": len(cm.layers),
        "groups": compression_decisions(cm),
        "profile": cm.profile.name,
        "payload_nbytes": compressed_payload_nbytes(cm),
        "compression_ratio": (
            compression_ratio(cm.base_payload_nbytes, compressed_payload_nbytes(cm))
            if cm.base_payload_nbytes else None
        ),
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
