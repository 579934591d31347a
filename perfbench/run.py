"""Run one seeded benchmark workload through the upaq CLI and print its metrics.

    python3 perfbench/run.py --workload fixtures-cli --seed 1 --seconds 20 --trace 0

Run from any directory; the program is imported from ``src/`` of the tree
this file sits in, and ``tests/oracles.py`` supplies the references the
outputs are checked against.  Scratch files go to ``.bench_work/`` at the
tree's root, and a copy of the result (with the environment, every check
and, for ``--trace 1``, the span file) is kept under ``.bench_work/results``
and ``.bench_work/trace``.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (CLI verb calls) and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones, from timed passes that
alternate untraced and traced so the tracing overhead is measured too.
The exit code is 0 when every operation and check passed, 1 when one
failed, and 2 when the tree holds no program to run.
"""

import argparse
import gc
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned before numpy loads: one thread, so the figures do not depend on
# how many cores a BLAS pool would take.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fixtures-cli", "compress-wide", "infer-wide")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root: Path):
    """The checked-out commit, read from ``.git`` directly; None outside a git tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_program():
    """Import upaq from this tree's ``src/`` and the oracles from ``tests/``.

    Returns the oracles module, or None when the tree lacks them.
    """
    src, oracle_file = ROOT / "src", ROOT / "tests" / "oracles.py"
    if not (src / "upaq" / "__init__.py").is_file() or not oracle_file.is_file():
        return None
    sys.dont_write_bytecode = True  # every run compiles alike and leaves the tree clean
    sys.path.insert(0, str(src))
    import upaq
    if not Path(upaq.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: upaq was imported from {upaq.__file__}, not from {src}")
    spec = importlib.util.spec_from_file_location("upaq_oracles", oracle_file)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import numpy, upaq, upaq.cli; "
                "print(time.perf_counter() - t0)")


def import_seconds() -> float:
    """Time a fresh interpreter's import of numpy and upaq, as each CLI call pays it."""
    proc = subprocess.run([sys.executable, "-B", "-c", IMPORT_PROBE], cwd=ROOT, check=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True)
    return float(proc.stdout)


def environment() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(ROOT),
        "platform": platform.platform(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


MIN_PASSES = 2


def measure(workload, cli, set_up, setup_repeats: int, seconds: float, tracer):
    """Set up ``setup_repeats`` times and run timed passes until their time
    adds up to ``seconds``, and at least ``MIN_PASSES`` of them.

    The host's speed holds for tens of seconds at a time, so the set-ups
    are spread over the run, one before each pass while any are left,
    rather than done in a block: then set-up and pass figures both sample
    the whole run.  ``set_up()`` returns the state the next passes use.
    With a tracer, passes alternate untraced and traced, starting untraced.
    """
    state, done = set_up(), 1
    passes = []
    while len(passes) < MIN_PASSES or sum(p.wall_s for p in passes) < seconds:
        if passes and done < setup_repeats:
            state, done = set_up(), done + 1
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            record = workload.run_pass(cli, state)
        finally:
            if traced:
                tracer.uninstall()
        record.wall_s = time.perf_counter() - t0
        record.traced = traced
        passes.append(record)
    for _ in range(done, setup_repeats):
        set_up()
    return passes


def verb_seconds(records, verb: str) -> tuple[float, int]:
    """Wall time of one verb over the workload's models, and the inputs it took.

    The time is the sum over the verb's models of the mean time of one
    call, over every call the records (passes, or set-ups) made.  The
    host's speed swings by about 1.5x for seconds to minutes; the mean
    moves with the share of time spent slow, where the median and the
    minimum jump between the two speeds.
    """
    keys = [key for key in records[0].seconds if key[0] == verb]
    seconds = sum(statistics.fmean(t for r in records for t in r.seconds[key]) for key in keys)
    return seconds, sum(records[0].inputs.get(key, 0) for key in keys)


def end_to_end(setup_times, setups, passes) -> dict:
    compressing = [p for p in passes if p.compress_reports] or [s for s in setups if s.compress_reports]
    ratios = [r["compression_ratio"] for r in compressing[0].compress_reports.values()]
    errs = [r["mean_rel_err"] for r in passes[0].evaluate_reports.values()]
    run_s, run_inputs = verb_seconds(passes, "run")
    evaluate_s, evaluate_inputs = verb_seconds(passes, "evaluate")
    values = {
        "compress_s": (verb_seconds(compressing, "compress")[0], "s"),
        "run_inputs_per_s": (run_inputs / run_s, "inputs/s"),
        "evaluate_inputs_per_s": (evaluate_inputs / evaluate_s, "inputs/s"),
        "compression_ratio": (math.exp(sum(map(math.log, ratios)) / len(ratios)), "x"),
        "mean_rel_err": (sum(errs) / len(errs), "1"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


PER_LAYER_UNITS = {"calls": "count", "candidates": "count", "groups": "count", "upaqc_bytes": "bytes",
                   "winner_share": "1", "decompress_per_run": "1", "overhead_share": "1",
                   "absent_hooks": "count"}


def per_layer(tracer, passes) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    values = tracer.layer_metrics(len(traced))
    values["trace.overhead_share"] = (statistics.fmean(p.wall_s for p in traced)
                                      / statistics.fmean(p.wall_s for p in untraced) - 1.0)
    values["trace.absent_hooks"] = float(len(tracer.absent))
    return {name: {"value": value, "unit": PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "ms")}
            for name, value in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    oracles = load_program()
    if oracles is None:
        print(f"perfbench: error: {ROOT} holds no src/upaq or tests/oracles.py to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import Tracer
    from workloads import WORKLOADS, Cli, OpFailed, common_checks

    env = environment()
    print(json.dumps({"env": env}), flush=True)
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    cli = Cli(tracer)
    bench_dir = ROOT / ".bench_work"
    work = bench_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    try:
        setup_times, setups = [], []

        def set_up():
            import_s = 0.0 if args.trace else import_seconds()
            t0 = time.perf_counter()
            state, record = workload.setup(cli, work / f"setup{len(setups)}", args.seed)
            setup_times.append(import_s + time.perf_counter() - t0)
            setups.append(record)
            return state

        passes = measure(workload, cli, set_up, 1 if args.trace else workload.setup_repeats,
                         args.seconds, tracer)
        checks = common_checks(setups, passes, oracles) + workload.check(passes[-1], oracles, args.seed)
        detail.update(setup_s=setup_times, pass_wall_s=[p.wall_s for p in passes],
                      pass_traced=[p.traced for p in passes],
                      call_s={"/".join(key): [r.seconds[key] for r in records]
                              for records in (setups, passes) for key in records[0].seconds},
                      upaqc_sha256={name: digest for record in (setups[-1], passes[-1])
                                    for name, digest in record.hashes.items() if name.endswith(".upaqc")})
        if tracer is not None:
            result["metrics"] = per_layer(tracer, passes)
            detail.update(spans=tracer.span_count(), absent_hooks=tracer.absent, patched=tracer.patched)
        else:
            result["metrics"] = end_to_end(setup_times, setups, passes)
        failed_checks = [c for c in checks if not c["ok"]]
        detail["checks"] = {"passed": len(checks) - len(failed_checks), "failed": failed_checks}
        result["correct"] = not failed_checks
    except OpFailed as exc:
        detail["error"] = str(exc)
        print(f"perfbench: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["attempted"], result["failed"] = cli.attempted, cli.failed
    result["correct"] = result["correct"] and cli.failed == 0

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (bench_dir / "results").mkdir(parents=True, exist_ok=True)
    (bench_dir / "results" / f"{stem}.json").write_text(
        json.dumps({"env": env, "detail": detail, "result": result}, indent=2) + "\n")
    if tracer is not None:
        (bench_dir / "trace").mkdir(parents=True, exist_ok=True)
        tracer.write_spans(bench_dir / "trace" / f"{stem}.jsonl", {"env": env, "detail": detail})
    print(json.dumps({"detail": detail}), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
