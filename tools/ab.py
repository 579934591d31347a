"""Time the engine of two source trees in interleaved pairs: ``python tools/ab.py A/src B/src [PAIRS]``.

Both ``upaq`` packages are imported into one process.  For the three fixtures (seed 42, 64 inputs),
perfbench's wide model and a tiny model whose 1x1 layer has a padded block (8 inputs each), dense
and compressed under hck and lck, and for ``evaluate_fidelity`` of the wide model under hck, each
pair runs A then B or B then A in turn; it prints the median of A's time over B's (above 1, B is
faster) and the pairs B won.  Its first line names the CPUs B's ``inference.usable_cpus()`` counts,
which a batch of more than one chunk may be split over.
Before it times anything it checks that both sides give the same bytes: each timed case's outputs,
each model's ``.upaq`` bytes, and its ``.upaqc`` bytes and evaluate report under hck and lck, with
drawn and with exhaustive patterns.  It lists every case that differs and exits 1 if any does.  Needs numpy only.
"""

import functools
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def load(src: str, name: str):
    init = Path(src, "upaq", "__init__.py")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wide(upaq):
    """perfbench's wide model: its layer shapes, uniform(-b, b) weights and biases, b = 1/sqrt(fan_in)."""
    rng = np.random.default_rng(42)
    def conv(lid, inputs, o, i, k, padding=0, kind="conv2d"):
        b = 1.0 / np.sqrt(i * k * k)
        weights = upaq.Tensor4(rng.uniform(-b, b, (o, i, k, k)).astype(np.float32))
        return upaq.LayerSpec(lid, kind, inputs, weights, rng.uniform(-b, b, o).astype(np.float32), padding=padding)
    relu = lambda lid, src: upaq.LayerSpec(lid, "relu", (src,))
    layers = [conv("stem", (), 32, 3, 5, 2), relu("relu1", "stem"), conv("conv2", ("relu1",), 64, 32, 3, 1),
              relu("relu2", "conv2"), conv("conv3", ("relu2",), 64, 64, 3, 1),
              upaq.LayerSpec("add", "add", ("conv3", "relu2")), conv("conv4", ("add",), 64, 64, 1),
              upaq.LayerSpec("gap", "global_avg_pool", ("conv4",)), conv("fc", ("gap",), 10, 64, 1, kind="linear")]
    return upaq.ModelGraph("wide", (3, 32, 32), layers), rng.uniform(-1, 1, (8, 3, 32, 32)).astype(np.float32)


def tiny(upaq):
    """A 3x3 stem and a 1x1 layer of 6 weights, whose one 3x3 block has 3 pad cells;
    uniform(-b, b) weights and biases, b = 1/sqrt(fan_in)."""
    rng = np.random.default_rng(42)
    def weighted(lid, inputs, o, i, k, padding=0, kind="conv2d"):
        b = 1.0 / np.sqrt(i * k * k)
        weights = upaq.Tensor4(rng.uniform(-b, b, (o, i, k, k)).astype(np.float32))
        return upaq.LayerSpec(lid, kind, inputs, weights, rng.uniform(-b, b, o).astype(np.float32), padding=padding)
    layers = [weighted("stem", (), 3, 1, 3, 1), upaq.LayerSpec("relu", "relu", ("stem",)),
              weighted("mix", ("relu",), 2, 3, 1), upaq.LayerSpec("gap", "global_avg_pool", ("mix",)),
              weighted("fc", ("gap",), 2, 2, 1, kind="linear")]
    return upaq.ModelGraph("tiny", (1, 8, 8), layers), rng.uniform(-1, 1, (8, 1, 8, 8)).astype(np.float32)


def models(upaq):
    """``{arch: (model, batch)}`` for the three fixtures, the wide model and the tiny model."""
    fixtures = {arch: upaq.gen_fixture(arch, 42) for arch in upaq.fixtures.ARCH_NAMES}
    return fixtures | {"wide": wide(upaq), "tiny": tiny(upaq)}


def cases(upaq):
    """``{name: call}``: ``run_batch`` of every model, dense and decompressed under hck and lck,
    then ``evaluate_fidelity`` of the wide model under hck."""
    out = {}
    for arch, (model, batch) in models(upaq).items():
        out[f"{arch} dense"] = functools.partial(upaq.inference.run_batch, model, batch)
        for profile in (upaq.hck_profile, upaq.lck_profile):
            cm = upaq.compress_model(model, profile(seed=42))
            out[f"{arch} {cm.profile.name}"] = functools.partial(upaq.inference.run_batch,
                                                                 upaq.decompress_model(cm), batch)
    model, batch = wide(upaq)
    cm = upaq.compress_model(model, upaq.hck_profile(seed=42))
    return out | {"wide hck evaluate": functools.partial(upaq.evaluate_fidelity, model, cm, batch)}


def result_bytes(result):
    """A ``run_batch`` output's bytes, or an evaluate report's JSON."""
    return result.tobytes() if isinstance(result, np.ndarray) else result.to_json().encode()


def artifacts(upaq, timed):
    """``{name: bytes}``: each timed case's outputs, then each model's dense container, and its
    compressed container and evaluate report under hck and lck, drawn and exhaustive."""
    out = {f"{name} outputs": result_bytes(call()) for name, call in timed.items()}
    for arch, (model, batch) in models(upaq).items():
        out[f"{arch} .upaq"] = upaq.container.serialize_model(model)
        for profile in (upaq.hck_profile, upaq.lck_profile):
            for exhaustive in (False, True):
                cm = upaq.compress_model(model, profile(seed=42, exhaustive=exhaustive))
                name = f"{arch} {cm.profile.name}{' all' if exhaustive else ''}"
                out[f"{name} .upaqc"] = upaq.container.serialize_compressed(cm)
                out[f"{name} evaluate"] = upaq.evaluate_fidelity(model, cm, batch).to_json().encode()
    return out


if __name__ == "__main__":
    sides = [load(src, f"upaq_{side}") for side, src in zip("ab", sys.argv[1:3])]
    print(f"{sides[1].inference.usable_cpus()} usable CPUs")
    pairs = int(sys.argv[3]) if len(sys.argv) > 3 else 41
    both = [cases(upaq) for upaq in sides]
    checked = [artifacts(upaq, timed) for upaq, timed in zip(sides, both)]
    differ = [name for name in checked[0] if checked[0][name] != checked[1][name]]
    for name in differ:
        print(f"{name}: A and B differ")
    if differ:
        sys.exit(f"{len(differ)} of {len(checked[0])} outputs, containers and reports differ")
    print(f"{len(checked[0])} outputs, containers and reports identical")
    for name in both[0]:
        times = ([], [])
        for pair in range(pairs):
            for side in (0, 1) if pair % 2 == 0 else (1, 0):
                start = time.perf_counter()
                both[side][name]()
                times[side].append(time.perf_counter() - start)
        ratio = statistics.median(a / b for a, b in zip(*times))
        print(f"{name:18} A/B {ratio:5.3f}  B faster in {sum(a > b for a, b in zip(*times))}/{pairs}")
