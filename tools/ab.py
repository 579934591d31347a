"""Time ``run_batch`` of two source trees in interleaved pairs: ``python tools/ab.py A/src B/src [PAIRS]``.

Both ``upaq`` packages are imported into one process.  For the three fixtures (seed 42, 64 inputs)
and perfbench's wide model (8 inputs), dense and compressed under hck and lck, each pair runs A then B
or B then A in turn; it prints the median of A's time over B's (above 1, B is faster) and the pairs B
won.  Before it times anything it runs each case once on both sides, and exits 1 naming the first case
whose outputs differ in a single bit.  Needs numpy only.
"""

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


def cases(upaq):
    """``{name: (model, batch)}`` for every model, dense and decompressed under hck and lck."""
    models = {arch: upaq.gen_fixture(arch, 42) for arch in upaq.fixtures.ARCH_NAMES} | {"wide": wide(upaq)}
    out = {}
    for arch, (model, batch) in models.items():
        out[f"{arch} dense"] = (model, batch)
        for profile in (upaq.hck_profile, upaq.lck_profile):
            cm = upaq.compress_model(model, profile(seed=42))
            out[f"{arch} {cm.profile.name}"] = (upaq.decompress_model(cm), batch)
    return out


if __name__ == "__main__":
    sides = [load(src, f"upaq_{side}") for side, src in zip("ab", sys.argv[1:3])]
    pairs = int(sys.argv[3]) if len(sys.argv) > 3 else 41
    both = [cases(upaq) for upaq in sides]
    for name in both[0]:
        if len({sides[side].inference.run_batch(*both[side][name]).tobytes() for side in (0, 1)}) > 1:
            sys.exit(f"{name}: the outputs of A and B differ")
    for name in both[0]:
        times = ([], [])
        for pair in range(pairs):
            for side in (0, 1) if pair % 2 == 0 else (1, 0):
                start = time.perf_counter()
                sides[side].inference.run_batch(*both[side][name])
                times[side].append(time.perf_counter() - start)
        ratio = statistics.median(a / b for a, b in zip(*times))
        print(f"{name:18} A/B {ratio:5.3f}  B faster in {sum(a > b for a, b in zip(*times))}/{pairs}")
