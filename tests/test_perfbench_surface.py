"""What the benchmark harness under ``perfbench/`` uses of the library.

perfbench runs against the tree it sits in and is changed only together
with the benchmark, so a name it uses that the library drops fails here,
in the tests, before a benchmark run does.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

import oracles
import upaq
from upaq.inference import load_activations, run_batch, save_activations

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _uses():
    """``(file, module, name)`` for every ``upaq.<name>`` and ``oracles.<name>``
    attribute and every ``from upaq.<mod> import <name>`` in perfbench."""
    sources = sorted(PERFBENCH.glob("*.py"))
    assert sources, f"no perfbench sources under {PERFBENCH}"
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in ("upaq", "oracles"):
                    yield path.name, node.value.id, node.attr
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "upaq":
                for alias in node.names:
                    yield path.name, node.module, alias.name


def test_every_library_name_perfbench_uses_resolves():
    modules = {"oracles": oracles}
    uses = list(_uses())
    assert {mod for _, mod, _ in uses} >= {"upaq", "upaq.cli", "upaq.inference", "oracles"}
    missing = [f"{fname}: {mod}.{name}" for fname, mod, name in uses
               if not hasattr(modules.get(mod) or importlib.import_module(mod), name)]
    assert missing == []


def test_perfbench_saves_a_list_of_activations(tmp_path):
    # workloads.py writes the wide model's input batches this way
    rng = np.random.default_rng(54)
    xs = rng.uniform(-1, 1, (3, 3, 4, 5)).astype(np.float32)
    save_activations(tmp_path / "in.bin", [upaq.Activation(x) for x in xs])
    back = load_activations(tmp_path / "in.bin")
    assert back.shape == xs.shape and back.tobytes() == xs.tobytes()


def test_perfbench_forward_compressed_is_run_batch(toy_cnn, toy_cnn_hck):
    # workloads.py checks `upaq run` against one input at a time this way
    _, inputs = toy_cnn
    dense = upaq.decompress_model(toy_cnn_hck)
    for x, want in zip(inputs[:2], run_batch(dense, inputs[:2])):
        got = upaq.forward_compressed(toy_cnn_hck, upaq.Activation(x), sparse=True).data
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
