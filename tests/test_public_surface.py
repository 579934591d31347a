"""The package's public surface: what ``upaq`` exports, and no uncalled helper.

A public top-level function or class in ``src/upaq`` must either be
exported through ``upaq.__all__`` or be referenced somewhere in ``src/``
outside its own definition.  Anything else is code with no caller.
"""

import ast
import inspect
from pathlib import Path

import pytest

import upaq
from upaq import compressed, compressor, container, cost, evaluate, inference, model, patterns, quantizer

SRC = Path(upaq.__file__).parent

REMOVED = {
    model: ("deep_copy", "check_structure"),
    cost: ("AnalyticCostModel", "estimate_latency", "estimate_energy"),
    patterns: ("apply_pattern",),
    quantizer: ("QuantResult", "mp_quantize", "dequantize", "masked_mean_sqnr_db", "_row_sums"),
    inference: ("forward", "forward_batch", "_residue_classes", "_tiles", "_plane_cells", "TILE_BYTES", "MAX_PARTS", "MAX_STRIDE"),
    compressor: ("compress_kxk_group", "compress_1x1_group", "GroupDecision", "compress_with_decisions", "_slot_counts"),
    container: ("sniff_format", "packed_layer_nbytes"),
    compressed: ("stored_value_count", "ProfileInfo", "check_profile"),
}


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from upaq import *", namespace)
    assert len(upaq.__all__) == len(set(upaq.__all__))
    for name in upaq.__all__:
        assert namespace[name] is getattr(upaq, name)


@pytest.mark.parametrize("module", list(REMOVED), ids=lambda m: m.__name__)
def test_removed_names_are_gone(module):
    for name in REMOVED[module]:
        assert name not in upaq.__all__
        assert not hasattr(upaq, name)
        assert not hasattr(module, name)


def test_compress_takes_no_workers():
    assert "workers" not in inspect.signature(upaq.compress_model).parameters


def test_cost_and_profile_take_no_overrides():
    # a layer costs its group's bitwidth or 32, and a profile's name sets its retained counts
    for fn in (cost.model_cost, cost.layer_costs, upaq.CompressionProfile):
        params = inspect.signature(fn).parameters
        assert "bits" not in params and "n_map" not in params


def test_one_record_of_a_compression():
    # the model carries the profile and each group's score; layers are looked up on the graph
    assert not hasattr(compressed.CompressedModel, "by_id")
    assert list(inspect.signature(compressor.compression_decisions).parameters) == ["cm"]


def test_a_payload_carries_its_pattern():
    # d and the stored cells come from the payload, not from a group lookup beside it
    assert not hasattr(compressed.CompressedModel, "group_for")
    for fn in (compressed.dequantized_weights, evaluate.payload_sqnr_db):
        params = inspect.signature(fn).parameters
        assert "d" not in params and "pattern" not in params
    for module in (compressed, compressor, container, cost, evaluate, inference):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            params = inspect.signature(fn).parameters
            if any("QuantizedConv" in str(p.annotation) for p in params.values()):
                assert "d" not in params and "pattern" not in params, f"{module.__name__}.{name}"


def test_one_walk_checks_a_graph():
    # a checked graph's last layer is its one sink, and a payload's shape marks its layer weightless
    assert not hasattr(model.ModelGraph, "sink")
    assert list(inspect.signature(model.infer_shapes).parameters) == ["model", "weight_shapes"]


def test_engine_takes_no_sparse_switch():
    # the engine works out what to skip from the weights, the bias signs and the input
    for fn in (inference.run_batch, inference._conv_steps):
        assert "sparse" not in inspect.signature(fn).parameters


def _names_used(node, skip):
    """Identifiers a tree refers to, leaving out the subtree ``skip``."""
    used = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.alias):
            used.add(n.name)
        stack.extend(ast.iter_child_nodes(n))
    return used


def test_every_public_definition_has_a_caller_or_is_exported():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    # __init__ only re-exports: an import there is not a caller
    callers = {name: tree for name, tree in trees.items() if name != "__init__.py"}
    uncalled = []
    for fname, tree in callers.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in upaq.__all__:
                continue
            if not any(node.name in _names_used(other, node) for other in callers.values()):
                uncalled.append(f"{fname}:{node.name}")
    assert uncalled == []


def test_a_plan_is_one_list_of_row_groups():
    # the every-column plan is built only where it runs, not beside each plan
    assert not {"every", "skipping"} & set(inference.ConvPlan._fields)
