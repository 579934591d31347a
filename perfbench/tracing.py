"""Outside-in tracing of upaq's layers for the benchmark's traced run.

The tracer wraps public functions of the upaq modules by attribute
replacement: every module namespace under ``upaq`` that bound the original
function object gets the wrapper, so a call made through any import path is
seen.  Nothing under ``src/`` is edited, and :meth:`Tracer.uninstall` puts
every original back.

Each call becomes a span (name, parent, start, end).  Spans stay in memory,
in flat arrays, and are written out once at the end of the run.  A span's
self time is its duration minus the durations of its direct child spans.

A hooked function that does not exist (a later refactor may remove it) is
reported as absent; its metrics then read 0.  The run does not fail on it.

Calls are assumed to come from one thread: the parent of a span is the
innermost span open when it starts.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from array import array

import numpy as np


def _count_one(key):
    def update(counters, args, kwargs, result):
        counters[key] = counters.get(key, 0.0) + 1.0
    return update


def _count_len(key):
    def update(counters, args, kwargs, result):
        counters[key] = counters.get(key, 0.0) + len(result)
    return update


def _count_file_bytes(key, path_arg):
    def update(counters, args, kwargs, result):
        path = args[path_arg] if len(args) > path_arg else kwargs.get("path")
        if path is not None:
            counters[key] = counters.get(key, 0.0) + os.path.getsize(path)
    return update


# (span name, module, attribute, counter update run after a successful call)
HOOKS = (
    ("quantizer.mp_quantize", "upaq.quantizer", "mp_quantize", None),
    ("patterns.apply_pattern", "upaq.patterns", "apply_pattern", None),
    ("patterns.generate_pattern", "upaq.patterns", "generate_pattern", _count_one("patterns.candidates")),
    ("patterns.enumerate_all_patterns", "upaq.patterns", "enumerate_all_patterns",
     _count_len("patterns.candidates")),
    ("compressor.search_group", "upaq.compressor", "compress_kxk_group", None),
    ("compressor.search_group", "upaq.compressor", "compress_1x1_group", None),
    ("compressor.calculate_es", "upaq.compressor", "calculate_es", None),
    ("cost.analytic", "upaq.cost", "AnalyticCostModel.latency", None),
    ("cost.analytic", "upaq.cost", "AnalyticCostModel.energy", None),
    ("model.deep_copy", "upaq.model", "deep_copy", None),
    ("model.infer_shapes", "upaq.model", "infer_shapes", None),
    ("grouping.find_root_groups", "upaq.grouping", "find_root_groups", _count_len("grouping.groups")),
    ("compressed.decompress_model", "upaq.compressed", "decompress_model", None),
    ("container.save_compressed", "upaq.container", "save_compressed",
     _count_file_bytes("container.upaqc_bytes", 1)),
    ("container.load_compressed", "upaq.container", "load_compressed",
     _count_file_bytes("container.upaqc_bytes", 0)),
    ("container.load_model", "upaq.container", "load_model", None),
    ("inference.forward", "upaq.inference", "forward", None),
    ("inference.forward_compressed", "upaq.inference", "forward_compressed", None),
    ("inference.activations_io", "upaq.inference", "load_activations", None),
    ("inference.activations_io", "upaq.inference", "save_activations", None),
    ("evaluate.evaluate_fidelity", "upaq.evaluate", "evaluate_fidelity", None),
    ("evaluate.model_sqnr_db", "upaq.evaluate", "model_sqnr_db", None),
)

LAYERS = ("quantizer", "patterns", "compressor", "cost", "model", "grouping",
          "compressed", "container", "inference", "evaluate")
CLI_VERBS = ("compress", "run", "evaluate")


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._name_ids = array("i")
        self._parents = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.patched: dict[str, list[str]] = {}
        self._undo: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def _name_id(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _open(self, name_id: int) -> int:
        idx = len(self._starts)
        self._name_ids.append(name_id)
        self._parents.append(self._stack[-1])
        self._ends.append(0.0)
        self._stack.append(idx)
        self._starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block (used for the CLI verb calls)."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, update):
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if update is not None:
                update(tracer.counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every hook; hooks whose target is missing are recorded as absent."""
        self.absent = []
        for name, module_name, attr, update in HOOKS:
            target = f"{module_name}.{attr}"
            module = sys.modules.get(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(target)
                continue
            wrapper = self._wrap(original, name, update)
            if owner_name:  # a method: the class is the one namespace that holds it
                bindings = [(owner, leaf)]
            else:
                bindings = [
                    (mod, key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod is not None and (mod_name == "upaq" or mod_name.startswith("upaq."))
                    for key, value in list(vars(mod).items())
                    if value is original
                ]
            for holder, key in bindings:
                setattr(holder, key, wrapper)
                self._undo.append((holder, key, original))
            self.patched[target] = [
                target if owner_name else f"{holder.__name__}.{key}" for holder, key in bindings
            ]

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo = []

    def span_count(self) -> int:
        return len(self._starts)

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, each divided by the number of traced passes.

        ``.ms`` is inclusive time, ``.self_ms`` excludes hooked children,
        ``.ms_p50`` is the median over calls.  Values with no calls read 0.
        """
        n = len(self._starts)
        name_ids = np.frombuffer(self._name_ids, dtype=np.intc)[:n].astype(np.int64)
        parents = np.frombuffer(self._parents, dtype=np.intc)[:n].astype(np.int64)
        dur_ms = (np.frombuffer(self._ends, dtype=np.float64)[:n]
                  - np.frombuffer(self._starts, dtype=np.float64)[:n]) * 1e3
        has_parent = parents >= 0
        child_ms = np.bincount(parents[has_parent], weights=dur_ms[has_parent], minlength=n)
        self_ms = dur_ms - child_ms
        parent_name = np.where(has_parent, name_ids[np.maximum(parents, 0)], -1)
        root = np.where(has_parent, parents, np.arange(n))
        while True:  # pointer jumping: every span ends up pointing at its root span
            hop = root[root]
            if np.array_equal(hop, root):
                break
            root = hop

        def is_(name):
            idx = self._name_index.get(name, -2)
            return name_ids == idx

        def calls(name):
            return float(is_(name).sum()) / passes

        def total_ms(name, mask=None):
            m = is_(name) if mask is None else mask
            return float(dur_ms[m].sum()) / passes

        def p50_ms(name):
            m = is_(name)
            return float(np.median(dur_ms[m])) if m.any() else 0.0

        def self_of(prefix):
            ids = [i for i, nm in enumerate(self.names) if nm.startswith(prefix + ".")]
            return float(self_ms[np.isin(name_ids, ids)].sum()) / passes

        def counter(key):
            return self.counters.get(key, 0.0) / passes

        search = self._name_index.get("compressor.search_group", -2)
        scored = float((is_("compressor.calculate_es") & (parent_name == search)).sum())
        groups_searched = float(is_("compressor.search_group").sum())
        cost_outer = is_("cost.analytic") & (parent_name != self._name_index.get("cost.analytic", -2))
        run_spans = float(is_("cli.run").sum())
        decompress_in_run = float(
            (is_("compressed.decompress_model") & (name_ids[root] == self._name_index.get("cli.run", -2))).sum()
        )

        metrics = {
            "quantizer.mp_quantize.calls": calls("quantizer.mp_quantize"),
            "quantizer.mp_quantize.ms": total_ms("quantizer.mp_quantize"),
            "patterns.candidates": counter("patterns.candidates"),
            "patterns.apply_pattern.calls": calls("patterns.apply_pattern"),
            "patterns.apply_pattern.ms": total_ms("patterns.apply_pattern"),
            "compressor.search_group.ms": total_ms("compressor.search_group"),
            "compressor.calculate_es.calls": calls("compressor.calculate_es"),
            "compressor.calculate_es.ms": total_ms("compressor.calculate_es"),
            "compressor.winner_share": groups_searched / scored if scored else 0.0,
            "cost.analytic.calls": float(cost_outer.sum()) / passes,
            "cost.analytic.ms": total_ms("cost.analytic", cost_outer),
            "model.deep_copy.ms": total_ms("model.deep_copy"),
            "model.infer_shapes.calls": calls("model.infer_shapes"),
            "grouping.find_root_groups.ms": total_ms("grouping.find_root_groups"),
            "grouping.groups": counter("grouping.groups"),
            "compressed.decompress_model.calls": calls("compressed.decompress_model"),
            "compressed.decompress_model.ms": total_ms("compressed.decompress_model"),
            "compressed.decompress_per_run": decompress_in_run / run_spans if run_spans else 0.0,
            "container.save_compressed.ms": total_ms("container.save_compressed"),
            "container.load_compressed.ms": total_ms("container.load_compressed"),
            "container.load_model.ms": total_ms("container.load_model"),
            "container.upaqc_bytes": counter("container.upaqc_bytes"),
            "inference.forward.calls": calls("inference.forward"),
            "inference.forward.ms_p50": p50_ms("inference.forward"),
            "inference.forward_compressed.ms_p50": p50_ms("inference.forward_compressed"),
            "inference.activations_io.ms": total_ms("inference.activations_io"),
            "evaluate.evaluate_fidelity.ms": total_ms("evaluate.evaluate_fidelity"),
            "evaluate.model_sqnr_db.ms": total_ms("evaluate.model_sqnr_db"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_ms"] = self_of(layer)
        for verb in CLI_VERBS:
            metrics[f"cli.{verb}.self_ms"] = float(self_ms[is_(f"cli.{verb}")].sum()) / passes
        return metrics

    def write_spans(self, path, header: dict) -> None:
        """One JSON header line, then one ``[id, parent, name, start_ms, end_ms]`` line per span."""
        n = len(self._starts)
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "names": self.names, "spans": n}) + "\n")
            for i in range(n):
                fh.write(json.dumps([i, self._parents[i], self.names[self._name_ids[i]],
                                     round(self._starts[i] * 1e3, 4), round(self._ends[i] * 1e3, 4)]) + "\n")
