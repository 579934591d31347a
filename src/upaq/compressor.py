"""Per-group search over (pattern, bitwidth) driven by an efficiency score.

For every root-leaf group the search samples candidate patterns, scores the
masked root slices at each allowed bitwidth, and keeps the strict argmax of
the efficiency score.  A candidate's SQNR comes from the cells its mask
keeps, all of a group's masks in one pass (:func:`~upaq.quantizer.mean_sqnr_db`);
only the winning pattern and bitwidth are quantized into payloads, for the
root and for each leaf, every layer on its own per-slice scales.  A
1 x 1 group draws ``BLOCK_K`` x ``BLOCK_K`` patterns over blocks of its flat
weights (see :func:`~upaq.compressed.slice_stack`).

A candidate is scored from numbers, with no candidate model: each conv
layer's ``(nnz, bits, out_h, out_w)`` is taken once from the dense model,
and a candidate replaces only its root's entry with the stored-slot count
of its pattern (what the container ships) and its bitwidth.  A mask that
stores no weight of a member is no candidate.  A drawn pattern whose cells
were already drawn is skipped: it would score the same and cannot beat the
first under the strict argmax.

The result is one record: the :class:`~upaq.compressed.CompressedModel`
holds the profile that made it, and each of its groups the winner's
:class:`~upaq.compressed.EfficiencyScore`.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .compressed import (  # BLOCK_K stays importable from here
    BLOCK_K,
    CompressedGroup,
    CompressedModel,
    CompressionProfile,
    EfficiencyScore,
    QuantizedConv,
    slice_edge,
    slice_stack,
    valid_cells,
)
from .cost import ModelCost, layer_costs, sum_costs
from .errors import ValidationError
from .grouping import RootGroup, find_root_groups
from .model import ModelGraph, Tensor4
from .patterns import KernelPattern, _draw_positions, enumerate_all_patterns, split_seed
from .quantizer import SQNR_CAP_DB, _quantize_masked, mean_sqnr_db, stack_rows

SQNR_TERM_SCALE = 40.0  # dB divisor that normalizes the SQNR addend


def hck_profile(seed: int = 0, candidates: int = 16, exhaustive: bool = False) -> CompressionProfile:
    """High-compression preset: 2 of 3x3 retained, 4/8-bit lanes."""
    return CompressionProfile(
        name="hck", quant_bits=(4, 8), candidates=candidates, seed=seed, exhaustive=exhaustive,
    )


def lck_profile(seed: int = 0, candidates: int = 16, exhaustive: bool = False) -> CompressionProfile:
    """Accuracy-leaning preset: 3 of 3x3 retained, 8/16-bit lanes."""
    return CompressionProfile(
        name="lck", quant_bits=(8, 16), candidates=candidates, seed=seed, exhaustive=exhaustive,
    )


PROFILE_FACTORIES = {"hck": hck_profile, "lck": lck_profile}


def calculate_es(
    mean_sqnr_db: float,
    candidate: ModelCost,
    baseline: ModelCost,
    weights: tuple[float, float, float],
) -> EfficiencyScore:
    """Score one candidate's cost and SQNR against the dense baseline.

    The SQNR addend is the capped mean dB over the group's slices divided by
    40; the cost addends are baseline/candidate ratios, so improvements push
    them above 1.  A term whose baseline and candidate both cost 0 (a model
    with no conv layer) is 1: nothing was compressed.
    """
    if candidate.latency <= 0.0 < baseline.latency:
        raise ValueError("candidate model has zero latency cost")
    if candidate.energy <= 0.0 < baseline.energy:
        raise ValueError("candidate model has zero energy cost")
    alpha, beta, gamma = weights
    sqnr_term = min(mean_sqnr_db, SQNR_CAP_DB) / SQNR_TERM_SCALE
    latency_term = baseline.latency / candidate.latency if candidate.latency else 1.0
    energy_term = baseline.energy / candidate.energy if candidate.energy else 1.0
    total = alpha * sqnr_term + beta * latency_term + gamma * energy_term
    return EfficiencyScore(sqnr_term, latency_term, energy_term, total)


def _quantize_layer(weights: Tensor4, pattern: KernelPattern, bits: int) -> QuantizedConv:
    """Quantize the cells ``pattern`` keeps of a layer's stack of
    ``pattern.d x pattern.d`` slices (see :func:`slice_stack`) in one pass,
    one scale per slice, into the stack's rows and the float32 scales that
    :func:`~upaq.quantizer.quantize_slices` ships."""
    q, _, scale32, _, _ = _quantize_masked(slice_stack(weights.data, pattern.d), bits, pattern.mask())
    return QuantizedConv(shape=weights.shape, bitwidth=bits, q=q, scales=scale32, pattern=pattern)


def _candidate_patterns(n: int, d: int, profile: CompressionProfile, rng: np.random.Generator) -> list[KernelPattern]:
    """The distinct candidate masks in draw order: ``profile.candidates``
    draws of :func:`~upaq.patterns.generate_pattern`, a pattern built only
    for the first draw of each mask, or every pattern when exhaustive."""
    if profile.exhaustive:
        return enumerate_all_patterns(n, d)
    distinct: dict[tuple[tuple[int, int], ...], str] = {}
    for _ in range(profile.candidates):
        kind, positions = _draw_positions(n, d, rng)
        distinct.setdefault(positions, kind)
    return [KernelPattern(kind, d, positions) for positions, kind in distinct.items()]


def _search_group(
    group: RootGroup,
    model: ModelGraph,
    profile: CompressionProfile,
    rng: np.random.Generator,
    costs: dict[str, tuple[int, int, int, int]],
) -> tuple[CompressedGroup, dict[str, QuantizedConv]]:
    """Search one group: the distinct drawn masks are scored on the root in
    one call, the first strict maximum in draw order wins, then the decision
    is quantized for the root and replicated to the leaves.  Returns the
    winning group, with its score, and each member's payload.

    A k x k root is searched on its own ``k x k`` slices, a 1 x 1 root on
    ``BLOCK_K x BLOCK_K`` blocks of its flat weights.  The root's slices are
    read once as float64 rows; each mask is scored from the cells it keeps,
    at every bitwidth, and builds no payload.  ``costs`` holds every conv
    layer's dense ``(nnz, bits, out_h, out_w)`` (see
    :func:`~upaq.cost.layer_costs`); a candidate replaces the root's entry
    with its stored-slot count and bitwidth.  A group with no mask that
    stores a weight of every member is a :class:`ValidationError`.
    """
    root = model.by_id(group.root_id).weights  # a conv of a checked model: it has weights
    try:
        d = slice_edge(root.shape)
    except ValidationError as exc:
        raise ValidationError(f"layer {group.root_id!r}: {exc}") from None
    n = profile.n_for(d)
    baseline = sum_costs(costs)
    _, _, oh, ow = costs[group.root_id]

    patterns = _candidate_patterns(n, d, profile, rng)
    keeps = np.array([np.flatnonzero(pattern.mask()) for pattern in patterns])
    # each mask's stored slots in each member: over its cells, the slices that hold a weight there
    slots = np.array([valid_cells(model.by_id(member).weights.shape, d).sum(axis=0)[keeps].sum(axis=1)
                      for member in group.member_ids])
    if not (stores := slots.all(axis=0)).any():
        raise ValidationError(f"group {group.root_id!r}: no candidate pattern stores a weight of every member")
    patterns, keeps, slots = [p for p, keep in zip(patterns, stores) if keep], keeps[stores], slots[0, stores]
    # scored against the float32 reconstruction the payload ships, so the
    # winner's SQNR term is the one evaluate recomputes from the payload
    means = mean_sqnr_db(stack_rows(slice_stack(root.data, d)), keeps, profile.quant_bits)

    best: tuple[KernelPattern, int, EfficiencyScore] | None = None
    for pattern, slot_count, mean_dbs in zip(patterns, slots.tolist(), means.tolist()):
        for bits, mean_db in zip(profile.quant_bits, mean_dbs):
            candidate = sum_costs({**costs, group.root_id: (slot_count, bits, oh, ow)})
            score = calculate_es(mean_db, candidate, baseline, profile.es_weights)
            if best is None or score.total > best[2].total:
                best = (pattern, bits, score)
    assert best is not None
    pattern, bits, score = best

    payloads = {}
    for layer_id in group.member_ids:
        payloads[layer_id] = _quantize_layer(model.by_id(layer_id).weights, pattern, bits)
    return CompressedGroup(group.root_id, group.leaf_ids, pattern, bits, score), payloads


def compress_model(model: ModelGraph, profile: CompressionProfile) -> CompressedModel:
    """Compress every conv group of a model under one profile.

    Each group draws its randomness from a seed split on (profile seed, root
    id) and is scored against the dense baseline, so a group's decision does
    not depend on the other groups.  The result is validated when it is
    serialized, by :func:`~upaq.container.serialize_compressed`.
    """
    costs = layer_costs(model)  # the one walk that checks the dense model and takes its shapes
    profile.validate()
    groups, qlayers = [], {}
    for root_group in find_root_groups(model):
        rng = np.random.default_rng(split_seed(profile.seed, root_group.root_id))
        group, payloads = _search_group(root_group, model, profile, rng, costs)
        groups.append(group)
        qlayers.update(payloads)

    layers = [layer.copy() for layer in model.layers]
    for layer in layers:
        if layer.id in qlayers:
            layer.weights = None
    return CompressedModel(name=model.name, input_shape=model.input_shape, layers=layers, groups=groups,
                           qlayers=qlayers, profile=profile)


def compression_decisions(cm: CompressedModel) -> list[dict]:
    """JSON-friendly view of the per-group decisions stored in a model; a
    group that carries its search score adds its efficiency-score terms."""
    out = []
    for group in cm.groups:
        entry = {
            "root": group.root_id,
            "leaves": list(group.leaf_ids),
            "pattern": {
                "kind": group.pattern.kind,
                "d": group.pattern.d,
                "positions": [list(p) for p in group.pattern.positions],
            },
            "bitwidth": group.bitwidth,
        }
        if group.score is not None:
            entry["es"] = asdict(group.score)
        out.append(entry)
    return out
