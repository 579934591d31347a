"""Per-group search over (pattern, bitwidth) driven by an efficiency score.

For every root-leaf group the search samples candidate patterns, quantizes
the masked root slices at each allowed bitwidth, and keeps the strict argmax
of the efficiency score.  The winning pattern and bitwidth are then
replicated to the leaves, each leaf keeping its own per-slice scales.  A
1 x 1 group draws ``BLOCK_K`` x ``BLOCK_K`` patterns over blocks of its flat
weights (see :func:`~upaq.compressed.slice_stack`).

A candidate is scored from numbers, with no candidate model: each conv
layer's ``(nnz, bits, out_h, out_w)`` is taken once from the dense model,
and a candidate replaces only its root's entry with the stored-slot count
of its pattern (what the container ships) and its bitwidth.  A drawn
pattern whose cells were already scored is skipped: it would score the
same and cannot beat the first under the strict argmax.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compressed import (
    CompressedGroup,
    CompressedModel,
    ProfileInfo,
    QuantizedConv,
    check_profile,
    slice_stack,
    stored_slots,
    unstack,
)
from .container import dense_payload_nbytes
from .cost import ModelCost, layer_costs, sum_costs
from .errors import ValidationError
from .grouping import RootGroup, find_root_groups
from .model import ModelGraph, Tensor4
from .patterns import (
    KernelPattern,
    enumerate_all_patterns,
    generate_pattern,
    split_seed,
)
from .quantizer import SQNR_CAP_DB, quantize_slices

BLOCK_K = 3  # pattern edge of 1x1 groups: their slices are 3x3 blocks of the flat weights

SQNR_TERM_SCALE = 40.0  # dB divisor that normalizes the SQNR addend


@dataclass
class CompressionProfile:
    """Search configuration: sparsity per kernel size, bitwidths, weights.

    ``n_map`` pins the retained count for specific kernel sizes; sizes not in
    the map fall back to a per-profile rule (hck keeps roughly two thirds of
    the kernel edge, lck keeps the full edge).
    """

    name: str
    quant_bits: tuple[int, ...]
    n_map: dict[int, int] = field(default_factory=dict)
    candidates: int = 16
    es_weights: tuple[float, float, float] = (0.3, 0.4, 0.3)
    seed: int = 0
    exhaustive: bool = False

    def validate(self) -> None:
        check_profile(self.quant_bits, self.candidates, self.es_weights)
        for d, n in self.n_map.items():
            if not (1 <= n <= d):
                raise ValidationError(f"profile keeps n={n} of a {d}x{d} kernel edge")

    def n_for(self, d: int) -> int:
        if d in self.n_map:
            n = self.n_map[d]
        elif self.name == "hck":
            n = max(1, (2 * d) // 3)
        elif self.name == "lck":
            n = d
        else:
            raise ValidationError(f"profile {self.name!r} defines no retained count for d={d}")
        if not (1 <= n <= d):
            raise ValidationError(f"retained count {n} incompatible with kernel edge {d}")
        return n


def hck_profile(seed: int = 0, candidates: int = 16, exhaustive: bool = False) -> CompressionProfile:
    """High-compression preset: 2 of 3x3 retained, 4/8-bit lanes."""
    return CompressionProfile(
        name="hck", quant_bits=(4, 8), n_map={3: 2}, candidates=candidates,
        seed=seed, exhaustive=exhaustive,
    )


def lck_profile(seed: int = 0, candidates: int = 16, exhaustive: bool = False) -> CompressionProfile:
    """Accuracy-leaning preset: 3 of 3x3 retained, 8/16-bit lanes."""
    return CompressionProfile(
        name="lck", quant_bits=(8, 16), n_map={3: 3}, candidates=candidates,
        seed=seed, exhaustive=exhaustive,
    )


PROFILE_FACTORIES = {"hck": hck_profile, "lck": lck_profile}


@dataclass
class EfficiencyScore:
    """Weighted sum of reconstruction quality and baseline-relative cost."""

    sqnr_term: float
    latency_term: float
    energy_term: float
    total: float


@dataclass
class GroupDecision:
    """Winning (pattern, bitwidth) for one group plus the quantized payloads."""

    root_id: str
    leaf_ids: tuple[str, ...]
    pattern: KernelPattern
    bitwidth: int
    score: EfficiencyScore
    payloads: dict[str, QuantizedConv]


def calculate_es(
    mean_sqnr_db: float,
    candidate: ModelCost,
    baseline: ModelCost,
    weights: tuple[float, float, float],
) -> EfficiencyScore:
    """Score one candidate's cost and SQNR against the dense baseline.

    The SQNR addend is the capped mean dB over the group's slices divided by
    40; the cost addends are baseline/candidate ratios, so improvements push
    them above 1.
    """
    if candidate.latency <= 0.0:
        raise ValueError("candidate model has zero latency cost")
    if candidate.energy <= 0.0:
        raise ValueError("candidate model has zero energy cost")
    alpha, beta, gamma = weights
    sqnr_term = min(mean_sqnr_db, SQNR_CAP_DB) / SQNR_TERM_SCALE
    latency_term = baseline.latency / candidate.latency
    energy_term = baseline.energy / candidate.energy
    total = alpha * sqnr_term + beta * latency_term + gamma * energy_term
    return EfficiencyScore(sqnr_term, latency_term, energy_term, total)


def _quantize_layer(weights: Tensor4, pattern: KernelPattern, bits: int):
    """Mask and quantize a layer's stack of ``pattern.d x pattern.d`` slices
    (see :func:`slice_stack`) in one pass, one scale per slice.

    Returns (QuantizedConv, mean sqnr_db).
    """
    stack = np.where(pattern.mask(), slice_stack(weights.data, pattern.d), 0)
    q, scale, _, sqnr_db = quantize_slices(stack, bits)
    # The SQNR is scored with the float64 scale, while the payload stores it
    # as float32.  Scoring with the float32 scale moves no decision on the
    # fixtures or the wide model, so the search keeps the exact one.
    qc = QuantizedConv(shape=weights.shape, bitwidth=bits, q=unstack(q, weights.shape), scales=scale)
    return qc, float(np.mean(sqnr_db))


def _candidate_patterns(n: int, d: int, profile: CompressionProfile, rng: np.random.Generator):
    if profile.exhaustive:
        return enumerate_all_patterns(n, d)
    return [generate_pattern(n, d, rng) for _ in range(profile.candidates)]


def _search_group(
    group: RootGroup,
    model: ModelGraph,
    profile: CompressionProfile,
    rng: np.random.Generator,
    costs: dict[str, tuple[int, int, int, int]] | None,
    d: int,
) -> GroupDecision:
    """Shared search loop: each distinct mask is scored once on the root,
    first strict maximum wins, then the decision is replicated to the leaves.

    ``costs`` holds every conv layer's dense ``(nnz, bits, out_h, out_w)``
    (see :func:`~upaq.cost.layer_costs`); a candidate replaces the root's
    entry with its stored-slot count and bitwidth.
    """
    n = profile.n_for(d)
    if costs is None:
        costs = layer_costs(model)
    baseline = sum_costs(costs)
    root = model.by_id(group.root_id).weights
    assert root is not None
    _, _, oh, ow = costs[group.root_id]

    seen: set[tuple[tuple[int, int], ...]] = set()
    best: tuple[KernelPattern, int, EfficiencyScore, QuantizedConv] | None = None
    for pattern in _candidate_patterns(n, d, profile, rng):
        if pattern.positions in seen:
            continue
        seen.add(pattern.positions)
        slots = int(stored_slots(root.shape, pattern).sum())
        for bits in profile.quant_bits:
            qc, mean_db = _quantize_layer(root, pattern, bits)
            candidate = sum_costs({**costs, group.root_id: (slots, bits, oh, ow)})
            score = calculate_es(mean_db, candidate, baseline, profile.es_weights)
            if best is None or score.total > best[2].total:
                best = (pattern, bits, score, qc)
    assert best is not None
    pattern, bits, score, root_qc = best

    payloads = {group.root_id: root_qc}
    for leaf_id in group.leaf_ids:
        leaf = model.by_id(leaf_id)
        assert leaf.weights is not None
        payloads[leaf_id], _ = _quantize_layer(leaf.weights, pattern, bits)
    return GroupDecision(
        root_id=group.root_id, leaf_ids=group.leaf_ids,
        pattern=pattern, bitwidth=bits, score=score, payloads=payloads,
    )


def compress_kxk_group(
    group: RootGroup,
    model: ModelGraph,
    profile: CompressionProfile,
    rng: np.random.Generator,
    costs: dict[str, tuple[int, int, int, int]] | None = None,
) -> GroupDecision:
    """Search one group of k x k conv layers (k > 1)."""
    root = model.by_id(group.root_id)
    assert root.weights is not None
    if root.weights.kh != root.weights.kw:
        raise ValidationError(f"layer {group.root_id!r}: non-square kernels are unsupported")
    d = root.weights.kw
    if d <= 1:
        raise ValidationError("k x k compression requires spatial dimension > 1")
    return _search_group(group, model, profile, rng, costs, d)


def compress_1x1_group(
    group: RootGroup,
    model: ModelGraph,
    profile: CompressionProfile,
    rng: np.random.Generator,
    costs: dict[str, tuple[int, int, int, int]] | None = None,
) -> GroupDecision:
    """Search one group of 1x1 conv layers via the block transformation."""
    root = model.by_id(group.root_id)
    assert root.weights is not None
    if (root.weights.kh, root.weights.kw) != (1, 1):
        raise ValidationError(f"layer {group.root_id!r}: expected a 1x1 kernel")
    return _search_group(group, model, profile, rng, costs, BLOCK_K)


def compress_model(model: ModelGraph, profile: CompressionProfile, workers: int = 1) -> CompressedModel:
    """Compress every conv group of a model under one profile.

    Each group draws its randomness from a seed split on (profile seed, root
    id) and is scored against the dense baseline.  The groups are searched
    in one thread; ``workers`` is validated but changes neither the output
    nor the speed.
    """
    cm, _ = compress_with_decisions(model, profile, workers=workers)
    return cm


def compress_with_decisions(
    model: ModelGraph,
    profile: CompressionProfile,
    workers: int = 1,
) -> tuple[CompressedModel, list[GroupDecision]]:
    """Like :func:`compress_model`, but also returns the per-group decisions
    (pattern, bitwidth, efficiency-score terms) for reporting."""
    if workers < 1:
        raise ValidationError(f"worker count must be >= 1, got {workers}")
    model.validate()
    profile.validate()
    costs = layer_costs(model)  # one shape walk over the dense model
    decisions = []
    for group in find_root_groups(model):
        rng = np.random.default_rng(split_seed(profile.seed, group.root_id))
        root = model.by_id(group.root_id)
        assert root.weights is not None
        search = compress_kxk_group if root.weights.kw > 1 else compress_1x1_group
        decisions.append(search(group, model, profile, rng, costs))

    qlayers = {lid: qc for dec in decisions for lid, qc in dec.payloads.items()}
    layers = [layer.copy() for layer in model.layers]
    for layer in layers:
        if layer.id in qlayers:
            layer.weights = None

    cm = CompressedModel(
        name=model.name,
        input_shape=model.input_shape,
        layers=layers,
        groups=[
            CompressedGroup(dec.root_id, dec.leaf_ids, dec.pattern, dec.bitwidth)
            for dec in decisions
        ],
        qlayers=qlayers,
        profile=ProfileInfo(
            name=profile.name,
            quant_bits=tuple(profile.quant_bits),
            es_weights=tuple(profile.es_weights),
            seed=profile.seed,
            candidates=profile.candidates,
            exhaustive=profile.exhaustive,
        ),
        base_payload_nbytes=dense_payload_nbytes(model),
    )
    cm.validate()
    return cm, decisions


def compression_decisions(cm: CompressedModel, decisions: list[GroupDecision] | None = None) -> list[dict]:
    """JSON-friendly view of the per-group decisions stored in a model.

    When the live ``decisions`` from the search are supplied, each entry also
    carries the efficiency-score terms (they are not part of the container).
    """
    scores = {d.root_id: d.score for d in decisions} if decisions else {}
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
        score = scores.get(group.root_id)
        if score is not None:
            entry["es"] = {
                "sqnr_term": score.sqnr_term,
                "latency_term": score.latency_term,
                "energy_term": score.energy_term,
                "total": score.total,
            }
        out.append(entry)
    return out
