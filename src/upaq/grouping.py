"""Root-leaf discovery over coupled conv layers.

Two conv layers are coupled when one directly consumes the other's output
(possibly through weightless pass-through layers such as relu or add) and
both share the same spatial kernel size.  Connected components of this
coupling relation form groups; the topologically first member of each
component is the root, and one pruning pattern plus one bitwidth chosen at
the root is later replicated to every leaf.

The graph is checked as its shapes are taken (:func:`~upaq.model.infer_shapes`),
so a bad one is a ValidationError naming the layer.  Then one pass in layer
order carries each layer's nearest conv producers: the union over its
inputs, reset to the layer itself at each conv.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelGraph, infer_shapes


@dataclass(frozen=True)
class RootGroup:
    root_id: str
    leaf_ids: tuple[str, ...]

    @property
    def member_ids(self) -> tuple[str, ...]:
        return (self.root_id,) + self.leaf_ids


def build_coupling_graph(model: ModelGraph) -> dict[str, set[str]]:
    """Undirected adjacency over conv2d layer ids.

    Non-conv layers are transparent: a conv feeding a relu feeding a conv
    couples the two convs.  Edges require equal (kh, kw).
    """
    infer_shapes(model)
    kernel = {l.id: l.weights.shape[2:] for l in model.layers if l.kind == "conv2d"}
    adjacency: dict[str, set[str]] = {cid: set() for cid in kernel}
    nearest: dict[str, set[str]] = {}  # each layer's nearest conv producers, or itself for a conv
    for layer in model.layers:
        feeding = set().union(*(nearest[src] for src in layer.inputs))
        if layer.id in kernel:
            for producer in feeding:
                if kernel[producer] == kernel[layer.id]:
                    adjacency[layer.id].add(producer)
                    adjacency[producer].add(layer.id)
            feeding = {layer.id}
        nearest[layer.id] = feeding
    return adjacency


def find_root_groups(model: ModelGraph) -> list[RootGroup]:
    """Partition all conv layers into root-leaf groups.

    Groups are connected components of the coupling graph.  The component
    member with the smallest topological index becomes the root; remaining
    members are leaves in topological order.  Output is ordered by root
    index, so it is the same on every run.
    """
    adjacency = build_coupling_graph(model)
    groups: list[RootGroup] = []
    assigned: set[str] = set()
    for cid in adjacency:  # the conv ids, in layer order
        if cid in assigned:
            continue
        component, stack = {cid}, [cid]
        while stack:
            near = adjacency[stack.pop()] - component
            component |= near
            stack += near
        ordered = [member for member in adjacency if member in component]
        groups.append(RootGroup(root_id=ordered[0], leaf_ids=tuple(ordered[1:])))
        assigned |= component
    return groups
