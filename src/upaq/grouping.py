"""Root-leaf discovery over coupled conv layers.

Two conv layers are coupled when one directly consumes the other's output
(possibly through weightless pass-through layers such as relu or add) and
both share the same spatial kernel size.  Connected components of this
coupling relation form groups; the topologically first member of each
component is the root, and one pruning pattern plus one bitwidth chosen at
the root is later replicated to every leaf.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import ModelGraph


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
    by_id = {l.id: l for l in model.layers}
    conv_ids = [l.id for l in model.layers if l.kind == "conv2d"]
    adjacency: dict[str, set[str]] = {cid: set() for cid in conv_ids}

    def nearest_conv_producers(layer_id: str) -> list[str]:
        found: list[str] = []
        stack = list(by_id[layer_id].inputs)
        seen: set[str] = set()
        while stack:
            src = stack.pop()
            if src in seen:
                continue
            seen.add(src)
            src_layer = by_id[src]
            if src_layer.kind == "conv2d":
                found.append(src)
            else:
                stack.extend(src_layer.inputs)
        return found

    for cid in conv_ids:
        wt = by_id[cid].weights
        assert wt is not None
        for producer in nearest_conv_producers(cid):
            pw = by_id[producer].weights
            assert pw is not None
            if (pw.kh, pw.kw) == (wt.kh, wt.kw):
                adjacency[cid].add(producer)
                adjacency[producer].add(cid)
    return adjacency


def find_root_groups(model: ModelGraph) -> list[RootGroup]:
    """Partition all conv layers into root-leaf groups.

    Groups are connected components of the coupling graph.  The component
    member with the smallest topological index becomes the root; remaining
    members are leaves in topological order.  Output is ordered by root
    index, so it is the same on every run.
    """
    adjacency = build_coupling_graph(model)
    topo = {l.id: i for i, l in enumerate(model.layers)}
    groups: list[RootGroup] = []
    assigned: set[str] = set()
    for layer in model.layers:
        if layer.kind != "conv2d" or layer.id in assigned:
            continue
        component = {layer.id}
        stack = [layer.id]
        while stack:
            node = stack.pop()
            for nb in adjacency[node]:
                if nb not in component:
                    component.add(nb)
                    stack.append(nb)
        ordered = sorted(component, key=lambda cid: topo[cid])
        groups.append(RootGroup(root_id=ordered[0], leaf_ids=tuple(ordered[1:])))
        assigned |= component
    return groups
