import functools
import json
import operator
import struct
import zlib

import numpy as np
import pytest

import upaq
from upaq import inference
from upaq.container import pack_mask
from upaq.patterns import KernelPattern


def run_every(model, batch):
    """``run_batch`` with every conv and linear layer running all its weight
    columns: the reference its skipping plans must equal bit for bit."""
    build = inference._conv_steps
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "_conv_steps", lambda layer, every=False: build(layer, every=True))
        return inference.run_batch(model, batch)


def pytest_report_header(config):
    """Name the numpy build the bit-exact engine tests ran on: its einsum and
    reductions are compiled for the SIMD baseline, the dispatched kernels for
    the rest.  Also name the CPUs ``run_batch`` splits a batch of more than one
    chunk over: with one, its threaded path ran only where a test patched the count."""
    try:
        simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    except TypeError:  # numpy before 1.26 only prints its configuration
        simd = {}
    return (f"numpy {np.__version__}: SIMD baseline {simd.get('baseline', '?')}, found {simd.get('found', '?')}; "
            f"engine CPUs {inference.usable_cpus()}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if terminalreporter.verbosity < 0:  # -q drops the header, not the summary
        terminalreporter.write_line(pytest_report_header(config))


@pytest.fixture(scope="session")
def toy_cnn():
    return upaq.gen_fixture("toy-cnn", 42)


@pytest.fixture(scope="session")
def toy_residual():
    return upaq.gen_fixture("toy-residual", 42)


@pytest.fixture(scope="session")
def toy_1x1():
    return upaq.gen_fixture("toy-1x1", 42)


@pytest.fixture(scope="session")
def toy_cnn_hck(toy_cnn):
    model, _ = toy_cnn
    return upaq.compress_model(model, upaq.hck_profile(seed=42))


@pytest.fixture(scope="session")
def toy_cnn_lck(toy_cnn):
    model, _ = toy_cnn
    return upaq.compress_model(model, upaq.lck_profile(seed=42))


def single_conv_model(seed=42, out_ch=4, in_ch=4, k=3, hw=8):
    """One conv2d layer, both source and sink; used by the oracle-equivalence tests."""
    rng = np.random.default_rng(seed)
    layer = upaq.LayerSpec(
        id="conv",
        kind="conv2d",
        inputs=(),
        weights=upaq.Tensor4(rng.uniform(-1, 1, (out_ch, in_ch, k, k)).astype(np.float32)),
        bias=rng.uniform(-1, 1, out_ch).astype(np.float32),
        stride=1,
        padding=1,
    )
    model = upaq.ModelGraph(name="single-conv", input_shape=(in_ch, hw, hw), layers=[layer])
    model.validate()
    return model


def _weighted(rng, lid, kind, out_ch, in_ch, k, inputs, padding=0):
    """A weighted layer with uniform(-b, b) weights, then bias, b = 1/sqrt(fan_in)."""
    bound = 1.0 / np.sqrt(in_ch * k * k)
    return upaq.LayerSpec(
        id=lid, kind=kind, inputs=inputs,
        weights=upaq.Tensor4(rng.uniform(-bound, bound, (out_ch, in_ch, k, k)).astype(np.float32)),
        bias=rng.uniform(-bound, bound, out_ch).astype(np.float32),
        padding=padding,
    )


def wide_model(seed=42):
    """A 3x32x32 model with the layer shapes of the benchmark's wide model:
    a lone 5x5 group, a 3x3 root with one leaf and a 1x1 block group."""
    rng = np.random.default_rng(seed)
    weighted = functools.partial(_weighted, rng)
    layers = [
        weighted("stem", "conv2d", 32, 3, 5, (), padding=2),
        upaq.LayerSpec(id="relu1", kind="relu", inputs=("stem",)),
        weighted("conv2", "conv2d", 64, 32, 3, ("relu1",), padding=1),
        upaq.LayerSpec(id="relu2", kind="relu", inputs=("conv2",)),
        weighted("conv3", "conv2d", 64, 64, 3, ("relu2",), padding=1),
        upaq.LayerSpec(id="add", kind="add", inputs=("conv3", "relu2")),
        weighted("conv4", "conv2d", 64, 64, 1, ("add",)),
        upaq.LayerSpec(id="gap", kind="global_avg_pool", inputs=("conv4",)),
        weighted("fc", "linear", 10, 64, 1, ("gap",)),
    ]
    model = upaq.ModelGraph(name="wide", input_shape=(3, 32, 32), layers=layers)
    model.validate()
    return model


def tiny_model():
    """``tools/ab.py``'s tiny model and its 8 inputs: a 3x3 stem, then a 1x1
    layer ``mix`` of 6 weights, whose one 3x3 block has 3 pad cells."""
    rng = np.random.default_rng(42)
    weighted = functools.partial(_weighted, rng)
    layers = [
        weighted("stem", "conv2d", 3, 1, 3, (), padding=1),
        upaq.LayerSpec(id="relu", kind="relu", inputs=("stem",)),
        weighted("mix", "conv2d", 2, 3, 1, ("relu",)),
        upaq.LayerSpec(id="gap", kind="global_avg_pool", inputs=("mix",)),
        weighted("fc", "linear", 2, 2, 1, ("gap",)),
    ]
    model = upaq.ModelGraph(name="tiny", input_shape=(1, 8, 8), layers=layers)
    model.validate()
    return model, rng.uniform(-1, 1, (8, 1, 8, 8)).astype(np.float32)


def mix_only_model():
    """One conv, the 1x1 layer ``mix`` of 2 in and 3 out channels: its 6
    weights fill one 3x3 block but for 3 pad cells, which a drawn mask may
    land on alone."""
    model = upaq.ModelGraph("mix-only", (2, 4, 4), [_weighted(np.random.default_rng(7), "mix", "conv2d", 3, 2, 1, ())])
    model.validate()
    return model


def linear_only_model(seed=7):
    """A model with no conv layer, one linear 8 -> 3 over a 2x2x2 input, and four inputs."""
    rng = np.random.default_rng(seed)
    weights = upaq.Tensor4(rng.uniform(-1, 1, (3, 8, 1, 1)).astype(np.float32))
    layer = upaq.LayerSpec("fc", "linear", (), weights, rng.uniform(-1, 1, 3).astype(np.float32))
    model = upaq.ModelGraph(name="linear-only", input_shape=(2, 2, 2), layers=[layer])
    model.validate()
    return model, rng.uniform(-1, 1, (4, 2, 2, 2)).astype(np.float32)


def copy_model(model):
    """A model sharing no mutable storage with ``model``: every layer copied."""
    return upaq.ModelGraph(model.name, model.input_shape, [layer.copy() for layer in model.layers])


def split_container(data):
    """``(magic, header bytes, payload)`` of container bytes: the header length
    is at bytes 5..9 and the CRC32 at 9..13."""
    (hlen,) = struct.unpack("<I", data[5:9])
    return data[:5], data[13:13 + hlen], data[13 + hlen:]


def seal(magic, header_raw, payload):
    """Container bytes whose CRC32 holds for ``header_raw`` and ``payload``."""
    crc = zlib.crc32(header_raw + payload)
    return magic + struct.pack("<II", len(header_raw), crc) + header_raw + payload


def read_header(data):
    return json.loads(split_container(data)[1])


def patch_header(data, edit):
    """Container bytes with ``edit(header)`` applied to the JSON header, resealed."""
    magic, raw, payload = split_container(data)
    header = json.loads(raw)
    edit(header)
    return seal(magic, json.dumps(header, sort_keys=True, separators=(",", ":")).encode(), payload)


def splice(data, at, raw, nbytes=None):
    """Container bytes with the ``nbytes`` (default ``len(raw)``) payload bytes
    at ``at`` replaced by ``raw``, resealed."""
    magic, header_raw, payload = split_container(data)
    end = at + (len(raw) if nbytes is None else nbytes)
    return seal(magic, header_raw, payload[:at] + raw + payload[end:])


def with_long_row_group(data, root, d):
    """``data`` with ``root``'s group pattern set to a two-cell row of edge ``d``,
    its mask in place of the group's own; every layer shape is left as it was."""
    def point(header):
        (group,) = [g for g in header["groups"] if g["root"] == root]
        group["pattern"].update(kind="row", d=d)

    at, nbytes = mask_spans(data)[root]
    return splice(patch_header(data, point), at, pack_mask(KernelPattern("row", d, ((0, 0), (0, 1)))), nbytes)


def with_group_mask(data, root, mask):
    """``data`` with the mask bytes of ``root``'s group overwritten by ``mask``, of the same length."""
    at, nbytes = mask_spans(data)[root]
    assert len(mask) == nbytes
    return splice(data, at, mask)


def mask_spans(data):
    """``{root: (payload offset, size)}`` of each group's mask: the masks are
    the payload's tail, ``ceil(d*d/8)`` bytes each, in group order."""
    groups = read_header(data)["groups"]
    sizes = [-(-g["pattern"]["d"] ** 2 // 8) for g in groups]
    at = len(split_container(data)[2]) - sum(sizes)
    spans = {}
    for group, size in zip(groups, sizes):
        spans[group["root"]] = (at, size)
        at += size
    return spans


def _header_paths(node, path=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _header_paths(child, path + (key,))


_DELETE = object()


def header_mutations(data, values):
    """Yield ``(path, patched bytes)`` for every node of the container's JSON
    header (each object member and list item, at any depth), set in turn to
    each of ``values`` and then deleted.  ``path`` is the tuple of keys and
    list indices that leads to the node."""
    for path in list(_header_paths(read_header(data))):
        for value in (*values, _DELETE):
            def edit(header, path=path, value=value):
                parent = functools.reduce(operator.getitem, path[:-1], header)
                if value is _DELETE:
                    del parent[path[-1]]
                else:
                    parent[path[-1]] = value
            yield path, patch_header(data, edit)
