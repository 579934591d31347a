"""upaq: pattern-pruning and mixed-precision quantization for small CNNs.

Pipeline: discover root-leaf groups of coupled conv layers, sample
semi-structured kernel patterns, search (pattern, bitwidth) per group under
an efficiency score, replicate the winner to the leaves, and serialize the
result bit-exactly.  A small inference engine and evaluator verify fidelity,
sparsity, and compression at desk scale.
"""

from .compressed import (
    BLOCK_K,
    CompressedGroup,
    CompressedModel,
    CompressionProfile,
    EfficiencyScore,
    QuantizedConv,
    decompress_model,
)
from .compressor import (
    calculate_es,
    compress_model,
    hck_profile,
    lck_profile,
)
from .container import (
    load_compressed,
    load_model,
    save_compressed,
    save_model,
)
from .cost import compression_ratio, computational_cost
from .errors import FormatError, UpaqError, ValidationError
from .evaluate import FidelityReport, evaluate_fidelity
from .fixtures import gen_fixture
from .grouping import RootGroup, build_coupling_graph, find_root_groups
from .inference import Activation, forward_compressed
from .model import LayerSpec, ModelGraph, Tensor4
from .patterns import (
    KernelPattern,
    enumerate_all_patterns,
    generate_pattern,
    split_seed,
)
from .quantizer import quantize_slices

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "BLOCK_K",
    "CompressedGroup",
    "CompressedModel",
    "CompressionProfile",
    "EfficiencyScore",
    "FidelityReport",
    "FormatError",
    "KernelPattern",
    "LayerSpec",
    "ModelGraph",
    "QuantizedConv",
    "RootGroup",
    "Tensor4",
    "UpaqError",
    "ValidationError",
    "build_coupling_graph",
    "calculate_es",
    "compress_model",
    "compression_ratio",
    "computational_cost",
    "decompress_model",
    "enumerate_all_patterns",
    "evaluate_fidelity",
    "find_root_groups",
    "forward_compressed",
    "gen_fixture",
    "generate_pattern",
    "hck_profile",
    "lck_profile",
    "load_compressed",
    "load_model",
    "quantize_slices",
    "save_compressed",
    "save_model",
    "split_seed",
]
