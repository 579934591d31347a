"""upaq: pattern-pruning and mixed-precision quantization for small CNNs.

Pipeline: discover root-leaf groups of coupled conv layers, sample
semi-structured kernel patterns, search (pattern, bitwidth) per group under
an efficiency score, replicate the winner to the leaves, and serialize the
result bit-exactly.  A small inference engine and evaluator verify fidelity,
sparsity, and compression at desk scale.
"""

from .compressed import (
    CompressedGroup,
    CompressedModel,
    ProfileInfo,
    QuantizedConv,
    decompress_model,
)
from .compressor import (
    BLOCK_K,
    CompressionProfile,
    EfficiencyScore,
    GroupDecision,
    calculate_es,
    compress_1x1_group,
    compress_kxk_group,
    compress_model,
    compress_with_decisions,
    hck_profile,
    lck_profile,
)
from .container import (
    load_compressed,
    load_model,
    save_compressed,
    save_model,
)
from .cost import (
    AnalyticCostModel,
    compression_ratio,
    computational_cost,
    estimate_energy,
    estimate_latency,
)
from .errors import FormatError, UpaqError, ValidationError
from .evaluate import FidelityReport, evaluate_fidelity
from .fixtures import gen_fixture
from .grouping import RootGroup, build_coupling_graph, find_root_groups
from .inference import Activation, forward, forward_compressed
from .model import LayerSpec, ModelGraph, Tensor4, deep_copy
from .patterns import (
    KernelPattern,
    apply_pattern,
    enumerate_all_patterns,
    generate_pattern,
    split_seed,
)
from .quantizer import QuantResult, dequantize, mp_quantize, quantize_slices

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "AnalyticCostModel",
    "BLOCK_K",
    "CompressedGroup",
    "CompressedModel",
    "CompressionProfile",
    "EfficiencyScore",
    "FidelityReport",
    "FormatError",
    "GroupDecision",
    "KernelPattern",
    "LayerSpec",
    "ModelGraph",
    "ProfileInfo",
    "QuantResult",
    "QuantizedConv",
    "RootGroup",
    "Tensor4",
    "UpaqError",
    "ValidationError",
    "apply_pattern",
    "build_coupling_graph",
    "calculate_es",
    "compress_1x1_group",
    "compress_kxk_group",
    "compress_model",
    "compress_with_decisions",
    "compression_ratio",
    "computational_cost",
    "decompress_model",
    "deep_copy",
    "dequantize",
    "enumerate_all_patterns",
    "estimate_energy",
    "estimate_latency",
    "evaluate_fidelity",
    "find_root_groups",
    "forward",
    "forward_compressed",
    "gen_fixture",
    "generate_pattern",
    "hck_profile",
    "lck_profile",
    "load_compressed",
    "load_model",
    "mp_quantize",
    "quantize_slices",
    "save_compressed",
    "save_model",
    "split_seed",
]
