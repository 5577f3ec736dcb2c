"""Adaptive 4-bit numeric format toolkit.

Grid construction and coefficient fitting, group-wise tensor codecs with a
binary container format, dequantization-free integer GEMM, real-time
KV-cache quantization, and a cycle-approximate accelerator model.
"""

from .grid import (
    DEFAULT_NF_EPSILON,
    MantGrid,
    ReferenceCurve,
    build_grid,
    fit_coefficient,
    probit,
    reference_curve,
)
from .codec import (
    DEFAULT_GROUP_SIZE,
    INT4_COEFF,
    INT8_COEFF,
    QuantizedTensor,
    pack_codes,
    quantize_activation_group,
    quantize_activation_tensor,
    quantize_weight_group,
    quantize_weight_tensor,
    unpack_codes,
)
from .container import (
    ContainerError,
    load_quantized,
    load_tensor,
    read_quantized,
    read_tensor,
    save_quantized,
    save_tensor,
    write_quantized,
    write_tensor,
)
from .gemm import dequantized_gemm, gemm
from .selection import (
    CalibrationConfig,
    CandidateSet,
    VarianceTable,
    build_variance_table,
    normalized_variance,
    select_by_variance,
    select_weight_coefficient,
)
from .kvcache import KvCache, ProcessWindow
from .attention import AttentionPolicies, ToyAttentionReport, run_toy_attention
from .simulator import (
    ArrayConfig,
    CostModel,
    SimReport,
    compare_configs,
    simulate_attention,
    simulate_gemm,
    simulate_workload,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayConfig", "AttentionPolicies", "CalibrationConfig", "CandidateSet",
    "ContainerError", "CostModel", "DEFAULT_GROUP_SIZE", "DEFAULT_NF_EPSILON",
    "INT4_COEFF", "INT8_COEFF", "KvCache", "MantGrid", "ProcessWindow",
    "QuantizedTensor", "ReferenceCurve", "SimReport", "ToyAttentionReport", "VarianceTable",
    "build_grid", "build_variance_table", "compare_configs", "dequantized_gemm",
    "fit_coefficient", "gemm", "load_quantized", "load_tensor",
    "normalized_variance", "pack_codes", "probit", "quantize_activation_group",
    "quantize_activation_tensor", "quantize_weight_group", "quantize_weight_tensor",
    "read_quantized", "read_tensor", "reference_curve", "run_toy_attention",
    "save_quantized", "save_tensor", "select_by_variance", "select_weight_coefficient",
    "simulate_attention", "simulate_gemm", "simulate_workload", "unpack_codes",
    "write_quantized", "write_tensor",
]
