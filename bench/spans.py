"""Span recorder for the traced run.

`install` wraps the public functions of each `mant` module at every place
the program looks them up (a module that did ``from .codec import x`` holds
its own reference, so patching `mant.codec` alone would miss it) and the
`KvCache` / `QuantizedTensor` methods on their classes.  Spans are kept in
memory in flat arrays and written to JSON when the run ends.
"""

from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter_ns

import numpy as np

# (module, attribute, span name).  One original may be looked up from
# several modules; all of its lookup sites get the same wrapper.
PATCH_SITES = (
    ("mant.codec", "quantize_weight_group", "codec.quantize_weight_group"),
    ("mant.selection", "quantize_weight_group", "codec.quantize_weight_group"),
    ("mant.kvcache", "quantize_weight_group", "codec.quantize_weight_group"),
    ("mant.codec", "quantize_activation_group", "codec.quantize_activation_group"),
    ("mant.attention", "quantize_activation_group", "codec.quantize_activation_group"),
    ("mant.codec", "quantize_weight_tensor", "codec.quantize_weight_tensor"),
    ("mant.cli", "quantize_weight_tensor", "codec.quantize_weight_tensor"),
    ("mant.codec", "quantize_activation_tensor", "codec.quantize_activation_tensor"),
    ("mant.cli", "quantize_activation_tensor", "codec.quantize_activation_tensor"),
    ("mant.codec", "QuantizedTensor.dequantize", "codec.dequantize"),
    ("mant.selection", "select_weight_coefficient", "selection.select_weight_coefficient"),
    ("mant.cli", "select_weight_coefficient", "selection.select_weight_coefficient"),
    ("mant.selection", "build_variance_table", "selection.build_variance_table"),
    ("mant.attention", "build_variance_table", "selection.build_variance_table"),
    ("mant.cli", "build_variance_table", "selection.build_variance_table"),
    ("mant.container", "write_quantized", "container.write_quantized"),
    ("mant.container", "read_quantized", "container.read_quantized"),
    ("mant.container", "load_tensor", "container.load_tensor"),
    ("mant.gemm", "gemm", "gemm.gemm"),
    ("mant.cli", "gemm", "gemm.gemm"),
    ("mant.kvcache", "KvCache.append_k", "kvcache.append_k"),
    ("mant.kvcache", "KvCache.push_v", "kvcache.push_v"),
    ("mant.kvcache", "KvCache.prefill", "kvcache.prefill"),
    ("mant.kvcache", "KvCache.k_arrays", "kvcache.k_arrays"),
    ("mant.attention", "calibration_tables", "attention.calibration_tables"),
    ("mant.attention", "run_toy_attention", "attention.run_toy_attention"),
    ("mant.cli", "run_toy_attention", "attention.run_toy_attention"),
)


def _gemm_work(args, result):
    """(multiply-accumulates, computed bytes): 4-bit codes, 3 metadata
    bytes per weight group, INT8 activations with fp16 scales, float64
    output."""
    x_q, w_q = args[0], args[1]
    m, k = x_q.shape
    n = w_q.shape[1]
    groups = -(-k // w_q.group_size)
    nbytes = k * n / 2 + 3 * n * groups + m * k + 2 * m * groups + 8 * m * n
    return float(m * k * n), float(nbytes)


WORK = {  # span name -> (args, result) -> (n1, n2)
    "codec.quantize_activation_tensor": lambda args, result: (float(result.scales.size), 0.0),
    "container.write_quantized": lambda args, result: (float(args[0].tell()), 0.0),
    "container.read_quantized": lambda args, result: (float(args[0].tell()), 0.0),
    "gemm.gemm": _gemm_work,
    "kvcache.prefill": lambda args, result: (float(np.shape(args[1])[0]), 0.0),
    "kvcache.push_v": lambda args, result: (1.0 if result else 0.0, 0.0),
}

SETUP, MEASURE = 0, 1
FIELDS = ("name", "start", "end", "parent", "step", "phase", "n1", "n2")


class Tracer:
    """In-memory spans: name, start, end (ns), parent index, step id, phase
    and two work counters.  Step id -1 marks spans outside any step."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.step = array("i")
        self.phase = array("b")
        self.n1 = array("d")
        self.n2 = array("d")
        self.stack: list[int] = []
        self.current_step = -1
        self.current_phase = SETUP
        self.paused = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.step.append(self.current_step)
        self.phase.append(self.current_phase)
        self.n1.append(0.0)
        self.n2.append(0.0)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int, n1: float = 0.0, n2: float = 0.0) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()
        self.n1[idx] = n1
        self.n2[idx] = n2

    def add(self, name: str, start: int, end: int, step: int, n1: float = 0.0,
            n2: float = 0.0) -> None:
        """Record a span whose bounds were read elsewhere (no parent)."""
        self.name.append(self._id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(-1)
        self.step.append(step)
        self.phase.append(self.current_phase)
        self.n1.append(n1)
        self.n2.append(n2)

    def wrap(self, name: str, fn):
        work = WORK.get(name)

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if work is not None:
                self.n1[idx], self.n2[idx] = work(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span fields as numpy arrays."""
        return {field: np.array(getattr(self, field))
                for field in FIELDS}

    def write(self, path, meta: dict) -> None:
        """Columnar JSON: ``names`` plus one list per span field, written a
        column at a time to bound memory."""
        with open(path, "w") as fh:
            fh.write('{"meta": %s, "names": %s' % (json.dumps(meta), json.dumps(self.names)))
            for field in FIELDS:
                fh.write(', "%s": %s' % (field, json.dumps(getattr(self, field).tolist())))
            fh.write("}\n")


def install(tracer: Tracer) -> None:
    """Wrap every patch site; a function looked up from several modules
    gets one shared wrapper."""
    wrappers: dict[int, object] = {}
    for module_name, attr, span_name in PATCH_SITES:
        owner = importlib.import_module(module_name)
        if "." in attr:
            class_name, attr = attr.split(".")
            owner = getattr(owner, class_name)
        original = getattr(owner, attr)
        if id(original) not in wrappers:
            wrappers[id(original)] = tracer.wrap(span_name, original)
        setattr(owner, attr, wrappers[id(original)])
