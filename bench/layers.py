"""Per-layer metrics derived from the spans of a traced run.

Per-call and per-step figures use the spans of the measuring phase that
lie in timed steps or outside any step (a kv-decode prompt); warm-up steps
and the untimed last decode step of each round are left out.  Setup
figures use the setup phase.  A layer that does not run on a workload
reports 0.
"""

from __future__ import annotations

import numpy as np

from spans import MEASURE, SETUP

PER_LAYER = (  # (name, unit)
    ("cli.quantize.self_ms", "ms/call"),
    ("selection.select_weight_coefficient.calls", "count/step"),
    ("selection.select_weight_coefficient.us", "us/call"),
    ("selection.encodes_per_group", "ratio"),
    ("selection.build_variance_table.ms", "ms/call"),
    ("codec.quantize_weight_group.calls", "count/step"),
    ("codec.quantize_weight_group.us", "us/call"),
    ("codec.quantize_weight_tensor.ms", "ms/call"),
    ("codec.quantize_activation_tensor.us_per_group", "us"),
    ("codec.quantize_activation_group.calls", "count/step"),
    ("codec.dequantize.ms", "ms/call"),
    ("container.write_quantized.ms", "ms/call"),
    ("container.read_quantized.ms", "ms/call"),
    ("container.mb_per_s", "MB/s"),
    ("container.roofline_frac", "ratio"),
    ("gemm.gemm.ms", "ms/call"),
    ("gemm.gmac_per_s", "GMAC/s"),
    ("gemm.roofline_frac", "ratio"),
    ("kvcache.prefill.ms_per_ktok", "ms/ktok"),
    ("kvcache.append_k.us", "us/call"),
    ("kvcache.push_v.us", "us/call"),
    ("kvcache.flushes", "count/run"),
    ("kvcache.k_arrays.calls_per_step", "count/step"),
    ("kvcache.k_arrays.us", "us/call"),
    ("kvcache.stored_bytes_per_token", "B"),
    ("attention.step_self_ms", "ms"),
    ("attention.step_ms.ctx_lo", "ms"),
    ("attention.step_ms.ctx_mid", "ms"),
    ("attention.step_ms.ctx_hi", "ms"),
    ("attention.us_per_ctx_token", "us"),
    ("attention.prefill_rows_s", "s"),
    ("attention.calibration_tables.s", "s"),
    ("simulator.kv_bytes_per_token", "B"),
    ("simulator.decode_step_cycles", "cycles"),
)

CTX_WINDOW = 16   # steps within +-16 tokens of a fixed context length


class Spans:
    """Span arrays with durations, self times and selection helpers."""

    def __init__(self, tracer, timed_ids):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.start = a["start"]
        self.parent = a["parent"]
        self.step = a["step"]
        self.phase = a["phase"]
        self.n1 = a["n1"]
        self.n2 = a["n2"]
        self.dur = (a["end"] - a["start"]) / 1e9
        nested = self.parent >= 0
        cover = np.bincount(self.parent[nested], weights=self.dur[nested], minlength=self.dur.size)
        self.self_time = self.dur - cover
        self.timed_ids = np.asarray(timed_ids)
        self.in_steps = np.isin(self.step, self.timed_ids)
        self.counted = (self.phase == MEASURE) & (self.in_steps | (self.step == -1))
        self.module = np.array([n.split(".")[0] for n in self.names])[self.name] \
            if self.names else np.zeros(0, dtype=str)

    def of(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.dur.size, dtype=bool)
        return self.name == self.names.index(name)

    def per_call(self, name: str, scale: float, population=None) -> float:
        mask = self.of(name) & (self.counted if population is None else population)
        return float(self.dur[mask].mean() * scale) if mask.any() else 0.0

    def per_step(self, name: str) -> float:
        if not self.timed_ids.size:
            return 0.0
        return float(np.count_nonzero(self.of(name) & self.in_steps) / self.timed_ids.size)

    def rate(self, names, numerator, scale: float) -> float:
        mask = np.zeros(self.dur.size, dtype=bool)
        for name in names:
            mask |= self.of(name)
        mask &= self.counted
        total = self.dur[mask].sum()
        return float(numerator[mask].sum() / total * scale) if total else 0.0


def step_table(sp: Spans):
    """(step id, duration, context) of every timed step span."""
    mask = sp.of("step") & sp.in_steps
    return sp.step[mask], sp.dur[mask], sp.n2[mask]


def layer_shares(sp: Spans, remainder_layer: str) -> dict[str, float]:
    """Share of timed step time spent in each layer's own code.  The part
    of a step that no span inside it covers goes to ``remainder_layer``."""
    steps = sp.of("step") & sp.in_steps
    total = sp.dur[steps].sum()
    inner = sp.in_steps & ~sp.of("step")
    shares = {str(m): float(sp.self_time[inner & (sp.module == m)].sum() / total)
              for m in np.unique(sp.module[inner])}
    uncovered = total - sp.self_time[inner].sum()
    shares[remainder_layer] = shares.get(remainder_layer, 0.0) + float(uncovered / total)
    return shares


def compute(sp: Spans, rounds: int, copy_bytes_per_s: float, info: dict) -> dict[str, float]:
    """Every per-layer metric of PER_LAYER; ``info`` holds the workload's
    own figures (stored bytes, simulator figures, context points)."""
    setup = sp.phase == SETUP
    out = {name: 0.0 for name, _ in PER_LAYER}

    cli = sp.of("cli.quantize") & sp.counted
    if cli.any():
        out["cli.quantize.self_ms"] = float(sp.self_time[cli].mean() * 1e3)
    select = "selection.select_weight_coefficient"
    out[f"{select}.calls"] = sp.per_step(select)
    out[f"{select}.us"] = sp.per_call(select, 1e6)
    selects = sp.of(select) & sp.counted
    if selects.any():
        inside = sp.of("codec.quantize_weight_group") & sp.counted & (sp.parent >= 0)
        inside &= sp.of(select)[np.maximum(sp.parent, 0)]
        out["selection.encodes_per_group"] = float(np.count_nonzero(inside) / np.count_nonzero(selects))
    out["selection.build_variance_table.ms"] = sp.per_call("selection.build_variance_table", 1e3, setup)

    out["codec.quantize_weight_group.calls"] = sp.per_step("codec.quantize_weight_group")
    out["codec.quantize_weight_group.us"] = sp.per_call("codec.quantize_weight_group", 1e6)
    out["codec.quantize_weight_tensor.ms"] = sp.per_call("codec.quantize_weight_tensor", 1e3)
    act = sp.of("codec.quantize_activation_tensor") & sp.counted
    if act.any():
        out["codec.quantize_activation_tensor.us_per_group"] = float(
            sp.dur[act].sum() / sp.n1[act].sum() * 1e6)
    out["codec.quantize_activation_group.calls"] = sp.per_step("codec.quantize_activation_group")
    out["codec.dequantize.ms"] = sp.per_call("codec.dequantize", 1e3)

    io_names = ("container.write_quantized", "container.read_quantized")
    out["container.write_quantized.ms"] = sp.per_call(io_names[0], 1e3)
    out["container.read_quantized.ms"] = sp.per_call(io_names[1], 1e3)
    out["container.mb_per_s"] = sp.rate(io_names, sp.n1, 1e-6)
    out["container.roofline_frac"] = sp.rate(io_names, sp.n1 / copy_bytes_per_s, 1.0)

    out["gemm.gemm.ms"] = sp.per_call("gemm.gemm", 1e3)
    out["gemm.gmac_per_s"] = sp.rate(("gemm.gemm",), sp.n1, 1e-9)
    out["gemm.roofline_frac"] = sp.rate(("gemm.gemm",), sp.n2 / copy_bytes_per_s, 1.0)

    prefill = sp.of("kvcache.prefill") & sp.counted
    if prefill.any():
        out["kvcache.prefill.ms_per_ktok"] = float(sp.dur[prefill].sum() / sp.n1[prefill].sum() * 1e6)
    out["kvcache.append_k.us"] = sp.per_call("kvcache.append_k", 1e6)
    out["kvcache.push_v.us"] = sp.per_call("kvcache.push_v", 1e6)
    pushes = sp.of("kvcache.push_v") & (sp.phase == MEASURE)
    out["kvcache.flushes"] = float(sp.n1[pushes].sum() / rounds)
    out["kvcache.k_arrays.calls_per_step"] = sp.per_step("kvcache.k_arrays")
    out["kvcache.k_arrays.us"] = sp.per_call("kvcache.k_arrays", 1e6)
    out["kvcache.stored_bytes_per_token"] = float(info.get("stored_bytes_per_token", 0.0))

    if "ctx_points" in info:
        ids, dur, ctx = step_table(sp)
        parent_module = np.where(sp.parent >= 0, sp.module[np.maximum(sp.parent, 0)], "")
        kv_top = sp.in_steps & (sp.module == "kvcache") & (parent_module != "kvcache")
        kv_time = np.bincount(np.searchsorted(ids, sp.step[kv_top]), weights=sp.dur[kv_top],
                              minlength=ids.size) if ids.size else np.zeros(0)
        out["attention.step_self_ms"] = float(np.median(dur - kv_time) * 1e3)
        for label, point in zip(("lo", "mid", "hi"), info["ctx_points"]):
            near = np.abs(ctx - point) <= CTX_WINDOW
            out[f"attention.step_ms.ctx_{label}"] = float(np.median(dur[near]) * 1e3)
        out["attention.us_per_ctx_token"] = float(np.polyfit(ctx, dur * 1e6, 1)[0])
        out["attention.prefill_rows_s"] = prefill_rows_s(sp)
        out["attention.calibration_tables.s"] = sp.per_call("attention.calibration_tables", 1.0, setup)
        out["simulator.kv_bytes_per_token"] = float(info["simulator_kv_bytes_per_token"])
        out["simulator.decode_step_cycles"] = float(info["simulator_decode_step_cycles"])
    return out


def prefill_rows_s(sp: Spans) -> float:
    """Median time from the end of each round's ``KvCache.prefill`` to its
    first decode-time ``append_k``."""
    prefills = np.flatnonzero(sp.of("kvcache.prefill") & (sp.phase == MEASURE))
    appends = sp.of("kvcache.append_k") & (sp.step >= 0) & (sp.phase == MEASURE)
    gaps = []
    for idx in prefills:
        end = sp.start[idx] + sp.dur[idx] * 1e9
        later = np.flatnonzero(appends & (sp.start > end))
        if later.size:
            gaps.append((sp.start[later[0]] - end) / 1e9)
    return float(np.median(gaps)) if gaps else 0.0
