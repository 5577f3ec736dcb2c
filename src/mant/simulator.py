"""Cycle-approximate model of a weight-stationary systolic accelerator.

This is a first-order analytical model, not an RTL simulator; the formulas
below are the public contract.

Array geometry.  A 32x32 grid of processing element groups; the logical
array is ``logical_rows = peg_rows * (8 / weight_bits)`` by ``peg_cols``
(64x32 for 4-bit weights), so halving the weight width doubles the rows.

GEMM cycles (M x K x N, weight tile = logical_rows x peg_cols):
    stream = M rows per K-iteration; K-iterations per output tile:
    ceil(K / logical_rows); column tiles: ceil(N / peg_cols).  The wavefront
    ramp (logical_rows + peg_cols - 1) is charged once per column tile:
    weight tiles along K are double-buffered, so consecutive K-iterations
    stream back to back and only a new output tile resets the pipeline.
Output re-quantization closes one group every ``ceil(G / peg_cols)`` column
tiles (a 64-wide group spans two 32-wide tiles, hence two comparison rounds
through the 32-stage quantization-unit chain).  Quantizing a closed group
pair costs ``divider_latency * M`` cycles per tile in the pair (the divider
is non-pipelined) and overlaps with the next pair's computation, which
hides it fully iff the K-iteration count reaches ``divider_latency``.  Two
terms therefore land in ``nonoverlapped_quant``: the per-pair residual
``tiles_in_pair * M * (divider_latency - k_iters)`` when ``k_iters`` is
below the divider latency, and the final pair's full cost, which has
nothing left to overlap with (this terminal term is what makes the
quantization share of a large GEMM small but nonzero, about 0.3 percent at
2048 x 4096 x 4096).  The final comparison rounds land in ``drain``.

Attention decode (one step, GEMV over the cached sequence): compute is
modeled at ideal array throughput (``MACs / (logical_rows * peg_cols)``,
GEMV streams have no weight reuse to amortize fills against), and the step
is floored by DRAM traffic at ``dram_bandwidth`` bytes per cycle; any gap
between the two is charged to ``stream`` as a memory stall.  The temporal
bookkeeping of the value-cache window adds no cycles (it is fully
pipelined) but does count accumulator energy.

Traffic counts payload, the container's :func:`mant.codec.row_payload_bytes`
per stored row, plus per-group metadata at 3 bytes (half-precision scale +
coefficient byte).  The ``metadata`` bucket covers stored tensors (weights,
KV); streaming activation metadata rides in ``activations``.

Energy is relative (an 8-bit MAC is 1.0 by default); coefficients are
configurable and documented as synthetic.  Buffer traffic assumes the
weight-stationary dataflow: weights pass once, activations re-stream per
column tile, outputs write once; bank conflicts are modeled as absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .codec import row_payload_bytes
from .grid import as_integer, as_number


@dataclass(frozen=True)
class ArrayConfig:
    """Array geometry and clocking."""

    peg_rows: int = 32
    peg_cols: int = 32
    weight_bits: int = 4
    group_size: int = 64
    frequency_hz: float = 1.0e9
    dram_bandwidth: float = 64.0      # bytes per cycle
    divider_latency: int = 12         # non-pipelined division unit
    rqu_count: int = 32

    def __post_init__(self):
        for name in ("peg_rows", "peg_cols", "weight_bits", "group_size", "divider_latency",
                     "rqu_count"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name, 1))
        if self.weight_bits not in (2, 4, 8):
            raise ValueError(f"weight_bits must be 2, 4 or 8, got {self.weight_bits}")
        for name in ("frequency_hz", "dram_bandwidth"):
            if not as_number(getattr(self, name), name) > 0:
                raise ValueError(f"{name} must be positive")

    @property
    def logical_rows(self) -> int:
        return self.peg_rows * (8 // self.weight_bits)


@dataclass(frozen=True)
class CostModel:
    """Relative energy coefficients (synthetic defaults, MAC8 = 1.0)."""

    mac8: float = 1.0
    mac4: float = 0.6
    mac2: float = 0.35
    sac: float = 0.15                 # shift-accumulate lane per op
    rqu: float = 0.4                  # comparator/accumulator per element
    sram_per_byte: float = 0.8
    dram_per_byte: float = 20.0
    static_per_cycle: float = 64.0

    def __post_init__(self):
        for name in ("mac8", "mac4", "mac2", "sac", "rqu",
                     "sram_per_byte", "dram_per_byte", "static_per_cycle"):
            if not as_number(getattr(self, name), name) >= 0:
                raise ValueError(f"{name} must be non-negative")

    def mac(self, bits: int) -> float:
        return {8: self.mac8, 4: self.mac4, 2: self.mac2}[bits]


@dataclass
class SimReport:
    """Cycle and energy-proxy breakdown of one simulated workload."""

    label: str
    total_cycles: int
    breakdown: dict[str, int]         # pipeline_fill, stream, drain, nonoverlapped_quant
    energy: dict[str, float]          # core, buffer, dram, static
    bytes_moved: dict[str, int]       # weights, activations, kv, metadata
    dram_floor_cycles: int

    @property
    def total_energy(self) -> float:
        return sum(self.energy.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_moved.values())

    def check(self) -> None:
        assert sum(self.breakdown.values()) == self.total_cycles, "breakdown must sum to total"

    def __add__(self, other: "SimReport") -> "SimReport":
        return SimReport(
            label=f"{self.label}+{other.label}",
            total_cycles=self.total_cycles + other.total_cycles,
            breakdown={k: self.breakdown[k] + other.breakdown[k] for k in self.breakdown},
            energy={k: self.energy[k] + other.energy[k] for k in self.energy},
            bytes_moved={k: self.bytes_moved[k] + other.bytes_moved[k] for k in self.bytes_moved},
            dram_floor_cycles=self.dram_floor_cycles + other.dram_floor_cycles,
        )

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "total_cycles": self.total_cycles,
            "total_energy": self.total_energy,
            "total_bytes": self.total_bytes,
            "dram_floor_cycles": self.dram_floor_cycles,
            "breakdown": dict(self.breakdown),
            "energy": dict(self.energy),
            "bytes": dict(self.bytes_moved),
        }


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _meta_bytes(axis_len: int, n_vectors: int, group_size: int) -> int:
    return 3 * n_vectors * _ceil_div(axis_len, group_size)


def _resolve(config: ArrayConfig, weight_bits, group_size) -> ArrayConfig:
    if weight_bits is not None or group_size is not None:
        config = replace(config,
                         weight_bits=config.weight_bits if weight_bits is None else weight_bits,
                         group_size=config.group_size if group_size is None else group_size)
    return config


def _report(label: str, config: ArrayConfig, cost: CostModel, cycles: tuple[int, int, int, int],
            bytes_moved: dict[str, int], macs: int, rqu_ops: int, buffer_bytes: int) -> SimReport:
    """A layer's report from its unstalled ``cycles`` (pipeline fill,
    stream, drain, non-overlapped quantization): the DRAM floor of its
    traffic, the stall that lifts the stream to the floor, and the energy of
    its MACs, re-quantization ops, buffer and DRAM bytes."""
    breakdown = dict(zip(("pipeline_fill", "stream", "drain", "nonoverlapped_quant"), cycles))
    total_bytes = sum(bytes_moved.values())
    floor = math.ceil(total_bytes / config.dram_bandwidth)
    breakdown["stream"] += max(0, floor - sum(breakdown.values()))
    total = sum(breakdown.values())
    wb = config.weight_bits
    energy = {
        "core": macs * cost.mac(wb) + (macs * cost.sac if wb < 8 else 0.0) + rqu_ops * cost.rqu,
        "buffer": buffer_bytes * cost.sram_per_byte,
        "dram": total_bytes * cost.dram_per_byte,
        "static": total * cost.static_per_cycle,
    }
    report = SimReport(label, total, breakdown, energy, bytes_moved, floor)
    report.check()
    return report


def simulate_gemm(m: int, k: int, n: int, config: ArrayConfig = ArrayConfig(),
                  cost: CostModel = CostModel(), weight_bits: int | None = None,
                  group_size: int | None = None, label: str = "gemm") -> SimReport:
    """Model one M x K x N GEMM with quantized weights of ``weight_bits``."""
    m, k, n = (as_integer(d, name, 1) for d, name in ((m, "M"), (k, "K"), (n, "N")))
    config = _resolve(config, weight_bits, group_size)
    rows = config.logical_rows
    cols = config.peg_cols
    g = config.group_size
    if g % rows != 0 and rows % g != 0:
        raise ValueError(f"group size {g} and logical rows {rows} must divide one another")

    k_iters = _ceil_div(k, rows)
    col_tiles = _ceil_div(n, cols)
    fill = col_tiles * (rows + cols - 1)
    stream = col_tiles * k_iters * m

    rounds = _ceil_div(g, config.rqu_count)
    pair = _ceil_div(g, cols)               # column tiles per output group
    n_pairs = _ceil_div(col_tiles, pair)
    drain = rounds * config.rqu_count

    last_pair_tiles = col_tiles - (n_pairs - 1) * pair
    residual_per_pair = pair * m * max(0, config.divider_latency - k_iters)
    nonoverlapped = (n_pairs - 1) * residual_per_pair + config.divider_latency * m * last_pair_tiles

    weights_payload = n * row_payload_bytes(k, g, config.weight_bits)
    weights_meta = _meta_bytes(k, n, g)
    acts_in = m * k + _meta_bytes(k, m, g)
    outs = m * n + _meta_bytes(n, m, g)
    bytes_moved = {
        "weights": weights_payload,
        "activations": acts_in + outs,
        "kv": 0,
        "metadata": weights_meta,
    }
    return _report(label, config, cost, (fill, stream, drain, nonoverlapped), bytes_moved,
                   m * k * n, m * n, (weights_payload + weights_meta) + acts_in * col_tiles + outs)


def simulate_attention(seq_len: int, heads: int, head_dim: int,
                       config: ArrayConfig = ArrayConfig(), cost: CostModel = CostModel(),
                       weight_bits: int | None = None, group_size: int | None = None,
                       label: str = "attention") -> SimReport:
    """Model one decode step: score and value GEMVs over the cached length.

    ``weight_bits`` is the stored KV width.  The step is usually
    bandwidth-bound; the DRAM floor covers both cache reads, the new K/V
    writes, and the probability/output vectors.
    """
    seq_len, heads, head_dim = (as_integer(d, name, 1) for d, name in (
        (seq_len, "seq_len"), (heads, "heads"), (head_dim, "head_dim")))
    config = _resolve(config, weight_bits, group_size)
    rows = config.logical_rows
    cols = config.peg_cols
    g = config.group_size
    wb = config.weight_bits

    macs = 2 * heads * seq_len * head_dim
    stream = _ceil_div(macs, rows * cols)
    fill = 2 * (rows + cols - 1)
    rounds = _ceil_div(g, config.rqu_count)
    drain = rounds * config.rqu_count
    nonoverlapped = 2 * config.divider_latency  # group scale + element division tail

    k_cache = heads * seq_len * row_payload_bytes(head_dim, g, wb)
    v_cache = heads * head_dim * row_payload_bytes(seq_len, g, wb)
    kv_meta = _meta_bytes(head_dim, heads * seq_len, g) + _meta_bytes(seq_len, heads * head_dim, g)
    new_k = heads * row_payload_bytes(head_dim, g, wb)
    new_v_staged = heads * head_dim  # INT8 staging row
    new_meta = _meta_bytes(head_dim, heads, g)
    q_bytes = heads * head_dim + _meta_bytes(head_dim, heads, g)
    probs = heads * seq_len + _meta_bytes(seq_len, heads, g)
    out = heads * head_dim + _meta_bytes(head_dim, heads, g)
    bytes_moved = {
        "weights": 0,
        "activations": q_bytes + probs + out,
        "kv": k_cache + v_cache + new_k + new_v_staged,
        "metadata": kv_meta + new_meta,
    }
    rqu_ops = 3 * 2 * heads * head_dim + heads * seq_len + heads * head_dim
    return _report(label, config, cost, (fill, stream, drain, nonoverlapped), bytes_moved,
                   macs, rqu_ops, 2 * sum(bytes_moved.values()))


def layer_dimensions(layer: dict) -> tuple[int, ...]:
    """A workload entry's integer dimensions, in its simulate function's order."""
    names = {"gemm": ("M", "K", "N"), "attention": ("seq_len", "heads", "head_dim")}
    kind = layer.get("kind") if isinstance(layer, dict) else None
    if kind not in names:
        raise ValueError(f"unknown layer kind {kind!r} (expected 'gemm' or 'attention')")
    return tuple(as_integer(layer.get(name), f"layer field {name!r}", 1)
                 for name in names[kind])


def simulate_layer(layer: dict, config: ArrayConfig, cost: CostModel) -> SimReport:
    """Simulate one workload-description entry."""
    dims = layer_dimensions(layer)
    simulate = simulate_gemm if layer["kind"] == "gemm" else simulate_attention
    return simulate(*dims, config, cost, label=layer.get("label", layer["kind"]))


def simulate_workload(layers: list[dict], config: ArrayConfig = ArrayConfig(),
                      cost: CostModel = CostModel()):
    """Simulate a layer list; returns (total report, per-layer reports)."""
    if not layers:
        raise ValueError("workload has no layers")
    reports = [simulate_layer(layer, config, cost) for layer in layers]
    # a copy: a one-layer workload's layer report keeps its own label
    return replace(sum(reports[1:], reports[0]), label="total"), reports


def compare_configs(layers: list[dict], configs: list[tuple[str, ArrayConfig, CostModel]]):
    """Run a workload under several configs; ratios are vs the first one.

    Returns a dict with per-config totals, per-layer reports, and
    speedup/energy-ratio columns (baseline / config).
    """
    if not configs:
        raise ValueError("no configurations to compare")
    rows = []
    baseline = None
    for name, config, cost in configs:
        total, per_layer = simulate_workload(layers, config, cost)
        if baseline is None:
            baseline = total
        rows.append({
            "config": name,
            "total": total.to_dict(),
            "layers": [r.to_dict() for r in per_layer],
            "seconds": total.total_cycles / config.frequency_hz,
            "speedup": baseline.total_cycles / total.total_cycles,
            "energy_ratio": baseline.total_energy / total.total_energy
            if total.total_energy else float("nan"),
        })
    return {"baseline": configs[0][0], "results": rows}
