"""Toy single-layer attention pipeline over the quantized KV cache.

Exercises the full policy stack end to end: prefill quantizes K and V
wholesale and the prompt attends in blocks of query rows under a causal
mask, each decode step runs the spatial K path and the two-phase V window
and attends as a one-row block, queries and softmax probabilities are
quantized to group-wise INT8 along their accumulation axes, and softmax
stays in real arithmetic.  A full-precision reference trace runs alongside
for error reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codec import (DEFAULT_GROUP_SIZE, encode_int8, group_lengths, quantize_activation_tensor,
                    split_runs, to_groups)
from .codec import quantize_activation_group  # noqa: F401  (unused; bench/spans.py patches it)
from .gemm import fused_dot, grouped_dot
from .kvcache import KvCache
from .selection import MIN_CALIBRATION_GROUPS, CandidateSet, VarianceTable, build_variance_table


@dataclass(frozen=True)
class AttentionPolicies:
    """Quantization switches for the toy pipeline."""

    group_size: int = DEFAULT_GROUP_SIZE
    quantize_kv: bool = True
    k_table: VarianceTable | None = None
    v_table: VarianceTable | None = None


@dataclass
class ToyAttentionReport:
    """Quantized outputs, the FP reference trace, and per-step errors."""

    prefill_outputs: np.ndarray       # (prefill_len, heads, head_dim)
    reference_prefill: np.ndarray
    step_outputs: np.ndarray          # (decode_steps, heads, head_dim)
    reference_steps: np.ndarray
    step_cosine: np.ndarray
    step_mse: np.ndarray
    prefill_cosine: float
    flush_steps: list[int] = field(default_factory=list)
    clamp_count: int = 0


# AR(1) correlation of consecutive tokens' hidden states in the toy streams
TOKEN_CORRELATION = 0.9
# Query rows per prompt attention block: each block's masked scores stay small.
_PROMPT_BLOCK_ROWS = 32


def synthesize_stream(rng: np.random.Generator, length: int, heads: int, head_dim: int):
    """Transformer-like toy q/k/v streams, shape (length, heads, head_dim) each.

    Hidden states follow a stationary AR(1) walk (token correlation
    :data:`TOKEN_CORRELATION`) and are projected through fixed random
    matrices, so keys and values carry the kind of temporal structure real
    caches have; entries are marginally standard normal.
    """
    model_dim = heads * head_dim
    w_q = rng.standard_normal((model_dim, heads, head_dim)) / math.sqrt(model_dim)
    w_k = rng.standard_normal((model_dim, heads, head_dim)) / math.sqrt(model_dim)
    w_v = rng.standard_normal((model_dim, heads, head_dim)) / math.sqrt(model_dim)
    hidden = rng.standard_normal((length, model_dim))
    innovation = math.sqrt(1.0 - TOKEN_CORRELATION * TOKEN_CORRELATION)
    for t in range(1, length):
        hidden[t] = TOKEN_CORRELATION * hidden[t - 1] + innovation * hidden[t]
    q = np.einsum("tm,mhd->thd", hidden, w_q)
    k = np.einsum("tm,mhd->thd", hidden, w_k)
    v = np.einsum("tm,mhd->thd", hidden, w_v)
    return q, k, v


def calibration_tables(rng: np.random.Generator, heads: int, head_dim: int,
                       group_size: int, length: int = 256):
    """Variance tables for the K and V roles, calibrated on a toy stream.

    Key groups run along the head dimension (one slice per token), value
    groups along the sequence (one slice per channel), so the two roles see
    different statistics and get separate tables.
    """
    candidates = CandidateSet(include_int=False)
    _, k, v = synthesize_stream(rng, length, heads, head_dim)
    # key groups in (token, head, group) order: the full groups, or the
    # short rows when no group is full
    k_runs = split_runs(k, group_size)[0]
    k_groups = k_runs.reshape(-1, k_runs.shape[-1])
    # value groups in (block, head, channel) order
    blocks = length // group_size
    if blocks * heads * head_dim < MIN_CALIBRATION_GROUPS:
        raise ValueError(f"group size {group_size} leaves {blocks * heads * head_dim} full value "
                         f"groups in the {length}-token calibration stream, fewer than the "
                         f"{MIN_CALIBRATION_GROUPS} calibration needs; give both variance tables "
                         "(kv-run --k-table and --v-table) to skip calibration")
    v_groups = v[:blocks * group_size].reshape(blocks, group_size, heads, head_dim)
    v_groups = v_groups.transpose(0, 2, 3, 1).reshape(-1, group_size)
    k_table = build_variance_table(k_groups, candidates)
    v_table = build_variance_table(v_groups, candidates)
    return k_table, v_table


def _row_cosines(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cosine similarity of each pair of rows ``x[i]``, ``y[i]``: 1 when
    both rows are zero, 0 when one of them is."""
    size = math.prod(x.shape[1:])
    x, y = x.reshape(len(x), 1, size), y.reshape(len(y), size, 1)
    nx = np.sqrt((x @ x.swapaxes(1, 2))[:, 0, 0])
    ny = np.sqrt((y.swapaxes(1, 2) @ y)[:, 0, 0])
    zero = (nx == 0.0) | (ny == 0.0)
    return np.where(zero, nx == ny, (x @ y)[:, 0, 0] / np.where(zero, 1.0, nx * ny))


def _softmax(scores: np.ndarray, first: int) -> np.ndarray:
    """Softmax of scores ``(heads, rows, upto)`` along the last axis, in
    which row r sees only tokens [0, first + r); one row needs no mask."""
    if scores.shape[1] > 1:
        visible = np.arange(scores.shape[2]) < first + np.arange(scores.shape[1])[:, None]
        scores = np.where(visible, scores, -np.inf)
    exps = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    return exps / exps.sum(axis=-1, keepdims=True)


def _scores_fused(q_codes, q_scales, cache: KvCache, upto: int) -> np.ndarray:
    """Fused attention scores ``(heads, rows, upto)`` of query rows
    ``(heads, rows, ...)`` against cached keys [0, upto): one
    :func:`grouped_dot` over the key groups' levels, heads batched."""
    k_scales, k_levels = (a.reshape((cache.seq_len, cache.heads) + a.shape[1:])[:upto]
                          .swapaxes(0, 1) for a in (cache.keys.scales, cache.keys.levels))
    return grouped_dot(q_codes, q_scales, k_levels, k_scales,
                       group_lengths(cache.head_dim, cache.group_size))


def _weighted_values_fused(p_codes, p_scales, cache: KvCache, upto: int) -> np.ndarray:
    """Fused probability-value product ``(heads, rows, head_dim)`` of
    probability rows ``(heads, rows, ...)`` over tokens [0, upto): one
    :func:`grouped_dot` over the flushed value blocks' levels on the 4-bit
    path, then one :func:`fused_dot` over the window's INT8 rows under their
    channel scales.
    """
    group_size, flushed = cache.group_size, cache.flushed_tokens
    # (heads, head_dim, blocks, G): block b is group b of every channel
    v_scales, v_levels = (a.reshape((cache.heads, cache.head_dim) + a.shape[1:])
                          for a in (cache.values.scales, cache.values.levels))
    out = grouped_dot(p_codes, p_scales, v_levels, v_scales,
                      group_lengths(min(upto, flushed), group_size))
    if upto > flushed:
        b, length = flushed // group_size, upto - flushed
        out += fused_dot(p_codes[:, :, b, :length], p_scales[:, :, b],
                         cache.windows.staged[:length].transpose(1, 2, 0),
                         cache.windows.channel_scales)
    return out


def _attention_rows(q_rows, store, first: int, scale: float, group_size: int,
                    int8: bool = True) -> np.ndarray:
    """Attention outputs ``(rows, heads, head_dim)`` of a block of query rows
    ``(rows, heads, head_dim)``, every head at once; row r attends to the
    first ``first + r`` tokens of ``store``.

    A :class:`KvCache` store runs the fused path with INT8 queries and
    probabilities.  A ``(k, v)`` pair of ``(tokens, heads, head_dim)``
    arrays runs in real arithmetic, with queries and probabilities rounded
    to group-wise INT8 when ``int8`` is set.
    """
    upto = first + q_rows.shape[0] - 1
    q = q_rows.swapaxes(0, 1)   # (heads, rows, head_dim)
    if isinstance(store, KvCache):
        q_codes, q_scales = encode_int8(to_groups(q, group_size))
        probs = _softmax(_scores_fused(q_codes, q_scales, store, upto) * scale, first)
        p_codes, p_scales = encode_int8(to_groups(probs, group_size))
        return _weighted_values_fused(p_codes, p_scales, store, upto).swapaxes(0, 1)
    # (heads, upto, head_dim) views of the unquantized store
    k_raw, v_raw = (x[:upto].swapaxes(0, 1) for x in store)
    q_hat = quantize_activation_tensor(q, 2, group_size).dequantize() if int8 else q
    probs = _softmax((k_raw @ q_hat.swapaxes(1, 2)).swapaxes(1, 2) * scale, first)
    p_hat = quantize_activation_tensor(probs, 2, group_size).dequantize() if int8 else probs
    return (p_hat @ v_raw).swapaxes(0, 1)


def run_toy_attention(prefill_len: int, decode_steps: int, heads: int, head_dim: int,
                      policies: AttentionPolicies | None = None,
                      seed: int = 0) -> ToyAttentionReport:
    """Run the quantized toy attention pipeline against its FP reference.

    Inputs come from :func:`synthesize_stream` under ``seed``; variance
    tables default to ones calibrated on an independent stream (derived
    seed), so the data itself is policy-independent.
    """
    if prefill_len < 1 or decode_steps < 0 or heads < 1 or head_dim < 1:
        raise ValueError("invalid geometry")
    policies = policies or AttentionPolicies()
    group_size = policies.group_size
    group_lengths(head_dim, group_size)   # rejects a group size out of range

    rng = np.random.default_rng(seed)
    q_all, k_all, v_all = synthesize_stream(rng, prefill_len + decode_steps, heads, head_dim)
    scale = 1.0 / math.sqrt(head_dim)

    cache = None
    if policies.quantize_kv:
        if policies.k_table is not None and policies.v_table is not None:
            k_table, v_table = policies.k_table, policies.v_table
        else:
            table_rng = np.random.default_rng([seed, 1])
            k_default, v_default = calibration_tables(table_rng, heads, head_dim, group_size)
            k_table = policies.k_table or k_default
            v_table = policies.v_table or v_default
        cache = KvCache(heads, head_dim, k_table, v_table, group_size)
        cache.prefill(k_all[:prefill_len], v_all[:prefill_len])
    # the synthesized stream serves as the unquantized store
    ref_store = (k_all, v_all)
    store = cache if policies.quantize_kv else ref_store
    out = np.zeros((2, prefill_len + decode_steps, heads, head_dim))   # quantized, reference

    def attend(start, stop):
        """Both outputs of query rows [start, stop); row t sees tokens [0, t]."""
        q_rows = q_all[start:stop]
        out[0, start:stop] = _attention_rows(q_rows, store, start + 1, scale, group_size)
        out[1, start:stop] = _attention_rows(q_rows, ref_store, start + 1, scale, group_size,
                                             int8=False)

    for start in range(0, prefill_len, _PROMPT_BLOCK_ROWS):
        attend(start, min(start + _PROMPT_BLOCK_ROWS, prefill_len))
    flush_steps: list[int] = []
    for s, t in enumerate(range(prefill_len, prefill_len + decode_steps)):
        if policies.quantize_kv:
            cache.append_k(k_all[t])
            if cache.push_v(v_all[t]):
                flush_steps.append(s)
        attend(t, t + 1)

    (prefill_out, step_out), (ref_prefill, ref_steps) = (np.split(x, [prefill_len]) for x in out)
    cosines = _row_cosines(step_out, ref_steps)
    mses = np.mean((step_out - ref_steps) ** 2, axis=(1, 2))
    prefill_cos = float(np.mean(_row_cosines(prefill_out, ref_prefill)))
    clamp = cache.windows.clamp_count if cache is not None else 0
    return ToyAttentionReport(prefill_out, ref_prefill, step_out, ref_steps,
                              cosines, mses, prefill_cos, flush_steps, clamp)
