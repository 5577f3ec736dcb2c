"""Toy single-layer attention pipeline over the quantized KV cache.

Exercises the full policy stack end to end: prefill quantizes K and V
wholesale, each decode step runs the spatial K path and the two-phase V
window, queries and softmax probabilities are quantized to group-wise INT8
along their accumulation axes, and softmax stays in real arithmetic.  A
full-precision reference trace runs alongside for error reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codec import (DEFAULT_GROUP_SIZE, INT8_COEFF, decode_groups, encode_int8, group_lengths,
                    to_groups)
from .codec import quantize_activation_group  # noqa: F401  (unused; bench/spans.py patches it)
from .gemm import fused_dot
from .kvcache import KvCache
from .selection import CandidateSet, VarianceTable, build_variance_table


@dataclass(frozen=True)
class AttentionPolicies:
    """Quantization switches for the toy pipeline."""

    group_size: int = DEFAULT_GROUP_SIZE
    quantize_kv: bool = True
    quantize_activations: bool = True
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


DEFAULT_TOKEN_CORRELATION = 0.9


def synthesize_stream(rng: np.random.Generator, length: int, heads: int, head_dim: int,
                      correlation: float = DEFAULT_TOKEN_CORRELATION):
    """Transformer-like toy q/k/v streams, shape (length, heads, head_dim) each.

    Hidden states follow a stationary AR(1) walk (token correlation
    ``correlation``) and are projected through fixed random matrices, so
    keys and values carry the kind of temporal structure real caches have;
    entries are marginally standard normal.
    """
    if not 0.0 <= correlation < 1.0:
        raise ValueError(f"correlation must be in [0, 1), got {correlation}")
    model_dim = heads * head_dim
    w_q = rng.standard_normal((model_dim, heads, head_dim)) / math.sqrt(model_dim)
    w_k = rng.standard_normal((model_dim, heads, head_dim)) / math.sqrt(model_dim)
    w_v = rng.standard_normal((model_dim, heads, head_dim)) / math.sqrt(model_dim)
    hidden = rng.standard_normal((length, model_dim))
    innovation = math.sqrt(1.0 - correlation * correlation)
    for t in range(1, length):
        hidden[t] = correlation * hidden[t - 1] + innovation * hidden[t]
    q = np.einsum("tm,mhd->thd", hidden, w_q)
    k = np.einsum("tm,mhd->thd", hidden, w_k)
    v = np.einsum("tm,mhd->thd", hidden, w_v)
    return q, k, v


def calibration_tables(rng: np.random.Generator, heads: int, head_dim: int,
                       group_size: int, correlation: float = DEFAULT_TOKEN_CORRELATION,
                       length: int = 256,
                       candidates: CandidateSet | None = None):
    """Variance tables for the K and V roles, calibrated on a toy stream.

    Key groups run along the head dimension (one slice per token), value
    groups along the sequence (one slice per channel), so the two roles see
    different statistics and get separate tables.
    """
    candidates = candidates or CandidateSet(include_int=False)
    _, k, v = synthesize_stream(rng, length, heads, head_dim, correlation)
    # full key groups in (token, head, group) order; a tail group is left out
    k_full = head_dim - head_dim % group_size
    k_groups = k[:, :, :k_full].reshape(-1, group_size)
    # value groups in (block, head, channel) order
    blocks = length // group_size
    v_groups = v[:blocks * group_size].reshape(blocks, group_size, heads, head_dim)
    v_groups = v_groups.transpose(0, 2, 3, 1).reshape(-1, group_size)
    k_table = build_variance_table(k_groups, candidates)
    v_table = build_variance_table(v_groups, candidates)
    return k_table, v_table


def _cosine(x: np.ndarray, y: np.ndarray) -> float:
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 and ny == 0.0:
        return 1.0
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return float(np.dot(x.ravel(), y.ravel()) / (nx * ny))


def _softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax along the last axis."""
    shifted = scores - np.max(scores, axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def _activation_groups(vectors: np.ndarray, group_size: int, quantize: bool = True):
    """Group-wise INT8 codes ``(..., n_groups, G)`` and scales of the last
    axis, or with ``quantize`` off the raw values and unit scales."""
    groups = to_groups(vectors, group_size)
    return encode_int8(groups) if quantize else (groups, np.ones(groups.shape[:-1]))


def _int8_roundtrip(vectors: np.ndarray, group_size: int) -> np.ndarray:
    """Quantize vectors to group-wise INT8 along the last axis and decode them."""
    codes, scales = _activation_groups(vectors, group_size)
    values = decode_groups(codes, INT8_COEFF, scales)
    return values.reshape(values.shape[:-2] + (-1,))[..., :vectors.shape[-1]]


def _scores_fused(q_codes, q_scales, cache: KvCache, upto: int) -> np.ndarray:
    """Fused attention scores ``(heads, upto)`` of one query against cached
    keys [0, upto): one :func:`fused_dot` per key group, heads batched."""
    k_codes, k_scales, k_coeffs = (a[:upto].swapaxes(0, 1) for a in cache.k_arrays())
    scores = np.zeros((cache.heads, 1, upto))
    for g, length in enumerate(group_lengths(cache.head_dim, cache.group_size)):
        scores += fused_dot(q_codes[:, None, g, :length], q_scales[:, None, g],
                            k_codes[:, :, g, :length], k_coeffs[:, :, g], k_scales[:, :, g])
    return scores[:, 0]


def _weighted_values_fused(p_codes, p_scales, cache: KvCache, upto: int) -> np.ndarray:
    """Fused probability-value product ``(heads, head_dim)`` over tokens
    [0, upto): one :func:`fused_dot` per flushed value block on the 4-bit
    path, then one over the window's INT8 rows under their channel scales.
    The loops over key groups and value blocks are cache tiles: each call
    gathers one group's or one block's code values.
    """
    out = np.zeros((cache.heads, 1, cache.head_dim))
    group_size = cache.group_size
    v_codes, v_scales, v_coeffs = cache.v_arrays()
    for b in range(min(v_codes.shape[0], -(-upto // group_size))):
        length = min(group_size, upto - b * group_size)
        out += fused_dot(p_codes[:, None, b, :length], p_scales[:, None, b],
                         v_codes[b, ..., :length], v_coeffs[b], v_scales[b])
    flushed, window = cache.flushed_tokens, cache.windows
    if upto > flushed:
        b, length = flushed // group_size, upto - flushed
        out += fused_dot(p_codes[:, None, b, :length], p_scales[:, None, b],
                         window.staged[:length].transpose(1, 2, 0), INT8_COEFF,
                         window.channel_scales)
    return out[:, 0]


def _attention_row(q_row, store, policies: AttentionPolicies, upto: int,
                   scale: float) -> np.ndarray:
    """One query's attention output ``(heads, head_dim)`` over the first
    ``upto`` cached tokens, every head at once."""
    group_size = policies.group_size
    if policies.quantize_kv:
        quantize = policies.quantize_activations
        q_codes, q_scales = _activation_groups(q_row, group_size, quantize)
        probs = _softmax(_scores_fused(q_codes, q_scales, store, upto) * scale)
        p_codes, p_scales = _activation_groups(probs, group_size, quantize)
        return _weighted_values_fused(p_codes, p_scales, store, upto)
    # (heads, upto, head_dim) views of the unquantized store
    k_raw, v_raw = (x[:upto].swapaxes(0, 1) for x in store)
    q_hat = _int8_roundtrip(q_row, group_size) if policies.quantize_activations else q_row
    probs = _softmax((k_raw @ q_hat[..., None])[..., 0] * scale)
    p_hat = _int8_roundtrip(probs, group_size) if policies.quantize_activations else probs
    return (p_hat[:, None, :] @ v_raw)[:, 0]


def run_toy_attention(prefill_len: int, decode_steps: int, heads: int, head_dim: int,
                      policies: AttentionPolicies | None = None, seed: int = 0,
                      correlation: float = DEFAULT_TOKEN_CORRELATION) -> ToyAttentionReport:
    """Run the quantized toy attention pipeline against its FP reference.

    Inputs come from :func:`synthesize_stream` under ``seed``; variance
    tables default to ones calibrated on an independent stream (derived
    seed), so the data itself is policy-independent.
    """
    if prefill_len < 1 or decode_steps < 0 or heads < 1 or head_dim < 1:
        raise ValueError("invalid geometry")
    policies = policies or AttentionPolicies()
    group_size = policies.group_size

    rng = np.random.default_rng(seed)
    q_all, k_all, v_all = synthesize_stream(rng, prefill_len + decode_steps,
                                            heads, head_dim, correlation)
    q_pre, k_pre, v_pre = (x[:prefill_len] for x in (q_all, k_all, v_all))
    q_dec, k_dec, v_dec = (x[prefill_len:] for x in (q_all, k_all, v_all))
    scale = 1.0 / math.sqrt(head_dim)

    cache = None
    if policies.quantize_kv:
        if policies.k_table is not None and policies.v_table is not None:
            k_table, v_table = policies.k_table, policies.v_table
        else:
            table_rng = np.random.default_rng([seed, 1])
            k_default, v_default = calibration_tables(table_rng, heads, head_dim,
                                                      group_size, correlation)
            k_table = policies.k_table or k_default
            v_table = policies.v_table or v_default
        cache = KvCache(heads, head_dim, k_table, v_table, group_size)
        cache.prefill(k_pre, v_pre)
    # the synthesized stream serves as the unquantized store: a row of
    # tokens [0, seq) reads only those
    ref_store = (k_all, v_all)
    store = cache if policies.quantize_kv else ref_store

    ref_policies = AttentionPolicies(group_size=group_size, quantize_kv=False,
                                     quantize_activations=False)

    prefill_out = np.zeros((prefill_len, heads, head_dim))
    ref_prefill = np.zeros((prefill_len, heads, head_dim))
    for i in range(prefill_len):
        prefill_out[i] = _attention_row(q_pre[i], store, policies, i + 1, scale)
        ref_prefill[i] = _attention_row(q_pre[i], ref_store, ref_policies, i + 1, scale)

    step_out = np.zeros((decode_steps, heads, head_dim))
    ref_steps = np.zeros((decode_steps, heads, head_dim))
    cosines = np.zeros(decode_steps)
    mses = np.zeros(decode_steps)
    flush_steps: list[int] = []
    for s in range(decode_steps):
        if policies.quantize_kv:
            cache.append_k(k_dec[s])
            if cache.push_v(v_dec[s]):
                flush_steps.append(s)

        seq = prefill_len + s + 1
        step_out[s] = _attention_row(q_dec[s], store, policies, seq, scale)
        ref_steps[s] = _attention_row(q_dec[s], ref_store, ref_policies, seq, scale)
        cosines[s] = _cosine(step_out[s], ref_steps[s])
        mses[s] = float(np.mean((step_out[s] - ref_steps[s]) ** 2))

    prefill_cos = float(np.mean([_cosine(prefill_out[i], ref_prefill[i])
                                 for i in range(prefill_len)]))
    clamp = cache.windows.clamp_count if cache is not None else 0
    return ToyAttentionReport(prefill_out, ref_prefill, step_out, ref_steps,
                              cosines, mses, prefill_cos, flush_steps, clamp)
