"""Toy single-layer attention pipeline over the quantized KV cache.

Exercises the full policy stack end to end: prefill quantizes K and V
wholesale and the prompt attends in blocks of query rows under a causal
mask, each decode step runs the spatial K path and the two-phase V window
and attends as a one-row block, queries and softmax probabilities are
quantized to group-wise INT8 along their accumulation axes, and softmax
stays in real arithmetic.  The full-precision reference trace, for error
reporting, is computed in 32-row blocks apart from the decode steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codec import (DEFAULT_GROUP_SIZE, MAX_GROUP_SIZE, encode_int8, quantize_activation_tensor,
                    to_groups)
from .codec import quantize_activation_group  # noqa: F401  (unused; bench/spans.py patches it)
from .gemm import _fold
from .grid import as_integer
from .kvcache import KvCache
from .selection import (MIN_CALIBRATION_GROUPS, CandidateSet, VarianceTable, build_variance_table,
                        calibration_groups)


@dataclass(frozen=True)
class AttentionPolicies:
    """Quantization switches for the toy pipeline."""

    group_size: int = DEFAULT_GROUP_SIZE
    quantize_kv: bool = True
    k_table: VarianceTable | None = None
    v_table: VarianceTable | None = None


@dataclass
class ToyAttentionReport:
    """Quantized outputs, the FP reference trace, and per-step errors.  The
    trace's rows match a per-row float64 computation to 1e-12 of the row max."""

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
    k_groups = calibration_groups(k, group_size)   # in (token, head, group) order
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
    """Softmax of float64 scores ``(heads, rows, upto)`` along the last axis,
    in which row r sees only tokens [0, first + r); one row needs no mask.
    It works in place on ``scores``, or on the masked copy, whose C order
    the sums' pairwise bits depend on."""
    if scores.shape[1] > 1:
        visible = np.arange(scores.shape[2]) < first + np.arange(scores.shape[1])[:, None]
        scores = np.where(visible, scores, -np.inf)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _cut(codes: np.ndarray, length: int) -> np.ndarray:
    """INT8 ``codes`` of rows ``(..., ceil(length / G), G)``, zero past
    ``length``: a copy when the last group is short, the array itself when not."""
    tail = length - (codes.shape[-2] - 1) * codes.shape[-1]
    if tail < codes.shape[-1]:
        codes = codes.copy()
        codes[..., -1, tail:] = 0
    return codes


def _fused(codes, scales, levels, level_scales, length: int) -> np.ndarray:
    """Fused product ``(heads, rows, N)`` of INT8 rows ``(heads, rows,
    n_groups, G)`` against a cache's float32 operands, heads batched: one
    fold (:func:`gemm.grouped_dot`) over the group-major key groups
    (:meth:`KvCache.key_operands`, ``length`` head_dim), or over the value
    blocks, flushed and then open, whose staged INT8 rows are one group under
    the window's channel scales (:meth:`KvCache.value_operands`, ``length``
    the tokens attended).  The codes are cut to ``length`` (:func:`_cut`), so
    every group folds at full length: key padding and value slots past the
    last token hold finite levels, and the open block zeros past the
    window's rows."""
    return _fold(_cut(codes, length), scales, levels, level_scales,
                 (codes.shape[-1],) * codes.shape[-2])


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
        scores = _fused(q_codes, q_scales, *store.key_operands(upto), store.head_dim)
        probs = _softmax(scores * scale, first)
        p_codes, p_scales = encode_int8(to_groups(probs, group_size))
        return _fused(p_codes, p_scales, *store.value_operands(upto), upto).swapaxes(0, 1)
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
    seed), so the data itself is policy-independent.  The reference trace
    comes first, in 32-row blocks of the prompt and then of the decode rows,
    so a decode step only writes its key and value and attends one row.
    """
    prefill_len, heads, head_dim = (as_integer(value, name, 1) for value, name in (
        (prefill_len, "prefill_len"), (heads, "heads"), (head_dim, "head_dim")))
    decode_steps = as_integer(decode_steps, "decode_steps", 0)
    policies = policies or AttentionPolicies()
    group_size = as_integer(policies.group_size, "group size", 1, MAX_GROUP_SIZE)

    rng = np.random.default_rng(seed)
    total = prefill_len + decode_steps
    q_all, k_all, v_all = synthesize_stream(rng, total, heads, head_dim)
    scale = 1.0 / math.sqrt(head_dim)
    # query row blocks [a, b), the prompt's and the decode rows'; row t sees tokens [0, t]
    prompt, decode = ([(a, min(a + _PROMPT_BLOCK_ROWS, stop))
                       for a in range(start, stop, _PROMPT_BLOCK_ROWS)]
                      for start, stop in ((0, prefill_len), (prefill_len, total)))
    # the synthesized stream serves as the unquantized store
    store = ref_store = (k_all, v_all)
    ref_prefill, ref_steps = np.split(np.concatenate([
        _attention_rows(q_all[a:b], ref_store, a + 1, scale, group_size, int8=False)
        for a, b in prompt + decode]), [prefill_len])

    if policies.quantize_kv:
        if policies.k_table is not None and policies.v_table is not None:
            k_table, v_table = policies.k_table, policies.v_table
        else:
            table_rng = np.random.default_rng([seed, 1])
            k_default, v_default = calibration_tables(table_rng, heads, head_dim, group_size)
            k_table = policies.k_table or k_default
            v_table = policies.v_table or v_default
        store = cache = KvCache(heads, head_dim, k_table, v_table, group_size)
        cache.prefill(k_all[:prefill_len], v_all[:prefill_len])
    prefill_out = np.concatenate([_attention_rows(q_all[a:b], store, a + 1, scale, group_size)
                                  for a, b in prompt])
    step_out = np.zeros((decode_steps, heads, head_dim))
    flush_steps: list[int] = []
    for s, t in enumerate(range(prefill_len, total)):
        if policies.quantize_kv:
            cache.append_k(k_all[t])
            if cache.push_v(v_all[t]):
                flush_steps.append(s)
        step_out[s] = _attention_rows(q_all[t:t + 1], store, t + 1, scale, group_size)[0]

    cosines = _row_cosines(step_out, ref_steps)
    mses = np.mean((step_out - ref_steps) ** 2, axis=(1, 2))
    prefill_cos = float(np.mean(_row_cosines(prefill_out, ref_prefill)))
    clamp = cache.windows.clamp_count if policies.quantize_kv else 0
    return ToyAttentionReport(prefill_out, ref_prefill, step_out, ref_steps,
                              cosines, mses, prefill_cos, flush_steps, clamp)
