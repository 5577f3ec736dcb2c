"""Toy attention pipeline: policies, traces, fidelity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mant import attention
from mant.attention import (
    AttentionPolicies,
    _attention_rows,
    _fused,
    calibration_tables,
    run_toy_attention,
    synthesize_stream,
)
from mant.codec import group_lengths, quantize_activation_tensor
from mant.kvcache import KvCache
from mant.selection import table_from_probe_means


class TestSynthesizeStream:
    def test_shapes_and_determinism(self):
        rng1 = np.random.default_rng(0)
        rng2 = np.random.default_rng(0)
        q1, k1, v1 = synthesize_stream(rng1, 10, 3, 16)
        q2, k2, v2 = synthesize_stream(rng2, 10, 3, 16)
        assert q1.shape == (10, 3, 16)
        assert np.array_equal(q1, q2) and np.array_equal(k1, k2) and np.array_equal(v1, v2)

    def test_token_correlation_present(self):
        rng = np.random.default_rng(1)
        _, _, v = synthesize_stream(rng, 512, 1, 32)
        flat = v[:, 0, :]
        lag1 = np.corrcoef(flat[:-1].ravel(), flat[1:].ravel())[0, 1]
        assert lag1 > 0.7


class TestRunToyAttention:
    def test_prefill_only(self):
        rep = run_toy_attention(64, 0, 2, 64, seed=0)
        assert rep.step_outputs.shape == (0, 2, 64)
        assert rep.prefill_outputs.shape == (64, 2, 64)
        assert rep.prefill_cosine > 0.99
        assert rep.flush_steps == []

    def test_policy_bypass_matches_int8_pipeline(self):
        # disabling KV quantization must reproduce an INT8-only pipeline
        # exactly (oracle below mirrors the group accumulation order)
        policies = AttentionPolicies(quantize_kv=False)
        rep = run_toy_attention(64, 4, 2, 32, policies, seed=5)
        rng = np.random.default_rng(5)
        q, k, v = synthesize_stream(rng, 68, 2, 32)
        scale = 1 / math.sqrt(32)
        expected = np.zeros((4, 2, 32))
        for s in range(4):
            upto = 64 + s + 1
            for h in range(2):
                q_hat = quantize_activation_tensor(q[64 + s, h], 0, 64).dequantize()
                scores = (k[:upto, h] @ q_hat) * scale
                probs = np.exp(scores - scores.max())
                probs /= probs.sum()
                p_hat = quantize_activation_tensor(probs, 0, 64).dequantize()
                expected[s, h] = p_hat @ v[:upto, h]
        assert np.array_equal(rep.step_outputs, expected)

    def test_fidelity_small_config(self):
        rep = run_toy_attention(128, 16, 2, 64, seed=3)
        assert rep.step_cosine.min() >= 0.99
        assert rep.prefill_cosine >= 0.99
        assert np.all(rep.step_mse < 1e-2)

    def test_flush_events_at_window_boundaries(self):
        # prefill 96 leaves 32 tokens in the window; flushes land every 64
        rep = run_toy_attention(96, 100, 1, 64, seed=4)
        assert rep.flush_steps == [31, 95]

    def test_deterministic(self):
        r1 = run_toy_attention(64, 8, 2, 64, seed=9)
        r2 = run_toy_attention(64, 8, 2, 64, seed=9)
        assert np.array_equal(r1.step_outputs, r2.step_outputs)
        assert np.array_equal(r1.step_cosine, r2.step_cosine)
        assert r1.flush_steps == r2.flush_steps

    def test_geometry_errors(self):
        with pytest.raises(ValueError):
            run_toy_attention(0, 4, 1, 64)
        with pytest.raises(ValueError):
            run_toy_attention(64, -1, 1, 64)

    def test_custom_tables(self):
        rng = np.random.default_rng(11)
        k_table, v_table = calibration_tables(rng, 1, 64, 64, length=128)
        policies = AttentionPolicies(k_table=k_table, v_table=v_table)
        rep = run_toy_attention(64, 4, 1, 64, policies, seed=6)
        assert rep.step_cosine.min() > 0.95


class TestReferenceTrace:
    """The FP reference trace comes from causal blocks of 32 query rows,
    computed apart from the decode steps: the prompt's rows bit for bit as
    the prompt's blocks give them, the decode rows to float64 rounding of the
    one-row products each decode step once computed."""

    TABLE = table_from_probe_means((0, 20, 40, 80, 120), [0.05, 0.11, 0.15, 0.25])

    @pytest.mark.parametrize("quantize_kv", [True, False])
    @pytest.mark.parametrize("group_size", [32, 64])
    @pytest.mark.parametrize("steps", [0, 1, 31, 32, 33, 70])
    @pytest.mark.parametrize("prefill", [33, 64, 70])
    def test_reference_matches_per_row_oracle(self, prefill, steps, group_size, quantize_kv):
        heads, head_dim, seed = 2, 64, prefill + steps
        policies = AttentionPolicies(group_size, quantize_kv, self.TABLE, self.TABLE)
        rep = run_toy_attention(prefill, steps, heads, head_dim, policies, seed=seed)
        q, k, v = synthesize_stream(np.random.default_rng(seed), prefill + steps, heads, head_dim)
        scale = 1 / math.sqrt(head_dim)
        prompt = np.concatenate([
            _attention_rows(q[a:min(a + 32, prefill)], (k, v), a + 1, scale, group_size,
                            int8=False)
            for a in range(0, prefill, 32)])
        assert rep.reference_prefill.tobytes() == prompt.tobytes()
        # the per-step oracle: each step's quantized row, then its reference row alone
        cache = KvCache(heads, head_dim, self.TABLE, self.TABLE, group_size)
        cache.prefill(k[:prefill], v[:prefill])
        store = cache if quantize_kv else (k, v)
        rows = np.zeros((2, steps, heads, head_dim))
        for s, t in enumerate(range(prefill, prefill + steps)):
            cache.append_k(k[t])
            cache.push_v(v[t])
            rows[0, s] = _attention_rows(q[t:t + 1], store, t + 1, scale, group_size)[0]
            rows[1, s] = _attention_rows(q[t:t + 1], (k, v), t + 1, scale, group_size,
                                         int8=False)[0]
        assert rep.step_outputs.tobytes() == rows[0].tobytes()
        assert rep.reference_steps.shape == rows[1].shape
        row_max = np.abs(rows[1]).max(axis=(1, 2))
        assert np.all(np.abs(rep.reference_steps - rows[1]).max(axis=(1, 2)) <= 1e-12 * row_max)

    def test_no_reference_arithmetic_in_a_decode_step(self, monkeypatch):
        # a decode step runs from one decode-time append_k to the next, as
        # the benchmark times it; no (k, v) store product may fall inside one
        events = []
        append_k, attention_rows = KvCache.append_k, attention._attention_rows

        def marked_append_k(cache, k_vector):
            events.append("step")
            return append_k(cache, k_vector)

        def recorded_attention_rows(q_rows, store, *args, **kwargs):
            events.append("cache" if isinstance(store, KvCache) else "reference")
            return attention_rows(q_rows, store, *args, **kwargs)

        monkeypatch.setattr(KvCache, "append_k", marked_append_k)
        monkeypatch.setattr(attention, "_attention_rows", recorded_attention_rows)
        rep = run_toy_attention(96, 100, 1, 64, seed=4)
        assert rep.flush_steps == [31, 95]
        steps = [i for i, event in enumerate(events) if event == "step"]
        assert len(steps) == 100 and events.count("reference") > 0
        assert "reference" not in events[steps[0]:steps[-1]]


def loop_fold(x_codes, x_scales, w_levels, w_scales, lengths):
    """The fused product folded one group at a time, in ascending order:
    each group's exact psums (float64) times ``x_scale * w_scale``, added
    into zeros."""
    batch = np.broadcast_shapes(x_codes.shape[:-3], w_levels.shape[:-3])
    out = np.zeros(batch + (x_codes.shape[-3], w_levels.shape[-3]))
    for g, length in enumerate(lengths):
        psum = (x_codes[..., g, :length].astype(np.float64)
                @ w_levels[..., g, :length].astype(np.float64).swapaxes(-1, -2))
        out += x_scales[..., g][..., None] * w_scales[..., g][..., None, :] * psum
    return out


class TestFusedProducts:
    """Attention's products read the cache's float32 operands, and a one-row
    product takes its full groups' psums from one batched matmul; both give
    the bits of a per-group fold over the int16 levels."""

    TABLE = table_from_probe_means((0, 20, 40, 80, 120), [0.05, 0.11, 0.15, 0.25])

    @staticmethod
    def reference_scores(cache, q_codes, q_scales, upto):
        k_scales, k_levels = (a.reshape((cache.seq_len, cache.heads) + a.shape[1:])[:upto]
                              .swapaxes(0, 1) for a in (cache.keys.scales, cache.keys.levels))
        return loop_fold(q_codes, q_scales, k_levels, k_scales,
                         group_lengths(cache.head_dim, cache.group_size))

    @staticmethod
    def reference_values(cache, p_codes, p_scales, upto):
        group_size, flushed = cache.group_size, cache.flushed_tokens
        v_scales, v_levels = (a.reshape((cache.heads, cache.head_dim) + a.shape[1:])
                              for a in (cache.values.scales, cache.values.levels))
        out = loop_fold(p_codes, p_scales, v_levels, v_scales,
                        group_lengths(min(upto, flushed), group_size))
        if upto > flushed:   # the window's INT8 rows, one group under the channel scales
            b, length = flushed // group_size, upto - flushed
            out += loop_fold(p_codes[:, :, b:b + 1], p_scales[:, :, b:b + 1],
                             cache.windows.staged[:length].transpose(1, 2, 0)[:, :, None],
                             cache.windows.channel_scales[:, :, None], (length,))
        return out

    def assert_products(self, cache, rng, rows, upto):
        """Both fused products (:func:`_fused` of the key and of the value
        operands) of random INT8 rows against the cache's tokens [0, upto)
        equal, bit for bit, the per-group fold over the stores' int16
        levels and the window's INT8 rows.  The codes past the rows'
        length are random too: the products must leave them out, and leave
        the caller's arrays as they were."""
        def codes(length):
            n_groups = -(-length // cache.group_size)
            return (rng.integers(-127, 128, (cache.heads, rows, n_groups, cache.group_size),
                                 dtype=np.int8),
                    rng.random((cache.heads, rows, n_groups)))

        q_codes, q_scales = codes(cache.head_dim)
        p_codes, p_scales = codes(upto)
        before = q_codes.tobytes() + p_codes.tobytes()
        for got, want in ((_fused(q_codes, q_scales, *cache.key_operands(upto), cache.head_dim),
                           self.reference_scores(cache, q_codes, q_scales, upto)),
                          (_fused(p_codes, p_scales, *cache.value_operands(upto), upto),
                           self.reference_values(cache, p_codes, p_scales, upto))):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert q_codes.tobytes() + p_codes.tobytes() == before

    @pytest.mark.parametrize("heads, head_dim, group_size, prompt, steps", [
        (2, 1, 8, 75, 12),      # head_dim 1, 9 to 10 value blocks
        (2, 100, 64, 70, 4),    # key groups of 64 and a 36-element tail
        (2, 64, 192, 400, 4),   # G = 192: float64 psums
        (3, 16, 8, 50, 3),
    ])
    def test_products_equal_a_per_group_fold(self, heads, head_dim, group_size, prompt, steps):
        rng = np.random.default_rng([heads, head_dim, group_size])
        cache = KvCache(heads, head_dim, self.TABLE, self.TABLE, group_size)
        k, v = (rng.standard_normal((prompt + steps, heads, head_dim)) for _ in range(2))
        cache.prefill(k[:prompt], v[:prompt])
        flushed = cache.flushed_tokens
        # prompt blocks of 32 rows and single rows whose causal cut falls inside
        # a flushed block (the last value group is a tail) or at its end
        for upto in (flushed - group_size // 2, flushed):
            self.assert_products(cache, rng, 32, upto)
            self.assert_products(cache, rng, 1, upto)
        for t in range(prompt, prompt + steps):   # decode steps: every block and the window
            cache.append_k(k[t])
            cache.push_v(v[t])
            self.assert_products(cache, rng, 1, t + 1)
        assert cache.flushed_tokens >= (9 * group_size if head_dim == 1 else group_size)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 3), st.integers(1, 130), st.sampled_from([1, 8, 64, 192]),
           st.integers(0, 2), st.integers(1, 192), st.integers(1, 4), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1))
    def test_products_equal_a_per_group_fold_at_every_step(self, heads, head_dim, group_size,
                                                           blocks, rest, flushes, extra, seed):
        # prompts of whole blocks and a partial one, then decode steps past
        # up to four flushes (at most 200 steps); the key buffers start at the
        # prompt's length and double, the value buffers double as blocks flush
        rest = min(rest, group_size)
        prompt = blocks * group_size + rest
        steps = group_size - rest + extra + min(flushes - 1, 200 // group_size) * group_size
        rng = np.random.default_rng(seed)
        cache = KvCache(heads, head_dim, self.TABLE, self.TABLE, group_size)
        k, v = rng.standard_normal((2, prompt + steps, heads, head_dim)) * rng.uniform(0.1, 10)
        cache.prefill(k[:prompt], v[:prompt])
        self.assert_products(cache, rng, 4, prompt)
        for t in range(prompt, prompt + steps):
            cache.append_k(k[t])
            cache.push_v(v[t])
            self.assert_products(cache, rng, 1, t + 1)
        assert cache.flushed_tokens > blocks * group_size
