"""Toy attention pipeline: policies, traces, fidelity."""

import math

import numpy as np
import pytest

from mant.attention import (
    AttentionPolicies,
    calibration_tables,
    run_toy_attention,
    synthesize_stream,
)
from mant.codec import quantize_activation_tensor


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
