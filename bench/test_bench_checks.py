"""The benchmark's output checks pass on real outputs and fail on outputs
corrupted in one place (one code, one scale, one coefficient, one value)."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
from mant.attention import AttentionPolicies, calibration_tables, run_toy_attention  # noqa: E402
from mant.cli import main  # noqa: E402
from mant.codec import quantize_activation_tensor, quantize_weight_tensor  # noqa: E402
from mant.container import load_quantized  # noqa: E402
from mant.gemm import gemm  # noqa: E402
from mant.kvcache import KvCache  # noqa: E402
from mant.selection import VarianceTable  # noqa: E402

OPTIONS = (0, 5, 10, 17, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, ref.INT4_COEFF)


@pytest.fixture(scope="module")
def quantized(tmp_path_factory):
    """One CLI weight quantization of a 96 x 12 tensor (a 32-element tail
    group) with mixed group scales and outliers."""
    tmp = tmp_path_factory.mktemp("wq")
    rng = np.random.default_rng(5)
    w = rng.standard_normal((96, 12)) * 10.0 ** rng.uniform(-1, 1, (1, 12))
    w[rng.random(w.shape) < 0.05] *= 6.0
    values = ref.write_mntt(tmp / "w.mntt", w)
    x_calib = ref.write_mntt(tmp / "c.mntt", rng.standard_normal((16, 96)) * np.exp(rng.standard_normal(96)))
    argv = ["quantize", "--tensor", str(tmp / "w.mntt"), "--role", "weight", "--calib",
            str(tmp / "c.mntt"), "--out", str(tmp / "q.mntq"), "--stats", str(tmp / "s.json")]
    assert main(argv) == 0
    data = (tmp / "q.mntq").read_bytes()
    program = np.ascontiguousarray(load_quantized(tmp / "q.mntq").dequantize())
    stats = (tmp / "s.json").read_bytes()
    return data, program, values, x_calib, stats


def checks(data, program, values, x_calib, stats):
    sample = [(r, g) for r in range(values.shape[1]) for g in range(2)]
    return ref.weight_checks(data, program, values, x_calib, stats, OPTIONS, sample)


def payload_offset(data: bytes) -> int:
    return len(data) - ref.Mntq(data).codes.shape[0] * (32 + 16)


def test_weight_checks_pass(quantized):
    assert all(checks(*quantized).values())


def test_flipped_code_fails_nearest_code(quantized):
    data, program, values, x_calib, stats = quantized
    corrupt = bytearray(data)
    corrupt[payload_offset(data) + 3] ^= 0x01
    result = checks(bytes(corrupt), program, values, x_calib, stats)
    assert not result["nearest_code"]


def test_altered_scale_fails_scale_check(quantized):
    data, program, values, x_calib, stats = quantized
    corrupt = bytearray(data)
    first_record = payload_offset(data) - 5 * 2 * values.shape[1]
    corrupt[first_record] ^= 0x01      # low bit of the first group's fp16 scale
    result = checks(bytes(corrupt), program, values, x_calib, stats)
    assert not result["scale"]


def test_program_decode_mismatch_fails_reader(quantized):
    data, program, values, x_calib, stats = quantized
    altered = program.copy()
    altered[40, 3] = np.nextafter(altered[40, 3], np.inf)
    assert not checks(data, altered, values, x_calib, stats)["reader"]


def test_other_coefficient_fails_mse_choice(quantized):
    """Re-encode one group, correctly, with a coefficient the search did not
    pick: the codes stay nearest-grid but the choice is no longer optimal."""
    data, program, values, x_calib, stats = quantized
    parsed = ref.Mntq(data)
    r, g = 5, 0
    group = values[:64, r]
    errs = ref.calibration_errors(group, x_calib[:, :64], OPTIONS)
    worst = OPTIONS[int(np.argmax(errs))]
    codes, scale = ref.encode_groups(group, worst)
    corrupt = bytearray(data)
    record = payload_offset(data) - 5 * parsed.coeffs.size + 5 * (r * 2 + g)
    corrupt[record:record + 3] = np.float16(scale).view(np.uint16).tobytes() + bytes([worst])
    start = payload_offset(data) + r * (32 + 16)
    corrupt[start:start + 32] = (codes[0::2] | (codes[1::2] << 4)).tobytes()
    result = checks(bytes(corrupt), program, values, x_calib, stats)
    assert result["nearest_code"] and result["scale"]
    assert not result["mse_choice"]


def test_stats_mismatch_fails_stats_check(quantized):
    data, program, values, x_calib, stats = quantized
    payload = json.loads(stats)
    payload["mse"] *= 1.0 + 1e-6
    assert not checks(data, program, values, x_calib, json.dumps(payload).encode())["stats_mse"]


def test_gemm_check():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((24, 128))
    coeffs = rng.choice(OPTIONS, size=(64, 2)).astype(np.uint8)
    x_q = quantize_activation_tensor(x, 1)
    w_q = quantize_weight_tensor(rng.standard_normal((128, 64)), coeffs, 0)
    out = gemm(x_q, w_q)
    assert ref.gemm_ok(x_q, ref.decode_weight(w_q), out)
    bad = out.copy()
    bad[3, 7] *= 1.0 + 1e-6
    assert not ref.gemm_ok(x_q, ref.decode_weight(w_q), bad)
    w_q.scales[10, 1] *= 1.001
    assert not ref.gemm_ok(x_q, ref.decode_weight(w_q), out)


def test_cache_check():
    table = VarianceTable(((0, 0.0, 0.12), (40, 0.12, 0.16), (120, 0.16, 1.0)))
    rng = np.random.default_rng(3)
    cache = KvCache(2, 64, table, table)
    cache.prefill(rng.standard_normal((100, 2, 64)), rng.standard_normal((100, 2, 64)))
    assert ref.cache_ok(cache, 100)
    cache.push_v(rng.standard_normal((2, 64)))
    assert not ref.cache_ok(cache, 100)


@pytest.fixture(scope="module")
def toy():
    prefill, decode, heads, head_dim, seed = 64, 72, 2, 64, 4
    k_table, v_table = calibration_tables(np.random.default_rng(1), heads, head_dim, 64, length=64)
    report = run_toy_attention(prefill, decode, heads, head_dim,
                               AttentionPolicies(k_table=k_table, v_table=v_table), seed=seed)
    from mant.attention import synthesize_stream
    q, k, v = synthesize_stream(np.random.default_rng(seed), prefill + decode, heads, head_dim)
    return report, ref.causal_attention(q, k, v, prefill), prefill, decode


def test_decode_checks(toy):
    report, exact, prefill, decode = toy
    assert np.all(ref.decode_checks(report, exact, prefill, decode, 64))


def test_decode_reference_mismatch_fails(toy):
    report, exact, prefill, decode = toy
    altered = exact.copy()
    altered[3, 1, 5] += 1e-6 * np.max(np.abs(exact[3]))
    ok = ref.decode_checks(report, altered, prefill, decode, 64)
    assert not ok[3] and ok.sum() == decode - 1


def test_decode_low_cosine_fails(toy):
    report, exact, prefill, decode = toy
    saved = report.step_outputs[5].copy()
    report.step_outputs[5] = np.random.default_rng(0).standard_normal(saved.shape)
    try:
        ok = ref.decode_checks(report, exact, prefill, decode, 64)
    finally:
        report.step_outputs[5] = saved
    assert not ok[5] and ok.sum() == decode - 1


def test_decode_missing_flush_fails(toy):
    report, exact, prefill, decode = toy
    saved = list(report.flush_steps)
    assert saved == [s for s in range(decode) if (prefill + s + 1) % 64 == 0]
    report.flush_steps = saved[1:]
    try:
        ok = ref.decode_checks(report, exact, prefill, decode, 64)
    finally:
        report.flush_steps = saved
    assert not ok[saved[0]] and ok.sum() == decode - 1
