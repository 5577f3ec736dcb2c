"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or in the
captured output) and enforces the stated tolerance and time budget.
"""

import json
import time

import numpy as np

from mant.attention import run_toy_attention
from mant.cli import main
from mant.codec import (
    INT4_COEFF,
    magnitude_values,
    quantize_activation_tensor,
    quantize_weight_group,
    quantize_weight_tensor,
)
from mant.gemm import dequantized_gemm, gemm
from mant.grid import build_grid, fit_coefficient, reference_curve
from mant.kvcache import ProcessWindow
from mant.selection import (
    CandidateSet,
    normalized_variance,
    reconstruction,
    select_weight_coefficient,
    table_from_probe_means,
)
from mant.simulator import simulate_attention, simulate_gemm
from oracles import fused_group_dot


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {number:02d} {status}  {name}{suffix}")
    assert ok, f"criterion {number} failed: {name} {suffix}"


def test_criterion_01_grid_pot_identity():
    build_grid(0)  # warm up
    start = time.perf_counter()
    grid = build_grid(0)
    elapsed = time.perf_counter() - start
    ok = grid.magnitudes == (1, 2, 4, 8, 16, 32, 64, 128) and grid.max_magnitude == 128
    report(1, "grid/PoT identity", ok and elapsed < 1e-3, f"{elapsed*1e6:.0f} us")


def test_criterion_02_coefficient_fitting():
    start = time.perf_counter()
    a_float = fit_coefficient(reference_curve("float"))
    a_nf = fit_coefficient(reference_curve("nf"))
    elapsed = time.perf_counter() - start
    ok = 14 <= a_float <= 20 and 22 <= a_nf <= 28 and elapsed < 1.0
    report(2, "coefficient fitting", ok, f"float={a_float} nf={a_nf} in {elapsed:.2f}s")


def _oracle_codes_batch(values: np.ndarray, a: int, scales: np.ndarray) -> np.ndarray:
    """Exhaustive 16-code nearest search, vectorized over a batch of groups.

    Candidate order (magnitude ascending, + before -) reproduces the tie
    rules: smaller magnitude wins, exact zero canonicalizes to +0.
    """
    mags = magnitude_values(a)
    signed = np.empty(16)
    nibbles = np.empty(16, dtype=np.uint8)
    for m in range(8):
        signed[2 * m] = mags[m]
        nibbles[2 * m] = m
        signed[2 * m + 1] = -mags[m]
        nibbles[2 * m + 1] = 0x8 | m
    normalized = values / scales[:, None]
    dist = np.abs(normalized[:, :, None] - signed[None, None, :])
    picks = nibbles[np.argmin(dist, axis=2)]
    if a == INT4_COEFF:
        picks[picks == 0x8] = 0  # -0 and +0 decode identically
    return picks


def test_criterion_03_encoder_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    groups = rng.standard_normal((10_000, 64)) * rng.uniform(0.05, 20, (10_000, 1))
    candidates = CandidateSet().options
    assert len(candidates) == 16
    ok = True
    for a in candidates:
        encoded = np.zeros((10_000, 64), dtype=np.uint8)
        scales = np.zeros(10_000)
        for i in range(10_000):
            qt = quantize_weight_group(groups[i], a)
            encoded[i], scales[i] = qt.codes[0, 0], qt.scales[0, 0]
        if not np.array_equal(encoded, _oracle_codes_batch(groups, a, scales)):
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(3, "encoder-oracle equivalence", ok and elapsed < 30.0,
           f"10,000 groups x {len(candidates)} candidates in {elapsed:.1f}s")


def test_criterion_04_fusion_identity():
    start = time.perf_counter()
    # exhaustive single elements: 16 codes x 255 activations x 128 coefficients
    nibbles = np.arange(16, dtype=np.int64)
    mags = nibbles & 0x7
    signs = np.where(nibbles & 0x8, -1, 1)
    x = np.arange(-127, 128, dtype=np.int64)
    a = np.arange(128, dtype=np.int64)
    psum1 = x[None, :, None] * (signs * mags)[:, None, None]
    psum2 = x[None, :, None] * (signs * (1 << mags))[:, None, None]
    direct = x[None, :, None] * (signs[:, None] * (a[None, :] * mags[:, None]
                                                   + (1 << mags)[:, None]))[:, None, :]
    exhaustive_ok = np.array_equal(psum1 * a[None, None, :] + psum2, direct)

    rng = np.random.default_rng(7)
    vector_ok = True
    for _ in range(500):
        xv = rng.integers(-127, 128, 64)
        wv = rng.integers(0, 16, 64).astype(np.uint8)
        res = fused_group_dot(xv, wv)
        for coeff in (0, 17, 63, 127):
            table = magnitude_values(coeff)
            w_signs = np.where(wv & 0x8, -1, 1)
            direct_sum = int(np.sum(xv * w_signs * table[wv & 0x7].astype(np.int64)))
            if res.psum1 * coeff + res.psum2 != direct_sum:
                vector_ok = False
    elapsed = time.perf_counter() - start
    report(4, "fusion identity", exhaustive_ok and vector_ok and elapsed < 60.0,
           f"exhaustive 522,240 combos + 500 vectors in {elapsed:.1f}s")


def test_criterion_05_fused_vs_dequantized_gemm():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for trial in range(3):
        x = rng.standard_normal((128, 128))
        w = rng.standard_normal((128, 128))
        coeffs = rng.choice(CandidateSet().coefficients, size=(128, 2)).astype(np.uint8)
        xq = quantize_activation_tensor(x, 1, 64)
        wq = quantize_weight_tensor(w, coeffs, 0, 64)
        fused = gemm(xq, wq)
        ref = dequantized_gemm(xq, wq)
        worst = max(worst, float(np.max(np.abs(fused - ref)) / np.max(np.abs(ref))))
    elapsed = time.perf_counter() - start
    report(5, "fused GEMM vs dequantized reference", worst <= 1e-6 and elapsed < 10.0,
           f"max rel {worst:.2e} in {elapsed:.1f}s")


def test_criterion_06_mse_selection_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    candidates = CandidateSet()
    ok = True
    for _ in range(1000):
        w = rng.standard_normal(64)
        x = rng.standard_normal((8, 64))
        chosen = select_weight_coefficient(w, x, candidates)
        errors = {}
        for a in candidates.options:
            delta = reconstruction(w, a) - w
            errors[a] = float(np.sum((x @ delta) ** 2))
        if errors[chosen] != min(errors.values()):
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(6, "MSE-selection optimality", ok and elapsed < 60.0,
           f"1,000 groups in {elapsed:.1f}s")


def test_criterion_07_variance_table_boundary():
    table = table_from_probe_means((30, 40, 50), [0.104, 0.118])
    lo, hi = table.range_of(40)
    ok = lo == 0.104 and hi == 0.118 and table.lookup(0.104) == 40 \
        and table.lookup(0.118) == 50 and table.lookup(0.1039) == 30
    report(7, "variance-table boundary reproduction", ok, f"a=40 range [{lo}, {hi})")


def test_criterion_08_v_window_compositional():
    start = time.perf_counter()
    table = table_from_probe_means((0, 20, 40, 80, 120), [0.05, 0.11, 0.15, 0.25])
    rng = np.random.default_rng(17)
    window = ProcessWindow(np.full(32, 0.02), 64)
    for _ in range(64):
        window.push(rng.standard_normal(32) * 0.8)
    staged = window.staged_dequantized().copy()
    sums, sums2 = window.sum_v.copy(), window.sum_v2.copy()
    maxes = window.running_max.copy()
    block = window.flush(table)

    ok = True
    for c in range(32):
        streaming = (sums2[c] / 64 - (sums[c] / 64) ** 2) / maxes[c] ** 2
        if abs(streaming - normalized_variance(staged[:, c])) > 1e-9:
            ok = False
        ref = quantize_weight_group(staged[:, c], table.lookup(streaming))
        if not np.array_equal(block.codes[c], ref.codes[0]) \
                or block.scales[c, 0] != ref.scales[0, 0] \
                or block.coefficients[c, 0] != ref.coefficients[0, 0] \
                or block.group_lengths[c, 0] != ref.group_lengths[0, 0]:
            ok = False
    elapsed = time.perf_counter() - start
    report(8, "V-window compositional check", ok and elapsed < 10.0,
           f"32 channels in {elapsed:.2f}s")


def test_criterion_09_toy_attention_fidelity():
    start = time.perf_counter()
    rep = run_toy_attention(256, 64, 4, 64, seed=0)
    elapsed = time.perf_counter() - start
    min_cos = float(rep.step_cosine.min())
    ok = min_cos >= 0.99 and rep.prefill_cosine >= 0.99 and elapsed < 60.0
    report(9, "toy attention fidelity", ok,
           f"min step cosine {min_cos:.5f}, prefill {rep.prefill_cosine:.5f}, {elapsed:.0f}s")


def test_criterion_10_simulator_overhead_ratio():
    start = time.perf_counter()
    rep = simulate_gemm(2048, 4096, 4096)
    elapsed = time.perf_counter() - start
    ratio = rep.breakdown["nonoverlapped_quant"] / rep.total_cycles
    ok = 0.001 <= ratio <= 0.01 and abs(ratio - 0.003) < 0.001 and elapsed < 1.0
    report(10, "simulator overhead ratio", ok, f"{100 * ratio:.3f}%")


def test_criterion_11_bandwidth_bound_kv_speedup():
    start = time.perf_counter()
    r4 = simulate_attention(4096, 32, 128, weight_bits=4)
    r8 = simulate_attention(4096, 32, 128, weight_bits=8)
    elapsed = time.perf_counter() - start
    speedup = r8.total_cycles / r4.total_cycles
    ok = 1.7 <= speedup <= 2.0 and elapsed < 1.0
    report(11, "bandwidth-bound KV speedup", ok, f"{speedup:.3f}x")


def test_criterion_12_cli_determinism(tmp_path, capsys):
    def run(argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        return out

    tensor = tmp_path / "t.mntt"
    quant = tmp_path / "q.mntq"
    decoded = tmp_path / "t2.mntt"
    trace = tmp_path / "trace.json"
    workload = tmp_path / "wl.json"
    config = tmp_path / "cfg.json"
    report_json = tmp_path / "report.json"
    stats = tmp_path / "stats.json"
    workload.write_text(json.dumps({"layers": [
        {"kind": "gemm", "M": 64, "K": 256, "N": 128},
        {"kind": "attention", "seq_len": 512, "heads": 4, "head_dim": 64},
    ]}))
    config.write_text(json.dumps({"name": "w4", "weight_bits": 4}))

    outputs = []
    for _ in range(2):  # identical command lines, second run overwrites

        stdout = []
        stdout.append(run(["fit-grid", "--kind", "nf"]))
        stdout.append(run(["gen-tensor", "--shape", "128x6", "--seed", "9",
                           "--out", str(tensor)]))
        stdout.append(run(["quantize", "--tensor", str(tensor), "--role", "weight",
                           "--seed", "9", "--out", str(quant), "--stats", str(stats)]))
        stdout.append(run(["dequantize", "--input", str(quant), "--out", str(decoded)]))
        stdout.append(run(["kv-run", "--prefill", "64", "--steps", "4", "--heads", "1",
                           "--head-dim", "64", "--seed", "9", "--out", str(trace)]))
        stdout.append(run(["sim", "--workload", str(workload), "--config", str(config),
                           "--out", str(report_json)]))
        outputs.append({
            "stdout": "\n".join(stdout),
            "tensor": tensor.read_bytes(),
            "quant": quant.read_bytes(),
            "decoded": decoded.read_bytes(),
            "trace": trace.read_text(),
            "report": report_json.read_text(),
            "stats": stats.read_text(),
        })
    ok = outputs[0] == outputs[1]
    report(12, "CLI determinism", ok, "6 commands, byte-identical across runs")
