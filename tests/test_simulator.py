"""Accelerator model: cycle formulas, traffic accounting, invariants."""

import pytest

from mant.simulator import (
    ArrayConfig,
    CostModel,
    compare_configs,
    simulate_attention,
    simulate_gemm,
    simulate_layer,
    simulate_workload,
)


class TestArrayConfig:
    @pytest.mark.parametrize("bits,rows", [(8, 32), (4, 64), (2, 128)])
    def test_logical_rows(self, bits, rows):
        assert ArrayConfig(weight_bits=bits).logical_rows == rows

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrayConfig(weight_bits=3)
        with pytest.raises(ValueError):
            ArrayConfig(dram_bandwidth=0)
        with pytest.raises(ValueError):
            CostModel(mac8=-1.0)

    @pytest.mark.parametrize("field", [{"peg_rows": 31.5}, {"group_size": 63.5},
                                       {"divider_latency": True}, {"rqu_count": "32"}])
    def test_integer_fields_refuse_fractions_and_booleans(self, field):
        # peg_rows 31.5 once ran, to 146796.0 total cycles
        with pytest.raises(ValueError, match=f"{next(iter(field))} must be an integer"):
            ArrayConfig(**field)

    def test_integral_float_fields_become_ints(self):
        config = ArrayConfig(peg_rows=32.0, group_size=64.0)
        assert config == ArrayConfig() and type(config.peg_rows) is int
        assert simulate_gemm(64, 256, 128, config).to_dict() == simulate_gemm(64, 256, 128).to_dict()

    @pytest.mark.parametrize("value", ["1", None, True])
    def test_cost_fields_are_numbers(self, value):
        with pytest.raises(ValueError, match="mac8 must be a number"):
            CostModel(mac8=value)


class TestSimulateGemm:
    def test_weight_container_arithmetic(self):
        # a 4096x4096 4-bit weight tensor with 64-element groups
        rep = simulate_gemm(1, 4096, 4096)
        assert rep.bytes_moved["weights"] == 8_388_608
        assert rep.bytes_moved["metadata"] == 786_432  # 262,144 groups x 3 bytes

    def test_overhead_ratio_large_gemm(self):
        rep = simulate_gemm(2048, 4096, 4096)
        ratio = rep.breakdown["nonoverlapped_quant"] / rep.total_cycles
        assert 0.001 <= ratio <= 0.01
        assert ratio == pytest.approx(0.003, abs=0.001)

    def test_short_k_exposes_divider(self):
        # K < 12 * logical_rows: the divider cannot be hidden mid-stream
        config = ArrayConfig()
        rep = simulate_gemm(64, 256, 4096, config)
        k_iters = 256 // config.logical_rows
        assert k_iters < config.divider_latency
        terminal = config.divider_latency * 64 * 2
        assert rep.breakdown["nonoverlapped_quant"] > terminal

    def test_full_overlap_leaves_terminal_term_only(self):
        config = ArrayConfig()
        rep = simulate_gemm(256, 4096, 4096, config)
        assert 4096 // config.logical_rows >= config.divider_latency
        assert rep.breakdown["nonoverlapped_quant"] == config.divider_latency * 256 * 2

    def test_breakdown_sums(self):
        for dims in [(1, 64, 32), (128, 4096, 512), (17, 100, 33)]:
            rep = simulate_gemm(*dims)
            assert sum(rep.breakdown.values()) == rep.total_cycles

    def test_determinism(self):
        a = simulate_gemm(77, 1024, 333)
        b = simulate_gemm(77, 1024, 333)
        assert a.to_dict() == b.to_dict()

    def test_monotonicity(self):
        base = simulate_gemm(64, 512, 256).total_cycles
        assert simulate_gemm(65, 512, 256).total_cycles >= base
        assert simulate_gemm(64, 513, 256).total_cycles >= base
        assert simulate_gemm(64, 512, 257).total_cycles >= base

    def test_weight_bits_cycle_ratio(self):
        # compute-bound GEMM: halving weight width doubles the logical rows
        r4 = simulate_gemm(2048, 4096, 4096, weight_bits=4)
        r8 = simulate_gemm(2048, 4096, 4096, weight_bits=8)
        assert r8.total_cycles / r4.total_cycles == pytest.approx(2.0, rel=0.05)

    def test_2bit_throughput(self):
        r2 = simulate_gemm(2048, 4096, 4096, weight_bits=2)
        r4 = simulate_gemm(2048, 4096, 4096, weight_bits=4)
        assert r4.total_cycles / r2.total_cycles == pytest.approx(2.0, rel=0.1)

    def test_group_row_compatibility(self):
        with pytest.raises(ValueError):
            simulate_gemm(8, 128, 128, group_size=48)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            simulate_gemm(0, 64, 64)

    def test_memory_bound_gemv_floor(self):
        rep = simulate_gemm(1, 4096, 4096)
        assert rep.total_cycles == rep.dram_floor_cycles  # stalls absorbed in stream
        assert sum(rep.breakdown.values()) == rep.total_cycles

    def test_energy_nonnegative_and_sums(self):
        rep = simulate_gemm(16, 128, 64)
        assert all(v >= 0 for v in rep.energy.values())
        assert rep.total_energy == sum(rep.energy.values())


class TestSimulateAttention:
    def test_kv_bitwidth_speedup(self):
        r4 = simulate_attention(4096, 32, 128, weight_bits=4)
        r8 = simulate_attention(4096, 32, 128, weight_bits=8)
        speedup = r8.total_cycles / r4.total_cycles
        assert 1.7 <= speedup <= 2.0

    def test_bandwidth_floor_halves_exactly(self):
        base = ArrayConfig(dram_bandwidth=64)
        double = ArrayConfig(dram_bandwidth=128)
        r1 = simulate_attention(4096, 32, 128, base)
        r2 = simulate_attention(4096, 32, 128, double)
        assert r1.dram_floor_cycles == 2 * r2.dram_floor_cycles or \
            abs(r1.dram_floor_cycles - 2 * r2.dram_floor_cycles) <= 1
        assert r1.total_cycles == r1.dram_floor_cycles  # bandwidth-bound

    def test_linear_share_vanishes_with_sequence(self):
        gemm_rep = simulate_gemm(1, 4096, 4096)
        shares = []
        for seq in (2048, 16384, 131072):
            attn = simulate_attention(seq, 32, 128)
            shares.append(gemm_rep.total_cycles / (gemm_rep + attn).total_cycles)
        assert shares[0] > shares[1] > shares[2]
        assert shares[2] < 0.05

    def test_temporal_mode_charges_energy_not_cycles(self):
        quiet = CostModel(rqu=0.0)
        loud = CostModel(rqu=1.0)
        r_quiet = simulate_attention(1024, 8, 64, cost=quiet)
        r_loud = simulate_attention(1024, 8, 64, cost=loud)
        assert r_quiet.total_cycles == r_loud.total_cycles
        assert r_loud.energy["core"] > r_quiet.energy["core"]

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            simulate_attention(0, 8, 64)


class TestWorkloads:
    def test_additivity(self):
        layers = [
            {"kind": "gemm", "M": 64, "K": 512, "N": 512},
            {"kind": "attention", "seq_len": 1024, "heads": 8, "head_dim": 64},
            {"kind": "gemm", "M": 64, "K": 512, "N": 2048},
        ]
        total, reports = simulate_workload(layers)
        assert total.total_cycles == sum(r.total_cycles for r in reports)
        assert total.total_energy == pytest.approx(sum(r.total_energy for r in reports))
        assert total.total_bytes == sum(r.total_bytes for r in reports)

    def test_one_layer_keeps_its_label(self):
        total, reports = simulate_workload([{"kind": "gemm", "M": 8, "K": 64, "N": 64}])
        assert (total.label, reports[0].label) == ("total", "gemm")
        assert total.total_cycles == reports[0].total_cycles

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            simulate_layer({"kind": "conv"}, ArrayConfig(), CostModel())

    def test_empty_workload(self):
        with pytest.raises(ValueError):
            simulate_workload([])

    def test_identical_configs_unit_ratios(self):
        layers = [{"kind": "gemm", "M": 32, "K": 256, "N": 256}]
        result = compare_configs(layers, [("a", ArrayConfig(), CostModel()),
                                          ("b", ArrayConfig(), CostModel())])
        for row in result["results"]:
            assert row["speedup"] == 1.0
            assert row["energy_ratio"] == 1.0

    def test_report_addition_tracks_fields(self):
        r1 = simulate_gemm(8, 64, 64)
        r2 = simulate_attention(128, 2, 64)
        combined = r1 + r2
        assert combined.breakdown["stream"] == r1.breakdown["stream"] + r2.breakdown["stream"]
        assert combined.bytes_moved["kv"] == r2.bytes_moved["kv"]
        assert sum(combined.breakdown.values()) == combined.total_cycles


def test_compare_configs_reports_seconds():
    layers = [{"kind": "gemm", "M": 32, "K": 256, "N": 256}]
    fast = ArrayConfig(frequency_hz=2.0e9)
    slow = ArrayConfig(frequency_hz=1.0e9)
    result = compare_configs(layers, [("slow", slow, CostModel()), ("fast", fast, CostModel())])
    slow_row, fast_row = result["results"]
    assert fast_row["seconds"] == pytest.approx(slow_row["seconds"] / 2)
