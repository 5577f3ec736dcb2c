"""Command-line surface: exit codes, file round trips, determinism."""

import io
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from mant import container
from mant.cli import main
from mant.codec import tensor_rows, to_groups
from mant.kvcache import KvCache
from mant.selection import table_from_probe_means


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def weight_file(tmp_path):
    path = tmp_path / "w.mntt"
    rng = np.random.default_rng(0)
    container.save_tensor(path, rng.standard_normal((128, 8)))
    return path


class TestFitGrid:
    def test_pot_fits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "fit-grid", "--kind", "pot")
        assert code == 0
        assert json.loads(out)["fitted_a"] == 0

    def test_nf_fit_window(self, capsys):
        code, out, _ = run_cli(capsys, "fit-grid", "--kind", "nf")
        assert code == 0
        assert 22 <= json.loads(out)["fitted_a"] <= 28

    def test_invalid_kind_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit-grid", "--kind", "posit"])
        assert exc.value.code == 2

    def test_bad_epsilon_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "fit-grid", "--kind", "nf", "--epsilon", "0.9")
        assert code == 2
        assert "epsilon" in err


class TestQuantize:
    def test_weight_role_histogram(self, capsys, tmp_path, weight_file):
        out_q = tmp_path / "w.mntq"
        stats_path = tmp_path / "stats.json"
        code, out, _ = run_cli(capsys, "quantize", "--tensor", str(weight_file),
                               "--role", "weight", "--seed", "1",
                               "--out", str(out_q), "--stats", str(stats_path))
        assert code == 0
        stats = json.loads(stats_path.read_text())
        allowed = {"0", "5", "10", "17", "20", "30", "40", "50", "60", "70",
                   "80", "90", "100", "110", "120", "int"}
        hist = stats["coefficient_histogram"]
        assert set(hist) <= allowed
        assert sum(hist.values()) == 16  # 2 groups x 8 columns

    def test_stats_match_offline_recomputation(self, capsys, tmp_path, weight_file):
        out_q = tmp_path / "w.mntq"
        stats_path = tmp_path / "stats.json"
        run_cli(capsys, "quantize", "--tensor", str(weight_file), "--role", "weight",
                "--seed", "1", "--out", str(out_q), "--stats", str(stats_path))
        stats = json.loads(stats_path.read_text())
        original = container.load_tensor(weight_file)
        decoded = container.load_quantized(out_q).dequantize()
        assert stats["mse"] == float(np.mean((decoded - original) ** 2))
        assert stats["max_abs_error"] == float(np.max(np.abs(decoded - original)))

    def test_idempotent_weight_round_trip(self, capsys, tmp_path, weight_file):
        q1 = tmp_path / "q1.mntq"
        t2 = tmp_path / "t2.mntt"
        q2 = tmp_path / "q2.mntq"
        assert run_cli(capsys, "quantize", "--tensor", str(weight_file), "--role",
                       "weight", "--seed", "1", "--out", str(q1))[0] == 0
        assert run_cli(capsys, "dequantize", "--input", str(q1), "--out", str(t2))[0] == 0
        assert run_cli(capsys, "quantize", "--tensor", str(t2), "--role", "weight",
                       "--seed", "1", "--out", str(q2))[0] == 0
        assert q1.read_bytes() == q2.read_bytes()

    def test_idempotent_activation_round_trip(self, capsys, tmp_path):
        t1 = tmp_path / "x.mntt"
        rng = np.random.default_rng(3)
        container.save_tensor(t1, rng.standard_normal((4, 130)))
        q1, t2, q2 = (tmp_path / n for n in ("q1.mntq", "t2.mntt", "q2.mntq"))
        run_cli(capsys, "quantize", "--tensor", str(t1), "--role", "activation",
                "--out", str(q1))
        run_cli(capsys, "dequantize", "--input", str(q1), "--out", str(t2))
        run_cli(capsys, "quantize", "--tensor", str(t2), "--role", "activation",
                "--out", str(q2))
        assert q1.read_bytes() == q2.read_bytes()

    def test_kv_role_with_table(self, capsys, tmp_path, weight_file):
        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps([
            {"a": 0, "lo": 0.0, "hi": 0.1},
            {"a": 40, "lo": 0.1, "hi": 0.15},
            {"a": 120, "lo": 0.15, "hi": 1.0},
        ]))
        out_q = tmp_path / "kv.mntq"
        code, out, _ = run_cli(capsys, "quantize", "--tensor", str(weight_file),
                               "--role", "kv", "--axis", "0", "--table", str(table_path),
                               "--out", str(out_q))
        assert code == 0
        qt = container.load_quantized(out_q)
        assert set(np.unique(qt.coefficients)) <= {0, 40, 120}

    def test_kv_role_with_calib_config(self, capsys, tmp_path, weight_file):
        cfg = tmp_path / "calib.json"
        cfg.write_text(json.dumps({"candidates": [0, 40, 120], "min_groups": 8}))
        out_q = tmp_path / "kv.mntq"
        code, _, _ = run_cli(capsys, "quantize", "--tensor", str(weight_file),
                             "--role", "kv", "--axis", "0",
                             "--calib-config", str(cfg), "--out", str(out_q))
        assert code == 0
        qt = container.load_quantized(out_q)
        assert set(np.unique(qt.coefficients)) <= {0, 40, 120}

    def test_calib_config_group_size_is_usage_error(self, capsys, tmp_path, weight_file):
        # --group-size is the only group size setting
        cfg = tmp_path / "calib.json"
        cfg.write_text(json.dumps({"group_size": 32}))
        out_q = tmp_path / "kv.mntq"
        code, _, err = run_cli(capsys, "quantize", "--tensor", str(weight_file),
                               "--role", "kv", "--axis", "0", "--group-size", "64",
                               "--calib-config", str(cfg), "--out", str(out_q))
        assert code == 2
        assert "error:" in err and "--group-size" in err
        assert "Traceback" not in err
        assert not out_q.exists()

    def test_kv_role_matches_cache_keys(self, capsys, tmp_path):
        # the kv role and the cache's key store come from one encoder
        tensor, table_path, out_q = tmp_path / "k.mntt", tmp_path / "t.json", tmp_path / "k.mntq"
        container.save_tensor(tensor, np.random.default_rng(21).standard_normal((40, 3, 48)))
        table = table_from_probe_means((0, 20, 40, 80, 120), [0.05, 0.11, 0.15, 0.25])
        table_path.write_text(table.to_json())
        code, _, _ = run_cli(capsys, "quantize", "--tensor", str(tensor), "--role", "kv",
                             "--axis", "2", "--group-size", "32", "--table", str(table_path),
                             "--out", str(out_q))
        assert code == 0
        keys = container.load_tensor(tensor)   # the float32 values the CLI read
        cache = KvCache(3, 48, table, table, 32)
        cache.prefill(keys, keys)
        buf = io.BytesIO()
        container.write_quantized(buf, cache.keys)
        assert out_q.read_bytes() == buf.getvalue()

    @pytest.mark.parametrize("role", ["weight", "activation", "kv"])
    def test_tensor_with_no_elements_is_usage_error(self, capsys, tmp_path, role):
        tensor, out_q = tmp_path / "empty.mntt", tmp_path / "q.mntq"
        container.save_tensor(tensor, np.zeros((0, 4)))
        code, _, err = run_cli(capsys, "quantize", "--tensor", str(tensor), "--role", role,
                               "--out", str(out_q))
        assert code == 2
        assert "error: tensor of shape (0, 4) has no elements" in err
        assert "Traceback" not in err
        assert not out_q.exists()

    def test_non_finite_calibration_is_usage_error(self, capsys, tmp_path, weight_file):
        calib, out_q = tmp_path / "c.mntt", tmp_path / "q.mntq"
        x_calib = np.random.default_rng(1).standard_normal((16, 128))
        x_calib[3, 70] = np.nan
        container.save_tensor(calib, x_calib)
        code, _, err = run_cli(capsys, "quantize", "--tensor", str(weight_file),
                               "--role", "weight", "--calib", str(calib), "--out", str(out_q))
        assert code == 2
        assert "error: calibration data contains non-finite values" in err
        assert "Traceback" not in err
        assert not out_q.exists()

    def test_missing_tensor_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "quantize", "--tensor", str(tmp_path / "nope.mntt"),
                               "--role", "weight", "--out", str(tmp_path / "q.mntq"))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("group_size", ["0", "100000"])
    @pytest.mark.parametrize("role", ["weight", "activation", "kv"])
    def test_group_size_out_of_range_is_usage_error(self, capsys, tmp_path, weight_file,
                                                    role, group_size):
        out_q = tmp_path / "q.mntq"
        code, _, err = run_cli(capsys, "quantize", "--tensor", str(weight_file), "--role", role,
                               "--group-size", group_size, "--out", str(out_q))
        assert code == 2
        assert f"error: group size must be an integer in 1..65535, got {group_size}" in err
        assert not out_q.exists()

    def test_empty_calibration_is_usage_error(self, capsys, tmp_path, weight_file):
        # 64x8 weight: with no calibration rows every group would get a=0
        weight = tmp_path / "w64.mntt"
        container.save_tensor(weight, np.random.default_rng(0).standard_normal((64, 8)))
        calib = tmp_path / "empty.mntt"
        container.save_tensor(calib, np.zeros((0, 64)))
        for options in (["--calib-samples", "0"], ["--calib", str(calib)]):
            out_q = tmp_path / "q.mntq"
            code, _, err = run_cli(capsys, "quantize", "--tensor", str(weight), "--role",
                                   "weight", *options, "--out", str(out_q))
            assert code == 2
            assert "error: calibration set has no rows" in err
            assert not out_q.exists()

    @pytest.mark.parametrize("candidates", ["int", ","])
    def test_candidates_naming_no_coefficient_is_usage_error(self, capsys, tmp_path,
                                                             weight_file, candidates):
        # such a list once fell back to the 15 default coefficients
        out_q = tmp_path / "q.mntq"
        code, _, err = run_cli(capsys, "quantize", "--tensor", str(weight_file), "--role",
                               "weight", "--candidates", candidates, "--out", str(out_q))
        assert code == 2
        assert "error: --candidates" in err
        assert not out_q.exists()

    def test_stats_count_scales_lost_in_half(self, capsys, caplog, tmp_path):
        # one group below the fp16 scale range, one above it
        rng = np.random.default_rng(4)
        values = rng.standard_normal((64, 3))
        values /= np.max(np.abs(values), axis=0)
        values *= [1e-7, 1e9, 1.0]
        tensor, out_q, stats_path = (tmp_path / n for n in ("t.mntt", "q.mntq", "s.json"))
        container.save_tensor(tensor, values)
        code, _, _ = run_cli(capsys, "quantize", "--tensor", str(tensor), "--role", "weight",
                             "--out", str(out_q), "--stats", str(stats_path))
        assert code == 0
        stats = json.loads(stats_path.read_text())
        assert stats["scale_underflow"] == 1
        assert stats["scale_overflow"] == 1
        assert "1 group scales flushed to 0 and 1 clamped to 65504" in caplog.text
        assert caplog.text.count("IEEE half") == 1
        scales = container.load_quantized(out_q).scales
        assert scales[0, 0] == 0.0 and scales[1, 0] == 65504.0 and 0.0 < scales[2, 0] < 65504.0

    @pytest.mark.parametrize("role", ["weight", "activation", "kv"])
    def test_stats_come_from_the_written_tensor(self, capsys, tmp_path, monkeypatch, role):
        # columns of 2 groups: one below the fp16 scale range, one above it, two within
        rng = np.random.default_rng(6)
        values = rng.standard_normal((64, 4)) * [1e-9, 1e9, 1.0, 3.0]
        tensor, out_q, stats_path = (tmp_path / n for n in ("t.mntt", "q.mntq", "s.json"))
        container.save_tensor(tensor, values)

        def no_read(fh):
            raise AssertionError("quantize read its output back")

        with monkeypatch.context() as patch:
            patch.setattr(container, "read_quantized", no_read)
            code, _, _ = run_cli(capsys, "quantize", "--tensor", str(tensor), "--role", role,
                                 "--axis", "0", "--group-size", "32", "--out", str(out_q),
                                 "--stats", str(stats_path))
        assert code == 0
        stats = json.loads(stats_path.read_text())
        original = container.load_tensor(tensor)
        loaded = container.load_quantized(out_q)
        err = loaded.dequantize() - original
        absmax = np.abs(to_groups(tensor_rows(original, 0), 32)).max(axis=-1)
        hist = {}
        if role != "activation":
            coeffs, counts = np.unique(loaded.coefficients, return_counts=True)
            hist = {"int" if a == 128 else str(a): int(c) for a, c in zip(coeffs, counts)}
        assert stats == {
            "mse": float(np.mean(err ** 2)),
            "max_abs_error": float(np.max(np.abs(err))),
            "coefficient_histogram": hist,
            "scale_underflow": int(np.count_nonzero((loaded.scales == 0) & (absmax > 0))),
            "scale_overflow": int(np.count_nonzero(loaded.scales == 65504.0)),
        }
        assert stats["scale_underflow"] == 2 and stats["scale_overflow"] == 2

    def test_stats_no_scale_loss(self, capsys, caplog, tmp_path, weight_file):
        stats_path = tmp_path / "s.json"
        run_cli(capsys, "quantize", "--tensor", str(weight_file), "--role", "activation",
                "--out", str(tmp_path / "q.mntq"), "--stats", str(stats_path))
        stats = json.loads(stats_path.read_text())
        assert stats["scale_underflow"] == 0 and stats["scale_overflow"] == 0
        assert "IEEE half" not in caplog.text


class TestInProcessRuns:
    """:func:`main` shares one parser between calls in a process."""

    RUNS = (["quantize", "--role", "weight", "--group-size", "48", "--candidates", "10,40,int",
             "--seed", "3", "--calib-samples", "8"],
            ["quantize", "--role", "weight"],
            ["quantize", "--role", "kv", "--axis", "0"])

    def test_runs_match_fresh_processes(self, capsys, tmp_path, weight_file):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(container.__file__)))
        for i, argv in enumerate(self.RUNS):
            argv = argv + ["--tensor", str(weight_file)]
            files = {}
            for where in ("in-process", "fresh"):
                out, stats = tmp_path / f"{where}{i}.mntq", tmp_path / f"{where}{i}.json"
                options = ["--out", str(out), "--stats", str(stats)]
                if where == "in-process":
                    code, printed, _ = run_cli(capsys, *argv, *options)
                    assert code == 0
                    assert printed == stats.read_text()   # the printed text is the file's
                else:
                    subprocess.run([sys.executable, "-m", "mant.cli", *argv, *options], env=env,
                                   check=True, stdout=subprocess.DEVNULL)
                files[where] = out.read_bytes(), stats.read_bytes()
            assert files["in-process"] == files["fresh"]

    def test_usage_error_prints_one_line(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(container.__file__)))
        missing = tmp_path / "nope.mntt"
        result = subprocess.run([sys.executable, "-m", "mant.cli", "quantize", "--tensor",
                                 str(missing), "--role", "weight", "--out",
                                 str(tmp_path / "q.mntq")],
                                env=env, capture_output=True, text=True)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: [Errno 2] No such file or directory: '{missing}'"]

    def test_usage_errors_after_a_run(self, capsys, tmp_path, weight_file):
        base = ["quantize", "--tensor", str(weight_file), "--out", str(tmp_path / "q.mntq")]
        code, _, _ = run_cli(capsys, *base, "--role", "weight")
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main(base + ["--role", "bogus"])
        assert exc.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        code, _, err = run_cli(capsys, *base, "--role", "weight", "--candidates", "int")
        assert code == 2
        assert "error: --candidates" in err


class TestDequantize:
    def test_tensor_with_no_elements(self, capsys, tmp_path):
        # a consistent MNTQ file of dims (0, 4), group axis 0 and G=64: a
        # header with no groups and no payload
        path, out = tmp_path / "empty.mntq", tmp_path / "empty.mntt"
        path.write_bytes(b"MNTQ" + struct.pack("<HBHB", 1, 0, 64, 2)
                         + struct.pack("<2QB", 0, 4, 0))
        code, _, err = run_cli(capsys, "dequantize", "--input", str(path), "--out", str(out))
        assert code == 0
        assert "Traceback" not in err
        assert container.load_tensor(out).shape == (0, 4)


class TestGemmCheck:
    def make_pair(self, tmp_path, k=128, coeff=25, group=64):
        rng = np.random.default_rng(5)
        from mant.codec import quantize_activation_tensor, quantize_weight_tensor
        xq = quantize_activation_tensor(rng.standard_normal((16, k)), 1, group)
        wq = quantize_weight_tensor(rng.standard_normal((k, 16)), coeff, 0, group)
        xp, wp = tmp_path / "x.mntq", tmp_path / "w.mntq"
        container.save_quantized(xp, xq)
        container.save_quantized(wp, wq)
        return xp, wp

    def test_on_grid_inputs_exact_zero(self, capsys, tmp_path):
        # dyadic scales survive the half-precision container rounding, so
        # the fused and dequantized paths agree bit for bit
        rng = np.random.default_rng(4)
        from mant.codec import code_values, quantize_activation_tensor, quantize_weight_tensor
        table = code_values(np.arange(16, dtype=np.uint8), 17)
        w = table[rng.integers(0, 16, (64, 8))] * 0.25
        w[0, :] = table[7] * 0.25  # absmax on the top grid point per column
        x_codes = rng.integers(-126, 127, (4, 64))
        x_codes[:, 0] = 127
        xq = quantize_activation_tensor(x_codes * 0.5, 1, 64)
        wq = quantize_weight_tensor(w, 17, 0, 64)
        container.save_quantized(tmp_path / "x.mntq", xq)
        container.save_quantized(tmp_path / "w.mntq", wq)
        code, out, _ = run_cli(capsys, "gemm-check", "--x", str(tmp_path / "x.mntq"),
                               "--w", str(tmp_path / "w.mntq"))
        assert code == 0
        assert json.loads(out)["max_relative_error"] == 0.0

    def test_random_problem_within_threshold(self, capsys, tmp_path):
        xp, wp = self.make_pair(tmp_path)
        code, out, _ = run_cli(capsys, "gemm-check", "--x", str(xp), "--w", str(wp))
        assert code == 0
        assert json.loads(out)["max_relative_error"] <= 1e-6

    def test_mismatched_grouping_diagnostic(self, capsys, tmp_path):
        rng = np.random.default_rng(6)
        from mant.codec import quantize_activation_tensor, quantize_weight_tensor
        container.save_quantized(tmp_path / "x.mntq",
                                 quantize_activation_tensor(rng.standard_normal((4, 128)), 1, 32))
        container.save_quantized(tmp_path / "w.mntq",
                                 quantize_weight_tensor(rng.standard_normal((128, 4)), 17, 0, 64))
        code, _, err = run_cli(capsys, "gemm-check", "--x", str(tmp_path / "x.mntq"),
                               "--w", str(tmp_path / "w.mntq"))
        assert code == 2
        assert "group size" in err

    def test_large_random_problem(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        from mant.codec import quantize_activation_tensor, quantize_weight_tensor
        xq = quantize_activation_tensor(rng.standard_normal((512, 512)), 1, 64)
        wq = quantize_weight_tensor(rng.standard_normal((512, 512)), 25, 0, 64)
        container.save_quantized(tmp_path / "x.mntq", xq)
        container.save_quantized(tmp_path / "w.mntq", wq)
        code, out, _ = run_cli(capsys, "gemm-check", "--x", str(tmp_path / "x.mntq"),
                               "--w", str(tmp_path / "w.mntq"))
        assert code == 0
        assert json.loads(out)["max_relative_error"] <= 1e-6

    def test_threshold_failure_exit_code(self, capsys, tmp_path):
        xp, wp = self.make_pair(tmp_path)
        code, out, _ = run_cli(capsys, "gemm-check", "--x", str(xp), "--w", str(wp),
                               "--threshold", "-1")
        assert code == 1
        assert json.loads(out)["ok"] is False


class TestKvRun:
    def test_prefill_only_trace(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        code, _, _ = run_cli(capsys, "kv-run", "--prefill", "64", "--steps", "0",
                             "--heads", "1", "--head-dim", "64", "--out", str(out))
        assert code == 0
        trace = json.loads(out.read_text())
        assert trace["steps"] == []
        assert trace["prefill_cosine"] > 0.99

    def test_flush_event_in_trace(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        code, _, _ = run_cli(capsys, "kv-run", "--prefill", "64", "--steps", "64",
                             "--heads", "1", "--head-dim", "64", "--out", str(out))
        assert code == 0
        trace = json.loads(out.read_text())
        assert trace["flush_steps"] == [63]
        assert trace["steps"][63]["flush"] is True

    def test_custom_tables(self, capsys, tmp_path):
        table = tmp_path / "table.json"
        table.write_text(json.dumps([
            {"a": 0, "lo": 0.0, "hi": 0.12},
            {"a": 40, "lo": 0.12, "hi": 0.16},
            {"a": 120, "lo": 0.16, "hi": 1.0},
        ]))
        out = tmp_path / "trace.json"
        code, _, _ = run_cli(capsys, "kv-run", "--prefill", "64", "--steps", "4",
                             "--heads", "1", "--head-dim", "64",
                             "--k-table", str(table), "--v-table", str(table),
                             "--out", str(out))
        assert code == 0
        trace = json.loads(out.read_text())
        assert all(s["cosine"] > 0.9 for s in trace["steps"])

    def test_min_cosine_gate(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "kv-run", "--prefill", "64", "--steps", "8",
                             "--heads", "1", "--head-dim", "64", "--min-cosine", "0.99")
        assert code == 0
        code, _, _ = run_cli(capsys, "kv-run", "--prefill", "64", "--steps", "8",
                             "--heads", "1", "--head-dim", "64", "--min-cosine", "1.1")
        assert code == 1

    @pytest.mark.parametrize("group_size", ["0", "100000"])
    def test_group_size_out_of_range_is_usage_error(self, capsys, group_size):
        code, _, err = run_cli(capsys, "kv-run", "--prefill", "8", "--steps", "1",
                               "--heads", "1", "--head-dim", "8", "--group-size", group_size)
        assert code == 2
        assert f"error: group size must be an integer in 1..65535, got {group_size}" in err
        assert "Traceback" not in err

    def test_group_longer_than_calibration_stream(self, capsys):
        code, _, err = run_cli(capsys, "kv-run", "--prefill", "8", "--steps", "1",
                               "--heads", "1", "--head-dim", "8", "--group-size", "300")
        assert code == 2
        assert "error: group size 300" in err and "256-token" in err
        assert "--k-table" in err and "--v-table" in err
        assert "Traceback" not in err

    def test_too_few_value_groups_to_calibrate(self, capsys):
        # at G=200 the 256-token stream holds one value block of 8 groups
        code, _, err = run_cli(capsys, "kv-run", "--prefill", "8", "--steps", "1",
                               "--heads", "1", "--head-dim", "8", "--group-size", "200")
        assert code == 2
        assert "error: group size 200" in err and "256-token" in err
        assert "--k-table" in err and "--v-table" in err
        assert "Traceback" not in err

    def test_group_longer_than_head_dim(self, capsys, tmp_path):
        # each key is one short group; calibration takes those short rows
        out = tmp_path / "trace.json"
        code, _, _ = run_cli(capsys, "kv-run", "--prefill", "64", "--steps", "70",
                             "--heads", "2", "--head-dim", "48", "--group-size", "64",
                             "--min-cosine", "0.99", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["flush_steps"] == [63]


class TestSim:
    def write_configs(self, tmp_path):
        workload = tmp_path / "wl.json"
        workload.write_text(json.dumps({"layers": [
            {"kind": "gemm", "M": 2048, "K": 4096, "N": 4096},
        ]}))
        c4 = tmp_path / "c4.json"
        c4.write_text(json.dumps({"name": "w4", "weight_bits": 4}))
        c8 = tmp_path / "c8.json"
        c8.write_text(json.dumps({"name": "w8", "weight_bits": 8}))
        return workload, c4, c8

    def test_identical_configs_unit_ratios(self, capsys, tmp_path):
        workload, c4, _ = self.write_configs(tmp_path)
        code, out, _ = run_cli(capsys, "sim", "--workload", str(workload),
                               "--config", str(c4), "--config", str(c4))
        assert code == 0
        result = json.loads(out)
        assert all(r["speedup"] == 1.0 for r in result["results"])

    def test_overhead_ratio_via_cli(self, capsys, tmp_path):
        workload, c4, _ = self.write_configs(tmp_path)
        code, out, _ = run_cli(capsys, "sim", "--workload", str(workload),
                               "--config", str(c4))
        total = json.loads(out)["results"][0]["total"]
        ratio = total["breakdown"]["nonoverlapped_quant"] / total["total_cycles"]
        assert 0.001 <= ratio <= 0.01

    def test_csv_output(self, capsys, tmp_path):
        workload, c4, c8 = self.write_configs(tmp_path)
        out_path = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "sim", "--workload", str(workload),
                               "--config", str(c4), "--config", str(c8),
                               "--format", "csv", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("config,label,total_cycles")
        assert len(lines) == 5  # header + (layer+total) x 2 configs

    def test_malformed_workload_line_info(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"layers": [\n  {"kind": "gemm" "M": 1}\n]}')
        _, c4, _ = self.write_configs(tmp_path)
        code, _, err = run_cli(capsys, "sim", "--workload", str(bad),
                               "--config", str(c4))
        assert code == 2
        assert ":2:" in err  # line number of the syntax error

    @pytest.mark.parametrize("config,message", [
        ({"peg_rows": 31.5, "group_size": 63.0, "divider_latency": True},
         "peg_rows must be an integer >= 1, got 31.5"),
        ({"divider_latency": True}, "divider_latency must be an integer >= 1, got True"),
        ({"cost": {"mac8": "1"}}, "mac8 must be a number, got '1'"),
    ], ids=["fractions", "boolean", "cost-string"])
    def test_bad_config_field_names_field_and_file(self, capsys, tmp_path, config, message):
        workload, _, _ = self.write_configs(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "sim", "--workload", str(workload), "--config", str(bad))
        assert code == 2
        assert err.splitlines() == [f"error: {bad}: {message}"]

    @pytest.mark.parametrize("layer,message", [
        ({"kind": "gemm", "M": 64.9, "K": 64, "N": 64},
         "layer field 'M' must be an integer >= 1, got 64.9"),
        ({"kind": "attention", "seq_len": 8, "heads": 1},
         "layer field 'head_dim' must be an integer >= 1, got None"),
        ({"kind": "conv"}, "unknown layer kind 'conv' (expected 'gemm' or 'attention')"),
        # refused as the file is parsed, no longer by simulate_gemm without the file's name
        ({"kind": "gemm", "M": 0, "K": 64, "N": 64},
         "layer field 'M' must be an integer >= 1, got 0"),
    ], ids=["fraction", "missing", "kind", "zero"])
    def test_bad_layer_names_layer_and_file(self, capsys, tmp_path, layer, message):
        _, c4, _ = self.write_configs(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"layers": [layer]}))
        code, _, err = run_cli(capsys, "sim", "--workload", str(bad), "--config", str(c4))
        assert code == 2
        assert err.splitlines() == [f"error: {bad}: layer 0: {message}"]

    @pytest.mark.parametrize("layer,config", [
        ({"kind": "gemm", "M": 1e308, "K": 64, "N": 64}, {}),
        ({"kind": "gemm", "M": 64, "K": 64, "N": 64}, {"dram_bandwidth": 1e-308}),
    ], ids=["bytes", "cycles"])
    def test_counts_past_float_range_exit_2(self, capsys, tmp_path, layer, config):
        # the DRAM floor's byte count or cycle count once ended in an OverflowError
        workload, config_path = tmp_path / "big.json", tmp_path / "c.json"
        workload.write_text(json.dumps({"layers": [layer]}))
        config_path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, "sim", "--workload", str(workload),
                               "--config", str(config_path))
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {workload}: workload too large for the model: ")

    def test_schema_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"layers": [{"M": 4}]}))
        _, c4, _ = self.write_configs(tmp_path)
        code, _, err = run_cli(capsys, "sim", "--workload", str(bad),
                               "--config", str(c4))
        assert code == 2
        assert "layer 0" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", [("kv-run", "--min-cosine"),
                                           ("gemm-check", "--threshold"),
                                           ("gen-tensor", "--std")])
def test_non_finite_real_flag_is_usage_error(capsys, tmp_path, command, flag, value):
    # NaN would pass every cosine gate, fail every threshold and fill a tensor
    out = tmp_path / "out.json"
    args = {"kv-run": ["--prefill", "8", "--steps", "1", "--heads", "1", "--head-dim", "8"],
            "gemm-check": ["--x", "", "--w", ""],
            "gen-tensor": ["--shape", "4x4"]}[command]
    if command == "gemm-check":
        args[1::2] = map(str, TestGemmCheck().make_pair(tmp_path))
    code, stdout, err = run_cli(capsys, command, *args, f"{flag}={value}", "--out", str(out))
    assert code == 2
    assert err.splitlines() == [f"error: {flag} must be finite, got {float(value)}"]
    assert stdout == "" and not out.exists()


class TestGenTensor:
    def test_deterministic(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.mntt", tmp_path / "b.mntt"
        run_cli(capsys, "gen-tensor", "--shape", "16x8", "--seed", "3", "--out", str(p1))
        run_cli(capsys, "gen-tensor", "--shape", "16x8", "--seed", "3", "--out", str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert container.load_tensor(p1).shape == (16, 8)

    def test_bad_shape(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "gen-tensor", "--shape", "0x4",
                             "--out", str(tmp_path / "t.mntt"))
        assert code == 2


# JSON inputs of the wrong shape: each must exit 2 with an error line, never
# escape main() as a TypeError or AttributeError
WORKLOAD = {"layers": [{"kind": "gemm", "M": 64, "K": 64, "N": 64}]}
MALFORMED_JSON = [
    ("sim-config-list", "sim", {"config": [1, 2]}),
    ("sim-config-buffer-bytes", "sim", {"config": {"name": "w4", "buffer_bytes": 524288}}),
    ("sim-layer-fractional-M", "sim", {"workload": {"layers": [{"kind": "gemm", "M": 64.9,
                                                                "K": 64, "N": 64}]}}),
    ("sim-layer-bool-K", "sim", {"workload": {"layers": [{"kind": "gemm", "M": 64, "K": True,
                                                          "N": 64}]}}),
    ("sim-layer-string-M", "sim", {"workload": {"layers": [{"kind": "gemm", "M": "64",
                                                            "K": 64, "N": 64}]}}),
    ("sim-layer-null-M", "sim", {"workload": {"layers": [{"kind": "gemm", "M": None,
                                                            "K": 64, "N": 64}]}}),
    ("sim-layer-list-seq-len", "sim", {"workload": [{"kind": "attention", "seq_len": [8],
                                                     "heads": 1, "head_dim": 64}]}),
    ("quantize-table-strings", "quantize", {"table": ["x"]}),
    ("quantize-table-numbers", "quantize", {"table": [1, 2]}),
    ("quantize-table-null-a", "quantize", {"table": [{"a": None, "lo": 0.0, "hi": 1.0}]}),
    ("quantize-calib-config-list", "quantize", {"calib-config": [1, 2]}),
    ("quantize-calib-config-null", "quantize", {"calib-config": {"candidates": None}}),
    ("quantize-calib-config-null-min-groups", "quantize", {"calib-config": {"min_groups": None}}),
    ("quantize-calib-config-number-candidates", "quantize", {"calib-config": {"candidates": 5}}),
    # fractions and booleans are refused, not truncated: 40.7 once meant 40, 8.9 groups 8
    # (the weight file holds 16 groups, so min_groups 4 alone would calibrate)
    ("quantize-calib-config-fractional-candidate", "quantize",
     {"calib-config": {"candidates": [0, 40.7], "min_groups": 4}}),
    ("quantize-calib-config-bool-candidate", "quantize",
     {"calib-config": {"candidates": [0, True], "min_groups": 4}}),
    ("quantize-calib-config-fractional-min-groups", "quantize",
     {"calib-config": {"min_groups": 8.9}}),
    ("quantize-calib-config-bool-min-groups", "quantize", {"calib-config": {"min_groups": True}}),
    ("kv-run-k-table-strings", "kv-run", {"k-table": ["x"]}),
    ("kv-run-k-table-numbers", "kv-run", {"k-table": [1, 2]}),
    # coefficients outside 0..128 or not integers: stored as uint8, 300 would wrap to 44
    ("quantize-table-a-300", "quantize", {"table": [{"a": 300, "lo": 0.0, "hi": 1.0}]}),
    ("quantize-table-a-256", "quantize", {"table": [{"a": 5, "lo": 0.0, "hi": 0.5},
                                                    {"a": 256, "lo": 0.5, "hi": 1.0}]}),
    ("quantize-table-fractional-a", "quantize", {"table": [{"a": 40.7, "lo": 0.0, "hi": 1.0}]}),
    ("quantize-table-bool-a", "quantize", {"table": [{"a": True, "lo": 0.0, "hi": 1.0}]}),
    ("kv-run-k-table-a-300", "kv-run", {"k-table": [{"a": 300, "lo": 0.0, "hi": 1.0}],
                                        "v-table": [{"a": 40, "lo": 0.0, "hi": 1.0}]}),
    ("kv-run-v-table-fractional-a", "kv-run", {"k-table": [{"a": 40, "lo": 0.0, "hi": 1.0}],
                                               "v-table": [{"a": 40.7, "lo": 0.0, "hi": 1.0}]}),
    # range bounds are JSON numbers: "0.5" and true once loaded as 0.5 and 1.0
    ("quantize-table-string-bounds", "quantize",
     {"table": [{"a": 0, "lo": "0", "hi": "0.5"}, {"a": 40, "lo": "0.5", "hi": True}]}),
    ("kv-run-v-table-bool-bound", "kv-run", {"k-table": [{"a": 40, "lo": 0.0, "hi": 1.0}],
                                             "v-table": [{"a": 40, "lo": 0.0, "hi": True}]}),
]


def command_argv(command, tmp_path, weight_file):
    return {
        "sim": ["sim"],
        "quantize": ["quantize", "--tensor", str(weight_file), "--role", "kv", "--axis", "0",
                     "--out", str(tmp_path / "q.mntq")],
        "kv-run": ["kv-run", "--prefill", "8", "--steps", "1", "--heads", "1",
                   "--head-dim", "8", "--group-size", "8"],
    }[command]


@pytest.mark.parametrize("command,files", [case[1:] for case in MALFORMED_JSON],
                         ids=[case[0] for case in MALFORMED_JSON])
def test_malformed_json_is_usage_error(capsys, tmp_path, weight_file, command, files):
    if command == "sim":
        files = {"workload": WORKLOAD, "config": {"name": "w4"}, **files}
    argv = command_argv(command, tmp_path, weight_file)
    for option, payload in files.items():
        path = tmp_path / f"{option}.json"
        path.write_text(json.dumps(payload))
        argv += [f"--{option}", str(path)]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


# each JSON option with a syntax error, beside valid files for the command's other options
TABLE = [{"a": 40, "lo": 0.0, "hi": 1.0}]
JSON_OPTIONS = [
    ("quantize", "table", {}),
    ("quantize", "calib-config", {}),
    ("kv-run", "k-table", {"v-table": TABLE}),
    ("kv-run", "v-table", {"k-table": TABLE}),
    ("sim", "workload", {"config": {"name": "w4"}}),
    ("sim", "config", {"workload": WORKLOAD}),
]


@pytest.mark.parametrize("command,option,files", JSON_OPTIONS,
                         ids=[case[1] for case in JSON_OPTIONS])
def test_json_syntax_error_names_its_file(capsys, tmp_path, weight_file, command, option, files):
    argv = command_argv(command, tmp_path, weight_file)
    for name, payload in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        argv += [f"--{name}", str(path)]
    broken = tmp_path / "broken.json"
    broken.write_text('[\n  {"a": 40 "lo": 0.0}\n]')
    code, _, err = run_cli(capsys, *argv, f"--{option}", str(broken))
    assert code == 2
    assert err.splitlines() == [f"error: {broken}:2:12: Expecting ',' delimiter"]


# JSON inputs that parse but fail their schema: the one error line names the file
SCHEMA_ERRORS = [
    ("kv-run", "v-table", [{"a": 40, "lo": 0.0, "hi": True}], {"k-table": TABLE},
     'variance table must be a JSON list of {"a", "lo", "hi"} objects with numbers'),
    ("sim", "config", {"weight_bits": 3}, {"workload": WORKLOAD},
     "weight_bits must be 2, 4 or 8, got 3"),
]


@pytest.mark.parametrize("command,option,payload,files,message", SCHEMA_ERRORS,
                         ids=[case[1] for case in SCHEMA_ERRORS])
def test_json_schema_error_names_its_file(capsys, tmp_path, weight_file, command, option,
                                          payload, files, message):
    argv = command_argv(command, tmp_path, weight_file)
    for name, content in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(content))
        argv += [f"--{name}", str(path)]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, *argv, f"--{option}", str(bad))
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {bad}: {message}")
