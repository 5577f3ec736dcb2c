"""Process window and KV-cache engine contracts."""

import io

import numpy as np
import pytest

from mant import container
from mant.attention import run_toy_attention
from mant.codec import (QuantizedTensor, group_lengths, quantize_activation_group,
                        quantize_weight_group, row_payload_bytes)
from mant.kvcache import KvCache, ProcessWindow
from mant.selection import normalized_variance, quantize_by_variance, table_from_probe_means

TABLE = table_from_probe_means((0, 20, 40, 80, 120), [0.05, 0.11, 0.15, 0.25])


def make_window(channels=4, group_size=8, scale=0.05):
    return ProcessWindow(np.full(channels, scale), group_size)


def file_bytes(qt: QuantizedTensor) -> bytes:
    buf = io.BytesIO()
    container.write_quantized(buf, qt)
    return buf.getvalue()


class TestProcessWindow:
    def test_first_push_statistics(self):
        w = make_window()
        v = np.array([0.1, -0.2, 0.0, 1.0])
        w.push(v)
        assert w.fill_count == 1
        decoded = w.staged_dequantized()[0]
        assert np.allclose(w.sum_v, decoded)
        assert np.allclose(w.sum_v2, decoded ** 2)
        assert np.allclose(w.running_max, np.abs(decoded))

    def test_window_contract(self):
        w = make_window()
        for _ in range(w.group_size):
            w.push(np.ones(4) * 0.1)
        assert w.is_full
        with pytest.raises(ValueError):
            w.push(np.ones(4))
        w.flush(TABLE)
        assert w.fill_count == 0
        w.push(np.ones(4) * 0.1)  # usable again after flush

    def test_flush_requires_full(self):
        w = make_window()
        w.push(np.zeros(4))
        with pytest.raises(ValueError):
            w.flush(TABLE)

    def test_staged_matches_activation_codec(self):
        # staged INT8 codes equal the activation encoder run at the same scale
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((8, 4))
        # in-range channel scales so the sentinel below pins the codec scale
        scales = np.max(np.abs(rows), axis=0) / 127.0 * np.array([1.0, 1.5, 2.0, 4.0])
        w = ProcessWindow(scales, 8)
        for row in rows:
            w.push(row)
        assert w.clamp_count == 0
        for c, s in enumerate(scales):
            # pin the codec's group scale to s via a sentinel absmax element
            sentinel = np.concatenate([[127.0 * s], rows[:, c]])
            qt = quantize_activation_group(sentinel)
            assert qt.scales[0, 0] == pytest.approx(s, rel=1e-15)
            assert np.array_equal(w.staged[:8, c], qt.codes[0, 0, 1:])

    def test_flush_composes_with_weight_codec(self):
        rng = np.random.default_rng(1)
        w = ProcessWindow(np.full(6, 0.02), 16)
        for _ in range(16):
            w.push(rng.standard_normal(6) * 0.5)
        staged = w.staged_dequantized().copy()
        sums, sums2, maxes = w.sum_v.copy(), w.sum_v2.copy(), w.running_max.copy()
        block = w.flush(TABLE)
        for c in range(6):
            var = (sums2[c] / 16 - (sums[c] / 16) ** 2) / maxes[c] ** 2
            expected_a = TABLE.lookup(var)
            ref = quantize_weight_group(staged[:, c], expected_a)
            assert block.coefficients[c, 0] == expected_a
            assert block.scales[c, 0] == ref.scales[0, 0]
            assert np.array_equal(block.codes[c], ref.codes[0])

    def test_streaming_variance_matches_two_pass(self):
        rng = np.random.default_rng(2)
        w = ProcessWindow(np.full(3, 0.7), 32)
        for _ in range(32):
            w.push(rng.standard_normal(3) * 40)
        staged = w.staged_dequantized()
        for c in range(3):
            streaming = (w.sum_v2[c] / 32 - (w.sum_v[c] / 32) ** 2) / w.running_max[c] ** 2
            assert abs(streaming - normalized_variance(staged[:, c])) < 1e-9

    def test_all_zero_window(self):
        w = make_window(channels=2, group_size=4)
        for _ in range(4):
            w.push(np.zeros(2))
        block = w.flush(TABLE)
        assert np.all(block.codes == 0)
        assert np.all(block.scales == 0.0)
        assert np.all(block.coefficients == 0)  # smallest candidate

    def test_clamp_counting(self):
        w = ProcessWindow(np.array([0.01, 0.0]), 4)
        w.push(np.array([100.0, 0.0]))   # channel 0 clamps, channel 1 clean
        assert w.clamp_count == 1
        assert w.staged[0, 0] == 127
        w.push(np.array([0.5, 1.0]))     # zero-scale channel loses a value
        assert w.clamp_count == 2
        assert w.staged[1, 1] == 0

    def test_shape_check(self):
        w = make_window(channels=4)
        with pytest.raises(ValueError):
            w.push(np.zeros(5))

    def test_non_finite_rejected(self):
        w = make_window()
        w.push(np.array([0.1, 0.2, 0.3, 0.4]))
        for bad in (np.array([np.nan, np.inf, -np.inf, 1.0]),
                    np.array([[0.1, 0.2, 0.3, 0.4], [0.0, np.nan, 0.0, 0.0]])):
            with pytest.raises(ValueError, match="non-finite"):
                w.push(bad)
        # nothing of a rejected push is staged or counted
        assert w.fill_count == 1 and w.clamp_count == 0
        assert not w.staged[1:].any()
        assert np.array_equal(w.sum_v, w.staged_dequantized()[0])

    def test_multi_head_window_matches_per_head_windows(self):
        rng = np.random.default_rng(11)
        scales = rng.uniform(0.0, 0.03, (3, 6))
        scales[1, 2] = 0.0
        rows = rng.standard_normal((8, 3, 6))
        w = ProcessWindow(scales, 8)
        heads = [ProcessWindow(scales[h], 8) for h in range(3)]
        w.push(rows[:5])
        for row in rows[5:]:
            w.push(row)
        for h, head in enumerate(heads):
            head.push(rows[:, h])
            view = w[h]
            for name in ("staged", "channel_scales", "running_max", "sum_v", "sum_v2"):
                assert np.array_equal(getattr(view, name), getattr(head, name)), name
            assert view.fill_count == head.fill_count
        assert w.clamp_count == sum(head.clamp_count for head in heads)
        codes, scales_out, coeffs = w.flush(TABLE).split_rows(3, 6)
        for h, head in enumerate(heads):
            head_block = head.flush(TABLE)
            assert np.array_equal(codes[h], head_block.codes)
            assert np.array_equal(scales_out[h], head_block.scales)
            assert np.array_equal(coeffs[h], head_block.coefficients)
        assert w.fill_count == 0 and not w[0].staged.any()


    def test_one_row_pushes_equal_one_multi_row_push(self):
        # a one-row push adds its row to the running sums with one add, an
        # n-row push accumulates them row by row: the bits must agree
        rng = np.random.default_rng(19)
        scales = rng.uniform(0.005, 0.03, (3, 6))
        scales[1, 2] = scales[0, 5] = 0.0   # silent channels
        rows = rng.standard_normal((8, 3, 6)) * 10.0 ** rng.uniform(-2, 1, (8, 1, 1))
        rows[2, 0, 0] = 50.0                 # clamps: 50 / scale >= 127.5
        rows[5, 1, 2] = 0.4                  # lost on a silent channel
        one, many = ProcessWindow(scales, 8), ProcessWindow(scales, 8)
        for row in rows:
            one.push(row)
        many.push(rows)
        for name in ("staged", "running_max", "sum_v", "sum_v2"):
            assert getattr(one, name).tobytes() == getattr(many, name).tobytes(), name
        assert one.clamp_count == many.clamp_count >= 2
        assert type(one.clamp_count) is int and type(many.clamp_count) is int
        # staging divides by divisors made once from the channel scales
        scales[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            one.channel_scales[0, 0] = 1.0
        assert one.channel_scales[0, 0] != 1.0

    def test_head_view_is_read_only(self):
        # a view that could flush would zero head 0 in the shared arrays but
        # reset only its own fill count, so the window's next flush would
        # encode head 0 as zero-scale groups without an error
        rng = np.random.default_rng(16)
        w = ProcessWindow(rng.uniform(0.01, 0.03, (3, 6)), 8)
        w.push(rng.standard_normal((7, 3, 6)))
        names = ("staged", "running_max", "sum_v", "sum_v2")
        with pytest.raises(ValueError, match="read-only"):
            w[0].push(rng.standard_normal(6))
        w.push(rng.standard_normal((3, 6)))
        before = {name: getattr(w, name).copy() for name in names}
        view = w[0]
        with pytest.raises(ValueError, match="read-only"):
            view.flush(TABLE)
        assert w.is_full and view.is_full and w.clamp_count == view.clamp_count
        for name in names:
            assert np.array_equal(getattr(w, name), before[name]), name
            # reads keep working
            assert np.array_equal(getattr(view, name), before[name][:, 0] if name == "staged"
                                  else before[name][0]), name
        block = w.flush(TABLE)
        assert (block.split_rows(3, 6)[1][0] > 0).all() and w.fill_count == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-3, -0.0])
    def test_channel_scale_not_finite_or_negative_refused(self, bad):
        # a NaN or infinite scale staged its channel as zeros without a clamp,
        # then failed the flush; a negative one staged codes of the wrong sign
        scales = np.full((2, 3), 0.01)
        scales[1, 2] = bad
        with pytest.raises(ValueError, match=f"channel scale {bad} is not finite and non-negative"):
            ProcessWindow(scales, 4)
        ProcessWindow(np.abs(np.nan_to_num(scales, posinf=0.0, neginf=0.0)), 4)

    @pytest.mark.parametrize("shape", [(1,), (6,), (3, 6)])
    def test_statistics_are_the_staged_rows_sums_in_arrival_order(self, shape):
        # the statistics equal a float64 accumulation from +0.0 of the staged
        # rows, one row at a time, after every push and after a flush
        rng = np.random.default_rng(23)
        scales = rng.uniform(0.001, 0.05, shape) * 10.0 ** rng.uniform(-3, 3, shape)
        if len(scales.ravel()) > 1:
            scales.ravel()[::4] = 0.0   # silent channels
        w = ProcessWindow(scales, 64)
        names = ("running_max", "sum_v", "sum_v2")
        for _ in range(2):
            for name in names:
                got = getattr(w, name)
                assert got.shape == shape and got.tobytes() == np.zeros(shape).tobytes(), name
            for t in range(64):
                w.push(rng.standard_normal(shape) * (scales + 1e-3) * rng.uniform(0, 130))
                expected = []
                for column in w.staged_dequantized().reshape(t + 1, -1).T.tolist():
                    absmax = total = total_sq = 0.0
                    for x in column:
                        absmax, total, total_sq = max(absmax, abs(x)), total + x, total_sq + x * x
                    expected.append((absmax, total, total_sq))
                for name, want in zip(names, np.array(expected).T):
                    got = getattr(w, name)
                    assert got.shape == shape and got.tobytes() == want.tobytes(), (name, t)
            w.flush(TABLE)

    def test_push_v_block_equals_window_flush(self):
        rng = np.random.default_rng(24)
        cache = KvCache(3, 6, TABLE, TABLE, 16)
        prompt = rng.standard_normal((21, 3, 6))
        prompt[:, 1, 2] = 0.0   # a silent channel
        cache.prefill(prompt, prompt)
        window = ProcessWindow(cache.windows.channel_scales, 16)
        window.push(prompt[16:])
        for v in rng.standard_normal((11, 3, 6)) * 1.5:
            window.push(v)
            flushed = cache.push_v(v)
        assert flushed and window.is_full
        block = window.flush(TABLE)
        values = cache.values
        for got, want in ((values.levels[:, -1], block.levels[:, 0]),
                          (values.scales[:, -1], block.scales[:, 0]),
                          (values.coefficients[:, -1], block.coefficients[:, 0])):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def make_cache(heads=2, head_dim=128, group_size=64):
    return KvCache(heads, head_dim, TABLE, TABLE, group_size)


class TestKvCache:
    def test_k_step_group_count(self):
        cache = make_cache(head_dim=128)
        assert cache.keys.n_groups == 2
        cache.append_k(np.random.default_rng(3).standard_normal((2, 128)))
        assert cache.seq_len == 1

    def test_k_step_deterministic(self):
        rng = np.random.default_rng(4)
        k = rng.standard_normal((2, 128))
        c1, c2 = make_cache(), make_cache()
        c1.append_k(k)
        c2.append_k(k)
        assert np.array_equal(c1.k_arrays()[0], c2.k_arrays()[0])
        c1.append_k(k)
        a1 = c1.k_arrays()
        assert np.array_equal(a1[0][0], a1[0][1])
        assert np.array_equal(a1[1][0], a1[1][1])

    def test_k_reconstruction_bound(self):
        rng = np.random.default_rng(5)
        cache = make_cache()
        k = rng.standard_normal((2, 128))
        cache.append_k(k)
        decoded = cache.keys.dequantize()[0]
        _, scales, coeffs = cache.k_arrays()
        for h in range(2):
            for g, length in enumerate(group_lengths(cache.head_dim, cache.group_size)):
                start, stop = g * cache.group_size, g * cache.group_size + length
                gap = int(coeffs[0, h, g]) + 64
                bound = scales[0, h, g] * gap / 2 + 1e-12
                assert np.max(np.abs(decoded[h, start:stop] - k[h, start:stop])) <= bound

    def test_conservation_through_decode(self):
        rng = np.random.default_rng(6)
        cache = make_cache(heads=1, head_dim=64, group_size=16)
        cache.prefill(rng.standard_normal((40, 1, 64)), rng.standard_normal((40, 1, 64)))
        assert cache.flushed_tokens == 32 and cache.window_fill == 8
        assert cache.conservation_holds()
        flushes = []
        for t in range(30):
            cache.append_k(rng.standard_normal((1, 64)))
            if cache.push_v(rng.standard_normal((1, 64))):
                flushes.append(t)
            assert cache.conservation_holds()
        assert cache.total_v_tokens == 70
        assert flushes == [7, 23]  # fill was 8/16 after the prefill remainder

    def test_prefill_requires_empty_cache(self):
        rng = np.random.default_rng(7)
        cache = make_cache(heads=1, head_dim=64)
        data = rng.standard_normal((64, 1, 64))
        cache.prefill(data, data)
        with pytest.raises(ValueError):
            cache.prefill(data, data)

    @pytest.mark.parametrize("k_shape,v_shape", [
        ((3, 2, 7), (3, 2, 7)), ((3, 3, 8), (3, 3, 8)), ((0, 2, 8), (0, 2, 8)),
        ((3, 2, 8), (4, 2, 8)), ((2, 8), (2, 8)), ((3, 2, 8, 1), (3, 2, 8, 1))])
    def test_prefill_refuses_another_geometry_or_an_empty_prompt(self, k_shape, v_shape):
        # a (3, 2, 7) prompt once wrote keys labelled (3, 2, 8) before numpy
        # failed, and the half-written cache then refused every prompt
        rng = np.random.default_rng(21)
        cache = KvCache(2, 8, TABLE, TABLE, 4)
        with pytest.raises(ValueError, match="prefill expects"):
            cache.prefill(rng.standard_normal(k_shape), rng.standard_normal(v_shape))
        assert cache.seq_len == 0 and cache.windows is None and cache.total_v_tokens == 0
        # nothing was written: the key buffers hold no token slot yet
        assert cache.flushed_tokens == 0 and all(a.size == 0 for a in cache._k)
        cache.prefill(rng.standard_normal((3, 2, 8)), rng.standard_normal((3, 2, 8)))
        assert cache.seq_len == 3 and cache.window_fill == 3 and cache.conservation_holds()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refused_append_k_leaves_the_cache_as_it_was(self, bad):
        rng = np.random.default_rng(22)
        cache, clean = make_cache(heads=2, head_dim=48, group_size=32), make_cache(2, 48, 32)
        prompt = rng.standard_normal((5, 2, 48))
        for c in (cache, clean):
            c.prefill(prompt, prompt)
        for t, k in enumerate(rng.standard_normal((12, 2, 48))):
            if t in (0, 3):   # at t = 0 the buffers are full and an append grows them
                keys, seq = cache.keys, cache.seq_len
                filled = [buffer[:, :, :seq].copy() for buffer in cache._k]
                refused = k.copy()
                refused[1, 40] = bad   # in head 1's tail group
                with pytest.raises(ValueError, match="non-finite"):
                    cache.append_k(refused)
                assert cache.seq_len == keys.shape[0] == seq
                for got, want in zip((cache.keys.levels, cache.keys.scales,
                                      cache.keys.coefficients),
                                     (keys.levels, keys.scales, keys.coefficients)):
                    assert got.tobytes() == want.tobytes()
                for buffer, want in zip(cache._k, filled):
                    assert buffer[:, :, :seq].tobytes() == want.tobytes()
            cache.append_k(k)
            clean.append_k(k)
        # each later key landed in the row the refused one would have taken
        for got, want in zip((cache.keys.levels, cache.keys.scales, cache.keys.coefficients),
                             (clean.keys.levels, clean.keys.scales, clean.keys.coefficients)):
            assert got.tobytes() == want.tobytes()
        assert cache.keys.shape == clean.keys.shape == (17, 2, 48)

    @pytest.mark.parametrize("shift", [-600, 600])
    def test_extreme_magnitudes_take_the_coefficients_of_ordinary_ones(self, shift):
        # keys (one by one and as a prompt, with tail groups), prompt value blocks
        # and window flushes of a stream scaled by 2**shift, whose plain sums of
        # squares underflow or overflow, encode as the stream itself does
        rng = np.random.default_rng(41)
        heads, head_dim, group_size = 2, 40, 16
        k, v = rng.standard_normal((2, 4 * group_size, heads, head_dim))
        prompt = group_size + 5
        caches = []
        for factor in (1.0, 2.0 ** shift):
            cache = make_cache(heads, head_dim, group_size)
            cache.prefill(k[:prompt] * factor, v[:prompt] * factor)
            for t in range(prompt, len(k)):
                cache.append_k(k[t] * factor)
                cache.push_v(v[t] * factor)
            caches.append(cache)
        ordinary, extreme = caches
        assert extreme.flushed_tokens == 4 * group_size   # a prompt block and three flushes
        for store in ("keys", "values"):
            want, got = getattr(ordinary, store), getattr(extreme, store)
            assert len(np.unique(want.coefficients)) > 1
            assert got.coefficients.tobytes() == want.coefficients.tobytes()
            assert got.levels.tobytes() == want.levels.tobytes()
            assert got.scales.tobytes() == (want.scales * 2.0 ** shift).tobytes()
        for axis in (0, 2):
            want = quantize_by_variance(k, TABLE, axis, group_size)
            got = quantize_by_variance(k * 2.0 ** shift, TABLE, axis, group_size)
            assert got.coefficients.tobytes() == want.coefficients.tobytes()

    def test_operands_are_the_levels_as_float32(self):
        # the cache holds one per-element array per store, the float32 levels
        # attention reads: keys group-major, flushed values block-major, and
        # after them the open block, the window's staged INT8 rows under its
        # channel scales
        rng = np.random.default_rng(23)
        cache = make_cache(heads=2, head_dim=48, group_size=16)

        def check():
            keys, values = cache.keys, cache.values
            k_levels, k_scales = cache.key_operands(cache.seq_len)
            assert k_levels.dtype == np.float32 and k_levels.shape == (2, cache.seq_len, 3, 16)
            assert np.array_equal(k_levels.swapaxes(0, 1).reshape(keys.levels.shape),
                                  keys.levels)
            assert k_scales.swapaxes(0, 1).reshape(keys.scales.shape).tobytes() == \
                keys.scales.tobytes()
            blocks = cache.flushed_tokens // 16
            v_levels, v_scales = cache.value_operands(cache.flushed_tokens + 16)
            assert v_levels.dtype == np.float32 and v_levels.shape == (2, 48, blocks + 1, 16)
            assert np.array_equal(v_levels[:, :, :blocks].reshape(values.levels.shape),
                                  values.levels)
            assert v_scales[:, :, :blocks].reshape(values.scales.shape).tobytes() == \
                np.ascontiguousarray(values.scales).tobytes()
            if cache.windows is not None:
                window = cache.windows
                assert np.array_equal(v_levels[:, :, blocks, :window.fill_count],
                                      window.staged[:window.fill_count].transpose(1, 2, 0))
                assert not v_levels[:, :, blocks, window.fill_count:].any()
                assert v_scales[:, :, blocks].tobytes() == window.channel_scales.tobytes()

        check()
        prompt = rng.standard_normal((20, 2, 48))   # one value block and 4 staged rows
        cache.prefill(prompt, prompt)
        check()
        buffers = {name: [getattr(cache, name)[0]] for name in ("_k", "_v")}
        refused_full = 0
        for k in rng.standard_normal((60, 2, 48)):
            seq = cache.seq_len
            snapshot = cache._k[0][:, :, :seq].copy()
            refused_full += cache._k[0].shape[2] == seq
            refused = k.copy()
            refused[1, 40] = np.nan
            with pytest.raises(ValueError, match="non-finite"):
                cache.append_k(refused)
            assert cache.seq_len == seq
            assert cache._k[0][:, :, :seq].tobytes() == snapshot.tobytes()
            cache.append_k(k)
            check()
            cache.push_v(k)
            check()
            for name, seen in buffers.items():
                if getattr(cache, name)[0] is not seen[-1]:
                    seen.append(getattr(cache, name)[0])
        # the keys' buffers grew twice and the values' twice (three flushes)
        assert cache.flushed_tokens == 80 and refused_full >= 2
        assert len(buffers["_k"]) >= 3 and len(buffers["_v"]) >= 3

    def test_window_refuses_writes_that_bypass_the_cache(self):
        # the open block of the value operand mirrors the window's rows, so a
        # direct push or flush would leave attention reading other rows
        rng = np.random.default_rng(17)
        cache = make_cache(heads=2, head_dim=4, group_size=8)
        cache.prefill(*rng.standard_normal((2, 6, 2, 4)))
        cache.push_v(rng.standard_normal((2, 4)))
        staged, operands = cache.windows.staged.copy(), cache.value_operands(8)[0].copy()
        with pytest.raises(ValueError, match="push_v"):
            cache.windows.push(rng.standard_normal((2, 4)))
        with pytest.raises(ValueError, match="push_v"):
            cache.windows.flush(TABLE)
        with pytest.raises(ValueError, match="read-only"):
            cache.windows[1].push(rng.standard_normal(4))
        assert cache.window_fill == 7 and np.array_equal(cache.windows.staged, staged)
        assert np.array_equal(cache.value_operands(8)[0], operands)
        assert cache.push_v(rng.standard_normal((2, 4))) and cache.flushed_tokens == 8

    def test_push_before_prefill(self):
        cache = make_cache(heads=1, head_dim=64)
        with pytest.raises(ValueError):
            cache.push_v(np.zeros((1, 64)))

    def test_v_roundtrip_error_bounded(self):
        rng = np.random.default_rng(8)
        cache = make_cache(heads=1, head_dim=64, group_size=32)
        v = rng.standard_normal((64, 1, 64))
        cache.prefill(v.copy(), v.copy())
        decoded = np.concatenate([cache.values.dequantize(),
                                  cache.windows.staged_dequantized()])
        # flushed blocks are 4-bit: coarse but bounded; staged rows INT8
        assert np.max(np.abs(decoded - v)) < np.max(np.abs(v)) * 0.5
        assert decoded.shape == v.shape

    def test_push_v_rejects_non_finite(self):
        rng = np.random.default_rng(12)
        cache = make_cache(heads=2, head_dim=64, group_size=16)
        cache.prefill(rng.standard_normal((20, 2, 64)), rng.standard_normal((20, 2, 64)))
        v = rng.standard_normal((2, 64))
        v[1, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            cache.push_v(v)
        assert cache.total_v_tokens == 20 and cache.window_fill == 4
        assert cache.conservation_holds()

    @pytest.mark.parametrize("role", ["k", "v"])
    def test_prefill_rejects_non_finite(self, role):
        rng = np.random.default_rng(13)
        k, v = rng.standard_normal((2, 3, 2, 64))
        bad = k if role == "k" else v
        bad[:] = np.nan
        bad[1, 0, 5] = np.inf
        cache = make_cache(heads=2, head_dim=64)
        with pytest.raises(ValueError, match="non-finite"):
            cache.prefill(k, v)
        # the cache is left empty and takes a clean prompt afterwards
        assert cache.seq_len == 0 and cache.windows is None and cache.total_v_tokens == 0
        k, v = rng.standard_normal((2, 3, 2, 64))
        cache.prefill(k, v)
        assert cache.seq_len == 3 and np.isfinite(cache.windows.channel_scales).all()

    def test_empty_cache_dequantizes(self):
        cache = make_cache(heads=2, head_dim=48, group_size=32)
        assert cache.keys.dequantize().shape == (0, 2, 48)
        assert cache.values.dequantize().shape == (0, 2, 48)
        assert cache.v_blocks(1) == [] and cache.conservation_holds()

    def test_geometry_checks(self):
        cache = make_cache(heads=2, head_dim=64)
        with pytest.raises(ValueError):
            cache.append_k(np.zeros((3, 64)))
        with pytest.raises(ValueError):
            KvCache(0, 64, TABLE, TABLE)

    @pytest.mark.parametrize("name,call", [
        ("heads", lambda v: KvCache(v, 64, TABLE, TABLE)),
        ("head_dim", lambda v: KvCache(2, v, TABLE, TABLE)),
        ("group size", lambda v: KvCache(2, 64, TABLE, TABLE, v)),
        ("prefill_len", lambda v: run_toy_attention(v, 1, 1, 8)),
        ("decode_steps", lambda v: run_toy_attention(8, v, 1, 8)),
        ("heads", lambda v: run_toy_attention(8, 1, v, 8)),
        ("head_dim", lambda v: run_toy_attention(8, 1, 1, v)),
    ])
    @pytest.mark.parametrize("value", [True, 2.5, -1, np.nan, "2"])
    def test_geometry_must_be_integers(self, name, call, value):
        # KvCache(True, ...) once failed inside numpy with a TypeError, and
        # run_toy_attention(8, True, 1, 8) ran one decode step
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            call(value)

    def test_integral_float_geometry_accepted(self):
        cache = KvCache(2.0, 64.0, TABLE, TABLE, 32.0)
        assert [type(x) for x in (cache.heads, cache.head_dim, cache.group_size)] == [int] * 3
        assert run_toy_attention(8.0, 1.0, 1.0, 8.0).step_outputs.shape == (1, 1, 8)


class TestStores:
    """Keys and flushed values are QuantizedTensors the container writes as they are."""

    @pytest.mark.parametrize("heads,head_dim,group_size", [(3, 100, 64), (2, 48, 32)])
    def test_empty_stores_are_an_encode_of_no_tokens(self, heads, head_dim, group_size):
        # built directly, they match encoding (0, heads, head_dim) under the tables
        cache = KvCache(heads, head_dim, TABLE, TABLE, group_size)
        for name, axis in (("keys", 2), ("values", 0)):
            want = quantize_by_variance(np.zeros((0, heads, head_dim)), TABLE, axis, group_size)
            got = getattr(cache, name)
            assert (got.shape, got.element_kind, got.group_axis, got.group_size) == \
                (want.shape, want.element_kind, want.group_axis, want.group_size)
            arrays = [(getattr(got, f), getattr(want, f)) for f in ("levels", "scales", "coefficients")]
            for a, b in arrays:
                assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())

    def test_values_round_trip_through_container(self):
        rng = np.random.default_rng(14)
        cache = make_cache(heads=2, head_dim=48, group_size=32)
        cache.prefill(rng.standard_normal((100, 2, 48)), rng.standard_normal((100, 2, 48)))
        for _ in range(60):   # two more blocks flush from the window
            cache.append_k(rng.standard_normal((2, 48)))
            cache.push_v(rng.standard_normal((2, 48)))
        values = cache.values
        assert isinstance(values, QuantizedTensor) and isinstance(cache.keys, QuantizedTensor)
        assert values.shape == (160, 2, 48) and values.group_axis == 0
        # block-major in memory: each block's codes are one contiguous operand
        assert values.codes.swapaxes(0, 1).flags.c_contiguous
        buf = io.BytesIO()
        container.write_quantized(buf, values)
        buf.seek(0)
        loaded = container.read_quantized(buf)
        assert loaded.shape == values.shape and loaded.group_axis == 0
        assert np.array_equal(loaded.codes, values.codes)
        assert np.array_equal(loaded.coefficients, values.coefficients)

    def test_keys_grow_in_place(self):
        rng = np.random.default_rng(17)
        cache = make_cache(heads=2, head_dim=48, group_size=32)
        cache.prefill(rng.standard_normal((5, 2, 48)), rng.standard_normal((5, 2, 48)))
        held = []
        reallocated = []
        for t in range(30):
            old = cache.keys
            held.append((old, [a.copy() for a in (old.codes, old.scales, old.coefficients,
                                                   old.levels)], file_bytes(old)))
            buffer = cache._k[0]
            cache.append_k(rng.standard_normal((2, 48)))
            if cache._k[0] is not buffer:
                reallocated.append(old.shape[0])
        # the 5-token prompt fills the first buffer; capacity then doubles
        assert reallocated == [5, 10, 20]
        assert cache.keys.shape == (35, 2, 48)
        for old, arrays, data in held:   # held tensors keep their bytes
            for got, want in zip((old.codes, old.scales, old.coefficients, old.levels), arrays):
                assert np.array_equal(got, want)
            assert file_bytes(old) == data

    def test_values_grow_in_place(self):
        rng = np.random.default_rng(18)
        cache = make_cache(heads=2, head_dim=16, group_size=4)
        cache.prefill(rng.standard_normal((4, 2, 16)), rng.standard_normal((4, 2, 16)))
        held, reallocated = [], []
        for _ in range(40):
            old, buffer = cache.values, cache._v[0]
            if cache.push_v(rng.standard_normal((2, 16))):
                held.append((old, file_bytes(old)))
                if cache._v[0] is not buffer:
                    reallocated.append(old.shape[0] // 4)
            cache.append_k(rng.standard_normal((2, 16)))
        # the buffers keep a slot past the flushed blocks, the open block: the
        # prompt's block and that slot fill the first buffer, then it doubles
        assert reallocated == [1, 3, 7] and cache.values.shape == (44, 2, 16)
        assert cache.values.levels.swapaxes(0, 1).flags.c_contiguous
        for old, data in held:
            assert file_bytes(old) == data

    def test_resident_bytes_per_token(self):
        # one per-element array per store, float32 levels: at 4 heads x 64
        # the filled slots of every array the cache holds come to 2,124 B a
        # token after a 192 + 384 stream, against 3,144 B with int16 levels
        # beside float32 copies
        rng = np.random.default_rng(25)
        cache = KvCache(4, 64, TABLE, TABLE, 64)
        k, v = rng.standard_normal((2, 576, 4, 64))
        cache.prefill(k[:192], v[:192])
        for t in range(192, 576):
            cache.append_k(k[t])
            cache.push_v(v[t])
        blocks, fill = cache.flushed_tokens // 64, cache.window_fill
        held = [a[:, :, :cache.seq_len] for a in cache._k] + [a[:blocks] for a in cache._v]
        held += [cache._v[0][blocks, :, :fill]] + [a[blocks] for a in cache._v[1:]]
        assert sum(a.nbytes for a in held) / cache.seq_len <= 2200
        # no int16 level buffer is held, by the cache or its window
        arrays = [a for owner in (cache, cache.windows) for value in vars(owner).values()
                  for a in (value if isinstance(value, list) else [value])
                  if isinstance(a, np.ndarray)]
        assert len(arrays) >= 6 and not any(a.dtype == np.int16 for a in arrays)

    @pytest.mark.parametrize("store,size", [("keys", 8739), ("values", 8099)])
    def test_file_size_is_header_payload_and_records(self, store, size):
        rng = np.random.default_rng(15)
        cache = make_cache(heads=2, head_dim=48, group_size=32)
        cache.prefill(rng.standard_normal((128, 2, 48)), rng.standard_normal((128, 2, 48)))
        qt = getattr(cache, store)
        buf = io.BytesIO()
        container.write_quantized(buf, qt)
        header = 4 + 6 + 8 * 3 + 1
        payload = qt.n_rows * row_payload_bytes(qt.axis_length, 32, 4)
        records = container._RECORD.itemsize * qt.n_rows * qt.n_groups
        assert len(buf.getvalue()) == header + payload + records == size
