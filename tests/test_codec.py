"""Group codecs: encoding, decoding, packing, error bounds, tensors."""

import numpy as np
import pytest

from mant.codec import (
    INT4_COEFF,
    INT8_COEFF,
    GroupMeta,
    MantCode,
    code_value_table,
    dequantize_group,
    grid_max,
    magnitude_values,
    pack_codes,
    quantize_activation_group,
    quantize_activation_tensor,
    quantize_weight_group,
    quantize_weight_tensor,
    unpack_codes,
)


def brute_force_codes(values, a, scale):
    """Oracle: per element, try all 16 sign-magnitude codes.

    Ties prefer the smaller magnitude, then the positive sign; exact zeros
    canonicalize to +0.
    """
    mags = magnitude_values(a)
    out = np.zeros(len(values), dtype=np.uint8)
    for j, v in enumerate(values):
        best = None
        for mag in range(8):
            for sign_bit, sign in ((0, 1.0), (8, -1.0)):
                if a == INT4_COEFF and mag == 0 and sign_bit == 8:
                    continue  # -0 never emitted on the INT4 grid
                dist = abs(v / scale - sign * mags[mag])
                key = (dist, mag, sign_bit)
                if v == 0 and sign_bit == 8:
                    continue
                if best is None or key < best:
                    best = key
                    out[j] = sign_bit | mag
    return out


class TestMantCode:
    def test_nibble_layout(self):
        assert MantCode(1, 7).nibble == 0x7
        assert MantCode(-1, 1).nibble == 0x9
        assert MantCode.from_nibble(0x9) == MantCode(-1, 1)

    def test_value(self):
        assert MantCode(-1, 3).value(17) == -59
        assert MantCode(1, 0).value(0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MantCode(0, 3)
        with pytest.raises(ValueError):
            MantCode(1, 8)


class TestQuantizeWeightGroup:
    def test_exact_powers_of_two(self):
        codes, meta = quantize_weight_group([1.0, 0.5, 0.25, -0.125], 0)
        assert meta.scale == 1.0 / 128.0
        assert list(codes) == [MantCode(1, 7).nibble, MantCode(1, 6).nibble,
                               MantCode(1, 5).nibble, MantCode(-1, 4).nibble]

    def test_all_zero_group(self):
        codes, meta = quantize_weight_group(np.zeros(64), 40)
        assert meta.scale == 0.0
        assert np.all(codes == 0)
        assert np.all(dequantize_group(codes, meta) == 0.0)

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(11)
        for a in (0, 17, 40, 120, INT4_COEFF):
            for _ in range(20):
                values = rng.standard_normal(32) * rng.uniform(0.1, 10)
                codes, meta = quantize_weight_group(values, a)
                assert np.array_equal(codes, brute_force_codes(values, a, meta.scale))

    def test_idempotent_with_recomputed_scale(self):
        rng = np.random.default_rng(5)
        for a in (0, 25, 90):
            values = rng.standard_normal(64)
            codes1, meta1 = quantize_weight_group(values, a)
            decoded = dequantize_group(codes1, meta1)
            codes2, meta2 = quantize_weight_group(decoded, a)
            assert meta2.scale == meta1.scale
            assert np.array_equal(codes1, codes2)

    def test_top_code_always_used(self):
        rng = np.random.default_rng(6)
        for a in (0, 17, 60):
            values = rng.standard_normal(64)
            codes, _ = quantize_weight_group(values, a)
            assert 7 in (codes & 0x7)

    def test_error_bound(self):
        rng = np.random.default_rng(7)
        for a in (0, 17, 50, 127):
            values = rng.standard_normal(64) * 3.0
            codes, meta = quantize_weight_group(values, a)
            decoded = dequantize_group(codes, meta)
            largest_gap = a + 64  # widest step sits between the top two points
            assert np.max(np.abs(decoded - values)) <= meta.scale * largest_gap / 2 + 1e-12

    def test_zero_canonical_sign(self):
        codes, _ = quantize_weight_group([0.0, -0.0, 1.0], 17)
        assert codes[0] == 0 and codes[1] == 0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            quantize_weight_group([1.0, np.inf], 17)
        with pytest.raises(ValueError):
            quantize_weight_group([np.nan], 17)

    def test_bad_coefficient(self):
        with pytest.raises(ValueError):
            quantize_weight_group([1.0], 130)

    def test_int4_grid(self):
        codes, meta = quantize_weight_group([0.0, 3.5, -7.0, 1.0], INT4_COEFF)
        assert meta.scale == 1.0
        decoded = dequantize_group(codes, meta)
        assert decoded[0] == 0.0  # INT4 represents exact zero
        assert decoded[2] == -7.0


class TestQuantizeActivationGroup:
    def test_half_away_from_zero(self):
        codes, meta = quantize_activation_group([2.54, -1.27])
        assert meta.scale == pytest.approx(0.02)
        assert list(codes) == [127, -64]

    def test_all_zero(self):
        codes, meta = quantize_activation_group(np.zeros(8))
        assert meta.scale == 0.0
        assert np.all(codes == 0)

    def test_round_trip_on_grid(self):
        # 2.5 at scale 0.5 encodes to 5 and decodes back exactly
        codes, meta = quantize_activation_group([63.5, 2.5])
        assert meta.scale == 0.5
        assert codes[1] == 5
        assert dequantize_group(codes, meta)[1] == 2.5

    def test_never_minus_128(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            codes, _ = quantize_activation_group(rng.standard_normal(64) * 100)
            assert codes.min() >= -127

    def test_non_finite(self):
        with pytest.raises(ValueError):
            quantize_activation_group([np.inf])


class TestDequantizeGroup:
    def test_mant_example(self):
        meta = GroupMeta(0.1, 17, 1)
        decoded = dequantize_group(np.array([MantCode(-1, 3).nibble], dtype=np.uint8), meta)
        assert decoded[0] == pytest.approx(-5.9)

    def test_zero_scale(self):
        meta = GroupMeta(0.0, 40, 1)
        assert dequantize_group(np.array([0], dtype=np.uint8), meta)[0] == 0.0

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            dequantize_group(np.array([1], dtype=np.int8), GroupMeta(1.0, 17, 1))
        with pytest.raises(ValueError):
            dequantize_group(np.array([1], dtype=np.uint8), GroupMeta(1.0, INT8_COEFF, 1))

    def test_oversized_code(self):
        # code 16 must not read the next coefficient's table row
        with pytest.raises(ValueError, match="exceed 4 bits"):
            dequantize_group(np.array([3, 16], dtype=np.uint8), GroupMeta(1.0, 17, 2))

    def test_fixed_point_exactness(self):
        rng = np.random.default_rng(9)
        table = code_value_table(33)
        nibbles = rng.integers(0, 16, 64).astype(np.uint8)
        nibbles[0] = 7  # keep the group's absmax on the top grid point
        # dyadic scale keeps every scale * magnitude product exact
        values = table[nibbles] * 0.375
        codes, meta = quantize_weight_group(values, 33)
        assert meta.scale == 0.375
        assert np.array_equal(dequantize_group(codes, meta), values)


class TestPacking:
    def test_known_byte(self):
        payload = pack_codes([MantCode(1, 7).nibble, MantCode(-1, 1).nibble])
        assert payload == bytes([0x97])

    def test_empty(self):
        assert pack_codes([]) == b""
        assert unpack_codes(b"", 0).size == 0

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for n in (1, 2, 63, 64, 65):
            codes = rng.integers(0, 16, n).astype(np.uint8)
            assert np.array_equal(unpack_codes(pack_codes(codes), n), codes)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            unpack_codes(b"\x00\x00", 5)

    def test_oversized_code(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([16], dtype=np.uint8))


class TestQuantizedTensor:
    def test_weight_tensor_round_trip_error(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((128, 6))
        qt = quantize_weight_tensor(w, 25, group_axis=0, group_size=64)
        assert qt.n_groups == 2 and qt.n_rows == 6
        err = np.abs(qt.dequantize() - w)
        assert err.max() < 0.5

    def test_short_final_group(self):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((100, 3))
        qt = quantize_weight_tensor(w, 17, group_axis=0, group_size=64)
        assert qt.n_groups == 2
        assert int(qt.group_lengths[0, 1]) == 36
        assert qt.dequantize().shape == (100, 3)

    def test_activation_tensor(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((4, 130))
        qt = quantize_activation_tensor(x, 1, 64)
        decoded = qt.dequantize()
        assert decoded.shape == x.shape
        assert np.max(np.abs(decoded - x)) < np.max(np.abs(x)) / 100

    def test_per_group_coefficients(self):
        rng = np.random.default_rng(15)
        w = rng.standard_normal((128, 2))
        coeffs = np.array([[0, 40], [17, INT4_COEFF]], dtype=np.uint8).T.reshape(2, 2)
        qt = quantize_weight_tensor(w, coeffs.T, group_axis=0, group_size=64)
        assert qt.coefficients.shape == (2, 2)

    def test_group_max_bound(self):
        rng = np.random.default_rng(16)
        w = rng.standard_normal((64, 4))
        qt = quantize_weight_tensor(w, 30, group_axis=0, group_size=64)
        decoded = qt.dequantize()
        for r in range(4):
            assert np.max(np.abs(decoded[:, r])) <= qt.scales[r, 0] * grid_max(30) + 1e-12

    def test_3d_axis(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((3, 5, 64))
        qt = quantize_activation_tensor(x, 2, 64)
        assert qt.n_rows == 15
        assert qt.dequantize().shape == (3, 5, 64)

    def test_bad_coefficient_shape(self):
        with pytest.raises(ValueError):
            quantize_weight_tensor(np.zeros((64, 2)), np.zeros((3, 3)), 0, 64)
