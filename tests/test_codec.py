"""Group codecs: encoding, decoding, packing, error bounds, tensors."""

import dataclasses
import io

import numpy as np
import pytest

from mant.attention import AttentionPolicies, run_toy_attention
from mant.codec import (
    INT4_COEFF,
    INT8_COEFF,
    KIND_INT8,
    KIND_MANT4,
    SIGN_BIT,
    QuantizedTensor,
    code_values,
    encode_levels,
    group_lengths,
    magnitude_values,
    pack_codes,
    quantize_activation_group,
    quantize_activation_tensor,
    quantize_weight_group,
    quantize_weight_tensor,
    to_groups,
    unpack_codes,
)
from mant.container import write_quantized
from mant.kvcache import KvCache, ProcessWindow
from mant.selection import (VarianceTable, calibration_groups, quantize_by_variance,
                            table_from_probe_means)
from oracles import encode_nibbles

# every entry point that takes a group size, called with group size g
GROUP_SIZE_CALLS = {
    "weight": lambda g: quantize_weight_tensor(np.ones((40, 2)), 40, 0, g),
    "activation": lambda g: quantize_activation_tensor(np.ones((40, 2)), 0, g),
    "group_lengths": lambda g: group_lengths(40, g),
    "calibration_groups": lambda g: calibration_groups(np.ones((2, 40)), g),
    "to_groups": lambda g: to_groups(np.ones((2, 40)), g),
    "attention": lambda g: run_toy_attention(8, 1, 1, 8, AttentionPolicies(group_size=g)),
    "kvcache": lambda g: KvCache(1, 8, *[table_from_probe_means((0, 40), [0.1])] * 2, g),
    "window": lambda g: ProcessWindow(np.ones(3), g),
}


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


class TestQuantizeWeightGroup:
    def test_exact_powers_of_two(self):
        qt = quantize_weight_group([1.0, 0.5, 0.25, -0.125], 0)
        assert qt.scales[0, 0] == 1.0 / 128.0
        assert list(qt.codes[0, 0]) == [0x7, 0x6, 0x5, SIGN_BIT | 0x4]

    def test_one_group_tensor(self):
        qt = quantize_weight_group(np.arange(5.0), 17)
        assert (qt.shape, qt.element_kind, qt.group_axis, qt.group_size) == ((5,), KIND_MANT4, 0, 5)
        assert qt.codes.shape == (1, 1, 5) and qt.coefficients.tolist() == [[17]]
        qt = quantize_activation_group(np.arange(3.0))
        assert (qt.shape, qt.element_kind, qt.codes.dtype) == ((3,), KIND_INT8, np.int8)
        assert qt.coefficients.tolist() == [[INT8_COEFF]]

    def test_empty_group_raises(self):
        with pytest.raises(ValueError, match="group is empty"):
            quantize_weight_group([], 17)
        with pytest.raises(ValueError, match="group is empty"):
            quantize_activation_group(np.zeros(0))

    def test_group_must_be_one_dimensional(self):
        # a (2, 4) array would otherwise encode as one tensor of malformed shape
        with pytest.raises(ValueError, match="1-D"):
            quantize_weight_group(np.ones((2, 4)), 17)
        with pytest.raises(ValueError, match="1-D"):
            quantize_activation_group(np.ones((2, 4)))

    def test_all_zero_group(self):
        qt = quantize_weight_group(np.zeros(64), 40)
        assert qt.scales[0, 0] == 0.0
        assert np.all(qt.codes == 0)
        assert np.all(qt.dequantize() == 0.0)

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(11)
        for a in (0, 17, 40, 120, INT4_COEFF):
            for _ in range(20):
                values = rng.standard_normal(32) * rng.uniform(0.1, 10)
                qt = quantize_weight_group(values, a)
                assert np.array_equal(qt.codes[0, 0], brute_force_codes(values, a, qt.scales[0, 0]))

    def test_idempotent_with_recomputed_scale(self):
        rng = np.random.default_rng(5)
        for a in (0, 25, 90):
            values = rng.standard_normal(64)
            qt1 = quantize_weight_group(values, a)
            qt2 = quantize_weight_group(qt1.dequantize(), a)
            assert qt2.scales[0, 0] == qt1.scales[0, 0]
            assert np.array_equal(qt1.codes, qt2.codes)

    def test_top_code_always_used(self):
        rng = np.random.default_rng(6)
        for a in (0, 17, 60):
            values = rng.standard_normal(64)
            assert 7 in (quantize_weight_group(values, a).codes & 0x7)

    def test_error_bound(self):
        rng = np.random.default_rng(7)
        for a in (0, 17, 50, 127):
            values = rng.standard_normal(64) * 3.0
            qt = quantize_weight_group(values, a)
            decoded = qt.dequantize()
            largest_gap = a + 64  # widest step sits between the top two points
            assert np.max(np.abs(decoded - values)) <= qt.scales[0, 0] * largest_gap / 2 + 1e-12

    def test_zero_canonical_sign(self):
        codes = quantize_weight_group([0.0, -0.0, 1.0], 17).codes[0, 0]
        assert codes[0] == 0 and codes[1] == 0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            quantize_weight_group([1.0, np.inf], 17)
        with pytest.raises(ValueError):
            quantize_weight_group([np.nan], 17)

    def test_bad_coefficient(self):
        with pytest.raises(ValueError):
            quantize_weight_group([1.0], 130)

    @pytest.mark.parametrize("a", [40.7, True, np.nan, np.float64(3.2), np.array(True), np.inf,
                                   np.True_, "40"])
    def test_non_integer_coefficient_refused(self, a):
        # a cast once truncated these: 40.7 encoded and stored as 40, True as 1
        with pytest.raises(ValueError, match="integer"):
            quantize_weight_group(np.arange(8.0), a)

    def test_non_integer_coefficients_refused_by_every_codec(self):
        g = np.arange(8.0)
        for call in (lambda: encode_levels(g, True),
                     lambda: encode_levels(g[None], np.array([np.nan])),
                     lambda: quantize_weight_tensor(np.ones((64, 2)), [[40.7], [3.2]]),
                     # a list mixing booleans into integers converts to an int array
                     lambda: encode_levels(np.ones((2, 8)), [True, 3]),
                     lambda: quantize_weight_tensor(np.ones((64, 2)), [[3, np.True_]]),
                     lambda: magnitude_values(40.7)):
            with pytest.raises(ValueError, match="integer"):
                call()

    @pytest.mark.parametrize("dtype", [np.uint8, np.intp])
    @pytest.mark.parametrize("a", [129, 200, 255])
    def test_out_of_range_coefficient_arrays_refused(self, a, dtype):
        # the KV cache encodes a variance table's coefficients unchecked; what
        # a caller passes is still checked, and a table checks its own
        coeffs = np.array([[5, a]], dtype=dtype)
        message = f"^coefficient must be an integer in 0..128, got {a}$"
        with pytest.raises(ValueError, match=message):
            encode_levels(np.ones((1, 2, 8)), coeffs)
        with pytest.raises(ValueError, match=message):
            quantize_weight_tensor(np.ones((16, 1)), coeffs, 0, 8)
        with pytest.raises(ValueError, match=f"^table coefficient must be an integer in 0..128, "
                                             rf"got .*\b{a}\b"):
            quantize_by_variance(np.ones((16, 1)), VarianceTable(
                tuple(zip(coeffs[0], (0.0, 0.5), (0.5, 1.0)))), 0, 8)

    def test_integral_float_coefficient_accepted(self):
        g = np.linspace(-1.0, 1.0, 8)
        a_float, a_int = quantize_weight_group(g, 40.0), quantize_weight_group(g, 40)
        assert np.array_equal(a_float.codes, a_int.codes)
        assert np.array_equal(a_float.coefficients, a_int.coefficients)

    def test_int4_grid(self):
        qt = quantize_weight_group([0.0, 3.5, -7.0, 1.0], INT4_COEFF)
        assert qt.scales[0, 0] == 1.0
        decoded = qt.dequantize()
        assert decoded[0] == 0.0  # INT4 represents exact zero
        assert decoded[2] == -7.0


class TestQuantizeActivationGroup:
    def test_half_away_from_zero(self):
        qt = quantize_activation_group([2.54, -1.27])
        assert qt.scales[0, 0] == pytest.approx(0.02)
        assert list(qt.codes[0, 0]) == [127, -64]

    def test_all_zero(self):
        qt = quantize_activation_group(np.zeros(8))
        assert qt.scales[0, 0] == 0.0
        assert np.all(qt.codes == 0)

    def test_round_trip_on_grid(self):
        # 2.5 at scale 0.5 encodes to 5 and decodes back exactly
        qt = quantize_activation_group([63.5, 2.5])
        assert qt.scales[0, 0] == 0.5
        assert qt.codes[0, 0, 1] == 5
        assert qt.dequantize()[1] == 2.5

    def test_never_minus_128(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            qt = quantize_activation_group(rng.standard_normal(64) * 100)
            assert qt.codes.min() >= -127

    def test_non_finite(self):
        with pytest.raises(ValueError):
            quantize_activation_group([np.inf])


def decoded_group(nibbles, a, scale):
    """The values of one 4-bit group of ``nibbles`` under coefficient ``a``
    and ``scale``, decoded by ``QuantizedTensor.dequantize``."""
    qt = QuantizedTensor(nibbles.shape, KIND_MANT4, 0, nibbles.size,
                         code_values(nibbles, a)[None, None], np.full((1, 1), scale),
                         np.full((1, 1), a, dtype=np.uint8))
    return qt.dequantize()


class TestDequantizeGroup:
    def test_pre_scale_values(self):
        # sign * (a*m + 2**m): -(17*3 + 8) and +(0 + 1)
        assert code_values(np.array([SIGN_BIT | 3, 0], dtype=np.uint8), 17).tolist() == [-59, 1]

    def test_mant_example(self):
        decoded = decoded_group(np.array([SIGN_BIT | 3], dtype=np.uint8), 17, 0.1)
        assert decoded[0] == pytest.approx(-5.9)

    def test_zero_scale(self):
        assert decoded_group(np.array([0], dtype=np.uint8), 40, 0.0)[0] == 0.0

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            code_values(np.array([1], dtype=np.int8), 17)
        with pytest.raises(ValueError):
            code_values(np.array([1], dtype=np.uint8), INT8_COEFF)

    def test_oversized_code(self):
        # code 16 must not read the next coefficient's table row
        with pytest.raises(ValueError, match="exceed 4 bits"):
            code_values(np.array([3, 16], dtype=np.uint8), 17)

    def test_fixed_point_exactness(self):
        rng = np.random.default_rng(9)
        table = code_values(np.arange(16, dtype=np.uint8), 33)
        nibbles = rng.integers(0, 16, 64).astype(np.uint8)
        nibbles[0] = 7  # keep the group's absmax on the top grid point
        # dyadic scale keeps every scale * magnitude product exact
        values = table[nibbles] * 0.375
        qt = quantize_weight_group(values, 33)
        assert qt.scales[0, 0] == 0.375
        assert np.array_equal(qt.dequantize(), values)


class TestCodesOfLevels:
    """A 4-bit tensor keeps levels; its ``codes`` map them back to nibbles."""

    def test_every_emitted_nibble_under_every_coefficient(self):
        # the INT4 grid never emits 8 (-0); its level 0 is nibble 0
        nibbles = np.tile(np.arange(16, dtype=np.uint8), (INT4_COEFF + 1, 1, 1))
        nibbles[INT4_COEFF, 0, SIGN_BIT] = 0
        coeffs = np.arange(INT4_COEFF + 1, dtype=np.uint8)[:, None]
        levels = code_values(nibbles, coeffs)
        # each group holds its grid's top level, so the encoder emits these nibbles
        assert np.array_equal(encode_nibbles(levels, coeffs)[0], nibbles)
        qt = QuantizedTensor((INT4_COEFF + 1, 16), KIND_MANT4, 1, 16, levels,
                             np.ones(coeffs.shape), coeffs)
        codes = qt.codes
        assert codes.dtype == np.uint8 and np.array_equal(codes, nibbles)

    def test_int8_codes_are_the_levels(self):
        qt = quantize_activation_tensor(np.arange(-3.0, 4.0), 0, 4)
        assert qt.codes is qt.levels and qt.levels.dtype == np.int8

    def test_codes_are_read_only(self):
        qt = quantize_weight_group(np.arange(4.0), 17)
        with pytest.raises(AttributeError):
            qt.codes = qt.codes


class TestPacking:
    def test_known_byte(self):
        payload = pack_codes([0x7, SIGN_BIT | 0x1])
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, -0.0])
    def test_dequantize_refuses_a_scale_not_finite_or_negative(self, bad):
        # one NaN scale once decoded to 64 NaN values without an error
        qt = quantize_weight_tensor(np.random.default_rng(14).standard_normal((128, 4)), 25)
        scales = qt.scales.copy()
        scales[2, 1] = bad
        with pytest.raises(ValueError, match=f"scale {bad} is not finite and non-negative"):
            dataclasses.replace(qt, scales=scales).dequantize()

    @pytest.mark.parametrize("kind,bad", [(KIND_INT8, 0), (KIND_INT8, INT4_COEFF),
                                          (KIND_INT8, 254), (KIND_MANT4, INT4_COEFF + 1),
                                          (KIND_MANT4, INT8_COEFF)])
    def test_dequantize_refuses_a_coefficient_the_codes_do_not_fit(self, kind, bad):
        # an INT8 tensor with coefficient 0 once dequantized, while
        # write_quantized refused it
        values = np.random.default_rng(15).standard_normal((128, 4))
        qt = (quantize_activation_tensor(values, 0) if kind == KIND_INT8
              else quantize_weight_tensor(values, 25))
        coeffs = qt.coefficients.copy()
        coeffs[3, 1] = bad
        refused = dataclasses.replace(qt, coefficients=coeffs)
        with pytest.raises(ValueError, match=f"coefficient {bad} does not fit {kind} codes"):
            refused.dequantize()
        with pytest.raises(ValueError, match=f"coefficient {bad} does not fit {kind} codes"):
            write_quantized(io.BytesIO(), refused)

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
            assert np.max(np.abs(decoded[:, r])) <= qt.scales[r, 0] * magnitude_values(30)[-1] + 1e-12

    def test_3d_axis(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((3, 5, 64))
        qt = quantize_activation_tensor(x, 2, 64)
        assert qt.n_rows == 15
        assert qt.dequantize().shape == (3, 5, 64)

    def test_bad_coefficient_shape(self):
        with pytest.raises(ValueError):
            quantize_weight_tensor(np.zeros((64, 2)), np.zeros((3, 3)), 0, 64)

    @pytest.mark.parametrize("call", GROUP_SIZE_CALLS.values(), ids=GROUP_SIZE_CALLS.keys())
    @pytest.mark.parametrize("group_size", [True, 0, 65536, 2.5, np.nan, "2"])
    def test_bad_group_size_refused(self, call, group_size):
        # True once passed as a group size of 1 and failed later inside a reshape
        with pytest.raises(ValueError, match="group size must be an integer in 1..65535"):
            call(group_size)

    @pytest.mark.parametrize("call", GROUP_SIZE_CALLS.values(), ids=GROUP_SIZE_CALLS.keys())
    def test_integral_float_group_size_accepted(self, call):
        # 2.0 is the integer 2, and what is built from it holds the int
        as_float, as_int = call(2.0), call(2)
        assert type(getattr(as_float, "group_size", 2)) is int
        arrays = {QuantizedTensor: lambda r: [r.levels, r.scales], KvCache: lambda r: [],
                  ProcessWindow: lambda r: [r.staged], list: list,
                  np.ndarray: lambda r: [r]}.get(type(as_int), lambda r: [r.step_outputs])
        pairs = zip(arrays(as_float), arrays(as_int), strict=True)
        assert all(np.array_equal(a, b) for a, b in pairs)


class TestEncodeGroupsCoefficientShapes:
    GROUPS = np.random.default_rng(23).standard_normal((4, 5, 16))   # lead shape (4, 5)

    @pytest.mark.parametrize("shape", [(), (5,), (1, 5), (4, 1), (1, 1), (4, 5)])
    def test_broadcasting_shapes_match_per_group(self, shape):
        coeffs = np.random.default_rng(24).choice([0, 17, 60, INT4_COEFF], shape)
        full = np.broadcast_to(coeffs, self.GROUPS.shape[:-1])
        for got, want in zip(encode_levels(self.GROUPS, coeffs), encode_levels(self.GROUPS, full)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("shape", [(4,), (3,), (2, 5), (4, 5, 1), (1, 4, 5), (2, 4, 5)])
    def test_other_shapes_rejected(self, shape):
        # (4,) does not broadcast to (4, 5); (1, 4, 5) would broadcast to a larger lead shape
        with pytest.raises(ValueError, match="does not broadcast"):
            encode_levels(self.GROUPS, np.zeros(shape, dtype=np.uint8))
