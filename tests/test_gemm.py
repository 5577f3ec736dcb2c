"""Fused integer GEMM: partial-sum identities, oracles, grouping contracts."""

import numpy as np
import pytest

from mant.codec import (
    INT4_COEFF,
    INT8_COEFF,
    KIND_MANT4,
    SIGN_BIT,
    QuantizedTensor,
    code_values,
    quantize_activation_tensor,
    quantize_weight_tensor,
)
from mant.gemm import (
    GroupDotResult,
    combine,
    dequantized_gemm,
    fused_dot,
    fused_group_dot,
    gemm,
    grouped_dot,
)


def multiply_oracle(x, w_nibbles):
    """psum2 via explicit multiplication (checks the shift path bit for bit)."""
    p1 = p2 = 0
    for xi, nib in zip(x, w_nibbles):
        nib = int(nib)
        sign = -1 if nib & 0x8 else 1
        mag = nib & 0x7
        p1 += int(xi) * sign * mag
        p2 += int(xi) * sign * (2 ** mag)
    return p1, p2


class TestFusedGroupDot:
    def test_worked_example(self):
        res = fused_group_dot([3, -2], [0x1, SIGN_BIT | 3])
        assert (res.psum1, res.psum2) == (9, 22)

    def test_all_zero_activations(self):
        res = fused_group_dot(np.zeros(64, dtype=np.int64),
                              np.full(64, SIGN_BIT | 5, dtype=np.uint8))
        assert (res.psum1, res.psum2) == (0, 0)

    def test_shift_equals_multiply(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.integers(-127, 128, 64)
            w = rng.integers(0, 16, 64).astype(np.uint8)
            res = fused_group_dot(x, w)
            assert (res.psum1, res.psum2) == multiply_oracle(x, w)

    def test_identity_against_grid_values(self):
        rng = np.random.default_rng(1)
        for a in (0, 17, 63, 127):
            table = code_values(np.arange(16, dtype=np.uint8), a)
            for _ in range(20):
                x = rng.integers(-127, 128, 64)
                w = rng.integers(0, 16, 64).astype(np.uint8)
                res = fused_group_dot(x, w)
                direct = int(np.sum(x * table[w].astype(np.int64)))
                assert res.psum1 * a + res.psum2 == direct

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fused_group_dot([1, 2], [0x7])

    def test_accumulator_bounds(self):
        x = np.full(64, 127)
        w = np.full(64, 0x7, dtype=np.uint8)  # +magnitude 7
        res = fused_group_dot(x, w)
        assert abs(res.psum1) == 64 * 127 * 7 < 2 ** 16
        assert abs(res.psum2) == 64 * 127 * 128 < 2 ** 21


class TestCombine:
    def test_worked_example(self):
        assert combine(GroupDotResult(9, 22), 17, 1.0, 1.0) == 175.0

    def test_pot_specialization(self):
        assert combine(GroupDotResult(9, 22), 0, 2.0, 0.5) == 22.0

    def test_zero_scale(self):
        assert combine(GroupDotResult(123, 456), 55, 0.0, 3.0) == 0.0

    def test_int4_sentinel_drops_shift_lane(self):
        # INT4 codes decode to sign*m: 3*1 + (-2)*(-3) from the worked example
        assert combine(GroupDotResult(9, 22), INT4_COEFF, 2.0, 0.5) == 9.0

    def test_scale_linearity(self):
        res = GroupDotResult(-37, 911)
        base = combine(res, 40, 0.125, 0.75)
        assert combine(res, 40, 0.125 * 8, 0.75) == base * 8


def random_operands(rng, m, k, n, group_size=64, a=25):
    x = rng.standard_normal((m, k))
    w = rng.standard_normal((k, n))
    xq = quantize_activation_tensor(x, 1, group_size)
    wq = quantize_weight_tensor(w, a, 0, group_size)
    return xq, wq


class TestGemm:
    def test_on_grid_exact(self):
        # both operands exactly on their grids: product is exact
        table = code_values(np.arange(16, dtype=np.uint8), 17)
        rng = np.random.default_rng(2)
        nibbles = rng.integers(0, 16, (64, 1)).astype(np.uint8)
        nibbles[0, 0] = 7   # pin the weight absmax to the top grid point
        w = table[nibbles] * 0.25
        x_codes = rng.integers(-126, 127, (1, 64))
        x_codes[0, 0] = 127  # pin the activation absmax to full scale
        x = x_codes * 0.5
        xq = quantize_activation_tensor(x, 1, 64)
        wq = quantize_weight_tensor(w, 17, 0, 64)
        assert xq.scales[0, 0] == 0.5 and wq.scales[0, 0] == 0.25
        expected = float(np.sum(x_codes[0] * table[nibbles[:, 0]]) * 0.25 * 0.5)
        assert gemm(xq, wq)[0, 0] == expected

    def test_vs_dequantized_reference(self):
        rng = np.random.default_rng(3)
        xq, wq = random_operands(rng, 128, 128, 128)
        fused = gemm(xq, wq)
        ref = dequantized_gemm(xq, wq)
        rel = np.max(np.abs(fused - ref)) / np.max(np.abs(ref))
        assert rel <= 1e-6

    def test_short_groups_and_mixed_coefficients(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 100))
        w = rng.standard_normal((100, 9))
        xq = quantize_activation_tensor(x, 1, 64)
        coeffs = rng.choice([0, 17, 40, 90, INT4_COEFF], size=(9, 2)).astype(np.uint8)
        wq = quantize_weight_tensor(w, coeffs, 0, 64)
        fused = gemm(xq, wq)
        ref = dequantized_gemm(xq, wq)
        assert np.max(np.abs(fused - ref)) / np.max(np.abs(ref)) <= 1e-6

    def test_identity_int4_weights(self):
        # scaled unit-basis weights are representable on the INT4 grid
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 64))
        w = np.eye(64) * 7.0
        xq = quantize_activation_tensor(x, 1, 64)
        wq = quantize_weight_tensor(w, INT4_COEFF, 0, 64)
        out = gemm(xq, wq)
        assert np.allclose(out, xq.dequantize() * 7.0, rtol=0, atol=1e-12)

    def test_zero_scale_row(self):
        x = np.zeros((2, 64))
        x[1] = np.arange(64)
        w = np.random.default_rng(6).standard_normal((64, 3))
        out = gemm(quantize_activation_tensor(x, 1, 64), quantize_weight_tensor(w, 20, 0, 64))
        assert np.all(out[0] == 0.0)

    def test_group_size_mismatch(self):
        rng = np.random.default_rng(7)
        xq = quantize_activation_tensor(rng.standard_normal((2, 64)), 1, 32)
        wq = quantize_weight_tensor(rng.standard_normal((64, 2)), 17, 0, 64)
        with pytest.raises(ValueError):
            gemm(xq, wq)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(8)
        xq = quantize_activation_tensor(rng.standard_normal((2, 64)), 1, 64)
        wq = quantize_weight_tensor(rng.standard_normal((128, 2)), 17, 0, 64)
        with pytest.raises(ValueError):
            gemm(xq, wq)

    def test_wrong_axis(self):
        rng = np.random.default_rng(9)
        xq = quantize_activation_tensor(rng.standard_normal((64, 64)), 0, 64)
        wq = quantize_weight_tensor(rng.standard_normal((64, 64)), 17, 0, 64)
        with pytest.raises(ValueError):
            gemm(xq, wq)

    def test_kind_mismatch(self):
        rng = np.random.default_rng(10)
        xq, wq = random_operands(rng, 2, 64, 2)
        with pytest.raises(ValueError, match="left operand must be INT8"):
            gemm(wq, xq)

    def test_activation_scale_linearity(self):
        rng = np.random.default_rng(11)
        xq, wq = random_operands(rng, 4, 64, 4)
        base = gemm(xq, wq)
        scaled = QuantizedTensor(xq.shape, xq.element_kind, xq.group_axis, xq.group_size,
                                 xq.codes, xq.scales * 4.0, xq.coefficients)
        assert np.array_equal(gemm(scaled, wq), base * 4.0)


class TestGemmInt8:
    def test_trivial_product(self):
        x = np.array([[3.0]])
        y = np.array([[2.0]])
        out = gemm(quantize_activation_tensor(x, 1, 64),
                   quantize_activation_tensor(y, 0, 64))
        assert out[0, 0] == pytest.approx(6.0)

    def test_vs_reference(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 64))
        y = rng.standard_normal((64, 8))
        xq = quantize_activation_tensor(x, 1, 64)
        yq = quantize_activation_tensor(y, 0, 64)
        ref = xq.dequantize() @ yq.dequantize()
        assert np.max(np.abs(gemm(xq, yq) - ref)) / np.max(np.abs(ref)) <= 1e-6

    def test_zero_scale_rows(self):
        x = np.zeros((1, 64))
        y = np.random.default_rng(13).standard_normal((64, 4))
        out = gemm(quantize_activation_tensor(x, 1, 64),
                   quantize_activation_tensor(y, 0, 64))
        assert np.all(out == 0.0)


def one_group_tensor(levels, kind, coefficient):
    """A one-group tensor of ``levels`` (G,) under ``coefficient``."""
    return QuantizedTensor(levels.shape, kind, 0, levels.size, levels[None, None],
                           np.ones((1, 1)), np.full((1, 1), coefficient, np.uint8))


class TestFusedDot:
    """``fused_dot`` multiplies levels, so a code/coefficient pairing is
    checked where levels are made, in ``code_values``, and where codes are
    derived from levels, in ``QuantizedTensor.codes``."""

    def test_int8_codes_under_4bit_coefficient(self):
        codes = np.array([[1, -2]], dtype=np.int8)
        with pytest.raises(ValueError, match="uint8 nibbles"):
            code_values(codes, np.array([17]))
        with pytest.raises(ValueError, match="uint8 nibbles"):
            code_values(codes, INT4_COEFF)
        # an INT8 level read as a 4-bit level has no code unless it is on the grid
        assert one_group_tensor(codes[0], KIND_MANT4, 17).codes.tolist() == [[[0, 0xFF]]]

    def test_nibbles_under_int8_coefficient(self):
        codes = np.array([[1, 2]], dtype=np.uint8)
        with pytest.raises(ValueError, match="out of range"):
            code_values(codes, INT8_COEFF)
        with pytest.raises(ValueError, match="out of range"):
            one_group_tensor(code_values(codes[0], 17), KIND_MANT4, INT8_COEFF).codes

    def test_codes_above_four_bits(self):
        with pytest.raises(ValueError, match="exceed 4 bits"):
            code_values(np.array([1, 16], dtype=np.uint8), 17)
        # 16 is no level of a = 17 (1, 19, 38, ...), and 2000 none of any grid
        levels = np.array([1, 16, 2000, -2000], dtype=np.int16)
        assert one_group_tensor(levels, KIND_MANT4, 17).codes.tolist() == [[[0, 0xFF, 0xFF, 0xFF]]]

    @pytest.mark.parametrize("dtype", [np.int16, np.uint16, np.int64, np.float64, bool])
    def test_other_code_dtypes(self, dtype):
        codes = np.array([[1, 0]], dtype=dtype)
        with pytest.raises(ValueError, match="uint8 nibbles"):
            code_values(codes, INT8_COEFF)
        with pytest.raises(ValueError, match="uint8 nibbles"):
            code_values(codes, 17)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.int64, np.float32,
                                       np.float64, bool])
    def test_operand_must_be_levels(self, dtype):
        # nibbles are not levels: a silent misread would be a wrong product
        with pytest.raises(ValueError, match="int16 levels or int8 codes"):
            fused_dot(np.array([1, 1], dtype=np.int8), 1.0, np.array([[1, 2]], dtype=dtype),
                      np.ones(1))

    def test_int8_codes_are_their_own_values(self):
        codes = np.array([[127, -127, 3]], dtype=np.int8)
        out = fused_dot(np.array([2, 1, -5], dtype=np.int8), 0.5, codes, np.array([0.25]))
        assert out[0] == (254 - 127 - 15) * 0.125

    def test_levels_of_nibbles(self):
        codes = np.array([[SIGN_BIT | 3, 0, 7]], dtype=np.uint8)
        out = fused_dot(np.array([2, 1, -5], dtype=np.int8), 0.5, code_values(codes, 17),
                        np.array([0.25]))
        assert out[0] == (2 * -59 + 1 * 1 - 5 * (17 * 7 + 128)) * 0.125


class TestExactnessBound:
    """``grouped_dot`` on levels against an oracle that multiplies the
    ``code_values`` levels in float64, at the magnitudes that reach the
    float32 bound (L * 127 * 1017 < 2**24 up to L = 129)."""

    @pytest.mark.parametrize("length", list(range(1, 131)))
    def test_worst_case_magnitudes(self, length):
        rng = np.random.default_rng(length)
        heads, m, n, n_groups = 2, 3, 4, 2
        nibbles = np.full((heads, n, n_groups, length), 7, dtype=np.uint8)
        coeffs = np.full((heads, n, n_groups), 127, dtype=np.uint8)
        x_codes = np.full((heads, m, n_groups, length), 127, dtype=np.int8)
        # one row of each operand at the bound with equal signs, the others mixed;
        # x row 1 ends in 126, so at L = 130 its sum is odd and above 2**24
        nibbles[:, 1:] |= (rng.random((heads, n - 1, n_groups, length)) < 0.5).astype(np.uint8) << 3
        x_codes[:, 1, :, -1] = 126
        x_codes[:, 2:] *= np.where(rng.random((heads, m - 2, n_groups, length)) < 0.5, -1, 1) \
            .astype(np.int8)
        x_scales = 10.0 ** rng.uniform(-3, 3, (heads, m, n_groups))
        w_scales = 10.0 ** rng.uniform(-3, 3, (heads, n, n_groups))
        levels = code_values(nibbles, coeffs)
        lengths = [length] * n_groups
        oracle = np.zeros((heads, m, n))
        for g in range(n_groups):
            psum = x_codes[..., g, :].astype(np.float64) @ np.swapaxes(
                levels[..., g, :].astype(np.float64), -1, -2)
            oracle += psum * (x_scales[..., g][..., None] * w_scales[..., g][..., None, :])
        out = grouped_dot(x_codes, x_scales, levels, w_scales, lengths)
        assert out.tobytes() == oracle.tobytes()
        assert abs(x_codes[0, 0, 0].astype(np.int64) @ levels[0, 0, 0]) == length * 127 * 1017

    @pytest.mark.parametrize("length", [129, 130])
    def test_float32_boundary(self, length):
        # the sum stays below 2**24 at L = 129; at L = 130 it is an odd
        # integer above 2**24, which float32 cannot hold
        x = np.full(length, 127, dtype=np.int8)
        x[-1] = 126
        levels = np.full((1, length), 1017, dtype=np.int16)
        exact = int(x.astype(np.int64) @ levels[0].astype(np.int64))
        assert (exact > 2 ** 24 and exact % 2 == 1) == (length == 130)
        assert float(np.float32(exact)) != exact or length == 129
        assert fused_dot(x, 1.0, levels, np.ones(1))[0] == float(exact)
