"""Fused integer GEMM: partial-sum identities, oracles, grouping contracts."""

import numpy as np
import pytest

from mant.codec import (
    INT4_COEFF,
    INT8_COEFF,
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


class TestFusedDot:
    def test_int8_codes_under_4bit_coefficient(self):
        codes = np.array([[1, -2]], dtype=np.int8)
        with pytest.raises(ValueError, match="INT8 coefficient"):
            fused_dot(np.array([1, 1], dtype=np.int8), 1.0, codes, np.array([17]), np.ones(1))
        with pytest.raises(ValueError, match="INT8 coefficient"):
            fused_dot(np.array([1, 1], dtype=np.int8), 1.0, codes, INT4_COEFF, np.ones(1))

    def test_nibbles_under_int8_coefficient(self):
        codes = np.array([[1, 2]], dtype=np.uint8)
        with pytest.raises(ValueError, match="out of range"):
            fused_dot(np.array([1, 1], dtype=np.int8), 1.0, codes, INT8_COEFF, np.ones(1))

    @pytest.mark.parametrize("dtype", [np.int16, np.uint16, np.int64, np.float64, bool])
    def test_other_code_dtypes(self, dtype):
        codes = np.array([[1, 0]], dtype=dtype)
        with pytest.raises(ValueError, match="uint8 nibbles or int8"):
            fused_dot(np.array([1, 1], dtype=np.int8), 1.0, codes, INT8_COEFF, np.ones(1))
        with pytest.raises(ValueError, match="uint8 nibbles or int8"):
            fused_dot(np.array([1, 1], dtype=np.int8), 1.0, codes, 17, np.ones(1))

    def test_int8_codes_are_their_own_values(self):
        codes = np.array([[127, -127, 3]], dtype=np.int8)
        out = fused_dot(np.array([2, 1, -5], dtype=np.int8), 0.5, codes, INT8_COEFF,
                        np.array([0.25]))
        assert out[0] == (254 - 127 - 15) * 0.125
