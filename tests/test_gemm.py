"""Fused integer GEMM: partial-sum identities, oracles, grouping contracts."""

import dataclasses
import importlib
import io

import numpy as np
import pytest

from mant.codec import (
    INT4_COEFF,
    INT8_COEFF,
    KIND_MANT4,
    SIGN_BIT,
    QuantizedTensor,
    code_values,
    group_lengths,
    quantize_activation_tensor,
    quantize_weight_tensor,
)
from mant.cli import main
from mant.container import read_quantized, write_quantized
from mant.gemm import _exact_dtype, _fold, dequantized_gemm, gemm, grouped_dot, weight_operand
from oracles import GroupDotResult, combine, fused_group_dot


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
    """The scalar two-lane reference (``tests/oracles.py``) against
    multiplication and the grids' levels."""

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, -0.0])
    @pytest.mark.parametrize("operand", [0, 1])
    def test_scale_not_finite_or_negative_refused(self, bad, operand):
        # one NaN weight scale once gave a NaN output column without an error
        rng = np.random.default_rng(12)
        operands = list(random_operands(rng, 2, 128, 4))
        scales = operands[operand].scales.copy()
        scales[1, 1 - operand] = bad
        operands[operand] = dataclasses.replace(operands[operand], scales=scales)
        with pytest.raises(ValueError, match=f"scale {bad} is not finite and non-negative"):
            gemm(*operands)

    @pytest.mark.parametrize("operand,bad", [(0, 0), (0, INT4_COEFF), (1, INT4_COEFF + 1)])
    def test_coefficient_the_codes_do_not_fit_refused(self, operand, bad):
        # INT8 activations with coefficient 0 once multiplied, while
        # write_quantized refused the same tensor
        rng = np.random.default_rng(13)
        operands = list(random_operands(rng, 2, 128, 4))
        coeffs = operands[operand].coefficients.copy()
        coeffs[1, 1 - operand] = bad
        operands[operand] = dataclasses.replace(operands[operand], coefficients=coeffs)
        with pytest.raises(ValueError, match=f"coefficient {bad} does not fit"):
            gemm(*operands)

    def test_activation_scale_linearity(self):
        rng = np.random.default_rng(11)
        xq, wq = random_operands(rng, 4, 64, 4)
        base = gemm(xq, wq)
        scaled = QuantizedTensor(xq.shape, xq.element_kind, xq.group_axis, xq.group_size,
                                 xq.codes, xq.scales * 4.0, xq.coefficients)
        assert np.array_equal(gemm(scaled, wq), base * 4.0)


class TestOperands:
    """The dtypes ``gemm`` and ``grouped_dot`` take, and the weight operand
    ``gemm`` builds once and keeps."""

    @pytest.mark.parametrize("rebuild", [lambda c: c + 0.5, lambda c: c.astype(np.int16) * 20,
                                         lambda c: c.astype(np.uint8)],
                             ids=["float64", "int16", "uint8"])
    def test_left_operand_must_be_int8_codes(self, rebuild):
        # each went through silently once: a half code, codes past the fold's
        # |x| <= 127 bound, and a wrapped sign all gave a wrong product
        rng = np.random.default_rng(14)
        xq, wq = random_operands(rng, 3, 100, 4)
        bad = dataclasses.replace(xq, levels=rebuild(xq.levels))
        with pytest.raises(ValueError, match="left operand must be int8 codes"):
            gemm(bad, wq)
        with pytest.raises(ValueError, match="left operand must be int8 codes"):
            grouped_dot(bad.levels, bad.scales, wq.levels, wq.scales, group_lengths(100, 64))

    @pytest.mark.parametrize("rebuild", [lambda w: w.codes, lambda w: w.levels.astype(np.float32),
                                         lambda w: w.levels.astype(np.float64)],
                             ids=["uint8 nibbles", "float32", "float64"])
    def test_right_operand_rule_holds_through_the_operand(self, rebuild):
        # a float32 copy of the levels is no weight's levels, so not its own operand
        rng = np.random.default_rng(15)
        xq, wq = random_operands(rng, 3, 100, 4)
        bad = dataclasses.replace(wq, levels=rebuild(wq))
        with pytest.raises(ValueError, match="int16 levels or int8 codes"):
            gemm(xq, bad)
        assert "_operand" not in vars(bad)

    def test_operand_is_made_once_and_tied_to_the_levels(self):
        rng = np.random.default_rng(16)
        xq, wq = random_operands(rng, 2, 200, 5)
        assert "_operand" not in vars(wq)   # quantizing builds none
        gemm(xq, wq)
        operand = weight_operand(wq)
        assert operand.shape == (4, 64, 5) and operand.dtype == _exact_dtype(64)
        assert not operand.flags.writeable and operand.flags.c_contiguous
        assert weight_operand(wq) is operand
        copy = dataclasses.replace(wq, levels=wq.levels.copy())
        assert weight_operand(copy) is not operand
        assert np.array_equal(weight_operand(copy), operand)
        wq.levels = wq.levels.copy()   # a rebound levels object builds anew
        assert weight_operand(wq) is not operand

    def test_multiplied_levels_refuse_in_place_writes(self):
        # an in-place write once left the kept operand, and every later product, stale
        rng = np.random.default_rng(18)
        xq, wq = random_operands(rng, 3, 130, 4)
        assert wq.levels.flags.writeable   # quantizing leaves the levels writable
        gemm(xq, wq)
        with pytest.raises(ValueError, match="read-only"):
            wq.levels[...] = 0
        zeroed = dataclasses.replace(wq, levels=np.zeros_like(wq.levels))
        assert not gemm(xq, zeroed).any()
        assert np.array_equal(gemm(xq, zeroed), dequantized_gemm(xq, zeroed))
        assert gemm(xq, wq).tobytes() == gemm(xq, dataclasses.replace(wq)).tobytes()

    def test_reading_or_quantizing_builds_no_operand(self, tmp_path, monkeypatch):
        gemm_module = importlib.import_module("mant.gemm")   # the package's `gemm` is the function
        rng = np.random.default_rng(17)
        _, wq = random_operands(rng, 1, 130, 3)
        buf = io.BytesIO()
        write_quantized(buf, wq)
        buf.seek(0)
        assert "_operand" not in vars(read_quantized(buf))

        def refuse(w_q):
            raise AssertionError("an operand was built")
        monkeypatch.setattr(gemm_module, "weight_operand", refuse)
        tensor = tmp_path / "t.mntt"
        assert main(["gen-tensor", "--shape", "130x3", "--seed", "1", "--out", str(tensor)]) == 0
        assert main(["quantize", "--tensor", str(tensor), "--role", "weight",
                     "--out", str(tmp_path / "w.mntq")]) == 0


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


def one_group_dot(x_codes, x_scale, w_levels, w_scales):
    """``grouped_dot`` of one activation group ``(L,)`` against N groups
    ``(N, L)``, as ``(N,)``: the window product's form."""
    return grouped_dot(x_codes[None, None], np.full((1, 1), x_scale), w_levels[:, None],
                       w_scales[:, None], (x_codes.size,))[0]


class TestFusedDot:
    """The product multiplies levels, so a code/coefficient pairing is
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
        with pytest.raises(ValueError, match="integer in 0..128, got 255"):
            code_values(codes, INT8_COEFF)
        with pytest.raises(ValueError, match="integer in 0..128, got 255"):
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
            one_group_dot(np.array([1, 1], dtype=np.int8), 1.0, np.array([[1, 2]], dtype=dtype),
                          np.ones(1))

    def test_int8_codes_are_their_own_values(self):
        codes = np.array([[127, -127, 3]], dtype=np.int8)
        out = one_group_dot(np.array([2, 1, -5], dtype=np.int8), 0.5, codes, np.array([0.25]))
        assert out[0] == (254 - 127 - 15) * 0.125

    def test_levels_of_nibbles(self):
        codes = np.array([[SIGN_BIT | 3, 0, 7]], dtype=np.uint8)
        out = one_group_dot(np.array([2, 1, -5], dtype=np.int8), 0.5, code_values(codes, 17),
                            np.array([0.25]))
        assert out[0] == (2 * -59 + 1 * 1 - 5 * (17 * 7 + 128)) * 0.125


class TestExactnessBound:
    """``grouped_dot`` on levels against an oracle that multiplies the
    ``code_values`` levels in float64, at the magnitudes that reach the
    float32 bound (L * 127 * 1017 < 2**24 up to L = 129), with lengths as a
    list and as ``group_lengths``' uint16 array."""

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
        # the uint16 lengths callers pass: a bound computed in uint16 wraps at L = 130
        out = grouped_dot(x_codes, x_scales, levels, w_scales,
                          group_lengths(n_groups * length, length))
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
        assert one_group_dot(x, 1.0, levels, np.ones(1))[0] == float(exact)


def ascending_fold(x_codes, x_scales, levels, w_scales):
    """The one-row product as a per-group loop: ``out += psum * (s_x * s_w)``
    for each full group in ascending order, the psums exact in float64."""
    out = np.zeros(np.broadcast_shapes(x_codes.shape[:-3], levels.shape[:-3])
                   + (x_codes.shape[-3], levels.shape[-3]))
    for g in range(levels.shape[-2]):
        psum = x_codes[..., g, :].astype(np.float64) @ levels[..., g, :].astype(np.float64) \
            .swapaxes(-1, -2)
        out += psum * (x_scales[..., g][..., None] * w_scales[..., g][..., None, :])
    return out


class TestOneRowFold:
    """At M = 1 the fold of float32 operands (the KV cache's levels, a weight's
    operand) takes the psums of its full groups from one batched matmul and
    adds their terms in ascending group order: one ``np.add.reduce`` over the
    group axis where that axis is not numpy's inner loop (N > 1), a loop at
    N = 1.  Over 9 or more groups a pairwise sum gives other bits."""

    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("n_groups", [9, 17])
    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_adds_in_ascending_group_order(self, n, n_groups, batch):
        rng = np.random.default_rng([n, n_groups, len(batch)])
        size = 64
        x_codes = rng.integers(-127, 128, batch + (1, n_groups, size), dtype=np.int8)
        levels = code_values(rng.integers(0, 16, batch + (n, n_groups, size), dtype=np.uint8),
                             rng.integers(0, 128, batch + (n, n_groups)))
        # scales over twelve decades: the order of the adds shows in the bits
        x_scales = 10.0 ** rng.uniform(-6, 6, batch + (1, n_groups))
        w_scales = 10.0 ** rng.uniform(-6, 6, batch + (n, n_groups))
        want = ascending_fold(x_codes, x_scales, levels, w_scales)
        got = _fold(x_codes, x_scales, levels.astype(np.float32), w_scales, [size] * n_groups)
        assert got.tobytes() == want.tobytes()
        # the same terms summed pairwise (the group axis made the inner loop) differ
        # somewhere among 64 columns; over one or two they may agree by chance
        psums = np.einsum("...mgi,...ngi->...mng", x_codes.astype(np.float64),
                          levels.astype(np.float64))
        terms = psums * (x_scales[..., :, None, :] * w_scales[..., None, :, :])
        pairwise = np.add.reduce(np.ascontiguousarray(terms), axis=-1)
        assert n < 64 or pairwise.tobytes() != want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_gemm_of_one_row_adds_in_ascending_group_order(self, n):
        rng = np.random.default_rng(n)
        n_groups, size = 9, 64
        x = rng.standard_normal((1, n_groups * size)) * 10.0 ** rng.uniform(-6, 6, n_groups * size)
        w = rng.standard_normal((n_groups * size, n)) * 10.0 ** rng.uniform(-6, 6, (n_groups * size, 1))
        x_q = quantize_activation_tensor(x, 1, size)
        w_q = quantize_weight_tensor(w, 40, 0, size)
        want = ascending_fold(x_q.levels, x_q.scales, w_q.levels, w_q.scales)
        assert gemm(x_q, w_q).tobytes() == want.tobytes()
