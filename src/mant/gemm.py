"""Matrix multiplication directly on quantized operands.

A 4-bit weight code decodes to ``sign * (a*m + 2**m)``, so a dot product
against INT8 activations splits into two integer partial sums:

    psum1 = sum(x * sign * m)        (multiply lane)
    psum2 = sum(x * sign * 2**m)     (shift lane)

and the real result of one group is ``(psum1*a + psum2) * s_x * s_w``; all
scale multiplication is deferred to group boundaries.

With group size <= 64 and INT8 activations, |psum1| < 2**16 and
|psum2| < 2**21, so every addend and partial sum is an integer far below
2**53.  The blocked implementation therefore runs the integer matmuls in
float64 (BLAS) and still produces bit-exact integer partial sums;
:func:`fused_group_dot` is the pure-integer scalar path, with psum2 built
from logical shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import (
    INT4_COEFF,
    INT8_COEFF,
    KIND_INT8,
    KIND_MANT4,
    MAGNITUDE_MASK,
    QuantizedTensor,
    SIGN_BIT,
)

_TILE_COLS = 32


@dataclass(frozen=True)
class GroupDotResult:
    """Integer partial sums of one group dot product."""

    psum1: int
    psum2: int


def fused_group_dot(x, w) -> GroupDotResult:
    """Exact integer partial sums of one activation/weight group pair.

    ``x`` holds INT8 activation codes, ``w`` 4-bit nibble codes of equal
    length.  psum2 uses arithmetic left shifts of the signed activation;
    the result is identical to the multiply form bit for bit.
    """
    x = np.asarray(x, dtype=np.int64)
    w = np.asarray(w, dtype=np.uint8)
    if x.shape != w.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {w.shape}")
    mags = (w & MAGNITUDE_MASK).astype(np.int64)
    signs = np.where(w & SIGN_BIT, -1, 1).astype(np.int64)
    signed_x = x * signs
    psum1 = int(np.sum(signed_x * mags))
    psum2 = int(np.sum(np.left_shift(signed_x, mags)))
    assert abs(psum1) < 2 ** 31 and abs(psum2) < 2 ** 31, "32-bit accumulator overflow"
    return GroupDotResult(psum1, psum2)


def combine(res: GroupDotResult, a: int, s_x: float, s_w: float) -> float:
    """Fold a group's partial sums with its metadata into a real value.

    The integer part ``psum1*a + psum2`` is formed exactly before any real
    multiplication.
    """
    return (res.psum1 * int(a) + res.psum2) * s_x * s_w


def _check_gemm_operands(x_q: QuantizedTensor, w_q: QuantizedTensor, w_kind: str) -> None:
    if x_q.element_kind != KIND_INT8:
        raise ValueError(f"left operand must be INT8, got {x_q.element_kind}")
    if w_q.element_kind != w_kind:
        raise ValueError(f"right operand must be {w_kind}, got {w_q.element_kind}")
    if len(x_q.shape) != 2 or len(w_q.shape) != 2:
        raise ValueError("gemm operands must be 2-D")
    if x_q.shape[1] != w_q.shape[0]:
        raise ValueError(f"shape mismatch: {x_q.shape} x {w_q.shape}")
    if x_q.group_axis != 1 or w_q.group_axis != 0:
        raise ValueError("operands must be grouped along the shared accumulation axis")
    if x_q.group_size != w_q.group_size:
        raise ValueError(f"group size mismatch: {x_q.group_size} vs {w_q.group_size}")


def gemm(x_q: QuantizedTensor, w_q: QuantizedTensor) -> np.ndarray:
    """Fused INT8 x 4-bit matrix multiply, (M,K) x (K,N) -> (M,N) float64.

    Both operands must be grouped along K with the same group size.  Groups
    accumulate in ascending index in float64.  Weight groups carrying the
    plain-INT4 sentinel coefficient decode as ``sign*m`` (psum1 lane only).
    """
    _check_gemm_operands(x_q, w_q, KIND_MANT4)
    if np.any(w_q.coefficients == INT8_COEFF):
        raise ValueError("INT8 sentinel coefficient inside a 4-bit tensor")
    m_dim, _ = x_q.shape
    n_dim = w_q.shape[1]
    out = np.zeros((m_dim, n_dim), dtype=np.float64)

    w_mags = (w_q.codes & MAGNITUDE_MASK).astype(np.float64)
    w_signs = np.where(w_q.codes & SIGN_BIT, -1.0, 1.0)
    w_linear = w_signs * w_mags          # (N, n_groups, G)
    w_pot = w_signs * np.exp2(w_mags)
    x_codes = x_q.codes.astype(np.float64)  # (M, n_groups, G)

    for col in range(0, n_dim, _TILE_COLS):
        width = min(_TILE_COLS, n_dim - col)
        cols = slice(col, col + width)
        for g in range(x_q.n_groups):
            length = int(x_q.group_lengths[0, g])
            if length != int(w_q.group_lengths[0, g]):
                raise ValueError(f"group {g} length mismatch between operands")
            psum1 = x_codes[:, g, :length] @ w_linear[cols, g, :length].T
            psum2 = x_codes[:, g, :length] @ w_pot[cols, g, :length].T
            coeffs = w_q.coefficients[cols, g]
            is_mant = coeffs != INT4_COEFF
            a_eff = np.where(is_mant, coeffs, 1).astype(np.float64)
            # psum1 takes the coefficient times both scales, psum2 the scales
            # alone (zero for plain-INT4 groups); groups add in ascending order
            scale_prod = x_q.scales[:, g][:, None] * w_q.scales[cols, g][None, :]
            out[:, cols] += psum1 * (a_eff[None, :] * scale_prod) \
                + psum2 * (is_mant.astype(np.float64)[None, :] * scale_prod)
    return out


def gemm_int8(x_q: QuantizedTensor, y_q: QuantizedTensor) -> np.ndarray:
    """Fused INT8 x INT8 matrix multiply with the same grouping contract."""
    _check_gemm_operands(x_q, y_q, KIND_INT8)
    m_dim, _ = x_q.shape
    n_dim = y_q.shape[1]
    out = np.zeros((m_dim, n_dim), dtype=np.float64)
    x_codes = x_q.codes.astype(np.float64)
    y_codes = y_q.codes.astype(np.float64)  # (N, n_groups, G)
    for g in range(x_q.n_groups):
        length = int(x_q.group_lengths[0, g])
        if length != int(y_q.group_lengths[0, g]):
            raise ValueError(f"group {g} length mismatch between operands")
        psum = x_codes[:, g, :length] @ y_codes[:, g, :length].T
        out += psum * (x_q.scales[:, g][:, None] * y_q.scales[:, g][None, :])
    return out


def dequantized_gemm(x_q: QuantizedTensor, w_q: QuantizedTensor) -> np.ndarray:
    """Reference path: dequantize both operands, multiply in real arithmetic."""
    return x_q.dequantize() @ w_q.dequantize()
