"""Matrix multiplication directly on quantized operands.

A 4-bit weight code decodes to ``sign * (a*m + 2**m)``, so a dot product
against INT8 activations splits into two integer partial sums:

    psum1 = sum(x * sign * m)        (multiply lane)
    psum2 = sum(x * sign * 2**m)     (shift lane)

and the real result of one group is ``(psum1*a + psum2) * (s_x * s_w)``
(``psum1 * (s_x * s_w)`` for plain-INT4 groups, whose codes decode to
``sign * m``); all scale multiplication is deferred to group boundaries.

:func:`fused_dot` forms the integer ``psum1*a + psum2`` of every pair of
rows in one float64 matmul of the INT8 codes against the codes' pre-scale
integer values, batched over any leading axes of stacked groups (attention
stacks its heads there).  It is the one kernel for every product of
quantized codes: the right operand may also hold INT8 codes (coefficient
INT8_COEFF), which are their own values.  With |x| <= 127, |value| <=
127*7 + 2**7 = 1017 (<= 127 for INT8) and group length G <= 65535, every
product and partial sum is an integer below 2**33, far below 2**53, so the
matmul is exact in any summation order, stacked or not.
:func:`grouped_dot` owns the fold across groups: it adds one group's
:func:`fused_dot` at a time, in ascending group order, for ``gemm`` and for
both attention products.
:func:`fused_group_dot` is the pure-integer scalar path, with psum2 built
from logical shifts, and :func:`combine` its fold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import (
    INT4_COEFF,
    KIND_INT8,
    MAGNITUDE_MASK,
    QuantizedTensor,
    SIGN_BIT,
    code_values,
    group_lengths,
)


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

    The integer part ``psum1*a + psum2`` (``psum1`` alone for INT4_COEFF) is
    formed exactly before it meets the scale product ``s_x * s_w``, as in
    :func:`fused_dot`.
    """
    integer = res.psum1 if a == INT4_COEFF else res.psum1 * int(a) + res.psum2
    return integer * (s_x * s_w)


def fused_dot(x_codes, x_scales, w_codes, w_coeffs, w_scales) -> np.ndarray:
    """Fused products of INT8 activation groups with 4-bit or INT8 groups.

    ``w_codes`` holds N weight groups ``(..., N, L)``, uint8 nibbles or int8
    codes under INT8_COEFF (any other pairing raises ValueError in
    :func:`codec.code_values`), with coefficients and scales ``(..., N)``;
    ``x_codes`` holds M activation groups ``(..., M, L)`` (int8) with scales
    ``(..., M)``, or one group ``(L,)`` with a scalar scale.  Leading axes
    are a batch (heads, say) and broadcast.  Returns ``(..., M, N)``
    (``(N,)`` for one group): each pair's exact integer ``psum1*a + psum2``
    times ``x_scale * w_scale``.
    """
    values = code_values(w_codes, w_coeffs)
    psum = np.asarray(x_codes).astype(np.float64) @ np.swapaxes(values, -1, -2)
    x_scales, w_scales = np.asarray(x_scales), np.asarray(w_scales)
    if np.ndim(x_codes) > 1:   # one scale product per (row, column) pair
        x_scales, w_scales = x_scales[..., None], w_scales[..., None, :]
    return psum * (x_scales * w_scales)


def grouped_dot(x_codes, x_scales, w_codes, w_coeffs, w_scales, lengths) -> np.ndarray:
    """Sum over groups of :func:`fused_dot`, ``(..., M, N)`` float64, of
    codes ``(..., M|N, n_groups, G)`` with scales and coefficients ``(...,
    M|N, n_groups)``.  Group g is cut to ``lengths[g]`` elements; groups add
    in ascending order into zeros.  The loop is a cache tile: each call
    gathers one group's code values, not the whole operand's."""
    out = np.zeros(x_codes.shape[:-2] + w_codes.shape[-3:-2])
    for g, length in enumerate(lengths):
        out += fused_dot(x_codes[..., g, :length], x_scales[..., g],
                         w_codes[..., g, :length], w_coeffs[..., g], w_scales[..., g])
    return out


def gemm(x_q: QuantizedTensor, w_q: QuantizedTensor) -> np.ndarray:
    """Fused INT8 x (4-bit or INT8) matrix multiply, (M,K) x (K,N) -> (M,N)
    float64.

    Both operands must be grouped along K with the same group size; one
    :func:`grouped_dot` over the K groups covers all rows and columns.
    """
    if x_q.element_kind != KIND_INT8:
        raise ValueError(f"left operand must be INT8, got {x_q.element_kind}")
    if len(x_q.shape) != 2 or len(w_q.shape) != 2:
        raise ValueError("gemm operands must be 2-D")
    if x_q.shape[1] != w_q.shape[0]:
        raise ValueError(f"shape mismatch: {x_q.shape} x {w_q.shape}")
    if x_q.group_axis != 1 or w_q.group_axis != 0:
        raise ValueError("operands must be grouped along the shared accumulation axis")
    if x_q.group_size != w_q.group_size:
        raise ValueError(f"group size mismatch: {x_q.group_size} vs {w_q.group_size}")
    return grouped_dot(x_q.codes, x_q.scales, w_q.codes, w_q.coefficients, w_q.scales,
                       group_lengths(x_q.axis_length, x_q.group_size))


def dequantized_gemm(x_q: QuantizedTensor, w_q: QuantizedTensor) -> np.ndarray:
    """Reference path: dequantize both operands, multiply in real arithmetic."""
    return x_q.dequantize() @ w_q.dequantize()
