"""Reference forms of the fused product that the library no longer carries.

The library makes every quantized product through ``gemm.grouped_dot``.
The tests check it against these forms:

* the paper's scalar two-lane path: :func:`fused_group_dot` builds psum1
  by multiplication and psum2 from logical shifts of the signed activation,
  on 4-bit nibbles, and :func:`combine` folds a group's partial sums with
  its coefficient and scales (criterion 04, ``ref_gemm``);
* :func:`fused_dot`, the product of one group: each pair's integer
  ``psum1*a + psum2``, formed in float64 on its own, times ``x_scale *
  w_scale``.  ``grouped_dot`` adds one such product per group, in
  ascending order, into zeros;
* :func:`encode_nibbles`, the library's 4-bit encoder in nibbles, the form
  a file stores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mant.codec import INT4_COEFF, SIGN_BIT, _level_nibbles, encode_levels

MAGNITUDE_MASK = 0x7


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


def fused_dot(x_codes, x_scales, w_levels, w_scales) -> np.ndarray:
    """Fused products of INT8 activation groups with 4-bit or INT8 groups.

    ``w_levels`` holds N right-operand groups ``(..., N, L)``: int16 levels
    or int8 INT8 codes, with scales ``(..., N)``.  ``x_codes`` holds M
    activation groups ``(..., M, L)`` (int8) with scales ``(..., M)``, or one
    group ``(L,)`` with a scalar scale.  Leading axes are a batch and
    broadcast.  Returns ``(..., M, N)`` (``(N,)`` for one group): each pair's
    exact integer ``psum1*a + psum2``, a float64 matmul of at most
    L*127*1017 < 2**53, times ``x_scale * w_scale``.
    """
    psum = np.asarray(x_codes, dtype=np.float64) @ np.swapaxes(
        np.asarray(w_levels, dtype=np.float64), -1, -2)
    x_scales, w_scales = np.asarray(x_scales), np.asarray(w_scales)
    if np.ndim(x_codes) > 1:   # one scale product per (row, column) pair
        x_scales, w_scales = x_scales[..., None], w_scales[..., None, :]
    return psum * (x_scales * w_scales)


def encode_nibbles(groups, coefficients):
    """:func:`mant.codec.encode_levels` as uint8 nibbles ``sign << 3 |
    magnitude`` and scales."""
    levels, scales = encode_levels(groups, coefficients)
    return _level_nibbles(levels, coefficients), scales
