"""Matrix multiplication directly on quantized operands.

A 4-bit weight code decodes to ``sign * (a*m + 2**m)``, so a dot product
against INT8 activations splits into two integer partial sums:

    psum1 = sum(x * sign * m)        (multiply lane)
    psum2 = sum(x * sign * 2**m)     (shift lane)

and the real result of one group is ``(psum1*a + psum2) * (s_x * s_w)``
(``psum1 * (s_x * s_w)`` for plain-INT4 groups, whose codes decode to
``sign * m``); all scale multiplication is deferred to group boundaries.

One matmul forms the integer ``psum1*a + psum2`` of every pair of rows:
the INT8 codes against the right operand's pre-scale integer values
(``QuantizedTensor.levels``, int16, or INT8's int8 codes), batched over any
leading axes (attention stacks its heads there).  It is the one kernel for
every product of quantized codes; :func:`fused_dot` scales its result for
one group, :func:`grouped_dot` across groups.  With |x| <=
127 and |level| <= 127*7 + 2**7 = 1017, every partial sum of a group of
length L is an integer of at most L*127*1017, so the matmul is exact in any
summation order: in float32 while that stays below 2**24 (L <= 129), in
float64 (below 2**53) for longer groups.
:func:`grouped_dot` owns the fold across groups, for ``gemm`` and for both
attention products.  It works in place: one zeroed float64 accumulator and
one scale buffer per call, and for each group in ascending order the
group's exact psums, ``s_x * s_w`` written into the buffer, the buffer
multiplied by the psums, then added to the accumulator.  The rounding is
``fused_dot``'s, ``psum * (s_x * s_w)`` added into zeros group by group, so
every output is the same bits as adding one ``fused_dot`` per group; the
first group is added too, not copied, so a ``-0.0`` product still sums to
``+0.0``.  The scale products are outer products of one column of each
operand's scales; ``gemm`` passes its scales column-major (two small copies
per call) so that each column is contiguous.
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


def _exact_psums(x_codes, w_levels) -> np.ndarray:
    """The exact integer ``psum1*a + psum2`` of every pair of rows, in
    float32 while ``L*127*1017 < 2**24`` and in float64 beyond.  ``L`` is a
    shape entry, a Python int: ``uint16 * 127`` would wrap under NEP 50."""
    if w_levels.dtype not in (np.int16, np.int8):
        raise ValueError(f"right operand must be int16 levels or int8 codes, got {w_levels.dtype}")
    exact = np.float32 if w_levels.shape[-1] * 127 * 1017 < 2 ** 24 else np.float64
    return np.asarray(x_codes).astype(exact) @ np.swapaxes(w_levels, -1, -2).astype(exact)


def fused_dot(x_codes, x_scales, w_levels, w_scales) -> np.ndarray:
    """Fused products of INT8 activation groups with 4-bit or INT8 groups.

    ``w_levels`` holds N right-operand groups ``(..., N, L)``: the int16
    pre-scale levels of 4-bit codes, or int8 INT8 codes (their own levels);
    any other dtype, uint8 nibbles among them, raises ValueError.  Scales are
    ``(..., N)``.  ``x_codes`` holds M activation groups ``(..., M, L)``
    (int8) with scales ``(..., M)``, or one group ``(L,)`` with a scalar
    scale.  Leading axes are a batch (heads, say) and broadcast.  Returns
    ``(..., M, N)`` (``(N,)`` for one group): each pair's exact integer
    ``psum1*a + psum2`` times ``x_scale * w_scale``.
    """
    psum = _exact_psums(x_codes, np.asarray(w_levels))
    x_scales, w_scales = np.asarray(x_scales), np.asarray(w_scales)
    if np.ndim(x_codes) > 1:   # one scale product per (row, column) pair
        x_scales, w_scales = x_scales[..., None], w_scales[..., None, :]
    return psum.astype(np.float64) * (x_scales * w_scales)


def grouped_dot(x_codes, x_scales, w_levels, w_scales, lengths) -> np.ndarray:
    """Sum over groups of :func:`fused_dot`, ``(..., M, N)`` float64, of
    codes and levels ``(..., M|N, n_groups, G)`` with scales ``(..., M|N,
    n_groups)``; leading axes broadcast.  Group g is cut to ``lengths[g]``
    elements; groups add in ascending order into zeros, in place (see the
    module docstring), so the result equals those ``fused_dot`` calls added
    one by one, bit for bit.  The loop is a cache tile: each group converts
    only its own levels.

    With one row per batch entry the scale product is a row times one
    number, a broadcast multiply.  With more rows it is ``einsum``'s outer
    product: numpy's broadcast multiply buffers the column operand and took
    twice as long over rows shorter than 4,096, while ``einsum`` costs about
    2 us more per call, which one-row decode steps would pay per group.
    """
    batch = x_codes.shape[:-3]
    if batch != w_levels.shape[:-3]:   # np.broadcast_shapes alone costs about 4 us
        batch = np.broadcast_shapes(batch, w_levels.shape[:-3])
    out = np.zeros(batch + (x_codes.shape[-3], w_levels.shape[-3]))
    scale = np.empty_like(out)
    for g, length in enumerate(np.asarray(lengths).tolist()):
        psum = _exact_psums(x_codes[..., g, :length], w_levels[..., g, :length])
        if out.shape[-2] == 1:
            np.multiply(x_scales[..., g, None], w_scales[..., None, :, g], out=scale)
        else:
            np.einsum("...i,...j->...ij", x_scales[..., g], w_scales[..., g], out=scale)
        scale *= psum
        out += scale
    return out


def gemm(x_q: QuantizedTensor, w_q: QuantizedTensor) -> np.ndarray:
    """Fused INT8 x (4-bit or INT8) matrix multiply, (M,K) x (K,N) -> (M,N)
    float64.

    Both operands must be grouped along K with the same group size; one
    :func:`grouped_dot` of their levels over the K groups covers all rows and columns.
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
    return grouped_dot(x_q.levels, np.asfortranarray(x_q.scales), w_q.levels,
                       np.asfortranarray(w_q.scales), group_lengths(x_q.axis_length, x_q.group_size))


def dequantized_gemm(x_q: QuantizedTensor, w_q: QuantizedTensor) -> np.ndarray:
    """Reference path: dequantize both operands, multiply in real arithmetic."""
    return x_q.dequantize() @ w_q.dequantize()
