"""Matrix multiplication directly on quantized operands.

A 4-bit weight code decodes to ``sign * (a*m + 2**m)``, so a dot product
against INT8 activations splits into two integer partial sums:

    psum1 = sum(x * sign * m)        (multiply lane)
    psum2 = sum(x * sign * 2**m)     (shift lane)

and the real result of one group is ``(psum1*a + psum2) * (s_x * s_w)``
(``psum1 * (s_x * s_w)`` for plain-INT4 groups, whose codes decode to
``sign * m``); all scale multiplication is deferred to group boundaries.
One matmul per group forms the integer ``psum1*a + psum2`` of every pair
of rows: the INT8 codes against the right operand's pre-scale integer
values (``QuantizedTensor.levels``), batched over any leading axes.

Exactness: with |x| <= 127 and |level| <= 127*7 + 2**7 = 1017, a group of
length L sums to an integer of at most L*127*1017, so the matmul is exact
in any summation order: in float32 while that stays below 2**24 (L <= 129),
in float64 (below 2**53) beyond.

Fold order: :func:`grouped_dot` is the one fold of those products, for
``gemm`` and both attention products.  Into one zeroed float64
accumulator, each group in ascending order adds its psums times
``s_x * s_w``; the first group is added too, not copied, so a ``-0.0``
product still sums to ``+0.0``.  A one-row product may take the psums of
all its full-length groups from one batched matmul and keep those bits:
numpy sums an axis pairwise only when it is the inner loop, the fast axis
in memory, so with N > 1 one ``np.add.reduce`` over the group axis of a
C-order ``(..., groups, 1, N)`` array, from an initial +0.0, adds the
groups one after another; with N = 1 each group is one ``out += term``.
"""

from __future__ import annotations

import numpy as np

from .codec import KIND_INT8, QuantizedTensor, group_lengths


def _exact_dtype(length: int):
    """float32 while ``length*127*1017 < 2**24``, float64 beyond.  ``length``
    is a shape entry, a Python int: ``uint16 * 127`` would wrap under NEP 50."""
    return np.float32 if length * 127 * 1017 < 2 ** 24 else np.float64


def _exact_psums(x_codes, w_levels) -> np.ndarray:
    """The exact integer ``psum1*a + psum2`` of every pair of rows, in
    :func:`_exact_dtype` of their length; a float32 operand of float32
    psums is used as it is."""
    exact = _exact_dtype(w_levels.shape[-1])
    return x_codes.astype(exact, copy=False) @ w_levels.swapaxes(-1, -2).astype(exact, copy=False)


def _check_operands(x_codes, w_levels) -> None:
    """Refuse operands whose integers the fold's exactness bound does not cover."""
    if x_codes.dtype != np.int8:
        raise ValueError(f"left operand must be int8 codes, got {x_codes.dtype}")
    if w_levels.dtype not in (np.int16, np.int8):
        raise ValueError(f"right operand must be int16 levels or int8 codes, got {w_levels.dtype}")


def grouped_dot(x_codes, x_scales, w_levels, w_scales, lengths) -> np.ndarray:
    """Fused products ``(..., M, N)`` float64 of INT8 codes and right-operand
    levels ``(..., M|N, n_groups, G)`` with scales ``(..., M|N, n_groups)``;
    leading axes broadcast.  The codes are int8, the levels int16 levels of
    4-bit codes or int8 INT8 codes; any other dtype, uint8 nibbles among
    them, raises ValueError.  Group g is cut to ``lengths[g]`` elements, and
    each pair's exact ``psum1*a + psum2`` times ``x_scale * w_scale`` adds in
    ascending group order into zeros, in place (see the module docstring)."""
    _check_operands(x_codes, w_levels)
    return _fold(x_codes, x_scales, w_levels, w_scales, lengths)


def _fold(x_codes, x_scales, w_levels, w_scales, lengths) -> np.ndarray:
    """:func:`grouped_dot` of levels of any dtype that holds them exactly,
    such as the KV cache's float32 operands.  With one row per batch entry
    the scale product is a row times one number, a broadcast multiply; with
    more rows it is ``einsum``'s outer product, faster over short rows
    (CHANGES.md).
    """
    batch = x_codes.shape[:-3]
    if batch != w_levels.shape[:-3]:   # np.broadcast_shapes alone costs about 4 us
        batch = np.broadcast_shapes(batch, w_levels.shape[:-3])
    out = np.zeros(batch + (x_codes.shape[-3], w_levels.shape[-3]))
    lengths = np.asarray(lengths).tolist()
    one_row, full, size = out.shape[-2] == 1, 0, w_levels.shape[-1]
    # operands already in their exact dtype give the leading full-length groups at
    # once, their axis moved before the rows; others convert one group at a time
    if one_row and w_levels.dtype == _exact_dtype(size):
        full = next((g for g, length in enumerate(lengths) if length != size), len(lengths))
    if full:
        # in C order whatever the scales' layouts: the group axis is not the fast one
        terms = np.multiply(x_scales[..., 0, :full, None, None],
                            w_scales[..., :full].swapaxes(-1, -2)[..., None, :], order="C")
        terms *= _exact_psums(x_codes[..., :full, :size].swapaxes(-3, -2),
                              w_levels[..., :full, :].swapaxes(-3, -2))
        if out.shape[-1] > 1:   # so numpy's inner loop runs along N, adding groups in order
            np.add.reduce(terms, axis=-3, out=out, initial=0.0)
        else:
            for g in range(full):
                out += terms[..., g, :, :]
    scale = np.empty_like(out) if full < len(lengths) else None
    for g in range(full, len(lengths)):
        length = lengths[g]
        psum = _exact_psums(x_codes[..., g, :length], w_levels[..., g, :length])
        if one_row:
            np.multiply(x_scales[..., g, None], w_scales[..., None, :, g], out=scale)
        else:
            np.einsum("...i,...j->...ij", x_scales[..., g], w_scales[..., g], out=scale)
        scale *= psum
        out += scale
    return out


OPERAND_TILE = 256   # weight rows per step of the operand build, its transposes cache-sized


def weight_operand(w_q: QuantizedTensor) -> np.ndarray:
    """The read-only ``(n_groups, G, rows)`` copy of ``w_q.levels`` in
    :func:`_exact_dtype` of G that ``gemm`` multiplies, built on the first
    call and kept on ``w_q`` while its ``levels`` stay the same object.  The
    build marks ``levels`` read-only, so an in-place write through it, which
    would leave the copy stale, raises ValueError (a write through another
    view of its memory is not seen); new levels (``dataclasses.replace``)
    build a new copy."""
    levels = w_q.levels
    cached = w_q.__dict__.get("_operand")
    if cached is not None and cached[0] is levels:
        return cached[1]
    levels.setflags(write=False)
    rows, n_groups, size = levels.shape
    operand = np.empty((n_groups, size, rows), _exact_dtype(size))
    for start in range(0, rows, OPERAND_TILE):
        tile = slice(start, start + OPERAND_TILE)
        operand[..., tile] = levels[tile].transpose(1, 2, 0)
    operand.setflags(write=False)
    w_q._operand = (levels, operand)
    return operand


def gemm(x_q: QuantizedTensor, w_q: QuantizedTensor) -> np.ndarray:
    """Fused INT8 x (4-bit or INT8) matrix multiply, (M,K) x (K,N) -> (M,N)
    float64.

    Both operands must be grouped along K with the same group size; one
    :func:`grouped_dot` fold over the K groups, of the codes against the
    weight's :func:`weight_operand`, covers all rows and columns.  Levels of
    another dtype, or metadata that :meth:`QuantizedTensor.check_metadata`
    refuses, raise ValueError before any operand is built.
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
    _check_operands(x_q.levels, w_q.levels)
    x_q.check_metadata()
    w_q.check_metadata()
    # the fold reads the operand's (N, n_groups, G) view, each group's transpose
    # contiguous, and column-major scales, each column of an outer product contiguous
    return _fold(x_q.levels, np.asfortranarray(x_q.scales), weight_operand(w_q).transpose(2, 0, 1),
                 np.asfortranarray(w_q.scales), group_lengths(x_q.axis_length, x_q.group_size))


def dequantized_gemm(x_q: QuantizedTensor, w_q: QuantizedTensor) -> np.ndarray:
    """Reference path: dequantize both operands, multiply in real arithmetic."""
    return x_q.dequantize() @ w_q.dequantize()
