"""Group-wise encode/decode of tensors.

Weights and KV-cache groups are encoded to 4-bit sign-magnitude codes on an
adaptive grid (or, via a sentinel coefficient, to plain signed INT4);
activation groups are encoded to symmetric INT8.  Every group carries a
scaling factor and its coefficient as metadata.

Two batched encoders do all the work on zero-padded groups ``(..., G)``
with per-group metadata ``(...)``: :func:`encode_levels` (4-bit) and
:func:`encode_int8` (which rounds by :func:`round_int8`, the one INT8
rule).  Tensor codecs call them once per tensor and return a
:class:`QuantizedTensor`; the single-group functions are the tensor codecs
on a one-group tensor.  A tensor keeps one array per code, its pre-scale
value (``levels``), and decodes by scaling it.  Nibbles exist only at the
file boundary: ``QuantizedTensor.codes`` for the writer, :func:`code_values`
for the reader.

The 4-bit encoder rounds ``x = |value| / scale`` to the nearest grid
magnitude, the smaller one on a tie: the one above as many midpoints as
``2x`` strictly exceeds.  Doubled midpoints are integers, and an integer
``p`` is below ``2x`` exactly when it is below ``ceil(2x)``, so one gather
from a table indexed by coefficient and ``ceil(2x)`` gives each level.
Each table row covers ``2x <= 3 * top``, the most a subnormal scale's
rounding allows.  The sign comes from ``value < 0``: ``-0.0`` stays
positive, a negative value whose ``x`` underflows to 0 keeps its sign, and
a zero-scale group drops its signs.

Code layout: a 4-bit code is one byte holding ``sign << 3 | magnitude``
(sign bit 1 means negative).  Two codes pack into one payload byte, low
nibble first.

Scales are kept at full float64 precision in memory; the container layer
(see :mod:`mant.container`) rounds them to IEEE half when serializing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GRID_POINTS, MAX_COEFFICIENT, as_integer, build_grid

DEFAULT_GROUP_SIZE = 64
MAX_GROUP_SIZE = 0xFFFF  # group lengths are stored as u16

# Sentinel coefficients stored in group metadata for non-adaptive groups.
INT4_COEFF = 128
INT8_COEFF = 255

SIGN_BIT = 0x8

KIND_MANT4 = "mant4"
KIND_INT8 = "int8"

# Pre-scale magnitudes of every 4-bit coefficient: rows 0..127 are the
# adaptive grids, row INT4_COEFF the plain INT4 ladder 0..7.
_MAGNITUDES = np.array([build_grid(a).magnitudes for a in range(MAX_COEFFICIENT + 1)]
                       + [tuple(range(GRID_POINTS))], dtype=np.float64)
# Pre-scale integer value (level) of every (coefficient, nibble) pair:
# |level| <= 127*7 + 2**7 = 1017.
_CODE_LEVELS = np.concatenate([_MAGNITUDES, -_MAGNITUDES], axis=1).astype(np.int16)
# Nibble of every (coefficient, level + _LEVEL_OFFSET): 0xFF (pack_codes refuses it) off the
# grid and at the edges, where clipped levels land.  Negatives first: INT4's 0 is 0, not 8.
_LEVEL_OFFSET = int(np.abs(_CODE_LEVELS).max()) + 1
_CODE_NIBBLES = np.full((len(_CODE_LEVELS), 2 * _LEVEL_OFFSET + 1), 0xFF, dtype=np.uint8)
for _nibbles in (np.arange(GRID_POINTS, 2 * GRID_POINTS), np.arange(GRID_POINTS)):
    np.put_along_axis(_CODE_NIBBLES, _CODE_LEVELS[:, _nibbles] + _LEVEL_OFFSET, _nibbles[None], axis=1)

_TWO_52 = 2.0 ** 52
_TWO_52_BITS = np.float64(_TWO_52).view(np.int64)


def _ceiling_levels():
    """Positive level of every (coefficient, ceil(2x)) for a normalized
    magnitude x, one row per coefficient in one flat table, and each row's
    start plus 2**52 (see :func:`encode_levels`): the count of doubled
    midpoints below ceil(2x) indexes the magnitudes.  A scale is within half
    a subnormal of ``max / top``, so ``2x <= 3 * top`` and a row of
    3 * top + 1 entries holds every index."""
    widths = 3 * _MAGNITUDES[:, -1].astype(np.intp) + 1
    starts = np.cumsum(widths) - widths
    table = np.empty(widths.sum(), dtype=np.int16)
    for start, width, mags in zip(starts, widths, _MAGNITUDES):   # row by row keeps imports small
        table[start:start + width] = mags[np.searchsorted(mags[1:] + mags[:-1], np.arange(width))]
    return table, starts + _TWO_52


_CEILING_LEVELS, _BIASED_ROWS = _ceiling_levels()
_TOPS = _MAGNITUDES[:, -1].copy()
for _table in (_MAGNITUDES, _CODE_LEVELS, _CODE_NIBBLES, _CEILING_LEVELS, _BIASED_ROWS, _TOPS):
    _table.setflags(write=False)


def _mant4_coefficients(coefficients) -> np.ndarray:
    """4-bit coefficients (0..127, or INT4_COEFF) as intp table indices; a
    list is checked element by element (as an array, True would be 1)."""
    if isinstance(coefficients, (list, tuple)):
        return np.array([_mant4_coefficients(a) for a in coefficients], dtype=np.intp)
    return np.asarray(as_integer(coefficients, "coefficient", 0, INT4_COEFF))


def magnitude_values(a: int) -> np.ndarray:
    """Pre-scale magnitudes indexed by the 3-bit magnitude field (none for INT8)."""
    return _MAGNITUDES[_mant4_coefficients(a)]


def code_values(codes, coefficients) -> np.ndarray:
    """Pre-scale integer values (levels) of uint8 nibbles ``(..., G)`` as
    int16, under one coefficient for all groups or one per group:
    ``sign * (a*m + 2**m)`` on an adaptive grid, ``sign * m`` on the INT4
    grid."""
    codes = np.asarray(codes)
    if codes.dtype != np.uint8:
        raise ValueError(f"codes must be uint8 nibbles, got {codes.dtype}")
    if codes.max(initial=0) > 0xF:
        raise ValueError("codes exceed 4 bits")
    # one flat index into the table gathers faster than a (row, code) pair
    rows = _mant4_coefficients(coefficients) * _CODE_LEVELS.shape[1]
    return _CODE_LEVELS.reshape(-1)[rows[..., None] + codes]


def _check_finite(values: np.ndarray) -> None:
    """Raise ValueError unless every value is finite, warning of nothing: the
    largest ``|value|`` is inf or NaN where one is.  Groups are checked on
    their ``max|x|``, a reduction that has already met any such value."""
    if not np.maximum.reduce(np.abs(values), axis=None, initial=0.0) < np.inf:
        raise ValueError("input contains non-finite values")


def check_scales(scales: np.ndarray, name: str = "scale") -> None:
    """Raise ValueError unless every scale is finite with its sign bit clear,
    the container's rule for a scale (``-0.0`` is refused too)."""
    bad = ~np.isfinite(scales) | np.signbit(scales)
    if bad.any():
        raise ValueError(f"{name} {scales[bad][0]} is not finite and non-negative")


def misfit_coefficients(kind: str, coefficients) -> np.ndarray:
    """Where ``coefficients`` do not fit ``kind`` codes, the container's rule:
    above INT4_COEFF for 4-bit codes, anything but INT8_COEFF for INT8."""
    return coefficients > INT4_COEFF if kind == KIND_MANT4 else coefficients != INT8_COEFF


# -- batched kernels: groups (..., G) with per-group metadata (...) ---------

def encode_levels(groups, coefficients):
    """Encode zero-padded groups ``(..., G)`` to int16 levels and scales.

    ``coefficients`` holds one coefficient for all groups, or an array that
    broadcasts to the groups' lead shape ``(...)``, such as one per group or
    ``(options, 1)`` over a stack of candidate options (INT4_COEFF: the
    plain INT4 grid).  The scale is ``max|group|`` over the top magnitude
    ``magnitude_values(a)[-1]``.  Each element takes the magnitude nearest
    to ``x = |value| / scale``, the smaller one on ties: the one above as
    many midpoints as ``2x`` strictly exceeds.  Doubled midpoints are
    integers, so that count is read from a table at ``ceil(2x)``.  The level
    is negative when the value is, except on an INT4 zero.  Padding encodes
    to code 0's level, and so does every element of a zero-scale group.
    """
    groups = np.asarray(groups, dtype=np.float64)
    lead = groups.shape[:-1]
    coeffs = _mant4_coefficients(coefficients)
    if coeffs.ndim and coeffs.shape != lead and (
            coeffs.ndim > len(lead)
            or any(c not in (1, n) for c, n in zip(coeffs.shape[::-1], lead[::-1]))):
        raise ValueError(f"coefficients shape {coeffs.shape} does not broadcast to groups {lead}")
    return _encode_levels(groups, coeffs)


def _encode_levels(groups, coeffs):
    """:func:`encode_levels` of float64 groups under coefficients already
    known to be 4-bit (a variance table's, or checked)."""
    magnitudes = np.abs(groups)
    absmax = np.maximum.reduce(magnitudes, axis=-1, initial=0.0)
    _check_finite(absmax)
    return _encode_magnitudes(groups, magnitudes, absmax, coeffs)


def _encode_magnitudes(groups, doubled, absmax, coeffs):
    """:func:`_encode_levels` of finite groups from their ``|x|``, a float64
    array it overwrites, and their ``max|x|``."""
    scales = absmax / _TOPS.take(coeffs)
    silent = None if scales.all() else scales == 0.0
    doubled /= (scales if silent is None else np.where(silent, np.inf, scales))[..., None]
    doubled *= 2
    np.ceil(doubled, out=doubled)
    # ceil(2x) + row start is an integer below 2**52, so adding 2**52 is exact and
    # leaves it in the low bits: a faster conversion than a float-to-int cast
    doubled += _BIASED_ROWS.take(coeffs)[..., None]
    index = doubled.view(np.int64)
    index -= _TWO_52_BITS
    # every index is in range (see _ceiling_levels), and mode "clip" skips the check
    levels = _CEILING_LEVELS.take(index, mode="clip")
    # 1 - 2*(value < 0): -0.0 and the values of a zero-scale group stay positive
    sign = (groups < 0).view(np.int8)
    if silent is not None:
        sign[np.broadcast_to(silent, groups.shape[:-1])] = 0
    sign *= -2
    sign += 1
    levels *= sign
    return levels, scales


def _level_nibbles(levels, coefficients) -> np.ndarray:
    """Nibbles of 4-bit levels under their coefficients (0xFF for a level off its grid)."""
    rows = _mant4_coefficients(coefficients)[..., None] * _CODE_NIBBLES.shape[1] + _LEVEL_OFFSET
    return _CODE_NIBBLES.reshape(-1)[rows + np.clip(levels, -_LEVEL_OFFSET, _LEVEL_OFFSET)]


def round_int8(scaled) -> np.ndarray:
    """INT8 codes of pre-scaled values: round half away from zero, clamp to
    [-127, 127] (never -128).  The clamp moves exactly ``|scaled| >= 127.5``."""
    return _round_magnitudes(np.abs(scaled, dtype=np.float64), scaled)


def _round_magnitudes(magnitudes, signs) -> np.ndarray:
    """:func:`round_int8` of the values with float64 ``magnitudes``, which it
    rounds in place, and the signs of ``signs``."""
    magnitudes += 0.5
    np.floor(magnitudes, out=magnitudes)
    np.minimum(magnitudes, 127.0, out=magnitudes)
    return np.copysign(magnitudes, signs, out=magnitudes).astype(np.int8)


def encode_int8(groups):
    """Encode zero-padded groups ``(..., G)`` to symmetric INT8 codes and
    scales: ``scale = max|group| / 127``, codes by :func:`round_int8` of
    ``group / scale`` (``group`` on a zero scale), in place on ``|group|``:
    IEEE division is symmetric in sign, so ``|v| / scale == |v / scale|``."""
    groups = np.asarray(groups, dtype=np.float64)
    magnitudes = np.abs(groups)
    absmax = np.maximum.reduce(magnitudes, axis=-1, initial=0.0)
    _check_finite(absmax)
    scales = absmax / 127.0
    magnitudes /= (scales if scales.all() else np.where(scales == 0.0, 1.0, scales))[..., None]
    return _round_magnitudes(magnitudes, groups), scales


def _scale_levels(levels, scales) -> np.ndarray:
    scales = np.asarray(scales, dtype=np.float64)
    values = levels * scales[..., None]
    values[scales == 0.0] = 0.0
    return values


# -- single-group API ----------------------------------------------------------

def _group(values) -> np.ndarray:
    """``values`` as one group: a non-empty 1-D float64 array."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"a group is a 1-D array, got shape {values.shape}")
    if not values.size:
        raise ValueError("the group is empty")
    return values


def quantize_weight_group(values, a: int) -> QuantizedTensor:
    """One group of reals as a one-group 4-bit tensor on the grid of ``a``;
    see :func:`encode_levels` for the scale and the rounding."""
    values = _group(values)
    return quantize_weight_tensor(values, a, 0, values.size)


def quantize_activation_group(values) -> QuantizedTensor:
    """One group of reals as a one-group INT8 tensor (see :func:`encode_int8`)."""
    values = _group(values)
    return quantize_activation_tensor(values, 0, values.size)


def pack_codes(codes) -> bytes:
    """Pack 4-bit codes two per byte, low nibble first (odd tail pads 0)."""
    codes = np.asarray(codes, dtype=np.uint8).reshape(-1)
    if np.any(codes > 0xF):
        raise ValueError("codes exceed 4 bits")
    if codes.size % 2:
        codes = np.append(codes, np.uint8(0))
    return (codes[0::2] | (codes[1::2] << 4)).tobytes()


def unpack_codes(payload: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`pack_codes` for ``count`` codes."""
    if len(payload) != (count + 1) // 2:
        raise ValueError(f"payload holds {len(payload)} bytes, expected {(count + 1) // 2} for {count} codes")
    packed = np.frombuffer(payload, dtype=np.uint8)
    codes = np.empty(2 * packed.size, dtype=np.uint8)
    codes[0::2] = packed & 0xF
    codes[1::2] = packed >> 4
    return codes[:count]


def row_payload_bytes(axis_len: int, group_size: int, bits: int) -> int:
    """Payload bytes of a row of ``axis_len`` codes of ``bits`` bits: its full
    groups, each padded to whole bytes, then its tail."""
    full, tail = divmod(axis_len, group_size)
    return full * -(-group_size * bits // 8) + -(-tail * bits // 8)


# -- grouping --------------------------------------------------------------------

def group_lengths(axis_len: int, group_size: int) -> np.ndarray:
    """True length of each group along an axis of ``axis_len`` elements."""
    group_size = as_integer(group_size, "group size", 1, MAX_GROUP_SIZE)
    n_groups = -(-axis_len // group_size)
    lengths = np.full(n_groups, group_size, dtype=np.uint16)
    lengths[n_groups - 1:] = axis_len - (n_groups - 1) * group_size
    return lengths


def to_groups(rows, group_size: int) -> np.ndarray:
    """Zero-padded groups ``(..., n_groups, G)`` of the last axis of ``rows``."""
    rows = np.asarray(rows, dtype=np.float64)
    group_size = as_integer(group_size, "group size", 1, MAX_GROUP_SIZE)
    n_groups = -(-rows.shape[-1] // group_size)
    if n_groups * group_size != rows.shape[-1]:
        padded = np.zeros(rows.shape[:-1] + (n_groups * group_size,))
        padded[..., :rows.shape[-1]] = rows
        rows = padded
    return rows.reshape(rows.shape[:-1] + (n_groups, group_size))


@dataclass
class QuantizedTensor:
    """A group-quantized tensor with per-group metadata.

    Groups run along ``group_axis`` (the accumulation axis).  Rows are the
    flattened remaining axes in row-major order; group ``g`` of row ``r``
    covers elements ``[g*group_size, min((g+1)*group_size, axis_len))``.
    ``levels`` (rows, n_groups, group_size), the one per-element array, holds
    int16 :func:`code_values` of 4-bit codes or INT8's int8 codes, and code
    0's level past each group's true length; the arrays may be views.  A
    weight that ``gemm`` has multiplied keeps its matmul operand
    (:func:`gemm.weight_operand`) in ``_operand``, and its ``levels`` are
    read-only from then on: ``dataclasses.replace`` gives a tensor new ones.
    """

    shape: tuple[int, ...]
    element_kind: str
    group_axis: int
    group_size: int
    levels: np.ndarray
    scales: np.ndarray        # (rows, n_groups) float64
    coefficients: np.ndarray  # (rows, n_groups) uint8

    def __post_init__(self):
        self.group_size = as_integer(self.group_size, "group size", 1, MAX_GROUP_SIZE)

    @property
    def codes(self) -> np.ndarray:
        """``levels`` for INT8, else their uint8 nibbles (0xFF for a level off its grid)."""
        if self.element_kind == KIND_INT8:
            return self.levels
        return _level_nibbles(self.levels, self.coefficients)

    @property
    def axis_length(self) -> int:
        return self.shape[self.group_axis]

    @property
    def n_groups(self) -> int:
        return -(-self.axis_length // self.group_size)

    @property
    def n_rows(self) -> int:
        rest = list(self.shape)
        del rest[self.group_axis]   # dividing the size by the axis length fails on an empty axis
        return math.prod(rest)

    @property
    def group_lengths(self) -> np.ndarray:
        """True length of every group, a read-only (rows, n_groups) uint16 view."""
        return np.broadcast_to(group_lengths(self.axis_length, self.group_size),
                               (self.n_rows, self.n_groups))

    def split_rows(self, *row_shape: int):
        """``(codes, scales, coefficients)``, rows split into ``row_shape`` (views but codes)."""
        return tuple(a.reshape(row_shape + a.shape[1:])
                     for a in (self.codes, self.scales, self.coefficients))

    def check_metadata(self) -> None:
        """Raise ValueError on a scale that is not finite or has its sign bit
        set, or a coefficient that does not fit the codes (the container's rules)."""
        check_scales(self.scales)
        bad = misfit_coefficients(self.element_kind, self.coefficients)
        if bad.any():
            raise ValueError(f"coefficient {self.coefficients[bad][0]} does not fit "
                             f"{self.element_kind} codes")

    def dequantize(self) -> np.ndarray:
        """Reconstruct the full real-valued tensor; metadata that
        :meth:`check_metadata` refuses raises ValueError."""
        self.check_metadata()
        groups = _scale_levels(self.levels, self.scales)
        rows = groups.reshape(self.n_rows, self.n_groups * self.group_size)
        return _rows_to_tensor(np.ascontiguousarray(rows[:, :self.axis_length]),
                               self.shape, self.group_axis)


def tensor_rows(values, group_axis: int) -> np.ndarray:
    """A tensor's :class:`QuantizedTensor` rows, contiguous float64 ``(n_rows, axis_len)``."""
    values = np.asarray(values, dtype=np.float64)   # moveaxis costs a few us even as a no-op
    moved = values if group_axis == values.ndim - 1 else np.moveaxis(values, group_axis, -1)
    return np.ascontiguousarray(moved).reshape(math.prod(moved.shape[:-1]), moved.shape[-1])


def _rows_to_tensor(rows: np.ndarray, shape: tuple[int, ...], axis: int) -> np.ndarray:
    moved_shape = tuple(shape[i] for i in range(len(shape)) if i != axis) + (shape[axis],)
    return np.moveaxis(rows.reshape(moved_shape), -1, axis)


def quantize_activation_tensor(values, group_axis: int, group_size: int = DEFAULT_GROUP_SIZE) -> QuantizedTensor:
    """Quantize a tensor to group-wise INT8 along ``group_axis``."""
    codes, scales = encode_int8(to_groups(tensor_rows(values, group_axis), group_size))
    coeffs = np.full(scales.shape, INT8_COEFF, dtype=np.uint8)
    return QuantizedTensor(np.shape(values), KIND_INT8, group_axis, group_size,
                           codes, scales, coeffs)


def quantize_weight_tensor(values, coefficients, group_axis: int = 0,
                           group_size: int = DEFAULT_GROUP_SIZE) -> QuantizedTensor:
    """Quantize a tensor to group-wise 4-bit codes along ``group_axis``, with
    one coefficient for all groups or a (rows, n_groups) array of them."""
    levels, scales = encode_levels(to_groups(tensor_rows(values, group_axis), group_size),
                                   coefficients)
    coeffs = np.broadcast_to(coefficients, scales.shape).astype(np.uint8)
    return QuantizedTensor(np.shape(values), KIND_MANT4, group_axis, group_size, levels, scales,
                           coeffs)
