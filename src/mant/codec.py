"""Group-wise encode/decode of tensors.

Weights and KV-cache groups are encoded to 4-bit sign-magnitude codes on an
adaptive grid (or, via a sentinel coefficient, to plain signed INT4);
activation groups are encoded to symmetric INT8.  Every group carries a
scaling factor and its coefficient as metadata.

Three batched kernels do all the work on zero-padded groups ``(..., G)``
with per-group metadata ``(...)``: :func:`encode_groups` (4-bit),
:func:`encode_int8` (which rounds by :func:`round_int8`, the one INT8
rule) and :func:`decode_groups`.  Tensor codecs call them once per tensor
and return a :class:`QuantizedTensor`; the single-group functions are the
tensor codecs on a one-group tensor.  A tensor keeps one array per code,
its pre-scale value (``levels``, see :func:`code_values`), and derives codes.

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

from .grid import GRID_POINTS, MAX_COEFFICIENT, build_grid

DEFAULT_GROUP_SIZE = 64
MAX_GROUP_SIZE = 0xFFFF  # group lengths are stored as u16

# Sentinel coefficients stored in group metadata for non-adaptive groups.
INT4_COEFF = 128
INT8_COEFF = 255

SIGN_BIT = 0x8
MAGNITUDE_MASK = 0x7

KIND_MANT4 = "mant4"
KIND_INT8 = "int8"

# Pre-scale magnitudes of every 4-bit coefficient: rows 0..127 are the
# adaptive grids, row INT4_COEFF the plain INT4 ladder 0..7.
_MAGNITUDES = np.array([build_grid(a).magnitudes for a in range(MAX_COEFFICIENT + 1)]
                       + [tuple(range(GRID_POINTS))], dtype=np.float64)
# Pre-scale integer value (level) of every (coefficient, nibble) pair:
# |level| <= 127*7 + 2**7 = 1017.
_CODE_LEVELS = np.concatenate([_MAGNITUDES, -_MAGNITUDES], axis=1).astype(np.int16)
# Midpoints between adjacent magnitudes: half-integers, so exact.
_MIDPOINTS = (_MAGNITUDES[:, 1:] + _MAGNITUDES[:, :-1]) / 2
# Nibble of every (coefficient, level + _LEVEL_OFFSET): 0xFF (pack_codes refuses it) off the
# grid and at the edges, where clipped levels land.  Negatives first: INT4's 0 is 0, not 8.
_LEVEL_OFFSET = int(np.abs(_CODE_LEVELS).max()) + 1
_CODE_NIBBLES = np.full((len(_CODE_LEVELS), 2 * _LEVEL_OFFSET + 1), 0xFF, dtype=np.uint8)
for _nibbles in (np.arange(GRID_POINTS, 2 * GRID_POINTS), np.arange(GRID_POINTS)):
    np.put_along_axis(_CODE_NIBBLES, _CODE_LEVELS[:, _nibbles] + _LEVEL_OFFSET, _nibbles[None], axis=1)
for _table in (_MAGNITUDES, _CODE_LEVELS, _MIDPOINTS, _CODE_NIBBLES):
    _table.setflags(write=False)


def _mant4_coefficients(coefficients):
    """Validated 4-bit coefficients (integers in 0..127 or INT4_COEFF) as
    table indices; booleans, fractions and NaN raise rather than truncate."""
    coeffs = np.asarray(coefficients)
    # a sequence that mixes booleans into integers converts to an integer array
    items = () if isinstance(coefficients, np.ndarray) else np.asarray(coefficients, object).flat
    if coeffs.dtype.kind not in "iuf" or any(isinstance(c, (bool, np.bool_)) for c in items) \
            or coeffs.dtype.kind == "f" and (np.floor(coeffs) != coeffs).any():
        raise ValueError(f"coefficients must be integers, got {coefficients!r}")
    bad = (coeffs < 0) | (coeffs > INT4_COEFF)
    if bad.any():
        raise ValueError(f"coefficient out of range: {coeffs[bad].flat[0]}")
    return coeffs.astype(np.intp)


def magnitude_values(a: int) -> np.ndarray:
    """Pre-scale magnitudes indexed by the 3-bit magnitude field."""
    if a == INT8_COEFF:
        raise ValueError("INT8 groups have no 4-bit magnitude table")
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
    if not np.isfinite(values).all():
        raise ValueError("input contains non-finite values")


# -- batched kernels: groups (..., G) with per-group metadata (...) ---------

def encode_groups(groups, coefficients):
    """Encode zero-padded groups ``(..., G)`` to 4-bit codes and scales.

    ``coefficients`` holds one coefficient for all groups, or an array that
    broadcasts to the groups' lead shape ``(...)``, such as one per group or
    ``(options, 1)`` over a stack of candidate options (INT4_COEFF: the
    plain INT4 grid).  The scale is ``max|group|`` over the
    top magnitude ``magnitude_values(a)[-1]``.  Each element's magnitude
    index is the number of midpoints between adjacent magnitudes that
    ``|value| / scale`` strictly exceeds: the nearest magnitude, the smaller
    one on ties.  The sign bit is set when negative, except on an INT4 zero.
    Padding encodes to 0, and a zero-scale group to all zeros.
    """
    groups = np.asarray(groups, dtype=np.float64)
    _check_finite(groups)
    lead = groups.shape[:-1]
    coeffs = _mant4_coefficients(coefficients)
    if coeffs.ndim and coeffs.shape != lead and (
            coeffs.ndim > len(lead)
            or any(c not in (1, n) for c, n in zip(coeffs.shape[::-1], lead[::-1]))):
        raise ValueError(f"coefficients shape {coeffs.shape} does not broadcast to groups {lead}")
    normalized = np.abs(groups)
    scales = normalized.max(axis=-1, initial=0.0) / _MAGNITUDES[coeffs, -1]
    silent = scales == 0.0
    normalized /= np.where(silent, 1.0, scales)[..., None]
    midpoints = _MIDPOINTS[coeffs][..., None, :]
    codes = np.zeros(groups.shape, dtype=np.uint8)
    above = np.empty(groups.shape, dtype=bool)
    for k in range(GRID_POINTS - 1):
        np.greater(normalized, midpoints[..., k], out=above)
        codes += above.view(np.uint8)
    # magnitude 0 of the INT4 grid decodes to exact zero; keep its sign canonical
    negative = (groups < 0) & ((codes != 0) | (coeffs != INT4_COEFF)[..., None])
    codes |= negative.view(np.uint8) << 3
    codes[silent] = 0
    return codes, scales


def round_int8(scaled) -> np.ndarray:
    """INT8 codes of pre-scaled values: round half away from zero, clamp to
    [-127, 127] (never -128).  The clamp moves exactly ``|scaled| >= 127.5``."""
    codes = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    return np.clip(codes, -127, 127).astype(np.int8)


def encode_int8(groups):
    """Encode zero-padded groups ``(..., G)`` to symmetric INT8 codes and
    scales: ``scale = max|group| / 127``, codes by :func:`round_int8`."""
    groups = np.asarray(groups, dtype=np.float64)
    _check_finite(groups)
    scales = np.abs(groups).max(axis=-1, initial=0.0) / 127.0
    return round_int8(groups / np.where(scales == 0.0, 1.0, scales)[..., None]), scales


def decode_groups(codes, coefficients, scales) -> np.ndarray:
    """Decode groups ``(..., G)`` back to reals; coefficients and scales hold
    one value for all groups or one per group.

    Each uint8 nibble's :func:`code_values` level on its group's grid, times
    the group's scale.  Zero-scale groups decode to zeros.
    """
    return _scale_levels(code_values(codes, coefficients), scales)


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
    see :func:`encode_groups` for the scale and the rounding."""
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


def packed_group_bytes(kind: str, length):
    """Payload bytes of a group of ``length`` elements (or of each length)."""
    if kind == KIND_MANT4:
        return (length + 1) // 2
    if kind == KIND_INT8:
        return length
    raise ValueError(f"unknown element kind {kind!r}")


# -- grouping --------------------------------------------------------------------

def group_lengths(axis_len: int, group_size: int) -> np.ndarray:
    """True length of each group along an axis of ``axis_len`` elements."""
    if not isinstance(group_size, (int, np.integer)) or not 1 <= group_size <= MAX_GROUP_SIZE:
        raise ValueError(f"group size must be an integer in 1..{MAX_GROUP_SIZE}, got {group_size!r}")
    n_groups = -(-axis_len // group_size)
    lengths = np.full(n_groups, group_size, dtype=np.uint16)
    lengths[n_groups - 1:] = axis_len - (n_groups - 1) * group_size
    return lengths


def split_runs(rows, group_size: int) -> list[np.ndarray]:
    """The groups along the last axis of ``rows`` as contiguous runs of equal
    length: the full groups ``(..., n_full, G)`` and the tail ``(..., 1,
    length)``, if not empty.  Sums along a run's last axis add each group in
    the order a sum over it alone does; zero padding would change that."""
    rows = np.asarray(rows)
    n_full = np.count_nonzero(group_lengths(rows.shape[-1], group_size) == group_size)
    split = n_full * group_size
    runs = (rows[..., :split].reshape(rows.shape[:-1] + (n_full, group_size)),
            rows[..., split:][..., None, :])
    return [np.ascontiguousarray(run) for run in runs if run.shape[-2] and run.shape[-1]]


def to_groups(rows, group_size: int) -> np.ndarray:
    """Zero-padded groups ``(..., n_groups, G)`` of the last axis of ``rows``."""
    rows = np.asarray(rows, dtype=np.float64)
    n_groups = group_lengths(rows.shape[-1], group_size).size
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
    0's level past each group's true length; the arrays may be views.
    """

    shape: tuple[int, ...]
    element_kind: str
    group_axis: int
    group_size: int
    levels: np.ndarray
    scales: np.ndarray        # (rows, n_groups) float64
    coefficients: np.ndarray  # (rows, n_groups) uint8

    @property
    def codes(self) -> np.ndarray:
        """``levels`` for INT8, else their uint8 nibbles (0xFF for a level off its grid)."""
        if self.element_kind == KIND_INT8:
            return self.levels
        rows = _mant4_coefficients(self.coefficients)[..., None] * _CODE_NIBBLES.shape[1] + _LEVEL_OFFSET
        return _CODE_NIBBLES.reshape(-1)[rows + np.clip(self.levels, -_LEVEL_OFFSET, _LEVEL_OFFSET)]

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

    def dequantize(self) -> np.ndarray:
        """Reconstruct the full real-valued tensor."""
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
    codes, scales = encode_groups(to_groups(tensor_rows(values, group_axis), group_size),
                                  coefficients)
    coeffs = np.broadcast_to(coefficients, scales.shape).astype(np.uint8)
    return QuantizedTensor(np.shape(values), KIND_MANT4, group_axis, group_size,
                           code_values(codes, coeffs), scales, coeffs)
