"""Binary container formats.

Quantized container (magic "MNTQ", little-endian):
    magic       4s
    version     u16   (currently 1)
    element_kind u8   (0 = 4-bit codes, 1 = INT8)
    group_size  u16
    ndim        u8
    dims        u64 * ndim
    group_axis  u8
    group metadata, one record per group in row-major (row, group) order:
        scale     u16 (IEEE binary16 bits)
        a         u8
        group_len u16
    payload: each row's full groups, each padded to whole bytes, then its
    tail (two 4-bit codes per byte, low nibble first, so an odd-length
    4-bit group ends on a zero pad nibble; INT8 codes one byte each).

Raw tensor container (magic "MNTT"):
    magic 4s, version u16 (currently 1, versioned apart from MNTQ), dtype u8
    (0 = float32), ndim u8, dims u64 * ndim, row-major float32 payload.

Scales are rounded to IEEE half on write; files round-trip bit-exactly.
:func:`write_quantized` returns the tensor the file holds, so a caller
never reads back what it just wrote.
"""

from __future__ import annotations

import dataclasses
import io
import logging
import math
import struct
from typing import BinaryIO

import numpy as np

from .codec import (
    INT4_COEFF,
    INT8_COEFF,
    KIND_INT8,
    KIND_MANT4,
    SIGN_BIT,
    QuantizedTensor,
    code_values,
    pack_codes,
    row_payload_bytes,
    unpack_codes,
)

QUANT_MAGIC = b"MNTQ"
TENSOR_MAGIC = b"MNTT"
FORMAT_VERSION = 1
TENSOR_VERSION = 1

log = logging.getLogger("mant")

_KIND_CODES = {KIND_MANT4: 0, KIND_INT8: 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


class ContainerError(ValueError):
    """Malformed or inconsistent container data."""


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    """``n`` bytes of seekable ``fh``, refused before the read if fewer are left."""
    here = fh.tell()
    left = fh.seek(0, io.SEEK_END) - here
    fh.seek(here)
    if n > left:
        raise ContainerError(f"truncated container: wanted {n} bytes, {left} left")
    data = fh.read(n)
    if len(data) != n:
        raise ContainerError(f"truncated container: wanted {n} bytes, got {len(data)}")
    return data


def half_scales(scales) -> tuple[np.ndarray, int, int]:
    """IEEE binary16 bit patterns of scales (round to nearest, clamp to
    finite), then the counts of scales IEEE half cannot hold: nonzero scales
    that round to 0 (underflow) and scales that clamp to 65504 (overflow)."""
    scales = np.asarray(scales, dtype=np.float64)
    with np.errstate(over="ignore"):
        half = scales.astype(np.float16)
    overflow = np.isinf(half)
    bits = np.where(overflow, np.copysign(np.float16(65504.0), half), half).view(np.uint16)
    underflow = np.count_nonzero((half == 0) & (scales != 0.0))
    return bits, int(underflow), int(np.count_nonzero(overflow))


# One metadata record per group, packed: fp16 scale bits, coefficient, length.
_RECORD = np.dtype([("scale", "<u2"), ("a", "u1"), ("length", "<u2")])


def write_quantized(fh: BinaryIO, qt: QuantizedTensor) -> QuantizedTensor:
    """Serialize a quantized tensor; scales are rounded to IEEE half, with a
    warning on the ``mant`` logger when some flush to 0 or clamp to 65504.

    Returns the tensor the file holds: ``qt`` with the written half scales,
    as :func:`read_quantized` would give them (levels and coefficients are
    ``qt``'s own arrays).  A 4-bit level off its grid has no code: ValueError."""
    records = np.empty(qt.scales.shape, dtype=_RECORD)
    records["scale"], underflow, overflow = half_scales(qt.scales)
    records["a"] = qt.coefficients
    # lengths by slices, as the reader checks them: a full group's, then the tail's
    tail = qt.axis_length - (qt.n_groups - 1) * qt.group_size
    records["length"] = qt.group_size
    records["length"][:, -1:] = tail
    # a file the reader would refuse is not written
    scales = _record_scales(records, qt.element_kind, qt.group_size, tail)
    if underflow or overflow:
        log.warning("%d group scales flushed to 0 and %d clamped to 65504 in IEEE half",
                    underflow, overflow)
    # slots are codes: nibbles for 4-bit, INT8 codes as their bytes
    bits = 4 if qt.element_kind == KIND_MANT4 else 8
    width = 8 // bits * row_payload_bytes(qt.group_size, qt.group_size, bits)
    slots = np.zeros((qt.n_rows, qt.n_groups, width), dtype=np.uint8)
    slots[:, :, :qt.group_size] = qt.codes
    slots[:, -1:, tail:] = 0
    slots = slots.reshape(qt.n_rows, qt.n_groups * width)
    slots = slots[:, :8 // bits * row_payload_bytes(qt.axis_length, qt.group_size, bits)]
    # every row holds an even number of nibbles, so packing the flat array
    # packs each row on its own
    payload = pack_codes(slots) if qt.element_kind == KIND_MANT4 else slots.tobytes()

    fh.write(QUANT_MAGIC)
    fh.write(struct.pack("<HBHB", FORMAT_VERSION, _KIND_CODES[qt.element_kind],
                         qt.group_size, len(qt.shape)))
    fh.write(struct.pack(f"<{len(qt.shape)}Q", *qt.shape))
    fh.write(struct.pack("<B", qt.group_axis))
    fh.write(records.tobytes())
    fh.write(payload)
    return dataclasses.replace(qt, scales=scales)


def _record_scales(records: np.ndarray, kind: str, group_size: int, tail: int) -> np.ndarray:
    """The float64 scales of metadata records ``(n_rows, n_groups)``, whose
    last group holds ``tail`` values; ContainerError names the first group
    whose length, scale or coefficient :func:`read_quantized` refuses."""
    lengths = records["length"]
    bad_length = lengths != group_size
    bad_length[:, -1:] = lengths[:, -1:] != tail
    scales = records["scale"].view(np.float16).astype(np.float64)
    coeffs = records["a"]
    for bad, name, values, problem in (
            (bad_length, "length", lengths, "inconsistent with dims"),
            # half bits below 0x7C00: sign clear and exponent not all ones
            (records["scale"] >= 0x7C00, "scale", scales, "is not finite and non-negative"),
            (coeffs > INT4_COEFF if kind == KIND_MANT4 else coeffs != INT8_COEFF,
             "coefficient", coeffs, f"does not fit {kind} codes")):
        if bad.any():
            r, g = np.argwhere(bad)[0]
            raise ContainerError(f"group ({r},{g}) {name} {values[r, g]} {problem}")
    return scales


def read_quantized(fh: BinaryIO) -> QuantizedTensor:
    """Deserialize a quantized tensor written by :func:`write_quantized`."""
    magic = _read_exact(fh, 4)
    if magic != QUANT_MAGIC:
        raise ContainerError(f"bad magic {magic!r}, expected {QUANT_MAGIC!r}")
    version, kind_code, group_size, ndim = struct.unpack("<HBHB", _read_exact(fh, 6))
    if version != FORMAT_VERSION:
        raise ContainerError(f"unsupported container version {version}")
    if kind_code not in _KIND_NAMES:
        raise ContainerError(f"unknown element kind code {kind_code}")
    kind = _KIND_NAMES[kind_code]
    shape = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim))
    (group_axis,) = struct.unpack("<B", _read_exact(fh, 1))
    if group_axis >= ndim:
        raise ContainerError(f"group axis {group_axis} out of range for {ndim} dims")
    if group_size == 0:
        raise ContainerError("group size must be positive")

    axis_len = shape[group_axis]
    n_groups = -(-axis_len // group_size)
    tail = axis_len - (n_groups - 1) * group_size
    n_rows = math.prod(d for i, d in enumerate(shape) if i != group_axis)

    records = np.frombuffer(_read_exact(fh, _RECORD.itemsize * n_rows * n_groups),
                            dtype=_RECORD).reshape(n_rows, n_groups)
    scales = _record_scales(records, kind, group_size, tail)
    lengths, coeffs = records["length"], records["a"]

    # the payload is read first: its slots take a byte or more per code
    bits = 4 if kind == KIND_MANT4 else 8
    row_bytes = row_payload_bytes(axis_len, group_size, bits)
    blob = _read_exact(fh, n_rows * row_bytes)
    width = 8 // bits * row_payload_bytes(group_size, group_size, bits)   # a full group's slots
    row_slots = 8 // bits * row_bytes
    slots = np.zeros((n_rows, n_groups * width), dtype=np.uint8)
    slots[:, :row_slots] = (unpack_codes(blob, n_rows * row_slots) if kind == KIND_MANT4
                            else np.frombuffer(blob, dtype=np.uint8)).reshape(n_rows, row_slots)
    slots = slots.reshape(n_rows, n_groups, width)
    # an odd-length 4-bit group ends on a pad nibble, which would write back as 0
    bad = slots[:, :, group_size:].any(axis=-1)
    bad[:, -1:] = slots[:, -1:, tail:].any(axis=-1)
    if bad.any():
        r, g = np.argwhere(bad)[0]
        raise ContainerError(f"group ({r},{g}) has pad nibble "
                             f"{slots[r, g, lengths[r, g]:].max():#x}, not 0")
    codes = slots[:, :, :group_size]
    if fh.read(1):
        raise ContainerError("trailing bytes after payload")
    # INT4 code 8 is -0, which the encoder never writes: its level 0 would write back as 0
    int4 = np.argwhere(coeffs == INT4_COEFF)
    bad = (codes[tuple(int4.T)] == SIGN_BIT).any(axis=-1)
    if bad.any():
        raise ContainerError("group ({},{}) holds INT4 code 8, a negative zero".format(*int4[bad][0]))
    return QuantizedTensor(tuple(int(d) for d in shape), kind, int(group_axis), int(group_size),
                           code_values(codes, coeffs) if kind == KIND_MANT4 else codes.view(np.int8),
                           scales, coeffs.copy())


def write_tensor(fh: BinaryIO, values: np.ndarray) -> None:
    """Serialize a raw float32 tensor."""
    values = np.ascontiguousarray(values, dtype=np.float32)
    fh.write(TENSOR_MAGIC)
    fh.write(struct.pack("<HBB", TENSOR_VERSION, 0, values.ndim))
    fh.write(struct.pack(f"<{values.ndim}Q", *values.shape))
    fh.write(values.tobytes())


def read_tensor(fh: BinaryIO) -> np.ndarray:
    """Deserialize a raw float32 tensor written by :func:`write_tensor`."""
    magic = _read_exact(fh, 4)
    if magic != TENSOR_MAGIC:
        raise ContainerError(f"bad magic {magic!r}, expected {TENSOR_MAGIC!r}")
    version, dtype_code, ndim = struct.unpack("<HBB", _read_exact(fh, 4))
    if version != TENSOR_VERSION:
        raise ContainerError(f"unsupported container version {version}")
    if dtype_code != 0:
        raise ContainerError(f"unsupported dtype code {dtype_code}")
    shape = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim))
    payload = _read_exact(fh, 4 * math.prod(shape))
    if fh.read(1):
        raise ContainerError("trailing bytes after payload")
    return np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float64)


def save_quantized(path, qt: QuantizedTensor) -> QuantizedTensor:
    with open(path, "wb") as fh:
        return write_quantized(fh, qt)


def load_quantized(path) -> QuantizedTensor:
    with open(path, "rb") as fh:
        return read_quantized(fh)


def save_tensor(path, values) -> None:
    with open(path, "wb") as fh:
        write_tensor(fh, np.asarray(values))


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_tensor(fh)
