"""Real-time KV-cache quantization.

K and V are both quantized along their accumulation axes, which differ: a
new key vector completes its groups (along the head dimension) immediately,
while a new value vector contributes one element to every group running
along the sequence axis.  Keys are therefore encoded spatially per step;
values go through a two-phase process window: each decode step stages the
vector as INT8 (channel-wise scales fixed at prefill), and when the window
holds a full group the staged rows are re-encoded to 4-bit codes using a
coefficient picked from their variance.  The window's statistics are the
running max, sum and sum of squares of its staged rows in arrival order,
read from those rows.  One process window stages the values of all heads.

The cache stores what attention reads, once, in the order it reads it:
each store holds one per-element array, the float32 levels that
attention's products take as matmul operands, beside float64 scales and
uint8 coefficients of the same layout, and counters say how much is
filled.  Keys are group-major ``(heads, n_kgroups, tokens, G)``; values
are block-major ``(blocks + 1, heads * head_dim, G)``, and the slot after
the flushed blocks, the open block, holds the window's staged INT8 rows
under its channel scales, so the value product is one fold over all of
them.  Every write takes one route, :meth:`KvCache._write`: a key row, a
prompt's keys and full value blocks, and a full window pick their
coefficients from their groups' sums
(:func:`selection.coefficients_from_sums`), encode once and land, as
float32, in the next slots.  ``keys`` and ``values`` are 4-bit ``(tokens, heads,
head_dim)`` :class:`QuantizedTensor` s grouped along axis 2 and 0, built
with int16 levels on read.
"""

from __future__ import annotations

import copy
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .codec import (DEFAULT_GROUP_SIZE, KIND_MANT4, MAX_GROUP_SIZE, QuantizedTensor,
                    _check_finite, _encode_levels, _round_magnitudes, check_scales, tensor_rows,
                    to_groups)
from .codec import quantize_weight_group  # noqa: F401  (unused; bench/spans.py patches it)
from .grid import as_integer
from .selection import VarianceTable, _encode_by_variance, _summable, coefficients_from_sums


def _statistics(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel max of ``|value|``, sum and sum of squares of rows ``(n,
    *channels)``, each sum added row by row in arrival order from +0.0.  A
    channel whose max lies outside [2**-500, 2**500] reads all three of the
    channel scaled by the power of two that brings its max into [0.5, 1)
    (:func:`selection._summable`), whose sums neither overflow nor underflow."""
    shape = values.shape[1:]
    flat = values.reshape(len(values), math.prod(shape))
    channels, absmax = _summable(flat.T, np.abs(flat).max(axis=0, initial=0.0))
    flat = channels.T
    # numpy adds along an axis that is not the fast one in memory a row at a time
    # (its pairwise sum runs along the fast axis only): with the squares beside
    # the values, a C-order row has two columns or more, even on one channel
    pairs = np.concatenate([flat, flat * flat], axis=1,
                           out=np.empty((len(flat), 2 * flat.shape[1])))
    sums = np.add.reduce(pairs, axis=0, initial=0.0)
    return absmax.reshape(shape), *sums.reshape((2,) + shape)


@dataclass
class ProcessWindow:
    """Staging window of a value stream.

    ``channel_scales`` sets the channel shape: ``(channels,)`` for one head,
    ``(heads, head_dim)`` for all heads of a cache; they are fixed when the
    window is made, and one not finite or with its sign bit set raises
    ValueError.  The window holds up to ``group_size`` INT8 rows ``(group_size,
    *channels)``; ``running_max``, ``sum_v`` and ``sum_v2`` are read from them
    (of a channel beyond [2**-500, 2**500] scaled, see :func:`_statistics`).
    ``window[h]`` is head ``h`` of a multi-head window, for reading: its arrays
    are read-only views of this window's, its counters a copy (``clamp_count``
    counts the whole window), and ``push`` and ``flush`` on it raise
    ValueError, as they do on a :class:`KvCache`'s window, whose rows the
    cache also keeps in its value operand.  ``flush`` is only legal when the
    window is full, and resets it.
    """

    channel_scales: np.ndarray
    group_size: int = DEFAULT_GROUP_SIZE
    fill_count: int = field(default=0, init=False)
    clamp_count: int = field(default=0, init=False)
    staged: np.ndarray = field(init=False)
    head: int | None = field(default=None, init=False, repr=False)
    owned: bool = field(default=False, init=False, repr=False)   # a KvCache writes it

    def __post_init__(self):
        self.group_size = as_integer(self.group_size, "group size", 1, MAX_GROUP_SIZE)
        # a read-only copy: the divisors below are made from it once
        self.channel_scales = scales = np.array(self.channel_scales, dtype=np.float64)
        check_scales(scales, "channel scale")   # a NaN one would stage silent zeros
        scales.setflags(write=False)
        self.staged = np.zeros((self.group_size,) + scales.shape, dtype=np.int8)
        # a value over an infinite divisor stages as 0, as a zero-scale channel's must
        silent = scales == 0.0
        self._divisors = np.where(silent, np.inf, scales)
        self._silent = silent if silent.any() else None

    def __getitem__(self, head: int) -> ProcessWindow:
        view = copy.copy(self)
        view.head, view.staged = head, self.staged[:, head]
        view.channel_scales = self.channel_scales[head]
        view.staged.setflags(write=False)
        return view

    def _check_writable(self) -> None:
        if self.head is not None:
            raise ValueError(f"window[{self.head}] is a read-only head view; push to and "
                             "flush the whole window")
        if self.owned:
            raise ValueError("a KvCache's window takes values through the cache's push_v "
                             "and prefill")

    @property
    def is_full(self) -> bool:
        return self.fill_count == self.group_size

    running_max = property(lambda self: _statistics(self.staged_dequantized())[0])
    sum_v = property(lambda self: _statistics(self.staged_dequantized())[1])
    sum_v2 = property(lambda self: _statistics(self.staged_dequantized())[2])

    def push(self, values) -> None:
        """Stage one value vector (the channel shape) or rows ``(n,
        *channels)`` that fit in the window.  Non-finite values raise
        ValueError before anything is staged.  A value stages as
        :func:`codec.round_int8` of ``value / channel scale``, zero on a zero
        scale; a clamped one (``|value / scale| >= 127.5``) and a nonzero one
        on a zero scale bump ``clamp_count``."""
        self._check_writable()
        values = np.asarray(values, dtype=np.float64)
        shape = self.channel_scales.shape
        if values.shape not in (shape, values.shape[:1] + shape):
            raise ValueError(f"expected rows of {shape} channels, got {values.shape}")
        _check_finite(values)
        self._stage(values.reshape((-1,) + shape))

    def _stage(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`push` of finite float64 rows ``(n, *channels)``; returns their codes."""
        if self.fill_count + len(rows) > self.group_size:
            raise ValueError("process window is full; flush before pushing")
        scaled = rows / self._divisors
        magnitudes = np.abs(scaled)
        self.clamp_count += int(np.count_nonzero(magnitudes >= 127.5))
        if self._silent is not None:
            self.clamp_count += int(np.count_nonzero(rows[:, self._silent]))
        codes = self.staged[self.fill_count:self.fill_count + len(rows)] = _round_magnitudes(
            magnitudes, scaled)
        self.fill_count += len(rows)
        return codes

    def staged_dequantized(self) -> np.ndarray:
        """Real values of the staged rows, shape (fill_count, *channels)."""
        return self.staged[:self.fill_count].astype(np.float64) * self.channel_scales

    def flush(self, table: VarianceTable) -> QuantizedTensor:
        """Convert the full window to a 4-bit ``(group_size, *channels)``
        tensor grouped along axis 0, one group per channel.

        Per channel the normalized variance comes from the staged rows' sums
        (``var(x/c) == var(x)/c**2``), the coefficient from the table, and
        the codes from re-encoding the dequantized staged column.  The
        window resets afterwards.
        """
        self._check_writable()
        return QuantizedTensor(self.staged.shape, KIND_MANT4, 0, self.group_size,
                               *self._drain(table))

    def _drain(self, table: VarianceTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Levels ``(channels, 1, group_size)``, scales and coefficients
        ``(channels, 1)`` of the full window's channels, encoded from its one
        dequantize; the window resets."""
        if not self.is_full:
            raise ValueError(f"flush requires a full window, have {self.fill_count}/{self.group_size}")
        values = self.staged_dequantized()
        absmax, total, total_sq = _statistics(values)
        coeffs = coefficients_from_sums(table, total, total_sq, self.group_size,
                                        absmax).reshape(-1, 1)
        levels, scales = _encode_levels(to_groups(values.reshape(self.group_size, -1).T,
                                                  self.group_size), coeffs)
        self.fill_count = 0
        self.staged[:] = 0
        return levels, scales, coeffs


# one head's flushed value block: derived codes (head_dim, G), store views of scales, coeffs
ValueBlock = namedtuple("ValueBlock", "codes scales coeffs")


class KvCache:
    """Quantized K/V store for one attention layer.

    Keys are grouped along the head dimension and encoded completely at
    every step; values are grouped along the sequence axis through one
    process window over all heads.  Coefficients come from per-role
    variance tables.  Writes go through :meth:`append_k`, :meth:`push_v`
    and :meth:`prefill`; the cache's window refuses ``push`` and ``flush``.
    """

    def __init__(self, heads: int, head_dim: int, k_table: VarianceTable,
                 v_table: VarianceTable, group_size: int = DEFAULT_GROUP_SIZE):
        self.heads = heads = as_integer(heads, "heads", 1)
        self.head_dim = head_dim = as_integer(head_dim, "head_dim", 1)
        self.group_size = group_size = as_integer(group_size, "group size", 1, MAX_GROUP_SIZE)
        self.k_table = k_table
        self.v_table = v_table
        # [float32 levels, scales, coefficients]: keys group-major with no token
        # slots, values block-major with one slot, the open block
        self._k, self._v = ([np.zeros(lead + (group_size,), np.float32), np.zeros(lead),
                             np.zeros(lead, np.uint8)]
                            for lead in ((heads, -(-head_dim // group_size), 0),
                                         (1, heads * head_dim)))
        self.windows: ProcessWindow | None = None
        self._tokens = self._blocks = self._total_v = 0

    @property
    def seq_len(self) -> int:
        return self._tokens

    @property
    def flushed_tokens(self) -> int:
        return self._blocks * self.group_size

    @property
    def window_fill(self) -> int:
        return self.windows.fill_count if self.windows is not None else 0

    @property
    def total_v_tokens(self) -> int:
        return self._total_v

    def conservation_holds(self) -> bool:
        """Flushed tokens plus window fill must equal all value tokens seen."""
        return self.flushed_tokens + self.window_fill == self._total_v

    @property
    def keys(self) -> QuantizedTensor:
        """The keys, a 4-bit ``(seq_len, heads, head_dim)`` tensor grouped along
        axis 2: int16 levels and copies of the scales and coefficients."""
        levels, scales, coeffs = (
            np.moveaxis(a[:, :, :self._tokens], 2, 0).astype(dtype, order="C")
            .reshape((-1,) + a.shape[1:2] + a.shape[3:])
            for a, dtype in zip(self._k, (np.int16, np.float64, np.uint8)))
        return QuantizedTensor((self._tokens, self.heads, self.head_dim), KIND_MANT4, 2,
                               self.group_size, levels, scales, coeffs)

    @property
    def values(self) -> QuantizedTensor:
        """The flushed values, a 4-bit ``(flushed_tokens, heads, head_dim)``
        tensor grouped along axis 0: int16 levels, block-major in memory, and
        views of the scales and coefficients of slots never written again."""
        levels, scales, coeffs = (a[:self._blocks].swapaxes(0, 1) for a in self._v)
        return QuantizedTensor((self.flushed_tokens, self.heads, self.head_dim), KIND_MANT4, 0,
                               self.group_size, levels.astype(np.int16), scales, coeffs)

    def key_operands(self, upto: int) -> tuple[np.ndarray, np.ndarray]:
        """Float32 levels ``(heads, upto, n_kgroups, G)`` and scales ``(heads,
        upto, n_kgroups)`` of the filled key slots [0, upto), group-major views."""
        return tuple(a[:, :, :min(upto, self._tokens)].swapaxes(1, 2) for a in self._k[:2])

    def value_operands(self, upto: int) -> tuple[np.ndarray, np.ndarray]:
        """Float32 levels ``(heads, head_dim, n, G)`` and scales ``(heads,
        head_dim, n)`` of the ``n = ceil(upto / G)`` filled blocks that hold tokens
        [0, upto), flushed or open (zero past the window's rows), block-major views."""
        n = min(-(-upto // self.group_size), self._blocks + 1)
        return tuple(a[:n].swapaxes(0, 1).reshape((self.heads, self.head_dim, n) + a.shape[2:])
                     for a in self._v[:2])

    def _write(self, name: str, levels: np.ndarray, scales: np.ndarray,
               coefficients: np.ndarray) -> None:
        """Place the encoded groups of :func:`codec.tensor_rows` rows, their
        levels (as float32), scales and coefficients, in the next slots of the
        store ``name``: key rows ``(tokens * heads, head_dim)`` fill token slots
        (axis 2 of the group-major key buffers), value rows ``(heads *
        head_dim, blocks * G)`` block slots (axis 0 of the block-major value
        buffers).  Buffers short of them (and of the open block, for values)
        first grow in the list to twice their capacity or the need; the open
        block then takes zeros and the window's channel scales.  Callers
        encode before they write, so an encode that raises leaves the cache
        as it was."""
        keys = name == "keys"
        buffers, axis, used = (self._k, 2, self._tokens) if keys else (self._v, 0, self._blocks)
        arrays = [a.reshape((-1, self.heads) + a.shape[1:]).swapaxes(0, 1).swapaxes(1, 2)
                  if keys else a.swapaxes(0, 1) for a in (levels, scales, coefficients)]
        size = used + arrays[1].shape[axis]
        capacity, need = buffers[0].shape[axis], size + (not keys)
        lead = (slice(None),) * axis
        for i, old in enumerate(buffers if need > capacity else ()):
            buffers[i] = np.empty(old.shape[:axis] + (max(need, 2 * capacity),)
                                  + old.shape[axis + 1:], old.dtype)
            buffers[i][lead + (slice(used),)] = old[lead + (slice(used),)]
        for buffer, array in zip(buffers, arrays):
            buffer[lead + (slice(used, size),)] = array
        if keys:
            self._tokens = size
        else:
            self._blocks = size
            buffers[0][size], buffers[1][size] = 0.0, self.windows.channel_scales.reshape(-1)

    # -- K path ------------------------------------------------------------

    def append_k(self, k_vector) -> None:
        """Quantize one key vector (heads, head_dim) and append it.

        Per group: max, sum and sum of squares give the variance, the table
        lookup the coefficient, and the group is encoded into the key
        buffers' next token slot.  Non-finite input raises ValueError and
        leaves the cache as it was.
        """
        k_vector = np.asarray(k_vector, dtype=np.float64)
        if k_vector.shape != (self.heads, self.head_dim):
            raise ValueError(f"expected ({self.heads}, {self.head_dim}), got {k_vector.shape}")
        self._write("keys", *_encode_by_variance(self.k_table, k_vector, self.group_size))

    def k_arrays(self):
        """Keys: codes (seq, heads, n_kgroups, G), scales, coeffs, all derived."""
        return self.keys.split_rows(self.seq_len, self.heads)

    # -- V path ------------------------------------------------------------

    def _stage(self, rows: np.ndarray) -> None:
        """Stage finite value rows ``(n, heads, head_dim)`` in the window and
        their INT8 codes, as float32, in the open block."""
        start = self.windows.fill_count
        codes = self.windows._stage(rows).reshape(len(rows), self.heads * self.head_dim)
        self._v[0][self._blocks, :, start:start + len(rows)] = codes.T

    def push_v(self, v_vector) -> bool:
        """Stage one value vector (heads, head_dim); flush the window into
        a new value block when it fills.

        Returns True when this push triggered a flush.
        """
        if self.windows is None:
            raise ValueError("windows not initialized; run prefill first")
        v_vector = np.asarray(v_vector, dtype=np.float64)
        if v_vector.shape != (self.heads, self.head_dim):
            raise ValueError(f"expected ({self.heads}, {self.head_dim}), got {v_vector.shape}")
        _check_finite(v_vector)
        self._stage(v_vector[None])
        self._total_v += 1
        if not self.windows.is_full:
            return False
        self._write("values", *self.windows._drain(self.v_table))
        return True

    def prefill(self, k_matrix, v_matrix) -> None:
        """Quantize a whole prompt at once.

        Keys encode as :meth:`append_k` would encode them one by one.  Value
        columns are split into full sequence blocks encoded directly
        (variance computed from the complete group); a trailing partial block
        enters the process window, whose channel scales are the per-channel
        absolute maxima of the prefill values.  An empty prompt, one of
        another geometry and non-finite input raise ValueError and leave the
        cache empty.
        """
        k_matrix = np.asarray(k_matrix, dtype=np.float64)
        v_matrix = np.asarray(v_matrix, dtype=np.float64)
        shape = (self.heads, self.head_dim)
        if k_matrix.shape != v_matrix.shape or k_matrix.shape[1:] != shape:
            raise ValueError(f"prefill expects matching (seq, {self.heads}, {self.head_dim}) "
                             f"tensors, got {k_matrix.shape} and {v_matrix.shape}")
        if not len(k_matrix):
            raise ValueError("prefill expects at least one token")
        if self.seq_len or self._total_v:
            raise ValueError("prefill must run on an empty cache")
        _check_finite(v_matrix)   # the keys' encode refuses theirs before the write
        seq, group_size = len(k_matrix), self.group_size
        self._write("keys", *_encode_by_variance(self.k_table, k_matrix.reshape(-1, self.head_dim),
                                                 group_size))
        self.windows = ProcessWindow(np.max(np.abs(v_matrix), axis=0) / 127.0, group_size)
        self.windows.owned = True
        rows = tensor_rows(v_matrix[:seq - seq % group_size], 0)
        self._write("values", *_encode_by_variance(self.v_table, rows, group_size))
        self._stage(v_matrix[self.flushed_tokens:])
        self._total_v = seq

    def v_blocks(self, head: int) -> list[ValueBlock]:
        """One head's flushed blocks, in sequence order."""
        return [ValueBlock(*block) for block in zip(*(
            a[head].swapaxes(0, 1) for a in self.values.split_rows(self.heads, self.head_dim)))]
