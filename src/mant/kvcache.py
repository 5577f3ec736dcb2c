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

The keys and the flushed values are 4-bit ``(tokens, heads, head_dim)``
:class:`QuantizedTensor` s grouped along axis 2 and 0, whose arrays view
the filled prefix of buffers led by the axis that grows (key rows, value
blocks).  Every write takes one route, :meth:`KvCache._write`: a key row,
a prompt's keys and full value blocks, and a full window pick their
coefficients from their groups' sums (:func:`selection.coefficients_from_sums`),
and the batched encoder writes levels and scales straight into the
buffers' next rows.  A fourth buffer holds float32 copies of the levels
(``operands``), filled from the rows just encoded, so attention's products
read each stored level as a matmul operand without converting it again;
at 4 heads x 64 they raise the resident bytes per token from 1,096 to
3,144.  The value arrays stay block-major, so each block is one contiguous
operand of the value product.
"""

from __future__ import annotations

import copy
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .codec import (DEFAULT_GROUP_SIZE, KIND_MANT4, MAX_GROUP_SIZE, QuantizedTensor,
                    _check_finite, _encode_levels, check_scales, round_int8, tensor_rows,
                    to_groups)
from .codec import quantize_weight_group  # noqa: F401  (unused; bench/spans.py patches it)
from .grid import as_integer
from .selection import VarianceTable, coefficients_from_sums, row_coefficients


def _statistics(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel max of ``|value|``, sum and sum of squares of rows ``(n,
    *channels)``, each sum added row by row in arrival order from +0.0."""
    shape = values.shape[1:]
    flat = values.reshape(len(values), math.prod(shape))
    # numpy adds along an axis that is not the fast one in memory a row at a time
    # (its pairwise sum runs along the fast axis only): with the squares beside
    # the values, a C-order row has two columns or more, even on one channel
    pairs = np.concatenate([flat, flat * flat], axis=1,
                           out=np.empty((len(flat), 2 * flat.shape[1])))
    sums = np.add.reduce(pairs, axis=0, initial=0.0)
    return np.abs(flat).max(axis=0, initial=0.0).reshape(shape), *sums.reshape((2,) + shape)


@dataclass
class ProcessWindow:
    """Staging window of a value stream.

    ``channel_scales`` sets the channel shape: ``(channels,)`` for one head,
    ``(heads, head_dim)`` for all heads of a cache; they are fixed when the
    window is made, and one not finite or with its sign bit set raises
    ValueError.  The window holds up to ``group_size`` INT8 rows ``(group_size,
    *channels)``; ``running_max``, ``sum_v`` and ``sum_v2`` are read from them.
    ``window[h]`` is head ``h`` of a multi-head window, for reading: its arrays
    are read-only views of this window's, its counters a copy (``clamp_count``
    counts the whole window), and ``push`` and ``flush`` on it raise
    ValueError.  ``flush`` is only legal when the window is full, and resets it.
    """

    channel_scales: np.ndarray
    group_size: int = DEFAULT_GROUP_SIZE
    fill_count: int = field(default=0, init=False)
    clamp_count: int = field(default=0, init=False)
    staged: np.ndarray = field(init=False)
    head: int | None = field(default=None, init=False, repr=False)

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

    def _stage(self, rows: np.ndarray) -> None:
        """:meth:`push` of finite float64 rows ``(n, *channels)``."""
        if self.fill_count + len(rows) > self.group_size:
            raise ValueError("process window is full; flush before pushing")
        scaled = rows / self._divisors
        self.clamp_count += int(np.count_nonzero(np.abs(scaled) >= 127.5))
        if self._silent is not None:
            self.clamp_count += int(np.count_nonzero(rows[:, self._silent]))
        self.staged[self.fill_count:self.fill_count + len(rows)] = round_int8(scaled)
        self.fill_count += len(rows)

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
        rows, coeffs = self._drain(table)
        levels, scales = _encode_levels(to_groups(rows, self.group_size), coeffs)
        return QuantizedTensor(self.staged.shape, KIND_MANT4, 0, self.group_size, levels, scales,
                               coeffs)

    def _drain(self, table: VarianceTable) -> tuple[np.ndarray, np.ndarray]:
        """The full window's rows ``(channels, group_size)``, a transposed view of
        its one dequantize, and their coefficients ``(channels, 1)``; the window resets."""
        self._check_writable()
        if not self.is_full:
            raise ValueError(f"flush requires a full window, have {self.fill_count}/{self.group_size}")
        values = self.staged_dequantized()
        absmax, total, total_sq = _statistics(values)
        coeffs = coefficients_from_sums(table, total, total_sq, self.group_size, absmax)
        self.fill_count = 0
        self.staged[:] = 0
        return values.reshape(self.group_size, -1).T, coeffs.reshape(-1, 1)


# one head's flushed value block: derived codes (head_dim, G), store views of scales, coeffs
ValueBlock = namedtuple("ValueBlock", "codes scales coeffs")


class KvCache:
    """Quantized K/V store for one attention layer.

    Keys are grouped along the head dimension and encoded completely at
    every step; values are grouped along the sequence axis through one
    process window over all heads.  Coefficients come from per-role
    variance tables.
    """

    def __init__(self, heads: int, head_dim: int, k_table: VarianceTable,
                 v_table: VarianceTable, group_size: int = DEFAULT_GROUP_SIZE):
        self.heads = heads = as_integer(heads, "heads", 1)
        self.head_dim = head_dim = as_integer(head_dim, "head_dim", 1)
        self.group_size = group_size = as_integer(group_size, "group size", 1, MAX_GROUP_SIZE)
        self.k_table = k_table
        self.v_table = v_table
        # empty stores: no key rows of ceil(head_dim / G) groups, and no value blocks
        self.keys = self._empty_store(2, (0, -(-head_dim // group_size)))
        self.values = self._empty_store(0, (heads * head_dim, 0))
        # float32 copies of the stores' levels, the operands of attention's products
        self.operands = {name: getattr(self, name).levels.astype(np.float32)
                         for name in ("keys", "values")}
        self.windows: ProcessWindow | None = None
        self._total_v = 0
        self._buffers: dict[str, list[np.ndarray]] = {}

    def _empty_store(self, group_axis: int, rows_groups: tuple[int, int]) -> QuantizedTensor:
        """A store of no tokens grouped along ``group_axis``, its arrays led by
        ``rows_groups``: what encoding ``(0, heads, head_dim)`` would give."""
        return QuantizedTensor((0, self.heads, self.head_dim), KIND_MANT4, group_axis,
                               self.group_size, np.zeros(rows_groups + (self.group_size,), np.int16),
                               np.zeros(rows_groups), np.zeros(rows_groups, np.uint8))

    @property
    def seq_len(self) -> int:
        return self.keys.shape[0]

    @property
    def flushed_tokens(self) -> int:
        return self.values.shape[0]

    @property
    def window_fill(self) -> int:
        return self.windows.fill_count if self.windows is not None else 0

    @property
    def total_v_tokens(self) -> int:
        return self._total_v

    def conservation_holds(self) -> bool:
        """Flushed tokens plus window fill must equal all value tokens seen."""
        return self.flushed_tokens + self.window_fill == self._total_v

    def _write(self, name: str, rows: np.ndarray, coefficients: np.ndarray, tokens: int) -> None:
        """Encode the groups of :func:`codec.tensor_rows` ``rows`` under
        their table-made ``coefficients`` straight into the next rows of the
        buffers behind the store ``name``, which then holds ``tokens`` more
        tokens.

        The buffers hold levels, scales, coefficients and float32 copies of
        the levels (``operands[name]``) in the store's layout, with spare
        capacity along the axis that grows (key rows, value blocks); that
        axis leads in memory, and the capacity doubles when it runs out.
        The copies are filled from the levels just encoded.  The store and
        its operands view the filled prefix, so a tensor a caller holds
        keeps its contents, and an encode that raises leaves both as they
        were."""
        store = getattr(self, name)
        groups = to_groups(rows, self.group_size)
        axis = 1 if store.group_axis == 0 else 0
        used = store.levels.shape[axis]
        size = used + groups.shape[axis]
        lead = (slice(None),) * axis
        buffers = self._buffers.get(name)
        if buffers is None or size > buffers[0].shape[axis]:
            capacity = max(size, 2 * buffers[0].shape[axis]) if buffers else size
            filled = (store.levels, store.scales, store.coefficients, self.operands[name])
            buffers = [np.empty((capacity,) + a.swapaxes(0, axis).shape[1:], a.dtype)
                       .swapaxes(0, axis) for a in filled]
            for buffer, a in zip(buffers, filled):
                buffer[lead + (slice(used),)] = a
            self._buffers[name] = buffers
        levels, scales, coeffs, operands = [buffer[lead + (slice(used, size),)]
                                            for buffer in buffers]
        _encode_levels(groups, coefficients, levels, scales)
        coeffs[...] = coefficients
        operands[...] = levels
        *arrays, self.operands[name] = [buffer[lead + (slice(size),)] for buffer in buffers]
        setattr(self, name, QuantizedTensor(
            (store.shape[0] + tokens,) + store.shape[1:], KIND_MANT4, store.group_axis,
            self.group_size, *arrays))

    # -- K path ------------------------------------------------------------

    def append_k(self, k_vector) -> None:
        """Quantize one key vector (heads, head_dim) and append it.

        Per group: max, sum and sum of squares give the variance, the table
        lookup the coefficient, and the group is encoded into the key
        store's next row.  Non-finite input raises ValueError and leaves the
        cache as it was.
        """
        k_vector = np.asarray(k_vector, dtype=np.float64)
        if k_vector.shape != (self.heads, self.head_dim):
            raise ValueError(f"expected ({self.heads}, {self.head_dim}), got {k_vector.shape}")
        self._write("keys", k_vector, row_coefficients(self.k_table, k_vector, self.group_size), 1)

    def k_arrays(self):
        """Keys: codes (seq, heads, n_kgroups, G), derived, and views of scales, coeffs."""
        return self.keys.split_rows(self.seq_len, self.heads)

    # -- V path ------------------------------------------------------------

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
        self.windows._stage(v_vector[None])
        self._total_v += 1
        if self.windows.is_full:
            self._write("values", *self.windows._drain(self.v_table), self.group_size)
            return True
        return False

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
        _check_finite(k_matrix)
        _check_finite(v_matrix)
        seq = len(k_matrix)
        rows = k_matrix.reshape(-1, self.head_dim)
        self._write("keys", rows, row_coefficients(self.k_table, rows, self.group_size), seq)
        self.windows = ProcessWindow(np.max(np.abs(v_matrix), axis=0) / 127.0, self.group_size)
        flushed = seq - seq % self.group_size
        rows = tensor_rows(v_matrix[:flushed], 0)
        self._write("values", rows, row_coefficients(self.v_table, rows, self.group_size), flushed)
        self.windows._stage(v_matrix[flushed:])
        self._total_v = seq

    def v_blocks(self, head: int) -> list[ValueBlock]:
        """One head's flushed blocks, in sequence order."""
        return [ValueBlock(*block) for block in zip(*(
            a[head].swapaxes(0, 1) for a in self.values.split_rows(self.heads, self.head_dim)))]

    def v_dequantized(self) -> np.ndarray:
        """Reconstructed values (flushed blocks plus staged rows)."""
        staged = [] if self.windows is None else [self.windows.staged_dequantized()]
        return np.concatenate([self.values.dequantize()] + staged)
