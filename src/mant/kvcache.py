"""Real-time KV-cache quantization.

K and V are both quantized along their accumulation axes, which differ: a
new key vector completes its groups (along the head dimension) immediately,
while a new value vector contributes one element to every group running
along the sequence axis.  Keys are therefore encoded spatially per step;
values go through a two-phase process window: each decode step stages the
vector as INT8 (channel-wise scales fixed at prefill) and updates running
max / sum / sum-of-squares per channel, and when the window holds a full
group the staged rows are re-encoded to 4-bit codes using a coefficient
picked from the streaming variance.  Keys (from each group's sums over its
true length), prompt values and window flushes all pick coefficients
through :func:`selection.coefficients_from_sums`.

The keys and the flushed values are 4-bit ``(tokens, heads, head_dim)``
:class:`QuantizedTensor` s grouped along axis 2 and 0, built by
:func:`selection.quantize_by_variance` (keys, prompt values) or
:meth:`ProcessWindow.flush` (a full window as one ``(group_size, heads,
head_dim)`` block) and appended along axis 0 in place by
:meth:`KvCache._append`: their arrays view the filled prefix of buffers
whose capacity doubles when it runs out.  The value arrays stay
block-major, so each block is one contiguous operand of the value
product.  One process window stages the values of all heads.
"""

from __future__ import annotations

import copy
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .codec import (DEFAULT_GROUP_SIZE, QuantizedTensor, _check_finite, quantize_weight_tensor,
                    round_int8)
from .codec import quantize_weight_group  # noqa: F401  (unused; bench/spans.py patches it)
from .selection import VarianceTable, coefficients_from_sums, quantize_by_variance


@dataclass
class ProcessWindow:
    """Staging window of a value stream.

    ``channel_scales`` sets the channel shape: ``(channels,)`` for one head,
    ``(heads, head_dim)`` for all heads of a cache.  The window holds up to
    ``group_size`` INT8 rows ``(group_size, *channels)`` plus per-channel
    running statistics of their dequantized values.  ``window[h]`` is head
    ``h`` of a multi-head window, for reading: its arrays are read-only views
    of this window's, its counters a copy (``clamp_count`` counts the whole
    window), and ``push`` and ``flush`` on it raise ValueError.  ``flush``
    is only legal when the window is full, and resets every counter.
    """

    channel_scales: np.ndarray
    group_size: int = DEFAULT_GROUP_SIZE
    fill_count: int = field(default=0, init=False)
    clamp_count: int = field(default=0, init=False)
    staged: np.ndarray = field(init=False)
    running_max: np.ndarray = field(init=False)
    sum_v: np.ndarray = field(init=False)
    sum_v2: np.ndarray = field(init=False)
    head: int | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.channel_scales = np.asarray(self.channel_scales, dtype=np.float64)
        shape = self.channel_scales.shape
        self.staged = np.zeros((self.group_size,) + shape, dtype=np.int8)
        self.running_max, self.sum_v, self.sum_v2 = (np.zeros(shape) for _ in range(3))

    def __getitem__(self, head: int) -> ProcessWindow:
        view = copy.copy(self)
        view.head, view.staged = head, self.staged[:, head]
        for name in ("channel_scales", "running_max", "sum_v", "sum_v2"):
            setattr(view, name, getattr(self, name)[head])
        for name in ("staged", "channel_scales", "running_max", "sum_v", "sum_v2"):
            getattr(view, name).setflags(write=False)
        return view

    def _check_writable(self) -> None:
        if self.head is not None:
            raise ValueError(f"window[{self.head}] is a read-only head view; push to and "
                             "flush the whole window")

    @property
    def is_full(self) -> bool:
        return self.fill_count == self.group_size

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
        rows = values.reshape((-1,) + shape)
        if self.fill_count + rows.shape[0] > self.group_size:
            raise ValueError("process window is full; flush before pushing")

        live = self.channel_scales > 0.0
        scaled = np.divide(rows, self.channel_scales, out=np.zeros_like(rows), where=live)
        self.clamp_count += int(np.count_nonzero(np.abs(scaled) >= 127.5)
                                + np.count_nonzero(~live & (rows != 0.0)))
        codes = round_int8(scaled)

        self.staged[self.fill_count:self.fill_count + rows.shape[0]] = codes
        decoded = codes.astype(np.float64) * self.channel_scales
        np.maximum(self.running_max, np.abs(decoded).max(axis=0, initial=0.0), out=self.running_max)
        # running sums add row by row, in the order the rows arrive
        self.sum_v[...] = np.add.accumulate(np.concatenate([self.sum_v[None], decoded]))[-1]
        self.sum_v2[...] = np.add.accumulate(np.concatenate([self.sum_v2[None], decoded * decoded]))[-1]
        self.fill_count += rows.shape[0]

    def staged_dequantized(self) -> np.ndarray:
        """Real values of the staged rows, shape (fill_count, *channels)."""
        return self.staged[:self.fill_count].astype(np.float64) * self.channel_scales

    def flush(self, table: VarianceTable) -> QuantizedTensor:
        """Convert the full window to a 4-bit ``(group_size, *channels)``
        tensor grouped along axis 0, one group per channel.

        Per channel the normalized variance comes from the running sums
        (``var(x/c) == var(x)/c**2``), the coefficient from the table, and
        the codes from re-encoding the dequantized staged column.  The
        window resets afterwards.
        """
        self._check_writable()
        if not self.is_full:
            raise ValueError(f"flush requires a full window, have {self.fill_count}/{self.group_size}")
        coeffs = coefficients_from_sums(table, self.sum_v, self.sum_v2, self.group_size,
                                        self.running_max)
        block = quantize_weight_tensor(self.staged_dequantized(), coeffs.reshape(-1, 1), 0,
                                       self.group_size)
        self.fill_count = 0
        self.staged[:] = 0
        self.running_max[:] = self.sum_v[:] = self.sum_v2[:] = 0.0
        return block


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
        if heads < 1 or head_dim < 1 or group_size < 1:
            raise ValueError("geometry must be positive")
        self.heads = heads
        self.head_dim = head_dim
        self.group_size = group_size
        self.k_table = k_table
        self.v_table = v_table
        self.keys = quantize_by_variance(np.zeros((0, heads, head_dim)), k_table, 2, group_size)
        self.values = quantize_by_variance(np.zeros((0, heads, head_dim)), v_table, 0, group_size)
        self.windows: ProcessWindow | None = None
        self._total_v = 0
        self._buffers: dict[str, list[np.ndarray]] = {}

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

    def _append(self, name: str, new: QuantizedTensor) -> None:
        """Append ``new`` to the store ``name`` along tensor axis 0: levels,
        scales and coefficients fill buffers led by the axis that grows (key
        rows, value blocks), whose capacity doubles when it runs out.  The
        store views the filled prefix, so a tensor a caller holds keeps its
        contents."""
        old = getattr(self, name)
        axis = 1 if old.group_axis == 0 else 0
        names = ("levels", "scales", "coefficients")
        parts = [getattr(new, f).swapaxes(0, axis) for f in names]
        used, size = old.levels.shape[axis], old.levels.shape[axis] + parts[0].shape[0]
        buffers = self._buffers.get(name)
        if buffers is None or size > len(buffers[0]):
            capacity = max(size, 2 * len(buffers[0])) if buffers else size
            buffers = [np.empty((capacity,) + p.shape[1:], p.dtype) for p in parts]
            for buffer, f in zip(buffers, names):
                buffer[:used] = getattr(old, f).swapaxes(0, axis)
            self._buffers[name] = buffers
        for buffer, part in zip(buffers, parts):
            buffer[used:size] = part
        views = {f: buffer[:size].swapaxes(0, axis) for f, buffer in zip(names, buffers)}
        setattr(self, name, replace(old, shape=(old.shape[0] + new.shape[0],) + old.shape[1:],
                                    **views))

    # -- K path ------------------------------------------------------------

    def append_k(self, k_vector) -> None:
        """Quantize one key vector (heads, head_dim) and append it.

        Per group: one pass accumulates max, sum and sum of squares, the
        variance lookup picks the coefficient, and the group is encoded.
        """
        k_vector = np.asarray(k_vector, dtype=np.float64)
        if k_vector.shape != (self.heads, self.head_dim):
            raise ValueError(f"expected ({self.heads}, {self.head_dim}), got {k_vector.shape}")
        self._append("keys", quantize_by_variance(k_vector[None], self.k_table, 2,
                                                  self.group_size))

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
        self.windows.push(v_vector)
        self._total_v += 1
        if self.windows.is_full:
            self._append("values", self.windows.flush(self.v_table))
            return True
        return False

    def prefill(self, k_matrix, v_matrix) -> None:
        """Quantize a whole prompt at once.

        Keys encode as :meth:`append_k` would encode them one by one.  Value
        columns are split into full sequence blocks encoded directly
        (variance computed from the complete group); a trailing partial block
        enters the process window, whose channel scales are the per-channel
        absolute maxima of the prefill values.  Non-finite input raises
        ValueError and leaves the cache empty.
        """
        k_matrix = np.asarray(k_matrix, dtype=np.float64)
        v_matrix = np.asarray(v_matrix, dtype=np.float64)
        if k_matrix.shape != v_matrix.shape or k_matrix.ndim != 3:
            raise ValueError("prefill expects matching (seq, heads, head_dim) tensors")
        if self.seq_len or self._total_v:
            raise ValueError("prefill must run on an empty cache")
        _check_finite(k_matrix)
        _check_finite(v_matrix)
        self._append("keys", quantize_by_variance(k_matrix, self.k_table, 2, self.group_size))
        self.windows = ProcessWindow(np.max(np.abs(v_matrix), axis=0) / 127.0, self.group_size)
        seq = v_matrix.shape[0]
        flushed = seq - seq % self.group_size
        self._append("values", quantize_by_variance(v_matrix[:flushed], self.v_table, 0,
                                                    self.group_size))
        self.windows.push(v_matrix[flushed:])
        self._total_v = seq

    def v_blocks(self, head: int) -> list[ValueBlock]:
        """One head's flushed blocks, in sequence order."""
        return [ValueBlock(*block) for block in zip(*(
            a[head].swapaxes(0, 1) for a in self.values.split_rows(self.heads, self.head_dim)))]

    def v_dequantized(self) -> np.ndarray:
        """Reconstructed values (flushed blocks plus staged rows)."""
        staged = [] if self.windows is None else [self.windows.staged_dequantized()]
        return np.concatenate([self.values.dequantize()] + staged)
