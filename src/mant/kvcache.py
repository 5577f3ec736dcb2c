"""Real-time KV-cache quantization.

K and V are both quantized along their accumulation axes, which differ: a
new key vector completes its groups (along the head dimension) immediately,
while a new value vector contributes one element to every group running
along the sequence axis.  Keys are therefore encoded spatially per step;
values go through a two-phase process window: each decode step stages the
vector as INT8 (channel-wise scales fixed at prefill) and updates running
max / sum / sum-of-squares per channel, and when the window holds a full
group the staged rows are re-encoded to 4-bit codes using a coefficient
picked from the streaming variance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codec import (
    DEFAULT_GROUP_SIZE,
    GroupMeta,
    decode_groups,
    encode_groups,
    split_runs,
    to_groups,
)
from .codec import quantize_weight_group  # noqa: F401  (unused; bench/spans.py patches it)
from .selection import VarianceTable, select_by_variance, variance_from_sums


def _streaming_coefficients(table: VarianceTable, absmax, total, total_sq, count):
    """Table coefficients from group sums; all-zero groups take the smallest."""
    var = variance_from_sums(total, total_sq, count, absmax)
    return np.where(absmax == 0.0, table.entries[0][0], table.lookup(var))


@dataclass
class ProcessWindow:
    """Staging window of one attention head's value stream.

    Holds up to ``group_size`` INT8 rows plus per-channel running statistics
    of their dequantized values.  ``flush`` is only legal when the window is
    full, and resets every counter.
    """

    channel_scales: np.ndarray
    group_size: int = DEFAULT_GROUP_SIZE
    fill_count: int = 0
    clamp_count: int = 0
    staged: np.ndarray = field(init=False)
    running_max: np.ndarray = field(init=False)
    sum_v: np.ndarray = field(init=False)
    sum_v2: np.ndarray = field(init=False)

    def __post_init__(self):
        self.channel_scales = np.asarray(self.channel_scales, dtype=np.float64)
        channels = self.channel_scales.size
        self.staged = np.zeros((self.group_size, channels), dtype=np.int8)
        self.running_max = np.zeros(channels)
        self.sum_v = np.zeros(channels)
        self.sum_v2 = np.zeros(channels)

    @property
    def channels(self) -> int:
        return self.channel_scales.size

    @property
    def is_full(self) -> bool:
        return self.fill_count == self.group_size

    def push(self, values) -> None:
        """Stage one value vector ``(channels,)`` or rows ``(n, channels)``
        that fit in the window.  Channels with a zero scale stage zero; values
        beyond a channel's INT8 range clamp; both bump ``clamp_count``."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim not in (1, 2) or values.shape[-1] != self.channels:
            raise ValueError(f"expected {self.channels} channels, got {values.shape}")
        rows = values.reshape(-1, self.channels)
        if self.fill_count + rows.shape[0] > self.group_size:
            raise ValueError("process window is full; flush before pushing")

        live = self.channel_scales > 0.0
        scaled = np.divide(rows, self.channel_scales, out=np.zeros_like(rows), where=live)
        codes = np.where(live, np.sign(scaled) * np.floor(np.abs(scaled) + 0.5), 0.0)
        self.clamp_count += int(np.count_nonzero(live & (np.abs(codes) > 127))
                                + np.count_nonzero(~live & (rows != 0.0)))
        codes = np.clip(codes, -127, 127).astype(np.int8)

        self.staged[self.fill_count:self.fill_count + rows.shape[0]] = codes
        decoded = codes.astype(np.float64) * self.channel_scales
        self.running_max = np.maximum(self.running_max, np.abs(decoded).max(axis=0, initial=0.0))
        # running sums add row by row, in the order the rows arrive
        self.sum_v = np.add.accumulate(np.vstack([self.sum_v, decoded]))[-1]
        self.sum_v2 = np.add.accumulate(np.vstack([self.sum_v2, decoded * decoded]))[-1]
        self.fill_count += rows.shape[0]

    def staged_dequantized(self) -> np.ndarray:
        """Real values of the staged rows, shape (fill_count, channels)."""
        return self.staged[:self.fill_count].astype(np.float64) * self.channel_scales[None, :]

    def flush(self, table: VarianceTable):
        """Convert the staged window to 4-bit groups, one per channel.

        Per channel the normalized variance comes from the running sums
        (``var(x/c) == var(x)/c**2``), the coefficient from the table, and
        the codes from re-encoding the dequantized staged column.  Returns
        (codes, metas) with codes shaped (channels, group_size); the window
        resets afterwards.
        """
        if not self.is_full:
            raise ValueError(f"flush requires a full window, have {self.fill_count}/{self.group_size}")
        coeffs = _streaming_coefficients(table, self.running_max, self.sum_v, self.sum_v2,
                                         self.group_size)
        codes, scales = encode_groups(self.staged_dequantized().T, coeffs)
        metas = [GroupMeta(float(s), int(a), self.group_size) for s, a in zip(scales, coeffs)]
        self.fill_count = 0
        self.staged[:] = 0
        self.running_max[:] = self.sum_v[:] = self.sum_v2[:] = 0.0
        return codes, metas


@dataclass
class _VBlock:
    """One flushed sequence block: per-channel 4-bit groups."""

    codes: np.ndarray   # (channels, group_size) uint8
    scales: np.ndarray  # (channels,)
    coeffs: np.ndarray  # (channels,)
    length: int


class KvCache:
    """Quantized K/V store for one attention layer.

    Keys are grouped along the head dimension and encoded completely at
    every step; values are grouped along the sequence axis through a
    per-head process window.  Coefficients come from per-role variance
    tables.
    """

    def __init__(self, heads: int, head_dim: int, k_table: VarianceTable,
                 v_table: VarianceTable, group_size: int = DEFAULT_GROUP_SIZE,
                 max_seq: int | None = None):
        if heads < 1 or head_dim < 1 or group_size < 1:
            raise ValueError("geometry must be positive")
        if max_seq is not None and max_seq < 1:
            raise ValueError("max_seq must be positive")
        self.heads = heads
        self.head_dim = head_dim
        self.group_size = group_size
        self.max_seq = max_seq
        self.k_table = k_table
        self.v_table = v_table
        self.k_group_slices = [(start, min(start + group_size, head_dim))
                               for start in range(0, head_dim, group_size)]
        # per token: codes (heads, n_kgroups, G), scales/coeffs (heads, n_kgroups)
        self._k_codes: list[np.ndarray] = []
        self._k_scales: list[np.ndarray] = []
        self._k_coeffs: list[np.ndarray] = []
        self._k_stacked = None
        self._v_blocks: list[list[_VBlock]] = [[] for _ in range(heads)]
        self.windows: list[ProcessWindow] | None = None
        self._total_v = 0

    @property
    def n_k_groups(self) -> int:
        return len(self.k_group_slices)

    @property
    def seq_len(self) -> int:
        return len(self._k_codes)

    @property
    def flushed_tokens(self) -> int:
        return len(self._v_blocks[0]) * self.group_size if self._v_blocks[0] else 0

    @property
    def window_fill(self) -> int:
        return self.windows[0].fill_count if self.windows else 0

    @property
    def total_v_tokens(self) -> int:
        return self._total_v

    def conservation_holds(self) -> bool:
        """Flushed tokens plus window fill must equal all value tokens seen."""
        return self.flushed_tokens + self.window_fill == self._total_v

    # -- K path ------------------------------------------------------------

    def append_k(self, k_vector) -> None:
        """Quantize one key vector (heads, head_dim) and append it.

        Per group: one pass accumulates max, sum and sum of squares, the
        variance lookup picks the coefficient, and the group is encoded.
        """
        k_vector = np.asarray(k_vector, dtype=np.float64)
        if k_vector.shape != (self.heads, self.head_dim):
            raise ValueError(f"expected ({self.heads}, {self.head_dim}), got {k_vector.shape}")
        if self.max_seq is not None and self.seq_len >= self.max_seq:
            raise ValueError(f"cache full: max_seq={self.max_seq}")
        self._append_keys(k_vector[None])

    def _append_keys(self, keys: np.ndarray) -> None:
        """Encode keys (tokens, heads, head_dim) in one kernel call and append
        them; each group's sums run over its true length."""
        coeffs = np.concatenate([
            _streaming_coefficients(self.k_table, np.max(np.abs(run), axis=-1),
                                    run.sum(axis=-1), (run * run).sum(axis=-1), run.shape[-1])
            for run in split_runs(keys, self.group_size)], axis=-1).astype(np.uint8)
        codes, scales = encode_groups(to_groups(keys, self.group_size), coeffs)
        self._k_codes.extend(codes)
        self._k_scales.extend(scales)
        self._k_coeffs.extend(coeffs)
        self._k_stacked = None

    def k_arrays(self):
        """Stacked key store: codes (S, heads, n_kgroups, G), scales, coeffs."""
        if self._k_stacked is None:
            if not self._k_codes:
                shape = (0, self.heads, self.n_k_groups)
                self._k_stacked = (np.zeros(shape + (self.group_size,), dtype=np.uint8),
                                   np.zeros(shape), np.zeros(shape, dtype=np.uint8))
            else:
                self._k_stacked = (np.stack(self._k_codes), np.stack(self._k_scales),
                                   np.stack(self._k_coeffs))
        return self._k_stacked

    def k_dequantized(self) -> np.ndarray:
        """Reconstructed keys, shape (seq, heads, head_dim)."""
        codes, scales, coeffs = self.k_arrays()
        keys = decode_groups(codes, coeffs, scales).reshape(self.seq_len, self.heads, -1)
        return np.ascontiguousarray(keys[..., :self.head_dim])

    # -- V path ------------------------------------------------------------

    def init_windows(self, channel_scales: np.ndarray) -> None:
        """Create per-head process windows with prefill-derived channel scales."""
        channel_scales = np.asarray(channel_scales, dtype=np.float64)
        if channel_scales.shape != (self.heads, self.head_dim):
            raise ValueError(f"expected ({self.heads}, {self.head_dim}) channel scales")
        self.windows = [ProcessWindow(channel_scales[h], self.group_size)
                        for h in range(self.heads)]

    def push_v(self, v_vector) -> bool:
        """Stage one value vector; flush every head's window when it fills.

        Returns True when this push triggered a flush.
        """
        if self.windows is None:
            raise ValueError("windows not initialized; run prefill first")
        v_vector = np.asarray(v_vector, dtype=np.float64)
        if v_vector.shape != (self.heads, self.head_dim):
            raise ValueError(f"expected ({self.heads}, {self.head_dim}), got {v_vector.shape}")
        if self.max_seq is not None and self._total_v >= self.max_seq:
            raise ValueError(f"cache full: max_seq={self.max_seq}")
        for h in range(self.heads):
            self.windows[h].push(v_vector[h])
        self._total_v += 1
        if self.windows[0].is_full:
            for window, blocks in zip(self.windows, self._v_blocks):
                codes, metas = window.flush(self.v_table)
                blocks.append(_VBlock(codes, np.array([m.scale for m in metas]),
                                      np.array([m.coefficient_a for m in metas], dtype=np.uint8),
                                      self.group_size))
            return True
        return False

    def prefill(self, k_matrix, v_matrix) -> None:
        """Quantize a whole prompt at once.

        Keys encode as :meth:`append_k` would encode them one by one.  Value
        columns are split into full sequence blocks encoded directly
        (variance computed from the complete group); a trailing partial block
        enters the process window,
        whose channel scales are the per-channel absolute maxima of the
        prefill values.
        """
        k_matrix = np.asarray(k_matrix, dtype=np.float64)
        v_matrix = np.asarray(v_matrix, dtype=np.float64)
        if k_matrix.shape != v_matrix.shape or k_matrix.ndim != 3:
            raise ValueError("prefill expects matching (seq, heads, head_dim) tensors")
        if self.seq_len or self._total_v:
            raise ValueError("prefill must run on an empty cache")
        if self.max_seq is not None and k_matrix.shape[0] > self.max_seq:
            raise ValueError(f"prefill of {k_matrix.shape[0]} exceeds max_seq={self.max_seq}")
        self._append_keys(k_matrix)
        scales = np.max(np.abs(v_matrix), axis=0) / 127.0  # (heads, head_dim)
        self.init_windows(scales)
        seq = v_matrix.shape[0]
        full_blocks = seq // self.group_size
        flushed = full_blocks * self.group_size
        # (blocks, heads, head_dim, G): one sequence group per channel
        groups = np.ascontiguousarray(v_matrix[:flushed].reshape(
            full_blocks, self.group_size, self.heads, self.head_dim).transpose(0, 2, 3, 1))
        coeffs = select_by_variance(groups, self.v_table).astype(np.uint8)
        codes, block_scales = encode_groups(groups, coeffs)
        for h, (blocks, window) in enumerate(zip(self._v_blocks, self.windows)):
            blocks.extend(_VBlock(*block, self.group_size)
                          for block in zip(codes[:, h], block_scales[:, h], coeffs[:, h]))
            window.push(v_matrix[flushed:, h])
        self._total_v = seq

    def v_blocks(self, head: int) -> list[_VBlock]:
        return self._v_blocks[head]

    def v_dequantized(self) -> np.ndarray:
        """Reconstructed values (flushed blocks plus staged rows)."""
        out = np.zeros((self._total_v, self.heads, self.head_dim))
        flushed = self.flushed_tokens
        if flushed:
            # (heads, blocks, head_dim, G) -> (blocks * G, heads, head_dim)
            stacked = [np.array([[getattr(b, name) for b in blocks] for blocks in self._v_blocks])
                       for name in ("codes", "coeffs", "scales")]
            values = decode_groups(*stacked)
            out[:flushed] = values.transpose(1, 3, 0, 2).reshape(flushed, self.heads, self.head_dim)
        if self._total_v > flushed:
            staged = np.array([w.staged[:w.fill_count] for w in self.windows])
            scales = np.array([w.channel_scales for w in self.windows])
            out[flushed:] = (staged.astype(np.float64) * scales[:, None, :]).transpose(1, 0, 2)
        return out
