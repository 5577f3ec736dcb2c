"""Property tests: the batched codec and the fused GEMM against per-group
reference loops.

The reference functions below are the earlier per-group implementations
(one scalar encoder call per group, struct-packed container records, a
Python loop per cache token and channel, a scalar dot product per group
pair, attention head by head and value block by value block).  Every check
requires exact equality, bit for bit, but one: a block of attention query
rows matches one-row calls to 1e-12 of its largest output, since softmax
sums over masked rows add in a different order.
"""

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mant.attention import _attention_rows
from mant.codec import (
    INT4_COEFF,
    INT8_COEFF,
    KIND_MANT4,
    QuantizedTensor,
    code_values,
    encode_groups,
    encode_int8,
    group_lengths,
    quantize_activation_tensor,
    quantize_weight_tensor,
    to_groups,
)
from mant.container import read_quantized, write_quantized
from mant.gemm import combine, fused_dot, fused_group_dot, gemm
from mant.grid import build_grid
from mant.kvcache import KvCache
from mant.selection import (
    CandidateSet,
    build_variance_table,
    normalized_variance,
    quantize_by_variance,
    select_by_variance,
    select_weight_coefficient,
    table_from_probe_means,
    variance_from_sums,
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


# -- reference: per-group loops -------------------------------------------------

def ref_mags(a: int) -> np.ndarray:
    if a == INT4_COEFF:
        return np.arange(8, dtype=np.float64)
    return np.array(build_grid(a).magnitudes, dtype=np.float64)


def ref_weight_group(values, a: int):
    values = np.asarray(values, dtype=np.float64)
    mags = ref_mags(a)
    absmax = float(np.max(np.abs(values))) if values.size else 0.0
    scale = absmax / float(mags[-1])
    if scale == 0.0:
        return np.zeros(values.shape, dtype=np.uint8), 0.0
    idx = np.argmin(np.abs((np.abs(values) / scale)[:, None] - mags[None, :]), axis=1)
    codes = idx.astype(np.uint8)
    negative = values < 0
    if a == INT4_COEFF:
        negative &= idx != 0
    codes[negative] |= 0x8
    return codes, float(scale)


def ref_int8_group(values):
    values = np.asarray(values, dtype=np.float64)
    scale = float(np.max(np.abs(values))) / 127.0
    if scale == 0.0:
        return np.zeros(values.shape, dtype=np.int8), 0.0
    scaled = values / scale
    codes = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    return np.clip(codes, -127, 127).astype(np.int8), scale


def ref_dequantize_group(codes, a: int, scale: float) -> np.ndarray:
    if scale == 0.0:
        return np.zeros(codes.shape)
    if a == INT8_COEFF:
        return codes.astype(np.float64) * scale
    mags = ref_mags(a)
    return np.concatenate([mags, -mags])[codes] * scale


def ref_rows(values, axis):
    return np.moveaxis(values, axis, -1).reshape(-1, values.shape[axis])


def ref_slices(axis_len, group_size):
    for start in range(0, axis_len, group_size):
        yield start // group_size, start, min(start + group_size, axis_len)


def ref_quantize_tensor(values, coeffs, axis, group_size, int8: bool):
    rows = ref_rows(values, axis)
    n_rows, axis_len = rows.shape
    n_groups = -(-axis_len // group_size)
    codes = np.zeros((n_rows, n_groups, group_size), dtype=np.int8 if int8 else np.uint8)
    scales = np.zeros((n_rows, n_groups))
    lengths = np.zeros((n_rows, n_groups), dtype=np.uint16)
    for r in range(n_rows):
        for g, start, stop in ref_slices(axis_len, group_size):
            if int8:
                group_codes, scale = ref_int8_group(rows[r, start:stop])
            else:
                group_codes, scale = ref_weight_group(rows[r, start:stop], int(coeffs[r, g]))
            codes[r, g, :stop - start] = group_codes
            scales[r, g] = scale
            lengths[r, g] = stop - start
    return codes, scales, lengths


def ref_dequantize(qt: QuantizedTensor) -> np.ndarray:
    rows = np.zeros((qt.n_rows, qt.axis_length))
    for r in range(qt.n_rows):
        for g in range(qt.n_groups):
            length = int(qt.group_lengths[r, g])
            start = g * qt.group_size
            rows[r, start:start + length] = ref_dequantize_group(
                qt.codes[r, g, :length], int(qt.coefficients[r, g]), float(qt.scales[r, g]))
    moved = tuple(d for i, d in enumerate(qt.shape) if i != qt.group_axis) + (qt.axis_length,)
    return np.moveaxis(rows.reshape(moved), -1, qt.group_axis)


def ref_half_bits(scale: float) -> int:
    with np.errstate(over="ignore"):
        h = np.float16(scale)
    if np.isinf(h):
        h = np.float16(np.sign(scale) * 65504.0)
    return int(h.view(np.uint16))


def ref_pack(codes) -> bytes:
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size % 2:
        codes = np.concatenate([codes, np.zeros(1, dtype=np.uint8)])
    return (codes[0::2] | (codes[1::2] << 4)).tobytes()


def ref_write(qt: QuantizedTensor) -> bytes:
    out = bytearray(b"MNTQ")
    out += struct.pack("<HBHB", 1, 0 if qt.element_kind == KIND_MANT4 else 1,
                       qt.group_size, len(qt.shape))
    out += struct.pack(f"<{len(qt.shape)}Q", *qt.shape)
    out += struct.pack("<B", qt.group_axis)
    payload = bytearray()
    for r in range(qt.n_rows):
        for g in range(qt.n_groups):
            length = int(qt.group_lengths[r, g])
            out += struct.pack("<HBH", ref_half_bits(float(qt.scales[r, g])),
                               int(qt.coefficients[r, g]), length)
            group_codes = qt.codes[r, g, :length]
            payload += ref_pack(group_codes) if qt.element_kind == KIND_MANT4 \
                else group_codes.astype(np.int8).tobytes()
    return bytes(out + payload)


def ref_select_weight(w_group, x_calib, candidates) -> int:
    best_a, best_err = candidates.options[0], np.inf
    for a in candidates.options:
        codes, scale = ref_weight_group(w_group, a)
        err = float(np.sum((x_calib @ (ref_dequantize_group(codes, a, scale) - w_group)) ** 2))
        if err < best_err:
            best_a, best_err = a, err
    return best_a


def ref_normalized_variance(values) -> float:
    absmax = float(np.max(np.abs(values))) if values.size else 0.0
    if absmax == 0.0:
        return 0.0
    mean = float(np.mean(values))
    var = (float(np.mean(values ** 2)) - mean * mean) / (absmax * absmax)
    return float(min(max(var, 0.0), 1.0))


def ref_variance_from_sums(total, total_sq, count, absmax) -> float:
    if absmax == 0.0 or count == 0:
        return 0.0
    mean = total / count
    var = (total_sq / count - mean * mean) / (absmax * absmax)
    return float(min(max(var, 0.0), 1.0))


def ref_lookup(table, variance) -> int:
    v = min(max(float(variance), 0.0), 1.0)
    for a, lo, hi in table.entries:
        if lo <= v < hi:
            return a
    return table.entries[-1][0]


def ref_table(groups, coefficients):
    probes = tuple((a + b) // 2 for a, b in zip(coefficients, coefficients[1:]))
    space = tuple(sorted(set(coefficients) | set(probes)))
    found = {p: [] for p in probes}
    for row in groups:
        errs = []
        for a in space:
            codes, scale = ref_weight_group(row, a)
            errs.append(float(np.mean((ref_dequantize_group(codes, a, scale) - row) ** 2)))
        label = space[int(np.argmin(errs))]
        if label in found:
            found[label].append(ref_normalized_variance(row))
    return table_from_probe_means(coefficients, [float(np.mean(v)) if v else None
                                                 for v in found.values()])


class RefCache:
    """The KV cache as token, group and channel loops over the reference codec."""

    def __init__(self, heads, head_dim, k_table, v_table, group_size):
        self.heads, self.head_dim, self.group_size = heads, head_dim, group_size
        self.k_table, self.v_table = k_table, v_table
        self.k = []            # per token: (codes, scales, coeffs)
        self.v_blocks = [[] for _ in range(heads)]

    def append_k(self, k_vector):
        n_groups = -(-self.head_dim // self.group_size)
        codes = np.zeros((self.heads, n_groups, self.group_size), dtype=np.uint8)
        scales = np.zeros((self.heads, n_groups))
        coeffs = np.zeros((self.heads, n_groups), dtype=np.uint8)
        for h in range(self.heads):
            for g, start, stop in ref_slices(self.head_dim, self.group_size):
                group = k_vector[h, start:stop]
                absmax = float(np.max(np.abs(group)))
                a = self.k_table.entries[0][0] if absmax == 0.0 else ref_lookup(
                    self.k_table, ref_variance_from_sums(float(group.sum()),
                                                         float((group * group).sum()),
                                                         group.size, absmax))
                codes[h, g, :stop - start], scales[h, g] = ref_weight_group(group, a)
                coeffs[h, g] = a
        self.k.append((codes, scales, coeffs))

    def prefill(self, k_matrix, v_matrix):
        for t in range(k_matrix.shape[0]):
            self.append_k(k_matrix[t])
        self.channel_scales = np.max(np.abs(v_matrix), axis=0) / 127.0
        self.staged = [[] for _ in range(self.heads)]
        self.sums = np.zeros((3, self.heads, self.head_dim))   # max, sum, sum of squares
        size = self.group_size
        for b in range(v_matrix.shape[0] // size):
            rows = v_matrix[b * size:(b + 1) * size]
            for h in range(self.heads):
                block = []
                for c in range(self.head_dim):
                    column = rows[:, h, c]
                    silent = float(np.max(np.abs(column))) == 0.0
                    a = self.v_table.entries[0][0] if silent else ref_lookup(
                        self.v_table, ref_normalized_variance(column))
                    block.append(ref_weight_group(column, a) + (a,))
                self.v_blocks[h].append(block)
        for t in range(v_matrix.shape[0] // size * size, v_matrix.shape[0]):
            self.push_v(v_matrix[t], flush=False)

    def push_v(self, v_vector, flush=True):
        for h in range(self.heads):
            scales = self.channel_scales[h]
            codes = np.zeros(self.head_dim)
            live = scales > 0.0
            scaled = np.divide(v_vector[h], scales, out=np.zeros(self.head_dim), where=live)
            codes[live] = np.sign(scaled[live]) * np.floor(np.abs(scaled[live]) + 0.5)
            codes = np.clip(codes, -127, 127).astype(np.int8)
            self.staged[h].append(codes)
            decoded = codes.astype(np.float64) * scales
            self.sums[0, h] = np.maximum(self.sums[0, h], np.abs(decoded))
            self.sums[1, h] += decoded
            self.sums[2, h] += decoded * decoded
        if flush and len(self.staged[0]) == self.group_size:
            for h in range(self.heads):
                decoded = np.array(self.staged[h]).astype(np.float64) * self.channel_scales[h]
                block = []
                for c in range(self.head_dim):
                    absmax = float(self.sums[0, h, c])
                    a = self.v_table.entries[0][0] if absmax == 0.0 else ref_lookup(
                        self.v_table, ref_variance_from_sums(float(self.sums[1, h, c]),
                                                             float(self.sums[2, h, c]),
                                                             self.group_size, absmax))
                    block.append(ref_weight_group(decoded[:, c], a) + (a,))
                self.v_blocks[h].append(block)
                self.staged[h] = []
            self.sums[:] = 0.0


def ref_gemm(x_q: QuantizedTensor, w_q: QuantizedTensor) -> np.ndarray:
    """Scalar fused GEMM: per output, group partial sums folded by
    :func:`combine` and added in ascending group order."""
    out = np.zeros((x_q.shape[0], w_q.shape[1]))
    for m in range(x_q.shape[0]):
        for n in range(w_q.shape[1]):
            total = 0.0
            for g in range(x_q.n_groups):
                length = int(x_q.group_lengths[m, g])
                res = fused_group_dot(x_q.codes[m, g, :length], w_q.codes[n, g, :length])
                total += combine(res, int(w_q.coefficients[n, g]), float(x_q.scales[m, g]),
                                 float(w_q.scales[n, g]))
            out[m, n] = total
    return out


def ref_gemm_int8(x_q: QuantizedTensor, y_q: QuantizedTensor) -> np.ndarray:
    """INT8 x INT8 GEMM as its own loop: one matmul of the codes per group,
    times the scale products, added in ascending group order."""
    out = np.zeros((x_q.shape[0], y_q.shape[1]))
    x_codes = x_q.codes.astype(np.float64)
    y_codes = y_q.codes.astype(np.float64)  # (N, n_groups, G)
    for g in range(x_q.n_groups):
        length = int(x_q.group_lengths[0, g])
        psum = x_codes[:, g, :length] @ y_codes[:, g, :length].T
        out += psum * (x_q.scales[:, g][:, None] * y_q.scales[:, g][None, :])
    return out


def ref_scores_fused(q_codes, q_scales, cache, head, upto) -> np.ndarray:
    """Fused attention scores of one head against cached keys [0, upto)."""
    k_codes, k_scales, k_coeffs = cache.k_arrays()
    scores = np.zeros(upto)
    for g, length in enumerate(group_lengths(cache.head_dim, cache.group_size)):
        scores += fused_dot(q_codes[g][:length], q_scales[g],
                            code_values(k_codes[:upto, head, g, :length], k_coeffs[:upto, head, g]),
                            k_scales[:upto, head, g])
    return scores


def ref_weighted_values_fused(p_codes, p_scales, cache, head, upto) -> np.ndarray:
    """Fused probability-value product of one head over tokens [0, upto):
    the 4-bit path block by block, then the window's staged INT8 rows."""
    out = np.zeros(cache.head_dim)
    group_size = cache.group_size
    for b, block in enumerate(cache.v_blocks(head)):
        start = b * group_size
        if start >= upto:
            break
        length = min(group_size, upto - start)
        out += fused_dot(p_codes[b][:length], p_scales[b],
                         code_values(block.codes[:, :length], block.coeffs), block.scales)
    flushed = cache.flushed_tokens
    if upto > flushed:
        window = cache.windows[head]
        staged = window.staged[:upto - flushed].astype(np.float64)
        b = flushed // group_size
        xg = p_codes[b][:upto - flushed].astype(np.float64)
        out += (staged.T @ xg) * (p_scales[b] * window.channel_scales)
    return out


def ref_attention_row(q_row, cache, upto, scale) -> np.ndarray:
    """Quantized attention of one query, head by head."""
    q_codes, q_scales = encode_int8(to_groups(q_row, cache.group_size))
    out = np.zeros((cache.heads, cache.head_dim))
    for h in range(cache.heads):
        scores = ref_scores_fused(q_codes[h], q_scales[h], cache, h, upto) * scale
        exps = np.exp(scores - np.max(scores))
        p_codes, p_scales = encode_int8(to_groups(exps / exps.sum(), cache.group_size))
        out[h] = ref_weighted_values_fused(p_codes, p_scales, cache, h, upto)
    return out


def streamed_cache(k, v, prompt: int, group_size: int) -> KvCache:
    """A cache prefilled with the first ``prompt`` tokens of ``k``, ``v``
    ``(tokens, heads, head_dim)`` and fed the rest one decode step at a time."""
    k_table = table_from_probe_means((0, 20, 40, 80, 120), [0.05, 0.11, 0.15, 0.25])
    v_table = table_from_probe_means((0, 10, 30, 60, 120), [0.0, 0.02, 0.09, 0.3])
    cache = KvCache(k.shape[1], k.shape[2], k_table, v_table, group_size)
    cache.prefill(k[:prompt], v[:prompt])
    for t in range(prompt, len(k)):
        cache.append_k(k[t])
        cache.push_v(v[t])
    return cache


def ref_two_lane_dot(codes, coeffs, scales, x_codes, x_scale) -> np.ndarray:
    """4-bit groups ``(rows, length)`` times one activation group as two
    float64 lanes, sign*m and sign*2**m, folded with each row's coefficient
    and both scales (the attention products' earlier form)."""
    mags = (codes & 0x7).astype(np.float64)
    signs = np.where(codes & 0x8, -1.0, 1.0)
    xg = x_codes.astype(np.float64)
    psum1 = (signs * mags) @ xg
    psum2 = (signs * np.exp2(mags)) @ xg
    is_mant = coeffs != INT4_COEFF
    a_eff = np.where(is_mant, coeffs.astype(np.float64), 1.0)
    return (psum1 * a_eff + psum2 * is_mant) * (x_scale * scales)


# -- strategies ---------------------------------------------------------------------

MAX_DIM = {1: 300, 2: 40, 3: 12}


@st.composite
def tensors(draw):
    """A 1-3-D tensor, a grouping axis and a group size; groups span
    magnitudes 1e-8 to 1e6 and some are all zero."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(1, MAX_DIM[ndim]), min_size=ndim, max_size=ndim)))
    axis = draw(st.integers(0, ndim - 1))
    group_size = draw(st.integers(1, 130))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.standard_normal((int(np.prod(shape)) // shape[axis], shape[axis]))
    n_groups = -(-shape[axis] // group_size)
    magnitude = 10.0 ** rng.uniform(-8, 6, (rows.shape[0], n_groups))
    magnitude[rng.random(magnitude.shape) < 0.15] = 0.0
    rows *= np.repeat(magnitude, group_size, axis=1)[:, :shape[axis]]
    moved = tuple(d for i, d in enumerate(shape) if i != axis) + (shape[axis],)
    values = np.moveaxis(rows.reshape(moved), -1, axis)
    coeffs = rng.choice(np.arange(INT4_COEFF + 1), (rows.shape[0], n_groups)).astype(np.uint8)
    return values, axis, group_size, coeffs


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


# scales at which a tie group lands on its targets exactly (powers of two) and
# at which it rounds near them
TIE_SCALES = (2.0 ** -30, 0.5, 1.0, 2.0 ** 40, 0.1, 3.7, 1e5 / 3)


def tie_groups():
    """Groups ``(129 * len(TIE_SCALES), 58)`` and their coefficients: each
    holds its coefficient's midpoints between adjacent magnitudes, the floats
    either side of each midpoint and every magnitude, with both signs, times
    one of the scales.  The top magnitude makes the scale the group's."""
    groups, coeffs = [], []
    for a in range(INT4_COEFF + 1):
        mags = ref_mags(a)
        mids = (mags[1:] + mags[:-1]) / 2
        targets = np.concatenate([mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf),
                                  mags])
        for scale in TIE_SCALES:
            groups.append(np.concatenate([targets, -targets]) * scale)
            coeffs.append(a)
    return np.array(groups), np.array(coeffs, dtype=np.uint8)


# -- properties -------------------------------------------------------------------------

@SETTINGS
@given(tensors())
def test_weight_tensor_matches_group_loop(case):
    values, axis, group_size, coeffs = case
    qt = quantize_weight_tensor(values, coeffs, axis, group_size)
    codes, scales, lengths = ref_quantize_tensor(values, coeffs, axis, group_size, int8=False)
    assert same_bits(qt.codes, codes)
    assert same_bits(qt.scales, scales)
    assert same_bits(qt.group_lengths, lengths)
    assert same_bits(qt.coefficients, coeffs)
    assert same_bits(qt.dequantize(), ref_dequantize(qt))


def test_encoder_ties_match_argmin_oracle():
    # every coefficient in one call over more than 16,384 values
    groups, coeffs = tie_groups()
    assert groups.size > 1 << 14
    codes, scales = encode_groups(groups, coeffs)
    refs = [ref_weight_group(group, int(a)) for group, a in zip(groups, coeffs)]
    assert same_bits(codes, np.array([ref_codes for ref_codes, _ in refs]))
    assert same_bits(scales, np.array([ref_scale for _, ref_scale in refs]))


@SETTINGS
@given(tensors())
def test_activation_tensor_matches_group_loop(case):
    values, axis, group_size, _ = case
    qt = quantize_activation_tensor(values, axis, group_size)
    codes, scales, lengths = ref_quantize_tensor(values, None, axis, group_size, int8=True)
    assert same_bits(qt.codes, codes)
    assert same_bits(qt.scales, scales)
    assert same_bits(qt.group_lengths, lengths)
    assert same_bits(qt.dequantize(), ref_dequantize(qt))


@SETTINGS
@given(tensors(), st.booleans())
def test_container_matches_loop_writer(case, int8):
    values, axis, group_size, coeffs = case
    qt = quantize_activation_tensor(values, axis, group_size) if int8 \
        else quantize_weight_tensor(values, coeffs, axis, group_size)
    buf = io.BytesIO()
    write_quantized(buf, qt)
    assert buf.getvalue() == ref_write(qt)
    loaded = read_quantized(io.BytesIO(buf.getvalue()))
    assert same_bits(loaded.codes, qt.codes)
    assert same_bits(loaded.coefficients, qt.coefficients)
    assert same_bits(loaded.group_lengths, qt.group_lengths)
    half = np.array([ref_half_bits(float(s)) for s in qt.scales.ravel()], dtype=np.uint16)
    assert same_bits(loaded.scales, half.view(np.float16).astype(np.float64).reshape(qt.scales.shape))
    assert ref_write(loaded) == buf.getvalue()


@pytest.mark.parametrize("int8", [False, True])
@pytest.mark.parametrize("factor", [1e-4, 1e4])   # groups of 1e-12 to 1e10
@SETTINGS
@given(case=tensors())
def test_written_tensor_is_the_tensor_read_back(case, int8, factor):
    # scales below and above the half range, for both kinds
    values, axis, group_size, coeffs = case
    values = values * factor
    qt = quantize_activation_tensor(values, axis, group_size) if int8 \
        else quantize_weight_tensor(values, coeffs, axis, group_size)
    buf = io.BytesIO()
    stored = write_quantized(buf, qt)
    loaded = read_quantized(io.BytesIO(buf.getvalue()))
    assert (stored.shape, stored.element_kind, stored.group_axis, stored.group_size) == \
        (loaded.shape, loaded.element_kind, loaded.group_axis, loaded.group_size)
    for field in ("codes", "scales", "coefficients", "levels"):
        assert same_bits(getattr(stored, field), getattr(loaded, field)), field


def levels_hold(qt: QuantizedTensor) -> bool:
    """The tensor's levels and codes agree: the ``code_values`` of a 4-bit
    tensor's codes are its int16 levels, and an INT8 tensor's codes are its
    int8 levels, the same array.  A container round trip keeps both."""
    buf = io.BytesIO()
    write_quantized(buf, qt)
    loaded = read_quantized(io.BytesIO(buf.getvalue()))
    for t in (qt, loaded):
        if t.element_kind == KIND_MANT4:
            if not (t.levels.dtype == np.int16
                    and same_bits(code_values(t.codes, t.coefficients), t.levels)):
                return False
        elif not (t.codes is t.levels and t.levels.dtype == np.int8):
            return False
    return same_bits(loaded.levels, qt.levels)


@SETTINGS
@given(tensors(), st.integers(1, 3), st.sampled_from([(64, 64), (48, 17), (20, 32)]),
       st.integers(1, 100), st.integers(0, 70), st.integers(0, 2 ** 32 - 1))
def test_levels_are_code_values_wherever_a_tensor_is_built(case, heads, geometry, prompt,
                                                             steps, seed):
    values, axis, group_size, coeffs = case
    table = table_from_probe_means((0, 20, 40, 80, 120), [0.05, 0.11, 0.15, 0.25])
    assert levels_hold(quantize_weight_tensor(values, coeffs, axis, group_size))
    assert levels_hold(quantize_activation_tensor(values, axis, group_size))
    assert levels_hold(quantize_by_variance(values, table, axis, group_size))
    head_dim, kv_group = geometry
    rng = np.random.default_rng(seed)
    k, v = rng.standard_normal((2, prompt + steps, heads, head_dim)) * 10.0 ** rng.uniform(-3, 3)
    cache = KvCache(heads, head_dim, table, table, kv_group)
    cache.prefill(k[:prompt], v[:prompt])
    assert levels_hold(cache.keys) and levels_hold(cache.values)
    for t in range(prompt, prompt + steps):
        cache.append_k(k[t])
        assert levels_hold(cache.keys)
        if cache.push_v(v[t]):
            assert levels_hold(cache.values)


@SETTINGS
@given(st.integers(1, 130), st.integers(0, 2 ** 32 - 1))
def test_batched_variances_match_scalar_forms(group_size, seed):
    rng = np.random.default_rng(seed)
    groups = rng.standard_normal((400, group_size)) * 10.0 ** rng.uniform(-8, 6, (400, 1))
    groups += rng.uniform(-2, 2, (400, 1)) * np.abs(groups).max(axis=1, keepdims=True)
    groups[rng.random(400) < 0.05] = 0.0
    table = table_from_probe_means((0, 20, 40, 80, 120), [0.05, 0.11, 0.11, 0.25])
    absmax = np.abs(groups).max(axis=1)
    total, total_sq = groups.sum(axis=1), (groups * groups).sum(axis=1)
    streaming = variance_from_sums(total, total_sq, group_size, absmax)
    assert same_bits(streaming, np.array([
        ref_variance_from_sums(float(t), float(q), group_size, float(m))
        for t, q, m in zip(total, total_sq, absmax)]))
    assert same_bits(normalized_variance(groups),
                     np.array([ref_normalized_variance(g) for g in groups]))
    assert list(table.lookup(streaming)) == [ref_lookup(table, v) for v in streaming]
    assert list(select_by_variance(groups, table)) == [
        table.entries[0][0] if not g.any() else ref_lookup(table, ref_normalized_variance(g))
        for g in groups]


@SETTINGS
@given(st.integers(1, 130), st.integers(1, 24), st.integers(1, 12), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
def test_batched_weight_selection_matches_loop(group_size, n, samples, include_int, seed):
    rng = np.random.default_rng(seed)
    groups = rng.standard_normal((n, group_size)) * 10.0 ** rng.uniform(-8, 6, (n, 1))
    groups[rng.random(n) < 0.1] = 0.0
    x_calib = rng.standard_normal((samples, group_size + 5))[:, 2:2 + group_size]
    candidates = CandidateSet(include_int=include_int)
    chosen = select_weight_coefficient(groups, x_calib, candidates)
    assert list(chosen) == [ref_select_weight(g, x_calib, candidates) for g in groups]
    assert select_weight_coefficient(groups[0], x_calib, candidates) == chosen[0]


@SETTINGS
@given(st.integers(2, 70), st.integers(32, 90), st.integers(0, 2 ** 32 - 1))
def test_batched_variance_table_matches_loop(group_size, n, seed):
    rng = np.random.default_rng(seed)
    groups = rng.standard_normal((n, group_size)) * 10.0 ** rng.uniform(-8, 6, (n, 1))
    groups[:, :group_size // 3] *= rng.uniform(0.0, 3.0, (n, 1))
    candidates = (0, 17, 40, 90, 120)
    # a transposed view: the table must not depend on memory order
    table = build_variance_table(np.ascontiguousarray(groups.T).T, candidates)
    assert table == ref_table(groups, candidates)


@SETTINGS
@given(st.integers(1, 3), st.sampled_from([(64, 64), (80, 32), (48, 17), (20, 32)]),
       st.integers(1, 150), st.integers(0, 70), st.integers(0, 2 ** 32 - 1))
def test_cache_matches_token_loops(heads, geometry, prompt, steps, seed):
    head_dim, group_size = geometry
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((prompt + steps, heads, head_dim)) * 10.0 ** rng.uniform(-3, 3)
    v = rng.standard_normal((prompt + steps, heads, head_dim)) * 10.0 ** rng.uniform(-3, 3)
    k[rng.random(k.shape[:2]) < 0.05] = 0.0
    v[:, :, 0] = 0.0   # a silent channel
    k_table = table_from_probe_means((0, 20, 40, 80, 120), [0.05, 0.11, 0.15, 0.25])
    v_table = table_from_probe_means((0, 10, 30, 60, 120), [0.0, 0.02, 0.09, 0.3])
    cache = KvCache(heads, head_dim, k_table, v_table, group_size)
    ref = RefCache(heads, head_dim, k_table, v_table, group_size)
    cache.prefill(k[:prompt], v[:prompt])
    ref.prefill(k[:prompt], v[:prompt])
    for t in range(prompt, prompt + steps):
        cache.append_k(k[t])
        cache.push_v(v[t])
        ref.append_k(k[t])
        ref.push_v(v[t])

    codes, scales, coeffs = cache.k_arrays()
    for name, got, i in (("codes", codes, 0), ("scales", scales, 1), ("coeffs", coeffs, 2)):
        assert same_bits(got, np.array([token[i] for token in ref.k])), name
    for h in range(heads):
        blocks = cache.v_blocks(h)
        assert len(blocks) == len(ref.v_blocks[h])
        for block, ref_block in zip(blocks, ref.v_blocks[h]):
            assert same_bits(block.codes, np.array([c for c, _, _ in ref_block]))
            assert same_bits(block.scales, np.array([s for _, s, _ in ref_block]))
            assert same_bits(block.coeffs, np.array([a for _, _, a in ref_block], dtype=np.uint8))
        window = cache.windows[h]
        staged = np.array(ref.staged[h], dtype=np.int8).reshape(-1, head_dim)
        assert same_bits(window.staged[:window.fill_count], staged)
        assert same_bits(window.running_max, ref.sums[0, h])
        assert same_bits(window.sum_v, ref.sums[1, h])
        assert same_bits(window.sum_v2, ref.sums[2, h])


@SETTINGS
@given(st.integers(1, 8), st.integers(1, 200), st.integers(1, 6), st.integers(1, 130),
       st.integers(0, 2 ** 32 - 1))
def test_gemm_matches_scalar_group_loop(m, k, n, group_size, seed):
    rng = np.random.default_rng(seed)
    n_groups = -(-k // group_size)
    x = rng.standard_normal((m, k)) * np.repeat(10.0 ** rng.uniform(-8, 6, (m, n_groups)),
                                                group_size, axis=1)[:, :k]
    w = rng.standard_normal((k, n)) * np.repeat(10.0 ** rng.uniform(-8, 6, (n_groups, n)),
                                                group_size, axis=0)[:k]
    x[rng.random(m) < 0.2] = 0.0       # zero-scale activation rows
    w[:, rng.random(n) < 0.2] = 0.0    # zero-scale weight columns
    coeffs = rng.choice(np.arange(INT4_COEFF + 1), (n, n_groups)).astype(np.uint8)
    coeffs[rng.random(coeffs.shape) < 0.25] = INT4_COEFF
    x_q = quantize_activation_tensor(x, 1, group_size)
    w_q = quantize_weight_tensor(w, coeffs, 0, group_size)
    assert same_bits(gemm(x_q, w_q), ref_gemm(x_q, w_q))


@SETTINGS
@given(st.integers(1, 8), st.integers(1, 200), st.integers(1, 6), st.integers(1, 130),
       st.integers(0, 2 ** 32 - 1))
def test_gemm_of_int8_weights_matches_int8_group_loop(m, k, n, group_size, seed):
    rng = np.random.default_rng(seed)
    n_groups = -(-k // group_size)
    x = rng.standard_normal((m, k)) * np.repeat(10.0 ** rng.uniform(-8, 6, (m, n_groups)),
                                                group_size, axis=1)[:, :k]
    w = rng.standard_normal((k, n)) * np.repeat(10.0 ** rng.uniform(-8, 6, (n_groups, n)),
                                                group_size, axis=0)[:k]
    x[rng.random(m) < 0.2] = 0.0       # zero-scale activation rows
    w[:, rng.random(n) < 0.2] = 0.0    # zero-scale weight columns
    x_q = quantize_activation_tensor(x, 1, group_size)
    w_q = quantize_activation_tensor(w, 0, group_size)
    assert same_bits(gemm(x_q, w_q), ref_gemm_int8(x_q, w_q))


@SETTINGS
@given(st.integers(1, 40), st.integers(1, 130), st.integers(0, 2 ** 32 - 1))
def test_fused_dot_of_one_activation_group_matches_two_lanes(rows, length, seed):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 16, (rows, length)).astype(np.uint8)
    coeffs = rng.choice(np.arange(INT4_COEFF + 1), rows).astype(np.uint8)
    scales = 10.0 ** rng.uniform(-8, 6, rows)
    scales[rng.random(rows) < 0.1] = 0.0
    x_codes, x_scale = encode_int8(rng.standard_normal(length) * 10.0 ** rng.uniform(-8, 6))
    assert same_bits(fused_dot(x_codes, x_scale, code_values(codes, coeffs), scales),
                     ref_two_lane_dot(codes, coeffs, scales, x_codes, x_scale))


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 40), st.integers(1, 130),
       st.integers(0, 2 ** 32 - 1))
def test_stacked_fused_dot_matches_per_head_calls(heads, m, n, length, seed):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 16, (heads, n, length)).astype(np.uint8)
    coeffs = rng.choice(np.arange(INT4_COEFF + 1), (heads, n)).astype(np.uint8)
    coeffs[rng.random(coeffs.shape) < 0.25] = INT4_COEFF
    scales = 10.0 ** rng.uniform(-8, 6, (heads, n))
    scales[rng.random(scales.shape) < 0.1] = 0.0
    x_codes, x_scales = encode_int8(rng.standard_normal((heads, m, length))
                                    * 10.0 ** rng.uniform(-8, 6, (heads, m, 1)))
    levels = code_values(codes, coeffs)
    stacked = fused_dot(x_codes, x_scales, levels, scales)
    assert same_bits(stacked, np.array([fused_dot(x_codes[h], x_scales[h], levels[h], scales[h])
                                        for h in range(heads)]))
    # one activation group per head, as attention calls it
    assert same_bits(stacked[:, 0], np.array([fused_dot(x_codes[h, 0], x_scales[h, 0], levels[h],
                                                        scales[h])
                                              for h in range(heads)]))


@SETTINGS
@given(st.integers(1, 4), st.sampled_from([(48, 32), (100, 64), (64, 64), (40, 16)]),
       st.integers(1, 150), st.integers(0, 40), st.integers(0, 2 ** 32 - 1))
def test_batched_attention_matches_per_head_loop(heads, geometry, prompt, steps, seed):
    head_dim, group_size = geometry
    rng = np.random.default_rng(seed)
    k, v = rng.standard_normal((2, prompt + steps, heads, head_dim)) * 10.0 ** rng.uniform(-3, 3)
    v[:, :, 0] = 0.0   # a silent channel
    cache = streamed_cache(k, v, prompt, group_size)
    total, flushed = prompt + steps, cache.flushed_tokens
    # inside a flushed block, on a block boundary, inside the window, all tokens
    uptos = {1, total}
    if total > flushed:
        uptos.add(int(rng.integers(flushed, total)) + 1)
    if flushed:
        uptos |= {flushed, group_size * int(rng.integers(1, flushed // group_size + 1)),
                  int(rng.integers(1, flushed))}
    scale = 1.0 / np.sqrt(head_dim)
    for upto in sorted(uptos):
        q_row = rng.standard_normal((heads, head_dim))
        assert same_bits(_attention_rows(q_row[None], cache, upto, scale, group_size)[0],
                         ref_attention_row(q_row, cache, upto, scale)), upto


@SETTINGS
@given(st.integers(1, 3), st.sampled_from([(48, 32), (100, 64), (64, 64), (40, 16)]),
       st.integers(1, 150), st.integers(0, 40), st.sampled_from(["cache", "int8", "float"]),
       st.integers(0, 2 ** 32 - 1))
def test_attention_block_matches_one_row_calls(heads, geometry, prompt, steps, store, seed):
    head_dim, group_size = geometry
    rng = np.random.default_rng(seed)
    k, v = rng.standard_normal((2, prompt + steps, heads, head_dim)) * 10.0 ** rng.uniform(-3, 3)
    cache = streamed_cache(k, v, prompt, group_size)
    total, flushed = prompt + steps, cache.flushed_tokens
    kv = cache if store == "cache" else (k, v)
    int8 = store != "float"
    # a block's first row sees [0, first): on a block boundary, inside a
    # flushed block near the window (so the block reaches into it), or
    # inside the window
    firsts = {1}
    if flushed:
        firsts |= {group_size * int(rng.integers(1, flushed // group_size + 1)),
                   int(rng.integers(max(1, flushed - 20), flushed))}
    if total > flushed:
        firsts.add(int(rng.integers(flushed, total)) + 1)
    scale = 1.0 / np.sqrt(head_dim)
    for first in sorted(firsts):
        q = rng.standard_normal((min(24, total - first + 1), heads, head_dim))
        block = _attention_rows(q, kv, first, scale, group_size, int8)
        rows = np.concatenate([_attention_rows(q[r:r + 1], kv, first + r, scale, group_size,
                                               int8) for r in range(len(q))])
        assert np.max(np.abs(block - rows)) <= 1e-12 * np.max(np.abs(rows)), first
