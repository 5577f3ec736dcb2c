"""Print sha256 digests of outputs that a refactor must leave byte-identical.

Run it on two trees on the same machine and compare the lines:

    PYTHONPATH=src python3 tools/output_digest.py

It prints 34 lines, each a name and the first 16 hex digits of a sha256:

* ``attention decode ...`` and ``attention prompt ...``: two lines per
  ``run_toy_attention`` case.  The decode line hashes ``step_outputs``,
  ``reference_steps``, ``step_cosine`` and ``step_mse`` (their bytes),
  then ``repr((flush_steps, clamp_count))``; the prompt line hashes
  ``prefill_outputs`` and ``reference_prefill``, then
  ``repr(prefill_cosine)``.  One case runs value groups of 192 tokens,
  longer than the 129 whose products stay exact in float32, and one runs
  head_dim 1 over 75 value blocks, where a fold that summed the group axis
  pairwise instead of in ascending order would move the decode line;
* ``gemm mant4`` and ``gemm int8``: ``gemm`` outputs over several shapes,
  group sizes with tail groups and zero rows, with mixed 4-bit weights
  (adaptive and INT4 coefficients) and with INT8 weights;
* ``gemm extremes``: ``gemm`` and ``grouped_dot`` outputs at M = 1, with
  192-element groups (past the 129 whose products stay exact in float32)
  and tails, and with rows and columns near 1e-165 whose scale products
  underflow to 0 against psums of both signs; ``grouped_dot`` takes the
  scales row-major, column-major and as transposed views, with 4-bit and
  INT8 right operands, and with the rows split over a leading batch axis;
* ``gemm reuse``: ``gemm`` of one 384x384 weight, its groups under the 16
  weight options in equal shares (INT4 included), at M = 1, 64 and 200,
  each product taken twice on the same tensor, so a product of a weight
  that ``gemm`` has used before is hashed beside its first;
* ``kv coefficients``: the key and flushed-value coefficient arrays of
  caches streamed (prefill, then decode steps) under fixed variance tables,
  over geometries with tail key groups, then the ``calibration_tables`` JSON
  of two geometries;
* ``kv stores``: every array of the same caches, in C order: codes, scales
  and coefficients of ``k_arrays()`` and of ``cache.values.split_rows(heads,
  head_dim)`` moved to ``(blocks, heads, head_dim, ...)``, then the staged
  INT8 rows and the channel scales of the process window;
* ``kv window``: the open process window of the same caches: its running
  maxima, sums and sums of squares, then ``repr(clamp_count)``;
* ``kv attention rows``: the bits of ``_attention_rows`` (fused, INT8
  queries and probabilities) over caches of a tail key group, 192-token
  value groups, head_dim 1 and three heads, for the prompt in blocks of 32
  query rows and then every decode step, across at least one flush;
* ``kv store growth``: the MNTQ bytes (``container.write_quantized``) of
  ``cache.keys`` and ``cache.values`` of two caches, one with a tail key
  group, whose decode steps grow the keys past 4x the prompt (two
  doublings of a store that starts at the prompt's length) and flush the
  window at least three times;
* ``single group``: codes, scales and coefficients of
  ``quantize_weight_group`` (adaptive, INT4, all-zero and odd-length groups)
  and ``quantize_activation_group`` results, then of one multi-head
  ``ProcessWindow.flush`` block;
* ``encoder ties``: codes and scales of one :func:`encode_nibbles` call with
  per-group coefficients over every coefficient's tie groups: its midpoints
  between adjacent magnitudes, the floats either side of each and every
  magnitude, with both signs, at power-of-two and other scales (the groups of
  ``tests/test_properties.py::test_encoder_ties_match_argmin_oracle``);
* ``encoder extremes``: codes and scales of one :func:`encode_nibbles` call
  that stacks groups of six under all 129 coefficients: 1e300 beside
  1e-300 (where ``|v| / scale`` underflows to 0), groups whose scale
  flushes to 0 with nonzero values of both signs, subnormal scales that
  leave ``|v| / scale`` past the top magnitude, magnitudes near 1e-300 and
  1e300, ``-0.0`` and INT4 zeros; the encoder's sign and table bound;
* ``mse selection``: ``select_weight_coefficient`` picks over about 2,000
  seeded groups (Gaussian, Laplace, uniform, spiked, all-zero and constant)
  of lengths 64, 48, 32 and 1, against 8-, 32- and 64-row calibration sets,
  with candidate sets with and without INT4;
* ``cli quantize``: the MNTQ files and ``--stats`` JSON of CLI ``quantize``
  runs for the weight, activation and kv roles;
* ``cli quantize kv table and config``: the same for kv-role runs with a
  ``--table`` and with a ``--calib-config``;
* ``sim``: the JSON report (``compare_configs``) and the CSV rows of
  ``mant sim`` over a gemm/attention/gemm workload under three configs of
  other weight widths, group sizes, bandwidths and costs;
* ``fit-grid``: the coefficients ``fit_coefficient`` fits to the four
  reference curves (NormalFloat at its default epsilon) under ``mae`` and
  ``mse``;
* ``fit-grid curves``: the points of those four curves.

The float sums depend on the BLAS build, so digests compare trees on one
machine; they are not fixed reference values.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from mant.attention import (AttentionPolicies, _attention_rows, calibration_tables,
                            run_toy_attention, synthesize_stream)
from mant.cli import main
from mant.container import write_quantized
from mant.codec import (INT4_COEFF, _level_nibbles, encode_levels, group_lengths, magnitude_values,
                        quantize_activation_group, quantize_activation_tensor,
                        quantize_weight_group, quantize_weight_tensor)
from mant.grid import CURVE_KINDS, fit_coefficient, reference_curve
from mant.kvcache import KvCache, ProcessWindow
from mant.selection import CandidateSet, select_weight_coefficient, table_from_probe_means

gemm_module = importlib.import_module("mant.gemm")   # the package's `gemm` is the function

# boundaries where toy keys and values land, so a variance change can move a pick
KV_TABLE = table_from_probe_means((0, 10, 20, 40, 60, 90, 120),
                                  [0.08, 0.11, 0.14, 0.17, 0.2, 0.24])

# (name, (prefill_len, decode_steps, heads, head_dim), policy fields, seed)
ATTENTION_CASES = (
    ("(40,70,2,64) seed 0", (40, 70, 2, 64), {}, 0),
    ("(33,90,3,48) G=32 seed 5", (33, 90, 3, 48), {"group_size": 32}, 5),
    ("(192,96,4,64) seed 101", (192, 96, 4, 64), {}, 101),
    ("quantize_kv=False (20,30,2,64) seed 7", (20, 30, 2, 64), {"quantize_kv": False}, 7),
    ("(30,50,2,100) G=64 seed 3", (30, 50, 2, 100), {"group_size": 64}, 3),
    ("kv-decode tables (192,384,4,64) seed 339489570", (192, 384, 4, 64), "kv-decode",
     339489570),
    ("(200,400,2,64) G=192 fixed tables seed 11", (200, 400, 2, 64),
     {"group_size": 192, "k_table": KV_TABLE, "v_table": KV_TABLE}, 11),
    # head_dim 1 and 75 value blocks: a fold that summed the group axis
    # pairwise (numpy does along a fast axis) would move the decode line
    ("(600,30,1,1) G=8 seed 2", (600, 30, 1, 1), {"group_size": 8}, 2),
)
KV_DECODE_MODEL_SEED = 20250226   # bench/workloads.py MODEL_SEED

# (M, K, N, group size): tails at K % G != 0, one-element groups, M = 1
GEMM_SHAPES = ((1, 64, 16, 64), (5, 200, 7, 64), (8, 130, 9, 130), (3, 100, 11, 32),
               (4, 37, 5, 1), (16, 384, 48, 64), (2, 257, 3, 128))
# (M, K, N, group size) of ``gemm extremes``: one row, 192-element groups, tails
GEMM_EXTREME_SHAPES = ((1, 4096, 64, 64), (1, 400, 9, 192), (24, 400, 9, 192), (8, 130, 5, 64))

# ``gemm reuse``: a prompt-ingest projection (bench/workloads.py) under its 16 weight options
REUSE_DIM, REUSE_ROWS = 384, (1, 64, 200)
WEIGHT_OPTIONS = (0, 5, 10, 17, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, INT4_COEFF)

# (prompt, decode steps, heads, head_dim, group size): tail key groups at 48/32 and 100/64
KV_STREAMS = ((40, 90, 3, 48, 32), (70, 130, 2, 100, 64))
# (prompt, decode steps, heads, head_dim, group size): the keys grow past 4x
# the prompt and at least 4 windows flush; a tail key group at 40/16
KV_GROWTH = ((20, 70, 3, 40, 16), (64, 200, 2, 64, 32))
# (prompt, decode steps, heads, head_dim, group size) of ``kv attention rows``: each
# stream's decode steps flush the window at least once
KV_ATTENTION = ((70, 80, 2, 100, 64), (200, 190, 2, 64, 192), (75, 20, 2, 1, 8),
                (50, 20, 3, 16, 8))
# (heads, head_dim, group size) of the calibrated tables
CALIBRATION_GEOMETRIES = ((2, 48, 32), (2, 100, 64))


def short(h) -> str:
    return h.hexdigest()[:16]


def attention_digests():
    for name, (prefill, steps, heads, head_dim), fields, seed in ATTENTION_CASES:
        if fields == "kv-decode":
            k_table, v_table = calibration_tables(np.random.default_rng(KV_DECODE_MODEL_SEED),
                                                  heads, head_dim, 64, length=128)
            fields = {"group_size": 64, "k_table": k_table, "v_table": v_table}
        report = run_toy_attention(prefill, steps, heads, head_dim,
                                   AttentionPolicies(**fields), seed=seed)
        decode, prompt = hashlib.sha256(), hashlib.sha256()
        for array in (report.step_outputs, report.reference_steps, report.step_cosine,
                      report.step_mse):
            decode.update(array.tobytes())
        decode.update(repr((report.flush_steps, report.clamp_count)).encode())
        for array in (report.prefill_outputs, report.reference_prefill):
            prompt.update(array.tobytes())
        prompt.update(repr(report.prefill_cosine).encode())
        yield f"attention decode {name}", short(decode)
        yield f"attention prompt {name}", short(prompt)


def gemm_digests():
    # trees from before gemm took INT8 weights multiplied them in gemm_int8
    int8_gemm = getattr(gemm_module, "gemm_int8", gemm_module.gemm)
    rng = np.random.default_rng(2025)
    mant4, int8 = hashlib.sha256(), hashlib.sha256()
    for m, k, n, group_size in GEMM_SHAPES:
        x = rng.standard_normal((m, k)) * np.exp(rng.uniform(-3, 3, (1, k)))
        x[m // 2] = 0.0
        w = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-2, 2, (1, n))
        x_q = quantize_activation_tensor(x, 1, group_size)
        n_groups = -(-k // group_size)
        coeffs = rng.choice(np.r_[np.arange(0, 128, 7), 128], (n, n_groups)).astype(np.uint8)
        w_q = quantize_weight_tensor(w, coeffs, 0, group_size)
        mant4.update(gemm_module.gemm(x_q, w_q).tobytes())
        int8.update(int8_gemm(x_q, quantize_activation_tensor(w, 0, group_size)).tobytes())
    yield "gemm mant4", short(mant4)
    yield "gemm int8", short(int8)
    yield "gemm extremes", gemm_extremes_digest()
    yield "gemm reuse", gemm_reuse_digest()


def gemm_reuse_digest() -> str:
    rng = np.random.default_rng(2027)
    d = REUSE_DIM
    coeffs = rng.permutation(np.resize(np.asarray(WEIGHT_OPTIONS, np.uint8), d * d // 64))
    w_q = quantize_weight_tensor(rng.standard_normal((d, d)), coeffs.reshape(d, d // 64), 0, 64)
    h = hashlib.sha256()
    for m in REUSE_ROWS:
        x_q = quantize_activation_tensor(rng.standard_normal((m, d)), 1, 64)
        for _ in range(2):
            h.update(gemm_module.gemm(x_q, w_q).tobytes())
    return short(h)


def gemm_extremes_digest() -> str:
    rng = np.random.default_rng(2026)
    h = hashlib.sha256()
    for m, k, n, group_size in GEMM_EXTREME_SHAPES:
        x = rng.standard_normal((m, k))
        w = rng.standard_normal((k, n))
        x[0] *= 1e-165      # with w's tiny column, scale products below the
        w[:, -1] *= 1e-165  # smallest subnormal: each group adds -0.0 or +0.0
        x_q = quantize_activation_tensor(x, 1, group_size)
        n_groups = -(-k // group_size)
        coeffs = rng.choice(np.r_[np.arange(0, 128, 5), 128], (n, n_groups)).astype(np.uint8)
        lengths = group_lengths(k, group_size)
        for w_q in (quantize_weight_tensor(w, coeffs, 0, group_size),
                    quantize_activation_tensor(w, 0, group_size)):
            h.update(gemm_module.gemm(x_q, w_q).tobytes())
            for layout in (np.ascontiguousarray, np.asfortranarray,
                           lambda a: np.ascontiguousarray(a.T).T):
                h.update(gemm_module.grouped_dot(x_q.levels, layout(x_q.scales), w_q.levels,
                                                 layout(w_q.scales), lengths).tobytes())
            if m % 2 == 0:   # two batch entries of m/2 rows each
                h.update(gemm_module.grouped_dot(
                    x_q.levels.reshape((2, m // 2) + x_q.levels.shape[1:]),
                    x_q.scales.reshape(2, m // 2, -1), w_q.levels[None], w_q.scales[None],
                    lengths).tobytes())
    return short(h)


def kv_growth_digest():
    h = hashlib.sha256()
    for seed, (prompt, steps, heads, head_dim, group_size) in enumerate(KV_GROWTH, 7):
        _, k, v = synthesize_stream(np.random.default_rng(seed), prompt + steps, heads, head_dim)
        cache = KvCache(heads, head_dim, KV_TABLE, KV_TABLE, group_size)
        cache.prefill(k[:prompt], v[:prompt])
        for t in range(prompt, prompt + steps):
            cache.append_k(k[t])
            cache.push_v(v[t])
        for store in (cache.keys, cache.values):
            buf = io.BytesIO()
            write_quantized(buf, store)
            h.update(buf.getvalue())
    yield "kv store growth", short(h)


def kv_attention_digest():
    h = hashlib.sha256()
    for seed, (prompt, steps, heads, head_dim, group_size) in enumerate(KV_ATTENTION, 13):
        q, k, v = synthesize_stream(np.random.default_rng(seed), prompt + steps, heads, head_dim)
        cache = KvCache(heads, head_dim, KV_TABLE, KV_TABLE, group_size)
        cache.prefill(k[:prompt], v[:prompt])
        scale = 1.0 / np.sqrt(head_dim)
        for start in range(0, prompt, 32):
            rows = q[start:min(start + 32, prompt)]
            h.update(_attention_rows(rows, cache, start + 1, scale, group_size).tobytes())
        for t in range(prompt, prompt + steps):
            cache.append_k(k[t])
            cache.push_v(v[t])
            h.update(_attention_rows(q[t:t + 1], cache, t + 1, scale, group_size).tobytes())
    yield "kv attention rows", short(h)


def kv_digests():
    h, stores, windows = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for seed, (prompt, steps, heads, head_dim, group_size) in enumerate(KV_STREAMS):
        _, k, v = synthesize_stream(np.random.default_rng(seed), prompt + steps, heads, head_dim)
        cache = KvCache(heads, head_dim, KV_TABLE, KV_TABLE, group_size)
        cache.prefill(k[:prompt], v[:prompt])
        for t in range(prompt, prompt + steps):
            cache.append_k(k[t])
            cache.push_v(v[t])
        # value arrays in (blocks, heads, head_dim, ...) order
        v_arrays = [np.moveaxis(a, 2, 0) for a in cache.values.split_rows(heads, head_dim)]
        h.update(cache.k_arrays()[2].tobytes())
        h.update(v_arrays[2].tobytes())
        window = cache.windows
        for array in (*cache.k_arrays(), *v_arrays, window.staged[:window.fill_count],
                      window.channel_scales):
            stores.update(array.tobytes())
        for array in (window.running_max, window.sum_v, window.sum_v2):
            windows.update(array.tobytes())
        windows.update(repr(window.clamp_count).encode())
    for seed, (heads, head_dim, group_size) in enumerate(CALIBRATION_GEOMETRIES):
        for table in calibration_tables(np.random.default_rng(seed), heads, head_dim, group_size):
            h.update(table.to_json().encode())
    yield "kv coefficients", short(h)
    yield "kv stores", short(stores)
    yield "kv window", short(windows)


# (length, coefficient or None for INT8, all zero): odd lengths, INT4 (128), zero groups
SINGLE_GROUPS = ((64, 0, False), (64, 17, False), (64, 127, False), (64, 128, False),
                 (37, 40, False), (37, 128, False), (64, 40, True), (1, 90, False),
                 (64, None, False), (37, None, False), (64, None, True))


def group_arrays(result):
    """Codes, scales and coefficients of a single-group or flush result: a
    QuantizedTensor, or the (codes, meta) and (codes, [meta, ...]) pairs that
    trees from before the one-group tensor return."""
    if isinstance(result, tuple):
        codes, metas = result
        metas = metas if isinstance(metas, list) else [metas]
        return (codes, np.array([m.scale for m in metas]),
                np.array([m.coefficient_a for m in metas], dtype=np.uint8))
    return result.codes, result.scales, result.coefficients


def single_group_digest():
    h = hashlib.sha256()
    rng = np.random.default_rng(31)
    results = []
    for length, a, zero in SINGLE_GROUPS:
        values = rng.standard_normal(length) * 10.0 ** rng.uniform(-3, 3)
        if zero:
            values[:] = 0.0
        results.append(quantize_activation_group(values) if a is None
                       else quantize_weight_group(values, a))
    window = ProcessWindow(rng.uniform(0.0, 0.03, (3, 8)), 16)
    window.push(rng.standard_normal((16, 3, 8)))
    results.append(window.flush(KV_TABLE))
    for result in results:
        for array in group_arrays(result):
            h.update(np.asarray(array).tobytes())
    yield "single group", short(h)


# scales at which a tie group lands on its targets exactly (powers of two) and
# at which it rounds near them
TIE_SCALES = (2.0 ** -30, 0.5, 1.0, 2.0 ** 40, 0.1, 3.7, 1e5 / 3)


def encode_nibbles(groups, coefficients):
    """The 4-bit encoder's output as the nibbles a file stores, and scales."""
    levels, scales = encode_levels(groups, coefficients)
    return _level_nibbles(levels, coefficients), scales


def encoder_ties_digest():
    groups, coeffs = [], []
    for a in range(INT4_COEFF + 1):
        mags = magnitude_values(a)
        mids = (mags[1:] + mags[:-1]) / 2
        targets = np.concatenate([mids, np.nextafter(mids, -np.inf), np.nextafter(mids, np.inf),
                                  mags])
        for scale in TIE_SCALES:
            groups.append(np.concatenate([targets, -targets]) * scale)
            coeffs.append(a)
    codes, scales = encode_nibbles(np.array(groups), np.array(coeffs, dtype=np.uint8))
    h = hashlib.sha256(codes.tobytes())
    h.update(scales.tobytes())
    yield "encoder ties", short(h)


SUBNORMAL = 2.0 ** -1074


def encoder_extremes_digest():
    rng = np.random.default_rng(29)

    def signed(magnitudes):
        return magnitudes * rng.choice([-1.0, 1.0], magnitudes.shape)

    shape = (16, 6)
    groups = np.concatenate([
        np.array([[1e300, -1e-300, -0.0, 1e-300, 0.0, -1e300],   # |v| / scale underflows to 0
                  [SUBNORMAL, -SUBNORMAL, -3 * SUBNORMAL, 0.0, -0.0, 2 * SUBNORMAL],
                  # a scale of one subnormal: |v| / scale passes the top
                  [10 * SUBNORMAL, -3 * SUBNORMAL, 7 * SUBNORMAL, -0.0, 0.0, SUBNORMAL],
                  [1525 * SUBNORMAL, -1524 * SUBNORMAL, 1000 * SUBNORMAL, -SUBNORMAL, 0.0, -0.0],
                  [1.0, 0.01, -0.01, -0.0, 0.07, -0.0714]]),   # INT4 zeros
        rng.integers(-3, 4, shape) * SUBNORMAL,                 # every scale flushes to 0
        rng.integers(-(1 << 14), 1 << 14, shape) * SUBNORMAL,   # subnormal scales
        signed(10.0 ** rng.uniform(-301, -299, shape)),
        signed(10.0 ** rng.uniform(299, 301, shape)),
        signed(10.0 ** rng.choice([-300.0, 300.0], shape) * rng.uniform(1, 10, shape)),
        # INT4 zeros: |v| / scale below 0.56 beside a top of 1
        np.hstack([np.ones((shape[0], 1)), signed(rng.uniform(0, 0.08, (shape[0], shape[1] - 1)))]),
    ])
    # every group under every grid, as the coefficient search stacks them
    coeffs = np.arange(INT4_COEFF + 1)[:, None]
    codes, scales = encode_nibbles(np.broadcast_to(groups, (len(coeffs),) + groups.shape), coeffs)
    h = hashlib.sha256(codes.tobytes())
    h.update(scales.tobytes())
    yield "encoder extremes", short(h)


# (calibration rows, group length, candidates): each length with and without INT4
SELECTION_CASES = tuple(
    (rows, length, (CandidateSet(), CandidateSet((0, 10, 30, 60, 120), False))[(r + j) % 2])
    for r, rows in enumerate((8, 32, 64)) for j, length in enumerate((64, 48, 32, 1)))
SELECTION_GROUPS = 170   # per call: one full 128-row search tile and a part


def mixed_groups(rng, n, length):
    """Groups cycling through Gaussian, Laplace, uniform, spiked (two spikes
    of 3 to 6 over a 0.3-wide Gaussian), all-zero and constant kinds."""
    def spiked():
        g = 0.3 * rng.standard_normal(length)
        at = rng.choice(length, min(2, length), replace=False)
        g[at] = rng.choice([-1.0, 1.0], at.size) * rng.uniform(3.0, 6.0, at.size)
        return g
    kinds = (lambda: rng.standard_normal(length), lambda: rng.laplace(size=length),
             lambda: rng.uniform(-1.0, 1.0, length), spiked, lambda: np.zeros(length),
             lambda: np.full(length, rng.uniform(-2.0, 2.0)))
    return np.array([kinds[i % len(kinds)]() * 10.0 ** rng.uniform(-2, 2) for i in range(n)])


def selection_digest():
    h = hashlib.sha256()
    rng = np.random.default_rng(47)
    for rows, length, candidates in SELECTION_CASES:
        x_calib = rng.standard_normal((rows, length)) * np.exp(rng.uniform(-1.6, 1.6, length))
        picks = select_weight_coefficient(mixed_groups(rng, SELECTION_GROUPS, length), x_calib,
                                          candidates)
        h.update(np.asarray(picks, dtype=np.int64).tobytes())
    yield "mse selection", short(h)


def cli_digest():
    h, kv = hashlib.sha256(), hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        def path(name):
            return os.path.join(tmp, name)

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(list(argv))
            if code != 0:
                raise SystemExit(f"mant {' '.join(argv)} exited {code}")

        run("gen-tensor", "--shape", "200x24", "--seed", "3", "--out", path("t.mntt"))
        run("gen-tensor", "--shape", "16x200", "--seed", "4", "--std", "5",
            "--out", path("calib.mntt"))
        cases = (
            ("weight", "--group-size", "64"),
            ("weight", "--group-size", "48", "--calib", path("calib.mntt")),
            ("activation", "--axis", "0", "--group-size", "64"),
            ("activation", "--group-size", "8"),
            ("kv", "--axis", "0", "--group-size", "64"),
            ("kv", "--axis", "0", "--group-size", "32", "--candidates", "10,40,90"),
        )
        with open(path("table.json"), "w") as fh:
            fh.write(KV_TABLE.to_json())
        with open(path("calib.json"), "w") as fh:
            json.dump({"candidates": [0, 20, 40, 80, 120], "min_groups": 8}, fh)
        kv_cases = (
            ("kv", "--axis", "0", "--group-size", "32", "--table", path("table.json")),
            ("kv", "--axis", "0", "--group-size", "64", "--calib-config", path("calib.json")),
        )
        for i, (role, *options) in enumerate(cases + kv_cases):
            out, stats = path(f"q{i}.mntq"), path(f"q{i}.json")
            run("quantize", "--tensor", path("t.mntt"), "--role", role, *options,
                "--out", out, "--stats", stats)
            for name in (out, stats):
                with open(name, "rb") as fh:
                    (h if i < len(cases) else kv).update(fh.read())
    yield "cli quantize", short(h)
    yield "cli quantize kv table and config", short(kv)


# a gemm/attention/gemm workload: a compute-bound GEMM, a decode step and a
# bandwidth-bound GEMV, whose floors stall the stream
SIM_WORKLOAD = {"layers": [
    {"kind": "gemm", "M": 512, "K": 1000, "N": 700, "label": "proj"},
    {"kind": "attention", "seq_len": 777, "heads": 8, "head_dim": 96},
    {"kind": "gemm", "M": 1, "K": 4096, "N": 4096},
]}
SIM_CONFIGS = (
    {"name": "w4"},
    {"name": "w8 narrow", "weight_bits": 8, "dram_bandwidth": 24.5, "divider_latency": 40},
    {"name": "w2 g32", "weight_bits": 2, "group_size": 32, "peg_cols": 16, "rqu_count": 8,
     "cost": {"mac2": 0.3, "dram_per_byte": 13.5}},
)


def sim_digest():
    """The JSON and CSV reports of ``mant sim`` over SIM_WORKLOAD under SIM_CONFIGS."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, payload in enumerate((SIM_WORKLOAD,) + SIM_CONFIGS):
            paths.append(os.path.join(tmp, f"{i}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(payload, fh)
        for fmt in ("json", "csv"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["sim", "--workload", paths[0], "--format", fmt]
                            + [arg for path in paths[1:] for arg in ("--config", path)])
            if code != 0:
                raise SystemExit(f"mant sim --format {fmt} exited {code}")
            h.update(out.getvalue().encode())
    yield "sim", short(h)


def fit_grid_digest():
    fits, curves = hashlib.sha256(), hashlib.sha256()
    for kind in CURVE_KINDS:
        curve = reference_curve(kind)
        curves.update(curve.points.tobytes())
        for metric in ("mae", "mse"):
            fits.update(repr(fit_coefficient(curve, metric)).encode())
    yield "fit-grid", short(fits)
    yield "fit-grid curves", short(curves)


def main_digest() -> int:
    for gen in (attention_digests, gemm_digests, kv_digests, single_group_digest, cli_digest,
                kv_growth_digest, kv_attention_digest, encoder_ties_digest,
                encoder_extremes_digest, selection_digest, sim_digest, fit_grid_digest):
        for name, digest in gen():
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
