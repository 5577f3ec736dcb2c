"""Print sha256 digests of outputs that a refactor must leave byte-identical.

Run it on two trees on the same machine and compare the lines:

    PYTHONPATH=src python3 tools/output_digest.py

Each line is a name and the first 16 hex digits of a sha256:

* ``attention decode ...`` and ``attention prompt ...``: two lines per
  ``run_toy_attention`` case.  The decode line hashes ``step_outputs``,
  ``reference_steps``, ``step_cosine`` and ``step_mse`` (their bytes),
  then ``repr((flush_steps, clamp_count))``; the prompt line hashes
  ``prefill_outputs`` and ``reference_prefill``, then
  ``repr(prefill_cosine)``.  One case runs value groups of 192 tokens,
  longer than the 129 whose products stay exact in float32;
* ``gemm mant4`` and ``gemm int8``: ``gemm`` outputs over several shapes,
  group sizes with tail groups and zero rows, with mixed 4-bit weights
  (adaptive and INT4 coefficients) and with INT8 weights;
* ``kv coefficients``: the key and flushed-value coefficient arrays of
  caches streamed (prefill, then decode steps) under fixed variance tables,
  over geometries with tail key groups, then the ``calibration_tables`` JSON
  of two geometries;
* ``kv stores``: every array of the same caches, in C order: codes, scales
  and coefficients of ``k_arrays()`` and of ``cache.values.split_rows(heads,
  head_dim)`` moved to ``(blocks, heads, head_dim, ...)``, then the staged
  INT8 rows and the channel scales of the process window;
* ``kv store growth``: the MNTQ bytes (``container.write_quantized``) of
  ``cache.keys`` and ``cache.values`` of two caches, one with a tail key
  group, whose decode steps grow the keys past 4x the prompt (two
  doublings of a store that starts at the prompt's length) and flush the
  window at least three times;
* ``single group``: codes, scales and coefficients of
  ``quantize_weight_group`` (adaptive, INT4, all-zero and odd-length groups)
  and ``quantize_activation_group`` results, then of one multi-head
  ``ProcessWindow.flush`` block;
* ``encoder ties``: codes and scales of one ``encode_groups`` call with
  per-group coefficients over every coefficient's tie groups: its midpoints
  between adjacent magnitudes, the floats either side of each and every
  magnitude, with both signs, at power-of-two and other scales (the groups of
  ``tests/test_properties.py::test_encoder_ties_match_argmin_oracle``);
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

from mant.attention import (AttentionPolicies, calibration_tables, run_toy_attention,
                            synthesize_stream)
from mant.cli import main
from mant.container import write_quantized
from mant.codec import (INT4_COEFF, encode_groups, magnitude_values, quantize_activation_group,
                        quantize_activation_tensor, quantize_weight_group, quantize_weight_tensor)
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
)
KV_DECODE_MODEL_SEED = 20250226   # bench/workloads.py MODEL_SEED

# (M, K, N, group size): tails at K % G != 0, one-element groups, M = 1
GEMM_SHAPES = ((1, 64, 16, 64), (5, 200, 7, 64), (8, 130, 9, 130), (3, 100, 11, 32),
               (4, 37, 5, 1), (16, 384, 48, 64), (2, 257, 3, 128))

# (prompt, decode steps, heads, head_dim, group size): tail key groups at 48/32 and 100/64
KV_STREAMS = ((40, 90, 3, 48, 32), (70, 130, 2, 100, 64))
# (prompt, decode steps, heads, head_dim, group size): the keys grow past 4x
# the prompt and at least 4 windows flush; a tail key group at 40/16
KV_GROWTH = ((20, 70, 3, 40, 16), (64, 200, 2, 64, 32))
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


def kv_digests():
    h, stores = hashlib.sha256(), hashlib.sha256()
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
    for seed, (heads, head_dim, group_size) in enumerate(CALIBRATION_GEOMETRIES):
        for table in calibration_tables(np.random.default_rng(seed), heads, head_dim, group_size):
            h.update(table.to_json().encode())
    yield "kv coefficients", short(h)
    yield "kv stores", short(stores)


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
    codes, scales = encode_groups(np.array(groups), np.array(coeffs, dtype=np.uint8))
    h = hashlib.sha256(codes.tobytes())
    h.update(scales.tobytes())
    yield "encoder ties", short(h)


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
                kv_growth_digest, encoder_ties_digest, selection_digest, sim_digest,
                fit_grid_digest):
        for name, digest in gen():
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
