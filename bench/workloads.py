"""The three workloads.  Each is a loop of short steps of one kind.

A workload has ``setup()`` (everything before the first timed step),
``run_round(state, index, log)`` (one whole round of steps, each timed and
checked through ``log``) and ``layer_info(state)`` (figures the per-layer
metrics need).  `mant` is reached only through its public functions, looked
up on their modules at call time so that the traced run sees every call.

Inputs come from ``--seed``.  The attention block of prompt-ingest and
kv-decode (weights, coefficient mix, variance-table calibration data) is a
fixed model drawn from MODEL_SEED, and ``--seed`` draws the requests: the
prompts and the decode streams.  Drawing the model from ``--seed`` as well
moves ``out_rel_err`` by 10-20% between seeds, more than the quality
changes the bound is meant to catch.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import os
import sys

import numpy as np

import reference as ref

GROUP = 64
MODEL_SEED = 20250226
# The CLI's default candidate set for --role weight: 15 coefficients + INT4.
WEIGHT_OPTIONS = (0, 5, 10, 17, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, ref.INT4_COEFF)


def mod(name: str):
    return importlib.import_module(f"mant.{name}")


def ar1_tokens(rng, length: int, width: int, correlation: float = 0.9) -> np.ndarray:
    """Token activations with standard normal marginals and AR(1) structure."""
    x = rng.standard_normal((length, width))
    innovation = math.sqrt(1.0 - correlation * correlation)
    for t in range(1, length):
        x[t] = correlation * x[t - 1] + innovation * x[t]
    return x


def balanced(rng, values, shape) -> np.ndarray:
    """``values`` repeated to fill ``shape`` in equal shares, in seeded order."""
    size = int(np.prod(shape))
    return rng.permutation(np.resize(np.asarray(values), size)).reshape(shape)


def cache_stored_bytes(cache) -> int:
    """nbytes of the arrays behind ``k_arrays()`` and ``v_blocks()``."""
    total = sum(a.nbytes for a in cache.k_arrays())
    for h in range(cache.heads):
        for block in cache.v_blocks(h):
            total += block.codes.nbytes + block.scales.nbytes + block.coeffs.nbytes
    return total


class WeightQuantize:
    """Offline weight quantization: one in-process ``mant quantize --role
    weight`` per tensor, over a model's worth of small tensors.  Each
    tensor's groups are Gaussian, Laplace, uniform and outlier-spiked (two
    spikes of 3 to 6 over a 0.3-wide Gaussian) in equal shares, at scales 0.1, 0.32, 1, 3.2 and 10 in equal shares, in
    seeded order.  Calibration and held-out activations have log-uniform
    channel scales (e^-1.6 to e^1.6) in seeded order.  The five shapes
    hold 40, 48, 56, 64 and 72 groups, so the median step falls inside the
    middle shape's steps; K = 96 and 160 leave 32-element tail groups."""

    name = "weight-quantize"
    setup_reps = 15    # a set-up takes about 0.12 s, too short for a steady median of five
    warmup = 8
    shapes = ((128, 20), (96, 24), (64, 56), (128, 32), (160, 24))   # (K, N)
    n_tensors = 120
    calib_rows = 32
    held_out_rows = 64
    checked_groups = 4     # groups per tensor whose coefficient choice is re-derived
    remainder_layer = "bench"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.verified: dict[tuple[int, bytes], bool] = {}
        self.err = [0.0, 0.0]

    @staticmethod
    def _tensor(rng, k: int, n: int) -> np.ndarray:
        n_groups = -(-k // GROUP)
        kinds = balanced(rng, range(4), (n_groups, n))
        scales = 10.0 ** balanced(rng, (-1.0, -0.5, 0.0, 0.5, 1.0), (n_groups, n))
        row_group = np.arange(k) // GROUP
        keys = rng.random((k, n))
        rank = np.empty_like(keys)
        for g in range(n_groups):
            rows = row_group == g
            rank[rows] = np.argsort(np.argsort(keys[rows], axis=0), axis=0)
        spikes = (rank < 2) * rng.choice([-1.0, 1.0], (k, n)) * rng.uniform(3.0, 6.0, (k, n))
        candidates = np.stack([
            rng.standard_normal((k, n)),
            rng.laplace(size=(k, n)),
            rng.uniform(-1.0, 1.0, (k, n)),
            0.3 * rng.standard_normal((k, n)) + spikes,
        ])
        values = np.take_along_axis(candidates, kinds[row_group][None], axis=0)[0]
        return values * scales[row_group]

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        calib, held_out, tensors = {}, {}, []
        for k in sorted({k for k, _ in self.shapes}):
            channel = np.exp(rng.permutation(np.linspace(-1.6, 1.6, k)))
            path = os.path.join(self.workdir, f"calib{k}.mntt")
            calib[k] = (path, ref.write_mntt(path, rng.standard_normal((self.calib_rows, k)) * channel))
            held_out[k] = rng.standard_normal((self.held_out_rows, k)) * channel
        for i in range(self.n_tensors):
            k, n = self.shapes[i % len(self.shapes)]
            path = os.path.join(self.workdir, f"w{i}.mntt")
            tensors.append((path, ref.write_mntt(path, self._tensor(rng, k, n))))
        return {"calib": calib, "held_out": held_out, "tensors": tensors}

    def run_round(self, state, index: int, log) -> None:
        cli = mod("cli")
        for i, (path, values) in enumerate(state["tensors"]):
            k, n = values.shape
            out = os.path.join(self.workdir, f"q{i}.mntq")
            stats = os.path.join(self.workdir, f"s{i}.json")
            argv = ["quantize", "--tensor", path, "--role", "weight",
                    "--calib", state["calib"][k][0], "--out", out, "--stats", stats]
            with contextlib.redirect_stdout(io.StringIO()):
                code = log.step(lambda: cli.main(argv), units=n * -(-k // GROUP),
                                span="cli.quantize")
            if code is None:
                continue
            if code != 0:
                log.error(f"mant quantize exited {code} on {path}")
                continue
            with log.checking():
                log.verdict(self._check(i, state, out, stats))

    def _check(self, i: int, state, out: str, stats: str) -> bool:
        """Checks each distinct output once; a step whose output bytes
        match an output already checked shares its verdict."""
        with open(out, "rb") as fh:
            data = fh.read()
        with open(stats, "rb") as fh:
            stats_bytes = fh.read()
        key = (i, hashlib.sha256(data + stats_bytes).digest())
        if key not in self.verified:
            self.verified[key] = self._verify(i, state, out, data, stats_bytes)
        return self.verified[key]

    def _verify(self, i: int, state, out: str, data: bytes, stats_bytes: bytes) -> bool:
        values = state["tensors"][i][1]
        k, n = values.shape
        program = mod("container").load_quantized(out).dequantize()
        n_groups = -(-k // GROUP)
        picks = np.random.default_rng([self.seed, 7, i]).choice(n * n_groups, self.checked_groups,
                                                                replace=False)
        sample = [divmod(int(p), n_groups) for p in picks]
        result = ref.weight_checks(data, program, values, state["calib"][k][1], stats_bytes,
                                   WEIGHT_OPTIONS, sample)
        if not all(result.values()):
            failed = [name for name, ok in result.items() if not ok]
            print(f"check failed on tensor {i}: {', '.join(failed)}", file=sys.stderr)
            return False
        x = state["held_out"][k]
        exact = x @ values
        self.err[0] += float(np.sum((x @ ref.Mntq(data).decode() - exact) ** 2))
        self.err[1] += float(np.sum(exact ** 2))
        return True

    def layer_info(self, state) -> dict:
        return {}


class PromptIngest:
    """The prompt phase of one W4A8 attention block: INT8 prompt
    activations, the fused GEMM of each of the four d x d projections (all
    on the prompt activations, since no attention runs), and the projected
    K and V written into a fresh KvCache.  The weights' groups use the
    16 weight options in equal shares, INT4 included.  Prompt lengths
    cycle through a fixed list; 96 and 200 leave a partial V block in the
    process window."""

    name = "prompt-ingest"
    setup_reps = 5
    warmup = 4
    d_model = 384
    heads = 6
    head_dim = 64
    lengths = (64, 96, 128, 160, 200)
    calib_tokens = 64
    remainder_layer = "bench"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.err = [0.0, 0.0]
        self.stored = [0, 0]
        self._decoded_weights = None

    def setup(self):
        codec, selection = mod("codec"), mod("selection")
        rng = np.random.default_rng(MODEL_SEED)
        d = self.d_model
        weights = [rng.standard_normal((d, d)) / math.sqrt(d) for _ in range(4)]
        coeffs = [balanced(rng, WEIGHT_OPTIONS, (d, d // GROUP)).astype(np.uint8) for _ in range(4)]
        quantized = [codec.quantize_weight_tensor(w, c, 0, GROUP) for w, c in zip(weights, coeffs)]
        calib = ar1_tokens(rng, self.calib_tokens, d)
        candidates = selection.CandidateSet(include_int=False)
        k_table = selection.build_variance_table((calib @ weights[1]).reshape(-1, GROUP), candidates)
        v_table = selection.build_variance_table((calib @ weights[2])[:GROUP].T, candidates)
        requests = np.random.default_rng([self.seed, 2])
        prompts = [ar1_tokens(requests, p, d) for p in self.lengths]
        return {"weights": weights, "quantized": quantized, "prompts": prompts,
                "tables": (k_table, v_table)}

    def run_round(self, state, index: int, log) -> None:
        codec, gemm, kvcache = mod("codec"), mod("gemm"), mod("kvcache")
        shape = (-1, self.heads, self.head_dim)

        def step(x):
            x_q = codec.quantize_activation_tensor(x, 1, GROUP)
            outs = [gemm.gemm(x_q, w_q) for w_q in state["quantized"]]
            cache = kvcache.KvCache(self.heads, self.head_dim, *state["tables"], GROUP)
            cache.prefill(outs[1].reshape(shape), outs[2].reshape(shape))
            return x_q, outs, cache

        for x in state["prompts"]:
            result = log.step(lambda: step(x), units=x.shape[0])
            if result is None:
                continue
            with log.checking():
                log.verdict(self._check(state, x, *result))

    def _check(self, state, x, x_q, outs, cache) -> bool:
        if self._decoded_weights is None:
            self._decoded_weights = [ref.decode_weight(w_q) for w_q in state["quantized"]]
        ok = all(ref.gemm_ok(x_q, w, out) for out, w in zip(outs, self._decoded_weights))
        ok &= ref.cache_ok(cache, x.shape[0])
        k_hat, v_hat = ref.decode_cache(cache, GROUP)
        k_exact = x @ state["weights"][1]
        v_exact = x @ state["weights"][2]
        self.err[0] += float(np.sum((k_hat - k_exact) ** 2) + np.sum((v_hat - v_exact) ** 2))
        self.err[1] += float(np.sum(k_exact ** 2) + np.sum(v_exact ** 2))
        self.stored[0] += cache_stored_bytes(cache)
        self.stored[1] += x.shape[0]
        return bool(ok)

    def layer_info(self, state) -> dict:
        return {"stored_bytes_per_token": self.stored[0] / max(self.stored[1], 1)}


class KvDecode:
    """Real-time KV quantization during generation, as ``mant kv-run`` runs
    it: one ``run_toy_attention`` call per round, each on its own decode
    stream.  The prompt is short and the decode long, so the context grows
    threefold (193 to 576 tokens) and the step times trace cost against
    context length; the prompt stays short because the prompt's attention
    is computed row by row."""

    name = "kv-decode"
    setup_reps = 5
    warmup = 16
    heads = 4
    head_dim = 64
    prefill = 192
    decode = 384
    calib_length = 128
    ctx_points = (224, 384, 544)
    remainder_layer = "attention"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.err = [0.0, 0.0]
        self.quality = {"min_step_cosine": 1.0, "steps_below_0.99": 0}
        self.cache = None
        self.in_prefill = False

    def setup(self):
        return mod("attention").calibration_tables(np.random.default_rng(MODEL_SEED), self.heads,
                                                   self.head_dim, GROUP, length=self.calib_length)

    def hook(self, log) -> None:
        """Mark a step boundary at each decode-time ``KvCache.append_k``
        call; calls made from inside ``KvCache.prefill`` are not step
        boundaries."""
        cls = mod("kvcache").KvCache
        append_k, prefill = cls.append_k, cls.prefill
        workload = self

        def timed_append_k(cache, k_vector):
            if not workload.in_prefill:
                log.boundary()
            return append_k(cache, k_vector)

        def flagged_prefill(cache, k_matrix, v_matrix):
            workload.in_prefill = True
            workload.cache = cache
            try:
                return prefill(cache, k_matrix, v_matrix)
            finally:
                workload.in_prefill = False

        cls.append_k = timed_append_k
        cls.prefill = flagged_prefill

    def _stream_seed(self, index: int) -> int:
        return int(np.random.default_rng([self.seed, 3, index]).integers(0, 2 ** 31))

    def run_round(self, state, index: int, log) -> None:
        attention = mod("attention")
        seed = self._stream_seed(index)
        policies = attention.AttentionPolicies(group_size=GROUP, k_table=state[0], v_table=state[1])
        log.begin_boundaries(first_ctx=self.prefill + 1)
        report = log.guarded(lambda: attention.run_toy_attention(
            self.prefill, self.decode, self.heads, self.head_dim, policies, seed=seed))
        if report is None:
            log.end_boundaries(self.decode, None)
            return
        with log.checking():
            q, k, v = attention.synthesize_stream(np.random.default_rng(seed),
                                                  self.prefill + self.decode, self.heads,
                                                  self.head_dim)
            exact = ref.causal_attention(q, k, v, self.prefill)
            ok = ref.decode_checks(report, exact, self.prefill, self.decode, GROUP)
            if report.step_outputs.shape == exact.shape:
                self.err[0] += float(np.sum((report.step_outputs - exact) ** 2))
                self.err[1] += float(np.sum(exact ** 2))
                cos = ref.cosines(report.step_outputs, exact)
                self.quality["min_step_cosine"] = min(self.quality["min_step_cosine"],
                                                      float(cos.min()))
                self.quality["steps_below_0.99"] += int(np.count_nonzero(cos < ref.QUALITY_COSINE))
        log.end_boundaries(self.decode, ok)

    def layer_info(self, state) -> dict:
        seq = self.prefill + self.decode
        sim = mod("simulator").simulate_attention(seq, self.heads, self.head_dim, group_size=GROUP)
        return {"stored_bytes_per_token": cache_stored_bytes(self.cache) / self.cache.seq_len,
                "simulator_kv_bytes_per_token":
                    (sim.bytes_moved["kv"] + sim.bytes_moved["metadata"]) / seq,
                "simulator_decode_step_cycles": sim.total_cycles,
                "ctx_points": self.ctx_points}


WORKLOADS = {cls.name: cls for cls in (WeightQuantize, PromptIngest, KvDecode)}
