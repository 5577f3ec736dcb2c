"""Compare the decode-step time of two source trees in one process.

    python3 tools/ab_step.py OLD_SRC NEW_SRC [--streams N] [--seed S]

OLD_SRC and NEW_SRC are ``src`` directories, each holding a ``mant``
package.  Each tree's package is imported under its own name, so both run
in the same interpreter on the same inputs.  The runs follow kv-decode's
geometry (``bench/workloads.py``): a 192-token prompt and 384 decode steps
over 4 heads of 64 with groups of 64, under variance tables calibrated on a
128-token stream of the benchmark's model seed.  The trees take turns stream
by stream (old first on even streams, new first on odd ones), so drift of
the machine's speed falls on both.  A decode step runs from one decode-time
``KvCache.append_k`` call to the next, as the benchmark times it.

Each stream's ``step_outputs``, ``prefill_outputs`` and ``flush_steps`` must
be equal, bit for bit, on both trees; its ``reference_steps`` must agree as
the benchmark checks them, each row within 1e-9 of the row's largest
magnitude (the full-precision reference may be computed in another order).
Each stream prints both trees' median step and whole ``run_toy_attention``
call, so a change that only moves work out of the steps shows in the
second.  The last lines print each tree's median step time over all steps
and median call time over all streams, and the share of streams in which
the new tree's median step was the faster one.  A 25-s benchmark run drifts
by tens of percent on a busy machine; interleaved streams in one process
resolve a few percent.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, as in bench/run.py, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

import numpy as np  # noqa: E402

PREFILL, DECODE, HEADS, HEAD_DIM, GROUP = 192, 384, 4, 64, 64
MODEL_SEED = 20250226   # bench/workloads.py's MODEL_SEED
CALIB_LENGTH = 128
REFERENCE_TOL = 1e-9    # bench/workloads.py's check of reference_steps, per row


def load_tree(src: str, name: str):
    """The ``mant`` package under ``src`` imported as ``name``, with its
    ``attention`` and ``kvcache`` modules."""
    init = Path(src).resolve() / "mant" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no mant package under {src}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return (importlib.import_module(f"{name}.attention"), importlib.import_module(f"{name}.kvcache"))


class StepClock:
    """Times decode steps by wrapping a tree's ``KvCache.append_k`` (calls from
    inside ``prefill`` are not boundaries)."""

    def __init__(self, kvcache):
        self.steps: list[int] = []
        self.last: int | None = None
        self.in_prefill = False
        cls = kvcache.KvCache
        append_k, prefill = cls.append_k, cls.prefill
        clock = self

        def timed_append_k(cache, k_vector):
            if not clock.in_prefill:
                now = perf_counter_ns()
                if clock.last is not None:
                    clock.steps.append(now - clock.last)
                clock.last = now
            return append_k(cache, k_vector)

        def flagged_prefill(cache, k_matrix, v_matrix):
            clock.in_prefill = True
            try:
                return prefill(cache, k_matrix, v_matrix)
            finally:
                clock.in_prefill = False

        cls.append_k, cls.prefill = timed_append_k, flagged_prefill

    def run(self, attention, policies, seed: int):
        """One stream: its report, its decode-step times and its whole call's
        time, in ns.  The last step ends when ``run_toy_attention`` returns,
        which adds its report's small arithmetic to that step alone."""
        self.steps, self.last = [], None
        start = perf_counter_ns()
        report = attention.run_toy_attention(PREFILL, DECODE, HEADS, HEAD_DIM, policies, seed=seed)
        end = perf_counter_ns()
        self.steps.append(end - self.last)
        return report, self.steps, end - start


def differences(old, new) -> list[str]:
    """The fields in which two streams' reports differ: the quantized
    outputs and flush steps bit for bit, the reference rows beyond
    :data:`REFERENCE_TOL` of each row's largest magnitude."""
    bad = [name for name in ("step_outputs", "prefill_outputs")
           if getattr(old, name).shape != getattr(new, name).shape
           or getattr(old, name).tobytes() != getattr(new, name).tobytes()]
    if old.flush_steps != new.flush_steps:
        bad.append("flush_steps")
    ref_old, ref_new = (r.reference_steps.reshape(len(r.reference_steps), -1) for r in (old, new))
    if ref_old.shape != ref_new.shape or not np.all(
            np.abs(ref_new - ref_old).max(axis=1) <= REFERENCE_TOL * np.abs(ref_old).max(axis=1)):
        bad.append("reference_steps")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--streams", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the streams' seeds")
    args = parser.parse_args(argv)

    trees = []
    for label, src in (("old", args.old_src), ("new", args.new_src)):
        attention, kvcache = load_tree(src, f"mant_{label}")
        tables = attention.calibration_tables(np.random.default_rng(MODEL_SEED), HEADS, HEAD_DIM,
                                              GROUP, length=CALIB_LENGTH)
        policies = attention.AttentionPolicies(group_size=GROUP, k_table=tables[0],
                                               v_table=tables[1])
        trees.append((label, attention, StepClock(kvcache), policies, tables))
    if [t.to_json() for t in trees[0][4]] != [t.to_json() for t in trees[1][4]]:
        raise SystemExit("error: the trees calibrate different variance tables")

    seeds = np.random.default_rng(args.seed).integers(0, 2 ** 31, args.streams)
    times = {"old": [], "new": []}
    calls = {"old": [], "new": []}
    wins = 0
    for i, seed in enumerate(seeds):
        order = trees if i % 2 == 0 else trees[::-1]
        reports, medians = {}, {}
        for label, attention, clock, policies, _ in order:
            reports[label], steps, call = clock.run(attention, policies, int(seed))
            times[label] += steps
            calls[label].append(call)
            medians[label] = statistics.median(steps)
        bad = differences(reports["old"], reports["new"])
        if bad:
            raise SystemExit(f"error: stream {i} (seed {seed}): {', '.join(bad)} differ")
        wins += medians["new"] < medians["old"]
        print(f"stream {i:2d} seed {seed:10d}: median step old {medians['old'] / 1e3:8.1f} us, "
              f"new {medians['new'] / 1e3:8.1f} us; call old {calls['old'][-1] / 1e6:7.1f} ms, "
              f"new {calls['new'][-1] / 1e6:7.1f} ms")
    old, new = (statistics.median(times[label]) / 1e3 for label in ("old", "new"))
    print(f"median decode step: old {old:.1f} us, new {new:.1f} us ({new / old - 1:+.1%}), "
          f"{len(times['old'])} steps each")
    old, new = (statistics.median(calls[label]) / 1e6 for label in ("old", "new"))
    print(f"median run_toy_attention call: old {old:.1f} ms, new {new:.1f} ms "
          f"({new / old - 1:+.1%}), {len(seeds)} calls each")
    print(f"new tree faster in {wins} of {len(seeds)} streams ({wins / len(seeds):.0%}); "
          "quantized outputs equal and references within tolerance in every stream")
    return 0


if __name__ == "__main__":
    sys.exit(main())
