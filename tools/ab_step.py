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

Each stream's ``step_outputs`` and ``reference_steps`` must be equal, bit
for bit, on both trees.  The last lines print each tree's median step time
over all steps, and the share of streams in which the new tree's median
step was the faster one.  A 25-s benchmark run drifts by tens of percent on
a busy machine; interleaved streams in one process resolve a few percent.
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
        """One stream: its report and its decode-step times in ns.  The last
        step ends when ``run_toy_attention`` returns, which adds its report's
        small arithmetic to that step alone."""
        self.steps, self.last = [], None
        report = attention.run_toy_attention(PREFILL, DECODE, HEADS, HEAD_DIM, policies, seed=seed)
        self.steps.append(perf_counter_ns() - self.last)
        return report, self.steps


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
    wins = 0
    for i, seed in enumerate(seeds):
        order = trees if i % 2 == 0 else trees[::-1]
        reports, medians = {}, {}
        for label, attention, clock, policies, _ in order:
            reports[label], steps = clock.run(attention, policies, int(seed))
            times[label] += steps
            medians[label] = statistics.median(steps)
        for field in ("step_outputs", "reference_steps"):
            old, new = (getattr(reports[label], field) for label in ("old", "new"))
            if old.shape != new.shape or old.tobytes() != new.tobytes():
                raise SystemExit(f"error: stream {i} (seed {seed}): {field} differ")
        wins += medians["new"] < medians["old"]
        print(f"stream {i:2d} seed {seed:10d}: median step old {medians['old'] / 1e3:8.1f} us, "
              f"new {medians['new'] / 1e3:8.1f} us")
    old, new = (statistics.median(times[label]) / 1e3 for label in ("old", "new"))
    print(f"median decode step: old {old:.1f} us, new {new:.1f} us ({new / old - 1:+.1%}), "
          f"{len(times['old'])} steps each")
    print(f"new tree faster in {wins} of {len(seeds)} streams ({wins / len(seeds):.0%}); "
          "outputs equal in every stream")
    return 0


if __name__ == "__main__":
    sys.exit(main())
