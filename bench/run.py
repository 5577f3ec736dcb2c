"""Benchmark of `mant`: three workloads timed step by step.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: weight-quantize,
prompt-ingest, kv-decode.  With --trace 0 the last line of standard output
is a JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of a traced run, whose spans go to
.bench_out/spans-<workload>.json.  Reference figures (copy bandwidth,
probe kernel time, layer shares) go to standard error.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "mant" / "__init__.py").is_file():
        print(f"error: no mant sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer)
        run = harness.measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    log = run["log"]
    e2e = harness.end_to_end(workload, run)
    figures = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": run["rounds"], "measured_s": run["measured_s"],
        "timed_steps": len(log.durations), "setup_times_s": run["setup_times"],
        "copy_gb_per_s": run["copy_bytes_per_s"] / 1e9,
        "probe_before_ms": run["probe_before_ms"], "probe_after_ms": run["probe_after_ms"],
        "end_to_end": e2e,
        "end_to_end_unscaled": harness.end_to_end(workload, run, scaled=False),
    }
    if hasattr(workload, "quality"):
        figures["quality"] = workload.quality
    if len(log.durations) < 100:
        print(f"warning: only {len(log.durations)} timed steps; step_p90_ms has fewer than "
              "ten samples beyond it", file=sys.stderr)
    if tracer is None:
        metrics = {name: {"value": value, "unit": harness.END_TO_END_UNITS[name]}
                   for name, value in e2e.items()}
    else:
        tracer.paused = True
        sp = layers.Spans(tracer, log.timed_ids)
        values = layers.compute(sp, run["rounds"], run["copy_bytes_per_s"],
                                workload.layer_info(run["state"]))
        figures["layer_shares"] = layers.layer_shares(sp, workload.remainder_layer)
        figures["per_layer"] = values
        path = OUT_DIR / f"spans-{args.workload}.json"
        tracer.write(path, figures)
        figures["spans_file"] = str(path.relative_to(ROOT))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER}
    print(json.dumps({"figures": figures}), file=sys.stderr)
    print(json.dumps({"correct": log.wrong == 0, "attempted": log.attempted,
                      "failed": log.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
