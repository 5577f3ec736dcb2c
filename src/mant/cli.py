"""Command-line surface: file-based quantization, verification, KV-cache
toy runs, and the accelerator model.

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error.  Set
MANT_LOG=debug|info|warning for verbosity; all randomness flows from the
--seed flag.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import os
import sys

import numpy as np

from . import container
from .codec import (
    DEFAULT_GROUP_SIZE,
    INT4_COEFF,
    KIND_MANT4,
    group_lengths,
    quantize_activation_tensor,
    quantize_weight_tensor,
    split_runs,
    tensor_rows,
)
from .gemm import dequantized_gemm, gemm
from .grid import CURVE_KINDS, DEFAULT_NF_EPSILON, build_grid, fit_coefficient, reference_curve
from .attention import AttentionPolicies, run_toy_attention
from .selection import (
    CalibrationConfig,
    CandidateSet,
    DEFAULT_COEFFICIENTS,
    MIN_CALIBRATION_GROUPS,
    VarianceTable,
    build_variance_table,
    quantize_by_variance,
    select_weight_coefficient,
)
from .simulator import ArrayConfig, CostModel, compare_configs, layer_dimensions

log = logging.getLogger("mant")

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


def _parse_candidates(text: str) -> CandidateSet:
    coeffs = []
    include_int = False
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token == "int":
            include_int = True
        else:
            coeffs.append(int(token))
    if not coeffs:
        raise ValueError(f"--candidates {text!r} names no coefficient")
    return CandidateSet(tuple(coeffs), include_int)


def _coeff_key(a: int) -> str:
    return "int" if a == INT4_COEFF else str(a)


def _read_json(path: str, parse=json.loads):
    """``parse`` of the text of ``path``; an error of the parser names the
    file, a JSON syntax error as ``path:line:col``."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _emit(text: str, path: str | None) -> None:
    """Print ``text`` and write it to ``path`` when given."""
    print(text, end="")
    if path:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_json(payload, path: str | None) -> None:
    _emit(json.dumps(payload, indent=2) + "\n", path)


def cmd_fit_grid(args) -> int:
    curve = reference_curve(args.kind, args.epsilon)
    fitted = fit_coefficient(curve, args.metric)
    grid = build_grid(fitted)
    result = {
        "kind": curve.kind,
        "epsilon": curve.epsilon,
        "metric": args.metric,
        "fitted_a": fitted,
        "curve_points": [float(p) for p in curve.points],
        "grid_magnitudes": list(grid.magnitudes),
        "grid_normalized": [m / grid.max_magnitude for m in grid.magnitudes],
    }
    _emit_json(result, args.out)
    return EXIT_OK


def _quantize_stats(values: np.ndarray, qt, scales: np.ndarray) -> dict:
    """Errors of the stored tensor ``qt``; fp16 losses of the unrounded
    ``scales`` (:func:`container.write_quantized` has warned of them)."""
    _, underflow, overflow = container.half_scales(scales)
    decoded = qt.dequantize()
    err = decoded - values
    hist: dict[str, int] = {}
    if qt.element_kind == KIND_MANT4:
        coeffs, counts = np.unique(qt.coefficients, return_counts=True)
        hist = {_coeff_key(int(a)): int(c) for a, c in zip(coeffs, counts)}
    return {
        "mse": float(np.mean(err ** 2)),
        "max_abs_error": float(np.max(np.abs(err))),
        "coefficient_histogram": hist,
        "scale_underflow": underflow,
        "scale_overflow": overflow,
    }


def cmd_quantize(args) -> int:
    values = container.load_tensor(args.tensor)
    if not values.size:
        raise ValueError(f"tensor of shape {values.shape} has no elements to quantize")
    rng = np.random.default_rng(args.seed)
    group_size = args.group_size
    axis = args.axis
    if axis is None:
        axis = 0 if args.role == "weight" else values.ndim - 1
    if not -values.ndim <= axis < values.ndim:
        raise ValueError(f"axis {axis} out of range for shape {values.shape}")
    axis %= values.ndim
    rows = tensor_rows(values, axis)

    if args.role == "activation":
        qt = quantize_activation_tensor(values, axis, group_size)
    elif args.role == "weight":
        candidates = _parse_candidates(args.candidates)
        if args.calib:
            x_calib = container.load_tensor(args.calib)
        else:
            x_calib = rng.standard_normal((args.calib_samples, values.shape[axis]))
            log.info("synthesized %d calibration rows", args.calib_samples)
        if x_calib.ndim != 2 or x_calib.shape[1] != values.shape[axis]:
            raise ValueError(f"calibration shape {x_calib.shape} does not cover axis length "
                             f"{values.shape[axis]}")
        lengths = group_lengths(rows.shape[1], group_size)
        coeffs = np.zeros((rows.shape[0], lengths.size), dtype=np.uint8)
        for g, length in enumerate(lengths):
            cols = slice(g * group_size, g * group_size + int(length))
            coeffs[:, g] = select_weight_coefficient(rows[:, cols], x_calib[:, cols], candidates)
        qt = quantize_weight_tensor(values, coeffs, axis, group_size)
    else:  # kv
        if args.table:
            table = _read_json(args.table, VarianceTable.from_json)
        else:
            if args.calib_config:
                calib = _read_json(args.calib_config, CalibrationConfig.from_json)
                candidates = calib.candidate_set()
                min_groups = calib.min_groups
            else:
                candidates = CandidateSet(_parse_candidates(args.candidates).coefficients,
                                          include_int=False)
                min_groups = None
            # the full groups, or the short rows when no group is full
            first = split_runs(rows, group_size)[0]
            groups = first.reshape(-1, first.shape[-1])
            if min_groups is None:
                min_groups = min(MIN_CALIBRATION_GROUPS, groups.shape[0])
            table = build_variance_table(groups, candidates, min_groups=min_groups)
            log.info("calibrated variance table from %d groups", groups.shape[0])
        qt = quantize_by_variance(values, table, axis, group_size)

    stored = container.save_quantized(args.out, qt)
    _emit_json(_quantize_stats(values, stored, qt.scales), args.stats)
    return EXIT_OK


def cmd_dequantize(args) -> int:
    qt = container.load_quantized(args.input)
    container.save_tensor(args.out, qt.dequantize())
    return EXIT_OK


def cmd_gemm_check(args) -> int:
    x_q = container.load_quantized(args.x)
    w_q = container.load_quantized(args.w)
    fused = gemm(x_q, w_q)
    reference = dequantized_gemm(x_q, w_q)
    ref_scale = float(np.max(np.abs(reference)))
    diff = np.abs(fused - reference)
    max_rel = float(np.max(diff) / ref_scale) if ref_scale else float(np.max(diff))
    mean_rel = float(np.mean(diff) / ref_scale) if ref_scale else float(np.mean(diff))
    result = {"max_relative_error": max_rel, "mean_relative_error": mean_rel,
              "threshold": args.threshold, "ok": max_rel <= args.threshold}
    _emit_json(result, args.out)
    return EXIT_OK if result["ok"] else EXIT_VERIFY


def cmd_kv_run(args) -> int:
    k_table, v_table = (_read_json(path, VarianceTable.from_json) if path else None
                        for path in (args.k_table, args.v_table))
    policies = AttentionPolicies(group_size=args.group_size, quantize_kv=not args.no_kv_quant,
                                 k_table=k_table, v_table=v_table)
    report = run_toy_attention(args.prefill, args.steps, args.heads, args.head_dim,
                               policies, seed=args.seed)
    steps = []
    for s in range(args.steps):
        flushed = s in report.flush_steps
        if flushed:
            log.info("decode step %d: window flushed to 4-bit", s)
        steps.append({"step": s, "cosine": float(report.step_cosine[s]),
                      "mse": float(report.step_mse[s]), "flush": flushed})
    trace = {
        "prefill_len": args.prefill,
        "decode_steps": args.steps,
        "heads": args.heads,
        "head_dim": args.head_dim,
        "group_size": args.group_size,
        "seed": args.seed,
        "prefill_cosine": report.prefill_cosine,
        "clamp_count": report.clamp_count,
        "flush_steps": report.flush_steps,
        "steps": steps,
    }
    _emit_json(trace, args.out)
    if args.min_cosine is not None:
        worst = min([report.prefill_cosine] + [s["cosine"] for s in steps])
        if worst < args.min_cosine:
            log.warning("cosine %.6f below threshold %.6f", worst, args.min_cosine)
            return EXIT_VERIFY
    return EXIT_OK


def _parse_workload(text: str) -> list[dict]:
    data = json.loads(text)
    layers = data.get("layers") if isinstance(data, dict) else data
    if not isinstance(layers, list) or not layers:
        raise ValueError("workload must contain a non-empty 'layers' list")
    for i, layer in enumerate(layers):
        try:
            layer_dimensions(layer)
        except ValueError as exc:
            raise ValueError(f"layer {i}: {exc}") from exc
    return layers


def _parse_sim_config(text: str, default_name: str) -> tuple[str, ArrayConfig, CostModel]:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    name, cost = data.pop("name", default_name), data.pop("cost", {})
    return name, ArrayConfig(**data), CostModel(**cost)


def _report_rows(comparison: dict):
    fields = ["config", "label", "total_cycles", "pipeline_fill", "stream", "drain",
              "nonoverlapped_quant", "dram_floor_cycles", "total_energy", "core", "buffer",
              "dram", "static", "weights", "activations", "kv", "metadata", "speedup",
              "energy_ratio"]
    rows = []
    for entry in comparison["results"]:
        for rep in entry["layers"] + [entry["total"]]:
            rows.append({
                "config": entry["config"], "label": rep["label"],
                "total_cycles": rep["total_cycles"],
                **rep["breakdown"],
                "dram_floor_cycles": rep["dram_floor_cycles"],
                "total_energy": rep["total_energy"], **rep["energy"], **rep["bytes"],
                "speedup": entry["speedup"] if rep["label"] == "total" else "",
                "energy_ratio": entry["energy_ratio"] if rep["label"] == "total" else "",
            })
    return fields, rows


def cmd_sim(args) -> int:
    layers = _read_json(args.workload, _parse_workload)
    configs = [_read_json(path, lambda text: _parse_sim_config(text, os.path.basename(path)))
               for path in args.config]
    try:
        comparison = compare_configs(layers, configs)
    except OverflowError as exc:   # a count past the float range, such as from M = 1e308
        raise ValueError(f"{args.workload}: workload too large for the model: {exc}") from exc
    if args.format == "json":
        text = json.dumps(comparison, indent=2) + "\n"
    else:
        fields, rows = _report_rows(comparison)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    _emit(text, args.out)
    return EXIT_OK


def cmd_gen_tensor(args) -> int:
    rng = np.random.default_rng(args.seed)
    shape = tuple(int(d) for d in args.shape.lower().split("x"))
    if not shape or any(d < 1 for d in shape):
        raise ValueError(f"bad shape {args.shape!r}")
    values = rng.standard_normal(shape) * args.std
    container.save_tensor(args.out, values)
    print(json.dumps({"shape": list(shape), "seed": args.seed, "out": args.out}))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so in-process calls of :func:`main` share it."""
    parser = argparse.ArgumentParser(prog="mant",
                                     description="Adaptive 4-bit quantization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit-grid", help="fit a grid coefficient to a reference curve")
    p.add_argument("--kind", required=True, choices=CURVE_KINDS)
    p.add_argument("--epsilon", type=float, default=None,
                   help=f"NormalFloat epsilon (default {DEFAULT_NF_EPSILON})")
    p.add_argument("--metric", choices=("mae", "mse"), default="mae")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit_grid)

    p = sub.add_parser("quantize", help="quantize a raw tensor file")
    p.add_argument("--tensor", required=True)
    p.add_argument("--role", required=True, choices=("weight", "activation", "kv"))
    p.add_argument("--axis", type=int, default=None,
                   help="grouping axis (default: 0 for weights, last otherwise)")
    p.add_argument("--group-size", type=int, default=DEFAULT_GROUP_SIZE)
    p.add_argument("--candidates", default=",".join(map(str, DEFAULT_COEFFICIENTS + ("int",))))
    p.add_argument("--table", help="variance table JSON for the kv role")
    p.add_argument("--calib", help="calibration activations (MNTT) for the weight role")
    p.add_argument("--calib-config", help="calibration config JSON for the kv role")
    p.add_argument("--calib-samples", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--stats", help="write error statistics JSON here")
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("dequantize", help="decode a quantized container to a raw tensor")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dequantize)

    p = sub.add_parser("gemm-check", help="compare the fused path with the dequantized one")
    p.add_argument("--x", required=True, help="INT8 activation container")
    p.add_argument("--w", required=True, help="4-bit weight container")
    p.add_argument("--threshold", type=float, default=1e-6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gemm_check)

    p = sub.add_parser("kv-run", help="toy attention with real-time KV quantization")
    p.add_argument("--prefill", type=int, default=256)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--head-dim", type=int, default=64)
    p.add_argument("--group-size", type=int, default=DEFAULT_GROUP_SIZE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-table")
    p.add_argument("--v-table")
    p.add_argument("--no-kv-quant", action="store_true")
    p.add_argument("--min-cosine", type=float, default=None,
                   help="exit 1 when any step's cosine falls below this")
    p.add_argument("--out")
    p.set_defaults(func=cmd_kv_run)

    p = sub.add_parser("sim", help="run the accelerator model over a workload")
    p.add_argument("--workload", required=True)
    p.add_argument("--config", action="append", required=True,
                   help="config JSON; repeat to compare several")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("gen-tensor", help="write a seeded random tensor file")
    p.add_argument("--shape", required=True, help="e.g. 128x128")
    p.add_argument("--std", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_tensor)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("MANT_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s: %(message)s", stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            # a real-valued flag (every float here is one) must be finite
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value}")
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
