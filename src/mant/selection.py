"""Coefficient selection policies.

Weights are encoded offline: for each group the candidate coefficient is
chosen by the output mean-squared error against calibration activations.
The KV cache needs a decision per group in real time, so a calibration pass
maps normalized group variance to a coefficient instead: groups are labeled
with their best coefficient, and the variance boundary between two adjacent
candidates is the mean normalized variance observed at the integer midpoint
coefficient between them (probing a=35 and a=45 yields the boundaries of
the a=40 range, for example).  At inference a single streaming variance
lookup replaces the per-candidate search; :func:`coefficients_from_sums`
holds that rule and :func:`variance_from_sums` the one variance formula.
:func:`quantize_by_variance` encodes a whole tensor by that rule (the
CLI's kv role, and the KV cache's keys and prompt values).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .codec import (INT4_COEFF, QuantizedTensor, decode_groups, encode_groups,
                    quantize_weight_tensor, split_runs, tensor_rows)
from .codec import quantize_weight_group  # noqa: F401  (unused; bench/spans.py patches it)

DEFAULT_COEFFICIENTS = (0, 5, 10, 17, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120)
MIN_CALIBRATION_GROUPS = 32
# Groups per stacked search in select_weight_coefficient, set by a sweep on
# large weights (CHANGES.md): the (options, rows, G) temporaries of larger
# tiles outgrow the cache, and smaller tiles cost more calls.
SEARCH_TILE_ROWS = 128


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, not a bool or a fraction: a checked
    field refuses those rather than truncating them."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(value, name: str) -> int:
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _json_number(value) -> float:
    """A JSON number as a float; a string or boolean raises ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


@dataclass(frozen=True)
class CandidateSet:
    """Coefficients a group may be encoded with.

    ``include_int`` adds the plain-INT4 grid as one more option for the
    offline weight search (the KV-cache variance table always works on the
    adaptive coefficients alone).
    """

    coefficients: tuple[int, ...] = DEFAULT_COEFFICIENTS
    include_int: bool = True

    def __post_init__(self):
        coeffs = tuple(_integer(a, "coefficient") for a in self.coefficients)
        if not coeffs:
            raise ValueError("candidate set is empty")
        if list(coeffs) != sorted(set(coeffs)):
            raise ValueError("coefficients must be strictly ascending")
        if coeffs[0] < 0 or coeffs[-1] > 127:
            raise ValueError("coefficients must lie in [0, 127]")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def options(self) -> tuple[int, ...]:
        """All searchable options; INT4_COEFF sorts last when included."""
        if self.include_int:
            return self.coefficients + (INT4_COEFF,)
        return self.coefficients


def reconstruction(values, a) -> np.ndarray:
    """Quantize and dequantize groups ``(..., G)`` with coefficient(s) ``a``."""
    codes, scales = encode_groups(values, a)
    return decode_groups(codes, a, scales)


def _scalar_or_array(result: np.ndarray):
    return result.item() if result.ndim == 0 else result


def select_weight_coefficient(w_group, x_calib, candidates: CandidateSet):
    """Pick the candidate minimizing the output MSE of each weight group.

    ``w_group`` is one group ``(G,)`` (giving an int) or groups ``(n, G)``
    sharing the calibration activations ``x_calib`` (samples, G).  The error
    of candidate a is ``||x_calib @ (reconstruction(w, a) - w)||**2``; ties
    break toward the earlier option, i.e. the smaller coefficient.
    """
    w_group = np.asarray(w_group, dtype=np.float64)
    x_calib = np.asarray(x_calib, dtype=np.float64)
    if x_calib.ndim != 2 or x_calib.shape[1] != w_group.shape[-1]:
        raise ValueError(f"calibration shape {x_calib.shape} does not match group size "
                         f"{w_group.shape[-1]}")
    if not x_calib.shape[0]:
        # every candidate's output error would be 0, and the tie pick a=0
        raise ValueError("calibration set has no rows")
    if not np.isfinite(x_calib).all():
        # every error would be NaN, and the tie pick the first option
        raise ValueError("calibration data contains non-finite values")
    options = np.asarray(candidates.options)
    groups = w_group.reshape(-1, w_group.shape[-1])
    best = np.empty(len(groups), dtype=np.intp)
    for start in range(0, len(groups), SEARCH_TILE_ROWS):
        tile = groups[start:start + SEARCH_TILE_ROWS]
        # every option of every group in one (options, rows, G) stack
        stack = np.broadcast_to(tile, (len(options),) + tile.shape)
        delta = reconstruction(stack, options[:, None]) - tile
        # a stack of matrix-vector products runs one gemv per group, the
        # same BLAS call (and rounding) as x_calib @ delta for one group
        errs = np.sum(np.matmul(x_calib, delta[..., None])[..., 0] ** 2, axis=-1)
        # a NaN error never wins, as with a strict < scan
        best[start:start + len(tile)] = np.argmin(np.where(np.isnan(errs), np.inf, errs), axis=0)
    return _scalar_or_array(options[best].reshape(w_group.shape[:-1]))


def weight_space_error(values, a):
    """Reconstruction MSE of groups ``(..., G)``, used to label calibration data."""
    values = np.asarray(values, dtype=np.float64)
    delta = reconstruction(values, a) - values
    return _scalar_or_array(np.mean(delta ** 2, axis=-1))


def _group_sums(values):
    """Sum, sum of squares, length and absolute maximum of groups ``(..., G)``."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    return (values.sum(axis=-1), (values * values).sum(axis=-1), values.shape[-1],
            np.max(np.abs(values), axis=-1, initial=0.0))


def variance_from_sums(total, total_sq, count, absmax):
    """Normalized variance ``(E[x^2] - E[x]^2) / max|x|^2`` in [0, 1] of
    groups from their sums over ``count`` elements and absolute maxima; 0
    for an all-zero or empty group.  The mean is squared by a multiply,
    which rounds once; the C library's ``pow`` sometimes rounds otherwise."""
    total, total_sq, absmax = (np.asarray(x, dtype=np.float64) for x in (total, total_sq, absmax))
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = total / count
        var = (total_sq / count - mean * mean) / (absmax * absmax)
    var = np.where((absmax == 0.0) | (np.asarray(count) == 0), 0.0, np.clip(var, 0.0, 1.0))
    return _scalar_or_array(var)


def normalized_variance(values):
    """Variance of groups ``(..., G)`` after scaling each absolute maximum to
    1: :func:`variance_from_sums` of each group's sums."""
    return variance_from_sums(*_group_sums(values))


@dataclass(frozen=True)
class VarianceTable:
    """Maps normalized group variance to a coefficient.

    ``entries`` is an ascending-coefficient list of (a, lo, hi) ranges that
    tile [0, 1]: contiguous, non-overlapping, first lo = 0, last hi = 1.
    Each a is an integer coefficient in 0..INT4_COEFF.
    """

    entries: tuple[tuple[int, float, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("variance table is empty")
        coeffs = [e[0] for e in self.entries]
        for a in coeffs:
            # a group's coefficient is stored as uint8, which would wrap a larger a
            if not _is_integer(a) or not 0 <= a <= INT4_COEFF:
                raise ValueError(f"table coefficient must be an integer in 0..{INT4_COEFF}, "
                                 f"got {a!r}")
        if coeffs != sorted(coeffs) or len(set(coeffs)) != len(coeffs):
            raise ValueError("table entries must be ordered by ascending coefficient")
        prev_hi = 0.0
        for a, lo, hi in self.entries:
            if lo != prev_hi:
                raise ValueError(f"range gap before coefficient {a}: {lo} != {prev_hi}")
            if hi < lo:
                raise ValueError(f"inverted range for coefficient {a}")
            prev_hi = hi
        if self.entries[0][1] != 0.0 or self.entries[-1][2] != 1.0:
            raise ValueError("table ranges must cover [0, 1]")
        object.__setattr__(self, "_coeffs", np.array([e[0] for e in self.entries]))
        object.__setattr__(self, "_his", np.array([e[2] for e in self.entries]))

    def lookup(self, variance):
        """Coefficient whose range contains ``variance`` (total on [0, 1]);
        an array of variances gives an array of coefficients."""
        v = np.clip(np.asarray(variance, dtype=np.float64), 0.0, 1.0)
        # the ranges tile [0, 1] in order, so the first range with hi > v
        # contains v; v = 1 (or NaN) falls through to the last entry
        index = np.searchsorted(self._his, v, side="right")
        return _scalar_or_array(self._coeffs[np.minimum(index, len(self.entries) - 1)])

    def range_of(self, a: int) -> tuple[float, float]:
        for coeff, lo, hi in self.entries:
            if coeff == a:
                return lo, hi
        raise KeyError(f"coefficient {a} not in table")

    def to_json(self) -> str:
        return json.dumps([{"a": a, "lo": lo, "hi": hi} for a, lo, hi in self.entries],
                          indent=2)

    @classmethod
    def from_json(cls, text: str) -> "VarianceTable":
        try:
            entries = tuple((e["a"], _json_number(e["lo"]), _json_number(e["hi"]))
                            for e in json.loads(text))
        except (TypeError, KeyError) as exc:   # not a list of objects, or a bad field
            raise ValueError(f'variance table must be a JSON list of {{"a", "lo", "hi"}} '
                             f"objects with numbers: {exc!r}") from exc
        return cls(entries)


@dataclass(frozen=True)
class CalibrationConfig:
    """Knobs of a calibration run, shareable as JSON.  The group size is not
    one of them: it is the quantizer's setting (the CLI's ``--group-size``)."""

    coefficients: tuple[int, ...] = DEFAULT_COEFFICIENTS
    min_groups: int = MIN_CALIBRATION_GROUPS

    def __post_init__(self):
        object.__setattr__(self, "coefficients", self.candidate_set().coefficients)
        object.__setattr__(self, "min_groups", _integer(self.min_groups, "min_groups"))

    def candidate_set(self) -> CandidateSet:
        return CandidateSet(self.coefficients, include_int=False)

    def to_json(self) -> str:
        return json.dumps({
            "candidates": list(self.coefficients),
            "min_groups": self.min_groups,
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CalibrationConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("calibration config must be a JSON object")
        if "group_size" in data:
            # ignoring the key would silently change the group size an old file selects
            raise ValueError("calibration config has no group_size field; "
                             "set the group size with --group-size")
        candidates = data.get("candidates", DEFAULT_COEFFICIENTS)
        if not isinstance(candidates, (list, tuple)):
            raise ValueError(f"calibration config candidates must be a list, got {candidates!r}")
        return cls(tuple(candidates), data.get("min_groups", MIN_CALIBRATION_GROUPS))


def midpoint_probes(coefficients: tuple[int, ...]) -> tuple[int, ...]:
    """Integer midpoint coefficients between adjacent candidates."""
    return tuple((a + b) // 2 for a, b in zip(coefficients, coefficients[1:]))


def table_from_probe_means(coefficients, probe_means) -> VarianceTable:
    """Build a table from per-probe mean variances.

    ``probe_means[k]`` is the mean normalized variance of groups whose best
    coefficient was the midpoint probe between candidates k and k+1 (None
    for probes with no samples).  Missing boundaries are interpolated from
    their neighbors; boundaries are clipped ascending so candidates whose
    data is degenerate collapse to an empty range and merge into neighbors.
    """
    coefficients = CandidateSet(tuple(coefficients), include_int=False).coefficients
    boundaries = list(probe_means)
    if len(boundaries) != len(coefficients) - 1:
        raise ValueError("need one probe mean per adjacent candidate pair")

    known = [(i, b) for i, b in enumerate(boundaries) if b is not None]
    if not known and boundaries:
        # no probe data at all: fall back to an even split
        boundaries = [(i + 1) / len(coefficients) for i in range(len(boundaries))]
    else:
        for i in range(len(boundaries)):
            if boundaries[i] is not None:
                continue
            left = [(j, b) for j, b in known if j < i]
            right = [(j, b) for j, b in known if j > i]
            if left and right:
                (jl, bl), (jr, br) = left[-1], right[0]
                boundaries[i] = bl + (br - bl) * (i - jl) / (jr - jl)
            elif left:
                boundaries[i] = left[-1][1]
            else:
                boundaries[i] = right[0][1]

    edges = [0.0]
    for b in boundaries:
        edges.append(min(max(float(b), edges[-1]), 1.0))
    edges.append(1.0)
    entries = tuple((a, edges[i], edges[i + 1]) for i, a in enumerate(coefficients))
    return VarianceTable(entries)


def build_variance_table(calib_groups, candidates: CandidateSet | tuple[int, ...],
                         min_groups: int = MIN_CALIBRATION_GROUPS) -> VarianceTable:
    """Calibrate a variance table from sample groups.

    Each calibration group is labeled with its error-minimizing coefficient
    drawn from the candidates plus the midpoint probes between them; the
    mean normalized variance per probe becomes the boundary between the
    adjacent candidates.  Requires at least ``min_groups`` groups.
    """
    coefficients = (candidates if isinstance(candidates, CandidateSet)
                    else CandidateSet(tuple(candidates), include_int=False)).coefficients
    groups = np.ascontiguousarray(calib_groups, dtype=np.float64)
    if groups.ndim != 2:
        raise ValueError("calibration groups must be a (n, group_size) array")
    if groups.shape[0] < min_groups:
        raise ValueError(f"need at least {min_groups} calibration groups, got {groups.shape[0]}")
    if len(coefficients) == 1:
        return VarianceTable(((coefficients[0], 0.0, 1.0),))

    probes = midpoint_probes(coefficients)
    search_space = tuple(sorted(set(coefficients) | set(probes)))
    errs = np.array([weight_space_error(groups, a) for a in search_space])
    labels = np.asarray(search_space)[np.argmin(errs, axis=0)]
    variances = normalized_variance(groups)
    means = [float(np.mean(variances[labels == p])) if np.any(labels == p) else None
             for p in probes]
    return table_from_probe_means(coefficients, means)


def coefficients_from_sums(table: VarianceTable, total, total_sq, count, absmax) -> np.ndarray:
    """Real-time coefficient choice (uint8) of groups from their sums, as in
    :func:`variance_from_sums`; an all-zero group takes the smallest."""
    coeffs = table.lookup(variance_from_sums(total, total_sq, count, absmax))
    return np.where(np.asarray(absmax) == 0.0, table.entries[0][0], coeffs).astype(np.uint8)


def select_by_variance(group, table: VarianceTable):
    """:func:`coefficients_from_sums` of groups ``(..., G)``."""
    return _scalar_or_array(coefficients_from_sums(table, *_group_sums(group)))


def quantize_by_variance(values, table: VarianceTable, group_axis: int,
                         group_size: int) -> QuantizedTensor:
    """A 4-bit tensor grouped along ``group_axis``, each group's coefficient from
    :func:`coefficients_from_sums` of its sums over its true length (:func:`codec.split_runs`)."""
    rows = tensor_rows(values, group_axis)
    # the empty first part keeps the (rows, 0) shape of an axis with no groups
    coeffs = np.concatenate([np.zeros((len(rows), 0), np.uint8)] + [coefficients_from_sums(
        table, *_group_sums(run)) for run in split_runs(rows, group_size)], axis=-1)
    return quantize_weight_tensor(values, coeffs, group_axis, group_size)
