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

from .codec import (INT4_COEFF, KIND_MANT4, MAX_GROUP_SIZE, QuantizedTensor, _check_finite,
                    _encode_magnitudes, _scale_levels, encode_levels, group_lengths,
                    tensor_rows, to_groups)
from .codec import quantize_weight_group  # noqa: F401  (unused; bench/spans.py patches it)
from .grid import MAX_COEFFICIENT, as_integer, as_number

DEFAULT_COEFFICIENTS = (0, 5, 10, 17, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120)
MIN_CALIBRATION_GROUPS = 32
# Elements of one tile's (options, rows, G) stack in :func:`_best_options`, set
# by a sweep on large weights (CHANGES.md): larger stacks outgrow the cache, and
# smaller tiles cost more calls.  16 weight options at G = 64 take 128 rows.
SEARCH_TILE_ELEMENTS = 128 * 16 * 64


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
        coeffs = tuple(as_integer(a, "coefficient", 0, MAX_COEFFICIENT) for a in self.coefficients)
        if not coeffs:
            raise ValueError("candidate set is empty")
        if list(coeffs) != sorted(set(coeffs)):
            raise ValueError("coefficients must be strictly ascending")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def options(self) -> tuple[int, ...]:
        """All searchable options; INT4_COEFF sorts last when included."""
        if self.include_int:
            return self.coefficients + (INT4_COEFF,)
        return self.coefficients


def reconstruction(values, a) -> np.ndarray:
    """Quantize and dequantize groups ``(..., G)`` with coefficient(s) ``a``."""
    return _scale_levels(*encode_levels(values, a))


def _scalar_or_array(result: np.ndarray):
    return result.item() if result.ndim == 0 else result


def _best_options(groups, options, error) -> np.ndarray:
    """Index into the coefficient array ``options`` of each group's best
    option: the least ``error(delta)`` for float64 groups ``(n, G)``, where
    ``error`` maps the ``(options, rows, G)`` stack ``delta =
    reconstruction(stack, options[:, None]) - tile`` of a tile of rows to
    ``(options, rows)`` errors.  Ties go to the earlier option, and a NaN
    error never wins, as with a strict ``<`` scan.  A tile holds the rows
    whose stack fits :data:`SEARCH_TILE_ELEMENTS`, and at least one."""
    rows = max(1, SEARCH_TILE_ELEMENTS // (len(options) * max(1, groups.shape[-1])))
    best = np.empty(len(groups), dtype=np.intp)
    for start in range(0, len(groups), rows):
        tile = groups[start:start + rows]
        stack = np.broadcast_to(tile, (len(options),) + tile.shape)
        errs = error(reconstruction(stack, options[:, None]) - tile)
        best[start:start + len(tile)] = np.argmin(np.where(np.isnan(errs), np.inf, errs), axis=0)
    return best


def select_weight_coefficient(w_group, x_calib, candidates: CandidateSet):
    """Pick the candidate minimizing the output MSE of each weight group.

    ``w_group`` is one group ``(G,)`` (giving an int) or groups ``(n, G)``
    sharing the calibration activations ``x_calib`` (samples, G).  The error
    of candidate a is ``||x_calib @ (reconstruction(w, a) - w)||**2``, every
    option of a tile of groups scored at once (:func:`_best_options`); ties
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
    # a stack of matrix-vector products runs one gemv per group, the same
    # BLAS call (and rounding) as x_calib @ delta for one group
    best = _best_options(w_group.reshape(-1, w_group.shape[-1]), options, lambda delta: np.sum(
        np.matmul(x_calib, delta[..., None])[..., 0] ** 2, axis=-1))
    return _scalar_or_array(options[best].reshape(w_group.shape[:-1]))


# Sums are formed of groups whose max|x| lies in this range, where neither a
# sum of squares (G <= 2**16 squares below 2**1000) overflows nor a square of
# the max underflows.
_SUMMABLE = (2.0 ** -500, 2.0 ** 500)


def _summable(groups, absmax):
    """Groups ``(..., G)`` and their ``max|x|``, each nonzero group whose max
    lies outside :data:`_SUMMABLE` scaled by the power of two that brings its
    max into [0.5, 1): an exact scaling that every step of the normalized
    variance commutes with, so such a group reads the bits it reads at
    ordinary magnitudes.  The arguments themselves when every max lies
    inside, and so is finite and nonzero (two reductions)."""
    low, high = _SUMMABLE
    if (low <= np.minimum.reduce(absmax, axis=None, initial=high)
            and np.maximum.reduce(absmax, axis=None, initial=low) <= high):
        return groups, absmax
    mantissas, exponents = np.frexp(absmax)
    outside = ((absmax < low) & (absmax != 0.0)) | (absmax > high)
    return (np.ldexp(groups, np.where(outside, -exponents, 0)[..., None]),
            np.where(outside, mantissas, absmax))


def _sums(values, squares=None):
    """Sum and sum of squares of groups ``(..., G)``, each added pairwise
    along its axis; the squares go to ``squares`` when it is given."""
    return (np.add.reduce(values, axis=-1),
            np.add.reduce(np.multiply(values, values, out=squares), axis=-1))


def _group_sums(values):
    """Sum, sum of squares, length and absolute maximum of groups ``(..., G)``
    (of a group outside :data:`_SUMMABLE` scaled, see :func:`_summable`)."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    values, absmax = _summable(values, np.maximum.reduce(np.abs(values), axis=-1, initial=0.0))
    return (*_sums(values), values.shape[-1], absmax)


def variance_from_sums(total, total_sq, count, absmax):
    """Normalized variance ``(E[x^2] - E[x]^2) / max|x|^2`` in [0, 1] of
    groups from their sums over ``count`` elements and absolute maxima; 0
    for an all-zero or empty group.  The mean is squared by a multiply,
    which rounds once; the C library's ``pow`` sometimes rounds otherwise."""
    absmax = np.asarray(absmax, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        var = np.asarray(_variance(total, total_sq, count, absmax))
    # np.clip(var, 0, 1) with NaN kept, in place: two ufuncs cost less than its wrapper
    np.minimum(1.0, np.maximum(0.0, var, out=var), out=var)
    np.copyto(var, 0.0, where=(absmax == 0.0) | np.equal(count, 0))
    return _scalar_or_array(var)


def _variance(total, total_sq, count, absmax):
    """:func:`variance_from_sums` before its clip and its zeros: NaN or inf,
    and a numpy warning unless the caller silences it, where ``absmax`` or
    ``count`` is 0 or a sum is not finite."""
    mean = np.asarray(total, dtype=np.float64) / count
    return (np.asarray(total_sq, dtype=np.float64) / count - mean * mean) / (absmax * absmax)


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
        # a group's coefficient is stored as uint8, which would wrap a larger a
        object.__setattr__(self, "entries", tuple(
            (as_integer(a, "table coefficient", 0, INT4_COEFF), as_number(lo, "lo"),
             as_number(hi, "hi")) for a, lo, hi in self.entries))
        coeffs = [e[0] for e in self.entries]
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
        his = np.array([e[2] for e in self.entries[:-1]])
        object.__setattr__(self, "_edges", np.where(his == 0.0, -np.inf, his))

    def lookup(self, variance):
        """Coefficient whose range contains ``variance`` (total on [0, 1]);
        an array of variances gives an array of coefficients."""
        # the ranges tile [0, 1] in order, so the first range with hi > v
        # contains v: its index counts the upper edges at or below v.  Leaving
        # out the last edge puts v >= 1 and NaN in the last range, and an edge
        # of 0 read as -inf counts for v < 0 as for v = 0, so no clip is needed
        index = self._edges.searchsorted(np.asarray(variance, dtype=np.float64), side="right")
        return _scalar_or_array(self._coeffs[index])

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
        data = json.loads(text)
        try:
            entries = tuple((e["a"], as_number(e["lo"], "lo"), as_number(e["hi"], "hi"))
                            for e in data)
        except (TypeError, KeyError, ValueError) as exc:   # not a list of objects, or a bad field
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
        object.__setattr__(self, "min_groups", as_integer(self.min_groups, "min_groups", 1))

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


def calibration_groups(rows, group_size: int) -> np.ndarray:
    """The groups along the last axis of ``rows`` that calibrate a variance
    table, in row-major order: the full groups ``(n, G)``, or the short rows
    ``(n, axis_len)`` when no group is full."""
    rows = np.asarray(rows)
    group_size = as_integer(group_size, "group size", 1, MAX_GROUP_SIZE)
    n_full = rows.shape[-1] // group_size
    if not n_full:
        return rows.reshape(-1, rows.shape[-1])
    return rows[..., :n_full * group_size].reshape(-1, group_size)


def build_variance_table(calib_groups, candidates: CandidateSet | tuple[int, ...],
                         min_groups: int = MIN_CALIBRATION_GROUPS) -> VarianceTable:
    """Calibrate a variance table from sample groups.

    Each calibration group is labeled with the coefficient of least
    reconstruction MSE among the candidates plus the midpoint probes
    between them, all of them scored at once per tile of groups
    (:func:`_best_options`); the mean normalized variance per probe becomes
    the boundary between the adjacent candidates.  Requires at least
    ``min_groups`` groups.
    """
    coefficients = (candidates if isinstance(candidates, CandidateSet)
                    else CandidateSet(tuple(candidates), include_int=False)).coefficients
    min_groups = as_integer(min_groups, "min_groups", 1)
    groups = np.ascontiguousarray(calib_groups, dtype=np.float64)
    if groups.ndim != 2:
        raise ValueError("calibration groups must be a (n, group_size) array")
    if groups.shape[0] < min_groups:
        raise ValueError(f"need at least {min_groups} calibration groups, got {groups.shape[0]}")
    if len(coefficients) == 1:
        return VarianceTable(((coefficients[0], 0.0, 1.0),))

    probes = midpoint_probes(coefficients)
    search_space = np.asarray(sorted(set(coefficients) | set(probes)))
    labels = search_space[_best_options(groups, search_space,
                                        lambda delta: np.mean(delta ** 2, axis=-1))]
    variances = normalized_variance(groups)
    means = [float(np.mean(variances[labels == p])) if np.any(labels == p) else None
             for p in probes]
    return table_from_probe_means(coefficients, means)


def coefficients_from_sums(table: VarianceTable, total, total_sq, count, absmax) -> np.ndarray:
    """Real-time coefficient choice (uint8) of groups from their sums: the
    range of their :func:`variance_from_sums`, which the lookup finds without
    the clip; an empty group reads variance 0, and an all-zero group takes
    the smallest coefficient."""
    absmax = np.asarray(absmax, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        variance = _variance(total, total_sq, count, absmax)
    coeffs = np.asarray(table.lookup(variance), dtype=np.uint8)
    empty = np.equal(count, 0)
    if empty.any():
        np.copyto(coeffs, table.lookup(0.0), where=empty)
    if not absmax.all():
        np.copyto(coeffs, table.entries[0][0], where=absmax == 0.0)
    return coeffs


def select_by_variance(group, table: VarianceTable):
    """:func:`coefficients_from_sums` of groups ``(..., G)``."""
    return _scalar_or_array(coefficients_from_sums(table, *_group_sums(group)))


def _encode_by_variance(table: VarianceTable, rows, group_size: int):
    """4-bit levels, scales and coefficients ``(n, n_groups)`` of the groups
    along the last axis of float64 ``rows`` ``(n, axis_len)``, each
    coefficient by :func:`coefficients_from_sums` from its group's sums over
    its true length (zero padding would move a pairwise sum).  One pass of
    ``|x|``, max and sums feeds the lookup and the encoder, which takes the
    max as it is and ``|x|`` again in the same buffer.  Non-finite input
    raises ValueError on the maxima, before any arithmetic that can warn.
    Maxima that :func:`_summable` leaves as they are need no ``np.errstate``:
    their variances are finite."""
    groups = to_groups(rows, group_size)
    magnitudes = np.abs(groups)
    absmax = np.maximum.reduce(magnitudes, axis=-1, initial=0.0)
    summed, summed_max = _summable(groups, absmax)   # only compares the maxima
    in_range = summed_max is absmax
    if not in_range:
        _check_finite(absmax)
    # the squares borrow the buffer of |x|: one temporary of the groups' size
    total, total_sq = _sums(summed, squares=magnitudes)
    size = groups.shape[-1]
    tail = rows.shape[-1] % size
    count = size
    if tail:
        total[..., -1], total_sq[..., -1] = _sums(summed[..., -1, :tail])
        count = group_lengths(rows.shape[-1], size)
    if in_range:
        coeffs = table.lookup(_variance(total, total_sq, count, absmax)).astype(np.uint8)
    else:
        coeffs = coefficients_from_sums(table, total, total_sq, count, summed_max)
    np.abs(groups, out=magnitudes)
    return (*_encode_magnitudes(groups, magnitudes, absmax, coeffs), coeffs)


def quantize_by_variance(values, table: VarianceTable, group_axis: int,
                         group_size: int) -> QuantizedTensor:
    """A 4-bit tensor grouped along ``group_axis``, each group's coefficient from
    :func:`coefficients_from_sums` of its sums (:func:`_encode_by_variance`).  A
    table's coefficients are 4-bit by construction, so the encoder takes them
    unchecked."""
    levels, scales, coeffs = _encode_by_variance(table, tensor_rows(values, group_axis),
                                                 group_size)
    return QuantizedTensor(np.shape(values), KIND_MANT4, group_axis, group_size, levels, scales,
                           coeffs)
