"""Quantization grids and coefficient fitting.

The 4-bit format encodes a sign bit plus a 3-bit magnitude index i; the
pre-scale magnitude of index i is ``a*i + 2**i`` for a per-group integer
coefficient ``a``.  Sweeping ``a`` morphs the grid smoothly between a pure
power-of-two ladder (a=0) and a nearly uniform ladder (large a), so one
decoder covers a family of numeric types.  This module builds those grids,
generates the reference curves of the classic data types (INT, PoT,
NormalFloat, 4-bit float), and fits the coefficient that best approximates
a given curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_COEFFICIENT = 127
GRID_POINTS = 8

# Epsilon used when sampling Gaussian quantiles for the NormalFloat curve.
# Keeps the top quantile away from p=1 where the probit diverges; this value
# makes the fitted coefficient land on 25, the canonical NormalFloat fit.
DEFAULT_NF_EPSILON = 0.055

CURVE_KINDS = ("int", "pot", "nf", "float")

# Positive magnitudes of a 4-bit float (1 sign, 2 exponent, 1 mantissa bit,
# exponent bias 1, subnormal at e=0): {0, 0.5, 1, 1.5, 2, 3, 4, 6}.
_FLOAT4_MAGNITUDES = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])


@dataclass(frozen=True)
class MantGrid:
    """The 8 positive grid magnitudes for one coefficient.

    ``magnitudes[i] == coefficient_a * i + 2**i`` for i in 0..7.  Note that
    the smallest magnitude is 1 for every coefficient: exact zero is not
    representable before scaling.
    """

    coefficient_a: int
    magnitudes: tuple[int, ...]

    @property
    def max_magnitude(self) -> int:
        return self.magnitudes[-1]


@dataclass(frozen=True)
class ReferenceCurve:
    """Normalized positive magnitudes of a reference data type.

    ``points`` holds 8 non-decreasing values with ``points[7] == 1``.
    ``epsilon`` is only meaningful for the NormalFloat curve.
    """

    kind: str
    points: np.ndarray
    epsilon: float | None = None


def as_integer(value, name: str, low: int, high: int | None = None):
    """The package's one integer rule: ``value`` as an int if it is an integer
    in ``low..high`` (``high`` None: unbounded), else ValueError naming
    ``name``.  An integral float counts (``64.0`` is 64); a boolean, fraction,
    NaN, inf, list or string does not.  A numeric ndarray, checked in
    whole-array operations, comes back as an intp array."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) \
            or isinstance(value, (float, np.floating)) and value.is_integer():
        if low <= value and (high is None or value <= high):
            return int(value)
    elif isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        bad = value < low
        if high is not None:
            bad |= value > high
        if value.dtype.kind == "f":
            bad |= (np.floor(value) != value) | np.isinf(value)
        if not bad.any():
            return value.astype(np.intp)
        value = value[bad][0].item()
    span = f">= {low}" if high is None else f"in {low}..{high}"
    raise ValueError(f"{name} must be an integer {span}, got {value!r}")


def as_number(value, name: str) -> float:
    """The package's one number rule: ``value`` as a float if it is a real
    number (NaN and inf are, for the caller's range check) and not a boolean."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


def build_grid(a: int) -> MantGrid:
    """Build the quantization grid for coefficient ``a``, an integer in
    0..127 (the coefficient is stored in a byte and larger values barely
    change the normalized shape)."""
    a = as_integer(a, "coefficient", 0, MAX_COEFFICIENT)
    mags = tuple(a * i + (1 << i) for i in range(GRID_POINTS))
    return MantGrid(coefficient_a=a, magnitudes=mags)


def probit(p: float) -> float:
    """Inverse standard normal CDF (the standard library's ``inv_cdf``)."""
    p = as_number(p, "probit argument")
    if not 0.0 < p < 1.0:   # NaN fails too: inv_cdf would return NaN for it
        raise ValueError(f"probit domain is (0, 1), got {p!r}")
    # imported here: statistics loads decimal and fractions, about 2 MiB of
    # peak RSS in a process that fits no curve (the kv-decode benchmark's)
    from statistics import NormalDist
    return NormalDist().inv_cdf(p)


def reference_curve(kind: str, epsilon: float | None = None) -> ReferenceCurve:
    """Build the normalized 8-point magnitude curve of a reference data type.

    kind "int":   i/7
    kind "pot":   2**i / 128
    kind "nf":    probit(i*(1-eps)*0.5/7 + 0.5), normalized by its i=7 value
    kind "float": 4-bit float magnitudes {0,.5,1,1.5,2,3,4,6} normalized to 1

    ``epsilon`` applies to the NormalFloat curve only and must lie in
    (0, 0.2); it defaults to DEFAULT_NF_EPSILON.
    """
    kind = kind.lower()
    i = np.arange(GRID_POINTS, dtype=np.float64)
    if kind == "int":
        return ReferenceCurve("int", i / 7.0)
    if kind == "pot":
        return ReferenceCurve("pot", 2.0 ** i / 128.0)
    if kind == "float":
        return ReferenceCurve("float", _FLOAT4_MAGNITUDES / _FLOAT4_MAGNITUDES[-1])
    if kind == "nf":
        eps = DEFAULT_NF_EPSILON if epsilon is None else as_number(epsilon, "nf epsilon")
        if not 0.0 < eps < 0.2:
            raise ValueError(f"nf epsilon must be in (0, 0.2), got {eps}")
        quantiles = i * (1.0 - eps) * 0.5 / 7.0 + 0.5
        points = np.array([probit(p) for p in quantiles])
        return ReferenceCurve("nf", points / points[-1], epsilon=eps)
    raise ValueError(f"unknown curve kind {kind!r}, expected one of {CURVE_KINDS}")


def normalized_grid_curve(a: int) -> np.ndarray:
    """Grid magnitudes of coefficient ``a`` scaled so the top point is 1."""
    grid = build_grid(a)
    mags = np.array(grid.magnitudes, dtype=np.float64)
    return mags / grid.max_magnitude


def approximation_error(points: np.ndarray, a: int, metric: str = "mae") -> float:
    """Aggregate error between a normalized curve and the grid of ``a``.

    "mae" averages the per-point absolute differences, "mse" the squared
    ones.  Both compare curves normalized to a shared maximum of 1.
    """
    diff = np.abs(normalized_grid_curve(a) - np.asarray(points, dtype=np.float64))
    if metric == "mae":
        return float(diff.mean())
    if metric == "mse":
        return float((diff ** 2).mean())
    raise ValueError(f"unknown metric {metric!r}")


def fit_coefficient(curve: ReferenceCurve, metric: str = "mae") -> int:
    """Exhaustively search a in 0..127 for the best approximation of ``curve``.

    Returns the coefficient minimizing ``approximation_error``; ties break
    toward the smaller coefficient, so the result is deterministic.
    """
    best_a = 0
    best_err = math.inf
    for a in range(MAX_COEFFICIENT + 1):
        err = approximation_error(curve.points, a, metric)
        if err < best_err:
            best_a = a
            best_err = err
    return best_a
