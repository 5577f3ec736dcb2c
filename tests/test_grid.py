"""Grid construction, probit accuracy, reference curves, coefficient fits."""

import inspect
import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest

from mant import grid
from mant.grid import (
    DEFAULT_NF_EPSILON,
    approximation_error,
    as_integer,
    as_number,
    build_grid,
    fit_coefficient,
    normalized_grid_curve,
    probit,
    reference_curve,
)

mpmath.mp.dps = 50


def probit_oracle(p: float) -> float:
    """High-precision inverse normal CDF via mpmath's erfinv.

    mpmath.mpf(p) converts the binary double exactly, so the oracle
    evaluates the same input the implementation sees.
    """
    return float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))


def cdf_oracle(x: float) -> float:
    return float(mpmath.ncdf(x))


class TestBuildGrid:
    def test_pot_identity(self):
        grid = build_grid(0)
        assert grid.magnitudes == (1, 2, 4, 8, 16, 32, 64, 128)
        assert grid.max_magnitude == 128

    def test_a17(self):
        grid = build_grid(17)
        assert grid.magnitudes == (1, 19, 38, 59, 84, 117, 166, 247)
        assert grid.max_magnitude == 247

    @pytest.mark.parametrize("bad", [128, -1, 1000, True, np.True_, np.nan, "17", 127.5])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            build_grid(bad)

    def test_non_integer(self):
        with pytest.raises(ValueError):
            build_grid(17.5)

    def test_integral_float_is_its_integer(self):
        assert build_grid(17.0) == build_grid(np.int8(17)) == build_grid(17)
        assert type(build_grid(17.0).coefficient_a) is int

    def test_strictly_increasing_all_coefficients(self):
        for a in range(128):
            mags = build_grid(a).magnitudes
            assert mags[0] == 1
            assert all(m2 > m1 for m1, m2 in zip(mags, mags[1:]))
            assert mags[7] == 7 * a + 128


class TestInputRules:
    """The one integer rule and the one number rule every entry point calls."""

    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.uint8(3), np.float32(3.0)])
    def test_integers_become_ints(self, value):
        assert as_integer(value, "n", 0, 5) == 3 and type(as_integer(value, "n", 0, 5)) is int

    @pytest.mark.parametrize("value", [True, np.True_, 2.5, np.nan, np.inf, "3", None, [3], 6, -1])
    def test_everything_else_is_refused(self, value):
        with pytest.raises(ValueError, match=r"n must be an integer in 0\.\.5, got "):
            as_integer(value, "n", 0, 5)

    def test_no_upper_bound(self):
        assert as_integer(2 ** 70, "n", 1) == 2 ** 70
        with pytest.raises(ValueError, match="n must be an integer >= 1, got 0"):
            as_integer(0, "n", 1)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64, np.float64])
    def test_arrays_become_intp_arrays(self, dtype):
        out = as_integer(np.array([[0, 5], [3, 1]], dtype=dtype), "n", 0, 5)
        assert out.dtype == np.intp and out.tolist() == [[0, 5], [3, 1]]

    @pytest.mark.parametrize("array,shown", [
        (np.array([1, 6, 7]), "6"), (np.array([0.0, 2.5]), "2.5"), (np.array([np.inf]), "inf"),
        (np.array([True]), "array"), (np.array(["1"]), "array")])
    def test_arrays_name_the_first_bad_element(self, array, shown):
        with pytest.raises(ValueError, match=f"got {shown}"):
            as_integer(array, "n", 0, 5)

    @pytest.mark.parametrize("value", [True, np.False_, "1.0", None, [1.0]])
    def test_numbers_refuse_booleans_and_strings(self, value):
        with pytest.raises(ValueError, match="x must be a number"):
            as_number(value, "x")

    def test_numbers_become_floats(self):
        assert [as_number(v, "x") for v in (2, np.float32(0.5), np.int8(-1))] == [2.0, 0.5, -1.0]
        assert math.isnan(as_number(math.nan, "x"))

    def test_only_the_two_rules_test_for_booleans(self):
        # a boolean test outside them is a second integer or number rule
        rules = [inspect.getsourcelines(rule) for rule in (as_integer, as_number)]
        allowed = {("grid.py", start + i) for lines, start in rules for i in range(len(lines))}
        found = {(path.name, n) for path in sorted(Path(grid.__file__).parent.glob("*.py"))
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if re.search(r"isinstance\(.*bool", line)}
        assert found and found <= allowed, sorted(found - allowed)


class TestProbit:
    def test_center(self):
        assert probit(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self):
        assert probit(0.975) == pytest.approx(1.959964, abs=1e-6)
        assert abs(probit(0.975) - probit_oracle(0.975)) < 1e-9

    def test_deep_tail_finite(self):
        x = probit(1e-12)
        assert math.isfinite(x)
        assert x < -6.0

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.25, 1.75, float("nan")])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            probit(bad)

    def test_accuracy_grid(self):
        ps = [1e-10, 1e-6, 1e-3, 0.01, 0.02425, 0.1, 0.3, 0.5, 0.7, 0.9,
              0.975, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9]
        for p in ps:
            assert abs(probit(p) - probit_oracle(p)) < 1e-9, p

    def test_cdf_round_trip(self):
        for x in np.linspace(-6.0, 6.0, 61):
            p = cdf_oracle(float(x))
            assert abs(probit(p) - x) < 1e-8, x


class TestReferenceCurve:
    def test_int_curve(self):
        curve = reference_curve("int")
        assert np.allclose(curve.points, np.arange(8) / 7.0)
        assert curve.points[7] == 1.0

    def test_pot_curve(self):
        curve = reference_curve("pot")
        assert np.array_equal(curve.points, 2.0 ** np.arange(8) / 128.0)

    def test_nf_curve_shape(self):
        curve = reference_curve("nf", 0.03)
        assert curve.points[0] == 0.0  # probit(0.5) is exactly zero
        assert curve.points[7] == 1.0
        assert np.all(np.diff(curve.points) > 0)
        assert curve.epsilon == 0.03

    def test_nf_matches_probit(self):
        eps = DEFAULT_NF_EPSILON
        curve = reference_curve("nf")
        raw = [probit_oracle(i * (1 - eps) * 0.5 / 7 + 0.5) for i in range(8)]
        assert np.allclose(curve.points, np.array(raw) / raw[7], atol=1e-9)

    def test_float_curve(self):
        curve = reference_curve("float")
        assert np.allclose(curve.points, np.array([0, 0.5, 1, 1.5, 2, 3, 4, 6]) / 6.0)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            reference_curve("posit")

    @pytest.mark.parametrize("eps", [0.0, 0.2, -0.1, 0.5])
    def test_bad_epsilon(self, eps):
        with pytest.raises(ValueError):
            reference_curve("nf", eps)


class TestFitCoefficient:
    def test_pot_fits_zero(self):
        assert fit_coefficient(reference_curve("pot")) == 0

    def test_nf_fit_window(self):
        a = fit_coefficient(reference_curve("nf"))
        assert 22 <= a <= 28
        assert a == 25

    def test_float_fit_window(self):
        a = fit_coefficient(reference_curve("float"))
        assert 14 <= a <= 20

    @pytest.mark.parametrize("kind", ["int", "pot", "nf", "float"])
    @pytest.mark.parametrize("metric", ["mae", "mse"])
    def test_exact_argmin(self, kind, metric):
        curve = reference_curve(kind)
        best = fit_coefficient(curve, metric)
        best_err = approximation_error(curve.points, best, metric)
        for a in range(128):
            assert approximation_error(curve.points, a, metric) >= best_err

    def test_tie_break_smaller(self):
        # a curve equal to some grid is matched by that coefficient alone;
        # verify the argmin scan prefers the first (smallest) minimizer
        curve = reference_curve("pot")
        errs = [approximation_error(curve.points, a) for a in range(128)]
        assert fit_coefficient(curve) == int(np.argmin(errs))

    def test_bad_metric(self):
        with pytest.raises(ValueError):
            approximation_error(reference_curve("int").points, 3, "huber")


def test_normalized_curve_monotone_in_a():
    # interior points of the normalized grid move monotonically with a
    sweep = np.stack([normalized_grid_curve(a) for a in range(128)])
    for i in range(1, 7):
        diffs = np.diff(sweep[:, i])
        assert np.all(diffs > 0) or np.all(diffs < 0), i
