"""Grid construction, probit accuracy, reference curves, coefficient fits."""

import math

import mpmath
import numpy as np
import pytest

from mant.grid import (
    DEFAULT_NF_EPSILON,
    approximation_error,
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

    @pytest.mark.parametrize("bad", [128, -1, 1000, True])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            build_grid(bad)

    def test_non_integer(self):
        with pytest.raises(ValueError):
            build_grid(17.5)

    def test_strictly_increasing_all_coefficients(self):
        for a in range(128):
            mags = build_grid(a).magnitudes
            assert mags[0] == 1
            assert all(m2 > m1 for m1, m2 in zip(mags, mags[1:]))
            assert mags[7] == 7 * a + 128


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
