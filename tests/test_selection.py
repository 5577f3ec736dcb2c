"""Coefficient selection: offline MSE search and the variance table."""

import json

import numpy as np
import pytest

from mant.codec import INT4_COEFF
from mant.grid import build_grid
from mant.kvcache import KvCache
from mant.selection import (
    SEARCH_TILE_ROWS,
    CalibrationConfig,
    CandidateSet,
    VarianceTable,
    build_variance_table,
    midpoint_probes,
    normalized_variance,
    reconstruction,
    select_by_variance,
    select_weight_coefficient,
    table_from_probe_means,
    variance_from_sums,
    weight_space_error,
)


class TestCandidateSet:
    def test_default_has_sixteen_options(self):
        cands = CandidateSet()
        assert len(cands.coefficients) == 15
        assert len(cands.options) == 16
        assert cands.options[-1] == INT4_COEFF

    def test_validation(self):
        with pytest.raises(ValueError):
            CandidateSet(())
        with pytest.raises(ValueError):
            CandidateSet((5, 5, 10))
        with pytest.raises(ValueError):
            CandidateSet((10, 5))
        with pytest.raises(ValueError):
            CandidateSet((0, 130))
        # a fraction or a bool is refused, not truncated to an integer
        for coeffs in ((0, 40.7), (0, 40.0), (True, 40), (0, "40")):
            with pytest.raises(ValueError, match="integer"):
                CandidateSet(coeffs)
        assert CandidateSet((np.int64(0), 40)).coefficients == (0, 40)


class TestSelectWeightCoefficient:
    def test_on_grid_group_selects_generator(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 64))
        raw = rng.standard_normal(64)
        on_grid = reconstruction(raw, 0)
        assert select_weight_coefficient(on_grid, x, CandidateSet()) == 0
        assert weight_space_error(on_grid, 0) == 0.0

    def test_optimality_against_independent_evaluation(self):
        rng = np.random.default_rng(1)
        cands = CandidateSet()
        for _ in range(50):
            w = rng.standard_normal(64)
            x = rng.standard_normal((8, 64))
            chosen = select_weight_coefficient(w, x, cands)
            errors = {}
            for a in cands.options:
                delta = reconstruction(w, a) - w
                errors[a] = float(np.sum((x @ delta) ** 2))
            assert errors[chosen] == min(errors.values())

    def test_gaussian_clusters_midrange(self):
        # statistical assertion, frozen after Monte-Carlo calibration:
        # Gaussian groups concentrate around the NormalFloat-like region
        rng = np.random.default_rng(42)
        cands = CandidateSet()
        picks = [select_weight_coefficient(rng.standard_normal(64),
                                           rng.standard_normal((16, 64)), cands)
                 for _ in range(200)]
        mant_picks = [p for p in picks if p != INT4_COEFF]
        values, counts = np.unique(mant_picks, return_counts=True)
        mode = int(values[np.argmax(counts)])
        assert 17 <= mode <= 50
        assert 20 <= np.median(mant_picks) <= 60
        extremes = sum(1 for p in picks if p in (0, 120, INT4_COEFF))
        assert extremes / len(picks) < 0.2

    def test_calibration_shape_check(self):
        with pytest.raises(ValueError):
            select_weight_coefficient(np.zeros(64), np.zeros((4, 32)), CandidateSet())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_calibration_rejected(self, bad):
        # a NaN makes every error NaN, and the first option would win
        rng = np.random.default_rng(3)
        x_calib = rng.standard_normal((8, 64))
        x_calib[5, 17] = bad
        for w in (rng.standard_normal(64), rng.standard_normal((3, 64))):
            with pytest.raises(ValueError, match="non-finite"):
                select_weight_coefficient(w, x_calib, CandidateSet())

    @pytest.mark.parametrize("groups", [(64,), (3, 64)])
    def test_empty_calibration_set(self, groups):
        # with no rows every candidate's error is 0, and the tie would pick a=0
        w = np.random.default_rng(2).standard_normal(groups)
        with pytest.raises(ValueError, match="no rows"):
            select_weight_coefficient(w, np.zeros((0, 64)), CandidateSet())


def per_option_scan(w, x, candidates):
    """The search one option at a time: an encode, a decode and a stack of
    gemvs per option (the reference for the stacked search)."""
    options = candidates.options
    errs = np.empty((len(options),) + w.shape[:-1])
    for i, a in enumerate(options):
        delta = reconstruction(w, a) - w
        errs[i] = np.sum(np.matmul(x, delta[..., None])[..., 0] ** 2, axis=-1)
    best = np.argmin(np.where(np.isnan(errs), np.inf, errs), axis=0)
    return np.asarray(options)[best]


def mixed_groups(rng, n, length):
    """``n`` groups that cycle through Gaussian, Laplace, uniform, spiked (two
    spikes of 3 to 6 over a 0.3-wide Gaussian), all-zero and constant, at
    scales from 0.01 to 100."""
    def spiked():
        g = 0.3 * rng.standard_normal(length)
        at = rng.choice(length, min(2, length), replace=False)
        g[at] = rng.choice([-1.0, 1.0], at.size) * rng.uniform(3.0, 6.0, at.size)
        return g
    kinds = (lambda: rng.standard_normal(length), lambda: rng.laplace(size=length),
             lambda: rng.uniform(-1.0, 1.0, length), spiked, lambda: np.zeros(length),
             lambda: np.full(length, rng.uniform(-2.0, 2.0)))
    return np.array([kinds[i % len(kinds)]() * 10.0 ** rng.uniform(-2, 2) for i in range(n)])


class TestStackedSearch:
    @pytest.mark.parametrize("length", [64, 1, 32, 48])
    @pytest.mark.parametrize("candidates", [CandidateSet(), CandidateSet(include_int=False),
                                            CandidateSet((10, 40, 90)),
                                            CandidateSet((0, 17, 120), include_int=False)],
                             ids=["default", "no-int", "subset-int", "subset-no-int"])
    def test_matches_per_option_scan(self, length, candidates):
        rng = np.random.default_rng(length)
        x_calib = rng.standard_normal((16, length)) * np.exp(rng.uniform(-1.6, 1.6, length))
        for n in (1, SEARCH_TILE_ROWS - 1, SEARCH_TILE_ROWS, SEARCH_TILE_ROWS + 1,
                  3 * SEARCH_TILE_ROWS):
            w = mixed_groups(rng, n, length)
            picks = select_weight_coefficient(w, x_calib, candidates)
            assert picks.shape == (n,)
            np.testing.assert_array_equal(picks, per_option_scan(w, x_calib, candidates))
        w = mixed_groups(rng, 1, length)[0]
        assert select_weight_coefficient(w, x_calib, candidates) == \
            per_option_scan(w, x_calib, candidates)


class TestNormalizedVariance:
    def test_alternating_signs(self):
        assert normalized_variance(np.array([1.0, -1.0, 1.0, -1.0])) == 1.0

    def test_constant_group(self):
        assert normalized_variance(np.full(16, 3.7)) == 0.0

    def test_all_zero(self):
        assert normalized_variance(np.zeros(8)) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal(64)
        v = normalized_variance(g)
        for c in (1e-6, 0.5, 3.0, 1e6):
            assert abs(normalized_variance(g * c) - v) < 1e-12

    def test_streaming_matches_two_pass(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal(64) * 100
        streaming = variance_from_sums(float(g.sum()), float((g * g).sum()),
                                       g.size, float(np.max(np.abs(g))))
        assert abs(streaming - normalized_variance(g)) < 1e-9


def near_one_groups():
    """Groups whose variance cancels in ``E[x^2] - E[x]^2``: a squared mean
    that rounds differently changes it.  The C library's ``pow`` and a
    multiply disagree on about 1 in 2,000 of these means."""
    rng = np.random.default_rng(4)
    groups = 1.0 + 1e-3 * rng.standard_normal((20000, 8))
    return groups, groups.sum(axis=1), (groups * groups).sum(axis=1), np.abs(groups).max(axis=1)


class TestOneVarianceFormula:
    def test_two_pass_is_the_sums_formula(self):
        groups, total, total_sq, absmax = near_one_groups()
        streaming = variance_from_sums(total, total_sq, 8, absmax)
        assert normalized_variance(groups).tobytes() == streaming.tobytes()

    def test_keys_and_select_by_variance_agree_at_a_boundary(self):
        # a boundary at the larger of the two roundings of a group's
        # variance separates them; keys choose from group sums and must
        # land on the side select_by_variance does
        groups, total, total_sq, absmax = near_one_groups()
        mean = total / 8
        by_pow = (total_sq / 8 - np.float_power(mean, 2)) / (absmax * absmax)
        by_mul = (total_sq / 8 - mean * mean) / (absmax * absmax)
        g = int(np.argmax(by_pow != by_mul))   # group 0 where the two always agree
        boundary = max(by_pow[g], by_mul[g])
        table = VarianceTable(((10, 0.0, boundary), (40, boundary, 1.0)))
        cache = KvCache(1, 8, table, table, group_size=8)
        cache.append_k(groups[g][None])
        assert cache.k_arrays()[2][0, 0, 0] == select_by_variance(groups[g], table)


class TestVarianceTable:
    def test_paper_boundary_reproduction(self):
        # probe means pinned at the half-step coefficients 35 and 45 define
        # the middle candidate's range exactly
        table = table_from_probe_means((30, 40, 50), [0.104, 0.118])
        assert table.range_of(40) == (0.104, 0.118)
        assert table.range_of(30) == (0.0, 0.104)
        assert table.range_of(50) == (0.118, 1.0)

    def test_single_candidate(self):
        table = build_variance_table(np.random.default_rng(4).standard_normal((32, 16)),
                                     CandidateSet((40,), include_int=False))
        assert table.entries == ((40, 0.0, 1.0),)

    def test_midpoint_probes(self):
        assert midpoint_probes((30, 40, 50)) == (35, 45)
        assert midpoint_probes(CandidateSet().coefficients)[:4] == (2, 7, 13, 18)

    def test_lookup_totality(self):
        table = table_from_probe_means((10, 40, 90), [0.3, 0.6])
        for v in np.linspace(0.0, 1.0, 1001):
            assert table.lookup(float(v)) in (10, 40, 90)
        assert table.lookup(0.0) == 10
        assert table.lookup(1.0) == 90
        assert table.lookup(0.3) == 40  # half-open ranges

    def test_variance_in_window_selects_middle(self):
        table = table_from_probe_means((30, 40, 50), [0.104, 0.118])
        rng = np.random.default_rng(5)
        found = 0
        while found < 10:
            g = rng.standard_normal(64)
            if 0.104 <= normalized_variance(g) < 0.118:
                assert select_by_variance(g, table) == 40
                found += 1

    def test_grid_sampled_variance_ascends_with_a(self):
        # groups drawn uniformly from each candidate's own grid: the mean
        # normalized variance grows with the coefficient
        rng = np.random.default_rng(6)
        means = []
        for a in (0, 17, 40, 80, 120):
            grid = np.array(build_grid(a).magnitudes, dtype=np.float64)
            vs = []
            for _ in range(100):
                mags = rng.integers(0, 8, 64)
                signs = rng.choice([-1.0, 1.0], 64)
                vs.append(normalized_variance(signs * grid[mags]))
            means.append(np.mean(vs))
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_built_table_ranges_ascend(self):
        # calibration spanning the variance spectrum gives ordered ranges
        rng = np.random.default_rng(7)
        groups = []
        for a in (0, 10, 20, 40, 60, 90, 120):
            grid = np.array(build_grid(a).magnitudes, dtype=np.float64)
            for _ in range(60):
                mags = rng.integers(0, 8, 64)
                signs = rng.choice([-1.0, 1.0], 64)
                noise = rng.standard_normal(64) * 0.02 * grid[-1]
                groups.append(signs * grid[mags] + noise)
        table = build_variance_table(np.array(groups), CandidateSet(include_int=False))
        los = [lo for _, lo, _ in table.entries]
        his = [hi for _, _, hi in table.entries]
        assert los == sorted(los) and his == sorted(his)
        midpoints = [(lo + hi) / 2 for _, lo, hi in table.entries]
        assert midpoints == sorted(midpoints)

    def test_select_by_variance_edges(self):
        table = table_from_probe_means((10, 40, 90), [0.3, 0.6])
        assert select_by_variance(np.array([1.0, -1.0, 1.0, -1.0]), table) == 90
        assert select_by_variance(np.full(8, 2.0), table) == 10
        assert select_by_variance(np.zeros(8), table) == 10

    def test_select_by_variance_scale_invariant(self):
        table = table_from_probe_means((10, 40, 90), [0.3, 0.6])
        rng = np.random.default_rng(8)
        for _ in range(20):
            g = rng.standard_normal(64)
            chosen = select_by_variance(g, table)
            for c in (1e-4, 0.1, 7.0, 1e5):
                assert select_by_variance(g * c, table) == chosen

    def test_json_round_trip(self):
        table = table_from_probe_means((30, 40, 50), [0.104, 0.118])
        assert VarianceTable.from_json(table.to_json()) == table

    def test_invariant_violations(self):
        with pytest.raises(ValueError):
            VarianceTable(((40, 0.0, 0.5), (30, 0.5, 1.0)))  # unordered coefficients
        with pytest.raises(ValueError):
            VarianceTable(((30, 0.0, 0.5), (40, 0.6, 1.0)))  # gap
        with pytest.raises(ValueError):
            VarianceTable(((30, 0.0, 0.5), (40, 0.5, 0.9)))  # does not reach 1
        with pytest.raises(ValueError):
            VarianceTable(())

    @pytest.mark.parametrize("a", [-1, 129, 256, 300, 40.7, 40.0, True, "40", None])
    def test_coefficient_must_be_an_integer_in_range(self, a):
        # a group's coefficient is stored as uint8: 300 would wrap to 44, 256 to 0
        with pytest.raises(ValueError, match="integer in 0..128"):
            VarianceTable(((5, 0.0, 0.5), (a, 0.5, 1.0)))
        with pytest.raises(ValueError, match="integer in 0..128"):
            VarianceTable.from_json(json.dumps([{"a": a, "lo": 0.0, "hi": 1.0}]))

    @pytest.mark.parametrize("lo,hi", [("0", 1.0), (0.0, "1"), (False, 1.0), (0.0, True),
                                       (None, 1.0), (0.0, [1.0])])
    def test_range_bounds_must_be_numbers(self, lo, hi):
        # float("0.5") and float(True) once loaded such tables as numbers
        with pytest.raises(ValueError, match="objects with numbers"):
            VarianceTable.from_json(json.dumps([{"a": 40, "lo": lo, "hi": hi}]))

    def test_integer_range_bounds_accepted(self):
        assert VarianceTable.from_json('[{"a": 40, "lo": 0, "hi": 1}]').entries == ((40, 0.0, 1.0),)

    def test_int4_and_numpy_coefficients_accepted(self):
        assert VarianceTable(((np.int64(5), 0.0, 0.5), (INT4_COEFF, 0.5, 1.0))).lookup(0.7) \
            == INT4_COEFF

    def test_insufficient_calibration(self):
        with pytest.raises(ValueError):
            build_variance_table(np.zeros((4, 16)), CandidateSet(include_int=False))

    def test_probe_mean_count_check(self):
        with pytest.raises(ValueError):
            table_from_probe_means((30, 40, 50), [0.1])

    def test_fractional_coefficients_refused(self):
        # int(a) once built both tables for a=40
        groups = np.random.default_rng(4).standard_normal((32, 16))
        with pytest.raises(ValueError, match="integer"):
            build_variance_table(groups, (0, 40.7, 90))
        with pytest.raises(ValueError, match="integer"):
            table_from_probe_means((0, 40.9), [0.1])


class TestCalibrationConfig:
    def test_json_round_trip(self):
        cfg = CalibrationConfig(coefficients=(0, 40, 120), min_groups=16)
        again = CalibrationConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.candidate_set().coefficients == (0, 40, 120)

    @pytest.mark.parametrize("fields", [{"coefficients": (0, 40.7)},
                                        {"coefficients": (0, True)},
                                        {"min_groups": 8.9}, {"min_groups": True}])
    def test_non_integers_refused(self, fields):
        # CalibrationConfig((0, 40.7), 8.9) once meant coefficients (0, 40) and 8 groups
        with pytest.raises(ValueError, match="integer"):
            CalibrationConfig(**fields)

    def test_defaults(self):
        cfg = CalibrationConfig.from_json("{}")
        assert len(cfg.coefficients) == 15
