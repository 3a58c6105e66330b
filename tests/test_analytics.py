"""Frozen-value and behavioral tests for the closed-form layer.

The long decimal constants are oracle values computed from the closed forms
at well-understood limits and frozen here to guard against regressions.
"""

import math

import pytest

from nlrouter.analytics import (
    find_optimal_phase,
    fit_scaling_exponent,
    log_grid,
    p_bell_measurement,
    p_cnot,
    p_evl_bell_measurement,
    p_factorization,
    p_ghz,
)

PI = math.pi
EXACT = 1e-12


class TestLinearBaselines:
    # no conditional phase: the protocols reduce to their linear-optics rates
    def test_bell_measurement(self):
        assert abs(p_bell_measurement(0.0) - 0.5) < EXACT

    def test_ancilla_assisted(self):
        assert abs(p_evl_bell_measurement(0.0) - 0.75) < EXACT

    def test_ghz(self):
        assert abs(p_ghz(0.0) - 0.5) < EXACT

    def test_cnot(self):
        assert abs(p_cnot(0.0) - 1.0 / 32.0) < EXACT

    def test_factorization(self):
        assert abs(p_factorization(0.0) - 1.0 / 1024.0) < EXACT


class TestStrongNonlinearityLimit:
    def test_all_protocols_deterministic(self):
        for f in (p_bell_measurement, p_evl_bell_measurement, p_ghz, p_cnot):
            assert abs(f(PI) - 1.0) < EXACT


class TestFrozenValues:
    def test_lossless_working_point(self):
        assert abs(p_bell_measurement(PI / 3) - 0.71875) < EXACT
        assert abs(p_evl_bell_measurement(PI / 3) - 0.859375) < EXACT
        assert abs(p_ghz(PI / 3) - 0.53125) < EXACT
        assert abs(p_cnot(PI / 3) - 0.104792803525925) < 1e-14
        assert abs(p_factorization(PI / 3) - 0.0109815316708231) < 1e-14

    def test_lossy_working_point(self):
        assert abs(p_bell_measurement(PI / 3, 30.0) - 0.697711904686265) < 1e-14
        assert abs(p_bell_measurement(PI / 3, 30.0, 0.98) - 0.670082513260689) < 1e-14
        assert abs(p_evl_bell_measurement(PI / 3, 30.0, 0.98) - 0.767202409495216) < 1e-14
        assert abs(p_ghz(PI / 3, 30.0) - 0.535833929690738) < 1e-14
        assert abs(p_ghz(PI / 3, 30.0, 0.98) - 0.525117251096924) < 1e-14

    def test_detuned_working_point(self):
        assert abs(p_bell_measurement(PI / 3, 30.0, 0.98, -PI / 33) - 0.671880371880849) < 1e-14
        assert abs(p_ghz(PI / 3, 30.0, 0.98, -PI / 33) - 0.523033865732031) < 1e-14

    def test_detuning_reduces_to_resonant_at_zero(self):
        assert p_bell_measurement(1.1, 50.0, 0.9, 0.0) == p_bell_measurement(1.1, 50.0, 0.9)
        assert p_ghz(1.1, 50.0, 0.9, 0.0) == p_ghz(1.1, 50.0, 0.9)


class TestOptimalPhase:
    def test_finite_depth_optimum_below_pi(self):
        for od in (30.0, 100.0, 1000.0):
            r = find_optimal_phase("ghz", od)
            assert r.phi_opt < PI

    def test_optimum_approaches_pi_monotonically(self):
        phis = [find_optimal_phase("bell_measurement", od).phi_opt for od in (30.0, 100.0, 300.0, 1000.0)]
        assert phis == sorted(phis)

    def test_frozen_optimum(self):
        r = find_optimal_phase("ghz", 30.0)
        assert abs(r.phi_opt - 2.76414152713684) < 1e-7
        assert abs(r.p_opt - 0.799652473459694) < 1e-12

    def test_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            find_optimal_phase("nope", 30.0)


class TestScalingFits:
    def test_failure_probability_exponents(self):
        bm = fit_scaling_exponent("bell_measurement")
        ghz = fit_scaling_exponent("ghz")
        # golden values frozen at first derivation
        assert abs(bm.exponent - (-0.897870710093957)) < 1e-6
        assert abs(ghz.exponent - (-0.932393902230157)) < 1e-6

    def test_single_point_grid_is_refused(self):
        with pytest.raises(ValueError, match="n_points must be >= 2"):
            fit_scaling_exponent("ghz", n_points=1)

    @pytest.mark.parametrize("start, stop, n", [(60.0, 2000.0, 20), (2000.0, 60.0, 7), (1e-3, 7.5, 2), (15.0, 300.0, 4096)])
    def test_log_grid_starts_and_stops_on_its_bounds(self, start, stop, n):
        # 60 * (2000 / 60) ** 1.0 is 2000.0000000000002: the last point is stop itself
        grid = log_grid(start, stop, n)
        assert len(grid) == n
        assert grid[0] == start and grid[-1] == stop
        assert grid == sorted(grid, reverse=start > stop)
