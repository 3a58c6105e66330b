"""Frozen-value and behavioral tests for the closed-form layer.

The long decimal constants are oracle values computed from the closed forms
at well-understood limits and frozen here to guard against regressions.
"""

import hashlib
import math
import random

import pytest

from nlrouter import analytics
from nlrouter.analytics import (
    find_optimal_phase,
    fit_scaling_exponent,
    log_grid,
    p_bell_measurement,
    p_cnot,
    p_evl_bell_measurement,
    p_factorization,
    p_ghz,
    p_router,
)
from nlrouter.cli import main

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

    def test_nan_optical_depth_is_refused(self):
        # it used to return phi_opt 3.1e-4
        with pytest.raises(ValueError, match="od_b must be positive"):
            find_optimal_phase("ghz", math.nan)


class TestNanInputs:
    @pytest.mark.parametrize("f", [p_bell_measurement, p_evl_bell_measurement, p_ghz, p_cnot, p_factorization, p_router])
    @pytest.mark.parametrize("phi, od_b", [(math.nan, math.inf), (math.nan, 30.0), (1.0, math.nan)])
    def test_every_closed_form_refuses_nan(self, f, phi, od_b):
        with pytest.raises(ValueError):
            f(phi, od_b)

    @pytest.mark.parametrize("f", [p_bell_measurement, p_ghz, p_cnot])
    def test_nan_detuning_is_refused(self, f):
        with pytest.raises(ValueError, match="phi must not be NaN"):
            f(1.0, 30.0, 0.9, math.nan)


class TestDetectionEfficiencyRange:
    # p_bell_measurement(1.0, 30.0, 1.5) used to return 1.542 and p_ghz(1.0, 30.0, -2) -1.06
    @pytest.mark.parametrize("f", [p_bell_measurement, p_evl_bell_measurement, p_ghz, p_cnot, p_factorization])
    @pytest.mark.parametrize("p_de", [1.5, -2.0, math.nan, math.inf, 1.0000000000000002, -1e-300])
    def test_every_closed_form_refuses_p_de_outside_the_unit_interval(self, f, p_de):
        with pytest.raises(ValueError, match=r"p_de must lie in \[0, 1\]"):
            f(1.0, 30.0, p_de)

    @pytest.mark.parametrize("protocol", ["bell_measurement", "evl_bell_measurement", "ghz"])
    def test_the_optimiser_refuses_a_nan_p_de(self, protocol):
        with pytest.raises(ValueError, match=r"p_de must lie in \[0, 1\]"):
            find_optimal_phase(protocol, 30.0, math.nan)

    @pytest.mark.parametrize("f", [p_bell_measurement, p_evl_bell_measurement, p_ghz, p_cnot, p_factorization])
    def test_the_interval_ends_are_accepted(self, f):
        assert f(1.0, 30.0, 0.0) == 0.0
        assert f(1.0, 30.0, 1.0) == f(1.0, 30.0)


class TestComposedProtocols:
    def test_cnot_and_factorization_equal_their_parts_bit_for_bit(self):
        # p_cnot evaluates the router's terms once and reuses them for its five parts
        rng = random.Random(20261020)
        for _ in range(2000):
            od_b = rng.choice((math.inf, rng.uniform(15.0, 3000.0)))
            phi = rng.uniform(0.0, PI)
            phi1 = rng.choice((0.0, -0.0, -phi * rng.uniform(0.0, 0.2)))
            p_de = rng.choice((1.0, 0.0, rng.random()))
            point = (phi, od_b, p_de, phi1)
            cnot = p_cnot(*point)
            assert cnot.hex() == (p_ghz(*point) ** 2 * p_bell_measurement(*point) ** 3).hex(), point
            assert p_factorization(*point).hex() == (cnot ** 2).hex(), point

    @pytest.mark.parametrize("f", [p_cnot, p_factorization])
    def test_a_bad_p_de_is_refused_before_any_circle_point(self, f, monkeypatch):
        calls = []
        monkeypatch.setattr(analytics, "detuned_params", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"p_de must lie in \[0, 1\]"):
            f(1.0, 30.0, 1.5)
        assert calls == []


class TestScalingFits:
    def test_failure_probability_exponents(self):
        bm = fit_scaling_exponent("bell_measurement")
        ghz = fit_scaling_exponent("ghz")
        # golden values frozen at first derivation
        assert abs(bm.exponent - (-0.897870710093957)) < 1e-6
        assert abs(ghz.exponent - (-0.932393902230157)) < 1e-6

    def test_single_point_grid_is_refused(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            fit_scaling_exponent("ghz", n_points=1)

    def test_a_grid_at_one_optical_depth_has_no_fit(self):
        with pytest.raises(ValueError, match="^need two distinct optical depths with nonzero failure probability$"):
            fit_scaling_exponent("bell_measurement", 60.0, 60.0, 3)

    @pytest.mark.parametrize("start, stop, n", [(60.0, 2000.0, 20), (2000.0, 60.0, 7), (1e-3, 7.5, 2), (15.0, 300.0, 4096)])
    def test_log_grid_starts_and_stops_on_its_bounds(self, start, stop, n):
        # 60 * (2000 / 60) ** 1.0 is 2000.0000000000002: the last point is stop itself
        grid = log_grid(start, stop, n)
        assert len(grid) == n
        assert grid[0] == start and grid[-1] == stop
        assert grid == sorted(grid, reverse=start > stop)

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: log_grid(60.0, 2000.0, 1), "at least 2 points"),
            (lambda: log_grid(60.0, 2000.0, 0), "at least 2 points"),
            (lambda: log_grid(-1.0, 10.0, 3), "finite, positive start"),  # gave complex points
            (lambda: log_grid(60.0, -0.0, 3), "finite, positive start"),
            (lambda: log_grid(60.0, math.inf, 20), "finite, positive start"),
            (lambda: log_grid(math.nan, 10.0, 3), "finite, positive start"),
            (lambda: fit_scaling_exponent("ghz", od_min=0.0), "finite, positive start"),  # divided by zero
            (lambda: log_grid(1e-300, 1e300, 3), "finite, nonzero stop/start ratio"),  # gave an inf point
            (lambda: log_grid(1e300, 1e-300, 3), "finite, nonzero stop/start ratio"),  # gave a 0.0 point
        ],
        ids=["one-point", "no-point", "negative-start", "negative-zero-stop", "infinite-stop", "nan-start", "fit-zero-od-min", "ratio-overflow", "ratio-underflow"],
    )
    def test_a_bad_log_grid_is_refused(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


_PIN_GRID = ["--phi", "0:pi:512", "--odb", "15,30,60,240,inf", "--pde", "0.9,0.98,1"]  # has unreachable rows


def _cli_sha256(argv, tmp_path):
    target = tmp_path / "out"
    assert main(argv + ["--out", str(target)]) == 0
    return hashlib.sha256(target.read_bytes()).hexdigest()


class TestAnalyticPins:
    """Bit-for-bit pins of the closed-form layer, recorded before its speed-ups.

    ``test_7`` and the benchmark check the scaling exponents only to 1e-6;
    these pin every byte of ``opt-phase`` and of formula sweeps, and the
    ``float.hex`` of each fit, so a faster closed form must keep its
    floating-point operations in order.
    """

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["opt-phase", "--protocol", "bm"], "bec91dd492e04a7d5cc4ded0ec8540a0937d8f7540a4d46dc7a8e70cc31dde7a"),
            (["opt-phase", "--protocol", "ghz"], "d9aa5887435eee3b17dc98c8c7a9a0c9db7cd841d85127af8ccacf5ae2f51e8b"),
            (["opt-phase", "--protocol", "evl"], "5fd541a2af780760bb988b0fb22a132bc3caa6066bb62acf4500f0544da0bd05"),
            (
                ["opt-phase", "--protocol", "bm", "--pde", "0.9", "--odb", "10:3000:15"],
                "4555fc0ded69924d9c6c58e734ab581b0a01ddfb064f610b1c1ced31da96b8e0",
            ),
        ],
        ids=["bm", "ghz", "evl", "bm-pde0.9"],
    )
    def test_opt_phase(self, argv, digest, tmp_path):
        assert _cli_sha256(argv, tmp_path) == digest

    @pytest.mark.parametrize(
        "name, exponent, prefactor",
        [
            ("bell_measurement", "-0x1.cbb5b5afc7998p-1", "0x1.09b66366d9d83p+2"),
            ("ghz", "-0x1.dd62bbca22fe1p-1", "0x1.86fe99247bff4p+2"),
            ("evl_bell_measurement", "-0x1.b9d7eac171e2cp-1", "0x1.8b8c667b10e1bp+1"),
        ],
        ids=["bm", "ghz", "evl"],
    )
    def test_scaling_fit(self, name, exponent, prefactor):
        fit = fit_scaling_exponent(name)
        assert (fit.exponent.hex(), fit.prefactor.hex()) == (exponent, prefactor)

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--protocol", "bm"], "06288747a3c5cf9018e01a0f83185bfe88e5b73bdfd4a2ccff6b9b2712eb8afd"),
            (["--protocol", "evl"], "07b3f882045be1e25e76c68905cf3490bde9e9b07b639f2f66dafb354ece3657"),
            (["--protocol", "ghz"], "39318a654bd106d189c24d151db978a61e6f8a8cb51dae121e96fe3658560945"),
            (["--protocol", "cnot"], "8ef8f762134aba4e0ee343712c508326c3d9e5d1f9af4209a4b77dd2b58438f1"),
            (["--protocol", "factorization"], "2a9efaa5fee03df5a3e8dad06503ec4a0542c9ccd6b28bc63ea9a7e444f5fc0a"),
            (["--protocol", "router"], "0dfc8c69ecaac5557cc3784d8ab380bb1a7ac6cc92d3ac19c93a50577ee6b8bc"),
            (["--protocol", "bm", "--phi1-ratio=-1/11"], "6d6ab66a20af014f51ed1b7cec224fe6f5e65395d67b7f1bb09a1aa2fec6a033"),
            (["--protocol", "ghz", "--phi1-ratio=-1/11"], "040be73b409561005ee9e31fb41329c5be1b9720de2c8f4e98f36440d2403958"),
            (["--protocol", "router", "--format", "json"], "84a3ed643e60617a69c415d1b812d85c02a3d14959bc0916af6496f550f37540"),
        ],
        ids=["bm", "evl", "ghz", "cnot", "factorization", "router", "bm-detuned", "ghz-detuned", "router-json"],
    )
    def test_formula_sweep(self, argv, digest, tmp_path):
        assert _cli_sha256(["sweep"] + argv + _PIN_GRID, tmp_path) == digest
