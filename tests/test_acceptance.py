"""End-to-end acceptance suite.

One test per top-level requirement; each prints a single pass/fail line so
the run log reads as a checklist.
"""

import math
import random
import subprocess
import sys
from functools import reduce
from operator import add
from pathlib import Path

import pytest

from nlrouter import analytics, protocols
from nlrouter.rydberg import loss_from_phase

PI = math.pi
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def report(request, capsys):
    failed_before = request.session.testsfailed
    yield
    label = request.node.name.replace("test_", "").replace("_", " ")
    verdict = "FAIL" if request.session.testsfailed > failed_before else "PASS"
    with capsys.disabled():
        print(f"[acceptance] {label}: {verdict}")


def test_1_linear_baselines():
    expected = {
        "bm": 0.5,
        "evl": 0.75,
        "ghz": 0.5,
        "cnot": 1.0 / 32.0,
        "factorization": 1.0 / 1024.0,
    }
    formula = {
        "bm": analytics.p_bell_measurement(0.0),
        "evl": analytics.p_evl_bell_measurement(0.0),
        "ghz": analytics.p_ghz(0.0),
        "cnot": analytics.p_cnot(0.0),
        "factorization": analytics.p_factorization(0.0),
    }
    p_bm = protocols.run_bell_measurement(0.0).p_success
    p_ghz = protocols.run_ghz(0.0).p_success
    simulated = {
        "bm": p_bm,
        "evl": protocols.run_evl_bell_measurement(0.0).p_success,
        "ghz": p_ghz,
        "cnot": p_ghz ** 2 * p_bm ** 3,
        "factorization": (p_ghz ** 2 * p_bm ** 3) ** 2,
    }
    for name, value in expected.items():
        assert abs(formula[name] - value) < 1e-12, name
        assert abs(simulated[name] - value) < 1e-12, name


def test_2_strong_nonlinearity_limit():
    assert abs(protocols.run_bell_measurement(PI).p_success - 1.0) < 1e-12
    assert abs(protocols.run_evl_bell_measurement(PI).p_success - 1.0) < 1e-12
    assert abs(protocols.run_ghz(PI).p_success - 1.0) < 1e-12
    assert abs(analytics.p_cnot(PI) - 1.0) < 1e-12
    # exhaustive herald check: the four inputs produce disjoint success patterns
    result = protocols.run_bell_measurement(PI)
    success_patterns = {}
    for name, res in result.per_state.items():
        success_patterns[name] = {
            o.pattern for o in res.outcomes if o.classification.startswith("success")
        }
        assert success_patterns[name], f"{name} has no success patterns"
    names = list(success_patterns)
    for i, n1 in enumerate(names):
        for n2 in names[i + 1 :]:
            assert not success_patterns[n1] & success_patterns[n2], (n1, n2)


def test_3_working_point_values():
    # boosted values at finite optical depth and imperfect detectors,
    # against their linear-optics baselines
    assert analytics.p_bell_measurement(PI / 3, 30.0, 0.98) == pytest.approx(0.67, abs=0.01)
    assert 0.5 * 0.98 ** 2 == pytest.approx(0.48, abs=0.01)
    assert analytics.p_evl_bell_measurement(PI / 3, 30.0, 0.98) == pytest.approx(0.77, abs=0.01)
    assert 0.75 * 0.98 ** 4 == pytest.approx(0.69, abs=0.01)
    assert analytics.p_ghz(PI / 3, 30.0, 0.98) == pytest.approx(0.52, abs=0.01)
    assert 0.5 * 0.98 == pytest.approx(0.49, abs=0.01)
    # perfect-detector headline numbers quoted in the lossless limit
    assert analytics.p_bell_measurement(PI / 3) == pytest.approx(0.72, abs=0.01)
    assert analytics.p_ghz(PI / 3) == pytest.approx(0.53, abs=0.01)
    assert analytics.p_cnot(PI / 3) == pytest.approx(0.105, abs=0.002)
    assert analytics.p_cnot(PI / 3) / analytics.p_cnot(0.0) == pytest.approx(3.32, abs=0.1)
    assert analytics.p_factorization(PI / 3) / analytics.p_factorization(0.0) == pytest.approx(11.0, abs=0.5)


def test_4_engine_equivalence_grid():
    phis = [PI * i / 15 for i in range(16)]
    ods = [8.0, 15.0, 30.0, 60.0, 120.0, 240.0, 1000.0, math.inf]
    pdes = [1.0, 0.98, 0.9]
    worst = 0.0
    for phi in phis:
        for od in ods:
            for pde in pdes:
                if phi > od / 4.0:
                    continue
                worst = max(worst, abs(
                    protocols.run_bell_measurement(phi, od, pde).p_success
                    - analytics.p_bell_measurement(phi, od, pde)))
                worst = max(worst, abs(
                    protocols.run_evl_bell_measurement(phi, od, pde).p_success
                    - analytics.p_evl_bell_measurement(phi, od, pde)))
                worst = max(worst, abs(
                    protocols.run_ghz(phi, od, pde).p_success
                    - analytics.p_ghz(phi, od, pde)))
                phi1 = -phi / 11.0
                if abs(phi1) <= od / 4.0 and abs(phi + phi1) <= od / 4.0:
                    worst = max(worst, abs(
                        protocols.run_bell_measurement(phi, od, pde, phi1).p_success
                        - analytics.p_bell_measurement(phi, od, pde, phi1)))
                    worst = max(worst, abs(
                        protocols.run_ghz(phi, od, pde, phi1).p_success
                        - analytics.p_ghz(phi, od, pde, phi1)))
    assert worst < 1e-10


def test_5_circle_relation():
    rng = random.Random(8151823)
    for _ in range(10_000):
        od = rng.uniform(0.5, 200.0)
        phi = rng.uniform(-od / 4.0, od / 4.0)
        cp = loss_from_phase(phi, od, rng.choice(("lower", "upper")))
        # normalized by the squared circle radius so the bound is scale-free
        radius_sq = (od / 4.0) ** 2
        residual = ((cp.eps / 2.0 - od / 4.0) ** 2 + phi ** 2 - radius_sq) / radius_sq
        assert abs(residual) < 1e-12
    with pytest.raises(ValueError):
        loss_from_phase(PI, 4.0 * PI - 1e-6)


def test_6_router_distribution():
    probs = protocols.run_router(PI / 2, math.inf)
    assert abs(probs[(2, 0)] - 0.25) < 1e-12
    assert abs(probs[(1, 1)] - 0.5) < 1e-12
    assert abs(probs[(0, 2)] - 0.25) < 1e-12
    assert abs(protocols.run_router(PI, math.inf)[(0, 2)] - 1.0) < 1e-12
    od = 30.0
    for i in range(128):
        phi = PI * i / 127
        probs = protocols.run_router(phi, od)
        tau = loss_from_phase(phi, od).tau
        a = 0.5 * (math.sqrt(1 - tau) * math.cos(phi) - 1.0)
        b = 0.5 * (math.sqrt(1 - tau) * math.cos(phi) + 1.0)
        assert abs(probs.get((2, 0), 0.0) - b * b) < 1e-12
        assert abs(probs.get((1, 1), 0.0) - 0.5 * (1 - tau) * math.sin(phi) ** 2) < 1e-12
        assert abs(probs.get((0, 2), 0.0) - a * a) < 1e-12


def test_7_scaling_exponents():
    ods = [60.0 * (2000.0 / 60.0) ** (i / 19) for i in range(20)]
    pinned = {
        # golden values frozen at first derivation
        "bell_measurement": {"infidelity": -0.897870710093957, "phase_gap": -0.313528007735373},
        "ghz": {"infidelity": -0.932393902230157, "phase_gap": -0.98566488752656},
    }
    for name, pins in pinned.items():
        points = [analytics.find_optimal_phase(name, od) for od in ods]
        for r in points:
            assert r.phi_opt < PI
        infid = _loglog_slope(ods, [1.0 - r.p_opt for r in points])
        gap = _loglog_slope(ods, [PI - r.phi_opt for r in points])
        assert abs(infid - (-0.9)) < 0.1, name
        assert abs(infid - pins["infidelity"]) < 1e-6, name
        assert abs(gap - pins["phase_gap"]) < 1e-6, name


def _loglog_slope(xs, ys):
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys)]
    n = len(pts)
    mx = reduce(add, (p[0] for p in pts), 0.0) / n
    my = reduce(add, (p[1] for p in pts), 0.0) / n
    return reduce(add, ((p[0] - mx) * (p[1] - my) for p in pts), 0.0) / reduce(add, ((p[0] - mx) ** 2 for p in pts), 0.0)


def test_8_channel_sanity_suite():
    # the randomized channel properties (norm preservation, photon-number
    # conservation, interference, loss statistics) live in test_fock.py as
    # hypothesis properties; here we assert the probability partition on a
    # randomized protocol grid
    rng = random.Random(424242)
    for _ in range(30):
        od = rng.choice([math.inf, rng.uniform(10.0, 200.0)])
        phi = rng.uniform(0.0, min(PI, od / 4.0))
        pde = rng.uniform(0.5, 1.0)
        for result in (
            protocols.run_bell_measurement(phi, od, pde),
            protocols.run_evl_bell_measurement(phi, od, pde),
            protocols.run_ghz(phi, od, pde),
        ):
            assert abs(result.total() - 1.0) < 1e-12
            assert result.p_success >= 0.0
            assert result.p_false_positive >= 0.0
            assert result.p_heralded_failure >= 0.0


GOLDEN_COMMANDS = {
    "router_lossless.csv": ["sweep", "--protocol", "router", "--phi", "0:pi:128", "--odb", "inf", "--engine", "both"],
    "bm_od30.csv": ["sweep", "--protocol", "bm", "--phi", "0:pi:128", "--odb", "30", "--pde", "0.98", "--engine", "both"],
    "evl_od30.csv": ["sweep", "--protocol", "evl", "--phi", "0:pi:128", "--odb", "30", "--pde", "0.98", "--engine", "both"],
    "ghz_od30.csv": ["sweep", "--protocol", "ghz", "--phi", "0:pi:128", "--odb", "30", "--pde", "0.98", "--engine", "both"],
}


def test_9_cli_determinism_and_goldens(tmp_path):
    outputs = []
    for i in range(2):
        target = tmp_path / f"run{i}.csv"
        cmd = [sys.executable, "-m", "nlrouter.cli"] + GOLDEN_COMMANDS["ghz_od30.csv"] + ["--out", str(target)]
        assert subprocess.run(cmd, capture_output=True).returncode == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1]
    for name, argv in GOLDEN_COMMANDS.items():
        target = tmp_path / name
        from nlrouter.cli import main

        assert main(argv + ["--out", str(target)]) == 0
        assert target.read_bytes() == (GOLDEN / name).read_bytes(), name
