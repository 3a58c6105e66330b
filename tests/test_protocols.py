"""Circuit-simulation tests: exact agreement with the closed forms plus the
structural guarantees the heralding logic relies on."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from functools import reduce
from operator import add
from pathlib import Path

import pytest

from nlrouter import analytics, fock, protocols
from nlrouter.protocols import (
    BELL_STATES,
    bell_state,
    run_bell_measurement,
    run_evl_bell_measurement,
    run_ghz,
    run_router,
)

PI = math.pi
AGREE = 1e-10
EXACT = 1e-12


class TestRouter:
    def test_single_photon_exits_single_port(self):
        probs = run_router(1.7, math.inf, n_photons=1)
        assert abs(probs[(1, 0)] - 1.0) < EXACT

    def test_balanced_point(self):
        probs = run_router(PI / 2, math.inf)
        assert abs(probs[(2, 0)] - 0.25) < EXACT
        assert abs(probs[(1, 1)] - 0.5) < EXACT
        assert abs(probs[(0, 2)] - 0.25) < EXACT

    def test_full_phase_routes_pair(self):
        probs = run_router(PI, math.inf)
        assert abs(probs[(0, 2)] - 1.0) < EXACT

    def test_lossy_distribution_matches_squared_amplitudes(self):
        od = 30.0
        for i in range(128):
            phi = PI * i / 127
            probs = run_router(phi, od)
            tau = 1.0 - math.exp(-2.0 * (od / 4.0 - math.sqrt((od / 4.0) ** 2 - phi ** 2)))
            a = 0.5 * (math.sqrt(1 - tau) * math.cos(phi) - 1.0)
            b = 0.5 * (math.sqrt(1 - tau) * math.cos(phi) + 1.0)
            assert abs(probs.get((2, 0), 0.0) - b * b) < EXACT
            assert abs(probs.get((1, 1), 0.0) - 0.5 * (1 - tau) * math.sin(phi) ** 2) < EXACT
            assert abs(probs.get((0, 2), 0.0) - a * a) < EXACT
            # photon absorbed in the medium, partner photon at either port
            assert abs(probs.get((1, 0), 0.0) - tau / 4.0) < EXACT
            assert abs(probs.get((0, 1), 0.0) - tau / 4.0) < EXACT
            for od_b in (math.inf, od):
                for phi1 in (0.0, -phi / 11.0):
                    sim = run_router(phi, od_b, 2, phi1)
                    for port, p in analytics.p_router(phi, od_b, phi1).items():
                        assert abs(sim.get(port, 0.0) - p) < EXACT

    def test_probabilities_sum_to_one(self):
        total = reduce(add, run_router(2.0, 12.0).values(), 0.0)
        assert abs(total - 1.0) < EXACT

    def test_invalid_photon_number(self):
        with pytest.raises(ValueError, match="1 or 2"):
            run_router(1.0, math.inf, n_photons=3)


class TestBellMeasurement:
    @pytest.mark.parametrize("phi", [0.0, PI / 4, PI / 3, 2.0, PI])
    @pytest.mark.parametrize("od_b", [math.inf, 30.0])
    def test_matches_formula(self, phi, od_b):
        r = run_bell_measurement(phi, od_b, 0.97)
        assert abs(r.p_success - analytics.p_bell_measurement(phi, od_b, 0.97)) < AGREE
        assert abs(r.total() - 1.0) < EXACT

    def test_detuned_matches_formula(self):
        phi, phi1 = 1.3, -1.3 / 11
        r = run_bell_measurement(phi, 40.0, 0.95, phi1)
        assert abs(r.p_success - analytics.p_bell_measurement(phi, 40.0, 0.95, phi1)) < AGREE

    def test_antisymmetric_states_always_heralded(self):
        # the two states that never bunch are identified whenever both
        # photons survive, independent of the conditional phase
        for phi in (0.5, 1.5, 2.5):
            r = run_bell_measurement(phi, math.inf, 1.0)
            assert abs(r.per_state["psi_minus"].p_success - 1.0) < EXACT
            assert abs(r.per_state["phi_minus"].p_success - 1.0) < EXACT

    def test_success_patterns_disjoint_at_full_phase(self):
        r = run_bell_measurement(PI, math.inf, 1.0)
        pattern_sets = {}
        for name, res in r.per_state.items():
            pattern_sets[name] = {
                o.pattern for o in res.outcomes if o.classification.startswith("success")
            }
            assert pattern_sets[name]
        names = list(pattern_sets)
        for i, n1 in enumerate(names):
            for n2 in names[i + 1 :]:
                assert not pattern_sets[n1] & pattern_sets[n2]

    def test_unknown_input(self):
        with pytest.raises(ValueError, match="unknown input state"):
            run_bell_measurement(1.0, input_state="banana")

    @pytest.mark.parametrize("run", [run_bell_measurement, run_evl_bell_measurement])
    def test_one_input_state_is_its_per_state_result(self, run):
        def bits(r):
            return [p.hex() for p in (r.p_success, r.p_heralded_failure, r.p_false_positive)], [
                (o.pattern, o.probability.hex(), o.classification) for o in r.outcomes
            ]

        average = run(PI / 3, 30.0, 0.98)
        for s in BELL_STATES:
            one = run(PI / 3, 30.0, 0.98, input_state=s)
            assert one.per_state == {} and bits(one) == bits(average.per_state[s])

    @pytest.mark.parametrize("run", [run_bell_measurement, run_evl_bell_measurement])
    def test_unknown_input_is_refused_before_any_circuit_runs(self, run, monkeypatch):
        def circuit(*args, **kwargs):
            raise AssertionError("a circuit ran for a refused input state")

        monkeypatch.setattr(protocols, "_run_bm_circuit", circuit)
        with pytest.raises(ValueError, match="unknown input state 'banana'"):
            run(1.0, input_state="banana")

    @pytest.mark.parametrize("run", [run_bell_measurement, run_evl_bell_measurement])
    def test_the_four_bell_circuits_share_one_medium(self, run, monkeypatch):
        build = protocols.detuned_params
        calls = []

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(protocols, "detuned_params", counted)
        run(PI / 3, 30.0, 0.98)
        assert calls == [(PI / 3, 30.0, 0.0)]


class TestAncillaAssistedBellMeasurement:
    @pytest.mark.parametrize("phi", [0.0, PI / 3, 2.2, PI])
    @pytest.mark.parametrize("od_b", [math.inf, 30.0])
    def test_matches_formula(self, phi, od_b):
        r = run_evl_bell_measurement(phi, od_b, 0.93)
        assert abs(r.p_success - analytics.p_evl_bell_measurement(phi, od_b, 0.93)) < AGREE
        assert abs(r.total() - 1.0) < EXACT

    def test_beats_plain_bell_measurement(self):
        # at full detection efficiency the ancilla only adds heralds
        for phi in (0.0, 1.0, 2.0):
            assert (
                run_evl_bell_measurement(phi, 30.0).p_success
                >= run_bell_measurement(phi, 30.0).p_success - EXACT
            )

    def test_symmetric_state_rescued(self):
        # the orthogonally polarized pair at a single-photon port is trusted
        r = run_evl_bell_measurement(0.0, math.inf, 1.0)
        assert abs(r.per_state["psi_plus"].p_success - 1.0) < EXACT


class TestGhz:
    @pytest.mark.parametrize("phi", [0.0, PI / 3, 2.0, PI])
    @pytest.mark.parametrize("od_b", [math.inf, 30.0])
    def test_matches_formula(self, phi, od_b):
        r = run_ghz(phi, od_b, 0.96)
        assert abs(r.p_success - analytics.p_ghz(phi, od_b, 0.96)) < AGREE
        assert abs(r.total() - 1.0) < EXACT

    def test_detuned_matches_formula(self):
        phi, phi1 = 1.8, -1.8 / 11
        r = run_ghz(phi, 40.0, 0.9, phi1)
        assert abs(r.p_success - analytics.p_ghz(phi, 40.0, 0.9, phi1)) < AGREE

    def test_success_state_is_exact_ghz(self):
        # heralded successes carry unit fidelity even with medium loss
        for phi, od in ((PI, math.inf), (PI / 3, 30.0), (2.0, 15.0)):
            r = run_ghz(phi, od, 0.95)
            assert r.success_fidelity == pytest.approx(1.0, abs=1e-9)

    def test_delay_loss_becomes_false_positive(self):
        clean = run_ghz(PI, math.inf, 1.0)
        lossy = run_ghz(PI, math.inf, 1.0, delay_transmission=0.8)
        assert abs(clean.p_false_positive) < EXACT
        assert abs(lossy.p_success - 0.8) < EXACT
        assert abs(lossy.p_false_positive - 0.2) < EXACT

    @pytest.mark.parametrize("delay", [1.5, -0.1, math.nan, math.inf])
    def test_delay_transmission_outside_the_unit_interval_is_refused(self, delay, monkeypatch):
        # 1.5 and NaN used to give the lossless p_success; the check comes before any circuit runs
        monkeypatch.setattr(protocols, "bell_state", lambda *a: pytest.fail("the circuit ran"))
        with pytest.raises(ValueError, match=r"delay_transmission must lie in \[0, 1\]"):
            run_ghz(1.0, 30.0, 0.98, delay_transmission=delay)

    def test_a_fully_lossy_delay_empties_every_heralded_output(self):
        r = run_ghz(PI, math.inf, 1.0, delay_transmission=0.0)
        assert r.p_success == 0.0
        assert abs(r.p_false_positive - 1.0) < EXACT


class TestNanInputs:
    """The simulated media refuse a NaN phase or optical depth.

    ``run_bell_measurement(nan, inf)`` used to return a partition summing to
    0.75, ``run_evl_bell_measurement(1, nan, 0.98)`` one summing to 0 and
    ``run_router(1, nan)`` an empty dict.
    """

    @pytest.mark.parametrize(
        "run",
        [
            lambda phi, od_b: run_bell_measurement(phi, od_b),
            lambda phi, od_b: run_evl_bell_measurement(phi, od_b, 0.98),
            lambda phi, od_b: run_ghz(phi, od_b, 0.98),
            lambda phi, od_b: run_router(phi, od_b),
        ],
        ids=["bm", "evl", "ghz", "router"],
    )
    @pytest.mark.parametrize("phi, od_b", [(math.nan, math.inf), (math.nan, 30.0), (1.0, math.nan)])
    def test_nan_is_refused(self, run, phi, od_b):
        with pytest.raises(ValueError, match="must not be NaN|must be positive"):
            run(phi, od_b)

    def test_nan_detuning_is_refused(self):
        with pytest.raises(ValueError, match="phi must not be NaN"):
            run_bell_measurement(1.0, 30.0, 0.98, math.nan)


class TestBellStates:
    def test_orthonormal(self):
        states = [bell_state(n) for n in BELL_STATES]
        for i, si in enumerate(states):
            for j, sj in enumerate(states):
                expected = 1.0 if i == j else 0.0
                assert si.modes == sj.modes
                overlap = sum(a.conjugate() * sj.terms.get(occ, 0.0) for occ, a in si.terms.items())
                assert abs(abs(overlap) - expected) < EXACT

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown Bell state"):
            bell_state("chi_plus")

    def test_one_mode_named_twice_is_refused(self):
        with pytest.raises(ValueError, match="two distinct modes"):
            bell_state("psi_plus", "a", "a")


class TestBitExactPins:
    """``float.hex`` of simulator results at operating points the goldens miss.

    The engine must keep its floating-point operations in order, so these
    values may not move by a single ulp.
    """

    def test_detuned_bell_measurement(self):
        r = run_bell_measurement(1.3, 120.0, 0.9, -1.3 / 11)
        assert (r.p_success.hex(), r.total().hex()) == ("0x1.4742349dac5fdp-1", "0x1.ffffffffffff2p-1")

    def test_lossless_evl_bell_measurement(self):
        r = run_evl_bell_measurement(2.2, math.inf, 0.85)
        assert (r.p_success.hex(), r.total().hex()) == ("0x1.08704bbb91381p-1", "0x1.fffffffffffedp-1")

    def test_ghz_with_delay_loss(self):
        r = run_ghz(PI / 3, 30.0, 0.98, delay_transmission=0.9)
        assert (r.p_success.hex(), r.total().hex()) == ("0x1.e3f2b3f8189c0p-2", "0x1.ffffffffffff2p-1")
        assert r.success_fidelity.hex() == "0x1.ffffffffffffcp-1"

    def test_single_photon_router(self):
        probs = run_router(1.7, 30.0, n_photons=1, phi1=-1.7 / 11)
        assert {port: p.hex() for port, p in probs.items()} == {
            (0, 0): "0x1.a0c9e1c6548ffp-9",
            (1, 0): "0x1.fe5f361e39ab2p-1",
        }
        assert reduce(add, probs.values(), 0.0).hex() == "0x1.ffffffffffffbp-1"

    @pytest.mark.parametrize(
        "run, digest",
        [
            (
                lambda: run_bell_measurement(1.3, 120.0, 0.9, -1.3 / 11),
                "c5c7661ebb86a0d7a451dbe1d38a6bc2c2c555b6baa6b94f09808bba025f7bcd",
            ),
            (
                lambda: run_evl_bell_measurement(2.2, math.inf, 0.85),
                "3be299b8e1ee27bdb72f1b24cf752da28b6fc7e0cc3d19b861b26171b4b941b1",
            ),
            (
                lambda: run_ghz(PI / 3, 30.0, 0.98, delay_transmission=0.9),
                "1215de34732186bac3eccdee016f342ffb077ce734e86db494f6e565d6df736a",
            ),
        ],
        ids=["bm", "evl", "ghz"],
    )
    def test_outcome_table(self, run, digest):
        # every outcome's input state, pattern, verdict and probability bits
        r = run()
        rows = [
            repr((state, tuple((m.label(), n) for m, n in o.pattern), o.classification, o.probability.hex()))
            for state, res in (r.per_state or {"": r}).items()
            for o in res.outcomes
        ]
        assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest


# (protocol, phi, od_b, p_de, phi1): every protocol, and p_de, phi1 and od_b
# changing from one call to the next on the same circuit shapes.  Among the
# ordinary points, phi = 0 prunes terms that other points keep, od_b = inf
# zeroes medium branches, p_de = 1 skips the detector stage and phi1 != 0
# adds a phase shifter, so a tape recorded at one point is replayed at another.
_COHERENCE_CALLS = [
    ("bm", 1.3, 30.0, 0.9, 0.0),
    ("bm", 0.0, 30.0, 0.9, 0.0),
    ("ghz", PI / 3, 30.0, 0.98, 0.0),
    ("ghz", PI / 3, math.inf, 0.98, 0.0),
    ("bm", 1.3, 30.0, 0.97, -1.3 / 11),
    ("evl", 2.2, math.inf, 0.85, 0.0),
    ("evl", 2.2, 30.0, 1.0, 0.0),
    ("bm", 1.3, math.inf, 1.0, -1.3 / 11),
    ("bm", 2.0, 60.0, 0.97, 0.0),
    ("ghz", 0.0, 30.0, 0.9, 0.0),
    ("ghz", 2.0, 60.0, 0.9, -2.0 / 11),
    ("evl", 0.0, math.inf, 0.85, 0.0),
    ("evl", 1.3, 30.0, 0.9, 0.0),
    ("bm", 2.0, 60.0, 0.97, -2.0 / 11),
    ("bm", 2.0, 60.0, 0.9, -2.0 / 11),
    ("ghz", 2.0, 60.0, 1.0, -2.0 / 11),
    ("ghz", PI / 3, 30.0, 0.5, 0.0),
]


def _coherence_bits(call):
    name, phi, od_b, p_de, phi1 = call
    if name == "evl":
        r = run_evl_bell_measurement(phi, od_b, p_de)
    else:
        r = {"bm": run_bell_measurement, "ghz": run_ghz}[name](phi, od_b, p_de, phi1)
    return [r.p_success.hex(), r.total().hex()]


class TestCacheCoherence:
    """The engine's layout table outlives a call; no call may see another's plans.

    The reference runs each call in a fresh interpreter, where the table
    starts empty.  Here the calls are interleaved, repeated in another order
    and run from three threads at once, and must give the same bits.
    """

    @pytest.fixture(scope="class")
    def fresh(self):
        """``_coherence_bits`` of each call, each in its own fresh interpreter."""
        src = str(Path(__import__("nlrouter").__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        code = (
            "import json, sys; from test_protocols import _coherence_bits; "
            "print(json.dumps(_coherence_bits(json.loads(sys.argv[1]))))"
        )
        bits = []
        for call in _COHERENCE_CALLS:
            out = subprocess.run(
                [sys.executable, "-c", code, json.dumps(call)],
                env=env, cwd=Path(__file__).parent, capture_output=True, check=True, text=True,
            ).stdout
            bits.append(json.loads(out))
        return bits

    def test_interleaved_calls_match_a_fresh_process(self, fresh, monkeypatch):
        monkeypatch.setattr(fock, "_LAYOUTS", {})
        n = len(_COHERENCE_CALLS)
        forward = list(range(n))
        # first sights, which record each tape, then two rounds of replays, each round in another order
        for order in (forward, forward[::-1], forward[n // 2 :] + forward[: n // 2]):
            assert [_coherence_bits(_COHERENCE_CALLS[i]) for i in order] == [fresh[i] for i in order]

    def test_a_full_table_is_cleared_and_keeps_the_bits(self, fresh, monkeypatch):
        monkeypatch.setattr(fock, "_LAYOUTS", {})
        monkeypatch.setattr(fock, "_LAYOUT_LIMIT", 5)
        assert [_coherence_bits(c) for c in _COHERENCE_CALLS] == fresh
        assert len(fock._LAYOUTS) <= 5

    def test_threaded_calls_match_a_fresh_process(self, fresh, monkeypatch):
        monkeypatch.setattr(fock, "_LAYOUTS", {})
        n = len(_COHERENCE_CALLS)
        forward = list(range(n))
        orders = [forward, forward[::-1], forward[n // 2 :] + forward[: n // 2]]
        results: list[tuple[int, list]] = []

        def worker(t):
            for i in orders[t] * 2:  # each call seen at least twice by each thread
                results.append((i, _coherence_bits(_COHERENCE_CALLS[i])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(len(orders))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert len(results) == 2 * len(orders) * n
        assert all(bits == fresh[i] for i, bits in results)
