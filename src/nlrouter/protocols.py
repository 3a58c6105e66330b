"""Circuit-level simulations of the router-based entangling protocols.

Each protocol is built from the elements in :mod:`nlrouter.fock`: beam
splitters, polarization optics and the conditional-phase medium wrapped in a
Mach-Zehnder router that sends single photons to one output port and,
depending on the conditional phase, photon pairs to the other.  Every run
returns a full accounting of the outcome probability mass: success, heralded
failure and false positives, empty outputs among them, sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import add
from typing import Optional

from .fock import (
    FockState,
    ModeId,
    NonlinearMediumSpec,
    OutcomeRecord,
    apply_beamsplitter,
    apply_detector_efficiency,
    apply_loss,
    apply_nonlinear_medium,
    apply_pbs,
    apply_phase,
    apply_rotation_45,
    measure_all,
)
from .rydberg import detuned_params

__all__ = [
    "BELL_STATES",
    "ProtocolResult",
    "bell_state",
    "apply_router",
    "run_router",
    "run_bell_measurement",
    "run_evl_bell_measurement",
    "run_ghz",
    "simulated_cnot_success",
    "simulated_factorization_success",
]

BELL_STATES = ("psi_plus", "psi_minus", "phi_plus", "phi_minus")

# probability below which a detection pattern counts as absent when the
# per-input distributions are compared
PATTERN_TOL = 1e-12


@dataclass
class ProtocolResult:
    """Outcome bookkeeping for one protocol run.

    The three probability buckets are exhaustive and sum to 1:
    ``p_success`` (correct herald), ``p_heralded_failure`` (run flagged
    bad) and ``p_false_positive`` (wrong herald accepted, or an empty
    output behind a clean herald).
    """

    protocol: str
    p_success: float
    p_heralded_failure: float
    p_false_positive: float
    success_fidelity: Optional[float] = None
    outcomes: list[OutcomeRecord] = field(default_factory=list)
    per_state: dict[str, "ProtocolResult"] = field(default_factory=dict)

    def total(self) -> float:
        return self.p_success + self.p_heralded_failure + self.p_false_positive


def bell_state(name: str, mode_a: str = "a", mode_b: str = "b") -> FockState:
    """One of the four two-photon polarization Bell states."""
    if mode_a == mode_b:
        raise ValueError(f"a Bell state needs two distinct modes, got {mode_a!r} twice")
    a_h, a_v = ModeId(mode_a, "H"), ModeId(mode_a, "V")
    b_h, b_v = ModeId(mode_b, "H"), ModeId(mode_b, "V")
    s = 1.0 / math.sqrt(2.0)
    table = {
        "psi_plus": (((a_h, b_v), s), ((a_v, b_h), s)),
        "psi_minus": (((a_h, b_v), s), ((a_v, b_h), -s)),
        "phi_plus": (((a_h, b_h), s), ((a_v, b_v), s)),
        "phi_minus": (((a_h, b_h), s), ((a_v, b_v), -s)),
    }
    try:
        pairs = table[name]
    except KeyError:
        raise ValueError(f"unknown Bell state {name!r}") from None
    modes = (a_h, a_v, b_h, b_v)
    terms: dict[tuple, complex] = {}
    for (m1, m2), amp in pairs:
        occ = tuple(1 if m in (m1, m2) else 0 for m in modes)
        terms[occ] = complex(amp)
    return FockState(modes, terms)


def _medium(phi: float, od_b: float, phi1: float, basis: str, coupling: str) -> NonlinearMediumSpec:
    d = detuned_params(phi, od_b, phi1)
    return NonlinearMediumSpec(
        phi1=d.phi1,
        tau1=d.tau1,
        phi2=d.phi2,
        tau2=d.tau2,
        interaction_basis=basis,
        pair_coupling=coupling,
    )


def apply_router(
    state: FockState,
    src: str,
    single_port: str,
    pair_port: str,
    medium: NonlinearMediumSpec,
    phi1: float = 0.0,
) -> FockState:
    """Mach-Zehnder router around the conditional-phase medium.

    A lone photon in ``src`` exits at ``single_port``; a photon pair is
    steered toward ``pair_port`` when the conditional phase approaches pi.
    The two arms see mirrored medium phases; at a detuned operating point the
    residual single-photon phase is compensated by a phase shifter in one arm.
    """
    arm_f, arm_g = f"{src}.f", f"{src}.g"
    state = apply_beamsplitter(state, None, src, arm_f, arm_g)
    state = apply_nonlinear_medium(state, arm_f, medium, sign=1)
    state = apply_nonlinear_medium(state, arm_g, medium, sign=-1)
    if phi1:
        state = apply_phase(state, arm_f, -2.0 * phi1)
    return apply_beamsplitter(state, arm_g, arm_f, pair_port, single_port)


# ------------------------------------------------------------------- router


def run_router(phi: float, od_b: float = math.inf, n_photons: int = 2, phi1: float = 0.0) -> dict[tuple[int, int], float]:
    """Send ``n_photons`` through one router; return port-count probabilities.

    Keys are (photons at single port, photons at pair port); any shortfall
    from the input photon number was absorbed in the medium.
    """
    if n_photons not in (1, 2):
        raise ValueError("router simulation supports 1 or 2 input photons")
    medium = _medium(phi, od_b, phi1, "diagonal", "same_polarization")
    state = FockState.from_occupations({ModeId("a", "+"): n_photons})
    state = apply_router(state, "a", "u", "w", medium, phi1)
    single, pair = ModeId("u", "+"), ModeId("w", "+")
    probs: dict[tuple[int, int], float] = {}
    for rec in measure_all(state, [single, pair]):  # one record per pattern, and each pattern is one key
        counts = dict(rec.pattern)
        probs[counts.get(single, 0), counts.get(pair, 0)] = rec.probability
    return probs


# --------------------------------------------------------- Bell measurement

_BM_PORTS = ("u", "w", "p", "q")  # u, p: single-photon ports; w, q: pair ports
_SINGLE_PORTS = {"u", "p"}
_ANCILLA = "anc"


def _run_bm_circuit(
    name: str,
    medium: NonlinearMediumSpec,
    p_de: float,
    phi1: float,
    ancilla: bool = False,
) -> list[OutcomeRecord]:
    """Interfere a Bell pair, route both halves, detect in the H/V basis."""
    state = bell_state(name)
    if ancilla:
        state = state.tensor(_two_photon_ancilla())
    state = apply_beamsplitter(state, "a", "b", "c", "d")
    state = apply_rotation_45(state, "c")
    state = apply_rotation_45(state, "d")
    state = apply_router(state, "c", "u", "w", medium, phi1)
    state = apply_router(state, "d", "p", "q", medium, phi1)
    for port in _BM_PORTS:
        state = apply_rotation_45(state, port)
    detected_spatials = _BM_PORTS + ((_ANCILLA,) if ancilla else ())
    state = apply_detector_efficiency(state, detected_spatials, p_de)
    return measure_all(state, [ModeId(sp, pol) for sp in detected_spatials for pol in ("H", "V")])


# Detection patterns repeat from call to call (measure_all hands out the same
# pattern tuples), so splitting off the ancilla is memoised; the bound keeps
# memory flat.
@lru_cache(maxsize=4096)
def _split_ancilla(pattern: tuple[tuple[ModeId, int], ...]) -> tuple[tuple, int, int]:
    """The pattern without ancilla clicks, its click count, and the ancilla's click count."""
    main = tuple(item for item in pattern if item[0].spatial != _ANCILLA)
    anc_clicks = sum(n for m, n in pattern if m.spatial == _ANCILLA)
    return main, sum(n for _, n in main), anc_clicks


def _decision_table(
    dists: dict[str, dict[tuple, float]],
    ancilla: bool,
) -> dict[tuple, str]:
    """Map each detection pattern in ``dists`` (all of them two-click) to a Bell-state verdict.

    A photon pair emerging at either single-photon router port is read as the
    Bell state whose pair component never splits (verdict ``phi_minus``); with
    the ancilla witness an orthogonally polarized pair at one single-photon
    port is additionally trusted as the ``psi_plus`` signature.  Every other
    pattern gets a verdict only if exactly one input state can produce it.
    """
    patterns: set[tuple] = set()
    for dist in dists.values():
        patterns.update(p for p, prob in dist.items() if prob > PATTERN_TOL)
    table: dict[tuple, str] = {}
    for pattern in patterns:
        ports = {m.spatial for m, _ in pattern}
        if len(ports) == 1 and ports <= _SINGLE_PORTS:
            pols = {m.pol for m, _ in pattern}
            if ancilla and len(pols) == 2:
                table[pattern] = "psi_plus"
            else:
                table[pattern] = "phi_minus"
            continue
        support = [s for s in BELL_STATES if dists[s].get(pattern, 0.0) > PATTERN_TOL]
        if len(support) == 1:
            table[pattern] = support[0]
    return table


def _bell_measurement(
    protocol: str,
    phi: float,
    od_b: float,
    p_de: float,
    phi1: float,
    input_state: str,
    ancilla: bool,
) -> ProtocolResult:
    """The two-router Bell measurement, with or without the two-photon witness ancilla.

    A pattern enters the decision table, and can herald, only with two main
    clicks and the ancilla clicking twice (with the witness) or not at all.
    """
    if input_state != "average" and input_state not in BELL_STATES:
        raise ValueError(f"unknown input state {input_state!r}")
    medium = _medium(phi, od_b, phi1, "diagonal", "same_polarization")
    witness = 2 if ancilla else 0
    records = {s: _run_bm_circuit(s, medium, p_de, phi1, ancilla) for s in BELL_STATES}
    dists: dict[str, dict[tuple, float]] = {}
    for s, recs in records.items():
        dist = dists[s] = {}
        for r in recs:
            main, main_clicks, anc_clicks = _split_ancilla(r.pattern)
            if main_clicks == 2 and anc_clicks == witness:
                dist[main] = dist.get(main, 0.0) + r.probability
    table = _decision_table(dists, ancilla)
    results: dict[str, ProtocolResult] = {}
    for s, recs in records.items():
        buckets = {"success": 0.0, "heralded_failure": 0.0, "false_positive": 0.0}  # ProtocolResult field order
        outcomes = []
        for r in recs:
            main, main_clicks, anc_clicks = _split_ancilla(r.pattern)
            verdict = table.get(main) if main_clicks == 2 and anc_clicks == witness else None
            kind = "heralded_failure" if verdict is None else "success" if verdict == s else "false_positive"
            buckets[kind] += r.probability
            outcomes.append(OutcomeRecord(r.pattern, r.probability, kind if verdict is None else f"{kind}:{verdict}"))
        results[s] = ProtocolResult(protocol, *buckets.values(), outcomes=outcomes)
    if input_state != "average":
        return results[input_state]
    n = len(results)
    return ProtocolResult(
        protocol=protocol,
        p_success=reduce(add, (r.p_success for r in results.values()), 0.0) / n,
        p_heralded_failure=reduce(add, (r.p_heralded_failure for r in results.values()), 0.0) / n,
        p_false_positive=reduce(add, (r.p_false_positive for r in results.values()), 0.0) / n,
        per_state=results,
    )


def run_bell_measurement(
    phi: float,
    od_b: float = math.inf,
    p_de: float = 1.0,
    phi1: float = 0.0,
    input_state: str = "average",
) -> ProtocolResult:
    """Two-router Bell measurement on a photon pair.

    ``input_state`` selects one Bell state or ``"average"`` for the uniform
    ensemble over all four; per-state results are attached either way.
    """
    return _bell_measurement("bell_measurement", phi, od_b, p_de, phi1, input_state, ancilla=False)


def _two_photon_ancilla() -> FockState:
    """Two photons bunched in one mode, symmetric over H and V."""
    mh, mv = ModeId(_ANCILLA, "H"), ModeId(_ANCILLA, "V")
    s = 1.0 / math.sqrt(2.0)
    return FockState((mh, mv), {(2, 0): complex(s), (0, 2): complex(s)})


def run_evl_bell_measurement(
    phi: float,
    od_b: float = math.inf,
    p_de: float = 1.0,
    input_state: str = "average",
) -> ProtocolResult:
    """Bell measurement upgraded by a two-photon witness ancilla.

    The ancilla certifies the polarization readout at the single-photon
    ports, so an orthogonally polarized pair there becomes a trusted herald
    instead of an ambiguity; both ancilla photons must be detected, which
    multiplies the success by the detection efficiency squared.
    """
    return _bell_measurement("evl_bell_measurement", phi, od_b, p_de, 0.0, input_state, ancilla=True)


# ------------------------------------------------------------------- GHZ

_GHZ_TARGETS = {
    # herald detector -> (output spatial, amplitude sign between components,
    # polarization pairing of the two spectator photons)
    ModeId("u", "+"): ("p", -1.0, "same"),
    ModeId("u", "-"): ("p", 1.0, "same"),
    ModeId("f", "+"): ("g", 1.0, "swapped"),
    ModeId("f", "-"): ("g", -1.0, "swapped"),
}


def _ghz_target(herald: ModeId, modes: tuple[ModeId, ...]) -> dict[tuple, complex]:
    """The GHZ state ``herald`` selects, as its two components' occupation tuples on the registry
    ``modes`` and their amplitudes.  A component with a photon in a mode that ``modes`` lacks is
    left out: no term on ``modes`` can match it."""
    out_sp, sign, pairing = _GHZ_TARGETS[herald]
    r_h, r_v, s_h, s_v = ModeId("r", "H"), ModeId("r", "V"), ModeId("s", "H"), ModeId("s", "V")
    out_h, out_v = ModeId(out_sp, "H"), ModeId(out_sp, "V")
    if pairing == "same":
        first, second = (r_h, s_h, out_h), (r_v, s_v, out_v)
    else:
        first, second = (r_v, s_h, out_h), (r_h, s_v, out_v)
    s = 1.0 / math.sqrt(2.0)
    have = set(modes)
    return {
        tuple(int(m in photons) for m in modes): amp
        for photons, amp in ((first, complex(s)), (second, complex(sign * s)))
        if have.issuperset(photons)
    }


def run_ghz(
    phi: float,
    od_b: float = math.inf,
    p_de: float = 1.0,
    phi1: float = 0.0,
    delay_transmission: float = 1.0,
) -> ProtocolResult:
    """Fuse two entangled photon pairs into a three-photon GHZ state.

    Halves of two Bell pairs meet on a polarizing beam splitter, pass one
    router each, and recombine on a second polarizing beam splitter.  A
    single click on the diagonal-basis herald detectors picks the fused
    branch; an optical switch routes the surviving photon out and points a
    guard detector at the port that must stay dark.  A guard click or a
    wrong click count heralds failure; an empty output behind a clean herald
    is the silent false-positive branch.
    """
    if not 0.0 <= delay_transmission <= 1.0:
        raise ValueError("delay_transmission must lie in [0, 1]")
    medium = _medium(phi, od_b, phi1, "hv", "any")
    state = bell_state("phi_plus", "r", "a").tensor(bell_state("phi_plus", "s", "b"))
    state = apply_pbs(state, "a", "b", "c", "d")
    state = apply_router(state, "c", "u", "w", medium, phi1)
    state = apply_router(state, "d", "p", "q", medium, phi1)
    state = apply_pbs(state, "w", "q", "f", "g")
    state = apply_rotation_45(state, "u")
    state = apply_rotation_45(state, "f")
    state = apply_detector_efficiency(state, ("u", "f"), p_de)
    records = measure_all(state, list(_GHZ_TARGETS), keep_posterior=True)

    succ = fp = herald_fail = 0.0
    fid_weighted = 0.0
    outcomes = []
    for rec in records:
        if rec.clicks() != 1:
            herald_fail += rec.probability
            outcomes.append(OutcomeRecord(rec.pattern, rec.probability, "heralded_failure"))
            continue
        herald = rec.pattern[0][0]
        out_sp = _GHZ_TARGETS[herald][0]
        guard_sp = "g" if out_sp == "p" else "p"
        post = rec.posterior
        post = apply_detector_efficiency(post, (guard_sp,), p_de)
        if delay_transmission < 1.0:
            post = apply_loss(post, out_sp, delay_transmission, tag="delay")
        guard_modes = [m for m in post.modes if m.spatial == guard_sp and not m.sink]
        for sub in measure_all(post, guard_modes, keep_posterior=True):
            prob = rec.probability * sub.probability
            if sub.clicks():
                herald_fail += prob
                outcomes.append(OutcomeRecord(rec.pattern + sub.pattern, prob, "heralded_failure"))
                continue
            inner = sub.posterior
            out_idx = [i for i, m in enumerate(inner.modes) if m.spatial == out_sp and not m.sink]
            filled = [(occ, a) for occ, a in inner.terms.items() if sum(occ[i] for i in out_idx) == 1]
            p_filled = reduce(add, (abs(a) ** 2 for _, a in filled), 0.0)
            p_empty = 1.0 - p_filled
            if p_filled > 0.0:
                # the overlap of the normalized filled branch with the target, summed in term order
                scale = 1.0 / math.sqrt(reduce(add, (a.real * a.real + a.imag * a.imag for _, a in filled), 0.0))
                target = _ghz_target(herald, inner.modes)
                overlap = reduce(add, ((a * scale).conjugate() * target[occ] for occ, a in filled if occ in target), 0.0j)
                fid = abs(overlap) ** 2
                succ += prob * p_filled
                fid_weighted += prob * p_filled * fid
                outcomes.append(OutcomeRecord(rec.pattern + sub.pattern, prob * p_filled, f"success:{herald.label()}"))
            if p_empty > PATTERN_TOL:
                fp += prob * p_empty
                outcomes.append(OutcomeRecord(rec.pattern + sub.pattern, prob * p_empty, "false_positive:empty_output"))
    return ProtocolResult(
        protocol="ghz",
        p_success=succ,
        p_heralded_failure=herald_fail,
        p_false_positive=fp,
        success_fidelity=(fid_weighted / succ) if succ > 0.0 else None,
        outcomes=outcomes,
    )


# ------------------------------------------------------------- composites


def simulated_cnot_success(phi: float, od_b: float = math.inf, p_de: float = 1.0, phi1: float = 0.0) -> float:
    """CNOT success from simulated building blocks: two fusions, three Bell measurements."""
    p_g = run_ghz(phi, od_b, p_de, phi1).p_success
    p_b = run_bell_measurement(phi, od_b, p_de, phi1).p_success
    return p_g ** 2 * p_b ** 3


def simulated_factorization_success(phi: float, od_b: float = math.inf, p_de: float = 1.0, phi1: float = 0.0) -> float:
    """Two-CNOT factoring circuit success from simulated building blocks."""
    return simulated_cnot_success(phi, od_b, p_de, phi1) ** 2
