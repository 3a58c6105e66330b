"""Output checks of the benchmark: closed forms, tolerances and pinned results.

Every check returns ``None`` when the output is right and a one-line reason
when it is not; the runner counts each non-``None`` answer as a failed job.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Optional

from nlrouter import analytics
from nlrouter.rydberg import loss_from_phase

ENGINE_TOL = 1e-10  # simulator against closed form
PARTITION_TOL = 1e-12  # |total() - 1| and router port probabilities
EXPONENT_TOL = 1e-6  # scaling exponents against their pins

# Exponents pinned by test_7_scaling_exponents in tests/test_acceptance.py.
EXPONENT_PINS = {
    "bell_measurement": {"infidelity": -0.897870710093957, "phase_gap": -0.313528007735373},
    "ghz": {"infidelity": -0.932393902230157, "phase_gap": -0.98566488752656},
}

ClosedForm = Callable[[str, float, float, float, float], float]


def expected_success(kind: str, phi: float, od_b: float, p_de: float, phi1: float) -> float:
    """Closed-form success of one simulator call; ``kind`` names the ``run_*`` function."""
    if kind == "run_bell_measurement":
        return analytics.p_bell_measurement(phi, od_b, p_de, phi1)
    if kind == "run_evl_bell_measurement":
        return analytics.p_evl_bell_measurement(phi, od_b, p_de)
    if kind == "run_ghz":
        return analytics.p_ghz(phi, od_b, p_de, phi1)
    raise ValueError(f"no closed form for {kind!r}")


def router_ports(phi: float, od_b: float) -> dict[tuple[int, int], float]:
    """Port-count probabilities of one resonant router (test_6 closed forms)."""
    tau = loss_from_phase(phi, od_b).tau
    a = 0.5 * (math.sqrt(1.0 - tau) * math.cos(phi) - 1.0)
    b = 0.5 * (math.sqrt(1.0 - tau) * math.cos(phi) + 1.0)
    return {(2, 0): b * b, (1, 1): 0.5 * (1.0 - tau) * math.sin(phi) ** 2, (0, 2): a * a}


def check_protocol(
    kind: str,
    result,
    phi: float,
    od_b: float,
    p_de: float,
    phi1: float,
    closed_form: ClosedForm = expected_success,
) -> Optional[str]:
    """A ``ProtocolResult`` must match its closed form and partition unity."""
    delta = abs(result.p_success - closed_form(kind, phi, od_b, p_de, phi1))
    if not delta < ENGINE_TOL:
        return f"{kind}: |sim - formula| = {delta:.3e} at phi={phi!r} od_b={od_b!r} p_de={p_de!r} phi1={phi1!r}"
    residual = abs(result.total() - 1.0)
    if not residual < PARTITION_TOL:
        return f"{kind}: |total - 1| = {residual:.3e} at phi={phi!r} od_b={od_b!r} p_de={p_de!r}"
    return None


def check_router(probs: dict, phi: float, od_b: float) -> Optional[str]:
    for key, want in router_ports(phi, od_b).items():
        delta = abs(probs.get(key, 0.0) - want)
        if not delta < PARTITION_TOL:
            return f"run_router: port {key} off by {delta:.3e} at phi={phi!r} od_b={od_b!r}"
    return None


def check_bytes(name: str, got: bytes, want: bytes) -> Optional[str]:
    if got == want:
        return None
    at = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
    return f"{name}: output differs from the reference at byte {at} ({len(got)} vs {len(want)} bytes)"


def check_digest(name: str, got: bytes, want_sha256: str) -> Optional[str]:
    digest = hashlib.sha256(got).hexdigest()
    return None if digest == want_sha256 else f"{name}: sha256 {digest} != pinned {want_sha256}"


def check_exponent(name: str, value: float, pin: float) -> Optional[str]:
    delta = abs(value - pin)
    return None if delta < EXPONENT_TOL else f"{name}: exponent {value!r} is {delta:.3e} from pin {pin!r}"


def footer_value(text: str, key: str) -> float:
    """The number in a ``# key = value`` footer line of CLI output."""
    prefix = f"# {key} = "
    for line in text.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    raise ValueError(f"no {key!r} footer")
