"""Closed-form success probabilities of the entangling protocols.

All formulas are exact expectations over the ideal input ensembles; the
circuit simulations in :mod:`nlrouter.protocols` must agree with them to
numerical precision.  Parameters: conditional phase ``phi``, blockaded
optical depth ``od_b`` (sets absorption through the phase-loss circle),
per-photon detection efficiency ``p_de`` and optional single-photon detuning
phase ``phi1`` for the rebalanced operating point.

:data:`PROTOCOLS` is the one protocol table: each :class:`Protocol` record
pairs a closed form with the circuit that must agree with it, under its
library name and its CLI alias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Any, Callable, Sequence

from . import protocols
from .rydberg import detuned_params, loss_from_phase

__all__ = [
    "p_bell_measurement",
    "p_evl_bell_measurement",
    "p_ghz",
    "p_cnot",
    "p_factorization",
    "p_router",
    "Protocol",
    "PROTOCOLS",
    "loglog_fit",
    "log_grid",
    "OptimalPhaseResult",
    "find_optimal_phase",
    "ScalingFit",
    "fit_scaling_exponent",
]


def _interference_terms(phi: float, od_b: float, phi1: float) -> tuple[float, float, float, float]:
    """Single-photon survival, pair amplitude, split-pair weight and pair survival of one router.

    Returns (1 - tau1, sqrt((1-tau1)(1-tau2)) * cos(phi), (1-tau1)(1-tau2) * sin^2(phi), 1 - tau2).
    """
    _, tau1, _, tau2 = detuned_params(phi, od_b, phi1)
    t1sq = 1.0 - tau1
    t2sq = 1.0 - tau2
    tpair = math.sqrt(t1sq * t2sq)
    return t1sq, tpair * math.cos(phi), t1sq * t2sq * math.sin(phi) ** 2, t2sq


def p_router(phi: float, od_b: float = math.inf, phi1: float = 0.0) -> dict[tuple[int, int], float]:
    """Port-count probabilities of a photon pair sent through one router.

    Keys are (photons at single port, photons at pair port), as returned by
    :func:`nlrouter.protocols.run_router`; only the three both-survive
    outcomes are given.
    """
    t1sq, x, split, _ = _interference_terms(phi, od_b, phi1)
    a = 0.5 * (x - t1sq)
    b = 0.5 * (x + t1sq)
    return {(2, 0): b * b, (1, 1): 0.5 * split, (0, 2): a * a}


def p_bell_measurement(phi: float, od_b: float = math.inf, p_de: float = 1.0, phi1: float = 0.0) -> float:
    """Average success probability of the two-router Bell measurement.

    The four Bell states are equally likely.  The antisymmetric states
    succeed whenever both photons survive; the symmetric ones additionally
    lose the branch where the photon pair exits the wrong router port.
    """
    if not 0.0 <= p_de <= 1.0:
        raise ValueError("p_de must lie in [0, 1]")
    return _bm(_interference_terms(phi, od_b, phi1), p_de)


def _bm(terms: tuple[float, float, float, float], p_de: float) -> float:
    """:func:`p_bell_measurement` from one router's interference terms."""
    t1sq, x, _, t2sq = terms
    b = 0.5 * (x + t1sq)
    p_surv_pair = 0.5 * (t1sq * t1sq + t1sq * t2sq)
    p_anti = t1sq * t1sq
    p_sym = p_surv_pair - b * b
    return p_de * p_de * 0.5 * (p_anti + p_sym)


def p_evl_bell_measurement(phi: float, od_b: float = math.inf, p_de: float = 1.0) -> float:
    """Bell-measurement success with a two-photon ancilla certifying one port.

    The ancilla lifts the symmetric-state port ambiguity, at the price of two
    extra detected photons (hence the p_de**4 scale).  No detuned variant.
    """
    if not 0.0 <= p_de <= 1.0:
        raise ValueError("p_de must lie in [0, 1]")
    cp = loss_from_phase(phi, od_b)
    tau = cp.tau
    b = 0.5 * (math.sqrt(1.0 - tau) * math.cos(phi) + 1.0)
    return p_de ** 4 * (1.0 - tau / 4.0 - b * b / 4.0)


def p_ghz(phi: float, od_b: float = math.inf, p_de: float = 1.0, phi1: float = 0.0) -> float:
    """Success probability of fusing two photonic qubits into a GHZ state."""
    if not 0.0 <= p_de <= 1.0:
        raise ValueError("p_de must lie in [0, 1]")
    return _ghz(_interference_terms(phi, od_b, phi1), p_de)


def _ghz(terms: tuple[float, float, float, float], p_de: float) -> float:
    """:func:`p_ghz` from one router's interference terms."""
    t1sq, x, _, _ = terms
    a = x - t1sq
    return p_de * (0.5 * t1sq * t1sq + a * a / 8.0)


def p_cnot(phi: float, od_b: float = math.inf, p_de: float = 1.0, phi1: float = 0.0) -> float:
    """Heralded CNOT from two GHZ fusions and three Bell measurements."""
    if not 0.0 <= p_de <= 1.0:
        raise ValueError("p_de must lie in [0, 1]")
    terms = _interference_terms(phi, od_b, phi1)  # one router: both fusions and measurements share it
    return _ghz(terms, p_de) ** 2 * _bm(terms, p_de) ** 3


def p_factorization(phi: float, od_b: float = math.inf, p_de: float = 1.0, phi1: float = 0.0) -> float:
    """Success probability of a two-CNOT factoring circuit."""
    return p_cnot(phi, od_b, p_de, phi1) ** 2


@dataclass(frozen=True)
class Protocol:
    """One protocol: its closed form and the circuit that must agree with it.

    ``name`` is the library name :func:`find_optimal_phase` takes and
    ``alias`` the CLI name.  ``formula`` and ``simulate`` take the operating
    point fields named in ``args``, in that order; a protocol takes the
    single-photon phase phi1 exactly when ``args`` names it.  The router
    returns port-count probabilities, the others a success probability.
    """

    name: str
    alias: str
    formula: Callable[..., Any]
    simulate: Callable[..., Any]
    args: tuple[str, ...] = ("phi", "od_b", "p_de", "phi1")


# The simulators look ``protocols.run_*`` up at call time, so a wrapper
# installed on that module sees every circuit run through this table.
PROTOCOLS: tuple[Protocol, ...] = (
    Protocol("bell_measurement", "bm", p_bell_measurement, lambda *a: protocols.run_bell_measurement(*a).p_success),
    Protocol("evl_bell_measurement", "evl", p_evl_bell_measurement, lambda *a: protocols.run_evl_bell_measurement(*a).p_success, ("phi", "od_b", "p_de")),
    Protocol("ghz", "ghz", p_ghz, lambda *a: protocols.run_ghz(*a).p_success),
    Protocol("cnot", "cnot", p_cnot, protocols.simulated_cnot_success),
    Protocol("factorization", "factorization", p_factorization, protocols.simulated_factorization_success),
    Protocol("router", "router", p_router, lambda phi, od_b, phi1: protocols.run_router(phi, od_b, 2, phi1), ("phi", "od_b", "phi1")),
)


@dataclass(frozen=True)
class OptimalPhaseResult:
    protocol: str
    od_b: float
    phi_opt: float
    p_opt: float


def find_optimal_phase(protocol: str, od_b: float, p_de: float = 1.0) -> OptimalPhaseResult:
    """Phase maximizing a protocol's success at fixed optical depth.

    Coarse grid scan over the reachable phase range followed by
    golden-section refinement to phase accuracy ~1e-9.  ``protocol`` names
    a :data:`PROTOCOLS` record whose closed form takes p_de.
    """
    f = next((p.formula for p in PROTOCOLS if p.name == protocol and "p_de" in p.args), None)
    if f is None:
        raise ValueError(f"unknown protocol {protocol!r}")
    hi = math.pi if math.isinf(od_b) else min(math.pi, od_b / 4.0)
    n = 10_000
    best_i, best_v = 0, -1.0
    for i in range(1, n):
        phi = hi * i / n
        v = f(phi, od_b, p_de)
        if v > best_v:
            best_i, best_v = i, v
    if f(hi, od_b, p_de) > best_v:  # the last point is hi itself, which hi * n / n can round above
        best_i = n
    lo_b = hi * max(best_i - 1, 1) / n
    hi_b = hi if best_i + 1 >= n else hi * (best_i + 1) / n
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo_b, hi_b
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c, od_b, p_de), f(d, od_b, p_de)
    while b - a > 1e-9:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c, od_b, p_de)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d, od_b, p_de)
    phi_opt = 0.5 * (a + b)
    return OptimalPhaseResult(protocol=protocol, od_b=od_b, phi_opt=phi_opt, p_opt=f(phi_opt, od_b, p_de))


def log_grid(start: float, stop: float, n: int) -> list[float]:
    """``n >= 2`` log-spaced points from ``start`` to ``stop``, both ends exact.

    Fewer than two points, a start or stop that is not finite and positive,
    or a stop/start ratio that overflows to infinity or underflows to zero
    raise ValueError.
    """
    if n < 2:
        raise ValueError(f"a log grid needs at least 2 points, got {n}")
    if not (0.0 < start < math.inf and 0.0 < stop < math.inf):
        raise ValueError(f"a log grid needs a finite, positive start and stop, got {start!r} and {stop!r}")
    ratio = stop / start
    if not 0.0 < ratio < math.inf:
        raise ValueError(f"a log grid needs a finite, nonzero stop/start ratio, got {start!r} and {stop!r}")
    return [start * ratio ** (i / (n - 1)) for i in range(n - 1)] + [stop]


def loglog_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares (slope, intercept) of log y against log x.

    Points with y <= 0 are skipped; fewer than two usable points, or all at
    one x, give (nan, nan).
    """
    pairs = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if y > 0.0]
    n = len(pairs)
    if n < 2:
        return math.nan, math.nan
    mx = reduce(add, (p[0] for p in pairs), 0.0) / n
    my = reduce(add, (p[1] for p in pairs), 0.0) / n
    sxx = reduce(add, ((p[0] - mx) ** 2 for p in pairs), 0.0)
    if sxx == 0.0:
        return math.nan, math.nan
    slope = reduce(add, ((p[0] - mx) * (p[1] - my) for p in pairs), 0.0) / sxx
    return slope, my - slope * mx


@dataclass(frozen=True)
class ScalingFit:
    """Power-law fit of the optimized failure probability versus optical depth."""

    protocol: str
    exponent: float
    prefactor: float
    od_values: tuple[float, ...]


def fit_scaling_exponent(
    protocol: str,
    od_min: float = 60.0,
    od_max: float = 2000.0,
    n_points: int = 20,
) -> ScalingFit:
    """Fit 1 - p_opt(od_b) ~ prefactor * od_b**exponent on a log-spaced grid."""
    ods = log_grid(od_min, od_max, n_points)
    slope, intercept = loglog_fit(ods, [1.0 - find_optimal_phase(protocol, od).p_opt for od in ods])
    if math.isnan(slope):
        raise ValueError("need two distinct optical depths with nonzero failure probability")
    return ScalingFit(protocol=protocol, exponent=slope, prefactor=math.exp(intercept), od_values=tuple(ods))
