"""Phase-loss tradeoff of the blockade-based conditional-phase medium.

The attainable conditional phase phi and pair absorption epsilon of the
medium lie on a circle set by the blockaded optical depth: the absorbed
fraction is tau = 1 - exp(-eps) with

    eps/2 = od_b/4 -+ sqrt((od_b/4)^2 - phi^2).

The lower branch (smaller loss) is the physically preferred operating point.
Phases with |phi| > od_b/4 are unreachable; phi = pi needs od_b > 4*pi.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

__all__ = [
    "CirclePoint",
    "DetunedParams",
    "loss_from_phase",
    "detuned_params",
]


class CirclePoint(NamedTuple):
    """One operating point: conditional phase, loss exponent, absorbed fraction."""

    phi: float
    eps: float
    tau: float


class DetunedParams(NamedTuple):
    """Single-photon and pair channel parameters at a detuned operating point.

    phi1/tau1 apply to every photon individually, phi2/tau2 to the second
    photon of a blockaded pair; the observable conditional phase of the pair
    is phi = phi2 - phi1.
    """

    phi1: float
    tau1: float
    phi2: float
    tau2: float

    @property
    def phi(self) -> float:
        return self.phi2 - self.phi1


_MAX_RADIUS = math.sqrt(sys.float_info.max)  # the largest od_b/4 whose square is finite


def _circle(phi: float, od_b: float, branch: str) -> tuple[float, float]:
    """(eps, tau) at conditional phase ``phi``: the checks and arithmetic of :func:`loss_from_phase`."""
    if not od_b > 0.0:
        raise ValueError("od_b must be positive")
    if math.isnan(phi):
        raise ValueError("phi must not be NaN")
    if math.isinf(od_b):
        return 0.0, 0.0
    radius = od_b / 4.0
    if radius > _MAX_RADIUS:
        raise ValueError(f"od_b={od_b:g} too large: (od_b/4)^2 overflows; od_b <= {4.0 * _MAX_RADIUS:g} required")
    if abs(phi) > radius:
        raise ValueError(f"phase {phi:g} unreachable at od_b={od_b:g}; |phi| <= od_b/4 required")
    root = math.sqrt(radius * radius - phi * phi)
    if branch == "lower":
        eps = 2.0 * (radius - root)
    elif branch == "upper":
        eps = 2.0 * (radius + root)
    else:
        raise ValueError(f"branch must be 'lower' or 'upper', got {branch!r}")
    return eps, 1.0 - math.exp(-eps)


def _reachable(phi: float, od_b: float, phi1: float) -> bool:
    """Whether :func:`detuned_params` finds both points on the circle: |phi1| and |phi + phi1| at most od_b/4."""
    return abs(phi1) <= od_b / 4.0 and abs(phi + phi1) <= od_b / 4.0


def loss_from_phase(phi: float, od_b: float, branch: str = "lower") -> CirclePoint:
    """Loss exponent and absorbed fraction at conditional phase ``phi``.

    ``od_b`` is the blockaded optical depth; ``od_b = inf`` gives the
    lossless limit tau = 0 for any phase.  Raises ValueError when ``phi``
    lies outside the reachable range |phi| <= od_b/4, for a NaN ``phi`` or
    ``od_b``, and for a finite ``od_b`` whose (od_b/4)^2 overflows (above
    about 5.36e154).
    """
    eps, tau = _circle(phi, od_b, branch)
    return CirclePoint(phi, eps, tau)


def detuned_params(phi: float, od_b: float, phi1: float) -> DetunedParams:
    """Operating point where single photons already pick up phase ``phi1``.

    Both the single-photon point (at phi1) and the pair point (at
    phi2 = phi + phi1) must sit on the lower branch of the phase-loss
    circle; the residual single-photon phase is compensated elsewhere in
    the interferometer, so only the loss pair (tau1, tau2) and the
    conditional phase survive.  ``phi1 = 0`` gives tau1 exactly 0.0.
    """
    phi2 = phi + phi1
    if phi1 == 0.0 and phi2 == phi2:
        # The circle's origin (r = od_b/4): sqrt(fl(r*r)) == r, so eps is 0,
        # or tiny where r*r underflows, and tau1 rounds to +0.0 either way.
        # The phi2 call raises every refusal of this point, in the same order;
        # a NaN phi2 takes the long way, where an overflowing od_b is refused first.
        tau1 = 0.0
    else:
        tau1 = _circle(phi1, od_b, "lower")[1]
    return DetunedParams(phi1, tau1, phi2, _circle(phi2, od_b, "lower")[1])

