"""Phase-loss circle and detuned operating-point tests."""

import math
import pickle
import random

import pytest

from nlrouter.rydberg import _MAX_RADIUS, CirclePoint, DetunedParams, _circle, detuned_params, loss_from_phase

TOL = 1e-12


def test_zero_phase_endpoints():
    od = 8.0
    assert abs(loss_from_phase(0.0, od, "lower").eps - 0.0) < TOL
    assert abs(loss_from_phase(0.0, od, "upper").eps - od) < TOL


def test_apex_joins_branches():
    od = 3.5
    apex = od / 4.0
    lo = loss_from_phase(apex, od, "lower")
    hi = loss_from_phase(apex, od, "upper")
    assert abs(lo.eps - hi.eps) < TOL
    assert abs(lo.eps - od / 2.0) < TOL


def test_circle_residual_random_points():
    rng = random.Random(20260826)
    for _ in range(2000):
        od = rng.uniform(1.0, 100.0)
        phi = rng.uniform(-od / 4.0, od / 4.0)
        branch = rng.choice(("lower", "upper"))
        cp = loss_from_phase(phi, od, branch)
        residual = (cp.eps / 2.0 - od / 4.0) ** 2 + phi ** 2 - (od / 4.0) ** 2
        assert abs(residual) < TOL
        assert abs(cp.tau - (1.0 - math.exp(-cp.eps))) < TOL


def test_unreachable_phase_raises():
    # reaching phi = pi needs od_b of at least 4*pi
    with pytest.raises(ValueError, match="unreachable"):
        loss_from_phase(math.pi, 4.0 * math.pi - 1e-9)
    loss_from_phase(math.pi, 4.0 * math.pi)  # apex of the circle, maximal loss


def test_lossless_limit():
    cp = loss_from_phase(2.5, math.inf)
    assert cp.eps == 0.0 and cp.tau == 0.0


def test_invalid_inputs():
    with pytest.raises(ValueError, match="positive"):
        loss_from_phase(0.1, -1.0)
    with pytest.raises(ValueError, match="branch"):
        loss_from_phase(0.1, 8.0, branch="middle")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: loss_from_phase(0.1, math.nan), "od_b must be positive"),
        (lambda: loss_from_phase(math.nan, 30.0), "phi must not be NaN"),
        (lambda: loss_from_phase(math.nan, math.inf), "phi must not be NaN"),
        (lambda: detuned_params(1.0, math.nan, 0.0), "od_b must be positive"),
        (lambda: detuned_params(math.nan, math.inf, 0.0), "phi must not be NaN"),
        (lambda: detuned_params(1.0, 30.0, math.nan), "phi must not be NaN"),
        (lambda: loss_from_phase(1.0, 1e308), "od_b=1e.308 too large"),
        (lambda: loss_from_phase(0.0, 5.37e154, "upper"), "too large"),
        (lambda: detuned_params(1.0, 1e308, 0.1), "too large"),
        (lambda: detuned_params(1.0, -1.0, 0.0), "od_b must be positive"),
        (lambda: detuned_params(1.0, 1e308, 0.0), "od_b=1e.308 too large"),
        (lambda: detuned_params(math.nan, 1e308, 0.0), "too large"),
    ],
    ids=["circle-od_b", "circle-phi", "circle-phi-lossless", "detuned-od_b", "detuned-phi", "detuned-phi1",
         "circle-od_b-overflow", "circle-od_b-overflow-upper", "detuned-od_b-overflow",
         "resonant-od_b", "resonant-od_b-overflow", "resonant-nan-phi-od_b-overflow"],
)
def test_nan_is_refused(call, message):
    # a NaN od_b used to slip past `od_b <= 0` and give a NaN record, and a finite
    # od_b whose (od_b/4)^2 overflows gave eps = tau = -inf
    with pytest.raises(ValueError, match=message):
        call()


def test_largest_finite_od_b_is_on_the_circle():
    # 4 * sqrt(max float) is the largest od_b whose (od_b/4)^2 is finite
    top = 4.0 * math.sqrt(1.7976931348623157e308)
    for od in (5e154, top):
        for branch in ("lower", "upper"):
            cp = loss_from_phase(1.0, od, branch)
            assert math.isfinite(cp.eps) and 0.0 <= cp.tau <= 1.0
        assert all(0.0 <= t <= 1.0 for t in detuned_params(1.0, od, 0.1)[1::2])
    with pytest.raises(ValueError, match="too large"):
        loss_from_phase(1.0, math.nextafter(top, math.inf))


class TestRecords:
    """The circle records are named tuples: fields, repr and pickling as the frozen dataclasses had them."""

    def test_fields_keywords_and_repr(self):
        assert CirclePoint._fields == ("phi", "eps", "tau")
        assert DetunedParams._fields == ("phi1", "tau1", "phi2", "tau2")
        cp = CirclePoint(phi=0.5, eps=1.25, tau=0.75)
        assert repr(cp) == "CirclePoint(phi=0.5, eps=1.25, tau=0.75)"
        d = DetunedParams(phi1=-0.25, tau1=0.0, phi2=1.0, tau2=0.5)
        assert repr(d) == "DetunedParams(phi1=-0.25, tau1=0.0, phi2=1.0, tau2=0.5)"
        assert d.phi == 1.25
        assert repr(loss_from_phase(2.5, math.inf)) == "CirclePoint(phi=2.5, eps=0.0, tau=0.0)"

    def test_pickle_round_trip(self):
        for record in (loss_from_phase(1.0, 30.0), detuned_params(1.0, 30.0, -1.0 / 11)):
            copy = pickle.loads(pickle.dumps(record))
            assert type(copy) is type(record) and copy == record

    def test_fields_are_read_only(self):
        cp, d = loss_from_phase(1.0, 30.0), detuned_params(1.0, 30.0, 0.0)
        with pytest.raises(AttributeError):
            cp.tau = 0.0
        with pytest.raises(AttributeError):
            d.tau2 = 0.0

    def test_a_record_equals_the_plain_tuple_of_its_values(self):
        # the one change from the dataclasses: tuple equality and unpacking
        cp = loss_from_phase(2.5, math.inf)
        assert cp == (2.5, 0.0, 0.0)
        phi, eps, tau = cp
        assert (phi, eps, tau) == (2.5, 0.0, 0.0)


def test_detuned_params_conditional_phase():
    d = detuned_params(math.pi / 3, 30.0, -0.1)
    assert abs(d.phi - math.pi / 3) < TOL
    assert abs(d.phi2 - (math.pi / 3 - 0.1)) < TOL
    # both points sit on the same circle
    for phi, tau in ((d.phi1, d.tau1), (d.phi2, d.tau2)):
        cp = loss_from_phase(phi, 30.0)
        assert abs(cp.tau - tau) < TOL


def test_detuned_resonant_limit_has_lossless_singles():
    d = detuned_params(1.2, 30.0, 0.0)
    assert d.tau1 == 0.0
    assert d.tau2 > 0.0


def _two_circle_reference(phi: float, od_b: float, phi1: float) -> DetunedParams:
    """detuned_params with both circle points computed: the definition the phi1 = 0 shortcut must match."""
    tau1 = _circle(phi1, od_b, "lower")[1]
    phi2 = phi + phi1
    return DetunedParams(phi1, tau1, phi2, _circle(phi2, od_b, "lower")[1])


def _outcome(f, *args):
    """The float.hex of every field, signs of zero included, or the refusal message."""
    try:
        return [x.hex() for x in f(*args)]
    except ValueError as exc:
        return str(exc)


def test_resonant_point_matches_two_circle_points_bit_for_bit():
    # from subnormal od_b, through od_b near 1e-160 where (od_b/4)^2 underflows,
    # to the largest finite od_b and the lossless limit
    ods = [5e-324, 1e-320, 2.2250738585072014e-308, 1e-200, 4e-160, 1e-160, 1e-155, 0.5, 4.0 * math.pi, 30.0, 1e154]
    ods += [10.0 ** (k / 8.0) for k in range(-323 * 8, 155 * 8)]
    ods += [4.0 * _MAX_RADIUS, math.nextafter(4.0 * _MAX_RADIUS, math.inf), math.inf]
    for od_b in ods:
        for phi in (0.0, -0.0, 1.0, math.pi, od_b / 4.0, -od_b / 8.0, math.nan):
            for phi1 in (0.0, -0.0):
                got = _outcome(detuned_params, phi, od_b, phi1)
                assert got == _outcome(_two_circle_reference, phi, od_b, phi1), (phi, od_b, phi1)
                if not isinstance(got, str):
                    assert got[1] == "0x0.0p+0"  # tau1 is +0.0
