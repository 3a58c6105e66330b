"""Element-level tests for the sparse Fock engine."""

import copy
import math
import os
import pickle
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from operator import add
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlrouter import fock
from nlrouter.fock import (
    FockState,
    OutcomeRecord,
    ModeId,
    NonlinearMediumSpec,
    apply_beamsplitter,
    apply_detector_efficiency,
    apply_loss,
    apply_nonlinear_medium,
    apply_pbs,
    apply_phase,
    apply_rotation_45,
    measure_all,
)

TOL = 1e-12


def one_photon(spatial, pol):
    return FockState.from_occupations({ModeId(spatial, pol): 1})


def amplitude(state, **occupied):
    # occupied: label -> count, label like "u_H"
    for occ, amp in state.terms.items():
        found = {}
        for n, m in zip(occ, state.modes):
            if n:
                found[m.label()] = n
        if found == occupied:
            return amp
    return 0.0j


# FockState has no state algebra; these helpers read its terms.  ensure_modes,
# prune and scaled serve the dense references below.


def norm_squared(state):
    return reduce(add, (a.real * a.real + a.imag * a.imag for a in state.terms.values()), 0.0)


def photon_numbers(state):
    """The set of total photon numbers over the basis terms."""
    return {sum(occ) for occ in state.terms}


def ensure_modes(state, new_modes):
    """``state`` on its registry followed by each of ``new_modes`` it lacks (once, in listed order), empty."""
    have = set(state.modes)
    missing = tuple(dict.fromkeys(m for m in new_modes if m not in have))
    pad = (0,) * len(missing)
    return FockState(state.modes + missing, {occ + pad: a for occ, a in state.terms.items()}) if missing else state


def prune(state, tol=fock.PRUNE_TOL):
    """``state`` without the terms whose amplitude is not above ``tol`` (NaN included), in order."""
    return FockState(state.modes, {occ: a for occ, a in state.terms.items() if abs(a) > tol})


def scaled(state, factor):
    return FockState(state.modes, {occ: a * factor for occ, a in state.terms.items()})


def linear_map(state, mapping):
    """Apply the linear map on creation operators that replaces each key of ``mapping`` by its
    (target, coefficient) combination: the engine's linear layout and tape, with no element's rules."""
    tape = fock._layout(fock._front, state._sig, tuple((m, tuple(t for t, _ in outs)) for m, outs in mapping.items()))
    return fock._linear(state, tape, tuple(c for outs in mapping.values() for _, c in outs))


class TestBeamsplitter:
    def test_single_photon_split(self):
        s = apply_beamsplitter(one_photon("a", "H"), "a", "b", "c", "d")
        assert abs(amplitude(s, d_H=1) - 1 / math.sqrt(2)) < TOL
        assert abs(amplitude(s, c_H=1) - 1j / math.sqrt(2)) < TOL

    def test_hom_bunching(self):
        # identical photons at the two inputs never exit separately
        s = FockState.from_occupations({ModeId("a", "H"): 1, ModeId("b", "H"): 1})
        s = apply_beamsplitter(s, "a", "b", "c", "d")
        assert abs(amplitude(s, c_H=1, d_H=1)) < TOL
        assert abs(abs(amplitude(s, c_H=2)) ** 2 - 0.5) < TOL
        assert abs(norm_squared(s) - 1.0) < TOL

    def test_distinguishable_photons_split(self):
        s = FockState.from_occupations({ModeId("a", "H"): 1, ModeId("b", "V"): 1})
        s = apply_beamsplitter(s, "a", "b", "c", "d")
        assert abs(abs(amplitude(s, c_H=1, d_V=1)) ** 2 - 0.25) < TOL

    def test_mach_zehnder_routes_single_photon(self):
        s = apply_beamsplitter(one_photon("c", "+"), None, "c", "f", "g")
        s = apply_beamsplitter(s, "g", "f", "w", "u")
        assert abs(amplitude(s, **{"u_+": 1}) - 1j) < TOL

    @pytest.mark.parametrize("m,n", [(3, 0), (2, 1)])
    def test_multi_photon_input_matches_binomial_expansion(self, m, n):
        # a -> (d + i c)/sqrt2 and b -> (c + i d)/sqrt2 on creation operators,
        # so |m,n> goes to sum over k + l = p of C(m,k) C(n,l) i^(k+n-l) times
        # sqrt(p! q! / (m! n!)) / 2^((m+n)/2) on |p,q> with p + q = m + n
        s = FockState.from_occupations({ModeId("a", "H"): m, ModeId("b", "H"): n})
        s = apply_beamsplitter(s, "a", "b", "c", "d")
        total = m + n
        for p in range(total + 1):
            q = total - p
            ks = range(max(0, p - n), min(m, p) + 1)
            coeff = sum(math.comb(m, k) * math.comb(n, p - k) * 1j ** (k + n - (p - k)) for k in ks)
            norm = math.sqrt(math.factorial(p) * math.factorial(q) / (math.factorial(m) * math.factorial(n)))
            expected = coeff * norm / 2 ** (total / 2)
            labels = {label: count for label, count in (("c_H", p), ("d_H", q)) if count}
            assert abs(amplitude(s, **labels) - expected) < TOL
        assert len(s.terms) == total + 1
        assert abs(norm_squared(s) - 1.0) < TOL


class TestPolarizationOptics:
    def test_pbs_transmits_h_reflects_v(self):
        s = apply_pbs(one_photon("a", "H"), "a", "b", "c", "d")
        assert abs(amplitude(s, d_H=1) - 1.0) < TOL
        s = apply_pbs(one_photon("a", "V"), "a", "b", "c", "d")
        assert abs(amplitude(s, c_V=1) - 1j) < TOL

    def test_pbs_rejects_diagonal_input(self):
        s = apply_rotation_45(one_photon("a", "H"), "a")
        with pytest.raises(ValueError, match="expected H/V"):
            apply_pbs(s, "a", "b", "c", "d")

    def test_rotation_is_self_inverse(self):
        s = one_photon("x", "V")
        s2 = apply_rotation_45(apply_rotation_45(s, "x"), "x")
        assert abs(amplitude(s2, x_V=1) - 1.0) < TOL

    def test_rotation_maps_h_to_symmetric_combination(self):
        s = apply_rotation_45(one_photon("x", "H"), "x")
        assert abs(amplitude(s, **{"x_+": 1}) - 1 / math.sqrt(2)) < TOL
        assert abs(amplitude(s, **{"x_-": 1}) - 1 / math.sqrt(2)) < TOL

    def test_unpolarized_photon_is_refused(self):
        s = FockState.from_occupations({ModeId("a"): 1, ModeId("b", "H"): 1})
        with pytest.raises(ValueError, match="expected H/V"):
            apply_pbs(s, "a", "b", "c", "d")
        with pytest.raises(ValueError, match="expected H/V"):
            apply_pbs(s, "b", "a", "c", "d")
        with pytest.raises(ValueError, match="expected all H/V or all"):
            apply_rotation_45(s, "a")

    def test_photon_free_submodes_are_left_alone(self):
        # a registry submode without photons is neither mapped nor grown
        s = FockState.from_occupations({ModeId("a"): 0, ModeId("b", "H"): 0, ModeId("b", "V"): 1})
        for out in (apply_loss(s, "a", 0.5), apply_beamsplitter(s, "a", None, "c", "d"), apply_rotation_45(s, "a")):
            assert out.modes == s.modes and out.terms == s.terms
        out = apply_pbs(s, "b", "a", "c", "d")
        assert out.modes == s.modes + (ModeId("c", "V"),)
        assert out.terms == {(0, 0, 0, 1): 1j}
        out = apply_nonlinear_medium(s, "a", MEDIUM)
        assert out.modes == s.modes and out.terms == s.terms
        out = apply_nonlinear_medium(s, "b", NonlinearMediumSpec(0.25, 0.15, 0.9, 0.3, interaction_basis="hv"))
        assert out.modes == s.modes + tuple(ModeId("b", "V", sink=True, tag=k) for k in ("single", "pair"))


MEDIUM = NonlinearMediumSpec(phi1=0.25, tau1=0.15, phi2=0.9, tau2=0.3, interaction_basis="diagonal")


class TestNonlinearMedium:
    def test_single_photon_phase_and_survival(self):
        s = apply_nonlinear_medium(one_photon("f", "+"), "f", MEDIUM, sign=1)
        keep = amplitude(s, **{"f_+": 1})
        expected = math.sqrt(1 - MEDIUM.tau1) * complex(math.cos(MEDIUM.phi1), math.sin(MEDIUM.phi1))
        assert abs(keep - expected) < TOL
        assert abs(norm_squared(s) - 1.0) < TOL

    def test_arm_sign_mirrors_phase(self):
        plus = apply_nonlinear_medium(one_photon("f", "+"), "f", MEDIUM, sign=1)
        minus = apply_nonlinear_medium(one_photon("f", "+"), "f", MEDIUM, sign=-1)
        a, b = amplitude(plus, **{"f_+": 1}), amplitude(minus, **{"f_+": 1})
        assert abs(a - b.conjugate()) < TOL

    def test_pair_conditional_phase(self):
        s = FockState.from_occupations({ModeId("f", "+"): 2})
        s = apply_nonlinear_medium(s, "f", MEDIUM, sign=1)
        keep = amplitude(s, **{"f_+": 2})
        mag = math.sqrt((1 - MEDIUM.tau1) * (1 - MEDIUM.tau2))
        total = MEDIUM.phi1 + MEDIUM.phi2
        assert abs(keep - mag * complex(math.cos(total), math.sin(total))) < TOL
        assert abs(norm_squared(s) - 1.0) < TOL

    def test_cross_polarized_pair_blockaded_when_coupling_any(self):
        spec = NonlinearMediumSpec(0.25, 0.15, 0.9, 0.3, interaction_basis="hv", pair_coupling="any")
        s = FockState.from_occupations({ModeId("f", "H"): 1, ModeId("f", "V"): 1})
        s = apply_nonlinear_medium(s, "f", spec, sign=1)
        keep = amplitude(s, f_H=1, f_V=1)
        mag = math.sqrt((1 - spec.tau1) * (1 - spec.tau2))
        total = spec.phi1 + spec.phi2
        assert abs(keep - mag * complex(math.cos(total), math.sin(total))) < TOL
        assert abs(norm_squared(s) - 1.0) < TOL

    def test_cross_polarized_pair_independent_under_self_phase_coupling(self):
        s = FockState.from_occupations({ModeId("f", "+"): 1, ModeId("f", "-"): 1})
        s = apply_nonlinear_medium(s, "f", MEDIUM, sign=1)
        keep = amplitude(s, **{"f_+": 1, "f_-": 1})
        single = math.sqrt(1 - MEDIUM.tau1) * complex(math.cos(MEDIUM.phi1), math.sin(MEDIUM.phi1))
        assert abs(keep - single * single) < TOL
        assert abs(norm_squared(s) - 1.0) < TOL

    def test_loss_branches_are_orthogonal_per_polarization(self):
        # losing an H photon and losing a V photon must not interfere
        spec = NonlinearMediumSpec(0.0, 0.5, 0.0, 0.5, interaction_basis="hv", pair_coupling="any")
        s = FockState.from_occupations({ModeId("f", "H"): 1, ModeId("f", "V"): 1})
        s = apply_nonlinear_medium(s, "f", spec, sign=1)
        sink_terms = [m for m in s.modes if m.sink]
        assert len({m.pol for m in sink_terms}) == 2
        assert abs(norm_squared(s) - 1.0) < TOL

    def test_wrong_basis_raises(self):
        with pytest.raises(ValueError, match="interaction basis"):
            apply_nonlinear_medium(one_photon("f", "H"), "f", MEDIUM)

    def test_a_photon_free_submode_outside_the_basis_is_not_refused(self):
        # f_H holds no photon, so the diagonal medium acts on f_+ alone, as on f_+ by itself
        s = FockState.from_occupations({ModeId("f", "+"): 1, ModeId("f", "H"): 0})
        out, alone = apply_nonlinear_medium(s, "f", MEDIUM), apply_nonlinear_medium(one_photon("f", "+"), "f", MEDIUM)
        assert out.modes == s.modes + alone.modes[1:]
        assert [(occ[:1] + occ[2:], a) for occ, a in out.terms.items()] == list(alone.terms.items())

    @pytest.mark.parametrize("field,value", [("interaction_basis", "circular"), ("pair_coupling", "anyy")])
    def test_bad_spec_field_is_refused_when_built(self, field, value):
        with pytest.raises(ValueError, match=f"unknown {field.replace('_', ' ')} '{value}'"):
            NonlinearMediumSpec(0.25, 0.15, 0.9, 0.3, **{field: value})

    @pytest.mark.parametrize(
        "field,value,match",
        [("tau1", math.nan, "must lie in"), ("tau1", 1.5, "must lie in"), ("tau2", -0.1, "must lie in"),
         ("phi1", math.nan, "must be finite"), ("phi2", math.inf, "must be finite")],
    )
    def test_bad_spec_value_is_refused_when_built(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            NonlinearMediumSpec(**{"phi1": 0.25, "tau1": 0.15, "phi2": 0.9, "tau2": 0.3, field: value})

    def test_an_arm_sign_other_than_plus_or_minus_one_is_refused(self):
        with pytest.raises(ValueError, match=r"^arm phase sign must be \+1 or -1$"):
            apply_nonlinear_medium(one_photon("f", "+"), "f", MEDIUM, sign=0)

    def test_three_photons_unsupported(self):
        s = FockState.from_occupations({ModeId("f", "+"): 3})
        with pytest.raises(ValueError, match="at most 2"):
            apply_nonlinear_medium(s, "f", MEDIUM)


class TestDetectionAndLoss:
    def test_detector_efficiency_binomial(self):
        s = FockState.from_occupations({ModeId("d1", "H"): 2})
        s = apply_detector_efficiency(s, ["d1"], 0.9)
        probs = {sum(n for _, n in r.pattern): r.probability for r in measure_all(s, [ModeId("d1", "H")])}
        assert abs(probs[2] - 0.81) < TOL
        assert abs(probs[1] - 0.18) < TOL
        assert abs(probs[0] - 0.01) < TOL

    def test_linear_loss_preserves_norm(self):
        s = FockState.from_occupations({ModeId("a", "H"): 2, ModeId("a", "V"): 1})
        s = apply_loss(s, "a", 0.6)
        assert abs(norm_squared(s) - 1.0) < TOL

    def test_phase_shifter(self):
        s = apply_phase(one_photon("a", "H"), "a", math.pi / 2)
        assert abs(amplitude(s, a_H=1) - 1j) < TOL


class TestStateAlgebra:
    def test_tensor_is_the_product_on_the_joined_registry(self):
        a, b = one_photon("a", "H"), one_photon("b", "V")
        t = a.tensor(b)
        assert t.modes == a.modes + b.modes
        assert t.terms == {(1, 1): 1.0 + 0.0j}

    def test_tensor_rejects_shared_modes(self):
        with pytest.raises(ValueError, match="share modes"):
            one_photon("a", "H").tensor(one_photon("a", "H"))

    def test_ensure_modes_appends_new_modes_once_in_listed_order(self):
        ma, mb, mc, md = (ModeId(x, "H") for x in "abcd")
        s = FockState((ma, mb), {(1, 0): 1.0})
        grown = ensure_modes(s, [mc, ma, md, mc])
        assert grown.modes == (ma, mb, mc, md)
        assert grown.terms == {(1, 0, 0, 0): 1.0}
        assert ensure_modes(s, [mb, ma]) is s

    def test_prune_drops_small_terms_and_keeps_the_order_of_the_rest(self):
        ma, mb = ModeId("a", "H"), ModeId("b", "H")
        terms = {(2, 0): 0.5, (0, 0): 1e-16, (0, 2): -0.5j, (1, 1): 0.0, (1, 0): 1e-15, (0, 1): 2e-15}
        s = FockState((ma, mb), terms)
        pruned = prune(s)
        assert list(pruned.terms.items()) == [((2, 0), 0.5), ((0, 2), -0.5j), ((0, 1), 2e-15)]
        assert list(s.terms.items()) == list(terms.items())  # the input state is left as it was

    def test_no_state_algebra_is_offered(self):
        removed = ["inner", "fidelity", "ensure_modes", "normalized", "scaled", "norm_squared", "prune", "total_photons"]
        assert [name for name in removed if hasattr(FockState, name)] == []


# ------------------------------------------------------- randomized properties

# amplitude components bounded away from zero so no basis term ever falls
# below the pruning threshold after normalization
_component = st.tuples(st.floats(0.1, 1.0), st.sampled_from([-1.0, 1.0])).map(lambda t: t[0] * t[1])
amps = st.tuples(_component, _component).map(lambda t: complex(*t))


@st.composite
def random_two_mode_states(draw, max_total=2):
    occs = [(i, j) for i in range(max_total + 1) for j in range(max_total + 1) if 0 < i + j <= max_total]
    terms = {}
    for occ in occs:
        if draw(st.booleans()):
            terms[occ] = draw(amps)
    if not terms or all(abs(a) < 1e-9 for a in terms.values()):
        terms = {(1, 0): 1.0 + 0.0j}
    modes = (ModeId("a", "+"), ModeId("a", "-"))
    norm = math.sqrt(reduce(add, (abs(a) ** 2 for a in terms.values()), 0.0))
    return FockState(modes, {k: v / norm for k, v in terms.items()})


@settings(max_examples=250, deadline=None)
@given(random_two_mode_states(), st.floats(0.01, 0.99), st.floats(0.01, 0.99),
       st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi), st.sampled_from([-1, 1]))
def test_medium_preserves_norm_and_photon_number(state, tau1, tau2, phi1, phi2, sign):
    spec = NonlinearMediumSpec(phi1, tau1, phi2, tau2, interaction_basis="diagonal")
    before = photon_numbers(state)
    out = apply_nonlinear_medium(state, "a", spec, sign)
    assert abs(norm_squared(out) - 1.0) < 1e-10
    assert photon_numbers(out) == before  # loss is purified into sink modes


@settings(max_examples=250, deadline=None)
@given(random_two_mode_states())
def test_beamsplitter_is_unitary(state):
    out = apply_beamsplitter(state, "a", None, "c", "d")
    assert abs(norm_squared(out) - 1.0) < 1e-10
    assert photon_numbers(out) == photon_numbers(state)


@settings(max_examples=250, deadline=None)
@given(random_two_mode_states(), st.floats(0.0, 1.0))
def test_loss_channel_preserves_norm(state, transmission):
    out = apply_loss(state, "a", transmission)
    assert abs(norm_squared(out) - 1.0) < 1e-10
    assert photon_numbers(out) == photon_numbers(state)


@settings(max_examples=250, deadline=None)
@given(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi), st.floats(0.01, 0.99))
def test_loss_branch_phases_are_unobservable(phi1, phi2, tau):
    # detection statistics of the lost-photon branches must not depend on
    # the medium phases, only on the absorbed fractions
    s = FockState.from_occupations({ModeId("a", "+"): 2})
    ref_spec = NonlinearMediumSpec(0.0, tau, 0.0, tau, interaction_basis="diagonal")
    spec = NonlinearMediumSpec(phi1, tau, phi2, tau, interaction_basis="diagonal")
    ref = apply_nonlinear_medium(s, "a", ref_spec)
    out = apply_nonlinear_medium(s, "a", spec)
    det = [ModeId("a", "+")]
    ref_probs = {r.pattern: r.probability for r in measure_all(ref, det)}
    out_probs = {r.pattern: r.probability for r in measure_all(out, det)}
    assert set(ref_probs) == set(out_probs)
    for k in ref_probs:
        assert abs(ref_probs[k] - out_probs[k]) < 1e-10


def dense_linear_map(state, mapping):
    """The linear map with a dense added-occupation polynomial and tuple.index
    lookups, as the engine first computed it: the bit-exact reference."""
    state = ensure_modes(state, list(mapping) + [t for outs in mapping.values() for t, _ in outs])
    modes = state.modes
    new_terms = {}
    for occ, amp in state.terms.items():
        base, amp_eff, powers = list(occ), amp, []
        for m in mapping:
            n = occ[modes.index(m)]
            if n:
                base[modes.index(m)] = 0
                amp_eff /= math.sqrt(math.factorial(n))
                powers.append((m, n))
        if not powers:
            new_terms[occ] = new_terms.get(occ, 0.0j) + amp
            continue
        poly = {(0,) * len(modes): 1.0 + 0.0j}
        for m, n in powers:
            for _ in range(n):
                nxt = {}
                for add, coeff in poly.items():
                    for t, c in mapping[m]:
                        j = modes.index(t)
                        key = add[:j] + (add[j] + 1,) + add[j + 1 :]
                        nxt[key] = nxt.get(key, 0.0j) + coeff * c
                poly = nxt
        for add, coeff in poly.items():
            factor, final = 1.0, list(base)
            for j, extra in enumerate(add):
                if extra:
                    final[j] += extra
                    factor *= math.sqrt(math.factorial(final[j]) / math.factorial(base[j]))
            key = tuple(final)
            new_terms[key] = new_terms.get(key, 0.0j) + amp_eff * coeff * factor
    return prune(FockState(modes, new_terms))


_TARGETS = [ModeId("a", "+"), ModeId("a", "-"), ModeId("c", "+"), ModeId("d", "+"), ModeId("a", "+", sink=True, tag="x")]
_outs = st.lists(st.tuples(st.sampled_from(_TARGETS), amps), min_size=1, max_size=3, unique_by=lambda t: t[0])


@settings(max_examples=200, deadline=None)
@given(random_two_mode_states(max_total=3), _outs, st.one_of(st.none(), _outs))
def test_linear_map_is_bit_identical_to_dense_reference(state, outs_plus, outs_minus):
    mapping = {ModeId("a", "+"): outs_plus}
    if outs_minus is not None:
        mapping[ModeId("a", "-")] = outs_minus
    out, ref = linear_map(state, mapping), dense_linear_map(state, mapping)
    assert out.modes == ref.modes
    assert list(out.terms.items()) == list(ref.terms.items())


@st.composite
def rotation_inputs(draw, max_total=3):
    """A state whose mode ``x`` holds photons in one submode of a basis while its
    other submode of that basis sits in the registry without photons."""
    basis = draw(st.sampled_from([("H", "V"), ("+", "-")]))
    full, empty = draw(st.permutations(basis))
    other = ("+", "-") if basis == ("H", "V") else ("H", "V")
    extra = [ModeId("x", other[0]), ModeId("x", full, sink=True, tag="undet"), ModeId("y", "H")]
    modes = draw(st.permutations([ModeId("x", full), ModeId("x", empty)] + draw(st.lists(st.sampled_from(extra), unique=True))))
    free = [i for i, m in enumerate(modes) if m.spatial != "x" or m.sink]  # modes that may hold photons besides x_full
    occ = st.tuples(st.integers(1, max_total), st.lists(st.integers(0, max_total), min_size=len(free), max_size=len(free)))
    terms = {}
    for n_full, rest in draw(st.lists(occ, min_size=1, max_size=6)):
        counts = [0] * len(modes)
        counts[modes.index(ModeId("x", full))] = n_full
        for i, n in zip(free, rest):
            counts[i] = n
        if sum(counts) <= max_total:
            terms[tuple(counts)] = draw(amps)
    if not terms:  # every draw was over the photon budget: one photon in x_full
        terms[tuple(int(m == ModeId("x", full)) for m in modes)] = draw(amps)
    return FockState(modes, terms), basis


def _hex_items(state):
    return [(occ, a.real.hex(), a.imag.hex()) for occ, a in state.terms.items()]


@settings(max_examples=200, deadline=None)
@given(rotation_inputs())
def test_rotation_is_bit_identical_to_dense_map_over_every_registry_submode(case):
    # the rotation maps only the submode holding photons; mapping the
    # photon-free one as well must give the same modes and the same bits
    state, src = case
    dst = ("+", "-") if src == ("H", "V") else ("H", "V")
    s = 1.0 / math.sqrt(2.0)
    mapping = {ModeId("x", pol): [(ModeId("x", dst[0]), s), (ModeId("x", dst[1]), s if pol == src[0] else -s)] for pol in src}
    out, ref = apply_rotation_45(state, "x"), dense_linear_map(state, mapping)
    assert out.modes == ref.modes
    assert _hex_items(out) == _hex_items(ref)


class TestModeIdHash:
    MODES = [ModeId("a", "H"), ModeId("a", "V"), ModeId("a", "H", sink=True, tag="undet"), ModeId("f", "+", True, "pair"), ModeId("b", None)]

    def test_hash_is_the_dataclass_field_tuple_hash(self):
        for m in self.MODES:
            assert hash(m) == hash((m.spatial, m.pol, m.sink, m.tag))

    def test_equality_and_ordering_follow_the_fields(self):
        assert ModeId("a", "H") == ModeId("a", "H") and ModeId("a", "H") != ModeId("a", "H", sink=True)
        assert len({ModeId("a", "H"), ModeId("a", "H"), ModeId("a", "V")}) == 2
        with_pol = self.MODES[:4]
        assert sorted(with_pol) == sorted(with_pol, key=lambda m: (m.spatial, m.pol, m.sink, m.tag))
        assert ModeId("a", "H") < ModeId("a", "H", sink=True) < ModeId("a", "V")

    def test_fields_are_immutable_and_keywords_build_the_same_mode(self):
        m = ModeId(spatial="a", pol="H", sink=True, tag="undet")
        assert m == self.MODES[2] and (m.spatial, m.pol, m.sink, m.tag) == ("a", "H", True, "undet")
        assert ModeId("b") == ModeId("b", pol=None, sink=False, tag="")
        with pytest.raises(AttributeError):
            m.pol = "V"
        with pytest.raises(AttributeError):
            m.extra = 1

    def test_label(self):
        assert [m.label() for m in self.MODES] == ["a_H", "a_V", "a_H!undet", "f_+!pair", "b"]
        assert ModeId("a", sink=True).label() == "a!"

    def test_hash_survives_deepcopy(self):
        for m in self.MODES:
            twin = copy.deepcopy(m)
            assert twin == m and hash(twin) == hash(m) and twin in {m}

    def test_hash_is_recomputed_after_a_pickle_from_another_process(self):
        # string hashes are salted per process: a hash carried inside the
        # pickle would be wrong here, so ModeId must rebuild on load
        seed = os.environ.get("PYTHONHASHSEED", "")
        child_seed = str(int(seed) + 1) if seed.isdigit() else "1"
        src = str(Path(__import__("nlrouter").__file__).resolve().parents[1])
        code = (
            "import pickle, sys; from nlrouter.fock import ModeId; "
            f"modes = {self.MODES!r}; "
            "sys.stdout.buffer.write(pickle.dumps((modes, [hash(m) for m in modes])))"
        )
        env = dict(os.environ, PYTHONHASHSEED=child_seed, PYTHONPATH=src)
        blob = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True).stdout
        modes, child_hashes = pickle.loads(blob)
        assert modes == self.MODES
        assert child_hashes != [hash(m) for m in self.MODES]  # the two processes salt differently
        for m in modes:
            assert hash(m) == hash((m.spatial, m.pol, m.sink, m.tag))
        assert set(modes) == set(self.MODES)


def reference_measure_all(state, detected, keep_posterior=False):
    """measure_all as it stood before posteriors became opt-in work: the
    bit-exact reference for patterns, probabilities and posteriors."""
    state = ensure_modes(state, detected)
    index = {m: i for i, m in enumerate(state.modes)}
    det_idx = [index[m] for m in detected]
    rest_idx = sorted(set(range(len(state.modes))) - set(det_idx))
    rest_modes = tuple(state.modes[i] for i in rest_idx)
    groups = {}
    for occ, amp in state.terms.items():
        key = tuple(map(occ.__getitem__, det_idx))
        groups.setdefault(key, {})[tuple(map(occ.__getitem__, rest_idx))] = amp
    records = []
    for key in sorted(groups):
        sub = groups[key]
        prob = reduce(add, (abs(a) ** 2 for a in sub.values()), 0.0)  # left to right on every Python
        pattern = tuple((m, n) for m, n in zip(detected, key) if n)
        post = None
        if keep_posterior and prob > 0.0:
            post = scaled(FockState(rest_modes, sub), 1.0 / math.sqrt(prob))
        records.append(OutcomeRecord(pattern=pattern, probability=prob, posterior=post))
    return records


_POOL = [ModeId("u", "H"), ModeId("u", "V"), ModeId("w", "+"), ModeId("u", "H", sink=True, tag="undet"), ModeId("p", "-")]
_ABSENT = [ModeId("z", "H"), ModeId("q", "V")]  # never in a drawn registry


@st.composite
def few_photon_states(draw, max_total=4):
    modes = draw(st.permutations(_POOL).flatmap(lambda p: st.integers(1, len(p)).map(lambda k: tuple(p[:k]))))
    occ = st.lists(st.integers(0, max_total), min_size=len(modes), max_size=len(modes)).map(tuple)
    occs = draw(st.lists(occ.filter(lambda o: sum(o) <= max_total), min_size=1, max_size=12, unique=True))
    return FockState(modes, {o: draw(amps) for o in occs})


# itemgetter edge cases, always run: no detected mode (one pattern), one
# detected mode, and several including one not yet in the registry
_EDGE = FockState(_POOL[:4], {(1, 0, 1, 0): 0.6, (0, 2, 0, 0): 0.64j, (1, 1, 0, 1): -0.48, (0, 0, 0, 2): 0.0})
_EDGE_DETECTED = ([], [_POOL[1]], [_POOL[1], _ABSENT[0], _POOL[0]])


@settings(max_examples=200, deadline=None)
@given(few_photon_states(), st.lists(st.sampled_from(_POOL + _ABSENT), max_size=4, unique=True), st.booleans())
@example(_EDGE, _EDGE_DETECTED[0], False)
@example(_EDGE, _EDGE_DETECTED[0], True)
@example(_EDGE, _EDGE_DETECTED[1], False)
@example(_EDGE, _EDGE_DETECTED[1], True)
@example(_EDGE, _EDGE_DETECTED[2], False)
@example(_EDGE, _EDGE_DETECTED[2], True)
def test_measure_all_is_bit_identical_to_reference(state, detected, keep_posterior):
    out = measure_all(state, detected, keep_posterior)
    ref = reference_measure_all(state, detected, keep_posterior)
    assert [r.pattern for r in out] == [r.pattern for r in ref]
    assert [r.probability.hex() for r in out] == [r.probability.hex() for r in ref]
    for o, r in zip(out, ref):
        assert (o.posterior is None) == (r.posterior is None)
        if r.posterior is not None:
            assert o.posterior.modes == r.posterior.modes
            assert list(o.posterior.terms.items()) == list(r.posterior.terms.items())



# ------------------------------------------------------------------- tapes


def _outcome(run, state):
    """What ``run`` makes of a fresh copy of ``state``: modes and items by float.hex, records or the error."""
    try:
        out = run(FockState(state.modes, state.terms))
    except ValueError as exc:
        return "raised", str(exc)
    if isinstance(out, list):
        return [(r.pattern, r.probability.hex(), r.posterior and (r.posterior.modes, _hex_items(r.posterior))) for r in out]
    return out.modes, _hex_items(out)


def assert_replay_matches_reference(run_a, run_b, ref_a, ref_b, state):
    """``run_a`` and ``run_b`` are one element with two coefficient sets, ``ref_a`` and
    ``ref_b`` its reference.  On an empty table, A's first sight records the tape and
    replays it, and B's second sight and A's third replay it with their own
    coefficients; each must give the reference's bits."""
    fock._LAYOUTS.clear()
    for run, ref in ((run_a, ref_a), (run_b, ref_b), (run_a, ref_a)):
        assert _outcome(run, state) == _outcome(ref, state)


_S = 1.0 / math.sqrt(2.0)
_HOM = FockState((ModeId("a", "+"), ModeId("a", "-")), {(1, 1): 1.0 + 0.0j})  # |1,1> -> c,d cancels: pruned


@settings(max_examples=150, deadline=None)
@given(random_two_mode_states(max_total=3), _outs, st.one_of(st.none(), _outs), amps)
@example(_HOM, [(ModeId("c", "+"), _S), (ModeId("d", "+"), 1j * _S)], [(ModeId("d", "+"), _S), (ModeId("c", "+"), 1j * _S)], 0.5 - 0.25j)
def test_linear_map_replay_is_bit_identical_to_dense_reference(state, outs_plus, outs_minus, z):
    mapping = {ModeId("a", "+"): outs_plus}
    if outs_minus is not None:
        mapping[ModeId("a", "-")] = outs_minus
    other = {m: [(t, c * z) for t, c in outs] for m, outs in mapping.items()}  # same structure
    assert_replay_matches_reference(
        lambda s: linear_map(s, mapping), lambda s: linear_map(s, other),
        lambda s: dense_linear_map(s, mapping), lambda s: dense_linear_map(s, other), state,
    )


def reference_medium(state, arm, spec, sign=1):
    """apply_nonlinear_medium as it stood before tapes, over the term dict: the
    bit-exact reference for the medium's replay.  Its arm is the arm submodes that
    hold a photon in some term, in registry order, as for every element, and a sink
    of theirs that holds a photon in some term is refused."""
    held = {m for occ in state.terms for n, m in zip(occ, state.modes) if n}
    arm_modes = [m for m in state.modes if m.spatial == arm and not m.sink and m in held]
    if not arm_modes:
        return state
    sinks = {(m.pol, k): ModeId(arm, m.pol, sink=True, tag=k) for m in arm_modes for k in ("single", "pair")}
    full = sorted(m.label() for m in sinks.values() if m in held)
    if full:
        raise ValueError(f"nonlinear medium would add photons to {full}, which already hold photons it does not move")
    state = ensure_modes(state, sinks.values())
    index = {m: i for i, m in enumerate(state.modes)}
    idx = {m: index[m] for m in arm_modes}
    sidx = {key: index[m] for key, m in sinks.items()}
    t1, t2 = math.sqrt(1.0 - spec.tau1), math.sqrt(1.0 - spec.tau2)
    e1 = complex(math.cos(sign * spec.phi1), math.sin(sign * spec.phi1))
    e12 = complex(math.cos(sign * (spec.phi1 + spec.phi2)), math.sin(sign * (spec.phi1 + spec.phi2)))
    r1, r2 = math.sqrt(spec.tau1), math.sqrt(spec.tau2)
    w = 1.0 / math.sqrt(2.0)
    new_terms = {}

    def put(occ, amp):
        if amp != 0.0:
            new_terms[occ] = new_terms.get(occ, 0.0j) + amp

    def absorbed(occ, *moves):
        lost = list(occ)
        for m, kind in moves:
            lost[idx[m]] -= 1
            lost[sidx[(m.pol, kind)]] += 1
        return tuple(lost)

    for occ, amp in state.terms.items():
        occupied = [(m, occ[i]) for m, i in idx.items() if occ[i]]
        n = sum(c for _, c in occupied)
        if n == 0:
            put(occ, amp)
        elif n == 1:
            (m, _), = occupied
            put(occ, amp * t1 * e1)
            put(absorbed(occ, (m, "single")), amp * r1)
        elif n == 2:
            same_pol = len(occupied) == 1
            if same_pol or spec.pair_coupling == "any":
                put(occ, amp * t1 * t2 * e12)
                for kind, amp_k in (("pair", t1 * r2 * e1), ("single", r1)):
                    if same_pol:
                        put(absorbed(occ, (occupied[0][0], kind)), amp * amp_k)
                    else:
                        for m, _ in occupied:
                            put(absorbed(occ, (m, kind)), amp * amp_k * w)
            else:
                (ma, _), (mb, _) = occupied
                put(occ, amp * (t1 * e1) ** 2)
                for lose in (mb, ma):
                    put(absorbed(occ, (lose, "single")), amp * t1 * e1 * r1)
                put(absorbed(occ, (ma, "single"), (mb, "single")), amp * r1 * r1)
        else:
            raise ValueError(f"nonlinear medium supports at most 2 photons per arm, got {n}")
    return prune(FockState(state.modes, new_terms))


_ARM = [ModeId("f", "+"), ModeId("f", "-")]
_NEAR_ARM = [ModeId("f", "+", sink=True, tag="single"), ModeId("f", "-", sink=True, tag="pair"), ModeId("g", "+")]


@st.composite
def medium_inputs(draw, max_total=3):
    """Up to three photons on the arm's two submodes, some of its sinks and another mode."""
    modes = tuple(draw(st.permutations(_ARM + draw(st.lists(st.sampled_from(_NEAR_ARM), unique=True)))))
    occ = st.lists(st.integers(0, max_total), min_size=len(modes), max_size=len(modes)).map(tuple)
    occs = draw(st.lists(occ.filter(lambda o: 0 < sum(o) <= max_total), min_size=1, max_size=8, unique=True))
    return FockState(modes, {o: draw(amps) for o in occs})


_taus = st.one_of(st.just(0.0), st.floats(0.01, 0.99))
_specs = st.builds(NonlinearMediumSpec, st.floats(-math.pi, math.pi), _taus, st.floats(-math.pi, math.pi), _taus)
# the term loop drops a zero-amplitude term's branches, and with a zero factor a
# NaN amplitude still puts its branch; _ZERO_FIRST's key (0, 1, 0) holds a photon
# in an arm submode's sink, so both the medium and the reference refuse it
_ZERO_FIRST = FockState((_ARM[0], _NEAR_ARM[0], ModeId("g", "+")), {(1, 0, 0): 0j, (0, 0, 1): 0.6, (0, 1, 0): 0.8})
_ZERO_SKIPPED = FockState((_ARM[0], ModeId("g", "+")), {(1, 0): 0j, (0, 1): 0.6})
_LOSSY = NonlinearMediumSpec(0.4, 0.3, 1.1, 0.2)
_LOSSLESS = NonlinearMediumSpec(0.4, 0.0, 1.1, 0.0)


@settings(max_examples=150, deadline=None)
@given(medium_inputs(), _specs, _specs, st.sampled_from(["same_polarization", "any"]), st.sampled_from([-1, 1]))
@example(_ZERO_FIRST, _LOSSY, _LOSSY, "same_polarization", 1)
@example(FockState(_ZERO_FIRST.modes, {(1, 0, 0): complex("nan"), (0, 0, 1): 0.6, (0, 1, 0): 0.8}), _LOSSLESS, _LOSSLESS, "any", 1)
@example(_ZERO_SKIPPED, _LOSSY, _LOSSY, "same_polarization", 1)
@example(FockState(_ZERO_SKIPPED.modes, {(1, 0): complex("nan"), (0, 1): 0.6}), _LOSSLESS, _LOSSLESS, "any", 1)
def test_medium_replay_is_bit_identical_to_reference(state, spec_a, spec_b, coupling, sign):
    spec_a, spec_b = (NonlinearMediumSpec(s.phi1, s.tau1, s.phi2, s.tau2, pair_coupling=coupling) for s in (spec_a, spec_b))
    assert_replay_matches_reference(
        lambda s: apply_nonlinear_medium(s, "f", spec_a, sign), lambda s: apply_nonlinear_medium(s, "f", spec_b, sign),
        lambda s: reference_medium(s, "f", spec_a, sign), lambda s: reference_medium(s, "f", spec_b, sign), state,
    )


@settings(max_examples=150, deadline=None)
@given(medium_inputs(), st.sampled_from(["same_polarization", "any"]))
def test_medium_tape_lists_each_branch_key_once_in_branch_order(state, coupling):
    """The invariant the medium's list replay rests on: its tape's signature holds one
    distinct key per branch, in branch order, which is the order in which the reference
    puts them when every amplitude and every factor is nonzero."""
    ones = FockState(state.modes, dict.fromkeys(state.terms, 1.0 + 0.0j))
    spec = NonlinearMediumSpec(0.4, 0.3, 1.1, 0.2, pair_coupling=coupling)
    fock._LAYOUTS.clear()
    try:
        ref = reference_medium(ones, "f", spec)
    except ValueError:
        with pytest.raises(ValueError):
            fock._medium_tape(ones._sig, "f", "diagonal", coupling)
        return
    tape = fock._medium_tape(ones._sig, "f", "diagonal", coupling)
    if tape is None:
        assert ref is ones
        return
    out_sig, steps = tape
    keys = out_sig.keys()
    assert len(set(keys)) == len(keys) == sum(map(len, steps))
    assert (out_sig.modes, keys) == (ref.modes, [bytes(k) for k in ref.terms])


@settings(max_examples=150, deadline=None)
@given(few_photon_states(max_total=3), st.lists(st.sampled_from(_POOL + _ABSENT), max_size=4, unique=True), st.booleans(), amps)
def test_measure_all_replay_is_bit_identical_to_reference(state, detected, keep_posterior, z):
    assert_replay_matches_reference(
        lambda s: measure_all(s, detected, keep_posterior), lambda s: measure_all(scaled(s, z), detected, keep_posterior),
        lambda s: reference_measure_all(s, detected, keep_posterior),
        lambda s: reference_measure_all(scaled(s, z), detected, keep_posterior), state,
    )


def _fresh_outcome(run, state):
    fock._LAYOUTS.clear()
    return _outcome(run, state)


_ELEMENTS = {
    "phase": (lambda v: lambda s: apply_phase(s, "u", v), st.floats(-2 * math.pi, 2 * math.pi)),
    "loss": (lambda v: lambda s: apply_loss(s, "u", v, tag="delay"), st.floats(0.0, 1.0)),
    "detector_efficiency": (lambda v: lambda s: apply_detector_efficiency(s, ("u", "p"), v), st.floats(0.0, 1.0)),
}


@pytest.mark.parametrize("kind", list(_ELEMENTS))
@settings(max_examples=60, deadline=None)
@given(few_photon_states(max_total=3), st.data())
def test_a_front_end_memo_never_holds_a_value(kind, state, data):
    # one element on one signature with a value that alternates: its table entry, tape
    # included, is made on the first sight and reused by every later one; every call must
    # give the bits of the same call on an emptied table
    element, values = _ELEMENTS[kind]
    runs = [element(data.draw(values)) for _ in range(2)]
    want = [_fresh_outcome(run, state) for run in runs]
    fock._LAYOUTS.clear()
    for i in (0, 1, 0, 1, 0):
        assert _outcome(runs[i], state) == want[i]


_HELD_OUTPUT = FockState.from_occupations({ModeId("a", "H"): 1, ModeId("c", "H"): 1})  # c_H is an output, not an input


@pytest.mark.parametrize(
    "run, state, match",
    [
        (lambda s: apply_pbs(s, "a", "b", "c", "d"), one_photon("a", "+"), "expected H/V"),
        (lambda s: apply_pbs(s, "a", "b", "c", "d"), FockState.from_occupations({ModeId("a", "H"): 1, ModeId("b", None): 1}), "expected H/V"),
        (lambda s: apply_rotation_45(s, "a"), FockState.from_occupations({ModeId("a", "H"): 1, ModeId("a", "+"): 1}), "expected all H/V or all"),
        (lambda s: apply_pbs(s, "a", "b", "c", "c"), FockState.from_occupations({ModeId("a", "H"): 1, ModeId("b", "H"): 1}), "PBS ports repeat"),
        (lambda s: apply_pbs(s, "a", "a", "c", "d"), one_photon("a", "H"), "PBS ports repeat"),
        (lambda s: apply_beamsplitter(s, "a", "a", "c", "d"), one_photon("a", "+"), "beam splitter ports repeat"),
        (lambda s: apply_beamsplitter(s, "a", None, "c", "c"), one_photon("a", "+"), "beam splitter ports repeat"),
        (lambda s: measure_all(s, [ModeId("a", "H"), ModeId("a", "H")]), one_photon("a", "H"), "listed twice"),
        (lambda s: apply_phase(s, "a", math.nan), one_photon("a", "H"), "phase must be finite"),
        (lambda s: apply_phase(s, "a", -math.inf), one_photon("a", "H"), "phase must be finite"),
        (lambda s: apply_nonlinear_medium(s, "f", MEDIUM), one_photon("f", "H"), "interaction basis"),
        (lambda s: apply_nonlinear_medium(s, "f", MEDIUM), FockState.from_occupations({ModeId("f", "+"): 3}), "at most 2"),
        (lambda s: apply_detector_efficiency(s, ("u", "u"), 0.81), one_photon("u", "H"), "detector is listed twice"),
        (lambda s: apply_detector_efficiency(s, ("u", "u"), 1.0), one_photon("u", "H"), "detector is listed twice"),
        (lambda s: apply_beamsplitter(s, "a", None, "c", "d"), _HELD_OUTPUT, "beam splitter would add photons to \\['c_H'\\]"),
        (lambda s: apply_pbs(s, "a", "b", "d", "c"), _HELD_OUTPUT, "PBS would add photons to \\['c_H'\\]"),
        (lambda s: apply_loss(apply_loss(s, "a", 0.5), "a", 0.5), one_photon("a", "H"), "loss would add photons to \\['a_H!lin'\\]"),
        (lambda s: apply_nonlinear_medium(apply_nonlinear_medium(s, "f", MEDIUM), "f", MEDIUM), one_photon("f", "+"),
         "nonlinear medium would add photons to \\['f_\\+!single'\\]"),
    ],
    ids=["pbs-diagonal", "pbs-unpolarized", "rotation-mixed", "pbs-outputs", "pbs-inputs", "bs-inputs", "bs-outputs", "measure-twice",
         "phase-nan", "phase-inf", "medium-basis", "medium-three", "detector-twice", "detector-twice-ideal",
         "bs-held-output", "pbs-held-output", "loss-twice", "medium-twice"],
)
def test_a_refusal_is_raised_on_every_sight(run, state, match):
    fock._LAYOUTS.clear()
    for _ in range(3):
        with pytest.raises(ValueError, match=match):
            run(state)


_CHAIN_POOL = [
    ModeId("a", "H"), ModeId("a", "V"), ModeId("a", "+"), ModeId("b", "H"), ModeId("b", "-"), ModeId("c", "H"), ModeId("c"),
    ModeId("a", "H", sink=True, tag="lin"), ModeId("b", "H", sink=True, tag="undet"), ModeId("a", "+", sink=True, tag="single"),
]
_port = st.sampled_from(["a", "b", "c", "d"])
_fraction = st.floats(-0.25, 1.25)  # values outside [0, 1] are refused
_chain_specs = st.builds(NonlinearMediumSpec, st.floats(-math.pi, math.pi), _taus, st.floats(-math.pi, math.pi), _taus,
                         st.sampled_from(["diagonal", "hv"]), st.sampled_from(["same_polarization", "any"]))
# each call is an element and its arguments after the state
_named_calls = st.one_of(
    st.tuples(st.just(apply_beamsplitter), st.tuples(st.none() | _port, st.none() | _port, _port, _port)),
    st.tuples(st.just(apply_pbs), st.tuples(_port, _port, _port, _port)),
    st.tuples(st.just(apply_rotation_45), st.tuples(_port)),
    st.tuples(st.just(apply_phase), st.tuples(_port, st.floats(-7.0, 7.0))),
    st.tuples(st.just(apply_loss), st.tuples(_port, _fraction, st.sampled_from(["lin", "undet", "single"]))),
    st.tuples(st.just(apply_detector_efficiency), st.tuples(st.lists(_port, max_size=2).map(tuple), _fraction)),
    st.tuples(st.just(apply_nonlinear_medium), st.tuples(_port, _chain_specs, st.sampled_from([-1, 1]))),
)


@st.composite
def chain_states(draw, max_total=3):
    """A normalized state on 1-4 modes of ``_CHAIN_POOL``, sinks included, with up to ``max_total`` photons a term."""
    modes = tuple(draw(st.lists(st.sampled_from(_CHAIN_POOL), min_size=1, max_size=4, unique=True)))
    occ = st.lists(st.integers(0, 2), min_size=len(modes), max_size=len(modes)).map(tuple)
    terms = {o: draw(amps) for o in draw(st.lists(occ.filter(lambda o: sum(o) <= max_total), min_size=1, max_size=4, unique=True))}
    norm = math.sqrt(reduce(add, (abs(a) ** 2 for a in terms.values()), 0.0))
    return FockState(modes, {o: a / norm for o, a in terms.items()})


_A_PLUS = FockState.from_occupations({ModeId("a", "+"): 1})


@settings(max_examples=300, deadline=None)
@given(chain_states(), st.lists(_named_calls, min_size=1, max_size=4))
@example(_HELD_OUTPUT, [(apply_beamsplitter, ("a", None, "c", "d"))])
@example(_HELD_OUTPUT, [(apply_pbs, ("a", "b", "d", "c"))])
@example(one_photon("a", "H"), [(apply_loss, ("a", 0.5, "lin"))] * 2)
@example(_A_PLUS, [(apply_nonlinear_medium, ("a", MEDIUM, 1))] * 2)
@example(_A_PLUS, [(apply_loss, ("a", 0.5, "single")), (apply_nonlinear_medium, ("a", MEDIUM, 1))])
def test_a_chain_of_named_elements_keeps_the_norm_or_is_refused(state, calls):
    out = state
    try:
        for element, args in calls:
            out = element(out, *args)
    except ValueError:
        return
    assert abs(norm_squared(out) - norm_squared(state)) < TOL


def test_an_element_call_makes_one_entry_and_only_linear_layouts_and_plans_are_shared():
    # besides one entry per element call, a linear element's layout and the plan of each
    # local pattern it meets (here 1, 1 at the beam splitter; 2 and 0 at the phase) are entries
    fock._LAYOUTS.clear()
    s = apply_beamsplitter(FockState.from_occupations({ModeId("a", "+"): 1, ModeId("b", "+"): 1}), "a", "b", "c", "d")
    s = apply_phase(apply_nonlinear_medium(s, "c", NonlinearMediumSpec(0.4, 0.3, 1.1, 0.2)), "d", 0.3)
    measure_all(s, [ModeId("c", "+"), ModeId("d", "+")], keep_posterior=True)
    builders = [key[0].__name__ for key in fock._LAYOUTS if key[0] not in (fock._Signature, fock._subset)]
    assert sorted(builders) == [
        "_beamsplitter_front", "_linear_layout", "_linear_layout", "_linear_plan", "_linear_plan", "_linear_plan",
        "_measure_tape", "_medium_tape", "_phase_front",
    ]


_TWO_IN_U = FockState((ModeId("u", "H"), ModeId("u", "V"), ModeId("v", "H")), {(2, 0, 0): 0.6, (1, 1, 0): 0.48j, (0, 0, 1): -0.64})


def test_a_new_coefficient_vector_builds_no_plan(monkeypatch):
    build = fock._linear_plan
    builds = []

    def counted(*shape):
        builds.append(shape)
        return build(*shape)

    monkeypatch.setattr(fock, "_LAYOUTS", {})
    monkeypatch.setattr(fock, "_linear_plan", counted)
    apply_loss(_TWO_IN_U, "u", 0.9)
    first = len(builds)
    for transmission in (0.5, 0.25):
        apply_loss(_TWO_IN_U, "u", transmission)
    assert len(builds) == first
    assert first == 3  # one per local pattern: both photons in u_H, one in each u submode, none


_C, _D = ModeId("c", "H"), ModeId("d", "H")


@pytest.mark.parametrize(
    "runs",
    [
        [lambda s: apply_phase(s, "u", 0.0), lambda s: apply_phase(s, "u", -0.0)],
        [lambda s: apply_loss(s, "u", 0.0), lambda s: apply_loss(s, "u", -0.0)],
        [
            lambda s: linear_map(s, {ModeId("u", "H"): [(_C, complex(0.6, 0.0)), (_D, complex(-0.0, 0.8))]}),
            lambda s: linear_map(s, {ModeId("u", "H"): [(_C, complex(0.6, -0.0)), (_D, complex(0.0, 0.8))]}),
        ],
    ],
    ids=["phase", "loss", "map"],
)
def test_coefficients_equal_under_eq_give_the_bits_of_a_fresh_table(runs):
    # a tape keeps the coefficients of its last vector and reuses them for any vector equal
    # under ==, so 0.0 and -0.0 share them; each call must still give a fresh table's bits
    want = [_fresh_outcome(run, _TWO_IN_U) for run in runs]
    fock._LAYOUTS.clear()
    assert [_outcome(run, _TWO_IN_U) for run in runs + runs] == want + want


def test_terms_are_built_on_first_read_from_the_signature():
    s = FockState.from_occupations({ModeId("a", "+"): 1, ModeId("b", "+"): 1})
    out = apply_beamsplitter(s, "a", "b", "c", "d")
    assert out._terms is None
    assert all(type(occ) is tuple and len(occ) == len(out.modes) for occ in out.terms)
    assert out.terms is out.terms


def test_terms_are_read_only():
    s = apply_beamsplitter(FockState.from_occupations({ModeId("a", "+"): 1}), "a", None, "c", "d")
    for state in (s, FockState(s.modes, s.terms), prune(s)):
        with pytest.raises(TypeError):
            state.terms[next(iter(state.terms))] = 1.0


def test_states_pickle_and_copy_with_their_terms():
    s = FockState.from_occupations({ModeId("a", "+"): 1})
    out = apply_beamsplitter(s, "a", None, "c", "d")
    read = apply_beamsplitter(s, "a", None, "c", "d")
    read.terms  # built before the copy
    for state in (s, out, read, prune(s)):
        for twin in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
            assert twin.modes == state.modes and list(twin.terms.items()) == list(state.terms.items())


def test_a_shared_dict_built_input_gives_every_thread_the_same_bits():
    # each round's input is built from a dict and packed before the threads see it; the
    # threads share it and race on the table and on the tape's last coefficient vector
    def bits(state):
        out = apply_beamsplitter(state, "a", "b", "c", "d")
        return out.modes, [(occ, a.real.hex(), a.imag.hex()) for occ, a in out.terms.items()]

    terms = {(1, 1): 0.6 + 0.0j, (2, 0): 0.0 + 0.8j}
    modes = (ModeId("a", "+"), ModeId("b", "+"))
    want = bits(FockState(modes, terms))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(200):
            shared = FockState(modes, terms)
            with ThreadPoolExecutor(4) as pool:
                got = list(pool.map(bits, [shared] * 4, timeout=60))
            assert got == [want] * 4
    finally:
        sys.setswitchinterval(interval)


_BYTE = "0..255 per registry mode"
_AB = (ModeId("a", "+"), ModeId("b", "+"))


@pytest.mark.parametrize(
    "modes, terms, match",
    [
        (_AB, {(256, 0): 1.0}, _BYTE),
        (_AB, {(-1, 1): 1.0}, _BYTE),
        (_AB, {(1,): 1.0}, _BYTE),
        (_AB, {(0.5, 0): 1.0}, _BYTE),
        (_AB[:1], {(256,): 1.0}, _BYTE),
        ((ModeId("a", "H"),) * 2, {(1, 0): 1.0}, "the registry lists a mode twice: \\['a_H', 'a_H'\\]"),
    ],
    ids=["above-255", "negative", "short", "fraction", "one-mode", "registry-twice"],
)
def test_an_occupation_outside_one_byte_per_mode_is_refused(modes, terms, match):
    with pytest.raises(ValueError, match=match):
        FockState(modes, terms)
