"""Sparse few-photon state vectors and the optical elements acting on them.

A ``FockState`` maps occupation vectors to complex amplitudes and has no
arithmetic of its own: every amplitude after construction comes from a
tape.  Loss is purified: every absorption event moves the lost photon into a
dedicated sink mode instead of tracing it out, so the global state stays a
normalized ket and total photon number is conserved exactly.

The golden datasets pin the simulator's ``abs_delta`` column to the last
ulp, so a change to this engine must keep every floating-point operation
and its order (and the insertion order of every term dict) as it is.  Work
that repeats is memoised instead, in one table keyed by structure and input
signature, never by coefficients.

Every state is packed when it is built: a signature, its ordered occupation
keys as ``bytes`` (one byte per mode: at most 255 photons), interned, and a
list of amplitudes; ``FockState.terms``, a read-only view, builds its dict
only when something reads it.  An element call makes one
table entry: on the first sight of an (element structure, input signature)
pair the element records a tape of its term loop, in the loop's order: per
input slot the output slots it adds to and the plan monomial that scales each
(linear map), per input slot the factors of each branch, multiplied left to
right, whose keys the output signature lists in branch order (medium), or per
pattern the slots it sums (measurement).  It replays the tape on that call
and every later one, so each element computes amplitudes in one place only.
No entry holds a value (a phase, a transmission) nor a refusal.  A linear
map's layout (grown registry, touched positions) and the plan of each local
occupation pattern (divisors, each monomial's changes and factor, and the
recipe of its coefficient) are coefficient-free entries too, shared by every
tape that meets them.  A linear tape holds its plans, source count and any
constant coefficients; the monomial coefficients of the last vector it
replayed, evaluated from the recipes in the term loop's order, are the only
state that follows a call's coefficients.  Prune is the replay's one
value-dependent step: ``abs(a) > PRUNE_TOL`` drops slots (zero and NaN ones
too) and keeps the order of the rest.  Signatures share the table, and tapes
one copy of each equal step; both are cleared once the table holds
``_LAYOUT_LIMIT`` entries.

Every element acts only on the polarization submodes of a spatial mode that
hold photons (``_sig_pols``): a photon-free submode is left alone and
never grows the registry, and each arm submode of the medium that holds a
photon grows a single and a pair sink.  The polarizing beam splitter, the
45-degree rotation and the medium refuse a photon outside their bases; the
first two refuse an unpolarized one too, and the medium accepts it.  The
beam splitters, loss and the medium refuse a target or sink submode that is
no source yet holds a photon, as the norm would drift (``_isometric``); the
rotation's basis rule covers it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import compress, repeat
from operator import add, itemgetter, mul, truediv
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Optional, Sequence

__all__ = [
    "ModeId",
    "FockState",
    "OutcomeRecord",
    "NonlinearMediumSpec",
    "apply_beamsplitter",
    "apply_phase",
    "apply_pbs",
    "apply_rotation_45",
    "apply_nonlinear_medium",
    "apply_loss",
    "apply_detector_efficiency",
    "measure_all",
]

PRUNE_TOL = 1e-15

_HV = ("H", "V")
_DIAG = ("+", "-")
_BASIS_POLS = {"diagonal": _DIAG, "hv": _HV}


def _grown(modes: tuple[ModeId, ...], new: Iterable[ModeId]) -> tuple[tuple[ModeId, ...], int]:
    """``modes`` followed by each of ``new`` it lacks (once, in listed order), and how many were added."""
    have = set(modes)
    missing = tuple(dict.fromkeys(m for m in new if m not in have))
    return modes + missing, len(missing)


class ModeId(NamedTuple):
    """A single bosonic mode: spatial label, optional polarization, sink flag.

    Sink modes hold photons that left the computational path (medium
    absorption, detector inefficiency).  ``tag`` distinguishes physically
    orthogonal absorption events so loss branches never interfere.  As a
    named tuple it hashes, compares and orders by its fields in C: every
    element hashes the whole registry.
    """

    spatial: str
    pol: Optional[str] = None
    sink: bool = False
    tag: str = ""

    def label(self) -> str:
        base = self.spatial if self.pol is None else f"{self.spatial}_{self.pol}"
        if self.sink:
            base += f"!{self.tag}" if self.tag else "!"
        return base


class FockState:
    """Sparse ket over an ordered registry of modes.

    ``terms`` is a read-only view that maps occupation tuples (aligned with
    ``modes``) to amplitudes; an element's output builds it on first read.
    A state is packed when it is built and never changes: the elements and
    ``measure_all`` return new states, and the registry only ever grows.
    """

    __slots__ = ("modes", "_terms", "_sig", "_amps")

    def __init__(self, modes: Sequence[ModeId] = (), terms: Optional[Mapping[tuple, complex]] = None):
        self.modes: tuple[ModeId, ...] = tuple(modes)
        self._terms: Optional[Mapping[tuple, complex]] = MappingProxyType(dict(terms or {}))
        terms = self._terms
        try:
            packed = b"".join(map(bytes, terms))
        except (TypeError, ValueError):
            packed = None
        if packed is None or len(packed) != len(self.modes) * len(terms):
            raise ValueError("each occupation must hold one count in 0..255 per registry mode")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError(f"the registry lists a mode twice: {[m.label() for m in self.modes]}")
        self._sig: _Signature = _layout(_Signature, self.modes, packed, len(terms))
        self._amps: list[complex] = list(terms.values())

    @classmethod
    def _of(cls, sig: _Signature, amps: list[complex]) -> "FockState":
        state = cls.__new__(cls)
        state.modes, state._terms, state._sig, state._amps = sig.modes, None, sig, amps
        return state

    @property
    def terms(self) -> Mapping[tuple, complex]:
        if self._terms is None:
            self._terms = MappingProxyType(dict(zip(map(tuple, self._sig.keys()), self._amps)))
        return self._terms

    def __reduce__(self):
        return FockState, (self.modes, dict(self.terms))  # a view does not pickle

    # ---------------------------------------------------------------- basics

    @classmethod
    def from_occupations(cls, occupations: Mapping[ModeId, int]) -> "FockState":
        modes = tuple(occupations)
        occ = tuple(occupations[m] for m in modes)
        return cls(modes, {occ: 1.0 + 0.0j})

    def tensor(self, other: "FockState") -> "FockState":
        """Product state on the disjoint union of the two registries."""
        overlap = set(self.modes) & set(other.modes)
        if overlap:
            raise ValueError(f"tensor factors share modes: {sorted(m.label() for m in overlap)}")
        modes = self.modes + other.modes
        terms = {}
        for occ_a, amp_a in self.terms.items():
            for occ_b, amp_b in other.terms.items():
                terms[occ_a + occ_b] = amp_a * amp_b
        return FockState(modes, terms)


# ------------------------------------------------------ layouts and tapes

# Element entries, linear layouts and plans, and signatures (see the module docstring).  Keys never
# hold coefficients: a random p_de per call would make a new entry per call.
_LAYOUT_LIMIT = 4096
_LAYOUTS: dict[object, object] = {}
_STEPS: dict[tuple, tuple] = {}  # one copy of each equal step, shared by every tape
_MISS = object()  # an entry may be None (an element that does nothing on its signature)


def _remember(key: tuple, value: object) -> object:
    if len(_LAYOUTS) >= _LAYOUT_LIMIT:
        _LAYOUTS.clear()
        _STEPS.clear()
    _LAYOUTS[key] = value
    return value


def _layout(build: Callable, *shape):
    """``build(*shape)``, made once per shape: a registry and an element's structure."""
    key = (build, *shape)
    layout = _LAYOUTS.get(key, _MISS)
    return _remember(key, build(*shape)) if layout is _MISS else layout


def _shared(step: tuple) -> tuple:
    return _STEPS.setdefault(step, step)


class _Signature:
    """The ordered occupation keys of ``count`` terms on ``modes``, packed one byte per mode."""

    __slots__ = ("modes", "packed", "count")

    def __init__(self, modes: tuple[ModeId, ...], packed: bytes, count: int):
        self.modes, self.packed, self.count = modes, packed, count

    def keys(self) -> list[bytes]:
        w, p = len(self.modes), self.packed
        return [p[i * w : i * w + w] for i in range(self.count)]


def _signature(modes: tuple[ModeId, ...], keys: Sequence[bytes]) -> _Signature:
    return _layout(_Signature, modes, b"".join(keys), len(keys))


def _subset(sig: _Signature, mask: bytes) -> _Signature:
    return _signature(sig.modes, list(compress(sig.keys(), mask)))


def _replayed(sig: _Signature, amps: list[complex]) -> FockState:
    """A tape's output: the slots whose amplitude is above ``PRUNE_TOL``, as prune keeps terms, in slot order."""
    above = bytes(map(PRUNE_TOL.__lt__, map(abs, amps)))
    if all(above):
        return FockState._of(sig, amps)
    return FockState._of(_layout(_subset, sig, above), list(compress(amps, above)))


def _moved(occ: bytes, changes: tuple) -> bytes:
    """``occ`` with each ``index, count`` pair of ``changes`` written in."""
    final = bytearray(occ)
    it = iter(changes)
    for j, n in zip(it, it):
        final[j] = n
    return bytes(final)


# ------------------------------------------------------------------ channels


def _projector(idx: Sequence[int]) -> Callable[[bytes], Sequence[int]]:
    """C-level ``occ[i] for i in idx``: itemgetter, or a slice for 0 or 1 index."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return itemgetter(slice(idx[0], idx[0] + 1) if idx else slice(0))


def _linear_layout(modes: tuple[ModeId, ...], structure: tuple[tuple[ModeId, tuple[ModeId, ...]], ...]) -> tuple:
    """A linear map of one structure on one registry: the grown registry, its pad, the touched
    positions (ascending), the shape (per source its local position and its targets') and the
    projector onto the touched positions."""
    ports = [m for m, _ in structure] + [t for _, outs in structure for t in outs]
    modes, grown = _grown(modes, ports)
    index = {m: i for i, m in enumerate(modes)}
    touched = tuple(sorted({index[m] for m in ports}))
    pos = {modes[i]: k for k, i in enumerate(touched)}
    shape = tuple((pos[m], tuple(pos[t] for t in outs)) for m, outs in structure)
    return modes, bytes(grown), touched, shape, _projector(touched)


def _linear_plan(local: Sequence[int], shape: tuple, touched: tuple[int, ...]) -> tuple:
    """The map of every term whose ``touched`` entries read ``local``, for any coefficients: the ``sqrt(n!)``
    divisors, each added-photon monomial's factor and changes (flat ``index, count, ...``) and their ``_coefficients`` recipe."""
    base = list(local)
    divisors, recipe = [], []
    # polynomial over added photons: sorted ((target, count), ...) -> its index, in insertion order;
    # the keys are canonical, so they merge and iterate as dense occupation tuples would
    poly: dict[tuple[tuple[int, int], ...], int] = {(): 0}
    first = 0  # the index of the source's first coefficient: per source, one per target
    for i, outs in shape:
        n = local[i]
        if n:
            base[i] = 0
            divisors.append(math.sqrt(math.factorial(n)))
            for _ in range(n):
                nxt: dict[tuple[tuple[int, int], ...], int] = {}
                adds = []
                for add, a in poly.items():
                    for q, j in enumerate(outs):
                        counts = dict(add)
                        counts[j] = counts.get(j, 0) + 1
                        adds += a, first + q, nxt.setdefault(tuple(sorted(counts.items())), len(nxt))
                recipe.append((len(nxt), tuple(adds)))
                poly = nxt
        first += len(outs)
    factors, changes = [], []
    for add in poly:
        factor = 1.0
        final = list(base)
        for j, extra in add:
            final[j] += extra
            factor *= math.sqrt(math.factorial(final[j]) / math.factorial(base[j]))
        moved = []
        for k, n in enumerate(final):
            if n != local[k]:
                moved += touched[k], n
        factors.append(factor)
        changes.append(tuple(moved))
    return tuple(divisors), tuple(factors), tuple(changes), tuple(recipe)


def _coefficients(recipe: tuple, coeffs: Sequence[complex]) -> list[complex]:
    """Each monomial's coefficient for the flat ``coeffs``: per added photon, every sum starts at
    ``0.0j`` and adds ``monomial * coefficient`` in the recipe's order, as a term dict would."""
    poly = [1.0 + 0.0j]
    for size, adds in recipe:
        nxt = [0.0j] * size
        it = iter(adds)
        for a, k, b in zip(it, it, it):
            nxt[b] += poly[a] * coeffs[k]
        poly = nxt
    return poly


class _LinearTape:
    """A linear element's term loop on one signature: each local pattern's plan, per input slot the output slot of each
    monomial of its pattern then the pattern's index, the output signature, the source count and any constant coefficients."""

    __slots__ = ("plans", "steps", "out_sig", "count", "consts", "last")

    def __init__(self, plans: tuple, steps: tuple, out_sig: _Signature, count: int, consts: Optional[tuple]):
        self.plans, self.steps, self.out_sig, self.count, self.consts = plans, steps, out_sig, count, consts
        self.last: tuple = (None, ())

    def rows(self, coeffs: tuple) -> tuple:
        """Per pattern its divisors, its monomials' coefficients for ``coeffs`` and their factors."""
        last = self.last
        # a coefficient is a sum that starts at 0.0j, so coefficient vectors equal under
        # == (0.0 and -0.0 alike) give bit-identical rows; the pair is replaced whole
        if last[0] != coeffs:
            last = self.last = (coeffs, tuple((d, _coefficients(r, coeffs), f) for d, f, _, r in self.plans))
        return last[1]


def _front(sig: _Signature, structure: Iterable[tuple[ModeId, tuple[ModeId, ...]]], consts: Optional[tuple] = None) -> Optional[_LinearTape]:
    """A linear element's tape on ``sig``, recorded from its structure alone, each output slot
    numbered on first use; None for no source mode, as when none holds a photon.  ``consts`` are
    the coefficients of an element whose coefficients are constant."""
    structure = tuple(structure)
    if not structure:
        return None
    modes, pad, touched, shape, project = _layout(_linear_layout, sig.modes, structure)
    slots: dict[bytes, int] = {}
    patterns: dict[Sequence[int], tuple[int, tuple]] = {}
    steps = []
    for occ in sig.keys():
        occ += pad
        local = project(occ)
        if local not in patterns:
            patterns[local] = len(patterns), _layout(_linear_plan, local, shape, touched)
        k, plan = patterns[local]
        step = [slots.setdefault(_moved(occ, changes), len(slots)) for changes in plan[2]]
        step.append(k)
        steps.append(_shared(tuple(step)))
    return _LinearTape(tuple(plan for _, plan in patterns.values()), tuple(steps), _signature(modes, list(slots)), len(structure), consts)


def _linear(state: FockState, tape: Optional[_LinearTape], coeffs: Optional[tuple] = None) -> FockState:
    """Replay ``tape`` on the packed ``state`` with the flat ``coeffs``, by default its constants."""
    if tape is None:
        return state
    rows = tape.rows(tape.consts if coeffs is None else coeffs)
    out = [0.0j] * tape.out_sig.count
    for amp, step in zip(state._amps, tape.steps):
        divisors, values, factors = rows[step[-1]]
        if divisors:
            amp = reduce(truediv, divisors, amp)  # amp / d1 / d2 ..., in order
            for j, coeff, factor in zip(step, values, factors):  # stops before the pattern index
                out[j] += amp * coeff * factor
        else:
            out[step[0]] += amp
    return _replayed(tape.out_sig, out)


def _sig_pols(sig: _Signature, spatial: str) -> list[Optional[str]]:
    """The polarizations holding photons in ``spatial`` (sinks excluded), sorted: the submodes every element acts on."""
    w, p = len(sig.modes), sig.packed
    return sorted({m.pol for i, m in enumerate(sig.modes) if m.spatial == spatial and not m.sink and any(p[i::w])}, key=str)


def _distinct_ports(element: str, in1: Optional[str], in2: Optional[str], out1: str, out2: str) -> None:
    if (in1 is not None and in1 == in2) or out1 == out2:
        raise ValueError(f"{element} ports repeat: in {in1!r}, {in2!r}; out {out1!r}, {out2!r}")


def _isometric(sig: _Signature, element: str, structure: Collection[tuple[ModeId, tuple[ModeId, ...]]]) -> None:
    """Refuse a target or sink submode that is no source yet holds a photon: the norm would drift."""
    w, p = len(sig.modes), sig.packed
    index = {m: i for i, m in enumerate(sig.modes)}
    sources = {m for m, _ in structure}
    held = sorted({t.label() for _, outs in structure for t in outs if t not in sources and t in index and any(p[index[t]::w])})
    if held:
        raise ValueError(f"{element} would add photons to {held}, which already hold photons it does not move")


def _beamsplitter_front(sig: _Signature, in1: Optional[str], in2: Optional[str], out1: str, out2: str) -> Optional[_LinearTape]:
    _distinct_ports("beam splitter", in1, in2, out1, out2)
    s = 1.0 / math.sqrt(2.0)
    pairs = {src: dsts for src, dsts in ((in1, (out2, out1)), (in2, (out1, out2))) if src is not None}
    structure = [(ModeId(src, pol), tuple(ModeId(d, pol) for d in dsts)) for src, dsts in pairs.items() for pol in _sig_pols(sig, src)]
    _isometric(sig, "beam splitter", structure)
    return _front(sig, structure, (s, 1j * s) * len(structure))


def apply_beamsplitter(state: FockState, in1: Optional[str], in2: Optional[str], out1: str, out2: str) -> FockState:
    """Balanced beam splitter: in1 -> (out2 + i out1)/sqrt2, in2 -> (out1 + i out2)/sqrt2.

    Either input may be ``None`` (vacuum port).  Polarization submodes are
    transformed independently.  Two equal inputs or two equal outputs raise
    ValueError, as does an output submode holding a photon that is no input.
    """
    return _linear(state, _layout(_beamsplitter_front, state._sig, in1, in2, out1, out2))


def _phase_front(sig: _Signature, spatial: str) -> Optional[_LinearTape]:
    return _front(sig, [(ModeId(spatial, pol), (ModeId(spatial, pol),)) for pol in _sig_pols(sig, spatial)])


def apply_phase(state: FockState, spatial: str, phase: float) -> FockState:
    """Phase shifter: every photon in ``spatial`` picks up exp(i*phase)."""
    if not math.isfinite(phase):
        raise ValueError("phase must be finite")
    c = complex(math.cos(phase), math.sin(phase))
    tape = _layout(_phase_front, state._sig, spatial)
    return state if tape is None else _linear(state, tape, (c,) * tape.count)  # one per source mode


def _pbs_front(sig: _Signature, in1: str, in2: str, out1: str, out2: str) -> Optional[_LinearTape]:
    _distinct_ports("PBS", in1, in2, out1, out2)
    mapping: dict[ModeId, tuple[ModeId]] = {}
    for src, t_out, r_out in ((in1, out2, out1), (in2, out1, out2)):
        for pol in _sig_pols(sig, src):
            if pol not in _HV:
                raise ValueError(f"PBS input {src} carries polarization {pol!r}; expected H/V")
            mapping[ModeId(src, pol)] = (ModeId(t_out if pol == "H" else r_out, pol),)
    _isometric(sig, "PBS", mapping.items())
    return _front(sig, mapping.items(), tuple(1.0 + 0.0j if m.pol == "H" else 1j for m in mapping))


def apply_pbs(state: FockState, in1: str, in2: str, out1: str, out2: str) -> FockState:
    """Polarizing beam splitter: H transmits, V reflects with a factor i.

    in1_H -> out2_H, in1_V -> i*out1_V, in2_H -> out1_H, in2_V -> i*out2_V.
    Photons must be expressed in the H/V basis: a diagonal or unpolarized
    photon in either input raises ValueError, as do two equal inputs or two
    equal outputs, and an output submode holding a photon that is no input.
    """
    return _linear(state, _layout(_pbs_front, state._sig, in1, in2, out1, out2))


def _rotation_front(sig: _Signature, spatial: str) -> Optional[_LinearTape]:
    pols = _sig_pols(sig, spatial)
    if all(p in _HV for p in pols):
        src, dst = _HV, _DIAG
    elif all(p in _DIAG for p in pols):
        src, dst = _DIAG, _HV
    else:
        raise ValueError(f"mode {spatial} holds polarizations {pols}; expected all H/V or all +/-")
    s, targets = 1.0 / math.sqrt(2.0), (ModeId(spatial, dst[0]), ModeId(spatial, dst[1]))
    return _front(sig, ((ModeId(spatial, pol), targets) for pol in pols), tuple(c for pol in pols for c in (s, s if pol == src[0] else -s)))


def apply_rotation_45(state: FockState, spatial: str) -> FockState:
    """45-degree polarization rotation between the H/V and +/- bases.

    H -> (+ + -)/sqrt2, V -> (+ - -)/sqrt2 and, when the mode already holds
    diagonal labels, the inverse map back to H/V.  Applying the rotation and
    then its inverse is the identity.  A mode whose photons mix the two bases,
    or include an unpolarized one, raises ValueError.
    """
    return _linear(state, _layout(_rotation_front, state._sig, spatial))


def _loss_front(sig: _Signature, spatial: str, tag: str) -> Optional[_LinearTape]:
    structure = [(ModeId(spatial, pol), (ModeId(spatial, pol), ModeId(spatial, pol, sink=True, tag=tag))) for pol in _sig_pols(sig, spatial)]
    _isometric(sig, "loss", structure)
    return _front(sig, structure)


def apply_loss(state: FockState, spatial: str, transmission: float, tag: str = "lin") -> FockState:
    """Linear (single-photon) loss on every photon of a spatial mode; a ``tag`` sink holding a photon raises ValueError."""
    if not 0.0 <= transmission <= 1.0:
        raise ValueError("transmission must lie in [0, 1]")
    t = math.sqrt(transmission)
    r = math.sqrt(1.0 - transmission)
    tape = _layout(_loss_front, state._sig, spatial, tag)
    return state if tape is None else _linear(state, tape, (t + 0.0j, r + 0.0j) * tape.count)


@dataclass(frozen=True)
class NonlinearMediumSpec:
    """Conditional-phase medium parameters for one router.

    phi1/tau1 act on each photon alone; phi2/tau2 are the extra phase and
    absorption picked up by the second photon of a blockaded pair.  The phase
    signs are mirrored between the two interferometer arms via the per-arm
    sign passed to :func:`apply_nonlinear_medium`.

    ``interaction_basis`` names the polarization basis the arm photons must be
    expressed in.  ``pair_coupling`` selects whether only same-polarization
    pairs are blockaded (self-phase modulation) or any two photons sharing the
    arm ("any", polarization-insensitive blockade).  Any other value of
    either field raises ValueError when the spec is built.
    """

    phi1: float
    tau1: float
    phi2: float
    tau2: float
    interaction_basis: str = "diagonal"  # "diagonal" or "hv"
    pair_coupling: str = "same_polarization"  # or "any"

    def __post_init__(self) -> None:
        if self.interaction_basis not in _BASIS_POLS:
            raise ValueError(f"unknown interaction basis {self.interaction_basis!r}; expected 'diagonal' or 'hv'")
        if self.pair_coupling not in ("same_polarization", "any"):
            raise ValueError(f"unknown pair coupling {self.pair_coupling!r}; expected 'same_polarization' or 'any'")
        if not (0.0 <= self.tau1 <= 1.0 and 0.0 <= self.tau2 <= 1.0):
            raise ValueError(f"medium absorptions tau1={self.tau1!r}, tau2={self.tau2!r} must lie in [0, 1]")
        if not (math.isfinite(self.phi1) and math.isfinite(self.phi2)):
            raise ValueError(f"medium phases phi1={self.phi1!r}, phi2={self.phi2!r} must be finite")


def _medium_tape(sig: _Signature, arm: str, basis: str, coupling: str) -> Optional[tuple]:
    """(output signature, per input slot the factors of each branch), or None when no arm submode
    holds a photon.  Each arm submode holding one grows a single and a pair sink.  The signature
    lists each branch's key in branch order; sinks holding photons are refused, so no two share one."""
    pols = _sig_pols(sig, arm)
    for pol in pols:
        if pol is not None and pol not in _BASIS_POLS[basis]:
            raise ValueError(f"arm {arm} photon polarization {pol!r} is not in the medium's {basis} interaction basis")
    arm_modes = [m for m in sig.modes if m.spatial == arm and not m.sink and m.pol in pols]  # registry order
    if not arm_modes:
        return None
    sinks = {(m, k): ModeId(arm, m.pol, sink=True, tag=k) for m in arm_modes for k in ("single", "pair")}
    _isometric(sig, "nonlinear medium", [(m, (sinks[m, "single"], sinks[m, "pair"])) for m in arm_modes])
    modes, grown = _grown(sig.modes, sinks.values())
    pad = bytes(grown)
    index = {m: i for i, m in enumerate(modes)}
    idx = [index[m] for m in arm_modes]
    sidx = {(index[m], k): index[sink] for (m, k), sink in sinks.items()}

    def absorbed(occ: bytes, *moves: tuple[int, str]) -> bytes:
        """``occ`` with one photon of each ``(arm position, kind)`` moved to that submode's ``kind`` sink."""
        lost = bytearray(occ)
        for i, kind in moves:
            lost[i] -= 1
            lost[sidx[i, kind]] += 1
        return bytes(lost)

    def branches(occ: bytes) -> list[tuple[bytes, int]]:
        """The Kraus branches of one padded term, in order: each output key and the index
        of its factors in ``apply_nonlinear_medium``'s ``factors``."""
        occupied = [i for i in idx if occ[i]]
        n = sum(occ[i] for i in occupied)
        if n == 0:
            return [(occ, 0)]
        if n == 1:
            return [(occ, 1), (absorbed(occ, (occupied[0], "single")), 2)]
        if n != 2:
            raise ValueError(f"nonlinear medium supports at most 2 photons per arm, got {n}")
        if len(occupied) == 1 or coupling == "any":
            out = [(occ, 3)]
            for kind, same, cross in (("pair", 4, 5), ("single", 2, 6)):
                if len(occupied) == 1:
                    out.append((absorbed(occ, (occupied[0], kind)), same))
                else:
                    out += [(absorbed(occ, (i, kind)), cross) for i in occupied]
            return out
        # two distinguishable-polarization photons, self-phase only: each passes the single-photon channel alone
        a, b = occupied
        return [(occ, 7), (absorbed(occ, (b, "single")), 8), (absorbed(occ, (a, "single")), 8),
                (absorbed(occ, (a, "single"), (b, "single")), 9)]

    keys, steps = [], []
    for occ in sig.keys():
        step = branches(occ + pad)
        keys += [k for k, _ in step]
        steps.append(_shared(tuple(f for _, f in step)))
    return _signature(modes, keys), tuple(steps)


def apply_nonlinear_medium(state: FockState, arm: str, spec: NonlinearMediumSpec, sign: int = 1) -> FockState:
    """Send one interferometer arm through the nonlinear medium.

    Every basis term is expanded over the Kraus branches of the medium:
    single photons get sqrt(1-tau1)*exp(i*sign*phi1) plus an absorption
    branch; photon pairs in the arm get the blockaded-pair amplitude
    sqrt((1-tau1)(1-tau2))*exp(i*sign*(phi1+phi2)) plus first/second-photon
    absorption branches.  Branch probabilities sum to 1 exactly, and prune
    drops a zero branch.  More than two photons in one arm, an arm photon
    outside the spec's interaction basis, or a sink holding a photon raises
    ValueError; an unpolarized arm photon is accepted.
    """
    if sign not in (-1, 1):
        raise ValueError("arm phase sign must be +1 or -1")
    t1 = math.sqrt(1.0 - spec.tau1)
    t2 = math.sqrt(1.0 - spec.tau2)
    e1 = complex(math.cos(sign * spec.phi1), math.sin(sign * spec.phi1))
    e12 = complex(math.cos(sign * (spec.phi1 + spec.phi2)), math.sin(sign * (spec.phi1 + spec.phi2)))
    r1 = math.sqrt(spec.tau1)
    r2 = math.sqrt(spec.tau2)
    w = 1.0 / math.sqrt(2.0)  # a cross-polarized blockaded pair loses either photon
    k = t1 * r2 * e1  # a blockaded pair loses its second photon
    # a branch's amplitude is the term's times its factors, left to right
    factors = ((), (t1, e1), (r1,), (t1, t2, e12), (k,), (k, w), (r1, w), ((t1 * e1) ** 2,), (t1, e1, r1), (r1, r1))

    tape = _layout(_medium_tape, state._sig, arm, spec.interaction_basis, spec.pair_coupling)
    if tape is None:
        return state
    out_sig, steps = tape
    return _replayed(out_sig, [0.0j + reduce(mul, factors[f], amp) for amp, step in zip(state._amps, steps) for f in step])


def apply_detector_efficiency(state: FockState, spatials: Sequence[str], p_de: float) -> FockState:
    """Model per-photon detection efficiency on the listed detector modes.

    Each photon independently survives with probability ``p_de`` or moves to
    an undetected sink for its detector, yielding the exact binomial click
    statistics for number-resolving detectors.  A detector listed twice
    raises ValueError, at every ``p_de``.
    """
    if not 0.0 <= p_de <= 1.0:
        raise ValueError("p_de must lie in [0, 1]")
    if len(set(spatials)) != len(spatials):
        raise ValueError(f"a detector is listed twice: {list(spatials)}")
    if p_de == 1.0:
        return state
    for sp in spatials:
        state = apply_loss(state, sp, p_de, tag="undet")
    return state


# -------------------------------------------------------------- measurement


@dataclass
class OutcomeRecord:
    """One detection pattern with its probability and protocol verdict.

    ``pattern`` holds a ``(ModeId, count)`` pair for each detected mode that
    clicked, in detector order; ``ModeId.label()`` is its display form.
    """

    pattern: tuple[tuple[ModeId, int], ...]
    probability: float
    classification: str = ""
    posterior: Optional[FockState] = None

    def clicks(self) -> int:
        return sum(n for _, n in self.pattern)


def _measure_tape(sig: _Signature, detected: tuple[ModeId, ...], keep_posterior: bool) -> tuple:
    """Per detected key, in sorted order: its pattern, the input slots it sums (in order) and,
    with ``keep_posterior``, the signature of their undetected parts."""
    if len(set(detected)) != len(detected):
        raise ValueError(f"a detected mode is listed twice: {[m.label() for m in detected]}")
    modes, grown = _grown(sig.modes, detected)
    pad = bytes(grown)
    keys = [occ + pad for occ in sig.keys()]
    det_idx = [modes.index(m) for m in detected]
    project = _projector(det_idx)
    groups: dict[Sequence[int], list[int]] = defaultdict(list)
    for i, occ in enumerate(keys):
        groups[project(occ)].append(i)
    rest_idx = [i for i in range(len(modes)) if i not in det_idx]
    rest_modes, rest = tuple(modes[i] for i in rest_idx), _projector(rest_idx)
    tape = []
    for key in sorted(groups):
        slots = tuple(groups[key])
        post = _signature(rest_modes, [bytes(rest(keys[i])) for i in slots]) if keep_posterior else None
        pattern = tuple((m, n) for m, n in zip(detected, key) if n)
        tape.append((pattern, _shared(slots), post))
    return tuple(tape)


def measure_all(state: FockState, detected: Sequence[ModeId], keep_posterior: bool = False) -> list[OutcomeRecord]:
    """Enumerate photon-number patterns over the detected modes.

    Each record's pattern is the ``(ModeId, count)`` pairs of the detected
    modes that clicked, in the order of ``detected``.  Undetected modes
    (including every sink) are marginalized.  Posteriors are built only on
    request (``keep_posterior``): each is the renormalized conditional state
    with the detected modes projected out.  A mode listed twice in
    ``detected`` raises ValueError.
    """
    tape = _layout(_measure_tape, state._sig, tuple(detected), keep_posterior)
    amps = state._amps
    records = []
    for pattern, slots, post_sig in tape:
        group = [amps[i] for i in slots]
        prob = reduce(add, map(pow, map(abs, group), repeat(2)), 0.0)  # abs(a) ** 2, summed left to right
        post = None
        if keep_posterior and prob > 0.0:
            factor = 1.0 / math.sqrt(prob)
            post = FockState._of(post_sig, [a * factor for a in group])
        records.append(OutcomeRecord(pattern=pattern, probability=prob, posterior=post))
    return records
