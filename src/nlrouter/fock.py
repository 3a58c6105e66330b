"""Sparse few-photon state vectors and the optical elements acting on them.

States are kept as a mapping from occupation vectors to complex amplitudes.
Loss is purified: every absorption event moves the lost photon into a
dedicated sink mode instead of tracing it out, so the global state stays a
normalized ket and total photon number is conserved exactly.

The golden datasets pin the simulator's ``abs_delta`` column to the last
ulp, so a change to this engine must keep every floating-point operation
and its order (and the insertion order of every term dict) as it is.  Work
that repeats is memoised instead.  Each element's layout (the grown
registry, the positions it reads and writes, its projectors) is built once
per circuit shape: one module-level table keys it by the registry and the
element's structure (a linear map's source and target modes, a medium's arm
and basis, the detected modes), never by coefficients, so every operating
point of a sweep shares one entry.  The table is cleared past
``_LAYOUT_LIMIT`` entries, which bounds its memory.  A linear map's layout
also holds its added-photon plans, one per occupation pattern of the
touched modes, for the last coefficient vector it saw.

Every element acts only on the polarization submodes of a spatial mode that
hold photons (``_pol_variants``): a photon-free submode is left alone and
never grows the registry.  The polarizing beam splitter and the 45-degree
rotation refuse a photon outside their bases, an unpolarized one included.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter, truediv
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

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


def _padded(terms: dict[tuple, complex], pad: tuple) -> dict[tuple, complex]:
    """``terms`` with each occupation tuple extended by ``pad`` (zeros for newly added modes)."""
    return {occ + pad: a for occ, a in terms.items()} if pad else terms


def _grown(modes: tuple[ModeId, ...], new: Iterable[ModeId]) -> tuple[tuple[ModeId, ...], tuple]:
    """``modes`` followed by each of ``new`` it lacks (once, in listed order), and the zero pad for a term."""
    have = set(modes)
    missing = tuple(dict.fromkeys(m for m in new if m not in have))
    return modes + missing, (0,) * len(missing)


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

    ``terms`` maps occupation tuples (aligned with ``modes``) to amplitudes.
    All mutating helpers return new instances; the registry only ever grows.
    """

    __slots__ = ("modes", "terms")

    def __init__(self, modes: Sequence[ModeId] = (), terms: Optional[Mapping[tuple, complex]] = None):
        self.modes: tuple[ModeId, ...] = tuple(modes)
        self.terms: dict[tuple, complex] = dict(terms or {})

    # ---------------------------------------------------------------- basics

    @classmethod
    def from_occupations(cls, occupations: Mapping[ModeId, int]) -> "FockState":
        modes = tuple(occupations)
        occ = tuple(occupations[m] for m in modes)
        return cls(modes, {occ: 1.0 + 0.0j})

    def ensure_modes(self, new_modes: Iterable[ModeId]) -> "FockState":
        """Return an equivalent state whose registry includes ``new_modes``."""
        modes, pad = _grown(self.modes, new_modes)
        return FockState(modes, _padded(self.terms, pad)) if pad else self

    def norm_squared(self) -> float:
        return sum((a.real * a.real + a.imag * a.imag) for a in self.terms.values())

    def total_photons(self) -> set[int]:
        """Set of total photon numbers present across basis terms."""
        return {sum(occ) for occ in self.terms}

    def prune(self, tol: float = PRUNE_TOL) -> "FockState":
        pruned = FockState(self.modes, self.terms)
        for occ in [occ for occ, a in self.terms.items() if not abs(a) > tol]:
            del pruned.terms[occ]
        return pruned

    def scaled(self, factor: complex) -> "FockState":
        return FockState(self.modes, {occ: a * factor for occ, a in self.terms.items()})

    def normalized(self) -> "FockState":
        n = math.sqrt(self.norm_squared())
        if n == 0.0:
            raise ValueError("cannot normalize a zero state")
        return self.scaled(1.0 / n)

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

    def inner(self, other: "FockState") -> complex:
        a = self.ensure_modes(other.modes)
        b = other.ensure_modes(a.modes)
        pos = {m: i for i, m in enumerate(b.modes)}
        perm = [pos[m] for m in a.modes]
        bterms = {tuple(occ[p] for p in perm): amp for occ, amp in b.terms.items()}
        out = 0.0j
        for occ, amp in a.terms.items():
            if occ in bterms:
                out += amp.conjugate() * bterms[occ]
        return out

    def fidelity(self, other: "FockState") -> float:
        return abs(self.inner(other)) ** 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        for occ, amp in sorted(self.terms.items()):
            ket = ",".join(f"{n}:{m.label()}" for n, m in zip(occ, self.modes) if n)
            parts.append(f"({amp:.4g})|{ket or 'vac'}>")
        return " + ".join(parts) or "0"


# ------------------------------------------------------------------ channels


def _projector(idx: Sequence[int]) -> Callable[[tuple], tuple]:
    """C-level ``tuple(occ[i] for i in idx)``: itemgetter, or a slice for 0 or 1 index."""
    if len(idx) > 1:
        return itemgetter(*idx)
    return itemgetter(slice(idx[0], idx[0] + 1) if idx else slice(0))


def _linear_plan(local: tuple, mapped: list[tuple[int, list[tuple[int, complex]]]], touched: list[int]) -> tuple[list, list]:
    """The map of every term whose ``touched`` entries (ascending) read ``local``: the ``sqrt(n!)``
    divisors, and per added-photon monomial its ``(index, count)`` changes, coefficient and factor."""
    base = list(local)
    divisors = []
    # polynomial over added photons: sorted ((target, count), ...) -> coeff;
    # the keys are canonical, so they merge and iterate as dense occupation tuples would
    poly: dict[tuple[tuple[int, int], ...], complex] = {(): 1.0 + 0.0j}
    for i, outs in mapped:
        n = local[i]
        if n:
            base[i] = 0
            divisors.append(math.sqrt(math.factorial(n)))
            for _ in range(n):
                nxt: dict[tuple[tuple[int, int], ...], complex] = {}
                for add, coeff in poly.items():
                    for j, c in outs:
                        counts = dict(add)
                        counts[j] = counts.get(j, 0) + 1
                        key = tuple(sorted(counts.items()))
                        nxt[key] = nxt.get(key, 0.0j) + coeff * c
                poly = nxt
    monomials = []
    for add, coeff in poly.items():
        factor = 1.0
        final = list(base)
        for j, extra in add:
            final[j] += extra
            factor *= math.sqrt(math.factorial(final[j]) / math.factorial(base[j]))
        monomials.append(([(touched[k], n) for k, n in enumerate(final) if n != local[k]], coeff, factor))
    return divisors, monomials


# The layout table (see the module docstring).  Keys never hold coefficients:
# a random p_de per call would make a new entry per call.
_LAYOUT_LIMIT = 4096
_LAYOUTS: dict[tuple, object] = {}


def _layout(build: Callable, *shape):
    """``build(*shape)``, made once per shape: a registry and an element's structure."""
    key = (build, *shape)
    layout = _LAYOUTS.get(key)
    if layout is None:
        if len(_LAYOUTS) >= _LAYOUT_LIMIT:
            _LAYOUTS.clear()
        layout = _LAYOUTS[key] = build(*shape)
    return layout


class _LinearLayout:
    """A linear map of one structure on one registry; ``plans`` holds for one coefficient vector."""

    __slots__ = ("modes", "pad", "touched", "shape", "project", "plans")

    def __init__(self, modes: tuple[ModeId, ...], structure: tuple[tuple[ModeId, tuple[ModeId, ...]], ...]):
        sources = [m for m, _ in structure]
        targets = [t for _, outs in structure for t in outs]
        self.modes, self.pad = _grown(modes, sources + targets)
        index = {m: i for i, m in enumerate(self.modes)}
        self.touched = sorted({index[m] for m in sources} | {index[t] for t in targets})
        pos = {self.modes[i]: k for k, i in enumerate(self.touched)}
        self.shape = [(pos[m], [pos[t] for t in outs]) for m, outs in structure]
        self.project = _projector(self.touched)
        # (coefficients, mapped, {local pattern: plan}), replaced whole so that a
        # call never reads plans made for other coefficients
        self.plans: tuple[tuple, list, dict] = ((), [], {})


def _apply_linear_map(state: FockState, mapping: Mapping[ModeId, Sequence[tuple[ModeId, complex]]]) -> FockState:
    """Apply a (partial-isometry) linear map on creation operators.

    Each input mode operator is replaced by the given combination of output
    operators; occupation factorials are handled so normalized kets map to
    normalized kets whenever the single-photon matrix is an isometry.
    """
    layout = _layout(_LinearLayout, state.modes, tuple((m, tuple(t for t, _ in outs)) for m, outs in mapping.items()))
    coeffs = tuple(c for outs in mapping.values() for _, c in outs)
    known, mapped, plans = layout.plans
    # a plan's coefficients are sums that start at 0.0j, so coefficients equal
    # under == (0.0 and -0.0 alike) give bit-identical plans
    if known != coeffs:
        mapped = [(i, [(j, c) for j, (_, c) in zip(js, outs)]) for (i, js), outs in zip(layout.shape, mapping.values())]
        plans = {}
        layout.plans = (coeffs, mapped, plans)
    terms = _padded(state.terms, layout.pad)
    project, touched = layout.project, layout.touched
    new_terms: dict[tuple, complex] = {}
    for occ, amp in terms.items():
        local = project(occ)
        divisors, monomials = plans.get(local) or plans.setdefault(local, _linear_plan(local, mapped, touched))
        if not divisors:
            new_terms[occ] = new_terms.get(occ, 0.0j) + amp
            continue
        amp_eff = reduce(truediv, divisors, amp)  # amp / d1 / d2 ..., in order
        for changes, coeff, factor in monomials:
            final = list(occ)
            for j, n in changes:
                final[j] = n
            key = tuple(final)
            new_terms[key] = new_terms.get(key, 0.0j) + amp_eff * coeff * factor
    return FockState(layout.modes, new_terms).prune()


def _spatial_columns(modes: tuple[ModeId, ...], spatial: str) -> list[tuple[Optional[str], Callable]]:
    return [(m.pol, itemgetter(i)) for i, m in enumerate(modes) if m.spatial == spatial and not m.sink]


def _pol_variants(state: FockState, spatial: str) -> list[Optional[str]]:
    """The polarizations holding photons in ``spatial`` (sinks excluded), sorted: the submodes every element acts on."""
    columns = _layout(_spatial_columns, state.modes, spatial)
    return sorted({pol for pol, column in columns if any(map(column, state.terms))}, key=str)


def _spatial_map(state: FockState, pairs: Mapping[str, Sequence[tuple[str, complex]]]) -> FockState:
    """Lift a spatial-mode map to every polarization submode that holds photons."""
    mapping = {
        ModeId(src, pol): [(ModeId(dst, pol), c) for dst, c in outs]
        for src, outs in pairs.items()
        for pol in _pol_variants(state, src)
    }
    return _apply_linear_map(state, mapping) if mapping else state


def apply_beamsplitter(state: FockState, in1: Optional[str], in2: Optional[str], out1: str, out2: str) -> FockState:
    """Balanced beam splitter: in1 -> (out2 + i out1)/sqrt2, in2 -> (out1 + i out2)/sqrt2.

    Either input may be ``None`` (vacuum port).  Polarization submodes are
    transformed independently.
    """
    s = 1.0 / math.sqrt(2.0)
    pairs: dict[str, list[tuple[str, complex]]] = {}
    if in1 is not None:
        pairs[in1] = [(out2, s), (out1, 1j * s)]
    if in2 is not None:
        pairs[in2] = [(out1, s), (out2, 1j * s)]
    return _spatial_map(state, pairs)


def apply_phase(state: FockState, spatial: str, phase: float) -> FockState:
    """Phase shifter: every photon in ``spatial`` picks up exp(i*phase)."""
    c = complex(math.cos(phase), math.sin(phase))
    return _spatial_map(state, {spatial: [(spatial, c)]})


def apply_pbs(state: FockState, in1: str, in2: str, out1: str, out2: str) -> FockState:
    """Polarizing beam splitter: H transmits, V reflects with a factor i.

    in1_H -> out2_H, in1_V -> i*out1_V, in2_H -> out1_H, in2_V -> i*out2_V.
    Photons must be expressed in the H/V basis: a diagonal or unpolarized
    photon in either input raises ValueError.
    """
    mapping: dict[ModeId, list[tuple[ModeId, complex]]] = {}
    for src, t_out, r_out in ((in1, out2, out1), (in2, out1, out2)):
        routes = {"H": (t_out, 1.0 + 0.0j), "V": (r_out, 1j)}
        for pol in _pol_variants(state, src):
            if pol not in routes:
                raise ValueError(f"PBS input {src} carries polarization {pol!r}; expected H/V")
            dst, c = routes[pol]
            mapping[ModeId(src, pol)] = [(ModeId(dst, pol), c)]
    return _apply_linear_map(state, mapping) if mapping else state


def apply_rotation_45(state: FockState, spatial: str) -> FockState:
    """45-degree polarization rotation between the H/V and +/- bases.

    H -> (+ + -)/sqrt2, V -> (+ - -)/sqrt2 and, when the mode already holds
    diagonal labels, the inverse map back to H/V.  Applying the rotation and
    then its inverse is the identity.  A mode whose photons mix the two bases,
    or include an unpolarized one, raises ValueError.
    """
    pols = _pol_variants(state, spatial)
    if all(p in _HV for p in pols):
        src, dst = _HV, _DIAG
    elif all(p in _DIAG for p in pols):
        src, dst = _DIAG, _HV
    else:
        raise ValueError(f"mode {spatial} holds polarizations {pols}; expected all H/V or all +/-")
    s = 1.0 / math.sqrt(2.0)
    mapping = {
        ModeId(spatial, pol): [(ModeId(spatial, dst[0]), s), (ModeId(spatial, dst[1]), s if pol == src[0] else -s)]
        for pol in pols
    }
    return _apply_linear_map(state, mapping) if mapping else state


def apply_loss(state: FockState, spatial: str, transmission: float, tag: str = "lin") -> FockState:
    """Linear (single-photon) loss channel on every photon of a spatial mode."""
    if not 0.0 <= transmission <= 1.0:
        raise ValueError("transmission must lie in [0, 1]")
    t = math.sqrt(transmission)
    r = math.sqrt(1.0 - transmission)
    mapping = {
        ModeId(spatial, pol): [(ModeId(spatial, pol), t + 0.0j), (ModeId(spatial, pol, sink=True, tag=tag), r + 0.0j)]
        for pol in _pol_variants(state, spatial)
    }
    return _apply_linear_map(state, mapping) if mapping else state


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


class _MediumLayout:
    """The arm's modes and their sink modes (grown into the registry) for one registry and basis."""

    __slots__ = ("modes", "pad", "idx", "sidx")

    def __init__(self, modes: tuple[ModeId, ...], arm: str, basis: str):
        allowed = _BASIS_POLS[basis]
        arm_modes = [m for m in modes if m.spatial == arm and not m.sink]
        for m in arm_modes:
            if m.pol is not None and m.pol not in allowed:
                raise ValueError(
                    f"arm {arm} photon polarization {m.pol!r} is not in the medium's {basis} interaction basis"
                )
        sinks = {(m.pol, k): ModeId(arm, m.pol, sink=True, tag=k) for m in arm_modes for k in ("single", "pair")}
        self.modes, self.pad = _grown(modes, sinks.values())
        index = {m: i for i, m in enumerate(self.modes)}
        self.idx = {m: index[m] for m in arm_modes}
        self.sidx = {key: index[m] for key, m in sinks.items()}


def apply_nonlinear_medium(state: FockState, arm: str, spec: NonlinearMediumSpec, sign: int = 1) -> FockState:
    """Send one interferometer arm through the nonlinear medium.

    Every basis term is expanded over the Kraus branches of the medium:
    single photons get sqrt(1-tau1)*exp(i*sign*phi1) plus an absorption
    branch; photon pairs in the arm get the blockaded-pair amplitude
    sqrt((1-tau1)(1-tau2))*exp(i*sign*(phi1+phi2)) plus first/second-photon
    absorption branches.  Branch probabilities sum to 1 exactly.  More than
    two photons in one arm is unsupported.
    """
    if sign not in (-1, 1):
        raise ValueError("arm phase sign must be +1 or -1")
    layout = _layout(_MediumLayout, state.modes, arm, spec.interaction_basis)
    if not layout.idx:
        return state
    idx, sidx = layout.idx, layout.sidx
    terms = _padded(state.terms, layout.pad)

    t1 = math.sqrt(1.0 - spec.tau1)
    t2 = math.sqrt(1.0 - spec.tau2)
    e1 = complex(math.cos(sign * spec.phi1), math.sin(sign * spec.phi1))
    e12 = complex(math.cos(sign * (spec.phi1 + spec.phi2)), math.sin(sign * (spec.phi1 + spec.phi2)))
    r1 = math.sqrt(spec.tau1)
    r2 = math.sqrt(spec.tau2)
    w = 1.0 / math.sqrt(2.0)  # a cross-polarized blockaded pair loses either photon

    new_terms: dict[tuple, complex] = {}

    def put(occ: tuple, amp: complex) -> None:
        if amp != 0.0:
            new_terms[occ] = new_terms.get(occ, 0.0j) + amp

    def absorbed(occ: tuple, *moves: tuple[ModeId, str]) -> tuple:
        """``occ`` with one photon of each ``(arm mode, kind)`` moved to that mode's ``kind`` sink."""
        lost = list(occ)
        for m, kind in moves:
            lost[idx[m]] -= 1
            lost[sidx[(m.pol, kind)]] += 1
        return tuple(lost)

    for occ, amp in terms.items():
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
                for kind, amp_k in (("pair", t1 * r2 * e1), ("single", r1)):  # put drops a zero branch
                    if same_pol:
                        put(absorbed(occ, (occupied[0][0], kind)), amp * amp_k)
                    else:
                        for m, _ in occupied:
                            put(absorbed(occ, (m, kind)), amp * amp_k * w)
            else:
                # two distinguishable-polarization photons, self-phase only:
                # each passes the single-photon channel independently
                (ma, _), (mb, _) = occupied
                put(occ, amp * (t1 * e1) ** 2)
                for lose in (mb, ma):
                    put(absorbed(occ, (lose, "single")), amp * t1 * e1 * r1)
                put(absorbed(occ, (ma, "single"), (mb, "single")), amp * r1 * r1)
        else:
            raise ValueError(f"nonlinear medium supports at most 2 photons per arm, got {n}")
    return FockState(layout.modes, new_terms).prune()


def apply_detector_efficiency(state: FockState, spatials: Sequence[str], p_de: float) -> FockState:
    """Model per-photon detection efficiency on the listed detector modes.

    Each photon independently survives with probability ``p_de`` or moves to
    an undetected sink for its detector, yielding the exact binomial click
    statistics for number-resolving detectors.
    """
    if not 0.0 <= p_de <= 1.0:
        raise ValueError("p_de must lie in [0, 1]")
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


class _MeasureLayout:
    """Projections of one registry onto one detected-mode list, and each projected key's pattern."""

    __slots__ = ("modes", "pad", "project", "detected", "patterns", "rest_modes", "rest")

    def __init__(self, modes: tuple[ModeId, ...], detected: tuple[ModeId, ...]):
        self.modes, self.pad = _grown(modes, detected)
        index = {m: i for i, m in enumerate(self.modes)}
        det_idx = [index[m] for m in detected]
        self.project = _projector(det_idx)
        self.detected = detected
        self.patterns: dict[tuple, tuple[tuple[ModeId, int], ...]] = {}
        rest_idx = sorted(set(range(len(self.modes))) - set(det_idx))
        self.rest_modes, self.rest = tuple(self.modes[i] for i in rest_idx), _projector(rest_idx)


def measure_all(state: FockState, detected: Sequence[ModeId], keep_posterior: bool = False) -> list[OutcomeRecord]:
    """Enumerate photon-number patterns over the detected modes.

    Each record's pattern is the ``(ModeId, count)`` pairs of the detected
    modes that clicked, in the order of ``detected``.  Undetected modes
    (including every sink) are marginalized.  Posteriors are built only on
    request (``keep_posterior``): each is the renormalized conditional state
    with the detected modes projected out.
    """
    layout = _layout(_MeasureLayout, state.modes, tuple(detected))
    terms = _padded(state.terms, layout.pad)
    project = layout.project
    groups: dict[tuple, list[complex]] = defaultdict(list)
    for occ, amp in terms.items():
        groups[project(occ)].append(amp)
    if keep_posterior:
        rest = layout.rest
        posts: dict[tuple, dict[tuple, complex]] = defaultdict(dict)
        for occ, amp in terms.items():
            posts[project(occ)][rest(occ)] = amp
    records = []
    patterns = layout.patterns
    for key in sorted(groups):
        prob = sum(abs(a) ** 2 for a in groups[key])
        pattern = patterns.get(key)
        if pattern is None:
            pattern = patterns[key] = tuple((m, n) for m, n in zip(layout.detected, key) if n)
        post = None
        if keep_posterior and prob > 0.0:
            post = FockState(layout.rest_modes, posts[key]).scaled(1.0 / math.sqrt(prob))
        records.append(OutcomeRecord(pattern=pattern, probability=prob, posterior=post))
    return records
