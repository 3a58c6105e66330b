"""Layer tracer for the benchmark's traced run.

``Tracer.installed()`` swaps the module attributes through which the layers
of nlrouter reach each other for timing wrappers, and puts every original
back on exit, so an untraced run executes the unmodified program.

    cli        cli.main
    protocols  protocols.run_router, run_bell_measurement,
               run_evl_bell_measurement, run_ghz
    fock       the fock names protocols imports (protocols.apply_*,
               protocols.measure_all); this catches every element call,
               including those inside protocols.apply_router
    analytics  analytics.find_optimal_phase, analytics.fit_scaling_exponent,
               analytics.p_evl_bell_measurement and the closed forms in
               cli._FORMULA
    rydberg    detuned_params and loss_from_phase as protocols, analytics and
               the CLI's router rows look them up

A span records name, layer, thread, parent, start and end.  Pool threads do
not inherit the caller's stack, so a span opened on an empty stack takes the
open ``cli.main`` span as its parent.  Rydberg calls run millions of times
on the analytic workload, so inside another span they are counted and their
time is added to that span's ``leaf_ns`` instead of being recorded.
Computing counts from an element's output happens after its span has closed,
inside a ``trace.bookkeeping`` span that self and busy times leave out.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterator, NamedTuple, Optional

from nlrouter import analytics, cli, protocols, rydberg

from .checks import PARTITION_TOL, expected_success, router_ports

FOCK_KINDS = {
    "apply_beamsplitter": "linear",
    "apply_pbs": "linear",
    "apply_rotation_45": "linear",
    "apply_phase": "linear",
    "apply_loss": "linear",
    "apply_nonlinear_medium": "medium",
    "apply_detector_efficiency": "detector_efficiency",
    "measure_all": "measure",
}
RUN_FNS = ("run_router", "run_bell_measurement", "run_evl_bell_measurement", "run_ghz")
USEFUL_PROB = PARTITION_TOL  # a measured pattern with more probability than this is useful
_OPT = "analytics.find_optimal_phase"
_BOOKKEEPING = "trace.bookkeeping"


class Span(NamedTuple):
    id: int
    name: str
    layer: str
    thread: int
    parent: Optional[int]
    start_ns: int
    end_ns: int
    leaf_ns: int  # time in counted (unrecorded) rydberg calls directly inside


class _ThreadState(threading.local):
    def __init__(self, registry: list):
        self.stack: list[list] = []  # open spans: [id, leaf_ns, name]
        self.paused = False
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        registry.append((self.counts, self.peaks))  # list.append is atomic


def _union_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._registry: list = []
        self._local = _ThreadState(self._registry)
        self._cli_span: Optional[int] = None

    # ---------------------------------------------------------- recording

    def _parent(self, stack: list) -> Optional[int]:
        return stack[-1][0] if stack else self._cli_span

    @contextmanager
    def bookkeeping(self) -> Iterator[None]:
        """Run the body untraced and record its interval as trace overhead."""
        local = self._local
        local.paused = True
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            local.paused = False
            self.spans.append(Span(next(self._ids), _BOOKKEEPING, "trace", threading.get_ident(),
                                   self._parent(local.stack), start, end, 0))

    def _span(self, fn: Callable, name: str, layer: str, after: Optional[Callable] = None) -> Callable:
        local, spans, ids = self._local, self.spans, self._ids
        is_cli = layer == "cli"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if local.paused:
                return fn(*args, **kwargs)
            stack = local.stack
            sid = next(ids)
            parent = self._parent(stack)
            frame = [sid, 0, name]
            stack.append(frame)
            if is_cli:
                self._cli_span = sid
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if is_cli:
                    self._cli_span = parent
                spans.append(Span(sid, name, layer, threading.get_ident(), parent, start, end, frame[1]))
            if after is not None:
                with self.bookkeeping():
                    after(args, kwargs, out)
            return out

        return wrapper

    def _leaf(self, fn: Callable, caller: str) -> Callable:
        local, spans, ids = self._local, self.spans, self._ids
        name = f"rydberg.{fn.__name__}"
        calls_key, ns_key = f"rydberg.{caller}.calls", f"rydberg.{caller}.ns"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if local.paused:
                return fn(*args, **kwargs)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                counts, stack = local.counts, local.stack
                counts[calls_key] += 1
                counts[ns_key] += end - start
                if stack:
                    frame = stack[-1]
                    frame[1] += end - start
                    if frame[2] == _OPT:
                        counts["analytics.opt_rydberg_calls"] += 1
                else:
                    spans.append(Span(next(ids), name, "rydberg", threading.get_ident(), self._cli_span, start, end, 0))

        return wrapper

    def _fock_after(self, kind: str) -> Callable:
        local = self._local

        def after(args, kwargs, out) -> None:
            counts, peaks = local.counts, local.peaks
            if kind == "measure":
                counts["fock.measure.patterns"] += len(out)
                counts["fock.measure.useful"] += sum(1 for rec in out if rec.probability > USEFUL_PROB)
                return
            terms, n_modes = len(out.terms), len(out.modes)
            counts["fock.terms_out"] += terms
            counts["fock.outputs"] += 1
            if n_modes:
                occupied = sum(1 for column in zip(*out.terms) if any(column))
                counts["fock.occupied_ratio_sum"] += occupied / n_modes
            peaks["fock.max_modes"] = max(peaks.get("fock.max_modes", 0), n_modes)
            if kind == "detector_efficiency":
                state = args[0] if args else kwargs["state"]
                counts["fock.detector_efficiency.terms_in"] += len(state.terms)
                counts["fock.detector_efficiency.terms_out"] += terms

        return after

    def _protocol_after(self, name: str, fn: Callable) -> Callable:
        local = self._local
        signature = inspect.signature(fn)

        def after(args, kwargs, out) -> None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            delta = None
            if name == "run_router":
                residual = abs(sum(out.values()) - 1.0)
                if a["n_photons"] == 2 and a["phi1"] == 0.0:
                    ports = router_ports(a["phi"], a["od_b"])
                    delta = max(abs(out.get(k, 0.0) - v) for k, v in ports.items())
            else:
                residual = abs(out.total() - 1.0)
                if a.get("input_state", "average") == "average" and a.get("delay_transmission", 1.0) == 1.0:
                    want = expected_success(name, a["phi"], a["od_b"], a["p_de"], a.get("phi1", 0.0))
                    delta = abs(out.p_success - want)
            peaks = local.peaks
            peaks["protocols.worst_partition_residual"] = max(peaks.get("protocols.worst_partition_residual", 0.0), residual)
            if delta is not None:
                peaks["protocols.worst_engine_delta"] = max(peaks.get("protocols.worst_engine_delta", 0.0), delta)

        return after

    def cli_output(self, data: bytes) -> None:
        """Count the rows and bytes one CLI command wrote."""
        counts = self._local.counts
        counts["cli.bytes_out"] += len(data)
        lines = [line for line in data.split(b"\n") if line and not line.startswith(b"#")]
        counts["cli.rows"] += max(len(lines) - 1, 0)  # minus the header

    # ---------------------------------------------------------- install

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the layer boundaries for the duration of the block."""
        saved: list[tuple[object, str, object]] = []

        def patch(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
            original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            saved.append((owner, attr, original))
            _assign(owner, attr, make(original))

        try:
            for attr, kind in FOCK_KINDS.items():
                patch(protocols, attr, lambda fn, kind=kind: self._span(fn, f"fock.{fn.__name__}", "fock", self._fock_after(kind)))
            for attr in RUN_FNS:
                patch(protocols, attr, lambda fn, attr=attr: self._span(fn, f"protocols.{attr}", "protocols", self._protocol_after(attr, fn)))
            patch(protocols, "detuned_params", lambda fn: self._leaf(fn, "protocols"))
            patch(analytics, "detuned_params", lambda fn: self._leaf(fn, "analytics"))
            patch(analytics, "loss_from_phase", lambda fn: self._leaf(fn, "analytics"))
            patch(rydberg, "detuned_params", lambda fn: self._leaf(fn, "cli"))  # cli imports it inside _router_rows
            for attr in ("find_optimal_phase", "fit_scaling_exponent", "p_evl_bell_measurement"):
                patch(analytics, attr, lambda fn: self._span(fn, f"analytics.{fn.__name__}", "analytics"))
            for key in list(cli._FORMULA):
                patch(cli._FORMULA, key, lambda fn: self._span(fn, f"analytics.{fn.__name__}", "analytics"))
            patch(cli, "main", lambda fn: self._span(fn, "cli.main", "cli"))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                _assign(owner, attr, original)

    # ---------------------------------------------------------- metrics

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric; a layer the run never reached reads 0."""
        counts: Counter = Counter()
        peaks: dict[str, float] = {}
        for thread_counts, thread_peaks in self._registry:
            counts.update(thread_counts)
            for key, value in thread_peaks.items():
                peaks[key] = max(peaks.get(key, value), value)

        spans = self.spans
        by_id = {s.id: s for s in spans}
        children: dict[Optional[int], list[Span]] = defaultdict(list)
        for s in spans:
            children[s.parent].append(s)

        def descendants(span: Span) -> list[Span]:
            out, todo = [], list(children[span.id])
            while todo:
                s = todo.pop()
                out.append(s)
                todo.extend(children[s.id])
            return out

        def busy_ns(span: Span) -> int:
            bk = [(s.start_ns, s.end_ns) for s in descendants(span) if s.name == _BOOKKEEPING]
            return span.end_ns - span.start_ns - _union_ns(bk, span.start_ns, span.end_ns)

        def self_ns(span: Span) -> int:
            kids = [(s.start_ns, s.end_ns) for s in children[span.id]]
            return span.end_ns - span.start_ns - _union_ns(kids, span.start_ns, span.end_ns) - span.leaf_ns

        def layer(name: str) -> list[Span]:
            return [s for s in spans if s.layer == name]

        m: dict[str, float] = {}
        fock = layer("fock")
        m["fock.busy_s"] = sum(s.end_ns - s.start_ns for s in fock) / 1e9
        m["fock.calls"] = len(fock)
        for kind in ("linear", "medium", "detector_efficiency", "measure"):
            m[f"fock.{kind}.busy_s"] = sum(
                s.end_ns - s.start_ns for s in fock if FOCK_KINDS[s.name.split(".", 1)[1]] == kind
            ) / 1e9
        m["fock.terms_out"] = counts["fock.terms_out"]
        m["fock.detector_efficiency.expansion"] = _ratio(
            counts["fock.detector_efficiency.terms_out"], counts["fock.detector_efficiency.terms_in"]
        )
        m["fock.max_modes"] = peaks.get("fock.max_modes", 0)
        m["fock.occupied_mode_ratio"] = _ratio(counts["fock.occupied_ratio_sum"], counts["fock.outputs"])
        m["fock.measure.useful_ratio"] = _ratio(counts["fock.measure.useful"], counts["fock.measure.patterns"])

        runs = layer("protocols")
        for fn in RUN_FNS:
            mine = [s for s in runs if s.name == f"protocols.{fn}"]
            m[f"protocols.{fn}.busy_s"] = sum(busy_ns(s) for s in mine) / 1e9
            m[f"protocols.{fn}.calls"] = len(mine)
        m["protocols.self_s"] = sum(self_ns(s) for s in runs) / 1e9
        run_ids = {s.id for s in runs}
        measures = sum(1 for s in fock if s.name == "fock.measure_all" and s.parent in run_ids)
        m["protocols.measure_calls_per_call"] = _ratio(measures, len(runs))
        m["protocols.worst_engine_delta"] = peaks.get("protocols.worst_engine_delta", 0.0)
        m["protocols.worst_partition_residual"] = peaks.get("protocols.worst_partition_residual", 0.0)

        ana = layer("analytics")
        top = [s for s in ana if by_id.get(s.parent) is None or by_id[s.parent].layer != "analytics"]
        m["analytics.busy_s"] = sum(busy_ns(s) for s in top) / 1e9
        opts = [s for s in ana if s.name == _OPT]
        m["analytics.find_optimal_phase.busy_s"] = sum(busy_ns(s) for s in opts) / 1e9
        m["analytics.find_optimal_phase.calls"] = len(opts)
        m["analytics.fit_scaling_exponent.busy_s"] = sum(
            busy_ns(s) for s in ana if s.name == "analytics.fit_scaling_exponent"
        ) / 1e9
        m["analytics.rydberg_calls_per_opt"] = _ratio(counts["analytics.opt_rydberg_calls"], len(opts))

        callers = ("protocols", "analytics", "cli")
        m["rydberg.calls"] = sum(counts[f"rydberg.{c}.calls"] for c in callers)
        m["rydberg.busy_s"] = sum(counts[f"rydberg.{c}.ns"] for c in callers) / 1e9
        for c in ("protocols", "analytics"):
            m[f"rydberg.{c}.calls"] = counts[f"rydberg.{c}.calls"]
            m[f"rydberg.{c}.busy_s"] = counts[f"rydberg.{c}.ns"] / 1e9

        mains = layer("cli")
        m["cli.busy_s"] = sum(busy_ns(s) for s in mains) / 1e9
        m["cli.self_s"] = sum(self_ns(s) for s in mains) / 1e9
        m["cli.rows"] = counts["cli.rows"]
        m["cli.bytes_out"] = counts["cli.bytes_out"]
        m["cli.threads"] = max(
            (len({s.thread for s in descendants(main) if s.name != _BOOKKEEPING}) for main in mains), default=0
        )
        return m

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,layer,thread,parent,start_ns,end_ns,leaf_ns\n")
            for s in self.spans:
                fh.write(f"{s.id},{s.name},{s.layer},{s.thread},{'' if s.parent is None else s.parent},"
                         f"{s.start_ns},{s.end_ns},{s.leaf_ns}\n")


def _assign(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)
