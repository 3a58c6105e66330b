"""The benchmark's workloads: seeded job lists, warm-ups and the check of each job.

A job is one call into nlrouter: a CLI command, a simulator call or an
analytics routine.  A workload yields its jobs pass by pass from a seed; the
program only ever sees the generated arguments.  Why each workload exists is
recorded once, in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from nlrouter import analytics, cli, protocols

from . import checks


@dataclass(frozen=True)
class Job:
    kind: str
    points: int  # operating points the job completes
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the output is right


@dataclass(frozen=True)
class CliOutput:
    code: int
    data: bytes


@dataclass(frozen=True)
class Workload:
    name: str
    warm_up: Callable[[], None]  # one call of each job kind
    passes: Callable[[int, Path], Iterator[list[Job]]]  # (seed, checkout root) -> endless passes
    call_is_pass: bool = False  # a latency sample is a whole pass, not one job
    min_samples: int = 2  # latency samples a measured run must reach


def run_cli(argv: Sequence[str]) -> CliOutput:
    """Run ``nlrouter`` in this process, capturing what it writes to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return CliOutput(code, buf.getvalue().encode("utf-8"))


def _cli_job(kind: str, points: int, argv: Sequence[str], check_data: Callable[[bytes], Optional[str]]) -> Job:
    def check(out: CliOutput) -> Optional[str]:
        return f"{kind}: exit code {out.code}" if out.code != 0 else check_data(out.data)

    return Job(kind, points, lambda: run_cli(argv), check)


def _warm_cli(argv: Sequence[str]) -> None:
    out = run_cli(argv)
    if out.code != 0:
        raise RuntimeError(f"warm-up command {list(argv)} exited {out.code}")


# ---------------------------------------------------------------- sim-golden

# The four dataset commands pinned by test_9_cli_determinism_and_goldens in
# tests/test_acceptance.py; each output must equal tests/golden/<name>.
GOLDEN_COMMANDS = {
    "router_lossless.csv": ["sweep", "--protocol", "router", "--phi", "0:pi:128", "--odb", "inf", "--engine", "both"],
    "bm_od30.csv": ["sweep", "--protocol", "bm", "--phi", "0:pi:128", "--odb", "30", "--pde", "0.98", "--engine", "both"],
    "evl_od30.csv": ["sweep", "--protocol", "evl", "--phi", "0:pi:128", "--odb", "30", "--pde", "0.98", "--engine", "both"],
    "ghz_od30.csv": ["sweep", "--protocol", "ghz", "--phi", "0:pi:128", "--odb", "30", "--pde", "0.98", "--engine", "both"],
}
GOLDEN_POINTS = 128  # phi grid points per command


def golden_jobs(goldens: dict[str, bytes]) -> list[Job]:
    """One job per golden command, checked byte for byte against ``goldens[name]``."""
    return [
        _cli_job(name, GOLDEN_POINTS, argv, lambda data, name=name: checks.check_bytes(name, data, goldens[name]))
        for name, argv in GOLDEN_COMMANDS.items()
    ]


def _golden_passes(seed: int, root: Path) -> Iterator[list[Job]]:
    goldens = {name: (root / "tests" / "golden" / name).read_bytes() for name in GOLDEN_COMMANDS}
    jobs = golden_jobs(goldens)
    rng = random.Random(seed)
    while True:
        yield rng.sample(jobs, len(jobs))


def _golden_warm_up() -> None:
    for argv in GOLDEN_COMMANDS.values():
        _warm_cli([("pi/3" if prev == "--phi" else arg) for prev, arg in zip([""] + argv, argv)])


# ---------------------------------------------------------------- sim-points

POINT_KINDS = ("bm", "bm_detuned", "evl", "ghz", "router")
DRAWS_PER_STRATUM = 20  # per (kind, lossless?, ideal detector?) stratum and pass: 400 calls, ~6 s
_RUN_FN = {"bm": "run_bell_measurement", "bm_detuned": "run_bell_measurement", "evl": "run_evl_bell_measurement", "ghz": "run_ghz"}


def point_job(kind: str, phi: float, od_b: float, p_de: float) -> Job:
    """One direct simulator call, checked against its closed form."""
    if kind == "router":
        return Job(kind, 1, lambda: protocols.run_router(phi, od_b), lambda out: checks.check_router(out, phi, od_b))
    fn = _RUN_FN[kind]
    phi1 = -phi / 11.0 if kind == "bm_detuned" else 0.0
    args = (phi, od_b, p_de) if kind in ("evl", "ghz") else (phi, od_b, p_de, phi1)
    # looked up at call time so that the traced run sees its wrapper
    return Job(kind, 1, lambda: getattr(protocols, fn)(*args), lambda out: checks.check_protocol(fn, out, phi, od_b, p_de, phi1))


def _point_passes(seed: int, root: Path) -> Iterator[list[Job]]:
    # Stratified: every pass holds the same count of each kind, lossless or
    # not, ideal detector or not, so the mix (and so the pass cost) does not
    # drift with the seed; the continuous values are drawn afresh and never
    # repeat, so a result cache cannot make later passes cheaper.
    rng = random.Random(seed)
    while True:
        jobs = []
        for kind in POINT_KINDS:
            for lossless in (True, False):
                for ideal in (True, False):
                    for _ in range(DRAWS_PER_STRATUM):
                        od_b = math.inf if lossless else rng.uniform(15.0, 300.0)
                        phi = rng.uniform(0.0, min(math.pi, od_b / 4.0))
                        p_de = 1.0 if ideal else rng.uniform(0.8, 1.0)
                        jobs.append(point_job(kind, phi, od_b, p_de))
        rng.shuffle(jobs)
        yield jobs


def _points_warm_up() -> None:
    for kind in POINT_KINDS:
        point_job(kind, math.pi / 3, 30.0, 0.98).call()


# ------------------------------------------------------------------ analytic

SWEEP_GRID = ["--phi", "0:pi:4096", "--odb", "15,30,60,240,inf", "--pde", "0.9,0.98,1"]
SWEEP_POINTS = 4096 * 5 * 3
# sha256 of the formula-engine sweep output at the commit that added the benchmark
SWEEP_SHA256 = {
    "bm": "6274056cb2283bf8506726ce9669a57d32b0f68f0d342601266317e2234654ab",
    "cnot": "e858372607a0367658a7cfd6dfb7e6ee69d6aa20fd1f9c9811679ebb2971330d",
}
OPT_POINTS = 20  # the default od_b grid 60:2000:20 of opt-phase and fit_scaling_exponent
_ANALYTIC_NAME = {"bm": "bell_measurement", "ghz": "ghz"}


def _check_opt_phase(name: str, data: bytes) -> Optional[str]:
    text = data.decode("utf-8")
    pins = checks.EXPONENT_PINS[name]
    return checks.check_exponent(
        f"opt-phase {name} infidelity", checks.footer_value(text, "infidelity_exponent"), pins["infidelity"]
    ) or checks.check_exponent(
        f"opt-phase {name} phase gap", checks.footer_value(text, "phase_gap_exponent"), pins["phase_gap"]
    )


def analytic_jobs() -> list[Job]:
    jobs = []
    for protocol, name in _ANALYTIC_NAME.items():
        jobs.append(_cli_job(
            f"opt-phase:{protocol}", OPT_POINTS, ["opt-phase", "--protocol", protocol],
            lambda data, name=name: _check_opt_phase(name, data),
        ))
        jobs.append(Job(
            f"fit:{name}", OPT_POINTS,
            lambda name=name: analytics.fit_scaling_exponent(name),
            lambda fit, name=name: checks.check_exponent(f"fit {name}", fit.exponent, checks.EXPONENT_PINS[name]["infidelity"]),
        ))
    for protocol, digest in SWEEP_SHA256.items():
        jobs.append(_cli_job(
            f"sweep:{protocol}", SWEEP_POINTS, ["sweep", "--protocol", protocol] + SWEEP_GRID,
            lambda data, protocol=protocol, digest=digest: checks.check_digest(f"sweep {protocol}", data, digest),
        ))
    return jobs


def _analytic_passes(seed: int, root: Path) -> Iterator[list[Job]]:
    jobs = analytic_jobs()
    rng = random.Random(seed)
    while True:
        yield rng.sample(jobs, len(jobs))


def _analytic_warm_up() -> None:
    _warm_cli(["opt-phase", "--protocol", "bm", "--odb", "100"])
    analytics.fit_scaling_exponent("bell_measurement", n_points=2)
    _warm_cli(["sweep", "--protocol", "cnot", "--phi", "0:pi:2", "--odb", "30", "--pde", "0.98"])


WORKLOADS = {
    w.name: w
    for w in (
        # Jobs of the two batch workloads differ in cost by up to 200x and last
        # seconds each, so a percentile over them swings with the job mix;
        # their latency sample is the pass, the dataset or analysis a user asks for.
        Workload("sim-golden", _golden_warm_up, _golden_passes, call_is_pass=True),
        Workload("sim-points", _points_warm_up, _point_passes, min_samples=1000),
        Workload("analytic", _analytic_warm_up, _analytic_passes, call_is_pass=True),
    )
}
