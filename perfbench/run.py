"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One caller drives nlrouter in this
process in a closed loop: each job starts when the previous one has ended,
and every job's output is checked.

--trace 0  times the set-up in fresh interpreters, warms up, then runs whole
           passes of the workload's job list until S seconds have gone (and
           the workload's minimum latency samples are reached) and reports
           the end-to-end metrics.
--trace 1  runs the first pass once untraced and once under the layer
           tracer and reports the per-layer metrics; S is not used, so that
           every count repeats exactly for a given seed.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Metric units come from BENCHMARK.json.
Spans and a result file go to .perfbench/ in the checkout.  The exit code
is 0 when every check passed, 1 when one failed, and 2, with no result,
when the checkout does not hold the program and its reference outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 4  # fresh interpreters timed before and again after the passes; setup_s is the median
MAX_MEASURE_S = 120.0  # a run stops here even if it lacks latency samples
REQUIRED = ("src/nlrouter/__init__.py", "tests/golden/evl_od30.csv")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, error: Optional[str]) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.errors.append(error)


def run_jobs(jobs, tally: Tally, tracer=None) -> list[float]:
    """Run ``jobs`` in order, check each output, return each job's seconds."""
    from perfbench.workloads import CliOutput

    times = []
    for job in jobs:
        start = perf_counter()
        try:
            out = job.call()
        except Exception as exc:  # a raising job counts as failed; the run goes on
            times.append(perf_counter() - start)
            tally.record(f"{job.kind}: raised {exc!r}")
            continue
        times.append(perf_counter() - start)
        with tracer.bookkeeping() if tracer else nullcontext():
            try:
                error = job.check(out)
            except Exception as exc:  # output too malformed to check
                error = f"{job.kind}: check raised {exc!r}"
            if tracer and isinstance(out, CliOutput):
                tracer.cli_output(out.data)
        tally.record(error)
    return times


def setup_seconds(workload: str) -> list[float]:
    """Set-up time of ``SETUP_PROBES`` fresh interpreters, one after another."""
    probe = ROOT / "perfbench" / "setup_probe.py"
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(probe), workload], cwd=ROOT, capture_output=True, text=True, timeout=150, check=True
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def measure(workload, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """End-to-end metrics of one untraced run, and their sample counts."""
    setups = setup_seconds(workload.name)  # more after the passes: host speed drifts over seconds
    workload.warm_up()
    stream = workload.passes(seed, ROOT)
    rates: list[float] = []
    samples: list[float] = []
    start = perf_counter()
    while True:
        jobs = next(stream)
        times = run_jobs(jobs, tally)
        rates.append(sum(job.points for job in jobs) / sum(times))
        if workload.call_is_pass:
            samples.append(sum(times))
        else:
            samples.extend(times)
        elapsed = perf_counter() - start
        if elapsed >= seconds and (len(samples) >= workload.min_samples or elapsed >= MAX_MEASURE_S):
            break
    setups += setup_seconds(workload.name)
    latency_ms = statistics.quantiles([t * 1e3 for t in samples], n=100, method="inclusive")
    metrics = {
        "points_per_s": statistics.median(rates),
        "call_p50_ms": statistics.median(samples) * 1e3,
        "call_p99_ms": latency_ms[98],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"points_per_s": len(rates), "call_p50_ms": len(samples), "call_p99_ms": len(samples), "setup_s": len(setups)}
    return metrics, counts


def trace(workload, seed: int, tally: Tally, spans_path: Path) -> dict:
    """Per-layer metrics of the workload's first pass, run untraced and then traced."""
    from perfbench.tracing import Tracer

    workload.warm_up()
    jobs = next(workload.passes(seed, ROOT))
    plain = sum(run_jobs(jobs, tally))
    tracer = Tracer()
    with tracer.installed():
        traced = sum(run_jobs(jobs, tally, tracer))
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    tracer.write_spans(spans_path)
    return metrics


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def metadata(args: argparse.Namespace) -> dict:
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def format_value(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def metric_units(trace_mode: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_mode else "end_to_end"]}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a checkout of nlrouter (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    units = metric_units(bool(args.trace))
    meta = metadata(args)
    print("meta " + json.dumps(meta, sort_keys=True))

    tally = Tally()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    counts: dict = {}
    if args.trace:
        values = trace(workload, args.seed, tally, OUT_DIR / f"{stem}-spans.csv")
    else:
        values, counts = measure(workload, args.seed, args.seconds, tally)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for name, m in metrics.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"{name} = {format_value(m['value'])} {m['unit']}{n}")
    print(f"failed_frac = {tally.failed / max(tally.attempted, 1):.6g}  ({tally.failed} of {tally.attempted} jobs)")
    for error in tally.errors[:10]:
        print(f"FAILED {error}", file=sys.stderr)

    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"meta": meta, "samples": counts, "errors": tally.errors, **result}, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
