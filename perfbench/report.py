"""Print every end-to-end and per-layer metric of each workload, with its unit.

    python3 perfbench/report.py [--seed N] [--runs R] [--seconds S]
                                [--trace 0 1] [--workload NAME ...] [--write FILE]

For each workload it prints the one-line reason the workload was chosen
(from BENCHMARK.json), runs perfbench/run.py in a fresh process per run and
lists every metric by name with its unit.  With R runs, on seeds N to
N+R-1, each metric shows the median of its R values and its spread, the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``).  An end-to-end spread that is not
below a third of its bound is marked ``!``.  --write stores the figures and
the run metadata as JSON, replacing only the workloads and trace modes run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(meta, result) of one run of perfbench/run.py."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    return meta, json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else 0.0)
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0, 1])
    parser.add_argument("--workload", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--write", type=Path, help="store medians, quartiles and spreads as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    seeds = list(range(args.seed, args.seed + args.runs))
    doc: dict = json.loads(args.write.read_text()) if args.write and args.write.exists() else {"workloads": {}}
    status = 0
    for name in args.workload:
        print(f"== {name}: {why[name]}")
        doc["workloads"].setdefault(name, {})
        for trace in args.trace:
            values: dict[str, list[float]] = {}
            units: dict[str, str] = {}
            attempted = failed = 0
            for seed in seeds:
                meta, result = run_once(name, seed, args.seconds, trace)
                attempted += result["attempted"]
                failed += result["failed"]
                for metric, m in result["metrics"].items():
                    values.setdefault(metric, []).append(m["value"])
                    units[metric] = m["unit"]
            doc["meta"] = {k: meta[k] for k in ("commit", "src_sha256", "src_lines", "cpu_count", "python")}
            kind = "per-layer" if trace else "end-to-end"
            print(f"  {kind} (--trace {trace}), {len(seeds)} run(s): failed {failed} of {attempted} jobs")
            if failed:
                status = 1
            table = {}
            for metric, vals in values.items():
                table[metric] = {"unit": units[metric], **summarize(vals)}
                line = f"    {metric:<42} {table[metric]['median']:>14.6g} {units[metric]}"
                if "spread" in table[metric]:
                    spread = table[metric]["spread"]
                    mark = "!" if metric in bounds and metric != "setup_s" and spread >= bounds[metric] / 3 else ""
                    line += f"   spread {spread:.4f}{mark}"
                print(line)
            doc["workloads"][name][f"trace{trace}"] = {
                "seconds": args.seconds, "seeds": seeds, "attempted": attempted, "failed": failed, "metrics": table,
            }
    if args.write:
        args.write.write_text(json.dumps(doc, indent=2) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
