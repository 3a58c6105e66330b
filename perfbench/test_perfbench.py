"""Tests of the benchmark itself: its checks can fail, its tracer leaves the
program as it found it, and its traced counts repeat.

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from nlrouter import analytics, cli, protocols, rydberg  # noqa: E402

from perfbench import checks, run, tracing, workloads  # noqa: E402

COUNTS = (
    "fock.terms_out",
    "fock.max_modes",
    "fock.detector_efficiency.expansion",
    "protocols.measure_calls_per_call",
    "analytics.rydberg_calls_per_opt",
)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _goldens() -> dict[str, bytes]:
    return {name: (ROOT / "tests" / "golden" / name).read_bytes() for name in workloads.GOLDEN_COMMANDS}


def _router_job(goldens: dict[str, bytes]) -> workloads.Job:
    return next(job for job in workloads.golden_jobs(goldens) if job.kind == "router_lossless.csv")


def test_golden_job_passes_on_the_reference():
    tally = run.Tally()
    run.run_jobs([_router_job(_goldens())], tally)
    assert (tally.attempted, tally.failed) == (1, 0)


def test_corrupted_golden_byte_is_a_failed_job():
    goldens = _goldens()
    data = bytearray(goldens["router_lossless.csv"])
    data[len(data) // 2] ^= 0x01
    goldens["router_lossless.csv"] = bytes(data)
    tally = run.Tally()
    run.run_jobs([_router_job(goldens)], tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert f"byte {len(data) // 2}" in tally.errors[0]


def _bm_job(closed_form) -> workloads.Job:
    phi, od_b, p_de = math.pi / 3, 30.0, 0.9
    return workloads.Job(
        "bm", 1,
        lambda: protocols.run_bell_measurement(phi, od_b, p_de),
        lambda out: checks.check_protocol("run_bell_measurement", out, phi, od_b, p_de, 0.0, closed_form),
    )


def test_closed_form_mismatch_is_a_failed_job():
    tally = run.Tally()
    run.run_jobs([_bm_job(checks.expected_success)], tally)
    assert tally.failed == 0
    shifted = lambda *point: checks.expected_success(*point) + 1e-9  # noqa: E731  (test double)
    run.run_jobs([_bm_job(shifted)], tally)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "|sim - formula|" in tally.errors[0]


def test_partition_and_router_checks_can_fail():
    want = checks.expected_success("run_ghz", 1.0, 30.0, 0.98, 0.0)
    leaky = SimpleNamespace(p_success=want, total=lambda: 1.0 + 1e-9)
    assert "|total - 1|" in checks.check_protocol("run_ghz", leaky, 1.0, 30.0, 0.98, 0.0)
    probs = protocols.run_router(1.0, 30.0)
    assert checks.check_router(probs, 1.0, 30.0) is None
    probs[(1, 1)] += 1e-11
    assert "port (1, 1)" in checks.check_router(probs, 1.0, 30.0)


def test_raising_job_is_a_failed_job():
    tally = run.Tally()
    run.run_jobs([workloads.point_job("bm", 5.0, 8.0, 1.0)], tally)  # phi > od_b/4 is unreachable
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "raised ValueError" in tally.errors[0]


def test_point_jobs_are_stratified_and_fresh():
    stream = workloads.WORKLOADS["sim-points"].passes(7, ROOT)
    first, second = next(stream), next(stream)
    assert len(first) == len(workloads.POINT_KINDS) * 4 * workloads.DRAWS_PER_STRATUM
    assert sorted(j.kind for j in first) == sorted(j.kind for j in second)
    again = next(workloads.WORKLOADS["sim-points"].passes(7, ROOT))
    assert [j.kind for j in again] == [j.kind for j in first]


def test_union_of_overlapping_children():
    assert tracing._union_ns([(0, 10), (5, 15), (20, 25), (30, 40)], 2, 22) == 15


def _layer_attributes() -> dict:
    names = list(tracing.FOCK_KINDS) + list(tracing.RUN_FNS) + ["detuned_params"]
    found = {("protocols", n): getattr(protocols, n) for n in names}
    for n in ("detuned_params", "loss_from_phase", "find_optimal_phase", "fit_scaling_exponent", "p_evl_bell_measurement"):
        found[("analytics", n)] = getattr(analytics, n)
    found[("rydberg", "detuned_params")] = rydberg.detuned_params
    found[("cli", "main")] = cli.main
    for key, fn in cli._FORMULA.items():
        found[("cli._FORMULA", key)] = fn
    return found


def test_tracer_restores_every_attribute():
    before = _layer_attributes()
    with tracing.Tracer().installed():
        during = _layer_attributes()
        assert all(during[k] is not v for k, v in before.items())
    after = _layer_attributes()
    assert all(after[k] is v for k, v in before.items())


def _traced(jobs) -> dict:
    tracer = tracing.Tracer()
    tally = run.Tally()
    with tracer.installed():
        run.run_jobs(jobs, tally, tracer)
    assert tally.failed == 0, tally.errors
    return tracer.layer_metrics()


def _small_jobs() -> list:
    return [
        workloads.point_job("bm", 1.0, 30.0, 0.98),
        workloads.point_job("evl", 1.0, 30.0, 0.98),
        workloads.point_job("router", 1.0, math.inf, 1.0),
        workloads.Job("sweep", 4, lambda: workloads.run_cli(
            ["sweep", "--protocol", "ghz", "--phi", "0:pi:4", "--odb", "30", "--pde", "0.98", "--engine", "both"]
        ), lambda out: None if out.code == 0 else "exit"),
        workloads.Job("opt", 1, lambda: workloads.run_cli(["opt-phase", "--protocol", "ghz", "--odb", "100"]),
                      lambda out: None if out.code == 0 else "exit"),
    ]


def test_traced_counts_repeat_and_cover_the_layers():
    first, second = _traced(_small_jobs()), _traced(_small_jobs())
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert first["protocols.run_bell_measurement.calls"] == 1
    assert first["protocols.run_ghz.calls"] == 4
    assert first["fock.max_modes"] == 64  # the EVL registry
    assert first["fock.detector_efficiency.expansion"] > 1.0
    assert first["analytics.find_optimal_phase.calls"] == 1
    assert first["analytics.rydberg_calls_per_opt"] > 1000
    assert first["rydberg.protocols.calls"] > 0 and first["rydberg.analytics.calls"] > 0
    assert first["cli.rows"] == 4 + 1
    assert 0.0 <= first["cli.self_s"] <= first["cli.busy_s"]
    assert first["protocols.worst_engine_delta"] < checks.ENGINE_TOL
    names = {m["name"] for m in _spec()["per_layer"]}
    assert names == set(first) | {"trace.overhead_frac"}


def test_end_to_end_metric_names_match_benchmark_json(monkeypatch):
    monkeypatch.setattr(run, "setup_seconds", lambda name: [0.5, 0.25, 0.75])
    jobs = [workloads.point_job("router", phi, 30.0, 1.0) for phi in (1.0, 2.0)]
    fake = workloads.Workload("sim-points", lambda: None, lambda seed, root: iter([jobs]))
    tally = run.Tally()
    metrics, counts = run.measure(fake, 1, 0.0, tally)
    assert set(metrics) == {m["name"] for m in _spec()["end_to_end"]}
    assert metrics["setup_s"] == 0.5 and all(v > 0 for v in metrics.values())
    assert (tally.attempted, tally.failed, counts["call_p99_ms"]) == (2, 0, 2)


def test_bare_benchmark_directory_exits_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-points", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
