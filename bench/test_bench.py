"""Smoke tests for the benchmark itself; run with ``python3 -m pytest bench``.

They use ``--smoke`` inputs, so the whole file takes well under a minute.
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.FULL))
def test_smoke_emits_every_metric_with_its_unit(name, trace):
    proc = run_bench("--workload", name, "--smoke", "--seconds", "0",
                     "--trace", str(trace), "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    info = json.loads(info_line)["info"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["errors"]
    assert result["attempted"] >= 1
    assert info["seed"] == 3
    assert {"cpu", "nproc", "python", "numpy"} <= set(info["machine"])
    assert len(info["calibration"]["rows"]) == 3
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def tampered(output: dict, kind: str) -> dict:
    output = json.loads(json.dumps(output))
    if kind == "quantum":
        got = json.loads(output["stdout"])
        got["d_lb"] += 1
        output["stdout"] = json.dumps(got)
    elif kind == "orbits":
        output["jobs"][0]["orbit_count"] += 1
    else:
        rep, lb, ub, strategy = output["evaluated"][-1]
        output["evaluated"][-1] = [rep, ub + 1, ub + 1, strategy]
    return output


@pytest.mark.parametrize("name", sorted(workloads.SMOKE))
def test_wrong_result_raises_fail_ratio(name, tmp_path):
    w = workloads.get(name, smoke=True)
    workloads.build_tables(w)
    good = workloads.digest_outputs(workloads.run_pass(w, 1, tmp_path))
    attempted, failed, messages = workloads.check(w, True, [good])
    assert attempted == workloads.items_per_pass(w, True)
    assert failed == 0, messages
    bad = tampered(good, w.kind)
    attempted, failed, messages = workloads.check(w, True, [good, bad])
    assert attempted == 2 * workloads.items_per_pass(w, True)
    assert 0 < failed < attempted and messages
    _, failed, _ = workloads.check(w, True, [good, None])
    assert failed == workloads.items_per_pass(w, True)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sweep-15", "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    pct, value = tracing.tail(samples)
    assert value == 30.0 and pct == 75.0
    assert sum(1 for s in samples if s > value) == 10
    assert tracing.tail(samples[:10]) == (0.0, 0.0)


def test_probe_samples_through_a_block_and_restores_the_handler():
    probe = hostspeed.Probe()
    before = signal.getsignal(signal.SIGALRM)
    with probe.sampling("python"):
        deadline = perf_counter() + 5 * hostspeed.INTERVAL_S
        while perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # about one sample per interval, plus the one as the block ends
    assert 3 <= len(probe.durations("python")) <= 7
    assert probe.durations("numpy") == []
    assert probe.speed("numpy") is None
    assert probe.speed("python") > 0
    assert probe.spent_s("python") == sum(probe.durations("python"))
