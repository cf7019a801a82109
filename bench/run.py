"""Run one codeq benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S]
        [--trace 0|1] [--smoke]

Run from the root of a checkout; the benchmark imports codeq from its
``src`` and from nowhere else. Every pass, set-up sample and calibration
runs in its own fresh single-threaded process, one at a time. With
``--trace 0`` the workload is repeated for about ``--seconds`` seconds and
the end-to-end metrics are printed; with ``--trace 1`` one untraced pass is
followed by traced passes for the rest of ``--seconds``, and the per-layer
metrics are printed.
``--smoke`` swaps in tiny inputs so the benchmark's own tests run fast.

Times are reported at a reference host speed: every untraced pass and
set-up sample is paired with the host speed a ``hostspeed`` probe measured
in the same process at the same time, so that the shared host's drift does
not read as a change in codeq. The raw times and speeds are in the info
line.

Outputs are checked outside the timed region. The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the machine, the calibration and
the raw samples.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).with_name("worker.py")
SETUP_SAMPLES = 5
DEADLINE_S = 160.0
# metric-name suffix -> unit; the first match wins
UNITS = (("items_per_s", "1/s"), ("work_per_s", "units/s"),
         (".work", "units"), (".calls", "count"), (".sets", "count"),
         (".orbits", "count"), ("_samples", "count"), ("_ratio", "ratio"),
         ("pruning_factor", "ratio"), ("_bytes", "bytes"), ("_pct", "%"),
         ("_mb", "MB"), ("_s", "s"), (".s", "s"))


def unit_of(name: str) -> str:
    return next(unit for suffix, unit in UNITS if name.endswith(suffix))


class Runner:
    """Starts worker processes one at a time, within one deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = perf_counter() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.errors: list[str] = []

    def child(self, mode: str, traced: bool = False) -> dict | None:
        """One worker step; None (and a recorded error) if it failed."""
        a = self.args
        cmd = [sys.executable, str(WORKER), "--mode", mode,
               "--workload", a.workload, "--seed", str(a.seed)]
        cmd += ["--smoke"] * a.smoke + ["--trace"] * traced
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            self.errors.append(f"{mode}: no time left before the deadline")
            return None
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode}: timed out")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            self.errors.append(f"{mode}: exit {proc.returncode}: {tail[0]}")
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def passes(self, seconds: float, traced: bool) -> list:
        """Passes until the next would end after ``seconds``; at least one."""
        out = []
        start = perf_counter()
        while True:
            t = perf_counter()
            out.append(self.child("pass", traced))
            took = perf_counter() - t
            if (out[-1] is None or perf_counter() - start + took > seconds
                    or perf_counter() + took > self.deadline):
                return out


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def pass_s(p: dict) -> float:
    """A pass's time at the reference host speed, without the probe's own."""
    return (p["wall_s"] - p["probe_s"]) * p["speed"]


def setup_s(s: dict) -> float:
    return s["setup_s"] * s["setup_speed"]


def end_to_end(w, smoke: bool, passes: list, setups: list) -> dict:
    ok = [p for p in passes if p]
    wall = median(pass_s(p) for p in ok)
    items = workloads.items_per_pass(w, smoke)
    return {
        "pass_s": wall,
        "setup_s": median(setup_s(s) for s in setups + ok if s),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in ok),
        "items_per_s": items / wall if wall else 0.0,
    }


def per_layer(untraced: dict | None, traced: list) -> dict:
    ok = [p for p in traced if p]
    layers = {name: median(p["layers"][name] for p in ok)
              for name in (ok[0]["layers"] if ok else {})}
    latencies = [x for p in ok for x in p["eval_latencies"]]
    pct, value = tracing.tail(latencies)
    layers["search.jsonl_bytes"] = median(
        sum(j["bytes"] for j in p["output"].get("jobs", ())) for p in ok)
    layers["eval_p50_s"] = median(latencies)
    layers["eval_tail_s"] = value
    layers["eval_tail_pct"] = pct
    layers["eval_samples"] = len(latencies)
    layers["trace.wall_s"] = median(p["wall_s"] for p in ok)
    layers["trace.overhead_s"] = (
        layers["trace.wall_s"] - (untraced["wall_s"] - untraced["probe_s"])
        if untraced else 0.0)
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "codeq" / "__init__.py").is_file():
        print(f"no codeq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        w = workloads.get(args.workload, args.smoke)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from codeq.cli import WORK_UNITS_PER_SECOND

    runner = Runner(args)
    # warm-up: writes bytecode and fills the page cache before any timing
    runner.child("setup")
    calibration = runner.child("calibrate")
    if args.trace:
        start = perf_counter()
        untraced = runner.child("pass")
        traced = runner.passes(args.seconds - (perf_counter() - start),
                               traced=True)
        passes = [untraced] + traced
        setups = []
    else:
        setups = [runner.child("setup") for _ in range(SETUP_SAMPLES)]
        passes = runner.passes(args.seconds, traced=False)

    outputs = [p["output"] if p else None for p in passes]
    attempted, failed, failures = workloads.check(w, args.smoke, outputs)
    evaluated = [len(o.get("evaluated", ())) for o in outputs if o]
    opened = [workloads.open_count(o) for o in outputs if o]
    open_ratio = sum(opened) / sum(evaluated) if sum(evaluated) else 0.0
    if args.trace:
        metrics = per_layer(untraced, traced)
        metrics["fail_ratio"] = failed / attempted
        metrics["open_ratio"] = open_ratio
    else:
        metrics = end_to_end(w, args.smoke, passes, setups)

    info = {
        "workload": w.name, "smoke": args.smoke, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine(),
        "budgets": {"search_distance_budget": w.budget,
                    "cli_distance_budget": None,
                    "nominal_work_per_s": WORK_UNITS_PER_SECOND},
        "calibration": calibration,
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] if p else None for p in passes],
        "pass_probe_s": [p["probe_s"] if p else None for p in passes],
        "pass_speed": [p["speed"] if p else None for p in passes],
        "setup_raw_s": [s["setup_s"] for s in setups + passes if s],
        "setup_speed": [s["setup_speed"] for s in setups + passes if s],
        "fail_ratio": failed / attempted,
        "open": [sum(opened), sum(evaluated)],
        "errors": runner.errors + failures[:20],
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
