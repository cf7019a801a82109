"""One benchmark step in a fresh process; prints one JSON line.

    python3 bench/worker.py --mode setup|pass|calibrate --workload NAME
        [--seed N] [--smoke] [--trace]

``setup`` times the cold ``import codeq`` plus the workload's first table
build, then a burst of the ``mixed`` host-speed probe. ``pass`` does the
same set-up, then times one workload pass, sampling the workload's probe
kind throughout it (see ``hostspeed``), or with spans around codeq's
public functions instead when ``--trace`` is given.
``calibrate`` measures each distance engine's work units per second on a
small fixed code. The parent puts the checkout's ``src`` on PYTHONPATH.
"""

import argparse
import contextlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
WORKDIR = ROOT / ".bench_work"
SETUP_PROBES = 20


def import_codeq():
    import codeq
    src = (ROOT / "src").resolve()
    if src not in Path(codeq.__file__).resolve().parents:
        raise SystemExit(f"codeq was imported from {codeq.__file__}, "
                         f"not from {src}")
    return codeq


def calibrate() -> dict:
    """Work units per second on three small codes, against the nominal rate.

    Each code is sized for one engine under the seed's dispatch; the row
    is keyed by the engine that actually ran, so a dispatch change shows
    up here instead of failing the run.
    """
    from codeq import (DefiningSet, build_constacyclic, build_cyclic,
                       lane_cosets, min_distance)
    from codeq.cli import WORK_UNITS_PER_SECOND

    def cyclic(n, leaders):
        return build_cyclic(n, 4, DefiningSet.from_leaders(n, 4, leaders))

    consta_set = [x for c in lane_cosets(43) if min(c) in (1, 22) for x in c]
    codes = (cyclic(15, (1, 2, 3, 5)).base, cyclic(51, (0, 2, 7)).base,
             build_constacyclic(43, consta_set).base)
    rows = []
    for code in codes:
        res = min_distance(code)
        rows.append({"code": f"[{code.n},{code.k}]", "engine": res.strategy,
                     "work": res.work, "s": res.elapsed,
                     "work_per_s": res.work / res.elapsed})
    return {"nominal_work_per_s": WORK_UNITS_PER_SECOND, "rows": rows}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "pass", "calibrate"),
                    required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    w = workloads.get(args.workload, args.smoke)

    t0 = perf_counter()
    import_codeq()
    if args.mode == "calibrate":
        print(json.dumps(calibrate()))
        return 0
    workloads.build_tables(w)
    setup_s = perf_counter() - t0
    import hostspeed  # imports NumPy, so only after the cold import is timed

    probe = hostspeed.Probe()
    probe.burst("mixed", SETUP_PROBES)
    result = {"setup_s": setup_s, "setup_speed": probe.speed("mixed")}
    if args.mode == "pass":
        WORKDIR.mkdir(exist_ok=True)
        tracer = tracing.Tracer()
        if args.trace:
            tracer.install()
            sampling = contextlib.nullcontext()
        else:
            sampling = probe.sampling(w.speed_probe)
        t1 = perf_counter()
        with sampling:
            output = workloads.run_pass(w, args.seed, WORKDIR)
        result["wall_s"] = perf_counter() - t1
        result["probe_s"] = probe.spent_s(w.speed_probe)
        result["speed"] = probe.speed(w.speed_probe)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        result["output"] = workloads.digest_outputs(output)
        if args.trace:
            tracer.dump(WORKDIR / f"{w.name}-spans.jsonl")
            result["layers"] = tracing.layer_metrics(tracer.spans)
            result["eval_latencies"] = tracing.evaluate_latencies(
                tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
