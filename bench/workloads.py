"""The benchmark's workloads: their inputs, how one pass runs, and the checks.

Each workload has a full-size form and a smoke form with tiny inputs that
runs the same code path in well under a second. A pass returns a plain
JSON-able dict; ``check`` turns a list of pass outputs into the number of
operations attempted and failed, with a message per failure.

This module imports ``codeq`` only inside functions, so a worker can time
the cold import itself.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
SEARCH_BUDGET = 1 << 24


@dataclass(frozen=True)
class Workload:
    """One named set of inputs.

    ``kind`` is ``quantum`` (one CLI derivation), ``orbits`` (orbit
    enumeration with JSONL output, no distances) or ``search`` (orbit
    enumeration plus one distance evaluation per orbit). ``tables`` lists
    the (family, n, q) triples whose coset and root tables the pass would
    build first; building them is set-up the user pays on every run.
    ``speed_probe`` names the ``hostspeed`` kernel that slows down the way
    the workload's hot loop does.
    """

    name: str
    kind: str
    tables: tuple
    argv: tuple = ()
    expect: dict = field(default_factory=dict)
    jobs: tuple = ()
    probe: tuple = ()
    job: dict = field(default_factory=dict)
    exact: bool = False
    budget: int | None = None
    speed_probe: str = "python"


FULL = {
    "quantum-54": Workload(
        "quantum-54", "quantum", (("cyclic", 51, 4),),
        argv=("quantum", "--n", "51", "--q", "4", "--type", "cyclic",
              "--leaders", "0,2,7,17,34"),
        expect={"n_q": 54, "k_q": 32, "e": 3, "d_lb": 6, "d_ub": 6},
        speed_probe="numpy"),
    "orbits-51-45": Workload(
        "orbits-51-45", "orbits", (("cyclic", 51, 4), ("cyclic", 45, 4)),
        jobs=((51, 4, 32768, 1564), (45, 4, 32768, 3010)),
        probe=(51, (0, 2, 7, 17, 34), 24, (0, 1, 3, 17, 34))),
    "consta-43": Workload(
        "consta-43", "search", (("constacyclic", 43, 4),),
        job={"family": "constacyclic", "n": 43},
        budget=SEARCH_BUDGET),
    "sweep-15": Workload(
        "sweep-15", "search", (("cyclic", 15, 4),),
        job={"family": "cyclic", "n": 15, "q": 4, "k_min": 8, "k_max": 9},
        exact=True, budget=SEARCH_BUDGET),
}

SMOKE = {
    "quantum-54": Workload(
        "quantum-54", "quantum", (("cyclic", 17, 4),),
        argv=("quantum", "--n", "17", "--q", "4", "--type", "cyclic",
              "--leaders", "1"),
        expect={"n_q": 17, "k_q": 9, "e": 0, "d_lb": 4, "d_ub": 4},
        speed_probe="numpy"),
    "orbits-51-45": Workload(
        "orbits-51-45", "orbits", (("cyclic", 8, 3),),
        jobs=((8, 3, 32, 14),), probe=(8, (1, 2), 4, (0, 1, 4))),
    "consta-43": Workload(
        "consta-43", "search", (("constacyclic", 5, 4),),
        job={"family": "constacyclic", "n": 5}, budget=SEARCH_BUDGET),
    "sweep-15": Workload(
        "sweep-15", "search", (("cyclic", 8, 3),),
        job={"family": "cyclic", "n": 8, "q": 3}, exact=True,
        budget=SEARCH_BUDGET),
}


def get(name: str, smoke: bool) -> Workload:
    table = SMOKE if smoke else FULL
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; "
                       f"choose from {', '.join(table)}")
    return table[name]


def reference_key(w: Workload, smoke: bool) -> str:
    return ("smoke/" if smoke else "") + w.name


def items_per_pass(w: Workload, smoke: bool) -> int:
    """Operations one pass attempts: derivations, sets or evaluations."""
    if w.kind == "quantum":
        return 1
    if w.kind == "orbits":
        return sum(sets for _, _, sets, _ in w.jobs)
    return len(json.loads(REFERENCE.read_text())[reference_key(w, smoke)])


def build_tables(w: Workload) -> None:
    """Fill the coset, field and root caches the workload reads first."""
    from codeq.constacyclic import lane_cosets
    from codeq.cosets import coset_table
    from codeq.cyclic import canonical_root

    for family, n, q in w.tables:
        if family == "cyclic":
            coset_table(n, q)
            canonical_root(n, q)
        else:
            lane_cosets(n)
            canonical_root(3 * n, q)


def search_job(w: Workload, seed: int):
    from codeq.search import SearchJob
    return SearchJob(**w.job, distance_budget=w.budget, seed=seed)


def run_pass(w: Workload, seed: int, workdir: Path) -> dict:
    """Run the workload once through the public API; return its outputs.

    Functions are looked up on their modules at call time, so a tracer
    that wrapped those module attributes sees every call.
    """
    import importlib

    if w.kind == "quantum":
        cli = importlib.import_module("codeq.cli")
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = cli.main(list(w.argv) + ["--seed", str(seed)])
        return {"rc": rc, "stdout": buf.getvalue()}

    search_mod = importlib.import_module("codeq.search")
    if w.kind == "orbits":
        out = []
        for n, q, _, _ in w.jobs:
            path = workdir / f"orbits-{n}-{q}.jsonl"
            job = search_mod.SearchJob("cyclic", n, q, output=str(path),
                                       seed=seed)
            _, rep = search_mod.search(job)
            out.append({"n": n, "q": q, "path": str(path),
                        "total_sets": rep["total_sets"],
                        "orbit_count": rep["orbit_count"]})
        return {"jobs": out}

    records, rep = search_mod.search(search_job(w, seed))
    return {"evaluated": [[list(r.representative), r.d_lb, r.d_ub,
                           r.strategy] for r in records if r.evaluated],
            "total_sets": rep["total_sets"],
            "orbit_count": rep["orbit_count"]}


def digest_outputs(output: dict) -> dict:
    """Add the sha256 and size of every JSONL file a pass wrote."""
    for job in output.get("jobs", ()):
        data = Path(job["path"]).read_bytes()
        job["sha256"] = hashlib.sha256(data).hexdigest()
        job["bytes"] = len(data)
    return output


def open_count(output: dict) -> int:
    return sum(1 for _, lb, ub, _ in output.get("evaluated", ()) if lb < ub)


def check(w: Workload, smoke: bool, outputs: list) -> tuple[int, int, list]:
    """Check every pass; returns (attempted, failed, failure messages).

    A pass that raised (``None`` in ``outputs``) fails all its operations.
    Every orbits pass writes the same files, so their records are read
    once, with the first pass; the sha256 check covers the other passes.
    """
    per_pass = items_per_pass(w, smoke)
    attempted = failed = 0
    messages: list[str] = []
    ref = json.loads(REFERENCE.read_text()).get(reference_key(w, smoke))
    for i, out in enumerate(outputs):
        attempted += per_pass
        if out is None:
            failed += per_pass
            messages.append(f"pass {i} raised or timed out")
            continue
        if w.kind == "quantum":
            bad = _check_quantum(w, out)
        elif w.kind == "orbits":
            bad = _check_orbits(w, out, outputs[0], verify_chains=i == 0)
        else:
            bad = _check_search(w, out, ref)
        failed += min(per_pass, sum(n for n, _ in bad))
        messages.extend(f"pass {i}: {msg}" for _, msg in bad)
    return attempted, failed, messages


def _check_quantum(w: Workload, out: dict) -> list:
    if out["rc"] != 0:
        return [(1, f"exit code {out['rc']}")]
    got = json.loads(out["stdout"])
    wrong = {k: got.get(k) for k, v in w.expect.items() if got.get(k) != v}
    return [(1, f"quantum parameters differ: {wrong}")] if wrong else []


def _check_orbits(w: Workload, out: dict, first: dict | None,
                  verify_chains: bool) -> list:
    bad = []
    for spec, job in zip(w.jobs, out["jobs"]):
        n, q, sets, orbits = spec
        if (job["total_sets"], job["orbit_count"]) != (sets, orbits):
            bad.append((sets, f"n={n}: {job['total_sets']} sets in "
                              f"{job['orbit_count']} orbits, expected "
                              f"{sets} in {orbits}"))
        twin = next((j for j in (first or {}).get("jobs", ())
                     if j["n"] == n), None)
        if twin is not None and twin["sha256"] != job["sha256"]:
            bad.append((sets, f"n={n}: JSONL differs between repeats"))
        if verify_chains:
            bad.extend(_check_records(w, spec, job["path"]))
    return bad


def _check_records(w: Workload, spec: tuple, path: str) -> list:
    """The file's set and orbit counts, every chain, and the probe orbit."""
    from codeq.cosets import coset_table
    from codeq.search import SearchJob, apply_chain

    n, q, sets, orbits = spec
    job = SearchJob("cyclic", n, q)
    table = coset_table(n, q)
    bad = []
    broken = count = 0
    orbit_ids = set()
    probe_n, probe_leaders, probe_size, probe_rep = w.probe
    probe_seen = False
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            count += 1
            orbit_ids.add(rec["orbit"])
            start = frozenset(table.closure(rec["leaders"]))
            target = frozenset(table.closure(rec["representative"]))
            if apply_chain(job, start, rec["chain"]) != target:
                broken += 1
            if n == probe_n and tuple(rec["leaders"]) == probe_leaders:
                probe_seen = True
                if (rec["orbit_size"], tuple(rec["representative"])) != (
                        probe_size, probe_rep):
                    bad.append((rec["orbit_size"],
                                f"orbit of {probe_leaders} has size "
                                f"{rec['orbit_size']} and representative "
                                f"{rec['representative']}"))
    if broken:
        bad.append((broken, f"n={n}: {broken} chains miss their "
                            f"representative"))
    if n == probe_n and not probe_seen:
        bad.append((probe_size, f"no record for leaders {probe_leaders}"))
    if (count, len(orbit_ids)) != (sets, orbits):
        bad.append((sets, f"n={n}: {count} records in {len(orbit_ids)} "
                          f"orbits in the JSONL, expected {sets} in "
                          f"{orbits}"))
    return bad


def _check_search(w: Workload, out: dict, ref: dict) -> list:
    """Sound intervals that overlap the reference, or equal it if exact."""
    bad = []
    seen = set()
    for rep, lb, ub, _ in out["evaluated"]:
        key = ",".join(map(str, rep))
        seen.add(key)
        want = ref.get(key)
        if want is None:
            bad.append((1, f"unexpected evaluation of {rep}"))
        elif lb > ub:
            bad.append((1, f"{rep}: unsound interval [{lb}, {ub}]"))
        elif w.exact and [lb, ub] != want:
            bad.append((1, f"{rep}: distance [{lb}, {ub}], "
                           f"expected {want[0]}"))
        elif lb > want[1] or ub < want[0]:
            bad.append((1, f"{rep}: [{lb}, {ub}] misses reference {want}"))
    missing = sorted(set(ref) - seen)
    if missing:
        bad.append((len(missing), f"no evaluation for {missing}"))
    return bad
