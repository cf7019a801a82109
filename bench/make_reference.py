"""Write reference.json: the distance intervals the search workloads check.

The intervals were made at the commit that introduced the benchmark, with
seed 1, and are not meant to be regenerated by a change under test: the
search workloads check every later result against them. To rebuild them
on purpose, run from the root of a checkout:

    PYTHONPATH=src python3 bench/make_reference.py
"""

import json

import workloads


def main() -> None:
    from codeq.search import search

    out = {}
    for smoke, table in ((False, workloads.FULL), (True, workloads.SMOKE)):
        for w in table.values():
            if w.kind != "search":
                continue
            records, _ = search(workloads.search_job(w, seed=1))
            out[workloads.reference_key(w, smoke)] = {
                ",".join(map(str, r.representative)): [r.d_lb, r.d_ub]
                for r in records if r.evaluated}
    workloads.REFERENCE.write_text("{\n" + ",\n".join(
        f" {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
        for key, value in sorted(out.items())) + "\n}\n")


if __name__ == "__main__":
    main()
