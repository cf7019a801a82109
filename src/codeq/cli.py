"""Command-line interface for code construction, equivalence, and search.

All subcommands print one JSON document to stdout. Exit codes: 0 on
success, 2 on invalid arguments, 3 when a distance budget ran out before
the bounds closed.

Distance budgets are given either as raw work units (an integer) or as
"<seconds>s", converted at a fixed nominal rate so identical commands
produce identical outputs on any machine.
"""

import argparse
import json
import os
import sys

from .constacyclic import (
    build_constacyclic,
    lane_cosets,
    lane_elements,
    palfy_classify,
)
from .cosets import DefiningSet, coset_table
from .cyclic import build_cyclic, certify_equivalence, classify_cyclic
from .linear import min_distance
from .quantum import crss, hermitian_hull, nearly_self_orthogonal
from .search import SearchJob, load_targets, search

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3

WORK_UNITS_PER_SECOND = 2_000_000


def parse_budget(text: str) -> int:
    """Work-unit budget: plain integer, or '<seconds>s' at the nominal rate."""
    text = text.strip()
    try:
        if text.endswith("s"):
            units = int(float(text[:-1]) * WORK_UNITS_PER_SECOND)
        else:
            units = int(text)
    except (ValueError, OverflowError):
        units = None
    if units is None or units < 0:
        raise argparse.ArgumentTypeError(
            f"bad budget {text!r}: use a non-negative number of work units "
            f"(e.g. 4000000) or seconds (e.g. 300s)")
    return units


def _consta_elements(n: int, text: str) -> frozenset:
    if text.startswith("full:"):
        return frozenset(int(x) % (3 * n) for x in text[5:].split(",") if x)
    return lane_elements(n, (int(x) for x in text.split(",") if x))


def _cmd_cosets(args) -> tuple[dict, int]:
    table = coset_table(args.n, args.q)
    return {
        "n": args.n, "q": args.q,
        "cosets": [list(c) for c in sorted(table.cosets, key=min)],
    }, EXIT_OK


def _cmd_gen(args) -> tuple[dict, int]:
    A = DefiningSet.parse(args.n, args.q, args.leaders)
    code = build_cyclic(args.n, args.q, A)
    return {
        "n": args.n, "q": args.q, "k": code.k,
        "defining_set": {"leaders": list(A.leaders()), "size": len(A)},
        "generator_poly": [int(c) for c in code.generator_poly],
    }, EXIT_OK


def _cmd_equiv(args) -> tuple[dict, int]:
    A = DefiningSet.parse(args.n, args.q, args.a)
    B = DefiningSet.parse(args.n, args.q, args.b)
    C1 = build_cyclic(args.n, args.q, A)
    C2 = build_cyclic(args.n, args.q, B)
    certs = certify_equivalence(C1, C2, depth=args.depth)
    out = []
    for cert in certs:
        d = cert.to_dict()
        d["direction"] = {"source": d.pop("source"),
                          "target": d.pop("target")}
        out.append(d)
    return {
        "n": args.n, "q": args.q,
        "a": list(A.leaders()), "b": list(B.leaders()),
        "certified": bool(certs),
        "certificates": out,
    }, EXIT_OK


def _cmd_classify(args) -> tuple[dict, int]:
    use = tuple(args.use.split(",")) if args.use else None
    kwargs = {} if use is None else {"use": use}
    classes = classify_cyclic(args.n, args.q, **kwargs)
    table = coset_table(args.n, args.q)

    def leaders(elements):
        return sorted({table.leader_of(x) for x in elements})

    return {
        "n": args.n, "q": args.q,
        "class_count": len(classes),
        "classes": [{"size": len(cls),
                     "members": [leaders(m) for m in cls]}
                    for cls in classes],
    }, EXIT_OK


def _cmd_consta(args) -> tuple[dict, int]:
    elements = _consta_elements(args.n, args.leaders)
    C = build_constacyclic(args.n, elements)
    hull = hermitian_hull(C.base)
    elements = set(C.defining_set.elements)
    leaders = sorted(min(c) for c in lane_cosets(args.n)
                     if set(c) <= elements)
    return {
        "n": C.n, "k": C.k, "q": 4,
        "shift_constant": "w",
        "defining_set": {"modulus": 3 * C.n, "leaders": leaders,
                         "size": len(elements)},
        "hull": {"dim": hull.k, "e": C.n - C.k - hull.k},
    }, EXIT_OK


def _cmd_consta_classify(args) -> tuple[dict, int]:
    orbits = palfy_classify(args.n)
    cosets = lane_cosets(args.n)

    def leaders(member):
        s = set(member)
        return sorted(min(c) for c in cosets if set(c) <= s)

    return {
        "n": args.n, "q": 4,
        "orbit_count": len(orbits),
        "orbits": [{
            "leader": leaders(o.leader),
            "members": [leaders(m) for m in o.members],
            "witnesses": {",".join(map(str, leaders(m))): e
                          for m, e in o.witnesses.items()},
        } for o in orbits],
    }, EXIT_OK


def _cmd_quantum(args) -> tuple[dict, int]:
    if args.type == "cyclic":
        A = DefiningSet.parse(args.n, args.q, args.leaders)
        base = build_cyclic(args.n, args.q, A).base
    else:
        if args.q != 4:
            raise ValueError("constacyclic codes require q = 4")
        base = build_constacyclic(args.n,
                                  _consta_elements(args.n,
                                                   args.leaders)).base
    if args.q != 4:
        raise ValueError("quantum constructions require q = 4")
    mode = args.construction
    if mode == "auto":
        mode = ("crss" if base.contains_code(base.hermitian_dual())
                else "nearly_self_orthogonal")
    if mode == "crss":
        qp = crss(base, budget=args.distance_budget, seed=args.seed)
    else:
        _, qp = nearly_self_orthogonal(base, budget=args.distance_budget,
                                       seed=args.seed)
    payload = qp.to_dict()
    payload["seed"] = args.seed
    code = EXIT_OK
    if args.distance_budget is not None and not qp.exact:
        code = EXIT_BUDGET
    return payload, code


def _cmd_search(args) -> tuple[dict, int]:
    targets = load_targets(args.targets) if args.targets else ()
    prune = tuple(args.prune.split(",")) if args.prune is not None else None
    if prune == ("",):
        prune = ()
    job = SearchJob(
        family=args.family, n=args.n, q=args.q, k_min=args.k_min,
        k_max=args.k_max, distance_budget=args.distance_budget,
        prune=prune, targets=targets, output=args.output, seed=args.seed,
        quantum=args.quantum)
    records, summary = search(job)
    orbit = None
    if args.leaders:
        want = tuple(sorted(int(x) for x in args.leaders.split(",") if x))
        for r in records:
            if r.leaders == want:
                orbit = {"leaders": list(r.leaders),
                         "orbit": r.orbit_id, "orbit_size": r.orbit_size,
                         "representative": list(r.representative)}
                break
        if orbit is None:
            raise ValueError(f"leaders {want} not in the enumerated window")
    summary = dict(summary)
    if orbit is not None:
        summary["queried"] = orbit
    code = EXIT_BUDGET if summary["incomplete"] else EXIT_OK
    return summary, code


def _cmd_mindist(args) -> tuple[dict, int]:
    if args.type == "cyclic":
        A = DefiningSet.parse(args.n, args.q, args.leaders)
        base = build_cyclic(args.n, args.q, A).base
    else:
        base = build_constacyclic(args.n,
                                  _consta_elements(args.n,
                                                   args.leaders)).base
    res = min_distance(base, strategy=args.strategy,
                       budget=args.distance_budget, seed=args.seed)
    payload = res.to_dict()
    payload.update({"n": base.n, "k": base.k, "q": args.q})
    return payload, EXIT_OK if res.complete else EXIT_BUDGET


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codeq",
        description="cyclic and constacyclic codes: construction, "
                    "equivalence certificates, classification, quantum "
                    "constructions, and pruned search")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("cosets", _cmd_cosets, help="print the cyclotomic coset table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = add("gen", _cmd_gen, help="build a cyclic code from coset leaders")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--leaders", required=True,
                   help="comma-separated coset leaders, or full:<elements>")

    p = add("equiv", _cmd_equiv,
            help="certify equivalence of two cyclic codes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", required=True, help="first defining set")
    p.add_argument("--b", required=True, help="second defining set")
    p.add_argument("--depth", type=int, default=2,
                   help="composition depth for certificate chains")

    p = add("classify", _cmd_classify,
            help="partition all defining sets at (n, q) into "
                 "certificate-closure classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--use", default=None,
                   help="comma-separated certificate kinds")

    p = add("consta", _cmd_consta,
            help="build an omega-constacyclic code over GF(4)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--leaders", required=True,
                   help="lane coset leaders mod 3n, or full:<elements>")

    p = add("consta-classify", _cmd_consta_classify,
            help="multiplier orbits of constacyclic defining sets")
    p.add_argument("--n", type=int, required=True)

    p = add("quantum", _cmd_quantum,
            help="binary quantum code from a quaternary code")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--type", choices=("cyclic", "constacyclic"),
                   default="cyclic")
    p.add_argument("--leaders", required=True)
    p.add_argument("--construction",
                   choices=("auto", "crss", "nearly_self_orthogonal"),
                   default="auto")
    p.add_argument("--distance-budget", type=parse_budget, default=None)
    p.add_argument("--seed", type=int, default=1)

    p = add("search", _cmd_search,
            help="enumerate defining-set orbits and evaluate representatives")
    p.add_argument("--family", choices=("cyclic", "constacyclic"),
                   default="cyclic")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--k-min", type=int, default=0)
    p.add_argument("--k-max", type=int, default=None)
    p.add_argument("--distance-budget", type=parse_budget, default=None)
    p.add_argument("--prune", default=None,
                   help="comma-separated certificate kinds; empty disables")
    p.add_argument("--targets", default=None,
                   help="path to a best-known table of n,k,q,d rows")
    p.add_argument("--output", default=None, help="JSONL records path")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--quantum", action="store_true",
                   help="also evaluate the quantum construction")
    p.add_argument("--leaders", default=None,
                   help="report the orbit of this defining set")

    p = add("mindist", _cmd_mindist, help="minimum-distance bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--type", choices=("cyclic", "constacyclic"),
                   default="cyclic")
    p.add_argument("--leaders", required=True)
    p.add_argument("--strategy", default="auto")
    p.add_argument("--distance-budget", type=parse_budget, default=None)
    p.add_argument("--seed", type=int, default=1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, code = args.func(args)
    except ValueError as ex:
        print(json.dumps({"error": str(ex)}), file=sys.stderr)
        return EXIT_USAGE
    try:
        print(json.dumps(payload, indent=2, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the flush at
        # interpreter shutdown cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
