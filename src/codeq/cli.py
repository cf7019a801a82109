"""Command-line interface for code construction, equivalence, and search.

All subcommands print one JSON document to stdout. Exit codes: 0 on
success, 2 on invalid arguments or an unreadable or unwritable file, 3 when
a distance budget ran out before the bounds closed.

Distance budgets are given either as raw work units (an integer) or as
"<seconds>s", converted at a fixed nominal rate so identical commands
produce identical outputs on any machine.
"""

import argparse
import json
import os
import sys

from .constacyclic import build_code, build_constacyclic
from .cosets import coset_table, set_family
from .cyclic import build_cyclic, certify_equivalence
from .linear import min_distance
from .quantum import crss, hermitian_hull, nearly_self_orthogonal
from .search import (SearchJob, classify_cyclic, load_targets, palfy_classify,
                     search)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3

WORK_UNITS_PER_SECOND = 2_000_000

LEADERS_HELP = ("comma-separated coset leaders, or full:<elements>; every "
                "value lies in [0, modulus) and in the family's lane, and a "
                "full: set is coset-closed")


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


def _cmd_cosets(args) -> tuple[dict, int]:
    table = coset_table(args.n, args.q)
    return {
        "n": args.n, "q": args.q,
        "cosets": [list(c) for c in sorted(table.cosets, key=min)],
    }, EXIT_OK


def _cmd_gen(args) -> tuple[dict, int]:
    A = set_family("cyclic", args.n, args.q).parse(args.leaders)
    code = build_cyclic(args.n, args.q, A)
    return {
        "n": args.n, "q": args.q, "k": code.k,
        "defining_set": {"leaders": list(A.leaders()), "size": len(A)},
        "generator_poly": [int(c) for c in code.generator_poly],
    }, EXIT_OK


def _cmd_equiv(args) -> tuple[dict, int]:
    fam = set_family("cyclic", args.n, args.q)
    A = fam.parse(args.a)
    B = fam.parse(args.b)
    C1 = build_cyclic(args.n, args.q, A)
    C2 = build_cyclic(args.n, args.q, B)
    certs = certify_equivalence(C1, C2)
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
    fam = set_family("cyclic", args.n, args.q)
    return {
        "n": args.n, "q": args.q,
        "class_count": len(classes),
        "classes": [{"size": len(cls),
                     "members": [fam.leaders(m) for m in cls]}
                    for cls in classes],
    }, EXIT_OK


def _cmd_consta(args) -> tuple[dict, int]:
    fam = set_family("constacyclic", args.n, 4)
    C = build_constacyclic(args.n, fam.parse(args.leaders))
    hull = hermitian_hull(C.base)
    elements = C.defining_set.elements
    return {
        "n": C.n, "k": C.k, "q": 4,
        "shift_constant": "w",
        "defining_set": {"modulus": fam.modulus,
                         "leaders": fam.leaders(elements),
                         "size": len(elements)},
        "hull": {"dim": hull.k, "e": C.n - C.k - hull.k},
    }, EXIT_OK


def _cmd_consta_classify(args) -> tuple[dict, int]:
    orbits = palfy_classify(args.n)
    leaders = set_family("constacyclic", args.n, 4).leaders
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


def _parsed_code(args):
    """The --type code at (--n, --q) on the --leaders defining set."""
    fam = set_family(args.type, args.n, args.q)
    return build_code(fam, fam.parse(args.leaders)).base


def _cmd_quantum(args) -> tuple[dict, int]:
    base = _parsed_code(args)
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
    want = None
    if args.leaders:
        want = job.context.leaders(job.context.parse(args.leaders))
    if args.output:
        # an unwritable record path fails here, before any orbit is enumerated
        open(args.output, "a").close()
    records, summary = search(job)
    summary = dict(summary)
    if want is not None:
        found = [r for r in records if r.leaders == want]
        if not found:
            raise ValueError(f"leaders {want} not in the enumerated window")
        r = found[0]
        summary["queried"] = {"leaders": list(r.leaders), "orbit": r.orbit_id,
                              "orbit_size": r.orbit_size,
                              "representative": list(r.representative)}
    code = EXIT_BUDGET if summary["incomplete"] else EXIT_OK
    return summary, code


def _cmd_mindist(args) -> tuple[dict, int]:
    base = _parsed_code(args)
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
    p.add_argument("--leaders", required=True, help=LEADERS_HELP)

    p = add("equiv", _cmd_equiv,
            help="certify equivalence of two cyclic codes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--a", required=True,
                   help="first defining set, in the --leaders form")
    p.add_argument("--b", required=True,
                   help="second defining set, in the --leaders form")

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
    p.add_argument("--leaders", required=True, help=LEADERS_HELP)

    p = add("consta-classify", _cmd_consta_classify,
            help="multiplier orbits of constacyclic defining sets")
    p.add_argument("--n", type=int, required=True)

    p = add("quantum", _cmd_quantum,
            help="binary quantum code from a quaternary code")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--type", choices=("cyclic", "constacyclic"),
                   default="cyclic")
    p.add_argument("--leaders", required=True, help=LEADERS_HELP)
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
    p.add_argument("--leaders", required=True, help=LEADERS_HELP)
    p.add_argument("--strategy", default="auto")
    p.add_argument("--distance-budget", type=parse_budget, default=None)
    p.add_argument("--seed", type=int, default=1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, code = args.func(args)
    except (ValueError, OSError) as ex:
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
