"""Tests for defining-set search: orbits, grouping, records, determinism."""

import hashlib
import json
import math

import numpy as np
import pytest

from codeq import linear
from codeq.cosets import (
    all_defining_sets,
    coset_table,
    generalized_multiplier,
    multiplier,
    set_family,
)
from codeq.cyclic import (
    _half_twist_partner,
    _odd_step_partner,
    _triple_step_partner,
    build_cyclic,
)
from codeq.fields import prime_power_split
from codeq.linear import min_distance
from codeq.search import (
    SearchJob,
    SearchRecord,
    _Forest,
    _Space,
    _expand_leaders,
    _index_maps,
    apply_chain,
    enumerate_orbits,
    evaluate,
    group_orbits,
    load_targets,
    report,
    search,
)


def test_job_validation():
    with pytest.raises(ValueError):
        SearchJob("twisted", 8, 3)
    with pytest.raises(ValueError):
        SearchJob("cyclic", 9, 3)          # shared factor
    with pytest.raises(ValueError):
        SearchJob("constacyclic", 10)      # even length
    with pytest.raises(ValueError):
        SearchJob("constacyclic", 5, q=2)
    with pytest.raises(ValueError):
        SearchJob("cyclic", 8, 3, k_min=7, k_max=3)
    with pytest.raises(ValueError):
        SearchJob("cyclic", 8, 3, prune=("substitution",))
    with pytest.raises(ValueError):
        SearchJob("cyclic", 8, 3, quantum=True)


def test_no_prune_gives_singleton_orbits():
    orbits = enumerate_orbits(SearchJob("cyclic", 8, 3, prune=()))
    assert all(o.size == 1 for o in orbits)
    assert len(orbits) == 32


def test_orbit_sizes_conserve_set_count():
    for job in (SearchJob("cyclic", 8, 3), SearchJob("cyclic", 16, 3),
                SearchJob("constacyclic", 15)):
        orbits = enumerate_orbits(job)
        plain = enumerate_orbits(SearchJob(job.family, job.n, job.q,
                                           prune=()))
        assert sum(o.size for o in orbits) == len(plain)


def test_dimension_window_filters_sets():
    job = SearchJob("cyclic", 8, 3, k_min=4, k_max=6)
    orbits = enumerate_orbits(job)
    for o in orbits:
        for leaders in o.members:
            k = job.n - len(_expand_leaders(job, leaders))
            assert 4 <= k <= 6


def _loop_closure(sets, images):
    """Classes of ``sets`` joined to each of their ``images(S)``, one set at
    a time; images outside ``sets`` are ignored."""
    index = {s: i for i, s in enumerate(sets)}
    parent = list(range(len(sets)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for S in sets:
        for img in images(S):
            if img in index:
                ra, rb = find(index[S]), find(index[img])
                parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for i, s in enumerate(sets):
        groups.setdefault(find(i), []).append(tuple(sorted(s)))
    return {frozenset(v) for v in groups.values()}


def reference_cyclic_classes(n, q, use):
    """Certificate closure at (n, q) by a loop over every defining set."""
    sets = [frozenset(els) for els in all_defining_sets(n, q)]
    mults = [c for c in range(1, n) if math.gcd(c, n) == 1]
    gmults = []
    if "generalized_multiplier" in use:
        try:
            p, m = prime_power_split(n)
        except ValueError:
            p, m = 2, 0
        if p > 2:
            gmults = [generalized_multiplier(n, d, k)
                      for k in range(1, m + 1)
                      for d in range(2, p ** k) if d % p]

    def images(S):
        if "multiplier" in use:
            for c in mults:
                yield frozenset(c * x % n for x in S)
        for g in gmults:
            yield frozenset(g(x) for x in S)
        if "affine" in use:
            for b in range(n):
                if len(S) * (q - 1) * b % n == 0:
                    for e in mults:
                        yield frozenset((e * x + b) % n for x in S)
        if "half_twist" in use and n % 8 == 0 and q % 2:
            yield _half_twist_partner(S, n, q)
        if "odd_step" in use and n % 8 == 0 and q % 4 == 1:
            yield _odd_step_partner(S, n, q)
        if "triple_step" in use and q == 4 and n % 2 and n % 27 == 0:
            yield _triple_step_partner(S, n, q)

    return _loop_closure(sets, images)


def reference_multiplier_classes(n):
    """Lane defining sets at length n joined by the 1-mod-3 multipliers."""
    m = 3 * n
    mults = [e for e in range(1, m, 3) if math.gcd(e, m) == 1]
    sets = [frozenset(els)
            for els in set_family("constacyclic", n, 4).unions()]
    return _loop_closure(
        sets, lambda S: (frozenset(e * a % m for a in S) for e in mults))


def engine_classes(job, orbits):
    return {frozenset(tuple(sorted(_expand_leaders(job, m)))
                      for m in o.members)
            for o in orbits}


def assert_chains_reach_representatives(job, orbits):
    for o in orbits:
        rep_set = _expand_leaders(job, o.representative)
        for leaders in o.members:
            start = _expand_leaders(job, leaders)
            assert apply_chain(job, start, o.chains[leaders]) == rep_set


def test_cyclic_orbits_match_classification():
    # the generalized multiplier is opt-in: the default search at (25,4)
    # keeps 20 orbits, and adding it joins them into 18
    # (16,5) and (27,4) join sets by the odd-step and triple-step rules
    with_gm = ("multiplier", "affine", "generalized_multiplier")
    rule_steps = {(16, 5): "odd_step", (27, 4): "triple_step"}
    for n, q, prune, count in ((8, 3, None, 14), (9, 2, None, 8),
                               (8, 5, None, 15), (16, 3, None, 47),
                               (25, 4, None, 20), (25, 4, with_gm, 18),
                               (49, 2, with_gm, 18), (27, 4, None, 28),
                               (16, 5, None, 45)):
        job = SearchJob("cyclic", n, q, prune=prune)
        orbits = enumerate_orbits(job)
        assert len(orbits) == count
        assert engine_classes(job, orbits) == reference_cyclic_classes(
            n, q, job.prune)
        assert_chains_reach_representatives(job, orbits)
        steps = {step[0] for o in orbits for chain in o.chains.values()
                 for step in chain}
        assert ("generalized_multiplier" in steps) == (prune == with_gm)
        if (n, q) in rule_steps:
            assert rule_steps[n, q] in steps


def _elementwise_edges(job, space, imap, admissible):
    """image_edges by applying imap to each window set element by element."""
    ctx = job.context
    sets = [ctx.union_of(mask) for mask in space.masks.tolist()]
    row_of = {frozenset(S): r for r, S in enumerate(sets)}
    allowed = np.broadcast_to(admissible, len(sets))
    edges = []
    for r, S in enumerate(sets):
        image = frozenset(imap(x) for x in S)
        if allowed[r] and ctx.table.is_union(image) and image != set(S):
            edges.append((r, row_of[image]))
    return edges


@pytest.mark.parametrize("family, n, q, prune, window", [
    ("cyclic", 16, 3, None, (0, None)),
    ("cyclic", 25, 4, ("multiplier", "affine", "generalized_multiplier"),
     (0, None)),
    ("cyclic", 27, 4, None, (0, None)),
    ("cyclic", 27, 4, None, (7, 20)),
    ("constacyclic", 5, 4, None, (0, None)),
    ("constacyclic", 11, 4, None, (0, None)),
])
def test_image_edges_match_elementwise_images(family, n, q, prune, window):
    job = SearchJob(family, n, q, k_min=window[0], k_max=window[1],
                    prune=prune)
    ctx = job.context
    space = _Space(job)
    maps = list(_index_maps(space, job))
    assert maps
    for imap, admissible in maps:
        rows, targets = space.image_edges(imap, admissible)
        assert list(zip(rows.tolist(), targets.tolist())) == \
            _elementwise_edges(job, space, imap, admissible)
    # a unit acts on q-closed sets as the leader of its class e * q^j does,
    # which is why only leaders are yielded
    repeats = [e for e in ctx.multipliers if ctx.table.leader_of(e) != e]
    assert repeats
    for e in repeats:
        imap = multiplier(ctx.modulus, e)
        rows, targets = space.image_edges(imap)
        assert list(zip(rows.tolist(), targets.tolist())) == \
            _elementwise_edges(job, space, imap, True)
        leader = space.image_edges(
            multiplier(ctx.modulus, ctx.table.leader_of(e)))
        assert np.array_equal(rows, leader[0])
        assert np.array_equal(targets, leader[1])


def test_forest_batches_record_the_sequential_edges():
    a = np.array([3, 2, 0, 1, 4, 0, 5])
    b = np.array([4, 3, 2, 0, 2, 4, 5])
    one_by_one = _Forest(7)
    for x, y in zip(a.tolist(), b.tolist()):
        one_by_one.union(x, y, "e")
    batched = _Forest(7)
    batched.union_all(a[:3], b[:3], "e")
    batched.union_all(a[3:], b[3:], "e")
    assert batched.edges == one_by_one.edges
    # node 4 still points at the old root 3 after 3's class joins 0's
    assert batched.parent[4] != 0
    assert batched.classes() == {0: [0, 1, 2, 3, 4], 5: [5], 6: [6]}


def test_half_twist_pairs_share_an_orbit():
    job = SearchJob("cyclic", 8, 3)
    orbits = enumerate_orbits(job)
    hit = [o for o in orbits if (0, 1, 4) in o.members]
    assert hit, "expected the {0,1,3,4} defining set in some orbit"
    # {0,1,3,4} = {0} u {1,3} u {4}; its half-twist partner {2,5,6,7}
    # has leaders (2, 5)
    assert (2, 5) in hit[0].members


def test_criterion_orbit_at_fifty_one():
    job = SearchJob("cyclic", 51, 4)
    orbits = enumerate_orbits(job)
    assert sum(o.size for o in orbits) == 32768
    hit = [o for o in orbits if (0, 2, 7, 17, 34) in o.members]
    assert len(hit) == 1
    orbit = hit[0]
    assert orbit.size == 24
    assert orbit.representative == (0, 1, 3, 17, 34)
    # chains verify: each member maps to the representative
    rep_set = _expand_leaders(job, orbit.representative)
    for leaders in orbit.members:
        start = _expand_leaders(job, leaders)
        assert apply_chain(job, start, orbit.chains[leaders]) == rep_set


def test_constacyclic_orbits_match_multiplier_classes():
    for n in (5, 11, 15):
        # the affine kind adds nothing to the multipliers: a coset-closed
        # shift of a lane set is a multiplier's image (see group_orbits)
        for prune in (("multiplier",), None):
            job = SearchJob("constacyclic", n, prune=prune)
            assert engine_classes(job, enumerate_orbits(job)) == \
                reference_multiplier_classes(n)


def test_consta_111_orbit_of_criterion_set():
    job = SearchJob("constacyclic", 111)
    orbits = enumerate_orbits(job)
    hit = [o for o in orbits if (19, 37) in o.members][0]
    assert hit.size == 6
    assert hit.members == ((1, 37), (7, 37), (13, 37), (19, 37), (31, 37),
                           (37, 49))


def test_consta_coset_closed_shifts_are_lane_multipliers():
    # the lemma in group_orbits: if A and A + b are coset-closed, the least
    # lane multiplier e = 1 + b (mod gcd(3b, 3n)) carries A onto A + b, so
    # a shift never leaves a multiplier orbit
    cases = 0
    for n in (5, 7, 9, 13, 15, 21, 27, 33, 35, 39, 45, 51, 63):
        fam = set_family("constacyclic", n, 4)
        m = fam.modulus
        for A in fam.unions():
            for b in fam.shifts[1:]:
                shifted = frozenset((x + b) % m for x in A)
                if not fam.table.is_union(shifted):
                    continue
                d = math.gcd(3 * b, m)
                e = next(e for e in fam.multipliers if (e - 1 - b) % d == 0)
                assert frozenset(e * x % m for x in A) == shifted, (n, A, b)
                cases += 1
    assert cases > 2000
    # a case where the shift moves the set: at n = 21 the shift by 21
    # carries Z(1) to Z(22), which multiplier 22 also reaches
    z1 = frozenset({1, 4, 16})
    shifted = frozenset((x + 21) % 63 for x in z1)
    assert shifted != z1
    assert shifted == frozenset(22 * x % 63 for x in z1)
    for n in (15, 111):
        job = SearchJob("constacyclic", n)
        orbits = enumerate_orbits(job)
        groups = group_orbits(job, orbits)
        assert [g.orbit_ids for g in groups] == [(o.orbit_id,) for o in orbits]
        assert [g.eval_leaders for g in groups] == \
            [o.representative for o in orbits]


def test_chains_verify_for_every_member():
    for job in (SearchJob("cyclic", 8, 3), SearchJob("cyclic", 9, 2),
                SearchJob("constacyclic", 15)):
        assert_chains_reach_representatives(job, enumerate_orbits(job))


def test_search_records_inherit_bounds(tmp_path):
    out = tmp_path / "records.jsonl"
    job = SearchJob("constacyclic", 5, distance_budget=1 << 22,
                    output=str(out))
    records, summary = search(job)
    assert summary["total_sets"] == 8
    assert summary["evaluated"] == summary["group_count"] == 6
    by_leaders = {r.leaders: r for r in records}
    rep = by_leaders[(1,)]
    other = by_leaders[(7,)]
    assert rep.evaluated and rep.chain == ()
    assert not other.evaluated
    assert other.distance_via == (1,)
    assert (other.d_lb, other.d_ub) == (rep.d_lb, rep.d_ub)
    assert other.work == 0 and rep.work > 0
    lines = out.read_text().splitlines()
    assert len(lines) == 8
    for line in lines:
        obj = json.loads(line)
        assert obj["v"] == 1
        assert {"leaders", "orbit", "group", "chain", "d_lb",
                "d_ub"} <= obj.keys()


def test_search_output_is_byte_identical(tmp_path, monkeypatch):
    # at (15,4) the evaluations climb the ladder on windowed rungs
    shifts = []
    ladder = linear._mitm_ladder

    def spy(*args, shift=None, **kwargs):
        shifts.append(shift)
        return ladder(*args, shift=shift, **kwargs)

    monkeypatch.setattr(linear, "_mitm_ladder", spy)
    for name, job in (("c5", dict(family="constacyclic", n=5)),
                      ("15-4", dict(family="cyclic", n=15, q=4))):
        digests = []
        for p in (tmp_path / f"{name}-a.jsonl", tmp_path / f"{name}-b.jsonl"):
            search(SearchJob(**job, distance_budget=1 << 22, output=str(p),
                             seed=7))
            digests.append(hashlib.sha256(p.read_bytes()).hexdigest())
        assert digests[0] == digests[1]
    assert shifts and None not in shifts


def test_enumeration_only_records_have_null_bounds():
    records, summary = search(SearchJob("cyclic", 8, 3))
    assert summary["evaluated"] == 0
    assert summary["pruning_factor"] is None
    assert all(r.d_lb is None and r.d_ub is None for r in records)


def test_evaluate_standalone_matches_engine():
    job = SearchJob("cyclic", 15, 4, distance_budget=1 << 22)
    rec = evaluate(job, (1, 3))
    code = build_cyclic(15, 4, coset_table(15, 4).closure((1, 3))).base
    direct = min_distance(code, budget=1 << 22, seed=1)
    assert (rec.d_lb, rec.d_ub) == (direct.lb, direct.ub)
    assert rec.evaluated
    assert rec.k == 15 - len(_expand_leaders(job, (1, 3)))


def test_quantum_flag_populates_record():
    job = SearchJob("cyclic", 15, 4, distance_budget=1 << 22, quantum=True)
    rec = evaluate(job, (1,))
    assert rec.quantum is not None
    assert rec.quantum["n_q"] == 15 + rec.quantum["e"]
    assert rec.quantum["k_q"] == 2 * rec.k - 15 + rec.quantum["e"]


def test_report_never_claims_on_upper_bound():
    base = dict(family="cyclic", n=8, q=3, k=4, orbit_id=0, orbit_size=1,
                group_id=0, representative=(1,), chain=(), evaluated=True,
                strategy="exhaustive", complete=True, work=10)
    timid = SearchRecord(leaders=(1,), d_lb=3, d_ub=6, target_d=4,
                         beats_target=False, **base)
    winner = SearchRecord(leaders=(2,), d_lb=5, d_ub=5, target_d=4,
                          beats_target=True, **base)
    summary = report([timid, winner])
    assert len(summary["improvements"]) == 1
    assert summary["improvements"][0]["leaders"] == [2]


def test_load_targets(tmp_path):
    p = tmp_path / "targets.csv"
    p.write_text("# best known\n51,40,4,6\n15,11,4,3\n\n")
    assert load_targets(str(p)) == ((51, 40, 4, 6), (15, 11, 4, 3))
    bad = tmp_path / "bad.csv"
    bad.write_text("51,40,4\n")
    with pytest.raises(ValueError):
        load_targets(str(bad))


def test_targets_reach_search_records():
    job = SearchJob("constacyclic", 5, distance_budget=1 << 22,
                    targets=((5, 3, 4, 1),))
    records, summary = search(job)
    scored = [r for r in records if r.evaluated and r.k == 3]
    assert scored
    assert all(r.target_d == 1 for r in scored)
    assert all(r.beats_target == (r.d_lb > 1) for r in scored)


def test_bch_floors_close_the_43_14_record():
    # the BCH floor of each representative's defining set lifts lb: the
    # [43,14] record (1, 7, 13, 22, 43) closes at 14, leaving 17 open
    records, _ = search(SearchJob("constacyclic", 43,
                                  distance_budget=1 << 24, seed=1))
    evaluated = [r for r in records if r.evaluated]
    assert sum(not r.complete for r in evaluated) <= 17
    (rec,) = [r for r in evaluated if r.leaders == (1, 7, 13, 22, 43)]
    assert (rec.k, rec.d_lb, rec.d_ub) == (14, 14, 14)
