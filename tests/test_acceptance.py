"""Acceptance suite: every shipped guarantee, one printed line per criterion.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(with its runtime) directly to the terminal, bypassing pytest capture, so
the fourteen verdict lines are always visible in the run log.
"""

import itertools
import math
import sys
import time

import numpy as np

from codeq import (
    DefiningSet,
    LinearCode,
    MonomialTransform,
    SearchJob,
    all_defining_sets,
    apply_monomial,
    brute_force_equivalence,
    build_cyclic,
    build_constacyclic,
    build_field,
    certify_equivalence,
    classify_cyclic,
    coset_table,
    dual_defining_set,
    enumerate_affine_witnesses,
    half_twist_pair,
    half_twist_transform,
    hermitian_hull,
    lane_cosets,
    min_distance,
    nearly_self_orthogonal,
    odd_step_pair,
    palfy_classify,
    rref,
    search,
    triple_step_pair,
    weight_distribution,
)
from codeq.cosets import set_family, shift_divisibility_constacyclic
from codeq.cyclic import canonical_root
from codeq.fields import GF4_OMEGA
from codeq.search import _expand_leaders, apply_chain


class criterion:
    """Context manager printing one uncaptured PASS/FAIL line per test."""

    def __init__(self, num: int, title: str, capfd=None):
        self.num = num
        self.title = title
        self.capfd = capfd

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        line = (f"criterion {self.num:2d} {status} ({self.elapsed:7.2f}s)  "
                f"{self.title}")
        if self.capfd is not None:
            with self.capfd.disabled():
                print(line, file=sys.stderr, flush=True)
        else:
            print(line, flush=True)
        return False


def test_criterion_01_coset_tables(capfd):
    with criterion(1, "cyclotomic coset tables exact and sub-millisecond", capfd) as c:
        T = coset_table(8, 3)
        assert [list(x) for x in T.cosets] == [[0], [1, 3], [2, 6], [4], [5, 7]]
        Z1 = set(coset_table(27, 4).coset_of(1))
        assert Z1 == {1, 4, 7, 10, 13, 16, 19, 22, 25}
        # cold-call cost: clear the cache each round, keep the fastest of
        # five rounds so scheduler noise cannot fail a microsecond operation
        best = math.inf
        for _ in range(5):
            coset_table.cache_clear()
            t0 = time.perf_counter()
            coset_table(8, 3)
            coset_table(27, 4)
            best = min(best, time.perf_counter() - t0)
        assert best < 1e-3, f"table construction took {best * 1e3:.3f} ms"


def test_criterion_02_half_twist_instance(capfd):
    with criterion(2, "signed half twist maps {0,1,3,4} onto {2,5,6,7} "
                      "at (8,3)", capfd) as c:
        A1 = DefiningSet(8, 3, (0, 1, 3, 4))
        A2 = DefiningSet(8, 3, (2, 5, 6, 7))
        C1 = build_cyclic(8, 3, A1)
        C2 = build_cyclic(8, 3, A2)
        M = half_twist_transform(8, C1.base.field)
        assert apply_monomial(C1.base, M) == C2.base
        assert enumerate_affine_witnesses(A1, A2, mode="cyclic") == []
        assert c.elapsed < 1.0


def test_criterion_03_half_twist_sweep(capfd):
    with criterion(3, "half-twist sweep: all 80 admissible cores at five "
                      "(n, q) pairs verify", capfd) as c:
        total = 0
        for n, q in ((8, 3), (8, 7), (8, 11), (16, 3), (24, 7)):
            T = coset_table(n, q)
            odd_cosets = [x for x in T.cosets if all(v % 2 for v in x)]
            for r in range(len(odd_cosets) + 1):
                for combo in itertools.combinations(odd_cosets, r):
                    core = tuple(v for x in combo for v in x)
                    _, _, cert = half_twist_pair(n, q, core)
                    assert cert.verified
                    total += 1
        assert total == 80
        assert c.elapsed < 60


def test_criterion_04_odd_step_instance_and_sweep(capfd):
    with criterion(4, "odd-step map: {0,1,5}+quarter-point pairs at (8,5) "
                      "and full sweeps", capfd) as c:
        C1, C2, cert = odd_step_pair(8, 5, (0, 1, 5))
        assert cert.verified
        assert sorted(C1.defining_set.elements) == [0, 1, 2, 5]
        assert sorted(C2.defining_set.elements) == [0, 1, 5, 6]
        total = 0
        for n in (8, 16):
            half = n // 2
            quarter = {n // 4, 3 * n // 4}
            for q in (5, 13):
                T = coset_table(n, q)
                good = [x for x in T.cosets if not set(x) & quarter]
                for r in range(len(good) + 1):
                    for combo in itertools.combinations(good, r):
                        core = {v for x in combo for v in x}
                        if any(v not in (0, half) and (v + half) % n not in core
                               for v in core):
                            continue
                        _, _, cert = odd_step_pair(n, q, tuple(core))
                        assert cert.verified
                        total += 1
        assert total == 160
        assert c.elapsed < 60


def test_criterion_05_triple_step_pairs_at_27(capfd):
    with criterion(5, "triple-step pairs at n=27 over GF(4), root anchored "
                      "by alpha^9 = w", capfd) as c:
        ctx = canonical_root(27, 4)
        assert ctx.alpha_pow(9) == ctx.fwd[GF4_OMEGA]
        T = coset_table(27, 4)

        def leaders(code):
            return sorted({T.leader_of(x) for x in code.defining_set.elements})

        wanted = [
            (((0,), (1,)), [0, 1, 3], [0, 1, 6]),
            (((0,), (2,)), [0, 2, 3], [0, 2, 6]),
            (((0, 9), (1,)), [0, 1, 3, 9], [0, 1, 6, 9]),
            (((0, 9, 18), (1,)), [0, 1, 3, 9, 18], [0, 1, 6, 9, 18]),
        ]
        for (thirds, e_list), l1, l2 in wanted:
            C1, C2, cert = triple_step_pair(27, thirds, e_list)
            assert cert.verified
            assert leaders(C1) == l1 and leaders(C2) == l2
        assert c.elapsed < 10


def test_criterion_06_shift_closure_forces_divisibility(capfd):
    with criterion(6, "coset-closed shift images satisfy n | |A|b(q-1): "
                      "exhaustive n<=30, q in {2,3,4,5}", capfd) as c:
        checked = closed_total = 0
        for q in (2, 3, 4, 5):
            for n in range(1, 31):
                if math.gcd(n, q) != 1:
                    continue
                T = coset_table(n, q)
                m = len(T.cosets)
                M = np.zeros((1 << m, n), dtype=bool)
                for i, x in enumerate(T.cosets):
                    rows = (np.arange(1 << m) >> i & 1).astype(bool)
                    M[np.ix_(rows, list(x))] = True
                sizes = M.sum(axis=1)
                mul_q = (q * np.arange(n)) % n
                for b in range(n):
                    # direct check: is A+b still a union of cosets?
                    Mb = np.roll(M, b, axis=1)
                    closed = (Mb == Mb[:, mul_q]).all(axis=1)
                    divides = (sizes * (q - 1) * b) % n == 0
                    assert not (closed & ~divides).any(), (n, q, b)
                    closed_total += int(closed.sum())
                    checked += 1 << m
        assert checked == 485460 and closed_total == 82724
        assert c.elapsed < 300


def test_criterion_07_constacyclic_shift_divisibility(capfd):
    with criterion(7, "constacyclic shift pairs need 3 | b and n | b|A|: "
                      "exhaustive n in {3,5,9,15}", capfd) as c:
        pairs = 0
        for n in (3, 5, 9, 15):
            m3 = 3 * n
            lane_sets = {frozenset(a) for a in
                         set_family("constacyclic", n, 4).unions()}
            for A in lane_sets:
                if not A:
                    continue  # the empty set is fixed by every shift
                for b in range(m3):
                    image = frozenset((x + b) % m3 for x in A)
                    if image in lane_sets:
                        assert shift_divisibility_constacyclic(n, len(A), b)
                        pairs += 1
        assert pairs == 56  # non-vacuous: real shift pairs were exercised
        assert c.elapsed < 60


def test_criterion_08_isodual_chain(capfd):
    with criterion(8, "isodual chain at (8,3): dual -> shift by 4 -> "
                      "half twist -> code", capfd) as c:
        A = DefiningSet(8, 3, (0, 1, 3, 4))
        C = build_cyclic(8, 3, A)
        D = dual_defining_set(A)
        assert sorted(D.elements) == [1, 2, 3, 6]
        shifted = DefiningSet(8, 3, tuple((x + 4) % 8 for x in D.elements))
        assert sorted(shifted.elements) == [2, 5, 6, 7]
        leg1 = certify_equivalence(build_cyclic(8, 3, D),
                                   build_cyclic(8, 3, shifted))
        assert any(cert.verified and cert.kind in ("shift", "affine",
                                                   "multiplier")
                   for cert in leg1)
        leg2 = certify_equivalence(build_cyclic(8, 3, shifted), C)
        assert any(cert.verified and cert.kind == "half_twist"
                   for cert in leg2)
        whole = certify_equivalence(build_cyclic(8, 3, D), C)
        assert whole and all(cert.verified for cert in whole)
        assert c.elapsed < 1.0


def test_criterion_09_certificates_match_brute_force(capfd):
    with criterion(9, "certificate closure equals pruned brute force at "
                      "(8,3) monomial and (9,2) permutation", capfd) as c:
        classes = classify_cyclic(8, 3, use=("affine", "half_twist"))
        cert_class = {}
        for i, cls in enumerate(classes):
            for els in cls:
                cert_class[frozenset(els)] = i
        codes = {frozenset(els): build_cyclic(8, 3, DefiningSet(8, 3, els))
                 for els in all_defining_sets(8, 3)}
        keys = sorted(codes, key=lambda s: (len(s), sorted(s)))
        compared = equivalent = 0
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                a, b = keys[i], keys[j]
                if codes[a].k != codes[b].k or codes[a].k in (0, 8):
                    continue
                bf = brute_force_equivalence(codes[a].base, codes[b].base,
                                             mode="monomial")
                assert bf.status != "unknown"
                assert (cert_class[a] == cert_class[b]) == \
                    (bf.status == "equivalent"), (sorted(a), sorted(b))
                compared += 1
                equivalent += bf.status == "equivalent"
        assert (compared, equivalent) == (59, 27)

        # at (9,2) all eight cyclic codes have distinct dimensions, so
        # permutation equivalence reduces to self-maps, certified by
        # multipliers (the generalized multiplier fixes Z(1) as well)
        codes9 = [build_cyclic(9, 2, DefiningSet(9, 2, els))
                  for els in all_defining_sets(9, 2)]
        dims = [C.k for C in codes9]
        assert len(set(dims)) == len(dims)
        for C in codes9:
            certs = certify_equivalence(C, C)
            assert certs and certs[0].kind == "multiplier"
        for leaders in ((1,), (3,), (1, 3)):
            C = build_cyclic(9, 2, DefiningSet.from_leaders(9, 2, leaders))
            res = brute_force_equivalence(C.base, C.base, mode="permutation")
            assert res.status == "equivalent"
        assert c.elapsed < 300


def test_criterion_10_multiplier_orbits_at_length_5(capfd):
    with criterion(10, "length-5 constacyclic: multiplier orbits = "
                       "monomial classes; 120-perm classes are finer", capfd) as c:
        codes = {frozenset(A): build_constacyclic(5, A).base
                 for A in set_family("constacyclic", 5, 4).unions()}
        keys = sorted(codes, key=sorted)

        def brute_partition(mode):
            parent = list(range(len(keys)))

            def find(i):
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            for i in range(len(keys)):
                for j in range(i + 1, len(keys)):
                    if codes[keys[i]].k != codes[keys[j]].k:
                        continue
                    res = brute_force_equivalence(codes[keys[i]],
                                                  codes[keys[j]], mode=mode)
                    assert res.status != "unknown"
                    if res.status == "equivalent":
                        ri, rj = find(i), find(j)
                        if ri != rj:
                            parent[max(ri, rj)] = min(ri, rj)
            groups = {}
            for i in range(len(keys)):
                groups.setdefault(find(i), set()).add(keys[i])
            return {frozenset(g) for g in groups.values()}

        orbit_partition = {frozenset(frozenset(m) for m in o.members)
                           for o in palfy_classify(5)}
        monomial = brute_partition("monomial")
        permutation = brute_partition("permutation")
        # a multiplier witness carries a diagonal twist, so orbits match
        # monomial equivalence exactly ...
        assert monomial == orbit_partition
        assert len(orbit_partition) == 6
        # ... while plain permutation equivalence is strictly finer: the
        # orbit {1,4} ~ {7,13} splits under the 120-permutation sweep
        assert len(permutation) == 8
        a, b = frozenset({1, 4}), frozenset({7, 13})
        assert any(a in g and b in g for g in monomial)
        assert not any(a in g and b in g for g in permutation)
        res = brute_force_equivalence(codes[a], codes[b], mode="permutation")
        assert res.status == "not_equivalent"
        assert c.elapsed < 60


def test_criterion_11_quantum_54_32_6(capfd):
    with criterion(11, "quantum [[54,32,6]] from the [51,40] cyclic code "
                       "over GF(4)", capfd) as c:
        C = build_cyclic(51, 4, DefiningSet.from_leaders(
            51, 4, (0, 2, 7, 17, 34)))
        assert (C.n, C.k) == (51, 40)
        hull = hermitian_hull(C.base)
        S = C.base.sum_code(C.base.hermitian_dual())
        e_hull = C.n - C.k - hull.k
        e_sum = S.k - C.k
        assert e_hull == e_sum == 3  # two-formula agreement
        dC = min_distance(C.base)
        dS = min_distance(S)
        assert dC.complete and dC.lb == 6
        assert dS.complete and dS.lb == 3
        assert min(dC.lb, dS.lb + 1) == 4  # floor before extension

        E, qp = nearly_self_orthogonal(C.base)
        assert (E.n, E.k) == (54, 43)
        assert E.contains_code(E.hermitian_dual())
        assert (qp.n_q, qp.k_q) == (54, 32)

        # upper-bound phase: the seeded information-set search must reach 6
        ub_phase = min_distance(E, strategy="information_set", seed=1)
        assert ub_phase.ub <= 6
        assert c.elapsed < 300  # well inside the 5-minute bound budget
        # certification phase: exact distance 6 (60-minute allowance)
        assert qp.exact and qp.d_lb == 6


def test_criterion_12_quantum_114_72(capfd):
    with criterion(12, "quantum [[114,72]] with d in [7,9] from the "
                       "[111,90] constacyclic code", capfd) as c:
        elements = set()
        for coset in lane_cosets(111):
            if min(coset) in (19, 37):
                elements.update(coset)
        C = build_constacyclic(111, elements)
        assert (C.n, C.k) == (111, 90)
        hull = hermitian_hull(C.base)
        S = C.base.sum_code(C.base.hermitian_dual())
        assert C.n - C.k - hull.k == S.k - C.k == 3  # e = 3, exactly

        # the orbit of this defining set has six members (itself and five
        # partners), so a search evaluates it once for six sets
        records, _ = search(SearchJob(family="constacyclic", n=111, q=4))
        rec = next(r for r in records if r.leaders == (19, 37))
        assert rec.orbit_size >= 6

        E, qp = nearly_self_orthogonal(C.base, seed=1)
        assert (E.n, E.k) == (114, 93)
        assert E.contains_code(E.hermitian_dual())  # dual containment
        assert (qp.n_q, qp.k_q) == (114, 72)        # parameter arithmetic
        assert qp.k_q == 2 * E.k - E.n
        # distance: certified floor 7, weight-9 witness; the exact value 9
        # is past desk scale, so soundness rests on the three checks above
        assert qp.d_lb >= 7
        assert qp.d_ub <= 9
        # E's own ladder runs rung 6, one side of C(114,3) 3^2 = 2,164,176
        # entries, so its lb is 7 without the floor from C and C + C^perp_h
        assert qp.d_lb == 7 and "floor" not in qp.note
        assert c.elapsed < 1800


def test_criterion_13_search_orbit_reduction(capfd):
    with criterion(13, "search at (51,4): the {0,2,7,17,34} orbit has 24 "
                       "sets and costs one evaluation", capfd) as c:
        # enumeration pass over the full space
        job = SearchJob(family="cyclic", n=51, q=4)
        records, summary = search(job)
        assert summary["total_sets"] == 2 ** 15
        rec = next(r for r in records if r.leaders == (0, 2, 7, 17, 34))
        assert rec.orbit_size == 24
        assert rec.representative == (0, 1, 3, 17, 34)
        members = [r for r in records if r.orbit_id == rec.orbit_id]
        assert len(members) == 24
        rep_set = _expand_leaders(job, rec.representative)
        for r in members:
            start = _expand_leaders(job, r.leaders)
            assert apply_chain(job, start, r.chain) == rep_set

        # evaluation pass over the k=40 window: one distance computation
        # covers all 24 orbit members, a 24x reduction on that orbit
        job40 = SearchJob(family="cyclic", n=51, q=4, k_min=40, k_max=40,
                          distance_budget=1 << 24)
        records40, summary40 = search(job40)
        orbit = [r for r in records40 if r.leaders == (0, 2, 7, 17, 34)]
        members40 = [r for r in records40
                     if r.orbit_id == orbit[0].orbit_id]
        worked = [r for r in members40 if r.work > 0]
        assert len(members40) == 24 and len(worked) == 1
        assert len(members40) // len(worked) == 24
        assert all(r.d_lb == 6 and r.d_ub == 6 for r in members40)
        assert summary40["evaluated"] == summary40["orbit_count"]
        assert c.elapsed < 120


def test_criterion_14_property_suites(capfd):
    with criterion(14, "core invariants: field axioms, coset partition, "
                       "RREF, duals, monomial weights", capfd) as c:
        # field axioms at every prime-power order up to 256
        sieve = np.ones(257, dtype=bool)
        sieve[:2] = False
        for i in range(2, 17):
            if sieve[i]:
                sieve[i * i::i] = False
        primes = [int(p) for p in np.flatnonzero(sieve)]
        orders = []
        for p in primes:
            pm = p
            while pm <= 256:
                orders.append((p, round(math.log(pm, p))))
                pm *= p
        assert len(orders) == 70
        rng = np.random.default_rng(20260818)
        for p, m in orders:
            F = build_field(p, m)
            els = list(range(F.order))
            for a in els:
                assert F.add(a, 0) == a and F.mul(a, 1) == a
                assert F.add(a, F.neg(a)) == 0
                if a:
                    assert F.mul(a, F.inv(a)) == 1
            pairs = (itertools.product(els, els) if F.order <= 32 else
                     zip(rng.choice(els, 400), rng.choice(els, 400)))
            for a, b in pairs:
                a, b = int(a), int(b)
                assert F.add(a, b) == F.add(b, a)
                assert F.mul(a, b) == F.mul(b, a)
            triples = (itertools.product(els, els, els) if F.order <= 16
                       else zip(rng.choice(els, 500), rng.choice(els, 500),
                                rng.choice(els, 500)))
            for a, b, d in triples:
                a, b, d = int(a), int(b), int(d)
                assert F.mul(F.add(a, b), d) == F.add(F.mul(a, d),
                                                      F.mul(b, d))
                assert F.add(F.add(a, b), d) == F.add(a, F.add(b, d))
                assert F.mul(F.mul(a, b), d) == F.mul(a, F.mul(b, d))

        # coset tables partition Z/n and respect multiplication by q
        for q in (2, 3, 4, 5, 7):
            for n in range(1, 41):
                if math.gcd(n, q) != 1:
                    continue
                T = coset_table(n, q)
                seen = [x for coset in T.cosets for x in coset]
                assert sorted(seen) == list(range(n))
                for coset in T.cosets:
                    assert min(coset) == coset[0]
                    assert {q * x % n for x in coset} == set(coset)

        # RREF idempotence on random matrices
        for q in (2, 3, 4, 5, 9):
            F = (build_field(3, 2) if q == 9 else
                 build_field(2, 2) if q == 4 else build_field(q, 1))
            for _ in range(10):
                mat = rng.integers(0, q, size=(5, 9), dtype=np.uint8)
                R, piv = rref(F, mat)
                R2, piv2 = rref(F, R)
                assert np.array_equal(R, R2) and piv == piv2
                assert list(piv) == sorted(piv)

        # dual involution and dimension arithmetic
        for n, q in ((8, 3), (15, 4), (21, 2)):
            for els in list(all_defining_sets(n, q))[::3]:
                C = build_cyclic(n, q, DefiningSet(n, q, els)).base
                D = C.euclidean_dual()
                assert C.k + D.k == n
                assert D.euclidean_dual() == C
                if q == 4:
                    H = C.hermitian_dual()
                    assert H.hermitian_dual() == C

        # monomial maps preserve the weight distribution
        F4 = build_field(2, 2)
        for n, q in ((10, 4), (8, 3)):
            F = F4 if q == 4 else build_field(3, 1)
            for _ in range(8):
                rows = rng.integers(0, q, size=(3, n), dtype=np.uint8)
                C = LinearCode.from_rows(F, rows, n)
                perm = tuple(int(x) for x in rng.permutation(n))
                diag = tuple(int(x) for x in rng.integers(1, q, size=n))
                M = MonomialTransform(perm, diag)
                assert (weight_distribution(apply_monomial(C, M)).counts
                        == weight_distribution(C).counts)
        assert c.elapsed < 120
