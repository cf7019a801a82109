import dataclasses
import math

import numpy as np
import pytest

from codeq import cyclic
from codeq.constacyclic import (
    build_code,
    build_constacyclic,
    lane_cosets,
)
from codeq.cosets import DefiningSet, enumerate_affine_witnesses, set_family
from codeq.cyclic import build_cyclic, multiplier_transform
from codeq.fields import GF4_OMEGA, GF4_OMEGA2, gf4, poly_divmod
from codeq.linear import (
    MonomialTransform,
    apply_monomial,
    brute_force_equivalence,
    min_distance,
    weight_distribution,
)
from codeq.search import palfy_classify


# ---------------------------------------------------------------------------
# construction


def test_build_basic():
    C = build_constacyclic(5, (1, 4))
    assert (C.n, C.k) == (5, 3)
    assert C.family is set_family("constacyclic", 5, 4)
    assert C.defining_set.elements == (1, 4)
    # (x - d)(x - d^4) has constant term d^5 = w
    assert C.generator_poly[0] == GF4_OMEGA
    assert C.generator_poly[-1] == 1


def test_build_empty_and_full():
    E = build_constacyclic(5, ())
    assert E.k == 5 and E.generator_poly == (1,)
    Z = build_constacyclic(5, (1, 4, 7, 10, 13))
    assert Z.k == 0
    # x^5 - w in characteristic 2
    assert Z.generator_poly == (GF4_OMEGA, 0, 0, 0, 0, 1)


def test_build_111_90():
    C = build_constacyclic(111, DefiningSet.from_leaders(333, 4, (19, 37)))
    assert (C.n, C.k) == (111, 90)
    assert len(C.generator_poly) - 1 == 21


def test_build_errors():
    with pytest.raises(ValueError):
        build_constacyclic(5, (2, 8))     # wrong residue class
    with pytest.raises(ValueError):
        build_constacyclic(5, (1,))       # not closed under 4
    with pytest.raises(ValueError):
        build_constacyclic(6, (1,))       # even length
    with pytest.raises(ValueError):
        build_constacyclic(0, ())


def test_root_satisfies_anchor():
    for n in (1, 5, 9, 15):
        C = build_constacyclic(n, ())
        assert C.root.ext.pow(C.root.alpha, n) == C.root.fwd[GF4_OMEGA]


def test_unanchored_root_fails_the_generator_check(monkeypatch):
    # at alpha^-1, (alpha^-1)^n = omega^2, so no lane root solves x^n = omega
    good = cyclic.canonical_root(15, 4)
    bad = dataclasses.replace(good, alpha=good.ext.inv(good.alpha))
    assert bad.ext.pow(bad.alpha, 5) == good.fwd[GF4_OMEGA2]
    monkeypatch.setattr(cyclic, "canonical_root", lambda m, q: bad)
    cyclic._coset_poly.cache_clear()
    try:
        with pytest.raises(AssertionError):
            build_constacyclic(5, (1, 4))
    finally:
        cyclic._coset_poly.cache_clear()


def test_generator_rows_are_multiples():
    C = build_constacyclic(5, (1, 4))
    F = gf4()
    for row in C.base.generator:
        _, rem = poly_divmod(F, [int(x) for x in row], list(C.generator_poly))
        assert rem == [0]


def test_constacyclic_shift_invariance():
    # the defining property: (w*a_{n-1}, a_0, ..., a_{n-2}) stays in the code
    F = gf4()
    for els in ((1, 4), (10,), (1, 4, 10)):
        C = build_constacyclic(5, els)
        for word in C.base.codewords():
            shifted = np.empty(5, dtype=np.uint8)
            shifted[0] = F.mul(GF4_OMEGA, int(word[-1]))
            shifted[1:] = word[:-1]
            assert C.base.contains(shifted)


def test_lane_cosets_n5():
    assert lane_cosets(5) == [(1, 4), (7, 13), (10,)]
    assert sorted(set_family("constacyclic", 5, 4).unions()) == sorted([
        (), (1, 4), (7, 13), (10,), (1, 4, 7, 13), (1, 4, 10),
        (7, 10, 13), (1, 4, 7, 10, 13)])


# ---------------------------------------------------------------------------
# the substitution x -> x^e, the coordinate map of the multiplier e^-1


def test_power_substitution_identity():
    fam = set_family("constacyclic", 5, 4)
    assert multiplier_transform(fam, 1) == MonomialTransform.identity(5)


def test_power_substitution_n5_e7():
    fam = set_family("constacyclic", 5, 4)
    C = build_constacyclic(5, (1, 4))
    P = build_constacyclic(5, (7, 13))            # 13 * {1, 4} mod 15
    T = multiplier_transform(fam, 13)             # x -> x^7, 7 = 13^-1
    assert apply_monomial(C.base, T) == P.base
    # codeword-level check: apply x -> x^7 mod (x^5 - w) to every codeword
    F = gf4()
    images = set()
    for word in C.base.codewords():
        out = [0] * 5
        for i, a in enumerate(word):
            if a == 0:
                continue
            s, r = divmod(7 * i, 5)
            out[r] = F.add(out[r], F.mul(int(a), F.pow(GF4_OMEGA, s % 3)))
        images.add(tuple(out))
    target = {tuple(int(x) for x in w) for w in P.base.codewords()}
    assert images == target


def test_power_substitution_transform_matches_codes():
    # in both families the map of multiplier c carries the code on A onto
    # the code on cA, for every set and every lane-keeping unit
    for fam in [set_family("constacyclic", n, 4) for n in (5, 7, 11)] + [
            set_family("cyclic", 15, 4)]:
        m = fam.modulus
        codes = {els: build_code(fam, els) for els in fam.unions()}
        for c in fam.multipliers:
            T = multiplier_transform(fam, c)
            for els, C in codes.items():
                image = tuple(sorted(c * a % m for a in els))
                assert apply_monomial(C.base, T) == codes[image].base, \
                    (fam.family, fam.n, els, c)


def test_power_substitution_frobenius_automorphism():
    # 4 fixes every defining set, so its map is an automorphism of the code
    fam = set_family("constacyclic", 111, 4)
    C = build_constacyclic(111, DefiningSet.from_leaders(333, 4, (19, 37)))
    assert tuple(sorted(4 * a % 333 for a in C.defining_set)) == \
        C.defining_set.elements
    assert apply_monomial(C.base, multiplier_transform(fam, 4)) == C.base


def test_power_substitution_errors():
    fam = set_family("constacyclic", 5, 4)
    with pytest.raises(ValueError):
        multiplier_transform(fam, 2)     # wrong residue class
    with pytest.raises(ValueError):
        multiplier_transform(fam, 10)    # shares a factor with 15


# ---------------------------------------------------------------------------
# same-parameters maps


def test_shift_rule_exhaustive_small_lengths():
    # for n in {3,5,9,15}: whenever adding b carries one lane defining set
    # onto another, b is a multiple of 3 and n divides b*|A|
    for n in (3, 5, 9, 15):
        m = 3 * n
        valid = set(set_family("constacyclic", n, 4).unions())
        for A in valid:
            if not A:
                continue
            for b in range(m):
                image = tuple(sorted((a + b) % m for a in A))
                if image in valid:
                    assert b % 3 == 0 and b * len(A) % n == 0, (n, A, b)


def test_affine_same_parameters_n5():
    C1 = build_constacyclic(5, (1, 4))
    C2 = build_constacyclic(5, (7, 13))
    maps = enumerate_affine_witnesses(C1.defining_set, C2.defining_set,
                                      mode="constacyclic")
    assert [w.params for w in maps] == [(7, 0), (13, 0)]
    assert weight_distribution(C1.base) == weight_distribution(C2.base)


def test_affine_same_parameters_dimension_mismatch():
    C1 = build_constacyclic(5, (1, 4))
    C2 = build_constacyclic(5, (10,))
    assert enumerate_affine_witnesses(C1.defining_set, C2.defining_set,
                                      mode="constacyclic") == []


def test_affine_partner_sets_111():
    # the lane-keeping affine images of the [111,90] code's set that are
    # coset unions: the set itself and at least five partners, all k = 90
    fam = set_family("constacyclic", 111, 4)
    A = fam.expand((19, 37))
    partners = {tuple(sorted((e * a + b) % 333 for a in A))
                for e, b in fam.affine_maps(len(A))}
    partners = {els for els in partners if fam.table.is_union(els)}
    assert tuple(sorted(A)) in partners
    assert len(partners) >= 6
    for els in partners:
        assert build_constacyclic(111, els).k == 90


def test_affine_partner_images_are_affine_consistent():
    fam = set_family("constacyclic", 111, 4)
    size = len(fam.expand((19, 37)))
    maps = list(fam.affine_maps(size))
    assert (1, 0) in maps
    for e, b in maps:
        assert e % 3 == 1 and math.gcd(e, 333) == 1 and b % 3 == 0
        assert size * b % 111 == 0


# ---------------------------------------------------------------------------
# multiplier classification


def test_palfy_n5_orbits():
    orbits = palfy_classify(5)
    got = {o.leader: set(o.members) for o in orbits}
    assert got == {
        (): {()},
        (1, 4): {(1, 4), (7, 13)},
        (10,): {(10,)},
        (1, 4, 10): {(1, 4, 10), (7, 10, 13)},
        (1, 4, 7, 13): {(1, 4, 7, 13)},
        (1, 4, 7, 10, 13): {(1, 4, 7, 10, 13)},
    }


def test_palfy_witnesses_map_leader_to_member():
    m = 15
    for orbit in palfy_classify(5):
        for member, e in orbit.witnesses.items():
            assert e % 3 == 1 and math.gcd(e, m) == 1
            assert tuple(sorted(e * a % m for a in orbit.leader)) == member


@pytest.mark.parametrize("n", [5, 11])
def test_palfy_matches_brute_force(n):
    # gcd(3n, phi(3n)) = 1 at n = 5 and 11: multiplier orbits are exactly
    # the brute-force monomial classes, and at n = 5 permutation
    # equivalence never crosses an orbit boundary
    orbits = palfy_classify(n)
    codes = {els: build_constacyclic(n, els)
             for els in set_family("constacyclic", n, 4).unions()}
    orbit_of = {}
    for idx, o in enumerate(orbits):
        for member in o.members:
            orbit_of[member] = idx
    sets = sorted(codes)
    for i, a in enumerate(sets):
        for b in sets[i + 1:]:
            Ca, Cb = codes[a], codes[b]
            if Ca.k != Cb.k or Ca.k in (0, n):
                continue
            res = brute_force_equivalence(Ca.base, Cb.base, mode="monomial")
            assert res.status in ("equivalent", "not_equivalent")
            assert (res.status == "equivalent") == (orbit_of[a] == orbit_of[b])
            if n == 5:
                perm = brute_force_equivalence(Ca.base, Cb.base,
                                               mode="permutation")
                if perm.status == "equivalent":
                    assert orbit_of[a] == orbit_of[b]


def test_palfy_theorem_at_17():
    # gcd(51, phi(51)) = 1: the multiplier orbits are the equivalence
    # classes.  Every member is the image of its leader under the
    # multiplier map of its witness, and the two dimensions held by two
    # orbits (k = 8 and 9) hold codes with different weight distributions
    fam = set_family("constacyclic", 17, 4)
    orbits = palfy_classify(17)
    codes = {m: build_constacyclic(17, m).base
             for o in orbits for m in o.members}
    assert len(codes) == 32
    for o in orbits:
        for member, e in o.witnesses.items():
            M = multiplier_transform(fam, e)
            assert apply_monomial(codes[o.leader], M) == codes[member]
    by_k = {}
    for o in orbits:
        by_k.setdefault(codes[o.leader].k, []).append(o.leader)
    shared = {k: leaders for k, leaders in by_k.items() if len(leaders) > 1}
    assert sorted(shared) == [8, 9]
    for a, b in shared.values():
        res = brute_force_equivalence(codes[a], codes[b])
        assert (res.status, res.reason) == ("not_equivalent",
                                            "weight distributions differ")


def test_palfy_theorem_at_41():
    # gcd(123, phi(123)) = 1, and two multiplier orbits share each of the
    # dimensions k = 20 and 21.  Their codes have 4^20 codewords or more,
    # past the equivalence search's cap, but the enumeration certifies
    # distances that differ: 12 against 10 at k = 20, 11 against 9 at 21
    by_k = {}
    for o in palfy_classify(41):
        C = build_constacyclic(41, o.leader).base
        by_k.setdefault(C.k, []).append(C)
    shared = {k: codes for k, codes in by_k.items() if len(codes) > 1}
    assert sorted(shared) == [20, 21]
    for k, want in ((20, [12, 10]), (21, [11, 9])):
        got = [min_distance(C, strategy="exhaustive") for C in shared[k]]
        assert sorted((r.lb for r in got), reverse=True) == want
        for C, r in zip(shared[k], got):
            assert r.complete and C.contains(r.witness)
            assert sum(1 for x in r.witness if x) == r.ub


def test_brute_force_n11_pair():
    # the [11,6] pair with leaders 1 and 7 shares a multiplier orbit; its
    # permutation search has 332,640 leaves, none a hit
    fam = set_family("constacyclic", 11, 4)
    C1 = build_constacyclic(11, fam.expand((1,))).base
    C2 = build_constacyclic(11, fam.expand((7,))).base
    assert (C1.k, C2.k) == (6, 6)
    res = brute_force_equivalence(C1, C2, mode="monomial")
    assert res.status == "equivalent"
    assert apply_monomial(C1, res.witness) == C2
    res = brute_force_equivalence(C1, C2, mode="permutation", budget=5000)
    assert res.status == "unknown" and res.reason == "search budget exhausted"


def test_multiplier_orbit_pair_needs_scale_factors():
    # {1,4} and {7,13} share an orbit and are monomially equivalent, yet
    # no scale-free coordinate permutation links them: the substitution
    # witness genuinely uses its cube-root diagonal
    C1 = build_constacyclic(5, (1, 4))
    C2 = build_constacyclic(5, (7, 13))
    assert brute_force_equivalence(
        C1.base, C2.base, mode="monomial").status == "equivalent"
    assert brute_force_equivalence(
        C1.base, C2.base, mode="permutation").status == "not_equivalent"
    T = multiplier_transform(set_family("constacyclic", 5, 4), 13)
    assert not T.is_permutation()
    assert apply_monomial(C1.base, T) == C2.base


def test_palfy_n11_weight_distribution_grouping():
    orbits = palfy_classify(11)
    assert len(orbits) == 6
    for o in orbits:
        if not (1 <= len(o.leader) <= 6):
            continue
        wds = {weight_distribution(build_constacyclic(11, els).base).counts
               for els in o.members}
        assert len(wds) == 1, o.leader


def test_palfy_n1_trivial():
    orbits = palfy_classify(1)
    assert [o.leader for o in orbits] == [(), (1,)]


def test_palfy_precondition():
    with pytest.raises(ValueError):
        palfy_classify(7)  # gcd(21, phi(21)) = 3


# ---------------------------------------------------------------------------
# the cyclic container


def test_embed_as_cyclic_dimensions():
    # the same elements cut out a cyclic code of length 3n
    C = build_constacyclic(5, (1, 4))
    Y = build_cyclic(15, 4, C.defining_set)
    assert (Y.n, Y.k) == (15, 13)
    assert Y.defining_set == C.defining_set
    assert Y.k == 3 * C.n - len(C.defining_set.elements)
    assert C.k == C.n - len(C.defining_set.elements)


def test_embed_parity_rows_have_block_structure():
    # row at exponent a over t = 0..3n-1 splits as [H1 | w H1 | w^2 H1]
    C = build_constacyclic(5, (1, 4))
    ctx = C.root
    w_img = ctx.fwd[GF4_OMEGA]
    w2_img = ctx.fwd[GF4_OMEGA2]
    n = C.n
    for a in C.defining_set.elements:
        row = [ctx.alpha_pow(a * t) for t in range(3 * n)]
        for i in range(n):
            assert row[n + i] == ctx.ext.mul(w_img, row[i])
            assert row[2 * n + i] == ctx.ext.mul(w2_img, row[i])


def test_embed_n1():
    C = build_constacyclic(1, (1,))
    Y = build_cyclic(3, 4, C.defining_set)
    assert (C.k, Y.n, Y.k) == (0, 3, 2)
