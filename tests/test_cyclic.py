import math

import numpy as np
import pytest

from codeq import cyclic
from codeq.constacyclic import build_code, build_constacyclic
from codeq.cosets import (
    DefiningSet,
    all_defining_sets,
    apply_map,
    coset_table,
    enumerate_affine_witnesses,
    generalized_multiplier,
    multiplier,
    set_family,
)
from codeq.cyclic import (
    CYCLIC_KINDS,
    SET_TRANSFORMS,
    CyclicCode,
    build_cyclic,
    block_half_twist_transform,
    canonical_root,
    certify_equivalence,
    dual_defining_set,
    half_twist_pair,
    half_twist_transform,
    odd_step_pair,
    odd_step_transform,
    triple_step_pair,
    triple_step_transform,
)
from codeq.fields import (
    GF4_OMEGA,
    GF4_OMEGA2,
    build_field,
    gf4,
    poly_divmod,
    poly_mul,
    prime_power_split,
    splitting_field,
)
from codeq.linear import (
    LinearCode,
    apply_monomial,
    brute_force_equivalence,
    weight_distribution,
)
from codeq.search import classify_cyclic


def leaders_set(n, q, leaders):
    return DefiningSet.from_leaders(n, q, leaders)


# ---------------------------------------------------------------------------
# construction


def test_build_empty_and_full():
    C = build_cyclic(8, 3, DefiningSet(8, 3, ()))
    assert C.k == 8 and C.generator_poly == (1,)
    Z = build_cyclic(8, 3, DefiningSet(8, 3, tuple(range(8))))
    assert Z.k == 0
    # x^8 - 1 over GF(3) is x^8 + 2
    assert Z.generator_poly == (2, 0, 0, 0, 0, 0, 0, 0, 1)


def test_build_51_40():
    C = build_cyclic(51, 4, leaders_set(51, 4, (0, 2, 7, 17, 34)))
    assert (C.n, C.k) == (51, 40)
    assert len(C.generator_poly) - 1 == 11


def test_generator_divides_length_polynomial():
    for n, q in ((8, 3), (9, 2), (27, 4), (15, 4)):
        ctx = canonical_root(n, q)
        F = ctx.base
        for els in all_defining_sets(n, q):
            if len(els) in (0, n):
                continue
            C = build_cyclic(n, q, DefiningSet(n, q, els))
            assert C.k == n - len(els)
            xn1 = [F.neg(1)] + [0] * (n - 1) + [1]
            _, rem = poly_divmod(F, xn1, list(C.generator_poly))
            assert rem == [0]
            break  # one nontrivial set per (n, q) keeps this quick


@pytest.mark.parametrize("family,n,q", [
    ("cyclic", 15, 4), ("cyclic", 15, 2), ("cyclic", 21, 4),
    ("constacyclic", 5, 4), ("constacyclic", 7, 4), ("constacyclic", 11, 4)])
def test_coset_polynomials_give_the_per_root_generator(family, n, q):
    # the generator is built as a product of cached coset polynomials over
    # GF(q); the product of the (x - alpha^a) over every root in the
    # extension field, pulled back, is the same polynomial
    fam = set_family(family, n, q)
    ctx = canonical_root(fam.modulus, q)
    K = ctx.ext
    for els in fam.unions():
        g = [1]
        for a in els:
            g = poly_mul(K, g, [K.neg(ctx.alpha_pow(a)), 1])
        C = build_code(fam, els)
        assert C.generator_poly == tuple(ctx.pull_back(c) for c in g)
        assert C.k == n - len(els)


def test_build_rejects_open_set():
    with pytest.raises(ValueError):
        build_cyclic(8, 3, DefiningSet(8, 3, (1,)))  # {1,3} is the coset


def test_equality_and_hash_name_the_family():
    # a length-3n cyclic code on the lane set of a length-n constacyclic
    # code is another code, and is never equal to it
    C = build_constacyclic(5, (1, 4))
    Y = build_cyclic(15, 4, C.defining_set)
    assert Y.defining_set == C.defining_set
    assert Y != C and C != Y and len({C, Y}) == 2
    assert C == build_constacyclic(5, (1, 4))
    assert hash(C) == hash(build_constacyclic(5, (1, 4)))
    assert repr(C).startswith("CyclicCode(constacyclic [5,3]")
    assert repr(Y).startswith("CyclicCode(cyclic [15,13]")


def test_shared_root_is_cached():
    assert canonical_root(51, 4) is canonical_root(51, 4)


def test_root_anchoring_gf4():
    # for GF(4) codes with 3 | n the shared root r satisfies r^(n/3) = omega
    for n in (27, 51, 15):
        ctx = canonical_root(n, 4)
        assert ctx.ext.pow(ctx.alpha, n // 3) == ctx.fwd[GF4_OMEGA]


# ---------------------------------------------------------------------------
# duals


def test_dual_defining_set_matches_linear_dual():
    for n, q in ((8, 3), (9, 2)):
        for els in all_defining_sets(n, q):
            A = DefiningSet(n, q, els)
            C = build_cyclic(n, q, A)
            D = build_cyclic(n, q, dual_defining_set(A))
            assert D.base == C.base.euclidean_dual()


def test_hermitian_dual_defining_set():
    # the lane minus -2A is the Hermitian dual's defining set in both
    # families: 1,058 codes
    families = [set_family("constacyclic", n, 4) for n in (1, 5, 7, 11, 13)]
    families += [set_family("cyclic", n, 4) for n in (15, 21)]
    for fam in families:
        for els in fam.unions():
            C = build_code(fam, els)
            D = C.hermitian_dual()
            assert D.family is fam
            assert D.base == C.base.hermitian_dual(), (fam.family, fam.n, els)
    with pytest.raises(ValueError):
        set_family("cyclic", 8, 3).hermitian_dual((0,))


# ---------------------------------------------------------------------------
# the half-twist family (P_sigma D)


def test_half_twist_action_table_n8():
    F3 = build_field(3, 1)
    M = half_twist_transform(8, F3)
    # standard basis action: s0 -> s0, s1 -> -s1, s2 -> -s6, s3 -> s7
    for i, (j, sign) in {0: (0, 1), 1: (1, 2), 2: (6, 2), 3: (7, 1)}.items():
        assert M.perm[i] == j and M.diagonal[j] == sign


def test_half_twist_squares_to_identity():
    F3 = build_field(3, 1)
    for n in (8, 16, 24):
        M = half_twist_transform(n, F3)
        MM = M.compose(F3, M)
        assert MM.perm == tuple(range(n))
        assert all(d == 1 for d in MM.diagonal)


def test_half_twist_moves_parity_rows():
    # v^b P_sigma D = v^(b + n/2) for odd b, checked in the splitting field
    n = 8
    K = splitting_field(3, n)
    ctx = canonical_root(n, 3)
    M = half_twist_transform(n, build_field(3, 1))
    for b in (1, 3, 5, 7):
        vb = np.array([ctx.alpha_pow(b * i) for i in range(n)], dtype=np.uint8)
        want = np.array([ctx.alpha_pow((b + n // 2) * i) for i in range(n)],
                        dtype=np.uint8)
        got = M.apply_vector(K, vb)
        assert np.array_equal(got, want), b


def test_half_twist_requires_multiple_of_8_and_odd_char():
    with pytest.raises(ValueError):
        half_twist_transform(12, build_field(3, 1))
    with pytest.raises(ValueError):
        half_twist_transform(8, gf4())


def test_half_twist_pair_counterexample_sets():
    C1, C2, cert = half_twist_pair(8, 3, (5, 7))
    assert cert.source == (2, 5, 6, 7)
    assert cert.target == (0, 1, 3, 4)
    assert cert.verified and cert.transform is not None


def test_half_twist_pair_empty_core():
    C1, C2, cert = half_twist_pair(8, 3, ())
    assert cert.source == (2, 6)
    assert cert.target == (0, 4)
    assert cert.verified


def test_half_twist_pair_n40():
    A = leaders_set(40, 3, (1,))
    assert A.elements == (1, 3, 9, 27)
    C1, C2, cert = half_twist_pair(40, 3, A)
    assert cert.verified


def test_half_twist_pair_rejects_even_elements():
    with pytest.raises(ValueError):
        half_twist_pair(8, 3, (2, 6))


def half_twist_sweep_cases():
    for n, q in ((8, 3), (8, 7), (8, 11), (16, 3), (16, 7), (16, 11),
                 (24, 7), (24, 11)):
        table = coset_table(n, q)
        odd_cosets = [c for c in table.cosets if all(x % 2 for x in c)]
        for mask in range(1 << len(odd_cosets)):
            els = []
            for i, c in enumerate(odd_cosets):
                if mask >> i & 1:
                    els.extend(c)
            yield n, q, tuple(sorted(els))


def test_half_twist_theorem_sweep():
    count = 0
    for n, q, els in half_twist_sweep_cases():
        _, _, cert = half_twist_pair(n, q, DefiningSet(n, q, els))
        assert cert.verified
        count += 1
    assert count >= 150


# ---------------------------------------------------------------------------
# the odd-step family (P_gamma)


def test_odd_step_action():
    M = odd_step_transform(8)
    assert M.perm == (0, 7, 2, 1, 4, 3, 6, 5)
    assert M.is_permutation()


def test_odd_step_fixes_all_ones_row():
    K = splitting_field(5, 8)
    ctx = canonical_root(8, 5)
    M = odd_step_transform(8)
    v0 = np.ones(8, dtype=np.uint8)
    assert np.array_equal(M.apply_vector(K, v0), v0)
    # v^(n/4) P_gamma = v^(3n/4)
    v2 = np.array([ctx.alpha_pow(2 * i) for i in range(8)], dtype=np.uint8)
    v6 = np.array([ctx.alpha_pow(6 * i) for i in range(8)], dtype=np.uint8)
    assert np.array_equal(M.apply_vector(K, v2), v6)


def test_odd_step_pair_example():
    C1, C2, cert = odd_step_pair(8, 5, (0, 1, 5))
    assert cert.source == (0, 1, 2, 5)
    assert cert.target == (0, 1, 5, 6)
    assert cert.verified


def test_odd_step_pair_minimal_core():
    _, _, cert = odd_step_pair(8, 5, (0,))
    assert cert.source == (0, 2) and cert.target == (0, 6)
    assert cert.verified


def test_odd_step_pair_n16():
    # {0} plus the full coset of 1 (the bare {1,9} is not closed under 5)
    A = leaders_set(16, 5, (0, 1))
    assert A.elements == (0, 1, 5, 9, 13)
    _, _, cert = odd_step_pair(16, 5, A)
    assert cert.verified


def test_odd_step_pair_rejects_bad_cores():
    with pytest.raises(ValueError):
        odd_step_pair(8, 5, (1,))  # not symmetric under +n/2
    with pytest.raises(ValueError):
        odd_step_pair(8, 5, (2, 6))  # quarter points may not appear


def odd_step_sweep_cases():
    for n, q in ((8, 5), (8, 13), (16, 5), (16, 13)):
        half, quarter = n // 2, n // 4
        for els in all_defining_sets(n, q):
            S = set(els)
            if quarter in S or 3 * quarter in S:
                continue
            if not all(a in (0, half) or (a + half) % n in S for a in S):
                continue
            yield n, q, els


def test_odd_step_theorem_sweep():
    count = 0
    for n, q, els in odd_step_sweep_cases():
        _, _, cert = odd_step_pair(n, q, DefiningSet(n, q, els))
        assert cert.verified
        count += 1
    assert count >= 40


# ---------------------------------------------------------------------------
# the triple-step family (P_chi)


def test_triple_step_shape():
    M = triple_step_transform(27)
    perm = M.perm
    assert perm[0] == 3 and perm[3] == 0
    for i in range(27):
        assert perm[perm[i]] == i  # involution
        if i % 9 in (1, 2, 6):
            assert perm[i] == i


def test_triple_step_parity_row_identity():
    # u = sum of the three parity rows for Z(n/9) has entries in GF(4):
    # 1, w, w^2 at j = 0, 3, 6 mod 9; u P_chi = w * x with x the Z(2n/9) sum
    n = 27
    F = gf4()
    w, w2 = GF4_OMEGA, GF4_OMEGA2
    u = np.zeros(n, dtype=np.uint8)
    x = np.zeros(n, dtype=np.uint8)
    for j in range(0, n, 3):
        u[j] = (1, w, w2)[(j % 9) // 3]
        x[j] = (1, w2, w)[(j % 9) // 3]
    M = triple_step_transform(n)
    got = M.apply_vector(F, u)
    want = np.array([F.mul(w, int(c)) for c in x], dtype=np.uint8)
    assert np.array_equal(got, want)
    # v^a P_chi = v^a for a in {0, n/3, 2n/3}: entries w^(aj * 3/n)
    for a in (0, n // 3, 2 * n // 3):
        va = np.array([F.pow(w, a * j * 3 // n) for j in range(n)],
                      dtype=np.uint8)
        assert np.array_equal(M.apply_vector(F, va), va)


def test_triple_step_bare_pair():
    C1, C2, cert = triple_step_pair(27, (), ())
    assert cert.source == (3, 12, 21)
    assert cert.target == (6, 15, 24)
    assert cert.verified


def test_triple_step_listed_pairs():
    z = coset_table(27, 4)
    z0, z1, z2 = z.coset_of(0), z.coset_of(1), z.coset_of(2)
    z9, z18 = z.coset_of(9), z.coset_of(18)
    cases = [
        ((0,), (1,), set(z0) | set(z1)),
        ((0,), (2,), set(z0) | set(z2)),
        ((0, 9), (1,), set(z0) | set(z1) | set(z9)),
        ((0, 9, 18), (1,), set(z0) | set(z1) | set(z9) | set(z18)),
    ]
    for thirds, e_list, extras in cases:
        C1, C2, cert = triple_step_pair(27, thirds, e_list)
        assert set(cert.source) == extras | set(z.coset_of(3))
        assert set(cert.target) == extras | set(z.coset_of(6))
        assert cert.verified


def test_triple_step_sweep_all_corners_and_progressions():
    seen = set()
    for bmask in range(8):
        thirds = tuple(b for i, b in enumerate((0, 9, 18)) if bmask >> i & 1)
        for emask in range(8):
            e_list = tuple(e for i, e in enumerate((1, 2, 3)) if emask >> i & 1)
            key = (thirds, e_list)
            C1, C2, cert = triple_step_pair(27, thirds, e_list)
            if len(cert.source) >= 27:
                continue
            assert cert.verified
            seen.add((cert.source, cert.target))
    assert len(seen) >= 20


def test_listed_pairs_not_affine_or_multiplier():
    # these triple-step pairs have no affine or multiplier route at all
    C1, C2, cert = triple_step_pair(27, (0,), (1,))
    A1 = DefiningSet(27, 4, cert.source)
    A2 = DefiningSet(27, 4, cert.target)
    assert enumerate_affine_witnesses(A1, A2, mode="cyclic") == []
    for c in range(1, 27):
        if np.gcd(c, 27) == 1:
            assert apply_map(multiplier(27, c), A1) != A2.elements


# ---------------------------------------------------------------------------
# certificates


def test_certify_identity():
    # n = 1 has the single residue 0 = 1, which is still the identity map
    for A in (DefiningSet(8, 3, (0, 1, 3)), DefiningSet(1, 2, (0,))):
        C = build_cyclic(A.n, A.q, A)
        certs = certify_equivalence(C, C)
        assert certs and certs[0].kind == "multiplier"
        assert certs[0].params == (1,) and certs[0].verified
        assert certs[0].note == "identity multiplier"
        assert enumerate_affine_witnesses(A, A)


def test_multiplier_certificate_and_codeword_sets():
    C1 = build_cyclic(8, 3, DefiningSet(8, 3, (1, 3)))
    C2 = build_cyclic(8, 3, DefiningSet(8, 3, (5, 7)))
    certs = certify_equivalence(C1, C2)
    mult = [c for c in certs if c.kind == "multiplier"]
    assert mult and mult[0].verified
    # the induced permutation maps codeword sets onto each other
    M = mult[0].transform
    words1 = {bytes(M.apply_vector(C1.base.field, w)) for w in C1.base.codewords()}
    words2 = {bytes(w) for w in C2.base.codewords()}
    assert words1 == words2


def test_certify_sigma_pair_without_affine():
    C1 = build_cyclic(8, 3, DefiningSet(8, 3, (0, 1, 3, 4)))
    C2 = build_cyclic(8, 3, DefiningSet(8, 3, (2, 5, 6, 7)))
    assert apply_monomial(C1.base, half_twist_transform(8, C1.base.field)) == C2.base
    certs = certify_equivalence(C1, C2)
    kinds = {c.kind for c in certs}
    assert "half_twist" in kinds
    assert "affine" not in kinds and "shift" not in kinds
    assert enumerate_affine_witnesses(C1.defining_set, C2.defining_set) == []


def test_certify_refuses_constacyclic_codes():
    # constacyclic sets live mod 3n, where the cyclic maps do not apply
    C1 = build_constacyclic(5, (1, 4))
    C2 = build_constacyclic(5, (7, 13))
    Y = build_cyclic(15, 4, C1.defining_set)
    for a, b in ((C1, C2), (C1, Y), (Y, C1)):
        with pytest.raises(ValueError, match="cyclic codes"):
            certify_equivalence(a, b)


def test_certify_dimension_mismatch_empty():
    C1 = build_cyclic(8, 3, DefiningSet(8, 3, (0,)))
    C2 = build_cyclic(8, 3, DefiningSet(8, 3, (0, 4)))
    assert certify_equivalence(C1, C2) == []


def test_shift_certificate_on_isodual_chain():
    # dual of {0,1,3,4} is {1,2,3,6}; shifting by 4 gives {2,5,6,7}; the
    # half twist carries that back to {0,1,3,4}
    C = build_cyclic(8, 3, DefiningSet(8, 3, (0, 1, 3, 4)))
    D = build_cyclic(8, 3, dual_defining_set(C.defining_set))
    assert D.defining_set.elements == (1, 2, 3, 6)
    mid = build_cyclic(8, 3, DefiningSet(8, 3, (2, 5, 6, 7)))
    leg1 = [c for c in certify_equivalence(D, mid)
            if c.kind == "shift"]
    assert leg1 and leg1[0].params == (1, 4) and leg1[0].verified
    leg2 = [c for c in certify_equivalence(mid, C)
            if c.kind == "half_twist"]
    assert leg2 and leg2[0].verified
    # and the one-call route finds a two-step composition
    chain = certify_equivalence(D, C)
    assert any(c.kind == "composition" and c.verified for c in chain)


def test_generalized_multiplier_certificate():
    # at n = 9 over GF(4): {1,3,4,7} maps to {2,3,5,8} under the low-digit
    # doubling map, and no plain multiplier works
    A1 = DefiningSet(9, 4, (1, 3, 4, 7))
    A2 = DefiningSet(9, 4, (2, 3, 5, 8))
    for c in (1, 2, 4, 5, 7, 8):
        assert apply_map(multiplier(9, c), A1) != A2.elements
    assert apply_map(generalized_multiplier(9, 2, 1), A1) == A2.elements
    C1 = build_cyclic(9, 4, A1)
    C2 = build_cyclic(9, 4, A2)
    certs = certify_equivalence(C1, C2)
    gm = [c for c in certs if c.kind == "generalized_multiplier"]
    assert gm and gm[0].verified  # upgraded by explicit permutation search
    res = brute_force_equivalence(C1.base, C2.base, mode="permutation")
    assert res.status == "equivalent"


def test_generalized_multipliers_share_one_permutation_search(monkeypatch):
    # the upgrade search reads neither the map nor its parameters: the
    # three matching generalized multipliers of the n = 9 pair share one
    searches = []
    search = cyclic.brute_force_equivalence

    def spy(code1, code2, **kwargs):
        searches.append(kwargs.get("mode"))
        return search(code1, code2, **kwargs)

    monkeypatch.setattr(cyclic, "brute_force_equivalence", spy)
    C1 = build_cyclic(9, 4, DefiningSet(9, 4, (1, 3, 4, 7)))
    C2 = build_cyclic(9, 4, DefiningSet(9, 4, (2, 3, 5, 8)))
    certs = certify_equivalence(C1, C2)
    gm = [c for c in certs if c.kind == "generalized_multiplier"]
    assert searches == ["permutation"]
    assert len({c.params for c in gm}) == len(gm) == 3
    for c in gm:
        assert c.verified
        assert apply_monomial(C1.base, c.transform) == C2.base


def test_generalized_multiplier_fixes_z1_at_9_2():
    A = DefiningSet.from_leaders(9, 2, (1,))
    assert apply_map(generalized_multiplier(9, 2, 1), A) == A.elements


def test_certificate_completeness_n8_gf3():
    # every brute-force monomially equivalent pair is certified by the
    # structured families alone (never by the brute-force fallback), and
    # every certificate corresponds to a genuinely equivalent pair
    codes = [build_cyclic(8, 3, DefiningSet(8, 3, els))
             for els in all_defining_sets(8, 3)]
    equivalent = 0
    for i, C1 in enumerate(codes):
        for C2 in codes[i + 1:]:
            if C1.k != C2.k or C1.k in (0, 8):
                continue
            bf = brute_force_equivalence(C1.base, C2.base)
            certs = certify_equivalence(C1, C2)
            assert (bf.status == "equivalent") == bool(certs), (
                C1.defining_set.elements, C2.defining_set.elements)
            assert all(c.kind != "explicit" for c in certs), (
                C1.defining_set.elements, C2.defining_set.elements)
            if certs:
                equivalent += 1
    assert equivalent == 27


def test_certificates_at_9_2_multiplier_scope():
    # all eight codes have distinct dimensions, so permutation equivalence
    # is only the identity; the multiplier machinery still certifies it
    codes = [build_cyclic(9, 2, DefiningSet(9, 2, els))
             for els in all_defining_sets(9, 2)]
    dims = [C.k for C in codes]
    assert len(set(dims)) == len(dims)
    for C in codes:
        certs = certify_equivalence(C, C)
        assert certs and certs[0].kind == "multiplier"


def test_certify_empty_matches_brute_force_inequivalent():
    C1 = build_cyclic(8, 3, DefiningSet(8, 3, (1, 3)))
    C2 = build_cyclic(8, 3, DefiningSet(8, 3, (0, 4)))
    assert certify_equivalence(C1, C2) == []
    assert brute_force_equivalence(C1.base, C2.base).status == "not_equivalent"


def test_certificate_serialization():
    _, _, cert = half_twist_pair(8, 3, (5, 7))
    d = cert.to_dict()
    assert d["kind"] == "half_twist" and d["verified"] is True
    assert d["source"] == [2, 5, 6, 7] and d["target"] == [0, 1, 3, 4]


# ---------------------------------------------------------------------------
# block-diagonal layout exploration


def test_block_half_twist_certifies_a_pair_at_16():
    # the repeated 8-block layout: find cyclic pairs it certifies at
    # (16, 3) and flag whether any of them lack an affine route
    F = build_field(3, 1)
    B = block_half_twist_transform(16, F)
    by_gen = {}
    codes = []
    for els in all_defining_sets(16, 3):
        C = build_cyclic(16, 3, DefiningSet(16, 3, els))
        by_gen[(C.k, C.base.generator.tobytes())] = C
        codes.append(C)
    pairs = []
    for C in codes:
        img = apply_monomial(C.base, B)
        hit = by_gen.get((img.k, img.generator.tobytes()))
        if hit is not None and hit.defining_set.elements != C.defining_set.elements:
            pairs.append((C, hit))
    assert pairs, "block layout certified nothing at n=16"
    hard = [
        (C, D) for C, D in pairs
        if not enumerate_affine_witnesses(C.defining_set, D.defining_set)
    ]
    assert hard, "every block-certified pair was already affine equivalent"


def test_block_half_twist_differs_from_native():
    F = build_field(3, 1)
    assert block_half_twist_transform(16, F).perm != \
        half_twist_transform(16, F).perm


# ---------------------------------------------------------------------------
# classification


def test_classify_cyclic_8_3():
    classes = classify_cyclic(8, 3)
    flat = [s for cls in classes for s in cls]
    assert len(flat) == 32  # conservation
    lookup = {}
    for idx, cls in enumerate(classes):
        for s in cls:
            lookup[s] = idx
    assert lookup[(0, 1, 3, 4)] == lookup[(2, 5, 6, 7)]
    # intra-class weight distributions agree
    for cls in classes:
        wds = set()
        for s in cls:
            C = build_cyclic(8, 3, DefiningSet(8, 3, s))
            wds.add(weight_distribution(C.base).counts)
        assert len(wds) == 1, cls


def test_classify_matches_brute_force_at_8_3():
    classes = classify_cyclic(8, 3)
    lookup = {}
    for idx, cls in enumerate(classes):
        for s in cls:
            lookup[s] = idx
    codes = [build_cyclic(8, 3, DefiningSet(8, 3, els))
             for els in all_defining_sets(8, 3)]
    for i, C1 in enumerate(codes):
        for C2 in codes[i + 1:]:
            if C1.k != C2.k or C1.k in (0, 8):
                continue
            same = lookup[C1.defining_set.elements] == lookup[
                C2.defining_set.elements]
            bf = brute_force_equivalence(C1.base, C2.base)
            assert same == (bf.status == "equivalent")


def test_classify_cyclic_9_2():
    classes = classify_cyclic(9, 2)
    # eight sets, all of different sizes: every class is a singleton
    assert len(classes) == 8


# ---------------------------------------------------------------------------
# the table of set transforms


def _reference_search_rule(n, q, kind):
    # reference copy of the orbit search's rule conditions
    if kind == "half_twist":
        return n % 8 == 0 and q % 2 == 1
    if kind == "odd_step":
        return n % 8 == 0 and q % 4 == 1
    return q == 4 and n % 2 == 1 and n % 27 == 0


def _reference_matrices(n, q):
    # reference copy of certify_equivalence's matrix conditions
    p = prime_power_split(q)[0]
    kinds = []
    if n % 8 == 0:
        if p != 2:
            kinds.append("half_twist")
            if n > 8:
                kinds.append("block_half_twist")
        kinds.append("odd_step")
    if n % 27 == 0 and n % 2 and q == 4:
        kinds.append("triple_step")
    return kinds


def _reference_pool(n, q):
    # reference copy of certify_equivalence's partner-pool conditions
    p = prime_power_split(q)[0]
    kinds = []
    if n % 8 == 0 and p != 2:
        kinds.append("half_twist")
    if n % 8 == 0 and q % 4 == 1:
        kinds.append("odd_step")
    if n % 27 == 0 and n % 2 and q == 4:
        kinds.append("triple_step")
    return kinds


def test_set_transform_conditions_match_reference():
    assert list(SET_TRANSFORMS) == ["half_twist", "block_half_twist",
                                    "odd_step", "triple_step"]
    assert CYCLIC_KINDS == ("multiplier", "affine", "half_twist", "odd_step",
                            "triple_step", "generalized_multiplier")
    checked = 0
    for n in range(1, 65):
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27):
            if math.gcd(n, q) != 1:
                continue
            matrices = [k for k, t in SET_TRANSFORMS.items()
                        if t.matrix_at(n, q)]
            rules = [k for k, t in SET_TRANSFORMS.items()
                     if t.rule_at(n, q)]
            assert matrices == _reference_matrices(n, q), (n, q)
            assert rules == _reference_pool(n, q), (n, q)
            assert rules == [k for k in ("half_twist", "odd_step",
                                         "triple_step")
                             if _reference_search_rule(n, q, k)], (n, q)
            checked += 1
    assert checked > 400


def test_set_rules_are_involutions():
    # the orbit search inverts a rule step by applying it again
    for n, q in ((8, 3), (16, 5), (27, 4)):
        rules = [t for t in SET_TRANSFORMS.values() if t.rule_at(n, q)]
        hits = {t.kind: 0 for t in rules}
        for els in all_defining_sets(n, q):
            T = frozenset(els)
            for t in rules:
                P = t.partner(T, n, q)
                if P is not None:
                    assert t.partner(P, n, q) == T, (n, q, t.kind, els)
                    hits[t.kind] += 1
        assert hits and all(hits.values()), (n, q, hits)


def test_odd_step_map_certifies_where_no_rule_at():
    # at q = 3 (mod 4) the odd-step set rule is unproved, yet the map
    # applied twice carries one of these codes onto the other
    assert SET_TRANSFORMS["odd_step"].matrix_at(16, 3)
    assert not SET_TRANSFORMS["odd_step"].rule_at(16, 3)
    C1 = build_cyclic(16, 3, DefiningSet(16, 3, (0, 1, 2, 3, 6, 9, 11)))
    C2 = build_cyclic(16, 3, DefiningSet(16, 3, (0, 1, 3, 9, 10, 11, 14)))
    certs = certify_equivalence(C1, C2)
    assert [(c.kind, c.params, c.verified) for c in certs] == [
        ("composition", ("odd_step", "odd_step"), True)]


def test_certificate_intermediates_are_built_once(monkeypatch):
    # an intermediate code depends only on (n, q) and its defining set, so
    # certifying the same pair again builds none
    C1 = build_cyclic(16, 3, DefiningSet(16, 3, (0, 1, 2, 3, 6, 9, 11)))
    C2 = build_cyclic(16, 3, DefiningSet(16, 3, (0, 1, 3, 9, 10, 11, 14)))
    built = []
    build = cyclic.build_cyclic

    def counting(n, q, A):
        built.append(A.elements)
        return build(n, q, A)

    monkeypatch.setattr(cyclic, "build_cyclic", counting)
    cyclic._intermediate.cache_clear()
    first = certify_equivalence(C1, C2)
    assert built and len(set(built)) == len(built)
    built.clear()
    assert certify_equivalence(C1, C2) == first
    assert built == []


def test_pair_constructors_check_the_rule_condition():
    with pytest.raises(ValueError, match="8 \\| n and odd characteristic"):
        half_twist_pair(12, 5, ())
    with pytest.raises(ValueError, match="q = 1 \\(mod 4\\)"):
        odd_step_pair(8, 3, (0,))
    with pytest.raises(ValueError, match="odd multiple of 27"):
        triple_step_pair(54, (), ())
