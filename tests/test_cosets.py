"""Coset tables, defining sets, index maps, and the shift-divisibility laws."""

import math

import pytest

from codeq.constacyclic import build_code
from codeq.cosets import (
    CosetTable,
    DefiningSet,
    affine_map,
    all_defining_sets,
    apply_map,
    coset_table,
    enumerate_affine_witnesses,
    generalized_multiplier,
    multiplier,
    progression_set,
    set_family,
    shift_divisibility_constacyclic,
    shift_map,
    units,
)
from codeq.linear import min_distance


def test_coset_table_8_3():
    t = coset_table(8, 3)
    assert t.cosets == ((0,), (1, 3), (2, 6), (4,), (5, 7))
    assert t.leaders == (0, 1, 2, 4, 5)
    assert t.coset_of(7) == (5, 7)
    assert t.leader_of(6) == 2


def test_coset_table_27_4():
    t = coset_table(27, 4)
    assert t.coset_of(1) == tuple(range(1, 27, 3))
    assert t.leader_of(25) == 1


def test_coset_table_singletons_when_q_is_1_mod_n():
    t = coset_table(6, 7)
    assert t.cosets == tuple((i,) for i in range(6))


def test_coset_table_rejects_shared_factor():
    with pytest.raises(ValueError):
        coset_table(9, 3)


@pytest.mark.parametrize("n,q", [(8, 3), (27, 4), (51, 4), (15, 2), (30, 7)])
def test_partition_property(n, q):
    t = coset_table(n, q)
    seen = [x for c in t.cosets for x in c]
    assert sorted(seen) == list(range(n))
    assert len(seen) == n
    for c in t.cosets:
        assert min(c) == t.leaders[t.index[c[0]]]
        assert {(x * q) % n for x in c} == set(c)


def test_defining_set_rejects_partial_coset():
    with pytest.raises(ValueError, match="not closed"):
        DefiningSet(8, 3, (1,))
    with pytest.raises(ValueError):
        DefiningSet(8, 3, (0, 2))


def test_defining_set_accepts_unions():
    s = DefiningSet(8, 3, (1, 3, 4))
    assert s.elements == (1, 3, 4)
    assert s.leaders() == (1, 4)
    assert len(s) == 3 and 3 in s and 2 not in s


def test_defining_set_range_check():
    with pytest.raises(ValueError, match="out of range"):
        DefiningSet(8, 3, (1, 3, 8))


def test_defining_set_parse_roundtrip():
    fam = set_family("cyclic", 51, 4)
    s = fam.parse("0,2,7,17,34")
    assert s.leaders() == (0, 2, 7, 17, 34)
    assert len(s) == 11
    full = set_family("cyclic", 8, 3).parse("full:1,3")
    assert full.elements == (1, 3)
    assert set_family("cyclic", 8, 3).parse("") == DefiningSet(8, 3, ())


def test_union_intersection():
    a = DefiningSet(8, 3, (1, 3, 4))
    b = DefiningSet(8, 3, (0, 4))
    assert a.union(b).elements == (0, 1, 3, 4)
    assert a.intersection(b).elements == (4,)
    with pytest.raises(ValueError, match="different contexts"):
        a.union(DefiningSet(8, 5, (0,)))


def test_shift_map_example():
    # shifting the set {1,2,3,6} by 4 lands on {2,5,6,7}
    assert apply_map(shift_map(8, 4), (1, 2, 3, 6)) == (2, 5, 6, 7)


def test_identity_multiplier():
    s = DefiningSet(8, 3, (1, 3, 4))
    assert apply_map(multiplier(8, 1), s) == s.elements


def test_generalized_multiplier_formula():
    # n = 9 = 3^2, cut k=1, factor d=2: x = i + 3j goes to (2i mod 3) + 3j
    g = generalized_multiplier(9, 2, 1)
    image = apply_map(g, (1, 3, 4))
    oracle = tuple(sorted((x % 3 * 2) % 3 + (x // 3) * 3 for x in (1, 3, 4)))
    assert image == oracle == (2, 3, 5)


def test_generalized_multiplier_validation():
    with pytest.raises(ValueError):
        generalized_multiplier(8, 3, 1)      # modulus not an odd prime power
    with pytest.raises(ValueError):
        generalized_multiplier(9, 3, 1)      # factor shares the prime
    with pytest.raises(ValueError):
        generalized_multiplier(9, 2, 3)      # cut beyond the digit count


def test_index_maps_are_bijections():
    maps = [multiplier(24, 7), shift_map(24, 5), affine_map(24, 11, 9),
            generalized_multiplier(27, 5, 2)]
    for f in maps:
        n = f.modulus
        image = {f(x) for x in range(n)}
        assert image == set(range(n))
        inv = f.inverse()
        assert all(inv(f(x)) == x for x in range(n))


def test_apply_map_modulus_mismatch():
    with pytest.raises(ValueError, match="modulus"):
        apply_map(shift_map(9, 1), DefiningSet(8, 3, (1, 3)))


def test_shift_divisibility_cyclic():
    fam = set_family("cyclic", 8, 3)
    assert fam.admits_shift(4, 4)        # 8 | 4*2*4
    assert fam.admits_shift(3, 0)        # b = 0 always passes
    assert not fam.admits_shift(3, 1)    # 8 does not divide 6


def test_shift_divisibility_constacyclic():
    assert shift_divisibility_constacyclic(111, 21, 333)
    assert not shift_divisibility_constacyclic(111, 21, 112)   # 3 does not divide
    assert shift_divisibility_constacyclic(5, 4, 15)           # n | b and 3 | b


def test_progression_set_length_27():
    assert progression_set(27, 1).elements == tuple(range(1, 27, 3))
    assert progression_set(27, 2).elements == tuple(range(2, 27, 3))
    t = coset_table(27, 4)
    assert progression_set(27, 1).elements == t.coset_of(1)


def test_progression_set_validation():
    with pytest.raises(ValueError, match="odd"):
        progression_set(54, 1)
    with pytest.raises(ValueError, match="27"):
        progression_set(9, 1)
    with pytest.raises(ValueError):
        progression_set(27, 0)


@pytest.mark.parametrize("n", [27, 135, 189])
def test_progression_sets_are_coset_closed(n):
    # the DefiningSet constructor re-validates closure for every index
    for e in range(1, n):
        s = progression_set(n, e)
        assert len(s) == 3 ** ({27: 2, 135: 2, 189: 2}[n])


def test_affine_witnesses_counter_example():
    A = DefiningSet(8, 3, (0, 1, 3, 4))
    B = DefiningSet(8, 3, (2, 5, 6, 7))
    assert enumerate_affine_witnesses(A, B) == []


def test_affine_witnesses_identity():
    A = DefiningSet(8, 3, (1, 3, 4))
    ws = enumerate_affine_witnesses(A, A)
    assert ws and ws[0].params == (1, 0)


def test_affine_witnesses_shift_by_4():
    A = DefiningSet(8, 3, (1, 3))
    B = DefiningSet(8, 3, (5, 7))
    ws = enumerate_affine_witnesses(A, B)
    assert any(w.params == (1, 4) for w in ws)
    for w in ws:
        e, b = w.params
        assert len(A) * 2 * b % 8 == 0
        assert apply_map(w, A) == B.elements


def test_all_defining_sets_count():
    sets = list(all_defining_sets(8, 3))
    assert len(sets) == 32
    table = coset_table(8, 3)
    assert all(table.is_union(s) for s in sets if s)
    assert len(set(sets)) == 32


def _coset_masks(n, q):
    table = coset_table(n, q)
    masks = []
    for c in table.cosets:
        m = 0
        for x in c:
            m |= 1 << x
        masks.append(m)
    return masks


def test_shift_necessity_exhaustive():
    """If a shifted coset union is again a coset union, n | |A|*b*(q-1)."""
    for q in (2, 3, 4, 5):
        for n in range(1, 31):
            if math.gcd(n, q) != 1:
                continue
            masks = _coset_masks(n, q)
            unions = set()
            for sel in range(1 << len(masks)):
                m = 0
                for i, cm in enumerate(masks):
                    if sel >> i & 1:
                        m |= cm
                unions.add(m)
            wrap = (1 << n) - 1
            for m in unions:
                size = m.bit_count()
                for b in range(1, n):
                    rot = ((m << b) | (m >> (n - b))) & wrap
                    if rot in unions:
                        assert size * b * (q - 1) % n == 0, (n, q, m, b)


def test_shift_necessity_constacyclic_small():
    """Shifts between length-3n defining sets in the 1 mod 3 class force
    3 | b and n | b*|A|."""
    for n in (3, 5, 9, 15):
        N = 3 * n
        table = coset_table(N, 4)
        lane = [c for c in table.cosets if c[0] % 3 == 1]
        assert all(all(x % 3 == 1 for x in c) for c in lane)
        sets = []
        for sel in range(1, 1 << len(lane)):
            els = []
            for i, c in enumerate(lane):
                if sel >> i & 1:
                    els.extend(c)
            sets.append(frozenset(els))
        pool = set(sets)
        for A in sets:
            for b in range(1, N):
                shifted = frozenset((x + b) % N for x in A)
                if shifted in pool:
                    assert b % 3 == 0, (n, A, b)
                    assert b * len(A) % n == 0, (n, A, b)

# ---------------------------------------------------------------------------
# the family context


def test_family_contexts():
    cyc = set_family("cyclic", 8, 3)
    assert (cyc.modulus, cyc.cosets) == (8, coset_table(8, 3).cosets)
    assert cyc.multipliers == units(8) and list(cyc.shifts) == list(range(8))
    con = set_family("constacyclic", 5, 4)
    assert con.modulus == 15
    assert con.cosets == ((1, 4), (7, 13), (10,))
    assert con.multipliers == (1, 4, 7, 13)
    assert list(con.shifts) == [0, 3, 6, 9, 12]
    assert set_family("constacyclic", 5, 4) is con


@pytest.mark.parametrize("family,n,q,words", [
    ("cyclic", 9, 3, "gcd"),
    ("cyclic", 0, 3, "positive"),
    ("constacyclic", 4, 4, "odd"),       # even length, before gcd(12, 4)
    ("constacyclic", 5, 3, "q = 4"),
    ("twisted", 5, 4, "unknown family"),
])
def test_family_validation(family, n, q, words):
    with pytest.raises(ValueError, match=words):
        set_family(family, n, q)


@pytest.mark.parametrize("family,n,q,text,words", [
    ("cyclic", 15, 4, "17", "outside"),          # out of range
    ("cyclic", 15, 4, "-1", "outside"),          # negative
    ("cyclic", 15, 4, "4", "not coset leaders"),
    ("cyclic", 15, 4, "full:1,4,16", "outside"),
    ("cyclic", 15, 4, "full:1,2,8", "not closed"),
    ("cyclic", 15, 4, "1,x", "invalid literal"),
    ("constacyclic", 5, 4, "16", "outside"),
    ("constacyclic", 5, 4, "-2", "outside"),
    ("constacyclic", 5, 4, "2", "outside"),      # off the lane 1 mod 3
    ("constacyclic", 5, 4, "4", "not coset leaders"),
    ("constacyclic", 5, 4, "full:1,4,16", "outside"),
    ("constacyclic", 5, 4, "full:2,8", "outside"),
    ("constacyclic", 5, 4, "full:1", "not closed"),
])
def test_leader_rule(family, n, q, text, words):
    with pytest.raises(ValueError, match=words):
        set_family(family, n, q).parse(text)


def test_leader_forms_agree():
    for family, n, q in (("cyclic", 15, 4), ("cyclic", 8, 3),
                         ("constacyclic", 5, 4), ("constacyclic", 11, 4)):
        fam = set_family(family, n, q)
        for mask, els in zip(fam.masks(), fam.unions()):
            assert fam.mask_of(els) == mask
            assert fam.leaders_of(mask) == fam.leaders(els)
            by_leaders = fam.parse(",".join(map(str, fam.leaders(els))))
            by_elements = fam.parse("full:" + ",".join(map(str, els)))
            assert by_leaders == by_elements
            assert by_leaders.elements == els
            assert fam.expand(fam.leaders(els)) == frozenset(els)


def test_unions_cap():
    # 23 = 1 mod 22, so every residue mod 22 is its own coset
    fam = set_family("cyclic", 22, 23)
    with pytest.raises(ValueError, match="too many cosets"):
        fam.masks()
    with pytest.raises(ValueError, match="too many cosets"):
        all_defining_sets(22, 23)


def test_side_condition_is_the_cyclic_one_at_3n():
    """The constacyclic shift rule is the cyclic rule at modulus 3n on the
    lane-keeping shifts; both families exist only at odd n."""
    for n in range(1, 60):
        if n % 2 == 0:
            with pytest.raises(ValueError):
                shift_divisibility_constacyclic(n, 1, 3)
            with pytest.raises(ValueError):
                set_family("cyclic", 3 * n, 4)
            continue
        cyclic = set_family("cyclic", 3 * n, 4)
        for s in range(3 * n + 1):
            for b in range(3 * n):
                assert shift_divisibility_constacyclic(n, s, b) == (
                    b % 3 == 0 and cyclic.admits_shift(s, b))


# copies of the (e, b) loops the family context replaced, kept as references


def _reference_witnesses(A, B, mode):
    n = A.n
    size = len(A.elements)
    out = []
    if size != len(B.elements):
        return out
    target = set(B.elements)
    if mode == "cyclic":
        for e in units(n):
            for b in range(n):
                if size * (A.q - 1) * b % n:
                    continue
                if {(e * x + b) % n for x in A.elements} == target:
                    out.append(affine_map(n, e, b))
    else:
        base = n // 3
        for e in units(n):
            if e % 3 != 1:
                continue
            for b in range(0, n, 3):
                if size * b % base:
                    continue
                if {(e * x + b) % n for x in A.elements} == target:
                    out.append(affine_map(n, e, b))
    return out


def _reference_lane_maps(n, size):
    m = 3 * n
    return [(e, b) for e in range(1, m, 3) if math.gcd(e, m) == 1
            for b in range(0, m, 3) if not size * b % n]


def _reference_affine_maps(n, q, size):
    return [(e, b) for e in units(n) for b in range(n)
            if not size * (q - 1) * b % n]


@pytest.mark.parametrize("n,q", [(8, 3), (9, 2), (15, 4), (16, 3), (13, 3),
                                 (21, 4)])
def test_cyclic_affine_maps_match_reference_loops(n, q):
    fam = set_family("cyclic", n, q)
    sets = [DefiningSet(n, q, els) for els in all_defining_sets(n, q)]
    for size in range(n + 1):
        assert list(fam.affine_maps(size)) == \
            _reference_affine_maps(n, q, size)
    for A in sets[::3]:
        for B in sets:
            assert enumerate_affine_witnesses(A, B, mode="cyclic") == \
                _reference_witnesses(A, B, "cyclic")


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11, 15])
def test_constacyclic_affine_maps_match_reference_loops(n):
    fam = set_family("constacyclic", n, 4)
    sets = [DefiningSet(fam.modulus, 4, els) for els in fam.unions()]
    for size in range(n + 1):
        assert list(fam.affine_maps(size)) == _reference_lane_maps(n, size)
    for A in sets:
        for B in sets:
            assert enumerate_affine_witnesses(A, B, mode="constacyclic") == \
                _reference_witnesses(A, B, "constacyclic")


_BCH_CASES = ([("cyclic", n, 2) for n in (7, 9, 15, 17, 21, 23)]
              + [("cyclic", n, 3) for n in (4, 8, 10, 11, 13)]
              + [("cyclic", n, 4) for n in (5, 7, 9, 15, 17)]
              + [("cyclic", n, 5) for n in (4, 6, 8, 12, 13)]
              + [("constacyclic", n, 4) for n in (5, 7, 11)])


def test_bch_floor_never_exceeds_the_exact_distance():
    # every defining set, so every orbit representative, of each case
    closed = 0
    for family, n, q in _BCH_CASES:
        fam = set_family(family, n, q)
        for A in fam.unions():
            length, start, step = fam.bch_floor(A)
            assert math.gcd(step, n) == 1
            index = set(A) if family == "cyclic" else {(a - 1) // 3
                                                        for a in A}
            assert {(start + i * step) % n
                    for i in range(length)} <= index
            code = build_code(fam, A).base
            if code.k == 0 or length == 0:
                continue
            exhaustive = q ** code.k <= 1 << 16
            got = min_distance(code,
                               "exhaustive" if exhaustive else "auto")
            assert got.complete, (family, n, q, A)
            assert length + 1 <= got.ub, (family, n, q, A, length)
            closed += got.ub == length + 1 >= 3
    assert closed


def test_bch_floor_picks_the_longest_run():
    fam = set_family("cyclic", 15, 2)
    # the [15,7,5] BCH code: 1, 2, 3, 4 in a row
    assert fam.bch_floor(fam.expand((1, 3))) == (4, 1, 1)
    # {1, 2, 4, 8} holds no three terms of any unit step
    assert fam.bch_floor(fam.expand((1,))) == (2, 1, 1)
    assert fam.bch_floor(()) == (0, 0, 1)
    assert fam.bch_floor(range(15)) == (15, 0, 1)
    # a constacyclic set reads lane exponent a at index (a - 1) / 3
    consta = set_family("constacyclic", 43, 4)
    assert consta.bch_floor(consta.expand((1, 7, 13, 22, 43))) == (13, 39, 3)
