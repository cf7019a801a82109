"""Linear-code engine: RREF, duals, distances, monomial maps, equivalence."""

import functools
import itertools
import math

import numpy as np
import pytest

from codeq import linear
from codeq.constacyclic import build_constacyclic
from codeq.cosets import DefiningSet
from codeq.cyclic import build_cyclic
from codeq.fields import GF4_OMEGA, build_field, gf4
from codeq.linear import (
    LinearCode,
    MonomialTransform,
    apply_monomial,
    brute_force_equivalence,
    gf_matmul,
    min_distance,
    min_weight_outside,
    rref,
    weight_distribution,
)
from codeq.linear import (
    _ENGINES,
    _column_syndromes,
    _infoset_upper,
    _mitm_ladder,
    _outside_test,
    _weight_counts,
)


F3 = build_field(3, 1)
F4 = gf4()


def _random_code(F, n, k, seed):
    rng = np.random.default_rng(seed)
    return LinearCode.from_rows(F, rng.integers(0, F.order, size=(k, n)))


def _reference_codewords(code):
    """All q^k codewords as one byte array: gf_matmul over the messages,
    base-q digits, digit 0 fastest."""
    q, k = code.field.order, code.k
    place = q ** np.arange(k, dtype=np.int64)
    msgs = np.arange(q ** k, dtype=np.int64)[:, None] // place % q
    return gf_matmul(code.field, msgs, code.generator)


def _first_lightest(words, w, best, outside):
    """Index of the first row of least weight among the rows with
    0 < w < best outside the subcode, all filtered at once; None when there
    is none."""
    rows = np.flatnonzero((w > 0) & (w < best))
    if outside is not None and rows.size:
        rows = rows[outside(words[rows])]
    return int(rows[np.argmin(w[rows])]) if rows.size else None


def test_from_rows_identity_and_zero():
    C = LinearCode.from_rows(F3, np.eye(5, dtype=np.uint8))
    assert (C.n, C.k) == (5, 5)
    Z = LinearCode.from_rows(F3, np.zeros((3, 5), dtype=np.uint8))
    assert Z.k == 0 and Z.n == 5
    assert LinearCode.zero(F3, 5) == Z


def test_rref_idempotent_and_unique():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(3, 10))
        k = int(rng.integers(1, n + 1))
        rows = rng.integers(0, 3, size=(k, n))
        C = LinearCode.from_rows(F3, rows)
        again = LinearCode.from_rows(F3, C.generator)
        assert again == C
        # shuffling generator rows does not change the canonical form
        order = rng.permutation(C.k)
        assert LinearCode.from_rows(F3, C.generator[order]) == C


def test_stacked_rref_matches_rref_per_permutation():
    # each copy of G in the stack ends as the RREF of G under its own
    # column permutation, moved back to G's columns
    def check(F, G, s, rng):
        perms = np.array([rng.permutation(G.shape[1]) for _ in range(s)],
                         dtype=np.intp).reshape(s, G.shape[1])
        got = linear._stacked_rref(F, G, perms)
        assert got.dtype == np.uint8 and got.shape[0] == s
        for R, perm in zip(got, perms):
            want = rref(F, G[:, perm])[0][:, np.argsort(perm)]
            assert np.array_equal(R, want)

    rng = np.random.default_rng(89)
    for F in (build_field(2, 1), F3, F4, build_field(5, 1),
              build_field(2, 3), build_field(3, 2)):
        shapes = [(int(n), int(rng.integers(1, n + 1)))
                  for n in rng.integers(8, 17, size=4)]
        shapes += [(n, int(rng.integers(2, 7))) for n in (63, 64, 65, 129)]
        shapes += [(9, 1), (9, 9)]
        for n, k in shapes:
            G = rng.integers(0, F.order, size=(k, n), dtype=np.uint8)
            while len(rref(F, G)[1]) < k:
                G = rng.integers(0, F.order, size=(k, n), dtype=np.uint8)
            check(F, G, 8, rng)
        # the zero matrix has no pivots, and a budget can pay for no copies
        check(F, np.zeros((3, 10), dtype=np.uint8), 4, rng)
        assert linear._stacked_rref(
            F, G, np.zeros((0, G.shape[1]), dtype=np.intp)).shape[0] == 0


def test_rref_rejects_bad_entries():
    with pytest.raises(ValueError, match="not an element"):
        rref(F3, [[0, 3]])


@pytest.mark.parametrize("field,seed", [(F3, 11), (F4, 12), (build_field(5, 1), 13),
                                        (build_field(3, 2), 14)])
def test_dual_dimensions_and_involution(field, seed):
    rng = np.random.default_rng(seed)
    for _ in range(15):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(0, n + 1))
        C = LinearCode.from_rows(field, rng.integers(0, field.order, size=(k, n)))
        D = C.euclidean_dual()
        assert C.k + D.k == n
        assert D.euclidean_dual() == C
        if C.k and D.k:
            assert not gf_matmul(field, C.generator, D.generator.T).any()


def test_dual_of_full_space_is_zero():
    C = LinearCode.full(F3, 6)
    assert C.euclidean_dual().k == 0


def test_hermitian_dual_involution_and_field_guard():
    rng = np.random.default_rng(21)
    for _ in range(15):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(0, n + 1))
        C = LinearCode.from_rows(F4, rng.integers(0, 4, size=(k, n)))
        Dh = C.hermitian_dual()
        assert C.k + Dh.k == n
        assert Dh.hermitian_dual() == C
    with pytest.raises(ValueError):
        _random_code(F3, 6, 2, 1).hermitian_dual()


def test_conjugate_keeps_the_rref_rows():
    # conjugation fixes 0 and 1, so the conjugated RREF rows need no
    # elimination: the same code and pivots as eliminating them again
    rng = np.random.default_rng(22)
    codes = [LinearCode.zero(F4, 7), LinearCode.full(F4, 7)]
    for _ in range(40):
        n = int(rng.integers(1, 12))
        k = int(rng.integers(0, n + 1))
        codes.append(LinearCode.from_rows(F4, rng.integers(0, 4, size=(k, n))))
    for C in codes:
        got = C.conjugate()
        want = LinearCode.from_rows(F4, linear.GF4_CONJ[C.generator], C.n)
        assert got == want and got.pivots == want.pivots
        assert not got.generator.flags.writeable
        assert got.conjugate() == C


def test_hull_dim_bounds():
    rng = np.random.default_rng(5)
    for _ in range(10):
        C = LinearCode.from_rows(F4, rng.integers(0, 4, size=(4, 10)))
        h = C.intersection(C.hermitian_dual()).k
        assert 0 <= h <= C.k
        if C.hermitian_dual().contains_code(C):
            assert h == C.k


def test_parity_check_annihilates():
    C = _random_code(F4, 9, 4, 31)
    H = C.parity_check()
    assert not gf_matmul(F4, H, C.generator.T).any()


def _parity_check_loop(code):
    """parity_check() entry by entry: 1 at each free column, -G[i, f] at
    pivot i."""
    T = linear.tables(code.field)
    free = [c for c in range(code.n) if c not in code.pivots]
    H = np.zeros((len(free), code.n), dtype=np.uint8)
    for row, f in enumerate(free):
        H[row, f] = 1
        for i, p in enumerate(code.pivots):
            H[row, p] = T.neg[code.generator[i, f]]
    return H


def test_parity_check_matches_the_loop():
    rng = np.random.default_rng(19)
    for F in (build_field(2, 1), F3, F4, build_field(5, 1),
              build_field(2, 3)):
        codes = [LinearCode.zero(F, 6), LinearCode.full(F, 6)]
        codes += [_random_code(F, int(rng.integers(1, 12)),
                               int(rng.integers(1, 9)), int(rng.integers(99)))
                  for _ in range(10)]
        for C in codes:
            H = C.parity_check()
            assert H.dtype == np.uint8 and H.shape == (C.n - C.k, C.n)
            assert np.array_equal(H, _parity_check_loop(C))


def test_parity_check_is_nullspace_of_redundant_rows():
    # rows with repeats and dependent combinations: from_rows keeps their
    # span, and parity_check() reads off its nullspace
    C = _random_code(F3, 8, 3, 17)
    rows = np.vstack([C.generator, C.generator[:1],
                      gf_matmul(F3, [[1, 2, 0]], C.generator)])
    N = LinearCode.from_rows(F3, rows, 8).parity_check()
    assert N.shape == (8 - 3, 8)
    assert not gf_matmul(F3, rows, N.T).any()
    assert LinearCode.from_rows(F3, N) == C.euclidean_dual()


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3),
                                 (3, 2), (3, 3)])
def test_gf_matmul_matches_scalar_arithmetic(p, m):
    F = build_field(p, m)
    rng = np.random.default_rng(p * 10 + m)
    for rows, inner, cols in ((7, 5, 6), (1, 1, 1), (0, 4, 3), (4, 0, 3),
                              (4, 3, 0), (0, 0, 0)):
        A = rng.integers(0, F.order, size=(rows, inner))
        B = rng.integers(0, F.order, size=(inner, cols))
        want = np.zeros((rows, cols), dtype=np.uint8)
        for i, j in itertools.product(range(rows), range(cols)):
            for l in range(inner):
                want[i, j] = F.add(int(want[i, j]),
                                   F.mul(int(A[i, l]), int(B[l, j])))
        got = gf_matmul(F, A, B)
        assert got.dtype == np.uint8 and got.shape == (rows, cols)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("p,m", [(3, 1), (5, 1), (13, 1), (5, 2), (3, 3)])
def test_field_add_matches_table(p, m):
    # GF(3), GF(5) and GF(13) index the flat table in uint8, GF(25) and
    # GF(27) in uint16; a narrower index would wrap and read wrong sums
    F = build_field(p, m)
    T = linear.tables(F)
    q = F.order
    a, b = np.divmod(np.arange(q * q), q)
    a, b = a.astype(np.uint8), b.astype(np.uint8)
    got = T.plus(a, b)
    assert got.dtype == np.uint8
    assert np.array_equal(got, T.add[a, b])
    assert np.array_equal(got, [F.add(int(x), int(y)) for x, y in zip(a, b)])
    # broadcast like a ufunc, either operand the wider
    col = np.arange(q, dtype=np.uint8)[:, None]
    row = col.T
    assert np.array_equal(T.plus(col, row), T.add)
    assert np.array_equal(T.plus(row, col), T.add.T)


def test_intersection_and_sum_dims():
    A = _random_code(F4, 10, 4, 41)
    B = _random_code(F4, 10, 5, 42)
    S = A.sum_code(B)
    I = A.intersection(B)
    assert S.k + I.k == A.k + B.k
    assert S.contains_code(A) and S.contains_code(B)
    assert A.contains_code(I) and B.contains_code(I)


def test_membership_over_gf3():
    # contains and contains_code test syndromes under the parity check: the
    # zero code holds only 0, the full space every vector, and a code its
    # own codewords and nothing else
    zero, full = LinearCode.zero(F3, 6), LinearCode.full(F3, 6)
    C = _random_code(F3, 6, 3, 17)
    words = {tuple(int(x) for x in w) for w in C.codewords()}
    for v in itertools.product(range(3), repeat=6):
        assert C.contains(v) == (v in words)
        assert full.contains(v) and zero.contains(v) == (not any(v))
    free = next(j for j in range(6) if j not in C.pivots)
    assert not C.contains(np.eye(6, dtype=np.uint8)[free])
    assert C.contains_code(zero) and C.contains_code(C)
    assert full.contains_code(C) and not C.contains_code(full)
    assert zero.contains_code(zero) and not zero.contains_code(C)
    with pytest.raises(ValueError, match="vector length"):
        C.contains([0] * 5)


def test_weight_distribution_zero_and_full():
    Z = LinearCode.zero(F3, 6)
    assert weight_distribution(Z).counts == (1, 0, 0, 0, 0, 0, 0)
    full = LinearCode.full(F3, 5)
    wd = weight_distribution(full)
    from math import comb
    assert wd.counts == tuple(comb(5, w) * 2 ** w for w in range(6))
    assert sum(wd.counts) == 3 ** 5 and wd.counts[0] == 1


def test_weight_distribution_budget(monkeypatch):
    C = LinearCode.full(F4, 20)
    monkeypatch.setattr(linear, "EXHAUSTIVE_CEILING", 1 << 10)
    with pytest.raises(ValueError, match="too large"):
        weight_distribution(C)


def test_weight_distribution_bit_planes_match_bytes():
    # the weights come from _codewords' rows (XORed bit planes in
    # characteristic 2, table-added bytes otherwise) in blocks of at most
    # ROW_BLOCK words; gf_matmul over every message gives the same words
    # and counts, also where one enumeration spans several blocks
    rng = np.random.default_rng(97)
    for F, n, k in ((build_field(2, 1), 20, 18), (F4, 43, 9),
                    (build_field(2, 3), 11, 4), (build_field(2, 8), 9, 2),
                    (F4, 70, 0), (F3, 16, 11), (build_field(5, 1), 12, 7),
                    (build_field(3, 2), 10, 5), (F3, 5, 0)):
        C = LinearCode.from_rows(F, rng.integers(0, F.order, size=(k, n)), n)
        assert C.k == k
        blocks = list(linear._codewords(C))
        assert max(b.shape[0] for b in blocks) <= linear.ROW_BLOCK
        assert sum(b.shape[0] for b in blocks) == F.order ** k
        words = _reference_codewords(C)
        assert np.array_equal(C.codewords(), words)
        want = np.bincount(np.count_nonzero(words, axis=1), minlength=n + 1)
        assert weight_distribution(C).counts == tuple(int(c) for c in want)


def test_weight_distributions_are_enumerated_once(monkeypatch):
    enumerated = []
    chunks = linear._codewords

    def counting_chunks(code, *args):
        enumerated.append(code)
        return chunks(code, *args)

    monkeypatch.setattr(linear, "_codewords", counting_chunks)
    _weight_counts.cache_clear()
    C1 = _random_code(F4, 9, 4, 51)
    C2 = apply_monomial(C1, MonomialTransform((8, 0, 1, 2, 3, 4, 5, 6, 7),
                                              (2,) + (1,) * 8))
    assert C1 != C2
    assert linear.weight_distributions_equal(C1, C2) is True
    assert linear.weight_distributions_equal(C2, C1) is True
    assert enumerated == [C1, C2]
    for C in (C1, C2):
        assert _weight_counts(C) == weight_distribution(C).counts


def test_monomial_transform_validation():
    with pytest.raises(ValueError):
        MonomialTransform((0, 0, 1), (1, 1, 1))
    with pytest.raises(ValueError):
        MonomialTransform((0, 1), (1, 0))


def test_monomial_action_convention():
    # v'[i] = diag[i] * v[perm_inverse(i)]
    M = MonomialTransform((1, 2, 0), (1, 2, 1))
    v = np.array([1, 2, 0], dtype=np.uint8)
    out = M.apply_vector(F3, v)
    # perm sends 0->1, 1->2, 2->0; so position 0 receives old position 2
    assert list(out) == [F3.mul(1, 0), F3.mul(2, 1), F3.mul(1, 2)]


def test_monomial_compose_inverse_roundtrip():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        M = MonomialTransform(tuple(int(x) for x in rng.permutation(n)),
                              tuple(int(x) for x in rng.integers(1, 3, size=n)))
        C = _random_code(F3, n, max(1, n // 2), int(rng.integers(1 << 30)))
        assert apply_monomial(apply_monomial(C, M), M.inverse(F3)) == C
        assert apply_monomial(C, M.compose(F3, M.inverse(F3))) == C


def test_apply_monomial_preserves_weight_distribution():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(4, 9))
        C = _random_code(F4, n, 3, int(rng.integers(1 << 30)))
        M = MonomialTransform(tuple(int(x) for x in rng.permutation(n)),
                              tuple(int(x) for x in rng.integers(1, 4, size=n)))
        assert weight_distribution(C).counts == \
            weight_distribution(apply_monomial(C, M)).counts


def test_min_distance_zero_dim_sentinel():
    Z = LinearCode.zero(F4, 7)
    r = min_distance(Z)
    assert (r.lb, r.ub) == (8, 8) and r.complete


def test_auto_picks_the_smaller_of_table_and_codeword_space():
    # [15,11]: 4^4 syndromes against 4^11 codewords, so the ladder climbs
    # before the enumeration; the enumeration alone decides it too
    C = _random_code(F4, 15, 11, 43)
    assert linear._auto_engine(C) == ("exhaustive", 15)
    got = min_distance(C, strategy="exhaustive")
    assert got.complete
    assert C.contains(got.witness)
    assert sum(1 for x in got.witness if x) == got.lb
    # a syndrome space no smaller than the codeword space is enumerated
    # with no climb
    C = _random_code(F4, 12, 6, 44)
    assert linear._auto_engine(C) == ("exhaustive", 0)
    assert min_distance(C).strategy == "exhaustive"


def test_every_engine_name_is_a_strategy():
    C = _random_code(F4, 12, 8, 43)
    got = {name: min_distance(C, strategy=name) for name in _ENGINES}
    assert sorted(got) == ["exhaustive", "information_set"]
    assert all(res.strategy == name for name, res in got.items())
    assert got["exhaustive"].complete
    assert got["information_set"].ub >= got["exhaustive"].lb
    for name in ("dp", "syndrome_dp"):
        with pytest.raises(ValueError, match="unknown strategy"):
            min_distance(C, strategy=name)


def test_lower_bound_above_witness_weight_raises(monkeypatch):
    monkeypatch.setitem(_ENGINES, "exhaustive",
                        lambda *args: (5, 3, None, 0, ""))
    with pytest.raises(RuntimeError, match="exceeds"):
        min_distance(_random_code(F4, 8, 3, 5), strategy="exhaustive")


def test_exhaustive_without_budget_keeps_its_cap(monkeypatch):
    # without a budget the enumeration reads at most EXHAUSTIVE_CEILING
    # messages and then returns open bounds; no code is too large for it
    C = _random_code(F4, 20, 10, 45)
    full = min_distance(C, strategy="exhaustive")
    assert full.complete and full.work > 100
    monkeypatch.setattr(linear, "EXHAUSTIVE_CEILING", 100)
    got = min_distance(C, strategy="exhaustive")
    assert (got.work, got.complete) == (100, False)
    assert got.lb <= full.lb <= got.ub
    assert got.note.startswith("ceiling of 100 messages reached: "
                               "Brouwer-Zimmermann enumeration")


def _reference_messages(q, k, w, row_block, start=0, head=None):
    """The weight-w messages _messages reads, block by block, from
    itertools: in a block the subsets of range(start, k) run fastest, in
    lexicographic order, and the last position's scalar slowest; the first
    scalar is 1 unless head, a message on the positions before start, is
    given.  A block past row_block rows is split on its first position,
    then that position's scalar."""
    pinned = head is None
    base = (0,) * k if pinned else head
    if w and math.comb(k - start, w) * (q - 1) ** (w - pinned) > row_block:
        for a in range(start, k - w + 1):
            for c in range(1, 2 if pinned else q):
                yield from _reference_messages(q, k, w - 1, row_block, a + 1,
                                               base[:a] + (c,) + base[a + 1:])
        return
    block = []
    for tail in itertools.product(range(1, q), repeat=w - pinned):
        scalars = (1,) * pinned + tail[::-1]
        for subset in itertools.combinations(range(start, k), w):
            message = list(base)
            for i, c in zip(subset, scalars):
                message[i] = c
            block.append(message)
    yield block


def test_messages_match_itertools_reference(monkeypatch):
    # on a generator [I | X] the first k coordinates of a word are its
    # message; n = 70 puts the bit planes past one 64-bit word
    rng = np.random.default_rng(67)
    k, n = 5, 70
    for F in (build_field(2, 1), F3, F4, build_field(5, 1),
              build_field(2, 3), build_field(3, 2)):
        q = F.order
        G = np.hstack([np.eye(k, dtype=np.uint8),
                       rng.integers(0, q, size=(k, n - k), dtype=np.uint8)])
        add, _, pack, unpack = linear._row_ops(F, n)
        rows = pack(linear.tables(F).mul[:, G].reshape(q * k, n))
        rows = rows.reshape(q, k, *rows.shape[1:])
        # head: 2 R_0 + R_1 where the field has a 2, read from start 2
        c0 = min(2, q - 1)
        heads = ((0, None, None),
                 (2, add(rows[c0, 0], rows[1, 1]), (c0, 1, 0, 0, 0)))
        everything = {w: [] for w in range(k + 1)}
        for m in itertools.product(range(q), repeat=k):
            if next((x for x in m if x), 1) == 1:
                everything[sum(map(bool, m))].append(m)
        for row_block in (5, 7, linear.ROW_BLOCK):
            monkeypatch.setattr(linear, "ROW_BLOCK", row_block)
            for start, head, message in heads:
                for w in range(1, k - start + 1):
                    want = list(_reference_messages(q, k, w, row_block,
                                                     start, message))
                    got = [unpack(b) for b in
                           linear._messages(rows, add, w, start, head)]
                    assert [b.shape[0] for b in got] == list(map(len, want))
                    assert all(len(b) <= max(1, row_block) for b in want)
                    for block, msgs in zip(got, want):
                        msgs = np.array(msgs, dtype=np.uint8).reshape(-1, k)
                        assert np.array_equal(block, gf_matmul(F, msgs, G))
            # every weight-w message with first nonzero scalar 1 comes once
            for w in range(1, k + 1):
                seen = [tuple(m) for block in _reference_messages(
                    q, k, w, row_block) for m in block]
                assert sorted(seen) == everything[w]


def _check_budget_cuts(C, S, d, want, budgets, shift=None):
    """Every budget gives sound bounds around the least weight d outside
    S, and no more work than it pays for: open bounds after exactly
    `budget` messages, or d with the unbudgeted witness `want`."""
    outside = _outside_test(C, S)
    for budget in budgets:
        lb, ub, witness, work, note = linear._brouwer_zimmermann(
            C, outside, budget, 1, 1, shift)
        assert lb <= d <= ub and work <= budget
        if lb == ub:
            assert (lb, witness) == (d, want)
        else:
            assert work == budget
            assert note.startswith(f"budget {budget} ran out: ")
        if witness is None:
            assert ub == C.n + 1
        else:
            assert C.contains(witness) and sum(map(bool, witness)) == ub
            assert S is None or not S.contains(witness)


def test_exhaustive_budget_gives_open_bounds():
    C = _random_code(F4, 10, 6, 41)
    full = min_distance(C, strategy="exhaustive")
    assert full.complete and full.work > 2
    _check_budget_cuts(C, None, full.lb, full.witness, range(full.work + 1))
    again = min_distance(C, strategy="exhaustive", budget=full.work)
    assert again.complete and (again.lb, again.ub) == (full.lb, full.ub)
    none_seen = min_distance(C, strategy="exhaustive", budget=0)
    assert (none_seen.lb, none_seen.ub, none_seen.witness) == (1, 11, None)


def _reference_distance(C, S, words):
    """Least weight of a nonzero row of words, the _reference_codewords of
    C, outside S, every row weighed and tested at once."""
    w = np.count_nonzero(words, axis=1)
    keep = w > 0
    if S is not None:
        keep &= _outside_test(C, S)(words)
    return int(w[keep].min())


def _check_enumeration(C, S, words, budgets, shift=None):
    """_brouwer_zimmermann against the reference: the exact least weight
    outside S, a witness of that weight in C and outside S, and sound
    open bounds under each budget."""
    d = _reference_distance(C, S, words)
    outside = _outside_test(C, S)
    lb, ub, witness, work, note = linear._brouwer_zimmermann(
        C, outside, None, 1, 1, shift)
    assert (lb, ub) == (d, d), note
    assert note.startswith("exact: Brouwer-Zimmermann enumeration")
    assert C.contains(witness) and sum(map(bool, witness)) == d
    assert S is None or not S.contains(witness)
    _check_budget_cuts(C, S, d, witness, [b for b in budgets if b < work],
                       shift)
    return work


def _light_level_code(F, n, k, rng):
    """A k-dimensional code whose weight-1 words are the multiples of e_0,
    the first row, and which holds the weight-2 word e_1 + e_k; the other
    rows are [0 | I | R] with no zero row in R."""
    R = rng.integers(0, F.order, size=(k - 1, n - k))
    R[R.sum(axis=1) == 0, 0] = 1
    R[0] = 0
    R[0, 0] = 1
    G = np.zeros((k, n), dtype=np.uint8)
    G[0, 0] = 1
    G[1:, 1:k] = np.eye(k - 1, dtype=np.uint8)
    G[1:, k:] = R
    return LinearCode.from_rows(F, G, n)


def _check_enumeration_levels(monkeypatch, F, k, rng):
    """The enumeration against the reference with and without a subcode,
    on a k-dimensional code past one ROW_BLOCK, on smaller random codes
    with one form or several, and then on blocks of 48 rows, which split
    the levels' subsets and loop over the scalars of their last
    positions."""
    q = F.order

    def check(C, budgets):
        light = LinearCode.from_rows(F, C.generator[:1], C.n)
        half = LinearCode.from_rows(F, C.generator[:C.k // 2], C.n)
        words = _reference_codewords(C)
        for S in (None, light, half):
            if S is not None and S.k == C.k:
                continue
            _check_enumeration(C, S, words, budgets)

    C = _light_level_code(F, k + 5, k, rng)
    assert q ** C.k > linear.ROW_BLOCK
    # every weight-1 word lies in the first row's span, so outside it the
    # search passes level 1 and finds e_1 + e_k at level 2
    light = LinearCode.from_rows(F, C.generator[:1], C.n)
    assert linear._brouwer_zimmermann(
        C, _outside_test(C, light), None, 1)[:2] == (2, 2)
    check(C, (0, 1, 2, 1000))
    # random codes of at most 2^12 codewords, some with several forms
    small = max(2, int(12 / math.log2(q)))
    for _ in range(4):
        n = int(rng.integers(small + 2, 3 * small + 2))
        check(_random_code(F, n, small, int(rng.integers(1 << 16))),
              (1, 2, 100))
    monkeypatch.setattr(linear, "ROW_BLOCK", 48)
    for _ in range(6):
        n = int(rng.integers(7, 16))
        C = _random_code(F, n, int(rng.integers(2, 6)), int(rng.integers(99)))
        if C.k > 1:
            check(C, (1, int(rng.integers(2, 60)), 200))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_exhaustive_bit_planes_match_byte_path(monkeypatch, m):
    # characteristic 2 enumerates bit planes: GF(2), GF(4) and GF(8)
    F = build_field(2, m)
    k = {1: 17, 2: 9, 3: 6}[m]
    _check_enumeration_levels(monkeypatch, F, k,
                              np.random.default_rng(70 + m))


@pytest.mark.parametrize("p,m,k", [(3, 1, 11), (5, 1, 7), (3, 2, 6)])
def test_exhaustive_odd_fields_match_byte_path(monkeypatch, p, m, k):
    # odd fields enumerate table-added bytes: GF(3), GF(5) and GF(9)
    F = build_field(p, m)
    _check_enumeration_levels(monkeypatch, F, k,
                              np.random.default_rng(80 + p + m))


@pytest.mark.parametrize("family, n, q, leaders", [
    ("cyclic", 23, 2, (1,)), ("cyclic", 21, 2, (1, 3)),
    ("cyclic", 13, 3, (1, 2)), ("cyclic", 20, 3, (1, 2, 11)),
    ("cyclic", 15, 4, (1, 2, 3, 6)), ("cyclic", 13, 5, (1, 2)),
    ("cyclic", 9, 8, (1, 2)), ("cyclic", 10, 9, (1, 2, 3)),
    ("constacyclic", 13, 4, (1,)), ("constacyclic", 11, 4, (1,))])
def test_enumeration_with_a_shift_matches_the_reference(family, n, q,
                                                        leaders):
    # cyclic and constacyclic codes over GF(2), GF(3), GF(4), GF(5), GF(8)
    # and GF(9), alone and outside a subcode that the shift also keeps:
    # the first form under Chen's bound finds the same least weight as the
    # forms without it, and as every codeword weighed, in no more work
    from codeq.constacyclic import build_code
    from codeq.cosets import set_family
    fam = set_family(family, n, q)
    A = fam.expand(leaders)
    C = build_code(fam, A).base
    words = _reference_codewords(C)
    subcodes = [None]
    for extra in fam.unions():
        B = tuple(sorted(set(A) | set(extra)))
        if len(B) > len(A) and len(B) < n:
            subcodes.append(build_code(fam, B).base)
            break
    for S in subcodes:
        shift = linear._shift_constant(C, S)
        assert shift is not None
        with_shift = _check_enumeration(C, S, words, (1, 5, 50), shift)
        without = _check_enumeration(C, S, words, (), None)
        assert with_shift <= without


def test_exhaustive_budget_past_int64_gives_open_bounds():
    # [I_41 | all-ones] over GF(3) has 3^41 > 2^63 codewords; its rows
    # weigh 2, and after level 1 the first form proves no word lighter
    G = np.hstack([np.eye(41, dtype=np.uint8), np.ones((41, 1), np.uint8)])
    C = LinearCode.from_rows(F3, G)
    got = min_distance(C, strategy="exhaustive")
    assert (got.lb, got.ub, got.work) == (2, 2, 41)
    got = min_distance(C, strategy="exhaustive", budget=20)
    assert (got.lb, got.ub, got.complete, got.work) == (1, 2, False, 20)
    assert got.note == ("budget 20 ran out: Brouwer-Zimmermann enumeration "
                        "to message weight 0 (forms of rank 41)")
    assert C.contains(got.witness)


def test_min_distance_witness_is_codeword():
    C = _random_code(F4, 12, 5, 77)
    r = min_distance(C)
    assert r.complete and r.witness is not None
    assert C.contains(r.witness)
    assert sum(1 for x in r.witness if x) == r.lb


def test_mitm_ladder_agrees_with_exhaustive():
    rng = np.random.default_rng(23)
    for F in (F4, build_field(2, 1), build_field(2, 3)):
        for _ in range(15):
            n = int(rng.integers(6, 13))
            k = int(rng.integers(1, min(n, 6) + 1))
            C = LinearCode.from_rows(F, rng.integers(0, F.order, size=(k, n)))
            if C.k == 0:
                continue
            ex = min_distance(C, strategy="exhaustive")
            lb, exact, word, _ = _mitm_ladder(C, 6, None)
            if ex.lb <= 6:
                assert exact == ex.lb
                assert C.contains(word)
            else:
                assert lb == 7 and exact is None
            if C.k < 2:
                continue
            # the subcode filter: the ladder's first verified weight is the
            # least weight outside S
            S = LinearCode.from_rows(F, C.generator[:C.k // 2], n)
            ex = min_weight_outside(C, S, strategy="exhaustive")
            lb, exact, word, _ = _mitm_ladder(C, 6, _outside_test(C, S))
            if ex.lb <= 6:
                assert exact == ex.lb
                assert C.contains(word) and not S.contains(word)
                assert sum(1 for x in word if x) == exact
            else:
                assert lb == 7 and exact is None


def _reference_forms(F, r, syn):
    """(form, digit) of packed syndromes by per-digit table arithmetic: the
    lowest nonzero base-q digit d of each (0 for syndrome 0), and the
    syndrome with every digit times 1/d."""
    T = linear.tables(F)
    place = np.uint64(F.m) * np.arange(max(r, 1), dtype=np.uint64)
    digits = (syn.astype(np.uint64)[:, None] >> place) & np.uint64(F.order - 1)
    d = digits[np.arange(syn.size), np.argmax(digits != 0, axis=1)]
    scaled = T.mul[T.inv[d][:, None], digits].astype(np.uint64) << place
    return np.bitwise_xor.reduce(scaled, axis=1), d.astype(np.intp)


def _reference_ladder(code, wmax, outside):
    """The ladder as a Python loop over candidates: sides carry one
    (j_0, c_0, ..., j_{t-1}, c_{t-1}) metadata row per entry, c_0 = 1, and
    are grouped by the form of their syndromes under scaling; A entries go
    in index order, each meeting the B entries of its group in index order
    (only the later ones when the rung's two sides are one), and every pair
    a, b with syn(a) = beta syn(b) gives a + beta b, which is rebuilt and
    weighed before the subcode test."""
    F, n = code.field, code.n
    if F.p != 2 or (n - code.k) * F.m > 63:
        return 1, None, None, 0
    packed = _column_syndromes(code)
    q = F.order

    @functools.lru_cache(maxsize=None)
    def side(t):
        combos = np.array(list(itertools.combinations(range(n), t)),
                          dtype=np.int64).reshape(math.comb(n, t), t)
        syn_parts, meta_parts = [], []
        for scalars in itertools.product(range(1, q), repeat=max(t - 1, 0)):
            cs = (1,) * min(t, 1) + scalars
            syn = np.zeros(combos.shape[0], dtype=np.int64)
            meta = np.empty((combos.shape[0], 2 * t), dtype=np.int64)
            for slot in range(t):
                syn ^= packed[cs[slot]][combos[:, slot]]
                meta[:, 2 * slot] = combos[:, slot]
                meta[:, 2 * slot + 1] = cs[slot]
            syn_parts.append(syn)
            meta_parts.append(meta)
        form, digit = _reference_forms(F, n - code.k,
                                       np.concatenate(syn_parts))
        groups = {}
        for e, f in enumerate(form.tolist()):
            groups.setdefault(f, []).append(e)
        return form.tolist(), digit.tolist(), np.vstack(meta_parts), groups

    work = 0
    for t in range(1, wmax + 1):
        ta, tb = t // 2, t - t // 2
        na = math.comb(n, ta) * (q - 1) ** max(ta - 1, 0)
        nb = math.comb(n, tb) * (q - 1) ** max(tb - 1, 0)
        if na + nb > linear.MITM_SIDE_CAP:
            return t, None, None, work
        form_a, digit_a, meta_a, _ = side(ta)
        _, digit_b, meta_b, groups = side(tb)
        work += int(na + nb)
        for ia, f in enumerate(form_a):
            for ib in groups.get(f, ()):
                if ta == tb and ib <= ia:
                    continue
                beta = F.mul(digit_a[ia], F.inv(digit_b[ib])) if f else 1
                word = [0] * n
                for m, scale in ((meta_a[ia], 1), (meta_b[ib], beta)):
                    for j, c in np.asarray(m).reshape(-1, 2).tolist():
                        word[j] = F.add(word[j], F.mul(scale, c))
                if sum(1 for x in word if x) < t:
                    continue
                if (outside is not None
                        and not outside(np.array([word], dtype=np.uint8))[0]):
                    continue
                return t, t, tuple(word), work
    return wmax + 1, None, None, work


def _ladder_codes(F, rng):
    """Random codes plus duals of parity checks with zero columns (weight-1
    words, the t = 1 path with an empty A side) and with repeated or scaled
    columns (weight-2 words, whose halves' syndromes are multiples)."""
    q = F.order
    for _ in range(6):
        n = int(rng.integers(6, 12))
        k = int(rng.integers(2, min(n, 6) + 1))
        yield LinearCode.from_rows(F, rng.integers(0, q, size=(k, n)))
    for zeros, repeats in ((1, 0), (2, 1), (0, 2), (0, 3)):
        n = int(rng.integers(8, 12))
        r = int(rng.integers(4, 7))
        H = rng.integers(0, q, size=(r, n))
        for j in range(zeros):
            H[:, j] = 0
        for j in range(zeros, zeros + repeats):
            c = int(rng.integers(1, q))
            H[:, n - 1 - j] = linear.tables(F).mul[c, H[:, j]]
        C = LinearCode.from_rows(F, H, n).euclidean_dual()
        if C.k >= 2:
            yield C


def test_mitm_ladder_matches_reference_loop(monkeypatch):
    rng = np.random.default_rng(41)
    for F in (build_field(2, 1), F4, build_field(2, 3)):
        for C in _ladder_codes(F, rng):
            filters = [None]
            for split in (1, C.k // 2, C.k - 1):
                S = LinearCode.from_rows(F, C.generator[:split], C.n)
                filters.append(_outside_test(C, S))
            for outside in filters:
                want = _reference_ladder(C, 6, outside)
                if want[1] is not None:
                    assert C.contains(want[2])
                # chunks of 3 pairs cross chunk boundaries and split one
                # A entry's collisions between chunks
                for chunk in (3, linear.MITM_CHUNK):
                    with monkeypatch.context() as m:
                        m.setattr(linear, "MITM_CHUNK", chunk)
                        assert _mitm_ladder(C, 6, outside) == want
            # a side cap hit midway stops at the same rung
            with monkeypatch.context() as m:
                m.setattr(linear, "MITM_SIDE_CAP", 200)
                assert _mitm_ladder(C, 6, None) == _reference_ladder(C, 6,
                                                                     None)


def _golay():
    """The binary Golay code [23,12,7]: no codeword up to weight 6, and the
    sums of up to three columns of its parity check are distinct."""
    g = [1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1]
    rows = np.zeros((12, 23), dtype=np.uint8)
    for i in range(12):
        rows[i, i:i + 12] = g
    C = LinearCode.from_rows(build_field(2, 1), rows)
    assert C.k == 12
    return C


def test_mitm_ladder_builds_each_side_once(monkeypatch):
    # all six rungs run: on the Golay code no word weighs up to 6, and on a
    # GF(4) code a subcode test rejects every word.  Rung 2j-1 joins sides
    # of j-1 and j positions, rung 2j joins the side of j positions with
    # itself and rung 2j+1 reuses it, so the sides of 0, 1, 2 and 3
    # positions are built once each, in that order
    builds = []
    side = linear._mitm_side

    def counted(packed, subsets, T):
        builds.append(subsets.shape[1])
        return side(packed, subsets, T)

    def reject(words):
        return np.zeros(words.shape[0], dtype=bool)

    monkeypatch.setattr(linear, "_mitm_side", counted)
    for C, outside in ((_golay(), None), (_random_code(F4, 12, 6, 5), reject)):
        builds.clear()
        got = _mitm_ladder(C, 6, outside)
        assert got[:3] == (7, None, None)
        assert builds == [0, 1, 2, 3]
        assert got == _reference_ladder(C, 6, outside)


def test_mitm_ladder_expands_no_twin_on_golay(monkeypatch):
    # at d = 7 no two entries of up to three positions share a syndrome, so
    # no pair is expanded: an entry of an even rung's one side meets only
    # later entries of its run, and every rung hands _mitm_first colliding
    # runs that hold no pair
    C = _golay()
    first = linear._mitm_first
    pairs = []

    def spy(n, hit, lo, hi, *args):
        pairs.append(int((hi - lo).sum()))
        return first(n, hit, lo, hi, *args)

    monkeypatch.setattr(linear, "_mitm_first", spy)
    assert _mitm_ladder(C, 6, None) == _reference_ladder(C, 6, None)
    assert pairs == [0] * 6


def test_windowed_ladder_builds_each_outer_side_once(monkeypatch):
    # the cyclic Golay code windowed: rungs 1 to 6 take w = 1, 2, 2, 3, 3,
    # 4, so outer sides of 0, 1 and 2 positions are built once each, and
    # each rung builds its window side of w positions holding position 0.
    # A window side always holds position 0 and an outer side never does,
    # so no pair meets its own vector, and at d = 7 none is expanded
    C = _golay()
    builds, pairs = [], []
    side, first = linear._mitm_side, linear._mitm_first

    def counted(packed, subsets, T):
        window = subsets.size > 0 and not subsets[:, 0].any()
        builds.append((subsets.shape[1], window))
        assert window or subsets.size == 0 or subsets.min() >= 1
        return side(packed, subsets, T)

    def spy(n, hit, lo, hi, *args):
        pairs.append(int((hi - lo).sum()))
        return first(n, hit, lo, hi, *args)

    monkeypatch.setattr(linear, "_mitm_side", counted)
    monkeypatch.setattr(linear, "_mitm_first", spy)
    assert [linear._rung_plan(23, 2, t, True)[0] for t in range(1, 7)] == [
        1, 2, 2, 3, 3, 4]
    assert _mitm_ladder(C, 6, None, shift=1) == (7, None, None, 783)
    assert sorted(builds) == [(0, False), (1, False), (1, True), (2, False),
                              (2, True), (2, True), (3, True), (3, True),
                              (4, True)]
    assert pairs == [0] * 6


def _dual_pairs(fam):
    """(code, subcode) for each lane set A of fam: the code C alone when it
    is nonzero, and C + C^perp outside C^perp when that is a proper
    subcode (the Hermitian dual over GF(4), the Euclidean one over GF(2)).
    With Z the dual's set, C + C^perp has zeros A & Z.  Only codes whose
    codeword or syndrome space has at most 2^10 elements are built."""
    from codeq.constacyclic import build_code
    from codeq.cyclic import dual_defining_set

    def small(zeros):
        return fam.q ** min(zeros, fam.n - zeros) <= 1 << 10

    for els in fam.unions():
        A = set(els)
        if len(A) < fam.n and small(len(A)):
            yield build_code(fam, els).base, None
        Z = set((fam.hermitian_dual(els) if fam.q == 4 else
                 dual_defining_set(fam.defining_set(els))).elements)
        if not Z <= A and len(A & Z) < fam.n and small(len(A & Z)):
            yield (build_code(fam, tuple(sorted(A & Z))).base,
                   build_code(fam, tuple(sorted(Z))).base)


@pytest.mark.parametrize("family, n, q", [
    ("constacyclic", 5, 4), ("constacyclic", 7, 4), ("constacyclic", 11, 4),
    ("constacyclic", 13, 4), ("cyclic", 15, 4), ("cyclic", 21, 4),
    ("cyclic", 15, 2), ("cyclic", 23, 2)])
def test_windowed_ladder_matches_exact_engines(monkeypatch, family, n, q):
    # every word of weight up to 6 has a shifted, scaled copy in some
    # window split, so the windowed ladder finds the least weight outside
    # the subcode that the enumeration finds
    from codeq.cosets import set_family
    cases = 0
    for C, D in _dual_pairs(set_family(family, n, q)):
        shift = linear._shift_constant(C, D)
        assert shift is not None
        want = (min_distance(C, strategy="exhaustive") if D is None
                else min_weight_outside(C, D, strategy="exhaustive"))
        outside = _outside_test(C, D)
        got = _mitm_ladder(C, 6, outside, shift=shift)
        if want.lb <= 6:
            assert got[:2] == (want.lb, want.lb)
            assert C.contains(got[2]) and (D is None
                                           or not D.contains(got[2]))
            assert sum(1 for x in got[2] if x) == want.lb
        else:
            assert got[:3] == (7, None, None)
        # chunks of 3 pairs cut the window sides' collisions too
        with monkeypatch.context() as m:
            m.setattr(linear, "MITM_CHUNK", 3)
            assert _mitm_ladder(C, 6, outside, shift=shift) == got
        cases += 1
    assert cases >= 6


def test_shift_constant_names_the_verified_shift(monkeypatch):
    from codeq.cosets import set_family
    from codeq.constacyclic import build_code
    from codeq.fields import GF4_OMEGA
    from codeq.quantum import nearly_self_orthogonal
    golay = _golay()
    assert linear._shift_constant(golay, None) == 1
    # an omega-constacyclic code and its Hermitian dual take eta = omega
    fam = set_family("constacyclic", 13, 4)
    C = build_code(fam, next(els for els in fam.unions()
                             if 0 < len(els) < 13))
    assert linear._shift_constant(C.base, C.hermitian_dual().base) == (
        GF4_OMEGA)
    # no shift keeps a column-permuted Golay code, the padded code E
    # [54,43] of criterion 11, or the span of one Golay word
    _permuted(golay, 3)
    from codeq import DefiningSet, build_cyclic
    base = build_cyclic(51, 4, DefiningSet.from_leaders(
        51, 4, (0, 2, 7, 17, 34))).base
    E, _ = nearly_self_orthogonal(base, budget=0)  # no distances needed
    assert (E.n, E.k) == (54, 43)
    assert linear._shift_constant(E, None) is None
    assert linear._shift_constant(E, E.hermitian_dual()) is None
    word = LinearCode.from_rows(golay.field, golay.generator[:1], golay.n)
    assert linear._shift_constant(golay, word) is None
    # the engine windows the ladder only on a verified shift
    shifts = []
    ladder = linear._mitm_ladder

    def spy(*args, shift=None, **kwargs):
        shifts.append(shift)
        return ladder(*args, shift=shift, **kwargs)

    monkeypatch.setattr(linear, "_mitm_ladder", spy)
    min_distance(golay, strategy="information_set")
    min_weight_outside(golay, word, strategy="information_set")
    assert shifts == [1, None]


def _side_syndromes(packed, side):
    """The syndromes of a side's entries in index order, rebuilt from its
    subsets and scalars: entry s*C + i is subset i carrying tuple s."""
    _, subsets, scalars = side
    c = subsets.shape[0]
    e = np.arange(scalars.shape[0] * c)
    syn = np.zeros(e.size, dtype=np.int64)
    for slot in range(subsets.shape[1]):
        syn ^= packed[scalars[e // c, slot], subsets[e % c, slot]]
    return syn


def _check_side_key(code, side):
    """The side's tuples start with 1, the key is sorted, its low IDX_BITS
    bits list the entries in the stable argsort order of the forms of
    their syndromes under scaling and its high bits hold those forms;
    returns whether the side has a run of equal forms."""
    key, _, scalars = side
    assert scalars.size == 0 or np.all(scalars[:, 0] == 1)
    form, _ = _reference_forms(code.field, code.n - code.k, _side_syndromes(
        _column_syndromes(code), side))
    order = np.argsort(form, kind="stable")
    assert key.dtype == np.uint64 and np.all(key[1:] > key[:-1])
    assert np.array_equal(key & linear._IDX_MASK, order)
    assert np.array_equal(key >> linear.IDX_BITS, form[order])
    return bool(np.any(form[order][1:] == form[order][:-1]))


def test_mitm_side_order_is_the_stable_argsort():
    # one sort of the key gives equal forms in index order, whether the
    # forms are distinct or form runs
    golay = _golay()
    packed = _column_syndromes(golay)
    T = linear.tables(golay.field)
    for t in (1, 2, 3):
        assert not _check_side_key(golay, linear._mitm_side(
            packed, linear._subsets(golay.n, t), T))
    runs = 0
    rng = np.random.default_rng(59)
    for F in (build_field(2, 1), F4, build_field(2, 3), build_field(2, 4)):
        T = linear.tables(F)
        for C in _ladder_codes(F, rng):
            packed = _column_syndromes(C)
            for t in (1, 2, 3):
                # whole sides, outer sides on [1, n) and window sides
                # holding position 0
                inner = linear._subsets(C.n // 2, t - 1, 1)
                window = np.hstack([np.zeros((inner.shape[0], 1),
                                             inner.dtype), inner])
                for subsets in (linear._subsets(C.n, t),
                                linear._subsets(C.n, t, 1), window):
                    runs += _check_side_key(
                        C, linear._mitm_side(packed, subsets, T))
    assert runs > 0


def test_collisions_match_the_pair_list():
    # sides of keys hash << IDX_BITS | index, sorted, with repeated and
    # zero hashes, the largest hash, empty sides and either side smaller
    rng = np.random.default_rng(23)
    top = (1 << (64 - linear.IDX_BITS)) - 1

    def side(size, hashes):
        h = rng.choice(np.array(hashes, dtype=np.uint64), size)
        key = h << np.uint64(linear.IDX_BITS) | np.arange(size,
                                                          dtype=np.uint64)
        key.sort()
        return key

    for na, nb in ((0, 0), (0, 6), (6, 0), (1, 1), (3, 40), (40, 3),
                   (25, 25), (200, 17), (17, 200)):
        for hashes in ([0], [0, 1], [0, 3, 5, top], list(range(60))):
            key_a, key_b = side(na, hashes), side(nb, hashes)
            hash_a = (key_a >> np.uint64(linear.IDX_BITS)).tolist()
            hash_b = (key_b >> np.uint64(linear.IDX_BITS)).tolist()
            want = [(i, j) for i in range(na) for j in range(nb)
                    if hash_a[i] == hash_b[j]]
            hit, lo, hi = linear._collisions(key_a, key_b)
            assert np.all(np.diff(hit) > 0) and np.all(hi > lo)
            got = [(int(i), j) for i, a, b in zip(hit, lo, hi)
                   for j in range(a, b)]
            assert got == want


@pytest.mark.parametrize("windowed", [False, True])
def test_rung_plan_sizes_every_rung(monkeypatch, windowed):
    # a subcode test that rejects every word keeps every rung running over
    # GF(2), GF(4) and GF(8): rung t adds the na + nb of its plan to the
    # work and joins keys of exactly na and nb entries (an even unwindowed
    # rung one side of na = nb entries with itself), each rung builds one
    # window side when windowed, and a side on [start, n) is built once per
    # position count
    from codeq.constacyclic import build_code
    from codeq.cosets import set_family
    codes = [(_golay(), 6),
             (build_code(set_family("cyclic", 15, 4), (1, 2, 4, 8)).base, 5),
             (build_code(set_family("cyclic", 9, 8), (1, 2, 7, 8)).base, 5)]
    joins, builds = [], []
    side, collisions, runs = (linear._mitm_side, linear._collisions,
                              linear._mitm_runs)

    def built(packed, subsets, T):
        window = subsets.size > 0 and not subsets[:, 0].any() and windowed
        builds.append(("window" if window else "side", subsets.shape[1]))
        return side(packed, subsets, T)

    def two_sided(key_a, key_b):
        joins.append((key_a.size, key_b.size))
        return collisions(key_a, key_b)

    def self_join(key):
        joins.append((key.size, key.size))
        return runs(key)

    def reject(words):
        return np.zeros(words.shape[0], dtype=bool)

    monkeypatch.setattr(linear, "_mitm_side", built)
    monkeypatch.setattr(linear, "_collisions", two_sided)
    monkeypatch.setattr(linear, "_mitm_runs", self_join)
    for C, wmax in codes:
        shift = linear._shift_constant(C, None) if windowed else None
        assert (shift is not None) == windowed
        plans = [linear._rung_plan(C.n, C.field.order, t, windowed)
                 for t in range(1, wmax + 1)]
        if not windowed:
            assert [p[:2] for p in plans] == [(t // 2, C.n)
                                              for t in range(1, wmax + 1)]
        costs = [na + nb for _, _, na, nb in plans]
        for t in range(1, wmax + 1):
            joins.clear()
            builds.clear()
            assert _mitm_ladder(C, t, reject, shift=shift) == (
                t + 1, None, None, sum(costs[:t]))
        assert joins == [(na, nb) for _, _, na, nb in plans]
        want = []
        for t, (w, *_) in enumerate(plans, start=1):
            for c in (t - w,) if windowed else (w, t - w):
                if ("side", c) not in want:
                    want.append(("side", c))
            if windowed:
                want.append(("window", w))
        assert builds == want


def test_subsets_match_itertools():
    for n in range(13):
        for t in range(5):
            got = linear._subsets(n, t)
            want = list(itertools.combinations(range(n), t))
            assert got.dtype == np.uint8
            assert got.shape == (len(want), t)
            assert [tuple(row) for row in got.tolist()] == want
            for start in (1, 2):
                got = linear._subsets(n, t, start)
                assert [tuple(row) for row in got.tolist()] == list(
                    itertools.combinations(range(start, n), t))
    # the dtype is the smallest unsigned one that holds n - 1
    assert linear._subsets(256, 1).dtype == np.uint8
    assert linear._subsets(257, 1).dtype == np.uint16
    assert linear._subsets(257, 1)[-1, 0] == 256
    # a repeat call hands back the same table, which no caller may change
    table = linear._subsets(43, 3, 1)
    assert linear._subsets(43, 3, 1) is table
    assert not table.flags.writeable


def _permuted(C, seed):
    """C with its columns permuted at random, so that no shift keeps it
    and the ladder's rungs are not windowed."""
    perm = np.random.default_rng(seed).permutation(C.n)
    P = apply_monomial(C, MonomialTransform.permutation(perm))
    assert linear._shift_constant(P, None) is None
    return P


def _check_budget_stops(C, shift, costs):
    """A rung runs only when the work stays within the budget, and the
    first rung left out is the proved lower bound; the rungs cost `costs`
    entries.  Returns the total work of every rung to weight 3."""
    windowed = shift is not None
    assert [sum(linear._rung_plan(C.n, 2, t, windowed)[2:])
            for t in range(1, 7)] == costs
    spent = list(itertools.accumulate(costs))
    for t, total in enumerate(spent, start=1):
        for budget in (total - 1, total):
            got = _mitm_ladder(C, 6, None, budget, shift=shift)
            ran = t if budget == total else t - 1
            assert got == ((ran + 1, None, None, spent[ran - 1]) if ran
                           else (1, None, None, 0))
    assert (_mitm_ladder(C, 6, None, spent[-1], shift=shift)
            == _mitm_ladder(C, 6, None, shift=shift))
    return spent[2]


def test_mitm_ladder_stops_before_a_rung_past_the_budget():
    # the Golay code's unwindowed rungs cost 24, 46, 276, 506, 2024 and
    # 3542 entries
    C = _golay()
    to_three = _check_budget_stops(C, None, [24, 46, 276, 506, 2024, 3542])
    # the information-set engine hands its budget to the ladder; with its
    # columns permuted the Golay code has no shift, so the rungs are these
    got = min_distance(_permuted(C, 3), strategy="information_set",
                       budget=to_three)
    assert got.lb == 4
    assert got.note.startswith("lb by meet-in-the-middle ladder to weight 3")
    # a ladder that finds a word under the budget is unchanged by it
    rng = np.random.default_rng(89)
    for C in _ladder_codes(F4, rng):
        want = _mitm_ladder(C, 6, None)
        if want[1] is not None:
            assert _mitm_ladder(C, 6, None, want[3]) == want


def test_windowed_ladder_stops_before_a_rung_past_the_budget():
    # the cyclic Golay code's windowed rungs cost 2, 12, 29, 77, 267 and
    # 396 entries, and the engine windows them itself
    C = _golay()
    to_three = _check_budget_stops(C, 1, [2, 12, 29, 77, 267, 396])
    got = min_distance(C, strategy="information_set", budget=to_three)
    assert got.lb == 4
    assert got.note.startswith("lb by meet-in-the-middle ladder to weight 3")


def test_mitm_ladder_keeps_index_order_in_long_runs(monkeypatch):
    # a parity check with one column repeated and scaled ten times: its
    # multiples share one form, so they make runs of ten or more entries,
    # which chunks of 3 pairs cut in the middle
    rng = np.random.default_rng(53)
    for F in (build_field(2, 1), F4, build_field(2, 3)):
        q = F.order
        n, r = 16, 5
        H = rng.integers(0, q, size=(r, n))
        H[:, 0] = rng.integers(1, q, size=r)
        pairs = np.zeros((10, n), dtype=np.uint8)
        for j in range(1, 11):
            c = int(rng.integers(1, q))
            H[:, j] = linear.tables(F).mul[c, H[:, 0]]
            pairs[j - 1, [0, j]] = c, 1
        C = LinearCode.from_rows(F, H, n).euclidean_dual()
        key = linear._mitm_side(_column_syndromes(C), linear._subsets(n, 1),
                                linear.tables(F))[0]
        form = key >> linear.IDX_BITS
        assert np.unique(form, return_counts=True)[1].max() >= 10
        filters = [None]
        for split in (1, C.k // 2, C.k - 1):
            S = LinearCode.from_rows(F, C.generator[:split], n)
            filters.append(_outside_test(C, S))
        # outside the weight-2 words of the repeated column, the ladder
        # climbs to rungs whose B sides pair those columns
        filters.append(_outside_test(C, LinearCode.from_rows(F, pairs, n)))
        for outside in filters:
            with monkeypatch.context() as m:
                m.setattr(linear, "MITM_CHUNK", 3)
                assert (_mitm_ladder(C, 6, outside)
                        == _reference_ladder(C, 6, outside))


def _planted_codes(F, n, r, rng):
    """Duals of random r x n parity checks over F whose last column is a
    multiple of the sum of the first j, for a word of weight j + 1 (none
    for j = 0), for j = 0, 1, 3 and 4."""
    T = linear.tables(F)
    for j in (0, 1, 3, 4):
        H = rng.integers(0, F.order, size=(r, n))
        total = np.zeros(r, dtype=np.uint8)
        for col in range(j):
            total = T.add[total, H[:, col]]
        if j:
            H[:, n - 1] = T.mul[int(rng.integers(1, F.order)), total]
        yield LinearCode.from_rows(F, H, n).euclidean_dual()


def _wide_codes(rng):
    """Codes whose syndromes need more than 64 - IDX_BITS bits, so the
    ladder's keys hash them: r = 21 over GF(4) and r = 14 over GF(8)."""
    for F, r, n in ((F4, 21, 24), (build_field(2, 3), 14, 16)):
        assert r * F.m + linear.IDX_BITS > 64
        for C in _planted_codes(F, n, r, rng):
            assert C.n - C.k == r
            yield C


def test_mitm_ladder_hashes_wide_syndromes():
    rng = np.random.default_rng(67)
    found = set()
    for C in _wide_codes(rng):
        assert linear._key_hash(_column_syndromes(C)) is not None
        S = LinearCode.from_rows(C.field, C.generator[:1], C.n)
        for outside in (None, _outside_test(C, S)):
            want = _reference_ladder(C, 6, outside)
            found.add(want[1])
            assert _mitm_ladder(C, 6, outside) == want
    assert {None, 2, 4, 5} <= found


def test_mitm_ladder_drops_hash_collisions(monkeypatch):
    # a hash that sends every form to 0: every A entry meets the whole B
    # side (every later entry, on an even rung), and only the exact forms
    # of the pairs' syndromes keep true pairs
    monkeypatch.setattr(linear, "_key_hash",
                        lambda packed: lambda syn: syn.fill(0))
    rng = np.random.default_rng(71)
    for F in (build_field(2, 1), F4, build_field(2, 3)):
        for C in itertools.islice(_ladder_codes(F, rng), 6):
            wmax = 6 if F.order == 2 else 4
            filters = [None, _outside_test(C, LinearCode.from_rows(
                F, C.generator[:C.k // 2], C.n))]
            for outside in filters:
                assert (_mitm_ladder(C, wmax, outside)
                        == _reference_ladder(C, wmax, outside))


def test_mitm_word_blocks_keep_the_witness(monkeypatch):
    # chunks of one and of three pairs and blocks of one and of three words
    # test the subcode in candidate order, and so do chunks and blocks that
    # grow from one: 1, 2, 3, 3, ... under a cap of 3
    rng = np.random.default_rng(73)
    sizes = [{name: size} for name in ("MITM_CHUNK", "WORD_BLOCK")
             for size in (1, 3)]
    sizes.append({"FIRST_BLOCK": 1, "MITM_CHUNK": 3, "WORD_BLOCK": 3})
    for F in (build_field(2, 1), F4, build_field(2, 3)):
        for C in _ladder_codes(F, rng):
            S = LinearCode.from_rows(F, C.generator[:C.k - 1], C.n)
            want = _reference_ladder(C, 6, _outside_test(C, S))
            for setting in sizes:
                with monkeypatch.context() as m:
                    for name, size in setting.items():
                        m.setattr(linear, name, size)
                    assert _mitm_ladder(C, 6, _outside_test(C, S)) == want


def _field_cases(F, rng):
    """(code, subcode or None, shift) over F = GF(2^m): random and planted
    codes with unwindowed rungs, planted codes whose syndromes pass
    64 - IDX_BITS bits (hashed keys), and cyclic codes with a cyclic
    subcode for windowed rungs; every code also once without a subcode."""
    from codeq.constacyclic import build_code
    from codeq.cosets import set_family
    q = F.order
    short, wide, lengths = {4: ((10, 5), (24, 21), (9, 15)),
                            8: ((8, 4), (17, 14), (7, 9)),
                            16: ((7, 4), (14, 11), (5, 15)),
                            256: ((7, 5), (8, 6), (5, 7))}[q]
    codes = [(C, None) for C in _planted_codes(F, *short, rng)]
    codes += [(C, None) for C in _planted_codes(F, *wide, rng)]
    for C, _ in list(codes):
        if C.k >= 2:
            codes.append((C, LinearCode.from_rows(F, C.generator[:1], C.n)))
    for C, S in codes:
        yield C, S, None
    for n in lengths:
        # the largest code of at most 2^16 words, with the cyclic subcode
        # of the next larger defining set when that is not zero
        fam = set_family("cyclic", n, q)
        unions = sorted(fam.unions(), key=len)
        A = next(set(els) for els in unions if q ** (n - len(els)) <= 1 << 16)
        B = next(set(els) for els in unions if set(els) > A)
        C = build_code(fam, tuple(sorted(A))).base
        S = build_code(fam, tuple(sorted(B))).base
        yield C, None, linear._shift_constant(C, None)
        if S.k:
            yield C, S, linear._shift_constant(C, S)


@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_mitm_ladder_is_sound_over_every_field(m):
    # against all codewords (_reference_codewords), over GF(4), GF(8),
    # GF(16) and GF(256), where x has order 51 of 255, so forms under
    # scaling by powers of x alone would miss pairs: a word lighter than
    # the proved lb is the ladder's exact weight, and its witness is one of
    # the lightest words outside the subcode
    F = build_field(2, m)
    rng = np.random.default_rng(101 + m)
    kinds = set()
    for C, S, shift in _field_cases(F, rng):
        outside = _outside_test(C, S)
        words = _reference_codewords(C)
        w = np.count_nonzero(words, axis=1)
        out = (w > 0) & (True if S is None else outside(words))
        d = int(w[out].min())
        lb, exact, word, _ = _mitm_ladder(C, 6, outside, 1 << 18,
                                          shift=shift)
        if exact is None:
            assert word is None and d >= lb
        else:
            assert exact == lb == d
            lightest = {row.tobytes() for row in words[out & (w == d)]}
            assert bytes(word) in lightest
        kinds.add((shift is not None, S is not None, linear._key_hash(
            _column_syndromes(C)) is not None, exact is not None))
    assert {(False, False, True, True), (False, True, True, True),
            (False, False, False, True), (False, True, False, True),
            (True, False, False, True), (True, True, False, True)} <= kinds


def test_mitm_zero_syndromes_meet_in_the_subcode(monkeypatch):
    # light words of the subcode have syndrome 0, so pairs of them meet
    # under every beta: their sums lie in the subcode and are rejected, and
    # the ladder climbs to the least weight outside it
    first = linear._mitm_first
    zero_pairs = []

    def spy(n, hit, lo, hi, key_b, *args):
        zero = (key_b >> np.uint64(linear.IDX_BITS)) == 0
        zero_pairs.append(sum(int(zero[a:b].sum()) for a, b in zip(lo, hi)))
        return first(n, hit, lo, hi, key_b, *args)

    monkeypatch.setattr(linear, "_mitm_first", spy)
    rng = np.random.default_rng(103)
    for F in (F4, build_field(2, 3)):
        n, q = 11, F.order
        light = np.zeros((3, n), dtype=np.uint8)
        for row, support in enumerate(((0, 1), (2, 3), (4, 5, 6))):
            light[row, list(support)] = rng.integers(1, q, len(support))
        S = LinearCode.from_rows(F, light, n)
        C = LinearCode.from_rows(F, np.vstack(
            [light, rng.integers(0, q, size=(2, n))]), n)
        assert C.k == 5 and C.contains_code(S)
        zero_pairs.clear()
        got = _mitm_ladder(C, 6, _outside_test(C, S))
        want = min_weight_outside(C, S, strategy="exhaustive")
        assert want.lb >= 5 and got[:2] == (want.lb, want.lb)
        assert C.contains(got[2]) and not S.contains(got[2])
        assert sum(1 for x in got[2] if x) == want.lb
        # rung 4 pairs the two weight-2 words, rung 5 one with the weight-3
        assert zero_pairs[3] > 0 and zero_pairs[4] > 0


def test_growing_spans_cover_in_order():
    for total in (0, 1, 63, 64, 65, 200, 1000):
        for cap in (1, 3, 64, 100, 1 << 20):
            spans = list(linear._growing(total, cap))
            starts = [0] + [b for _, b in spans]
            assert [a for a, _ in spans] == starts[:-1]
            assert starts[-1] == total
            sizes = [b - a for a, b in spans]
            assert all(0 < s <= cap for s in sizes)
            want = [min(linear.FIRST_BLOCK << i, cap)
                    for i in range(len(sizes))]
            assert sizes[:-1] == want[:-1]


def _check_cascade(C, S=None):
    """Auto against the forced enumeration: the same bounds, and a witness
    of weight lb outside S; returns the engine that decided."""
    if S is None:
        got, alone = min_distance(C), min_distance(C, strategy="exhaustive")
    else:
        got = min_weight_outside(C, S)
        alone = min_weight_outside(C, S, strategy="exhaustive")
    assert (got.lb, got.ub, got.complete) == (alone.lb, alone.ub, True)
    assert C.contains(got.witness)
    assert S is None or not S.contains(got.witness)
    assert sum(1 for x in got.witness if x) == got.lb
    if got.strategy == "information_set":
        assert got.note == "exact: meet-in-the-middle ladder"
    else:
        assert got.strategy == "exhaustive"
        assert got.note.startswith("exact: Brouwer-Zimmermann enumeration")
        assert "; ladder to weight" in got.note
    return got.strategy


def test_auto_climbs_the_ladder_before_the_enumeration(monkeypatch):
    # the ladder climbs until a rung passes MITM_SIDE_CAP: at the default
    # cap it decides every code here, and capped at 2000 side entries it
    # stops short on some, which the enumeration then decides
    rng = np.random.default_rng(79)
    codes = []
    for F, n, k in ((build_field(2, 1), 30, 16), (build_field(2, 1), 36, 20),
                    (F4, 24, 17), (F4, 26, 18), (build_field(2, 3), 16, 12),
                    (build_field(2, 3), 18, 13)):
        for _ in range(3):
            C = _random_code(F, n, k, int(rng.integers(1 << 16)))
            if C.k != k:
                continue
            assert linear._auto_engine(C) == ("exhaustive", n)
            S = LinearCode.from_rows(F, C.generator[:k // 2], n)
            codes += [(C, None), (C, S)]
    assert {_check_cascade(C, S) for C, S in codes} == {"information_set"}
    monkeypatch.setattr(linear, "MITM_SIDE_CAP", 2000)
    assert ({_check_cascade(C, S) for C, S in codes}
            == {"information_set", "exhaustive"})


def _bch_31():
    """The binary BCH code [31,16,7], which is cyclic."""
    from codeq import DefiningSet, build_cyclic
    C = build_cyclic(31, 2, DefiningSet.from_leaders(31, 2, (1, 3, 5))).base
    assert (C.n, C.k) == (31, 16) and linear._shift_constant(C, None) == 1
    return C


def _check_enumeration_after_climb(C, reach, shift):
    """Auto climbs the ladder to `reach`, then the enumeration decides from
    the ladder's floor, and its note and work count the climb; returns the
    result under a budget of 1000 units."""
    got = min_distance(C)
    assert got.strategy == "exhaustive" and (got.lb, got.ub) == (7, 7)
    assert got.note.startswith("exact: Brouwer-Zimmermann enumeration")
    assert got.note.endswith(f"; ladder to weight {reach} first")
    climb = _mitm_ladder(C, reach, None, shift=shift)[3]
    rest = linear._brouwer_zimmermann(C, None, None, 1, reach + 1, shift)
    assert got.work == rest[3] + climb
    assert _check_cascade(C) == "exhaustive"
    return min_distance(C, budget=1000)


def test_auto_enumerates_past_the_affordable_rungs(monkeypatch):
    # the BCH code with its columns permuted has no shift: under a side cap
    # of 2000 entries the ladder climbs to weight 4 only, and 1000 units
    # pay for rungs 1 to 3 (590 units).  The 410 left read levels 1 and 2
    # of both forms, of ranks 16 and 15 (31 + 240 messages), which prove 5,
    # and part of level 3
    monkeypatch.setattr(linear, "MITM_SIDE_CAP", 2000)
    got = _check_enumeration_after_climb(_permuted(_bch_31(), 5), 4, None)
    assert (got.lb, got.work) == (5, 1000) and got.ub < 32
    assert got.note.startswith("budget 410 ran out: Brouwer-Zimmermann "
                               "enumeration to message weight 2 (forms of "
                               "rank 16, 15)")


def test_auto_climbs_windowed_rungs_on_the_cyclic_bch_code(monkeypatch):
    # windowed, the same climb under the same cap reaches weight 6, and
    # 1000 units pay for rungs 1 to 5 (694 units); the 306 left read levels
    # 1 and 2 of the first form (16 + 120 messages), where Chen's bound
    # ceil(31 * 3 / 16) = 6 proves no more than the ladder
    monkeypatch.setattr(linear, "MITM_SIDE_CAP", 2000)
    got = _check_enumeration_after_climb(_bch_31(), 6, 1)
    assert (got.lb, got.work) == (6, 1000) and got.ub < 32
    assert got.note.startswith("budget 306 ran out: Brouwer-Zimmermann "
                               "enumeration to message weight 2 (forms of "
                               "rank 16)")


def test_auto_decides_the_extended_qr_code():
    # the extended binary QR code [48,24,12] has no shift, and the ladder
    # stops at weight 10, its next rung over MITM_SIDE_CAP; two forms of
    # rank 24 read to message weight 5 prove 12
    from codeq import DefiningSet, build_cyclic
    qr = build_cyclic(47, 2, DefiningSet.from_leaders(47, 2, (1,))).base
    G = np.hstack([qr.generator, qr.generator.sum(axis=1, keepdims=True) % 2])
    C = LinearCode.from_rows(qr.field, G.astype(np.uint8))
    assert (C.n, C.k) == (48, 24) and linear._shift_constant(C, None) is None
    got = min_distance(C)
    assert (got.lb, got.ub, got.strategy) == (12, 12, "exhaustive")
    assert got.note == ("exact: Brouwer-Zimmermann enumeration to message "
                        "weight 5 (forms of rank 24, 24); ladder to weight "
                        "10 first")
    assert C.contains(got.witness) and sum(map(bool, got.witness)) == 12


def test_distance_climbs_the_ladder_from_one_place(monkeypatch):
    # _distance_engine is the ladder's one caller: each distance call climbs
    # at most once, to weight 6 before information sets and to the code's
    # length before an enumeration that auto picked for its few syndromes
    # (the ladder stops itself at MITM_SIDE_CAP), and not in odd
    # characteristic or on other routes
    climbs = []
    ladder = linear._mitm_ladder

    def spy(code, wmax, *args, **kwargs):
        climbs.append(wmax)
        return ladder(code, wmax, *args, **kwargs)

    monkeypatch.setattr(linear, "_mitm_ladder", spy)
    bch = _bch_31()
    climbing = _random_code(F4, 24, 17, 5)
    wide = _random_code(F4, 30, 15, 7)
    routes = [
        (_random_code(F4, 12, 6, 44), "auto", None, "exhaustive", []),
        (bch, "auto", None, "exhaustive", [31]),
        (climbing, "auto", None, "exhaustive", [24]),
        (_random_code(F4, 15, 11, 43), "auto", None, "exhaustive", [15]),
        (_random_code(F3, 14, 10, 3), "auto", None, "exhaustive", []),
        (wide, "auto", None, "information_set", [6]),
        (wide, "auto", LinearCode.from_rows(F4, wide.generator[:7]),
         "information_set", [6]),
        (_random_code(F3, 30, 15, 7), "auto", None, "information_set", []),
        (bch, "exhaustive", None, "exhaustive", []),
        (bch, "information_set", None, "information_set", [6]),
    ]
    for C, strategy, S, engine, want in routes:
        assert strategy != "auto" or linear._auto_engine(C)[0] == engine
        climbs.clear()
        if S is None:
            min_distance(C, strategy=strategy)
        else:
            min_weight_outside(C, S, strategy=strategy)
        assert climbs == want


def _consta_43_14():
    """The [43,14,14] omega-constacyclic code of `consta-43`'s leaders
    (1, 7, 13, 22, 43) with its BCH floor, as the search passes it."""
    from codeq.constacyclic import build_code
    from codeq.cosets import set_family
    fam = set_family("constacyclic", 43, 4)
    A = fam.expand((1, 7, 13, 22, 43))
    length, start, step = fam.bch_floor(A)
    assert (length, start, step) == (13, 39, 3)
    return build_code(fam, A).base, (length + 1, "BCH bound: indices 39 + 3i")


def test_floor_above_a_witness_raises():
    # a floor one above the weight of the witness found is refuted by it
    C, (d, proof) = _consta_43_14()
    cases = [(C, "information_set", 14), (_bch_31(), "exhaustive", 7),
             (_permuted(_bch_31(), 5), "exhaustive", 7),
             (_random_code(F3, 10, 5, 2), "exhaustive", None)]
    for code, strategy, d in cases:
        if d is None:
            d = min_distance(code, strategy=strategy).ub
        assert min_distance(code, strategy, floor=(d, "sound")).lb == d
        with pytest.raises(RuntimeError, match="exceeds the weight"):
            min_distance(code, strategy, floor=(d + 1, "a false floor"))


def test_floor_only_removes_work(monkeypatch):
    # any floor up to d leaves ub and witness as they were, and costs no
    # more work; a ladder that climbs starts at the floor
    firsts = []
    ladder = linear._mitm_ladder

    def spy(*args, first=1, **kwargs):
        firsts.append(first)
        return ladder(*args, first=first, **kwargs)

    monkeypatch.setattr(linear, "_mitm_ladder", spy)
    codes = [(_bch_31(), s) for s in ("auto", "exhaustive",
                                      "information_set")]
    codes += [(_permuted(_bch_31(), 5), "exhaustive")]
    codes += [(_golay(), "information_set"), (_golay(), "auto"),
              (_random_code(F4, 12, 6, 44), "auto"),
              (_random_code(F4, 24, 17, 5), "auto"),
              (_random_code(F4, 30, 15, 7), "information_set"),
              (_random_code(F3, 14, 10, 3), "auto")]
    for C, strategy in codes:
        plain = min_distance(C, strategy, budget=1 << 24)
        assert plain.complete
        for d in range(1, plain.lb + 1):
            firsts.clear()
            got = min_distance(C, strategy, budget=1 << 24,
                               floor=(d, "test floor"))
            assert (got.ub, got.witness) == (plain.ub, plain.witness)
            assert got.work <= plain.work and got.lb == plain.lb
            assert all(f == d for f in firsts)
            assert (d > 1) == (f"floor {d} by test floor" in got.note)


def test_high_floor_skips_the_ladder(monkeypatch):
    # the search's [43,14] record: a floor of 14 > INFOSET_LADDER_REACH
    # runs no rung and seeks no shift, names its progression, and stops
    # the information-set scan at the first word of weight 14
    import sys
    from codeq.search import SearchJob, evaluate
    search_module = sys.modules["codeq.search"]
    calls, results = [], []
    monkeypatch.setattr(linear, "_mitm_ladder",
                        lambda *a, **k: calls.append("ladder"))
    monkeypatch.setattr(linear, "_shift_constant",
                        lambda *a, **k: calls.append("shift"))

    def keep(*args, **kwargs):
        results.append(min_distance(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(search_module, "min_distance", keep)
    job = SearchJob("constacyclic", 43, distance_budget=1 << 24)
    rec = evaluate(job, (1, 7, 13, 22, 43))
    assert (rec.d_lb, rec.d_ub, rec.strategy) == (14, 14, "information_set")
    assert calls == []
    assert results[0].note == ("floor 14 by BCH bound: indices 39 + 3i "
                               "mod 43 for i < 13")
    # the first block read, the 14 rows of the first systematic form,
    # holds a word of weight 14
    assert results[0].work == 14


def test_note_names_only_rungs_that_ran():
    # a floor at or below weight 6 names itself and no ladder where no rung
    # runs: in odd characteristic, or where rung d is past the budget
    from codeq import DefiningSet, build_cyclic
    assert "ladder" not in min_distance(_random_code(F3, 30, 15, 7)).note
    # the ternary quadratic-residue code [11,6,5]
    qr = build_cyclic(11, 3, DefiningSet.from_leaders(11, 3, (1,))).base
    assert min_distance(qr, strategy="exhaustive").lb == 5
    for d in (2, 5):
        got = min_distance(qr, "information_set", floor=(d, "test floor"))
        assert (got.lb, got.ub) == (d, 5)
        assert got.note == f"floor {d} by test floor"
    wide = _random_code(F4, 30, 15, 7)
    assert linear._auto_engine(wide)[0] == "information_set"
    got = min_distance(wide, budget=1, floor=(3, "test floor"))
    assert (got.lb, got.work) == (3, 0)
    assert got.note == ("floor 3 by test floor; budget 1 paid for 0 of 8 "
                        "information-set iterations")
    got = min_distance(wide, floor=(3, "test floor"))
    assert got.note.startswith("floor 3 by test floor; lb by "
                               "meet-in-the-middle ladder to weight")


def test_floor_bounds_a_search_with_no_iterations():
    # a budget that pays for no information-set iteration leaves the floor
    # as lb and no witness: an open interval that still holds d = 14
    C, floor = _consta_43_14()
    for budget in (0, 1, 1000):
        got = min_distance(C, budget=budget, floor=floor)
        assert (got.lb, got.ub, got.witness) == (14, 44, None)
        assert "paid for 0 of 8" in got.note


def test_infoset_upper_bound_sound():
    rng = np.random.default_rng(29)
    # GF(4) and GF(2), GF(8) add rows by XOR, GF(3) and GF(5) by table
    for F in (F4, build_field(2, 1), F3, build_field(5, 1), build_field(2, 3)):
        q = F.order
        for _ in range(8):
            n = int(rng.integers(8, 14))
            k = int(rng.integers(2, min(n, 7)))
            C = LinearCode.from_rows(F, rng.integers(0, q, size=(k, n)))
            if C.k < 2:
                continue
            ex = min_distance(C, strategy="exhaustive")
            ub, wit, work = _infoset_upper(C, 6, 3, None)
            assert ub >= ex.lb
            if wit is not None:
                assert C.contains(wit)
                assert sum(1 for x in wit if x) == ub
            # every combination of at most three rows is read once
            k = C.k
            assert work == 6 * (k + (q - 1) * math.comb(k, 2)
                                + (q - 1) ** 2 * math.comb(k, 3))


def _reference_infoset(code, iters, seed, outside, floor, seen):
    """_infoset_upper on bytes: form by form, the blocks of
    _reference_messages of weight 1, 2 and 3 at the current ROW_BLOCK, made
    into words by gf_matmul, each block weighed and filtered at once, up to
    the first block with a word of weight floor; every word scanned is
    appended to seen."""
    F = code.field
    rng = np.random.default_rng(seed)
    n, k = code.n, code.k
    best, witness, work = n + 1, None, 0
    for _ in range(iters):
        perm = rng.permutation(n)
        R = rref(F, code.generator[:, perm])[0][:, np.argsort(perm)]
        for w in (1, 2, 3):
            for block in _reference_messages(F.order, k, w, linear.ROW_BLOCK):
                msgs = np.array(block, dtype=np.uint8).reshape(-1, k)
                words = gf_matmul(F, msgs, R)
                seen.append(words)
                weights = np.count_nonzero(words, axis=1)
                work += weights.size
                x = _first_lightest(words, weights, best, outside)
                if x is not None:
                    best, witness = int(weights[x]), tuple(map(int, words[x]))
                    if best <= floor:
                        return best, witness, work
    return best, witness, work


def _infoset_codes(rng):
    """Random codes over fields of both characteristics, then codes over
    GF(2), GF(4) and GF(8) of lengths 63, 64 and 65, around the first
    64-coordinate word boundary, and 129, just past the second."""
    for F in (build_field(2, 1), F3, F4, build_field(5, 1),
              build_field(2, 3), build_field(3, 2)):
        for _ in range(4):
            n = int(rng.integers(8, 16))
            k = int(rng.integers(3, min(n - 2, 7) + 1))
            yield LinearCode.from_rows(F, rng.integers(0, F.order,
                                                       size=(k, n)))
    for F in (build_field(2, 1), F4, build_field(2, 3)):
        for n in (63, 64, 65, 129):
            k = int(rng.integers(3, 6))
            yield LinearCode.from_rows(F, rng.integers(0, F.order,
                                                       size=(k, n)))


def test_infoset_upper_matches_reference_loop(monkeypatch):
    plane_weights, byte_weights = linear._plane_weights, linear._byte_weights

    def read(code, iters, *args):
        # the result and every word weighed, in scan order: bit planes are
        # unpacked to bytes, and each characteristic weighs its own form
        words, forms = [], set()

        def planes_spy(planes):
            forms.add("planes")
            words.append(linear._unpack_planes(planes, code.n))
            return plane_weights(planes)

        def bytes_spy(block):
            forms.add("bytes")
            words.append(block.copy())
            return byte_weights(block)

        with monkeypatch.context() as m:
            m.setattr(linear, "_plane_weights", planes_spy)
            m.setattr(linear, "_byte_weights", bytes_spy)
            got = _infoset_upper(code, iters, *args)
        assert forms == {"planes" if code.field.p == 2 else "bytes"}
        return got, np.concatenate(words)

    rng = np.random.default_rng(61)
    for C in _infoset_codes(rng):
        filters = [None]
        for split in (1, C.k // 2, C.k - 1):
            S = LinearCode.from_rows(C.field, C.generator[:split], C.n)
            filters.append(_outside_test(C, S))
        for outside in filters:
            seed = int(rng.integers(1 << 16))
            ub = _reference_infoset(C, 3, seed, outside, 1, [])[0]
            # blocks of 7 (q - 1) rows split weights 2 and 3 on their
            # first positions and scalars; a floor at the weight found
            # stops the scan at the first block that holds such a word
            for block in (7 * (C.field.order - 1), linear.ROW_BLOCK):
                monkeypatch.setattr(linear, "ROW_BLOCK", block)
                for floor in (1, ub):
                    want_words = []
                    want = _reference_infoset(C, 3, seed, outside, floor,
                                              want_words)
                    got, words = read(C, 3, seed, outside, floor)
                    assert got == want
                    assert np.array_equal(words, np.concatenate(want_words))


def test_bit_planes_hold_each_coordinate_bit():
    # bit b of coordinate j is bit j % 8 of byte j // 8 of plane b; the
    # bits past n are 0, and the weights are the counts of nonzero entries
    rng = np.random.default_rng(83)
    for m in (1, 2, 3, 8):
        for n in (1, 7, 63, 64, 65, 129):
            words = rng.integers(0, 1 << m, size=(6, n), dtype=np.uint8)
            words[0] = 0
            planes = linear._pack_planes(words, m)
            assert planes.dtype == np.uint64
            assert planes.shape == (6, m, -(-n // 64))
            raw = planes.view(np.uint8)
            for j in range(planes.shape[2] * 64):
                got = raw[:, :, j // 8] >> (j % 8) & 1
                want = (words[:, j, None] >> np.arange(m) & 1 if j < n
                        else np.zeros((6, m), dtype=np.uint8))
                assert np.array_equal(got, want)
            assert np.array_equal(linear._unpack_planes(planes, n), words)
            assert np.array_equal(linear._plane_weights(planes),
                                  np.count_nonzero(words, axis=1))


def test_infoset_deterministic_given_seed():
    C = _random_code(F4, 16, 8, 99)
    a = _infoset_upper(C, 4, 5, None)
    b = _infoset_upper(C, 4, 5, None)
    assert a == b


def test_min_weight_outside_oracle():
    rng = np.random.default_rng(33)
    for _ in range(12):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, min(n + 1, 6)))
        C = LinearCode.from_rows(F3, rng.integers(0, 3, size=(k, n)))
        if C.k < 2:
            continue
        S = LinearCode.from_rows(F3, C.generator[:1], n)
        got = min_weight_outside(C, S, strategy="exhaustive")
        words = C.codewords()
        best = n + 1
        for w in words:
            wt = int(np.count_nonzero(w))
            if wt and not S.contains(w):
                best = min(best, wt)
        assert (got.lb, got.ub) == (best, best)


def test_min_weight_outside_edges():
    C = _random_code(F4, 8, 3, 55)
    full = min_weight_outside(C, C)
    assert (full.lb, full.ub) == (9, 9)          # S = C sentinel
    zero = LinearCode.zero(F4, 8)
    base = min_distance(C, strategy="exhaustive")
    versus = min_weight_outside(C, zero, strategy="exhaustive")
    assert (versus.lb, versus.ub) == (base.lb, base.ub)
    other = _random_code(F4, 8, 5, 56)
    if not C.contains_code(other):
        with pytest.raises(ValueError, match="not contained"):
            min_weight_outside(C, other)


def test_min_weight_outside_enumeration_filter():
    # auto climbs the ladder before enumerating this code, and the ladder
    # decides; forced, the enumeration's subcode filter decides
    rng = np.random.default_rng(61)
    C = LinearCode.from_rows(F4, rng.integers(0, 4, size=(12, 16)))
    S = LinearCode.from_rows(F4, C.generator[:2], 16)
    assert linear._auto_engine(C) == ("exhaustive", 16)
    got = min_weight_outside(C, S, strategy="exhaustive")
    assert got.strategy == "exhaustive" and got.complete
    auto = min_weight_outside(C, S)
    assert auto.strategy == "information_set"
    assert (auto.lb, auto.ub) == (got.lb, got.ub)
    assert C.contains(got.witness) and not S.contains(got.witness)
    assert sum(1 for x in got.witness if x) == got.lb
    # min over C minus S can never undercut the code's own distance, and when
    # the witness sits at that distance the result is pinned exactly
    base = min_distance(C, strategy="exhaustive")
    assert got.lb == base.lb


def _scrambled_images(C, rng, count, mode):
    """Images of C under random monomial maps, or permutations in
    permutation mode."""
    q = C.field.order
    for _ in range(count):
        perm = tuple(int(x) for x in rng.permutation(C.n))
        diag = ((1,) * C.n if mode == "permutation" else
                tuple(int(x) for x in rng.integers(1, q, size=C.n)))
        yield apply_monomial(C, MonomialTransform(perm, diag))


def test_brute_force_identity_and_scrambled():
    C = _random_code(F3, 7, 3, 71)
    res = brute_force_equivalence(C, C)
    assert res.status == "equivalent" and res.witness.perm == tuple(range(7))
    # no shift keeps the random code; the cyclic [15,5] is pinned by its
    # shift (eta = 1) in both modes; the omega-constacyclic [7,4] is pinned
    # by eta = omega under monomial maps only
    cyclic = build_cyclic(15, 4, DefiningSet.from_leaders(15, 4, (1, 2, 3, 6, 7)))
    consta = build_constacyclic(7, (1, 4, 16))
    assert linear._shift_constant(C, None) is None
    assert linear._shift_constant(cyclic.base, None) == 1
    assert linear._shift_constant(consta.base, None) == GF4_OMEGA
    rng = np.random.default_rng(72)
    for mode in ("monomial", "permutation"):
        for code, count in ((C, 6), (cyclic.base, 2), (consta.base, 3)):
            for C2 in _scrambled_images(code, rng, count, mode):
                res = brute_force_equivalence(code, C2, mode=mode)
                assert res.status == "equivalent"
                assert apply_monomial(code, res.witness) == C2
                assert mode == "monomial" or res.witness.is_permutation()


def test_brute_force_detects_inequivalence():
    A = LinearCode.from_rows(F3, [[1, 0, 0, 1], [0, 1, 0, 2]])
    B = LinearCode.from_rows(F3, [[1, 0, 0, 0], [0, 1, 0, 0]])
    res = brute_force_equivalence(A, B)
    assert res.status == "not_equivalent"


def test_brute_force_permutation_mode():
    C = _random_code(F4, 6, 3, 81)
    rng = np.random.default_rng(82)
    perm = tuple(int(x) for x in rng.permutation(6))
    C2 = apply_monomial(C, MonomialTransform.permutation(perm))
    res = brute_force_equivalence(C, C2, mode="permutation")
    assert res.status == "equivalent" and res.witness.is_permutation()
    assert apply_monomial(C, res.witness) == C2


def test_brute_force_searches_the_smaller_dual():
    # cyclic (10,3) with zeros {0} and {5}: the [10,9] codes have 3^9
    # codewords, over a budget of 1000, and up to 9! leaves; their duals,
    # spanned by (1, 1, ..., 1) and (1, 2, 1, 2, ...), have 3 codewords and
    # at most 10 leaves.  No permutation joins them, and a monomial map
    # does, mapped back from the duals and re-verified
    A = build_cyclic(10, 3, DefiningSet.from_leaders(10, 3, (0,))).base
    B = build_cyclic(10, 3, DefiningSet.from_leaders(10, 3, (5,))).base
    assert (A.k, B.k) == (9, 9)
    res = brute_force_equivalence(A, B, mode="permutation", budget=1000)
    assert res.status == "not_equivalent" and res.work < 20
    res = brute_force_equivalence(A, B, mode="monomial", budget=1000)
    assert res.status == "equivalent" and res.work < 20
    assert not res.witness.is_permutation()
    assert apply_monomial(A, res.witness) == B


def test_brute_force_forces_columns_past_a_wide_diagonal():
    # [I_9 | 0] over GF(4) against a rotation of its coordinates: every
    # nonzero diagonal keeps the code, 3^10 of them, too many to scan; once
    # the nine pivot sources are chosen, the zero column is forced
    A = LinearCode.from_rows(F4, np.eye(9, 10, dtype=np.uint8))
    B = apply_monomial(A, MonomialTransform.permutation(
        [(i + 1) % 10 for i in range(10)]))
    for mode in ("monomial", "permutation"):
        res = brute_force_equivalence(A, B, mode=mode)
        assert res.status == "equivalent"
        assert apply_monomial(A, res.witness) == B
